"""Ordered abelian groups as lexicographic words of typed components.

A group is a :class:`LexWord`: a finite sequence of components, index 0 most
significant.  Component kinds:

* ``Zed``            the integers
* ``Rat``            the rationals
* ``LocZ(q)``        rationals with denominator coprime to q
* ``FreeReal(gens)`` the subgroup of the reals generated by declared
                     Q-linearly independent constants (rationals and pi)
* ``OmegaTower(s)``  schematic infinite lexicographic sum of LocZ(p_k)
                     over k >= s+1, most significant summand first
* ``PolyModule``     schematic LocZ(q)-module generated by the powers of a
                     transcendental constant; archimedean (it sits inside
                     the reals), so it contributes no inner convex cuts

The first four kinds are *effective*: they have element slots, elements
exist and arithmetic is exact.  The last two have no slots and are
analysis-only; words containing them expose the symbolic interfaces but no
element arithmetic.

Every component declares one per-prime fact, its ``exponent_map()``: log_p
of the size of C/pC at each prime p (INF when infinite), as a default value
plus finitely many exceptions.  Divisibility by p is exponent 0, so the
convex layer reads it from the same map.

An element of an effective word is a flat tuple with one entry per scalar
slot: one slot for Zed, Rat and LocZ, and one slot per generator for
FreeReal, spliced in place.  Zed and FreeReal slots hold ``int``, Rat and
LocZ slots hold ``Fraction``.  The word's :class:`SlotLayout` says which
component owns each slot; only ``elem_cmp`` regroups the FreeReal slots.

Inputs are validated where they enter, and the arithmetic trusts them:

* components: each component's constructor (``LocZ``, ``FreeReal``,
  ``OmegaTower``, ``PolyModule`` and the generator ``RealGen``) checks its
  parameters and raises ValueError, which the group parser reports as a
  DslSyntaxError;
* elements: ``unflatten`` (and ``element``, which delegates to it) checks
  slot count and slot kinds, and ``zero_element`` checks effectiveness;
* bindings: ``formulas._norm_env`` takes a series or a rational and
  rejects any other value, and a series over another group, the only way
  series of two groups can meet (``valuations.ring_member`` takes no
  group: it reads the group off the series);
* cuts: ``convex.parse_cut`` checks a cut where it is read, and
  ``valuations.ring_member`` checks a cut against the group of the series
  it tests;
* primes: the formula builders and matchers, ``hahn.root_exists`` and the
  CLI's ``--primes`` check primality, so ``elem_p_divisible`` assumes it.

Internal helpers trust their callers and check nothing themselves:
``convex.is_limit_cut`` and ``convex.pred_cut`` take a validated cut (for
``pred_cut`` neither Top nor a limit cut), ``OmegaTower.summand_prime`` a
1-based offset, ``primes.prime_at`` a natural index and
``hahn._int_nth_root`` a natural.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

from .errors import DslSyntaxError, InternalError, NonEffectiveError, ShapeError
from .primes import INF, PartitionMap, is_prime, prime_at, prime_index

# ---------------------------------------------------------------------------
# certified interval arithmetic for pi

_TEN = Fraction(10)


def _arctan_bounds(inv_x: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on arctan(1/inv_x) with error below eps (alternating series)."""
    x2 = Fraction(1, inv_x * inv_x)
    term = Fraction(1, inv_x)
    total = Fraction(0)
    j = 0
    while True:
        total += term if j % 2 == 0 else -term
        j += 1
        term = term * x2 * (2 * j - 1) / (2 * j + 1)
        if term < eps:
            break
    # remainder of an alternating series is bounded by the first omitted term
    return total - term, total + term


@lru_cache(maxsize=None)
def pi_interval(digits: int) -> tuple[Fraction, Fraction]:
    """A rational interval containing pi, of width below 10^-digits.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) with exact
    Fraction partial sums and alternating-series truncation bounds.
    """
    eps = _TEN ** -(digits + 2)
    a5_lo, a5_hi = _arctan_bounds(5, eps)
    a239_lo, a239_hi = _arctan_bounds(239, eps)
    return 16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo


# ---------------------------------------------------------------------------
# records


def _record_eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return type(self) is not type(other) or tuple.__ne__(self, other)


def _record_hash(self) -> int:
    return hash((type(self), *self))


def _record_bool(self) -> bool:
    return True


def record(name: str, fields: str) -> type:
    """A namedtuple class whose instances are equal, and hash alike, only
    with instances of the same class, and are always true.

    Records of different kinds can share a field layout (the formula nodes
    Add and Mul, the components LocZ and OmegaTower), where plain tuple
    equality would confuse them, and a record with no fields (Zed) would be
    a false empty tuple.  Creating the class costs one namedtuple call,
    where a frozen dataclass execs a generated function per method.
    """
    cls = namedtuple(name, fields, module=sys._getframe(1).f_globals["__name__"])
    cls.__eq__ = _record_eq
    cls.__ne__ = _record_ne
    cls.__hash__ = _record_hash
    cls.__bool__ = _record_bool
    return cls


class RealGen(record("RealGen", "kind value")):
    """A generator of a FreeReal component: a rational constant or pi."""

    __slots__ = ()

    # kind is "rat" or "pi"; value is meaningful for kind == "rat"
    def __new__(cls, kind: str, value: Fraction = Fraction(0)):
        if kind not in ("rat", "pi"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == "rat" and value == 0:
            raise ValueError("rational generator must be nonzero")
        return super().__new__(cls, kind, value)

    def describe(self) -> str:
        if self.kind == "pi":
            return "pi"
        return format_rational(self.value)


def sign_of_real(gens: tuple[RealGen, ...], coords: tuple[int, ...]) -> int:
    """Exact sign of sum(coords[i] * gens[i]).

    The rational part is held exactly as an unreduced n/d with d > 0; a
    nonzero pi coefficient k triggers interval refinement against the
    cached enclosures lo < pi < hi of ``pi_interval``.  Each bound is decided
    in integers by cross-multiplication: n/d + k*b has the sign of
    n*b.denominator + k*b.numerator*d.  Refinement terminates because the
    declared linear independence makes the value nonzero whenever some
    coordinate is nonzero.
    """
    n, d = 0, 1
    pi_coeff = 0
    for g, c in zip(gens, coords):
        if g.kind == "rat":
            num, den = g.value.numerator, g.value.denominator
            n = n * den + c * num * d
            d *= den
        else:
            pi_coeff += c
    if pi_coeff == 0:
        return (n > 0) - (n < 0)
    digits = 30
    while digits <= 3840:
        lo, hi = pi_interval(digits)
        # the value lies between n/d + k*near and n/d + k*far
        near, far = (lo, hi) if pi_coeff > 0 else (hi, lo)
        if n * near.denominator + pi_coeff * near.numerator * d > 0:
            return 1
        if n * far.denominator + pi_coeff * far.numerator * d < 0:
            return -1
        digits *= 2
    raise InternalError("interval refinement failed to separate a real constant from zero")


# ---------------------------------------------------------------------------
# components


class Zed(record("Zed", "")):
    __slots__ = ()

    def exponent_map(self) -> PartitionMap:
        return PartitionMap(1)

    def n_slots(self) -> int:
        return 1

    def describe(self) -> str:
        return "Z"


class Rat(record("Rat", "")):
    __slots__ = ()

    def exponent_map(self) -> PartitionMap:
        return PartitionMap(0)

    def n_slots(self) -> int:
        return 1

    def describe(self) -> str:
        return "Q"


class LocZ(record("LocZ", "q")):
    __slots__ = ()

    def __new__(cls, q: int):
        if not is_prime(q):
            raise ValueError(f"localization prime expected, got {q}")
        return super().__new__(cls, q)

    def exponent_map(self) -> PartitionMap:
        return PartitionMap(0, ((self.q, 1),))

    def n_slots(self) -> int:
        return 1

    def describe(self) -> str:
        return f"Zloc({self.q})"


class FreeReal(record("FreeReal", "gens")):
    __slots__ = ()

    def __new__(cls, gens: tuple[RealGen, ...]):
        if not gens:
            raise ValueError("real component needs at least one generator")
        n_pi = sum(1 for g in gens if g.kind == "pi")
        n_rat = len(gens) - n_pi
        if n_pi > 1 or n_rat > 1:
            # two rationals (or two copies of pi) are linearly dependent over Q
            raise ValueError("real generators must be linearly independent over Q")
        return super().__new__(cls, gens)

    @property
    def rank(self) -> int:
        return len(self.gens)

    def exponent_map(self) -> PartitionMap:
        return PartitionMap(self.rank)

    def n_slots(self) -> int:
        return self.rank

    def describe(self) -> str:
        return "real(" + ", ".join(g.describe() for g in self.gens) + ")"


class OmegaTower(record("OmegaTower", "start")):
    """Infinite lexicographic sum of LocZ(p_k) over k >= start+1.

    The summand at tower offset m >= 1 is LocZ(prime_at(start + m)); offset
    grows with depth (less significant).  The deep end is a limit: the
    intersection of the summand tails is trivial, approached but never
    reached by the inner cuts.
    """

    __slots__ = ()

    def __new__(cls, start: int):
        if start < 0:
            raise ValueError("tower start must be a natural number")
        return super().__new__(cls, start)

    def summand_prime(self, offset: int) -> int:
        """Prime of the summand at tower offset (1-based)."""
        return prime_at(self.start + offset)

    def offset_of_prime(self, p: int) -> int | None:
        """Inverse of summand_prime, or None when p has no summand."""
        k = prime_index(p)
        return k - self.start if k >= self.start + 1 else None

    def tail_exponent_map(self, from_offset: int) -> PartitionMap:
        """1 at the primes of the summands from from_offset on, 0 at the
        primes before them."""
        # a list, not a generator, as in primes._canonical
        return PartitionMap(1, tuple([(prime_at(k), 0) for k in range(self.start + from_offset)]))

    def exponent_map(self) -> PartitionMap:
        return self.tail_exponent_map(1)

    def n_slots(self) -> int:
        return 0

    def describe(self) -> str:
        return f"omega_tower(start={self.start})"


class PolyModule(record("PolyModule", "q gen")):
    """LocZ(q)-combinations of the powers of a transcendental constant.

    Sits inside the reals, hence archimedean: no proper nontrivial convex
    subgroups.  Divisible away from q; the quotient by q is infinite
    because the powers of the generator are independent over the base.
    """

    __slots__ = ()

    def __new__(cls, q: int, gen: RealGen):
        if not is_prime(q):
            raise ValueError(f"localization prime expected, got {q}")
        if gen.kind != "pi":
            raise ValueError("poly_module generator must be transcendental")
        return super().__new__(cls, q, gen)

    def exponent_map(self) -> PartitionMap:
        return PartitionMap(0, ((self.q, INF),))

    def n_slots(self) -> int:
        return 0

    def describe(self) -> str:
        return f"poly_module(Zloc({self.q}), {self.gen.describe()})"


Component = Union[Zed, Rat, LocZ, FreeReal, OmegaTower, PolyModule]


# ---------------------------------------------------------------------------
# words and elements


class SlotLayout(NamedTuple):
    """Where the components of a word sit in its flat element tuple.

    kinds[i] is the component owning slot i, offsets[k] the first slot of
    component k (offsets[-1] is the slot count), and real_runs[i] the
    (start, stop, gens) slot run of slot i's FreeReal component, or None.
    sample_dens[i] holds the denominators hahn.sample_series draws slot i
    with, or None for an int slot (Zed, FreeReal); int_slots holds the
    indices of the int slots and frac_slots those of the other slots, the
    Fraction slots (Rat, LocZ); loc_slots holds the (index, q) pair of each
    LocZ slot.  The divisibility tests read these tables, not the kinds.
    native_order holds when no slot has a real run: Python's tuple order
    on elements is then elem_cmp's order.
    """

    effective: bool
    kinds: tuple[Component, ...]
    offsets: tuple[int, ...]
    real_runs: tuple[tuple[int, int, tuple[RealGen, ...]] | None, ...]
    zero: tuple
    sample_dens: tuple[tuple[int, ...] | None, ...]
    int_slots: tuple[int, ...]
    frac_slots: tuple[int, ...]
    loc_slots: tuple[tuple[int, int], ...]
    native_order: bool

    @staticmethod
    def of(components: tuple[Component, ...]) -> "SlotLayout":
        kinds, offsets, runs = [], [0], []
        for comp in components:
            start = len(kinds)
            kinds.extend([comp] * comp.n_slots())
            offsets.append(len(kinds))
            run = (start, len(kinds), comp.gens) if isinstance(comp, FreeReal) else None
            runs.extend([run] * comp.n_slots())
        dens = tuple(
            None if isinstance(k, (Zed, FreeReal))
            else (1, 2, 3, 4) if isinstance(k, Rat)
            else tuple(d for d in (1, 2, 3, 4, 5) if d % k.q)
            for k in kinds
        )
        zero = tuple(0 if d is None else Fraction(0) for d in dens)
        effective = all(c.n_slots() for c in components)
        ints = tuple(i for i, d in enumerate(dens) if d is None)
        frac = tuple(i for i, d in enumerate(dens) if d is not None)
        loc = tuple((i, k.q) for i, k in enumerate(kinds) if isinstance(k, LocZ))
        native = all(run is None for run in runs)
        return SlotLayout(
            effective, tuple(kinds), tuple(offsets), tuple(runs), zero, dens, ints, frac, loc, native
        )


@dataclass(frozen=True)
class LexWord:
    """A lexicographic word of components, index 0 most significant.

    A word hashes once: the caches keyed on a word (convex._chain_table,
    hahn.one_series) are looked up thousands of times per classification
    report, and the generated dataclass hash would walk every component,
    and each generator's Fraction, on every lookup.  Equality stays the
    dataclass's comparison of components.
    """

    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a group needs at least one component")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.components)

    @cached_property
    def layout(self) -> SlotLayout:
        return SlotLayout.of(self.components)

    def is_effective(self) -> bool:
        return self.layout.effective

    def n_slots(self) -> int:
        return len(self.layout.kinds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LexWord<{print_group(self)}>"


# An element is a flat tuple with one entry per slot of G.layout:
#   Zed, FreeReal slots -> int; Rat, LocZ slots -> Fraction
GroupElement = tuple


def _require_effective(G: LexWord) -> SlotLayout:
    if not G.is_effective():
        raise NonEffectiveError(
            f"{print_group(G)} contains schematic components; element arithmetic is unavailable"
        )
    return G.layout


def _coerce_slot(kind: Component, value) -> int | Fraction:
    f = Fraction(value)
    if isinstance(kind, Rat):
        return f
    if isinstance(kind, LocZ):
        if f.denominator % kind.q == 0:
            raise ShapeError(f"coordinate {value} has denominator divisible by {kind.q}")
        return f
    if f.denominator != 1:
        if isinstance(kind, FreeReal):
            raise ShapeError("real-component coordinates are integer vectors")
        raise ShapeError(f"integer coordinate expected, got {value}")
    return f.numerator


def unflatten(G: LexWord, flat) -> GroupElement:
    """Validate a flat slot tuple as an element of G (the input boundary)."""
    flat = tuple(flat)
    if len(flat) != G.n_slots():
        raise ShapeError(f"expected {G.n_slots()} slots, got {len(flat)}")
    lay = _require_effective(G)
    return tuple(_coerce_slot(kind, v) for kind, v in zip(lay.kinds, flat))


def element(G: LexWord, *coords) -> GroupElement:
    """Build a validated element from per-component coordinates; a FreeReal
    coordinate is the vector of its generator coefficients."""
    _require_effective(G)
    if len(coords) != len(G.components):
        raise ShapeError(
            f"expected {len(G.components)} coordinates, got {len(coords)}"
        )
    flat = []
    for comp, value in zip(G.components, coords):
        if isinstance(comp, FreeReal):
            vec = tuple(value)
            if len(vec) != comp.rank:
                raise ShapeError(f"expected {comp.rank} generator coordinates, got {len(vec)}")
            flat.extend(vec)
        else:
            flat.append(value)
    return unflatten(G, flat)


def zero_element(G: LexWord) -> GroupElement:
    return _require_effective(G).zero


def elem_add(G: LexWord, a: GroupElement, b: GroupElement) -> GroupElement:
    return tuple(map(operator.add, a, b))


def elem_neg(G: LexWord, a: GroupElement) -> GroupElement:
    return scalar_mul(G, -1, a)


def elem_sub(G: LexWord, a: GroupElement, b: GroupElement) -> GroupElement:
    return tuple(map(operator.sub, a, b))


def scalar_mul(G: LexWord, k: int, a: GroupElement) -> GroupElement:
    return tuple(k * x for x in a)


def elem_cmp(G: LexWord, a: GroupElement, b: GroupElement) -> int:
    """Lexicographic comparison; returns -1, 0 or 1.

    The first differing slot decides, except that a FreeReal component's
    slots are one coordinate: its generators are linearly independent, so
    the sign of their combined difference is nonzero and decides.
    """
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            run = G.layout.real_runs[i]
            if run is None:
                return 1 if x > y else -1
            start, stop, gens = run
            return sign_of_real(gens, tuple(u - v for u, v in zip(a[start:stop], b[start:stop])))
    return 0


def elem_p_divisible(G: LexWord, a: GroupElement, p: int) -> bool:
    """Membership of a in pG for a prime p, decided slot by slot: an int
    slot must be a multiple of p, a Zloc(p) slot must have one as its
    numerator, and every other slot is p-divisible."""
    layout = G.layout
    for i in layout.int_slots:
        if a[i] % p:
            return False
    for i, q in layout.loc_slots:
        # a q-free denominator (see _coerce_slot): a[i] is in qZloc(q)
        # exactly when q divides its numerator
        if q == p and a[i].numerator % q:
            return False
    return True


def elem_div_by_p(G: LexWord, a: GroupElement, p: int) -> GroupElement:
    """The b with p*b = a; requires elem_p_divisible(G, a, p)."""
    if not elem_p_divisible(G, a, p):
        raise ShapeError(f"element is not divisible by {p}")
    b = list(a)
    for i in G.layout.int_slots:
        b[i] //= p
    for i in G.layout.frac_slots:
        b[i] /= p
    return tuple(b)


def format_rational(x: int | Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# the group DSL, and the token stream the series and formula DSLs share

# Whitespace is spaces, tabs and line breaks only; \s would also skip
# every other Unicode space.
_SPACE = " \t\r\n"
_TOKEN_RE = re.compile(
    f"[{_SPACE}]*" r"(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>->|!=|[()\[\],.;=+\-*/^])|\Z)"
)


def _clip(token: str) -> str:
    """A token as error messages quote it: at most 40 characters, then an
    ellipsis, so an overlong input is not echoed in full."""
    return token if len(token) <= 40 else token[:40] + "…"


class _Tokens:
    """A cursor over the (kind, value, position) tokens of a DSL text.

    Kinds are "name", "int" and "sym"; whitespace separates tokens and may
    surround the text. Past the last token, peek gives ("eof", "", len(text)).
    """

    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        self.i = 0
        pos = 0
        while (m := _TOKEN_RE.match(text, pos)) is not None and m.lastgroup is not None:
            self.toks.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        if m is None:
            at = len(text) - len(text[pos:].lstrip(_SPACE))
            raise DslSyntaxError(f"unexpected character {text[at]!r}", at, text)

    def peek(self, k: int = 0) -> tuple[str, str, int]:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else ("eof", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] == "eof":
            self.fail("unexpected end of input")
        self.i += 1
        return tok

    def at(self, value: str, k: int = 0) -> bool:
        return self.peek(k)[1] == value

    def accept(self, value: str) -> bool:
        """Consume the next token when it is value."""
        if self.at(value):
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.fail(f"expected {value!r}, got {_clip(self.peek()[1]) or 'end of input'!r}")

    def fail(self, msg: str, pos: int | None = None):
        raise DslSyntaxError(msg, self.peek()[2] if pos is None else pos, self.text)

    def expect_end(self) -> None:
        if self.i < len(self.toks):
            self.fail(f"trailing input {_clip(self.peek()[1])!r}")

    def items(self, item) -> list:
        """One or more items separated by commas."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def int_tok(self) -> int:
        """The one reader of integer literals, so every one too long for
        int() is a DslSyntaxError."""
        kind, val, pos = self.next()
        if kind != "int":
            self.fail(f"expected a number, got {_clip(val)!r}", pos)
        try:
            return int(val)
        except ValueError:
            self.fail(f"a {len(val)}-digit number is too long", pos)

    def rational(self) -> Fraction:
        """n or n/d, unsigned."""
        num = self.int_tok()
        if not self.accept("/"):
            return Fraction(num)
        den = self.int_tok()
        if den == 0:
            self.fail("zero denominator")
        return Fraction(num, den)

    def signed_rational(self) -> Fraction:
        return -self.rational() if self.accept("-") else self.rational()

    def exponent(self) -> tuple[Fraction, ...]:
        """The exponent e of a monomial t^(e1,...,ek)."""
        for word in ("t", "^", "("):
            self.expect(word)
        exps = self.items(self.signed_rational)
        self.expect(")")
        return tuple(exps)


class _GroupParser(_Tokens):
    def parse(self) -> LexWord:
        self.expect("lex")
        self.expect("(")
        comps = self.items(self.parse_component)
        self.expect(")")
        self.expect_end()
        return LexWord(tuple(comps))

    def parse_component(self) -> Component:
        _, val, pos = self.next()
        try:
            if val == "Z":
                return Zed()
            if val == "Q":
                return Rat()
            if val == "Zloc":
                self.expect("(")
                q = self.int_tok()
                self.expect(")")
                return LocZ(q)
            if val == "real":
                self.expect("(")
                gens = self.items(self.parse_gen)
                self.expect(")")
                return FreeReal(tuple(gens))
            if val == "omega_tower":
                for word in ("(", "start", "="):
                    self.expect(word)
                start = self.int_tok()
                self.expect(")")
                return OmegaTower(start)
            if val == "poly_module":
                for word in ("(", "Zloc", "("):
                    self.expect(word)
                q = self.int_tok()
                self.expect(")")
                self.expect(",")
                gen = self.parse_gen()
                self.expect(")")
                return PolyModule(q, gen)
        except ValueError as exc:
            raise DslSyntaxError(str(exc), pos, self.text) from exc
        self.fail(f"unknown component kind {_clip(val)!r}", pos)

    def parse_gen(self) -> RealGen:
        if self.accept("pi"):
            return RealGen("pi")
        return RealGen("rat", self.signed_rational())


def parse_group(text: str) -> LexWord:
    """Parse the group DSL, e.g. "lex(Z, Q)" or "lex(omega_tower(start=0))"."""
    return _GroupParser(text).parse()


def print_group(G: LexWord) -> str:
    return "lex(" + ", ".join(c.describe() for c in G.components) + ")"

