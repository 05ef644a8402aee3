"""Finite-support Hahn series over a lexicographic value group.

Series carry exact rational coefficients and an optional truncation bound:
``trunc = g`` declares every term at or above g unknown (the series is only
trusted modulo O(t^g)).  Arithmetic is exact on exact inputs; truncation
propagates conservatively and is never dropped silently.

Root existence is decided by sign and exponent divisibility alone: the
coefficients live inside a real closed field, where a p-th root of a
positive leading coefficient always exists.  Lifting a root to a series
(``pth_root``) is a Newton iteration linearized at the leading defect term,
adding one exact coefficient per step; it terminates exactly when the
defect vanishes and otherwise stops at the requested cutoff.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .convex import bottom_cut, validate_cut
from .errors import (
    DslSyntaxError,
    NonEffectiveError,
    RootError,
    ShapeError,
    TruncationError,
    ZeroInputError,
)
from .groups import (
    FreeReal,
    GroupElement,
    LexWord,
    LocZ,
    Rat,
    Zed,
    elem_add,
    elem_cmp,
    elem_div_by_p,
    elem_neg,
    elem_p_divisible,
    elem_sub,
    format_rational,
    scalar_mul,
    unflatten,
    zero_element,
)
from .primes import is_prime


@dataclass(frozen=True)
class HahnSeries:
    group: LexWord
    terms: tuple[tuple[GroupElement, Fraction], ...]  # ascending exponents
    trunc: GroupElement | None = None

    def is_zero(self) -> bool:
        return not self.terms and self.trunc is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HahnSeries<{print_series(self)}>"


def _make(G: LexWord, pairs, trunc: GroupElement | None) -> HahnSeries:
    """A series from (exponent, coefficient) pairs whose exponents are
    already elements of G; equal exponents merge, zero terms drop, and
    terms at or above trunc drop.

    Every series operation ends here, so each step is kept cheap: the
    coefficients must already be Fractions (the first one seen for an
    exponent is stored as is, so an int would survive into the series),
    and the sort runs only when two or more terms remain.  Merging comes
    before sorting because series_mul hands over many repeated exponents,
    which would otherwise each pay elem_cmp calls in the sort.
    """
    merged: dict[GroupElement, Fraction] = {}
    get = merged.get
    for e, c in pairs:
        prev = get(e)
        merged[e] = c if prev is None else prev + c
    kept = [
        (e, c)
        for e, c in merged.items()
        if c and (trunc is None or elem_cmp(G, e, trunc) < 0)
    ]
    if len(kept) > 1:
        kept.sort(key=cmp_to_key(lambda a, b: elem_cmp(G, a[0], b[0])))
    return HahnSeries(G, tuple(kept), trunc)


def series_of(G: LexWord, flat_terms, trunc_flat=None) -> HahnSeries:
    """Build a series from (flat exponent tuple, coefficient) pairs."""
    pairs = [(unflatten(G, e), Fraction(c)) for e, c in flat_terms]
    trunc = unflatten(G, trunc_flat) if trunc_flat is not None else None
    return _make(G, pairs, trunc)


def monomial(G: LexWord, flat_exp, coeff=1) -> HahnSeries:
    return series_of(G, [(flat_exp, coeff)])


def const_series(G: LexWord, value) -> HahnSeries:
    value = Fraction(value)
    if value == 0:
        return HahnSeries(G, ())
    return HahnSeries(G, ((zero_element(G), value),))


def zero_series(G: LexWord) -> HahnSeries:
    return HahnSeries(G, ())


def _min_trunc(G: LexWord, t1, t2):
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return t1 if elem_cmp(G, t1, t2) <= 0 else t2


def v_of(a: HahnSeries) -> GroupElement:
    """The canonical valuation: exponent of the leading (lowest) term."""
    if a.terms:
        return a.terms[0][0]
    if a.trunc is not None:
        raise TruncationError("valuation undefined: series is zero modulo its truncation")
    raise ZeroInputError("valuation of the zero series")


def leading_coeff(a: HahnSeries) -> Fraction:
    if not a.terms:
        raise ZeroInputError("no leading term")
    return a.terms[0][1]


def series_add(a: HahnSeries, b: HahnSeries) -> HahnSeries:
    trunc = _min_trunc(a.group, a.trunc, b.trunc)
    return _make(a.group, list(a.terms) + list(b.terms), trunc)


def series_neg(a: HahnSeries) -> HahnSeries:
    return HahnSeries(a.group, tuple((e, -c) for e, c in a.terms), a.trunc)


def series_sub(a: HahnSeries, b: HahnSeries) -> HahnSeries:
    return series_add(a, series_neg(b))


def series_mul(a: HahnSeries, b: HahnSeries) -> HahnSeries:
    G = a.group
    if a.is_zero() or b.is_zero():
        return zero_series(G)

    def lead_bound(s: HahnSeries) -> GroupElement:
        if s.terms:
            return s.terms[0][0]
        # no terms but truncated: the valuation is unknown
        raise TruncationError("cannot multiply: operand is zero modulo its truncation")

    trunc = None
    if a.trunc is not None:
        trunc = _min_trunc(G, trunc, elem_add(G, a.trunc, lead_bound(b)))
    if b.trunc is not None:
        trunc = _min_trunc(G, trunc, elem_add(G, b.trunc, lead_bound(a)))
    pairs = [
        (elem_add(G, ea, eb), ca * cb) for ea, ca in a.terms for eb, cb in b.terms
    ]
    return _make(G, pairs, trunc)


def series_pow(a: HahnSeries, k: int) -> HahnSeries:
    if k < 0:
        raise ShapeError("negative powers need series_invert")
    out = const_series(a.group, 1)
    base = a
    while k:
        if k & 1:
            out = series_mul(out, base)
        base = series_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def series_invert(a: HahnSeries, cutoff: GroupElement | None = None) -> HahnSeries:
    """Multiplicative inverse, reported modulo O(t^cutoff).

    A monomial inverts exactly and ignores the cutoff.  Otherwise the
    1-unit part is expanded as a geometric series; the support of the true
    inverse can fail to be finite below the cutoff (exponents that never
    accumulate past it), which surfaces as a TruncationError.
    """
    G = a.group
    if a.is_zero():
        raise ZeroInputError("inverse of zero")
    if not a.terms:
        raise TruncationError("cannot invert: series is zero modulo its truncation")
    v = v_of(a)
    lc = leading_coeff(a)
    inv_lead = _make(G, [(elem_neg(G, v), Fraction(1) / lc)], None)
    if len(a.terms) == 1 and a.trunc is None:
        return inv_lead
    if cutoff is None and a.trunc is None:
        raise TruncationError("a cutoff is required: the inverse has infinite support")
    # precision limits: the requested cutoff, and what the input itself knows
    eff = None
    if cutoff is not None:
        eff = cutoff
    if a.trunc is not None:
        from_input = elem_sub(G, a.trunc, scalar_mul(G, 2, v))
        eff = from_input if eff is None else _min_trunc(G, eff, from_input)
    # a = lc * t^v * (1 + w) with v(w) > 0; invert the unit part to O(t^(eff + v))
    unit_cut = elem_add(G, eff, v)
    lead = _make(G, [(v, lc)], None)
    w = series_mul(series_sub(a, lead), inv_lead)
    w = HahnSeries(G, w.terms, None)  # powers are filtered against unit_cut below
    acc = const_series(G, 1)
    power = const_series(G, 1)
    for _ in range(512):
        power = _make(G, series_mul(power, series_neg(w)).terms, unit_cut)
        if not power.terms:
            inv_unit = _make(G, acc.terms, unit_cut)
            result = series_mul(inv_unit, inv_lead)
            return HahnSeries(G, result.terms, eff)
        acc = series_add(acc, power)
    raise TruncationError("inverse support is not finite below the cutoff")


def series_eq(a: HahnSeries, b: HahnSeries) -> bool:
    """Exact equality of exact series; truncated operands use equal_mod_trunc."""
    return a.group == b.group and a.terms == b.terms and a.trunc == b.trunc


def equal_mod_trunc(a: HahnSeries, b: HahnSeries) -> tuple[bool, bool]:
    """(equal, certain): compare below the coarser truncation bound.

    Disagreement below the bound is a certain inequality; agreement is
    certain only when both series are exact.
    """
    G = a.group
    bound = _min_trunc(G, a.trunc, b.trunc)
    diff = series_sub(a, b)
    live = [e for e, _ in diff.terms if bound is None or elem_cmp(G, e, bound) < 0]
    if live:
        return False, True
    return True, bound is None


# ---------------------------------------------------------------------------
# roots


def root_exists(a: HahnSeries, p: int, allow_negation: bool = False) -> bool:
    """Existence of y with y^p = a (or ±a) in the ambient real closed model.

    Decided by exponent divisibility and, for even p, the sign of the
    leading coefficient; coefficients range over a real closed field, so no
    rational root extraction is involved.  p must be prime (ShapeError
    otherwise): this is where a root degree enters the series layer.
    """
    if not is_prime(p):
        raise ShapeError(f"{p} is not prime")
    if a.is_zero():
        raise ZeroInputError("root existence of zero")
    v = v_of(a)
    if not elem_p_divisible(a.group, v, p):
        return False
    if p % 2 == 1:
        return True
    lc = leading_coeff(a)
    return lc > 0 or (allow_negation and -lc > 0)


def _int_nth_root(n: int, p: int) -> int | None:
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + p - 1) // p + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**p < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**p == n else None


def exact_fraction_root(c: Fraction, p: int) -> Fraction | None:
    """The exact rational p-th root of c, when one exists."""
    sign = 1
    if c < 0:
        if p % 2 == 0:
            return None
        sign, c = -1, -c
    num = _int_nth_root(c.numerator, p)
    den = _int_nth_root(c.denominator, p)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def pth_root(
    a: HahnSeries,
    p: int,
    cutoff: GroupElement | None = None,
    max_steps: int | None = None,
) -> HahnSeries:
    """The y with y^p = a, exact when finitely supported, else to O(t^cutoff).

    Newton steps linearized at the leading defect term: each step divides
    the defect's leading coefficient by p * lc(y)^(p-1) and appends one
    exact term, strictly raising the defect valuation (Hensel lifting, one
    coefficient at a time).  Exact mode requires the leading coefficient to
    be a perfect rational p-th power; enclosure-based checks live in
    root_enclosure and never feed oracle decisions.

    A lexicographic cutoff only terminates the loop once the defect climbs
    in a slot the cutoff dominates, which never happens when corrections
    march in a less significant slot.  max_steps bounds the work in that
    case: when hit, the partial root is returned truncated at the point the
    expansion stopped (witness extraction uses this; exact pipelines leave
    it None and get the loud iteration-cap error instead).
    """
    G = a.group
    if a.is_zero():
        raise ZeroInputError("root of zero")
    if not root_exists(a, p, False):
        raise RootError("no p-th root: leading exponent or sign obstruction")
    v = v_of(a)
    lc = leading_coeff(a)
    root_lc = exact_fraction_root(lc, p)
    if root_lc is None:
        raise RootError(f"leading coefficient {lc} is not an exact {p}-th power")
    # v is p-divisible (root_exists passed); the root's exponent is v/p
    e_root = elem_div_by_p(G, v, p)
    z = _make(G, [(e_root, root_lc)], None)
    for step in range(512):
        defect = series_sub(a, series_pow(z, p))
        if not defect.terms:
            if defect.trunc is None:
                return z
            limit = elem_sub(G, defect.trunc, scalar_mul(G, p - 1, e_root))
            return _make(G, z.terms, _min_trunc(G, limit, cutoff))
        e_step = elem_sub(G, v_of(defect), scalar_mul(G, p - 1, e_root))
        if cutoff is not None and elem_cmp(G, e_step, cutoff) >= 0:
            return _make(G, z.terms, cutoff)
        if max_steps is not None and step >= max_steps:
            return _make(G, z.terms, _min_trunc(G, e_step, cutoff))
        coeff = leading_coeff(defect) / (p * root_lc ** (p - 1))
        z = series_add(z, _make(G, [(e_step, coeff)], None))
    raise TruncationError("root support exceeded the iteration cap; pass a cutoff")


def root_enclosure(a: HahnSeries, p: int, digits: int = 12) -> tuple[Fraction, Fraction]:
    """A certified rational interval around the real p-th root of the
    leading coefficient (sanity checks only; oracle decisions are exact)."""
    if a.is_zero():
        raise ZeroInputError("root of zero")
    lc = leading_coeff(a)
    if p % 2 == 0 and lc < 0:
        raise RootError("even root of a negative leading coefficient")
    sign = -1 if lc < 0 else 1
    target = abs(lc)
    eps = Fraction(1, 10**digits)
    lo, hi = Fraction(0), max(Fraction(1), target)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid**p < target:
            lo = mid
        else:
            hi = mid
    if sign < 0:
        return -hi, -lo
    return lo, hi


# ---------------------------------------------------------------------------
# decomposition along a convex cut


def decompose(a: HahnSeries, c) -> tuple[tuple, HahnSeries]:
    """Split the valuation at a convex cut: coordinates above the cut, and
    the residue series over the suffix word.

    The residue collects every term whose exponent prefix above the cut
    matches the leading term's, re-based over the suffix group; the leading
    exponent of a is the concatenation of the coarse prefix with the
    residue's valuation.
    """
    G = a.group
    validate_cut(G, c)
    if a.is_zero() or not a.terms:
        raise ZeroInputError("decompose needs a leading term")
    if c.inner is not None or c == bottom_cut(G):
        raise NonEffectiveError("residue needs a nonempty effective suffix word")
    suffix = LexWord(G.components[c.seg :])
    if not suffix.is_effective():
        raise NonEffectiveError("suffix word is schematic")
    # the slots of the suffix components are a valid element of the suffix word
    k = G.layout.offsets[c.seg]
    coarse = v_of(a)[:k]
    kept = [(e[k:], coeff) for e, coeff in a.terms if e[:k] == coarse]
    trunc = a.trunc[k:] if a.trunc is not None and a.trunc[:k] == coarse else None
    return coarse, _make(suffix, kept, trunc)


# ---------------------------------------------------------------------------
# sampling and cutoffs


def default_cutoff(G: LexWord, magnitude: int = 9) -> GroupElement:
    return unflatten(G, (magnitude,) * G.n_slots())


_SAMPLE_RNG = random.Random()


def sample_series(
    G: LexWord,
    seed: int,
    support: int = 3,
    exp_mag: int = 3,
    coeff_mag: int = 9,
) -> HahnSeries:
    """Deterministic nonzero pseudo-random series with 1..support terms.

    The draws depend only on the arguments: the module's one generator is
    reseeded from them on every call (seeding resets its whole state, so
    the stream equals that of a fresh random.Random with the same seed,
    without building one per call).  Not safe to call from two threads
    at once.
    """
    if not G.is_effective():
        raise NonEffectiveError("cannot sample elements of a schematic word")
    rng = _SAMPLE_RNG
    rng.seed(f"hahn:{seed}:{support}:{exp_mag}:{coeff_mag}")
    exps: list[tuple] = []
    for _ in range(support):
        flat = []
        for comp in G.layout.kinds:
            if isinstance(comp, (Zed, FreeReal)):
                flat.append(rng.randint(-exp_mag, exp_mag))
            elif isinstance(comp, Rat):
                flat.append(Fraction(rng.randint(-exp_mag, exp_mag), rng.choice((1, 2, 3, 4))))
            elif isinstance(comp, LocZ):
                dens = [d for d in (1, 2, 3, 4, 5) if d % comp.q != 0]
                flat.append(Fraction(rng.randint(-exp_mag, exp_mag), rng.choice(dens)))
        if tuple(flat) not in exps:
            exps.append(tuple(flat))
    pairs = []
    for flat in exps:
        num = rng.randint(1, coeff_mag) * rng.choice((1, -1))
        pairs.append((flat, Fraction(num, rng.choice((1, 2, 3)))))
    # the slots are drawn valid for their kinds, so no unflatten is needed
    return _make(G, pairs, None)


# ---------------------------------------------------------------------------
# series literals


def _format_exp(e: GroupElement) -> str:
    return "(" + ",".join(format_rational(x) for x in e) + ")"


def print_series(a: HahnSeries) -> str:
    G = a.group
    zero = zero_element(G)
    chunks = []
    for e, c in a.terms:
        if e == zero:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = f"t^{_format_exp(e)}"
        else:
            body = f"{format_rational(abs(c))}*t^{_format_exp(e)}"
        chunks.append(("-" if c < 0 else "+", body))
    if not chunks:
        out = "0" if a.trunc is None else ""
    else:
        sign0, body0 = chunks[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
    if a.trunc is not None:
        marker = f"O(t^{_format_exp(a.trunc)})"
        out = marker if not out else f"{out} + {marker}"
    return out


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<otrunc>O\(\s*t\^\((?P<oexp>[^)]*)\)\s*\))"
    r"|(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?t\^\((?P<exp>[^)]*)\)"
    r"|(?P<const>\d+(?:/\d+)?)"
    r")\s*"
)


def parse_series(text: str, G: LexWord) -> HahnSeries:
    """Parse the series literal syntax, e.g. "1 + 2*t^(1,1/2) - t^(2,0)"."""
    pos = 0
    pairs = []
    trunc_flat = None
    first = True
    stripped = text.strip()
    if stripped == "0":
        return zero_series(G)
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise DslSyntaxError("unreadable series term", pos, text)
        sign_tok = m.group("sign")
        if sign_tok is None and not first:
            raise DslSyntaxError("terms must be joined by + or -", pos, text)
        sign = -1 if sign_tok == "-" else 1
        if m.group("otrunc"):
            if trunc_flat is not None:
                raise DslSyntaxError("duplicate O(...) marker", pos, text)
            if sign == -1:
                raise DslSyntaxError("O(...) marker cannot be subtracted", pos, text)
            trunc_flat = _parse_exp(m.group("oexp"), G, pos, text)
        elif m.group("const") is not None:
            const = _parse_coeff(m.group("const"), pos, text)
            pairs.append(((Fraction(0),) * G.n_slots(), sign * const))
        else:
            coeff = _parse_coeff(m.group("coeff"), pos, text) if m.group("coeff") else Fraction(1)
            flat = _parse_exp(m.group("exp"), G, pos, text)
            pairs.append((flat, sign * coeff))
        pos = m.end()
        first = False
    if not pairs and trunc_flat is None:
        raise DslSyntaxError("empty series literal", 0, text)
    return series_of(G, pairs, trunc_flat)


def _parse_coeff(chunk: str, pos: int, text: str) -> Fraction:
    try:
        return Fraction(chunk)
    except ZeroDivisionError as exc:
        raise DslSyntaxError(f"zero denominator in {chunk!r}", pos, text) from exc


def _parse_exp(body: str, G: LexWord, pos: int, text: str):
    parts = [chunk.strip() for chunk in body.split(",")]
    if len(parts) != G.n_slots():
        raise DslSyntaxError(
            f"exponent needs {G.n_slots()} coordinates, got {len(parts)}", pos, text
        )
    out = []
    for chunk in parts:
        try:
            out.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise DslSyntaxError(f"bad exponent coordinate {chunk!r}", pos, text) from exc
    return tuple(out)
