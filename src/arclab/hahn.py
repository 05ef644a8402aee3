"""Finite-support Hahn series over a lexicographic value group.

Series carry exact rational coefficients and an optional truncation bound:
``trunc = g`` declares every term at or above g unknown (the series is only
trusted modulo O(t^g)).  Arithmetic is exact on exact inputs; truncation
propagates conservatively and is never dropped silently.

Sums merge: ``series_add`` walks the two ascending term tuples once,
comparing heads through ``elem_cmp``, and cuts the truncation as a prefix
(``_cut``).  Products are convolved on ints: ``series_mul`` brings the
exponents' Q and Zloc slots and each operand's coefficients over common
denominators, merges the pair products as int tuples and ints, sorts them
while they are ints, and turns only the terms below the truncation back
into Fractions.  A power (``series_pow``) stays on ints across all its
squarings and products and converts back once, at the end.  Sums and
products build their series themselves, as ``sample_series`` does;
``_make`` is left for terms that may be unsorted or repeat an exponent:
series literals and ``series_of``/``monomial``.  A single nonzero term
is a series as it stands, and is built as one.

Root existence is decided by sign and exponent divisibility alone: the
coefficients live inside a real closed field, where a p-th root of a
positive leading coefficient always exists.  Lifting a root to a series
(``pth_root``) is a Newton iteration linearized at the leading defect term,
adding one exact coefficient per step; it terminates exactly when the
defect vanishes and otherwise stops at the requested cutoff.  The defect
a - z**p lives on ints: a is scaled once per call, z**p comes from the
power loop ``series_pow`` runs (``_int_pow``), the two are subtracted in
one dict, and only the leading term below a's truncation is turned back
into Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import lcm
from operator import add, itemgetter
from typing import NamedTuple

from .errors import (
    InternalError,
    RootError,
    ShapeError,
    TruncationError,
    ZeroInputError,
)
from .groups import (
    GroupElement,
    LexWord,
    _clip,
    _require_effective,
    _Tokens,
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


class HahnSeries(NamedTuple):
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

    Only input that may be unsorted or repeat an exponent comes here:
    series literals and series_of/monomial; terms already ascending with
    distinct exponents go to _cut, and a single nonzero term is built
    directly.  The
    coefficients must already be Fractions (the first one seen for an
    exponent is stored as is, so an int would survive into the series),
    and the sort runs only when two or more terms remain.  Merging comes
    before sorting, so a repeated exponent pays no elem_cmp calls in the
    sort.

    Hashing an exponent costs one Python-level Fraction.__hash__ per Q or
    Zloc slot, so a new exponent is hashed once: setdefault stores it, and
    only a dict that did not grow means the exponent was already there.
    """
    merged: dict[GroupElement, Fraction] = {}
    setdefault = merged.setdefault
    for e, c in pairs:
        n = len(merged)
        prev = setdefault(e, c)
        if len(merged) == n:
            merged[e] = prev + c
    kept = [
        (e, c)
        for e, c in merged.items()
        if c and (trunc is None or elem_cmp(G, e, trunc) < 0)
    ]
    return HahnSeries(G, _sorted_terms(G, kept), trunc)


def _cut(G: LexWord, terms, trunc: GroupElement | None) -> HahnSeries:
    """A series from nonzero terms already ascending with distinct
    exponents, cut at trunc: the terms end before the first exponent at or
    above it.  Nothing is merged, hashed or sorted."""
    if trunc is not None:
        for k, (e, _) in enumerate(terms):
            if elem_cmp(G, e, trunc) >= 0:
                return HahnSeries(G, tuple(terms[:k]), trunc)
    return HahnSeries(G, tuple(terms), trunc)


def _sorted_terms(G: LexWord, terms: list) -> tuple:
    """Terms with distinct exponents in ascending order.  Two terms take
    the one elem_cmp call the sort would make, without its key wrappers;
    the sort runs only for three or more."""
    if len(terms) == 2:
        a, b = terms
        return (a, b) if elem_cmp(G, a[0], b[0]) < 0 else (b, a)
    if len(terms) > 2:
        terms.sort(key=cmp_to_key(lambda a, b: elem_cmp(G, a[0], b[0])))
    return tuple(terms)


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


@lru_cache(maxsize=64)
def one_series(G: LexWord) -> HahnSeries:
    """The exact 1 of G, one object per group: series are frozen, so every
    caller can share it."""
    return const_series(G, 1)


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
    """The sum, by one merge of the two ascending term tuples: the smaller
    exponent is taken as it is, equal exponents add (a's exponent, ca + cb,
    as _make would keep them) and a zero sum drops.  The merge makes at most
    len(a.terms) + len(b.terms) - 1 elem_cmp calls and hashes nothing; the
    truncation is then cut as a prefix."""
    G = a.group
    x, y = a.terms, b.terms
    n, m = len(x), len(y)
    terms = []
    append = terms.append
    i = j = 0
    while i < n and j < m:
        ea, ca = x[i]
        eb, cb = y[j]
        # perfbench's tracer self-test counts these calls on an exact
        # lex(Z, Z) pth_root, where products sort natively
        s = elem_cmp(G, ea, eb)
        if s < 0:
            append(x[i])
            i += 1
        elif s > 0:
            append(y[j])
            j += 1
        else:
            c = ca + cb
            if c:
                append((ea, c))
            i += 1
            j += 1
    terms += x[i:]
    terms += y[j:]
    return _cut(G, terms, _min_trunc(G, a.trunc, b.trunc))


def series_neg(a: HahnSeries) -> HahnSeries:
    return HahnSeries(a.group, tuple((e, -c) for e, c in a.terms), a.trunc)


def series_sub(a: HahnSeries, b: HahnSeries) -> HahnSeries:
    return series_add(a, series_neg(b))


def _is_one(G: LexWord, s: HahnSeries) -> bool:
    """s is exactly the constant 1: no truncation, one term, at exponent 0."""
    return (
        s.trunc is None
        and len(s.terms) == 1
        and s.terms[0][1] == 1
        and s.terms[0][0] == G.layout.zero
    )


def series_mul(a: HahnSeries, b: HahnSeries) -> HahnSeries:
    """The product, truncated where either factor's truncation reaches.

    An exact 1 is the identity and hands back the other operand itself,
    without a product, merge or sort; 1 + O(t^g) is not exact and takes
    the full path.  The zero checks come first, so a zero operand still
    gives the zero series.

    The product convolves on ints over common denominators: every Q and
    Zloc exponent slot of both operands is scaled by D, the lcm of those
    slots' denominators, and each operand's coefficients by the lcm of its
    own coefficient denominators.  The pair products merge in one dict of
    int tuples (_convolve); the merged exponents are distinct, so no second
    merge runs, and _from_ints sorts them and turns back into Fractions
    only the terms below the truncation.
    """
    G = a.group
    if a.is_zero() or b.is_zero():
        return zero_series(G)
    if _is_one(G, b):
        return a
    if _is_one(G, a):
        return b
    trunc = None
    if a.trunc is not None:
        trunc = _min_trunc(G, trunc, elem_add(G, a.trunc, v_of(b)))
    if b.trunc is not None:
        trunc = _min_trunc(G, trunc, elem_add(G, b.trunc, v_of(a)))
    slots = G.layout.frac_slots
    D = lcm(*[e[i].denominator for s in (a, b) for e, _ in s.terms for i in slots])
    a_terms, a_den = _int_terms(a.terms, slots, D)
    b_terms, b_den = _int_terms(b.terms, slots, D)
    kept = _convolve(a_terms, b_terms)
    return HahnSeries(G, _from_ints(G, kept, D, a_den * b_den, trunc), trunc)


def _int_terms(terms, slots, D: int) -> tuple[list, int]:
    """The terms on ints: each Fraction slot (the indices in slots) times D,
    each coefficient times C, the lcm of the coefficient denominators,
    which is returned beside them."""
    C = lcm(*[c.denominator for _, c in terms])
    out = []
    for e, c in terms:
        if slots:
            e = list(e)
            for i in slots:
                x = e[i]
                e[i] = x.numerator * D // x.denominator
            e = tuple(e)
        out.append((e, c.numerator * C // c.denominator))
    return out, C


def _convolve(x, y) -> list:
    """The pair products of two int-term lists, merged in one dict of int
    tuples in the order the pairs come; the nonzero terms, unsorted."""
    acc: dict[tuple, int] = {}
    get = acc.get
    for ex, cx in x:
        for ey, cy in y:
            e = tuple(map(add, ex, ey))
            acc[e] = get(e, 0) + cx * cy
    return [(e, c) for e, c in acc.items() if c]


def _from_ints(G: LexWord, kept: list, D: int, den: int, trunc) -> tuple:
    """The Fraction terms of int terms with distinct exponents, ascending
    and cut at trunc.

    The terms are sorted on the scaled tuples: scaling by D > 0 keeps the
    order of the Fraction slots, and the real-run slots are never scaled,
    so elem_cmp sees the same differences; with no real run the sort
    compares int tuples in C.  Only the terms below the truncation are
    turned back into Fractions, one per Fraction slot (over D) and per
    coefficient (over den): they come ascending, so the first exponent at
    or above the truncation ends the series.
    """
    native = G.layout.native_order
    if native:
        kept.sort(key=itemgetter(0))
    else:
        kept = _sorted_terms(G, kept)
    slots = G.layout.frac_slots
    terms = []
    for e, c in kept:
        if slots:
            e = list(e)
            for i in slots:
                e[i] = Fraction(e[i], D)
            e = tuple(e)
        if trunc is not None and (e >= trunc if native else elem_cmp(G, e, trunc) >= 0):
            break
        terms.append((e, Fraction(c, den)))
    return tuple(terms)


def series_pow(a: HahnSeries, k: int) -> HahnSeries:
    """a**k for k >= 0, by binary powering on ints.

    a is scaled to ints once, as a factor of series_mul is, and its
    squarings and products stay int-term lists: their exponent slots are
    over the same D, and the coefficients of a**k over C**k.  The terms
    are sorted and turned back into Fractions once, at the end.  A
    truncated a has a**k known below a.trunc + (k-1)*v(a), the bound the
    chain of products gives; a term any product in that chain would drop
    only feeds terms at or above it, so cutting once gives the same series.
    """
    if k < 0:
        raise ShapeError("negative powers need series_invert")
    G = a.group
    if k == 0:
        return one_series(G)
    if k == 1 or a.is_zero() or _is_one(G, a):
        return a
    trunc = None if a.trunc is None else elem_add(G, a.trunc, scalar_mul(G, k - 1, v_of(a)))
    slots = G.layout.frac_slots
    D = lcm(*[e[i].denominator for e, _ in a.terms for i in slots])
    base, C = _int_terms(a.terms, slots, D)
    den = C**k
    return HahnSeries(G, _from_ints(G, _int_pow(base, k), D, den, trunc), trunc)


def _int_pow(base: list, k: int) -> list:
    """base**k for k >= 2 on an int-term list, by binary powering; the
    terms come unsorted, as _convolve leaves them."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else _convolve(out, base)
        k >>= 1
        if not k:
            return out
        base = _convolve(base, base)


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
    inv_lead = HahnSeries(G, ((elem_neg(G, v), Fraction(1) / lc),))
    if len(a.terms) == 1 and a.trunc is None:
        return inv_lead
    if cutoff is None and a.trunc is None:
        raise TruncationError("a cutoff is required: the inverse has infinite support")
    # precision limits: the requested cutoff, and what the input itself knows
    eff = cutoff
    if a.trunc is not None:
        eff = _min_trunc(G, eff, elem_sub(G, a.trunc, scalar_mul(G, 2, v)))
    # a = lc * t^v * (1 + w) with v(w) > 0; invert the unit part to O(t^(eff + v))
    unit_cut = elem_add(G, eff, v)
    w = series_mul(HahnSeries(G, a.terms[1:], a.trunc), inv_lead)
    w = HahnSeries(G, w.terms, None)  # powers are filtered against unit_cut below
    acc = power = one_series(G)
    for _ in range(512):
        power = _cut(G, series_mul(power, series_neg(w)).terms, unit_cut)
        if not power.terms:
            inv_unit = _cut(G, acc.terms, unit_cut)
            result = series_mul(inv_unit, inv_lead)
            return HahnSeries(G, result.terms, eff)
        acc = series_add(acc, power)
    raise TruncationError("inverse support is not finite below the cutoff")


def series_eq(a: HahnSeries, b: HahnSeries) -> bool:
    """Exact equality, truncation bounds included."""
    return a.group == b.group and a.terms == b.terms and a.trunc == b.trunc


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
    be a perfect rational p-th power.

    Only the defect's leading term below a.trunc is read, so the defect
    a - z**p is never built as a series.  Every exponent of z and z**p is
    one of a's over p, so D = p * lcm of the denominators of a's Fraction
    slots and of a.trunc scales them all to ints, once per call.  Each
    step raises z to the p-th power on ints (_int_pow, series_pow's loop),
    subtracts it from a in one dict over the common coefficient
    denominator, and keeps the smallest exponent whose coefficient is
    nonzero, comparing tuples natively where elem_cmp's order is tuple
    order.  z itself still grows through series_add.  A step whose defect
    lead is not above the one before is an InternalError: a correct step
    always cancels that lead, so this is a fault in the loop, which would
    otherwise run to the iteration cap on ever longer coefficients.

    A lexicographic cutoff only terminates the loop once the defect climbs
    in a slot the cutoff dominates, which never happens when corrections
    march in a less significant slot.  max_steps bounds the work in that
    case: when hit, the partial root is returned truncated at the point the
    expansion stopped (witness extraction uses this; exact pipelines leave
    it None and get the loud iteration-cap error instead).
    """
    G = a.group
    if not root_exists(a, p, False):
        raise RootError("no p-th root: leading exponent or sign obstruction")
    v = v_of(a)
    lc = leading_coeff(a)
    root_lc = exact_fraction_root(lc, p)
    if root_lc is None:
        raise RootError(f"leading coefficient {lc} is not an exact {p}-th power")
    # v is p-divisible (root_exists passed); the root's exponent is v/p
    e_root = elem_div_by_p(G, v, p)
    z = HahnSeries(G, ((e_root, root_lc),))
    slots = G.layout.frac_slots
    exps = [e for e, _ in a.terms] + ([] if a.trunc is None else [a.trunc])
    D = p * lcm(*[e[i].denominator for e in exps for i in slots])
    a_ints, a_den = _int_terms(a.terms, slots, D)
    trunc = None if a.trunc is None else _int_terms([(a.trunc, 1)], slots, D)[0][0][0]
    native = G.layout.native_order

    def below(x, y):
        return x < y if native else elem_cmp(G, x, y) < 0

    # each step cancels the defect's leading term, so the lead climbs
    prev = a_ints[0][0]
    for step in range(512):
        z_ints, C = _int_terms(z.terms, slots, D)
        # the defect a - z**p, over the coefficient denominator a_den * C**p
        scale = C**p
        defect = {e: c * scale for e, c in a_ints}
        get = defect.get
        for e, c in _int_pow(z_ints, p):
            defect[e] = get(e, 0) - c * a_den
        lead = None
        for e, c in defect.items():
            if c and (trunc is None or below(e, trunc)) and (lead is None or below(e, lead)):
                lead = e
        if lead is None:
            if a.trunc is None:
                return z
            limit = elem_sub(G, a.trunc, scalar_mul(G, p - 1, e_root))
            return _cut(G, z.terms, _min_trunc(G, limit, cutoff))
        if not below(prev, lead):
            raise InternalError("a Newton step did not raise the defect's valuation")
        prev = lead
        e_lead = list(lead)
        for i in slots:
            e_lead[i] = Fraction(lead[i], D)
        e_step = elem_sub(G, tuple(e_lead), scalar_mul(G, p - 1, e_root))
        if cutoff is not None and elem_cmp(G, e_step, cutoff) >= 0:
            return _cut(G, z.terms, cutoff)
        if max_steps is not None and step >= max_steps:
            return _cut(G, z.terms, _min_trunc(G, e_step, cutoff))
        coeff = Fraction(defect[lead], a_den * scale) / (p * root_lc ** (p - 1))
        z = series_add(z, HahnSeries(G, ((e_step, coeff),)))
    raise TruncationError("root support exceeded the iteration cap; pass a cutoff")


# ---------------------------------------------------------------------------
# sampling and cutoffs


def default_cutoff(G: LexWord, magnitude: int = 9) -> GroupElement:
    return unflatten(G, (magnitude,) * G.n_slots())


_SAMPLE_RNG = random.Random()

# The drawn rationals, one object per (n, d): equal slots and coefficients
# are then the same object, so tuple comparisons and the witness grid's set
# lookups take the identity shortcut. The draws take few distinct values,
# and the bound caps what the process keeps.
_fraction = lru_cache(maxsize=512)(Fraction)


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

    The stream is CPython's randint/choice stream, drawn straight from
    getrandbits: each draw below n writes out Random._randbelow's own
    rejection step (k = n.bit_length(); redraw k bits while r >= n), since
    through randint or choice each draw costs three Python frames for one
    getrandbits call.  In order, a term's exponent draws per slot a value
    below 2*exp_mag+1 and, for a Q or Zloc slot, an index into the slot's
    G.layout.sample_dens; then each distinct exponent's coefficient draws
    a magnitude below coeff_mag, a sign below 2 and a denominator below 3.

    The series is built without _make: the exponents are distinct, every
    coefficient is nonzero and nothing is truncated, so only the sort is
    left to do.  The slots are drawn valid for their kinds, so no
    unflatten is needed either.
    """
    slot_dens = _require_effective(G).sample_dens
    if exp_mag < 0 or coeff_mag < 1:
        # randint would raise on the empty range; the loops below would spin
        raise ValueError(f"empty draw range: exp_mag={exp_mag}, coeff_mag={coeff_mag}")
    rng = _SAMPLE_RNG
    rng.seed(f"hahn:{seed}:{support}:{exp_mag}:{coeff_mag}")
    bits = rng.getrandbits
    n_exp = 2 * exp_mag + 1
    k_exp = n_exp.bit_length()
    k_mag = coeff_mag.bit_length()
    exps: list[tuple] = []
    for _ in range(support):
        flat = []
        for dens in slot_dens:
            r = bits(k_exp)
            while r >= n_exp:
                r = bits(k_exp)
            if dens is None:
                flat.append(r - exp_mag)
            else:
                n = len(dens)
                k = n.bit_length()
                d = bits(k)
                while d >= n:
                    d = bits(k)
                flat.append(_fraction(r - exp_mag, dens[d]))
        e = tuple(flat)
        if e not in exps:
            exps.append(e)
    terms = []
    for e in exps:
        m = bits(k_mag)
        while m >= coeff_mag:
            m = bits(k_mag)
        # n = 2 for the sign and n = 3 for the denominator: k = 2 for both
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        d = bits(2)
        while d >= 3:
            d = bits(2)
        terms.append((e, _fraction(-m - 1 if sign else m + 1, d + 1)))
    return HahnSeries(G, _sorted_terms(G, terms))


# ---------------------------------------------------------------------------
# series literals


def _format_exp(e: tuple) -> str:
    """The monomial t^(e), as series literals and formulas write it."""
    return "t^(" + ",".join(format_rational(x) for x in e) + ")"


def print_series(a: HahnSeries) -> str:
    G = a.group
    zero = zero_element(G)
    chunks = []
    for e, c in a.terms:
        if e == zero:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = _format_exp(e)
        else:
            body = f"{format_rational(abs(c))}*{_format_exp(e)}"
        chunks.append(("-" if c < 0 else "+", body))
    if not chunks:
        out = "0" if a.trunc is None else ""
    else:
        sign0, body0 = chunks[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
    if a.trunc is not None:
        marker = f"O({_format_exp(a.trunc)})"
        out = marker if not out else f"{out} + {marker}"
    return out


class _SeriesReader(_Tokens):
    """Series literals on the shared token stream:

        series := [+|-] term ((+|-) term)*
        term   := c [*] t^(e) | c | t^(e) | O(t^(e))     c := n | n/d

    with one coordinate per slot of G in each e, and at most one O(t^(e)),
    which is never subtracted. A series ends at the end of the text or at
    a consumed sep."""

    def __init__(self, text: str, G: LexWord, sep: str | None = None):
        super().__init__(text)
        self.G = G
        self.sep = sep

    def exp(self) -> tuple[Fraction, ...]:
        pos = self.peek()[2]
        e = self.exponent()
        if len(e) != self.G.n_slots():
            self.fail(f"exponent needs {self.G.n_slots()} coordinates, got {len(e)}", pos)
        return e

    def sign(self) -> int:
        """1 or -1 for a + or - consumed, else 0."""
        return 1 if self.accept("+") else -1 if self.accept("-") else 0

    def series(self) -> HahnSeries:
        pairs, trunc = [], None
        sign = self.sign() or 1
        while True:
            if self.at("O"):
                pos = self.next()[2]
                if trunc is not None:
                    self.fail("duplicate O(...) marker", pos)
                if sign < 0:
                    self.fail("O(...) marker cannot be subtracted", pos)
                self.expect("(")
                trunc = self.exp()
                self.expect(")")
            elif self.peek()[0] == "int":
                c = self.rational()
                e = self.exp() if self.accept("*") or self.at("t") else (0,) * self.G.n_slots()
                pairs.append((e, sign * c))
            else:
                pairs.append((self.exp(), sign))
            sign = self.sign()
            if not sign:
                if not (self.sep and self.accept(self.sep)):
                    self.expect_end()
                return series_of(self.G, pairs, trunc)


def parse_series(text: str, G: LexWord) -> HahnSeries:
    """Parse the series literal syntax, e.g. "1 + 2*t^(1,1/2) - t^(2,0)"."""
    return _SeriesReader(text, G).series()


def parse_bindings(text: str, G: LexWord) -> dict[str, HahnSeries]:
    """name = series items separated by ';', e.g. "x = t^(1,0); y = 2";
    empty items are skipped, and a name is bound once."""
    reader = _SeriesReader(text, G, ";")
    env = {}
    while reader.peek()[0] != "eof":
        if reader.accept(";"):
            continue
        kind, name, pos = reader.next()
        if kind != "name" or name in env:
            reader.fail(f"expected a variable name not bound before, got {_clip(name)!r}", pos)
        reader.expect("=")
        env[name] = reader.series()
    return env
