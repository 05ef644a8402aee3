import hashlib
import io
import random
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import hahn
from arclab.cli import main
from arclab.errors import RootError, ShapeError, TruncationError, ZeroInputError
from arclab.groups import (
    Rat,
    elem_add,
    elem_cmp,
    elem_sub,
    element,
    parse_group,
    scalar_mul,
    zero_element,
)
from arclab.hahn import (
    HahnSeries,
    _make,
    const_series,
    default_cutoff,
    leading_coeff,
    monomial,
    parse_series,
    print_series,
    pth_root,
    root_exists,
    sample_series,
    series_add,
    series_eq,
    series_invert,
    series_mul,
    series_neg,
    series_pow,
    series_sub,
    v_of,
    zero_series,
)
from reference_eval import reference_sample_series

K1 = parse_group("lex(Z, Q)")
ZPI = parse_group("lex(real(1, pi))")

G_EXP = (1, 0)  # a convenient strictly positive exponent in lex(Z, Q)


def S(text, G=K1):
    return parse_series(text, G)


# -- arithmetic pins ------------------------------------------------------------


def test_add_merges_and_cancels():
    a = S("2*t^(1,1/2) + t^(2,0)")
    b = S("1/2*t^(1,1/2) - t^(2,0)")
    assert print_series(series_add(a, b)) == "5/2*t^(1,1/2)"


def test_mul_pin():
    a = S("1 + t^(1,0)")
    assert print_series(series_mul(a, a)) == "1 + 2*t^(1,0) + t^(2,0)"


def test_v_of_picks_lex_least_exponent():
    a = S("3*t^(2,-5) + 7*t^(1,99)")
    assert v_of(a) == element(K1, 1, 99)
    assert leading_coeff(a) == 7


def test_zero_has_no_valuation():
    with pytest.raises(ZeroInputError):
        v_of(zero_series(K1))


def test_invert_geometric():
    inv = series_invert(S("1 - t^(1,0)"), cutoff=element(K1, 3, 0))
    assert print_series(inv) == "1 + t^(1,0) + t^(2,0) + O(t^(3,0))"


def test_invert_monomial_exact():
    inv = series_invert(monomial(K1, (1, 2), Fraction(3, 2)))
    assert inv.trunc is None
    assert print_series(inv) == "2/3*t^(-1,-2)"


def test_invert_times_original_is_one():
    a = S("2 + t^(0,1/2) - 3*t^(1,0)")
    co = element(K1, 0, 5)  # same slot the unit part's powers climb in
    inv = series_invert(a, cutoff=co)
    prod = series_mul(a, inv)
    d = series_sub(prod, const_series(K1, 1))
    assert not d.terms and d.trunc is not None  # agreement holds below the cutoff only


# -- root oracle pins -----------------------------------------------------------


def test_root_exists_pins():
    assert root_exists(S("t^(0,1/3)"), 3)
    assert not root_exists(S("t^(1,0)"), 2)
    assert not root_exists(S("t^(1,0)"), 2, allow_negation=True)
    assert not root_exists(S("-t^(0,1/2)"), 2)
    assert root_exists(S("-t^(0,1/2)"), 2, allow_negation=True)
    assert root_exists(S("-t^(0,1/3)"), 3)  # odd degree ignores the sign


def test_root_exists_zero_rejected():
    with pytest.raises(ZeroInputError):
        root_exists(zero_series(K1), 2)


def test_root_exists_rejects_non_prime_degree():
    with pytest.raises(ShapeError):
        root_exists(S("t^(4,0)"), 4)


def test_pth_root_exact_square():
    a = S("1 + t^(1,0)")
    r = pth_root(series_mul(a, a), 2)
    assert r.trunc is None and series_eq(r, a)


def test_pth_root_binomial_truncated():
    r = pth_root(S("1 + t^(1,0)"), 2, cutoff=element(K1, 3, 0))
    assert print_series(r) == "1 + 1/2*t^(1,0) - 1/8*t^(2,0) + O(t^(3,0))"


def test_pth_root_monomial():
    r = pth_root(monomial(K1, (2, 0), 4), 2)
    assert r.trunc is None
    assert print_series(r) == "2*t^(1,0)"


def test_pth_root_rejects_obstructed():
    with pytest.raises(RootError):
        pth_root(S("t^(1,0)"), 2)
    with pytest.raises(RootError):
        pth_root(S("-t^(2,0)"), 2)


def test_pth_root_irrational_lead_is_loud():
    # existence holds in the ambient model, but the expansion cannot start
    # from a non-square rational leading coefficient
    with pytest.raises(RootError):
        pth_root(S("2*t^(2,0)"), 2)


def test_pth_root_verifies_to_cutoff():
    a = S("4 + t^(0,1/2) + 5*t^(1,-3)")
    co = element(K1, 0, 4)  # the correction terms march in the minor slot
    r = pth_root(a, 2, cutoff=co)
    back = series_pow(r, 2)
    d = series_sub(back, a)
    assert not d.terms and d.trunc is not None


# -- sampling, parsing, printing ----------------------------------------------------


def test_sample_series_deterministic():
    a = sample_series(K1, 7)
    b = sample_series(K1, 7)
    assert series_eq(a, b)
    assert not series_eq(a, sample_series(K1, 8))


def test_sample_series_nonzero_bounded_support():
    for seed in range(25):
        s = sample_series(ZPI, seed, support=3)
        assert not s.is_zero()
        assert 1 <= len(s.terms) <= 3


POOL = ["lex(Z, Q)", "lex(Z, Z)", "lex(real(1, pi))", "lex(Zloc(2), Q)", "lex(Q)"]


def _describe(s: HahnSeries) -> str:
    # the printed series hides whether a slot or coefficient is int or Fraction
    slots = "".join(type(x).__name__[0] for e, _ in s.terms for x in e)
    coeffs = "".join(type(c).__name__[0] for _, c in s.terms)
    return f"{print_series(s)}|{slots}|{coeffs}"


@pytest.mark.parametrize(
    "dsl, default_digest, small_digest",
    [
        ("lex(Z, Q)", "7ae5fe10fa43ea14", "3917ffb2959770a7"),
        ("lex(Z, Z)", "d8257c052a2ef1d6", "5c7152684e90c6bd"),
        ("lex(real(1, pi))", "2509bfdcd6768f0b", "4346695953aab2c1"),
        ("lex(Zloc(2), Q)", "8fc6340c0d50ba6c", "01fd731cacb53330"),
        ("lex(Q)", "970cb0673fb5f9d3", "85cfb80a723f42cc"),
    ],
)
def test_sample_series_stream_pinned(dsl, default_digest, small_digest):
    # seeds 0..299 at the default parameters and at the witness grid's
    G = parse_group(dsl)
    for params, digest in (
        ({}, default_digest),
        ({"support": 2, "exp_mag": 2, "coeff_mag": 5}, small_digest),
    ):
        text = "\n".join(_describe(sample_series(G, seed, **params)) for seed in range(300))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, params


def _make_reference(G, pairs, trunc):
    """_make without its shortcuts: every coefficient is added onto
    Fraction(0), zeros drop by comparison, and the sort always runs."""
    merged = {}
    for e, c in pairs:
        merged[e] = merged.get(e, Fraction(0)) + c
    kept = [
        (e, c)
        for e, c in merged.items()
        if c != 0 and (trunc is None or elem_cmp(G, e, trunc) < 0)
    ]
    kept.sort(key=cmp_to_key(lambda a, b: elem_cmp(G, a[0], b[0])))
    return HahnSeries(G, tuple(kept), trunc)


@st.composite
def _make_inputs(draw):
    G = parse_group(draw(st.sampled_from(["lex(Z, Q)", "lex(real(1, pi))", "lex(Zloc(2), Q)"])))
    # a small pool of exponents, so that pairs repeat them
    pool = [
        e
        for seed in draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
        for e, _ in sample_series(G, seed, exp_mag=1).terms
    ]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=8))
    # cancel some of the pairs outright
    pairs += [(e, -c) for e, c in pairs[: draw(st.integers(0, len(pairs)))]]
    pairs = draw(st.permutations(pairs))
    trunc = draw(st.one_of(st.none(), st.sampled_from(pool)))
    return G, pairs, trunc


@settings(max_examples=100, deadline=None)
@given(_make_inputs())
def test_make_matches_reference(inputs):
    G, pairs, trunc = inputs
    got, want = _make(G, pairs, trunc), _make_reference(G, pairs, trunc)
    assert got == want
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]
    assert [type(x) for e, _ in got.terms for x in e] == [
        type(x) for e, _ in want.terms for x in e
    ]


@settings(max_examples=100, deadline=None)
@given(_make_inputs())
def test_make_merges_the_same_pair_objects_twice(inputs):
    # series_add(a, a) hands _make each (exponent, coefficient) object twice
    G, pairs, trunc = inputs
    got, want = _make(G, pairs + pairs, trunc), _make_reference(G, pairs + pairs, trunc)
    assert got == want and _describe(got) == _describe(want)


class _CountingExp(tuple):
    """An exponent that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        self.hashes += 1
        return tuple.__hash__(self)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(POOL), st.integers(0, 10_000))
def test_make_hashes_each_new_exponent_once(dsl, seed):
    G = parse_group(dsl)
    s = sample_series(G, seed, support=4)
    pairs = [(_CountingExp(e), c) for e, c in s.terms]
    made = _make(G, pairs, None)
    assert [e.hashes for e, _ in pairs] == [1] * len(pairs)
    assert made == s


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(POOL),
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 9),
)
def test_sample_series_matches_the_reference(dsl, seed, support, exp_mag, coeff_mag):
    # the series built directly, with shared Fractions, is the one _make built
    G = parse_group(dsl)
    got = sample_series(G, seed, support, exp_mag, coeff_mag)
    want = reference_sample_series(G, seed, support, exp_mag, coeff_mag)
    assert got == want and _describe(got) == _describe(want)


def test_random_draws_below_n_by_getrandbits_rejection():
    # sample_series writes this method's loop out at each of its draws
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
        "sample_series inlines Random._randbelow_with_getrandbits's rejection loop; "
        "this interpreter's Random draws below n another way, so the inlined loop "
        "in sample_series no longer reproduces randint/choice"
    )


def _rejection_draws(seed, n, count):
    """sample_series's inlined step, count times on a fresh seeded generator."""
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r)
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 2**64), st.text(max_size=30)), st.integers(1, 12))
def test_rejection_step_is_randrange_and_choice(seed, count):
    for n in range(1, 65):
        want = _rejection_draws(seed, n, count)
        rng = random.Random(seed)
        assert [rng.randrange(n) for _ in range(count)] == want, n
        rng = random.Random(seed)
        assert [rng.randint(-1, n - 2) + 1 for _ in range(count)] == want, n
        rng, seq = random.Random(seed), tuple(range(n))
        assert [rng.choice(seq) for _ in range(count)] == want, n


def test_sample_series_refuses_an_empty_draw_range():
    # randint raised on these; the inlined loops would never end
    for params in ({"exp_mag": -1}, {"coeff_mag": 0}):
        with pytest.raises(ValueError):
            sample_series(K1, 7, **params)


@st.composite
def _distinct_terms(draw):
    """A pool group and 0..5 terms with distinct exponents, in any order."""
    G = parse_group(draw(st.sampled_from(POOL)))
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=3))
    pool = list(dict.fromkeys(e for s in seeds for e, _ in sample_series(G, s, 4, 1).terms))
    exps = draw(st.permutations(pool))[: draw(st.integers(0, 5))]
    return G, [(e, Fraction(i + 1)) for i, e in enumerate(exps)]


@settings(max_examples=200, deadline=None)
@given(_distinct_terms())
def test_sorted_terms_matches_the_comparator_sort(inputs):
    G, terms = inputs
    want = tuple(sorted(terms, key=cmp_to_key(lambda a, b: elem_cmp(G, a[0], b[0]))))
    assert hahn._sorted_terms(G, list(terms)) == want


@pytest.mark.parametrize("dsl", POOL)
def test_two_terms_take_one_comparison_and_no_key_wrapper(dsl, monkeypatch):
    G = parse_group(dsl)
    pairs = [s.terms for s in (sample_series(G, seed, support=2) for seed in range(40))]
    pairs = [list(t) for t in pairs if len(t) == 2]
    assert pairs
    calls = []

    def counting_cmp(G, a, b):
        calls.append((a, b))
        return elem_cmp(G, a, b)

    def no_key_wrapper(cmp):
        raise AssertionError("two terms built a cmp_to_key wrapper")

    monkeypatch.setattr(hahn, "elem_cmp", counting_cmp)
    monkeypatch.setattr(hahn, "cmp_to_key", no_key_wrapper)
    for a, b in pairs:
        for terms in ([a, b], [b, a]):
            del calls[:]
            assert hahn._sorted_terms(G, terms) == (a, b)
            assert len(calls) == 1
    # a two-term draw sorts with the one call as well
    for seed in range(40):
        del calls[:]
        s = sample_series(G, seed, support=2)
        assert len(calls) == len(s.terms) - 1


def _mul_reference(a, b):
    """series_mul without its identity shortcut: always the full product."""
    G = a.group
    if a.is_zero() or b.is_zero():
        return zero_series(G)

    def lead_bound(s):
        if s.terms:
            return s.terms[0][0]
        raise TruncationError("cannot multiply: operand is zero modulo its truncation")

    trunc = None
    if a.trunc is not None:
        trunc = elem_add(G, a.trunc, lead_bound(b))
    if b.trunc is not None:
        t = elem_add(G, b.trunc, lead_bound(a))
        trunc = t if trunc is None or elem_cmp(G, t, trunc) < 0 else trunc
    pairs = [(elem_add(G, ea, eb), ca * cb) for ea, ca in a.terms for eb, cb in b.terms]
    return _make_reference(G, pairs, trunc)


def _outcome(mul, a, b):
    try:
        return mul(a, b)
    except TruncationError as exc:
        return type(exc)


# a Fraction slot next to a real run: series_mul sorts such products through
# elem_cmp on exponents whose Fraction slots are scaled to ints
MIXED = ["lex(Q, real(1, pi))", "lex(real(1, pi), Zloc(3))"]


@st.composite
def _unit_products(draw):
    dsl = draw(st.sampled_from(["lex(Z, Q)", "lex(real(1, pi))", "lex(Zloc(2), Q)"] + MIXED))
    G = parse_group(dsl)
    a = sample_series(G, draw(st.integers(0, 10_000)), support=4)
    # truncate at one of a's exponents; at the first, a is zero modulo it
    k = draw(st.one_of(st.none(), st.integers(0, len(a.terms) - 1)))
    if k is not None:
        a = _make(G, a.terms, a.terms[k][0])
    zero = zero_element(G)
    one = draw(st.sampled_from([
        const_series(G, 1),
        parse_series("1", G),  # an equal exponent tuple, not the layout's own
        _make(G, [(zero, Fraction(1))], None),
    ]))
    g = default_cutoff(G, draw(st.integers(1, 3)))
    # 1 + O(t^g), 2 and t^g each differ from the exact 1 in one respect
    not_one = draw(st.sampled_from([
        _make(G, [(zero, Fraction(1))], g),
        const_series(G, 2),
        _make(G, [(g, Fraction(1))], None),
    ]))
    return a, one, not_one


@settings(max_examples=150, deadline=None)
@given(_unit_products())
def test_exact_one_is_the_identity_of_series_mul(case):
    a, one, not_one = case
    for x, y in ((a, one), (one, a)):
        got = series_mul(x, y)
        assert got is a
        assert series_eq(got, _mul_reference(x, y))
    # anything else takes the full product, truncation and all
    for x, y in ((a, not_one), (not_one, a)):
        got, want = _outcome(series_mul, x, y), _outcome(_mul_reference, x, y)
        if isinstance(want, HahnSeries):
            assert got is not a and series_eq(got, want)
        else:
            assert got is want


def _literal_dens(G):
    """Each slot's literal denominators: Q slots take 7, 9 and 12, Zloc(q)
    slots odd ones prime to q, int slots none."""
    return [
        None if i not in G.layout.frac_slots
        else (1, 7, 9, 12) if isinstance(k, Rat)
        else tuple(d for d in (1, 3, 5, 7, 9, 11, 25) if d % k.q)
        for i, k in enumerate(G.layout.kinds)
    ]


@st.composite
def _literal(draw, G):
    """A series literal over G with mixed denominators everywhere."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        slots = [
            str(draw(st.integers(-9, 9))) if dens is None
            else f"{draw(st.integers(-9, 9))}/{draw(st.sampled_from(dens))}"
            for dens in _literal_dens(G)
        ]
        coeff = f"{draw(st.integers(1, 99))}/{draw(st.sampled_from([1, 2, 7, 9, 12]))}"
        sign = draw(st.sampled_from("+-"))
        terms.append(f"{sign} {coeff}*t^({','.join(slots)})")
    return " ".join(terms)


@st.composite
def _mul_operand(draw, G):
    """A sampled, literal or fifth-power operand, truncated at one of its
    exponents (at the first, it is zero modulo that) or not at all."""
    kind = draw(st.sampled_from(["sample", "literal", "power"]))
    if kind == "sample":
        x = sample_series(G, draw(seeds), support=draw(st.integers(1, 4)))
    elif kind == "literal":
        x = parse_series(draw(_literal(G)), G)
    else:
        x = series_pow(sample_series(G, draw(seeds), support=2), 5)
    k = draw(st.one_of(st.none(), st.integers(0, len(x.terms) - 1)))
    if k is not None and x.terms:
        x = _make(G, x.terms, x.terms[k][0])
    return x


@st.composite
def _mul_pairs(draw):
    G = parse_group(draw(st.sampled_from(POOL + ["lex(Zloc(3), Q, Z)"] + MIXED)))
    return draw(_mul_operand(G)), draw(_mul_operand(G))


def _typed(outcome):
    # repr tells an int from a Fraction in a slot or coefficient; == does not
    if isinstance(outcome, type):
        return outcome
    return repr(outcome.terms), repr(outcome.trunc)


@settings(max_examples=200, deadline=None)
@given(_mul_pairs())
def test_series_mul_is_the_pairwise_product(operands):
    a, b = operands
    assert _typed(_outcome(series_mul, a, b)) == _typed(_outcome(_mul_reference, a, b))


@pytest.mark.parametrize("dsl", POOL + MIXED)
def test_products_sort_natively_unless_a_real_run_needs_elem_cmp(dsl, monkeypatch):
    # untruncated products of up to 16 terms; with no real run the sort is
    # on int tuples, so neither elem_cmp nor a cmp_to_key wrapper is reached
    G = parse_group(dsl)
    draws = [sample_series(G, s, support=4) for s in range(21)]
    operands = list(zip(draws, draws[1:]))
    cmps, wrappers = [], []

    def counting_cmp(G, a, b):
        cmps.append((a, b))
        return elem_cmp(G, a, b)

    def counting_key(cmp):
        wrappers.append(cmp)
        return cmp_to_key(cmp)

    monkeypatch.setattr(hahn, "elem_cmp", counting_cmp)
    monkeypatch.setattr(hahn, "cmp_to_key", counting_key)
    assert max(len(series_mul(a, b).terms) for a, b in operands) > 2
    native = G.layout.native_order
    assert native == ("real" not in dsl)
    assert bool(cmps) == bool(wrappers) == (not native)


def test_no_product_with_an_exact_one_is_built(monkeypatch):
    """Every product series_mul builds during a report has two operands
    other than the exact 1."""
    products, with_one = 0, 0
    build = hahn.HahnSeries

    def spy(G, terms, trunc=None):
        nonlocal products, with_one
        caller = sys._getframe(1)
        if caller.f_code is series_mul.__code__:
            products += 1
            one = ((zero_element(G), 1),)
            operands = caller.f_locals["a"], caller.f_locals["b"]
            if any(s.trunc is None and s.terms == one for s in operands):
                with_one += 1
        return build(G, terms, trunc)

    monkeypatch.setattr(hahn, "HahnSeries", spy)
    assert main(["examples", "zpluspi", "--json", "--seed", "42"], out=io.StringIO()) == 0
    assert products > 0 and with_one == 0


def test_print_parse_round_trip_on_samples():
    for seed in range(40):
        s = sample_series(K1, seed)
        assert series_eq(parse_series(print_series(s), K1), s)


def test_parse_truncation_marker():
    s = S("1 + t^(1,0) + O(t^(2,0))")
    assert s.trunc == element(K1, 2, 0)
    assert print_series(s) == "1 + t^(1,0) + O(t^(2,0))"


def test_parse_rejects_garbage():
    from arclab.errors import DslSyntaxError

    for bad in ("", "t^", "1 +", "t^(1)", "O(t^(1,0)) + O(t^(2,0))"):
        with pytest.raises(DslSyntaxError):
            parse_series(bad, K1)


def test_default_cutoff_positive_everywhere():
    for dsl in ("lex(Z, Q)", "lex(real(1, pi))", "lex(Zloc(2), Q)"):
        G = parse_group(dsl)
        co = default_cutoff(G, 9)
        from arclab.groups import elem_cmp, zero_element

        assert elem_cmp(G, co, zero_element(G)) > 0


# -- algebraic laws (sampled, exact arithmetic) ---------------------------------------


seeds = st.integers(0, 10_000)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, seeds)
def test_ring_laws(s1, s2, s3):
    a, b, c = (sample_series(K1, s) for s in (s1, s2, s3))
    assert series_eq(series_add(a, b), series_add(b, a))
    assert series_eq(series_mul(a, b), series_mul(b, a))
    assert series_eq(
        series_mul(a, series_add(b, c)),
        series_add(series_mul(a, b), series_mul(a, c)),
    )
    assert series_eq(series_add(a, series_neg(a)), zero_series(K1))


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_valuation_laws(s1, s2):
    from arclab.groups import elem_add, elem_cmp

    a, b = sample_series(K1, s1), sample_series(K1, s2)
    assert v_of(series_mul(a, b)) == elem_add(K1, v_of(a), v_of(b))
    total = series_add(a, b)
    if not total.is_zero():
        # ultrametric: v(a+b) >= min(v(a), v(b)), equality when leads differ
        lo = v_of(a) if elem_cmp(K1, v_of(a), v_of(b)) <= 0 else v_of(b)
        assert elem_cmp(K1, v_of(total), lo) >= 0
        if elem_cmp(K1, v_of(a), v_of(b)) != 0:
            assert v_of(total) == lo


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([2, 3, 5]))
def test_root_round_trip_on_squares(seed, p):
    base = sample_series(K1, seed)
    a = series_pow(base, p)
    assert root_exists(a, p, allow_negation=True)
    r = pth_root(a, p)
    assert series_eq(series_pow(r, p), a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOL), seeds, st.sampled_from([2, 3, 5]))
def test_exact_root_of_a_power_on_every_pool_group(dsl, seed, p):
    # the root has y's leading term up to sign, so it is y or, for even p, -y
    G = parse_group(dsl)
    y = sample_series(G, seed)
    want = series_neg(y) if p % 2 == 0 and leading_coeff(y) < 0 else y
    assert _typed(pth_root(series_pow(y, p), p)) == _typed(want)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(POOL),
    seeds,
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(1, 9)),
)
def test_root_claims_no_precision_its_input_lacks(dsl, seed, p, k, magnitude):
    # y^p known modulo O(t^g) fixes its root y only modulo
    # O(t^(g - (p-1)v(y))), whatever cutoff is asked for
    G = parse_group(dsl)
    y = sample_series(G, seed)
    if p % 2 == 0 and leading_coeff(y) < 0:
        y = series_neg(y)
    a = series_pow(y, p)
    # truncate past the leading term: at a later exponent, or above a monomial
    g = a.terms[k][0] if k < len(a.terms) else elem_add(G, v_of(a), default_cutoff(G, k))
    a = _make(G, a.terms, g)
    cutoff = None if magnitude is None else default_cutoff(G, magnitude)
    r = pth_root(a, p, cutoff)
    limit = elem_sub(G, g, scalar_mul(G, p - 1, v_of(y)))
    assert r.trunc is not None and elem_cmp(G, r.trunc, limit) <= 0
    # and what it does claim is y
    assert _typed(r) == _typed(_make(G, y.terms, r.trunc))
