import hashlib
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.errors import NonEffectiveError, RootError, ShapeError, ZeroInputError
from arclab.groups import elem_cmp, element, parse_group, print_group
from arclab.convex import parse_cut
from arclab.hahn import (
    HahnSeries,
    _make,
    const_series,
    decompose,
    default_cutoff,
    equal_mod_trunc,
    leading_coeff,
    monomial,
    parse_series,
    print_series,
    pth_root,
    root_enclosure,
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
    same, exact = equal_mod_trunc(prod, const_series(K1, 1))
    assert same and not exact  # agreement holds below the cutoff only


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
    same, exact = equal_mod_trunc(back, a)
    assert same and not exact


def test_root_enclosure_brackets():
    lo, hi = root_enclosure(S("2*t^(2,0)"), 2)
    assert lo < hi
    assert lo * lo < 2 < hi * hi


# -- decompose -------------------------------------------------------------------


def test_decompose_pin():
    a = S("2*t^(1,1/2) + 3*t^(1,2) + 5*t^(2,0)")
    coarse, residue = decompose(a, parse_cut(K1, "seg1"))
    assert coarse == (Fraction(1),)
    assert print_group(residue.group) == "lex(Q)"
    assert print_series(residue) == "2*t^(1/2) + 3*t^(2)"


def test_decompose_drops_terms_off_the_leading_prefix():
    a = S("2*t^(1,1/2) + 3*t^(1,2) + 5*t^(2,0)")
    _, residue = decompose(a, parse_cut(K1, "seg1"))
    assert len(residue.terms) == 2  # the (2,0) term lives on another prefix


def test_decompose_reassembles_leading_exponent():
    a = S("2*t^(1,1/2) + 3*t^(1,2) + 5*t^(2,0)")
    coarse, residue = decompose(a, parse_cut(K1, "seg1"))
    assert coarse + v_of(residue) == v_of(a)


def test_decompose_needs_effective_suffix():
    with pytest.raises(NonEffectiveError):
        decompose(S("t^(1,0)"), parse_cut(K1, "bottom"))


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
