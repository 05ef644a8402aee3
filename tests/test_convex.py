from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.convex import (
    ConvexCut,
    bottom_cut,
    chain_cuts,
    cut_labels,
    cut_name,
    cuts_cmp,
    g_pn,
    is_dp_minimal,
    is_p_regular,
    labels_at,
    max_divisible,
    max_p_divisible,
    non_definability_certificate,
    np_map,
    parse_cut,
    quotient_exponent,
    suffix_divisible_primes,
    thm_condition_prime,
    top_cut,
)
from arclab.groups import element, elem_p_divisible, parse_group
from arclab.primes import INF, PrimeSet

K1 = parse_group("lex(Z, Q)")
K2 = parse_group("lex(omega_tower(start=0))")
ZPI = parse_group("lex(real(1, pi))")
C0 = parse_group("lex(poly_module(Zloc(2), pi))")
LQ = parse_group("lex(Q)")
ZZ = parse_group("lex(Z, Z)")

LIBRARY = [K1, K2, ZPI, C0, LQ, ZZ]


# -- the chain ----------------------------------------------------------------


def test_chain_k1():
    assert [cut_name(K1, c) for c in chain_cuts(K1)] == ["top", "seg1", "bottom"]


def test_chain_lq():
    assert [cut_name(LQ, c) for c in chain_cuts(LQ)] == ["top", "bottom"]


def test_chain_tower_truncated():
    names = [cut_name(K2, c) for c in chain_cuts(K2)]
    assert names == ["top", "seg0+1", "seg0+2", "seg0+3", "seg0+4", "bottom"]


def test_chain_strictly_deepening():
    for G in LIBRARY:
        chain = chain_cuts(G)
        for a, b in zip(chain, chain[1:]):
            assert cuts_cmp(a, b) == -1  # shallow (big subgroup) to deep


def test_cut_name_round_trip():
    for G in LIBRARY:
        for c in chain_cuts(G):
            assert parse_cut(G, cut_name(G, c)) == c


# -- suffix divisibility -------------------------------------------------------


def test_suffix_divisible_k1():
    assert suffix_divisible_primes(K1, parse_cut(K1, "seg1")).is_all()
    assert suffix_divisible_primes(K1, top_cut(K1)).is_empty()
    assert suffix_divisible_primes(K1, bottom_cut(K1)).is_all()


def test_suffix_divisible_tower_inner():
    # the tail from tower offset m misses exactly the primes p_k with k >= m,
    # so the divisible set is the finite head {p_1, ..., p_m} (start=0 tower
    # holds summands for p_1=3, p_2=5, ...; 2 never appears)
    got = suffix_divisible_primes(K2, parse_cut(K2, "seg0+1"))
    assert got == PrimeSet.finite([2, 3])
    assert 2 in got and 3 in got and 5 not in got
    got3 = suffix_divisible_primes(K2, parse_cut(K2, "seg0+3"))
    assert 2 in got3 and 3 in got3 and 5 in got3 and 7 in got3 and 11 not in got3


def test_suffix_divisible_c0():
    assert suffix_divisible_primes(C0, top_cut(C0)) == PrimeSet.cofinite_excluding([2])


# -- G_p, G_0 -------------------------------------------------------------------


def test_max_p_divisible_k1():
    for p in (2, 3, 5, 7):
        assert cut_name(K1, max_p_divisible(K1, p)) == "seg1"


def test_max_p_divisible_zpluspi():
    for p in (2, 3, 5):
        assert max_p_divisible(ZPI, p) == bottom_cut(ZPI)


def test_max_p_divisible_tower():
    # summand for prime p_j sits at tower offset j; the p_j-divisible tail
    # starts right below it
    assert cut_name(K2, max_p_divisible(K2, 3)) == "seg0+1"
    assert cut_name(K2, max_p_divisible(K2, 5)) == "seg0+2"
    assert cut_name(K2, max_p_divisible(K2, 7)) == "seg0+3"
    # 2 has no summand at all: the whole group is 2-divisible
    assert max_p_divisible(K2, 2) == top_cut(K2)


def test_max_divisible():
    assert cut_name(K1, max_divisible(K1)) == "seg1"
    assert max_divisible(K2) == bottom_cut(K2)
    assert max_divisible(LQ) == top_cut(LQ)
    assert max_divisible(ZPI) == bottom_cut(ZPI)


def test_max_p_divisible_brute_oracle():
    # brute route: deepest-to-shallowest, a suffix is p-divisible iff its
    # component generators are divisible; compare on the effective words
    cases = [(K1, (1, 0)), (ZZ, (1, 1)), (parse_group("lex(Zloc(2), Q)"), (1, 0))]
    for G, gens in cases:
        for p in (2, 3, 5):
            expect = len(G.components)
            for seg in range(len(G.components) - 1, -1, -1):
                coords = [0] * len(G.components)
                coords[seg] = gens[seg]
                if elem_p_divisible(G, element(G, *coords), p):
                    expect = seg
                else:
                    break
            assert max_p_divisible(G, p) == ConvexCut(expect)


# -- quotient exponents and n_p -------------------------------------------------


def test_quotient_exponent_pins():
    assert quotient_exponent(K1, bottom_cut(K1), top_cut(K1), 5) == 1
    assert quotient_exponent(ZPI, bottom_cut(ZPI), top_cut(ZPI), 3) == 2
    assert quotient_exponent(K2, bottom_cut(K2), top_cut(K2), 2) == 0
    assert quotient_exponent(C0, bottom_cut(C0), top_cut(C0), 2) is INF
    assert quotient_exponent(C0, bottom_cut(C0), top_cut(C0), 7) == 0


def test_np_tables():
    assert np_map(K1).value_at(2) == 1 and np_map(K1).value_at(97) == 1
    m2 = np_map(K2)
    assert m2.value_at(2) == 0
    for p in (3, 5, 7, 11, 101):
        assert m2.value_at(p) == 1
    assert np_map(ZPI).value_at(2) == 2
    mc = np_map(C0)
    assert mc.value_at(2) is INF and mc.value_at(3) == 0


def test_dp_minimal_verdicts():
    assert is_dp_minimal(K1)
    assert is_dp_minimal(K2)
    assert is_dp_minimal(ZPI)
    assert not is_dp_minimal(C0)


# -- g_pn ------------------------------------------------------------------------


def test_g_pn_k1():
    assert cut_name(K1, g_pn(K1, 2, 0)) == "seg1"
    assert g_pn(K1, 2, 1) == top_cut(K1)


def test_g_pn_zpluspi():
    assert g_pn(ZPI, 2, 0) == bottom_cut(ZPI)
    assert g_pn(ZPI, 2, 1) == bottom_cut(ZPI)
    assert g_pn(ZPI, 2, 2) == top_cut(ZPI)


def test_g_pn_agrees_with_max_p_divisible_at_zero():
    for G in LIBRARY:
        for p in (2, 3, 5):
            assert g_pn(G, p, 0) == max_p_divisible(G, p)


@given(st.sampled_from(LIBRARY), st.sampled_from([2, 3, 5, 7]), st.integers(0, 3))
def test_g_pn_chain_property(G, p, n):
    div = max_divisible(G)
    gp = max_p_divisible(G, p)
    a, b = g_pn(G, p, n), g_pn(G, p, n + 1)
    assert cuts_cmp(div, gp) >= 0  # the divisible core is deepest
    assert cuts_cmp(gp, a) >= 0
    assert cuts_cmp(a, b) >= 0  # levels only get shallower


def test_g_pn_saturates_at_np():
    for G, p in [(K1, 2), (K1, 3), (ZPI, 5), (K2, 3), (LQ, 2), (ZZ, 7)]:
        np_v = np_map(G).value_at(p)
        assert np_v is not INF
        assert g_pn(G, p, np_v) == top_cut(G)


# -- theorem condition and regularity ---------------------------------------------


def test_thm_condition_prime():
    assert thm_condition_prime(K1).is_all()
    assert thm_condition_prime(K2).is_empty()
    assert thm_condition_prime(ZPI).is_all()
    assert thm_condition_prime(LQ).is_all()


def test_thm_condition_matches_definitional_identity():
    for G in LIBRARY:
        s = thm_condition_prime(G)
        for p in (2, 3, 5, 7, 11):
            assert (p in s) == (max_p_divisible(G, p) == max_divisible(G))


def test_is_p_regular_pins():
    q_cut = parse_cut(K1, "seg1")
    for p in (2, 3, 5):
        assert is_p_regular(K1, bottom_cut(K1), q_cut, p)
        assert is_p_regular(K1, q_cut, top_cut(K1), p)
        assert not is_p_regular(ZZ, bottom_cut(ZZ), top_cut(ZZ), p)


def test_is_p_regular_requires_proper_segment():
    with pytest.raises(Exception):
        is_p_regular(K1, top_cut(K1), bottom_cut(K1), 2)


# -- labels and certificates (the dual routes) --------------------------------------


def test_cut_labels_k1():
    by_name = {cut_name(K1, c): cut_labels(K1, c) for c in chain_cuts(K1)}
    assert by_name["bottom"] == ()
    [e] = by_name["seg1"]
    assert e.primes.is_all() and e.n_min == 0 and e.n_max == 0
    [e] = by_name["top"]
    assert e.primes.is_all() and e.n_min == 1 and e.n_max == 1


def test_labels_at_c0():
    assert labels_at(C0, bottom_cut(C0), 2) is None  # (2, n) for every n
    assert labels_at(C0, bottom_cut(C0), 3) == []
    assert labels_at(C0, top_cut(C0), 3) == [0]
    assert labels_at(C0, top_cut(C0), 2) == []


def test_certificate_k1_bottom():
    cert = non_definability_certificate(K1, bottom_cut(K1))
    assert cert is not None
    j = cert.to_json(K1)
    [piece] = j["pieces"]
    assert piece["primes"] == {"cofinite_excluding": []}
    assert piece["low"] == "bottom" and piece["high"] == "seg1"


def test_certificate_k1_labeled_cuts_none():
    assert non_definability_certificate(K1, parse_cut(K1, "seg1")) is None
    assert non_definability_certificate(K1, top_cut(K1)) is None


def test_certificate_tower_bottom():
    cert = non_definability_certificate(K2, bottom_cut(K2))
    assert cert is not None
    j = cert.to_json(K2)
    # every instantiated witness straddles bottom with a p-divisible tail
    for piece in j["pieces"]:
        for inst in piece["instances"]:
            assert inst["low"] == "bottom"
            high = parse_cut(K2, inst["high"])
            assert inst["p"] in suffix_divisible_primes(K2, high)
    pins = {inst["p"]: inst["high"] for piece in j["pieces"] for inst in piece["instances"]}
    assert pins[3] == "seg0+1" and pins[5] == "seg0+2"


def test_dual_route_image_vs_certificates():
    # a chain cut carries a label exactly when no certificate exists
    for G in LIBRARY:
        for c in chain_cuts(G):
            labeled = bool(cut_labels(G, c))
            cert = non_definability_certificate(G, c)
            assert labeled == (cert is None), (G, cut_name(G, c))


def test_certificate_pieces_partition_all_primes():
    for G, c in [(K1, bottom_cut(K1)), (K2, bottom_cut(K2)), (ZZ, parse_cut(ZZ, "seg1"))]:
        cert = non_definability_certificate(G, c)
        if cert is None:
            continue
        union = PrimeSet.empty()
        for entry in cert.entries:
            assert union.intersection(entry.primes).is_empty()
            union = union.union(entry.primes)
        assert union.is_all()
