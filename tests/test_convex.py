import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arclab import convex
from arclab.convex import (
    INNER_LIMIT,
    ConvexCut,
    bottom_cut,
    chain_cuts,
    cut_labels,
    cut_name,
    g_pn,
    is_dp_minimal,
    is_p_regular,
    max_divisible,
    max_p_divisible,
    non_definability_certificate,
    np_map,
    parse_cut,
    segment_exponent_map,
    suffix_divisible_primes,
    suffix_exponent_map,
    thm_condition_prime,
    top_cut,
)
from arclab.errors import InternalError, ShapeError
from arclab.groups import OmegaTower, element, elem_p_divisible, parse_group
from arclab.primes import INF, PrimeSet, prime_at
from arclab.valuations import definable_rows
from conftest import EFFECTIVE_POOL
from reference_eval import reference_certificate_cells, reference_g_pn, reference_regular_primes
from schematic_words import schematic_words

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
            assert a < b  # shallow (big subgroup) to deep


def test_cut_name_round_trip():
    for G in LIBRARY:
        for c in chain_cuts(G):
            assert parse_cut(G, cut_name(G, c)) == c


@pytest.mark.parametrize(
    "name",
    [
        "seg01", "seg 1", "seg0_1", "seg١", "seg1+٢", "seg1+02", "seg1 + 2", "seg+1", "seg1+",
        "seg0", "seg3", "seg9", "seg1+0", "seg1+-1", "seg0+1",
    ],
)
def test_parse_cut_takes_only_its_own_spelling(name):
    # cut_name writes ASCII digits with no sign, space, underscore or
    # leading zero; parse_cut refuses every other spelling of seg1 or seg1+2,
    # the top and bottom cuts as seg0 and seg3, and names that denote no cut
    G = parse_group("lex(Z, omega_tower(start=0), Q)")
    assert parse_cut(G, "seg1") == ConvexCut(1)
    assert parse_cut(G, "seg1+2") == ConvexCut(1, 2)
    with pytest.raises(ShapeError):
        parse_cut(G, name)


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
    assert suffix_divisible_primes(C0, top_cut(C0)) == PrimeSet(True, frozenset([2]))


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
    assert segment_exponent_map(K1, bottom_cut(K1), top_cut(K1)).value_at(5) == 1
    assert segment_exponent_map(ZPI, bottom_cut(ZPI), top_cut(ZPI)).value_at(3) == 2
    assert segment_exponent_map(K2, bottom_cut(K2), top_cut(K2)).value_at(2) == 0
    assert segment_exponent_map(C0, bottom_cut(C0), top_cut(C0)).value_at(2) is INF
    assert segment_exponent_map(C0, bottom_cut(C0), top_cut(C0)).value_at(7) == 0


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


def test_g_pn_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="exponent bound must be a natural number"):
        g_pn(K1, 2, -1)


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
    assert div >= gp  # the divisible core is deepest
    assert gp >= a
    assert a >= b  # levels only get shallower


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
    # the levels a report prints for each cut at each display prime
    rows = {row["cut"]: row["display_labels"] for row in definable_rows(C0, (2, 3))}
    bottom, top = rows[cut_name(C0, bottom_cut(C0))], rows[cut_name(C0, top_cut(C0))]
    assert bottom["2"] == "unbounded"  # (2, n) for every n
    assert bottom["3"] == []
    assert top["3"] == [0]
    assert top["2"] == []


def test_certificate_k1_bottom():
    cert = non_definability_certificate(K1, bottom_cut(K1))
    assert cert is not None and cert["cut"] == "bottom"
    [piece] = cert["pieces"]
    assert piece["primes"] == {"cofinite_excluding": []}
    assert piece["low"] == "bottom" and piece["high"] == "seg1"
    assert piece["note"] == "low side equals the target cut itself (trivial subgroup)"


def test_certificate_k1_labeled_cuts_none():
    assert non_definability_certificate(K1, parse_cut(K1, "seg1")) is None
    assert non_definability_certificate(K1, top_cut(K1)) is None


def test_certificate_tower_bottom():
    cert = non_definability_certificate(K2, bottom_cut(K2))
    assert cert is not None
    # every instantiated witness straddles bottom with a p-divisible tail
    for piece in cert["pieces"]:
        for inst in piece["instances"]:
            assert inst["low"] == "bottom"
            high = parse_cut(K2, inst["high"])
            assert inst["p"] in suffix_divisible_primes(K2, high)
    pins = {inst["p"]: inst["high"] for piece in cert["pieces"] for inst in piece["instances"]}
    assert pins[3] == "seg0+1" and pins[5] == "seg0+2"
    # a tower-inner side tracks the prime; top is the same cut at every prime
    assert [piece["high"] for piece in cert["pieces"]] == ["top", "per-prime"]


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
        for piece in cert["pieces"]:
            [(kind, basis)] = piece["primes"].items()
            primes = PrimeSet(kind == "cofinite_excluding", frozenset(basis))
            assert union.intersection(primes).is_empty()
            union = union.union(primes)
        assert union.is_all()


# The certificate checks each pair it finds: a fault in the pair search or
# in the regularity test raises instead of passing off a wrong certificate.
@pytest.mark.parametrize(
    "word, cut",
    [
        ("lex(Z, Q)", "bottom"),
        # undecided: 3 instances are verified before the infinite-exponent piece
        ("lex(Q, poly_module(Zloc(2), pi))", "seg1"),
    ],
)
def test_certificate_rejects_an_irregular_pair(monkeypatch, word, cut):
    monkeypatch.setattr(convex, "is_p_regular", lambda G, low, high, p: False)
    G = parse_group(word)
    with pytest.raises(InternalError, match=f"verification failed at p=[0-9]+ for cut {cut}$"):
        non_definability_certificate(G, parse_cut(G, cut))


@pytest.mark.parametrize("cut", ["seg1", "top"])
def test_certificate_rejects_a_pair_on_the_target_cut(monkeypatch, cut):
    # unblocked, a labeled cut's pair has its high side on the cut itself
    monkeypatch.setattr(convex, "_blocked_primes", lambda G, c, piece, high: PrimeSet.empty())
    with pytest.raises(InternalError, match="certificate verification failed"):
        non_definability_certificate(K1, parse_cut(K1, cut))


# -- the chain table against the direct computation -----------------------------------

# the first 12 primes, and one whose offset in every tower of start <= 3
# lies past INNER_LIMIT, where g_pn lands on a cut the chain does not hold
TABLE_PRIMES = tuple(prime_at(k) for k in range(12)) + (prime_at(3 + INNER_LIMIT + 10),)


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_table_is_the_direct_computation(seed):
    words = schematic_words(seed, 60) + EFFECTIVE_POOL
    for G in map(parse_group, words):
        table = convex._chain_table(G)
        chain = chain_cuts(G)
        assert list(table.suffix) == chain[::-1]
        for c in chain:
            e_map = segment_exponent_map(G, bottom_cut(G), c)
            assert table.suffix[c] == e_map == suffix_exponent_map(G, c), (G, c)
            assert convex._certificate_cells(G, e_map) == reference_certificate_cells(G, e_map)
        assert np_map(G) == segment_exponent_map(G, bottom_cut(G), top_cut(G))
        for k, comp in enumerate(G.components):
            if isinstance(comp, OmegaTower):  # outside the chain: summed up from Bottom
                deep = ConvexCut(k, INNER_LIMIT + 3)
                assert suffix_exponent_map(G, deep) == segment_exponent_map(G, bottom_cut(G), deep)
        for p in TABLE_PRIMES:
            for n in range(7):
                assert g_pn(G, p, n) == reference_g_pn(G, p, n), (G, p, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_is_p_regular_matches_the_regular_prime_set(seed):
    # every ordered pair of distinct cuts, with a tower's inner cut past INNER_LIMIT
    for G in map(parse_group, schematic_words(seed, 40) + EFFECTIVE_POOL):
        cuts = chain_cuts(G) + [
            ConvexCut(k, INNER_LIMIT + 3)
            for k, comp in enumerate(G.components)
            if isinstance(comp, OmegaTower)
        ]
        for high, low in itertools.permutations(cuts, 2):
            if high > low:
                with pytest.raises(ShapeError):
                    is_p_regular(G, low, high, 2)
                continue
            regular = reference_regular_primes(G, low, high)
            for p in TABLE_PRIMES:
                assert is_p_regular(G, low, high, p) == (p in regular), (G, low, high, p)
