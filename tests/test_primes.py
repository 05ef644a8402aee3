import pytest
from hypothesis import given
from hypothesis import strategies as st

from arclab.errors import ParameterError
from arclab.primes import INF, PartitionMap, PrimeSet, is_prime

SOME_PRIMES = [2, 3, 5, 7, 11, 13, 101]

prime_sets = st.one_of(
    st.builds(PrimeSet.finite, st.sets(st.sampled_from(SOME_PRIMES))),
    st.builds(PrimeSet.cofinite_excluding, st.sets(st.sampled_from(SOME_PRIMES))),
)


def test_basic_membership():
    s = PrimeSet.finite([3, 2, 3])
    assert 2 in s and 3 in s and 5 not in s
    c = PrimeSet.cofinite_excluding([2])
    assert 2 not in c and 97 in c
    assert PrimeSet.all_primes().is_all()
    assert PrimeSet.empty().is_empty()


def test_canonical_sorted_dedup():
    s = PrimeSet.finite([7, 3, 7, 2])
    assert s.to_json() == {"finite": [2, 3, 7]}


@given(prime_sets, prime_sets, st.sampled_from(SOME_PRIMES))
def test_boolean_algebra_pointwise(a, b, p):
    assert (p in a.union(b)) == (p in a or p in b)
    assert (p in a.intersection(b)) == (p in a and p in b)
    assert (p in a.complement()) == (p not in a)


@given(prime_sets)
def test_complement_involution(a):
    assert a.complement().complement() == a


@given(prime_sets)
def test_json_round_trip(a):
    assert PrimeSet.from_json(a.to_json()) == a


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    # covers the switch from trial division to Miller-Rabin
    assert [n for n in range(20_000) if is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_n():
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    m61 = 2**61 - 1
    assert is_prime(m61)
    assert not is_prime(m61 * (2**17 - 1))
    # above the range the 13 bases decide, the answer is refused
    with pytest.raises(ParameterError):
        is_prime(m61 * (2**31 - 1))


def test_smallest():
    assert PrimeSet.cofinite_excluding([2, 3]).smallest() == [5]
    assert PrimeSet.finite([11, 5]).smallest(2) == [5, 11]
    assert PrimeSet.empty().smallest() == []


def test_partition_map_value_and_pieces():
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(2), INF), (PrimeSet.cofinite_excluding([2]), 0)]
    )
    assert m.value_at(2) is INF
    assert m.value_at(3) == 0
    assert {"primes": {"finite": [2]}, "value": "inf"} in m.to_json()


def test_partition_map_where():
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(2), 0), (PrimeSet.cofinite_excluding([2]), 1)]
    )
    assert m.where(lambda v: v == 0) == PrimeSet.single(2)
    assert m.where(lambda v: v >= 0).is_all()


def test_partition_map_add_saturates_at_inf():
    a = PartitionMap.from_pairs(
        [(PrimeSet.single(2), INF), (PrimeSet.cofinite_excluding([2]), 1)]
    )
    b = PartitionMap.constant(1)
    s = a.add(b)
    assert s.value_at(2) is INF
    assert s.value_at(5) == 2


@given(st.sampled_from(SOME_PRIMES), st.integers(0, 5), st.integers(0, 5))
def test_partition_map_piecewise_get(p, a, b):
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(p), b), (PrimeSet.cofinite_excluding([p]), a)]
    )
    assert m.value_at(p) == b
    q = 2 if p != 2 else 3
    assert m.value_at(q) == a
