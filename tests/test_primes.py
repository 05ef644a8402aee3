import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arclab
from arclab import primes
from arclab.errors import ParameterError, ShapeError
from arclab.primes import (
    INF,
    PartitionMap,
    PrimeSet,
    common_pieces,
    is_prime,
    prime_at,
    prime_index,
)

SOME_PRIMES = [2, 3, 5, 7, 11, 13, 101]

prime_sets = st.one_of(
    st.builds(PrimeSet.finite, st.sets(st.sampled_from(SOME_PRIMES))),
    st.builds(lambda s: PrimeSet(True, frozenset(s)), st.sets(st.sampled_from(SOME_PRIMES))),
)


def test_basic_membership():
    s = PrimeSet.finite([3, 2, 3])
    assert 2 in s and 3 in s and 5 not in s
    c = PrimeSet(True, frozenset([2]))
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


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    # covers the switch from trial division to Miller-Rabin
    assert [n for n in range(20_000) if is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)
    ]


def test_prime_at_and_prime_index_match_trial_division():
    below = [n for n in range(20_000) if _trial_division(n)]
    assert [prime_at(k) for k in range(len(below))] == below
    assert [prime_index(p) for p in below] == list(range(len(below)))
    with pytest.raises(ValueError):
        prime_index(20_001)


def test_a_prime_set_refuses_a_composite():
    with pytest.raises(ValueError, match="4 is not prime"):
        PrimeSet.finite([4])


def test_prime_at_on_a_cold_start_does_not_recurse():
    src = pathlib.Path(arclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "from arclab.primes import prime_at; print(prime_at(5000))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "48619"


def test_prime_indexing_stops_at_the_sieve_limit(monkeypatch):
    monkeypatch.setattr(primes, "_PRIME_LIMIT", 100)
    monkeypatch.setattr(primes, "_primes", [])
    monkeypatch.setattr(primes, "_sieved_to", 2)
    assert prime_at(24) == 97 and prime_index(97) == 24
    with pytest.raises(ParameterError):
        prime_at(25)
    with pytest.raises(ParameterError):
        prime_index(101)


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
    assert PrimeSet(True, frozenset([2, 3])).smallest() == [5]
    assert PrimeSet.finite([11, 5]).smallest(2) == [5, 11]
    assert PrimeSet.empty().smallest() == []


def test_partition_map_value_and_pieces():
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(2), INF), (PrimeSet(True, frozenset([2])), 0)]
    )
    assert m.value_at(2) is INF
    assert m.value_at(3) == 0
    assert {"primes": {"finite": [2]}, "value": "inf"} in m.to_json()


def test_partition_map_where():
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(2), 0), (PrimeSet(True, frozenset([2])), 1)]
    )
    assert m.where(lambda v: v == 0) == PrimeSet.single(2)
    assert m.where(lambda v: v >= 0).is_all()


def test_partition_map_add_saturates_at_inf():
    a = PartitionMap.from_pairs(
        [(PrimeSet.single(2), INF), (PrimeSet(True, frozenset([2])), 1)]
    )
    b = PartitionMap(1)
    s = a.add(b)
    assert s.value_at(2) is INF
    assert s.value_at(5) == 2


@given(st.sampled_from(SOME_PRIMES), st.integers(0, 5), st.integers(0, 5))
def test_partition_map_piecewise_get(p, a, b):
    m = PartitionMap.from_pairs(
        [(PrimeSet.single(p), b), (PrimeSet(True, frozenset([p])), a)]
    )
    assert m.value_at(p) == b
    q = 2 if p != 2 else 3
    assert m.value_at(q) == a


# -- the map algebra against the piece-based algebra it replaced ----------------


def _ref_sort_key(v):
    if isinstance(v, tuple):
        return (1, tuple(_ref_sort_key(x) for x in v))
    return (0, float(v))


class RefMap:
    """Reference: a map stored as its pieces, merged by value and sorted,
    and combined through the common refinement of two partitions."""

    def __init__(self, pairs):
        by_value = {}
        for ps, v in pairs:
            by_value[v] = by_value[v].union(ps) if v in by_value else ps
        merged = [(ps, v) for v, ps in by_value.items() if not ps.is_empty()]
        merged.sort(key=lambda item: _ref_sort_key(item[1]))
        self.pieces = tuple(merged)

    def value_at(self, p):
        return next(v for ps, v in self.pieces if p in ps)

    def combine(self, other, fn):
        out = []
        for ps_a, va in self.pieces:
            for ps_b, vb in other.pieces:
                cell = ps_a.intersection(ps_b)
                if not cell.is_empty():
                    out.append((cell, fn(va, vb)))
        return RefMap(out)

    def add(self, other):
        return self.combine(other, lambda a, b: INF if INF in (a, b) else a + b)

    def map_values(self, fn):
        return RefMap([(ps, fn(v)) for ps, v in self.pieces])

    def where(self, pred):
        out = PrimeSet.empty()
        for ps, v in self.pieces:
            if pred(v):
                out = out.union(ps)
        return out

    def to_json(self):
        return [
            {"primes": ps.to_json(), "value": "inf" if v == INF else v}
            for ps, v in self.pieces
        ]


MAP_VALUES = st.sampled_from([0, 1, 2, 3, INF])
OUTSIDE = 17  # a prime no generated map names


@st.composite
def piece_lists(draw):
    """Pieces of a map: a value at some primes of SOME_PRIMES, one piece
    each, and a default on the cofinite rest, in a random order.  A value
    equal to the default gives a piece that merges into the default's."""
    default = draw(MAP_VALUES)
    assigned = draw(st.dictionaries(st.sampled_from(SOME_PRIMES), MAP_VALUES))
    pairs = [(PrimeSet(True, frozenset(assigned)), default)]
    pairs += [(PrimeSet.single(p), v) for p, v in assigned.items()]
    return draw(st.permutations(pairs))


VALUE_FNS = (
    lambda v: INF if v is INF else v + 1,
    lambda v: 0 if v is INF else min(v, 2),
    lambda v: 1,
)
PREDICATES = (lambda v: v == 0, lambda v: v is INF, lambda v: v != 0, lambda v: v >= 2)


@given(piece_lists(), piece_lists())
def test_partition_map_matches_piece_reference(pairs_a, pairs_b):
    a, b = PartitionMap.from_pairs(pairs_a), PartitionMap.from_pairs(pairs_b)
    ref_a, ref_b = RefMap(pairs_a), RefMap(pairs_b)
    for p in SOME_PRIMES + [OUTSIDE]:
        assert a.value_at(p) == ref_a.value_at(p)
        assert (a.value_at(p) is INF) == (ref_a.value_at(p) is INF)
    assert a.pieces == ref_a.pieces
    assert a.to_json() == ref_a.to_json()
    assert a.add(b).pieces == ref_a.add(ref_b).pieces
    ref_ab = ref_a.combine(ref_b, lambda x, y: (x, y))
    assert a.combine(b, lambda x, y: (x, y)).pieces == ref_ab.pieces
    assert tuple(common_pieces(a, b)) == ref_ab.pieces
    ref_abs = ref_ab.combine(ref_a.add(ref_b), lambda xy, z: (*xy, z))
    assert tuple(common_pieces(a, b, a.add(b))) == ref_abs.pieces
    for fn in VALUE_FNS:
        assert a.map_values(fn).pieces == ref_a.map_values(fn).pieces
    for pred in PREDICATES:
        assert a.where(pred) == ref_a.where(pred)
    assert PartitionMap.from_pairs(a.pieces) == a


@pytest.mark.parametrize(
    "pairs, error, match",
    [
        ([(PrimeSet.all_primes(), 0), (PrimeSet(True, frozenset([2])), 1)], ShapeError, "overlap"),
        ([(PrimeSet(True, frozenset([2])), 0), (PrimeSet.single(3), 1)], ShapeError, "overlap"),
        ([(PrimeSet(True, frozenset([2, 3])), 0), (PrimeSet.single(2), 1)], ShapeError, "cover"),
        ([(PrimeSet.all_primes(), True)], ValueError, "bool"),
        ([(PrimeSet.all_primes(), -1)], ValueError, ">= 0"),
    ],
    ids=["two-cofinite", "finite-inside-cofinite", "gap", "bool", "negative"],
)
def test_from_pairs_rejects(pairs, error, match):
    with pytest.raises(error, match=match):
        PartitionMap.from_pairs(pairs)
