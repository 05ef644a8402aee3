"""Prime enumeration and the finite-or-cofinite set algebra.

Everything downstream that talks about "which primes" does so through
:class:`PrimeSet` (a finite or cofinite set of primes, closed under union
and intersection) and :class:`PartitionMap` (a map from primes to extended
naturals, stored as a default value and the finitely many primes where it
differs); :func:`common_pieces` cuts the primes into the pieces on which
several maps are all constant.  Keeping these closed under the operations
we need is what makes the classification machinery terminate on groups
with infinitely many relevant primes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from math import isqrt
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .errors import ParameterError, ShapeError

INF = float("inf")


# The first 13 primes are a deterministic Miller-Rabin base set for every
# n < 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015); the
# same tuple is the table of primes up to 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality: a lookup in _MR_BASES up to 41, Miller-Rabin past it;
    ParameterError for an odd n at or above _MR_LIMIT."""
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    return n % 2 == 1 and _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to every base in
    _MR_BASES, which decides primality below _MR_LIMIT; ParameterError
    at or above it."""
    if n >= _MR_LIMIT:
        raise ParameterError(f"primality of {n} is not decided at or above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# prime_at and prime_index raise ParameterError rather than sieve past this.
_PRIME_LIMIT = 10_000_000
# Every prime below _sieved_to, ascending; grown by _sieve on demand.
_primes: list[int] = []
_sieved_to = 2


def _sieve(n: int) -> None:
    """Grow _primes to every prime below n, at least doubling the range."""
    global _sieved_to
    n = min(max(n, 2 * _sieved_to), _PRIME_LIMIT)
    flags = bytearray([1]) * n
    flags[:2] = b"\x00\x00"
    for i in range(2, isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n, i)))
    _primes[:] = compress(range(n), flags)
    _sieved_to = n


def prime_at(k: int) -> int:
    """k-th prime, zero-indexed: prime_at(0) == 2."""
    while k >= len(_primes):
        if _sieved_to >= _PRIME_LIMIT:
            raise ParameterError(f"prime index {k} is beyond the primes below {_PRIME_LIMIT}")
        _sieve(2 * _sieved_to)
    return _primes[k]


def prime_index(p: int) -> int:
    """Inverse of prime_at. Raises ValueError if p is not prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= _PRIME_LIMIT:
        raise ParameterError(f"primes are indexed only below {_PRIME_LIMIT}, got {p}")
    if p >= _sieved_to:
        _sieve(p + 1)
    return bisect_left(_primes, p)


def _check_primes(xs: Iterable[int]) -> frozenset[int]:
    s = frozenset(xs)
    for x in s:
        if not is_prime(x):
            raise ValueError(f"{x} is not prime")
    return s


class PrimeSet(NamedTuple):
    """A finite or cofinite subset of the primes.

    ``basis`` holds the members when finite, the excluded primes when
    cofinite.  Union and intersection are closed on this class, which is
    the whole point: sets like "all primes except 2" or "the primes p_k
    for k >= 3" stay representable.
    """

    cofinite: bool
    basis: frozenset[int]

    @staticmethod
    def finite(members: Iterable[int] = ()) -> "PrimeSet":
        return PrimeSet(False, _check_primes(members))

    @staticmethod
    def all_primes() -> "PrimeSet":
        return PrimeSet(True, frozenset())

    @staticmethod
    def empty() -> "PrimeSet":
        return PrimeSet(False, frozenset())

    @staticmethod
    def single(p: int) -> "PrimeSet":
        return PrimeSet.finite([p])

    def __contains__(self, p: int) -> bool:
        return (p in self.basis) != self.cofinite

    def is_empty(self) -> bool:
        return not self.cofinite and not self.basis

    def is_all(self) -> bool:
        return self.cofinite and not self.basis

    def union(self, other: "PrimeSet") -> "PrimeSet":
        if not self.cofinite and not other.cofinite:
            return PrimeSet(False, self.basis | other.basis)
        if self.cofinite and other.cofinite:
            return PrimeSet(True, self.basis & other.basis)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return PrimeSet(True, cof.basis - fin.basis)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        if not self.cofinite and not other.cofinite:
            return PrimeSet(False, self.basis & other.basis)
        if self.cofinite and other.cofinite:
            return PrimeSet(True, self.basis | other.basis)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return PrimeSet(False, fin.basis - cof.basis)

    def members_among(self, primes: Iterable[int]) -> list[int]:
        """The members of this set among a concrete finite list."""
        return sorted(p for p in primes if p in self)

    def smallest(self, count: int = 1) -> list[int]:
        """The smallest `count` members (empty-set safe for finite sets)."""
        out: list[int] = []
        if not self.cofinite:
            out = sorted(self.basis)[:count]
        else:
            k = 0
            while len(out) < count:
                p = prime_at(k)
                if p in self:
                    out.append(p)
                k += 1
        return out

    def to_json(self) -> dict:
        key = "cofinite_excluding" if self.cofinite else "finite"
        return {key: sorted(self.basis)}


def _check_value(v):
    if isinstance(v, bool):
        raise ValueError("partition values must be naturals or INF, not bool")
    if isinstance(v, int):
        if v < 0:
            raise ValueError(f"partition value must be >= 0, got {v}")
        return v
    if isinstance(v, float) and v == INF:
        return INF
    raise ValueError(f"partition value must be a natural or INF, got {v!r}")


class PartitionMap(NamedTuple):
    """A map primes -> N ∪ {INF} that is constant on finitely many pieces.

    It takes ``default`` everywhere except at ``exceptions``: (prime, value)
    pairs sorted by prime, each value other than the default, so equal maps
    compare equal.  Finitely many disjoint finite-or-cofinite pieces that
    cover the primes include exactly one cofinite piece, which gives the
    default, so this form holds every such map.  An overlap or a gap cannot
    be written in it: the algebra below works prime by prime and checks
    nothing, and only ``from_pairs``, which reads pieces, checks them.
    """

    default: object
    exceptions: tuple[tuple[int, object], ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[PrimeSet, object]]) -> "PartitionMap":
        """The map with value v on each piece (ps, v).  Pieces of different
        values must be disjoint, and together they must cover every prime."""
        by_value: dict = {}
        for ps, v in pairs:
            v = _check_value(v)
            if v in by_value:
                by_value[v] = by_value[v].union(ps)
            else:
                by_value[v] = ps
        total = PrimeSet.empty()
        for ps in by_value.values():
            if not total.intersection(ps).is_empty():
                raise ShapeError("partition pieces overlap")
            total = total.union(ps)
        if not total.is_all():
            raise ShapeError("partition pieces do not cover all primes")
        default = next(v for v, ps in by_value.items() if ps.cofinite)
        exceptions = [(p, v) for v, ps in by_value.items() if not ps.cofinite for p in ps.basis]
        return PartitionMap(default, tuple(sorted(exceptions)))

    @property
    def pieces(self) -> tuple[tuple[PrimeSet, object], ...]:
        """One (prime set, value) piece per value, sorted by value (INF last)."""
        return tuple([(ps, v) for ps, (v,) in common_pieces(self)])

    def value_at(self, p: int):
        i = bisect_left(self.exceptions, (p,))
        if i < len(self.exceptions) and self.exceptions[i][0] == p:
            return self.exceptions[i][1]
        return self.default

    def combine(self, other: "PartitionMap", fn: Callable) -> "PartitionMap":
        """Pointwise combination: fn at the defaults and at every exception
        of either map."""
        primes = sorted({p for p, _ in self.exceptions + other.exceptions})
        return _canonical(
            fn(self.default, other.default),
            [(p, fn(self.value_at(p), other.value_at(p))) for p in primes],
        )

    def add(self, other: "PartitionMap") -> "PartitionMap":
        return self.combine(other, lambda a, b: INF if INF in (a, b) else a + b)

    def map_values(self, fn: Callable) -> "PartitionMap":
        return _canonical(fn(self.default), [(p, fn(v)) for p, v in self.exceptions])

    def where(self, pred: Callable) -> PrimeSet:
        """The set of primes whose value satisfies `pred`."""
        hit = bool(pred(self.default))
        return PrimeSet(hit, frozenset(p for p, v in self.exceptions if bool(pred(v)) != hit))

    def to_json(self) -> list:
        return [
            {"primes": ps.to_json(), "value": "inf" if v == INF else v}
            for ps, v in self.pieces
        ]


def _canonical(default, items: Iterable[tuple[int, object]]) -> PartitionMap:
    """The map with the given default and (prime, value) items sorted by
    prime, dropping the items whose value is the default."""
    # From a list: CPython resizes a tuple built from a generator, then frees
    # it onto a free list of its final size that nothing reuses (~1 MB RSS).
    return PartitionMap(default, tuple([(p, v) for p, v in items if v != default]))


def common_pieces(*maps: PartitionMap) -> list[tuple[PrimeSet, tuple]]:
    """The common refinement of the maps: one (prime set, value tuple) piece
    per tuple of values they take together at a prime, sorted by the tuple.

    A prime named by no map's exceptions takes the tuple of defaults, and
    every other prime a different one, so the pieces' tuples are distinct
    and exactly one piece, the defaults', is cofinite."""
    primes = {p for m in maps for p, _ in m.exceptions}
    cells: dict[tuple, list[int]] = {}
    for p in primes:
        cells.setdefault(tuple([m.value_at(p) for m in maps]), []).append(p)
    out = [(PrimeSet(False, frozenset(ps)), v) for v, ps in cells.items()]
    out.append((PrimeSet(True, frozenset(primes)), tuple([m.default for m in maps])))
    out.sort(key=itemgetter(1))
    return out
