"""Prime enumeration and the finite-or-cofinite set algebra.

Everything downstream that talks about "which primes" does so through
:class:`PrimeSet` (a finite or cofinite set of primes, closed under boolean
operations) and :class:`PartitionMap` (a piecewise-constant map from primes to
extended naturals with finitely many pieces).  Keeping these closed under the
operations we need is what makes the classification machinery terminate on
groups with infinitely many relevant primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import ShapeError

INF = float("inf")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def prime_at(k: int) -> int:
    """k-th prime, zero-indexed: prime_at(0) == 2."""
    if k < 0:
        raise ValueError(f"prime index must be >= 0, got {k}")
    if k == 0:
        return 2
    n = prime_at(k - 1) + 1
    while not is_prime(n):
        n += 1
    return n


def prime_index(p: int) -> int:
    """Inverse of prime_at. Raises ValueError if p is not prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = 0
    while prime_at(k) != p:
        k += 1
    return k


def first_primes(n: int) -> list[int]:
    return [prime_at(k) for k in range(n)]


def _check_primes(xs: Iterable[int]) -> frozenset[int]:
    s = frozenset(xs)
    for x in s:
        if not is_prime(x):
            raise ValueError(f"{x} is not prime")
    return s


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite subset of the primes.

    ``basis`` holds the members when finite, the excluded primes when
    cofinite.  The algebra (union, intersection, complement) is closed on
    this class, which is the whole point: sets like "all primes except 2"
    or "the primes p_k for k >= 3" stay representable.
    """

    cofinite: bool
    basis: frozenset[int]

    @staticmethod
    def finite(members: Iterable[int] = ()) -> "PrimeSet":
        return PrimeSet(False, _check_primes(members))

    @staticmethod
    def cofinite_excluding(excluded: Iterable[int] = ()) -> "PrimeSet":
        return PrimeSet(True, _check_primes(excluded))

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

    def is_finite(self) -> bool:
        return not self.cofinite

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

    def complement(self) -> "PrimeSet":
        return PrimeSet(not self.cofinite, self.basis)

    def members_among(self, primes: Iterable[int]) -> list[int]:
        """The members of this set among a concrete finite list."""
        return sorted(p for p in primes if p in self)

    def smallest(self, count: int = 1) -> list[int]:
        """The smallest `count` members (empty-set safe for finite sets)."""
        out: list[int] = []
        if self.is_finite():
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

    @staticmethod
    def from_json(obj: dict) -> "PrimeSet":
        if "finite" in obj:
            return PrimeSet.finite(obj["finite"])
        if "cofinite_excluding" in obj:
            return PrimeSet.cofinite_excluding(obj["cofinite_excluding"])
        raise ValueError(f"not a prime-set object: {obj!r}")

    def describe(self) -> str:
        if self.is_empty():
            return "{}"
        if self.is_all():
            return "all primes"
        body = ", ".join(str(p) for p in sorted(self.basis))
        if self.cofinite:
            return f"all primes except {{{body}}}"
        return f"{{{body}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimeSet<{self.describe()}>"


def _check_value(v):
    if isinstance(v, bool):
        raise ValueError("partition values must be naturals or INF, not bool")
    if isinstance(v, int):
        if v < 0:
            raise ValueError(f"partition value must be >= 0, got {v}")
        return v
    if isinstance(v, float) and v == INF:
        return INF
    if isinstance(v, tuple):
        # combine() builds paired maps; validate each coordinate.
        return tuple(_check_value(x) for x in v)
    raise ValueError(f"partition value must be a natural or INF, got {v!r}")


def _sort_key(v):
    if isinstance(v, tuple):
        return (1, tuple(_sort_key(x) for x in v))
    return (0, float(v))


@dataclass(frozen=True)
class PartitionMap:
    """A map primes -> N ∪ {INF} that is constant on finitely many pieces.

    Canonical form: one piece per distinct value, pieces sorted by value
    (INF last).  Construction validates that the pieces are pairwise
    disjoint and jointly cover every prime.
    """

    pieces: tuple[tuple[PrimeSet, object], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[PrimeSet, object]]) -> "PartitionMap":
        by_value: dict = {}
        for ps, v in pairs:
            v = _check_value(v)
            if v in by_value:
                by_value[v] = by_value[v].union(ps)
            else:
                by_value[v] = ps
        merged = [(ps, v) for v, ps in by_value.items() if not ps.is_empty()]
        merged.sort(key=lambda item: _sort_key(item[1]))
        total = PrimeSet.empty()
        for ps, _ in merged:
            if not total.intersection(ps).is_empty():
                raise ShapeError("partition pieces overlap")
            total = total.union(ps)
        if not total.is_all():
            raise ShapeError("partition pieces do not cover all primes")
        return PartitionMap(tuple(merged))

    @staticmethod
    def constant(v) -> "PartitionMap":
        return PartitionMap.from_pairs([(PrimeSet.all_primes(), v)])

    def value_at(self, p: int):
        for ps, v in self.pieces:
            if p in ps:
                return v
        raise ShapeError(f"partition does not cover {p}")  # unreachable

    def combine(self, other: "PartitionMap", fn: Callable) -> "PartitionMap":
        """Pointwise combination through the common refinement."""
        out = []
        for ps_a, va in self.pieces:
            for ps_b, vb in other.pieces:
                cell = ps_a.intersection(ps_b)
                if not cell.is_empty():
                    out.append((cell, fn(va, vb)))
        return PartitionMap.from_pairs(out)

    def add(self, other: "PartitionMap") -> "PartitionMap":
        return self.combine(other, lambda a, b: INF if INF in (a, b) else a + b)

    def map_values(self, fn: Callable) -> "PartitionMap":
        return PartitionMap.from_pairs([(ps, fn(v)) for ps, v in self.pieces])

    def where(self, pred: Callable) -> PrimeSet:
        """The set of primes whose value satisfies `pred`."""
        out = PrimeSet.empty()
        for ps, v in self.pieces:
            if pred(v):
                out = out.union(ps)
        return out

    def to_json(self) -> list:
        return [
            {"primes": ps.to_json(), "value": "inf" if v == INF else v}
            for ps, v in self.pieces
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(f"{ps.describe()} -> {v}" for ps, v in self.pieces)
        return f"PartitionMap<{body}>"
