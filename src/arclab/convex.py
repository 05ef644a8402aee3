"""Convex subgroups of a lexicographic word, and what they classify.

Every convex subgroup is a suffix of the word; a :class:`ConvexCut` names
one by the index where the suffix starts, plus an inner offset when the cut
falls inside a schematic tower (0 for a whole-component cut).  Cuts order
as (seg, inner) pairs, shallow (large subgroup) to deep (small subgroup);
Top is the whole group, Bottom is trivial.

For a prime p and a cut c, the suffix exponent E_c(p) is log_p of the size
of the quotient of the subgroup at c by p times itself, computed as a sum
of per-unit contributions in closed form (a PartitionMap over primes, INF
for infinite quotients).  g_pn picks the shallowest cut whose suffix
exponent drops to n.  The label map inverts g_pn; the certificate search
witnesses the unlabeled cuts with regular straddling pairs, searched
independently of the label formula so the two routes cross-check.  A
certificate is the classification report's row itself: a JSON-ready dict
of prime pieces, each with its pair rule and verified instances.

A word's chain table (_chain_table, one bounded cache entry per word) holds
E_c for every cut of chain_cuts, built by one deep-to-shallow scan in which
each cut adds its own segment to the map of the next deeper cut, and the
component exponent maps.  suffix_exponent_map, np_map, g_pn and the
certificate cells read it; a cut the chain does not materialise is summed
up from Bottom as before.  A word keeps its own hash, so each of those
reads is one dict probe, not a walk over the word's components.  The
certificate search still re-verifies its instances through is_p_regular,
which splits the segment into its units afresh and reads each at the probe
prime, so the two routes still check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import InternalError, ShapeError
from .groups import LexWord, OmegaTower
from .primes import INF, PartitionMap, PrimeSet, common_pieces


@dataclass(frozen=True, order=True)
class ConvexCut:
    """seg: suffix start index (0 = whole group, len = trivial subgroup).

    inner: for a cut inside the tower component at index seg, the number of
    leading summands excluded (>= 1); 0 for plain inter-component cuts.
    Cuts compare as (seg, inner) pairs: a < b when a is shallower than b.
    """

    seg: int
    inner: int = 0

    def cut_id(self) -> str:
        if self.inner:
            return f"seg{self.seg}+{self.inner}"
        return f"seg{self.seg}"


def top_cut(G: LexWord) -> ConvexCut:
    return ConvexCut(0)


def bottom_cut(G: LexWord) -> ConvexCut:
    return ConvexCut(len(G.components))


def cut_name(G: LexWord, c: ConvexCut) -> str:
    if c == top_cut(G):
        return "top"
    if c == bottom_cut(G):
        return "bottom"
    return c.cut_id()


def parse_cut(G: LexWord, name: str) -> ConvexCut:
    """The cut named `name`, taken only in cut_name's own spelling."""
    if name == "top":
        return top_cut(G)
    if name == "bottom":
        return bottom_cut(G)
    seg_s, plus, inner_s = name.removeprefix("seg").partition("+")
    try:
        cut = ConvexCut(int(seg_s), int(inner_s) if plus else 0)
    except ValueError as exc:  # no numeral, or one past int()'s digit limit
        raise ShapeError(f"unknown cut name {name!r}") from exc
    validate_cut(G, cut)
    if cut_name(G, cut) != name:
        raise ShapeError(f"unknown cut name {name!r}")
    return cut


def validate_cut(G: LexWord, c: ConvexCut) -> None:
    if not (0 <= c.seg <= len(G.components)):
        raise ShapeError(f"cut index {c.seg} out of range for {G.describe()}")
    if c.inner < 0:
        raise ShapeError("inner cut offsets are natural numbers")
    if c.inner and (c.seg >= len(G.components) or not isinstance(G.components[c.seg], OmegaTower)):
        raise ShapeError(f"cut {c.cut_id()} needs a tower at index {c.seg}")


# how many inner cuts of a schematic tower a finite chain materializes
INNER_LIMIT = 4


def chain_cuts(G: LexWord) -> list[ConvexCut]:
    """A finite materialization: tower chains cut off after INNER_LIMIT."""
    out = []
    for seg, comp in enumerate(G.components):
        out.append(ConvexCut(seg))
        if isinstance(comp, OmegaTower):
            out.extend(ConvexCut(seg, m) for m in range(1, INNER_LIMIT + 1))
    out.append(bottom_cut(G))
    return out


def has_tower(G: LexWord) -> bool:
    return any(isinstance(c, OmegaTower) for c in G.components)


def is_limit_cut(G: LexWord, c: ConvexCut) -> bool:
    """True when c is approached from above by the inner cuts of a tower."""
    return not c.inner and c.seg >= 1 and isinstance(G.components[c.seg - 1], OmegaTower)


def pred_cut(c: ConvexCut) -> ConvexCut:
    """The immediately shallower cut; c is neither Top nor a limit cut."""
    return ConvexCut(c.seg, c.inner - 1) if c.inner else ConvexCut(c.seg - 1)


# ---------------------------------------------------------------------------
# segment exponents


def _tower_slice_map(tower: OmegaTower, lo: int, hi: int | None) -> PartitionMap:
    """Exponent map of the tower offsets in (lo, hi]; hi None means the tail."""
    if hi is None:
        return tower.tail_exponent_map(lo + 1)
    offsets = range(lo + 1, hi + 1)
    # a list, not a generator, as in primes._canonical
    return PartitionMap(0, tuple([(tower.summand_prime(off), 1) for off in offsets]))


def _segment_parts(G: LexWord, low: ConvexCut, high: ConvexCut):
    """Yields (component index, start_offset, end_offset) covering the
    segment (high, low]; offsets are tower offsets, end None meaning the
    whole remaining tail, and non-tower components use (i, 0, None)."""
    for i in range(high.seg, min(low.seg + 1, len(G.components))):
        comp = G.components[i]
        if i == low.seg and not low.inner:
            break  # everything from here down lies inside the low subgroup
        start_off = high.inner if i == high.seg else 0
        if isinstance(comp, OmegaTower) and i == low.seg:
            yield i, start_off, low.inner
        else:
            yield i, start_off, None


def segment_exponent_map(G: LexWord, low: ConvexCut, high: ConvexCut) -> PartitionMap:
    """Exponent of (subgroup at high) / (subgroup at low), per prime.

    Requires high shallower than or equal to low; equal cuts give zero.
    """
    validate_cut(G, low)
    validate_cut(G, high)
    acc = PartitionMap(0)
    for i, start_off, end_off in _segment_parts(G, low, high):
        comp = G.components[i]
        if isinstance(comp, OmegaTower):
            acc = acc.add(_tower_slice_map(comp, start_off, end_off))
        else:
            acc = acc.add(comp.exponent_map())
    return acc


class _ChainTable(NamedTuple):
    """What a word's classification reads again and again, computed once.

    suffix holds E_c for every cut c of chain_cuts(G); plain[k] is E at
    ConvexCut(k) for k = 0..len(G.components), so plain[0] is n_p and
    plain[-1] is zero; components holds the component exponent maps in
    component order.
    """

    suffix: dict[ConvexCut, PartitionMap]
    plain: tuple[PartitionMap, ...]
    components: tuple[PartitionMap, ...]


@lru_cache(maxsize=16)
def _chain_table(G: LexWord) -> _ChainTable:
    """One deep-to-shallow scan of the chain: each cut adds its own segment
    to the suffix map of the next deeper cut."""
    chain = chain_cuts(G)
    acc = PartitionMap(0)
    suffix = {chain[-1]: acc}
    for i in range(len(chain) - 2, -1, -1):
        acc = acc.add(segment_exponent_map(G, chain[i + 1], chain[i]))
        suffix[chain[i]] = acc
    plain = tuple([suffix[ConvexCut(k)] for k in range(len(G.components) + 1)])
    return _ChainTable(suffix, plain, tuple([comp.exponent_map() for comp in G.components]))


def suffix_exponent_map(G: LexWord, c: ConvexCut) -> PartitionMap:
    """E_c, read from the chain table; a cut the chain does not materialise
    (a tower's inner cut past INNER_LIMIT) is summed up from Bottom."""
    e = _chain_table(G).suffix.get(c)
    return segment_exponent_map(G, bottom_cut(G), c) if e is None else e


def np_map(G: LexWord) -> PartitionMap:
    """Exponent of the whole group: n_p = log_p |G / pG| (INF allowed)."""
    return _chain_table(G).plain[0]


def suffix_divisible_primes(G: LexWord, c: ConvexCut) -> PrimeSet:
    """Primes p with the subgroup at c p-divisible (exponent zero)."""
    return suffix_exponent_map(G, c).where(lambda v: v == 0)


def is_dp_minimal(G: LexWord) -> bool:
    """Finite quotients by every prime, decided on the closed-form map."""
    return np_map(G).where(lambda v: v is INF).is_empty()


# ---------------------------------------------------------------------------
# extremal cuts


def max_divisible(G: LexWord) -> ConvexCut:
    """The largest divisible convex subgroup: the shallowest whole-component
    cut whose suffix exponent is zero at every prime.  Its cut names v0, the
    coarsest coarsening with a real closed residue field."""
    zero = PartitionMap(0)
    return ConvexCut(next(k for k, e in enumerate(_chain_table(G).plain) if e == zero))


def g_pn(G: LexWord, p: int, n: int) -> ConvexCut:
    """The shallowest cut whose suffix exponent at p is at most n: the cut
    of v_(p,n), level n of the definable family at p.

    Scans whole components first; when the blocking component is a tower
    containing p as a summand, refines to the inner cut that drops exactly
    through that summand.
    """
    if n < 0:
        raise ValueError("exponent bound must be a natural number")
    plain = _chain_table(G).plain
    k0 = len(G.components)
    for k in range(k0 - 1, -1, -1):
        if plain[k].value_at(p) > n:  # suffix values only grow toward Top
            break
        k0 = k
    if k0 > 0:
        comp = G.components[k0 - 1]
        if isinstance(comp, OmegaTower):
            off = comp.offset_of_prime(p)
            if off is not None:
                return ConvexCut(k0 - 1, off)
    return ConvexCut(k0)


def max_p_divisible(G: LexWord, p: int) -> ConvexCut:
    """The largest p-divisible convex subgroup (shallowest cut with E = 0):
    the cut of v_p, level 0 of the definable family at p."""
    return g_pn(G, p, 0)


def thm_condition_prime(G: LexWord) -> PrimeSet:
    """Primes whose largest p-divisible convex subgroup equals the largest
    divisible one."""
    c0 = max_divisible(G)
    if c0 == top_cut(G):
        return PrimeSet.all_primes()
    if is_limit_cut(G, c0):
        # the inner cuts above c0 absorb every prime of the tower eventually
        return PrimeSet.empty()
    pred = G.components[c0.seg - 1]
    return pred.exponent_map().where(lambda v: v != 0)


# ---------------------------------------------------------------------------
# the label map (which cuts are hit by g_pn, and for which (p, n))


@dataclass(frozen=True)
class LabelEntry:
    """The pairs (p, n) for p in primes and n in [n_min, n_max].

    n_max None means unbounded above: every n >= n_min labels the cut,
    which happens exactly under an infinite quotient immediately above.
    """

    primes: PrimeSet
    n_min: int
    n_max: int | None

    def levels(self) -> list[int] | None:
        """The levels n as a list; None marks an unbounded family."""
        return None if self.n_max is None else list(range(self.n_min, self.n_max + 1))

    def to_json(self) -> dict:
        return {
            "primes": self.primes.to_json(),
            "n_min": self.n_min,
            "n_max": "unbounded" if self.n_max is None else self.n_max,
        }


def cut_labels(G: LexWord, c: ConvexCut) -> tuple[LabelEntry, ...]:
    """All (p, n) with g_pn(G, p, n) == c, grouped into prime-set entries.

    c is labeled at (p, n) exactly when its suffix exponent e_c(p) is at
    most n while every shallower cut exceeds n; against the immediate
    predecessor that reads e_c(p) <= n < e_pred(p).  Limit cuts have no
    immediate predecessor and are approached by cuts of equal exponent,
    so they carry no labels at all.
    """
    validate_cut(G, c)
    if is_limit_cut(G, c):
        return ()
    e_c = suffix_exponent_map(G, c)
    if c == top_cut(G):
        # nothing is shallower; the whole-group exponent is the sole bound
        e_pred = np_map(G).map_values(lambda v: INF if v is INF else v + 1)
    else:
        e_pred = suffix_exponent_map(G, pred_cut(c))
    entries = []
    for primes, (ec, ep) in common_pieces(e_c, e_pred):
        if ec is INF or ep <= ec:
            continue
        entries.append(LabelEntry(primes, ec, None if ep is INF else ep - 1))
    return tuple(entries)


# ---------------------------------------------------------------------------
# regular pairs and non-definability certificates


def _segment_units(G: LexWord, low: ConvexCut, high: ConvexCut) -> tuple[list, bool]:
    """The exponent maps of the atomic units of the segment (high, low],
    shallow to deep; an infinite tower tail enters as a single unit.  The
    boolean reports whether a deepest unit exists (it does not when the
    segment ends in a tower tail).
    """
    if high >= low:
        raise ShapeError("segment must be nonempty with high shallower than low")
    units: list[PartitionMap] = []
    tail = False
    for i, start_off, end_off in _segment_parts(G, low, high):
        comp = G.components[i]
        tail = isinstance(comp, OmegaTower) and end_off is None
        if tail:
            units.append(comp.tail_exponent_map(start_off + 1))
        elif isinstance(comp, OmegaTower):
            units += [_tower_slice_map(comp, off - 1, off) for off in range(start_off + 1, end_off + 1)]
        else:
            units.append(comp.exponent_map())
    return units, not tail


def is_p_regular(G: LexWord, low: ConvexCut, high: ConvexCut, p: int) -> bool:
    """Whether the segment (high, low] is p-regular: every convex cut m
    strictly between the endpoints keeps the upper part (m, high]
    p-divisible.

    Intermediate cuts sit immediately below every unit except the deepest,
    so regularity at p says every non-deepest unit is p-divisible; a
    single-unit segment is regular at all primes.  When the deep end is a
    tower tail there is no deepest unit and nothing is exempt.
    """
    units, has_deepest = _segment_units(G, low, high)
    if has_deepest:
        units = units[:-1]
    return all(u.value_at(p) == 0 for u in units)


def _certificate_cells(G: LexWord, e_map: PartitionMap) -> list[PrimeSet]:
    """Prime sets on which every quantity the pair search consults is
    constant: the common refinement of all component exponent maps and of
    the target cut's own suffix map (which can split a tower's family),
    ordered by E_c first and then component by component."""
    return [piece for piece, _ in common_pieces(e_map, *_chain_table(G).components)]


def _probe_primes(piece: PrimeSet, display_primes: tuple[int, ...]) -> list[int]:
    return sorted(set(piece.members_among(display_primes)) | set(piece.smallest(2)))


def _pair_for(G: LexWord, p: int, e: int) -> tuple[ConvexCut, ConvexCut, str]:
    if e == 0:
        return bottom_cut(G), g_pn(G, p, 0), "bottom_to_g_p"
    return g_pn(G, p, e - 1), g_pn(G, p, e), "g_pn_pair"


def _blocked_primes(G: LexWord, c: ConvexCut, piece: PrimeSet, high: ConvexCut) -> PrimeSet:
    """The primes of the piece whose candidate pair has its high side ON the
    target cut (no strictly shallower landing exists for them); high is
    the high side at the piece's smallest prime.

    The high side g_pn(p, e) is never strictly deeper than c because c
    itself has suffix exponent e; so blocking means equality.  Within a
    cell the high side is either one fixed cut, or an inner cut of one
    tower whose offset tracks the prime, hitting c for at most the single
    prime whose summand sits at c's own offset.
    """
    if high > c:
        raise InternalError("pair landed below the target cut; exponent bookkeeping is off")
    if not high.inner:
        return piece if high == c else PrimeSet.empty()
    if c.inner and high.seg == c.seg:
        hit = G.components[c.seg].summand_prime(c.inner)
        if hit in piece:
            return PrimeSet.single(hit)
    return PrimeSet.empty()


def _side_name(G: LexWord, cut: ConvexCut) -> str:
    """A piece's low or high side; a tower-inner side tracks the prime."""
    return "per-prime" if cut.inner else cut_name(G, cut)


def non_definability_certificate(
    G: LexWord, c: ConvexCut, display_primes: tuple[int, ...] = (2, 3, 5, 7)
) -> dict | None:
    """Straddling regular pairs witnessing that c is not in the g_pn image:
    the report's certificate row, or None when the search fails.

    For each prime p with finite suffix exponent e = E_c(p) the candidate
    pair is (g_pn(p, e-1), g_pn(p, e)), with Bottom on the low side when
    e = 0.  The search succeeds at p exactly when the high side lands
    strictly above c; a prime with infinite suffix exponent, or whose pair
    is blocked, admits no pair at all and the result is None.  Instances
    at the display primes are re-verified against is_p_regular, so this
    route is independent of the label formula.

    The row is {"cut": name, "pieces": [...]}, one piece per certificate
    cell: its primes, rule ("bottom_to_g_p" or "g_pn_pair"), exponent, low
    and high sides at its smallest prime ("per-prime" for a tower-inner
    side), the verified instances {"p", "low", "high"} and, at Bottom only,
    a note.  Cuts are named only once every piece has a
    pair: infinite exponents sort last, so an undecided cut fails at its
    last piece, and naming earlier pieces would be wasted on it.
    """
    validate_cut(G, c)
    e_map = suffix_exponent_map(G, c)
    at_bottom = c == bottom_cut(G)
    found = []
    for piece in _certificate_cells(G, e_map):
        probes = _probe_primes(piece, display_primes)  # the piece's smallest prime first
        e = e_map.value_at(probes[0])
        if e is INF:
            return None
        low0, high0, rule = _pair_for(G, probes[0], e)
        if not _blocked_primes(G, c, piece, high0).is_empty():
            return None
        pairs = [(low0, high0)] + [_pair_for(G, p, e)[:2] for p in probes[1:]]
        for p, (lo, hi) in zip(probes, pairs):
            straddle_ok = hi < c and (lo > c or (at_bottom and lo == c))
            if not (straddle_ok and is_p_regular(G, lo, hi, p)):
                raise InternalError(
                    f"certificate verification failed at p={p} for cut {cut_name(G, c)}"
                )
        found.append((piece, rule, e, probes, pairs))
    note = {"note": "low side equals the target cut itself (trivial subgroup)"} if at_bottom else {}
    pieces = [
        {
            "primes": piece.to_json(),
            "rule": rule,
            "exponent": e,
            "low": _side_name(G, pairs[0][0]),
            "high": _side_name(G, pairs[0][1]),
            "instances": [
                {"p": p, "low": cut_name(G, lo), "high": cut_name(G, hi)}
                for p, (lo, hi) in zip(probes, pairs)
            ],
        }
        | note
        for piece, rule, e, probes, pairs in found
    ]
    return {"cut": cut_name(G, c), "pieces": pieces}
