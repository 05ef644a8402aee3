"""Convex subgroups of a lexicographic word, and what they classify.

Every convex subgroup is a suffix of the word; a :class:`ConvexCut` names
one by the index where the suffix starts, plus an inner offset when the cut
falls inside a schematic tower.  Cuts are ordered shallow (large subgroup)
to deep (small subgroup); Top is the whole group, Bottom is trivial.

For a prime p and a cut c, the suffix exponent E_c(p) is log_p of the size
of the quotient of the subgroup at c by p times itself, computed as a sum
of per-unit contributions in closed form (a PartitionMap over primes, INF
for infinite quotients).  g_pn picks the shallowest cut whose suffix
exponent drops to n.  The label map inverts g_pn; the certificate
machinery witnesses the unlabeled cuts with regular straddling pairs,
searched independently of the label formula so the two routes cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, ShapeError
from .groups import LexWord, OmegaTower
from .primes import INF, PartitionMap, PrimeSet


@dataclass(frozen=True)
class ConvexCut:
    """seg: suffix start index (0 = whole group, len = trivial subgroup).

    inner: for a cut inside the tower component at index seg, the number of
    leading summands excluded (>= 1); None for plain inter-component cuts.
    """

    seg: int
    inner: int | None = None

    def key(self) -> tuple[int, int]:
        return (self.seg, self.inner or 0)

    def cut_id(self) -> str:
        if self.inner is not None:
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
    if name == "top":
        return top_cut(G)
    if name == "bottom":
        return bottom_cut(G)
    body = name.removeprefix("seg")
    try:
        if "+" in body:
            seg_s, _, inner_s = body.partition("+")
            cut = ConvexCut(int(seg_s), int(inner_s))
        else:
            cut = ConvexCut(int(body))
    except ValueError as exc:
        raise ShapeError(f"unknown cut name {name!r}") from exc
    validate_cut(G, cut)
    return cut


def validate_cut(G: LexWord, c: ConvexCut) -> None:
    if not (0 <= c.seg <= len(G.components)):
        raise ShapeError(f"cut index {c.seg} out of range for {G.describe()}")
    if c.inner is not None:
        if c.inner < 1:
            raise ShapeError("inner cut offsets are 1-based")
        if c.seg >= len(G.components) or not isinstance(G.components[c.seg], OmegaTower):
            raise ShapeError(f"cut {c.cut_id()} needs a tower at index {c.seg}")


def cuts_cmp(a: ConvexCut, b: ConvexCut) -> int:
    """-1 when a is shallower (larger subgroup) than b."""
    ka, kb = a.key(), b.key()
    return (ka > kb) - (ka < kb)


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
    validate_cut(G, c)
    return c.inner is None and c.seg >= 1 and isinstance(G.components[c.seg - 1], OmegaTower)


def pred_cut(G: LexWord, c: ConvexCut) -> ConvexCut | None:
    """The immediately shallower cut, or None (at Top or at a tower limit)."""
    validate_cut(G, c)
    if c.inner is not None:
        return ConvexCut(c.seg, c.inner - 1) if c.inner >= 2 else ConvexCut(c.seg)
    if c.seg == 0 or is_limit_cut(G, c):
        return None
    return ConvexCut(c.seg - 1)


# ---------------------------------------------------------------------------
# segment exponents

_ZERO_MAP = PartitionMap.constant(0)


def _summand_map(tower: OmegaTower, offset: int) -> PartitionMap:
    p = tower.summand_prime(offset)
    return PartitionMap.from_pairs(
        [(PrimeSet.single(p), 1), (PrimeSet.single(p).complement(), 0)]
    )


def _tower_slice_map(tower: OmegaTower, lo: int, hi: int | None) -> PartitionMap:
    """Exponent map of the tower offsets in (lo, hi]; hi None means the tail."""
    if hi is None:
        return tower.tail_exponent_map(lo + 1)
    acc = _ZERO_MAP
    for off in range(lo + 1, hi + 1):
        acc = acc.add(_summand_map(tower, off))
    return acc


def _segment_parts(G: LexWord, low: ConvexCut, high: ConvexCut):
    """Yields (component index, start_offset, end_offset) covering the
    segment (high, low]; offsets are tower offsets, end None meaning the
    whole remaining tail, and non-tower components use (i, 0, None)."""
    hi_seg, hi_inner = high.seg, high.inner or 0
    for i in range(hi_seg, min(low.seg + 1, len(G.components))):
        comp = G.components[i]
        if i == low.seg and low.inner is None:
            break  # everything from here down lies inside the low subgroup
        start_off = hi_inner if i == hi_seg else 0
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
    if cuts_cmp(high, low) > 0:
        raise ShapeError("segment endpoints out of order")
    acc = _ZERO_MAP
    for i, start_off, end_off in _segment_parts(G, low, high):
        comp = G.components[i]
        if isinstance(comp, OmegaTower):
            acc = acc.add(_tower_slice_map(comp, start_off, end_off))
        else:
            acc = acc.add(comp.exponent_map())
    return acc


def suffix_exponent_map(G: LexWord, c: ConvexCut) -> PartitionMap:
    return segment_exponent_map(G, bottom_cut(G), c)


def np_map(G: LexWord) -> PartitionMap:
    """Exponent of the whole group: n_p = log_p |G / pG| (INF allowed)."""
    return segment_exponent_map(G, bottom_cut(G), top_cut(G))


def quotient_exponent(G: LexWord, low: ConvexCut, high: ConvexCut, p: int):
    return segment_exponent_map(G, low, high).value_at(p)


def suffix_divisible_primes(G: LexWord, c: ConvexCut) -> PrimeSet:
    """Primes p with the subgroup at c p-divisible (exponent zero)."""
    return suffix_exponent_map(G, c).where(lambda v: v == 0)


def is_dp_minimal(G: LexWord) -> bool:
    """Finite quotients by every prime, decided on the closed-form map."""
    return np_map(G).where(lambda v: v is INF).is_empty()


# ---------------------------------------------------------------------------
# extremal cuts


def max_divisible(G: LexWord) -> ConvexCut:
    """The largest divisible convex subgroup."""
    k0 = len(G.components)
    for k in range(len(G.components) - 1, -1, -1):
        if G.components[k].divisible_primes().is_all():
            k0 = k
        else:
            break
    return ConvexCut(k0)


def g_pn(G: LexWord, p: int, n: int) -> ConvexCut:
    """The shallowest cut whose suffix exponent at p is at most n.

    Scans whole components first; when the blocking component is a tower
    containing p as a summand, refines to the inner cut that drops exactly
    through that summand.
    """
    if n < 0:
        raise ValueError("exponent bound must be a natural number")
    suffix = 0
    k0 = len(G.components)
    for k in range(len(G.components) - 1, -1, -1):
        step = G.components[k].exponent_map().value_at(p)
        if step is INF or suffix + step > n:
            break
        suffix += step
        k0 = k
    if k0 > 0:
        comp = G.components[k0 - 1]
        if isinstance(comp, OmegaTower):
            off = comp.offset_of_prime(p)
            if off is not None:
                return ConvexCut(k0 - 1, off)
    return ConvexCut(k0)


def max_p_divisible(G: LexWord, p: int) -> ConvexCut:
    """The largest p-divisible convex subgroup (shallowest cut with E = 0)."""
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
    return pred.divisible_primes().complement()


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
        e_pred = suffix_exponent_map(G, pred_cut(G, c))
    entries = []
    for primes, (ec, ep) in e_c.combine(e_pred, lambda a, b: (a, b)).pieces:
        if ec is INF or ep <= ec:
            continue
        entries.append(LabelEntry(primes, ec, None if ep is INF else ep - 1))
    return tuple(entries)


def labels_at(G: LexWord, c: ConvexCut, p: int) -> list[int] | None:
    """Concrete label list for one prime; None marks an unbounded family."""
    for entry in cut_labels(G, c):
        if p in entry.primes:
            if entry.n_max is None:
                return None
            return list(range(entry.n_min, entry.n_max + 1))
    return []


# ---------------------------------------------------------------------------
# regular pairs and non-definability certificates


def _segment_units(G: LexWord, low: ConvexCut, high: ConvexCut) -> tuple[list, bool]:
    """Atomic pieces of the segment (high, low], shallow to deep.

    Each piece is (PartitionMap, kind); an infinite tower tail enters as a
    single piece.  The boolean reports whether a deepest unit exists (it
    does not when the segment ends in a tower tail).
    """
    if cuts_cmp(high, low) >= 0:
        raise ShapeError("segment must be nonempty with high shallower than low")
    pieces: list[tuple[PartitionMap, str]] = []
    for i, start_off, end_off in _segment_parts(G, low, high):
        comp = G.components[i]
        if isinstance(comp, OmegaTower):
            if end_off is None:
                pieces.append((comp.tail_exponent_map(start_off + 1), "tower-tail"))
            else:
                for off in range(start_off + 1, end_off + 1):
                    pieces.append((_summand_map(comp, off), "tower-summand"))
        else:
            pieces.append((comp.exponent_map(), "component"))
    if not pieces:
        raise ShapeError("empty segment")
    has_deepest = pieces[-1][1] != "tower-tail"
    return pieces, has_deepest


def regular_primes(G: LexWord, low: ConvexCut, high: ConvexCut) -> PrimeSet:
    """Primes p for which the segment (high, low] is p-regular: every
    convex cut m strictly between the endpoints keeps the upper part
    (m, high] p-divisible.

    Intermediate cuts sit immediately below every unit except the deepest,
    so regularity at p says every non-deepest unit is p-divisible; a
    single-unit segment is regular at all primes.  When the deep end is a
    tower tail there is no deepest unit and nothing is exempt.
    """
    pieces, has_deepest = _segment_units(G, low, high)
    if has_deepest:
        pieces = pieces[:-1]
    bad = PrimeSet.empty()
    for pmap, _kind in pieces:
        bad = bad.union(pmap.where(lambda v: v != 0))
    return bad.complement()


def is_p_regular(G: LexWord, low: ConvexCut, high: ConvexCut, p: int) -> bool:
    return p in regular_primes(G, low, high)


@dataclass(frozen=True)
class PairInstance:
    p: int
    low: ConvexCut
    high: ConvexCut

    def to_json(self, G: LexWord) -> dict:
        return {"p": self.p, "low": cut_name(G, self.low), "high": cut_name(G, self.high)}


@dataclass(frozen=True)
class CertEntry:
    """A rule producing, for each prime of the piece, a p-regular pair that
    strictly straddles the target cut; instances are spot-verified.

    low/high are concrete cuts when constant across the piece and None when
    they track the prime (tower-inner cuts).
    """

    primes: PrimeSet
    rule: str  # "bottom_to_g_p" | "g_pn_pair"
    exponent: int
    low: ConvexCut | None
    high: ConvexCut | None
    instances: tuple[PairInstance, ...]
    note: str | None = None

    def to_json(self, G: LexWord) -> dict:
        out = {
            "primes": self.primes.to_json(),
            "rule": self.rule,
            "exponent": self.exponent,
            "low": cut_name(G, self.low) if self.low is not None else "per-prime",
            "high": cut_name(G, self.high) if self.high is not None else "per-prime",
            "instances": [inst.to_json(G) for inst in self.instances],
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Certificate:
    cut: ConvexCut
    entries: tuple[CertEntry, ...]

    def to_json(self, G: LexWord) -> dict:
        return {
            "cut": cut_name(G, self.cut),
            "pieces": [e.to_json(G) for e in self.entries],
        }


def _certificate_cells(G: LexWord, e_map: PartitionMap) -> list[PrimeSet]:
    """Prime sets on which every quantity the pair search consults is
    constant: the common refinement of all component exponent maps and of
    the target cut's own suffix map (which can split a tower's family)."""
    acc = e_map
    for comp in G.components:
        acc = acc.combine(comp.exponent_map(), lambda a, b: (a, b))
    return [piece for piece, _ in acc.pieces]


def _probe_primes(piece: PrimeSet, display_primes: tuple[int, ...]) -> list[int]:
    return sorted(set(piece.members_among(display_primes)) | set(piece.smallest(2)))


def _pair_for(G: LexWord, p: int, e: int) -> tuple[ConvexCut, ConvexCut, str]:
    if e == 0:
        return bottom_cut(G), g_pn(G, p, 0), "bottom_to_g_p"
    return g_pn(G, p, e - 1), g_pn(G, p, e), "g_pn_pair"


def _blocked_primes(G: LexWord, c: ConvexCut, piece: PrimeSet, e: int) -> PrimeSet:
    """The primes of the piece whose candidate pair has its high side ON the
    target cut (no strictly shallower landing exists for them).

    The high side g_pn(p, e) is never strictly deeper than c because c
    itself has suffix exponent e; so blocking means equality.  Within a
    cell the high side is either one fixed cut, or an inner cut of one
    tower whose offset tracks the prime, hitting c for at most the single
    prime whose summand sits at c's own offset.
    """
    probe = piece.smallest(1)[0]
    _, high, _ = _pair_for(G, probe, e)
    if cuts_cmp(high, c) > 0:
        raise InternalError("pair landed below the target cut; exponent bookkeeping is off")
    if high.inner is None:
        return piece if high == c else PrimeSet.empty()
    if c.inner is not None and high.seg == c.seg:
        hit = G.components[c.seg].summand_prime(c.inner)
        if hit in piece:
            return PrimeSet.single(hit)
    return PrimeSet.empty()


def non_definability_certificate(
    G: LexWord, c: ConvexCut, display_primes: tuple[int, ...] = (2, 3, 5, 7)
) -> Certificate | None:
    """Straddling regular pairs witnessing that c is not in the g_pn image.

    For each prime p with finite suffix exponent e = E_c(p) the candidate
    pair is (g_pn(p, e-1), g_pn(p, e)), with Bottom on the low side when
    e = 0.  The search succeeds at p exactly when the high side lands
    strictly above c; a prime with infinite suffix exponent, or whose pair
    is blocked, admits no pair at all and the result is None.  Instances
    at the display primes are re-verified against is_p_regular, so this
    route is independent of the label formula.
    """
    validate_cut(G, c)
    e_map = suffix_exponent_map(G, c)
    at_bottom = c == bottom_cut(G)
    entries = []
    for piece in _certificate_cells(G, e_map):
        e = e_map.value_at(piece.smallest(1)[0])
        if e is INF:
            return None
        if not _blocked_primes(G, c, piece, e).is_empty():
            return None
        probes = _probe_primes(piece, display_primes)
        low0, high0, rule = _pair_for(G, probes[0], e)
        instances = []
        for p in probes:
            lo, hi, _ = _pair_for(G, p, e)
            straddle_ok = cuts_cmp(hi, c) < 0 and (
                cuts_cmp(lo, c) > 0 or (at_bottom and lo == c)
            )
            if not (straddle_ok and is_p_regular(G, lo, hi, p)):
                raise InternalError(
                    f"certificate verification failed at p={p} for cut {cut_name(G, c)}"
                )
            instances.append(PairInstance(p, lo, hi))
        note = None
        if at_bottom:
            note = "low side equals the target cut itself (trivial subgroup)"
        entries.append(
            CertEntry(
                primes=piece,
                rule=rule,
                exponent=e,
                low=low0 if low0.inner is None else None,
                high=high0 if high0.inner is None else None,
                instances=tuple(instances),
                note=note,
            )
        )
    return Certificate(c, tuple(entries))
