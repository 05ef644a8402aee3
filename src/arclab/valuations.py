"""Valuation-ring analysis over lexicographic exponent groups.

Every convex cut of the exponent group names a coarsening of the exponent
valuation on the power-series field: an element sits in the coarsened ring
exactly when its leading exponent, read above the cut, is zero or positive.
So a valuation is named by its cut alone, and `ring_member` reads the group
off the series it tests. This module enumerates the definable family (the
labeled image of the (p, n) cut map), checks the three-way equivalence
behind the "definable with real closed residue field" test, and runs the
differential suites that pin the formula layer against plain ring
membership.

The differential runs are deliberately two-track: membership comes from
`ring_member` (a lexicographic sign test on the exponent), truth comes from
decision plans of the built formulas (`formulas.decision_plan`: pattern
decisions through the root oracle and the quotient-exponent tables). The
two never share a code path past the cut construction itself, so a bug in
either side shows up as a mismatch instead of cancelling out.

`differential_sweep` runs many (p, n) cells of one group in one pass over
the points: each formula is planned once, and the checks that depend only
on the prime run once per point and prime, however many levels of that
prime are asked for. `differential_verify` is its one-cell case, and a
classification report makes one sweep per group.
"""

from __future__ import annotations

from fractions import Fraction

from .convex import (
    INNER_LIMIT,
    ConvexCut,
    LabelEntry,
    chain_cuts,
    cut_labels,
    cut_name,
    g_pn,
    has_tower,
    is_dp_minimal,
    max_divisible,
    max_p_divisible,
    non_definability_certificate,
    np_map,
    suffix_divisible_primes,
    thm_condition_prime,
    top_cut,
    validate_cut,
)
from .errors import ShapeError
from .formulas import (
    Forall,
    build_phi_p,
    build_phi_pn,
    choose_params,
    decision_plan,
    eval_sampled,
    match_phi_p,
)
from .groups import LexWord, _require_effective, elem_cmp, print_group, zero_element
from .hahn import (
    HahnSeries,
    const_series,
    monomial,
    print_series,
    sample_series,
    series_neg,
    v_of,
    zero_series,
)
from .primes import INF


# ---------------------------------------------------------------------------
# membership


def ring_member(c: ConvexCut, a: HahnSeries) -> bool:
    """Is `a` in the valuation ring of the coarsening at the cut c of its
    group?

    c = Bottom is the exponent valuation itself; c = Top is the trivial
    valuation (ring = everything). Zero belongs to every ring. Otherwise
    membership reads the leading exponent above the cut: coordinates of
    the quotient prefix all zero (the exponent fell into the convex
    subgroup) or lexicographically positive.
    """
    validate_cut(a.group, c)
    if a.is_zero():
        return True
    G = a.group
    k = G.layout.offsets[c.seg]
    zero = zero_element(G)
    masked = v_of(a)[:k] + zero[k:]
    return elem_cmp(G, masked, zero) >= 0


def is_residue_real_closed(G: LexWord, c: ConvexCut) -> bool:
    """The residue field of the coarsening at c is real closed exactly when
    the convex subgroup below c is divisible (all primes)."""
    return suffix_divisible_primes(G, c).is_all()


# ---------------------------------------------------------------------------
# the definable family


def enumerate_definable(G: LexWord):
    """Labeled cuts of the materialized chain, deepest first.

    Returns a list of (cut, label_entries) pairs; label_entries are the
    closed-form (prime-set, level-range) families from cut_labels, so every
    prime is covered symbolically. Tower chains are cut off as in
    chain_cuts.
    """
    out = []
    for c in reversed(chain_cuts(G)):
        entries = cut_labels(G, c)
        if entries:
            out.append((c, entries))
    return out


def verify_thm_defblRCF(G: LexWord) -> dict:
    """Three-way equivalence report for "some definable coarsening has a
    real closed residue field".

    cond1: an enumerated definable cut carries the residue flag.
    cond2: the prime condition (some p with p-divisible part not reaching
           the divisible part's closure requirement) is non-empty.
    cond3: the divisible-part cut itself is in the definable image.
    consistent: the three agree, as the equivalence demands.
    """
    return _thm26(G, definable_rows(G, ()))


def _thm26(G: LexWord, definable: list[dict]) -> dict:
    """The equivalence report, read off the definable image's report rows."""
    cond1 = any(row["residue_real_closed"] for row in definable)
    cond2 = not thm_condition_prime(G).is_empty()
    cond3 = cut_name(G, max_divisible(G)) in {row["cut"] for row in definable}
    return {
        "cond1": cond1,
        "cond2": cond2,
        "cond3": cond3,
        "consistent": cond1 == cond2 == cond3,
    }


# ---------------------------------------------------------------------------
# differential verification: formulas against ring membership


def boundary_monomials(G: LexWord) -> list[HahnSeries]:
    """Deterministic membership-boundary probes.

    Membership in any coarsened ring flips exactly where the leading
    exponent crosses a cut, so the probe set walks every slot with small
    exponents of both signs (magnitudes 1, 2, 3 and 1/2 where the slot
    admits halves), both coefficient signs, plus constants and zero.
    """
    out: list[HahnSeries] = [
        zero_series(G),
        const_series(G, Fraction(1)),
        const_series(G, Fraction(-1)),
        const_series(G, Fraction(7)),
        const_series(G, Fraction(-7)),
    ]
    nslots = G.n_slots()
    for j in range(nslots):
        for mag in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)):
            for sgn in (1, -1):
                exps = [Fraction(0)] * nslots
                exps[j] = sgn * mag
                try:
                    s = monomial(G, tuple(exps), 1)
                except ShapeError:
                    continue  # slot does not admit this exponent
                out.append(s)
                out.append(series_neg(s))
    return out


def _stability_clause(phi_p) -> Forall:
    """The universal ("multiplication preserves the class") clause of a
    built ring formula; extraction is positional, guarded by the matcher."""
    if match_phi_p(phi_p) is None:
        raise ShapeError("not a built ring formula")
    clause = phi_p.left.right.right
    assert isinstance(clause, Forall)
    return clause


def differential_sweep(
    G: LexWord,
    cells,
    samples: int = 200,
    seed: int = 42,
    falsify_budget: int = 25,
) -> list[dict]:
    """Compare the formula layer against ring membership, one pass for many
    (p, n) cells.

    Every x (boundary probes plus `samples` random series, the same for
    every cell) is judged three ways per cell: the ring formula against the
    level-0 ring, the level-n formula against the level-n ring, and —
    wherever the stability clause decides True — a sampled falsification
    attempt on that clause with a witness grid of falsify_budget candidates.
    Any disagreement or successful falsification lands in the cell's
    `mismatches`, in that order per x.

    Points are the outer loop. The ring formula, the level-0 ring, the
    stability decision and its sampling depend on the prime only, so they
    run once per (prime, x) and their mismatches go to every cell of that
    prime; each formula is compiled once into a decision plan. Returns one
    dict per cell, in cell order, equal to what a one-cell sweep of that
    cell returns.

    The level-n coset clauses are not sampled: no grid can falsify their
    shape (see `formulas._sampled`). Their decisions are checked against a
    finite valuation oracle in the tests instead.
    """
    _require_effective(G)
    primes: dict[int, tuple] = {}
    levels = []
    for p, n in cells:
        if p not in primes:
            phi_p = build_phi_p(p)
            stability = _stability_clause(phi_p)
            primes[p] = (
                decision_plan(phi_p, G),
                max_p_divisible(G, p),
                stability,
                decision_plan(stability, G),
            )
        phi_pn = build_phi_pn(p, n, choose_params(G, p, n))
        levels.append((p, n, decision_plan(phi_pn, G), g_pn(G, p, n)))

    xs = boundary_monomials(G)
    xs += [sample_series(G, seed * 6007 + i) for i in range(samples)]

    found: list[list[dict]] = [[] for _ in levels]
    for i, x in enumerate(xs):
        env = {"x": x}
        by_prime = {}
        for p, (decide_p, vp, stability, decide_stable) in primes.items():
            d_p = decide_p(env)
            r_p = ring_member(vp, x)
            ring_mm = None
            if d_p != r_p:
                ring_mm = {"x": print_series(x), "kind": "phi_p", "decide": d_p, "ring": r_p}
            falsified = None
            if decide_stable(env):
                out = eval_sampled(stability, env, G, budget=falsify_budget, seed=seed + 31 * i)
                if out.status == "falsified_by":
                    falsified = {
                        "x": print_series(x),
                        "kind": "falsified",
                        "clause": "stability",
                        "witness": {k: print_series(v) for k, v in (out.witness or {}).items()},
                    }
            by_prime[p] = (ring_mm, falsified)
        for (p, _n, decide_pn, vpn), mismatches in zip(levels, found):
            ring_mm, falsified = by_prime[p]
            if ring_mm is not None:
                mismatches.append(dict(ring_mm))
            d_pn = decide_pn(env)
            r_pn = ring_member(vpn, x)
            if d_pn != r_pn:
                mismatches.append(
                    {"x": print_series(x), "kind": "phi_pn", "decide": d_pn, "ring": r_pn}
                )
            if falsified is not None:
                mismatches.append(dict(falsified))
    return [
        {"p": p, "n": n, "samples": samples, "checked": len(xs), "mismatches": mismatches}
        for (p, n, _, _), mismatches in zip(levels, found)
    ]


def differential_verify(
    G: LexWord,
    p: int,
    n: int,
    samples: int = 200,
    seed: int = 42,
    falsify_budget: int = 25,
) -> dict:
    """The differential sweep of the single cell (p, n)."""
    return differential_sweep(G, [(p, n)], samples, seed, falsify_budget)[0]


def differential_cross(
    G: LexWord, p_formula: int, p_ring: int, samples: int = 60, seed: int = 42
) -> list[dict]:
    """Harness sanity: judge the ring formula for one prime against the
    ring of another. On groups where the two rings differ this must find
    mismatches — if it cannot, the differential harness is blind."""
    _require_effective(G)
    decide = decision_plan(build_phi_p(p_formula), G)
    ring = max_p_divisible(G, p_ring)
    xs = boundary_monomials(G)
    xs += [sample_series(G, seed * 7457 + i) for i in range(samples)]
    found = []
    for x in xs:
        d = decide({"x": x})
        r = ring_member(ring, x)
        if d != r:
            found.append({"x": print_series(x), "decide": d, "ring": r})
    return found


# ---------------------------------------------------------------------------
# the classification report


def _np_display(G: LexWord, display_primes: tuple[int, ...]) -> dict:
    table = np_map(G)
    disp = {}
    for p in display_primes:
        v = table.value_at(p)
        disp[str(p)] = "inf" if v is INF else v
    return {"display": disp, "pieces": table.to_json()}


def _labels_display(entries: tuple[LabelEntry, ...], display_primes: tuple[int, ...]) -> dict:
    disp = {}
    for p in display_primes:
        ns = next((e.levels() for e in entries if p in e.primes), [])
        disp[str(p)] = "unbounded" if ns is None else ns
    return disp


def _coincidence_note(G: LexWord, display_primes: tuple[int, ...]) -> str | None:
    """Spotted when consecutive levels share a cut strictly below the top:
    the computed family repeats before it coarsens, which a reader eyeballing
    level counts may not expect. The note states the computed facts only."""
    table = np_map(G)
    for p in display_primes:
        np_v = table.value_at(p)
        if np_v is INF or np_v < 2:
            continue
        cuts = [g_pn(G, p, nn) for nn in range(np_v + 1)]
        for nn in range(np_v - 1):
            if cuts[nn] == cuts[nn + 1] and cuts[nn] != cuts[np_v]:
                return (
                    "for p = {p} the level-{a} and level-{b} cuts coincide "
                    "({c}) while level {np} is strictly coarser ({top}); the "
                    "family repeats before it coarsens and the computed cuts "
                    "are reported as-is".format(
                        p=p,
                        a=nn,
                        b=nn + 1,
                        c=cut_name(G, cuts[nn]),
                        np=np_v,
                        top=cut_name(G, cuts[np_v]),
                    )
                )
    return None


def definable_rows(G: LexWord, display_primes: tuple[int, ...]) -> list[dict]:
    """The definable image as report rows, deepest first: each cut's
    closed-form labels, its levels at the display primes, and its flags."""
    top = top_cut(G)
    return [
        {
            "cut": cut_name(G, c),
            "labels": [e.to_json() for e in entries],
            "display_labels": _labels_display(entries, display_primes),
            "residue_real_closed": is_residue_real_closed(G, c),
            "trivial": c == top,
        }
        for c, entries in enumerate_definable(G)
    ]


# the differential block of a report: these primes, levels up to this bound
# (capped by each prime's own level bound)
DIFFERENTIAL_PRIMES = (2, 3)
DIFFERENTIAL_MAX_LEVEL = 1


def classification_report(
    G: LexWord,
    display_primes: tuple[int, ...] = (2, 3, 5, 7),
    samples: int = 200,
    seed: int = 42,
) -> dict:
    """Everything known about the definable coarsenings of one group.

    Chain cuts are classified exactly one way each: definable (labels from
    the level map), certified non-definable (straddling regular pair), or
    undecided with a reason. A labeled cut that also gets a certificate, or
    an unlabeled one that gets none, is a contradiction in the theory layer
    itself and is reported as a red flag instead of being patched over.
    Tower chains are materialized to INNER_LIMIT inner cuts.

    The differential block is one formula-vs-ring sweep with `samples`
    random points over the cells of DIFFERENTIAL_PRIMES at levels up to
    DIFFERENTIAL_MAX_LEVEL (capped by each prime's own level bound) on
    effective groups; schematic groups record why sampling is impossible
    instead.
    """
    chain = chain_cuts(G)
    definable = definable_rows(G, display_primes)
    definable_names = {row["cut"] for row in definable}

    notes: list[str] = []
    cuts_rows = []
    cert_rows = []
    residue_rows = []
    for c in chain:
        nm = cut_name(G, c)
        residue_rows.append({"cut": nm, "residue_real_closed": is_residue_real_closed(G, c)})
        cert = non_definability_certificate(G, c, display_primes)
        labeled = nm in definable_names
        cert_rows.append({"cut": nm, "certificate": cert or ("none" if labeled else "undecided")})
        if labeled:
            status = "definable"
            if cert is not None:
                status = "red-flag"
                notes.append(
                    f"RED FLAG: cut {nm} is labeled definable yet carries a "
                    "non-definability certificate; the two routes disagree"
                )
        elif cert is not None:
            status = "certified-non-definable"
        else:
            status = "undecided"
            notes.append(
                f"RED FLAG: cut {nm} is neither labeled nor certified below "
                f"the display horizon {display_primes}"
            )
        cuts_rows.append({"cut": nm, "status": status})

    differential = []
    if G.is_effective():
        cells = []
        for p in DIFFERENTIAL_PRIMES:
            np_v = np_map(G).value_at(p)
            top_n = DIFFERENTIAL_MAX_LEVEL if np_v is INF else min(np_v, DIFFERENTIAL_MAX_LEVEL)
            cells += [(p, nn) for nn in range(top_n + 1)]
        differential = differential_sweep(G, cells, samples=samples, seed=seed)
    else:
        notes.append(
            "differential sampling skipped: the group has schematic components "
            "with no concrete element representation"
        )

    if has_tower(G):
        notes.append(
            f"the cut chain is infinite; the report materializes the first "
            f"{INNER_LIMIT} tower cuts and the deep limit cut"
        )
    coin = _coincidence_note(G, display_primes)
    if coin is not None:
        notes.append(coin)

    return {
        "group": print_group(G),
        "config": {
            "display_primes": list(display_primes),
            "samples": samples,
            "seed": seed,
            "inner_limit": INNER_LIMIT,
        },
        "np_table": _np_display(G, display_primes),
        "cuts": cuts_rows,
        "chain_truncated": has_tower(G),
        "definable": definable,
        "certificates": cert_rows,
        "residue_flags": residue_rows,
        "thm26": _thm26(G, definable),
        "dp_minimal": is_dp_minimal(G),
        "differential": differential,
        "notes": notes,
    }
