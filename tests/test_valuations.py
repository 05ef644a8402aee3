import hashlib
import itertools
import json
import zlib
from fractions import Fraction

import pytest

from arclab import valuations
from arclab.convex import (
    ConvexCut,
    bottom_cut,
    chain_cuts,
    cut_name,
    g_pn,
    max_divisible,
    max_p_divisible,
    np_map,
    parse_cut,
    top_cut,
)
from arclab.errors import NonEffectiveError, ShapeError
from arclab.formulas import (
    SeriesFraction,
    Var,
    _candidates,
    _in_cut_subgroup,
    build_phi_p,
    build_psi_pn_at,
    choose_params,
    eval_decidable,
    eval_term,
    match_coset_clause,
    parse_formula,
    print_term,
)
from arclab.groups import elem_add, elem_p_divisible, elem_sub, parse_group
from arclab.hahn import (
    const_series,
    default_cutoff,
    monomial,
    parse_series,
    print_series,
    sample_series,
    v_of,
    zero_series,
)
from arclab.primes import PrimeSet
from arclab.valuations import (
    _stability_clause,
    boundary_monomials,
    classification_report,
    differential_cross,
    differential_sweep,
    differential_verify,
    enumerate_definable,
    is_residue_real_closed,
    ring_member,
    verify_thm_defblRCF,
)

from conftest import EFFECTIVE_POOL
from reference_eval import _ref_candidates, reference_differential_verify
from schematic_words import schematic_words

K1 = parse_group("lex(Z, Q)")
K2 = parse_group("lex(omega_tower(start=0))")
ZPI = parse_group("lex(real(1, pi))")
C0 = parse_group("lex(poly_module(Zloc(2), pi))")
ZL2 = parse_group("lex(Zloc(2), Q)")
PIZ = parse_group("lex(real(1, pi), Z)")  # a two-slot component above a cut


# -- ring membership ---------------------------------------------------------------


def test_ring_member_pins():
    c = parse_cut(K1, "seg1")
    assert ring_member(c, parse_series("t^(0,-5)", K1))
    assert not ring_member(c, parse_series("t^(-1,3)", K1))
    assert ring_member(c, parse_series("t^(1,-99)", K1))
    assert ring_member(c, zero_series(K1))


def test_trivial_ring_holds_everything():
    c = top_cut(K1)
    for text in ("t^(-3,0)", "t^(0,-1/2)", "7", "t^(2,5)"):
        assert ring_member(c, parse_series(text, K1))


def test_bottom_ring_is_the_plain_valuation_ring():
    c = bottom_cut(K1)
    assert ring_member(c, parse_series("t^(0,1/2)", K1))
    assert ring_member(c, parse_series("1 + t^(1,0)", K1))
    assert not ring_member(c, parse_series("t^(0,-1/2)", K1))


def test_ring_member_coarsening_monotone():
    # a shallower cut only ever enlarges the ring
    chain = chain_cuts(K1)
    probes = [parse_series(s, K1) for s in ("t^(-1,2)", "t^(0,-5)", "t^(1,0)", "3")]
    for deep, shallow in zip(chain[1:], chain):
        assert shallow < deep
        for x in probes:
            if ring_member(deep, x):
                assert ring_member(shallow, x)


def test_two_slot_real_component_above_the_cut():
    # seg1 sits below real(1, pi): the quotient prefix is two slots wide
    c = parse_cut(PIZ, "seg1")
    exps = ["(1,-1,0)", "(-1,1,0)", "(0,0,-3)", "(3,-1,-7)", "(0,1,-5)"]
    xs = [parse_series(f"t^{e}", PIZ) for e in exps]
    assert [ring_member(c, x) for x in xs] == [False, True, True, False, True]
    assert [_in_cut_subgroup(PIZ, v_of(x), c) for x in xs] == [False, False, True, False, False]
    assert [print_term(t) for t in choose_params(PIZ, 2, 1)] == ["1", "t^(0,0,1)"]


def test_ring_member_refuses_a_cut_of_another_shape():
    # the group comes from the series, and the cut must be one of its cuts
    x = parse_series("t^(1,-1)", K1)
    for c in (ConvexCut(3), ConvexCut(0, 1)):
        with pytest.raises(ShapeError):
            ring_member(c, x)


def test_ring_member_inner_cut_zero_only():
    # schematic cuts admit no nonzero test elements; zero still belongs
    assert ring_member(parse_cut(K2, "seg0+2"), zero_series(K2))


# -- the named cuts: v0, v_p and v_pn ---------------------------------------------------


def test_v_p_is_level_zero():
    for G in (K1, ZPI, ZL2):
        for p in (2, 3, 5):
            assert max_p_divisible(G, p) == g_pn(G, p, 0)


def test_v_pn_saturation_pin():
    assert g_pn(ZPI, 2, 2) == top_cut(ZPI)


def test_v0_pins():
    assert cut_name(K1, max_divisible(K1)) == "seg1"
    assert cut_name(K2, max_divisible(K2)) == "bottom"
    assert cut_name(ZPI, max_divisible(ZPI)) == "bottom"
    assert cut_name(C0, max_divisible(C0)) == "bottom"


def test_v0_residue_flag():
    # v0 is the shallowest chain cut whose residue is real closed
    for G in (K1, K2, ZPI, C0):
        c0 = max_divisible(G)
        assert is_residue_real_closed(G, c0)
        for c in chain_cuts(G):
            if c < c0:  # strictly shallower
                assert not is_residue_real_closed(G, c)
            else:
                assert is_residue_real_closed(G, c)


# -- the definable image ----------------------------------------------------------------


def _image_by_name(G, **kw):
    return {cut_name(G, c): entries for c, entries in enumerate_definable(G, **kw)}


def test_image_k1():
    img = _image_by_name(K1)
    assert set(img) == {"seg1", "top"}
    [e] = img["seg1"]
    assert e.primes.is_all() and (e.n_min, e.n_max) == (0, 0)
    [e] = img["top"]
    assert e.primes.is_all() and (e.n_min, e.n_max) == (1, 1)


def test_image_k2():
    img = _image_by_name(K2)
    assert set(img) == {"seg0+1", "seg0+2", "seg0+3", "seg0+4", "top"}
    for name, p in (("seg0+1", 3), ("seg0+2", 5), ("seg0+3", 7), ("seg0+4", 11)):
        [e] = img[name]
        assert e.primes == PrimeSet.single(p) and (e.n_min, e.n_max) == (0, 0)
    top_entries = {(e.primes, e.n_min, e.n_max) for e in img["top"]}
    assert top_entries == {
        (PrimeSet.single(2), 0, 0),
        (PrimeSet(True, frozenset([2])), 1, 1),
    }


def test_image_zpluspi():
    img = _image_by_name(ZPI)
    assert set(img) == {"bottom", "top"}
    [e] = img["bottom"]
    assert e.primes.is_all() and (e.n_min, e.n_max) == (0, 1)
    [e] = img["top"]
    assert e.primes.is_all() and (e.n_min, e.n_max) == (2, 2)


def test_image_c0():
    img = _image_by_name(C0)
    assert set(img) == {"bottom", "top"}
    [e] = img["bottom"]
    assert e.primes == PrimeSet.single(2) and e.n_min == 0 and e.n_max is None
    [e] = img["top"]
    assert e.primes == PrimeSet(True, frozenset([2])) and (e.n_min, e.n_max) == (0, 0)


def test_image_deepest_first():
    for G in (K1, K2, ZPI, C0):
        cuts = [c for c, _ in enumerate_definable(G)]
        for a, b in zip(cuts, cuts[1:]):
            assert a > b  # strictly deeper first


# -- the equivalence report ----------------------------------------------------------------


def test_thm_verdicts():
    assert verify_thm_defblRCF(K1) == {
        "cond1": True,
        "cond2": True,
        "cond3": True,
        "consistent": True,
    }
    assert verify_thm_defblRCF(K2) == {
        "cond1": False,
        "cond2": False,
        "cond3": False,
        "consistent": True,
    }
    assert verify_thm_defblRCF(parse_group("lex(Q)"))["cond3"] is True
    for G in (K1, K2, ZPI, C0, ZL2):
        assert verify_thm_defblRCF(G)["consistent"]


def test_v0_definable_iff_conditions_hold():
    for G in (K1, K2, ZPI, C0):
        rep = verify_thm_defblRCF(G)
        image_cuts = [c for c, _ in enumerate_definable(G)]
        assert rep["cond3"] == (max_divisible(G) in image_cuts)


# -- differential sweeps ----------------------------------------------------------------


def test_boundary_monomials_k1():
    probes = boundary_monomials(K1)
    assert len(probes) == 33  # 5 constants + 28 signed monomials (Z slot skips 1/2)
    texts = {p.is_zero() for p in probes}
    assert True in texts  # zero is probed


def _digest(series) -> str:
    text = "\n".join(print_series(s) for s in series)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "dsl, n_cands, cands_digest, n_probes, probes_digest",
    [
        ("lex(Z, Q)", 200, "c72b0f628881728e", 33, "7cc988b9e9b12c85"),
        ("lex(Z, Z)", 200, "724b1e8a223befb1", 29, "9a2d14ffc0e86cc1"),
        ("lex(real(1, pi))", 200, "4fa1977b4773aa10", 29, "9a2d14ffc0e86cc1"),
        ("lex(Zloc(2), Q)", 200, "3ab635b11d000219", 33, "7cc988b9e9b12c85"),
        ("lex(Q)", 200, "3eac5c4cdfe7e427", 21, "1f2d56775db52f7b"),
        ("lex(real(1, pi), Z)", 200, "0001a9491a0d1748", 41, "9b76241eac30063b"),
    ],
)
def test_witness_grid_and_probes_pinned(dsl, n_cands, cands_digest, n_probes, probes_digest):
    # both grids skip the per-slot values a slot rejects; the skipped set is pinned
    G = parse_group(dsl)
    body = _stability_clause(build_phi_p(2)).body
    env = {"x": SeriesFraction.of(sample_series(G, 7))}
    cands = _candidates(G, body, env, 200, 0, default_cutoff(G))
    probes = boundary_monomials(G)
    assert (len(cands), _digest(cands)) == (n_cands, cands_digest)
    assert (len(probes), _digest(probes)) == (n_probes, probes_digest)


_SCOPED_BODIES = (
    "exists y. y^2 = x*t^(1,0) or y^3 = 2*t^(0,{h})*x",
    "forall z. (z = t^(1,0) -> exists w. w^5 = -(x + 3*t^(0,{h})))",
    "phi_pn[2,1](x)",
)


@pytest.mark.parametrize(
    "dsl, h, digests",
    [
        ("lex(Z, Q)", "1/2", ("fc6dbdbc8749d966", "12a424e5b9b682dc", "fb66963d8c466d09")),
        ("lex(real(1, pi))", "1", ("be95ca2857aad6fc", "88617f1d07e49ba9", "3d4b09c40964a75c")),
        ("lex(Zloc(2), Q)", "1/2", ("bfcfab8d471e6e2d", "e495e01a1d146fd2", "3c9be02cff72f9f4")),
    ],
)
def test_witness_grid_pinned_with_constants_and_root_targets(dsl, h, digests):
    # bodies with formula constants and root equations in scope, so the
    # order of the constant terms and of the root targets is pinned too
    G = parse_group(dsl)
    env = {"x": SeriesFraction.of(sample_series(G, 7))}
    for text, digest in zip(_SCOPED_BODIES, digests):
        cands = _candidates(G, parse_formula(text.format(h=h), G), env, 200, 3, default_cutoff(G))
        assert (len(cands), _digest(cands)) == (200, digest), text


def _typed(series) -> list:
    # Fraction(3) == 3, so equality alone would not see a slot's type
    return [
        (tuple((tuple((type(x), x) for x in e), type(c), c) for e, c in s.terms), s.trunc)
        for s in series
    ]


def test_witness_grid_matches_the_reference_on_a_long_word():
    # the per-slot shifts coerce only the slot they change; the reference
    # builds each shift through monomial(), which coerces every slot
    G = parse_group("lex(Z, Q, Zloc(2), real(1, pi), Zloc(3), Z, Q, real(1, pi), Zloc(2), Zloc(3))")
    assert G.n_slots() == 12
    body = _stability_clause(build_phi_p(2)).body
    env = {"x": SeriesFraction.of(sample_series(G, 7))}
    cands = _candidates(G, body, env, 400, 0, default_cutoff(G))
    assert _typed(cands) == _typed(_ref_candidates(G, body, env, 400, 0))


def test_a_zero_multiple_of_a_monomial_adds_nothing_to_the_grid():
    # 0*t^g denotes zero, so the grid takes nothing from it, not even t^g
    G = parse_group("lex(Z, Q)")
    env = {"x": SeriesFraction.of(sample_series(G, 7))}
    cutoff = default_cutoff(G)
    plain = _candidates(G, parse_formula("exists y. y = x", G), env, 200, 3, cutoff)
    padded = _candidates(G, parse_formula("exists y. y = x + 0*t^(5,0)", G), env, 200, 3, cutoff)
    assert padded == plain


def test_differential_small_runs_clean():
    for G, p, n in ((K1, 2, 0), (K1, 2, 1), (ZPI, 2, 2), (ZL2, 3, 0)):
        run = differential_verify(G, p, n, samples=25, seed=7, falsify_budget=10)
        assert run["mismatches"] == []
        assert run["checked"] == 25 + len(boundary_monomials(G))


# -- the grouped sweep against the per-cell reference loop ---------------------------------


def _sweep_cells(G):
    return [
        (p, n) for p in (2, 3, 5) for n in range(min(np_map(G).value_at(p), 2) + 1)
    ]


def _sweep_and_reference(G):
    cells = _sweep_cells(G)
    got = differential_sweep(G, cells, samples=6, seed=11, falsify_budget=8)
    want = [
        reference_differential_verify(G, p, n, samples=6, seed=11, falsify_budget=8)
        for p, n in cells
    ]
    return got, want


@pytest.mark.parametrize("dsl", EFFECTIVE_POOL)
def test_sweep_matches_per_cell_reference(dsl):
    got, want = _sweep_and_reference(parse_group(dsl))
    assert got == want


@pytest.mark.parametrize("dsl", EFFECTIVE_POOL)
def test_sweep_matches_per_cell_reference_under_a_planted_fault(dsl, monkeypatch):
    # ring membership negated on a fixed subset of points: both loops must
    # report the same non-empty mismatch lists, in the same order
    honest = valuations.ring_member

    def faulty(V, a):
        flip = zlib.crc32(print_series(a).encode()) % 3 == 0
        return honest(V, a) != flip

    monkeypatch.setattr(valuations, "ring_member", faulty)
    got, want = _sweep_and_reference(parse_group(dsl))
    assert all(run["mismatches"] for run in want)
    assert got == want


def test_differential_verify_is_a_one_cell_sweep():
    assert differential_verify(ZPI, 3, 1, samples=4, seed=5) == differential_sweep(
        ZPI, [(3, 1)], samples=4, seed=5
    )[0]


# -- coset clauses against a finite valuation oracle ------------------------------------
#
# Both level-n coset clauses speak only about valuations: the hypothesis is
# ring membership of y and of x/y (inside) or y/x (outside) in the v_p ring,
# and the conclusion "some parameter s has s*y/z^p a v_p unit" holds exactly
# when v(s) + v(y) is p-divisible (the v_p subgroup is itself p-divisible).
# So the oracle enumerates y = t^g over a box of exponents and judges the
# clause with ring_member and elem_p_divisible alone.

_SLOT_VALUES = [Fraction(k) for k in range(-3, 4)] + [
    Fraction(sgn, d) for d in (2, 3) for sgn in (1, -1)
]


def _exponent_box(G):
    """Every t^g with each slot in _SLOT_VALUES that the slot admits."""
    out = []
    for exps in itertools.product(_SLOT_VALUES, repeat=G.n_slots()):
        try:
            out.append(v_of(monomial(G, exps)))
        except ShapeError:
            continue  # slot does not admit this value
    return out


def _coset_oracle(G, p, params, x, side, box) -> bool:
    """No t^g on the box (nor t^v(x)) meets the hypothesis and misses every
    parameter coset."""
    vp = max_p_divisible(G, p)

    def member(g):
        return ring_member(vp, monomial(G, g))

    ys = list(box)
    if not x.is_zero():
        vx = v_of(x)
        ys.append(vx)
    for g in ys:
        if x.is_zero():
            hyp = side == "inside" and member(g)
        elif side == "inside":
            hyp = member(g) and member(elem_sub(G, vx, g))
        else:
            hyp = not member(g) and member(elem_sub(G, g, vx))
        if hyp and not any(elem_p_divisible(G, elem_add(G, v_of(s), g), p) for s in params):
            return False
    return True


def _coset_oracle_mismatches(G, p, n, oracle_params) -> list:
    """Decided coset clauses (built with choose_params) against the oracle
    (judged with oracle_params) on the boundary probes and 30 samples."""
    params = choose_params(G, p, n)
    psi = build_psi_pn_at(p, n, params, Var("x"))
    clauses = [psi.left.right, psi.right]
    box = _exponent_box(G)
    xs = boundary_monomials(G) + [sample_series(G, 4001 + i) for i in range(30)]
    bad = []
    for clause in clauses:
        side = match_coset_clause(clause)[3]
        for x in xs:
            decided = eval_decidable(clause, {"x": x}, G)
            if decided != _coset_oracle(G, p, oracle_params, x, side, box):
                bad.append((side, print_series(x), decided))
    return bad


@pytest.mark.parametrize("dsl", ["lex(Z, Q)", "lex(real(1, pi))", "lex(Zloc(2), Q)", "lex(Z, Z)"])
def test_coset_clauses_match_finite_oracle(dsl):
    G = parse_group(dsl)
    for p in (2, 3):
        for n in range(np_map(G).value_at(p) + 1):
            series = [eval_term(G, t, {}).num for t in choose_params(G, p, n)]
            bad = _coset_oracle_mismatches(G, p, n, series)
            assert bad == [], (p, n, bad[:5])


@pytest.mark.parametrize("G, p, n", [(ZPI, 3, 2), (ZL2, 2, 1)])
def test_coset_oracle_is_not_blind(G, p, n):
    # one parameter coset instead of p^e: the oracle must see clauses the
    # real parameters make true fail
    ones = [const_series(G, 1)] * p**n
    found = _coset_oracle_mismatches(G, p, n, ones)
    assert found, "coset oracle found no mismatch with wrong parameters; it is blind"


def test_differential_needs_effective_group():
    with pytest.raises(NonEffectiveError):
        differential_verify(K2, 2, 0, samples=5)
    with pytest.raises(NonEffectiveError):
        differential_verify(C0, 2, 0, samples=5)


def test_differential_cross_is_not_blind():
    # judging the 2-adic ring formula against the 3-ring must blow up:
    # on lex(Zloc(2), Q) those rings genuinely differ
    found = differential_cross(ZL2, 2, 3, samples=40, seed=3)
    assert found, "adversarial cross-check found no mismatch; harness is blind"


def test_differential_cross_agrees_when_rings_coincide():
    # on lex(Z, Q) every prime pins the same cut, so crossing primes is silent
    assert differential_cross(K1, 2, 3, samples=40, seed=3) == []


# -- classification reports (session fixture computes them once) -----------------------------


def test_report_shapes(reports):
    keys = {
        "group",
        "config",
        "np_table",
        "cuts",
        "chain_truncated",
        "definable",
        "certificates",
        "residue_flags",
        "thm26",
        "dp_minimal",
        "differential",
        "notes",
    }
    for name, rep in reports.items():
        assert set(rep) == keys, name


def test_report_statuses_clean(reports):
    for name, rep in reports.items():
        for row in rep["cuts"]:
            assert row["status"] in ("definable", "certified-non-definable"), (
                name,
                row,
            )
        assert not any(n.startswith("RED FLAG") for n in rep["notes"]), name


def test_report_np_tables(reports):
    assert reports["k1"]["np_table"]["display"] == {"2": 1, "3": 1, "5": 1, "7": 1}
    assert reports["k2"]["np_table"]["display"] == {"2": 0, "3": 1, "5": 1, "7": 1}
    assert reports["zpluspi"]["np_table"]["display"] == {"2": 2, "3": 2, "5": 2, "7": 2}
    assert reports["c0"]["np_table"]["display"] == {"2": "inf", "3": 0, "5": 0, "7": 0}


def test_report_dp_flags(reports):
    assert reports["k1"]["dp_minimal"] is True
    assert reports["k2"]["dp_minimal"] is True
    assert reports["zpluspi"]["dp_minimal"] is True
    assert reports["c0"]["dp_minimal"] is False


def test_report_differential_clean(reports):
    for name in ("k1", "zpluspi"):
        runs = reports[name]["differential"]
        assert runs, name
        for run in runs:
            assert run["mismatches"] == [], (name, run["p"], run["n"])
    for name in ("k2", "c0"):
        assert reports[name]["differential"] == []
        assert any("differential sampling skipped" in n for n in reports[name]["notes"])


def test_report_notes(reports):
    assert reports["k1"]["notes"] == []
    k2_notes = reports["k2"]["notes"]
    assert len(k2_notes) == 2
    assert any("chain is infinite" in n for n in k2_notes)
    zpi_notes = reports["zpluspi"]["notes"]
    assert len(zpi_notes) == 1 and "coincide" in zpi_notes[0]
    assert "level-0 and level-1" in zpi_notes[0]


def test_report_certificates(reports):
    by_cut = {row["cut"]: row["certificate"] for row in reports["k2"]["certificates"]}
    assert by_cut["top"] == "none"
    assert by_cut["seg0+1"] == "none"
    assert by_cut["bottom"] != "none" and by_cut["bottom"]["pieces"]
    k1_cuts = {row["cut"]: row["certificate"] for row in reports["k1"]["certificates"]}
    assert k1_cuts["seg1"] == "none" and k1_cuts["bottom"] != "none"


def test_report_thm_blocks(reports):
    assert reports["k1"]["thm26"] == {
        "cond1": True,
        "cond2": True,
        "cond3": True,
        "consistent": True,
    }
    assert reports["k2"]["thm26"]["cond1"] is False
    for rep in reports.values():
        assert rep["thm26"]["consistent"]


def test_schematic_reports_pinned():
    """Labels, certificates, n_p pieces and residue flags of 100 random
    schematic words, pinned by a digest of their reports."""
    h = hashlib.sha256()
    for word in schematic_words(0, 100):
        report = classification_report(parse_group(word), display_primes=(2, 3, 5, 7, 11))
        h.update(json.dumps(report, sort_keys=True).encode())
    assert h.hexdigest() == "7e4ea0d5dde9ad8c85b5d689907977e6cafa4eabdaf7fe0a8f3fca09a43e7c82"
