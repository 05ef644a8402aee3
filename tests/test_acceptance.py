"""End-to-end gate: one test per required result, each printing a PASS line.

Each test states its claim, runs the full-size check (200-sample sweeps,
500-case root batteries), and asserts a zero-tolerance condition. Run with
-v for one pass/fail line per criterion, or -s to see the PASS summaries.
"""

import io
import json
import pathlib

from arclab.convex import np_map
from arclab.errors import RootError
from arclab.cli import main as cli_main
from arclab.formulas import build_psi_p, eval_decidable
from arclab.groups import (
    elem_add,
    elem_cmp,
    elem_p_divisible,
    parse_group,
    zero_element,
)
from arclab.hahn import (
    leading_coeff,
    monomial,
    parse_series,
    print_series,
    pth_root,
    root_exists,
    sample_series,
    series_add,
    series_eq,
    series_mul,
    series_neg,
    series_pow,
    v_of,
)
from arclab.primes import INF, PrimeSet
from arclab.valuations import differential_sweep, verify_thm_defblRCF

from conftest import deadline

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

POOL = ["lex(Z, Q)", "lex(Z, Z)", "lex(real(1, pi))", "lex(Zloc(2), Q)", "lex(Q)"]


def test_ring_formula_differential_200_samples():
    # For five effective groups and p in {2, 3, 5}: the quantifier formula
    # and direct ring membership agree on 200 samples plus every boundary
    # monomial, and no decidably-true universal clause can be falsified
    # within a 200-point witness grid. Zero tolerance.
    total_checked = 0
    for dsl in POOL:
        G = parse_group(dsl)
        cells = [(p, 0) for p in (2, 3, 5)]
        runs = differential_sweep(G, cells, samples=200, seed=42, falsify_budget=200)
        for (p, _), run in zip(cells, runs):
            assert run["mismatches"] == [], (dsl, p, run["mismatches"][:3])
            total_checked += run["checked"]
    print(f"PASS: ring-formula differential, {total_checked} points, 0 mismatches")


def test_residue_real_closed_equivalence(groups):
    # The three-way equivalence report is internally consistent on every
    # library group, fully true on lex(Z, Q) and fully false on the tower.
    for name, G in groups.items():
        rep = verify_thm_defblRCF(G)
        assert rep["consistent"], (name, rep)
    k1 = verify_thm_defblRCF(groups["k1"])
    assert k1 == {"cond1": True, "cond2": True, "cond3": True, "consistent": True}
    k2 = verify_thm_defblRCF(groups["k2"])
    assert k2 == {"cond1": False, "cond2": False, "cond3": False, "consistent": True}
    print("PASS: residue-real-closed equivalence consistent on all library groups")


def test_classification_image_certificates_and_levels(reports, groups):
    # Every labeled cut gets certificate "none"; every other chain cut gets a
    # concrete straddling certificate; and the level-n formulas survive a
    # 200-sample differential for p in {2, 3} up to each prime's own bound
    # on the groups that admit sampling.
    for name, rep in reports.items():
        image = {row["cut"] for row in rep["definable"]}
        for row in rep["certificates"]:
            if row["cut"] in image:
                assert row["certificate"] == "none", (name, row)
            else:
                assert isinstance(row["certificate"], dict), (name, row)
                assert row["certificate"]["pieces"], (name, row)
    runs = 0
    for name, levels in (("k1", {2: 1, 3: 1}), ("zpluspi", {2: 2, 3: 2})):
        cells = [(p, n) for p, n_max in levels.items() for n in range(n_max + 1)]
        for (p, n), run in zip(cells, differential_sweep(groups[name], cells, samples=200, seed=42)):
            assert run["mismatches"] == [], (name, p, n)
            runs += 1
    assert runs == 10
    print(f"PASS: classification certificates + {runs} level-n differentials clean")


def test_headline_constants(groups):
    # The four headline invariants, exactly: level counts, the infinite
    # quotient at p = 2 on the polynomial module, and dp-minimality.
    k1, k2, zpi, c0 = (groups[k] for k in ("k1", "k2", "zpluspi", "c0"))

    m = np_map(k1)
    assert m.pieces == ((PrimeSet.all_primes(), 1),)
    m = np_map(k2)
    assert m.value_at(2) == 0
    for p in (3, 5, 7, 11, 13, 97):
        assert m.value_at(p) == 1
    m = np_map(zpi)
    assert m.pieces == ((PrimeSet.all_primes(), 2),)
    m = np_map(c0)
    assert m.value_at(2) is INF
    for p in (3, 5, 7, 97):
        assert m.value_at(p) == 0

    from arclab.convex import is_dp_minimal

    assert [is_dp_minimal(G) for G in (k1, k2, zpi, c0)] == [True, True, True, False]
    print("PASS: level tables, infinite 2-quotient, dp verdicts all exact")


def test_small_roots_lift_within_seconds():
    # each lift takes one Newton step; a loop that reads the wrong defect
    # term runs on (to the iteration cap, for minutes) instead of failing
    G = parse_group("lex(Z, Q)")
    y = parse_series("1 + t^(1,0)", G)
    with deadline(5):
        exact = pth_root(series_pow(y, 2), 2)
        truncated = pth_root(parse_series("1 + t^(1,0) + O(t^(2,0))", G), 2)
    assert series_eq(exact, y)
    assert print_series(truncated) == "1 + 1/2*t^(1,0) + O(t^(2,0))"


def test_root_oracle_battery():
    # 500 constructed roots recovered exactly; 500 obstructed inputs all
    # rejected; ring laws and the ultrametric hold with exact equality.
    G = parse_group("lex(Z, Q)")
    primes = (2, 3, 5)

    pos = 0
    for i in range(500):
        p = primes[i % 3]
        y = sample_series(G, 20_000 + i)
        a = series_pow(y, p)
        assert root_exists(a, p, allow_negation=True)
        r = pth_root(a, p)
        want = y if (p % 2 == 1 or leading_coeff(y) > 0) else series_neg(y)
        assert series_eq(r, want), (i, p)
        pos += 1

    neg = 0
    for i in range(500):
        p = primes[i % 3]
        y = sample_series(G, 40_000 + i)
        # shift the leading exponent off the p-divisible sublattice
        shift = monomial(G, (1, 0))
        a = series_pow(y, p)
        a = series_mul(a, shift)
        while elem_p_divisible(G, v_of(a), p):
            a = series_mul(a, shift)
        assert not root_exists(a, p, allow_negation=True), (i, p)
        try:
            pth_root(a, p)
            raise AssertionError(f"obstructed root lifted at case {i}")
        except RootError:
            pass
        neg += 1

    for i in range(100):
        a, b, c = (sample_series(G, 60_000 + 3 * i + k) for k in range(3))
        assert series_eq(series_mul(a, series_add(b, c)),
                         series_add(series_mul(a, b), series_mul(a, c)))
        assert v_of(series_mul(a, b)) == elem_add(G, v_of(a), v_of(b))
        s = series_add(a, b)
        if not s.is_zero():
            lo = v_of(a) if elem_cmp(G, v_of(a), v_of(b)) <= 0 else v_of(b)
            assert elem_cmp(G, v_of(s), lo) >= 0

    assert pos == neg == 500
    print("PASS: root oracle battery 500 positive + 500 negative, laws exact")


def test_class_formula_reduction():
    # The class test decides exactly "positive valuation whose exponent
    # misses p-divisibility" on 200 samples per (group, p), zero violations.
    checked = 0
    for dsl in POOL:
        G = parse_group(dsl)
        zero = zero_element(G)
        for p in (2, 3, 5):
            psi = build_psi_p(p)
            for i in range(200):
                x = sample_series(G, 80_000 + 977 * p + i)
                want = (
                    elem_cmp(G, v_of(x), zero) > 0
                    and not elem_p_divisible(G, v_of(x), p)
                )
                got = eval_decidable(psi, {"x": x}, G)
                assert got is want, (dsl, p, i)
                checked += 1
    print(f"PASS: class-formula reduction, {checked} samples, 0 violations")


def test_determinism_and_goldens():
    # Byte-identical repeat runs, and the canned reports match the stored
    # files, including the flagged level-coincidence note.
    def run_example(name):
        buf = io.StringIO()
        code = cli_main(["examples", name, "--json"], out=buf)
        assert code == 0, name
        return buf.getvalue()

    twice = [run_example("zpluspi") for _ in range(2)]
    assert twice[0] == twice[1], "repeat run differs"

    for name in ("k1", "k2", "zpluspi", "c0"):
        got = run_example(name) if name != "zpluspi" else twice[0]
        want = (GOLDEN_DIR / f"{name}.json").read_text()
        assert got == want, f"golden drift: {name}"

    zpi = json.loads(twice[0])
    assert any("coincide" in n for n in zpi["notes"]), "discrepancy note missing"
    print("PASS: byte-identical reruns; all four goldens match, note present")
