"""The four benchmark workloads.

A workload turns the benchmark seed into one pass: a list of unit calls,
each with the check of its output.  Building the list (parsing the groups,
drawing the inputs) is the workload's set-up.  Unit calls reach arclab only
through module attributes (``valuations.differential_verify``
rather than a name imported at load time), so the tracer's wrappers see them.

Why these four: each stresses a different part of arclab, so a change to
one module moves one workload and leaves another unchanged.

* ``sweep``     the gate differential; the sampler dominates (formulas, hahn).
* ``reports``   the four ``arclab examples --json`` reports; the decision
                route dominates (formulas matchers, eval_decidable).
* ``roots``     root lifting only: hahn and groups arithmetic, no formulas.
* ``schematic`` classification of schematic words: primes and convex only.
"""

from __future__ import annotations

import io
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from arclab import cli, groups, hahn, valuations
from arclab.errors import RootError

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# The gate's pool and primes (tests/test_acceptance.py).
POOL = ("lex(Z, Q)", "lex(Z, Z)", "lex(real(1, pi))", "lex(Zloc(2), Q)", "lex(Q)")
PRIMES = (2, 3, 5)
GOLDEN_SEED = 42

# Random x per sweep cell.  The gate uses 200; every cell also checks its
# fixed boundary probes.  At seed 42 the x are a prefix of the gate's.
SWEEP_SAMPLES = 4
ROOT_CASES = 36  # positive cases per (group, p) cell of the roots pass
WORDS = 300  # schematic words per pass


@dataclass
class Unit:
    """One timed call and the check of its output."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "Verdict"]


@dataclass
class Verdict:
    """attempted/failed count the workload's checked items, failed the ones
    whose output is incorrect; flagged counts items the program itself
    declares undecided, which are not wrong answers."""

    attempted: int
    failed: int
    flagged: int = 0
    detail: str = ""


def _ok() -> Verdict:
    return Verdict(1, 0)


# ---------------------------------------------------------------------------
# sweep


def check_differential(run: dict) -> Verdict:
    bad = {m["x"] for m in run["mismatches"]}
    detail = f"{len(bad)} mismatched points, first {run['mismatches'][:1]}" if bad else ""
    return Verdict(run["checked"], len(bad), detail=detail)


def sweep_units(seed: int) -> list[Unit]:
    units = []
    for dsl in POOL:
        G = groups.parse_group(dsl)
        for p in PRIMES:
            units.append(
                Unit(
                    f"{dsl} p={p}",
                    lambda G=G, p=p: valuations.differential_verify(
                        G, p, 0, samples=SWEEP_SAMPLES, seed=seed, falsify_budget=200
                    ),
                    check_differential,
                )
            )
    return units


# ---------------------------------------------------------------------------
# reports


def run_example(name: str, seed: int) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli.main(["examples", name, "--json", "--seed", str(seed)], out=buf)
    return code, buf.getvalue()


def undecided_cuts(report: dict) -> list[str]:
    """Cuts the report leaves unclassified or flags; the CLI exit code
    ignores both (see cli._report_failures)."""
    bad = [row["cut"] for row in report["cuts"] if row["status"] in ("undecided", "red-flag")]
    bad += [n for n in report["notes"] if "RED FLAG" in n]
    return bad


def check_report(got: tuple[int, str], golden: str | None) -> Verdict:
    code, text = got
    if code != 0:
        return Verdict(1, 1, detail=f"exit code {code}")
    if golden is not None:
        return _ok() if text == golden else Verdict(1, 1, detail="differs from golden")
    report = json.loads(text)
    bad = undecided_cuts(report)
    if bad:
        return Verdict(1, 1, detail=f"undecided or flagged: {bad[:2]}")
    return _ok()


def reports_units(seed: int) -> list[Unit]:
    units = []
    for name in sorted(cli.EXAMPLES):
        golden = (GOLDEN_DIR / f"{name}.json").read_text() if seed == GOLDEN_SEED else None
        units.append(
            Unit(
                name,
                lambda name=name: run_example(name, seed),
                lambda got, golden=golden: check_report(got, golden),
            )
        )
    return units


# ---------------------------------------------------------------------------
# roots


def positive_root(G, p: int, s: int):
    y = hahn.sample_series(G, s)
    a = hahn.series_pow(y, p)
    return y, hahn.root_exists(a, p, allow_negation=True), hahn.pth_root(a, p)


def check_positive(got, p: int) -> Verdict:
    y, exists, r = got
    want = y if p % 2 == 1 or hahn.leading_coeff(y) > 0 else hahn.series_neg(y)
    if exists and hahn.series_eq(r, want):
        return _ok()
    return Verdict(1, 1, detail=f"root of y^{p} is not ±y for y = {hahn.print_series(y)}")


def obstructed_root(G, p: int, s: int, shift):
    """-y^p (shift None, even p) or y^p * t^g with g not p-divisible; either
    way no p-th root exists.  Returns (root_exists, raised RootError)."""
    a = hahn.series_pow(hahn.sample_series(G, s), p)
    a = hahn.series_neg(a) if shift is None else hahn.series_mul(a, shift)
    exists = hahn.root_exists(a, p, allow_negation=shift is not None)
    try:
        hahn.pth_root(a, p)
    except RootError:
        return exists, True
    return exists, False


def check_obstructed(got) -> Verdict:
    exists, raised = got
    if not exists and raised:
        return _ok()
    return Verdict(1, 1, detail=f"obstructed case: root_exists={exists} RootError={raised}")


def exponent_shift(G, p: int):
    """t^e for the first unit vector e outside pG, or None when G is
    p-divisible (lex(Q); lex(Zloc(2), Q) at odd p) and no exponent
    obstruction exists."""
    n = G.n_slots()
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        if not groups.elem_p_divisible(G, groups.unflatten(G, e), p):
            return hahn.monomial(G, e)
    return None


def roots_units(seed: int) -> list[Unit]:
    rng = random.Random(f"roots:{seed}")
    units = []
    for dsl in POOL:
        G = groups.parse_group(dsl)
        for p in PRIMES:
            obstructions = [None] if p % 2 == 0 else []  # None: the sign obstruction
            shift = exponent_shift(G, p)
            if shift is not None:
                obstructions.append(shift)
            for k in range(ROOT_CASES):
                s = rng.randrange(1 << 30)
                units.append(
                    Unit(
                        f"{dsl} p={p} +{k}",
                        lambda G=G, p=p, s=s: positive_root(G, p, s),
                        lambda got, p=p: check_positive(got, p),
                    )
                )
                for ob in obstructions:
                    s = rng.randrange(1 << 30)
                    units.append(
                        Unit(
                            f"{dsl} p={p} -{k}",
                            lambda G=G, p=p, s=s, ob=ob: obstructed_root(G, p, s, ob),
                            check_obstructed,
                        )
                    )
    return units


# ---------------------------------------------------------------------------
# schematic

EFFECTIVE = ("Z", "Q", "Zloc({q})", "real(1, pi)")
TOWER = "omega_tower(start={s})"
POLY = "poly_module(Zloc({q}), pi)"


def word_shapes(n: int) -> list[list[bool]]:
    """Length and tower positions of n words, the same for every seed.
    Length and tower count explain about 90% of the variance of a word's
    classification time, so fixing them keeps one pass's time from
    depending on the seed; the seed draws everything else."""
    rng = random.Random("schematic-shapes")
    return [[rng.randrange(6) == 0 for _ in range(rng.randint(1, 5))] for _ in range(n)]


def random_word(rng: random.Random, towers: list[bool]) -> str:
    """A tower where ``towers`` says, the other components drawn from the
    effective kinds and poly_module; a word left without a schematic
    component gets a poly_module in a random place."""
    kinds = [TOWER if t else rng.choice(EFFECTIVE + (POLY,)) for t in towers]
    if TOWER not in kinds and POLY not in kinds:
        kinds[rng.randrange(len(kinds))] = POLY
    comps = [k.format(q=rng.choice((2, 3, 5, 7)), s=rng.randint(0, 3)) for k in kinds]
    return "lex(" + ", ".join(comps) + ")"


def check_classification(report: dict) -> Verdict:
    """A cut both labeled and certified (status red-flag) is a wrong answer
    and fails the word.  A cut left undecided, with its RED FLAG note, is
    the program's own verdict (ROADMAP item 4): the word is flagged, so
    the share of such words is reported, not hidden."""
    bad = undecided_cuts(report)
    if not bad:
        return _ok()
    if any(row["status"] == "red-flag" for row in report["cuts"]):
        return Verdict(1, 1, detail=bad[0])
    return Verdict(1, 0, 1, bad[0])


def schematic_units(seed: int) -> list[Unit]:
    rng = random.Random(f"schematic:{seed}")
    units = []
    for towers in word_shapes(WORDS):
        word = random_word(rng, towers)
        G = groups.parse_group(word)
        units.append(
            Unit(
                word,
                lambda G=G: valuations.classification_report(G, seed=seed),
                check_classification,
            )
        )
    return units


WORKLOADS: dict[str, Callable[[int], list[Unit]]] = {
    "sweep": sweep_units,
    "reports": reports_units,
    "roots": roots_units,
    "schematic": schematic_units,
}
