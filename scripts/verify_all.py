#!/usr/bin/env python3
"""Run the whole verification battery from the command line.

Usage: python scripts/verify_all.py [--samples N] [--seed S]

Covers: the ring-formula differential on the five effective groups for
p in {2, 3, 5}; the level-n differentials where levels exist; the
three-way residue equivalence on every library group; and the example
reports against their golden files. Every block runs; each prints what
broke, and the exit code is 1 when any block failed.
"""

import argparse
import io
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arclab.cli import EXAMPLES, main as cli_main  # noqa: E402
from arclab.groups import parse_group  # noqa: E402
from arclab.valuations import differential_sweep, verify_thm_defblRCF  # noqa: E402

POOL = ["lex(Z, Q)", "lex(Z, Z)", "lex(real(1, pi))", "lex(Zloc(2), Q)", "lex(Q)"]
LEVELED = {"lex(Z, Q)": {2: 1, 3: 1}, "lex(real(1, pi))": {2: 2, 3: 2}}
GOLDEN = ROOT / "tests" / "golden"


def run(samples: int, seed: int) -> int:
    t0 = time.time()
    bad = 0

    for dsl in POOL:
        G = parse_group(dsl)
        for r in differential_sweep(G, [(p, 0) for p in (2, 3, 5)], samples=samples, seed=seed):
            mark = "ok" if not r["mismatches"] else f"{len(r['mismatches'])} MISMATCHES"
            print(f"differential {dsl:20s} p={r['p']}: {r['checked']} points, {mark}")
            bad += bool(r["mismatches"])

    for dsl, levels in LEVELED.items():
        cells = [(p, n) for p, n_max in levels.items() for n in range(1, n_max + 1)]
        for r in differential_sweep(parse_group(dsl), cells, samples=samples, seed=seed):
            mark = "ok" if not r["mismatches"] else "MISMATCHES"
            print(f"differential {dsl:20s} p={r['p']} n={r['n']}: {mark}")
            bad += bool(r["mismatches"])

    for name, dsl in sorted(EXAMPLES.items()):
        rep = verify_thm_defblRCF(parse_group(dsl))
        mark = "ok" if rep["consistent"] else "INCONSISTENT"
        print(f"equivalence {name}: {rep} {mark}")
        bad += not rep["consistent"]

    for name in sorted(EXAMPLES):
        buf = io.StringIO()
        code = cli_main(["examples", name, "--json"], out=buf)
        want = (GOLDEN / f"{name}.json").read_text()
        same = code == 0 and buf.getvalue() == want
        print(f"golden {name}: {'ok' if same else 'DRIFT'}")
        bad += not same

    print(f"done in {time.time() - t0:.1f}s, {bad} failing block(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ns = ap.parse_args()
    sys.exit(run(ns.samples, ns.seed))
