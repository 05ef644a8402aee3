"""Record a baseline: every workload on every seed, plus one traced run each.

Usage (from the repository root):
    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs are sequential, one run.py at a time, each for BENCHMARK.json's
run_seconds.  For each workload and end-to-end metric it records the ten
values (one per seed of SEEDS), their median and their spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, which must
stay within the metric's bound.  The traced run at the first seed adds the
per-layer metrics.  Also records the interpreter, CPU count and model, and
the commit when run inside a git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8, 9)  # seed 7919 is held out


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    summary, result = proc.stdout.splitlines()[-2:]
    return summary, json.loads(result)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    workloads = {}
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            summary, result = bench(w, seed, seconds, 0)
            print(summary, flush=True)
            runs.append({"seed": seed, "summary": summary, **result})
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {
                "unit": m["unit"],
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": m["bound"],
                "values": values,
            }
        summary, traced = bench(w, SEEDS[0], seconds, 1)
        print(summary, flush=True)
        workloads[w] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "runs": [r["summary"] for r in runs],
            "traced": {
                "seed": SEEDS[0],
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }

    out = {
        "environment": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "commit": commit(),
        },
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
