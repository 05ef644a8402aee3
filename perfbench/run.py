"""arclab benchmark: one workload, one seed, one result line.

Usage:
    python3 perfbench/run.py --workload sweep|reports|roots|schematic \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The loop is closed with a single caller: one
process at a time, one thread, the next pass only after the previous one
ended.  Every pass runs in a fresh interpreter (child.py) so it starts cold,
as a user's command does.

--trace 0: a few set-up-only interpreters, then passes until --seconds is
spent.  Prints the end-to-end metrics of BENCHMARK.json: setup_s (median
set-up over all interpreters), wall_s (median pass), peak_rss_mb (median
peak RSS of the pass processes).

--trace 1: one untraced pass, then two traced passes with the same seed,
whatever --seconds says.
Prints the per-layer metrics of BENCHMARK.json from the first traced pass;
trace.overhead_s is the median traced wall time minus the untraced one.
The two traced passes must make exactly the same calls, or the run is
marked incorrect.  The first traced pass's spans go to
.bench_out/spans-<workload>.bin (format: tracing.Tracer.write).

The last line of standard output is the JSON result; the line before it
summarises the run: fail_ratio, flag_ratio (items the program itself
declares undecided, see workloads.check_classification), unit-call latency
median and tail.  Exit 0
when a result was printed, 1 when a pass crashed or timed out, 2 when
arclab's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_ONLY = 15  # set-up-only interpreters before the timed passes
BUDGET_S = 170  # hard limit on one run, children included


class BenchError(Exception):
    pass


def run_child(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(CHILD), args.workload, str(args.seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before a {mode} pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded the {BUDGET_S}s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(lat: list[float]) -> tuple[float, float] | None:
    """(q, value): the highest of p99.9, p99, p95, p90 and p75 with at least
    ten calls beyond it, nearest-rank; None when none has."""
    xs = sorted(lat)
    n = len(xs)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1]
    return None


def summary(args, passes: list[dict], attempted: int, failed: int, flagged: int) -> str:
    """fail_ratio, flag_ratio, and unit-call latency where a pass has at
    least 11 unit calls; latencies come from untraced passes only."""
    plain = [p for p in passes if "metrics" not in p]
    line = (
        f"{args.workload} seed={args.seed} passes={len(passes)} "
        f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted}) "
        f"flag_ratio={flagged / attempted:.4f} ({flagged}/{attempted}) "
        f"wall_s={[round(p['wall_s'], 3) for p in passes]} "
        f"raw_wall_s={[round(p['wall_raw_s'], 3) for p in passes]}"
    )
    if len(plain[0]["lat_ms"]) >= 11:
        lat = [x for p in plain for x in p["lat_ms"]]
        line += f" call_p50_ms={statistics.median(lat):.3f}"
        if (t := tail(lat)) is not None:
            line += f" call_tail_ms={t[1]:.3f} (p{t[0]:g})"
        line += f" n={len(lat)}"
    return line


def untraced(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY)]
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(run_child(args, "pass", deadline))
        spent, last = time.monotonic() - begin, time.monotonic() - t
        if spent + last > args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return metrics, passes


def traced(args, deadline: float) -> tuple[dict, list[dict], str | None]:
    OUT_DIR.mkdir(exist_ok=True)
    plain = run_child(args, "pass", deadline)
    first = run_child(args, "trace", deadline, OUT_DIR / f"spans-{args.workload}.bin")
    second = run_child(args, "trace", deadline)
    metrics = dict(first["metrics"])
    metrics["trace.overhead_s"] = statistics.median([first["wall_s"], second["wall_s"]]) - plain["wall_s"]
    differ = [
        k
        for k in metrics
        if k.endswith(".calls") and first["metrics"][k] != second["metrics"][k]
    ]
    problem = f"call counts differ between two traced passes: {differ[:5]}" if differ else None
    return metrics, [plain, first, second], problem


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "arclab" / "__init__.py").is_file():
        print(f"error: arclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            metrics, passes, problem = traced(args, deadline)
        else:
            (metrics, passes), problem = untraced(args, deadline), None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    flagged = sum(p["flagged"] for p in passes)
    for d in dict.fromkeys(d for p in passes for d in p["details"]):
        print(d, file=sys.stderr)
    if problem:
        print(f"error: {problem}", file=sys.stderr)

    print(summary(args, passes, attempted, failed, flagged))
    result = {
        "correct": failed == 0 and problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
