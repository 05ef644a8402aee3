"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/child.py <workload> <seed> setup|pass|trace [spans-file]

``setup`` stops after set-up.  ``pass`` times each unit call with tracing
off.  ``trace`` runs the same pass with the tracer installed, reports the
per-layer metrics and, given a spans file, writes the spans there.  Outputs
are checked after the pass, with tracing off.  run.py starts this script;
every pass gets a process of its own, so each starts with cold caches, as a
user's ``arclab`` command does.

Machine speed.  On a shared host the same pass can take half again as long
from one minute to the next.  So every REF_EVERY_S of wall time a timer
signal interrupts the work and times a fixed slice of pure-Python work
(stdlib only, no arclab code).  Slice time is taken out of every timing it
interrupted, and every time reported is the remaining time multiplied by
REF_SLICE_S / (mean slice): seconds at the speed where one slice takes
REF_SLICE_S.  (The median slice tracked worse: slice times cluster in two
modes, and the median jumps between them.)  The raw times are reported
alongside.  The garbage collector is off during a slice, so a collection
that arclab's allocations have made due runs in arclab's code and is
charged there.

Set-up time starts before any module that arclab also imports is loaded
here: this script imports only sys, os, gc, signal and time before it, and
json and resource after the pass.
"""

import gc
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_SLICE_S = 0.002  # nominal duration of one reference slice
REF_EVERY_S = 0.02  # wall time between two slices
REF_MIN_SLICES = 5


def reference_slice() -> float:
    """Seconds taken by a fixed mix of the work arclab does: integer
    arithmetic, tuples, sorting and dict stores; builtins only."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc, d = 0, {}
        for i in range(1, 2000):
            acc = (acc * 31 + i % 7 + 1) % 1000003
            d[(i % 97, i % 13)] = tuple(sorted((acc % 11, i % 3, i % 5)))
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Runs reference slices on a timer signal while started."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.tracer = None  # told about each slice, to keep it out of span self time

    def _tick(self, signum, frame) -> None:
        dt = reference_slice()
        self.slices.append(dt)
        if self.tracer is not None:
            self.tracer.pause(dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sliced(self, since: int) -> float:
        """Slice time from slice number ``since`` on."""
        return sum(self.slices[since:])

    def scale(self) -> float:
        while len(self.slices) < REF_MIN_SLICES:
            self.slices.append(reference_slice())
        return REF_SLICE_S * len(self.slices) / sum(self.slices)


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    speed = Speedometer()
    speed.start()
    try:
        t0 = time.perf_counter()
        import workloads  # imports arclab

        units = workloads.WORKLOADS[workload](seed)
        setup = time.perf_counter() - t0 - speed.sliced(0)
        import json

        if mode == "setup":
            speed.stop()
            scale = speed.scale()
            print(json.dumps({"setup_s": setup * scale, "setup_raw_s": setup, "scale": scale}))
            return 0

        tracer = None
        if mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            speed.tracer = tracer
        results, lat = [], []
        clock = time.perf_counter
        try:
            for i, u in enumerate(units):
                if tracer is not None:
                    tracer.unit_id = i
                n = len(speed.slices)
                t = clock()
                results.append(u.call())
                lat.append(clock() - t - speed.sliced(n))
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        speed.stop()
    scale = speed.scale()
    wall = sum(lat)
    import resource

    verdicts = [u.check(r) for u, r in zip(units, results)]
    attempted = sum(v.attempted for v in verdicts)
    flagged = sum(v.flagged for v in verdicts)
    out = {
        "setup_s": setup * scale,
        "setup_raw_s": setup,
        "wall_s": wall * scale,
        "wall_raw_s": wall,
        "scale": scale,
        "lat_ms": [x * scale * 1e3 for x in lat],
        "attempted": attempted,
        "failed": sum(v.failed for v in verdicts),
        "flagged": flagged,
        "details": [
            f"{'failed' if v.failed else 'flagged'}: {u.label}: {v.detail}"
            for u, v in zip(units, verdicts)
            if v.failed or v.flagged
        ][:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["metrics"] = tracer.metrics(wall, scale)
        out["metrics"]["valuations.classification_report.flagged_share"] = flagged / attempted
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
