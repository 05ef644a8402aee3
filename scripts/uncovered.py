#!/usr/bin/env python3
"""List the lines of src/arclab that the gate never runs.

Usage: python scripts/uncovered.py

Runs the tier-1 gate (pytest over the repository's testpaths) in this
process under sys.settrace, installed before arclab is imported, and
prints every executable line of src/arclab that never ran.  A line is
executable when some code object compiled from the file maps an
instruction to it (co_lines, leaving out entries with no line or line 0).
Work done in a child process, such as a subprocess'd CLI call, is not seen.

KNOWN names the safety nets kept on purpose: lines no input reaches, but
whose loss would let a contradiction pass silently.  Each row is a file
under src/arclab and a source text that occurs in it exactly once; the
row covers every line that text spans.

Exits 0 when the gate passes, every missed line is covered by a KNOWN
row and every KNOWN row covers a missed line; 1 otherwise.  Takes about
two minutes on 2 CPUs.  Stdlib and pytest only.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arclab"

# (file under src/arclab, source text)
KNOWN = [
    # the certificate checks its pairs' high side against the level map: an
    # independent route that must say so when they disagree
    ("convex.py", 'raise InternalError("pair landed below the target cut; exponent bookkeeping is off")'),
    # choose_params trusts g_pn's level cut; a wrong cut yields too many cosets
    ("formulas.py", 'raise InternalError("coset count exceeds p^n; the level cut is wrong")'),
    # pth_root's guard: a correct Newton step cancels the defect's lead
    ("hahn.py", 'raise InternalError("a Newton step did not raise the defect\'s valuation")'),
    # the iteration caps of the geometric inverse and the exact root
    ("hahn.py", 'raise TruncationError("inverse support is not finite below the cutoff")'),
    ("hahn.py", 'raise TruncationError("root support exceeded the iteration cap; pass a cutoff")'),
    # differential_sweep's guard, match_phi_p's only program caller
    ("valuations.py", 'raise ShapeError("not a built ring formula")'),
    # debugging aids
    ("hahn.py", 'return f"HahnSeries<{print_series(self)}>"'),
    ("groups.py", 'return f"LexWord<{self.describe()}>"'),
    # code only the benchmark's tracer keeps alive (ROADMAP item 7)
    (
        "groups.py",
        'raise ShapeError(\n            f"expected {len(G.components)} coordinates, got {len(coords)}"\n        )',
    ),
    ("groups.py", 'raise ShapeError(f"expected {comp.rank} generator coordinates, got {len(vec)}")'),
    ("primes.py", 'raise ValueError(f"partition value must be a natural or INF, got {v!r}")'),
    # the module run as a script; the tests call cli.main
    ("cli.py", "sys.exit(main())"),
]


def executable_lines(path) -> set[int]:
    """Every line some code object compiled from path maps an instruction to."""
    todo = [compile(pathlib.Path(path).read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineCollector:
    """Records the lines run in files under `top` while active; the
    previous trace function comes back on exit."""

    def __init__(self, top):
        self.prefix = str(pathlib.Path(top).resolve()) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, object] = {}

    def _tracer_for(self, filename: str):
        if not filename.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._tracers[filename]
        except KeyError:
            local = self._tracers[filename] = self._tracer_for(filename)
        if local is not None:
            local(frame, "line", arg)  # the call itself runs the def line
        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def missed(self, path) -> list[int]:
        path = str(pathlib.Path(path).resolve())
        return sorted(executable_lines(path) - self.hits.get(path, set()))


def known_spans() -> list[tuple[str, range]]:
    """The (file, lines) each KNOWN row covers."""
    spans = []
    for name, text in KNOWN:
        source = (PACKAGE / name).read_text()
        start = source[: source.index(text)].count("\n") + 1
        spans.append((name, range(start, start + text.count("\n") + 1)))
    return spans


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    with LineCollector(PACKAGE) as collector:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    if status != 0:
        print(f"the gate failed (pytest exit {int(status)}); coverage not judged")
        return 1
    spans = known_spans()
    used = [False] * len(spans)
    bad = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        source = path.read_text().splitlines()
        for line in collector.missed(path):
            rows = [i for i, (f, span) in enumerate(spans) if f == name and line in span]
            for i in rows:
                used[i] = True
            if not rows:
                bad += 1
                print(f"src/arclab/{name}:{line}: {source[line - 1].strip()}")
    for (name, span), hit in zip(spans, used):
        if not hit:
            bad += 1
            print(f"KNOWN row src/arclab/{name}:{span.start} covers no missed line")
    print(f"{bad} unexplained" if bad else "every missed line is a KNOWN safety net")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
