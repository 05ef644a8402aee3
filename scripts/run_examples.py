#!/usr/bin/env python3
"""Print the canned classification reports for all four library groups.

Usage: python scripts/run_examples.py [--json] [name ...]

With no names, runs every example. Pass --json for the machine format
(the same bytes the golden files store).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from arclab.cli import EXAMPLES, main  # noqa: E402


def run(argv: list[str]) -> int:
    as_json = "--json" in argv
    names = [a for a in argv if not a.startswith("-")] or sorted(EXAMPLES)
    rc = 0
    for name in names:
        if name not in EXAMPLES:
            print(f"unknown example {name!r}; have {sorted(EXAMPLES)}", file=sys.stderr)
            return 2
        if not as_json:
            print(f"=== {name} ({EXAMPLES[name]}) ===")
        code = main(["examples", name] + (["--json"] if as_json else []))
        rc = rc or code
        if not as_json:
            print()
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
