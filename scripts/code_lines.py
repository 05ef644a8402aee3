#!/usr/bin/env python3
"""Count the code lines of src/arclab, module by module.

Usage: python scripts/code_lines.py [DIR]

A code line is a physical line that holds part of a token other than a
comment or a docstring: blank lines, comment lines and docstrings do not
count, and a statement spread over several lines counts each of them.  A
docstring is a string that makes up a statement on its own.  Prints one
line per module (lines, then the path relative to DIR) and the total.
"""

import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# tokens that end or indent a statement; a string between two of them is
# a statement of its own, and so a docstring
_BOUNDARY = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_NOT_CODE = _BOUNDARY | {tokenize.NL, tokenize.COMMENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    toks = [
        t
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in (tokenize.NL, tokenize.COMMENT)
    ]
    lines = set()
    for i, tok in enumerate(toks):
        if tok.type in _NOT_CODE:
            continue
        if (
            tok.type == tokenize.STRING
            and (i == 0 or toks[i - 1].type in _BOUNDARY)
            and toks[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    top = pathlib.Path(argv[0]) if argv else ROOT / "src" / "arclab"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.relative_to(top)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
