"""Every import is used: a stdlib stand-in for a linter's unused-import rule
over src/arclab, tests and scripts.  A name listed in ``__all__`` counts as
used, since the module imports it to re-export it."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src/arclab", "tests", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport re as regex\nfrom json import dumps, loads\n"
    source += "__all__ = ['loads']\nprint(regex.escape(''))\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
