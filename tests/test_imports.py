"""Every import is used, and every definition is: stdlib stand-ins for a
linter's unused-import and dead-code rules.

Imports are checked over src/arclab, tests and scripts; a name listed in
``__all__`` counts as used, since the module imports it to re-export it.
A definition in src/arclab (a top-level function, class or assigned name,
or a method, other than a dunder) must be referenced by name, attribute or import in
the program itself (src/arclab, scripts, perfbench), not only by tests.
``arclab/__init__.py``'s re-exports are not references: a name in
``arclab.__all__`` needs a program caller too, or a row in
PUBLIC_ENTRY_POINTS that says why library users need it, and a row stays
only while the name still lacks a caller.  A name that only
``perfbench/tracing.py``'s NAMED table lists is dead, since a traced
metric must not keep dead code alive; TRACER_ONLY exempts the three such
names there are today.

The standing rules are checked facts too: the sampler reaches no part of
the decision procedure, the decision procedure reaches no part of the
sampler, and the two ring tests do not reach each other."""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import importlib
import pathlib
import pkgutil

import pytest

import arclab

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src/arclab", "tests", "scripts")
PROGRAM = ("src/arclab", "scripts", "perfbench")


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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every top-level function, class and assigned name,
    and of every method, that is not a dunder."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (t.lineno, t.id) for t in targets if isinstance(t, ast.Name) and not _dunder(t.id)
            ]
        if isinstance(node, ast.ClassDef):
            out += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _dunder(item.name)
            ]
    return out


def references(source: str) -> set[str]:
    """Every name the module reads, reaches as an attribute or imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.name.split(".")[-1] for a in node.names}
    return out


# Tracer-only definitions: retiring each one drops its NAMED entry and its
# metrics, a change to the benchmark.
TRACER_ONLY = {
    "element": "ROADMAP item 7",
    "from_pairs": "ROADMAP item 7",
    "match_psi_p": "ROADMAP item 7",
}


def traced_names(source: str) -> set[str]:
    """The function and method names in the tracer's NAMED table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["NAMED"]:
            named = ast.literal_eval(node.value)
            return {fn.split(".")[-1] for fns in named.values() for fn in fns}
    raise AssertionError("perfbench/tracing.py has no NAMED table")


def test_checker_flags_a_dead_definition():
    source = "class A:\n    def __init__(self): pass\n    def used(self): pass\n"
    source += "    def dead(self): pass\ndef f(): return A().used()\ndef g(): pass\n"
    source += "__all__ = []\nLIVE = 1\nDEAD: int = LIVE\n"
    assert definitions(source) == [
        (1, "A"), (3, "used"), (4, "dead"), (5, "f"), (6, "g"), (8, "LIVE"), (9, "DEAD")
    ]
    used = references(source)
    assert {"A", "used", "LIVE"} <= used and not {"dead", "f", "g", "DEAD"} & used


# Public names with no program caller, kept for library users.
PUBLIC_ENTRY_POINTS = {
    "parse_series": "reads one series literal; the CLI reads series as bindings",
    "parse_cut": "names a cut in cut_name's spelling; the program builds its cuts",
    "build_psi_p": "builds psi_p at x; the program builds it inside phi_p",
}

INIT = "src/arclab/__init__.py"


def program_sources() -> dict[str, str]:
    """The program's sources by path relative to the repository."""
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def callers(sources: dict[str, str]) -> set[str]:
    """Every name the program references outside __init__.py's re-exports."""
    return set().union(*(references(src) for path, src in sources.items() if path != INIT))


def dead_names(sources: dict[str, str], exported: list[str]) -> list[str]:
    """The definitions of src/arclab and the exported names that nothing
    in the program calls."""
    used = callers(sources) | set(TRACER_ONLY) | set(PUBLIC_ENTRY_POINTS)
    found = [
        f"{path}:{line}: {name}"
        for path, src in sources.items()
        if path.startswith("src/arclab/")
        for line, name in definitions(src)
        if name not in used
    ]
    return found + [f"__all__ exports {name}" for name in exported if name not in used]


def test_no_dead_definitions():
    # an exemption stays only while the tracer still names it
    assert set(TRACER_ONLY) <= traced_names((ROOT / "perfbench/tracing.py").read_text())
    sources = program_sources()
    assert dead_names(sources, arclab.__all__) == []
    # a public entry point leaves the table once the program calls it
    assert set(PUBLIC_ENTRY_POINTS) <= set(arclab.__all__) - callers(sources)


def test_checker_flags_a_planted_export():
    # defined, re-exported and listed in __all__, yet called by nothing
    sources = program_sources()
    sources["src/arclab/convex.py"] = "def planted():\n    pass\n" + sources["src/arclab/convex.py"]
    sources[INIT] = "from .convex import planted\n" + sources[INIT]
    assert dead_names(sources, arclab.__all__ + ["planted"]) == [
        "src/arclab/convex.py:1: planted",
        "__all__ exports planted",
    ]


def test_a_word_is_the_only_dataclass():
    # A dataclass execs generated methods when its module is imported, which
    # every command pays; a record is a tuple (groups.record or a NamedTuple)
    # and costs one namedtuple call.  LexWord stays a dataclass: its cached
    # hash and cached slot layout live in an instance dict, which no tuple has.
    modules = [
        importlib.import_module(f"arclab.{m.name}") for m in pkgutil.iter_modules(arclab.__path__)
    ]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    ]
    assert found == ["arclab.groups.LexWord"]


# The standing rules: what each root may not reach. The evaluators stay
# independent so that each checks the other, and so do the ring tests.
STANDING_RULES = {
    "eval_sampled": ("eval_decidable", "decision_plan", "_plan*", "_validate_coset_params"),
    "decision_plan": ("eval_sampled", "_sampled", "_candidates"),
    "ring_member": ("_ring_member_cut",),
    "_ring_member_cut": ("ring_member",),
}


def program_definitions() -> dict[str, list[ast.AST]]:
    """Every top-level function, method and assigned name of src/arclab, by
    name; a name defined in several places maps to all of them."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted((ROOT / "src/arclab").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                items = [(n.name, n) for n in node.body if isinstance(n, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                items = [(node.name, node)]
            elif isinstance(node, ast.Assign):
                items = [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
            else:
                items = []
            for name, item in items:
                defs.setdefault(name, []).append(item)
    return defs


def reached(root: str, defs: dict[str, list[ast.AST]]) -> set[str]:
    """Every name or attribute the root's definition references, followed
    through the definitions of that name: an over-approximation of what a
    call of root can run."""
    seen, todo = {root}, [root]
    while todo:
        for item in defs.get(todo.pop(), ()):
            for node in ast.walk(item):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
    return seen


def rule_breaches(defs: dict[str, list[ast.AST]]) -> list[str]:
    return [
        f"{root} reaches {name}"
        for root, banned in STANDING_RULES.items()
        for name in sorted(reached(root, defs))
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in banned)
    ]


def test_standing_rules_hold():
    defs = program_definitions()
    assert set(STANDING_RULES) <= set(defs)
    assert rule_breaches(defs) == []


@pytest.mark.parametrize(
    "host, call",
    [
        ("_atom_verdict", "_plan_term"),  # the sampler's atoms share this verdict
        ("_sf_root_decision", "_candidates"),  # a plan's root tests decide here
        ("v_of", "_ring_member_cut"),
    ],
)
def test_a_planted_call_breaks_a_standing_rule(host, call):
    defs = program_definitions()
    defs[host] = defs[host] + [ast.parse(f"def {host}():\n    {call}()").body[0]]
    assert any(line.endswith(f" reaches {call}") for line in rule_breaches(defs))
