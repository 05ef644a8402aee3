#!/usr/bin/env python3
"""Plant known mutants in a copy of the repository and run the tests on each.

Usage: python scripts/mutants.py [--row N ...] [PYTEST_ARG ...]

Each row of MUTANTS names a file, a text that occurs in it exactly once,
the text that replaces it, and why the mutant matters.  For each row the
repository (without .git and caches) is copied to a temporary directory,
the row is applied there, and pytest runs on the copy under a TIMEOUT_S
timeout, stopping at the first failure; the PYTEST_ARGs replace the
default ones.  The copy leaves out tests/test_mutants.py, which checks
this table against the unmutated tree.
The repository itself is never changed.

Prints one line per row: killed (pytest failed), survived (pytest passed),
timed out, or broken (the old text is not in the file exactly once, or
the PYTEST_ARGs ran no test).
Exits 0 when every row was killed, 1 otherwise.  Stdlib only.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file, old text, new text, reason)
MUTANTS = [
    (
        "src/arclab/hahn.py",
        "c = ca + cb",
        "c = ca",
        "series_add's merge keeps a's coefficient where exponents are equal",
    ),
    (
        "src/arclab/hahn.py",
        "if s < 0:",
        "if s <= 0:",
        "series_add's merge takes a's term first on equal exponents, leaving a repeat",
    ),
    (
        "src/arclab/hahn.py",
        "if elem_cmp(G, e, trunc) >= 0:\n                return HahnSeries(G, tuple(terms[:k]), trunc)",
        "if elem_cmp(G, e, trunc) > 0:\n                return HahnSeries(G, tuple(terms[:k]), trunc)",
        "_cut keeps a term lying exactly at the truncation",
    ),
    (
        "src/arclab/hahn.py",
        "return _cut(G, z.terms, _min_trunc(G, limit, cutoff))",
        "return _cut(G, z.terms, cutoff if cutoff is not None else limit)",
        "pth_root claims precision up to the cutoff that a truncated input lacks",
    ),
    (
        "src/arclab/hahn.py",
        "return lo if lo**p == n else None",
        "return lo",
        "_int_nth_root returns a rounded root of a non-power as exact",
    ),
    (
        "src/arclab/convex.py",
        "acc = acc.add(segment_exponent_map(G, chain[i + 1], chain[i]))",
        "acc = acc.add(segment_exponent_map(G, chain[-1], chain[i]))",
        "the chain table's scan adds each cut's suffix from Bottom, not its segment from the deeper neighbour",
    ),
    (
        "src/arclab/convex.py",
        "return tower.tail_exponent_map(lo + 1)",
        "return PartitionMap(0)",
        "the scan drops the tower tail below a tower's deepest materialised inner cut",
    ),
    (
        "src/arclab/convex.py",
        "if plain[k].value_at(p) > n:",
        "if plain[k].value_at(p) >= n:",
        "g_pn stops at the first component whose suffix exponent reaches n instead of passing it",
    ),
    (
        "src/arclab/convex.py",
        "units = units[:-1]",
        "units = units",
        "is_p_regular no longer exempts the deepest unit of the segment",
    ),
    (
        "src/arclab/convex.py",
        "return units, not tail",
        "return units, True",
        "_segment_units reports a deepest unit for a segment that ends in a tower tail",
    ),
    (
        "src/arclab/primes.py",
        "primes = {p for m in maps for p, _ in m.exceptions}",
        "primes = {p for m in maps for p, _ in m.exceptions} | {2}",
        "common_pieces keeps the prime 2 as a finite piece where its tuple equals the default",
    ),
    (
        "src/arclab/formulas.py",
        "num = series_sub(series_mul(a.num, b.den), series_mul(b.num, a.den))",
        "num = series_add(series_mul(a.num, b.den), series_mul(b.num, a.den))",
        "eval_term computes a difference as a sum",
    ),
    (
        "src/arclab/formulas.py",
        "if not (a.defined and b.defined):\n            return (False, True)",
        "if not (a.defined and b.defined):\n            return (True, True)",
        "an atom over a division by zero is true instead of false",
    ),
    (
        "src/arclab/formulas.py",
        "not zero or diff.trunc is None)",
        "True)",
        "an atom whose difference hides below a truncation counts as certain",
    ),
    (
        "src/arclab/formulas.py",
        "if not sf.defined:\n            return True",
        "if not sf.defined:\n            return False",
        "the decided coset clause is false at an undefined argument",
    ),
    (
        "src/arclab/formulas.py",
        "_nodes(f, _is_constant_term)",
        "_nodes(f)",
        "the witness grid takes the monomial inside a zero multiple 0*t^g as a constant",
    ),
    (
        "src/arclab/formulas.py",
        "    try:\n        a, b = left(env), right(env)\n"
        "        if not (a.defined and b.defined):\n            return (False, True)\n",
        "    a, b = left(env), right(env)\n"
        "    if not (a.defined and b.defined):\n        return (False, True)\n    try:\n",
        "a product a truncation hides in one side of an atom ends the sampled search",
    ),
    (
        "src/arclab/hahn.py",
        "scalar_mul(G, k - 1, _lead(a))",
        "scalar_mul(G, k, _lead(a))",
        "series_pow truncates a truncated base's power at k*v(a) past a.trunc, not (k-1)*v(a)",
    ),
    (
        "src/arclab/hahn.py",
        "den = C**k",
        "den = C ** (k - 1)",
        "series_pow divides a power's coefficients by C**(k-1) instead of C**k",
    ),
    (
        "src/arclab/hahn.py",
        "if k == 1 or a.is_zero() or _is_one(G, a):\n        return a",
        "if k == 1 or a.is_zero() or _is_one(G, a):\n        return one_series(G)",
        "series_pow's first-power and exact-1 shortcut returns the exact 1",
    ),
    (
        "src/arclab/groups.py",
        "if q == p and a[i].numerator % q:",
        "if q == p and a[i] % q:",
        "elem_p_divisible reads a Zloc(q) slot as an integer at p = q",
    ),
    (
        "src/arclab/cli.py",
        '1 if r["mismatches"] else 0',
        "0",
        "verify phi-pn exits 0 with mismatches printed",
    ),
    (
        "src/arclab/cli.py",
        '0 if t["consistent"] else 1',
        "0",
        "verify thm26 exits 0 on an inconsistent report",
    ),
    (
        "src/arclab/formulas.py",
        "        try:\n            sf = eval_term(G, u, env)\n        except TruncationError:"
        "  # a product the truncation hides: so is the test\n            return _SV(None, False)\n",
        "        sf = eval_term(G, u, env)\n",
        "the sampler's root test lets a product the truncation hides in its argument end the run",
    ),
    (
        "src/arclab/valuations.py",
        'if out.status == "falsified_by":',
        "if False:",
        "the sweep never reports a sampled falsification of a stability clause decided true",
    ),
    (
        "src/arclab/cli.py",
        "bad.append(f\"differential p={d['p']} n={d['n']}: {len(d['mismatches'])} mismatches\")",
        "pass",
        "a report with differential mismatches exits 0",
    ),
    (
        "src/arclab/cli.py",
        'bad.append("thm26 conditions disagree")',
        "pass",
        "a report whose thm26 conditions disagree exits 0",
    ),
    (
        "src/arclab/valuations.py",
        'status = "red-flag"',
        "pass",
        "a labeled cut that also carries a certificate keeps the status definable",
    ),
    (
        "src/arclab/formulas.py",
        "        return _on_first_reach(kept)",
        "        return kept()",
        "a plan evaluates a closed subterm when it is built, not when evaluation reaches it",
    ),
    (
        "src/arclab/formulas.py",
        "return functools.partial(_read, t.name)",
        "return lambda env: env[t.name]",
        "a compiled variable raises KeyError, not UnboundVariableError, when unbound",
    ),
    (
        "src/arclab/formulas.py",
        "return lambda env: _sf_neg(arg(env))",
        "return lambda env: arg(env)",
        "a compiled negation drops the sign",
    ),
    (
        "src/arclab/formulas.py",
        "if any(combo) else _ONE",
        "if True else _ONE",
        "choose_params builds the zero exponent as the monomial t^0, not the shared 1",
    ),
    (
        "src/arclab/formulas.py",
        "return out + [_ONE] * (size - len(out))",
        "return out",
        "choose_params drops the padding with 1 up to p^n parameters",
    ),
    (
        "src/arclab/formulas.py",
        "    _require_effective(G)\n    cut = g_pn(G, p, n)",
        "    cut = g_pn(G, p, n)",
        "choose_params picks coset exponents over a schematic group",
    ),
    (
        "src/arclab/formulas.py",
        'if n is None:\n        raise ParameterError(f"parameter count',
        'if False:\n        raise ParameterError(f"parameter count',
        "a coset clause whose parameter count is no power of p is not refused",
    ),
    (
        "src/arclab/formulas.py",
        "except UnboundVariableError as exc:\n            raise ParameterError",
        "except ZeroDivisionError as exc:\n            raise ParameterError",
        "an open coset parameter escapes as an unbound variable, not a ParameterError",
    ),
    (
        "src/arclab/formulas.py",
        'if not sf.defined or sf.num.is_zero():\n            raise ParameterError("parameters',
        'if not sf.defined:\n            raise ParameterError("parameters',
        "a zero coset parameter is not refused",
    ),
    (
        "src/arclab/formulas.py",
        "if not _in_cut_subgroup(G, v, cut):",
        "if False:",
        "a coset parameter whose exponent escapes the level-n subgroup is not refused",
    ),
    (
        "src/arclab/formulas.py",
        'def not_a_formula(env) -> bool:\n        raise ShapeError(f"not a formula: {f!r}")',
        "def not_a_formula(env) -> bool:\n        return False",
        "a plan decides a node that is no formula as false",
    ),
    (
        "src/arclab/formulas.py",
        'def not_a_term(env):\n            raise ShapeError(f"not a term: {t!r}")',
        "def not_a_term(env):\n            return _undef(G)",
        "a plan evaluates a node that is no term as an undefined fraction",
    ),
    (
        "src/arclab/formulas.py",
        'if op is None:\n        raise ShapeError(f"not a term: {t!r}")',
        "if op is None:\n        return _undef(G)",
        "eval_term evaluates a node that is no term as an undefined fraction",
    ),
    (
        "src/arclab/formulas.py",
        'if not isinstance(f, (Exists, Forall)):\n        raise ShapeError(f"not a formula: {f!r}")',
        "if not isinstance(f, (Exists, Forall)):\n        return _SV(False, True)",
        "the sampler judges a node that is no formula as false",
    ),
    (
        "src/arclab/hahn.py",
        "eff = _min_trunc(G, eff, elem_sub(G, a.trunc, scalar_mul(G, 2, v)))",
        "eff = eff",
        "series_invert claims the requested cutoff's precision for a truncated input",
    ),
    (
        "src/arclab/formulas.py",
        'if kind != "name" or name in _KEYWORDS or name in _MACROS:',
        "if False:",
        "a quantifier binds a numeral",
    ),
    (
        "src/arclab/formulas.py",
        'if params is not None:\n                self.fail(f"{name} takes no params", pos)',
        'if False:\n                self.fail(f"{name} takes no params", pos)',
        "psi_p and phi_p drop the params they were given",
    ),
    (
        "src/arclab/formulas.py",
        "if len(params) != size:",
        "if False:",
        "phi_pn takes explicit params that are not p^n in number",
    ),
    (
        "src/arclab/formulas.py",
        "if rhs.value == 0:",
        "if False:",
        "the parser divides a constant by the zero constant",
    ),
    (
        "src/arclab/formulas.py",
        'if n < 1:\n            self.fail("exponent must be >= 1")',
        'if False:\n            self.fail("exponent must be >= 1")',
        "the parser takes a power with exponent 0",
    ),
    (
        "src/arclab/formulas.py",
        "        try:\n            num = eval_term(G, t, {}).num\n        except ShapeError:\n            continue\n",
        "        num = eval_term(G, t, {}).num\n",
        "the witness grid lets a formula constant that fits no exponent end the run",
    ),
    (
        "src/arclab/formulas.py",
        "        try:\n            sf = eval_term(G, u, env)\n        except TruncationError:\n            continue\n",
        "        sf = eval_term(G, u, env)\n",
        "the witness grid lets a root target the truncation hides end the run",
    ),
    (
        "src/arclab/convex.py",
        "if cut_name(G, cut) != name:",
        "if False:",
        "parse_cut takes a spelling cut_name does not write, such as seg0 for top",
    ),
    (
        "src/arclab/convex.py",
        "if not (0 <= c.seg <= len(G.components)):",
        "if False:",
        "validate_cut takes a cut index past the bottom",
    ),
    (
        "src/arclab/convex.py",
        "if c.inner < 0:",
        "if False:",
        "validate_cut takes a negative inner offset",
    ),
    (
        "src/arclab/convex.py",
        "if c.inner and (c.seg >= len(G.components) or not isinstance(G.components[c.seg], OmegaTower)):",
        "if False:",
        "validate_cut takes an inner cut of a component that is no tower",
    ),
    (
        "src/arclab/valuations.py",
        "return elem_cmp(G, masked, zero) >= 0",
        "return elem_cmp(G, masked, zero) > 0",
        "ring_member leaves out elements whose exponent falls into the convex subgroup",
    ),
    (
        "src/arclab/valuations.py",
        "masked = v_of(a)[:k] + zero[k:]",
        "masked = v_of(a)",
        "ring_member reads the whole exponent instead of its part above the cut",
    ),
    (
        "src/arclab/valuations.py",
        "    if a.is_zero():\n        return True\n    G = a.group",
        "    G = a.group",
        "ring_member asks zero for its valuation instead of taking it into every ring",
    ),
    (
        "src/arclab/valuations.py",
        "validate_cut(a.group, c)",
        "pass",
        "ring_member takes a cut that is not a cut of the series' group",
    ),
    (
        "src/arclab/formulas.py",
        "range(p) if i in coset else (0,)",
        "range(p) if i in coset else range(p)",
        "choose_params gives a p-divisible slot p coset exponents, past p^n in all",
    ),
    (
        "src/arclab/formulas.py",
        'if n < 0:\n        raise ShapeError("level must be a natural")',
        'if False:\n        raise ShapeError("level must be a natural")',
        "phi_pn takes a negative level",
    ),
    (
        "src/arclab/hahn.py",
        "if cutoff is None and a.trunc is None:",
        "if False:",
        "series_invert expands an exact non-monomial without a cutoff",
    ),
    (
        "src/arclab/groups.py",
        "return self._hash",
        "return id(self)",
        "a word hashes by identity, so two parses of one text are two cache keys",
    ),
    (
        "src/arclab/groups.py",
        "return self._hash",
        "return hash(self.components)",
        "a word hashes its components again on every lookup",
    ),
    (
        "src/arclab/formulas.py",
        "slot = _coerce_slot(kind, neg[j] + step)",
        "slot = neg[j] + step",
        "the witness grid's per-slot shifts skip the slot's coercion, so an int slot takes a half step",
    ),
    (
        "src/arclab/groups.py",
        "if q == p and a[i].numerator % q:",
        "if a[i].numerator % q:",
        "elem_p_divisible tests a Zloc(q) slot at every prime, not only at p = q",
    ),
    (
        "src/arclab/hahn.py",
        "D = p * lcm(",
        "D = lcm(",
        "pth_root scales exponents by the lcm of a's denominators without the factor p that v/p needs",
    ),
    (
        "src/arclab/hahn.py",
        "(lead is None or below(e, lead))",
        "(lead is None or below(lead, e))",
        "pth_root reads the defect's largest exponent instead of its leading one",
    ),
    (
        "src/arclab/hahn.py",
        "(trunc is None or below(e, trunc))",
        "True",
        "pth_root reads a defect term at or above a.trunc, which the input does not know",
    ),
    (
        "src/arclab/hahn.py",
        "defect = {e: c * scale for e, c in a_ints}",
        "defect = {e: c for e, c in a_ints}",
        "pth_root subtracts z**p from a without bringing a's coefficients over z's denominator",
    ),
    (
        "src/arclab/convex.py",
        "straddle_ok = hi < c and",
        "straddle_ok = hi <= c and",
        "the certificate's re-check passes a pair whose high side lies on the target cut",
    ),
    (
        "src/arclab/convex.py",
        'return "per-prime" if cut.inner else cut_name(G, cut)',
        "return cut_name(G, cut)",
        "a certificate piece names its smallest prime's tower-inner side instead of per-prime",
    ),
    (
        "src/arclab/valuations.py",
        '"certificate": cert or ("none" if labeled else "undecided")',
        '"certificate": "none" if labeled else cert or "undecided"',
        "a red-flag row writes none instead of the certificate that contradicts its label",
    ),
]

TIMEOUT_S = 300
DEFAULT_PYTEST = ["-x", "-q", "-p", "no:cacheprovider"]
# The table's own check (tests/test_mutants.py) fails in every mutated copy,
# since the row's old text is gone there, so it would count each row killed.
IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out", "test_mutants.py"
)


def occurrences(row) -> int:
    path, old, _, _ = row
    return (ROOT / path).read_text().count(old)


def run_row(row, pytest_args: list[str]) -> str:
    path, old, new, _ = row
    if occurrences(row) != 1:
        return "broken"
    with tempfile.TemporaryDirectory(prefix="arclab-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *pytest_args],
                cwd=copy,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    if proc.returncode == 0:
        return "survived"
    # pytest's exit 4 is a usage error and 5 means no test was collected
    return "broken" if proc.returncode in (4, 5) else "killed"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument(
        "--row",
        type=int,
        action="append",
        choices=range(1, len(MUTANTS) + 1),
        metavar="N",
        help=f"1-based row index, 1..{len(MUTANTS)} (repeatable)",
    )
    args, pytest_args = ap.parse_known_args(argv)
    rows = args.row or range(1, len(MUTANTS) + 1)
    all_killed = True
    for k in rows:
        row = MUTANTS[k - 1]
        start = time.monotonic()
        outcome = run_row(row, pytest_args or DEFAULT_PYTEST)
        all_killed &= outcome == "killed"
        print(f"{k:2d} {outcome:9s} {time.monotonic() - start:6.1f}s  {row[0]}: {row[3]}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
