"""Command-line front end.

Subcommands
    group analyze <dsl>          full classification report for one group
    valuations list <dsl>        just the definable coarsenings and markers
    formula decide ...           decide a formula at explicit bindings
    formula sample ...           search a formula's quantifiers on samples
    verify phi-pn|thm26          the individual verification suites
    examples k1|k2|zpluspi|c0    canned reports for the library fields

One input path: `_COMMANDS` gives each command its words, the arguments
its body reads, its help line and its body, and `_ARGS` gives each
argument's argparse keywords once.  `build_parser`, built once per
process, registers exactly a command's arguments and --json, so a flag
its body does not read exits 2.

One output path: each subcommand body returns its payload (what --json
prints), its text lines and its exit code, and the classification report
also its FAIL: lines.  `main` alone prints: the payload as JSON or the
lines as text, then the FAIL: lines to stderr, then returns the code.

Exit codes: 0 clean, 1 verification mismatch or red flag, 2 usage or
parse error.  Unsupported quantifier shapes under `formula decide` count
as usage errors (the command asked for a decision procedure that does not
cover the formula), so they exit 2 as well.  So does a `formula` command
whose bindings are truncated too coarsely to settle an atom or a product
(TruncationError): the input, not a verification, is at fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from typing import NamedTuple

from .convex import cut_name, max_divisible, max_p_divisible
from .errors import (
    ArclabError,
    DslSyntaxError,
    NonEffectiveError,
    ParameterError,
    ShapeError,
    TruncationError,
    UnboundVariableError,
    UnsupportedQuantifierPattern,
)
from .formulas import eval_decidable, eval_sampled, parse_formula
from .groups import _SPACE, _Tokens, is_prime, parse_group, print_group
from .hahn import parse_bindings, print_series
from .valuations import (
    classification_report,
    definable_rows,
    differential_verify,
    verify_thm_defblRCF,
)

EXAMPLES = {
    "k1": "lex(Z, Q)",
    "k2": "lex(omega_tower(start=0))",
    "zpluspi": "lex(real(1, pi))",
    "c0": "lex(poly_module(Zloc(2), pi))",
}


# ---------------------------------------------------------------------------
# small rendering helpers (text mode)


def _fmt_label_entry(e: dict) -> str:
    pr = e["primes"]
    if "cofinite_excluding" in pr:
        excl = pr["cofinite_excluding"]
        who = "all primes" if not excl else "all primes except " + ",".join(map(str, excl))
    else:
        who = "p in {" + ",".join(map(str, pr["finite"])) + "}"
    lo, hi = e["n_min"], e["n_max"]
    if hi == "unbounded":
        lv = f"levels >= {lo}"
    elif hi == lo:
        lv = f"level {lo}"
    else:
        lv = f"levels {lo}..{hi}"
    return f"{who}, {lv}"


def _fmt_np(np_table: dict) -> str:
    shown = ", ".join(f"p={p}: {v}" for p, v in sorted(np_table["display"].items(), key=lambda kv: int(kv[0])))
    pieces = []
    for piece in np_table["pieces"]:
        pr = piece["primes"]
        if "cofinite_excluding" in pr:
            excl = pr["cofinite_excluding"]
            who = "all other primes" if excl else "all primes"
        else:
            who = "{" + ",".join(map(str, pr["finite"])) + "}"
        pieces.append(f"{who} -> {piece['value']}")
    return f"{shown}   (closed form: {'; '.join(pieces)})"


def _fmt_tags(row: dict) -> str:
    """A definable row's labels and markers, as both listings print them."""
    tags = "; ".join(_fmt_label_entry(e) for e in row["labels"])
    if row["trivial"]:
        tags += "   [trivial coarsening]"
    if row["residue_real_closed"]:
        tags += "   [residue real closed]"
    return tags


def _fmt_thm26(t: dict) -> str:
    return " ".join(f"{k}={t[k]}" for k in ("cond1", "cond2", "cond3", "consistent"))


def _report_text(r: dict) -> list[str]:
    lines = [
        f"group: {r['group']}",
        f"n_p table: {_fmt_np(r['np_table'])}",
        "chain cuts (shallow to deep):",
    ]
    cert_by_cut = {c["cut"]: c["certificate"] for c in r["certificates"]}
    label_rows = {d["cut"]: d for d in r["definable"]}
    for row in r["cuts"]:
        cut = row["cut"]
        line = f"  {cut:<10} {row['status']}"
        if cut in label_rows:
            line += f"   labels: {_fmt_tags(label_rows[cut])}"
        elif isinstance(cert_by_cut.get(cut), dict):
            line += f"   certificate: {len(cert_by_cut[cut]['pieces'])} prime piece(s)"
        lines.append(line)
    if r.get("chain_truncated"):
        lines.append("  ... (schematic chain shown to the configured depth)")
    lines.append(f"residue-real-closed equivalence (thm26): {_fmt_thm26(r['thm26'])}")
    lines.append(f"dp-minimal: {r['dp_minimal']}")
    lines += [
        f"differential p={d['p']} n={d['n']}: {len(d['mismatches'])} mismatches "
        f"({d['checked']} points)"
        for d in r["differential"]
    ] or ["differential: skipped (group is not effective for sampling)"]
    return lines + [f"note: {note}" for note in r["notes"]]


def _report_failures(r: dict) -> list[str]:
    bad = [f"cut {row['cut']} has status {row['status']}" for row in r["cuts"] if row["status"] == "red-flag"]
    for d in r["differential"]:
        if d["mismatches"]:
            bad.append(f"differential p={d['p']} n={d['n']}: {len(d['mismatches'])} mismatches")
    if not r["thm26"]["consistent"]:
        bad.append("thm26 conditions disagree")
    return bad


# ---------------------------------------------------------------------------
# subcommand bodies: each returns what it computed, and main prints it


class _Output(NamedTuple):
    payload: dict  # what --json prints
    lines: list[str]  # what text mode prints
    code: int = 0
    fails: Sequence[str] = ()  # FAIL: lines for stderr, after the output


def _report(dsl: str, args, header: tuple[str, ...] = ()) -> _Output:
    """The classification report of one group, shared by `group analyze`
    and `examples` (which adds a header line)."""
    r = classification_report(
        parse_group(dsl), display_primes=args.primes, samples=args.samples, seed=args.seed
    )
    bad = _report_failures(r)
    return _Output(r, [*header, *_report_text(r)], 1 if bad else 0, bad)


def _cmd_examples(args) -> _Output:
    dsl = EXAMPLES[args.name]
    return _report(dsl, args, header=(f"example {args.name!r}: {dsl}",))


def _cmd_valuations_list(args) -> _Output:
    G = parse_group(args.dsl)
    rows = definable_rows(G, args.primes)
    payload = {
        "group": print_group(G),
        "definable": rows,
        "v0": cut_name(G, max_divisible(G)),
        "v_p": {str(p): cut_name(G, max_p_divisible(G, p)) for p in args.primes},
    }
    v_p = sorted(payload["v_p"].items(), key=lambda kv: int(kv[0]))
    return _Output(payload, [
        f"group: {payload['group']}",
        "definable coarsenings (deepest first):",
        *(f"  {row['cut']:<10} {_fmt_tags(row)}" for row in rows),
        f"v0 cut: {payload['v0']}",
        "v_p cuts: " + ", ".join(f"p={p} -> {c}" for p, c in v_p),
    ])


def _formula_at(args):
    """The formula and bindings both formula commands read, and their group."""
    G = parse_group(args.group)
    return parse_formula(args.expr, group=G), parse_bindings(args.at, G), G


def _cmd_formula_decide(args) -> _Output:
    verdict = eval_decidable(*_formula_at(args))
    return _Output({"mode": "decide", "result": verdict}, ["true" if verdict else "false"])


def _cmd_formula_sample(args) -> _Output:
    o = eval_sampled(*_formula_at(args), budget=args.samples, seed=args.seed, cutoff_mag=args.cutoff)
    witness = o.witness and {k: print_series(v) for k, v in sorted(o.witness.items())}
    line = o.status if o.certain else f"{o.status} (sampled, not a proof)"
    if witness:
        line += "   " + "; ".join(f"{k} = {v}" for k, v in witness.items())
    payload = {"mode": "sample", "status": o.status, "certain": o.certain, "witness": witness}
    return _Output(payload, [line])


def _cmd_thm26(args) -> _Output:
    t = verify_thm_defblRCF(parse_group(args.group))
    return _Output(t, [_fmt_thm26(t)], 0 if t["consistent"] else 1)


def _cmd_differential(args) -> _Output:
    r = differential_verify(parse_group(args.group), args.p, args.n, samples=args.samples, seed=args.seed)
    lines = [
        f"p={r['p']} n={r['n']}: checked {r['checked']} points, {len(r['mismatches'])} mismatches",
        *(f"  MISMATCH {m}" for m in r["mismatches"][:10]),
    ]
    return _Output(r, lines, 1 if r["mismatches"] else 0)


# ---------------------------------------------------------------------------
# argv plumbing


def _integer(text: str) -> int:
    """An integer flag value, read by the DSL's integer reader: ASCII digits,
    a sign right in front, and spaces, tabs or line breaks around."""
    try:
        toks = _Tokens(text)
        _, sign, pos = toks.peek()
        if (toks.accept("-") or toks.accept("+")) and toks.peek()[2] != pos + 1:
            toks.fail("expected a digit right after the sign")
        n = toks.int_tok()
        toks.expect_end()
    except DslSyntaxError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    return -n if sign == "-" else n


def _primes_arg(text: str) -> tuple[int, ...]:
    try:
        ps = tuple(_integer(x) for x in text.split(",") if x.strip(_SPACE))
        if not ps or not all(is_prime(p) for p in ps):
            raise ValueError
    except (ValueError, ParameterError) as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc
    return ps


def _count_arg(least: int):
    """An integer flag value of at least `least`."""

    def parse(text: str) -> int:
        n = _integer(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


# each argument's argparse keywords
_ARGS = {
    "dsl": dict(help='group expression, e.g. "lex(Z, Q)"'),
    "name": dict(choices=sorted(EXAMPLES)),
    "--group": dict(required=True, help='group expression, e.g. "lex(Z, Q)"'),
    "--expr": dict(required=True, help='e.g. "phi_p[2](x)" or "exists y. y^2 = x"'),
    "--at": dict(default="", help='bindings "x=t^(1,0); y=2"'),
    "--cutoff": dict(type=_count_arg(1), default=9, help="truncation exponent magnitude"),
    "-p": dict(type=_integer, default=2, help="prime under test"),
    "-n": dict(type=_integer, default=0, help="coarsening level"),
    "--seed": dict(type=_integer, default=42),
    "--samples": dict(type=_count_arg(0), default=200),
    "--primes": dict(type=_primes_arg, default=(2, 3, 5, 7), metavar="P,P,..."),
    "--json": dict(action="store_true", help="machine-readable output"),
}

# the first word of the two-word commands, with its help
_TOPICS = {
    "group": "group-level analyses",
    "valuations": "definable coarsening listings",
    "formula": "formula evaluation",
    "verify": "verification suites",
}

_SAMPLING = ("--seed", "--samples")
_REPORT = (*_SAMPLING, "--primes")
_FORMULA = ("--group", "--expr", "--at")

# (words, the arguments the body reads besides --json, help, body)
_COMMANDS = (
    (("group", "analyze"), ("dsl", *_REPORT), "full classification report",
     lambda args: _report(args.dsl, args)),
    (("valuations", "list"), ("dsl", "--primes"), "the definable image with labels",
     _cmd_valuations_list),
    (("formula", "decide"), _FORMULA, "decide at explicit bindings", _cmd_formula_decide),
    (("formula", "sample"), (*_FORMULA, "--cutoff", *_SAMPLING),
     "search the quantifiers on samples at explicit bindings", _cmd_formula_sample),
    (("verify", "phi-pn"), ("--group", "-p", "-n", *_SAMPLING),
     "phi_pn at level n (phi_p at n = 0) against ring membership", _cmd_differential),
    (("verify", "thm26"), ("--group",), "the residue-real-closed criterion", _cmd_thm26),
    (("examples",), ("name", *_REPORT), "canned library reports", _cmd_examples),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arclab",
        description="definable convex valuations on power-series fields over lexicographic groups",
    )
    top = ap.add_subparsers(dest="command", required=True)
    under = {
        word: top.add_parser(word, help=text).add_subparsers(dest="sub", required=True)
        for word, text in _TOPICS.items()
    }
    for words, names, text, body in _COMMANDS:
        sub = (under[words[0]] if len(words) == 2 else top).add_parser(words[-1], help=text)
        for name in (*names, "--json"):
            sub.add_argument(name, **_ARGS[name])
        sub.set_defaults(body=body)
    return ap


_USAGE_ERRORS = (
    DslSyntaxError,
    ParameterError,
    UnsupportedQuantifierPattern,
    NonEffectiveError,
    UnboundVariableError,
    ShapeError,
)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    usage = _USAGE_ERRORS + ((TruncationError,) if args.command == "formula" else ())
    try:
        result = args.body(args)
    except ArclabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, usage) else 1
    lines = [json.dumps(result.payload, indent=2, sort_keys=True)] if args.json else result.lines
    print("\n".join(lines), file=out)
    for line in result.fails:
        print(f"FAIL: {line}", file=sys.stderr)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
