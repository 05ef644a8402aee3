"""Command-line front end.

Subcommands
    group analyze <dsl>          full classification report for one group
    valuations list <dsl>        just the definable coarsenings and markers
    formula eval ...             evaluate a formula at explicit bindings
    verify phi-p|phi-pn|thm26|classification
                                 the individual verification suites
    examples k1|k2|zpluspi|c0    canned reports for the library fields

Exit codes: 0 clean, 1 verification mismatch or red flag, 2 usage or
parse error.  Unsupported quantifier shapes under --mode decide count as
usage errors (the command asked for a decision procedure that does not
cover the formula), so they exit 2 as well.
"""

from __future__ import annotations

import argparse
import json
import sys

from .convex import cut_name
from .errors import (
    ArclabError,
    DslSyntaxError,
    NonEffectiveError,
    ParameterError,
    ShapeError,
    UnboundVariableError,
    UnsupportedQuantifierPattern,
)
from .formulas import eval_decidable, eval_sampled, parse_formula, print_series
from .groups import LexWord, is_prime, parse_group, print_group
from .hahn import parse_series
from .valuations import (
    classification_report,
    definable_rows,
    differential_verify,
    v0_descriptor,
    v_p_descriptor,
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


def _emit_report_text(r: dict, out) -> None:
    print(f"group: {r['group']}", file=out)
    print(f"n_p table: {_fmt_np(r['np_table'])}", file=out)
    cert_by_cut = {c["cut"]: c["certificate"] for c in r["certificates"]}
    label_rows = {d["cut"]: d for d in r["definable"]}
    print("chain cuts (shallow to deep):", file=out)
    for row in r["cuts"]:
        cut = row["cut"]
        line = f"  {cut:<10} {row['status']}"
        d = label_rows.get(cut)
        if d is not None:
            tags = "; ".join(_fmt_label_entry(e) for e in d["labels"])
            line += f"   labels: {tags}"
            if d["trivial"]:
                line += "   [trivial coarsening]"
            if d["residue_real_closed"]:
                line += "   [residue real closed]"
        elif isinstance(cert_by_cut.get(cut), dict):
            c = cert_by_cut[cut]
            line += f"   certificate: {len(c['pieces'])} prime piece(s)"
        print(line, file=out)
    if r.get("chain_truncated"):
        print("  ... (schematic chain shown to the configured depth)", file=out)
    t = r["thm26"]
    print(
        "residue-real-closed equivalence (thm26): "
        f"cond1={t['cond1']} cond2={t['cond2']} cond3={t['cond3']} consistent={t['consistent']}",
        file=out,
    )
    print(f"dp-minimal: {r['dp_minimal']}", file=out)
    if r["differential"]:
        for d in r["differential"]:
            print(
                f"differential p={d['p']} n={d['n']}: {len(d['mismatches'])} mismatches "
                f"({d['checked']} points)",
                file=out,
            )
    else:
        print("differential: skipped (group is not effective for sampling)", file=out)
    for note in r["notes"]:
        print(f"note: {note}", file=out)


def _report_failures(r: dict) -> list[str]:
    bad = [f"cut {row['cut']} has status {row['status']}" for row in r["cuts"] if row["status"] == "red-flag"]
    for d in r["differential"]:
        if d["mismatches"]:
            bad.append(f"differential p={d['p']} n={d['n']}: {len(d['mismatches'])} mismatches")
    if not r["thm26"]["consistent"]:
        bad.append("thm26 conditions disagree")
    return bad


def _dump_json(payload: dict, out) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)


# ---------------------------------------------------------------------------
# subcommand bodies


def _report(dsl: str, args, out, header: str | None = None) -> int:
    """The classification report of one group, shared by `group analyze`,
    `verify classification` and `examples` (which adds a header line)."""
    r = classification_report(
        parse_group(dsl), display_primes=args.primes, samples=args.samples, seed=args.seed
    )
    if args.json:
        _dump_json(r, out)
    else:
        if header is not None:
            print(header, file=out)
        _emit_report_text(r, out)
    bad = _report_failures(r)
    for b in bad:
        print(f"FAIL: {b}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_valuations_list(args, out) -> int:
    G = parse_group(args.dsl)
    rows = definable_rows(G, args.primes)
    payload = {
        "group": print_group(G),
        "definable": rows,
        "v0": cut_name(G, v0_descriptor(G).cut),
        "v_p": {str(p): cut_name(G, v_p_descriptor(G, p).cut) for p in args.primes},
    }
    if args.json:
        _dump_json(payload, out)
        return 0
    print(f"group: {payload['group']}", file=out)
    print("definable coarsenings (deepest first):", file=out)
    for row in rows:
        tags = "; ".join(_fmt_label_entry(e) for e in row["labels"])
        extra = "   [trivial coarsening]" if row["trivial"] else ""
        rc = "   [residue real closed]" if row["residue_real_closed"] else ""
        print(f"  {row['cut']:<10} {tags}{extra}{rc}", file=out)
    print(f"v0 cut: {payload['v0']}", file=out)
    print(
        "v_p cuts: " + ", ".join(f"p={p} -> {c}" for p, c in sorted(payload["v_p"].items(), key=lambda kv: int(kv[0]))),
        file=out,
    )
    return 0


def _parse_bindings(text: str, G: LexWord) -> dict:
    """name=series pairs, separated by ';' (series syntax itself uses commas)."""
    env = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DslSyntaxError("binding must look like name=series", 0, chunk)
        name, _, rhs = chunk.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise DslSyntaxError(f"bad variable name {name!r}", 0, chunk)
        env[name] = parse_series(rhs.strip(), G)
    return env


def _cmd_formula_eval(args, out) -> int:
    G = parse_group(args.group)
    F = parse_formula(args.expr, group=G)
    env = _parse_bindings(args.at or "", G)
    if args.mode == "decide":
        verdict = eval_decidable(F, env, G)
        payload = {"mode": "decide", "result": verdict}
        if args.json:
            _dump_json(payload, out)
        else:
            print("true" if verdict else "false", file=out)
        return 0
    o = eval_sampled(F, env, G, budget=args.samples, seed=args.seed, cutoff_mag=args.cutoff)
    payload = {
        "mode": "sample",
        "status": o.status,
        "certain": o.certain,
        "witness": None if o.witness is None else {k: print_series(v) for k, v in sorted(o.witness.items())},
    }
    if args.json:
        _dump_json(payload, out)
    else:
        line = o.status if o.certain else f"{o.status} (sampled, not a proof)"
        if payload["witness"]:
            line += "   " + "; ".join(f"{k} = {v}" for k, v in payload["witness"].items())
        print(line, file=out)
    return 0


def _cmd_verify(args, out) -> int:
    if args.what == "classification":
        return _report(args.group, args, out)
    G = parse_group(args.group)
    if args.what == "thm26":
        t = verify_thm_defblRCF(G)
        if args.json:
            _dump_json(t, out)
        else:
            print(
                f"cond1={t['cond1']} cond2={t['cond2']} cond3={t['cond3']} "
                f"consistent={t['consistent']}",
                file=out,
            )
        return 0 if t["consistent"] else 1
    # phi-p is level 0 of phi-pn
    n = args.n if args.what == "phi-pn" else 0
    r = differential_verify(G, args.p, n, samples=args.samples, seed=args.seed)
    if args.json:
        _dump_json(r, out)
    else:
        print(
            f"p={r['p']} n={r['n']}: checked {r['checked']} points, "
            f"{len(r['mismatches'])} mismatches",
            file=out,
        )
        for m in r["mismatches"][:10]:
            print(f"  MISMATCH {m}", file=out)
    return 1 if r["mismatches"] else 0


# ---------------------------------------------------------------------------
# argv plumbing


def _primes_arg(text: str) -> tuple[int, ...]:
    try:
        ps = tuple(int(x) for x in text.split(",") if x.strip())
        if not ps or not all(is_prime(p) for p in ps):
            raise ValueError
    except (ValueError, ParameterError) as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc
    return ps


def _add_flags(sub, sampling: bool, primes: bool) -> None:
    """Register --json and, on the commands that read them, the sampling and
    display-prime flags."""
    if sampling:
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--samples", type=int, default=200)
    if primes:
        sub.add_argument("--primes", type=_primes_arg, default=(2, 3, 5, 7), metavar="P,P,...")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arclab",
        description="definable convex valuations on power-series fields over lexicographic groups",
    )
    top = ap.add_subparsers(dest="command", required=True)

    g = top.add_parser("group", help="group-level analyses").add_subparsers(
        dest="sub", required=True
    )
    ga = g.add_parser("analyze", help="full classification report")
    ga.add_argument("dsl", help='group expression, e.g. "lex(Z, Q)"')
    _add_flags(ga, sampling=True, primes=True)

    v = top.add_parser("valuations", help="definable coarsening listings").add_subparsers(
        dest="sub", required=True
    )
    vl = v.add_parser("list", help="the definable image with labels")
    vl.add_argument("dsl")
    _add_flags(vl, sampling=False, primes=True)

    f = top.add_parser("formula", help="formula evaluation").add_subparsers(
        dest="sub", required=True
    )
    fe = f.add_parser("eval", help="evaluate at explicit bindings")
    fe.add_argument("--group", required=True)
    fe.add_argument("--expr", required=True, help='e.g. "phi_p[2](x)" or "exists y. y^2 = x"')
    fe.add_argument("--at", default="", help='bindings "x=t^(1,0); y=2"')
    fe.add_argument("--mode", choices=("decide", "sample"), default="decide")
    fe.add_argument("--cutoff", type=int, default=9, help="truncation exponent magnitude")
    _add_flags(fe, sampling=True, primes=False)

    vf = top.add_parser("verify", help="verification suites")
    vf.add_argument("what", choices=("phi-p", "phi-pn", "thm26", "classification"))
    vf.add_argument("--group", required=True)
    vf.add_argument("-p", type=int, default=2, help="prime under test")
    vf.add_argument("-n", type=int, default=0, help="coarsening level")
    _add_flags(vf, sampling=True, primes=True)

    ex = top.add_parser("examples", help="canned library reports")
    ex.add_argument("name", choices=sorted(EXAMPLES))
    _add_flags(ex, sampling=True, primes=True)
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
    try:
        if args.command == "group":
            return _report(args.dsl, args, out)
        if args.command == "valuations":
            return _cmd_valuations_list(args, out)
        if args.command == "formula":
            return _cmd_formula_eval(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        dsl = EXAMPLES[args.name]
        return _report(dsl, args, out, header=f"example {args.name!r}: {dsl}")
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArclabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
