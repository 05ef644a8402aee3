import argparse
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import cli, groups, valuations
from arclab.cli import EXAMPLES, _integer, main
from arclab.formulas import Forall

from test_fuzz import ODD_SPACES

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


# -- plumbing and exit codes ------------------------------------------------------


def test_group_analyze_text():
    code, text = run("group", "analyze", "lex(Z, Q)")
    assert code == 0
    assert "lex(Z, Q)" in text
    assert "definable" in text
    assert "dp-minimal: True" in text


def test_bad_group_dsl_is_usage_error(capsys):
    code, _ = run("group", "analyze", "lex(Zloc(4))")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_series_is_usage_error(capsys):
    for binding in ("x=t^(nope)", "x=1/0", "x=3/0*t^(1,0)", "1=2", "x"):
        code, _ = run(
            "formula", "decide", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
            "--at", binding,
        )
        assert code == 2, binding
        assert "DslSyntaxError" in capsys.readouterr().err, binding


def test_unsupported_decide_quantifier_is_usage_error(capsys):
    # a root shape with a non-prime degree is no root test the procedure knows
    for expr, at in (
        ("forall z. z = z", "x=1"),
        ("exists y. y^4 = x", "x=t^(4,0)"),
        ("exists y. y^1 = x", "x=t^(4,0)"),
    ):
        code, _ = run(
            "formula", "decide", "--group", "lex(Z, Q)", "--expr", expr, "--at", at,
        )
        assert code == 2, expr
        assert "UnsupportedQuantifierPattern" in capsys.readouterr().err, expr


def test_non_prime_root_degree_is_searched_under_sample():
    # searched like any other existential: a grid witness, or no verdict
    for at, want in (("x=16", "true   y = 2"), ("x=t^(4,0)", "unknown_on_sample")):
        code, text = run(
            "formula", "sample", "--group", "lex(Z, Q)", "--expr", "exists y. y^4 = x",
            "--at", at,
        )
        assert code == 0, at
        assert text.startswith(want), at


def test_primes_flag_validated(capsys):
    # argparse rejects the value in type validation, so the exit is the
    # interpreter-level usage exit rather than a return code
    with pytest.raises(SystemExit) as exc:
        run("examples", "k1", "--primes", "2,3,4")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "-3"),
        ("formula", "sample", "--group", "lex(Z, Q)", "--expr", "forall y. y^2 != x",
         "--at", "x=2", "--samples", "-4"),
        ("formula", "sample", "--group", "lex(Z, Q)", "--expr", "exists y. y^2 = x",
         "--at", "x=2", "--cutoff", "0"),
        ("examples", "k1", "--samples", "ten"),
    ],
)
def test_negative_sample_count_and_zero_cutoff_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("must be at least" in err or "bad integer" in err)


def test_zero_samples_and_unit_cutoff_are_accepted():
    code, text = run("verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "0")
    assert (code, text) == (0, "p=2 n=0: checked 33 points, 0 mismatches\n")
    code, _ = run(
        "formula", "sample", "--group", "lex(Z, Q)", "--expr", "exists y. y^2 = x",
        "--at", "x=2", "--cutoff", "1",
    )
    assert code == 0


def test_sampling_on_an_empty_witness_grid_is_usage_error(capsys):
    # with no candidates every universal would survive: refused, not "true"
    code, text = run(
        "formula", "sample", "--group", "lex(Z, Q)", "--expr", "forall y. y^2 != x",
        "--at", "x=4", "--samples", "0",
    )
    assert (code, text) == (2, "")
    assert "ParameterError" in capsys.readouterr().err
    code, text = run(
        "formula", "sample", "--group", "lex(Z, Q)", "--expr", "forall y. y^2 != x",
        "--at", "x=4", "--samples", "5",
    )
    assert (code, text) == (0, "falsified_by   y = 2\n")


def test_flag_the_command_does_not_read_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run("valuations", "list", "lex(Z, Q)", "--cutoff", "3")
    assert exc.value.code == 2


# Written out by hand, not read from the CLI's tables: each command's words
# and required arguments, then the optional flags its body reads.
READS = {
    ("group", "analyze", "lex(Z, Q)"): ("--seed", "--samples", "--primes"),
    ("valuations", "list", "lex(Z, Q)"): ("--primes",),
    ("formula", "decide", "--group", "lex(Z, Q)", "--expr", "x = 1"): ("--at",),
    ("formula", "sample", "--group", "lex(Z, Q)", "--expr", "x = 1"):
        ("--at", "--cutoff", "--seed", "--samples"),
    ("verify", "phi-pn", "--group", "lex(Z, Q)"): ("-p", "-n", "--seed", "--samples"),
    ("verify", "thm26", "--group", "lex(Z, Q)"): (),
    ("examples", "k1"): ("--seed", "--samples", "--primes"),
}
# every flag any command takes but --json, with a value it accepts
FLAG_VALUES = {
    "--group": "lex(Z, Q)", "--expr": "x = 1", "--at": "x=1",
    "--cutoff": "3", "-p": "3", "-n": "1", "--seed": "1", "--samples": "5", "--primes": "2",
}
# flags the CLI has dropped, with a value they once took: no command takes them
RETIRED = {"--mode": "decide"}
OFFERED = {**FLAG_VALUES, **RETIRED}


def test_each_command_takes_the_flags_its_body_reads():
    # a flag new to the CLI joins this file's list, and so the test below
    assert {name for name in cli._ARGS if name.startswith("-")} == {*FLAG_VALUES, "--json"}
    for base, reads in READS.items():
        assert cli.build_parser().parse_args([*base, "--json"]).json, base
        for flag in reads:
            cli.build_parser().parse_args([*base, flag, FLAG_VALUES[flag]])


@pytest.mark.parametrize("base, flag", [
    (base, flag) for base, reads in READS.items()
    for flag in OFFERED if flag not in (*base, *reads)
], ids=lambda x: " ".join(x[:2]) if isinstance(x, tuple) else x)
def test_a_flag_the_body_does_not_read_exits_2(base, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([*base, flag, OFFERED[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("arclab ") for line in lines)
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_unbound_binding_is_usage_error(capsys):
    code, _ = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "y=1",
    )
    assert code == 2


@pytest.mark.parametrize("group, params, message", [
    ("lex(Z, Q)", "1, y", "parameters must be closed terms: "),
    ("lex(Z, Q)", "1, 0", "parameters must be defined and nonzero"),
    ("lex(Z, Z)", "1, t^(1,0)", "parameter exponent (1, 0) escapes the level-1 subgroup at seg1"),
], ids=["open", "zero", "escaping"])
def test_bad_coset_parameters_are_usage_errors(group, params, message, capsys):
    code, text = run(
        "formula", "decide", "--group", group, "--expr", f"phi_pn[2,1](x, params = {params})",
        "--at", "x=t^(-1,0)",
    )
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith(f"error: ParameterError: {message}")


def test_negative_level_is_usage_error(capsys):
    code, text = run("verify", "phi-pn", "--group", "lex(Z, Q)", "-n", "-1")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: ShapeError: level must be a natural\n"


def test_differential_on_schematic_group_is_usage_error(capsys):
    code, _ = run("verify", "phi-pn", "--group", "lex(omega_tower(start=0))", "-p", "2")
    assert code == 2
    assert "NonEffectiveError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, expr",
    [("decide", "x = 0"), ("decide", "exists y. y^2 = x*x"), ("decide", "psi_p[2](x*x)")],
)
def test_formula_eval_on_too_coarse_a_binding_is_usage_error(mode, expr, capsys):
    # the binding hides what the formula asks: the input is at fault, so
    # this is exit 2, not the verification failure exit 1 stands for
    code, text = run(
        "formula", mode, "--group", "lex(Z, Q)", "--expr", expr,
        "--at", "x = O(t^(1,0))",
    )
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: TruncationError: ")


@pytest.mark.parametrize("expr, want", [
    # the truncated candidate y = x hides its square; the search goes on
    ("exists y. y*y = x + 1", "true (sampled, not a proof)   y = 1"),
    # a product or a power of the truncated binding hides the atom, as a
    # truncated difference does
    ("x*x = 0", "unknown_on_sample (sampled, not a proof)"),
    ("x^2 = 0", "unknown_on_sample (sampled, not a proof)"),
    # so does a product the truncation hides in a root test's argument
    ("exists y. y^2 = x*x", "unknown_on_sample (sampled, not a proof)"),
    ("psi_p[2](x*x)", "unknown_on_sample (sampled, not a proof)"),
], ids=["exists", "product", "power", "root", "psi"])
def test_sampler_judges_a_term_hidden_by_a_truncation(expr, want, capsys):
    code, text = run(
        "formula", "sample", "--group", "lex(Z, Q)", "--expr", expr,
        "--at", "x = O(t^(1,0))",
    )
    assert (code, text.strip()) == (0, want)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("expr, message", [
    ("exists 1. x = x", "expected a variable name"),
    ("psi_p[2](x, params = 1)", "psi_p takes no params"),
    ("phi_pn[2,1](x, params = 1)", "expected 2 params, got 1"),
    ("x = 1/0", "division by the zero constant"),
    ("x^0 = 1", "exponent must be >= 1"),
], ids=["binder", "psi-params", "param-count", "zero-divisor", "zero-exponent"])
def test_formula_parser_refusals_are_usage_errors(expr, message, capsys):
    code, text = run("formula", "decide", "--group", "lex(Z, Q)", "--expr", expr, "--at", "x=1")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: DslSyntaxError: {message}")


@pytest.mark.parametrize("expr, at, want", [
    # the formula constant t^(1) fits no exponent of lex(Z, Q): no base, no refusal
    ("exists y. (y = 1 or x = t^(1))", "x=1", "true   y = 1"),
    # the root target x*x is hidden by the truncation: no root candidate, no refusal
    ("exists y. (y^2 = x*x and y = y)", "x = O(t^(1,0))",
     "unknown_on_sample (sampled, not a proof)"),
], ids=["shape", "truncation"])
def test_witness_grid_skips_a_constant_or_target_it_cannot_evaluate(expr, at, want, capsys):
    code, text = run(
        "formula", "sample", "--group", "lex(Z, Q)", "--expr", expr, "--at", at
    )
    assert (code, text) == (0, want + "\n")
    assert capsys.readouterr().err == ""


def test_internal_contradiction_exits_1(monkeypatch, capsys):
    # an enclosure of pi that never narrows trips sign_of_real's precision cap
    monkeypatch.setattr(groups, "pi_interval", lambda digits: (Fraction(0), Fraction(10)))
    code, _ = run(
        "formula", "decide", "--group", "lex(real(1, pi))", "--expr", "psi_p[2](x)",
        "--at", "x=t^(3,-1) + t^(0,1)",
    )
    assert code == 1
    assert "InternalError" in capsys.readouterr().err


# -- formula decide and sample -----------------------------------------------------


def test_formula_eval_decide_true():
    code, text = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "x=t^(1,0)",
    )
    assert code == 0 and text.strip() == "true"


def test_formula_eval_accepts_trailing_whitespace():
    code, text = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "x = 1 ", "--at", "x=1",
    )
    assert code == 0 and text.strip() == "true"


def test_formula_eval_with_a_19_digit_prime_degree():
    code, text = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "psi_p[1000000000000000003](x)",
        "--at", "x=t^(1,0)",
    )
    assert code == 0 and text.strip() == "true"


def test_large_display_prime_is_indexed_quickly():
    # 1000003 is the 78,499th prime: its tower summand sits at offset 78498
    start = time.perf_counter()
    code, text = run(
        "group", "analyze", "lex(omega_tower(start=0))", "--primes", "2,1000003", "--json"
    )
    assert time.perf_counter() - start < 2
    assert code == 0
    assert '"high": "seg0+78498"' in text
    # the report as printed before prime indexing moved to a sieve
    digest = "f49e95d83789a886dad3fad13c9cd21a5139d7bafa5d970d40a54baa00903ae8"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_prime_beyond_the_index_bound_is_usage_error(capsys):
    start = time.perf_counter()
    code, _ = run("group", "analyze", "lex(omega_tower(start=0))", "--primes", "2,1000000007")
    assert time.perf_counter() - start < 2
    assert code == 2
    err = capsys.readouterr().err
    assert "ParameterError" in err and "Traceback" not in err


def test_deeply_nested_formula_is_usage_error(capsys):
    for expr in ("(" * 600 + "x=x" + ")" * 600, "-" * 2000 + "x=x", "not " * 2000 + "x=x"):
        code, _ = run("formula", "decide", "--group", "lex(Z, Q)", f"--expr={expr}", "--at", "x=1")
        assert code == 2
        assert "DslSyntaxError" in capsys.readouterr().err


def test_overlong_chain_is_usage_error(capsys):
    expr = " or ".join(["x = 0"] * 3000)
    for mode in ("decide", "sample"):
        code, _ = run(
            "formula", mode, "--group", "lex(Z, Q)", "--expr", expr, "--at", "x=1",
        )
        assert code == 2, mode
        err = capsys.readouterr().err
        assert "DslSyntaxError" in err and "Traceback" not in err, mode


def test_formula_eval_decide_false():
    code, text = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "x=t^(0,1/2)",
    )
    assert code == 0 and text.strip() == "false"


def test_formula_eval_sample_falsifies():
    code, text = run(
        "formula", "sample", "--group", "lex(Z, Q)",
        "--expr", "forall z. (psi_p[2](z) -> psi_p[2](x*z))",
        "--at", "x=t^(-2,0)",
    )
    assert code == 0
    assert "falsified_by" in text and "z = t^(1,0)" in text


def test_formula_eval_multiple_bindings():
    code, text = run(
        "formula", "decide", "--group", "lex(Z, Q)", "--expr", "x*y = 1",
        "--at", "x=t^(1,0); y=t^(-1,0)",
    )
    assert code == 0 and text.strip() == "true"


@pytest.mark.parametrize("at", ["x=1;;y=2;", "x = 1 ; y = t^(1,0)"])
def test_bindings_with_empty_items_and_spaces(at):
    code, text = run("formula", "decide", "--group", "lex(Z, Q)", "--expr", "x = 1", "--at", at)
    assert code == 0 and text.strip() == "true"


@pytest.mark.parametrize("at", ["x = 1; x = 2", "x=2;x=1", "y=1; x=1; y=1"])
def test_a_name_bound_twice_is_usage_error(at, capsys):
    # no binding silently wins over another
    code, text = run("formula", "decide", "--group", "lex(Z, Q)", "--expr", "x = 1", "--at", at)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "DslSyntaxError" in err and "not bound before" in err


LONG = "1" * 5000  # past Python's 4,300-digit int conversion limit


@pytest.mark.parametrize(
    "group, expr, at",
    [
        ("lex(Z, Q)", f"x = {LONG}", "x=1"),
        ("lex(Z, Q)", "x = 1", f"x={LONG}"),
        (f"lex(Zloc({LONG}))", "x = 1", "x=1"),
    ],
    ids=["expr", "at", "group"],
)
def test_overlong_integer_literal_is_usage_error(group, expr, at, capsys):
    code, _ = run("formula", "decide", "--group", group, "--expr", expr, "--at", at)
    assert code == 2
    err = capsys.readouterr().err
    assert "DslSyntaxError" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "group, expr, at",
    [
        ("lex(Zloc(٣))", "x = 1", "x=1"),
        ("lex(Z, Q)", "x = ٣", "x=1"),
        ("lex(Z, Q)", "x = 1", "x=t^(٣,0)"),
    ],
    ids=["group", "expr", "at"],
)
def test_non_ascii_digits_are_usage_errors(group, expr, at, capsys):
    # numerals are ASCII: an Arabic-Indic three is not read as 3
    code, _ = run("formula", "decide", "--group", group, "--expr", expr, "--at", at)
    assert code == 2
    err = capsys.readouterr().err
    assert "DslSyntaxError" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["front", "between"])
@pytest.mark.parametrize("flag", ["group", "expr", "at"])
@pytest.mark.parametrize("space", ODD_SPACES.values(), ids=ODD_SPACES)
def test_other_unicode_spaces_are_usage_errors(space, flag, where, capsys):
    # spaces, tabs and line breaks separate tokens; other spaces do not
    args = {"group": "lex(Z, Q)", "expr": "x = 1", "at": "x=t^(1,0)"}
    text = args[flag]
    gap = 3 if flag == "group" else 1  # after "lex" or the name "x"
    args[flag] = space + text if where == "front" else text[:gap] + space + text[gap:]
    code, _ = run(
        "formula", "decide", "--group", args["group"], "--expr", args["expr"], "--at", args["at"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "DslSyntaxError" in err and "Traceback" not in err


# each numeric flag on a command that reads it
NUMERIC_FLAGS = {
    "--primes": ("group", "analyze", "lex(Z, Q)"),
    "--samples": ("verify", "phi-pn", "--group", "lex(Z, Q)"),
    "--seed": ("verify", "phi-pn", "--group", "lex(Z, Q)"),
    "--cutoff": ("formula", "sample", "--group", "lex(Z, Q)", "--expr", "x = 1"),
    "-p": ("verify", "phi-pn", "--group", "lex(Z, Q)"),
    "-n": ("verify", "phi-pn", "--group", "lex(Z, Q)"),
}
ODD_NUMERALS = ["٣", "３", "1_1", "٣,1_1"] + [s + "3" for s in ODD_SPACES.values()]


@pytest.mark.parametrize("value", ODD_NUMERALS)
@pytest.mark.parametrize("flag", NUMERIC_FLAGS)
def test_numeric_flags_read_ascii_numerals_only(flag, value, capsys):
    # the flags share the DSL's integer reader: other scripts' digits, _
    # separators and spaces other than spaces, tabs and line breaks are
    # refused, as int() did not
    with pytest.raises(SystemExit) as exc:
        run(*NUMERIC_FLAGS[flag], flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("bad integer" in err or "bad prime list" in err)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+- \t\r\n", max_size=8))
def test_numeric_flags_read_the_ascii_forms_int_reads(text):
    # over digits, signs, spaces, tabs and line breaks: the same value as
    # int(), or refused where int() refuses
    try:
        want = int(text)
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError):
            _integer(text)
    else:
        assert _integer(text) == want


def test_phi_pn_too_deep_is_refused_before_it_is_built():
    # at 2^16 probes the build alone ran for minutes
    argv = ["formula", "decide", "--group", "lex(Z, Q)", "--expr", "phi_pn[2,16](x)", "--at", "x=1"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "arclab.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 2
    assert "DslSyntaxError" in done.stderr and "Traceback" not in done.stderr


VERIFY = ["verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "1", "-n"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (VERIFY + ["13"], "ParameterError"),
        (VERIFY + ["1000000000"], "ParameterError"),
        (["formula", "decide", "--group", "lex(Z, Q)", "--expr", "phi_pn[2,13](x)", "--at", "x=1"],
         "DslSyntaxError"),
    ],
    ids=["verify-2^13", "verify-2^1000000000", "formula-2^13"],
)
def test_phi_pn_past_the_probe_bound_exits_2_at_once(argv, error):
    # the API built the 2^13 probes the DSL refuses, and evaluated 2^1000000000
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "arclab.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 2
    assert error in done.stderr and "Traceback" not in done.stderr


# -- verify subcommands --------------------------------------------------------------


def test_verify_phi_p_clean():
    code, text = run(
        "verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "20",
    )
    assert code == 0
    assert "0 mismatches" in text and "p=2 n=0" in text


def test_verify_phi_pn_clean():
    code, text = run(
        "verify", "phi-pn", "--group", "lex(real(1, pi))", "-p", "2", "-n", "2",
        "--samples", "15",
    )
    assert code == 0
    assert "0 mismatches" in text and "p=2 n=2" in text


def test_verify_thm26():
    code, text = run("verify", "thm26", "--group", "lex(Z, Q)")
    assert code == 0
    assert "consistent" in text


def test_verify_phi_p_exits_1_on_a_planted_mismatch(monkeypatch):
    # ring membership negated on every point: the mismatches it prints
    # must also set the exit code
    honest = valuations.ring_member
    monkeypatch.setattr(valuations, "ring_member", lambda V, a: not honest(V, a))
    code, text = run("verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "5")
    assert code == 1
    assert "MISMATCH" in text and " 0 mismatches" not in text


def test_verify_thm26_exits_1_on_an_inconsistent_report(monkeypatch):
    honest = cli.verify_thm_defblRCF
    monkeypatch.setattr(cli, "verify_thm_defblRCF", lambda G: dict(honest(G), consistent=False))
    code, text = run("verify", "thm26", "--group", "lex(Z, Q)")
    assert code == 1
    assert "consistent=False" in text


def test_verify_phi_p_exits_1_on_a_falsified_stability_clause(monkeypatch):
    # the stability clause decided true at every point: where it is false,
    # the sweep's sampled falsification must report it, and so must the exit
    honest = valuations.decision_plan
    monkeypatch.setattr(
        valuations,
        "decision_plan",
        lambda F, G: (lambda env: True) if type(F) is Forall else honest(F, G),
    )
    code, text = run(
        "verify", "phi-pn", "--group", "lex(Z, Q)", "-p", "2", "--samples", "5", "--json"
    )
    kinds = [m["kind"] for m in json.loads(text)["mismatches"]]
    assert code == 1
    assert kinds and set(kinds) == {"falsified"}


def _analyze_with_a_planted_fault(capsys) -> list[str]:
    """The FAIL lines of `group analyze lex(Z, Q)`, which must exit 1."""
    code, _ = run("group", "analyze", "lex(Z, Q)", "--samples", "5")
    assert code == 1
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL: ")]


def test_group_analyze_exits_1_on_a_differential_mismatch(monkeypatch, capsys):
    honest = valuations.ring_member
    monkeypatch.setattr(valuations, "ring_member", lambda V, a: not honest(V, a))
    fails = _analyze_with_a_planted_fault(capsys)
    assert fails and all(line.startswith("FAIL: differential p=") for line in fails)


def test_group_analyze_exits_1_on_disagreeing_thm26_conditions(monkeypatch, capsys):
    honest = valuations._thm26
    monkeypatch.setattr(
        valuations, "_thm26", lambda G, rows: dict(honest(G, rows), consistent=False)
    )
    assert _analyze_with_a_planted_fault(capsys) == ["FAIL: thm26 conditions disagree"]


def test_group_analyze_exits_1_on_a_certified_labeled_cut(monkeypatch, capsys):
    # a non-definability certificate for every cut, the labeled ones included
    honest = valuations.non_definability_certificate
    monkeypatch.setattr(
        valuations,
        "non_definability_certificate",
        lambda G, c, primes: honest(G, c, primes) or {"cut": "planted", "pieces": []},
    )
    fails = _analyze_with_a_planted_fault(capsys)
    assert fails and all(line.endswith("has status red-flag") for line in fails)


def test_a_red_flag_row_keeps_the_certificate_that_contradicts_its_label(monkeypatch):
    planted = {"cut": "planted", "pieces": []}
    honest = valuations.non_definability_certificate
    monkeypatch.setattr(
        valuations,
        "non_definability_certificate",
        lambda G, c, primes: honest(G, c, primes) or planted,
    )
    code, text = run("group", "analyze", "lex(Z, Q)", "--samples", "5", "--json")
    assert code == 1
    report = json.loads(text)
    flagged = {row["cut"] for row in report["cuts"] if row["status"] == "red-flag"}
    assert flagged == {"top", "seg1"}
    for row in report["certificates"]:
        if row["cut"] in flagged:
            assert row["certificate"] == planted


def test_verify_classification_clean():
    code, text = run("group", "analyze", "lex(Z, Q)", "--samples", "20")
    assert code == 0


# -- valuations listing ----------------------------------------------------------------


def test_valuations_list_k2():
    code, text = run("valuations", "list", "lex(omega_tower(start=0))")
    assert code == 0
    assert "seg0+1" in text and "top" in text
    assert "v0" in text


def test_valuations_list_json_names():
    code, text = run("valuations", "list", "lex(Z, Q)", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["v0"] == "seg1"
    assert {row["cut"] for row in payload["definable"]} == {"seg1", "top"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_valuations_list_rows_are_the_report_definable_block(name):
    _, listing = run("valuations", "list", EXAMPLES[name], "--json")
    _, report = run("group", "analyze", EXAMPLES[name], "--json")
    assert json.loads(listing)["definable"] == json.loads(report)["definable"]


# -- one report path -----------------------------------------------------------------


def test_examples_text_is_header_plus_group_analyze():
    code, example = run("examples", "k1")
    assert (code, example) == (0, "example 'k1': lex(Z, Q)\n" + run("group", "analyze", "lex(Z, Q)")[1])


# -- examples and goldens ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_match_goldens(name):
    code, text = run("examples", name, "--json")
    assert code == 0
    got = json.loads(text)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert got == want


def test_examples_json_byte_deterministic():
    a = run("examples", "zpluspi", "--json")
    b = run("examples", "zpluspi", "--json")
    assert a == b


def test_example_text_mentions_notes():
    code, text = run("examples", "zpluspi")
    assert code == 0
    assert "note:" in text and "coincide" in text


# -- the whole output, pinned ------------------------------------------------------------

_PIN_GROUPS = [*(EXAMPLES[name] for name in sorted(EXAMPLES)), "lex(Zloc(2), Q)",
               "lex(Z, omega_tower(start=1), Q)"]
_PIN_FORMULAS = [
    ("lex(Z, Q)", "psi_p[2](x)", "x=t^(1,0)", "decide"),
    ("lex(Z, Q)", "phi_p[3](x)", "x=t^(-1,0) + 2", "decide"),
    ("lex(Z, Z)", "phi_pn[2,1](x)", "x=t^(0,-1)", "decide"),
    ("lex(Z, Q)", "exists y. y^2 = x", "x=t^(2,0)", "decide"),
    ("lex(Z, Q)", "exists y. y^2 = x", "x=2", "sample"),
    ("lex(Z, Q)", "forall z. (psi_p[2](z) -> psi_p[2](x*z))", "x=t^(-2,0)", "sample"),
    ("lex(Z, Q)", "forall y. y^2 != x", "x=4", "sample"),
    ("lex(Z, Q)", "exists y. y*y = x + 1", "x = O(t^(1,0))", "sample"),
    ("lex(Z, Q)", "x = y", "x=1; y=1", "sample"),
    # the calls that exit 2
    ("lex(Z, Q)", "x = 1", "x=t^(nope)", "decide"),
    ("lex(Z, Q)", "forall z. z = z", "x=1", "decide"),
    ("lex(Z, Q)", "psi_p[2](x)", "y=1", "sample"),
    ("lex(Z, Q)", "x = 0", "x = O(t^(1,0))", "decide"),
    ("lex(omega_tower(start=0))", "x = 1", "x=1", "sample"),
]


def _pin_battery():
    """Every subcommand in text and in --json over six groups, small sample
    counts, non-default display primes, and both formula commands."""
    for fmt in ((), ("--json",)):
        for dsl in _PIN_GROUPS:
            for primes in ((), ("--primes", "3,11")):
                yield ("group", "analyze", dsl, "--samples", "3", *primes, *fmt)
                yield ("valuations", "list", dsl, *primes, *fmt)
            yield ("verify", "phi-pn", "--group", dsl, "-p", "3", "--samples", "3", *fmt)
            yield ("verify", "phi-pn", "--group", dsl, "-p", "2", "-n", "1", "--samples", "2", *fmt)
            yield ("verify", "thm26", "--group", dsl, *fmt)
            yield ("group", "analyze", dsl, "--samples", "2", "--seed", "7", *fmt)
        for name in sorted(EXAMPLES):
            yield ("examples", name, "--samples", "4", "--primes", "2,5", *fmt)
        for group, expr, at, mode in _PIN_FORMULAS:
            samples = ("--samples", "12") if mode == "sample" else ()
            yield ("formula", mode, "--group", group, "--expr", expr, "--at", at, *samples, *fmt)


def test_cli_output_pinned(capsys):
    # stdout, stderr and exit code of every call in the battery, hashed
    digest = hashlib.sha256()
    for argv in _pin_battery():
        code = main(list(argv))
        got = capsys.readouterr()
        digest.update(repr((argv, code, got.out, got.err)).encode())
    assert digest.hexdigest() == "b18aa31587febd371efaac5d9073969a3339db69d0e2063a960853bf0aba4b15"
