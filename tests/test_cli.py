import io
import json
import pathlib
from fractions import Fraction

import pytest

from arclab import groups
from arclab.cli import EXAMPLES, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


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
    for binding in ("x=t^(nope)", "x=1/0", "x=3/0*t^(1,0)"):
        code, _ = run(
            "formula", "eval", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
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
            "formula", "eval", "--group", "lex(Z, Q)", "--expr", expr, "--at", at,
            "--mode", "decide",
        )
        assert code == 2, expr
        assert "UnsupportedQuantifierPattern" in capsys.readouterr().err, expr


def test_non_prime_root_degree_is_searched_under_sample():
    # searched like any other existential: a grid witness, or no verdict
    for at, want in (("x=16", "true   y = 2"), ("x=t^(4,0)", "unknown_on_sample")):
        code, text = run(
            "formula", "eval", "--group", "lex(Z, Q)", "--expr", "exists y. y^4 = x",
            "--at", at, "--mode", "sample",
        )
        assert code == 0, at
        assert text.startswith(want), at


def test_primes_flag_validated(capsys):
    # argparse rejects the value in type validation, so the exit is the
    # interpreter-level usage exit rather than a return code
    with pytest.raises(SystemExit) as exc:
        run("examples", "k1", "--primes", "2,3,4")
    assert exc.value.code == 2


def test_flag_the_command_does_not_read_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run("valuations", "list", "lex(Z, Q)", "--cutoff", "3")
    assert exc.value.code == 2


def test_unbound_binding_is_usage_error(capsys):
    code, _ = run(
        "formula", "eval", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "y=1",
    )
    assert code == 2


def test_differential_on_schematic_group_is_usage_error(capsys):
    code, _ = run("verify", "phi-p", "--group", "lex(omega_tower(start=0))", "-p", "2")
    assert code == 2
    assert "NonEffectiveError" in capsys.readouterr().err


def test_internal_contradiction_exits_1(monkeypatch, capsys):
    # an enclosure of pi that never narrows trips sign_of_real's precision cap
    monkeypatch.setattr(groups, "pi_interval", lambda digits: (Fraction(0), Fraction(10)))
    code, _ = run(
        "formula", "eval", "--group", "lex(real(1, pi))", "--expr", "psi_p[2](x)",
        "--at", "x=t^(3,-1) + t^(0,1)", "--mode", "decide",
    )
    assert code == 1
    assert "InternalError" in capsys.readouterr().err


# -- formula eval -----------------------------------------------------------------


def test_formula_eval_decide_true():
    code, text = run(
        "formula", "eval", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "x=t^(1,0)", "--mode", "decide",
    )
    assert code == 0 and text.strip() == "true"


def test_formula_eval_with_a_19_digit_prime_degree():
    code, text = run(
        "formula", "eval", "--group", "lex(Z, Q)", "--expr", "psi_p[1000000000000000003](x)",
        "--at", "x=t^(1,0)",
    )
    assert code == 0 and text.strip() == "true"


def test_deeply_nested_formula_is_usage_error(capsys):
    for expr in ("(" * 600 + "x=x" + ")" * 600, "-" * 2000 + "x=x", "not " * 2000 + "x=x"):
        code, _ = run("formula", "eval", "--group", "lex(Z, Q)", f"--expr={expr}", "--at", "x=1")
        assert code == 2
        assert "DslSyntaxError" in capsys.readouterr().err


def test_formula_eval_decide_false():
    code, text = run(
        "formula", "eval", "--group", "lex(Z, Q)", "--expr", "psi_p[2](x)",
        "--at", "x=t^(0,1/2)", "--mode", "decide",
    )
    assert code == 0 and text.strip() == "false"


def test_formula_eval_sample_falsifies():
    code, text = run(
        "formula", "eval", "--group", "lex(Z, Q)",
        "--expr", "forall z. (psi_p[2](z) -> psi_p[2](x*z))",
        "--at", "x=t^(-2,0)", "--mode", "sample",
    )
    assert code == 0
    assert "falsified_by" in text and "z = t^(1,0)" in text


def test_formula_eval_multiple_bindings():
    code, text = run(
        "formula", "eval", "--group", "lex(Z, Q)", "--expr", "x*y = 1",
        "--at", "x=t^(1,0); y=t^(-1,0)", "--mode", "decide",
    )
    assert code == 0 and text.strip() == "true"


# -- verify subcommands --------------------------------------------------------------


def test_verify_phi_p_clean():
    code, text = run(
        "verify", "phi-p", "--group", "lex(Z, Q)", "-p", "2", "--samples", "20",
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


def test_verify_classification_clean():
    code, text = run("verify", "classification", "--group", "lex(Z, Q)", "--samples", "20")
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


def test_verify_classification_is_group_analyze(capsys):
    for fmt in ((), ("--json",)):
        verified = run("verify", "classification", "--group", "lex(Z, Q)", *fmt)
        verified_err = capsys.readouterr().err
        analyzed = run("group", "analyze", "lex(Z, Q)", *fmt)
        assert (verified, verified_err) == (analyzed, capsys.readouterr().err)


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
