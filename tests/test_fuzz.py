"""Input boundaries under generated input: the parsers and both evaluators
fail only with ArclabError, never with a raw Python exception; the parsers
read text with surrounding whitespace as the stripped text; a decision
plan answers as the decision walk it replaced; and printing then parsing
gives back the series or formula that was printed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.errors import ArclabError
from arclab.formulas import (
    build_phi_p,
    build_phi_pn,
    choose_params,
    decision_plan,
    eval_decidable,
    eval_sampled,
    parse_formula,
    print_formula,
)
from arclab.groups import parse_group
from arclab.hahn import parse_series, print_series, sample_series, zero_series

from reference_eval import reference_decide

K1 = parse_group("lex(Z, Q)")
GROUPS = [K1, parse_group("lex(real(1, pi))"), parse_group("lex(Zloc(2), Q)")]

# arbitrary text, and text over the characters the three DSLs use
TEXT = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="lexZQocrapimegwstdu_()[],.;=+-*/^!<> 0123456789O", max_size=60),
)


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except ArclabError:
        pass


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_parse_group_raises_only_arclab_errors(text):
    _parses_or_rejects(parse_group, text)


@settings(max_examples=300, deadline=None)
@given(TEXT, st.sampled_from(GROUPS))
def test_parse_series_raises_only_arclab_errors(text, G):
    _parses_or_rejects(lambda s: parse_series(s, G), text)


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_parse_formula_raises_only_arclab_errors(text):
    _parses_or_rejects(lambda s: parse_formula(s, group=K1), text)


@pytest.mark.parametrize("pad", [" ", "\t", "\n", " \t\n "])
def test_parsers_accept_surrounding_whitespace(pad):
    for parse, text in (
        (parse_group, "lex(Z, Q)"),
        (lambda s: parse_series(s, K1), "1 + 2*t^(1,1/2) + O(t^(2,0))"),
        (lambda s: parse_formula(s, group=K1), "phi_pn[2,1](x) and x = 1"),
    ):
        want = parse(text)
        for padded in (pad + text, text + pad, pad + text + pad):
            assert parse(padded) == want, repr(padded)


TERMS = ["x", "1 + x", "x*x", "-x", "x/t^(1,0)", "t^(1,0)", "2"]


def _psi(k: int, arg: str) -> str:
    """The psi_p shape written out at degree k (the macro takes primes only)."""
    return f"(not (exists y. (y^{k} = {arg} or y^{k} = -({arg})))) and (exists w. w^{k} = 1 + {arg})"


@st.composite
def formulas(draw, depth: int = 2) -> str:
    k = draw(st.integers(1, 6))
    t = draw(st.sampled_from(TERMS))
    shapes = [
        lambda: f"{t} = x",
        lambda: f"exists y. y^{k} = {t}",
        lambda: f"exists y. (y^{k} = {t} or y^{k} = -({t}))",
        lambda: f"forall y. y^{k} != {t}",
        lambda: f"forall z. (({_psi(k, 'z')}) -> ({_psi(k, 'x*z')}))",
        lambda: draw(st.sampled_from(["phi_p[2](x)", "psi_p[3](x/t^(1,0))", "phi_pn[2,1](x)"])),
    ]
    if depth:
        shapes += [
            lambda: f"not ({draw(formulas(depth - 1))})",
            lambda: "({}) {} ({})".format(
                draw(formulas(depth - 1)),
                draw(st.sampled_from(["and", "or", "->"])),
                draw(formulas(depth - 1)),
            ),
        ]
    return draw(st.sampled_from(shapes))()


@settings(max_examples=60, deadline=None)
@given(formulas(), st.sampled_from(GROUPS), st.integers(0, 1000))
def test_evaluators_raise_only_arclab_errors(text, G, seed):
    # root degrees 1..6: the non-prime ones must be refused or searched, not crash
    F = parse_formula(text, group=G)
    env = {"x": sample_series(G, seed)}
    for evaluate in (
        lambda: eval_decidable(F, env, G),
        lambda: eval_sampled(F, env, G, budget=12, seed=seed),
    ):
        try:
            evaluate()
        except ArclabError:
            pass


def _outcome(decide):
    """The verdict, or the class of the error raised instead."""
    try:
        return decide()
    except ArclabError as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(
    formulas(),
    st.sampled_from(GROUPS),
    st.lists(st.one_of(st.none(), st.integers(0, 1000)), min_size=1, max_size=4),
)
def test_decision_plan_matches_the_reference_walk(text, G, points):
    # one plan reused across points (None is x = 0) against the walk it
    # replaced: the same verdict or the same error class at every point
    F = parse_formula(text, group=G)
    plan = decision_plan(F, G)
    for seed in points:
        env = {"x": zero_series(G) if seed is None else sample_series(G, seed)}
        assert _outcome(lambda: plan(env)) == _outcome(lambda: reference_decide(F, env, G)), seed


# -- print then parse is the identity -------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(0, 10_000),
    st.sampled_from([{}, {"support": 2, "exp_mag": 2, "coeff_mag": 5}, {"support": 5}]),
)
def test_print_parse_round_trip_on_series(G, seed, params):
    s = sample_series(G, seed, **params)
    assert parse_series(print_series(s), G) == s


@settings(max_examples=100, deadline=None)
@given(formulas(), st.sampled_from(GROUPS))
def test_print_parse_round_trip_on_formulas(text, G):
    f = parse_formula(text, group=G)
    assert parse_formula(print_formula(f), G) == f


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GROUPS), st.sampled_from([2, 3, 5]), st.integers(0, 2))
def test_print_parse_round_trip_on_built_formulas(G, p, n):
    for f in (build_phi_p(p), build_phi_pn(p, n, choose_params(G, p, n))):
        assert parse_formula(print_formula(f), G) == f
