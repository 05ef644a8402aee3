import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import formulas

from arclab.convex import g_pn, max_p_divisible
from arclab.errors import (
    ArclabError,
    DslSyntaxError,
    InternalError,
    ParameterError,
    ShapeError,
    TruncationError,
    UnsupportedQuantifierPattern,
)
from arclab.formulas import (
    Add,
    And,
    Const,
    Div,
    Eq,
    Exists,
    Forall,
    Implies,
    Monomial,
    Mul,
    Neg,
    Neq,
    Not,
    Or,
    SeriesFraction,
    Sub,
    Var,
    build_phi_p,
    build_phi_pn,
    build_phi_pn_at,
    build_psi_p,
    build_psi_pn_at,
    choose_params,
    decision_plan,
    eval_decidable,
    eval_sampled,
    eval_term,
    free_term_vars,
    match_phi_p,
    match_psi_p,
    parse_formula,
    print_formula,
    print_term,
)
from arclab.groups import (
    FreeReal,
    LocZ,
    Zed,
    elem_cmp,
    elem_p_divisible,
    elem_sub,
    parse_group,
    zero_element,
)
from arclab.hahn import (
    const_series,
    parse_series,
    print_series,
    sample_series,
    series_of,
    v_of,
    zero_series,
)
from arclab.valuations import _stability_clause, boundary_monomials
from conftest import EFFECTIVE_POOL
from reference_eval import (
    RefSV,
    ref_sv_and,
    ref_sv_not,
    ref_sv_or,
    reference_decide,
    reference_eval_sampled,
)

K1 = parse_group("lex(Z, Q)")
ZPI = parse_group("lex(real(1, pi))")
ZL2 = parse_group("lex(Zloc(2), Q)")


def at(text, G=K1):
    return {"x": parse_series(text, G)}


# -- builders, macros, printing ---------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_macro_matches_builder(p):
    assert parse_formula(f"psi_p[{p}](x)") == build_psi_p(p)
    assert parse_formula(f"phi_p[{p}](x)") == build_phi_p(p)


def test_phi_pn_macro_with_group_autochooses():
    f = parse_formula("phi_pn[2,1](x)", group=K1)
    assert f == build_phi_pn(2, 1, choose_params(K1, 2, 1))


def test_phi_pn_macro_without_group_or_params_rejected():
    with pytest.raises(DslSyntaxError):
        parse_formula("phi_pn[2,1](x)")


def test_psi_pn_is_not_a_macro():
    # the level-n clause pair is reachable only through phi_pn
    with pytest.raises(DslSyntaxError):
        parse_formula("psi_pn[2,1](x, params=1,t^(1,0))", group=K1)


def test_deeply_nested_input_is_a_syntax_error():
    for text in ("(" * 600 + "x=x" + ")" * 600, "-" * 2000 + "x=x", "not " * 2000 + "x=x"):
        with pytest.raises(DslSyntaxError):
            parse_formula(text)
    # nesting well inside the limit still parses
    assert parse_formula("(" * 60 + "x=x" + ")" * 60) == parse_formula("x=x")


def test_long_chains_are_a_syntax_error():
    # the parser reads chains in a loop, but printing, planning and sampling
    # recurse once per link of the left-associated tree
    for text in (
        " or ".join(["x = 0"] * 3000),
        " and ".join(["x = 0"] * 3000),
        "*".join(["x"] * 3000) + " = 0",
        "phi_p[2](" + " + ".join(["x"] * 3000) + ")",
        "not " * 100 + "(" + " or ".join(["x = 0"] * 550) + ")",
    ):
        with pytest.raises(DslSyntaxError, match="chained or nested too deeply"):
            parse_formula(text)


def _or_chain(atom: str, n: int) -> str:
    return " or ".join([atom] * n)


def test_formulas_at_the_depth_bound_are_walked():
    # n atoms joined by `or` cost n - 1 formula frames for the chain, one for
    # the atom and three for the term below it
    n = formulas._MAX_FRAMES - 3
    with pytest.raises(DslSyntaxError):
        parse_formula(_or_chain("x = 0", n + 1))
    f = parse_formula(_or_chain("x = 0", n))
    text = print_formula(f)
    assert print_formula(parse_formula(text)) == text
    env = at("1")
    assert decision_plan(f, K1)(env) is False
    assert eval_sampled(f, env, K1, budget=4).status == "false"
    g = parse_formula("forall y. " + _or_chain("y != 1", n - 1))
    assert eval_sampled(g, env, K1, budget=4).status == "falsified_by"


def test_hole_terms_at_the_depth_bound_are_matched():
    # the printed phi_p has several occurrences of its argument, which the
    # matchers compare with ==, three frames per level of the sum
    def printed(n):
        return print_formula(parse_formula("phi_p[2](" + " + ".join(["x"] * n) + ")"))

    cost = formulas._frames(parse_formula(printed(1)))
    n = (formulas._MAX_FRAMES - cost) // 3 + 1
    with pytest.raises(DslSyntaxError):
        parse_formula(printed(n + 1))
    f = parse_formula(printed(n))
    env = at("t^(1,0)")
    assert decision_plan(f, K1)(env) is True
    assert eval_sampled(f, env, K1, budget=4).status == "true"


def test_printed_phi_pn_with_128_probes_parses_back():
    text = print_formula(build_phi_pn(2, 7, choose_params(K1, 2, 7)))
    assert print_formula(parse_formula(text)) == text


def _fresh_scanning_from_2(base, used):
    """Name choice as it was before the builders kept a resume point."""
    if base not in used:
        used.add(base)
        return base
    k = 2
    while f"{base}{k}" in used:
        k += 1
    used.add(f"{base}{k}")
    return f"{base}{k}"


def test_resumed_name_choice_picks_the_same_names(monkeypatch):
    built = []
    for fresh in (formulas._fresh, _fresh_scanning_from_2):
        monkeypatch.setattr(formulas, "_fresh", fresh)
        built.append([
            print_formula(build_phi_pn(p, n, choose_params(G, p, n)))
            for G, p, n in ((K1, 2, 4), (K1, 3, 2), (ZPI, 5, 1))
        ])
    assert built[0] == built[1]


def test_phi_pn_builds_in_linear_time():
    start = time.perf_counter()
    build_phi_pn_at(2, 9, [Const(Fraction(1))] * 2**9, Var("x"))
    assert time.perf_counter() - start < 3


def test_phi_pn_macro_is_refused_from_p_to_the_n_alone():
    # the coset clause ors p^n probes, so a built phi_pn is deeper than p^n
    assert formulas._frames(parse_formula("phi_pn[2,9](x)", group=K1)) > 2**9
    for text in ("phi_pn[2,10](x)", "phi_pn[3,6](x)", "phi_pn[3,1000000000](x, params=1)"):
        with pytest.raises(DslSyntaxError, match="coset probes"):
            parse_formula(text, group=K1)
    with pytest.raises(ShapeError):
        parse_formula("phi_pn[4,1000000000](x, params=1)")


def test_builders_reject_bad_primes():
    for bad in (0, 1, 4, 6, -3):
        with pytest.raises(ShapeError):
            build_psi_p(bad)


def test_phi_pn_param_count_checked():
    with pytest.raises(ParameterError):
        build_phi_pn(2, 1, [])  # level 1 needs 2^1 coset representatives


def test_a_coset_clause_with_a_count_no_power_of_p_is_refused():
    # the builders require p^n parameters; only a hand-typed clause has 3
    params = [Const(Fraction(1))] * 3
    clause = formulas._coset_clause(2, params, Var("x"), "inside", formulas._Names())
    with pytest.raises(ParameterError, match="parameter count 3 is not a power of 2"):
        eval_decidable(parse_formula(print_formula(clause)), at("t^(1,0)"), K1)


def test_print_parse_round_trip():
    for f in (
        build_psi_p(2),
        build_phi_p(3),
        parse_formula("forall z. (psi_p[2](z) -> psi_p[2](x*z))"),
        parse_formula("exists z. z^2 = 1 + x"),
        parse_formula("x = 0 or not (x*y = 1 and y = y)"),
    ):
        assert parse_formula(print_formula(f)) == f


# -- nodes are records ---------------------------------------------------------


X, Y = Var("x"), Var("y")


@pytest.mark.parametrize("nodes", [
    [kind(X, Y) for kind in (Add, Sub, Mul, Div, Eq, Neq, And, Or, Implies)],
    [Exists("x", Eq(X, Y)), Forall("x", Eq(X, Y))],
    [Neg(X), Not(X)],
], ids=["pair", "binder", "unary"])
def test_nodes_of_one_layout_differ_and_hash_apart(nodes):
    for a, b in itertools.combinations(nodes, 2):
        assert a != b and not a == b
    assert len(set(nodes)) == len({hash(node) for node in nodes}) == len(nodes)


def test_a_node_field_cannot_be_assigned():
    with pytest.raises(AttributeError):
        Add(X, Y).left = Y


def test_node_repr_pinned():
    assert repr(parse_formula("exists y. y^2 = x + 1/2*t^(1,0)")) == (
        "Exists(var='y', body=Eq(left=Pow(base=Var(name='y'), n=2), right=Add(left=Var(name='x'), "
        "right=Mul(left=Const(value=Fraction(1, 2)), right=Monomial(exps=(Fraction(1, 1), "
        "Fraction(0, 1)))))))"
    )


def test_a_node_of_the_wrong_sort_is_a_shape_error():
    x, atom = Var("x"), Eq(Var("x"), Const(Fraction(0)))
    for bad in (atom, Add(x, Mul(Const(Fraction(2)), atom)), 3):
        for walk in (print_term, free_term_vars):
            with pytest.raises(ShapeError):
                walk(bad)
    for bad in (x, Or(atom, And(atom, x)), Not(Exists("y", x)), Eq(x, atom), 3):
        with pytest.raises(ShapeError):
            print_formula(bad)


def test_a_malformed_tree_is_a_shape_error_in_both_evaluators():
    for bad, what in ((Eq(Var("x"), "junk"), "not a term"), ("junk", "not a formula")):
        for evaluate in (eval_decidable, eval_sampled):
            with pytest.raises(ShapeError, match=what):
                evaluate(bad, at("1"), K1)


def test_matchers_round_trip():
    assert match_psi_p(build_psi_p(3)) == (3, Var("x"))
    assert match_phi_p(build_phi_p(5)) == (5, Var("x"))
    assert match_psi_p(build_phi_p(2)) is None


def test_match_rejects_perturbed_shape():
    f = parse_formula("forall z. (psi_p[2](z) -> psi_p[3](x*z))")  # mixed primes
    assert match_psi_p(f) is None
    from arclab.formulas import match_stability_clause

    assert match_stability_clause(f) is None


# -- decidable pins ----------------------------------------------------------------


def test_psi2_decidable_pins():
    psi2 = build_psi_p(2)
    assert eval_decidable(psi2, at("t^(1,0)"), K1) is True
    assert eval_decidable(psi2, at("t^(0,1/2)"), K1) is False
    assert eval_decidable(psi2, at("1 + t^(1,0)"), K1) is False  # v = 0


def test_phi2_decidable_pins():
    phi2 = build_phi_p(2)
    assert eval_decidable(phi2, at("t^(0,-7/2)"), K1) is True
    assert eval_decidable(phi2, at("t^(0,1/2)"), K1) is True
    assert eval_decidable(phi2, at("t^(-1,0)"), K1) is False


def test_zero_argument_edge():
    assert eval_decidable(build_psi_p(2), {"x": zero_series(K1)}, K1) is False
    assert eval_decidable(build_phi_p(2), {"x": zero_series(K1)}, K1) is True
    for G, p, n in ((K1, 2, 1), (ZPI, 2, 2), (ZPI, 3, 0)):
        params = choose_params(G, p, n)
        f = build_psi_pn_at(p, n, params, Var("x"))
        assert eval_decidable(f, {"x": zero_series(G)}, G) is True


def test_unsupported_quantifier_is_loud():
    with pytest.raises(UnsupportedQuantifierPattern):
        eval_decidable(parse_formula("forall z. z = z"), {}, K1)


def test_plan_raises_only_where_evaluation_reaches_an_unsupported_node():
    plan = decision_plan(parse_formula("x = 0 or forall z. z = z"), K1)
    for _ in range(2):  # raised on every reach, never cached as a verdict
        assert plan(at("0")) is True
        with pytest.raises(UnsupportedQuantifierPattern):
            plan(at("1"))


def test_plan_raises_only_where_evaluation_reaches_a_malformed_node():
    x = Var("x")
    for bad in ("junk", Eq(x, "junk")):
        plan = decision_plan(Or(Eq(x, Const(Fraction(0))), bad), K1)
        for _ in range(2):  # raised on every reach, never cached as a verdict
            assert plan(at("0")) is True
            with pytest.raises(ShapeError):
                plan(at("1"))


def test_plan_evaluates_a_closed_subterm_once_and_only_where_reached(monkeypatch):
    # a closed subterm is evaluated the first time a point reaches it, and
    # kept; the variable is read from the point, with no evaluation
    calls = []
    honest = formulas.eval_term
    monkeypatch.setattr(
        formulas, "eval_term", lambda G, t, env: calls.append(t) or honest(G, t, env)
    )
    plan = decision_plan(parse_formula("x = 0 or x = 1 + t^(1,0)"), K1)
    assert calls == []
    assert [plan(at(text)) for text in ("0", "1 + t^(1,0)", "1", "0")] == [True, True, False, True]
    assert [print_term(t) for t in calls] == ["0", "1 + t^(1,0)", "1", "t^(1,0)"]


def test_plan_raises_only_where_evaluation_reaches_a_bad_closed_subterm():
    # lex(Z, Q) has no exponent 1/2 in its first slot
    plan = decision_plan(parse_formula("x = 0 or x = t^(1/2,0)"), K1)
    for _ in range(2):  # raised on every reach, never kept
        assert plan(at("0")) is True
        with pytest.raises(ShapeError):
            plan(at("1"))


def _value_or_error(evaluate):
    try:
        return evaluate()
    except ArclabError as exc:
        return type(exc)


@pytest.mark.parametrize(
    "text",
    [
        "x", "2", "t^(1,0)", "y + 1", "-x", "-(1 + x)", "x^3", "1 + x", "x - t^(1,0)",
        "2*x", "x*x", "x/t^(1,0)", "x/0", "1/x", "-(x*x) + 1/x", "(1 + t^(0,1/2))/(x - 1)",
    ],
)
def test_a_compiled_term_evaluates_as_eval_term(text):
    # the same fraction, or the same error class, at exact, zero and truncated points
    t = parse_formula(f"{text} = 0").left
    compiled = formulas._plan_term(K1, t)
    for point in ("0", "1", "t^(1,0) + 3", "-t^(-1,1/2) + O(t^(1,0))", "O(t^(1,0))"):
        env = formulas._norm_env(K1, at(point))
        want = _value_or_error(lambda: formulas.eval_term(K1, t, env))
        assert _value_or_error(lambda: compiled(env)) == want, point


def test_plan_validates_coset_parameters_only_where_reached(monkeypatch):
    # two equal parameters represent one coset where the level-1 subgroup
    # has two; phi_p(x) short-circuits before the coset clauses unless x
    # lies outside the v_2 ring
    matched = []
    match = formulas.match_coset_clause
    monkeypatch.setattr(formulas, "match_coset_clause", lambda f: matched.append(f) or match(f))
    F = parse_formula("x = 0 or phi_pn[2,1](x, params=1,1)")
    plan = decision_plan(F, K1)
    for _ in range(2):
        assert plan(at("0")) is True
        assert plan(at("t^(1,0)")) is True
        with pytest.raises(ParameterError):
            plan(at("t^(-1,0)"))
    # only the outside clause is reached, and it is matched once: a failed
    # validation is retried, the match is not
    assert len(matched) == 1
    with pytest.raises(ParameterError):
        eval_decidable(F, at("t^(-1,0)"), K1)


@pytest.mark.parametrize(
    "text, point",
    [
        # -1 is a square up to sign but no square
        ("(exists y. y^2 = x or y^2 = -x) and not (exists z. z^2 = x)", "-1"),
        ("not (exists z. z^2 = x) and (exists y. y^2 = x or y^2 = -x)", "-1"),
        # t^(2,0) is a square but no cube
        ("(exists z. z^2 = x) and not (exists z. z^3 = x)", "t^(2,0)"),
        ("not (exists z. z^3 = x) and (exists z. z^2 = x)", "t^(2,0)"),
        ("x = 1 or x != 1", "2"),
        ("x != 1 and not x = 1", "2"),
    ],
)
def test_a_memo_keeps_leaves_of_another_sign_prime_or_kind_apart(text, point):
    # one plan call shares one memo across its leaves, and so do two plans
    # called with one memo: either way each side keeps its own verdict
    F = parse_formula(text)
    assert decision_plan(F, K1)(at(point)) is True
    sides = [decision_plan(side, K1) for side in (F.left, F.right)]
    env, memo = at(point), {}
    assert [plan(env, memo) for plan in sides] == [plan(at(point)) for plan in sides]


def test_a_memo_filled_at_another_point_is_refused():
    plan = decision_plan(build_phi_p(2), K1)
    env, memo = at("1"), {}
    assert plan(env, memo) is True
    assert plan(env, memo) is True
    with pytest.raises(InternalError):
        plan(at("1"), memo)  # an equal assignment, but another point's object
    with pytest.raises(InternalError):
        decision_plan(build_phi_p(2), ZPI)(env, memo)


def test_one_memo_decides_each_root_test_once_and_normalises_once(monkeypatch):
    roots, norms = [], []
    root, norm = formulas._sf_root_decision, formulas._norm_env
    monkeypatch.setattr(
        formulas,
        "_sf_root_decision",
        lambda G, sf, p, signed: roots.append((p, signed, print_series(sf.num)))
        or root(G, sf, p, signed),
    )
    monkeypatch.setattr(formulas, "_norm_env", lambda G, env: norms.append(env) or norm(G, env))
    Fs = build_phi_p(2), build_phi_pn(2, 1, choose_params(K1, 2, 1))
    plans = [decision_plan(F, K1) for F in Fs]
    # outside the ring, phi_pn reaches its own copies of phi_p(x)
    env = at("t^(-1,0)")
    alone = [plan(env) for plan in plans]
    assert len(roots) > len(set(roots)) and len(norms) == 2
    roots.clear()
    norms.clear()
    memo = {}
    assert [plan(env, memo) for plan in plans] == alone
    assert sorted(roots) == [(2, False, "t^(-1,0) + 1"), (2, True, "t^(-1,0)")]
    assert len(norms) == 1


@pytest.mark.parametrize("name", EFFECTIVE_POOL)
def test_plans_sharing_a_memo_per_point_decide_as_eval_decidable(name):
    # the formulas a sweep of every (p, n <= 1) cell decides, at its boundary
    # probes and first 20 samples, with one memo per point across them all
    G = parse_group(name)
    Fs = []
    for p in (2, 3, 5):
        phi_p = build_phi_p(p)
        Fs += [phi_p, _stability_clause(phi_p)]
        Fs += [build_phi_pn(p, n, choose_params(G, p, n)) for n in (0, 1)]
    plans = [decision_plan(F, G) for F in Fs]
    for x in boundary_monomials(G) + [sample_series(G, 42 * 6007 + i) for i in range(20)]:
        env, memo = {"x": x}, {}
        want = [eval_decidable(F, env, G) for F in Fs]
        assert [plan(env, memo) for plan in plans] == want, print_series(x)


def test_env_over_another_group_is_rejected():
    # the one place series of two groups could meet
    with pytest.raises(ShapeError):
        eval_decidable(build_psi_p(2), {"x": parse_series("t^(1)", parse_group("lex(Q)"))}, K1)


# -- sampled pins -------------------------------------------------------------------


def test_stability_clause_falsified_exactly():
    stab = parse_formula("forall z. (psi_p[2](z) -> psi_p[2](x*z))")
    out = eval_sampled(stab, at("t^(-2,0)"), K1)
    assert out.status == "falsified_by" and out.certain
    assert print_series(out.witness["z"]) == "t^(1,0)"


def test_stability_clause_falsified_at_minus_one():
    stab = parse_formula("forall z. (psi_p[2](z) -> psi_p[2](x*z))")
    out = eval_sampled(stab, at("t^(-1,0)"), K1)
    assert out.status == "falsified_by" and out.certain
    # any exact counterexample is acceptable; check it really is one
    z = out.witness["z"]
    psi2 = build_psi_p(2)
    assert eval_decidable(psi2, {"x": z}, K1) is True
    xz = parse_series("t^(-1,0)", K1)
    from arclab.hahn import series_mul

    assert eval_decidable(psi2, {"x": series_mul(xz, z)}, K1) is False


def test_stability_clause_survives_where_it_should():
    stab = parse_formula("forall z. (psi_p[2](z) -> psi_p[2](x*z))")
    out = eval_sampled(stab, at("t^(2,0)"), K1)
    assert out.status == "true" and not out.certain  # survived the grid only


def test_existential_root_witness():
    ex = parse_formula("exists z. z^2 = 1 + x")
    out = eval_sampled(ex, at("t^(1,0)"), K1)
    assert out.status == "true" and out.certain
    z = out.witness["z"]
    assert z.trunc is not None  # a truncated expansion, verified below its cutoff
    assert print_series(z).startswith("1 + 1/2*t^(1,0) - 1/8*t^(2,0)")


def test_existential_without_root_is_false():
    ex = parse_formula("exists z. z^2 = x")
    out = eval_sampled(ex, at("t^(1,0)"), K1)
    assert out.status == "false" and out.certain


def test_a_false_hypothesis_passes_on_no_witness():
    # the hypothesis is false on the sample, and only inexactly so: its
    # counterexample y = 1 says nothing about the implication
    F = parse_formula("(not (exists y. y = x)) -> x = 5")
    env = at("1 + O(t^(1,0))")
    out = eval_sampled(F, env, K1)
    assert (out.status, out.certain, out.witness) == ("true", False, None)
    assert reference_eval_sampled(F, env, K1) == out
    # exactly false, it settles the implication, again with no witness
    F = parse_formula("(exists y. y^2 = x) -> x = 5")
    out = eval_sampled(F, at("t^(1,0)"), K1)
    assert (out.status, out.certain, out.witness) == ("true", True, None)


def test_unsupported_bindings_are_a_shape_error():
    for val in (SeriesFraction.of(const_series(K1, 1)), 0.5, "1", None):
        with pytest.raises(ShapeError, match="'x'"):
            eval_decidable(parse_formula("x = 1"), {"x": val}, K1)
    assert eval_decidable(parse_formula("x = 1/2"), {"x": Fraction(1, 2)}, K1) is True
    assert eval_decidable(parse_formula("x = 3"), {"x": 3}, K1) is True


# -- term semantics, which both evaluators share ----------------------------------


def _both(text, env, G=K1):
    """The decided verdict and the sampled outcome of one formula."""
    F = parse_formula(text, G)
    return eval_decidable(F, env, G), eval_sampled(F, env, G, budget=10)


def test_a_difference_subtracts():
    env = {"x": parse_series("t^(1,0) + 2", K1), "y": parse_series("t^(1,0)", K1)}
    decided, sampled = _both("x - y = 2", env)
    assert decided is True and (sampled.status, sampled.certain) == ("true", True)
    decided, sampled = _both("x - y = 2*t^(1,0) + 2", env)
    assert decided is False and (sampled.status, sampled.certain) == ("false", True)


@pytest.mark.parametrize("op", ["=", "!="])
def test_an_atom_over_a_division_by_zero_is_false(op):
    # a poisoned fraction makes both = and != false, exactly
    decided, sampled = _both(f"x/y {op} 0", {"x": 1, "y": 0})
    assert decided is False and (sampled.status, sampled.certain) == ("false", True)


def test_an_atom_hidden_below_a_truncation_is_not_certain():
    env = at("O(t^(1,0))")
    for text in ("x = 0", "x != 0"):
        with pytest.raises(TruncationError):
            eval_decidable(parse_formula(text), env, K1)
    assert eval_sampled(parse_formula("x = 0"), env, K1).certain is False
    out = eval_sampled(parse_formula("x != 0"), env, K1)
    assert (out.status, out.certain) == ("unknown_on_sample", False)
    # a term below the truncation shows, and settles the atom
    assert eval_decidable(parse_formula("x = 0"), at("t^(0,1/2) + O(t^(1,0))"), K1) is False


def test_coset_clauses_at_an_undefined_argument_hold():
    # each clause's hypothesis asks phi_p of the argument's quotient, which a
    # poisoned fraction makes false, so both clauses hold vacuously
    F = parse_formula("phi_pn[2,1](x/0)", K1)
    outside = F.right.right
    inside = F.right.left.right
    for clause in (inside, outside):
        assert formulas.match_coset_clause(clause) is not None
        assert eval_decidable(clause, {"x": 1}, K1) is True
        assert reference_decide(clause, {"x": 1}, K1) is True
        out = eval_sampled(clause, {"x": 1}, K1, budget=10)
        assert (out.status, out.certain) == ("true", False)
    assert eval_decidable(F, {"x": 1}, K1) is True


def _verdicts():
    """Every kind of verdict the sampled walk builds: an unknown one, and
    each truth, exact or not, with no assignment or one of two."""
    yield formulas._SV(None, False)
    for truth, exact in itertools.product((True, False), repeat=2):
        for assign in (None, {"y": 1}, {"y": 2, "z": 3}):
            yield formulas._SV(truth, exact, assign)


def _two_fields(v) -> RefSV:
    """A one-assignment verdict in the reference's counterexample/witness form."""
    return RefSV(
        v.truth,
        v.exact,
        v.assign if v.truth is False else None,
        v.assign if v.truth is True else None,
    )


def test_verdict_algebra_matches_the_two_field_reference():
    # or is the De Morgan dual of and, and passes on the same assignment
    # as the reference's or, stated apart
    for a in _verdicts():
        assert _two_fields(formulas._sv_not(a)) == ref_sv_not(_two_fields(a)), a
        for b in _verdicts():
            for new, ref in ((formulas._sv_and, ref_sv_and), (formulas._sv_or, ref_sv_or)):
                assert _two_fields(new(a, b)) == ref(_two_fields(a), _two_fields(b)), (new, a, b)


# -- parameter selection -------------------------------------------------------------


def test_choose_params_pins():
    assert [print_term(t) for t in choose_params(K1, 2, 1)] == ["1", "t^(1,0)"]
    assert [print_term(t) for t in choose_params(ZPI, 2, 2)] == [
        "1",
        "t^(0,1)",
        "t^(1,0)",
        "t^(1,1)",
    ]
    assert [print_term(t) for t in choose_params(K1, 3, 0)] == ["1"]


def test_choose_params_count_is_p_to_n():
    for G, p, n in ((K1, 2, 1), (ZPI, 2, 2), (ZPI, 3, 1), (K1, 5, 0)):
        assert len(choose_params(G, p, n)) == p**n


def test_choose_params_are_coset_distinct():
    # distinct parameters never differ by an element of p * (cut subgroup)
    from arclab.groups import elem_sub

    G, p, n = ZPI, 2, 2
    cut = g_pn(G, p, n - 1)
    params = [eval_term(G, t, {}).num for t in choose_params(G, p, n)]
    for i, a in enumerate(params):
        for b in params[i + 1 :]:
            diff_v = (
                v_of(a) if b.is_zero() else elem_sub(G, v_of(a), v_of(b))
            )  # monomial params: compare exponents
            assert not elem_p_divisible(G, diff_v, p) or not _below(G, diff_v, cut)


def _below(G, v, cut):
    from arclab.formulas import _in_cut_subgroup

    return _in_cut_subgroup(G, v, cut)


def _isinstance_choose_params(G, p, n):
    """choose_params as it read each slot's kind for its coset slots."""
    prefix = G.layout.offsets[g_pn(G, p, n).seg]
    ranges = [
        range(p) if isinstance(k, (Zed, FreeReal)) or (isinstance(k, LocZ) and k.q == p) else (0,)
        for k in G.layout.kinds[prefix:]
    ]
    one = Const(Fraction(1))
    out = [
        Monomial(tuple(map(Fraction, (0,) * prefix + combo))) if any(combo) else one
        for combo in itertools.product(*ranges)
    ]
    return out + [one] * (p**n - len(out))


def test_choose_params_reads_the_divisibility_tables_as_the_kinds_read():
    # every case: the pool groups and lex(Zloc(p), Q), p in {2, 3, 5, 7}, n <= 2
    for p in (2, 3, 5, 7):
        for dsl in [*EFFECTIVE_POOL, f"lex(Zloc({p}), Q)"]:
            G = parse_group(dsl)
            for n in (0, 1, 2):
                assert choose_params(G, p, n) == _isinstance_choose_params(G, p, n), (dsl, p, n)


# -- semantic properties ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]), st.sampled_from(["k1", "zl2"]))
def test_class_formula_reads_off_the_valuation(seed, p, gname):
    # the class test holds exactly on positive-valuation points whose
    # valuation misses p-divisibility
    G = {"k1": K1, "zl2": ZL2}[gname]
    x = sample_series(G, seed)
    want = (
        elem_cmp(G, v_of(x), zero_element(G)) > 0
        and not elem_p_divisible(G, v_of(x), p)
    )
    assert eval_decidable(build_psi_p(p), {"x": x}, G) is want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_decision_and_sampling_agree(seed, p):
    x = sample_series(K1, seed)
    dec = eval_decidable(build_psi_p(p), {"x": x}, K1)
    out = eval_sampled(build_psi_p(p), {"x": x}, K1, budget=60, seed=seed)
    if out.certain:
        assert (out.status == "true") is dec
    else:
        # a survived-grid universal only ever under-reports falseness
        assert out.status in ("true", "unknown_on_sample")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_ring_formula_matches_divisibility_cut(seed):
    # phi_p draws the ring of the valuation coarsened at the p-divisibility
    # cut; check directly against the convex-subgroup test
    from arclab.formulas import _ring_member_cut

    p = 2
    x = sample_series(K1, seed)
    cut = max_p_divisible(K1, p)
    assert eval_decidable(build_phi_p(p), {"x": x}, K1) is _ring_member_cut(
        K1, v_of(x), cut
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EFFECTIVE_POOL), st.integers(0, 10_000), st.data())
def test_valuation_is_the_difference_of_the_leading_exponents(dsl, seed, data):
    # a denominator at exponent 0 takes the shortcut, any other the
    # subtraction; both give the difference, with its slot types
    G = parse_group(dsl)
    num = sample_series(G, seed)
    den = data.draw(st.sampled_from([
        const_series(G, 1),
        parse_series("1", G),  # an equal exponent tuple, not the layout's own
        const_series(G, -3),
        sample_series(G, seed + 1, support=1),  # a monomial, at 0 or not
        sample_series(G, seed + 1),
    ]))
    got = SeriesFraction(num, den).valuation(G)
    want = elem_sub(G, v_of(num), v_of(den))
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_desugaring_soundness():
    # implication and negation desugared by hand must evaluate identically
    f1 = parse_formula("psi_p[2](x) -> psi_p[3](x)")
    f2 = parse_formula("not psi_p[2](x) or psi_p[3](x)")
    for text in ("t^(1,0)", "t^(0,1/2)", "t^(2,3)", "1 + t^(1,0)"):
        env = at(text)
        assert eval_decidable(f1, env, K1) is eval_decidable(f2, env, K1)


def test_unbound_variable_is_loud():
    from arclab.errors import UnboundVariableError

    with pytest.raises(UnboundVariableError):
        eval_decidable(build_psi_p(2), {}, K1)


# -- the stability fork against the generic walk --------------------------------------


def _stability_points(G):
    """The boundary probes, a few samples, and t^g + O(t^h) and O(t^g)
    around the unit exponent g of the first slot."""
    g = (1,) + (0,) * (G.n_slots() - 1)
    neg, two = tuple(-e for e in g), tuple(2 * e for e in g)
    truncated = [
        series_of(G, [(g, 1)], two),
        series_of(G, [(neg, 3)], g),
        series_of(G, [], g),
        series_of(G, [], neg),
    ]
    return boundary_monomials(G) + [sample_series(G, s) for s in range(3)] + truncated


def _sampled_or_error(F, x, G):
    try:
        return eval_sampled(F, {"x": x}, G, budget=10, seed=5)
    except ArclabError as exc:
        return type(exc)


@pytest.mark.parametrize("dsl", EFFECTIVE_POOL)
def test_stability_fork_agrees_with_the_generic_walk(dsl, monkeypatch):
    # the fork decides the clause by direct oracle runs; with its matcher
    # off, the generic walk decides the same clause over the same grid
    G = parse_group(dsl)
    points = _stability_points(G)
    for p in (2, 3, 5):
        F = parse_formula(f"forall z. (psi_p[{p}](z) -> psi_p[{p}](x*z))")
        with monkeypatch.context() as m:
            m.setattr(formulas, "match_stability_clause", lambda f: None)
            generic = [_sampled_or_error(F, x, G) for x in points]
        forked = [_sampled_or_error(F, x, G) for x in points]
        for x, a, b in zip(points, forked, generic):
            assert a == b, (p, print_series(x))
