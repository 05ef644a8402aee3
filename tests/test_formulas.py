import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.convex import g_pn, max_p_divisible
from arclab.errors import (
    DslSyntaxError,
    ParameterError,
    ShapeError,
    UnsupportedQuantifierPattern,
)
from arclab.formulas import (
    Var,
    build_phi_p,
    build_phi_pn,
    build_psi_p,
    build_psi_pn_at,
    choose_params,
    eval_decidable,
    eval_sampled,
    match_phi_p,
    match_psi_p,
    parse_formula,
    print_formula,
    term_of_series,
)
from arclab.groups import elem_cmp, elem_p_divisible, parse_group, zero_element
from arclab.hahn import parse_series, print_series, sample_series, v_of, zero_series

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


def test_builders_reject_bad_primes():
    for bad in (0, 1, 4, 6, -3):
        with pytest.raises(ShapeError):
            build_psi_p(bad)


def test_phi_pn_param_count_checked():
    with pytest.raises(ParameterError):
        build_phi_pn(2, 1, [])  # level 1 needs 2^1 coset representatives


def test_print_parse_round_trip():
    for f in (
        build_psi_p(2),
        build_phi_p(3),
        parse_formula("forall z. (psi_p[2](z) -> psi_p[2](x*z))"),
        parse_formula("exists z. z^2 = 1 + x"),
        parse_formula("x = 0 or not (x*y = 1 and y = y)"),
    ):
        assert parse_formula(print_formula(f)) == f


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
        params = [term_of_series(s) for s in choose_params(G, p, n)]
        f = build_psi_pn_at(p, n, params, Var("x"))
        assert eval_decidable(f, {"x": zero_series(G)}, G) is True


def test_unsupported_quantifier_is_loud():
    with pytest.raises(UnsupportedQuantifierPattern):
        eval_decidable(parse_formula("forall z. z = z"), {}, K1)


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


# -- parameter selection -------------------------------------------------------------


def test_choose_params_pins():
    assert [print_series(s) for s in choose_params(K1, 2, 1)] == ["1", "t^(1,0)"]
    assert [print_series(s) for s in choose_params(ZPI, 2, 2)] == [
        "1",
        "t^(0,1)",
        "t^(1,0)",
        "t^(1,1)",
    ]
    assert [print_series(s) for s in choose_params(K1, 3, 0)] == ["1"]


def test_choose_params_count_is_p_to_n():
    for G, p, n in ((K1, 2, 1), (ZPI, 2, 2), (ZPI, 3, 1), (K1, 5, 0)):
        assert len(choose_params(G, p, n)) == p**n


def test_choose_params_are_coset_distinct():
    # distinct parameters never differ by an element of p * (cut subgroup)
    from arclab.groups import elem_sub

    G, p, n = ZPI, 2, 2
    cut = g_pn(G, p, n - 1)
    params = choose_params(G, p, n)
    for i, a in enumerate(params):
        for b in params[i + 1 :]:
            diff_v = (
                v_of(a) if b.is_zero() else elem_sub(G, v_of(a), v_of(b))
            )  # monomial params: compare exponents
            assert not elem_p_divisible(G, diff_v, p) or not _below(G, diff_v, cut)


def _below(G, v, cut):
    from arclab.formulas import _in_cut_subgroup

    return _in_cut_subgroup(G, v, cut)


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
