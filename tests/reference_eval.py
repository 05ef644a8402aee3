"""Reference copies of the decision walk and the per-cell differential loop
that `formulas.decision_plan` and `valuations.differential_sweep` replaced.

The walk re-matches every quantifier node and re-validates coset parameters
at every point; the loop runs one (p, n) cell at a time. Both are kept only
so the tests can check that the plans and the grouped sweep give the same
answers, errors and mismatch lists.
"""

from arclab import valuations
from arclab.convex import max_p_divisible, np_map, top_cut
from arclab.errors import NonEffectiveError, ShapeError, TruncationError, UnsupportedQuantifierPattern
from arclab.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Neq,
    Not,
    Or,
    _atom_status,
    _in_cut_subgroup,
    _match_coset_probe,
    _match_root_exists,
    _norm_env,
    _require_effective,
    _ring_member_cut,
    _sf_root_decision,
    _validate_coset_params,
    build_phi_p,
    build_phi_pn,
    choose_params,
    eval_sampled,
    eval_term,
    match_coset_clause,
    match_stability_clause,
    print_formula,
)
from arclab.groups import elem_p_divisible
from arclab.hahn import print_series, sample_series


def reference_decide(F, env, G) -> bool:
    _require_effective(G)
    return _decide(G, F, _norm_env(G, env))


def _decide_stability(G, p, x_term, env) -> bool:
    if np_map(G).value_at(p) == 0:
        return True
    sf = eval_term(G, x_term, env)
    if not sf.defined or sf.num.is_zero():
        return False
    v = sf.valuation(G)
    if not elem_p_divisible(G, v, p):
        return False
    return _ring_member_cut(G, v, max_p_divisible(G, p))


def _decide_coset_clause(G, p, x_term, param_terms, side, env) -> bool:
    _n, cut = _validate_coset_params(G, p, param_terms)
    sf = eval_term(G, x_term, env)
    if not sf.defined:
        return True
    if sf.num.is_zero():
        if side == "outside":
            return True
        return cut == top_cut(G)
    v = sf.valuation(G)
    in_ring_p = _ring_member_cut(G, v, max_p_divisible(G, p))
    if side == "inside":
        return (not in_ring_p) or _in_cut_subgroup(G, v, cut)
    return in_ring_p or _in_cut_subgroup(G, v, cut)


def _decide(G, f, env) -> bool:
    if isinstance(f, (Eq, Neq)):
        truth, certain = _atom_status(G, f, env)
        if not certain:
            raise TruncationError("atom truth is hidden below a truncation")
        return truth
    if isinstance(f, And):
        return _decide(G, f.left, env) and _decide(G, f.right, env)
    if isinstance(f, Or):
        return _decide(G, f.left, env) or _decide(G, f.right, env)
    if isinstance(f, Implies):
        return (not _decide(G, f.left, env)) or _decide(G, f.right, env)
    if isinstance(f, Not):
        return not _decide(G, f.arg, env)
    if isinstance(f, Exists):
        m = _match_root_exists(f)
        if m is not None:
            p, u, allow_neg = m
            return _sf_root_decision(G, eval_term(G, u, env), p, allow_neg)
        m = _match_coset_probe(f)
        if m is not None:
            p, w = m
            sf = eval_term(G, w, env)
            if not sf.defined or sf.num.is_zero():
                return False
            return elem_p_divisible(G, sf.valuation(G), p)
        raise UnsupportedQuantifierPattern(print_formula(f)[:120])
    if isinstance(f, Forall):
        m = match_stability_clause(f)
        if m is not None:
            return _decide_stability(G, m[0], m[1], env)
        m = match_coset_clause(f)
        if m is not None:
            p, x, params, side = m
            return _decide_coset_clause(G, p, x, params, side, env)
        raise UnsupportedQuantifierPattern(print_formula(f)[:120])
    raise ShapeError(f"not a formula: {f!r}")


def reference_differential_verify(G, p, n, samples=200, seed=42, falsify_budget=25) -> dict:
    """One cell, every check run per cell; membership goes through the
    module attribute `valuations.ring_member` so a test can plant a fault."""
    if not G.is_effective():
        raise NonEffectiveError("differential sampling needs an effective group")
    phi_p = build_phi_p(p)
    phi_pn = build_phi_pn(p, n, choose_params(G, p, n))
    vp = valuations.v_p_descriptor(G, p)
    vpn = valuations.v_pn_descriptor(G, p, n)
    stability = valuations._stability_clause(phi_p)

    xs = valuations.boundary_monomials(G)
    xs += [sample_series(G, seed * 6007 + i) for i in range(samples)]

    mismatches: list[dict] = []
    for i, x in enumerate(xs):
        env = {"x": x}
        d_p = reference_decide(phi_p, env, G)
        r_p = valuations.ring_member(vp, x)
        if d_p != r_p:
            mismatches.append({"x": print_series(x), "kind": "phi_p", "decide": d_p, "ring": r_p})
        d_pn = reference_decide(phi_pn, env, G)
        r_pn = valuations.ring_member(vpn, x)
        if d_pn != r_pn:
            mismatches.append({"x": print_series(x), "kind": "phi_pn", "decide": d_pn, "ring": r_pn})
        if not reference_decide(stability, env, G):
            continue
        out = eval_sampled(stability, env, G, budget=falsify_budget, seed=seed + 31 * i)
        if out.status == "falsified_by":
            mismatches.append(
                {
                    "x": print_series(x),
                    "kind": "falsified",
                    "clause": "stability",
                    "witness": {k: print_series(v) for k, v in (out.witness or {}).items()},
                }
            )
    return {"p": p, "n": n, "samples": samples, "checked": len(xs), "mismatches": mismatches}
