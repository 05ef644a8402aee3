"""The shape matchers, derived from the builders, against the hand-written
matchers they replaced (`reference_eval`), and the two places the two
disagree on purpose: a formula whose binder captures a variable of the
argument is no built shape, and a product matches in either order."""

import hashlib
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
import reference_eval as ref

from arclab import formulas
from arclab.cli import main
from arclab.errors import NonEffectiveError, UnsupportedQuantifierPattern
from arclab.formulas import (
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
    Pow,
    Var,
    build_phi_p,
    build_phi_p_at,
    build_phi_pn,
    build_phi_pn_at,
    build_psi_p,
    build_psi_p_at,
    build_psi_pn_at,
    choose_params,
    decision_plan,
    eval_decidable,
    parse_formula,
    print_formula,
)
from arclab.groups import parse_group
from arclab.hahn import parse_series
from arclab.valuations import boundary_monomials

K1 = parse_group("lex(Z, Q)")

PAIRS = [
    (formulas.match_psi_p, ref.ref_match_psi_p),
    (formulas.match_phi_p, ref.ref_match_phi_p),
    (formulas.match_stability_clause, ref.ref_match_stability_clause),
    (formulas.match_coset_clause, ref.ref_match_coset_clause),
    (formulas._match_root_exists, ref.ref_match_root_exists),
    (formulas._match_coset_probe, ref.ref_match_coset_probe),
]
FORMULA_NODES = (Eq, Neq, And, Or, Not, Implies, Exists, Forall)
NAMES = ("x", "y", "z", "y2", "z2", "z3", "w")


def _children(node):
    """(field name, child) for every child node."""
    kids = [(f.name, getattr(node, f.name)) for f in fields(node)]
    return [(name, kid) for name, kid in kids if hasattr(kid, "__dataclass_fields__")]


def _paths(node, path=()):
    """(path, node) for every node, a path being the field names from the root."""
    yield path, node
    for name, child in _children(node):
        yield from _paths(child, path + (name,))


def _at(node, path):
    for name in path:
        node = getattr(node, name)
    return node


def _put(node, path, new):
    if not path:
        return new
    return replace(node, **{path[0]: _put(getattr(node, path[0]), path[1:], new)})


def _free(node) -> set:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (Exists, Forall)):
        return _free(node.body) - {node.var}
    return set().union(*(_free(c) for _, c in _children(node)))


def _rename_free(node, old, new, under_new=False):
    """node with its free `old` renamed to `new`, and whether that captured:
    an `old` that lands under a binder of `new`, or a free `new` at all."""
    if isinstance(node, Var):
        if node.name == old:
            return Var(new), under_new
        return node, node.name == new and not under_new
    if isinstance(node, (Exists, Forall)):
        if node.var == old:
            return node, False
        body, cap = _rename_free(node.body, old, new, under_new or node.var == new)
        return replace(node, body=body), cap
    captured = False
    changes = {}
    for name, child in _children(node):
        changes[name], cap = _rename_free(child, old, new, under_new)
        captured |= cap
    return replace(node, **changes), captured


def _alpha(node, rng, env=None):
    """A consistent renaming of every binder that captures nothing: a name
    is drawn from NAMES and kept only if no variable free under the binder
    is renamed to it, else a fresh one is used."""
    env = env or {}
    if isinstance(node, Var):
        return Var(env.get(node.name, node.name))
    if isinstance(node, (Exists, Forall)):
        taken = {env.get(u, u) for u in _free(node.body) - {node.var}}
        name = rng.choice(NAMES)
        if name in taken:
            name = f"v{rng.randrange(10**6)}"
        return replace(node, var=name, body=_alpha(node.body, rng, {**env, node.var: name}))
    return replace(node, **{name: _alpha(c, rng, env) for name, c in _children(node)})


def _mutate(f, rng):
    """One node changed -> (formula, path, kind); kind is "swap" for a
    product turned round, "capture" for a binder renaming that captures,
    and "other" otherwise. Half the picks go to binders and products."""
    nodes = list(_paths(f))
    binders_and_products = [(path, node) for path, node in nodes if isinstance(node, (Exists, Forall, Mul))]
    path, node = rng.choice(binders_and_products if rng.random() < 0.5 else nodes)
    kind = "other"
    if isinstance(node, Mul):
        new, kind = Mul(node.right, node.left), "swap"
    elif isinstance(node, (Exists, Forall)):
        name = rng.choice(NAMES)
        body, captured = _rename_free(node.body, node.var, name)
        new = replace(node, var=name, body=body)
        kind = "capture" if captured and name != node.var else "other"
    elif isinstance(node, Var):
        new = Var(rng.choice(NAMES))
    elif isinstance(node, Pow):
        new = Pow(node.base, rng.choice([n for n in (2, 3, 4, 5) if n != node.n]))
    elif isinstance(node, (Not, Neg)):
        new = node.arg if isinstance(node, Not) or rng.random() < 0.5 else Var("x")
    elif isinstance(node, (Eq, Neq)):
        new = (Neq if isinstance(node, Eq) else Eq)(node.left, node.right)
    elif isinstance(node, (And, Or)):
        new = (Or if isinstance(node, And) else And)(node.left, node.right)
    elif isinstance(node, Const):
        new = Const(node.value + 1)
    else:
        new = rng.choice([Var("x"), Const(Fraction(0)), Mul(node, Var("z"))])
    return _put(f, path, new), path, kind


def _built_shapes():
    """psi_p, phi_p and phi_{p,n} for p in {2, 3, 5} and n <= 1, with
    arguments and parameters that name y or z."""
    args = [Var("x"), Var("y"), Var("z"), Mul(Var("y"), Var("z2")), Div(Var("x"), Var("z"))]
    out = []
    for p in (2, 3, 5):
        for arg in args:
            out += [build_psi_p_at(p, arg), build_phi_p_at(p, arg)]
        for n in (0, 1):
            params = choose_params(K1, p, n)
            out.append(build_phi_pn_at(p, n, params, Var("x")))
            named = [Var("y"), Var("z")] + params[2:] if n else [Var("z")]
            out.append(build_psi_pn_at(p, n, named, Var("y")))
    return out


def _formula_nodes(f):
    return [node for _, node in _paths(f) if isinstance(node, FORMULA_NODES)]


def _compare(nodes, allowed, tally):
    for node in nodes:
        for new, old in PAIRS:
            got, want = new(node), old(node)
            if got == want:
                continue
            if allowed == "capture" and got is None:
                tally["capture"] += 1
            elif allowed == "swap" and want is None:
                tally["swap"] += 1
            else:
                text = print_formula(node)
                pytest.fail(f"{new.__name__} differs ({allowed}): {got!r} != {want!r} on {text}")


def test_matchers_agree_with_the_reference_matchers():
    rng = random.Random(20240617)
    tally = {"capture": 0, "swap": 0}
    shapes = _built_shapes()
    for f in shapes:
        _compare(_formula_nodes(f), "none", tally)
    small = [f for f in shapes if len(_formula_nodes(f)) < 400]
    for f in small:
        g = _alpha(f, rng)
        _compare(_formula_nodes(g), "none", tally)
    for _ in range(1000):
        g, path, kind = _mutate(rng.choice(small), rng)
        ancestors = [_at(g, path[:i]) for i in range(len(path) + 1)]
        _compare([a for a in ancestors if isinstance(a, FORMULA_NODES)], kind, tally)
    # each licensed difference must have turned up, or the test is blind to it
    assert tally["capture"] > 0 and tally["swap"] > 0, tally


# -- variable capture ---------------------------------------------------------------


def _captured_probe():
    """The coset probe for the parameter t^(1,0) at y, with the stability
    binder of its first phi_2 renamed to the probe's own z: that binder
    then captures the z of the argument t^(1,0)*y/z^2."""
    w = Mul(Monomial((Fraction(1), Fraction(0))), Var("y"))
    probe = formulas._coset_probe(2, w, formulas._Names({"y"}))
    text = print_formula(probe)
    assert text.count("forall z3.") == 1
    return text.replace("z3", "z")


def test_a_capturing_probe_is_no_coset_probe(capsys):
    text = _captured_probe()
    F = parse_formula(text)
    assert "forall z. " in text and formulas._match_coset_probe(F) is None
    assert ref.ref_match_coset_probe(F) is not None  # the hand-written matcher misread it
    for y in ("t^(1,0)", "t^(0,1)"):
        with pytest.raises(UnsupportedQuantifierPattern):
            eval_decidable(F, {"y": parse_series(y, K1)}, K1)
    argv = ["formula", "decide", "--group", "lex(Z, Q)", "--expr", text, "--at", "y=t^(1,0)"]
    assert main(argv) == 2
    assert "UnsupportedQuantifierPattern" in capsys.readouterr().err


# -- products in either order -------------------------------------------------------


def _turn_products(node):
    if isinstance(node, Mul):
        return Mul(_turn_products(node.right), _turn_products(node.left))
    return replace(node, **{name: _turn_products(c) for name, c in _children(node)})


@pytest.mark.parametrize("G, p, n", [(K1, 2, 1), (parse_group("lex(real(1, pi))"), 3, 1)])
def test_coset_tests_with_turned_products_decide_the_same(G, p, n):
    params = choose_params(G, p, n)
    probe = formulas._coset_probe(p, Mul(params[-1], Var("y")), formulas._Names({"y"}))
    clauses = build_psi_pn_at(p, n, params, Var("x"))
    for built, var in ((probe, "y"), (clauses, "x")):
        turned = _turn_products(built)
        assert turned != built
        plans = decision_plan(built, G), decision_plan(turned, G)
        for x in boundary_monomials(G):
            assert plans[0]({var: x}) == plans[1]({var: x}), print_formula(built)[:60]


# -- the builders print as they always have -----------------------------------------

# sha256 of the printed psi_p, phi_p and phi_{p,n} (p in {2, 3, 5}, n <= 1
# where the group has coset representatives), one per line
PINNED = {
    "lex(Z, Q)": "ecc1b237b0bc6c23595ce65a4e47b0e4fa7aa3382f6e7b7bb0173ab27d8dba7e",
    "lex(omega_tower(start=0))": "d3be40913da01806992dff3a482b0d2d8a1bc5fe5871aa6635b958dc46f8b892",
    "lex(real(1, pi))": "af4c0e54ddf09e7c89a711ea7f51bde2094b00d3c9e8c6f5c8007085a0267f47",
    "lex(poly_module(Zloc(2), pi))": "d3be40913da01806992dff3a482b0d2d8a1bc5fe5871aa6635b958dc46f8b892",
}
# the same for arguments and parameters that name the builders' own y and z
PINNED_NAMED = "54f229c349b1b671883b461e8ddb9e19bd394d9b53aa69ee032245d66dafe52b"


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("dsl", sorted(PINNED))
def test_built_formulas_print_as_pinned(dsl):
    G = parse_group(dsl)
    texts = []
    for p in (2, 3, 5):
        texts += [print_formula(build_psi_p(p)), print_formula(build_phi_p(p))]
        for n in (0, 1):
            try:
                texts.append(print_formula(build_phi_pn(p, n, choose_params(G, p, n))))
            except NonEffectiveError:
                pass
    assert _digest(texts) == PINNED[dsl]


def test_built_formulas_with_clashing_names_print_as_pinned():
    texts = []
    for p in (2, 3, 5):
        for arg in (Var("y"), Var("z"), Mul(Var("y"), Var("z2"))):
            texts += [print_formula(build_psi_p_at(p, arg)), print_formula(build_phi_p_at(p, arg))]
        params = [Var("y"), Var("z")] + [Const(1)] * (p - 2)
        texts.append(print_formula(build_psi_pn_at(p, 1, params, Var("y2"))))
    assert _digest(texts) == PINNED_NAMED
