"""First-order formulas over a Hahn series field, with two evaluators.

Terms are rational expressions in named variables, rational constants and
monomials t^g; formulas are equational atoms, boolean connectives and
quantifiers.  On top of the raw AST the module provides

  * the three definable-set builders: ``build_psi_p`` (the "positive
    non-power unit" test), ``build_phi_p`` (the ring test for the finest
    p-compatible coarsening) and ``build_phi_pn`` (the parameterized coset
    refinement), plus ``choose_params`` which picks canonical coset
    representatives.  The builders are the one statement of each shape:
    the matchers unify a formula against a builder's output at the
    formula's prime, so a hand-written formula is decided only when it
    equals a built shape up to bound-variable names and product order;
  * a small DSL (``parse_formula`` / ``print_formula``) with macros for
    all three builders;
  * ``eval_decidable`` -- an exact, pattern-based decision procedure that
    recognizes the quantifier shapes appearing in the builders and decides
    them through the root oracle and cut comparisons.  It runs through a
    ``decision_plan``: the formula compiled once for a group, with each
    quantifier node matched once and its point-independent data (level
    table entry, cuts, validated coset parameters) computed once, then
    called once per assignment.  Callers that decide one formula at many
    points build the plan themselves;
  * ``eval_sampled`` -- a witness-search evaluator that never uses the
    quantifier reductions and exists to hunt counterexamples against
    ``eval_decidable``.  Each sampled verdict carries one assignment, the
    counterexample of a false verdict or the witness of a true one; ``not``
    keeps it, and ``or`` is the De Morgan dual of ``and``.

The two evaluators are deliberately independent: the decision procedure
turns the quantified clauses into valuation-ring membership, while the
sampler instantiates quantifiers over a structured candidate grid and only
trusts the root oracle for plain p-th power existence.  Keeping the routes
separate is the point; do not "optimize" one by calling the other.

Division is rational-function style: every term evaluates to a fraction of
series, and a division by zero poisons the fraction.  Atoms mentioning a
poisoned fraction are false (both ``=`` and ``!=``), which gives the usual
implicit nonzero guard on hypotheses like phi_p(x/y).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .convex import ConvexCut, g_pn, max_p_divisible, np_map, suffix_exponent_map, top_cut
from .errors import (
    DslSyntaxError,
    InternalError,
    NonEffectiveError,
    ParameterError,
    RootError,
    ShapeError,
    TruncationError,
    UnboundVariableError,
    UnsupportedQuantifierPattern,
    ZeroInputError,
)
from .groups import (
    FreeReal,
    LexWord,
    LocZ,
    Zed,
    _clip,
    _require_effective,
    _Tokens,
    elem_cmp,
    elem_div_by_p,
    elem_neg,
    elem_p_divisible,
    elem_sub,
    format_rational,
    scalar_mul,
    zero_element,
)
from .hahn import (
    HahnSeries,
    _format_exp,
    _make,
    const_series,
    default_cutoff,
    series_add,
    leading_coeff,
    monomial,
    one_series,
    pth_root,
    root_exists,
    sample_series,
    series_invert,
    series_mul,
    series_neg,
    series_pow,
    series_sub,
    v_of,
    zero_series,
)
from .primes import is_prime

# ---------------------------------------------------------------------------
# term AST


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Monomial:
    """t^g for a flat exponent tuple g (interpreted against the eval group)."""

    exps: tuple


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    n: int


# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Neq:
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


_TERM_NODES = frozenset((Const, Var, Monomial, Add, Sub, Neg, Mul, Div, Pow))
_FORMULA_NODES = frozenset((Eq, Neq, And, Or, Not, Implies, Exists, Forall))


def _leaf(node) -> tuple:
    return ()


# the subtrees of a node of each kind, in reading order: the one statement
# of which fields hold subtrees, read by every structural walk
_PAIR = attrgetter("left", "right")
_CHILDREN = {
    **dict.fromkeys((Const, Var, Monomial), _leaf),
    **dict.fromkeys((Neg, Not), lambda node: (node.arg,)),
    Pow: lambda node: (node.base,),
    **dict.fromkeys((Exists, Forall), lambda node: (node.body,)),
    **dict.fromkeys((Add, Sub, Mul, Div, Eq, Neq, And, Or, Implies), _PAIR),
}


def free_term_vars(t) -> frozenset:
    names = set()
    todo = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind not in _TERM_NODES:
            raise ShapeError(f"not a term: {node!r}")
        if kind is Var:
            names.add(node.name)
        else:
            todo += _CHILDREN[kind](node)
    return frozenset(names)


def term_of_series(s: HahnSeries):
    """A closed term denoting an exact series (sum of coeff * monomial)."""
    if s.trunc is not None:
        raise ShapeError("cannot embed a truncated series as a term")
    if s.is_zero():
        return Const(Fraction(0))
    parts = []
    for g, c in s.terms:
        flat = tuple(Fraction(x) for x in g)
        if all(x == 0 for x in flat):
            parts.append(Const(c))
        elif c == 1:
            parts.append(Monomial(flat))
        else:
            parts.append(Mul(Const(c), Monomial(flat)))
    out = parts[0]
    for p in parts[1:]:
        out = Add(out, p)
    return out


# ---------------------------------------------------------------------------
# printing and parsing

# Each infix kind: its printed operator, its level, and the levels its left
# and right operands need to print without parentheses. Formulas and terms
# are leveled apart (atoms and unary operators sit at 3 to 5), and the terms
# of an equation print at level 0. The parser reads the operators here.
_INFIX = {
    Implies: (" -> ", 1, 2, 1),
    Or: (" or ", 2, 2, 3),
    And: (" and ", 3, 3, 4),
    Eq: (" = ", 4, 0, 0),
    Neq: (" != ", 4, 0, 0),
    Add: (" + ", 1, 1, 2),
    Sub: (" - ", 1, 1, 2),
    Mul: ("*", 2, 2, 3),
    Div: ("/", 2, 2, 3),
}
_INFIX_KIND = {op.strip(): kind for kind, (op, *_) in _INFIX.items()}
_ATOM = 5


def _print(node, prec: int, sort: frozenset) -> str:
    """node, of the sort (_TERM_NODES or _FORMULA_NODES) its position
    needs, in parentheses when its level is below prec."""
    kind = type(node)
    if kind not in sort:
        raise ShapeError(f"not a {'term' if sort is _TERM_NODES else 'formula'}: {node!r}")
    if kind in _INFIX:
        op, lvl, left, right = _INFIX[kind]
        sub = _TERM_NODES if kind is Eq or kind is Neq else sort
        s = _print(node.left, left, sub) + op + _print(node.right, right, sub)
    elif kind is Const:
        s, lvl = format_rational(node.value), 3 if node.value < 0 else _ATOM
    elif kind is Var:
        s, lvl = node.name, _ATOM
    elif kind is Monomial:
        s, lvl = _format_exp(node.exps), _ATOM
    elif kind is Neg:
        s, lvl = "-" + _print(node.arg, 3, sort), 3
    elif kind is Pow:
        s, lvl = f"{_print(node.base, _ATOM, sort)}^{node.n}", 4
    elif kind is Not:
        s, lvl = "not " + _print(node.arg, _ATOM, sort), 4
    else:
        word = "exists" if kind is Exists else "forall"
        s, lvl = f"{word} {node.var}. {_print(node.body, 1, sort)}", 1
    return f"({s})" if lvl < prec else s


def print_term(t) -> str:
    return _print(t, 0, _TERM_NODES)


def print_formula(f) -> str:
    return _print(f, 0, _FORMULA_NODES)


_KEYWORDS = {"exists", "forall", "and", "or", "not", "params", "t"}
_MACROS = {"psi_p", "phi_p", "phi_pn"}

# Nested steps a parse may hold open at once; each costs at most five
# interpreter frames, so the parser stays well inside the default
# recursion limit.
_MAX_NESTING = 150


# A walk down a formula's tree takes one interpreter frame per formula level
# (printing, decision plans, the sampler) and up to three per term level (the
# matchers compare the terms that fill a shape's holes with ==). Called from
# the CLI under the default recursion limit of 1000, a walk fails at about
# 985 frames: an `or` chain of 984 atoms, or a hole term 327 levels high. The
# bound leaves the rest to callers. Chains are built left-associated, so a
# chain of n links is n levels high.
_MAX_FRAMES = 600
_TERM_FRAMES = 3


def _frames(f) -> int:
    """The frames the deepest walk down f can take: one per formula node
    and _TERM_FRAMES per term node on its longest root-to-leaf path."""
    best = 0
    todo = [(f, 0)]
    while todo:
        node, depth = todo.pop()
        kind = type(node)
        depth += _TERM_FRAMES if kind in _TERM_NODES else 1
        best = max(best, depth)
        todo += [(child, depth) for child in _CHILDREN[kind](node)]
    return best


def _nested(step):
    """Count one nesting level around a recursive parser step, so input
    nested too deeply is a DslSyntaxError and not a RecursionError."""

    def guarded(self):
        if self.depth >= _MAX_NESTING:
            self.fail("input nested too deeply")
        self.depth += 1
        try:
            return step(self)
        finally:
            self.depth -= 1

    return guarded


class _Parser(_Tokens):
    def __init__(self, text: str, group: LexWord | None):
        super().__init__(text)
        self.group = group
        self.depth = 0

    def bounded(self, node, pos: int):
        if _frames(node) > _MAX_FRAMES:
            self.fail("input chained or nested too deeply", pos)
        return node

    def infix(self, *kinds):
        """The kind among kinds whose operator comes next, consumed, or None."""
        kind = _INFIX_KIND.get(self.peek()[1])
        if kind in kinds:
            self.i += 1
            return kind
        return None

    def chain(self, operand, *kinds):
        """Operands joined by the operators of kinds, left-associated."""
        out = operand()
        while kind := self.infix(*kinds):
            out = kind(out, operand())
        return out

    # -- formulas
    @_nested
    def formula(self):
        left = self.chain(self.f_and, Or)
        if self.infix(Implies):
            return Implies(left, self.formula())
        return left

    def f_and(self):
        return self.chain(self.f_not, And)

    @_nested
    def f_not(self):
        if self.accept("not"):
            return Not(self.f_not())
        return self.f_quant()

    def f_quant(self):
        if not (self.at("exists") or self.at("forall")):
            return self.f_atom()
        word = self.next()[1]
        kind, name, pos = self.next()
        if kind != "name" or name in _KEYWORDS or name in _MACROS:
            self.fail("expected a variable name", pos)
        self.expect(".")
        return (Exists if word == "exists" else Forall)(name, self.formula())

    def f_atom(self):
        if self.peek()[1] in _MACROS and self.at("[", 1):
            return self.macro()
        if self.at("("):
            # could be a parenthesized formula or a parenthesized term
            save = self.i
            self.next()
            try:
                inner = self.formula()
                self.expect(")")
                return inner
            except DslSyntaxError:
                self.i = save
        left = self.term()
        kind = self.infix(Eq, Neq)
        if kind is None:
            self.fail("expected '=' or '!=' after term")
        return kind(left, self.term())

    def macro(self):
        _, name, pos = self.next()
        self.expect("[")
        p = self.int_tok()
        n = None
        if name == "phi_pn":
            self.expect(",")
            n = self.int_tok()
        self.expect("]")
        self.expect("(")
        arg = self.term()
        params = None
        if self.accept(","):
            self.expect("params")
            self.expect("=")
            params = self.items(self.term)
        self.expect(")")
        for t in [arg, *(params or ())]:
            self.bounded(t, pos)
        if name != "phi_pn":
            if params is not None:
                self.fail(f"{name} takes no params", pos)
            return (build_psi_p_at if name == "psi_p" else build_phi_p_at)(p, arg)
        _check_prime(p)
        # the coset clause ors p^n probes, so p^n alone bounds its depth from
        # below; multiplying up, with p >= 2, never computes p^n for a huge n
        size = 1
        for _ in range(n):
            size *= p
            if size > _MAX_FRAMES:
                n_text = _clip(str(n))
                self.fail(f"{name}[{p},{n_text}] needs {p}^{n_text} coset probes, too deep", pos)
        if params is None:
            if self.group is None:
                self.fail(f"{name}[{p},{n}] needs explicit params when no group is given", pos)
            params = [term_of_series(s) for s in choose_params(self.group, p, n)]
        if len(params) != p**n:
            self.fail(f"expected {p**n} params, got {len(params)}", pos)
        return build_phi_pn_at(p, n, params, arg)

    # -- terms
    @_nested
    def term(self):
        return self.chain(self.t_prod, Add, Sub)

    def t_prod(self):
        out = self.t_unary()
        while kind := self.infix(Mul, Div):
            rhs = self.t_unary()
            if kind is Div and isinstance(out, Const) and isinstance(rhs, Const):
                if rhs.value == 0:
                    self.fail("division by the zero constant")
                out = Const(out.value / rhs.value)  # rational literal, not a Div node
            else:
                out = kind(out, rhs)
        return out

    @_nested
    def t_unary(self):
        if not self.accept("-"):
            return self.t_pow()
        inner = self.t_unary()
        return Const(-inner.value) if isinstance(inner, Const) else Neg(inner)

    def t_pow(self):
        base = self.t_primary()
        if not self.accept("^"):
            return base
        n = self.int_tok()
        if n < 1:
            self.fail("exponent must be >= 1")
        return Pow(base, n)

    def t_primary(self):
        if self.peek()[0] == "int":
            return Const(Fraction(self.int_tok()))
        if self.at("t") and self.at("^", 1) and self.at("(", 2):
            return Monomial(self.exponent())
        kind, val, pos = self.next()
        if val == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if kind != "name":
            self.fail("expected a term", pos)
        if val in _KEYWORDS or val in _MACROS:
            self.fail(f"{val!r} cannot be a variable", pos)
        return Var(val)


def parse_formula(text: str, group: LexWord | None = None):
    """Parse the formula DSL; `group` is only needed for phi_pn without params."""
    p = _Parser(text, group)
    f = p.formula()
    p.expect_end()
    return p.bounded(f, 0)


# ---------------------------------------------------------------------------
# builders: the one statement of each shape.  The public builders compose
# the clause builders below, and the matchers further down unify against
# the same builders' output, so a shape is written down exactly once.


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ShapeError(f"{p} is not prime")


class _Names(set):
    """The variable names a build has taken so far.

    Names are only ever added, so the smallest free suffix of a base never
    goes down: ``resume[base]`` is a k such that base and base2 .. base{k-1}
    are all taken, and ``_fresh`` continues its scan there instead of at 2.
    """

    def __init__(self, names=()):
        super().__init__(names)
        self.resume: dict[str, int] = {}


def _fresh(base: str, used: _Names) -> str:
    """The first of base, base2, base3, ... not yet taken, now taken."""
    if base not in used:
        used.add(base)
        return base
    k = used.resume.get(base, 2)
    while f"{base}{k}" in used:
        k += 1
    used.add(f"{base}{k}")
    used.resume[base] = k + 1
    return f"{base}{k}"


def _root_test(p: int, u, signed: bool, used: _Names):
    """exists y. (y^p = u or y^p = -u) when signed, else exists z. z^p = u."""
    y = _fresh("y" if signed else "z", used)
    yp = Pow(Var(y), p)
    return Exists(y, Or(Eq(yp, u), Eq(yp, Neg(u))) if signed else Eq(yp, u))


def _stability_test(p: int, arg, used: _Names):
    """forall z. psi_p(z) -> psi_p(arg*z): multiplication by arg keeps the class."""
    z = _fresh("z", used)
    return Forall(
        z, Implies(build_psi_p_at(p, Var(z), used), build_psi_p_at(p, Mul(arg, Var(z)), used))
    )


def _coset_probe(p: int, w, used: _Names):
    """exists z. phi_p(w/z^p) and phi_p(z^p/w): w is a p-th power times a unit."""
    z = _fresh("z", used)
    zp = Pow(Var(z), p)
    return Exists(z, And(build_phi_p_at(p, Div(w, zp), used), build_phi_p_at(p, Div(zp, w), used)))


def _coset_clause(p: int, params, arg, side: str, used: _Names):
    """forall y. hypothesis -> OR_i probe(params[i]*y). The "inside" hypothesis
    keeps y in the ring (y != 0, phi_p(y), phi_p(arg/y)); the "outside" one
    mirrors it (y != 0, not phi_p(y), phi_p(y/arg))."""
    y = Var(_fresh("y", used))
    nonzero = Neq(y, Const(Fraction(0)))
    if side == "inside":
        hyp = And(And(nonzero, build_phi_p_at(p, y, used)), build_phi_p_at(p, Div(arg, y), used))
    else:
        hyp = And(And(nonzero, Not(build_phi_p_at(p, y, used))), build_phi_p_at(p, Div(y, arg), used))
    probes = [_coset_probe(p, Mul(prm, y), used) for prm in params]
    return Forall(y.name, Implies(hyp, functools.reduce(Or, probes)))


def build_psi_p_at(p: int, arg, used: _Names | None = None):
    """x is positive, not a p-th power up to sign, and 1 + x has a p-th root."""
    _check_prime(p)
    used = used if used is not None else _Names()
    used |= free_term_vars(arg)
    no_root = Not(_root_test(p, arg, True, used))
    return And(no_root, _root_test(p, Add(Const(Fraction(1)), arg), False, used))


def build_psi_p(p: int):
    return build_psi_p_at(p, Var("x"))


def build_phi_p_at(p: int, arg, used: _Names | None = None):
    """Ring test: x = 0, or psi_p(x), or x is a p-th power up to sign whose
    multiplication preserves the psi_p class."""
    _check_prime(p)
    used = used if used is not None else _Names()
    used |= free_term_vars(arg)
    psi = build_psi_p_at(p, arg, used)
    root = _root_test(p, arg, True, used)
    return Or(Or(psi, And(root, _stability_test(p, arg, used))), Eq(arg, Const(Fraction(0))))


def build_phi_p(p: int):
    return build_phi_p_at(p, Var("x"))


def build_psi_pn_at(p: int, n: int, param_terms, arg, used: _Names | None = None):
    _check_prime(p)
    if len(param_terms) != p**n:
        raise ParameterError(f"expected {p**n} parameters, got {len(param_terms)}")
    used = used if used is not None else _Names()
    used |= free_term_vars(arg)
    for prm in param_terms:
        used |= free_term_vars(prm)
    inside = _coset_clause(p, param_terms, arg, "inside", used)
    b1 = And(build_phi_p_at(p, arg, used), inside)
    return Or(b1, _coset_clause(p, param_terms, arg, "outside", used))


def build_phi_pn_at(p: int, n: int, param_terms, arg, used: _Names | None = None):
    used = used if used is not None else _Names()
    used |= free_term_vars(arg)
    return Or(build_phi_p_at(p, arg, used), build_psi_pn_at(p, n, param_terms, arg, used))


def build_phi_pn(p: int, n: int, params):
    """params: the p^n series from choose_params (or equivalent coset reps)."""
    if len(params) != p**n:
        raise ParameterError(f"expected {p**n} parameters, got {len(params)}")
    return build_phi_pn_at(p, n, [term_of_series(s) for s in params], Var("x"))


def choose_params(G: LexWord, p: int, n: int) -> list[HahnSeries]:
    """Monomials whose exponents represent every coset of p times the level-n
    convex subgroup; padded with 1 up to length p^n."""
    _check_prime(p)
    if n < 0:
        raise ShapeError("level must be a natural")
    cut = g_pn(G, p, n)
    if cut.inner is not None:
        raise NonEffectiveError("coset representatives inside a schematic tower")
    for comp in G.components[cut.seg :]:
        if not comp.is_effective():
            raise NonEffectiveError(f"cannot enumerate cosets of a schematic unit ({comp.describe()})")
    prefix_zeros = G.layout.offsets[cut.seg]
    ranges: list[range | tuple] = []
    for kind in G.layout.kinds[prefix_zeros:]:
        if isinstance(kind, (Zed, FreeReal)) or (isinstance(kind, LocZ) and kind.q == p):
            ranges.append(range(p))
        else:  # Q, or Zloc(q) with q != p: p-divisible
            ranges.append((0,))
    out = []
    for combo in itertools.product(*ranges):
        flat = (0,) * prefix_zeros + combo
        out.append(monomial(G, flat, 1))
    if len(out) > p**n:
        raise InternalError("coset count exceeds p^n; the level cut is wrong")  # unreachable
    while len(out) < p**n:
        out.append(one_series(G))
    return out


# ---------------------------------------------------------------------------
# term evaluation: fractions of series with a sticky definedness flag


@dataclass(frozen=True)
class SeriesFraction:
    num: HahnSeries
    den: HahnSeries
    defined: bool = True

    @staticmethod
    def of(s: HahnSeries) -> "SeriesFraction":
        return SeriesFraction(s, one_series(s.group))

    def is_zero(self) -> bool:
        return self.defined and self.num.is_zero()

    def valuation(self, G: LexWord):
        v, d = v_of(self.num), v_of(self.den)
        # a denominator at exponent 0, as every one the sampler wraps, leaves v
        return v if d == G.layout.zero else elem_sub(G, v, d)

    def lead_sign(self) -> int:
        s = leading_coeff(self.num) * leading_coeff(self.den)
        return (s > 0) - (s < 0)

    def as_series(self, cutoff=None) -> HahnSeries:
        if not self.defined:
            raise ZeroInputError("undefined fraction has no series form")
        return series_mul(self.num, series_invert(self.den, cutoff=cutoff))


def _undef(G: LexWord) -> SeriesFraction:
    return SeriesFraction(zero_series(G), one_series(G), defined=False)


def _norm_env(G: LexWord, env) -> dict:
    out = {}
    for name, val in (env or {}).items():
        if isinstance(val, SeriesFraction):
            out[name] = val
        elif isinstance(val, HahnSeries):
            out[name] = SeriesFraction.of(val)
        else:
            out[name] = SeriesFraction.of(const_series(G, Fraction(val)))
        if out[name].num.group != G:
            raise ShapeError(f"assignment for {name!r} lives over a different group")
    return out


def eval_term(G: LexWord, t, env: dict) -> SeriesFraction:
    if isinstance(t, Const):
        return SeriesFraction.of(const_series(G, t.value))
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariableError(f"variable {t.name!r} is not assigned")
        return env[t.name]
    if isinstance(t, Monomial):
        return SeriesFraction.of(monomial(G, t.exps, 1))
    if isinstance(t, Neg):
        a = eval_term(G, t.arg, env)
        return SeriesFraction(series_neg(a.num), a.den, a.defined)
    if isinstance(t, Pow):
        a = eval_term(G, t.base, env)
        return SeriesFraction(series_pow(a.num, t.n), series_pow(a.den, t.n), a.defined)
    a = eval_term(G, t.left, env)
    b = eval_term(G, t.right, env)
    ok = a.defined and b.defined
    if isinstance(t, Add):
        num = series_add(series_mul(a.num, b.den), series_mul(b.num, a.den))
        return SeriesFraction(num, series_mul(a.den, b.den), ok)
    if isinstance(t, Sub):
        num = series_sub(series_mul(a.num, b.den), series_mul(b.num, a.den))
        return SeriesFraction(num, series_mul(a.den, b.den), ok)
    if isinstance(t, Mul):
        return SeriesFraction(series_mul(a.num, b.num), series_mul(a.den, b.den), ok)
    if isinstance(t, Div):
        # divisor with no visible term: zero, or indistinguishable from it
        if not ok or not b.num.terms:
            return _undef(G)
        return SeriesFraction(series_mul(a.num, b.den), series_mul(a.den, b.num), True)
    raise ShapeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# matchers: no shape is written down here.  Each matcher reads p off the
# formula and unifies it with the builder's output at p, whose free
# variables are the holes that return the shape's arguments.


# the binary kinds whose operands unify in place; a product matches in either order
_BINARY = frozenset(kind for kind, get in _CHILDREN.items() if get is _PAIR) - {Mul}
_X = Var("x")  # the hole for a shape's argument


@functools.lru_cache(maxsize=256)
def _pattern(build, p: int, *holes):
    """The builder's formula at p over the hole terms, built once per prime."""
    return build(p, *holes, _Names())


def _unify(pattern, f) -> dict | None:
    """The terms that fill the pattern's free variables (its holes) to give
    f, or None.

    Bound variables match by binding position, not by name. A hole takes a
    term that mentions no variable bound inside the shape, and the same term
    at every occurrence. A product matches in either order.
    """
    holes: dict = {}
    return holes if _unify_into(pattern, f, {}, {}, holes) else None


def _unify_into(pattern, f, pbound: dict, fbound: dict, holes: dict) -> bool:
    # bound names map to one token per binder pair, shared by both sides;
    # a work list rather than recursion, since disjunctions can be long
    todo = [(pattern, f, pbound, fbound)]
    while todo:
        pat, g, pbound, fbound = todo.pop()
        kind = type(pat)
        if kind is Var:
            binder = pbound.get(pat.name)
            if binder is not None:
                if not (type(g) is Var and fbound.get(g.name) is binder):
                    return False
            elif not (free_term_vars(g).isdisjoint(fbound) and holes.setdefault(pat.name, g) == g):
                return False
        elif kind is not type(g):
            return False
        elif kind in _BINARY:
            todo.append((pat.right, g.right, pbound, fbound))
            todo.append((pat.left, g.left, pbound, fbound))
        elif kind is Not or kind is Neg:
            todo.append((pat.arg, g.arg, pbound, fbound))
        elif kind is Exists or kind is Forall:
            binder = object()
            todo.append((pat.body, g.body, {**pbound, pat.var: binder}, {**fbound, g.var: binder}))
        elif kind is Pow:
            if pat.n != g.n:
                return False
            todo.append((pat.base, g.base, pbound, fbound))
        elif kind is Mul:
            saved = dict(holes)
            for left, right in ((g.left, g.right), (g.right, g.left)):
                if _unify_into(pat.left, left, pbound, fbound, holes) and _unify_into(
                    pat.right, right, pbound, fbound, holes
                ):
                    break
                holes.clear()
                holes.update(saved)
            else:
                return False
        elif pat != g:  # Const, Monomial
            return False
    return True


def _shape_prime(f) -> int | None:
    """The p of a formula read as a built shape, or None if it is not prime.

    Every shape's first power, reading left to right, is the y^p of a root
    test, and no product comes before it. The root shapes are the prime
    boundary of the formula layer: every matcher reads p here, so a matched
    p is prime.
    """
    todo = [f]
    while todo:
        node = todo.pop()
        if type(node) is Pow:
            return node.n if is_prime(node.n) else None
        todo += reversed(_CHILDREN.get(type(node), _leaf)(node))
    return None


def _match(f, build, *holes) -> tuple[int, dict] | None:
    """(p, hole fillings) when f is build's shape at its own prime."""
    p = _shape_prime(f)
    if p is None:
        return None
    filled = _unify(_pattern(build, p, *holes), f)
    return None if filled is None else (p, filled)


def _match_arg(f, build) -> tuple | None:
    """(p, arg) when f is build's shape at its own prime over some arg."""
    m = _match(f, build, _X)
    return None if m is None else (m[0], m[1][_X.name])


def match_psi_p(f):
    """The built psi_p shape -> (p, arg); None otherwise."""
    return _match_arg(f, build_psi_p_at)


def _match_root_exists(f):
    """Exists y. Or(y^p = U, y^p = -U) -> (p, U, True); Exists y. y^p = U -> (p, U, False);
    None otherwise, and for a p that is not prime."""
    for signed in (True, False):
        m = _match(f, _root_test, _X, signed)
        if m is not None:
            return (m[0], m[1][_X.name], signed)
    return None


def match_phi_p(f):
    """The built phi_p shape -> (p, arg); None otherwise."""
    return _match_arg(f, build_phi_p_at)


def match_stability_clause(f):
    """Forall z. psi_p(z) -> psi_p(x*z)   ->  (p, x); None otherwise."""
    return _match_arg(f, _stability_test)


def _match_coset_probe(f):
    """Exists z. phi_p(W/z^p) and phi_p(z^p/W)  ->  (p, W); None otherwise."""
    return _match_arg(f, _coset_probe)


def match_coset_clause(f):
    """The two universal clauses of the level-n coset test.

    Returns (p, x, params, side) with side "inside" for the clause whose
    hypothesis keeps y in the ring (y != 0, phi_p(y), phi_p(x/y)) and
    "outside" for the mirrored clause (y != 0, not phi_p(y), phi_p(y/x)).
    The parameter count is read off the conclusion, one probe per parameter.
    """
    if not (isinstance(f, Forall) and isinstance(f.body, Implies)):
        return None
    k, g = 1, f.body.right
    while isinstance(g, Or):
        k, g = k + 1, g.left
    params = tuple(Var(f"c{i}") for i in range(k))
    for side in ("inside", "outside"):
        m = _match(f, _coset_clause, params, _X, side)
        if m is not None:
            p, filled = m
            return (p, filled[_X.name], [filled[c.name] for c in params], side)
    return None


def _exact_log(m: int, p: int) -> int | None:
    n = 0
    while m > 1 and m % p == 0:
        m //= p
        n += 1
    return n if m == 1 else None


# ---------------------------------------------------------------------------
# decision procedure


def _in_cut_subgroup(G: LexWord, v, cut: ConvexCut) -> bool:
    """Does v lie in the convex subgroup named by the cut?"""
    if cut.inner is not None:
        raise NonEffectiveError("membership inside a schematic tower cut")
    k = G.layout.offsets[cut.seg]
    return v[:k] == zero_element(G)[:k]


def _ring_member_cut(G: LexWord, v, cut: ConvexCut) -> bool:
    """v >= 0, or v inside the subgroup at the cut (coarsened ring test)."""
    if elem_cmp(G, v, zero_element(G)) >= 0:
        return True
    return _in_cut_subgroup(G, v, cut)


def _series_zero_status(s: HahnSeries) -> tuple[bool, bool]:
    """(is-zero-so-far, certain)."""
    if s.terms:
        return (False, True)
    if s.trunc is None:
        return (True, True)
    return (True, False)


def _atom_status(G: LexWord, f, env) -> tuple[bool | None, bool]:
    """Truth and certainty of an equational atom; poisoned atoms are false."""
    a = eval_term(G, f.left, env)
    b = eval_term(G, f.right, env)
    if not (a.defined and b.defined):
        return (False, True)
    try:
        diff = series_sub(series_mul(a.num, b.den), series_mul(b.num, a.den))
    except TruncationError:
        return (None, False)
    zero, certain = _series_zero_status(diff)
    truth = zero if isinstance(f, Eq) else not zero
    return (truth, certain)


def _sf_root_decision(G: LexWord, sf: SeriesFraction, p: int, allow_negation: bool) -> bool:
    """root_exists lifted to fractions; 0 counts as a p-th power."""
    if not sf.defined:
        return False
    if sf.num.is_zero():
        return True
    v = sf.valuation(G)
    if not elem_p_divisible(G, v, p):
        return False
    if p % 2 == 1 or allow_negation:
        return True
    return sf.lead_sign() > 0


def _validate_coset_params(G: LexWord, p: int, param_terms) -> tuple[int, ConvexCut]:
    """Check the parameter list is a genuine family of coset representatives."""
    n = _exact_log(len(param_terms), p)
    if n is None:
        raise ParameterError(f"parameter count {len(param_terms)} is not a power of {p}")
    cut = g_pn(G, p, n)
    e = suffix_exponent_map(G, cut).value_at(p)
    vals = []
    for t in param_terms:
        try:
            sf = eval_term(G, t, {})
        except UnboundVariableError as exc:
            raise ParameterError(f"parameters must be closed terms: {exc}") from exc
        if not sf.defined or sf.num.is_zero():
            raise ParameterError("parameters must be defined and nonzero")
        if sf.num.trunc is not None or sf.den.trunc is not None:
            raise ParameterError("parameters must be exact series")
        v = sf.valuation(G)
        if not _in_cut_subgroup(G, v, cut):
            raise ParameterError(
                f"parameter exponent {v} escapes the level-{n} subgroup at {cut.cut_id()}"
            )
        vals.append(v)
    reps: list = []
    for v in vals:
        if not any(elem_p_divisible(G, elem_sub(G, v, r), p) for r in reps):
            reps.append(v)
    if len(reps) != p**e:
        raise ParameterError(
            f"parameters represent {len(reps)} cosets; the level-{n} subgroup has {p**e}"
        )
    return n, cut


def eval_decidable(F, env, G: LexWord) -> bool:
    """Exact evaluation through the supported quantifier patterns.

    Anything quantified that is not a root test, a stability clause, or a
    coset clause raises UnsupportedQuantifierPattern.  Atoms whose truth is
    hidden behind a truncation raise TruncationError rather than guess.
    A caller that decides one formula at many points builds its
    ``decision_plan`` once instead.
    """
    return decision_plan(F, G)(env)


def decision_plan(F, G: LexWord):
    """F compiled once for G into a function env -> bool that decides it
    exactly as ``eval_decidable`` does.

    Connectives and atoms are planned at once. A quantifier node runs its
    matchers the first time evaluation reaches it, and a stability clause
    then reads its level-table entry and v_p cut. A coset clause validates
    its parameters the first time it is reached after being matched. A node
    that fails to build raises on that evaluation and builds again on the
    next one, so every error is raised exactly where and whenever the
    evaluation reaches it, and none is kept as a success. The plan holds no
    state beyond its own nodes.
    """
    _require_effective(G)
    decide = _plan(G, F)
    return lambda env: decide(_norm_env(G, env))


def _on_first_reach(build):
    """A decision function that calls build() when first reached and keeps
    the result; a build that raises is retried on the next reach."""
    decide = None

    def run(env) -> bool:
        nonlocal decide
        if decide is None:
            decide = build()
        return decide(env)

    return run


def _plan(G: LexWord, f):
    if isinstance(f, (Eq, Neq)):

        def atom(env) -> bool:
            truth, certain = _atom_status(G, f, env)
            if not certain:
                raise TruncationError("atom truth is hidden below a truncation")
            return truth

        return atom
    if isinstance(f, Not):
        arg = _plan(G, f.arg)
        return lambda env: not arg(env)
    if isinstance(f, (And, Or, Implies)):
        left, right = _plan(G, f.left), _plan(G, f.right)
        if isinstance(f, And):
            return lambda env: left(env) and right(env)
        if isinstance(f, Or):
            return lambda env: left(env) or right(env)
        return lambda env: (not left(env)) or right(env)
    if isinstance(f, (Exists, Forall)):
        return _on_first_reach(lambda: _plan_quantifier(G, f))

    def not_a_formula(env) -> bool:
        raise ShapeError(f"not a formula: {f!r}")

    return not_a_formula


def _plan_quantifier(G: LexWord, f):
    """Match a quantifier node against the decidable shapes, once."""
    if isinstance(f, Exists):
        m = _match_root_exists(f)
        if m is not None:
            p, u, allow_neg = m
            return lambda env: _sf_root_decision(G, eval_term(G, u, env), p, allow_neg)
        m = _match_coset_probe(f)
        if m is not None:
            p, w = m

            def coset_probe(env) -> bool:
                sf = eval_term(G, w, env)
                if not sf.defined or sf.num.is_zero():
                    return False
                return elem_p_divisible(G, sf.valuation(G), p)

            return coset_probe
    else:
        m = match_stability_clause(f)
        if m is not None:
            return _plan_stability(G, m[0], m[1])
        m = match_coset_clause(f)
        if m is not None:
            return _on_first_reach(lambda: _plan_coset_clause(G, *m))
    msg = print_formula(f)[:120]

    def unsupported(env) -> bool:
        raise UnsupportedQuantifierPattern(msg)

    return unsupported


def _plan_stability(G: LexWord, p: int, x_term):
    """The multiplication-stability clause, decided through the cut structure."""
    if np_map(G).value_at(p) == 0:
        return lambda env: True
    cut = max_p_divisible(G, p)

    def stability(env) -> bool:
        sf = eval_term(G, x_term, env)
        if not sf.defined or sf.num.is_zero():
            return False
        v = sf.valuation(G)
        if not elem_p_divisible(G, v, p):
            return False
        return _ring_member_cut(G, v, cut)

    return stability


def _plan_coset_clause(G: LexWord, p: int, x_term, param_terms, side: str):
    """A level-n coset clause; its parameters are validated here, once, so
    a ParameterError leaves the clause unbuilt and is raised again on the
    next reach."""
    _n, cut = _validate_coset_params(G, p, param_terms)
    ring_p = max_p_divisible(G, p)
    at_zero = side == "outside" or cut == top_cut(G)

    def coset_clause(env) -> bool:
        sf = eval_term(G, x_term, env)
        if not sf.defined:
            return True
        if sf.num.is_zero():
            return at_zero
        v = sf.valuation(G)
        in_ring_p = _ring_member_cut(G, v, ring_p)
        if side == "inside":
            return (not in_ring_p) or _in_cut_subgroup(G, v, cut)
        return in_ring_p or _in_cut_subgroup(G, v, cut)

    return coset_clause


# ---------------------------------------------------------------------------
# sampled evaluation


@dataclass(frozen=True)
class EvalOutcome:
    """Result of a sampled evaluation.

    status: "true" | "false" | "falsified_by" | "unknown_on_sample".
    certain is False when the verdict only means "survived the sample grid"
    (a universally quantified clause nobody managed to falsify).
    witness maps variable names to the series that drove the verdict: the
    counterexample assignment for "falsified_by", a satisfying assignment
    for an existential "true".
    """

    status: str
    certain: bool
    witness: dict | None = None


@dataclass(frozen=True)
class _SV:
    """A sampled verdict. assign is the assignment that drove it: a
    counterexample when truth is False, a witness when truth is True."""

    truth: bool | None
    exact: bool
    assign: dict | None = None


def _merge(a: dict | None, b: dict | None) -> dict | None:
    if not a:
        return b
    if not b:
        return a
    return {**a, **b}


def _sv_not(a: _SV) -> _SV:
    return _SV(None if a.truth is None else not a.truth, a.exact, a.assign)


def _sv_and(a: _SV, b: _SV) -> _SV:
    for v in (a, b):
        if v.truth is False and v.exact:
            return v
    if a.truth is False or b.truth is False:
        return _SV(False, False, (a if a.truth is False else b).assign)
    if a.truth is None or b.truth is None:
        return _SV(None, False)
    return _SV(True, a.exact and b.exact, _merge(a.assign, b.assign))


def _sv_or(a: _SV, b: _SV) -> _SV:
    return _sv_not(_sv_and(_sv_not(a), _sv_not(b)))


def _root_equation_targets(f) -> list:
    """(p, U) from every `y^p = U` atom with p prime, left to right, for
    root-derived witnesses."""
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Eq or kind is Neq:
            lhs = node.left
            if kind is Eq and type(lhs) is Pow and type(lhs.base) is Var and is_prime(lhs.n):
                out.append((lhs.n, node.right.arg if type(node.right) is Neg else node.right))
        else:
            todo += reversed(_CHILDREN.get(kind, _leaf)(node))
    return out


def _constant_terms(f) -> list:
    """Monomial and Const*Monomial subterms, left to right: parameters and
    literals."""
    out, todo = [], [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Monomial or (
            kind is Mul and type(node.left) is Const and type(node.right) is Monomial
        ):
            out.append(node)
        else:
            todo += reversed(_CHILDREN.get(kind, _leaf)(node))
    return out


def _halve(G: LexWord, v):
    return elem_div_by_p(G, v, 2) if elem_p_divisible(G, v, 2) else None


def _candidates(
    G: LexWord, body, env: dict, budget: int, seed: int, cmag: int = 9
) -> list[HahnSeries]:
    """Deterministic witness grid: small constants, env values, formula
    constants, inverse monomials, signed multiples and per-slot shifts of
    env exponents, p-th roots of root-equation targets, then random fill."""
    out: list[HahnSeries] = []
    seen: set = set()

    def push(s: HahnSeries) -> None:
        if len(out) >= budget:
            return
        # one hash of the key per candidate: hashing its Fractions is the cost
        n_seen = len(seen)
        seen.add((s.trunc, s.terms))
        if len(seen) > n_seen:
            out.append(s)

    for c in (1, -1, 2, -2, 3, Fraction(1, 2)):
        push(const_series(G, c))

    bases: list[HahnSeries] = []
    for _, sf in sorted(env.items()):
        if sf.defined and not sf.num.is_zero():
            push(sf.num)
            if sf.num.trunc is None and sf.den.trunc is None:
                try:
                    bases.append(sf.as_series())
                except (TruncationError, ZeroInputError):
                    bases.append(sf.num)
    for t in _constant_terms(body):
        try:
            sf = eval_term(G, t, {})
            if not sf.num.is_zero():
                bases.append(sf.num)
        except (ShapeError, ZeroInputError):
            pass

    zero = zero_element(G)
    for b in bases:
        push(b)
        if b.trunc is not None or b.is_zero():
            continue
        v = v_of(b)
        lc = leading_coeff(b)
        push(_make(G, [(elem_neg(G, v), Fraction(1) / lc)], None))
        if v == zero:
            continue
        half = _halve(G, v)
        multiples = [v, elem_neg(G, v), scalar_mul(G, 2, v), scalar_mul(G, -2, v)]
        if half is not None:
            multiples += [half, elem_neg(G, half)]
        for g in multiples:
            push(_make(G, [(g, Fraction(1))], None))
        neg = elem_neg(G, v)
        for j in range(len(neg)):
            for step in (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2)):
                shifted = list(neg)
                shifted[j] += step
                try:
                    push(monomial(G, shifted, 1))
                except ShapeError:
                    pass  # the slot does not admit this exponent

    cutoff = default_cutoff(G, cmag)
    done = set()
    for p, u in _root_equation_targets(body):
        key = (p, print_term(u))
        if key in done or not free_term_vars(u) <= set(env):
            continue
        done.add(key)
        try:
            sf = eval_term(G, u, env)
            if not sf.defined or sf.num.is_zero():
                continue
            ser = sf.as_series(cutoff=cutoff)
        except (TruncationError, ZeroInputError):
            continue
        for cand in (ser, series_neg(ser)):
            try:
                if root_exists(cand, p, False):
                    r = pth_root(cand, p, cutoff=cutoff, max_steps=8)
                    push(r)
                    push(series_neg(r))
            except (TruncationError, ZeroInputError, RootError):
                pass

    i = 0
    while len(out) < budget and i < 3 * budget:
        push(sample_series(G, seed * 7919 + i, support=2, exp_mag=2, coeff_mag=5))
        i += 1
    return out


# the binary connectives: how two verdicts join, and the truth of the left
# verdict (negated for ->) that settles the result when it is exact
_JOINS = {And: (_sv_and, False), Or: (_sv_or, True), Implies: (_sv_or, True)}


def _sampled(G: LexWord, f, env: dict, budget: int, seed: int, qdepth: int, cmag: int = 9) -> _SV:
    if isinstance(f, (Eq, Neq)):
        return _SV(*_atom_status(G, f, env))  # "equal" under truncation arrives as inexact
    if isinstance(f, Not):
        return _sv_not(_sampled(G, f.arg, env, budget, seed, qdepth, cmag))
    if isinstance(f, (And, Or, Implies)):
        join, settles = _JOINS[type(f)]
        a = _sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if isinstance(f, Implies):
            if a.truth is False and a.exact:
                return _SV(True, True)  # the hypothesis's counterexample is no witness
            a = _sv_not(a)
        if a.truth is settles and a.exact:
            return a
        return join(a, _sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if not isinstance(f, (Exists, Forall)):
        raise ShapeError(f"not a formula: {f!r}")
    inner_budget = budget if qdepth == 0 else max(6, min(16, budget // (4**qdepth)))
    if isinstance(f, Forall):
        ms = match_stability_clause(f)
        if ms is not None:
            return _sampled_stability(G, f, ms[0], ms[1], env, inner_budget, seed, cmag)
        if match_coset_clause(f) is not None:
            # No grid can falsify this shape. A counterexample needs the body
            # exactly false, i.e. the hypothesis exactly true and the
            # conclusion exactly false; the conclusion is a disjunction of
            # (non-root-pattern) existentials, and a sampled existential is
            # never exactly false. Survival is therefore a theorem about the
            # evaluator, not a search result, and the loop is skipped.
            return _SV(True, False)
        for k, cand in enumerate(_candidates(G, f.body, env, inner_budget, seed, cmag)):
            sub = {**env, f.var: SeriesFraction.of(cand)}
            v = _sampled(G, f.body, sub, budget, seed + 211 * k + 13, qdepth + 1, cmag)
            if v.truth is False and v.exact:
                return _SV(False, True, _merge({f.var: cand}, v.assign))
        return _SV(True, False)  # survived the grid; not a proof
    # plain root existence is the one oracle the sampler trusts: it is a
    # statement about the ambient real closed field, not one of the
    # reductions under test.
    m = _match_root_exists(f)
    if m is not None:
        p, u, allow_neg = m
        sf = eval_term(G, u, env)
        truth = _root_sampled(G, sf, p, allow_neg)
        wit = None
        if truth and qdepth == 0 and not sf.num.is_zero():
            # best effort, and only for the outermost quantifier (inner
            # verdicts never surface a witness): the oracle verdict
            # stands even when the root has no exact expansion
            try:
                co = default_cutoff(G, cmag)
                ser = sf.as_series(cutoff=co)
                base = ser if root_exists(ser, p, False) else series_neg(ser)
                if root_exists(base, p, False):
                    wit = {f.var: pth_root(base, p, cutoff=co, max_steps=8)}
            except (TruncationError, ZeroInputError, RootError):
                pass
        return _SV(truth, truth is not None, wit)
    best: _SV | None = None
    for k, cand in enumerate(_candidates(G, f.body, env, inner_budget, seed, cmag)):
        sub = {**env, f.var: SeriesFraction.of(cand)}
        v = _sampled(G, f.body, sub, budget, seed + 101 * k + 7, qdepth + 1, cmag)
        if v.truth is True and (v.exact or best is None):
            best = _SV(True, v.exact, _merge({f.var: cand}, v.assign))
            if v.exact:
                return best
    return best if best is not None else _SV(None, False)


def _root_sampled(G: LexWord, sf: SeriesFraction, p: int, signed: bool) -> bool | None:
    """A root test as the generic walk decides it: None when the oracle's
    verdict is hidden below a truncation."""
    try:
        return _sf_root_decision(G, sf, p, signed)
    except TruncationError:
        return None


def _psi_sampled(G: LexWord, W: SeriesFraction, p: int) -> bool | None:
    """The class test as the generic walk decides the built shape: not a
    p-th power up to sign, and 1 + W has a root. Each verdict is exact;
    None when it is hidden below a truncation."""
    root = _root_sampled(G, W, p, True)
    if root:
        return False
    unit = _root_sampled(G, SeriesFraction(series_add(W.den, W.num), W.den, W.defined), p, False)
    if unit is False:
        return False
    return None if root is None else unit


def _sampled_stability(
    G: LexWord, f: "Forall", p: int, x_term, env: dict, budget: int, seed: int, cmag: int = 9
) -> _SV:
    """The multiplication-stability clause, falsified by direct oracle runs.

    Per candidate z this makes the calls the generic walk would make on the
    built body (the hypothesis on z, then, unless it is exactly false, the
    conclusion on x*z), in the same order, and catches only what it
    catches: a root decision hidden below a truncation. So verdicts, the
    first counterexample and the errors raised agree with the generic walk
    over the same grid; only the traversal overhead is gone.
    """
    X = None
    one = one_series(G)
    for cand in _candidates(G, f.body, env, budget, seed, cmag):
        hyp = _psi_sampled(G, SeriesFraction(cand, one), p)
        if hyp is False:
            continue
        if X is None:
            X = eval_term(G, x_term, env)
        concl = _psi_sampled(G, SeriesFraction(series_mul(X.num, cand), X.den, X.defined), p)
        if hyp and concl is False:
            return _SV(False, True, {f.var: cand})
    return _SV(True, False)  # survived the grid; not a proof


def eval_sampled(
    F, env, G: LexWord, budget: int = 200, seed: int = 0, cutoff_mag: int = 9
) -> EvalOutcome:
    """Witness-search evaluation; refutes, but never trusts the reductions.

    Universal clauses come back "true (on sample)" unless an exact
    counterexample turns up, in which case the outcome is falsified_by with
    the assignment.  Existentials need an exactly-satisfying witness to
    count, except plain p-th power existence, which the root oracle settles.
    The falsification side never establishes the nested valuation-theoretic
    clauses exactly (their hypotheses contain the ring test itself), so a
    falsified_by from this evaluator always pins a genuinely false clause.
    cutoff_mag bounds the exponent depth of any truncated root the search
    manufactures (witnesses and candidate roots). A budget below 1 is a
    ParameterError: an empty witness grid would let every universal survive.
    """
    if budget < 1:
        raise ParameterError(f"the witness budget must be at least 1, got {budget}")
    _require_effective(G)
    sv = _sampled(G, F, _norm_env(G, env), budget, seed, 0, cutoff_mag)
    if sv.truth is True:
        return EvalOutcome("true", sv.exact, sv.assign)
    if sv.truth is False and sv.exact:
        return EvalOutcome("falsified_by" if sv.assign else "false", True, sv.assign)
    return EvalOutcome("unknown_on_sample", False, None)
