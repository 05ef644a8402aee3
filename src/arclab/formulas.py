"""First-order formulas over a Hahn series field, with two evaluators.

Terms are rational expressions in named variables, rational constants and
monomials t^g; formulas are equational atoms, boolean connectives and
quantifiers.  On top of the raw AST the module provides

  * the three definable-set builders: ``build_psi_p`` (the "positive
    non-power unit" test), ``build_phi_p`` (the ring test for the finest
    p-compatible coarsening) and ``build_phi_pn`` (the parameterized coset
    refinement), plus ``choose_params`` which picks canonical coset
    representatives;
  * a small DSL (``parse_formula`` / ``print_formula``) with macros for
    all three builders;
  * ``eval_decidable`` -- an exact, pattern-based decision procedure that
    recognizes the quantifier shapes appearing in the builders and decides
    them through the root oracle and cut comparisons;
  * ``eval_sampled`` -- a witness-search evaluator that never uses the
    quantifier reductions and exists to hunt counterexamples against
    ``eval_decidable``.

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

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

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
    _make,
    const_series,
    default_cutoff,
    series_add,
    leading_coeff,
    monomial,
    print_series,
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


_TERM_NODES = (Const, Var, Monomial, Add, Sub, Neg, Mul, Div, Pow)


def free_term_vars(t) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, (Const, Monomial)):
        return frozenset()
    if isinstance(t, (Neg,)):
        return free_term_vars(t.arg)
    if isinstance(t, Pow):
        return free_term_vars(t.base)
    if isinstance(t, (Add, Sub, Mul, Div)):
        return free_term_vars(t.left) | free_term_vars(t.right)
    raise ShapeError(f"not a term: {t!r}")


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
# printing

_TERM_ATOM = 5


def _pt(t, prec: int) -> str:
    if isinstance(t, Const):
        s = format_rational(t.value)
        lvl = 3 if t.value < 0 else _TERM_ATOM
    elif isinstance(t, Var):
        s, lvl = t.name, _TERM_ATOM
    elif isinstance(t, Monomial):
        s, lvl = "t^(" + ",".join(format_rational(e) for e in t.exps) + ")", _TERM_ATOM
    elif isinstance(t, Add):
        s, lvl = f"{_pt(t.left, 1)} + {_pt(t.right, 2)}", 1
    elif isinstance(t, Sub):
        s, lvl = f"{_pt(t.left, 1)} - {_pt(t.right, 2)}", 1
    elif isinstance(t, Mul):
        s, lvl = f"{_pt(t.left, 2)}*{_pt(t.right, 3)}", 2
    elif isinstance(t, Div):
        s, lvl = f"{_pt(t.left, 2)}/{_pt(t.right, 3)}", 2
    elif isinstance(t, Neg):
        s, lvl = f"-{_pt(t.arg, 3)}", 3
    elif isinstance(t, Pow):
        s, lvl = f"{_pt(t.base, _TERM_ATOM)}^{t.n}", 4
    else:
        raise ShapeError(f"not a term: {t!r}")
    return f"({s})" if lvl < prec else s


def print_term(t) -> str:
    return _pt(t, 0)


def _pf(f, prec: int) -> str:
    # levels: -> 1 (right assoc), or 2, and 3, not 4, comparisons 4, atoms 5
    if isinstance(f, Implies):
        s, lvl = f"{_pf(f.left, 2)} -> {_pf(f.right, 1)}", 1
    elif isinstance(f, Or):
        s, lvl = f"{_pf(f.left, 2)} or {_pf(f.right, 3)}", 2
    elif isinstance(f, And):
        s, lvl = f"{_pf(f.left, 3)} and {_pf(f.right, 4)}", 3
    elif isinstance(f, Not):
        s, lvl = f"not {_pf(f.arg, 5)}", 4
    elif isinstance(f, (Exists, Forall)):
        q = "exists" if isinstance(f, Exists) else "forall"
        s, lvl = f"{q} {f.var}. {_pf(f.body, 1)}", 1
    elif isinstance(f, Eq):
        s, lvl = f"{print_term(f.left)} = {print_term(f.right)}", 4
    elif isinstance(f, Neq):
        s, lvl = f"{print_term(f.left)} != {print_term(f.right)}", 4
    else:
        raise ShapeError(f"not a formula: {f!r}")
    return f"({s})" if lvl < prec else s


def print_formula(f) -> str:
    return _pf(f, 0)


# ---------------------------------------------------------------------------
# parsing

_TOK_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<neq>!=)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)|(?P<sym>[()\[\],.;=+\-*/^]))"
)

_KEYWORDS = {"exists", "forall", "and", "or", "not", "params", "t"}
_MACROS = {"psi_p", "phi_p", "phi_pn"}

# Nested steps a parse may hold open at once; each costs at most four
# interpreter frames, so the parser stays well inside the default
# recursion limit.
_MAX_NESTING = 150


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


class _Parser:
    def __init__(self, text: str, group: LexWord | None):
        self.text = text
        self.group = group
        self.depth = 0
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOK_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise DslSyntaxError("unexpected character", pos, text)
            pos = m.end()
            kind = m.lastgroup
            if kind:
                self.toks.append((kind, m.group(kind), m.start(kind)))
        self.i = 0

    # -- token plumbing
    def peek(self, k: int = 0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise DslSyntaxError(f"expected {value!r}", pos, self.text)

    def at(self, value: str, k: int = 0) -> bool:
        return self.peek(k)[1] == value

    def fail(self, msg: str):
        raise DslSyntaxError(msg, self.peek()[2], self.text)

    # -- formulas
    @_nested
    def formula(self):
        left = self.f_or()
        if self.at("->"):
            self.next()
            return Implies(left, self.formula())
        return left

    def f_or(self):
        out = self.f_and()
        while self.at("or"):
            self.next()
            out = Or(out, self.f_and())
        return out

    def f_and(self):
        out = self.f_not()
        while self.at("and"):
            self.next()
            out = And(out, self.f_not())
        return out

    @_nested
    def f_not(self):
        if self.at("not"):
            self.next()
            return Not(self.f_not())
        return self.f_quant()

    def f_quant(self):
        if self.at("exists") or self.at("forall"):
            _, word, _pos = self.next()
            name_tok = self.next()
            if name_tok[0] != "name" or name_tok[1] in _KEYWORDS or name_tok[1] in _MACROS:
                raise DslSyntaxError("expected a variable name", name_tok[2], self.text)
            self.expect(".")
            body = self.formula()
            return (Exists if word == "exists" else Forall)(name_tok[1], body)
        return self.f_atom()

    def f_atom(self):
        kind, val, pos = self.peek()
        if kind == "name" and val in _MACROS and self.at("[", 1):
            return self.macro()
        if val == "(":
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
        if self.at("="):
            self.next()
            return Eq(left, self.term())
        if self.at("!="):
            self.next()
            return Neq(left, self.term())
        self.fail("expected '=' or '!=' after term")

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
        if self.at(","):
            self.next()
            kw = self.next()
            if kw[1] != "params":
                raise DslSyntaxError("expected 'params'", kw[2], self.text)
            self.expect("=")
            params = [self.term()]
            while self.at(","):
                self.next()
                params.append(self.term())
        self.expect(")")
        if name == "psi_p":
            if params is not None:
                raise DslSyntaxError("psi_p takes no params", pos, self.text)
            return build_psi_p_at(p, arg)
        if name == "phi_p":
            if params is not None:
                raise DslSyntaxError("phi_p takes no params", pos, self.text)
            return build_phi_p_at(p, arg)
        if params is None:
            if self.group is None:
                raise DslSyntaxError(
                    f"{name}[{p},{n}] needs explicit params when no group is given", pos, self.text
                )
            params = [term_of_series(s) for s in choose_params(self.group, p, n)]
        if len(params) != p**n:
            raise DslSyntaxError(f"expected {p**n} params, got {len(params)}", pos, self.text)
        return build_phi_pn_at(p, n, params, arg)

    def int_tok(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise DslSyntaxError("expected an integer", pos, self.text)
        return int(val)

    # -- terms
    @_nested
    def term(self):
        out = self.t_prod()
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            rhs = self.t_prod()
            out = Add(out, rhs) if op == "+" else Sub(out, rhs)
        return out

    def t_prod(self):
        out = self.t_unary()
        while self.at("*") or self.at("/"):
            op = self.next()[1]
            rhs = self.t_unary()
            if op == "/" and isinstance(out, Const) and isinstance(rhs, Const):
                if rhs.value == 0:
                    raise DslSyntaxError("division by the zero constant", self.peek()[2], self.text)
                out = Const(out.value / rhs.value)  # rational literal, not a Div node
            else:
                out = Mul(out, rhs) if op == "*" else Div(out, rhs)
        return out

    @_nested
    def t_unary(self):
        if self.at("-"):
            self.next()
            inner = self.t_unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.t_pow()

    def t_pow(self):
        base = self.t_primary()
        if self.at("^"):
            self.next()
            n = self.int_tok()
            if n < 1:
                self.fail("exponent must be >= 1")
            return Pow(base, n)
        return base

    def t_primary(self):
        kind, val, pos = self.next()
        if kind == "int":
            return Const(Fraction(int(val)))
        if val == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "name":
            if val == "t" and self.at("^") and self.at("(", 1):
                self.next()
                self.next()
                exps = [self.signed_rational()]
                while self.at(","):
                    self.next()
                    exps.append(self.signed_rational())
                self.expect(")")
                return Monomial(tuple(exps))
            if val in _KEYWORDS or val in _MACROS:
                raise DslSyntaxError(f"{val!r} cannot be a variable", pos, self.text)
            return Var(val)
        raise DslSyntaxError("expected a term", pos, self.text)

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "int":
            raise DslSyntaxError("expected a number", pos, self.text)
        num = int(val)
        if self.at("/"):
            self.next()
            dkind, dval, dpos = self.next()
            if dkind != "int" or int(dval) == 0:
                raise DslSyntaxError("expected a nonzero denominator", dpos, self.text)
            return Fraction(sign * num, int(dval))
        return Fraction(sign * num)


def parse_formula(text: str, group: LexWord | None = None):
    """Parse the formula DSL; `group` is only needed for phi_pn without params."""
    p = _Parser(text, group)
    f = p.formula()
    if p.i != len(p.toks):
        raise DslSyntaxError("trailing input", p.peek()[2], text)
    return f


# ---------------------------------------------------------------------------
# builders


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ShapeError(f"{p} is not prime")


def _fresh(base: str, used: set) -> str:
    if base not in used:
        used.add(base)
        return base
    k = 2
    while f"{base}{k}" in used:
        k += 1
    used.add(f"{base}{k}")
    return f"{base}{k}"


def build_psi_p_at(p: int, arg, used: set | None = None):
    """x is positive, not a p-th power up to sign, and 1 + x has a p-th root."""
    _check_prime(p)
    used = used if used is not None else set()
    used |= free_term_vars(arg)
    y = _fresh("y", used)
    z = _fresh("z", used)
    no_root = Not(
        Exists(y, Or(Eq(Pow(Var(y), p), arg), Eq(Pow(Var(y), p), Neg(arg))))
    )
    unit_shift = Exists(z, Eq(Pow(Var(z), p), Add(Const(Fraction(1)), arg)))
    return And(no_root, unit_shift)


def build_psi_p(p: int):
    return build_psi_p_at(p, Var("x"))


def build_phi_p_at(p: int, arg, used: set | None = None):
    """Ring test: x = 0, or psi_p(x), or x is a p-th power up to sign whose
    multiplication preserves the psi_p class."""
    _check_prime(p)
    used = used if used is not None else set()
    used |= free_term_vars(arg)
    psi = build_psi_p_at(p, arg, used)
    y = _fresh("y", used)
    root = Exists(y, Or(Eq(Pow(Var(y), p), arg), Eq(Pow(Var(y), p), Neg(arg))))
    z = _fresh("z", used)
    stable = Forall(
        z, Implies(build_psi_p_at(p, Var(z), used), build_psi_p_at(p, Mul(arg, Var(z)), used))
    )
    return Or(Or(psi, And(root, stable)), Eq(arg, Const(Fraction(0))))


def build_phi_p(p: int):
    return build_phi_p_at(p, Var("x"))


def _build_bigor(p: int, param_terms, yname: str, used: set):
    branches = []
    for prm in param_terms:
        z = _fresh("z", used)
        w = Mul(prm, Var(yname))
        branches.append(
            Exists(
                z,
                And(
                    build_phi_p_at(p, Div(w, Pow(Var(z), p)), used),
                    build_phi_p_at(p, Div(Pow(Var(z), p), w), used),
                ),
            )
        )
    out = branches[0]
    for b in branches[1:]:
        out = Or(out, b)
    return out


def build_psi_pn_at(p: int, n: int, param_terms, arg, used: set | None = None):
    _check_prime(p)
    if len(param_terms) != p**n:
        raise ParameterError(f"expected {p**n} parameters, got {len(param_terms)}")
    used = used if used is not None else set()
    used |= free_term_vars(arg)
    for prm in param_terms:
        used |= free_term_vars(prm)

    y = _fresh("y", used)
    hyp1 = And(
        And(Neq(Var(y), Const(Fraction(0))), build_phi_p_at(p, Var(y), used)),
        build_phi_p_at(p, Div(arg, Var(y)), used),
    )
    clause1 = Forall(y, Implies(hyp1, _build_bigor(p, param_terms, y, used)))
    b1 = And(build_phi_p_at(p, arg, used), clause1)

    y2 = _fresh("y", used)
    hyp2 = And(
        And(Neq(Var(y2), Const(Fraction(0))), Not(build_phi_p_at(p, Var(y2), used))),
        build_phi_p_at(p, Div(Var(y2), arg), used),
    )
    b2 = Forall(y2, Implies(hyp2, _build_bigor(p, param_terms, y2, used)))
    return Or(b1, b2)


def build_phi_pn_at(p: int, n: int, param_terms, arg, used: set | None = None):
    used = used if used is not None else set()
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
        out.append(const_series(G, 1))
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
        return SeriesFraction(s, const_series(s.group, 1))

    def is_zero(self) -> bool:
        return self.defined and self.num.is_zero()

    def valuation(self, G: LexWord):
        return elem_sub(G, v_of(self.num), v_of(self.den))

    def lead_sign(self) -> int:
        s = leading_coeff(self.num) * leading_coeff(self.den)
        return (s > 0) - (s < 0)

    def as_series(self, cutoff=None) -> HahnSeries:
        if not self.defined:
            raise ZeroInputError("undefined fraction has no series form")
        return series_mul(self.num, series_invert(self.den, cutoff=cutoff))


def _undef(G: LexWord) -> SeriesFraction:
    return SeriesFraction(zero_series(G), const_series(G, 1), defined=False)


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
# structural pattern matchers (alpha-insensitive by construction: bound names
# are read off the nodes, never compared against fixed strings)


def _match_root_or(f, yname: str):
    """Or(y^p = U, y^p = -U) for a prime p -> (p, U); None otherwise.

    The root shapes are the prime boundary of the formula layer: every
    psi_p, phi_p, stability and coset matcher goes through this function
    or _match_root_exists, so a matched p is prime.
    """
    if not (isinstance(f, Or) and isinstance(f.left, Eq) and isinstance(f.right, Eq)):
        return None
    e1, e2 = f.left, f.right
    for e in (e1, e2):
        if not (isinstance(e.left, Pow) and e.left.base == Var(yname)):
            return None
    if e1.left.n != e2.left.n or not is_prime(e1.left.n):
        return None
    p = e1.left.n
    if not isinstance(e2.right, Neg) or e2.right.arg != e1.right:
        return None
    u = e1.right
    if yname in free_term_vars(u):
        return None
    return (p, u)


def match_psi_p(f):
    """The built psi_p shape -> (p, arg); None otherwise."""
    if not (isinstance(f, And) and isinstance(f.left, Not) and isinstance(f.left.arg, Exists)):
        return None
    ex = f.left.arg
    m = _match_root_or(ex.body, ex.var)
    if m is None:
        return None
    p, u = m
    g = f.right
    if not (isinstance(g, Exists) and isinstance(g.body, Eq)):
        return None
    lhs, rhs = g.body.left, g.body.right
    if not (isinstance(lhs, Pow) and lhs.base == Var(g.var) and lhs.n == p):
        return None
    if rhs != Add(Const(Fraction(1)), u) or g.var in free_term_vars(u):
        return None
    return (p, u)


def _match_root_exists(f):
    """Exists y. Or(y^p = U, y^p = -U) -> (p, U, True); Exists y. y^p = U -> (p, U, False);
    None otherwise, and for a p that is not prime."""
    if not isinstance(f, Exists):
        return None
    m = _match_root_or(f.body, f.var)
    if m is not None:
        return (m[0], m[1], True)
    b = f.body
    if (
        isinstance(b, Eq)
        and isinstance(b.left, Pow)
        and b.left.base == Var(f.var)
        and is_prime(b.left.n)
    ):
        u = b.right
        if f.var not in free_term_vars(u):
            return (b.left.n, u, False)
    return None


def match_phi_p(f):
    """The built phi_p shape -> (p, arg); None otherwise."""
    if not (isinstance(f, Or) and isinstance(f.left, Or) and isinstance(f.right, Eq)):
        return None
    zero_eq = f.right
    if zero_eq.right != Const(Fraction(0)):
        return None
    arg = zero_eq.left
    m = match_psi_p(f.left.left)
    if m is None or m[1] != arg:
        return None
    p = m[0]
    mid = f.left.right
    if not (isinstance(mid, And) and isinstance(mid.left, Exists) and isinstance(mid.right, Forall)):
        return None
    r = _match_root_exists(mid.left)
    if r != (p, arg, True):
        return None
    fa = mid.right
    if not isinstance(fa.body, Implies):
        return None
    mh = match_psi_p(fa.body.left)
    mc = match_psi_p(fa.body.right)
    if mh is None or mc is None or mh[0] != p or mc[0] != p:
        return None
    if mh[1] != Var(fa.var):
        return None
    if mc[1] not in (Mul(arg, Var(fa.var)), Mul(Var(fa.var), arg)):
        return None
    return (p, arg)


def match_stability_clause(f):
    """Forall z. psi_p(z) -> psi_p(x*z)   ->  (p, x); None otherwise."""
    if not (isinstance(f, Forall) and isinstance(f.body, Implies)):
        return None
    mh = match_psi_p(f.body.left)
    mc = match_psi_p(f.body.right)
    if mh is None or mc is None or mh[0] != mc[0]:
        return None
    if mh[1] != Var(f.var):
        return None
    c = mc[1]
    if isinstance(c, Mul) and c.right == Var(f.var) and f.var not in free_term_vars(c.left):
        return (mh[0], c.left)
    if isinstance(c, Mul) and c.left == Var(f.var) and f.var not in free_term_vars(c.right):
        return (mh[0], c.right)
    return None


def _match_coset_probe(f):
    """Exists z. phi_p(W/z^p) and phi_p(z^p/W)  ->  (p, W); None otherwise."""
    if not (isinstance(f, Exists) and isinstance(f.body, And)):
        return None
    m1 = match_phi_p(f.body.left)
    m2 = match_phi_p(f.body.right)
    if m1 is None or m2 is None or m1[0] != m2[0]:
        return None
    p = m1[0]
    a, b = m1[1], m2[1]
    zp = Pow(Var(f.var), p)
    if not (isinstance(a, Div) and a.right == zp):
        return None
    if not (isinstance(b, Div) and b.left == zp and b.right == a.left):
        return None
    w = a.left
    if f.var in free_term_vars(w):
        return None
    return (p, w)


def _flatten_or(f) -> list:
    out = []
    while isinstance(f, Or):
        out.append(f.right)
        f = f.left
    out.append(f)
    out.reverse()
    return out


def _match_bigor(f, yname: str):
    """Left-assoc Or of coset probes at Mul(param_i, y) -> (p, [param terms])."""
    params = []
    p = None
    for leaf in _flatten_or(f):
        m = _match_coset_probe(leaf)
        if m is None:
            return None
        lp, w = m
        if p is None:
            p = lp
        elif p != lp:
            return None
        if not (isinstance(w, Mul) and w.right == Var(yname)):
            return None
        prm = w.left
        if yname in free_term_vars(prm):
            return None
        params.append(prm)
    return (p, params)


def match_coset_clause(f):
    """The two universal clauses of the level-n coset test.

    Returns (p, x, params, side) with side "inside" for the clause whose
    hypothesis keeps y in the ring (y != 0, phi_p(y), phi_p(x/y)) and
    "outside" for the mirrored clause (y != 0, not phi_p(y), phi_p(y/x)).
    """
    if not (isinstance(f, Forall) and isinstance(f.body, Implies)):
        return None
    hyp, concl = f.body.left, f.body.right
    if not (isinstance(hyp, And) and isinstance(hyp.left, And)):
        return None
    nz, g1, g2 = hyp.left.left, hyp.left.right, hyp.right
    if nz != Neq(Var(f.var), Const(Fraction(0))):
        return None
    mb = _match_bigor(concl, f.var)
    if mb is None:
        return None
    p, params = mb
    m1 = match_phi_p(g1)
    if m1 is not None and m1 == (p, Var(f.var)):
        m2 = match_phi_p(g2)
        if m2 is None or m2[0] != p:
            return None
        d = m2[1]
        if not (isinstance(d, Div) and d.right == Var(f.var)):
            return None
        x = d.left
        if f.var in free_term_vars(x):
            return None
        return (p, x, params, "inside")
    if isinstance(g1, Not):
        m1 = match_phi_p(g1.arg)
        if m1 is None or m1 != (p, Var(f.var)):
            return None
        m2 = match_phi_p(g2)
        if m2 is None or m2[0] != p:
            return None
        d = m2[1]
        if not (isinstance(d, Div) and d.left == Var(f.var)):
            return None
        x = d.right
        if f.var in free_term_vars(x):
            return None
        return (p, x, params, "outside")
    return None


def _exact_log(m: int, p: int) -> int | None:
    n = 0
    while m > 1 and m % p == 0:
        m //= p
        n += 1
    return n if m == 1 else None


# ---------------------------------------------------------------------------
# decision procedure


def _require_effective(G: LexWord) -> None:
    if not G.is_effective():
        raise NonEffectiveError("evaluation needs an effective exponent group")


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


def _decide_stability(G: LexWord, p: int, x_term, env) -> bool:
    """The multiplication-stability clause, decided through the cut structure."""
    if np_map(G).value_at(p) == 0:
        return True
    sf = eval_term(G, x_term, env)
    if not sf.defined or sf.num.is_zero():
        return False
    v = sf.valuation(G)
    if not elem_p_divisible(G, v, p):
        return False
    return _ring_member_cut(G, v, max_p_divisible(G, p))


def _decide_coset_clause(G: LexWord, p: int, x_term, param_terms, side: str, env) -> bool:
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


def eval_decidable(F, env, G: LexWord) -> bool:
    """Exact evaluation through the supported quantifier patterns.

    Anything quantified that is not a root test, a stability clause, or a
    coset clause raises UnsupportedQuantifierPattern.  Atoms whose truth is
    hidden behind a truncation raise TruncationError rather than guess.
    """
    _require_effective(G)
    return _decide(G, F, _norm_env(G, env))


def _decide(G: LexWord, f, env) -> bool:
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

    def describe(self) -> str:
        if self.witness:
            parts = ", ".join(f"{k} = {print_series(v)}" for k, v in sorted(self.witness.items()))
            return f"{self.status}({parts})"
        return self.status if self.certain else f"{self.status} (on sample)"


@dataclass(frozen=True)
class _SV:
    truth: bool | None
    exact: bool
    cex: dict | None = None
    wit: dict | None = None


def _merge(a: dict | None, b: dict | None) -> dict | None:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    out.update(b)
    return out


def _sv_not(a: _SV) -> _SV:
    t = None if a.truth is None else (not a.truth)
    return _SV(t, a.exact, a.wit, a.cex)


def _sv_and(a: _SV, b: _SV) -> _SV:
    for v in (a, b):
        if v.truth is False and v.exact:
            return _SV(False, True, v.cex, None)
    if a.truth is False or b.truth is False:
        pick = a if a.truth is False else b
        return _SV(False, False, pick.cex, None)
    if a.truth is None or b.truth is None:
        return _SV(None, False)
    return _SV(True, a.exact and b.exact, None, _merge(a.wit, b.wit))


def _sv_or(a: _SV, b: _SV) -> _SV:
    for v in (a, b):
        if v.truth is True and v.exact:
            return _SV(True, True, None, v.wit)
    if a.truth is True or b.truth is True:
        pick = a if a.truth is True else b
        return _SV(True, False, None, pick.wit)
    if a.truth is None or b.truth is None:
        return _SV(None, False)
    return _SV(False, a.exact and b.exact, _merge(a.cex, b.cex), None)


def _root_equation_targets(f, out: list) -> None:
    """Collect (p, U) from every `y^p = U` atom with p prime, for
    root-derived witnesses."""
    if isinstance(f, (Eq, Neq)):
        if (
            isinstance(f, Eq)
            and isinstance(f.left, Pow)
            and isinstance(f.left.base, Var)
            and is_prime(f.left.n)
        ):
            u = f.right.arg if isinstance(f.right, Neg) else f.right
            out.append((f.left.n, u))
        return
    if isinstance(f, (And, Or, Implies)):
        _root_equation_targets(f.left, out)
        _root_equation_targets(f.right, out)
    elif isinstance(f, Not):
        _root_equation_targets(f.arg, out)
    elif isinstance(f, (Exists, Forall)):
        _root_equation_targets(f.body, out)


def _constant_terms(f, out: list) -> None:
    """Collect Monomial/(Const*Monomial) subterms: parameters and literals."""

    def walk_term(t):
        if isinstance(t, Monomial):
            out.append(t)
        elif isinstance(t, Mul) and isinstance(t.left, Const) and isinstance(t.right, Monomial):
            out.append(t)
        elif isinstance(t, (Add, Sub, Mul, Div)):
            walk_term(t.left)
            walk_term(t.right)
        elif isinstance(t, Neg):
            walk_term(t.arg)
        elif isinstance(t, Pow):
            walk_term(t.base)

    if isinstance(f, (Eq, Neq)):
        walk_term(f.left)
        walk_term(f.right)
    elif isinstance(f, (And, Or, Implies)):
        _constant_terms(f.left, out)
        _constant_terms(f.right, out)
    elif isinstance(f, Not):
        _constant_terms(f.arg, out)
    elif isinstance(f, (Exists, Forall)):
        _constant_terms(f.body, out)


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

    def push(s) -> None:
        if s is None or len(out) >= budget:
            return
        if not isinstance(s, HahnSeries):
            s = const_series(G, Fraction(s))
        # one hash of the key per candidate: hashing its Fractions is the cost
        n_seen = len(seen)
        seen.add((s.trunc, s.terms))
        if len(seen) > n_seen:
            out.append(s)

    for c in (1, -1, 2, -2, 3, Fraction(1, 2)):
        push(c)

    bases: list[HahnSeries] = []
    for _, sf in sorted(env.items()):
        if sf.defined and not sf.num.is_zero():
            push(sf.num)
            if sf.num.trunc is None and sf.den.trunc is None:
                try:
                    bases.append(sf.as_series())
                except (TruncationError, ZeroInputError):
                    bases.append(sf.num)
    consts: list = []
    _constant_terms(body, consts)
    for t in consts:
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

    targets: list = []
    _root_equation_targets(body, targets)
    cutoff = default_cutoff(G, cmag)
    done = set()
    for p, u in targets:
        key = (p, print_term(u))
        if key in done or not free_term_vars(u) <= set(env):
            continue
        done.add(key)
        try:
            sf = eval_term(G, u, env)
            if not sf.defined or sf.num.is_zero():
                continue
            ser = sf.as_series(cutoff=cutoff)
        except (TruncationError, ZeroInputError, UnboundVariableError):
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
        try:
            push(sample_series(G, seed * 7919 + i, support=2, exp_mag=2, coeff_mag=5))
        except NonEffectiveError:
            break
        i += 1
    return out


def _sampled(G: LexWord, f, env: dict, budget: int, seed: int, qdepth: int, cmag: int = 9) -> _SV:
    if isinstance(f, (Eq, Neq)):
        truth, certain = _atom_status(G, f, env)
        if truth is None:
            return _SV(None, False)
        return _SV(truth, certain)  # "equal" under truncation arrives as inexact
    if isinstance(f, Not):
        return _sv_not(_sampled(G, f.arg, env, budget, seed, qdepth, cmag))
    if isinstance(f, And):
        a = _sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is False and a.exact:
            return a
        return _sv_and(a, _sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Or):
        a = _sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is True and a.exact:
            return a
        return _sv_or(a, _sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Implies):
        a = _sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is False and a.exact:
            return _SV(True, True)
        return _sv_or(_sv_not(a), _sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Exists):
        # plain root existence is the one oracle the sampler trusts: it is a
        # statement about the ambient real closed field, not one of the
        # reductions under test.
        m = _match_root_exists(f)
        if m is not None:
            p, u, allow_neg = m
            sf = eval_term(G, u, env)
            try:
                truth = _sf_root_decision(G, sf, p, allow_neg)
            except TruncationError:
                return _SV(None, False)
            wit = None
            if truth and qdepth == 0 and sf.defined and not sf.num.is_zero():
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
                    wit = None
            return _SV(truth, True, None, wit)
        inner_budget = budget if qdepth == 0 else max(6, min(16, budget // (4**qdepth)))
        best: _SV | None = None
        for k, cand in enumerate(_candidates(G, f.body, env, inner_budget, seed, cmag)):
            sub = dict(env)
            sub[f.var] = SeriesFraction.of(cand)
            v = _sampled(G, f.body, sub, budget, seed + 101 * k + 7, qdepth + 1, cmag)
            if v.truth is True and v.exact:
                return _SV(True, True, None, _merge({f.var: cand}, v.wit))
            if v.truth is True and best is None:
                best = _SV(True, False, None, _merge({f.var: cand}, v.wit))
        return best if best is not None else _SV(None, False)
    if isinstance(f, Forall):
        inner_budget = budget if qdepth == 0 else max(6, min(16, budget // (4**qdepth)))
        ms = match_stability_clause(f)
        if ms is not None:
            return _sampled_stability(G, f, ms[0], ms[1], env, inner_budget, seed, cmag)
        mc = match_coset_clause(f)
        if mc is not None:
            # No grid can falsify this shape. A counterexample needs the body
            # exactly false, i.e. the hypothesis exactly true and the
            # conclusion exactly false; the conclusion is a disjunction of
            # (non-root-pattern) existentials, and a sampled existential is
            # never exactly false. Survival is therefore a theorem about the
            # evaluator, not a search result, and the loop is skipped.
            return _SV(True, False)
        for k, cand in enumerate(_candidates(G, f.body, env, inner_budget, seed, cmag)):
            sub = dict(env)
            sub[f.var] = SeriesFraction.of(cand)
            v = _sampled(G, f.body, sub, budget, seed + 211 * k + 13, qdepth + 1, cmag)
            if v.truth is False and v.exact:
                return _SV(False, True, _merge({f.var: cand}, v.cex), None)
        return _SV(True, False)  # survived the grid; not a proof
    raise ShapeError(f"not a formula: {f!r}")


def _psi_exact(G: LexWord, W: SeriesFraction, p: int) -> bool:
    """The class test decided purely through the two root oracles.

    Composes exactly what the generic walk computes on the built shape —
    not-a-p-th-power-up-to-sign AND 1 + W has a root — with both oracle
    verdicts exact on exact inputs, so the composite is exact too.
    """
    if _sf_root_decision(G, W, p, True):
        return False
    one_plus = SeriesFraction(series_add(W.den, W.num), W.den, W.defined)
    return _sf_root_decision(G, one_plus, p, False)


def _sampled_stability(
    G: LexWord, f: "Forall", p: int, x_term, env: dict, budget: int, seed: int, cmag: int = 9
) -> _SV:
    """The multiplication-stability clause, falsified by direct oracle runs.

    Per candidate z this computes the same two class tests the generic
    recursion would (hypothesis on z, conclusion on x*z), through the same
    root oracles, so verdicts and the first counterexample found agree with
    the generic walk over the same grid; only the traversal overhead is
    gone. Truncated intermediates cannot witness an exact counterexample
    and are skipped, as in the generic walk.
    """
    try:
        X = eval_term(G, x_term, env)
    except ZeroInputError:
        X = _undef(G)
    for cand in _candidates(G, f.body, env, budget, seed, cmag):
        try:
            if not _psi_exact(G, SeriesFraction.of(cand), p):
                continue
            W = SeriesFraction(series_mul(X.num, cand), X.den, X.defined)
            if not _psi_exact(G, W, p):
                return _SV(False, True, {f.var: cand}, None)
        except TruncationError:
            continue
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
    manufactures (witnesses and candidate roots).
    """
    _require_effective(G)
    sv = _sampled(G, F, _norm_env(G, env), budget, seed, 0, cutoff_mag)
    if sv.truth is True:
        return EvalOutcome("true", sv.exact, sv.wit)
    if sv.truth is False and sv.exact:
        if sv.cex:
            return EvalOutcome("falsified_by", True, sv.cex)
        return EvalOutcome("false", True, None)
    return EvalOutcome("unknown_on_sample", False, None)
