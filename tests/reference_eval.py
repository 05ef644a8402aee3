"""Reference copies of the decision walk, the per-cell differential loop,
the hand-written shape matchers, the Fraction-based real sign, the group
parser with its own tokenizer, the regex series and binding readers, the
series sampler that merged its draws through `_make`, the root lifting
that built each step's whole defect as a series, the sampled walk with
two assignment fields per verdict, the level map and certificate cells
that read each component's exponent map on every call, and the
regular-prime set, that `formulas.decision_plan`,
`valuations.differential_sweep`, the builder-derived matchers, the integer
`groups.sign_of_real`, the shared token stream, the direct-built
`hahn.sample_series`, `hahn.pth_root`'s int defect, the one-assignment
sampled walk, `convex`'s chain table and `convex.is_p_regular`'s
probe-prime read replaced.

The walk re-matches every quantifier node and re-validates coset parameters
at every point; the loop runs one (p, n) cell at a time; the matchers state
each shape a second time, by hand; the sign builds a Fraction for the
rational part and for each bound; the parser tokenizes group words alone;
the series reader matches one regex per term and converts coordinates with
Fraction(), and the binding reader splits on ';' and '=' by hand; the
sampler builds a fresh Fraction per draw, on its own generator, and
merges and sorts through `_make`; the root lifting subtracts z**p from
the input as series in each Newton step; the sampled walk keeps a
counterexample and a witness field, states `or` apart from `and` and writes out each
connective; the level map adds component exponents up from the deepest
component, and the cells combine the cut's suffix map with one component
map after another; the regular primes are the complement of the union of
every non-deepest unit's nonzero set, each unit split off with its kind.
All are kept only so the tests can check that the plans, the grouped
sweep, the unifier, the integer sign, the shared-token readers, the
sampler, the root lifting, the sampled walk, the chain table and the regularity test give
the same answers, errors, mismatch lists, matches, groups, series,
outcomes, cuts, cells and verdicts.
"""

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from arclab import groups, valuations
from arclab.convex import (
    ConvexCut,
    _segment_parts,
    _tower_slice_map,
    max_p_divisible,
    np_map,
    top_cut,
)
from arclab.errors import (
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
from arclab.formulas import (
    Add,
    And,
    Const,
    Div,
    Eq,
    Exists,
    Forall,
    Implies,
    Mul,
    Neg,
    Neq,
    Not,
    Or,
    Pow,
    EvalOutcome,
    SeriesFraction,
    Var,
    _atom_status,
    _constant_terms,
    _halve,
    _in_cut_subgroup,
    _match_coset_probe,
    _match_root_exists,
    _merge,
    _norm_env,
    _psi_sampled,
    _ring_member_cut,
    _root_equation_targets,
    _sf_root_decision,
    _validate_coset_params,
    build_phi_p,
    build_phi_pn,
    choose_params,
    eval_sampled,
    eval_term,
    free_term_vars,
    match_coset_clause,
    match_stability_clause,
    print_formula,
    print_term,
)
from arclab.groups import (
    Component,
    FreeReal,
    LexWord,
    LocZ,
    OmegaTower,
    PolyModule,
    Rat,
    RealGen,
    Zed,
    _require_effective,
    elem_cmp,
    elem_div_by_p,
    elem_neg,
    elem_p_divisible,
    elem_sub,
    scalar_mul,
    zero_element,
)
from arclab.hahn import (
    HahnSeries,
    _cut,
    _make,
    _min_trunc,
    const_series,
    default_cutoff,
    exact_fraction_root,
    leading_coeff,
    monomial,
    print_series,
    pth_root,
    root_exists,
    sample_series,
    series_add,
    series_mul,
    series_neg,
    series_of,
    series_pow,
    series_sub,
    v_of,
    zero_series,
)
from arclab.primes import INF, PrimeSet, is_prime


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
    vp = max_p_divisible(G, p)
    vpn = reference_g_pn(G, p, n)
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


# -- the hand-written matchers ------------------------------------------------------


def _ref_match_root_or(f, yname: str):
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


def ref_match_psi_p(f):
    if not (isinstance(f, And) and isinstance(f.left, Not) and isinstance(f.left.arg, Exists)):
        return None
    ex = f.left.arg
    m = _ref_match_root_or(ex.body, ex.var)
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


def ref_match_root_exists(f):
    if not isinstance(f, Exists):
        return None
    m = _ref_match_root_or(f.body, f.var)
    if m is not None:
        return (m[0], m[1], True)
    b = f.body
    if isinstance(b, Eq) and isinstance(b.left, Pow) and b.left.base == Var(f.var) and is_prime(b.left.n):
        u = b.right
        if f.var not in free_term_vars(u):
            return (b.left.n, u, False)
    return None


def ref_match_phi_p(f):
    if not (isinstance(f, Or) and isinstance(f.left, Or) and isinstance(f.right, Eq)):
        return None
    zero_eq = f.right
    if zero_eq.right != Const(Fraction(0)):
        return None
    arg = zero_eq.left
    m = ref_match_psi_p(f.left.left)
    if m is None or m[1] != arg:
        return None
    p = m[0]
    mid = f.left.right
    if not (isinstance(mid, And) and isinstance(mid.left, Exists) and isinstance(mid.right, Forall)):
        return None
    if ref_match_root_exists(mid.left) != (p, arg, True):
        return None
    fa = mid.right
    if not isinstance(fa.body, Implies):
        return None
    mh = ref_match_psi_p(fa.body.left)
    mc = ref_match_psi_p(fa.body.right)
    if mh is None or mc is None or mh[0] != p or mc[0] != p:
        return None
    if mh[1] != Var(fa.var):
        return None
    if mc[1] not in (Mul(arg, Var(fa.var)), Mul(Var(fa.var), arg)):
        return None
    return (p, arg)


def ref_match_stability_clause(f):
    if not (isinstance(f, Forall) and isinstance(f.body, Implies)):
        return None
    mh = ref_match_psi_p(f.body.left)
    mc = ref_match_psi_p(f.body.right)
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


def ref_match_coset_probe(f):
    if not (isinstance(f, Exists) and isinstance(f.body, And)):
        return None
    m1 = ref_match_phi_p(f.body.left)
    m2 = ref_match_phi_p(f.body.right)
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


def _ref_match_bigor(f, yname: str):
    leaves = []
    while isinstance(f, Or):
        leaves.append(f.right)
        f = f.left
    leaves.append(f)
    params = []
    p = None
    for leaf in reversed(leaves):
        m = ref_match_coset_probe(leaf)
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


def ref_match_coset_clause(f):
    if not (isinstance(f, Forall) and isinstance(f.body, Implies)):
        return None
    hyp, concl = f.body.left, f.body.right
    if not (isinstance(hyp, And) and isinstance(hyp.left, And)):
        return None
    nz, g1, g2 = hyp.left.left, hyp.left.right, hyp.right
    if nz != Neq(Var(f.var), Const(Fraction(0))):
        return None
    mb = _ref_match_bigor(concl, f.var)
    if mb is None:
        return None
    p, params = mb
    m1 = ref_match_phi_p(g1)
    if m1 is not None and m1 == (p, Var(f.var)):
        m2 = ref_match_phi_p(g2)
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
        m1 = ref_match_phi_p(g1.arg)
        if m1 is None or m1 != (p, Var(f.var)):
            return None
        m2 = ref_match_phi_p(g2)
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


def reference_sign_of_real(gens, coords) -> int:
    rat = Fraction(0)
    pi_coeff = 0
    for g, c in zip(gens, coords):
        if g.kind == "rat":
            rat += g.value * c
        else:
            pi_coeff += c
    if pi_coeff == 0:
        return (rat > 0) - (rat < 0)
    digits = 30
    while digits <= 3840:
        lo, hi = groups.pi_interval(digits)
        val_lo = rat + pi_coeff * (lo if pi_coeff > 0 else hi)
        val_hi = rat + pi_coeff * (hi if pi_coeff > 0 else lo)
        if val_lo > 0:
            return 1
        if val_hi < 0:
            return -1
        digits *= 2
    raise InternalError("interval refinement failed to separate a real constant from zero")


# -- the group parser with its own tokenizer -------------------------------------------

_REF_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[(),=/-]))")


def _ref_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise DslSyntaxError(f"unexpected character {text[at]!r}", at, text)
        for kind in ("ident", "int", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _RefGroupParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise DslSyntaxError("unexpected end of input", len(self.text), self.text)
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise DslSyntaxError(f"expected {value!r}, got {val!r}", pos, self.text)

    def expect_int(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise DslSyntaxError(f"expected a number, got {val!r}", pos, self.text)
        return int(val)

    def parse(self) -> LexWord:
        kind, val, pos = self.next()
        if val != "lex":
            raise DslSyntaxError("group must start with lex(", pos, self.text)
        self.expect("(")
        comps = [self.parse_component()]
        while True:
            tok = self.peek()
            if tok is None:
                raise DslSyntaxError("unterminated lex(...)", len(self.text), self.text)
            if tok[1] == ",":
                self.next()
                comps.append(self.parse_component())
            elif tok[1] == ")":
                self.next()
                break
            else:
                raise DslSyntaxError(f"expected , or ), got {tok[1]!r}", tok[2], self.text)
        if self.peek() is not None:
            tok = self.peek()
            raise DslSyntaxError(f"trailing input {tok[1]!r}", tok[2], self.text)
        return LexWord(tuple(comps))

    def parse_component(self) -> Component:
        kind, val, pos = self.next()
        if kind != "ident":
            raise DslSyntaxError(f"component expected, got {val!r}", pos, self.text)
        try:
            if val == "Z":
                return Zed()
            if val == "Q":
                return Rat()
            if val == "Zloc":
                self.expect("(")
                q = self.expect_int()
                self.expect(")")
                return LocZ(q)
            if val == "real":
                self.expect("(")
                gens = [self.parse_gen()]
                while self.peek() and self.peek()[1] == ",":
                    self.next()
                    gens.append(self.parse_gen())
                self.expect(")")
                return FreeReal(tuple(gens))
            if val == "omega_tower":
                self.expect("(")
                kw, kv, kp = self.next()
                if kv != "start":
                    raise DslSyntaxError("omega_tower takes start=<nat>", kp, self.text)
                self.expect("=")
                start = self.expect_int()
                self.expect(")")
                return OmegaTower(start)
            if val == "poly_module":
                self.expect("(")
                self.expect("Zloc")
                self.expect("(")
                q = self.expect_int()
                self.expect(")")
                self.expect(",")
                gen = self.parse_gen()
                self.expect(")")
                return PolyModule(q, gen)
        except ValueError as exc:
            raise DslSyntaxError(str(exc), pos, self.text) from exc
        raise DslSyntaxError(f"unknown component kind {val!r}", pos, self.text)

    def parse_gen(self) -> RealGen:
        tok = self.peek()
        if tok is not None and tok[0] == "ident" and tok[1] == "pi":
            self.next()
            return RealGen("pi")
        value = self.parse_rational()
        return RealGen("rat", value)

    def parse_rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok is not None and tok[1] == "-":
            self.next()
            sign = -1
        num = self.expect_int()
        tok = self.peek()
        if tok is not None and tok[1] == "/":
            self.next()
            den = self.expect_int()
            if den == 0:
                raise DslSyntaxError("zero denominator", tok[2], self.text)
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def reference_parse_group(text: str) -> LexWord:
    return _RefGroupParser(text).parse()


# -- the series literal and --at binding readers with their own regex grammar ------------

_REF_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<otrunc>O\(\s*t\^\((?P<oexp>[^)]*)\)\s*\))"
    r"|(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?t\^\((?P<exp>[^)]*)\)"
    r"|(?P<const>\d+(?:/\d+)?)"
    r")\s*"
)


def reference_parse_series(text: str, G: LexWord) -> HahnSeries:
    pos = 0
    pairs = []
    trunc_flat = None
    first = True
    stripped = text.strip()
    if stripped == "0":
        return zero_series(G)
    while pos < len(text):
        m = _REF_TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise DslSyntaxError("unreadable series term", pos, text)
        sign_tok = m.group("sign")
        if sign_tok is None and not first:
            raise DslSyntaxError("terms must be joined by + or -", pos, text)
        sign = -1 if sign_tok == "-" else 1
        if m.group("otrunc"):
            if trunc_flat is not None:
                raise DslSyntaxError("duplicate O(...) marker", pos, text)
            if sign == -1:
                raise DslSyntaxError("O(...) marker cannot be subtracted", pos, text)
            trunc_flat = _ref_parse_exp(m.group("oexp"), G, pos, text)
        elif m.group("const") is not None:
            const = _ref_parse_coeff(m.group("const"), pos, text)
            pairs.append(((Fraction(0),) * G.n_slots(), sign * const))
        else:
            coeff = _ref_parse_coeff(m.group("coeff"), pos, text) if m.group("coeff") else Fraction(1)
            flat = _ref_parse_exp(m.group("exp"), G, pos, text)
            pairs.append((flat, sign * coeff))
        pos = m.end()
        first = False
    if not pairs and trunc_flat is None:
        raise DslSyntaxError("empty series literal", 0, text)
    return series_of(G, pairs, trunc_flat)


def _ref_parse_coeff(chunk: str, pos: int, text: str) -> Fraction:
    try:
        return Fraction(chunk)
    except ZeroDivisionError as exc:
        raise DslSyntaxError(f"zero denominator in {chunk!r}", pos, text) from exc


def _ref_parse_exp(body: str, G: LexWord, pos: int, text: str):
    parts = [chunk.strip() for chunk in body.split(",")]
    if len(parts) != G.n_slots():
        raise DslSyntaxError(
            f"exponent needs {G.n_slots()} coordinates, got {len(parts)}", pos, text
        )
    out = []
    for chunk in parts:
        try:
            out.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise DslSyntaxError(f"bad exponent coordinate {chunk!r}", pos, text) from exc
    return tuple(out)


def reference_parse_bindings(text: str, G: LexWord) -> dict:
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
        if name in env:
            raise DslSyntaxError(f"{name!r} is bound twice", 0, chunk)
        env[name] = reference_parse_series(rhs.strip(), G)
    return env


# -- the series sampler that merged its draws through _make ---------------------------


def reference_sample_series(G, seed, support=3, exp_mag=3, coeff_mag=9) -> HahnSeries:
    kinds = _require_effective(G).kinds
    rng = random.Random(f"hahn:{seed}:{support}:{exp_mag}:{coeff_mag}")
    exps: list[tuple] = []
    for _ in range(support):
        flat = []
        for comp in kinds:
            if isinstance(comp, (Zed, FreeReal)):
                flat.append(rng.randint(-exp_mag, exp_mag))
            elif isinstance(comp, Rat):
                flat.append(Fraction(rng.randint(-exp_mag, exp_mag), rng.choice((1, 2, 3, 4))))
            elif isinstance(comp, LocZ):
                dens = [d for d in (1, 2, 3, 4, 5) if d % comp.q != 0]
                flat.append(Fraction(rng.randint(-exp_mag, exp_mag), rng.choice(dens)))
        if tuple(flat) not in exps:
            exps.append(tuple(flat))
    pairs = []
    for flat in exps:
        num = rng.randint(1, coeff_mag) * rng.choice((1, -1))
        pairs.append((flat, Fraction(num, rng.choice((1, 2, 3)))))
    return _make(G, pairs, None)


# -- the root lifting that subtracted z**p as series ------------------------------------


def reference_pth_root(a: HahnSeries, p: int, cutoff=None, max_steps=None) -> HahnSeries:
    G = a.group
    if not root_exists(a, p, False):
        raise RootError("no p-th root: leading exponent or sign obstruction")
    v = v_of(a)
    lc = leading_coeff(a)
    root_lc = exact_fraction_root(lc, p)
    if root_lc is None:
        raise RootError(f"leading coefficient {lc} is not an exact {p}-th power")
    # v is p-divisible (root_exists passed); the root's exponent is v/p
    e_root = elem_div_by_p(G, v, p)
    z = _make(G, [(e_root, root_lc)], None)
    for step in range(512):
        defect = series_sub(a, series_pow(z, p))
        if not defect.terms:
            if defect.trunc is None:
                return z
            limit = elem_sub(G, defect.trunc, scalar_mul(G, p - 1, e_root))
            return _cut(G, z.terms, _min_trunc(G, limit, cutoff))
        e_step = elem_sub(G, v_of(defect), scalar_mul(G, p - 1, e_root))
        if cutoff is not None and elem_cmp(G, e_step, cutoff) >= 0:
            return _cut(G, z.terms, cutoff)
        if max_steps is not None and step >= max_steps:
            return _cut(G, z.terms, _min_trunc(G, e_step, cutoff))
        coeff = leading_coeff(defect) / (p * root_lc ** (p - 1))
        z = series_add(z, _make(G, [(e_step, coeff)], None))
    raise TruncationError("root support exceeded the iteration cap; pass a cutoff")


# -- the sampled walk with a counterexample and a witness field per verdict -------------


@dataclass(frozen=True)
class RefSV:
    truth: bool | None
    exact: bool
    cex: dict | None = None
    wit: dict | None = None


def ref_sv_not(a: RefSV) -> RefSV:
    t = None if a.truth is None else (not a.truth)
    return RefSV(t, a.exact, a.wit, a.cex)


def ref_sv_and(a: RefSV, b: RefSV) -> RefSV:
    for v in (a, b):
        if v.truth is False and v.exact:
            return RefSV(False, True, v.cex, None)
    if a.truth is False or b.truth is False:
        pick = a if a.truth is False else b
        return RefSV(False, False, pick.cex, None)
    if a.truth is None or b.truth is None:
        return RefSV(None, False)
    return RefSV(True, a.exact and b.exact, None, _merge(a.wit, b.wit))


def ref_sv_or(a: RefSV, b: RefSV) -> RefSV:
    for v in (a, b):
        if v.truth is True and v.exact:
            return RefSV(True, True, None, v.wit)
    if a.truth is True or b.truth is True:
        pick = a if a.truth is True else b
        return RefSV(True, False, None, pick.wit)
    if a.truth is None or b.truth is None:
        return RefSV(None, False)
    return RefSV(False, a.exact and b.exact, _merge(a.cex, b.cex), None)


def _ref_candidates(
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


def _ref_sampled(G: LexWord, f, env: dict, budget: int, seed: int, qdepth: int, cmag: int = 9) -> RefSV:
    if isinstance(f, (Eq, Neq)):
        truth, certain = _atom_status(G, f, env)
        if truth is None:
            return RefSV(None, False)
        return RefSV(truth, certain)  # "equal" under truncation arrives as inexact
    if isinstance(f, Not):
        return ref_sv_not(_ref_sampled(G, f.arg, env, budget, seed, qdepth, cmag))
    if isinstance(f, And):
        a = _ref_sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is False and a.exact:
            return a
        return ref_sv_and(a, _ref_sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Or):
        a = _ref_sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is True and a.exact:
            return a
        return ref_sv_or(a, _ref_sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Implies):
        a = _ref_sampled(G, f.left, env, budget, seed, qdepth, cmag)
        if a.truth is False and a.exact:
            return RefSV(True, True)
        if a.truth is False:
            a = RefSV(False, False)  # a false hypothesis's counterexample is no witness
        return ref_sv_or(ref_sv_not(a), _ref_sampled(G, f.right, env, budget, seed + 1, qdepth, cmag))
    if isinstance(f, Exists):
        # plain root existence is the one oracle the sampler trusts: it is a
        # statement about the ambient real closed field, not one of the
        # reductions under test.
        m = _match_root_exists(f)
        if m is not None:
            p, u, allow_neg = m
            try:
                sf = eval_term(G, u, env)
                truth = _sf_root_decision(G, sf, p, allow_neg)
            except TruncationError:
                return RefSV(None, False)
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
            return RefSV(truth, True, None, wit)
        inner_budget = budget if qdepth == 0 else max(6, min(16, budget // (4**qdepth)))
        best: RefSV | None = None
        for k, cand in enumerate(_ref_candidates(G, f.body, env, inner_budget, seed, cmag)):
            sub = dict(env)
            sub[f.var] = SeriesFraction.of(cand)
            v = _ref_sampled(G, f.body, sub, budget, seed + 101 * k + 7, qdepth + 1, cmag)
            if v.truth is True and v.exact:
                return RefSV(True, True, None, _merge({f.var: cand}, v.wit))
            if v.truth is True and best is None:
                best = RefSV(True, False, None, _merge({f.var: cand}, v.wit))
        return best if best is not None else RefSV(None, False)
    if isinstance(f, Forall):
        inner_budget = budget if qdepth == 0 else max(6, min(16, budget // (4**qdepth)))
        ms = match_stability_clause(f)
        if ms is not None:
            return _ref_sampled_stability(G, f, ms[0], ms[1], env, inner_budget, seed, cmag)
        mc = match_coset_clause(f)
        if mc is not None:
            # No grid can falsify this shape. A counterexample needs the body
            # exactly false, i.e. the hypothesis exactly true and the
            # conclusion exactly false; the conclusion is a disjunction of
            # (non-root-pattern) existentials, and a sampled existential is
            # never exactly false. Survival is therefore a theorem about the
            # evaluator, not a search result, and the loop is skipped.
            return RefSV(True, False)
        for k, cand in enumerate(_ref_candidates(G, f.body, env, inner_budget, seed, cmag)):
            sub = dict(env)
            sub[f.var] = SeriesFraction.of(cand)
            v = _ref_sampled(G, f.body, sub, budget, seed + 211 * k + 13, qdepth + 1, cmag)
            if v.truth is False and v.exact:
                return RefSV(False, True, _merge({f.var: cand}, v.cex), None)
        return RefSV(True, False)  # survived the grid; not a proof
    raise ShapeError(f"not a formula: {f!r}")


def _ref_sampled_stability(
    G: LexWord, f: "Forall", p: int, x_term, env: dict, budget: int, seed: int, cmag: int = 9
) -> RefSV:
    """The multiplication-stability clause, falsified by direct oracle runs.

    Per candidate z this makes the calls the generic walk would make on the
    built body (the hypothesis on z, then, unless it is exactly false, the
    conclusion on x*z), in the same order, and catches only what it
    catches: a root argument or a root decision hidden below a truncation.
    So verdicts, the first counterexample and the errors raised agree with
    the generic walk over the same grid; only the traversal overhead is
    gone.
    """
    X = None
    one = const_series(G, 1)
    for cand in _ref_candidates(G, f.body, env, budget, seed, cmag):
        hyp = _psi_sampled(G, SeriesFraction(cand, one), p)
        if hyp is False:
            continue
        try:
            if X is None:
                X = eval_term(G, x_term, env)
            W = SeriesFraction(series_mul(X.num, cand), X.den, X.defined)
        except TruncationError:
            continue
        concl = _psi_sampled(G, W, p)
        if hyp and concl is False:
            return RefSV(False, True, {f.var: cand}, None)
    return RefSV(True, False)  # survived the grid; not a proof


def reference_eval_sampled(
    F, env, G: LexWord, budget: int = 200, seed: int = 0, cutoff_mag: int = 9
) -> EvalOutcome:
    """The sampled evaluation with separate counterexample and witness fields."""
    if budget < 1:
        raise ParameterError(f"the witness budget must be at least 1, got {budget}")
    _require_effective(G)
    sv = _ref_sampled(G, F, _norm_env(G, env), budget, seed, 0, cutoff_mag)
    if sv.truth is True:
        return EvalOutcome("true", sv.exact, sv.wit)
    if sv.truth is False and sv.exact:
        if sv.cex:
            return EvalOutcome("falsified_by", True, sv.cex)
        return EvalOutcome("false", True, None)
    return EvalOutcome("unknown_on_sample", False, None)


# -- the level map and the certificate cells before the chain table ---------------------


def reference_g_pn(G: LexWord, p: int, n: int) -> ConvexCut:
    if n < 0:
        raise ValueError("exponent bound must be a natural number")
    suffix = 0
    k0 = len(G.components)
    for k in range(len(G.components) - 1, -1, -1):
        step = G.components[k].exponent_map().value_at(p)
        if step is INF or suffix + step > n:
            break
        suffix += step
        k0 = k
    if k0 > 0:
        comp = G.components[k0 - 1]
        if isinstance(comp, OmegaTower):
            off = comp.offset_of_prime(p)
            if off is not None:
                return ConvexCut(k0 - 1, off)
    return ConvexCut(k0)


def reference_certificate_cells(G: LexWord, e_map) -> list:
    acc = e_map
    for comp in G.components:
        acc = acc.combine(comp.exponent_map(), lambda a, b: (a, b))
    return [piece for piece, _ in acc.pieces]


def _reference_segment_units(G: LexWord, low: ConvexCut, high: ConvexCut) -> tuple[list, bool]:
    if high >= low:
        raise ShapeError("segment must be nonempty with high shallower than low")
    pieces = []
    for i, start_off, end_off in _segment_parts(G, low, high):
        comp = G.components[i]
        if isinstance(comp, OmegaTower):
            if end_off is None:
                pieces.append((comp.tail_exponent_map(start_off + 1), "tower-tail"))
            else:
                for off in range(start_off + 1, end_off + 1):
                    pieces.append((_tower_slice_map(comp, off - 1, off), "tower-summand"))
        else:
            pieces.append((comp.exponent_map(), "component"))
    if not pieces:
        raise ShapeError("empty segment")
    has_deepest = pieces[-1][1] != "tower-tail"
    return pieces, has_deepest


def reference_regular_primes(G: LexWord, low: ConvexCut, high: ConvexCut) -> PrimeSet:
    pieces, has_deepest = _reference_segment_units(G, low, high)
    if has_deepest:
        pieces = pieces[:-1]
    bad = PrimeSet.empty()
    for pmap, _kind in pieces:
        bad = bad.union(pmap.where(lambda v: v != 0))
    return PrimeSet(not bad.cofinite, bad.basis)  # the complement
