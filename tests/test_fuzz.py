"""Input boundaries under generated input: the parsers and both evaluators
fail only with ArclabError, never with a raw Python exception, also on
integer literals too long for int(); the parsers read text with
surrounding whitespace as the stripped text; the series and binding
readers answer as the regex readers they replaced, except where the
difference is pinned; a decision plan answers as the decision walk it
replaced; and printing then parsing gives back the series or formula that
was printed."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arclab.errors import ArclabError, DslSyntaxError, NonEffectiveError
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
from arclab.hahn import (
    parse_bindings,
    parse_series,
    print_series,
    sample_series,
    series_of,
    zero_series,
)

from reference_eval import (
    reference_decide,
    reference_eval_sampled,
    reference_parse_bindings,
    reference_parse_series,
)
from test_groups import _group_word, _mutated

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
@given(TEXT, st.sampled_from(GROUPS))
def test_parse_bindings_raises_only_arclab_errors(text, G):
    _parses_or_rejects(lambda s: parse_bindings(s, G), text)


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_parse_formula_raises_only_arclab_errors(text):
    _parses_or_rejects(lambda s: parse_formula(s, group=K1), text)


@pytest.mark.parametrize("pad", [" ", "\t", "\n", " \t\n "])
def test_parsers_accept_surrounding_whitespace(pad):
    for parse, text in (
        (parse_group, "lex(Z, Q)"),
        (lambda s: parse_series(s, K1), "1 + 2*t^(1,1/2) + O(t^(2,0))"),
        (lambda s: parse_bindings(s, K1), "x = 1 + t^(1,0); y = 2"),
        (lambda s: parse_formula(s, group=K1), "phi_pn[2,1](x) and x = 1"),
    ):
        want = parse(text)
        for padded in (pad + text, text + pad, pad + text + pad):
            assert parse(padded) == want, repr(padded)


# README names spaces, tabs and line breaks; other Unicode spaces are not skipped
ODD_SPACES = {"ideographic": "\u3000", "no-break": "\xa0", "vertical-tab": "\x0b"}


@pytest.mark.parametrize("space", ODD_SPACES.values(), ids=ODD_SPACES)
def test_parsers_refuse_other_spaces(space):
    # each text with the space in front, and between two tokens after a plain space
    for parse, text, gap in (
        (parse_group, "lex(Z, Q)", 7),
        (lambda s: parse_series(s, K1), "1 + t^(1,0)", 2),
        (lambda s: parse_bindings(s, K1), "x = 1; y = 2", 7),
        (lambda s: parse_formula(s, group=K1), "x = 1 and x = 1", 6),
    ):
        assert text[gap - 1] == " "
        for spaced, pos in ((space + text, 0), (text[:gap] + space + text[gap:], gap)):
            with pytest.raises(DslSyntaxError) as info:
                parse(spaced)
            assert info.value.pos == pos, repr(spaced)


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


# shapes where an assignment crosses a connective: an implication whose
# hypothesis is a universal, at the top and under a quantifier, and a root
# witness under a negation and a disjunction
SAMPLED_SHAPES = [
    "exists y. ((forall z. z != y) -> y = x)",
    "(forall y. y != x) -> x = 5",
    "not (exists y. y^2 = x*x)",
    "(exists y. y^2 = x*x) or x = 5",
]


def _shown(o) -> tuple:
    """A sampled outcome as the CLI shows it: status, certain flag and printed witness."""
    return (o.status, o.certain, o.witness and {k: print_series(v) for k, v in o.witness.items()})


def _binding(G, point):
    """x at a drawn point: None is 0, a seed gives a sample series, and
    (seed, k) keeps that series' first k terms, truncated at the next one;
    k = 0 gives a binding that is zero modulo its truncation."""
    if point is None:
        return zero_series(G)
    if isinstance(point, int):
        return sample_series(G, point)
    s = sample_series(G, point[0])
    k = min(point[1], len(s.terms) - 1)
    return series_of(G, s.terms[:k], s.terms[k][0])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(formulas(), st.sampled_from(SAMPLED_SHAPES)),
    st.sampled_from(GROUPS),
    st.sampled_from([4, 12, 30]),
    st.integers(0, 1000),
    st.one_of(
        st.none(), st.integers(0, 1000), st.tuples(st.integers(0, 1000), st.integers(0, 2))
    ),
)
def test_eval_sampled_matches_the_two_field_reference(text, G, budget, seed, point):
    # the one-assignment walk against the walk it replaced, on exact and
    # truncated bindings: the same outcome, witness included, or the same
    # error class
    F = parse_formula(text, group=G)
    env = {"x": _binding(G, point)}
    got = _outcome(lambda: _shown(eval_sampled(F, env, G, budget=budget, seed=seed)))
    want = _outcome(lambda: _shown(reference_eval_sampled(F, env, G, budget=budget, seed=seed)))
    assert got == want


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


# -- series literals and bindings against the regex readers they replaced -----------

_WS = st.sampled_from(["", " ", "  ", "\t", "\n"])
_NUMBER = st.builds(
    "{}{}".format,
    st.sampled_from(["0", "1", "2", "3", "5", "12", "007"]),
    st.sampled_from(["", "/2", "/3", "/5"]),
)


@st.composite
def series_texts(draw) -> str:
    """A series in print_series's own forms, with whitespace between terms;
    the exponents may have a slot count other than the groups' two."""
    slots = draw(st.sampled_from([1, 2, 2, 2, 3]))

    def exp() -> str:
        coords = [draw(st.sampled_from(["", "-"])) + draw(_NUMBER) for _ in range(slots)]
        return "t^(" + ",".join(coords) + ")"

    forms = [lambda: draw(_NUMBER), exp, lambda: f"{draw(_NUMBER)}*{exp()}"]
    bodies = [draw(st.sampled_from(forms))() for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        bodies.append(f"O({exp()})")
    if not bodies:
        return draw(_WS) + "0" + draw(_WS)
    text = draw(_WS) + draw(st.sampled_from(["", "-"])) + bodies[0]
    for body in bodies[1:]:
        sign = "+" if body.startswith("O") else draw(st.sampled_from(["+", "-"]))
        text += draw(_WS) + sign + draw(_WS) + body
    return text + draw(_WS)


@st.composite
def binding_texts(draw) -> str:
    def item() -> str:
        if draw(st.integers(0, 4)) == 0:
            return ""
        name = draw(st.sampled_from(["x", "y", "_a", "t"]))
        return name + draw(_WS) + "=" + draw(_WS) + draw(series_texts())

    items = [draw(_WS) + item() + draw(_WS) for _ in range(draw(st.integers(0, 3)))]
    return ";".join(items)


# the mutations leave out whitespace and the characters of the number forms
# Fraction() read and the token stream refuses (., e, _ and +): those
# differences are pinned below
_SERIES_CHARS = "0123456789/-*^(),tO"


@settings(max_examples=400, deadline=None)
@given(_mutated(series_texts(), _SERIES_CHARS), st.sampled_from(GROUPS))
def test_parse_series_matches_the_reference_reader(text, G):
    # the same series, or the same error class; the wording may differ
    want = _outcome(lambda: reference_parse_series(text, G))
    assert _outcome(lambda: parse_series(text, G)) == want


@settings(max_examples=200, deadline=None)
@given(_mutated(binding_texts(), _SERIES_CHARS + ";=x"), st.sampled_from(GROUPS))
def test_parse_bindings_matches_the_reference_reader(text, G):
    want = _outcome(lambda: reference_parse_bindings(text, G))
    assert _outcome(lambda: parse_bindings(text, G)) == want


@settings(max_examples=200, deadline=None)
@given(series_texts(), st.sampled_from(GROUPS), st.data())
def test_parse_series_takes_whitespace_between_any_two_tokens(text, G, data):
    # new with the token stream: the regex reader refused t ^ (, O ( and 3/ 1
    inside = [i for i in range(1, len(text)) if text[i - 1].isalnum() and text[i].isalnum()]
    cuts = [i for i in range(len(text) + 1) if i not in inside]
    at = data.draw(st.sampled_from(cuts))
    spaced = text[:at] + data.draw(st.sampled_from([" ", "\t", "\n"])) + text[at:]
    assert _outcome(lambda: parse_series(spaced, G)) == _outcome(lambda: parse_series(text, G))


@pytest.mark.parametrize(
    "text", ["t^(0,1.5)", "t^(0,.7)", "t^(0,1.)", "t^(7e2,0)", "t^(1_0,0)", "t^(+1,0)"]
)
def test_number_forms_fraction_took_are_refused(text):
    assert reference_parse_series(text, K1).terms
    with pytest.raises(DslSyntaxError):
        parse_series(text, K1)


@pytest.mark.parametrize("text", ["é = 1", "π = t^(1,0)"])
def test_non_ascii_binding_names_are_refused(text):
    assert reference_parse_bindings(text, K1)
    with pytest.raises(DslSyntaxError):
        parse_bindings(text, K1)


@pytest.mark.parametrize(
    "text, compact",
    [
        ("t ^ (1,0)", "t^(1,0)"),
        ("1 + O (t^(2,0))", "1 + O(t^(2,0))"),
        ("3/ 1", "3"),
        ("3 /2*t^(1,0)", "3/2*t^(1,0)"),
        ("t^(- 1,0)", "t^(-1,0)"),
        ("t^(0,1 / 2)", "t^(0,1/2)"),
    ],
)
def test_whitespace_inside_a_term_is_now_read(text, compact):
    with pytest.raises(DslSyntaxError):
        reference_parse_series(text, K1)
    assert parse_series(text, K1) == reference_parse_series(compact, K1)


def test_zero_over_a_schematic_group_is_refused():
    # the regex reader special-cased "0" before validating the group
    G = parse_group("lex(omega_tower(start=0))")
    assert reference_parse_series("0", G).is_zero()
    with pytest.raises(NonEffectiveError):
        parse_series("0", G)


# -- integer literals past int()'s limit, in the grammar texts of every reader --------


@st.composite
def _with_a_long_literal(draw, texts) -> str:
    """A grammar text with one of its digit runs replaced by 4,301 to 5,000
    digits, more than Python's int() converts from a string."""
    text = draw(texts)
    runs = [m.span() for m in re.finditer(r"\d+", text)]
    assume(runs)
    start, end = draw(st.sampled_from(runs))
    digits = draw(st.sampled_from("123456789")) * draw(st.integers(4301, 5000))
    return text[:start] + digits + text[end:]


_READERS = {
    "group": (_group_word(), parse_group),
    "series": (series_texts(), lambda s: parse_series(s, K1)),
    "formula": (formulas(), lambda s: parse_formula(s, group=K1)),
    "bindings": (binding_texts(), lambda s: parse_bindings(s, K1)),
}


@pytest.mark.parametrize("reader", _READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_long_integer_literals_are_refused(reader, data):
    texts, parse = _READERS[reader]
    text = data.draw(_with_a_long_literal(texts))
    with pytest.raises(ArclabError):
        parse(text)


# -- numerals are ASCII, and error messages quote a bounded part of a token ----------


@st.composite
def _with_a_non_ascii_digit(draw, texts) -> str:
    """A grammar text with one of its digits replaced by a decimal digit of
    another script, which the grammar's ASCII numerals leave out."""
    text = draw(texts)
    digits = [i for i, ch in enumerate(text) if ch in "0123456789"]
    assume(digits)
    i = draw(st.sampled_from(digits))
    return text[:i] + draw(st.sampled_from("٣۳३৩๓３")) + text[i + 1 :]


@pytest.mark.parametrize("reader", _READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_ascii_digits_are_refused(reader, data):
    texts, parse = _READERS[reader]
    text = data.draw(_with_a_non_ascii_digit(texts))
    with pytest.raises(DslSyntaxError):
        parse(text)


LONG_NAME = "x" * 100_000


@pytest.mark.parametrize(
    "parse, text, pos",
    [
        (parse_group, f"lex({LONG_NAME})", 4),
        (parse_group, f"lex(Zloc({LONG_NAME}))", 9),
        (lambda s: parse_series(s, K1), LONG_NAME, 0),
        (lambda s: parse_bindings(s, K1), "x = 1; " + "9" * 4000, 7),
        (parse_formula, f"x = 1 {LONG_NAME}", 6),
        (parse_formula, "phi_pn[2," + "9" * 4000 + "](x)", 0),
    ],
    ids=["component", "number", "expect", "binding-name", "trailing", "macro-level"],
)
def test_error_messages_quote_a_bounded_part_of_the_token(parse, text, pos):
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    assert len(str(info.value)) < 200
    assert info.value.pos == pos
