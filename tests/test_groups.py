from fractions import Fraction

import pytest
import reference_eval as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arclab import convex, groups
from arclab.errors import DslSyntaxError, NonEffectiveError, ShapeError
from arclab.groups import (
    FreeReal,
    LexWord,
    LocZ,
    OmegaTower,
    Rat,
    RealGen,
    Zed,
    element,
    elem_add,
    elem_cmp,
    elem_div_by_p,
    elem_neg,
    elem_p_divisible,
    parse_group,
    pi_interval,
    print_group,
    scalar_mul,
    sign_of_real,
    unflatten,
    zero_element,
)
from conftest import EFFECTIVE_POOL

K1 = parse_group("lex(Z, Q)")
ZPI = parse_group("lex(real(1, pi))")


# -- parsing ----------------------------------------------------------------


def test_parse_shapes():
    assert len(K1.components) == 2
    assert len(parse_group("lex(Q)").components) == 1
    assert len(ZPI.components) == 1
    tower = parse_group("lex(omega_tower(start=0))")
    assert not tower.is_effective()
    assert K1.is_effective() and ZPI.is_effective()


@pytest.mark.parametrize(
    "text",
    [
        "lex(Z, Q)",
        "lex(Q)",
        "lex(real(1, pi))",
        "lex(Zloc(2), Q)",
        "lex(omega_tower(start=0))",
        "lex(poly_module(Zloc(2), pi))",
        "lex(Z, Z)",
        "lex(real(1, pi), Q, Zloc(3))",
    ],
)
def test_parse_print_round_trip(text):
    G = parse_group(text)
    assert parse_group(print_group(G)) == G


@pytest.mark.parametrize("bad", ["lex()", "lex(Z", "lex(W)", "lex(Zloc(4))", "lex(real())"])
def test_parse_rejects(bad):
    with pytest.raises(DslSyntaxError):
        parse_group(bad)


@pytest.mark.parametrize("build, message", [
    (lambda: RealGen("e"), "unknown generator kind 'e'"),
    (lambda: FreeReal(()), "at least one generator"),
    (lambda: OmegaTower(-1), "tower start must be a natural number"),
    (lambda: LexWord(()), "at least one component"),
], ids=["generator-kind", "real-rank-0", "tower-start", "empty-word"])
def test_constructors_refuse_what_the_parser_never_builds(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# -- hashing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "lex(Z, Q, Zloc(3))",
        "lex(real(1, pi), Z)",
        "lex(Q, poly_module(Zloc(5), pi))",
        "lex(Z, omega_tower(start=1))",
    ],
)
def test_equal_parses_are_one_key(text):
    G, H = parse_group(text), parse_group(text)
    assert G is not H
    assert G == H and hash(G) == hash(H) and len({G, H}) == 1
    assert convex._chain_table(G) is convex._chain_table(H)


def test_a_word_hashes_its_components_once(monkeypatch):
    calls = []
    gen_hash = RealGen.__hash__

    def spy(self):
        calls.append(1)
        return gen_hash(self)

    monkeypatch.setattr(groups.RealGen, "__hash__", spy)
    G = parse_group("lex(real(1, pi), Z)")
    hash(G)
    assert len(calls) == 2  # the first hash reads both generators
    calls.clear()
    hash(G)
    assert calls == []


# group words from the DSL's grammar, with the separators spaced at random
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])
_INT = st.sampled_from(["0", "1", "2", "3", "4", "5", "7", "12", "007"])


@st.composite
def _rational(draw) -> str:
    sign = draw(st.sampled_from(["", "-", "- "]))
    den = draw(st.sampled_from(["", "/" + draw(_INT)]))
    return sign + draw(_INT) + den


@st.composite
def _component(draw) -> str:
    sp = draw(_SPACE)
    gen = st.one_of(st.just("pi"), _rational())
    forms = [
        lambda: draw(st.sampled_from(["Z", "Q"])),
        lambda: f"Zloc({sp}{draw(_INT)}{sp})",
        lambda: "real(" + f"{sp},{sp}".join(draw(st.lists(gen, min_size=1, max_size=3))) + ")",
        lambda: f"omega_tower(start{sp}={sp}{draw(_INT)})",
        lambda: f"poly_module(Zloc({draw(_INT)}),{sp}{draw(gen)})",
    ]
    return draw(st.sampled_from(forms))()


@st.composite
def _group_word(draw) -> str:
    sp = draw(_SPACE)
    word = f"{sp}lex{sp}(" + f"{sp},{sp}".join(draw(st.lists(_component(), min_size=1, max_size=4)))
    return word + f"){sp}"


# the characters of the group DSL, and whitespace
_ALPHABET = sorted(set("lexZQlocrealpiomega_towerstartpoly_module()=,/-0123456789 \t\n"))


@st.composite
def _mutated(draw, texts, alphabet) -> str:
    """A text with one insertion, deletion or replacement from alphabet, or none."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(alphabet))
    edit = draw(st.sampled_from(["insert", "delete", "replace", "none"]))
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    if edit == "replace":
        return text[:at] + char + text[at + 1 :]
    return text


def _parsed(parse, text):
    try:
        return parse(text)
    except DslSyntaxError:
        return DslSyntaxError


@settings(max_examples=400, deadline=None)
@given(_mutated(_group_word(), _ALPHABET))
def test_parse_group_matches_the_reference_parser(text):
    # the same group, or DslSyntaxError from both; the wording may differ
    assert _parsed(parse_group, text) == _parsed(ref.reference_parse_group, text)


# -- the slot layout ---------------------------------------------------------------


def _drawn_dens(comp):
    """The denominators hahn.sample_series drew a slot of comp from, by the
    isinstance chain it ran per slot and term; None for an int slot."""
    if isinstance(comp, (Zed, FreeReal)):
        return None
    if isinstance(comp, Rat):
        return (1, 2, 3, 4)
    if isinstance(comp, LocZ):
        return tuple([d for d in (1, 2, 3, 4, 5) if d % comp.q != 0])
    raise AssertionError(f"{comp} owns no slot")


@settings(max_examples=100, deadline=None)
@given(_group_word())
def test_sample_dens_are_the_per_slot_draw_choices(text):
    # schematic components own no slot, so their words build a layout too
    G = _parsed(parse_group, text)
    assume(G is not DslSyntaxError)
    layout = G.layout
    assert layout.sample_dens == tuple(_drawn_dens(k) for k in layout.kinds)
    assert [type(z) for z in layout.zero] == [
        int if d is None else Fraction for d in layout.sample_dens
    ]
    assert layout.frac_slots == tuple(
        i for i, k in enumerate(layout.kinds) if isinstance(k, (Rat, LocZ))
    )


@pytest.mark.parametrize(
    "text, dens",
    [
        ("lex(Z, Q)", (None, (1, 2, 3, 4))),
        ("lex(real(1, pi), Zloc(2))", (None, None, (1, 3, 5))),
        ("lex(Zloc(3))", ((1, 2, 4, 5),)),
        ("lex(Zloc(5))", ((1, 2, 3, 4),)),
        ("lex(Zloc(7), omega_tower(start=0))", ((1, 2, 3, 4, 5),)),
        ("lex(poly_module(Zloc(2), pi), Z)", (None,)),
        ("lex(omega_tower(start=1), poly_module(Zloc(3), pi))", ()),
    ],
)
def test_sample_dens_pinned(text, dens):
    assert parse_group(text).layout.sample_dens == dens


# -- element arithmetic (pinned instances) ------------------------------------


def test_add_k1():
    a = element(K1, 1, Fraction(1, 2))
    b = element(K1, 2, Fraction(-1, 2))
    assert elem_add(K1, a, b) == element(K1, 3, 0)


def test_add_real_coords():
    one = element(ZPI, (1, 0))
    pi = element(ZPI, (0, 1))
    assert elem_add(ZPI, one, pi) == element(ZPI, (1, 1))


def test_neg_cancels():
    a = element(K1, 4, Fraction(-7, 3))
    assert elem_add(K1, a, elem_neg(K1, a)) == zero_element(K1)


def test_cmp_lexicographic():
    assert elem_cmp(K1, element(K1, 1, -100), element(K1, 0, 100)) == 1


def test_cmp_real_interval():
    a = element(ZPI, (3, -1))  # 3 - pi < 0
    assert elem_cmp(ZPI, a, zero_element(ZPI)) == -1
    b = element(ZPI, (-3, 1))  # pi - 3 > 0
    assert elem_cmp(ZPI, b, zero_element(ZPI)) == 1
    c = element(ZPI, (22, -7))  # 22 - 7*pi = 22 - 21.99... > 0
    assert elem_cmp(ZPI, c, zero_element(ZPI)) == 1
    # 355/113 famously over-approximates pi, so 355 - 113*pi is a tiny positive
    d = element(ZPI, (355, -113))
    assert elem_cmp(ZPI, d, zero_element(ZPI)) == 1
    assert elem_cmp(ZPI, elem_neg(ZPI, d), zero_element(ZPI)) == -1


@pytest.mark.parametrize(
    "dsl, flat",
    [
        ("lex(Z, Q)", (1,)),  # wrong slot count
        ("lex(Z, Q)", (Fraction(3, 2), 0)),  # non-integer in a Z slot
        ("lex(Zloc(2), Q)", (Fraction(1, 2), 0)),  # denominator 2 in a Zloc(2) slot
        ("lex(real(1, pi))", (Fraction(1, 2), 0)),  # non-integer in a real slot
    ],
)
def test_unflatten_is_the_element_boundary(dsl, flat):
    with pytest.raises(ShapeError):
        unflatten(parse_group(dsl), flat)


def test_schematic_has_no_elements():
    tower = parse_group("lex(omega_tower(start=0))")
    with pytest.raises(NonEffectiveError):
        element(tower, 1)


# -- divisibility ------------------------------------------------------------


def test_p_divisible_k1():
    assert elem_p_divisible(K1, element(K1, 2, Fraction(1, 3)), 2)
    assert not elem_p_divisible(K1, element(K1, 1, 0), 2)


def test_p_divisible_real():
    assert elem_p_divisible(ZPI, element(ZPI, (2, 4)), 2)
    assert not elem_p_divisible(ZPI, element(ZPI, (2, 3)), 2)


def test_p_divisible_locz():
    G = parse_group("lex(Zloc(2), Q)")
    assert elem_p_divisible(G, element(G, Fraction(2, 3), 0), 2)
    assert not elem_p_divisible(G, element(G, Fraction(1, 3), 0), 2)
    # away from the pinned prime the component is divisible
    assert elem_p_divisible(G, element(G, Fraction(1, 3), 0), 5)


# -- hypothesis properties ---------------------------------------------------


def k1_elements():
    rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    return st.builds(lambda z, q: element(K1, z, q), st.integers(-50, 50), rationals)


def zpi_elements():
    pair = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    return st.builds(lambda c: element(ZPI, c), pair)


@given(k1_elements(), k1_elements(), k1_elements())
def test_order_translation_invariant(a, b, c):
    if elem_cmp(K1, a, b) == -1:
        assert elem_cmp(K1, elem_add(K1, a, c), elem_add(K1, b, c)) == -1


@given(zpi_elements(), zpi_elements(), zpi_elements())
@settings(max_examples=40)
def test_order_translation_invariant_real(a, b, c):
    if elem_cmp(ZPI, a, b) == -1:
        assert elem_cmp(ZPI, elem_add(ZPI, a, c), elem_add(ZPI, b, c)) == -1


@given(k1_elements(), st.sampled_from([2, 3, 5]))
def test_divisibility_is_constructive(a, p):
    if elem_p_divisible(K1, a, p):
        b = elem_div_by_p(K1, a, p)
        assert scalar_mul(K1, p, b) == a
    else:
        with pytest.raises(ShapeError):
            elem_div_by_p(K1, a, p)


def _isinstance_p_divisible(G, a, p):
    """elem_p_divisible as it tested each slot's kind."""
    for kind, x in zip(G.layout.kinds, a):
        if isinstance(kind, (Zed, FreeReal)):
            if x % p != 0:
                return False
        elif isinstance(kind, LocZ):
            if p == kind.q and x.numerator % kind.q != 0:
                return False
    return True


@st.composite
def _divisibility_cases(draw):
    """A prime, a pool group or lex(Zloc(p), Q), and an element whose
    numerators are multiples of p about half the time."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    G = parse_group(draw(st.sampled_from(EFFECTIVE_POOL + [f"lex(Zloc({p}), Q)"])))
    a = []
    for dens in G.layout.sample_dens:
        n = draw(st.integers(-9, 9)) * draw(st.sampled_from([1, p]))
        a.append(n if dens is None else Fraction(n, draw(st.sampled_from(dens))))
    return G, tuple(a), p


@settings(max_examples=300)
@given(_divisibility_cases())
def test_divisibility_tables_match_the_slot_kinds(case):
    G, a, p = case
    divisible = elem_p_divisible(G, a, p)
    assert divisible == _isinstance_p_divisible(G, a, p)
    if not divisible:
        with pytest.raises(ShapeError):
            elem_div_by_p(G, a, p)
        return
    b = elem_div_by_p(G, a, p)
    want = tuple(
        x // p if isinstance(kind, (Zed, FreeReal)) else x / p for kind, x in zip(G.layout.kinds, a)
    )
    # repr tells an int slot from a Fraction one
    assert repr(b) == repr(want) and scalar_mul(G, p, b) == a


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_real_cmp_matches_rationals_on_unit_axis(x, y):
    # with the pi coordinate pinned to zero the order is the usual one on Z
    a, b = element(ZPI, (x, 0)), element(ZPI, (y, 0))
    assert elem_cmp(ZPI, a, b) == (x > y) - (x < y)


@given(k1_elements())
def test_neg_involution(a):
    assert elem_neg(K1, elem_neg(K1, a)) == a


# -- the sign of a real combination -------------------------------------------

REAL_GENS = [
    parse_group(f"lex({dsl})").components[0].gens
    for dsl in ("real(1, pi)", "real(-2/3, pi)", "real(pi, 5/7)", "real(pi)", "real(1/2)")
]
# no group declares two rationals (they are dependent over Q), but the sum
# of any generators is still signed exactly
TWO_RATIONALS = (RealGen("rat", Fraction(-2, 3)), RealGen("pi"), RealGen("rat", Fraction(5, 7)))

coordinates = st.one_of(st.integers(-30, 30), st.integers(-(10**15), 10**15))


@st.composite
def real_combinations(draw):
    gens = draw(st.sampled_from(REAL_GENS + [TWO_RATIONALS]))
    return gens, tuple(draw(coordinates) for _ in gens)


@settings(max_examples=300)
@given(real_combinations())
def test_sign_of_real_matches_the_fraction_reference(case):
    gens, coords = case
    assert sign_of_real(gens, coords) == ref.reference_sign_of_real(gens, coords)


def _pi_convergents(max_den: int) -> list[tuple[int, int]]:
    """The continued-fraction convergents p/q of pi with q <= max_den, read
    off the enclosure pi_interval(100) while both of its ends agree."""
    lo, hi = pi_interval(100)
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while lo.numerator // lo.denominator == hi.numerator // hi.denominator:
        a = lo.numerator // lo.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_den or lo == a:
            break
        out.append((p1, q1))
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    return out


def test_sign_of_real_on_pi_convergents(monkeypatch):
    # p - q*pi shrinks like 1/q, so near q = 10^40 the enclosure must be
    # narrower than 10^-80 before the sign shows
    convergents = _pi_convergents(10**40)
    assert convergents[:3] == [(3, 1), (22, 7), (333, 106)]
    assert convergents[-1][1] > 10**38
    asked = []
    exact = groups.pi_interval
    monkeypatch.setattr(groups, "pi_interval", lambda digits: asked.append(digits) or exact(digits))
    for gens in REAL_GENS[:3]:
        (r,) = [g.value for g in gens if g.kind == "rat"]
        for p, q in convergents:
            # r*(p*den) - (num*q)*pi = num*(p - q*pi)
            coords = tuple(p * r.denominator if g.kind == "rat" else -q * r.numerator for g in gens)
            for c in (coords, tuple(-x for x in coords)):
                want = ref.reference_sign_of_real(gens, c)
                assert sign_of_real(gens, c) == want != 0, (gens, c)
    assert {30, 60, 120} <= set(asked) and max(asked) <= 240
