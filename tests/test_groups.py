from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.errors import DslSyntaxError, NonEffectiveError, ShapeError
from arclab.groups import (
    element,
    elem_add,
    elem_cmp,
    elem_div_by_p,
    elem_neg,
    elem_p_divisible,
    parse_group,
    print_group,
    scalar_mul,
    zero_element,
)

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


def test_cmp_shape_mismatch():
    with pytest.raises(ShapeError):
        elem_cmp(K1, element(K1, 1, 0), zero_element(parse_group("lex(Q)")))


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


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_real_cmp_matches_rationals_on_unit_axis(x, y):
    # with the pi coordinate pinned to zero the order is the usual one on Z
    a, b = element(ZPI, (x, 0)), element(ZPI, (y, 0))
    assert elem_cmp(ZPI, a, b) == (x > y) - (x < y)


@given(k1_elements())
def test_neg_involution(a):
    assert elem_neg(K1, elem_neg(K1, a)) == a
