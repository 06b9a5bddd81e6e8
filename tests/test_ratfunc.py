from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpolys
from ratfunc import ONE, ZERO, Q, RationalFunctionQ

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
small_polys = st.lists(small_fractions, min_size=1, max_size=4)


def rf(num, den=(1,)):
    return RationalFunctionQ(tuple(num), tuple(den))


def test_canonical_reduction():
    # (q^2 - 1) / (q - 1) = q + 1
    assert rf((-1, 0, 1), (-1, 1)) == rf((1, 1))
    # denominator is made monic
    x = rf((1,), (0, 2))
    assert x.den == (Fraction(0), Fraction(1))
    assert x.num == (Fraction(1, 2),)


@given(small_polys, st.integers(0, 3), small_fractions.filter(bool), st.booleans())
def test_monomial_side_reduces_like_the_euclidean_gcd(poly, e, c, monomial_den):
    # A side c q^e shares only a power of q with the other; the shortcut
    # must give the same canonical pair as the gcd.
    from fqzeta import polys
    from ratfunc import _canonical

    monomial = (0,) * e + (c,)
    num, den = (poly, monomial) if monomial_den else (monomial, poly)
    num = polys.normalize(tuple(Fraction(x) for x in num))
    den = polys.normalize(tuple(Fraction(x) for x in den))
    if not den or not num:
        return
    g = polys.gcd(num, den)[0]
    ref_num, ref_den = qpolys.div_mod(num, g)[0], qpolys.div_mod(den, g)[0]
    lead = ref_den[-1]
    assert _canonical(num, den) == (polys.scale(ref_num, 1 / lead), polys.scale(ref_den, 1 / lead))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rf((1,), (0,))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_q_power_both_signs():
    assert Q * Q == RationalFunctionQ.q_power(2)
    assert RationalFunctionQ.q_power(-2) * RationalFunctionQ.q_power(2) == ONE
    assert RationalFunctionQ.q_power(-1).evaluate(4) == Fraction(1, 4)


def test_evaluate():
    f = rf((1, 1), (0, 1))  # (1 + q) / q
    assert f.evaluate(3) == Fraction(4, 3)
    assert f.evaluate(Fraction(49, 9)) == Fraction(58, 49)
    with pytest.raises(ZeroDivisionError):
        rf((1,), (0, 1)).evaluate(0)


def test_to_string_examples():
    assert (2 * Q).to_string() == "2*q/1"
    assert ZERO.to_string() == "0/1"
    assert rf((-1, 0, 1), (0, 2)).to_string() == "q^2 - 1/2*q"
    assert RationalFunctionQ.q_power(-3).to_string() == "1/q^3"


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200, deadline=None)
def test_field_axioms(a_c, b_c, c_c):
    try:
        a, b, c = rf(a_c), rf(b_c), rf(c_c)
    except ZeroDivisionError:
        return
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    if a:
        assert a * (ONE / a) == ONE


@given(small_polys, small_polys)
@settings(max_examples=200, deadline=None)
def test_arithmetic_agrees_with_evaluation(a_c, b_c):
    a, b = rf(a_c), rf(b_c)
    q0 = Fraction(7, 2)
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
    assert (a - b).evaluate(q0) == a.evaluate(q0) - b.evaluate(q0)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.num = (Fraction(2),)


def test_int_coercion():
    assert Q + 1 == rf((1, 1))
    assert 2 * Q == rf((0, 2))
    assert 1 - Q == rf((1, -1))
    assert (Q * Q - 1) / (Q - 1) == Q + 1
