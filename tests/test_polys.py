from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qpolys

from fqzeta import polys


def F(*cs):
    return tuple(Fraction(c) for c in cs)


def test_normalize_strips_trailing_zeros():
    assert polys.normalize([1, 2, 0, 0]) == (1, 2)
    assert polys.normalize([0, 0]) == ()
    assert polys.degree(()) == -1


def test_mul_and_divmod_round_trip():
    a = F(1, -3, 2, 5)
    b = F(2, 1)
    prod = polys.mul(a, b)
    quo, rem = qpolys.div_mod(prod, b)
    assert quo == a
    assert rem == ()
    quo2, rem2 = qpolys.div_mod(polys.add(prod, F(7)), b)
    assert quo2 == a
    assert rem2 == F(7)


def test_gcd_is_primitive_common_factor():
    common = F(1, 1)
    a = polys.mul(common, F(1, -2))
    b = polys.mul(common, F(3, 1))
    assert polys.gcd(a, b)[0] == (1, 1)
    assert polys.gcd(F(2, 2), ())[0] == (1, 1)
    # Primitive with a positive lead: -1 + 2t, not the monic -1/2 + t.
    assert polys.gcd(F(Fraction(-1, 3), Fraction(2, 3)), (-4, 8))[0] == (-1, 2)
    assert polys.gcd(polys.mul((3, 2), (1, 1)), polys.mul((3, 2), (1, 5)))[0] == (3, 2)


def _euclid_gcd(a, b) -> tuple:
    """Reference: the monic gcd by Euclid's algorithm in Fraction arithmetic."""
    a, b = polys.normalize(a), polys.normalize(b)
    while b:
        a, b = b, qpolys.div_mod(a, b)[1]
    if not a:
        return polys.ZERO
    inv_lead = Fraction(1) / Fraction(a[-1])
    return tuple(Fraction(c) * inv_lead for c in a)


# Small ints, ints of 200-260 bits (the size of q^(im) in the weight split),
# and rationals.
_ints = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda m, s: s * m, st.integers(2**200, 2**260), st.sampled_from((1, -1))),
)
_scalars = st.one_of(_ints, st.fractions(min_value=-20, max_value=20, max_denominator=12))
_polys = st.lists(_scalars, max_size=5).map(polys.normalize)
# quotient divides in Z[t] only.
_int_polys = st.lists(_ints, max_size=5).map(polys.normalize)


def _weight_twist(f, q, i):
    """F_i(t) = sum_m F[deg F - m] q^(im) t^m, as the weight split builds it."""
    return tuple(c * q ** (i * m) for m, c in enumerate(reversed(f)))


@given(a=_polys, b=_polys, common=_polys)
@example(a=(), b=(), common=(1,))
@example(a=(3,), b=(), common=(1,))
@example(a=(), b=(2, -4), common=(1,))
@example(a=(Fraction(1, 2), -3), b=(), common=(1,))
@example(a=(Fraction(1, 2),), b=(7,), common=(1,))
@example(a=(1, -3), b=(1, 1), common=(1, -5, 6))
@example(  # (1 - t)(1 - 13^30 t) against its weight-30 twist, of up to 222 bits
    a=polys.mul((1, -1), (1, -(13**30))),
    b=_weight_twist(polys.mul((1, -1), (1, -(13**30))), 13, 30),
    common=(1,),
)
def test_gcd_matches_euclidean_oracle(a, b, common):
    a, b = polys.mul(common, a), polys.mul(common, b)
    got, a_bar, b_bar = polys.gcd(a, b)
    # The monic oracle as the primitive integer polynomial, lead positive.
    assert got == qpolys.clear_integer_pair(_euclid_gcd(a, b), ())[0]
    assert got == qpolys.prs_gcd(a, b)
    # The cofactors: g a_bar and g b_bar are the primitive parts, zero for 0.
    assert polys.mul(got, a_bar) == polys.primitive(a)
    assert polys.mul(got, b_bar) == polys.primitive(b)
    assert all(type(c) is int for c in (*got, *a_bar, *b_bar))


def test_gcd_retries_when_the_first_candidate_fails(monkeypatch):
    # a = (1 + t)(1 + t + t^2), b = (1 + t)(t - 1): at xi = 4, a(4) = 105 and
    # b(4) = 15, whose gcd 15 = 4^2 - 1 reads back as t^2 - 1, which does not
    # divide a; at xi = 2*4 + 1 = 9 the candidate is 1 + t.
    a, b = (1, 2, 2, 1), (-1, 0, 1)
    assert polys.quotient(a, (-1, 0, 1)) is None
    points = []
    evaluate = polys.evaluate

    def recording(poly, x):
        points.append(x)
        return evaluate(poly, x)

    monkeypatch.setattr(polys, "evaluate", recording)
    assert polys.gcd(a, b)[0] == (1, 1) == qpolys.prs_gcd(a, b)
    assert points == [4, 4, 9, 9]


def test_quotient_is_exact_division_or_none():
    assert polys.quotient((1, 2, 1), (1, 1)) == (1, 1)
    assert polys.quotient((1, 2, 2), (1, 1)) is None
    assert polys.quotient((1,), (1, 1)) is None
    assert polys.quotient((), (1, 1)) == ()
    assert polys.quotient((-4, 6), (-2,)) == (2, -3)
    # A non-integral quotient coefficient fails.
    assert polys.quotient((1, 1), (2,)) is None


@given(a=_int_polys, b=_int_polys.filter(bool), r=_int_polys)
def test_quotient_undoes_mul(a, b, r):
    assert polys.quotient(polys.mul(a, b), b) == a
    r = r[: len(b) - 1]
    if any(r):
        assert polys.quotient(polys.add(polys.mul(a, b), r), b) is None


def test_evaluate_and_derivative():
    a = F(1, 0, 3)  # 1 + 3t^2
    assert polys.evaluate(a, Fraction(2)) == 13
    assert polys.derivative(a) == F(0, 6)


def test_clear_integer_pair_primitive_and_sign():
    num, den = qpolys.clear_integer_pair(F(Fraction(1, 2), 1), F(Fraction(-3, 2)))
    # scaled by -2/3 gcd handling: denominator leading coefficient positive
    assert den[-1] > 0
    from math import gcd

    g = 0
    for c in (*num, *den):
        g = gcd(g, c)
    assert g == 1
    # and the pair still represents the same ratio at a sample point
    x = Fraction(7)
    lhs = polys.evaluate(F(Fraction(1, 2), 1), x) * polys.evaluate(den, x)
    rhs = polys.evaluate(num, x) * polys.evaluate(F(Fraction(-3, 2)), x)
    assert lhs == rhs


def test_is_integral_and_to_ints():
    assert polys.is_integral(F(1, -4, 3))
    assert not polys.is_integral(F(Fraction(1, 2)))
    assert polys.to_ints(F(1, -4)) == (1, -4)


@given(
    st.lists(st.integers(-6, 6), max_size=5),
    st.lists(st.integers(1, 9), max_size=2),
    st.sampled_from([1, -1, 3, -2]),
)
def test_sturm_sequence_counts_distinct_real_roots(roots, quads, lead):
    # lead * prod (x - r) * prod (x^2 + c): repeated roots, factors with no
    # real root (which make the remainder degrees skip) and a negative lead.
    a = (lead,)
    for r in roots:
        a = polys.mul(a, (-r, 1))
    for c in quads:
        a = polys.mul(a, (c, 0, 1))
    seq = polys.sturm_sequence(a)

    def changes(x):
        signs = [v > 0 for v in (polys.evaluate(p, x) for p in seq) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    ends = [x for x in range(-8, 9) if x not in roots]
    for x, y in zip(ends, ends[1:]):
        assert changes(x) - changes(y) == len({r for r in roots if x < r < y})
    assert polys.degree(a) - polys.degree(seq[-1]) == len(set(roots)) + 2 * len(set(quads))


_RENDER_CASES = [
    # Q(q) coefficients in the solver's relations, highest power first.
    ((1, -1), "q", True, "-q + 1"),
    ((0, 2), "q", True, "2*q"),
    ((-3, 0, 1), "q", True, "q^2 - 3"),
    ((), "q", True, "0"),
    ((5, 0, 0), "q", True, "5"),
    # Zeta numerators, denominators and factors in t, as the CLI prints them.
    ((1, -7, 14, -8), "t", False, "1 - 7*t + 14*t^2 - 8*t^3"),
    ((), "t", False, "0"),
    ((0, -1), "t", False, "-t"),
    ((0, 1), "t", False, "t"),
    ((1,), "t", False, "1"),
    ((-1,), "t", False, "-1"),
    ((-1, 1), "t", False, "-1 + t"),
]


@pytest.mark.parametrize(
    "coeffs,var,descending,text",
    _RENDER_CASES,
    ids=[f"{var}={text}" for _, var, _, text in _RENDER_CASES],
)
def test_render(coeffs, var, descending, text):
    assert polys.render(coeffs, var, descending=descending) == text
