import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqzeta import polys
from fqzeta.errors import (
    DualityViolationError,
    InsufficientCountsError,
    NonIntegralCoefficientsError,
    NonIntegralCountError,
    NoRationalFitError,
    WeightSeparationError,
)
from fqzeta.varieties import PointCountSeries
from fqzeta.zeta import (
    CohomologyProfile,
    WeilFactorization,
    ZetaFunction,
    check_functional_equation,
    check_riemann_hypothesis,
    connected_denominator,
    counts_from_zeta,
    factor_by_weights,
    _is_weil,
    _sturm_certificate,
    _series_from_counts,
    traces_from_factorization,
    zeta_from_counts,
)

CURVE_PROFILE = CohomologyProfile(1, (1, 2, 1))


def frobenius_power_sums(trace, q, terms):
    """Oracle: s_n for a genus-1 Frobenius with s_1 = trace, via the Lucas
    recursion s_n = trace*s_(n-1) - q*s_(n-2)."""
    s = [None, trace, trace * trace - 2 * q]
    while len(s) <= terms:
        s.append(trace * s[-1] - q * s[-2])
    return s[1 : terms + 1]


def elliptic_counts(trace, q, terms):
    return tuple(q**n + 1 - s for n, s in enumerate(frobenius_power_sums(trace, q, terms), 1))


def product_poly(*factors):
    acc = (1,)
    for f in factors:
        acc = polys.to_ints(polys.mul(acc, f))
    return acc


# ---------------------------------------------------------------------------
# zeta_from_counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 7])
def test_projective_line_fit(q):
    series = PointCountSeries(q, (q + 1, q**2 + 1))
    z = zeta_from_counts(series, 0, 2)
    assert z.num == (1,)
    assert z.den == product_poly((1, -1), (1, -q))


def test_elliptic_fit_generic_four_counts():
    counts = elliptic_counts(-3, 5, 4)
    assert counts == (9, 27, 108, 675)
    z = zeta_from_counts(PointCountSeries(5, counts), 2, 2)
    assert z.num == (1, 3, 5)
    assert z.den == (1, -6, 5)


def test_elliptic_fit_with_known_denominator_needs_two_counts():
    z = zeta_from_counts(
        PointCountSeries(5, (9, 27)),
        2,
        2,
        known_denominator=connected_denominator(5, 1),
    )
    assert z.num == (1, 3, 5)
    assert z.den == (1, -6, 5)


def test_projective_plane_fit():
    z = zeta_from_counts(PointCountSeries(2, (7, 21, 73)), 0, 3)
    assert z.num == (1,)
    assert z.den == product_poly((1, -1), (1, -2), (1, -4))


def test_connected_denominator():
    assert connected_denominator(5, 1) == (1, -6, 5)
    assert connected_denominator(2, 3) == (1, -9, 8)
    assert connected_denominator(7, 0) == (1, -1)


def test_insufficient_counts():
    with pytest.raises(InsufficientCountsError) as exc:
        zeta_from_counts(PointCountSeries(5, (9, 27)), 2, 2)
    assert exc.value.needed == 4
    assert exc.value.given == 2


def test_wrong_split_is_rejected():
    # P^1 counts cannot be matched by a (1,1) function: with three terms the
    # overdetermined system is inconsistent.
    with pytest.raises(NoRationalFitError):
        zeta_from_counts(PointCountSeries(3, (4, 10, 28)), 1, 1)


def test_non_integral_fit_reported():
    # With exactly two terms a (1,1) fit of the P^1 counts exists but is not
    # integral; it must be reported, not silently accepted.
    # The message lists coefficients the same way whether a value is held as
    # an int or a Fraction.
    with pytest.raises(NonIntegralCoefficientsError) as info:
        zeta_from_counts(PointCountSeries(3, (4, 10)), 1, 1)
    assert str(info.value) == (
        "counts admit the rational fit [1, 3/4]/[1, -13/4] "
        "but its coefficients are not integers"
    )


@pytest.mark.parametrize(
    "counts,split,known_den,outcome",
    [
        # z_2 = (N_1^2 + N_2) / 2 = 5/2: the count series itself is not integral.
        ((2, 1), (1, 1), (1,), NonIntegralCoefficientsError),
        ((2, 1), (0, 2), (1,), NonIntegralCoefficientsError),
        ((2, 1), (2, 0), (1,), NonIntegralCoefficientsError),
        ((2, 1, 5), (1, 1), (1,), NoRationalFitError),
        # A split larger than the counts need, with 1 - t known: the fit is 1/(1 - t).
        ((1, 1, 1, 1), (1, 2), (1, -1), ZetaFunction(2, (1,), (1, -1))),
    ],
)
def test_fit_of_counts_no_variety_has(counts, split, known_den, outcome):
    series = PointCountSeries(2, counts)
    if isinstance(outcome, ZetaFunction):
        assert zeta_from_counts(series, *split, known_denominator=known_den) == outcome
    else:
        with pytest.raises(outcome):
            zeta_from_counts(series, *split, known_denominator=known_den)


def test_corrupted_counts_fail_verification():
    with pytest.raises((NoRationalFitError, NonIntegralCoefficientsError)):
        zeta_from_counts(PointCountSeries(2, (7, 21, 74, 150)), 0, 3)


def test_known_denominator_contradiction():
    # An elliptic count series is incompatible with zeta = 1/((1-t)(1-qt)).
    with pytest.raises(NoRationalFitError):
        zeta_from_counts(
            PointCountSeries(5, (9, 27)),
            0,
            2,
            known_denominator=connected_denominator(5, 1),
        )


def test_oversized_split_reduces_to_the_true_degrees():
    # Requesting degree (0,3) for P^1 leaves one free denominator
    # coefficient; the reduced fit is still the true zeta.
    z = zeta_from_counts(PointCountSeries(3, (4, 10, 28)), 0, 3)
    assert z.num == (1,)
    assert z.den == (1, -4, 3)


def test_extra_counts_used_for_verification():
    counts = elliptic_counts(-3, 5, 6)
    z = zeta_from_counts(
        PointCountSeries(5, counts),
        2,
        2,
        known_denominator=connected_denominator(5, 1),
    )
    assert z.num == (1, 3, 5)
    corrupted = counts[:5] + (counts[5] + 1,)
    with pytest.raises(NoRationalFitError):
        zeta_from_counts(
            PointCountSeries(5, corrupted),
            2,
            2,
            known_denominator=connected_denominator(5, 1),
        )


# ---------------------------------------------------------------------------
# counts_from_zeta
# ---------------------------------------------------------------------------


def test_counts_from_zeta_examples():
    assert counts_from_zeta(ZetaFunction(3, (1,), (1, -4, 3)), 2).counts == (4, 10)
    assert counts_from_zeta(ZetaFunction(5, (1, 3, 5), (1, -6, 5)), 2).counts == (9, 27)
    assert counts_from_zeta(ZetaFunction(5, (1,), (1, -1)), 3).counts == (1, 1, 1)


def test_negative_count_rejected():
    with pytest.raises(NonIntegralCountError):
        counts_from_zeta(ZetaFunction(2, (1,), (1, 1)), 1)


@pytest.mark.parametrize(
    "q,num,den,split",
    [
        (3, (1,), (1, -4, 3), (0, 2)),
        (5, (1, 3, 5), (1, -6, 5), (2, 2)),
        (2, (1,), (1, -7, 14, -8), (0, 3)),
        (7, (1, 2, 7), (1, -8, 7), (2, 2)),
    ],
)
def test_round_trip(q, num, den, split):
    zeta = ZetaFunction(q, num, den)
    counts = counts_from_zeta(zeta, sum(split) + 2)
    back = zeta_from_counts(counts, *split)
    assert back == zeta
    assert_as_validated(back)


def assert_as_validated(zeta):
    """zeta, built unchecked, is what the validating constructor builds."""
    checked = ZetaFunction(zeta.q, zeta.num, zeta.den)
    assert zeta == checked
    assert all(type(c) is int for c in (*zeta.num, *zeta.den))
    assert type(zeta.num) is type(zeta.den) is tuple


def test_fit_round_trips_are_built_as_validated():
    # zeta_from_counts skips the constructor's gcd on the num/den its own gcd
    # has reduced; on fits that reduce and fits that do not, the result is
    # the validated one.
    cases = [
        (5, (1, 3, 5), (1, -6, 5), (2, 2), (1,)),
        (5, (1, 3, 5), (1, -6, 5), (4, 4), (1,)),  # oversized: the gcd reduces
        (7, (1, 2, 7), (1, -8, 7), (2, 2), connected_denominator(7, 1)),
        (2, (1,), (1, -7, 14, -8), (2, 5), (1,)),
    ]
    for q, num, den, split, known in cases:
        series = counts_from_zeta(ZetaFunction(q, num, den), sum(split) + 3)
        back = zeta_from_counts(series, *split, known_denominator=known)
        assert back == ZetaFunction(q, num, den)
        assert_as_validated(back)


# ---------------------------------------------------------------------------
# ZetaFunction type invariants
# ---------------------------------------------------------------------------


def test_zeta_function_validation():
    with pytest.raises(ValueError, match="constant term"):
        ZetaFunction(3, (0, 1), (1,))
    with pytest.raises(ValueError, match=r"share a factor: \[-1, 1\]$"):
        ZetaFunction(3, (1, -1), (1, -3, 2))  # both divisible by 1 - t
    z = ZetaFunction(3, (1, 0, 0), (1, -3))
    assert z.num == (1,)  # trailing zeros normalized away


@pytest.mark.parametrize(
    "num", [(1, Fraction(1, 2)), (1, 2.7), (1, True), (1, 3, float("nan"))], ids=repr
)
def test_non_integral_coefficients_raise(num):
    # int() alone would truncate 1/2 to 0 and 2.7 to 2.
    with pytest.raises(ValueError, match="numerator coefficients must be integers"):
        ZetaFunction(5, num, (1, -1))
    with pytest.raises(ValueError, match="numerator coefficients must be integers"):
        ZetaFunction.from_dict({"q": 5, "num": list(num), "den": [1, -1]})
    with pytest.raises(ValueError, match="factor coefficients must be integers"):
        WeilFactorization(5, 1, ((1, -1), num, (1, -5)))
    with pytest.raises(ValueError, match="factor coefficients must be integers"):
        WeilFactorization(5, 0, ((1, 0.5),))


def test_integral_fractions_and_floats_are_read_as_ints():
    z = ZetaFunction(5, (1, Fraction(6, 2), 5.0, Fraction(0), 0.0), (1.0, -6, Fraction(5)))
    assert z == ZetaFunction(5, (1, 3, 5), (1, -6, 5))
    assert z == ZetaFunction.from_dict({"q": 5, "num": [1, 3.0, 5, 0], "den": [1, -6.0, 5]})
    assert all(type(c) is int for c in (*z.num, *z.den))
    w = WeilFactorization(5, 1, ((1, -1.0), (1, Fraction(3), 5, 0.0), (1, -5)))
    assert w.factors == ((1, -1), (1, 3, 5), (1, -5))
    assert all(type(c) is int for f in w.factors for c in f)


def test_zeta_equality_is_structural():
    a = ZetaFunction(5, (1, 3, 5), (1, -6, 5))
    b = ZetaFunction(5, (1, 3, 5), (1, -6, 5))
    c = ZetaFunction(5, (1, 2, 5), (1, -6, 5))
    assert a == b
    assert a != c
    assert ZetaFunction.from_dict(a.to_dict()) == a


# ---------------------------------------------------------------------------
# factor_by_weights
# ---------------------------------------------------------------------------


def test_elliptic_factorization():
    z = ZetaFunction(5, (1, 3, 5), (1, -6, 5))
    w = factor_by_weights(z, CURVE_PROFILE)
    assert w.factors == ((1, -1), (1, 3, 5), (1, -5))
    assert w.betti == (1, 2, 1)


def test_projective_plane_factorization():
    z = ZetaFunction(2, (1,), (1, -7, 14, -8))
    w = factor_by_weights(z, CohomologyProfile(2, (1, 0, 1, 0, 1)))
    assert w.factors == ((1, -1), (1,), (1, -2), (1,), (1, -4))


def test_point_factorization():
    z = ZetaFunction(5, (1,), (1, -1))
    w = factor_by_weights(z, CohomologyProfile(0, (1,)))
    assert w.factors == ((1, -1),)


def test_weight_separation_failure_on_wrong_moduli():
    # Roots of 1 - 9t + 27t^2 have modulus 27^(-1/2): matches neither
    # weight 0 nor weight 2 for q = 5.
    z = ZetaFunction(5, (1,), (1, -9, 27))
    with pytest.raises(WeightSeparationError):
        factor_by_weights(z, CohomologyProfile(1, (1, 0, 1)))


def projective_space_zeta(q, d):
    return ZetaFunction(q, (1,), product_poly(*((1, -(q**i)) for i in range(d + 1))))


@pytest.mark.parametrize("q, d", [(10007, 5), (2**31 - 1, 3)])
def test_projective_space_splits_beyond_float_precision(q, d):
    # Coefficients beyond 2^53 once broke a float-rounding split.
    z = projective_space_zeta(q, d)
    assert max(abs(c) for c in z.den).bit_length() > 53
    w = factor_by_weights(z, CohomologyProfile(d, (1, 0) * d + (1,)))
    assert w.factors[0::2] == tuple((1, -(q**i)) for i in range(d + 1))
    assert set(w.factors[1::2]) == {(1,)}
    assert check_riemann_hypothesis(w)["ok"]


def test_non_weil_roots_are_split_and_flagged():
    # 1 - 11t + 25t^2 has real inverse roots (11 +- sqrt 21)/2, not 5-Weil
    # numbers of weight 2, yet they pair under alpha -> 25/alpha.  The split
    # assumes Deligne's theorem; the advisory check reports the violation.
    z = ZetaFunction(5, (1,), product_poly((1, -1), (1, -11, 25), (1, -25)))
    w = factor_by_weights(z, CohomologyProfile(2, (1, 0, 2, 0, 1)))
    assert w.factors == ((1, -1), (1,), (1, -11, 25), (1,), (1, -25))
    report = check_riemann_hypothesis(w)
    assert not report["ok"]
    assert report["violations"] == [2]


def test_non_reciprocal_last_factor_keeps_the_gcd_message():
    # At the last even weight the rest 1 - 2t has degree b_2 = 1 but is not
    # its own 5^2-reciprocal, so the split falls through to the gcd, which
    # finds no weight-2 root.
    z = ZetaFunction(5, (1,), product_poly((1, -1), (1, -2)))
    with pytest.raises(WeightSeparationError) as info:
        factor_by_weights(z, CohomologyProfile(1, (1, 0, 1)))
    assert str(info.value) == (
        "degree 2: expected 1 inverse roots of weight 2, found the factor (1,)"
    )


def test_weight_separation_peels_empty_degrees():
    # Inverse roots q and q^3 pair under alpha -> q^4/alpha, so they would
    # pass for the two weight-4 roots the profile asks for if degree 2, where
    # the profile expects nothing, were not peeled first.
    q = 3
    z = ZetaFunction(q, (1,), product_poly((1, -1), (1, -q), (1, -(q**3)), (1, -(q**4))))
    with pytest.raises(WeightSeparationError, match="degree 2"):
        factor_by_weights(z, CohomologyProfile(4, (1, 0, 0, 0, 2, 0, 0, 0, 1)))


def random_weil_factors(rng, d, q, terms):
    """P_0..P_{2d} from genus-1 Weil factors 1 - a t + q t^2, |a| <= 2 sqrt(q),
    with the point counts N_1..N_terms that Lefschetz's formula gives.

    Weight 2j+1 takes the factor twisted by q^j; weight 2j >= 2 takes 1 - q^j t
    or the symmetric square twisted by q^(j-1).  The power sums of the inverse
    roots come from the Lucas recursion, not from the factor coefficients.
    Weights above d are the q^(i-d) twists that the functional equation asks.
    Returns None when some N_n is negative.
    """
    bound = math.isqrt(4 * q)
    factors = [(1, -1)]
    sums = [[1] * terms]
    for i in range(1, d + 1):
        j = i // 2
        factor, power_sums = (1,), [0] * terms
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(-bound, bound)
            s = frobenius_power_sums(a, q, 2 * terms)
            if i % 2:
                part = (1, -a * q**j, q**i)
                ps = [q ** (j * n) * s[n - 1] for n in range(1, terms + 1)]
            elif rng.random() < 0.5:
                part = (1, -(q**j))
                ps = [q ** (j * n) for n in range(1, terms + 1)]
            else:
                part = (1, -(a * a - 2 * q) * q ** (j - 1), q**i)
                ps = [q ** ((j - 1) * n) * s[2 * n - 1] for n in range(1, terms + 1)]
            factor = product_poly(factor, part)
            power_sums = [x + y for x, y in zip(power_sums, ps)]
        factors.append(factor)
        sums.append(power_sums)
    for i in range(d + 1, 2 * d + 1):
        scale = q ** (i - d)
        factors.append(tuple(c * scale**m for m, c in enumerate(factors[2 * d - i])))
        sums.append([x * scale**n for n, x in enumerate(sums[2 * d - i], 1)])
    counts = tuple(sum((-1) ** i * s[n] for i, s in enumerate(sums)) for n in range(terms))
    return (tuple(factors), counts) if min(counts) >= 0 else None


# Prime powers q whose zeta coefficients pass 2^53 in dimension d.
LARGE_Q = {
    1: [(2**31 - 1) ** 2, 3**38, 10007**4],
    2: [2**31 - 1, 3**19, 10007**2],
    3: [10007, 65537],
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_weil_products_split_exactly_beyond_float_precision(d, seed):
    rng = random.Random(1000 * d + seed)
    q = rng.choice(LARGE_Q[d])
    for _ in range(3):
        while True:
            drawn = random_weil_factors(rng, d, q, 24)
            if drawn:
                break
        factors, lefschetz = drawn
        profile = CohomologyProfile(d, tuple(len(f) - 1 for f in factors))
        num, den = product_poly(*factors[1::2]), product_poly(*factors[0::2])
        assert max(abs(c) for c in num + den).bit_length() > 53
        zeta = ZetaFunction(q, num, den)
        assert factor_by_weights(zeta, profile).factors == factors
        # The fit needs sum(betti) - 2 counts; two more check it.
        terms = sum(profile.betti)
        series = counts_from_zeta(zeta, terms)
        assert series.counts == lefschetz[:terms]
        fitted = zeta_from_counts(
            series,
            profile.odd_total,
            profile.even_total,
            known_denominator=connected_denominator(q, d),
        )
        assert fitted == zeta
        assert factor_by_weights(fitted, profile).factors == factors


def test_factorization_degree_preconditions():
    z = ZetaFunction(5, (1, 3, 5), (1, -6, 5))
    with pytest.raises(WeightSeparationError, match="numerator degree"):
        factor_by_weights(z, CohomologyProfile(1, (1, 0, 1)))
    with pytest.raises(WeightSeparationError, match="denominator degree"):
        factor_by_weights(
            ZetaFunction(5, (1, 3, 5), (1, -1)), CohomologyProfile(1, (1, 2, 1))
        )


def test_profile_validation():
    with pytest.raises(ValueError, match="b_0"):
        CohomologyProfile(1, (2, 0, 2))
    with pytest.raises(ValueError, match="b_i"):
        CohomologyProfile(1, (1, 0, 2))
    with pytest.raises(ValueError, match="expected 3"):
        CohomologyProfile(1, (1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        CohomologyProfile(1, (1, -2, 1))


@pytest.mark.parametrize(
    "d, betti",
    [
        (1, (1, 2.5, 1)),
        (1, (1, True, 1)),
        (True, (1, 1, 1)),
        (True, (1, True, 1)),
        (1.0, (1, 2, 1)),
        ("1", (1, 2, 1)),
        (1, "121"),
        (1, (1, None, 1)),
        (1, (1, float("nan"), 1)),
        (1, (1, float("inf"), 1)),
    ],
)
def test_profile_constructor_rejects_non_integers(d, betti):
    with pytest.raises(ValueError, match="must be"):
        CohomologyProfile(d, betti)


def test_profile_constructor_reads_integral_floats():
    assert CohomologyProfile(1, (1.0, 2.0, 1)).betti == (1, 2, 1)
    assert CohomologyProfile(1, [1, 2, 1]) == CohomologyProfile(1, (1, 2, 1))
    assert CohomologyProfile.from_dict({"d": 1, "betti": [1, 2.0, 1]}).betti == (1, 2, 1)


# ---------------------------------------------------------------------------
# traces and exact checks
# ---------------------------------------------------------------------------


def test_traces_from_factorization_examples():
    w = WeilFactorization(5, 1, ((1, -1), (1, 3, 5), (1, -5)))
    tv = traces_from_factorization(w, 4)
    assert tv.traces[0] == (1, 1, 1, 1)
    assert tv.traces[2] == (5, 25, 125, 625)
    assert tv.traces[1] == tuple(frobenius_power_sums(-3, 5, 4))
    assert tv.trace(1, 1) == -3


def newton_power_sums(f, depth):
    """Oracle: the power sums of the inverse roots of f, by Newton's
    identities in Fraction arithmetic, from the elementary symmetric
    functions e_j = (-1)^j f[j]."""
    b = len(f) - 1
    e = [Fraction(0)] * (b + 1)
    for j in range(1, b + 1):
        e[j] = Fraction((-1) ** j * f[j])
    ps = []
    for n in range(1, depth + 1):
        acc = Fraction(0)
        for j in range(1, min(n - 1, b) + 1):
            acc += (-1) ** (j - 1) * e[j] * ps[n - 1 - j]
        if n <= b:
            acc += (-1) ** (n - 1) * n * e[n]
        ps.append(acc)
    return tuple(ps)


def synthetic_weil_factors(rng, d, q):
    """P_0..P_{2d}: up to two genus-1 factors 1 - a q^j t + q^i t^2 in odd
    weight i = 2j + 1, up to two of 1 +- q^j t in even weight i = 2j, and
    none in one randomly chosen degree 1..d, so that some b_i is 0.  Weights
    above d are the q^(i-d) twists that the functional equation asks."""
    bound = math.isqrt(4 * q)
    empty = rng.randint(1, d)
    factors = [(1, -1)]
    for i in range(1, d + 1):
        j, factor = i // 2, (1,)
        for _ in range(0 if i == empty else rng.randint(1, 2)):
            if i % 2:
                part = (1, -rng.randint(-bound, bound) * q**j, q**i)
            else:
                part = (1, rng.choice((-1, 1)) * q**j)
            factor = product_poly(factor, part)
        factors.append(factor)
    for i in range(d + 1, 2 * d + 1):
        scale = q ** (i - d)
        factors.append(tuple(c * scale**m for m, c in enumerate(factors[2 * d - i])))
    return tuple(factors)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_traces_match_newtons_identities(d, seed):
    rng = random.Random(100 * d + seed)
    for _ in range(3):
        q = rng.choice((2, 3, 4, 5, 7, 9, 11, 25))
        factors = synthetic_weil_factors(rng, d, q)
        profile = CohomologyProfile(d, tuple(len(f) - 1 for f in factors))
        assert 0 in profile.betti
        zeta = ZetaFunction(q, product_poly(*factors[1::2]), product_poly(*factors[0::2]))
        w = factor_by_weights(zeta, profile)
        assert w.factors == factors
        assert all(type(c) is int for f in w.factors for c in f)
        depth = max(profile.betti) + 3
        tv = traces_from_factorization(w, depth)
        assert tv.traces == tuple(newton_power_sums(f, depth) for f in factors)
        assert all(type(x) is int for row in tv.traces for x in row)


def test_lefschetz_alternating_sum_reproduces_counts():
    for q, num, den, profile in [
        (5, (1, 3, 5), (1, -6, 5), CURVE_PROFILE),
        (2, (1,), (1, -7, 14, -8), CohomologyProfile(2, (1, 0, 1, 0, 1))),
    ]:
        zeta = ZetaFunction(q, num, den)
        w = factor_by_weights(zeta, profile)
        tv = traces_from_factorization(w, 4)
        counts = counts_from_zeta(zeta, 4).counts
        for n in range(1, 5):
            alt = sum((-1) ** i * tv.trace(i, n) for i in range(2 * profile.d + 1))
            assert alt == counts[n - 1]


def test_functional_equation_passes_on_fixtures():
    for q, num, den, profile in [
        (5, (1, 3, 5), (1, -6, 5), CURVE_PROFILE),
        (3, (1,), (1, -4, 3), CohomologyProfile(1, (1, 0, 1))),
        (2, (1,), (1, -7, 14, -8), CohomologyProfile(2, (1, 0, 1, 0, 1))),
    ]:
        w = factor_by_weights(ZetaFunction(q, num, den), profile)
        assert check_functional_equation(w)["ok"]


def test_functional_equation_violation_lists_degree():
    # P_4 should be 1 - q^2 t = 1 - 4t; a corrupted 1 - 3t must be flagged.
    bad = WeilFactorization(2, 2, ((1, -1), (1,), (1, -2), (1,), (1, -3)))
    with pytest.raises(DualityViolationError) as exc:
        check_functional_equation(bad)
    assert exc.value.degrees == (0,)


def test_riemann_hypothesis_check():
    good = WeilFactorization(5, 1, ((1, -1), (1, 3, 5), (1, -5)))
    assert check_riemann_hypothesis(good)["ok"]
    # roots 1 and 1/5 of 1 - 6t + 5t^2 have the wrong modulus for weight 1
    bad = WeilFactorization(5, 1, ((1, -1), (1, -6, 5), (1, -5)))
    report = check_riemann_hypothesis(bad)
    assert not report["ok"]
    assert report["violations"] == [1]


def curve_power_factors(a, q, n):
    """P_0..P_{2n} of E^n for an elliptic curve E over F_q with trace a.

    By Kunneth, an inverse root of degree i is alpha^x conj(alpha)^y with
    x + y = i, one for each choice of H^0 (x = y = 0), H^1 (alpha or its
    conjugate) or H^2 (alpha conj(alpha) = q) of every factor.  A root with
    x = y is q^x; the pair (x, y), (y, x) gives 1 - q^x s_(y-x) t + q^i t^2,
    with s_k = alpha^k + conj(alpha)^k from the Lucas recursion.
    """
    mult = {(0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (x, y), m in mult.items():
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                key = (x + dx, y + dy)
                nxt[key] = nxt.get(key, 0) + m
        mult = nxt
    s = [2] + frobenius_power_sums(a, q, n)
    factors = []
    for i in range(2 * n + 1):
        parts = []
        for (x, y), m in sorted(mult.items()):
            if x + y != i or x > y:
                continue
            part = (1, -(q**x)) if x == y else (1, -(q**x) * s[y - x], q**i)
            parts += [part] * m
        factors.append(product_poly(*parts))
    return tuple(factors)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "q, a",
    [(13, 5), (13, 0), (31, -11), (49, 14), (49, 0), (61, 15), (61, -3)],
    ids=lambda v: str(v),
)
def test_curve_powers_pass_without_float_roots(q, a, n):
    # Supersingular (a = 0) and boundary (a^2 = 4q) curves included; P_3 of
    # E^3 has degree 20 and coefficients far beyond 2^53.
    w = WeilFactorization(q, n, curve_power_factors(a, q, n))
    assert w.betti == tuple(math.comb(2 * n, i) for i in range(2 * n + 1))
    if n == 3:
        assert max(abs(c) for c in w.factors[3]).bit_length() > 53
    assert all(_is_weil(f, q**i) for i, f in enumerate(w.factors))
    assert check_riemann_hypothesis(w) == {"ok": True, "violations": []}


def _threefold_zeta():
    """(profile, factors, zeta) of E^3 over F_13 with a_13 = 3, b_3 = 20.

    P_k is exp(-sum p_n t^n / n) of the Kunneth power sums p_n(H^k) = sum
    over k_1 + k_2 + k_3 = k of prod_j p_n(H^(k_j) E), with p_n(H^0 E) = 1,
    p_n(H^1 E) = s_n and p_n(H^2 E) = q^n.
    """
    q, a = 13, 3
    profile = CohomologyProfile(3, (1, 6, 15, 20, 15, 6, 1))
    s = [2] + frobenius_power_sums(a, q, 20)
    factors = []
    for k, b in enumerate(profile.betti):
        sums = [
            sum(
                math.prod((1, s[n], q**n)[j] for j in ks)
                for ks in itertools.product(range(3), repeat=3)
                if sum(ks) == k
            )
            for n in range(1, b + 1)
        ]
        factors.append(tuple(_series_from_counts([-p for p in sums])))
    factors = tuple(factors)
    assert factors == curve_power_factors(a, q, 3)
    zeta = ZetaFunction(q, product_poly(*factors[1::2]), product_poly(*factors[0::2]))
    return profile, factors, zeta


def test_threefold_split_at_full_size():
    # E^3 over F_13: coefficients of 179 bits.
    profile, factors, zeta = _threefold_zeta()
    assert max(abs(c) for c in (*zeta.num, *zeta.den)).bit_length() == 179
    w = factor_by_weights(zeta, profile)
    assert w.factors == factors
    assert check_functional_equation(w)["ok"]
    assert check_riemann_hypothesis(w) == {"ok": True, "violations": []}


def test_threefold_fit_at_full_size():
    # E^3 over F_13 from 62 counts: a 30 x 30 solve whose Bareiss pivots
    # and back-substituted numerators run to hundreds of digits.
    profile, _, zeta = _threefold_zeta()
    fitted = zeta_from_counts(
        counts_from_zeta(zeta, 62),
        profile.odd_total,
        profile.even_total,
        known_denominator=connected_denominator(13, 3),
    )
    assert fitted == zeta
    assert_as_validated(fitted)


def test_weight_split_divides_only_inside_the_gcd(monkeypatch):
    # The gcd's certificate divides F by g exactly and hands back the
    # cofactor, so the split peels every weight with no division of its own.
    profile, factors, zeta = _threefold_zeta()
    gcd, quotient = polys.gcd, polys.quotient
    depth, in_gcd = [0], []

    def counting_gcd(a, b):
        depth[0] += 1
        try:
            return gcd(a, b)
        finally:
            depth[0] -= 1

    def spying_quotient(a, b):
        in_gcd.append(depth[0] > 0)
        return quotient(a, b)

    monkeypatch.setattr(polys, "gcd", counting_gcd)
    monkeypatch.setattr(polys, "quotient", spying_quotient)
    assert factor_by_weights(zeta, profile).factors == factors
    assert in_gcd and all(in_gcd)


# Bases of Q = q^i, square and not; Q = (2^31 - 1)^3 puts every coefficient
# of a quadratic factor past 2^53.
WEIL_BASES = (2, 3, 4, 5, 9, 31, 49, 61, 61**3, 65521, 2**31 - 1)


def weil_factor(Q):
    """1 - a t + Q t^2 with a^2 <= 4Q, 1 - Q t^2, or 1 -+ r t when Q = r^2."""
    r, bound = math.isqrt(Q), math.isqrt(4 * Q)
    options = [st.integers(-bound, bound).map(lambda a: (1, -a, Q)), st.just((1, 0, -Q))]
    if r * r == Q:
        options.append(st.sampled_from([(1, -r), (1, r)]))
    return st.one_of(options)


def off_circle_factor(Q):
    """A factor with an inverse root off |alpha|^2 = Q.

    1 - c t with c^2 != Q, the near misses c = +-(r +- 1) next to a real
    root r = isqrt(Q) among them; 1 -+ a t + Q t^2 with a^2 > 4Q, whose real roots
    pair as alpha, Q/alpha; or 1 - a t + c t^2 with |c| != Q, whose roots
    cannot both have modulus sqrt(Q).
    """
    bound = math.isqrt(4 * Q)
    r = math.isqrt(Q)
    linear = st.one_of(
        st.integers(-2 * bound, 2 * bound),
        st.sampled_from([r - 1, r + 1, -r - 1, 1 - r]),
    ).filter(lambda c: c and c * c != Q)
    real_pair = st.integers(bound + 1, 4 * bound).flatmap(
        lambda a: st.sampled_from([(1, -a, Q), (1, a, Q)])
    )
    unpaired = st.tuples(
        st.integers(-bound, bound),
        st.integers(-2 * Q, 2 * Q).filter(lambda c: abs(c) not in (0, Q)),
    )
    return st.one_of(
        linear.map(lambda c: (1, -c)),
        real_pair,
        unpaired.map(lambda ac: (1, -ac[0], ac[1])),
    )


@st.composite
def weil_products(draw):
    Q = draw(st.sampled_from(WEIL_BASES)) ** draw(st.integers(1, 3))
    r = math.isqrt(Q)
    # Real factors, repeated: (1 - r t)^j (1 + r t)^k if Q = r^2, else
    # (1 - Q t^2)^k, each divided out once per repeat.
    real = [(1, -r), (1, r)] if r * r == Q else [(1, 0, -Q)]
    f = (1,)
    for factor, repeats in [
        *((factor, draw(st.integers(0, 5))) for factor in real),
        *draw(st.lists(st.tuples(weil_factor(Q), st.integers(1, 3)), min_size=1, max_size=4)),
    ]:
        for _ in range(repeats):
            f = polys.mul(f, factor)
    return Q, f


@given(weil_products(), st.data())
def test_weil_certificate_matches_construction(case, data):
    # The construction is the oracle: a product of Weil factors passes, and
    # one more factor with a root off the circle makes it fail.
    Q, f = case
    assert _is_weil(f, Q)
    assert not _is_weil(polys.mul(f, data.draw(off_circle_factor(Q))), Q)


def _without_real_roots(f, Q):
    """f with every real factor 1 -+ r t (Q = r^2) or 1 - Q t^2 divided out, by long division."""
    r = math.isqrt(Q)
    for factor in [(1, -r), (1, r)] if r * r == Q else [(1, 0, -Q)]:
        while (rest := polys.quotient(f, factor)) is not None:
            f = rest
    return f


def test_closed_form_certificate_matches_sturm():
    # _is_weil decides a rest of degree 2m <= 4 in closed form; the oracle
    # divides the real factors out by long division and decides every m by
    # the Sturm count.  Quadratics, quartics palindromic or with the
    # odd coefficients of opposite sign (1 - Q t^2 times a quadratic among
    # them), and products of two quadratics, double roots, +-sqrt(Q) and
    # a^2 = 4Q included; then Q = (2^31 - 1)^3, past 2^53.
    seen = set()

    def check(f, Q):
        f = polys.to_ints(f)
        rest = _without_real_roots(f, Q)
        m, odd = divmod(len(rest) - 1, 2)
        palindromic = not odd and all(rest[m + j] == Q**j * rest[m - j] for j in range(m + 1))
        expected = palindromic and _sturm_certificate(rest, Q)
        assert _is_weil(f, Q) == expected, (Q, f)
        if palindromic:
            seen.add((m, expected))

    for Q in (1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        bound, c_bound = math.isqrt(4 * Q) + 2, 3 * Q + 3
        for a in range(-bound, bound + 1):
            for s in (1, -1):
                check((1, a, s * Q), Q)
                for c in range(-c_bound, c_bound + 1):
                    check((1, a, c, s * Q * a, Q * Q), Q)
            for a2 in range(-bound, bound + 1):
                check(polys.mul((1, a, Q), (1, a2, Q)), Q)

    Q = (2**31 - 1) ** 3
    a = math.isqrt(4 * Q)
    for f in [(1, a, Q), (1, a + 1, Q), polys.mul((1, a, Q), (1, 1 - a, Q)), (1, a, 3 * Q, Q * a, Q * Q)]:
        assert max(map(abs, f)).bit_length() > 53
        check(f, Q)
    assert seen == {(0, True), (1, True), (1, False), (2, True), (2, False)}


def test_product_variety_end_to_end():
    # E x P^1 over F_5 where E has trace -3: counts multiply, the zeta factors
    # are the degreewise tensor combinations, and duality holds exactly.
    q = 5
    counts = tuple(
        en * (q**n + 1) for n, en in enumerate(elliptic_counts(-3, q, 6), 1)
    )
    profile = CohomologyProfile(2, (1, 2, 2, 2, 1))
    series = PointCountSeries(q, counts)
    z = zeta_from_counts(
        series,
        profile.odd_total,
        profile.even_total,
        known_denominator=connected_denominator(q, 2),
    )
    expected_num = product_poly((1, 3, 5), (1, 15, 125))
    expected_den = product_poly((1, -1), (1, -5), (1, -5), (1, -25))
    assert z.num == expected_num
    assert z.den == expected_den
    w = factor_by_weights(z, profile)
    assert w.factors[1] == (1, 3, 5)
    assert w.factors[2] == (1, -10, 25)
    assert w.factors[3] == (1, 15, 125)
    assert check_functional_equation(w)["ok"]
    assert check_riemann_hypothesis(w)["ok"]
    assert counts_from_zeta(z, 6).counts == counts
