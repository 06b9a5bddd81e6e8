import math
from collections import defaultdict

import pytest

from fqzeta import pairsearch
from fqzeta.errors import BudgetExceededError
from fqzeta.fields import is_prime, make_extension
from fqzeta.pairsearch import (
    CurveModel,
    _class_counts,
    _class_representatives,
    _sweep_primes,
    curve_zeta,
    find_pairs,
    weierstrass_spec,
)
from fqzeta.varieties import DEFAULT_BUDGET, count_points, count_series
from fqzeta.zeta import ZetaFunction, counts_from_zeta


def naive_affine_count(p, a, b):
    """Oracle: direct (x, y) sweep, no character sums."""
    return 1 + sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y - (x**3 + a * x + b)) % p == 0
    )


def orbit(p, a, b):
    return {(a * pow(u, 4, p) % p, b * pow(u, 6, p) % p) for u in range(1, p)}


def orbit_walk_representatives(p):
    """Oracle: walk the p^2 models in lex order, which meets every orbit
    first at its smallest member, and mark each orbit seen."""
    multipliers = {(pow(u, 4, p), pow(u, 6, p)) for u in range(1, p)}
    reps, seen = [], set()
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0 or (a, b) in seen:
                continue
            reps.append((a, b))
            seen.update((a * u4 % p, b * u6 % p) for u4, u6 in multipliers)
    return reps


def orbit_walk_counts(p):
    """Oracle: N_1 at each orbit-walk representative, reducing x^3 + ax + b
    mod p at every point."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p):
        chi[x * x % p] = 1
    return {
        (a, b): p + 1 + sum(chi[(x * x * x + a * x + b) % p] for x in range(p))
        for a, b in orbit_walk_representatives(p)
    }


def test_closed_form_classes_match_the_orbit_walk():
    for p in range(5, 200):
        if is_prime(p):
            assert _class_representatives(p) == orbit_walk_representatives(p), p
            # Equal as ordered lists: the buckets, and so the witness pairs,
            # depend on the order of the classes.
            assert list(_class_counts(p).items()) == list(orbit_walk_counts(p).items()), p


def test_p5_pairs_frozen():
    # Hand-verified: over F_5 exactly the trace buckets a_p = 2, 0, -2 hold
    # two distinct twisting classes each.
    pairs = find_pairs(5, 5)
    got = [
        ((r.curve_a.a, r.curve_a.b), (r.curve_b.a, r.curve_b.b), r.counts)
        for r in pairs
    ]
    assert got == [
        ((1, 0), (1, 2), (4, 32)),
        ((0, 1), (0, 2), (6, 36)),
        ((4, 0), (4, 1), (8, 32)),
    ]


def euler_affine_count(p, a, b):
    """Oracle for larger p: 1 + (number of y) summed by Euler's criterion."""
    count = 1
    for x in range(p):
        s = (x**3 + a * x + b) % p
        count += 1 if s == 0 else (2 if pow(s, (p - 1) // 2, p) == 1 else 0)
    return count


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23, 31, 47])
def test_pairs_against_naive_oracle(p):
    # Oracle: sweep all nonsingular (a, b), count N_1 without character
    # tables, bucket by N_1 (which pins the genus-1 zeta), and reduce mod
    # twisting classes.  The p^4 brute force is too slow past p = 23.
    affine_count = naive_affine_count if p <= 23 else euler_affine_count
    buckets = defaultdict(set)
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            buckets[affine_count(p, a, b)].add(min(orbit(p, a, b)))
    expected_witnesses = {
        (n1, tuple(sorted(classes)[:2]))
        for n1, classes in buckets.items()
        if len(classes) >= 2
    }
    got = {
        (r.counts[0], ((r.curve_a.a, r.curve_a.b), (r.curve_b.a, r.curve_b.b)))
        for r in find_pairs(p, p)
    }
    assert got == expected_witnesses


def test_euler_oracle_matches_brute_force():
    for p, a, b in ((5, 1, 2), (7, 3, 4), (11, 0, 1), (13, 2, 0)):
        assert euler_affine_count(p, a, b) == naive_affine_count(p, a, b)


def test_emitted_pairs_are_non_isomorphic():
    for r in find_pairs(5, 13):
        ca = (r.curve_a.a, r.curve_a.b)
        cb = (r.curve_b.a, r.curve_b.b)
        assert cb not in orbit(r.p, *ca)


def test_counts_and_zeta_consistent():
    for r in find_pairs(5, 11):
        n1, n2 = r.counts
        assert counts_from_zeta(r.zeta, 2).counts == (n1, n2)
        assert r.zeta == curve_zeta(r.p, r.p + 1 - n1)


def test_curve_zeta_is_built_as_validated():
    # curve_zeta skips the constructor's gcd when N_1 = p + 1 - a_p != 0; on
    # every trace within the Hasse bound for p <= 47 it builds what the
    # validating constructor builds, and a_p = p + 1 still raises.
    for p in filter(is_prime, range(2, 48)):
        for trace in range(-math.isqrt(4 * p), math.isqrt(4 * p) + 1):
            got = curve_zeta(p, trace)
            assert got == ZetaFunction(p, (1, -trace, p), (1, -(p + 1), p))
            assert all(type(c) is int for c in (*got.num, *got.den))
        with pytest.raises(ValueError, match="share a factor"):
            curve_zeta(p, p + 1)


def test_isogeny_invariance_by_brute_force():
    # Both curves of an emitted pair have identical count series, verified by
    # independent exhaustive enumeration through n = 3.
    r = find_pairs(5, 5)[0]
    spec_a = weierstrass_spec(r.p, r.curve_a.a, r.curve_a.b)
    spec_b = weierstrass_spec(r.p, r.curve_b.a, r.curve_b.b)
    sa = count_series(spec_a, 3)
    sb = count_series(spec_b, 3)
    assert sa.counts == sb.counts
    assert sa.counts[:2] == r.counts


def test_weierstrass_spec_matches_naive_count():
    for p, a, b in ((5, 1, 2), (7, 3, 4), (11, 0, 1)):
        spec = weierstrass_spec(p, a, b)
        assert count_points(spec, 1) == naive_affine_count(p, a, b)


# (gcd(4, p - 1), gcd(6, p - 1)) takes all four of its values here: (4, 2)
# at 5 and 17, (2, 6) at 7 and 19, (2, 2) at 11 alone, (4, 6) at 13.
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_class_representative_is_orbit_minimum(p):
    nonsingular = {
        (a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p
    }
    reps = _class_representatives(p)
    assert reps == sorted({min(orbit(p, a, b)) for a, b in nonsingular})
    # The budget reckons at most 2p + 6 classes per prime.
    assert len(reps) <= 2 * p + 6


@pytest.mark.parametrize("p", [5, 7, 13, 29, 47])
def test_every_model_has_its_class_n1(p):
    # The models of a twist class are F_p-isomorphic, so the class's one N_1
    # stands for all of them.
    n1 = _class_counts(p)
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p:
                assert euler_affine_count(p, a, b) == n1[min(orbit(p, a, b))]


@pytest.mark.parametrize("p", [5, 7, 13, 29, 47])
def test_class_n2_matches_the_trace_recursion(p):
    # The genus-1 oracle: N_2 summed over F_{p^2} equals the N_2 that the
    # search derives from N_1 by a_p = p + 1 - N_1, N_2 = p^2 + 1 - (a_p^2 - 2p).
    tables = _count_tables(p)
    n2 = {}
    for (a, b), n1 in _class_counts(p).items():
        trace = p + 1 - n1
        n2[a, b] = f_p2_count(p, a, b, tables)
        assert n2[a, b] == p * p + 1 - (trace * trace - 2 * p)
    for r in find_pairs(p, p):
        for curve in (r.curve_a, r.curve_b):
            assert r.counts[1] == n2[curve.a, curve.b]


def test_budget_is_checked_before_any_table(monkeypatch):
    monkeypatch.setattr(pairsearch, "_class_representatives", None)  # never reached
    with pytest.raises(BudgetExceededError) as exc:
        find_pairs(2147483629, 2147483647)
    assert exc.value.required > exc.value.budget


def test_default_budget_admits_the_benchmark_range():
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert _sweep_primes(-3, 47, DEFAULT_BUDGET) == primes


def test_default_budget_boundary():
    # (3p + 6) p per prime: 5..859 tally 98,706,519, and 863 adds 2,239,485.
    assert _sweep_primes(5, 859, DEFAULT_BUDGET)[-1] == 859
    with pytest.raises(BudgetExceededError) as exc:
        _sweep_primes(5, 863, DEFAULT_BUDGET)
    assert exc.value.required == 100946004


def test_results_sorted_and_deterministic():
    first = find_pairs(5, 13)
    second = find_pairs(5, 13)
    assert first == second
    keys = [(r.p, r.counts) for r in first]
    assert keys == sorted(keys)


def test_empty_range():
    assert find_pairs(20, 10) == []
    assert find_pairs(24, 28) == []  # no primes in range


def test_curve_model_serialization():
    r = find_pairs(5, 5)[0]
    d = r.to_dict()
    assert d["p"] == 5
    assert d["curve_a"] == {"a": 1, "b": 0}
    assert d["counts"] == [4, 32]
    assert d["zeta"]["num"] == [1, -2, 5]
    assert CurveModel(**d["curve_b"]) == r.curve_b


def _count_tables(p):
    """Quadratic characters of F_p and F_{p^2}, and cubes in F_{p^2}, as flat
    lists on field scalars (c_0 p + c_1 for c_0 + c_1 T): chi1[s], chi2[t],
    and t^3 at cubes[t]."""
    chi1 = [-1] * p
    chi1[0] = 0
    for x in range(1, p):
        chi1[x * x % p] = 1

    field = make_extension(p, 2)
    chi2 = [-1] * (p * p)
    cubes = [0] * (p * p)
    for x1 in range(p):
        # Row x = x0 + x1 T, T the generator: two products at x0 = 0, then
        # (x + 1)^3 = x^3 + 3x^2 + 3x + 1 and (x + 1)^2 = x^2 + 2x + 1.
        s = field._mul(x1, x1)  # x1 is the scalar x1 T
        c0, c1 = divmod(field._mul(s, x1), p)
        s0, s1 = divmod(s, p)
        for x0 in range(p):
            chi2[s0 * p + s1] = 1
            cubes[x0 * p + x1] = c0 * p + c1
            c0 = (c0 + 3 * (s0 + x0) + 1) % p
            c1 = (c1 + 3 * (s1 + x1)) % p
            s0 = (s0 + 2 * x0 + 1) % p
            s1 = (s1 + 2 * x1) % p
    chi2[0] = 0  # the square of zero
    return chi1, chi2, cubes


def f_p2_count(p, a, b, tables):
    """N_2 of y^2 = x^3 + ax + b: p^2 + 1 + the sum of chi2(x^3 + ax + b)
    over x in F_{p^2}, read off ``_count_tables(p)``."""
    _, chi2, cubes = tables
    count = p * p + 1
    for i, c in enumerate(cubes):
        x0, x1 = divmod(i, p)
        c0, c1 = divmod(c, p)
        count += chi2[(c0 + a * x0 + b) % p * p + (c1 + a * x1) % p]
    return count


def _count_tables_reference(p):
    """Oracle: elements from the field's own enumeration, squares and cubes
    by scalar multiplication, nothing shared between them."""
    chi1 = [0] * p
    squares = {x * x % p for x in range(1, p)}
    for s in range(1, p):
        chi1[s] = 1 if s in squares else -1
    field = make_extension(p, 2)
    elems = range(field.order)
    sq2 = {field._mul(t, t) for t in elems if t}
    chi2 = [0 if not t else (1 if t in sq2 else -1) for t in elems]
    cubes = [field._mul(field._mul(t, t), t) for t in elems]
    return chi1, chi2, cubes


@pytest.mark.parametrize("p", [5, 7, 13, 29, 47])
def test_count_tables_match_reference(p):
    assert _count_tables(p) == _count_tables_reference(p)
