import re
from collections import defaultdict

import pytest

from fqzeta import pairsearch
from fqzeta.errors import BudgetExceededError
from fqzeta.fields import make_extension
from fqzeta.pairsearch import (
    CurveModel,
    _class_representatives,
    _count_tables,
    _rotated,
    _sweep_primes,
    curve_zeta,
    find_pairs,
    weierstrass_spec,
)
from fqzeta.varieties import DEFAULT_BUDGET, count_points, count_series
from fqzeta.zeta import counts_from_zeta


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


@pytest.mark.parametrize("p", [5, 7, 13])
def test_class_representative_is_orbit_minimum(p):
    nonsingular = {
        (a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p
    }
    reps = _class_representatives(p)
    assert set(reps) == nonsingular
    for (a, b), rep in reps.items():
        assert rep == min(orbit(p, a, b))


def test_each_class_sums_n2_once(monkeypatch):
    # Only class representatives reach the F_{p^2} sum; counted through the
    # rotations of the p^2-entry chi2 table, which that sum alone takes.
    # Adding b to c_0 rotates chi2 by b p, so the shifts name the b summed.
    p = 13
    shifts = []

    def rotated(table, shift):
        if len(table) == p * p:
            shifts.append(shift)
        return _rotated(table, shift)

    monkeypatch.setattr(pairsearch, "_rotated", rotated)
    find_pairs(p, p)
    classes = set(_class_representatives(p).values())
    assert sorted(shifts) == sorted(b * p for _, b in classes)
    assert len(shifts) <= 2 * p + 6


def test_corrupted_n2_table_fails_the_recursion_check(monkeypatch):
    def corrupted(p):
        chi1, chi2, cubes = _count_tables(p)
        one = make_extension(p, 2).index_of((1, 0))
        chi2 = list(chi2)
        chi2[one] = -chi2[one]  # 1 is a square in F_{p^2}
        return chi1, chi2, cubes

    monkeypatch.setattr(pairsearch, "_count_tables", corrupted)
    with pytest.raises(AssertionError, match="count inconsistency"):
        find_pairs(5, 5)


def test_wrong_class_map_fails_the_per_model_check(monkeypatch):
    # A model that is no representative, sent to an earlier class whose
    # N_2 differs: only the check on that model itself can notice.
    p = 7
    reps = _class_representatives(p)

    def n2(m):
        trace = p + 1 - naive_affine_count(p, *m)
        return p * p + 1 - (trace * trace - 2 * p)

    model = max(m for m, r in reps.items() if m != r)
    wrong = min(r for r in reps.values() if n2(r) != n2(model))
    assert wrong < model
    monkeypatch.setattr(
        pairsearch, "_class_representatives", lambda q: {**reps, model: wrong}
    )
    message = f"y^2=x^3+{model[0]}x+{model[1]} over F_{p}"
    with pytest.raises(AssertionError, match=re.escape(message)):
        find_pairs(p, p)


def test_budget_is_checked_before_any_table(monkeypatch):
    monkeypatch.setattr(pairsearch, "_count_tables", None)  # never reached
    with pytest.raises(BudgetExceededError) as exc:
        find_pairs(2147483629, 2147483647)
    assert exc.value.required > exc.value.budget


def test_default_budget_admits_the_benchmark_range():
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert _sweep_primes(-3, 47, DEFAULT_BUDGET) == primes


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


def _count_tables_reference(p):
    """Oracle: elements from the field's own enumeration, squares and cubes
    by scalar multiplication, nothing shared between them."""
    chi1 = [0] * p
    squares = {x * x % p for x in range(1, p)}
    for s in range(1, p):
        chi1[s] = 1 if s in squares else -1
    field = make_extension(p, 2)
    elems = list(field._tuples())
    sq2 = {field._mul(t, t) for t in elems if any(t)}
    chi2 = [0 if not any(t) else (1 if t in sq2 else -1) for t in elems]
    cubes = [field.index_of(field._mul(field._mul(t, t), t)) for t in elems]
    return chi1, chi2, cubes


@pytest.mark.parametrize("p", [5, 7, 13, 29, 47])
def test_count_tables_match_reference(p):
    assert _count_tables(p) == _count_tables_reference(p)
