"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from fqzeta import cli, polys
from fqzeta.fields import make_extension
from fqzeta.pairsearch import find_pairs, weierstrass_spec
from fqzeta.tracesolver import (
    build_constraint_system,
    instantiate_at_q,
    solve_forced,
    solve_forced_numeric,
    verify_traces_against_system,
)
from fqzeta.varieties import PointCountSeries, count_points, count_series, domain_size, load_spec
from fqzeta.zeta import (
    CohomologyProfile,
    check_functional_equation,
    check_riemann_hypothesis,
    connected_denominator,
    counts_from_zeta,
    factor_by_weights,
    traces_from_factorization,
    zeta_from_counts,
)


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


# ---------------------------------------------------------------------------
# 1. The d=3 deduction is mechanized
# ---------------------------------------------------------------------------


def test_acceptance_1_dimension_three_mechanized(capsys):
    def body():
        start = time.monotonic()
        code = cli.main(["solve", "-d", "3", "--albanese", "--format", "json"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["forced"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["residual_relations"] == []
        assert elapsed < 1.0, f"solve took {elapsed:.3f}s"

        code2 = cli.main(["solve", "-d", "3", "--no-albanese", "--format", "json"])
        out2 = capsys.readouterr().out
        assert code2 == 1
        payload2 = json.loads(out2)

        # Independent hand elimination of the 7-row system, frozen here:
        #   TRIVIAL: D_0 = D_6 = 0.
        #   EVEN + (D_4 = q D_2):  (2/q) D_2 = 0, so D_2 = D_4 = 0.
        #   ODD  + (D_5 = q^2 D_1): (2/q) D_1 + (1/q^2) D_3 = 0,
        #   i.e. the single odd relation 2q D_1 + D_3 = 0 with D_1 free.
        assert payload2["forced"] == [0, 2, 4, 6]
        coeff_maps = [rel["coeffs"] for rel in payload2["residual_relations"]]
        assert {"D_1": "2*q/1", "D_3": "1/1"} in coeff_maps

        # Numeric cross-check of both flag settings at sample prime powers.
        for alb, expected in ((True, list(range(7))), (False, [0, 2, 4, 6])):
            sys_ = build_constraint_system(3, include_albanese=alb)
            for q0 in (2, 3, 5):
                got = solve_forced_numeric(instantiate_at_q(sys_, q0)).forced
                assert list(got) == expected

    _report(
        1,
        "d=3 forced set is {0..6} with the Albanese row and {0,2,4,6} with the "
        "residual 2q*D_1 + D_3 = 0 without it, in under 1s",
        body,
    )


# ---------------------------------------------------------------------------
# 2. Dimension sweep, symbolic vs numeric
# ---------------------------------------------------------------------------


def test_acceptance_2_dimension_sweep():
    def body():
        for d in range(1, 7):
            for alb, hl, triv in itertools.product([False, True], repeat=3):
                system = build_constraint_system(
                    d,
                    include_albanese=alb,
                    include_hard_lefschetz=hl,
                    include_trivial=triv,
                )
                symbolic = solve_forced(system).forced
                for q0 in (2, 3, 5):
                    numeric = solve_forced_numeric(instantiate_at_q(system, q0)).forced
                    assert numeric == symbolic, (d, alb, hl, triv, q0)

        assert solve_forced(
            build_constraint_system(2, include_albanese=False)
        ).forced == (0, 1, 2, 3, 4)

        report4 = solve_forced(build_constraint_system(4, include_albanese=True))
        assert report4.forced == (0, 1, 3, 5, 7, 8)
        unforced_support = set()
        for rel in report4.residual:
            unforced_support.update(i for i, _ in rel.coeffs)
        assert unforced_support == {2, 4, 6}

    _report(
        2,
        "forced sets agree between symbolic and numeric elimination for d=1..6 "
        "under all flag combinations at q0 in {2,3,5}; d=2 needs no Albanese "
        "row and d=4 keeps a {2,4,6} residual",
        body,
    )


# ---------------------------------------------------------------------------
# 3. Exact zeta arithmetic on projective spaces
# ---------------------------------------------------------------------------


def test_acceptance_3_projective_space_zetas():
    def body():
        start = time.monotonic()
        for q in (2, 3, 4, 5, 7, 8, 9):
            for m in (1, 2, 3):
                counts = tuple(
                    (q ** (n * (m + 1)) - 1) // (q**n - 1) for n in range(1, m + 2)
                )
                zeta = zeta_from_counts(PointCountSeries(q, counts), 0, m + 1)
                expected_den = (1,)
                for i in range(m + 1):
                    expected_den = polys.to_ints(
                        polys.mul(expected_den, (1, -(q**i)))
                    )
                assert zeta.num == (1,)
                assert zeta.den == expected_den
                assert counts_from_zeta(zeta, m + 1).counts == counts
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    _report(
        3,
        "zeta of P^m over F_q (m <= 3, q <= 9) is exactly prod 1/(1 - q^i t) "
        "and round-trips bit-exactly, in under 10s",
        body,
    )


# ---------------------------------------------------------------------------
# 4. Elliptic pipeline over F_5
# ---------------------------------------------------------------------------


def test_acceptance_4_elliptic_pipeline(fixtures_dir):
    def body():
        spec = load_spec(fixtures_dir / "elliptic_f5.json")

        # Independent exhaustive oracle: direct solution sweeps, one point at
        # infinity, no shared counting code.
        n1_oracle = 1 + sum(
            1 for x in range(5) for y in range(5) if (y * y - x**3 - x - 1) % 5 == 0
        )
        f25 = make_extension(5, 2)
        add, mul = f25._add, f25._mul
        elems = range(f25.order)
        n2_oracle = 1 + sum(
            1
            for x in elems
            for y in elems
            if mul(y, y) == add(add(mul(x, mul(x, x)), x), f25.one)
        )
        assert (n1_oracle, n2_oracle) == (9, 27)

        series = count_series(spec, 2)
        assert series.counts == (9, 27)

        zeta = zeta_from_counts(
            series, 2, 2, known_denominator=connected_denominator(5, 1)
        )
        assert zeta.num == (1, 3, 5)
        assert zeta.den == (1, -6, 5)

        # The generic fit from four brute-force counts must agree.
        series4 = count_series(spec, 4)
        assert zeta_from_counts(series4, 2, 2) == zeta

        profile = CohomologyProfile(1, (1, 2, 1))
        w = factor_by_weights(zeta, profile)
        assert w.factors == ((1, -1), (1, 3, 5), (1, -5))
        assert check_functional_equation(w)["ok"]
        rh = check_riemann_hypothesis(w)
        assert rh["ok"], rh

    _report(
        4,
        "brute-force counts (9, 27) over F_5 yield the integral zeta "
        "(1 + 3t + 5t^2)/((1 - t)(1 - 5t)) whose factors pass the exact "
        "duality check and the exact Riemann hypothesis certificate",
        body,
    )


# ---------------------------------------------------------------------------
# 5. Equal-zeta witnesses from the pair search
# ---------------------------------------------------------------------------


def test_acceptance_5_equal_zeta_witnesses(capsys, tmp_path, fixtures_dir):
    def body():
        start = time.monotonic()
        pairs = find_pairs(5, 31)
        primes_in_range = [p for p in range(5, 32) if all(p % d for d in range(2, p))]
        primes_with_pairs = {r.p for r in pairs}
        assert len(primes_with_pairs) * 2 >= len(primes_in_range)

        profile_path = str(fixtures_dir / "profile_curve.json")
        profile = CohomologyProfile(1, (1, 2, 1))
        system = build_constraint_system(1)

        for idx, r in enumerate(pairs):
            spec_a = weierstrass_spec(r.p, r.curve_a.a, r.curve_a.b)
            spec_b = weierstrass_spec(r.p, r.curve_b.a, r.curve_b.b)
            path_a = tmp_path / f"pair{idx}_a.json"
            path_b = tmp_path / f"pair{idx}_b.json"
            path_a.write_text(json.dumps(spec_a.to_dict()))
            path_b.write_text(json.dumps(spec_b.to_dict()))
            code = cli.main(
                ["compare", str(path_a), str(path_b), "--profile", profile_path]
            )
            out = capsys.readouterr().out
            assert code == 0 and out.startswith("EQUAL"), (r, out)

            vectors = []
            for spec in (spec_a, spec_b):
                series = count_series(spec, 2)
                zeta = zeta_from_counts(
                    series, 2, 2, known_denominator=connected_denominator(r.p, 1)
                )
                vectors.append(
                    traces_from_factorization(factor_by_weights(zeta, profile), 3)
                )
            check = verify_traces_against_system(vectors[0], vectors[1], system)
            assert check.ok, (r, check.failures())

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(
            f"  ({len(pairs)} pairs over {sorted(primes_with_pairs)}, "
            f"{elapsed:.1f}s)"
        )

    _report(
        5,
        "pair search over 5 <= p <= 31 yields witnesses for at least half the "
        "primes; every emitted pair passes compare EQUAL and satisfies every "
        "trace constraint for n <= 3, in under 60s",
        body,
    )


# ---------------------------------------------------------------------------
# 6. Property suites
# ---------------------------------------------------------------------------


def _field_axiom_suite():
    shapes = [
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
        (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4),
    ]
    for p, k in shapes:
        field = make_extension(p, k)
        rng = random.Random(97 * p + k)
        add, mul = field._add, field._mul
        pool = [
            field.element([rng.randrange(p) for _ in range(k)])
            for _ in range(min(3 * field.order, 120))
        ]
        for _ in range(10_000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in pool:
            if a:
                assert mul(a, field._inv(a)) == field.one


def _partition_suite(fixtures_dir):
    elliptic = load_spec(fixtures_dir / "elliptic_f5.json")
    p2 = load_spec(fixtures_dir / "p2_f2.json")
    for spec, n in ((elliptic, 2), (elliptic, 3), (p2, 3)):
        total = count_points(spec, n)
        size = domain_size(spec, n)
        for pieces in (1, 2, 4):
            chunks = [
                count_points(spec, n, span=(s * size // pieces, (s + 1) * size // pieces))
                for s in range(pieces)
            ]
            assert sum(chunks) == total


def _solver_property_suite():
    combos = list(itertools.product([False, True], repeat=3))
    for d in range(1, 6):
        reports = {
            flags: set(
                solve_forced(
                    build_constraint_system(
                        d,
                        include_albanese=flags[0],
                        include_hard_lefschetz=flags[1],
                        include_trivial=flags[2],
                    )
                ).forced
            )
            for flags in combos
        }
        for f1 in combos:
            for f2 in combos:
                if all(not a or b for a, b in zip(f1, f2)):
                    assert reports[f1] <= reports[f2], (d, f1, f2)
        for (alb, hl, triv), forced in reports.items():
            if hl:
                for i in forced:
                    assert 2 * d - i in forced


def test_acceptance_6_property_suites(fixtures_dir):
    def body():
        _field_axiom_suite()
        _partition_suite(fixtures_dir)
        _solver_property_suite()

    _report(
        6,
        "field axioms hold on 10^4 random triples per field up to order 3^4, "
        "counting is additive under 1/2/4-way partitions, and the solver "
        "satisfies duality closure and constraint monotonicity",
        body,
    )
