"""Seeded job generators for the four benchmark workloads.

Each generator takes a ``random.Random`` seeded from ``--seed`` and returns
the job list; the same seed gives the same jobs.  Only valid inputs are
produced (smooth curves, nonnegative synthetic counts), decided by the
oracles, never by the program: an input the program rejects stays in the
workload and counts as a failed job.

The composition of each workload (how many jobs per prime, per dimension,
per band) is fixed and only the free parameters are drawn, so the amount of
work hardly depends on the seed.  Curve coefficients are drawn from
1..p-1 so every job evaluates the same number of terms.

Why each workload:

* zeta_small_fields -- the everyday job: every N_2 is counted over a field
  of at most 961 elements, where the vectorized counter does the work and
  each field recurs across many curves (the field caches are hit).
* zeta_large_fields -- every large counting field has more than 1024
  elements, so the pure-Python fallback does the work and each field is
  used once; one job in each band: P^2 over F_{37^2}, P^1 in the exp/log
  table band (1024, 2^16], P^1 above 2^16.  The F_{4^n} line also runs the
  k > 1 embedding scan.
* find_pair -- pairsearch's own character-sum counter, run by no other
  workload.
* algebra -- no point counting: the control that a counting or field change
  must not move.  The synthetic round trips stay inside the float-exact
  range of the weight split: every zeta coefficient fits in 53 bits.  Above
  it ``factor_by_weights`` rounds float roots and raises
  RoundingMismatchError on about a third of the d = 3 inputs (ROADMAP item
  3); a benchmark workload must run without failed operations.
"""

from __future__ import annotations

import random

from oracles import counts_from_factors, curve_is_smooth, legendre_n1, poly_prod

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
CURVES_PER_PRIME = 11
COMPARE_PRIMES = (13, 17, 19, 23, 29)
COMPARES_PER_PRIME = 4
QUADRIC_PRIMES = (3, 5, 7, 11)
PAIR_WINDOW = (5, 47)
SOLVE_MAX_D = 16
ROUNDTRIPS_PER_D = 30
ROUNDTRIP_SURPLUS = 2
ROUNDTRIP_MAX_Q = 61
# Float-exact range of the weight split: |coefficient| < 2^53.
ROUNDTRIP_MAX_BITS = 53

CURVE_PROFILE = {"d": 1, "betti": [1, 2, 1]}


def curve_spec(p: int, a: int, b: int) -> dict:
    """y^2 z = x^3 + a x z^2 + b z^3 in P^2 over F_p."""
    return {
        "label": f"y^2 = x^3 + {a}x + {b} over F_{p}",
        "p": p,
        "k": 1,
        "ambient": {"type": "projective", "dim": 2},
        "equations": [[[1, [0, 2, 1]], [-1, [3, 0, 0]], [-a, [1, 0, 2]], [-b, [0, 0, 3]]]],
    }


def line_f4_spec() -> dict:
    """x_0 + g x_1 = 0 in P^1 over F_4 (g the field generator)."""
    return {
        "label": "x_0 + g x_1 = 0 in P^1 over F_4",
        "p": 2,
        "k": 2,
        "ambient": {"type": "projective", "dim": 1},
        "equations": [[[[1, 0], [1, 0]], [[0, 1], [0, 1]]]],
    }


def binomial_spec(p: int, c: int) -> dict:
    """x_0^3 - c x_1^3 = 0 in P^1 over F_p."""
    return {
        "label": f"x_0^3 - {c} x_1^3 in P^1 over F_{p}",
        "p": p,
        "k": 1,
        "ambient": {"type": "projective", "dim": 1},
        "equations": [[[1, [3, 0]], [-c, [0, 3]]]],
    }


def diagonal_surface_spec(label: str, p: int, coeffs, degree: int) -> dict:
    return {
        "label": label,
        "p": p,
        "k": 1,
        "ambient": {"type": "projective", "dim": 3},
        "equations": [
            [[c, [degree if i == j else 0 for j in range(4)]] for i, c in enumerate(coeffs)]
        ],
    }


def _smooth_curve(rng: random.Random, p: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if curve_is_smooth(p, a, b):
            return a, b


def _compare_pair(rng: random.Random, p: int, equal: bool):
    while True:
        first = _smooth_curve(rng, p)
        n1 = legendre_n1(p, *first)
        partners = [
            (a, b)
            for a in range(1, p)
            for b in range(1, p)
            if (a, b) != first
            and curve_is_smooth(p, a, b)
            and (legendre_n1(p, a, b) == n1) == equal
        ]
        if partners:
            return first, rng.choice(partners)


def zeta_small_fields(rng: random.Random) -> list[dict]:
    jobs = []
    for p in SMALL_PRIMES:
        for _ in range(CURVES_PER_PRIME):
            a, b = _smooth_curve(rng, p)
            jobs.append({"kind": "curve_zeta", "p": p, "a": a, "b": b})
    for p in COMPARE_PRIMES:
        for i in range(COMPARES_PER_PRIME):
            first, second = _compare_pair(rng, p, equal=i % 2 == 0)
            jobs.append({"kind": "compare", "p": p, "curve_a": first, "curve_b": second})
    jobs.append({"kind": "surface_zeta", "surface": "fermat_cubic", "p": 2})
    for p in QUADRIC_PRIMES:
        coeffs = [rng.randrange(1, p) for _ in range(4)]
        jobs.append({"kind": "surface_zeta", "surface": "quadric", "p": p, "coeffs": coeffs})
    return jobs


def zeta_large_fields(rng: random.Random) -> list[dict]:
    a, b = _smooth_curve(rng, 37)
    return [
        {"kind": "curve_zeta", "p": 37, "a": a, "b": b},
        {"kind": "count", "spec": "line_f4", "n": 8},
        {"kind": "count", "spec": "binomial", "p": 5, "c": rng.randrange(1, 5), "n": 7},
    ]


def find_pair(rng: random.Random) -> list[dict]:
    lo, hi = PAIR_WINDOW
    primes = [p for p in range(lo, hi + 1) if all(p % d for d in range(2, p))]
    return [{"kind": "find_pair", "p": p} for p in primes]


_SOLVE_FLAGS = [
    {"albanese": al, "hard_lefschetz": hl, "trivial": tr}
    for al in (True, False)
    for hl in (True, False)
    for tr in (True, False)
]


def _prime_powers(limit: int) -> list[int]:
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


def _weil_factors(rng: random.Random, d: int, q: int) -> list[list[int]]:
    """P_0..P_{2d} from genus-1 Weil factors 1 - a t + q t^2, |a| <= 2 sqrt(q).

    Odd weight 2j+1 uses 1 - a q^j t + q^(2j+1) t^2; even weight 2j uses the
    symmetric square 1 - (a^2 - 2q) q^(j-1) t + q^(2j) t^2.  Degrees above d
    are the q^(d-i) twists that the functional equation requires.
    """
    bound = int((4 * q) ** 0.5)
    while bound * bound > 4 * q:
        bound -= 1
    factors = {0: [1, -1]}
    for i in range(1, d + 1):
        j = i // 2
        parts = []
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(-bound, bound)
            if i % 2:
                parts.append([1, -a * q**j, q**i])
            else:
                parts.append([1, -(a * a - 2 * q) * q ** (j - 1), q**i])
        factors[i] = poly_prod(parts)
    for i in range(d + 1, 2 * d + 1):
        low = factors[2 * d - i]
        scale = q ** (i - d)
        factors[i] = [c * scale**m for m, c in enumerate(low)]
    return [factors[i] for i in range(2 * d + 1)]


def algebra(rng: random.Random) -> list[dict]:
    jobs = [
        {"kind": "solve", "d": d, "flags": flags}
        for d in range(1, SOLVE_MAX_D + 1)
        for flags in _SOLVE_FLAGS
    ]
    qs = _prime_powers(ROUNDTRIP_MAX_Q)
    for d in (1, 2, 3):
        for _ in range(ROUNDTRIPS_PER_D):
            while True:
                q = rng.choice(qs)
                factors = _weil_factors(rng, d, q)
                betti = [len(f) - 1 for f in factors]
                # Counts fixed by the fit: free coefficients minus the two
                # pinned factors (1 - t)(1 - q^d t), plus the surplus checks.
                terms = sum(betti) - 2 + ROUNDTRIP_SURPLUS
                num, den = poly_prod(factors[1::2]), poly_prod(factors[0::2])
                bits = max(abs(c).bit_length() for c in num + den)
                if bits <= ROUNDTRIP_MAX_BITS and min(counts_from_factors(factors, terms)) >= 0:
                    break
            jobs.append(
                {
                    "kind": "roundtrip",
                    "d": d,
                    "q": q,
                    "factors": factors,
                    "num": num,
                    "den": den,
                    "terms": terms,
                    "depth": 2,
                }
            )
    return jobs


WORKLOADS = {
    "zeta_small_fields": zeta_small_fields,
    "zeta_large_fields": zeta_large_fields,
    "find_pair": find_pair,
    "algebra": algebra,
}


def generate(name: str, seed: int) -> list[dict]:
    """The job list of workload ``name`` for ``seed``, with ids.

    The jobs are interleaved in an order fixed per workload, not per seed:
    peak memory depends on which cached tables are alive when the largest
    count runs, and it should not move with the seed.
    """
    jobs = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    random.Random(name).shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
