"""Independent output oracles for the benchmark jobs, and their self-test.

Every check recomputes the expected answer without the program's counting,
fitting or searching code: Legendre sums for elliptic curves, the genus-1
trace recursion for N_2, closed forms for the fixed towers, and integer
polynomial arithmetic for the synthetic zeta functions.  The one exception
is the ``solve`` check, which uses the program's independent numeric
rank-comparison solver at two rational q0 plus the two facts the README
states (d = 3 is fully forced; d = 4 leaves exactly {2, 4, 6}).

A check raises OracleMismatch on a wrong answer; a wrong answer aborts the
benchmark run.  ``python3 perfbench/oracles.py`` runs the self-test, which
corrupts correct outputs and requires every oracle to reject them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class OracleMismatch(Exception):
    """The program's output differs from the independent oracle."""


def _expect(label: str, got, want) -> None:
    if got != want:
        raise OracleMismatch(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Integer polynomials (low degree first)
# ---------------------------------------------------------------------------


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_prod(polys) -> list[int]:
    out = [1]
    for f in polys:
        out = poly_mul(out, f)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def power_sums(f, depth: int) -> list[int]:
    """Sums of n-th powers of the inverse roots of f (f[0] = 1), n = 1..depth."""
    b = len(f) - 1
    e = [0] + [(-1) ** j * f[j] for j in range(1, b + 1)]
    ps: list[int] = []
    for n in range(1, depth + 1):
        acc = n * e[n] * (-1) ** (n - 1) if n <= b else 0
        for j in range(1, min(n - 1, b) + 1):
            acc += (-1) ** (j - 1) * e[j] * ps[n - 1 - j]
        ps.append(acc)
    return ps


def counts_from_factors(factors, terms: int) -> list[int]:
    """N_n = sum_i (-1)^i (power sum of P_i), the Lefschetz trace formula."""
    counts = [0] * terms
    for i, f in enumerate(factors):
        sign = -1 if i % 2 else 1
        for n, s in enumerate(power_sums(f, terms)):
            counts[n] += sign * s
    return counts


# ---------------------------------------------------------------------------
# Elliptic curves y^2 = x^3 + a x + b over F_p
# ---------------------------------------------------------------------------


def curve_is_smooth(p: int, a: int, b: int) -> bool:
    return (4 * a * a * a + 27 * b * b) % p != 0


def legendre_n1(p: int, a: int, b: int) -> int:
    """Projective points: the point at infinity plus 1 + chi(x^3 + a x + b) per x."""
    squares = {x * x % p for x in range(1, p)}
    total = p + 1
    for x in range(p):
        s = (x * x * x + a * x + b) % p
        if s:
            total += 1 if s in squares else -1
    return total


def genus1_n2(p: int, n1: int) -> int:
    """N_2 = p^2 + 1 - (a^2 - 2p) with a = p + 1 - N_1."""
    trace = p + 1 - n1
    return p * p + 1 - (trace * trace - 2 * p)


def canonical_class(p: int, a: int, b: int) -> tuple[int, int]:
    """Smallest model of the isomorphism class (a, b) ~ (u^4 a, u^6 b)."""
    return min((a * pow(u, 4, p) % p, b * pow(u, 6, p) % p) for u in range(1, p))


def curve_zeta(p: int, n1: int) -> dict:
    trace = p + 1 - n1
    return {"q": p, "num": [1, -trace, p], "den": [1, -(p + 1), p]}


def expected_curve_zeta(p: int, a: int, b: int) -> dict:
    n1 = legendre_n1(p, a, b)
    trace = p + 1 - n1
    return {
        "counts": [n1, genus1_n2(p, n1)],
        "zeta": curve_zeta(p, n1),
        "factors": [[1, -1], [1, -trace, p], [1, -p]],
    }


def expected_compare(p: int, curve_a, curve_b) -> dict:
    n1a = legendre_n1(p, *curve_a)
    n1b = legendre_n1(p, *curve_b)
    equal = n1a == n1b
    return {
        "verdict": "EQUAL" if equal else "DIFFER",
        "zeta_a": curve_zeta(p, n1a),
        "zeta_b": curve_zeta(p, n1b),
        "first_divergence": None if equal else {"n": 1, "count_a": n1a, "count_b": n1b},
    }


def expected_pairs(p: int) -> list[dict]:
    """One pair per N_1 value held by two or more curve classes, sorted."""
    buckets: dict[int, set] = {}
    for a in range(p):
        for b in range(p):
            if curve_is_smooth(p, a, b):
                buckets.setdefault(legendre_n1(p, a, b), set()).add(canonical_class(p, a, b))
    out = []
    for n1, classes in sorted(buckets.items()):
        if len(classes) >= 2:
            first, second = sorted(classes)[:2]
            out.append(
                {
                    "p": p,
                    "curve_a": {"a": first[0], "b": first[1]},
                    "curve_b": {"a": second[0], "b": second[1]},
                    "counts": [n1, genus1_n2(p, n1)],
                    "zeta": curve_zeta(p, n1),
                }
            )
    return out


# ---------------------------------------------------------------------------
# Surfaces and P^1 towers with closed-form counts
# ---------------------------------------------------------------------------


def quadratic_character(c: int, p: int) -> int:
    return 1 if pow(c % p, (p - 1) // 2, p) == 1 else -1


def expected_quadric(p: int, coeffs) -> dict:
    """Smooth diagonal quadric surface: split iff the discriminant is a square."""
    disc = 1
    for c in coeffs:
        disc *= c
    eps = quadratic_character(disc, p)
    counts = [
        p ** (2 * n) + 1 + p**n * (1 + eps**n) for n in (1, 2)
    ]
    middle = [1, -2 * p, p * p] if eps == 1 else [1, 0, -p * p]
    return {"counts": counts, "factors": [[1, -1], [1], middle, [1], [1, -p * p]]}


def expected_fermat_cubic_f2() -> dict:
    """x0^3+x1^3+x2^3+x3^3 over F_2: H^2 eigenvalues are 2 (four times), -2 (three)."""
    middle = poly_prod([[1, -2]] * 4 + [[1, 2]] * 3)
    counts = [4**n + 1 + 2**n * (1 if n % 2 else 7) for n in range(1, 8)]
    return {"counts": counts, "factors": [[1, -1], [1], middle, [1], [1, -4]]}


def expected_binomial_counts(p: int, c: int, terms: int) -> list[int]:
    """x0^3 - c x1^3 in P^1: the cube roots of c in F_Q, Q = p^n."""
    counts = []
    for n in range(1, terms + 1):
        q = p**n
        g = gcd(3, q - 1)
        if g == 1:
            counts.append(1)
        else:
            counts.append(3 if pow(c, (q - 1) // g, p) == 1 else 0)
    return counts


# ---------------------------------------------------------------------------
# Checks on program outputs
# ---------------------------------------------------------------------------


def _check_weil_output(out: dict, want: dict, q: int) -> None:
    _expect("counts", out["counts"], want["counts"])
    _expect("factors", out["factorization"]["factors"], want["factors"])
    _expect("zeta", out["zeta"], zeta_of_factors(q, want["factors"]))
    _expect("duality.ok", out["duality"]["ok"], True)
    _expect("riemann_hypothesis.ok", out["riemann_hypothesis"]["ok"], True)


def zeta_of_factors(q: int, factors) -> dict:
    return {
        "q": q,
        "num": poly_prod(factors[1::2]),
        "den": poly_prod(factors[0::2]),
    }


def check_curve_zeta(job: dict, out: dict) -> None:
    want = expected_curve_zeta(job["p"], job["a"], job["b"])
    _check_weil_output(out, want, job["p"])


def check_compare(job: dict, out: dict) -> None:
    want = expected_compare(job["p"], job["curve_a"], job["curve_b"])
    for key, value in want.items():
        _expect(key, out[key], value)


def check_surface_zeta(job: dict, out: dict) -> None:
    if job["surface"] == "fermat_cubic":
        want = expected_fermat_cubic_f2()
    else:
        want = expected_quadric(job["p"], job["coeffs"])
    _check_weil_output(out, want, job["p"])


def check_count(job: dict, out: dict) -> None:
    if job["spec"] == "line_f4":
        want = [1] * job["n"]
    else:
        want = expected_binomial_counts(job["p"], job["c"], job["n"])
    _expect("counts", out["counts"], want)


def check_find_pair(job: dict, out) -> None:
    p = job["p"]
    for pair in out:
        ca, cb = pair["curve_a"], pair["curve_b"]
        n1a = legendre_n1(p, ca["a"], ca["b"])
        _expect("pair N_1 equal", legendre_n1(p, cb["a"], cb["b"]), n1a)
        if canonical_class(p, ca["a"], ca["b"]) == canonical_class(p, cb["a"], cb["b"]):
            raise OracleMismatch(f"pair {ca} ~ {cb} over F_{p} is one isomorphism class")
        _expect("pair counts", pair["counts"], [n1a, genus1_n2(p, n1a)])
    _expect("pairs", out, expected_pairs(p))


_Q0_SAMPLES = (Fraction(2), Fraction(3))


def expected_forced(d: int, flags: dict) -> list[int]:
    from fqzeta.tracesolver import (
        build_constraint_system,
        instantiate_at_q,
        solve_forced_numeric,
    )

    system = build_constraint_system(
        d,
        include_albanese=flags["albanese"],
        include_hard_lefschetz=flags["hard_lefschetz"],
        include_trivial=flags["trivial"],
    )
    answers = {
        tuple(solve_forced_numeric(instantiate_at_q(system, q0)).forced)
        for q0 in _Q0_SAMPLES
    }
    if len(answers) != 1:
        raise OracleMismatch(f"numeric solver disagrees across q0 for d={d}: {answers}")
    forced = list(answers.pop())
    if all(flags.values()) and d == 3:
        _expect("README fact d=3 fully forced", forced, list(range(7)))
    if all(flags.values()) and d == 4:
        _expect("README fact d=4 unforced", sorted(set(range(9)) - set(forced)), [2, 4, 6])
    return forced


def check_solve(job: dict, out: dict, rc: int) -> None:
    forced = expected_forced(job["d"], job["flags"])
    _expect("forced", out["forced"], forced)
    _expect("flags", out["flags"], job["flags"])
    _expect("exit code", rc, 0 if forced == list(range(2 * job["d"] + 1)) else 1)


def check_roundtrip(job: dict, out: dict) -> None:
    factors = job["factors"]
    q = job["q"]
    _expect("counts", out["counts"], counts_from_factors(factors, job["terms"]))
    _expect("zeta", out["zeta"], zeta_of_factors(q, factors))
    _expect("factors", out["factors"], factors)
    traces = [[Fraction(s) for s in power_sums(f, job["depth"])] for f in factors]
    _expect("traces", out["traces"], traces)
    _expect("duality.ok", out["duality"]["ok"], True)
    _expect("riemann_hypothesis.ok", out["riemann_hypothesis"]["ok"], True)


CHECKS = {
    "curve_zeta": check_curve_zeta,
    "compare": check_compare,
    "surface_zeta": check_surface_zeta,
    "count": check_count,
    "find_pair": check_find_pair,
    "roundtrip": check_roundtrip,
}


def check_job(job: dict, out, rc) -> None:
    """Raise OracleMismatch unless ``out`` (parsed output) is the right answer."""
    if job["kind"] == "solve":
        check_solve(job, out, rc)
    else:
        CHECKS[job["kind"]](job, out)


# ---------------------------------------------------------------------------
# Self-test: every oracle must reject a corrupted output
# ---------------------------------------------------------------------------


def _must_reject(label: str, job: dict, out, rc=0) -> None:
    try:
        check_job(job, out, rc)
    except OracleMismatch:
        return
    raise AssertionError(f"oracle accepted a corrupted output: {label}")


def self_test() -> None:
    """Correct outputs pass; N_2 +- 1, a flipped verdict, a dropped forced
    degree and an altered factor coefficient are all rejected."""
    import copy

    job = {"kind": "curve_zeta", "p": 31, "a": 1, "b": 3}
    want = expected_curve_zeta(31, 1, 3)
    good = {
        "counts": want["counts"],
        "zeta": zeta_of_factors(31, want["factors"]),
        "factorization": {"factors": want["factors"]},
        "duality": {"ok": True},
        "riemann_hypothesis": {"ok": True},
    }
    check_job(job, good, 0)
    for delta in (1, -1):
        bad = copy.deepcopy(good)
        bad["counts"][1] += delta
        _must_reject(f"N_2 {delta:+d}", job, bad)

    for curve_b in ((1, 3), (2, 5)):
        job = {"kind": "compare", "p": 13, "curve_a": [1, 2], "curve_b": list(curve_b)}
        good = expected_compare(13, (1, 2), curve_b)
        check_job(job, good, 0)
        bad = dict(good, verdict="DIFFER" if good["verdict"] == "EQUAL" else "EQUAL")
        _must_reject("flipped verdict", job, bad)

    flags = {"albanese": True, "hard_lefschetz": True, "trivial": True}
    for d in (3, 4):
        job = {"kind": "solve", "d": d, "flags": flags}
        forced = expected_forced(d, flags)
        rc = 0 if d == 3 else 1
        good = {"forced": forced, "flags": flags}
        check_job(job, good, rc)
        _must_reject("dropped forced degree", job, dict(good, forced=forced[1:]), rc)

    factors = [[1, -1], [1, 3, 7], [1, -7]]
    job = {"kind": "roundtrip", "q": 7, "factors": factors, "terms": 4, "depth": 2}
    good = {
        "counts": counts_from_factors(factors, 4),
        "zeta": zeta_of_factors(7, factors),
        "factors": factors,
        "traces": [[Fraction(s) for s in power_sums(f, 2)] for f in factors],
        "duality": {"ok": True},
        "riemann_hypothesis": {"ok": True},
    }
    check_job(job, good, 0)
    bad = copy.deepcopy(good)
    bad["factors"][1][1] += 1
    _must_reject("altered factor coefficient", job, bad)

    pair_job = {"kind": "find_pair", "p": 7}
    pairs = expected_pairs(7)
    check_job(pair_job, pairs, 0)
    bad = copy.deepcopy(pairs)
    bad[0]["counts"][1] += 1
    _must_reject("pair N_2 + 1", pair_job, bad)


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path.cwd() / "src"))
    self_test()
    print("oracle self-test passed")
