"""Search for non-isomorphic elliptic curves over F_p with equal zeta functions.

Short Weierstrass curves y^2 = x^3 + ax + b over F_p (p > 3, nonzero
discriminant) are swept exhaustively.  N_1 and N_2 are both computed by
exhaustive character sums (the number of y with y^2 = s is 1 + chi(s)), then
cross-checked against the genus-1 trace recursion

    a_p = p + 1 - N_1,      N_2 = p^2 + 1 - (a_p^2 - 2p).

Curves are bucketed by (N_1, N_2); within a bucket, models related by
(a, b) -> (u^4 a, u^6 b) for u in F_p^* are the same curve, so each model is
reduced to the lexicographically smallest member of its orbit.  j-invariant
equality is deliberately not used: it ignores twists.  A bucket holding two
or more distinct classes witnesses an equal-zeta pair of non-isomorphic
curves; since equality of zeta functions is transitive, one witness pair per
bucket carries the complete finding.  Equal (N_1, N_2) pins the whole zeta
function in genus 1, so every emitted pair is an equal-zeta pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import is_prime, make_extension
from .varieties import VarietySpec
from .zeta import ZetaFunction


@dataclass(frozen=True)
class CurveModel:
    """y^2 = x^3 + ax + b over F_p."""

    a: int
    b: int

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class PairSearchResult:
    p: int
    curve_a: CurveModel
    curve_b: CurveModel
    counts: tuple[int, int]
    zeta: ZetaFunction

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "curve_a": self.curve_a.to_dict(),
            "curve_b": self.curve_b.to_dict(),
            "counts": list(self.counts),
            "zeta": self.zeta.to_dict(),
        }


def weierstrass_spec(p: int, a: int, b: int) -> VarietySpec:
    """The projective model y^2 z = x^3 + a x z^2 + b z^3 as a VarietySpec."""
    return VarietySpec.from_dict(
        {
            "label": f"y^2 = x^3 + {a}x + {b} over F_{p}",
            "p": p,
            "k": 1,
            "ambient": {"type": "projective", "dim": 2},
            "equations": [
                [
                    [1, [0, 2, 1]],
                    [-1, [3, 0, 0]],
                    [-a, [1, 0, 2]],
                    [-b, [0, 0, 3]],
                ]
            ],
        }
    )


def curve_zeta(p: int, trace: int) -> ZetaFunction:
    """(1 - a_p t + p t^2) / ((1 - t)(1 - p t)) for a curve with trace a_p."""
    return ZetaFunction(p, (1, -trace, p), (1, -(p + 1), p))


def _canonical_class(p: int, a: int, b: int) -> tuple[int, int]:
    """Smallest model in the twisting orbit (a, b) ~ (u^4 a, u^6 b)."""
    best = (a, b)
    for u in range(2, p):
        u2 = u * u % p
        u4 = u2 * u2 % p
        u6 = u4 * u2 % p
        cand = (a * u4 % p, b * u6 % p)
        if cand < best:
            best = cand
    return best


def _count_tables(p: int):
    """Quadratic character tables over F_p and F_{p^2}, plus cubes in F_{p^2}."""
    chi1 = [0] * p
    squares = {x * x % p for x in range(1, p)}
    for s in range(1, p):
        chi1[s] = 1 if s in squares else -1

    field = make_extension(p, 2)
    # Lexicographic order on coefficient vectors, as in field.elements().
    elems = [(x0, x1) for x0 in range(p) for x1 in range(p)]
    squares2 = [field._mul(t, t) for t in elems]
    sq2 = set(squares2[1:])  # elems[0] is zero
    chi2 = {t: (0 if not any(t) else (1 if t in sq2 else -1)) for t in elems}
    cubes = [field._mul(s, t) for s, t in zip(squares2, elems)]
    return chi1, chi2, elems, cubes


def find_pairs(p_min: int = 5, p_max: int = 31) -> list[PairSearchResult]:
    """One witness pair per (p, N_1, N_2) bucket holding >= 2 curve classes."""
    results = []
    for p in range(max(p_min, 5), p_max + 1):
        if not is_prime(p):
            continue
        chi1, chi2, elems, cubes = _count_tables(p)
        buckets: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for a in range(p):
            for b in range(p):
                if (4 * a * a * a + 27 * b * b) % p == 0:
                    continue
                s1 = 0
                for x in range(p):
                    s1 += chi1[(x * x * x + a * x + b) % p]
                n1 = p + 1 + s1
                s2 = 0
                for (x0, x1), (c0, c1) in zip(elems, cubes):
                    s2 += chi2[((c0 + a * x0 + b) % p, (c1 + a * x1) % p)]
                n2 = p * p + 1 + s2
                trace = p + 1 - n1
                if n2 != p * p + 1 - (trace * trace - 2 * p):
                    raise AssertionError(
                        f"count inconsistency for y^2=x^3+{a}x+{b} over F_{p}"
                    )
                buckets.setdefault((n1, n2), set()).add(_canonical_class(p, a, b))
        for (n1, n2), classes in sorted(buckets.items()):
            if len(classes) < 2:
                continue
            first, second = sorted(classes)[:2]
            results.append(
                PairSearchResult(
                    p,
                    CurveModel(*first),
                    CurveModel(*second),
                    (n1, n2),
                    curve_zeta(p, p + 1 - n1),
                )
            )
    return results
