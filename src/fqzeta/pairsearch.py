"""Search for non-isomorphic elliptic curves over F_p with equal zeta functions.

Short Weierstrass curves y^2 = x^3 + ax + b over F_p (p > 3, nonzero
discriminant) are swept exhaustively.  Models related by
(a, b) -> (u^4 a, u^6 b) for u in F_p^* are the same curve; visiting the
models in lex order meets each such class first at its smallest member,
which becomes the class representative.  j-invariant equality is
deliberately not used: it ignores twists.

Counts are exhaustive character sums: the number of y with y^2 = s is
1 + chi(s).  varieties.count_points counts fibres by the same identity,
with chi from Euler's criterion on numpy arrays; here chi is a table, so
the search stays pure Python.  N_2 is summed over F_{p^2} once per class, at
its representative: about 2p sums of p^2 terms per prime instead of p^2.
N_1 is summed over F_p for every model, and every model's N_1 is
cross-checked against its class's N_2 by the genus-1 trace recursion

    a_p = p + 1 - N_1,      N_2 = p^2 + 1 - (a_p^2 - 2p),

so a model mapped to a class of another |a_p| fails the check too.

Classes are bucketed by (N_1, N_2).  A bucket holding two or more classes
witnesses an equal-zeta pair of non-isomorphic curves; since equality of
zeta functions is transitive, one witness pair per bucket carries the
complete finding.  Equal (N_1, N_2) pins the whole zeta function in genus 1,
so every emitted pair is an equal-zeta pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .fields import check_characteristic, is_prime, make_extension
from .varieties import DEFAULT_BUDGET, VarietySpec
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


def _class_representatives(p: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Each nonsingular model (a, b) mapped to the smallest member of its
    orbit (u^4 a, u^6 b), u in F_p^*: lex order meets every orbit first there."""
    multipliers = {(pow(u, 4, p), pow(u, 6, p)) for u in range(1, p)}
    rep: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0 or (a, b) in rep:
                continue
            for u4, u6 in multipliers:
                rep[a * u4 % p, b * u6 % p] = (a, b)
    return rep


def _sweep_primes(p_min: int, p_max: int, budget: int) -> list[int]:
    """The primes in [max(p_min, 5), p_max], refused before any table is built
    once the points their N_2 sums may evaluate pass ``budget``."""
    primes, work = [], 0
    for p in range(max(p_min, 5), p_max + 1):
        if not is_prime(p):
            continue
        # At most 2p + 6 classes over F_p, each summed over all of F_{p^2};
        # this also bounds the p^3 terms of the N_1 sums.
        work += (2 * p + 6) * p * p
        if work > budget:
            raise BudgetExceededError(
                f"the N_2 sums for primes {max(p_min, 5)}..{p} evaluate up to "
                f"{work} points, exceeds budget {budget}",
                required=work,
                budget=budget,
            )
        check_characteristic(p)
        primes.append(p)
    return primes


def _count_tables(p: int):
    """Quadratic character tables over F_p and F_{p^2}, plus cubes in F_{p^2}."""
    chi1 = [0] * p
    squares = {x * x % p for x in range(1, p)}
    for s in range(1, p):
        chi1[s] = 1 if s in squares else -1

    field = make_extension(p, 2)
    # Lexicographic order on coefficient vectors, as in field._tuples().
    elems = [(x0, x1) for x0 in range(p) for x1 in range(p)]
    squares2 = [field._mul(t, t) for t in elems]
    sq2 = set(squares2[1:])  # elems[0] is zero
    chi2 = {t: (0 if not any(t) else (1 if t in sq2 else -1)) for t in elems}
    cubes = [field._mul(s, t) for s, t in zip(squares2, elems)]
    return chi1, chi2, elems, cubes


def find_pairs(
    p_min: int = 5, p_max: int = 31, *, budget: int = DEFAULT_BUDGET
) -> list[PairSearchResult]:
    """One witness pair per (p, N_1, N_2) bucket holding >= 2 curve classes.

    Raises BudgetExceededError, before any counting, when the primes in range
    need more than ``budget`` points of F_{p^2}, reckoned as (2p + 6) p^2 each.
    """
    results = []
    for p in _sweep_primes(p_min, p_max, budget):
        chi1, chi2, elems, cubes = _count_tables(p)
        n2_of: dict[tuple[int, int], int] = {}
        buckets: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for (a, b), cls in sorted(_class_representatives(p).items()):
            if cls == (a, b):
                s2 = 0
                for (x0, x1), (c0, c1) in zip(elems, cubes):
                    s2 += chi2[((c0 + a * x0 + b) % p, (c1 + a * x1) % p)]
                n2_of[cls] = p * p + 1 + s2
            n2 = n2_of[cls]
            s1 = 0
            for x in range(p):
                s1 += chi1[(x * x * x + a * x + b) % p]
            n1 = p + 1 + s1
            trace = p + 1 - n1
            if n2 != p * p + 1 - (trace * trace - 2 * p):
                raise AssertionError(
                    f"count inconsistency for y^2=x^3+{a}x+{b} over F_{p}"
                )
            buckets.setdefault((n1, n2), set()).add(cls)
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
