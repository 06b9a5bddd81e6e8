"""Search for non-isomorphic elliptic curves over F_p with equal zeta functions.

Short Weierstrass curves y^2 = x^3 + ax + b over F_p (p > 3, nonzero
discriminant) are swept exhaustively.  Models related by
(a, b) -> (u^4 a, u^6 b) for u in F_p^* are the same curve; visiting the
models in lex order meets each such class first at its smallest member,
which becomes the class representative.  j-invariant equality is
deliberately not used: it ignores twists.

The models of one class are F_p-isomorphic, so they share N_1, and N_1 is
counted once per class, at its representative, as a character sum over F_p:
the number of y with y^2 = s is 1 + chi(s), so

    N_1 = p + 1 + sum_x chi(x^3 + ax + b),

with chi the quadratic character of F_p as a table of length p.  In genus 1
the trace a_p = p + 1 - N_1 fixes the zeta function,

    Z(t) = (1 - a_p t + p t^2) / ((1 - t)(1 - p t)),   N_2 = p^2 + 1 - (a_p^2 - 2p),

so nothing is counted over F_{p^2}.  The tests keep an F_{p^2} character sum
as the oracle for that recursion.  varieties.count_points would count the
same fibres, but it imports numpy, which costs more than the whole search.

Classes are bucketed by N_1.  A bucket holding two or more classes
witnesses an equal-zeta pair of non-isomorphic curves; since equality of
zeta functions is transitive, one witness pair per bucket carries the
complete finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .fields import check_characteristic, is_prime
# The search builds no extension field; perfbench/tracer.py still wraps
# pairsearch.make_extension by name, so the name stays importable here.
from .fields import make_extension  # noqa: F401
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


def _class_representatives(p: int) -> list[tuple[int, int]]:
    """The smallest member of every orbit (u^4 a, u^6 b), u in F_p^*, of
    nonsingular models, in lex order: lex order meets every orbit first there."""
    multipliers = {(pow(u, 4, p), pow(u, 6, p)) for u in range(1, p)}
    reps: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0 or (a, b) in seen:
                continue
            reps.append((a, b))
            seen.update((a * u4 % p, b * u6 % p) for u4, u6 in multipliers)
    return reps


def _sweep_primes(p_min: int, p_max: int, budget: int) -> list[int]:
    """The primes in [max(p_min, 5), p_max], refused before any table is built
    once the models and points their search visits pass ``budget``."""
    primes, work = [], 0
    for p in range(max(p_min, 5), p_max + 1):
        if not is_prime(p):
            continue
        # The class map visits p^2 models, and N_1 sums p points for each of
        # at most 2p + 6 classes.
        work += (3 * p + 6) * p
        if work > budget:
            raise BudgetExceededError(
                f"the class maps and N_1 sums for primes {max(p_min, 5)}..{p} "
                f"visit up to {work} models and points, exceeds budget {budget}",
                required=work,
                budget=budget,
            )
        check_characteristic(p)
        primes.append(p)
    return primes


def _class_counts(p: int) -> dict[tuple[int, int], int]:
    """N_1 of every class representative (a, b), in lex order."""
    chi = [-1] * p  # the quadratic character of F_p
    chi[0] = 0
    for x in range(1, p):
        chi[x * x % p] = 1
    return {
        (a, b): p + 1 + sum(chi[(x * x * x + a * x + b) % p] for x in range(p))
        for a, b in _class_representatives(p)
    }


def find_pairs(
    p_min: int = 5, p_max: int = 31, *, budget: int = DEFAULT_BUDGET
) -> list[PairSearchResult]:
    """One witness pair per (p, N_1) bucket holding >= 2 curve classes.

    Raises BudgetExceededError, before any counting, when the primes in range
    visit more than ``budget`` models and points, reckoned as (3p + 6) p each.
    """
    results = []
    for p in _sweep_primes(p_min, p_max, budget):
        buckets: dict[int, list[tuple[int, int]]] = {}
        for cls, n1 in _class_counts(p).items():
            buckets.setdefault(n1, []).append(cls)
        for n1, classes in sorted(buckets.items()):
            if len(classes) < 2:
                continue
            trace = p + 1 - n1
            results.append(
                PairSearchResult(
                    p,
                    CurveModel(*classes[0]),
                    CurveModel(*classes[1]),
                    (n1, p * p + 1 - (trace * trace - 2 * p)),
                    curve_zeta(p, trace),
                )
            )
    return results
