"""Search for non-isomorphic elliptic curves over F_p with equal zeta functions.

Short Weierstrass curves y^2 = x^3 + ax + b over F_p (p > 3, nonzero
discriminant) are swept exhaustively.  Models related by
(a, b) -> (u^4 a, u^6 b) for u in F_p^* are the same curve (Silverman,
The Arithmetic of Elliptic Curves, III.1), and each such class is
represented by its smallest member in lex order, read off in closed form
from the cosets of the 4th and 6th powers in F_p^*, named by power residues
(_class_representatives).  j-invariant equality is deliberately not used:
it ignores twists.

The models of one class are F_p-isomorphic, so they share N_1, and N_1 is
counted once per class, at its representative, as a character sum over F_p:
the number of y with y^2 = s is 1 + chi(s), so

    N_1 = p + 1 + sum_x chi(x^3 + ax + b),

with chi the quadratic character of F_p as a list (fields._prime_chi).
In genus 1 the trace a_p = p + 1 - N_1 fixes the zeta function,

    Z(t) = (1 - a_p t + p t^2) / ((1 - t)(1 - p t)),   N_2 = p^2 + 1 - (a_p^2 - 2p),

so nothing is counted over F_{p^2}.  The tests keep an F_{p^2} character sum
as the oracle for that recursion, and the orbit walk that this closed form
replaced as the oracle for the classes.  varieties.count_points would take
the same sum with no numpy either, but by Horner's rule over a generic
polynomial, which costs several times the table sum below per class.

Classes are bucketed by N_1.  A bucket holding two or more classes
witnesses an equal-zeta pair of non-isomorphic curves; since equality of
zeta functions is transitive, one witness pair per bucket carries the
complete finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError
from .fields import _prime_chi, check_characteristic, is_prime
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
    """(1 - a_p t + p t^2) / ((1 - t)(1 - p t)) for a curve with trace a_p.

    The denominator's roots are 1 and 1/p, and the numerator takes the
    values N_1 = p + 1 - a_p and N_1 / p there, so for integers p != 0 and
    N_1 != 0 the fraction is reduced and is built unchecked.  Any other
    input goes through the validating constructor, which refuses N_1 = 0.
    """
    num, den = (1, -trace, p), (1, -(p + 1), p)
    if type(p) is type(trace) is int and p and p + 1 != trace:
        return ZetaFunction._reduced(p, num, den)
    return ZetaFunction(p, num, den)


def _coset_minima(p: int, d: int) -> list[int]:
    """The least element of each coset of the d-th powers in F_p^*, ascending.

    d divides p - 1, so in the cyclic F_p^* the power residue b^((p-1)/d)
    names the coset of b.  Each coset is met first at its least b.
    """
    first: dict[int, int] = {}
    for b in range(1, p):
        first.setdefault(pow(b, (p - 1) // d, p), b)
        if len(first) == d:
            break
    return list(first.values())


def _class_representatives(p: int) -> list[tuple[int, int]]:
    """The smallest member of every orbit (u^4 a, u^6 b), u in F_p^*, of
    nonsingular models, in lex order.

    u^6 runs over the 6th powers, so the classes with a = 0 are the (0, b)
    with b the least element of a coset of the 6th powers.  For a != 0, u^4 a
    runs over the coset of a in the 4th powers, whose least element m is the
    smallest first entry of the orbit; the u with u^4 = 1 then send b to
    u^6 b = u^2 b, that is to +-b for p = 1 mod 4 and to b alone for
    p = 3 mod 4.  So the classes are (m, b) for b <= (p - 1)/2, or for every
    b, less the singular 4m^3 + 27b^2 = 0.
    """
    reps = [(0, b) for b in _coset_minima(p, math.gcd(6, p - 1))]
    top = (p + 1) // 2 if p % 4 == 1 else p
    for m in _coset_minima(p, math.gcd(4, p - 1)):
        reps.extend((m, b) for b in range(top) if (4 * m * m * m + 27 * b * b) % p)
    return reps


def _sweep_primes(p_min: int, p_max: int, budget: int) -> list[int]:
    """The primes in [max(p_min, 5), p_max], refused before any table is built
    once the models and points their search visits pass ``budget``."""
    primes, work = [], 0
    for p in range(max(p_min, 5), p_max + 1):
        if not is_prime(p):
            continue
        # An upper bound, not the work done: p^2 models, as many as an orbit
        # walk over all models visits, and p points of N_1 for each of at
        # most 2p + 6 classes.  The classes cost O(p) (_class_representatives);
        # the tally stays so that every refusal, and every exit code, stays.
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
    """N_1 of every class representative (a, b), in lex order.

    At most five first entries a occur, and for each the values
    v = x^3 + ax mod p are reduced once.  chi2, the quadratic character
    doubled to length 2p, shifted by b reads chi(v + b) at v, so no point
    is reduced mod p again.
    """
    chi = _prime_chi(p)
    chi2 = chi + chi
    counts, cubics = {}, {}
    for a, b in _class_representatives(p):
        at_values = cubics.get(a)
        if at_values is None:
            at_values = cubics[a] = itemgetter(*[(x * x * x + a * x) % p for x in range(p)])
        counts[a, b] = p + 1 + sum(at_values(chi2[b : b + p]))
    return counts


def find_pairs(
    p_min: int = 5, p_max: int = 31, *, budget: int = DEFAULT_BUDGET
) -> list[PairSearchResult]:
    """One witness pair per (p, N_1) bucket holding >= 2 curve classes.

    Raises BudgetExceededError, before any counting, when the primes in range
    visit more than ``budget`` models and points, reckoned as (3p + 6) p each:
    an upper bound on the work, not the work done (see _sweep_primes).
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
