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
the search stays pure Python.  The tables are flat lists on field indices
(c_0 p + c_1 for c_0 + c_1 T in F_{p^2}, as ExtensionField.index_of): chi1
of length p, chi2 of length p^2, and the index of t^3 for each t.  Each row
c_1 = x_1 takes two field products, (x_1 T)^2 and (x_1 T)^3; the rest of the
row follows by coefficient additions, (x+1)^2 = x^2 + 2x + 1 and
(x+1)^3 = x^3 + 3x^2 + 3x + 1.

N_2 is summed over F_{p^2} once per class, at its representative: about 2p
sums of p^2 terms per prime instead of p^2.  The representatives take few
distinct values of a (at most 1 + gcd(4, p - 1)), and in lex order those
with one a come together, so the indices of x^3 + ax are listed once for
each a and only one list is kept.  Adding b in F_p moves the c_0 digit, so
it rotates the index by b p mod p^2; each class sums chi2, rotated by b p,
over that list.  N_1 is summed over F_p for every model, as chi1 rotated by
b over the values x^3 + ax, and every model's N_1 is cross-checked against
its class's N_2 by the genus-1 trace recursion

    a_p = p + 1 - N_1,      N_2 = p^2 + 1 - (a_p^2 - 2p),

so a model mapped to a class of another |a_p| fails the check too.

Classes are bucketed by (N_1, N_2).  A bucket holding two or more classes
witnesses an equal-zeta pair of non-isomorphic curves; since equality of
zeta functions is transitive, one witness pair per bucket carries the
complete finding.  Equal (N_1, N_2) pins the whole zeta function in genus 1,
so every emitted pair is an equal-zeta pair.
"""

from __future__ import annotations

import itertools
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
    """Quadratic characters of F_p and F_{p^2}, and cubes in F_{p^2}, as flat
    lists on field indices: chi1[s], chi2[field.index_of(t)], and the index of
    t^3 at cubes[field.index_of(t)]."""
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
        t = (0, x1)
        s0, s1 = field._mul(t, t)
        c0, c1 = field._mul((s0, s1), t)
        for x0 in range(p):
            chi2[s0 * p + s1] = 1
            cubes[x0 * p + x1] = c0 * p + c1
            c0 = (c0 + 3 * (s0 + x0) + 1) % p
            c1 = (c1 + 3 * (s1 + x1)) % p
            s0 = (s0 + 2 * x0 + 1) % p
            s1 = (s1 + 2 * x1) % p
    chi2[0] = 0  # the square of zero
    return chi1, chi2, cubes


def _rotated(table: list[int], shift: int) -> list[int]:
    """table[(i + shift) % len(table)] at every index i."""
    return table[shift:] + table[:shift]


def _cubic_indices(p: int, cubes: list[int], a: int) -> list[int]:
    """The index of x^3 + a x for every x in F_{p^2}, in index order."""
    out = []
    for i, c in enumerate(cubes):
        x0, x1 = divmod(i, p)
        c0, c1 = divmod(c, p)
        out.append((c0 + a * x0) % p * p + (c1 + a * x1) % p)
    return out


def find_pairs(
    p_min: int = 5, p_max: int = 31, *, budget: int = DEFAULT_BUDGET
) -> list[PairSearchResult]:
    """One witness pair per (p, N_1, N_2) bucket holding >= 2 curve classes.

    Raises BudgetExceededError, before any counting, when the primes in range
    need more than ``budget`` points of F_{p^2}, reckoned as (2p + 6) p^2 each.
    """
    results = []
    for p in _sweep_primes(p_min, p_max, budget):
        chi1, chi2, cubes = _count_tables(p)
        # Adding b in F_p to s moves chi1 by b, and to c_0 moves chi2 by b p.
        chi1_plus = [_rotated(chi1, b) for b in range(p)]
        values1 = [[(x * x * x + a * x) % p for x in range(p)] for a in range(p)]
        indexed_a, values2 = None, []  # indices of x^3 + a x in F_{p^2}
        n2_of: dict[tuple[int, int], int] = {}
        buckets: dict[tuple[int, int], set[tuple[int, int]]] = {}
        rep = _class_representatives(p)
        for a, b in itertools.product(range(p), repeat=2):
            cls = rep.get((a, b))
            if cls is None:  # singular
                continue
            if cls == (a, b):
                if a != indexed_a:
                    indexed_a, values2 = a, _cubic_indices(p, cubes, a)
                chi2_plus = _rotated(chi2, b * p)
                n2_of[cls] = p * p + 1 + sum(map(chi2_plus.__getitem__, values2))
            n2 = n2_of[cls]
            n1 = p + 1 + sum(map(chi1_plus[b].__getitem__, values1[a]))
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
