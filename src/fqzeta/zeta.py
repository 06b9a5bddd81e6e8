"""Zeta functions from point counts, and their weight-graded structure.

The zeta function of a variety over F_q is the generating function
exp(sum_n N_n t^n / n); for the varieties handled here it is a rational
function in t with integer coefficients and constant term 1 in numerator and
denominator.  This module converts exactly between:

* point-count series and zeta functions (both directions),
* a zeta function and its factors P_0..P_{2d} by the weight of their inverse
  roots, one factor per cohomological degree, split by exact polynomial gcds,
* factor coefficients and the traces of the q^n-power Frobenius per degree.

Both conversions from a polynomial in 1 + tZ[t] to the power sums of its
inverse roots, counts_from_zeta and traces_from_factorization, are one
routine, polys._power_sums; polys._series_from_counts is its inverse.
Both the fit's reduction and the weight split take their quotients from
polys.gcd, whose certificate has already divided exactly, and the fit's
reduced num/den is not checked again (ZetaFunction._reduced).  Counts, zeta
functions, factors and traces are ints, computed exactly; Fractions arise
only from counts that no variety has.  Both checks are exact:
check_riemann_hypothesis certifies every factor in integers (_is_weil).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, polys
from .errors import (
    DualityViolationError,
    InsufficientCountsError,
    NonIntegralCoefficientsError,
    NonIntegralCountError,
    NoRationalFitError,
    WeightSeparationError,
)
from .polys import _power_sums, _series_from_counts
from .varieties import PointCountSeries, _is_int


def _is_integral(x) -> bool:
    """An int, or a Fraction or float of integral value; a bool is none of these."""
    if isinstance(x, Fraction):
        return x.denominator == 1
    return _is_int(x) or isinstance(x, float) and x.is_integer()


def _int_poly(coeffs, what: str) -> tuple[int, ...]:
    """coeffs as ints without trailing zeros; a non-integral one raises ValueError."""
    coeffs = tuple(coeffs)
    if not all(type(c) is int for c in coeffs):
        for c in coeffs:
            if not _is_integral(c):
                raise ValueError(f"{what} coefficients must be integers, got {c!r}")
        coeffs = tuple(int(c) for c in coeffs)
    return polys.normalize(coeffs)


@dataclass(frozen=True)
class ZetaFunction:
    """A reduced rational function in t; num and den have constant term 1."""

    q: int
    num: tuple[int, ...]
    den: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num", _int_poly(self.num, "numerator"))
        object.__setattr__(self, "den", _int_poly(self.den, "denominator"))
        if not self.num or self.num[0] != 1 or not self.den or self.den[0] != 1:
            raise ValueError("numerator and denominator must have constant term 1")
        g = polys.gcd(self.num, self.den)[0]
        if polys.degree(g) > 0:
            raise ValueError(f"numerator and denominator share a factor: {_coeff_list(g)}")

    @classmethod
    def _reduced(cls, q: int, num: tuple[int, ...], den: tuple[int, ...]) -> "ZetaFunction":
        """num/den as given, unchecked, for a caller that has proven what
        __post_init__ checks: tuples of ints without trailing zeros, constant
        term 1, and no common factor."""
        zeta = object.__new__(cls)
        for name, value in (("q", q), ("num", num), ("den", den)):
            object.__setattr__(zeta, name, value)
        return zeta

    def to_dict(self) -> dict:
        return {"q": self.q, "num": list(self.num), "den": list(self.den)}

    @staticmethod
    def from_dict(data: dict) -> "ZetaFunction":
        return ZetaFunction(data["q"], tuple(data["num"]), tuple(data["den"]))


@dataclass(frozen=True)
class CohomologyProfile:
    """Expected dimensions b_0..b_{2d}, symmetric with b_0 = b_{2d} = 1."""

    d: int
    betti: tuple[int, ...]

    def __post_init__(self):
        if not _is_int(self.d):
            raise ValueError(f"profile d must be an integer, got {self.d!r}")
        # Integral floats such as 1.0 are Betti numbers too; 2.5 or True is not.
        if not isinstance(self.betti, (list, tuple)) or not all(
            _is_integral(b) for b in self.betti
        ):
            raise ValueError(f"profile betti must be a list of integers, got {self.betti!r}")
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))
        if len(self.betti) != 2 * self.d + 1:
            raise ValueError(f"expected {2 * self.d + 1} betti numbers, got {len(self.betti)}")
        if any(b < 0 for b in self.betti):
            raise ValueError("betti numbers must be nonnegative")
        if self.betti != self.betti[::-1]:
            raise ValueError("betti numbers must satisfy b_i = b_(2d-i)")
        if self.betti[0] != 1:
            raise ValueError("b_0 must be 1 (geometrically connected)")

    @property
    def odd_total(self) -> int:
        return sum(self.betti[1::2])

    @property
    def even_total(self) -> int:
        return sum(self.betti[0::2])

    @staticmethod
    def from_dict(data: dict) -> "CohomologyProfile":
        try:
            d, betti = data["d"], data["betti"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile: {type(exc).__name__}: {exc}") from None
        return CohomologyProfile(d, betti)

    def to_dict(self) -> dict:
        return {"d": self.d, "betti": list(self.betti)}


@dataclass(frozen=True)
class WeilFactorization:
    """Integer factors P_0..P_{2d} with P_i(0) = 1 and deg P_i = b_i."""

    q: int
    d: int
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        factors = tuple(_int_poly(f, "factor") for f in self.factors)
        object.__setattr__(self, "factors", factors)
        if len(self.factors) != 2 * self.d + 1:
            raise ValueError(f"expected {2 * self.d + 1} factors, got {len(self.factors)}")
        if any(not f or f[0] != 1 for f in self.factors):
            raise ValueError("every factor must have constant term 1")

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(f) - 1 for f in self.factors)

    def to_dict(self) -> dict:
        return {"q": self.q, "d": self.d, "factors": [list(f) for f in self.factors]}


@dataclass(frozen=True)
class TraceVector:
    """traces[i][n-1] = trace of the q^n-power Frobenius in degree i, n = 1..depth."""

    q: int
    d: int
    depth: int
    traces: tuple[tuple[int, ...], ...]

    def trace(self, i: int, n: int) -> int:
        return self.traces[i][n - 1]


# ---------------------------------------------------------------------------
# Power series product (int coefficients, Fraction only for non-variety
# counts; index = degree); polys holds the rest
# ---------------------------------------------------------------------------


def _series_mul(a, b, order: int) -> list:
    out = [0] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if not ca:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def _ints_if_integral(poly) -> tuple:
    """poly with int coefficients if they are all integral, else as given."""
    return polys.to_ints(poly) if polys.is_integral(poly) else tuple(poly)


def _coeff_list(poly) -> str:
    """[1, 3/4] for the coefficients 1 and 3/4, whether held as ints or Fractions."""
    return "[" + ", ".join(str(c) for c in poly) + "]"


# ---------------------------------------------------------------------------
# Counts <-> zeta
# ---------------------------------------------------------------------------


def zeta_from_counts(
    series: PointCountSeries,
    num_degree: int,
    den_degree: int,
    *,
    known_denominator=(1,),
) -> ZetaFunction:
    """The unique rational function matching the supplied counts exactly.

    num_degree and den_degree bound the degrees of numerator and denominator.
    A denominator factor that is pinned a priori (for a geometrically
    connected variety the degree-0 and degree-2d factors 1 - t and 1 - q^d t;
    see connected_denominator) may be passed in, which lowers the number of
    counts needed by its degree.  The remaining coefficients are solved by
    exact linear algebra on the power-series expansion; every supplied count
    beyond the minimum acts as a consistency check.
    """
    counts = series.counts
    kd = polys.normalize(polys.to_ints(known_denominator))
    if not kd or kd[0] != 1:
        raise ValueError("the known denominator must have constant term 1")
    free_den = den_degree - polys.degree(kd)
    if num_degree < 0 or free_den < 0:
        raise ValueError("degrees must be nonnegative and cover the known denominator")
    needed = num_degree + free_den
    if len(counts) < needed:
        raise InsufficientCountsError(
            f"{needed} counts needed to fit degrees ({num_degree},{den_degree}) "
            f"with the given known denominator; got {len(counts)}",
            needed=needed,
            given=len(counts),
        )
    order = len(counts)
    z = _series_from_counts(counts)
    w = _series_mul(z, kd, order)

    # Find Q_u with Q_u(0)=1, deg <= free_den, killing the series tail of
    # Q_u * w beyond degree num_degree.
    if free_den:
        rows = []
        rhs = []
        for j in range(num_degree + 1, order + 1):
            rows.append([w[j - i] if j - i >= 0 else 0 for i in range(1, free_den + 1)])
            rhs.append(-w[j])
        sol = linalg.solve(rows, rhs) if rows else [0] * free_den
        if sol is None:
            raise NoRationalFitError(
                f"no rational function of degree ({num_degree},{den_degree}) "
                f"matches the {len(counts)} supplied counts"
            )
        q_u = _ints_if_integral((1, *sol))
    else:
        q_u = (1,)
    num = polys.normalize(_series_mul(q_u, w, num_degree))
    den = polys.mul(kd, q_u)
    g, num_bar, den_bar = polys.gcd(num, den)
    if polys.degree(g) > 0:
        num = _ints_if_integral(polys.scale(num_bar, Fraction(1, num_bar[0])))
        den = _ints_if_integral(polys.scale(den_bar, Fraction(1, den_bar[0])))

    # Verify den * Z = num through every supplied term.
    check = _series_mul(den, z, order)
    for j in range(order + 1):
        expected = num[j] if j < len(num) else 0
        if check[j] != expected:
            raise NoRationalFitError(
                f"fit of degree ({num_degree},{den_degree}) fails the supplied "
                f"counts at order t^{j}"
            )
    if not (polys.is_integral(num) and polys.is_integral(den)):
        raise NonIntegralCoefficientsError(
            f"counts admit the rational fit {_coeff_list(num)}/{_coeff_list(den)} "
            "but its coefficients are not integers"
        )
    # num/den is reduced: the cofactors of the gcd above, or coprime already.
    return ZetaFunction._reduced(series.q, polys.to_ints(num), polys.to_ints(den))


def counts_from_zeta(zeta: ZetaFunction, terms: int) -> PointCountSeries:
    """N_n = p_n(den) - p_n(num), the power sums of the inverse roots, in ints.

    A negative N_n, which no variety has, raises NonIntegralCountError.
    """
    pairs = zip(_power_sums(zeta.den, terms), _power_sums(zeta.num, terms))
    counts = tuple(a - b for a, b in pairs)
    for n, c in enumerate(counts, start=1):
        if c < 0:
            raise NonIntegralCountError(
                f"zeta expands to N_{n} = {c}, not a nonnegative integer"
            )
    return PointCountSeries(zeta.q, counts)


def connected_denominator(q: int, d: int) -> tuple[int, ...]:
    """(1 - t)(1 - q^d t), the pinned degree-0 and degree-2d factors; (1 - t) if d = 0."""
    if d == 0:
        return (1, -1)
    return polys.mul((1, -1), (1, -(q**d)))


# ---------------------------------------------------------------------------
# Weight separation and traces
# ---------------------------------------------------------------------------


def _sign_at_sqrt(poly, c: int, Q: int) -> int:
    """Sign of poly(c sqrt(Q)) for an integer polynomial, exactly.

    poly(y) = E(y^2) + y O(y^2) = U + V sqrt(Q) with U = E(c^2 Q) and
    V = c O(c^2 Q); where U and V differ in sign, U^2 - V^2 Q decides.
    """
    z = c * c * Q
    u = polys.evaluate(poly[0::2], z)
    v = c * polys.evaluate(poly[1::2], z)
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    n = u * u - v * v * Q
    return su * ((n > 0) - (n < 0))


def _is_weil(f, Q: int) -> bool:
    """True if every inverse root of the integer f, f(0) = 1, has |alpha|^2 = Q.

    Exact, in ints (after Kedlaya, "Search techniques for root-unitary
    polynomials", 2008).  The real inverse roots of modulus sqrt(Q) are
    divided out first: 1 - r t and 1 + r t when Q = r^2, else 1 - Q t^2.  On
    the circle every other alpha pairs with its conjugate Q/alpha != alpha,
    so the rest has even degree 2m and f_{m+j} = Q^j f_{m-j}, and its
    reversal x^{2m} f(1/x) is x^m R(x + Q/x) with R = f_m + sum_j f_{m-j} T_j,
    where T_j(x + Q/x) = x^j + (Q/x)^j: T_1 = y, T_2 = y^2 - 2Q,
    T_{j+1} = y T_j - Q T_{j-1}.  alpha lies on the circle exactly when
    y = alpha + Q/alpha is real with y^2 < 4Q, so every distinct root of R
    must lie in (-2 sqrt(Q), 2 sqrt(Q)).  R(+-2 sqrt(Q)) != 0, since a root
    there would be an inverse root +-sqrt(Q) of f, already divided out.
    Each condition is necessary as well as sufficient, so False means that
    some inverse root has |alpha|^2 != Q.

    R is monic, as f_0 = 1, and for m <= 2 the condition is decided in
    closed form; for m >= 3 it is a Sturm count (_sturm_certificate).  m = 0
    leaves nothing to check.  For m = 1, R = y + f_1, whose root -f_1 lies
    inside iff f_1^2 < 4Q.  For m = 2, R = y^2 + b y + c with b = f_1 and
    c = f_2 - 2Q.  Both roots of a monic quadratic lie in (L, U) iff its
    discriminant b^2 - 4c is >= 0 (they are real), its vertex -b/2 lies in
    (L, U), and it is positive at L and at U.  Here the vertex condition is
    b^2 < 16Q, and with e = 4Q + c, R(+-2 sqrt(Q)) = e +- 2b sqrt(Q) > 0
    reads e > 0 and e^2 > 4 b^2 Q.  A double root, b^2 = 4c, counts once
    and lies inside iff the vertex does, as in Sturm's count of distinct
    roots, and the ends are never roots, so the strict signs there agree
    with the Sturm count's exact ones.

    A real factor is divided out only once an evaluation has found its root,
    so no long division fails: 1 -+ r t divides f exactly when the reversal
    x^n f(1/x) vanishes at +-r, one Horner evaluation, and for Q not a square
    1 - Q t^2 divides f exactly when the reversal, E(x^2) + x O(x^2) with
    E and O its parity halves, vanishes at sqrt(Q), that is, when E and O
    both vanish at Q, as sqrt(Q) is irrational.  Each such factor is
    primitive, so the division then goes through in Z[t].
    """
    r = math.isqrt(Q)
    if r * r == Q:
        for root in (r, -r):
            while not polys.evaluate(f[::-1], root):
                f = polys.quotient(f, (1, -root))
    else:
        while not (polys.evaluate(f[-1::-2], Q) or polys.evaluate(f[-2::-2], Q)):
            f = polys.quotient(f, (1, 0, -Q))
    m, odd = divmod(len(f) - 1, 2)
    if odd or any(f[m + j] != Q**j * f[m - j] for j in range(1, m + 1)):
        return False
    if m > 2:
        return _sturm_certificate(f, Q)
    if m < 2:
        return not m or f[1] * f[1] < 4 * Q
    b2, c = f[1] * f[1], f[2] - 2 * Q
    e = 4 * Q + c
    return 4 * c <= b2 < 16 * Q and e > 0 and e * e > 4 * b2 * Q


def _sturm_certificate(f, Q: int) -> bool:
    """True if every distinct root of f's fold R lies in (-2 sqrt(Q), 2 sqrt(Q)); see _is_weil.

    f has even degree 2m, f_{m+j} = Q^j f_{m-j}, and no inverse root
    +-sqrt(Q).  The Sturm sequence of R counts its distinct real roots
    between the ends, each sign there taken exactly (_sign_at_sqrt), against
    deg R - deg gcd(R, R'), the count of all its distinct roots.
    """
    m = (len(f) - 1) // 2
    folded, t_prev, t = (f[m],), (2,), (0, 1)
    for j in range(1, m + 1):
        folded = polys.add(folded, polys.scale(t, f[m - j]))
        t_prev, t = t, polys.sub((0, *t), polys.scale(t_prev, Q))
    seq = polys.sturm_sequence(folded)
    changes = []
    for c in (-2, 2):
        signs = [s for s in (_sign_at_sqrt(p, c, Q) for p in seq) if s]
        changes.append(sum(x != y for x, y in zip(signs, signs[1:])))
    distinct = polys.degree(folded) - polys.degree(seq[-1])
    return changes[0] - changes[1] == distinct


def factor_by_weights(
    zeta: ZetaFunction, profile: CohomologyProfile
) -> WeilFactorization:
    """Split zeta into integer factors P_i whose inverse roots have weight i.

    Every inverse root of a variety's zeta function is a q-Weil number
    (Deligne, Weil I): an algebraic integer alpha of weight i, all of whose
    conjugates have modulus q^(i/2), so that conj(alpha) = q^i / alpha.  The
    factors are therefore peeled exactly, weight 0 first, from the numerator
    (odd i) or the denominator (even i), here called F:

        P_i = g(0) g,  g = gcd(F, F_i),
        F_i(t) = sum_m F[deg F - m] q^(im) t^m,

    and F becomes g(0) Fbar, where F = g Fbar with Fbar the gcd's cofactor.
    F_i has the inverse roots q^i / alpha, so the gcd keeps every weight-i
    root with its multiplicity.  A root of weight j > i
    would need a partner of weight 2i - j < i, which is already peeled.
    Degrees with b_i = 0 are peeled too, so that no root is absorbed at a
    weight the profile has no slot for.  Inverse roots that are not q-Weil
    numbers may still pair up and be split; check_riemann_hypothesis reports
    them.

    F lies in Z[t] with F(0) = 1, so F is its own primitive part and
    F = g Fbar exactly; the primitive integer g divides F, so by Gauss's
    lemma g(0) = +-1, P_i is g scaled to constant term 1, in integers, and
    P_i g(0) Fbar = F.  No division is made outside the gcd.  Once every
    deg P_i = b_i the degree checks below leave nothing unpeeled.

    At the last weight of each parity, i >= 2d - 1, what remains of F should
    be P_i itself.  F_i = F[-1] prod (1 - (q^i / alpha) t) over the inverse
    roots alpha of F, so F_i = F[-1] F says that F is its own q^i-reciprocal,
    and then the gcd would return P_i = F and leave 1.  So if F has degree
    b_i and F_i = F[-1] F, F is taken as P_i with no gcd; otherwise the gcd
    runs as at every other weight, with the same errors.
    """
    d, betti, q = profile.d, profile.betti, zeta.q
    if polys.degree(zeta.num) != profile.odd_total:
        raise WeightSeparationError(
            f"numerator degree {polys.degree(zeta.num)} != sum of odd betti "
            f"numbers {profile.odd_total}"
        )
    if polys.degree(zeta.den) != profile.even_total:
        raise WeightSeparationError(
            f"denominator degree {polys.degree(zeta.den)} != sum of even betti "
            f"numbers {profile.even_total}"
        )

    rest = [zeta.den, zeta.num]
    factors = []
    for i in range(2 * d + 1):
        f = rest[i % 2]
        f_i = [c * q ** (i * m) for m, c in enumerate(reversed(f))]
        if i >= 2 * d - 1 and len(f) == betti[i] + 1 and f_i == [f[-1] * c for c in f]:
            factors.append(f)
            continue
        g, cofactor, _ = polys.gcd(f, f_i)
        p_i = polys.scale(g, g[0])
        if polys.degree(p_i) != betti[i]:
            raise WeightSeparationError(
                f"degree {i}: expected {betti[i]} inverse roots of weight {i}, "
                f"found the factor {p_i}"
            )
        rest[i % 2] = polys.scale(cofactor, g[0])
        factors.append(p_i)
    return WeilFactorization(q, d, tuple(factors))


def traces_from_factorization(w: WeilFactorization, depth: int) -> TraceVector:
    """Power sums of the inverse roots of each P_i, in ints."""
    traces = tuple(tuple(_power_sums(f, depth)) for f in w.factors)
    return TraceVector(w.q, w.d, depth, traces)


def check_functional_equation(w: WeilFactorization) -> dict:
    """Verify that P_{2d-i} is P_i with inverse roots scaled by q^(d-i), exactly.

    Coefficientwise this means P_{2d-i}[m] = P_i[m] * q^((d-i)m) for all m;
    the comparison is integer-exact.
    """
    q, d = w.q, w.d
    bad = []
    for i in range(d):
        low, high = w.factors[i], w.factors[2 * d - i]
        if len(low) != len(high):
            bad.append(i)
            continue
        scale = q ** (d - i)
        if any(high[m] != low[m] * scale**m for m in range(len(low))):
            bad.append(i)
    if bad:
        raise DualityViolationError(
            f"degrees {bad} violate the q^(d-i) pairing with their "
            f"complementary degrees",
            degrees=tuple(bad),
        )
    return {"d": d, "checked": [[i, 2 * d - i] for i in range(d)], "ok": True}


def check_riemann_hypothesis(w: WeilFactorization) -> dict:
    """Check that the inverse roots of every P_i have modulus q^(i/2), exactly.

    violations lists the degrees i whose P_i _is_weil does not certify; no
    variety's factor is among them.
    """
    violations = [i for i, f in enumerate(w.factors) if not _is_weil(f, w.q**i)]
    return {"ok": not violations, "violations": violations}
