"""Dense univariate polynomial arithmetic over exact scalars.

Polynomials are tuples of coefficients, low degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Coefficients are ints or
rationals, except that quotient takes ints only.

primitive is the one routine that clears denominators: it scales ints or
rationals by a positive rational to the primitive integer multiple.  gcd
takes either and returns (g, abar, bbar): g is the primitive integer gcd
with a positive lead, and abar and bbar are the integer cofactors, the
primitive parts of a and b divided by g.  It is the heuristic gcd of Char,
Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7, 1989): after clearing
denominators and contents, one evaluation of each input at an integer xi,
one integer gcd, and a candidate read back from the symmetric base-xi
digits of that gcd, returned only if it divides both inputs exactly
(quotient), whose quotients are the cofactors.  Both inputs are primitive
and xi starts at 2 min(|a|, |b|) + 2, |.| the largest coefficient magnitude.

* Certificate.  Say |a| is the smaller norm.  Every root alpha of a has
  |alpha| < 1 + |a| <= xi / 2 (Cauchy's bound).  Let G be the candidate,
  the primitive part of the digit polynomial H, with H(xi) = gcd(a(xi),
  b(xi)) = c G(xi), c the content of H.  If G divides a and b, the true
  gcd g is G k for some k dividing a, and g(xi) divides c G(xi), so k(xi)
  divides c.  Were deg k >= 1, then |k(xi)| >= prod |xi - alpha| > xi / 2
  over the roots of k, while 0 < c <= xi / 2, as c divides every digit; so
  k is a constant, +-1 as G and g are primitive.  A candidate that passes
  is the gcd.
* Termination.  With a = g abar and b = g bbar, gcd(a(xi), b(xi)) is
  |g(xi)| times gcd(abar(xi), bbar(xi)), which divides Res(abar, bbar) != 0.
  Once xi > 2 |Res| |g|, the digits of that product are the coefficients of
  a multiple of g, whose primitive part is g.  A failed candidate retries at
  xi <- 2 xi + 1, so the loop ends.

sturm_sequence takes ints and runs a pseudo-remainder sequence over Z.

_power_sums turns a polynomial in 1 + tZ[t] into the power sums of its
inverse roots, and _series_from_counts turns power sums back into the
polynomial's leading coefficients, exp(sum N_n t^n / n).  The zeta
functions of zeta and the character sums of a plane curve in varieties
both go through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

ZERO: tuple = ()


def normalize(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def degree(a) -> int:
    """Degree, with deg 0 = -1."""
    return len(a) - 1


def add(a, b) -> tuple:
    n = max(len(a), len(b))
    return normalize(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def neg(a) -> tuple:
    return tuple(-c for c in a)


def sub(a, b) -> tuple:
    return add(a, neg(b))


def scale(a, s) -> tuple:
    if not s:
        return ZERO
    return tuple(c * s for c in a)


def mul(a, b) -> tuple:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return normalize(out)


def primitive(a) -> tuple[int, ...]:
    """The primitive integer multiple of ints or rationals a by a positive rational.

    Zeros, trailing ones included, stay, so a matrix row keeps its length.
    """
    if all(type(c) is int for c in a):
        ints = a
    else:
        den = int_lcm(*(c.denominator for c in a))
        ints = [c.numerator * (den // c.denominator) for c in a]
    content = int_gcd(*ints)
    return tuple(c // content for c in ints) if content > 1 else tuple(ints)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of a mod b, for len(a) >= len(b) > 0, no trailing zeros.

    Each step scales the remainder by |lc(b)| / g and subtracts +-lead / g
    times a shift of b, where g = gcd(lc(b), lead), so every value stays in Z
    and every sign is kept, as a Sturm sequence needs.
    """
    rem = list(a)
    lead_b, top = b[-1], len(b) - 1
    while len(rem) > top:
        lead = rem.pop()
        if not lead:
            continue
        g = int_gcd(lead_b, lead)
        s, f = lead_b // g, lead // g
        if s < 0:
            s, f = -s, -f
        shift = len(rem) - top
        if s != 1:
            rem = [s * c for c in rem]
        for i in range(top):
            rem[shift + i] -= f * b[i]
    return list(normalize(rem))


def quotient(a, b) -> tuple | None:
    """a / b if b divides a exactly in Z[t], else None; a and b hold ints, b nonzero.

    Long division from the top, in which every quotient coefficient must be
    an integer; for a primitive b (say b(0) = 1) that is divisibility over
    Q, by Gauss's lemma.
    """
    rem, lead, top = list(a), b[-1], len(b) - 1
    quo = [0] * max(len(rem) - top, 0)
    for k in reversed(range(len(quo))):
        c = rem[k + top]
        if not c:
            continue
        c, r = divmod(c, lead)
        if r:
            return None
        quo[k] = c
        for i in range(top):
            rem[k + i] -= c * b[i]
    return None if any(rem[:top]) else normalize(quo)


def _symmetric_digits(n: int, base: int) -> list[int]:
    """The digits of n in base >= 2, each in (-base/2, base/2], low first."""
    digits, half = [], base // 2
    while n:
        n, d = divmod(n, base)
        if d > half:
            n, d = n + 1, d - base
        digits.append(d)
    return digits


def gcd(a, b) -> tuple[tuple, tuple, tuple]:
    """(g, abar, bbar): the gcd over Q and the cofactors, all in Z[t].

    a and b may have int or rational coefficients.  g is the primitive
    integer gcd with a positive lead, and g abar and g bbar are the
    primitive parts of a and b; a zero input has the cofactor 0, so that
    gcd(0, 0) is (0, 0, 0).  GCDHEU: see the module docstring for why a
    candidate that divides both is the gcd, and why one is found.
    """
    a, b = primitive(normalize(a)), primitive(normalize(b))
    if not a or not b:
        g = a or b
        sign = -1 if g and g[-1] < 0 else 1
        return scale(g, sign), a and (sign,), b and (sign,)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        g = primitive(_symmetric_digits(int_gcd(evaluate(a, xi), evaluate(b, xi)), xi))
        if g[-1] < 0:
            g = neg(g)
        if len(g) == 1:
            return g, a, b
        abar = quotient(a, g)
        bbar = None if abar is None else quotient(b, g)
        if bbar is not None:
            return g, abar, bbar
        xi = 2 * xi + 1


def sturm_sequence(a) -> list[tuple[int, ...]]:
    """Sturm sequence of an integer polynomial a of degree >= 0, in integers.

    a, then positive multiples of a' and of each negated remainder, made
    primitive so that the coefficients stay small.  Positive scaling keeps
    every sign, so at any x with a(x) != 0 the sign changes count as for the
    textbook sequence; the last entry is a multiple of gcd(a, a'), so
    V(x) - V(y) counts the distinct real roots in (x, y) for x < y.
    """
    seq = [normalize(a)]
    nxt = derivative(a)
    while nxt:
        seq.append(primitive(nxt))
        nxt = [-c for c in _pseudo_remainder(seq[-2], seq[-1])]
    return seq


def evaluate(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def derivative(a) -> tuple:
    return normalize(i * c for i, c in enumerate(a) if i >= 1)


def is_integral(a) -> bool:
    return all(c.denominator == 1 for c in a)


def to_ints(a) -> tuple[int, ...]:
    if not is_integral(a):
        raise ValueError(f"non-integral coefficients: {a}")
    return tuple(int(c) for c in a)


def render(coeffs, var: str, *, descending: bool = True) -> str:
    """Sparse 'c*var^e' rendering of integer coefficients, low degree first.

    render((1, -1, 2), "q") is '2*q^2 - q + 1'; with descending=False it is
    '1 - q + 2*q^2'.  The zero polynomial renders as '0'.
    """
    terms = [(e, int(c)) for e, c in enumerate(coeffs) if c]
    if descending:
        terms.reverse()
    parts = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# Power series in Z[[t]] (Fractions only for counts no variety has), index =
# degree: the counts of a zeta function and the power sums of its factors.
# ---------------------------------------------------------------------------


def _series_from_counts(counts) -> list:
    """exp(sum N_n t^n / n) to order len(counts), via z' = (sum N_n t^(n-1)) z.

    The coefficients are ints for the counts of a variety, whose zeta function
    lies in Z[[t]]; for other counts, such as (2, 1) with z_2 = 5/2, the first
    inexact division by m turns the series to Fractions.
    """
    z = [1]
    for m in range(1, len(counts) + 1):
        acc = 0
        for i in range(1, m + 1):
            acc += counts[i - 1] * z[m - i]
        if isinstance(acc, int) and acc % m == 0:
            z.append(acc // m)
        else:
            z.append(Fraction(acc, m))
    return z


def _series_div(a, b, order: int) -> list:
    """a / b to order t^order, for b(0) = 1: exact over Z when a and b are integral."""
    if not b or b[0] != 1:
        raise ValueError("series division requires constant term 1")
    out = []
    for m in range(order + 1):
        acc = a[m] if m < len(a) else 0
        for i in range(1, min(m, len(b) - 1) + 1):
            acc -= b[i] * out[m - i]
        out.append(acc)
    return out


def _power_sums(poly, terms: int) -> list[int]:
    """p_1..p_terms, p_n the sum of alpha^n over the inverse roots alpha of poly.

    For poly = prod (1 - alpha t) in 1 + tZ[t], t poly'/poly is
    -sum_n p_n t^n, so the p_n are ints, read off by series division.
    """
    ta_prime = [0] + [-i * c for i, c in enumerate(poly) if i >= 1]
    return _series_div(ta_prime, poly, terms)[1:]
