"""Dense univariate polynomial arithmetic over exact scalars.

Polynomials are tuples of coefficients, low degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Coefficients are ints or
rationals.  gcd takes either: it clears denominators and runs a
primitive remainder sequence over Z, so it does no rational arithmetic and
returns an integer polynomial.
sturm_sequence takes ints and shares that remainder sequence.
"""

from __future__ import annotations

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


def _primitive(a) -> list[int]:
    """The primitive integer polynomial that is a positive rational multiple of a."""
    den = int_lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    content = int_gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


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


def gcd(a, b) -> tuple:
    """gcd over Q, as the primitive integer polynomial with positive lead.

    a and b may have int or rational coefficients.  A primitive polynomial
    remainder sequence over Z (Brown, 1971): every pseudo-remainder is
    divided by its content, so that the scalings of one step do not
    compound into the next, and no rational is formed.
    """
    a, b = _primitive(normalize(a)), _primitive(normalize(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return tuple(a) if not a or a[-1] > 0 else neg(a)


def sturm_sequence(a) -> list[list[int]]:
    """Sturm sequence of an integer polynomial a of degree >= 0, in integers.

    a, then positive multiples of a' and of each negated remainder, made
    primitive so that the coefficients stay small.  Positive scaling keeps
    every sign, so at any x with a(x) != 0 the sign changes count as for the
    textbook sequence; the last entry is a multiple of gcd(a, a'), so
    V(x) - V(y) counts the distinct real roots in (x, y) for x < y.
    """
    seq = [list(normalize(a))]
    nxt = list(derivative(a))
    while nxt:
        seq.append(_primitive(nxt))
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
