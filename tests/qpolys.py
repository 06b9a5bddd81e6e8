"""Polynomial helpers over Q that only the Q(q) oracle and the tests use.

Polynomials are tuples as in fqzeta.polys: coefficients low degree first,
no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

from fqzeta.polys import ZERO, _pseudo_remainder, neg, normalize, primitive

ONE: tuple = (Fraction(1),)


def div_mod(a, b) -> tuple[tuple, tuple]:
    """Exact division with remainder; coefficients must form a field."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / Fraction(b[-1])
    while len(rem) >= len(b) and normalize(rem):
        rem = list(normalize(rem))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quo[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] -= factor * cb
        rem.pop()
    return normalize(quo), normalize(rem)


def prs_gcd(a, b) -> tuple:
    """gcd over Q as the primitive integer polynomial with positive lead, by PRS.

    The oracle for fqzeta.polys.gcd: a primitive polynomial remainder
    sequence over Z (Brown, 1971), in which every pseudo-remainder is divided
    by its content, so that the scalings of one step do not compound into
    the next, and no rational is formed.
    """
    a, b = primitive(normalize(a)), primitive(normalize(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(_pseudo_remainder(a, b))
    return tuple(a) if not a or a[-1] > 0 else neg(a)


def clear_integer_pair(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Scale a pair of Fraction polynomials to a primitive integer pair.

    The common scalar is chosen so that all coefficients are integers, their
    collective gcd is 1, and the leading coefficient of ``den`` is positive
    (of ``num`` if den is zero).
    """
    coeffs = [Fraction(c) for c in (*num, *den)]
    if not any(coeffs):
        return ZERO, ZERO
    lam = int_lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    scaled = [c * lam for c in coeffs]
    g = 0
    for c in scaled:
        g = int_gcd(g, int(c))
    g = g or 1
    anchor = den if normalize(den) else num
    if Fraction(anchor[-1]) < 0:
        g = -g
    n = len(num)
    ints = [int(c) // g for c in scaled]
    return normalize(ints[:n]), normalize(ints[n:])
