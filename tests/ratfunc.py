"""The field of rational functions in one indeterminate q over the rationals.

Values are kept in canonical form: numerator and denominator coprime, the
denominator monic, zero represented as 0/1.  Working over this field rather
than at a fixed prime power keeps solver conclusions uniform in q.
"""

from __future__ import annotations

from fractions import Fraction

import qpolys

from fqzeta import polys


def _canonical(num, den):
    num = polys.normalize(tuple(Fraction(c) for c in num))
    den = polys.normalize(tuple(Fraction(c) for c in den))
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return polys.ZERO, qpolys.ONE
    low_num = next(i for i, c in enumerate(num) if c)
    low_den = next(i for i, c in enumerate(den) if c)
    if low_num == len(num) - 1 or low_den == len(den) - 1:
        # One side is a monomial c q^e, so the gcd is the common power of q.
        shift = min(low_num, low_den)
        num, den = num[shift:], den[shift:]
    else:
        g = polys.gcd(num, den)[0]
        if polys.degree(g) > 0:
            num = qpolys.div_mod(num, g)[0]
            den = qpolys.div_mod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        inv = Fraction(1) / lead
        num = polys.scale(num, inv)
        den = polys.scale(den, inv)
    return num, den


class RationalFunctionQ:
    """An element of Q(q), immutable and canonically reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num, den = _canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFunctionQ is immutable")

    @staticmethod
    def from_fraction(value) -> "RationalFunctionQ":
        return RationalFunctionQ((Fraction(value),))

    @staticmethod
    def q_power(e: int) -> "RationalFunctionQ":
        """q^e for any integer e, negative exponents included."""
        if e >= 0:
            return RationalFunctionQ((0,) * e + (1,))
        return RationalFunctionQ((1,), (0,) * (-e) + (1,))

    def _coerce(self, other):
        if isinstance(other, RationalFunctionQ):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunctionQ.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            polys.add(polys.mul(self.num, other.den), polys.mul(other.num, self.den)),
            polys.mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionQ(polys.neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            polys.mul(self.num, other.num), polys.mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunctionQ(
            polys.mul(self.num, other.den), polys.mul(self.den, other.num)
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, q0) -> Fraction:
        q0 = Fraction(q0)
        den = polys.evaluate(self.den, q0)
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at q = {q0}")
        return Fraction(polys.evaluate(self.num, q0)) / den

    def to_string(self) -> str:
        """Canonical 'poly/poly' form with primitive integer coefficients."""
        num, den = qpolys.clear_integer_pair(self.num, self.den)
        return f"{polys.render(num, 'q')}/{polys.render(den, 'q')}"

    def __repr__(self):
        return f"RationalFunctionQ({self.to_string()!r})"


ZERO = RationalFunctionQ((0,))
ONE = RationalFunctionQ((1,))
Q = RationalFunctionQ.q_power(1)

