"""Exact arithmetic in finite fields F_{p^k}.

A field is built as F_p[x] / (m(x)) where m is the lexicographically
smallest monic irreducible polynomial of degree k over F_p, comparing the
non-leading coefficient vectors (c_0, ..., c_{k-1}) entry by entry from the
constant term up.  This choice is deterministic across runs and platforms.

A scalar c_0 + c_1 x + ... + c_{k-1} x^(k-1) is its index, the int with
base-p digits c_0 c_1 ... c_{k-1}, c_0 most significant: zero is 0 and one
is p^(k-1).  zero, one and element() give scalars, and ExtensionField._add,
_sub, _mul, _inv and _pow combine them exactly: over F_p as residues, for
p = 2 adding by XOR, otherwise digit by digit.  Digits are read only there
and at the spec boundary (from_digits, to_digits); add_digits adds and
negates scalars knowing only p, so a count is planned with no field built.

A field never changes its modulus or arithmetic, but it is not immutable:
numpy_tables and quadratic_character fill their tables on first use.  Two
threads that race there build equal tables, and either may be kept.

ExtensionField.vector_ops is the one vectorized kernel: add and mul on int64
arrays of scalars, whose second operand may also be one scalar, a Python
int, so that a coefficient is never broadcast into an array of its own.
Over F_p it adds and multiplies them mod p.  For k > 1
and at most _CHUNK = 2^17 elements it multiplies by exp/log tables,
a*b = exp[log a + log b] for a generator g (numpy_tables), and adds by XOR
for p = 2 and otherwise by Zech logarithms, a + b = a (1 + b/a) =
exp[log a + zech[log b - log a]] with 1 + g^d = g^zech[d].  A larger field
adds digit-wise and multiplies by convolution, then reduces mod m; that
kernel also fills exp, in about log2(order) vector products.  No
intermediate exceeds k*(p-1)^2 + p or the order, so the kernel is exact in
int64 for every p < 2^31 and order < 2^63.  A larger field has indices
int64 cannot hold: vector_ops refuses it with BudgetExceededError before
any array is built, so a count that would evaluate there exits like one
over budget.  Every field of at most _CHUNK elements, F_p included, also
keeps a table of its quadratic character (quadratic_character), built from
one kernel product, the squares of its nonzero elements; chi_sum reads a
character sum from that table, or by Euler's criterion on the kernel in a
larger field.  varieties._Count says which counting strategies run on this
kernel and which over the spec's own field, with the _fq_* polynomial
helpers below.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import BudgetExceededError, NotPrimeError

MAX_CHARACTERISTIC = 1 << 31

# The kernel holds scalars in int64.
_MAX_INDEXED_ORDER = (1 << 63) - 1
# Elements per vectorized step; digit-wise kernels work on k times as many
# int64 values, so loops over scalar arrays step by _CHUNK // k (_chunks).
# Also the largest field with exp/log and quadratic character tables.
_CHUNK = 1 << 17

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up to sqrt(n)."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    return primes


def _chunks(lo: int, hi: int, k: int):
    """(c0, c1) for consecutive runs c0..c1 covering lo..hi, for arrays over F_{p^k}."""
    step = _CHUNK // k
    for c0 in range(lo, hi, step):
        yield c0, min(c0 + step, hi)


def from_digits(digits, p: int) -> int:
    """The scalar with coefficients (c_0, ..., c_{k-1}), each reduced mod p."""
    idx = 0
    for c in digits:
        idx = idx * p + c % p
    return idx


def to_digits(idx: int, p: int, k: int) -> list[int]:
    """The coefficients [c_0, ..., c_{k-1}] of a scalar of F_{p^k}."""
    out = [0] * k
    for j in range(k - 1, -1, -1):
        idx, out[j] = divmod(idx, p)
    return out


def add_digits(a: int, b: int, p: int, sign: int = 1) -> int:
    """a + sign * b in any F_{p^k}: digit by digit mod p, with no carry."""
    out, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + sign * y) % p * place
        place *= p
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q = field, F_p included (k = 1); coefficients are
# the field's scalars, low degree first.
# ---------------------------------------------------------------------------


def _fq_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _fq_mod(a: list, m: list, field: "ExtensionField") -> list:
    """a mod m, for a monic m."""
    sub, mul, top = field._sub, field._mul, len(m) - 1
    tail = [(i, cm) for i, cm in enumerate(m[:-1]) if cm]
    a = _fq_trim(list(a))
    while len(a) > top:
        lead = a.pop()
        shift = len(a) - top
        for i, cm in tail:
            a[shift + i] = sub(a[shift + i], mul(lead, cm))
        _fq_trim(a)
    return a


def _fq_divexact(a: list, m: list, field: "ExtensionField") -> list:
    """a / m, for a monic m that divides a."""
    sub, mul, top = field._sub, field._mul, len(m) - 1
    tail = [(i, cm) for i, cm in enumerate(m[:-1]) if cm]
    a = list(a)
    quotient = a[top:]
    for shift in reversed(range(len(quotient))):
        lead = quotient[shift] = a[shift + top]
        for i, cm in tail:
            a[shift + i] = sub(a[shift + i], mul(lead, cm))
    return quotient


def _fq_mulmod(a: list, b: list, m: list, field: "ExtensionField") -> list:
    """a * b mod m, for a monic m."""
    if not a or not b:
        return []
    add, mul = field._add, field._mul
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = add(out[i + j], mul(ca, cb))
    return _fq_mod(out, m, field)


def _fq_gcd(a: list, b: list, field: "ExtensionField") -> list:
    """The monic gcd, or [] if a = b = 0."""
    a, b = _fq_trim(list(a)), _fq_trim(list(b))
    while b:
        inv_lead = field._inv(b[-1])
        b = [field._mul(c, inv_lead) for c in b]
        a, b = b, _fq_mod(a, b, field)
    return a


def _fq_powmod(base: list, e: int, m: list, field: "ExtensionField") -> list:
    """base^e mod a monic m, squaring from the top bit down."""
    result = [field.one]
    for bit in bin(e)[2:]:
        result = _fq_mulmod(result, result, m, field)
        if bit == "1":
            result = _fq_mulmod(result, base, m, field)
    return result


def _fq_frobenius_gcd(g: list, frobenius: list, field: "ExtensionField") -> list:
    """The monic gcd(g, y^Q - y) for a monic g, given frobenius = y^Q mod g.

    y^Q - y is the product of y - a over the a in F_Q, so the degree of the
    gcd counts the distinct roots of g in F_Q.
    """
    diff = frobenius + [field.zero] * (2 - len(frobenius))
    diff[1] = field._sub(diff[1], field.one)
    return _fq_gcd(g, diff, field)


def _is_irreducible(f: list, field: "ExtensionField") -> bool:
    """Rabin's test over field = F_p for a monic f of degree k.

    f is irreducible iff gcd(f, x^(p^i) - x) = 1 for every i <= k/2, with
    x^(p^i) = (x^(p^(i-1)))^p mod f.
    """
    frobenius = [field.zero, field.one]
    for _ in range((len(f) - 1) // 2):
        frobenius = _fq_powmod(frobenius, field.p, f, field)
        if len(_fq_frobenius_gcd(f, frobenius, field)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    prime_field = make_extension(p, 1)
    # Lex order on (c_0, ..., c_{k-1}) is numeric order on the base-p numeral
    # c_0 c_1 ... c_{k-1}, decoded lazily since p may be close to 2^31.  A zero
    # constant term means x divides the candidate, so start at c_0 = 1.
    for numeral in range(p ** (k - 1), p**k):
        f = to_digits(numeral, p, k) + [1]
        if _is_irreducible(f, prime_field):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


class ExtensionField:
    """F_{p^k} with a fixed monic irreducible modulus.

    Do not construct directly; use make_extension, which also guarantees a
    single shared instance per (p, k).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        # x^(k+j) mod m for j = 0..k-2, used during multiplication.
        red = []
        cur = [(-c) % p for c in modulus[:-1]]
        for _ in range(max(k - 1, 0)):
            red.append(tuple(cur))
            cur = [0] + cur
            lead = cur.pop()
            if lead:
                cur = [(c - lead * m) % p for c, m in zip(cur, modulus[:-1])]
        self._reduction_rows = tuple(red)
        self._np_tables = None
        self._np_chi = None
        self.zero = 0
        self.one = p ** (k - 1)

    # -- scalars ----------------------------------------------------------------

    def element(self, coeffs) -> int:
        """The scalar with these coefficients (an int is c_0), reduced mod p."""
        if isinstance(coeffs, int):
            return coeffs % self.p * self.one
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return from_digits(coeffs, self.p)

    def _add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return a ^ b if self.p == 2 else add_digits(a, b, self.p)

    def _sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return a ^ b if self.p == 2 else add_digits(a, b, self.p, -1)

    def _mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        # The digits of both operands in one pass, c_(k-1) first.
        da, db = [0] * k, [0] * k
        for j in range(k - 1, -1, -1):
            a, da[j] = divmod(a, p)
            b, db[j] = divmod(b, p)
        conv = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db, i):
                    conv[j] += ca * cb
        # Fold each x^j, j >= k, into the low k coefficients as its row x^j mod m.
        for j, row in enumerate(self._reduction_rows, k):
            hi = conv[j] % p
            if hi:
                for t, r in enumerate(row):
                    conv[t] += hi * r
        out = 0
        for t in range(k):
            out = out * p + conv[t] % p
        return out

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self._pow(a, self.order - 2)

    def _pow(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow(self._inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        result, base = self.one, a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    def embedding(self, field: "ExtensionField", root: int):
        """The field map into ``field`` sending x to ``root``, a root there of the modulus."""
        powers = [field.one]
        for _ in range(self.k - 1):
            powers.append(field._mul(powers[-1], root))

        def embed(a: int) -> int:
            acc = field.zero
            for c, power in zip(to_digits(a, self.p, self.k), powers):
                if c:
                    acc = field._add(acc, field._mul(field.element(c), power))
            return acc

        return embed

    # -- vectorized kernel ------------------------------------------------------

    def vector_ops(self):
        """(add, mul) on int64 arrays of scalars; see the module docstring.

        add(a, b) and mul(a, b) take an array a and either an array b of
        the same length or one scalar b, an int, and return a new array.
        """
        if self.order > _MAX_INDEXED_ORDER:
            raise BudgetExceededError(
                f"indexing the {self.order} elements of F_{self.p}^{self.k} "
                f"exceeds the int64 limit {_MAX_INDEXED_ORDER}",
                required=self.order,
                budget=_MAX_INDEXED_ORDER,
            )
        tables = self.numpy_tables()
        if tables is None:
            return self._digit_ops()
        exp, log, zech = tables

        def mul(a, b):
            return exp[log[a] + log[b]]

        if zech is None:  # p = 2: XOR adds base-2 digits mod 2.
            return operator.xor, mul

        def add(a, b):
            log_a = log[a]
            return exp[log_a + zech[log[b] - log_a]]

        return add, mul

    def _digit_ops(self):
        p, k = self.p, self.k

        def reduce(x):
            # x %= p; numpy 2.4.6 beats a * b % p with this from 961 elements
            # up (4.0 vs 5.3 us; 2^17: 422 vs 677 us), losing on 31 (2.2 vs 1.1).
            x -= x // p * p
            return x

        if k == 1:
            # A scalar is its residue, and p < 2^31 keeps a * b below 2^62.
            return (lambda a, b: reduce(a + b)), (lambda a, b: reduce(a * b))

        import numpy as np

        place = np.array([p ** (k - 1 - j) for j in range(k)], dtype=np.int64)
        # out[t] += rows[t, j] * c_{k+j}: x^(k+j) mod m, as a matrix.
        rows = np.array(self._reduction_rows, dtype=np.int64).reshape(k - 1, k).T

        def digits(a):
            # (k, len(a)), or (k, 1) for one scalar: row j holds c_j.
            return reduce(a // place[:, None])

        def add(a, b):
            return place @ reduce(digits(a) + digits(b))

        def mul(a, b):
            da, db = digits(a), digits(b)
            conv = np.zeros((2 * k - 1, len(a)), dtype=np.int64)
            for i in range(k):
                conv[i : i + k] += da[i] * db
            reduce(conv)
            return place @ reduce(conv[:k] + rows @ conv[k:])

        return add, mul

    def numpy_tables(self):
        """(exp, log, zech) int64 tables for 1 < k and order <= _CHUNK, else None.

        With Q the order, exp holds 4(Q-1) + 1 indices: g^(i mod (Q-1)) for
        i < 2(Q-1), then 0.  log[a] < Q-1 is the exponent of a nonzero a,
        and log[0] = 2(Q-1), so exp[log[a] + log[b]] is a*b, 0 if a or b is.

        zech, None for p = 2, has 4(Q-1) + 1 entries read at d = log b - log a,
        negative d from the end.  zech[d] = log(1 + g^d) for |d| < Q-1, so
        exp[log a + zech[d]] is a + b; where 1 + g^d = 0 it is log 0, which
        sends a + (-a) into the zeros of exp.  The sentinels: zech[d] = 0
        for Q-1 <= d (b = 0 gives a), zech[d] = d for d <= -(Q-1) (a = 0
        gives b), and a = b = 0 lands in the zeros of exp.
        """
        if self.k == 1 or self.order > _CHUNK:
            return None
        if self._np_tables is None:
            import numpy as np

            q = self.order
            _, mul = self._digit_ops()
            exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
            exp[0] = self.one
            # Doubling: exp[s + i] = g^s * exp[i] for the next run of powers.
            s, g_s = 1, self._generator()
            while s < q - 1:
                for c0, c1 in _chunks(0, min(s, q - 1 - s), self.k):
                    exp[s + c0 : s + c1] = mul(exp[c0:c1], g_s)
                s, g_s = 2 * s, self._mul(g_s, g_s)
            exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
            log = np.empty(q, dtype=np.int64)
            log[exp[: q - 1]] = np.arange(q - 1)
            log[0] = 2 * (q - 1)
            zech = None
            if self.p != 2:
                zech = np.zeros_like(exp)
                # Adding one adds 1 mod p to c_0, the leading digit.
                zech[: q - 1] = log[(exp[: q - 1] + self.one) % q]
                zech[3 * (q - 1) + 1 :] = zech[: q - 1]
                zech[2 * (q - 1) + 1 : 3 * (q - 1) + 1] = np.arange(-2 * (q - 1), -(q - 1))
            self._np_tables = (exp, log, zech)
        return self._np_tables

    def quadratic_character(self):
        """chi as an int8 table over the scalars for order <= _CHUNK, else None.

        chi[0] = 0, chi[s] = 1 for a nonzero square s and -1 otherwise; it
        is built from one kernel product, the squares of the nonzero
        elements.
        """
        if self.order > _CHUNK:
            return None
        if self._np_chi is None:
            import numpy as np

            _, mul = self.vector_ops()
            nonzero = np.arange(1, self.order, dtype=np.int64)
            chi = np.full(self.order, -1, dtype=np.int8)
            chi[mul(nonzero, nonzero)] = 1
            chi[0] = 0
            self._np_chi = chi
        return self._np_chi

    def chi_sum(self, values) -> int:
        """The sum of the quadratic character over an int64 array of scalars.

        Read from the cached table (quadratic_character) up to _CHUNK
        elements.  Above it, s^((Q-1)/2) on the kernel is 1, -1 or 0 for
        s = 0 (Euler's criterion), and the sum is
        2 #{s^((Q-1)/2) = 1} - #{s != 0}.
        """
        import numpy as np

        chi = self.quadratic_character()
        if chi is not None:
            return int(chi[values].sum())
        _, mul = self.vector_ops()
        power, base, e = None, values, (self.order - 1) // 2
        while e:
            if e & 1:
                power = base if power is None else mul(power, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return 2 * int(np.count_nonzero(power == self.one)) - int(np.count_nonzero(values))

    def _generator(self) -> int:
        """The least nonzero scalar of multiplicative order Q - 1."""
        n = self.order - 1
        primes = _prime_factors(n)
        return next(
            g
            for g in range(1, self.order)
            if all(self._pow(g, n // r) != self.one for r in primes)
        )

    def __repr__(self):
        return f"ExtensionField(p={self.p}, k={self.k}, modulus={self.modulus})"


def check_characteristic(p) -> None:
    """Raise unless p is a prime below MAX_CHARACTERISTIC; builds no field."""
    if not isinstance(p, int) or p < 2:
        raise NotPrimeError(f"characteristic must be an integer >= 2, got {p!r}")
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {p} exceeds supported bound 2^31")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


@lru_cache(maxsize=None)
def make_extension(p: int, k: int) -> ExtensionField:
    """F_{p^k} with the lexicographically smallest monic irreducible modulus."""
    check_characteristic(p)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k!r}")
    return ExtensionField(p, k, _smallest_irreducible(p, k))

