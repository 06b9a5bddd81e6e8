import itertools
import random

import pytest

from fqzeta.errors import NotPrimeError
from fqzeta.fields import (
    _CHUNK,
    _prime_factors,
    add_digits,
    from_digits,
    is_prime,
    make_extension,
    to_digits,
)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(10000):
        assert is_prime(n) == trial(n), n
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)


def test_prime_field_rejects_composites_and_bounds():
    with pytest.raises(NotPrimeError):
        make_extension(4, 1)
    with pytest.raises(NotPrimeError):
        make_extension(1, 1)
    with pytest.raises(NotPrimeError):
        make_extension(0, 1)
    with pytest.raises(ValueError):
        make_extension(2**31 + 11, 1)
    assert make_extension(7, 1).p == 7


def test_make_extension_rejects_composite_p():
    for p, k in [(4, 1), (9, 2), (6, 3)]:
        with pytest.raises(NotPrimeError):
            make_extension(p, k)


def test_degree_one_modulus_is_x():
    assert make_extension(2, 1).modulus == (0, 1)
    assert make_extension(13, 1).modulus == (0, 1)


def _lex_smallest_quadratic_without_roots(p):
    # Independent oracle: a monic quadratic over F_p is irreducible iff it
    # has no roots; scan candidates in lex order on (c0, c1).
    for c0, c1 in itertools.product(range(p), repeat=2):
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_modulus_is_lex_smallest_irreducible_quadratic(p):
    assert make_extension(p, 2).modulus == _lex_smallest_quadratic_without_roots(p)


def _lex_smallest_irreducible_by_sieve(p, k):
    # Independent oracle in plain int arithmetic: mark every product of monic
    # polynomials of degrees i and k - i, 1 <= i <= k/2; the reducible ones
    # are exactly these.  Candidates run in lex order on (c_0, ..., c_{k-1}).
    def monic(d):
        return [c + (1,) for c in itertools.product(range(p), repeat=d)]

    reducible = set()
    for i in range(1, k // 2 + 1):
        for f in monic(i):
            for g in monic(k - i):
                prod = [0] * (k + 1)
                for a, cf in enumerate(f):
                    for b, cg in enumerate(g):
                        prod[a + b] = (prod[a + b] + cf * cg) % p
                reducible.add(tuple(prod))
    return next(f for f in monic(k) if f not in reducible)


@pytest.mark.parametrize(
    "p,k", [(2, k) for k in range(3, 9)] + [(3, 3), (3, 4), (3, 5), (5, 3), (5, 4)]
)
def test_modulus_is_lex_smallest_irreducible(p, k):
    # Degree k needs floor(k/2) Frobenius steps x^(p^i) = (x^(p^(i-1)))^p.
    assert make_extension(p, k).modulus == _lex_smallest_irreducible_by_sieve(p, k)


def test_modulus_deterministic_and_cached():
    f1 = make_extension(3, 4)
    f2 = make_extension(3, 4)
    assert f1 is f2
    assert f1.modulus == make_extension(3, 4).modulus


def test_prime_field_arithmetic_examples():
    f5 = make_extension(5, 1)
    assert f5._add(3, 4) == 2
    assert f5._inv(2) == 3
    assert f5._sub(f5.zero, 2) == 3
    assert f5._sub(1, 3) == 3
    assert f5._mul(2, 4) == 3


def test_f4_square_of_generator():
    # Modulus is x^2 + x + 1, so x * x reduces to x + 1.
    f4 = make_extension(2, 2)
    x, x_plus_1 = f4.element((0, 1)), f4.element((1, 1))
    assert (x, x_plus_1, f4.one) == (1, 3, 2)
    assert f4._mul(x, x) == x_plus_1
    assert f4._inv(x) == x_plus_1
    assert f4._mul(x, f4._inv(x)) == f4.one


def test_enumerate_elements_examples():
    # Scalars in order list their digits lexicographically, c_0 slowest.
    assert [to_digits(i, 2, 1) for i in range(2)] == [[0], [1]]
    assert [to_digits(i, 3, 1) for i in range(3)] == [[0], [1], [2]]
    f9 = [tuple(to_digits(i, 3, 2)) for i in range(9)]
    assert f9 == sorted(set(f9))
    assert f9[0] == (0, 0)
    assert f9[-1] == (2, 2)
    field = make_extension(3, 2)
    assert (field.zero, field.one, field.element((2, 2))) == (0, 3, 8)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (3, 4)])
def test_field_axioms_random_triples(p, k):
    field = make_extension(p, k)
    add, mul = field._add, field._mul
    rng = random.Random(20240 + p * 10 + k)
    elems = [field.element([rng.randrange(p) for _ in range(k)]) for _ in range(60)]
    for _ in range(2000):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(field._sub(a, b), b) == a
        if a:
            assert mul(a, field._inv(a)) == field.one


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_frobenius_is_additive(p, k):
    field = make_extension(p, k)
    for a in range(field.order):
        for b in range(field.order):
            lhs = field._pow(field._add(a, b), p)
            assert lhs == field._add(field._pow(a, p), field._pow(b, p))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 4), (7, 2)])
def test_multiplicative_group_order(p, k):
    field = make_extension(p, k)
    n = p**k
    for a in range(1, n):
        assert field._pow(a, n - 1) == field.one
        assert field._mul(a, field._inv(a)) == field.one


def test_numpy_tables_match_direct():
    # Every sum and product in F_4, F_8, F_9, F_25, F_27 and F_49 through the
    # exp/log kernel, 0 included as either operand and as both, and b = -a
    # among the pairs; p = 2 adds by XOR, odd p by Zech logarithms.
    import numpy as np

    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]:
        field = make_extension(p, k)
        n = field.order
        a = np.repeat(np.arange(n, dtype=np.int64), n)
        b = np.tile(np.arange(n, dtype=np.int64), n)
        add, mul = field.vector_ops()
        assert field._np_tables is not None
        got_add, got_mul = add(a, b).tolist(), mul(a, b).tolist()
        for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            assert got_add[i] == field._add(x, y), (p, k, x, y)
            assert got_mul[i] == field._mul(x, y), (p, k, x, y)


@pytest.mark.parametrize("p,k", [(31, 2), (37, 2), (2, 10), (3, 7)])
def test_exp_table_runs_through_every_nonzero_index(p, k):
    # g is primitive iff its first Q - 1 powers are the Q - 1 nonzero
    # elements.  In F_{31^2} and F_{37^2} the class of x, the root of the
    # modulus, is not primitive.  Odd p adds by Zech logarithms:
    # exp[zech[d]] = 1 + g^d, for negative d read from the end, and 0 where
    # g^d = -1; p = 2 adds by XOR and keeps no zech.
    import numpy as np

    field = make_extension(p, k)
    exp, log, zech = field.numpy_tables()
    q = field.order
    assert sorted(exp[: q - 1].tolist()) == list(range(1, q))
    assert (exp[: 2 * (q - 1)] == np.tile(exp[: q - 1], 2)).all()
    assert not exp[2 * (q - 1) :].any() and len(exp) == 4 * (q - 1) + 1
    assert (log[exp[: q - 1]] == np.arange(q - 1)).all() and log[0] == 2 * (q - 1)
    if p == 2:
        assert zech is None
        return
    assert len(zech) == len(exp)
    powers = exp[: q - 1].tolist()
    for d in range(-(q - 2), q - 1):
        assert exp[zech[d]] == field._add(field.one, powers[d % (q - 1)]), d


@pytest.mark.parametrize(
    "p,k,digits",
    [
        pytest.param(3, 3, True, id="3-3-digit-kernel"),
        pytest.param(3, 3, False, id="3-3"),
        pytest.param(7, 1, False, id="7-1-digit-kernel"),
        pytest.param(31, 1, False, id="31-1"),
        pytest.param(1031, 1, False, id="1031-1"),
        pytest.param(2**31 - 1, 1, False, id="2147483647-1"),
        pytest.param(3, 4, False, id="3-4"),
        pytest.param(31, 2, False, id="31-2"),
        pytest.param(37, 2, False, id="37-2"),
        pytest.param(367, 2, False, id="367-2"),
        pytest.param(2, 7, False, id="2-7"),
        pytest.param(2, 11, False, id="2-11"),
        pytest.param(2, 17, False, id="2-17"),
        pytest.param(2, 18, False, id="2-18"),
        pytest.param(2**31 - 1, 2, False, id="2147483647-2"),
    ],
)
def test_vector_ops_match_scalar_arithmetic(p, k, digits, fresh_tables):
    # Random indices, 0 and Q - 1 among them, cover the exp/log kernel of
    # every field with 1 < k up to the cap F_{2^17}; the digit-wise kernel
    # above it and, with ``digits``, in F_27, where it adds and fills exp;
    # the residue kernel of F_p; and, at p = 2^31 - 1, digits and residues
    # whose products reach 2^62: the int64 headroom both kernels must
    # respect.  Each kernel also takes one scalar, an int, as the second
    # operand, and must treat it as that scalar broadcast to an array:
    # residues (F_31, F_{2^31 - 1}), XOR (F_{2^7}), Zech tables (F_{3^4},
    # F_{31^2}) and digits (F_{367^2}).
    import numpy as np

    field = fresh_tables(make_extension(p, k))
    rng = random.Random(p * 100 + k)
    a = [rng.randrange(field.order) for _ in range(300)] + [0, 1, field.order - 1, 0]
    b = [rng.randrange(field.order) for _ in range(300)] + [field.order - 1] * 3 + [0]
    add, mul = field._digit_ops() if digits else field.vector_ops()
    assert (field._np_tables is not None) == (not digits and 1 < k and field.order <= _CHUNK)
    got_add = add(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    got_mul = mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    for i, (x, y) in enumerate(zip(a, b)):
        assert got_add[i] == field._add(x, y)
        assert got_mul[i] == field._mul(x, y)
    vec = np.array(a, dtype=np.int64)
    for s in (0, field.one, field._sub(0, field.one), rng.randrange(field.order)):
        broadcast = np.full_like(vec, s)
        assert (add(vec, s) == add(vec, broadcast)).all(), s
        assert (mul(vec, s) == mul(vec, broadcast)).all(), s


def test_vector_ops_reuses_cached_tables(monkeypatch):
    field = make_extension(3, 3)
    field.vector_ops()
    tables = field._np_tables

    def no_rebuild():
        raise AssertionError("the tables were built again")

    monkeypatch.setattr(field, "_generator", no_rebuild)
    field.vector_ops()
    assert field._np_tables is tables


def _euler_character(field):
    """chi of every scalar by Euler's criterion, s^((Q-1)/2), on the digit kernel."""
    import numpy as np

    _, mul = field._digit_ops()
    power, base = np.full(field.order, field.one, dtype=np.int64), np.arange(field.order, dtype=np.int64)
    e = (field.order - 1) // 2
    while e:
        if e & 1:
            power = mul(power, base)
        base, e = mul(base, base), e >> 1
    chi = np.where(power == field.one, 1, -1)
    chi[0] = 0
    return chi


@pytest.mark.parametrize("p,k", [(3, 1), (31, 1), (1031, 1), (3, 4), (31, 2), (3, 10)])
def test_quadratic_character_table_matches_euler(p, k, fresh_tables):
    field = fresh_tables(make_extension(p, k))
    chi = field.quadratic_character()
    assert field._np_chi is chi
    assert (chi == _euler_character(field)).all()
    # Half the nonzero elements are squares.
    assert int((chi == 1).sum()) == (field.order - 1) // 2


def test_prime_factors_match_the_full_scan():
    # Every order Q - 1 of a field with exp/log tables, 1 < k and Q <= 2^17;
    # the generator search needs exactly the primes the old scan over every
    # r <= Q - 1 found, in the same order.
    orders = [p**k for p in range(2, 363) if is_prime(p) for k in range(2, 18) if p**k <= _CHUNK]
    for q in orders:
        n = q - 1
        assert _prime_factors(n) == [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)], q
    assert _prime_factors(1) == [] and _prime_factors(2**31 - 2) == [2, 3, 7, 11, 31, 151, 331]


def test_numpy_tables_refused_for_large_fields():
    # 367^2 is the least prime power above the cap 2^17 with k > 1.  F_p has
    # no exp/log tables, but a chi table up to the cap; 131101 is the least
    # prime above it.
    assert make_extension(367, 2).numpy_tables() is None
    assert make_extension(1031, 1).numpy_tables() is None
    assert make_extension(367, 2).quadratic_character() is None
    assert make_extension(131101, 1).quadratic_character() is None


def test_zero_inversion_raises():
    field = make_extension(5, 2)
    with pytest.raises(ZeroDivisionError):
        field._inv(field.zero)
    with pytest.raises(ZeroDivisionError):
        field._pow(field.zero, -1)


def test_index_tuple_round_trip():
    # The spec boundary: digits (c_0, ..., c_{k-1}) in lexicographic order
    # are the scalars 0, 1, ... in order, and back.
    for i, t in enumerate(itertools.product(range(3), repeat=3)):
        assert from_digits(t, 3) == i
        assert to_digits(i, 3, 3) == list(t)
        assert from_digits([c + 3 * i for c in t], 3) == i  # reduced mod p
        # add_digits adds and subtracts digit by digit, with no carry.
        for j, u in enumerate(itertools.product(range(3), repeat=3)):
            assert add_digits(i, j, 3) == from_digits([a + b for a, b in zip(t, u)], 3)
            assert add_digits(i, j, 3, -1) == from_digits([a - b for a, b in zip(t, u)], 3)


def test_element_int_coercion_and_pow():
    field = make_extension(5, 2)
    assert field.element(-4) == field.element((1, 0)) == 5
    assert field.element((7, -2)) == 2 * 5 + 3
    assert (field.zero, field.one) == (0, 5)
    with pytest.raises(ValueError):
        field.element((1, 2, 3))
    a = field.element((2, 3))
    assert field._pow(a, -1) == field._inv(a)
    assert field._pow(a, -2) == field._mul(field._inv(a), field._inv(a))
    assert field._pow(a, 0) == field.one
