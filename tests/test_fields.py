import itertools
import random

import pytest

from fqzeta.errors import MixedFieldsError, NotPrimeError
from fqzeta.fields import (
    enumerate_elements,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    is_prime,
    make_extension,
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
    with pytest.raises(NotPrimeError):
        make_extension(4, 1)


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


def test_modulus_deterministic_and_cached():
    f1 = make_extension(3, 4)
    f2 = make_extension(3, 4)
    assert f1 is f2
    assert f1.modulus == make_extension(3, 4).modulus


def test_prime_field_arithmetic_examples():
    f5 = make_extension(5, 1)
    assert field_add(f5.element(3), f5.element(4)) == f5.element(2)
    assert field_inv(f5.element(2)) == f5.element(3)
    assert field_neg(f5.element(2)) == f5.element(3)
    assert field_mul(f5.element(2), f5.element(4)) == f5.element(3)


def test_f4_square_of_generator():
    # Modulus is x^2 + x + 1, so x * x reduces to x + 1.
    f4 = make_extension(2, 2)
    x = f4.element((0, 1))
    assert (x * x).coeffs == (1, 1)
    assert x.inverse().coeffs == (1, 1)
    assert x * x.inverse() == f4.one


def test_enumerate_elements_examples():
    assert [e.coeffs for e in enumerate_elements(make_extension(2, 1))] == [(0,), (1,)]
    assert [e.coeffs for e in enumerate_elements(make_extension(3, 1))] == [
        (0,),
        (1,),
        (2,),
    ]
    f9 = list(enumerate_elements(make_extension(3, 2)))
    assert len(f9) == 9
    assert f9[0].coeffs == (0, 0)
    assert f9[-1].coeffs == (2, 2)
    assert len({e.coeffs for e in f9}) == 9


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (3, 4)])
def test_field_axioms_random_triples(p, k):
    field = make_extension(p, k)
    rng = random.Random(20240 + p * 10 + k)
    elems = [field.element(tuple(rng.randrange(p) for _ in range(k))) for _ in range(60)]
    one = field.one
    for _ in range(2000):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == one


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_frobenius_is_additive(p, k):
    field = make_extension(p, k)
    for a in field.elements():
        for b in field.elements():
            assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 4), (7, 2)])
def test_multiplicative_group_order(p, k):
    field = make_extension(p, k)
    n = p**k
    for a in field.elements():
        if not a.is_zero():
            assert a ** (n - 1) == field.one
            assert a * a.inverse() == field.one


def test_numpy_tables_match_direct():
    field = make_extension(3, 3)
    add_t, mul_t = field.numpy_tables()
    n = field.order
    for ai in range(n):
        for bi in range(n):
            a, b = field.tuple_at(ai), field.tuple_at(bi)
            assert add_t[ai * n + bi] == field.index_of(field._add(a, b))
            assert mul_t[ai * n + bi] == field.index_of(field._mul(a, b))


@pytest.mark.parametrize(
    "p,k,work,tables",
    [
        pytest.param(3, 3, 27, False, id="3-3-digit-kernel"),
        pytest.param(3, 3, 27**2, True, id="3-3"),
        pytest.param(1031, 1, 1031**2, False, id="1031-1"),
        pytest.param(37, 2, 37**4, False, id="37-2"),
        pytest.param(2, 11, 2**22, False, id="2-11"),
        pytest.param(2**31 - 1, 2, 2**40, False, id="2147483647-2"),
    ],
)
def test_vector_ops_match_scalar_arithmetic(p, k, work, tables, fresh_tables):
    # Random indices cover both kernels in F_27 (gather tables once the work
    # reaches order^2, digit-wise convolution below it), the convolution in
    # fields above the table cap and, at p = 2^31 - 1, digits whose products
    # reach 2^62: the int64 headroom the convolution must respect.
    import numpy as np

    field = fresh_tables(make_extension(p, k))
    rng = random.Random(p * 100 + k)
    a = [rng.randrange(field.order) for _ in range(300)] + [0, 1, field.order - 1]
    b = [rng.randrange(field.order) for _ in range(300)] + [field.order - 1] * 3
    add, mul = field.vector_ops(work)
    assert (field._np_tables is not None) == tables
    got_add = add(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    got_mul = mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    for i, (x, y) in enumerate(zip(a, b)):
        tx, ty = field.tuple_at(x), field.tuple_at(y)
        assert got_add[i] == field.index_of(field._add(tx, ty))
        assert got_mul[i] == field.index_of(field._mul(tx, ty))


def test_vector_ops_reuses_cached_tables_for_any_work(monkeypatch):
    field = make_extension(3, 3)
    field.numpy_tables()

    def no_digit_kernel():
        raise AssertionError("cached tables were not used")

    monkeypatch.setattr(field, "_digit_ops", no_digit_kernel)
    field.vector_ops(1)


def test_numpy_tables_refused_for_large_fields():
    assert make_extension(1031, 1).numpy_tables() is None


def test_mixed_fields_rejected():
    a = make_extension(5, 1).element(2)
    b = make_extension(7, 1).element(2)
    with pytest.raises(MixedFieldsError):
        _ = a + b
    with pytest.raises(MixedFieldsError):
        _ = a * b


def test_zero_inversion_raises():
    field = make_extension(5, 2)
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        _ = field.one / field.zero


def test_index_tuple_round_trip():
    field = make_extension(3, 3)
    for i, t in enumerate(field._tuples()):
        assert field.index_of(t) == i
        assert field.tuple_at(i) == t


def test_element_int_coercion_and_pow():
    field = make_extension(5, 2)
    a = field.element((2, 3))
    assert a + 1 == field.element((3, 3))
    assert 2 * a == field.element((4, 1))
    assert a ** (-1) == a.inverse()
    assert a**0 == field.one
