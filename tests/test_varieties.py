import itertools
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from purecount import count_pure, embedded_equations

from fqzeta.errors import BudgetExceededError, MalformedSpecError
from fqzeta.fields import make_extension, to_digits
from fqzeta.varieties import (
    VarietySpec,
    count_points,
    count_series,
    domain_size,
    load_spec,
)


def _projective_space(p, k, dim):
    return VarietySpec.from_dict(
        {
            "label": f"P^{dim}",
            "p": p,
            "k": k,
            "ambient": {"type": "projective", "dim": dim},
            "equations": [],
        }
    )


def _curve(p, a, b):
    """y^2 z = x^3 + a x z^2 + b z^3 in P^2 over F_p."""
    return VarietySpec.from_dict(
        {
            "label": f"E_{a},{b}",
            "p": p,
            "k": 1,
            "ambient": {"type": "projective", "dim": 2},
            "equations": [[[1, [0, 2, 1]], [-1, [3, 0, 0]], [-a, [1, 0, 2]], [-b, [0, 0, 3]]]],
        }
    )


def _legendre(v, p):
    e = pow(v, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _affine_space(p, dim):
    return VarietySpec.from_dict(
        {
            "label": f"A^{dim}",
            "p": p,
            "k": 1,
            "ambient": {"type": "affine", "dim": dim},
            "equations": [],
        }
    )


@pytest.fixture(scope="module")
def elliptic(fixtures_dir):
    return load_spec(fixtures_dir / "elliptic_f5.json")


def test_projective_line_over_f3():
    assert count_points(_projective_space(3, 1, 1), 2) == 10


def test_elliptic_f5_against_naive_oracle(elliptic):
    # Oracle: direct (x, y) sweep of the affine chart z = 1 plus the single
    # point at infinity [0:1:0] on y^2 z = x^3 + x z^2 + z^3.
    affine = sum(
        1 for x in range(5) for y in range(5) if (y * y - x**3 - x - 1) % 5 == 0
    )
    assert affine + 1 == 9
    assert count_points(elliptic, 1) == 9


def test_inconsistent_affine_system(fixtures_dir):
    spec = load_spec(fixtures_dir / "affine_inconsistent.json")
    assert count_points(spec, 1) == 0
    assert count_series(spec, 2).counts == (0, 0)


def test_count_series_examples(fixtures_dir, elliptic):
    assert count_series(load_spec(fixtures_dir / "p2_f2.json"), 3).counts == (7, 21, 73)
    assert count_series(load_spec(fixtures_dir / "p1_f5.json"), 2).counts == (6, 26)
    assert count_series(elliptic, 2).counts == (9, 27)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("dim", [1, 2])
def test_projective_closed_form(p, k, dim):
    q = p**k
    spec = _projective_space(p, k, dim)
    for n in (1, 2):
        qn = q**n
        assert count_points(spec, n) == (qn ** (dim + 1) - 1) // (qn - 1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_closed_form(p, dim):
    spec = _affine_space(p, dim)
    assert count_points(spec, 1) == p**dim
    assert count_points(spec, 2) == p ** (2 * dim)


def test_product_rule_on_affine_pieces():
    # V(f) x V(g) in A^2 with f in x only and g in y only.
    p = 7
    curve_x = VarietySpec.from_dict(
        {
            "label": "V(x^2-2)",
            "p": p,
            "k": 1,
            "ambient": {"type": "affine", "dim": 1},
            "equations": [[[1, [2]], [-2, [0]]]],
        }
    )
    curve_y = VarietySpec.from_dict(
        {
            "label": "V(y^3-y)",
            "p": p,
            "k": 1,
            "ambient": {"type": "affine", "dim": 1},
            "equations": [[[1, [3]], [-1, [1]]]],
        }
    )
    product = VarietySpec.from_dict(
        {
            "label": "V(x^2-2, y^3-y)",
            "p": p,
            "k": 1,
            "ambient": {"type": "affine", "dim": 2},
            "equations": [[[1, [2, 0]], [-2, [0, 0]]], [[1, [0, 3]], [-1, [0, 1]]]],
        }
    )
    for n in (1, 2):
        nx = count_points(curve_x, n)
        ny = count_points(curve_y, n)
        assert count_points(product, n) == nx * ny


@pytest.mark.parametrize("pieces", [1, 2, 4])
def test_partition_additivity(elliptic, pieces):
    # The full pass counts the chart z = 1 fibre by fibre, while every piece
    # that cuts a block evaluates that block point by point, so agreement of
    # the partition sums also cross-validates the two strategies.
    for n in (2, 3):
        total = count_points(elliptic, n)
        size = domain_size(elliptic, n)
        parts = []
        for s in range(pieces):
            lo = s * size // pieces
            hi = (s + 1) * size // pieces
            parts.append(count_points(elliptic, n, span=(lo, hi)))
        assert sum(parts) == total


def test_partition_additivity_across_chunks():
    # Over F_{37^2} this runs the exp/log kernel, in chunks of _CHUNK // 2
    # points.  The cuts fall inside chunks, so every piece starts and ends
    # off the chunk grid of the full pass.
    from fqzeta.fields import _CHUNK

    p = 37
    spec = _curve(p, 1, 1)
    n1 = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - x - 1) % p == 0)
    trace = p + 1 - n1
    assert count_points(spec, 2) == p**2 + 1 - (trace**2 - 2 * p)  # genus-1 recursion
    step = _CHUNK // 2
    cuts = [0, step // 3, step + 17, 2 * step + step // 2, 3 * step + 5]
    whole = count_points(spec, 2, span=(cuts[0], cuts[-1]))
    assert sum(count_points(spec, 2, span=s) for s in zip(cuts, cuts[1:])) == whole


def test_split_blocks_match_the_fibre_count():
    # Cutting every block of P^2 over F_{37^2} in two sends each half down
    # the direct path; the halves must add up to the fibre-counted whole.
    p = 37
    spec = _curve(p, 2, 9)
    q = p**2
    whole = count_points(spec, 2)
    n1 = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - 2 * x - 9) % p == 0)
    assert whole == q + 1 - ((p + 1 - n1) ** 2 - 2 * p)  # genus-1 recursion
    cuts = [0, q * q // 2, q * q, q * q + q // 2, q * q + q, q * q + q + 1]
    assert cuts[-1] == domain_size(spec, 2)
    assert sum(count_points(spec, 2, span=s) for s in zip(cuts, cuts[1:])) == whole


def test_span_outside_domain_counts_nothing(elliptic):
    size = domain_size(elliptic, 1)
    assert count_points(elliptic, 1, span=(size, size + 50)) == 0


def test_budget_exceeded_reports_required_size(fixtures_dir):
    spec = load_spec(fixtures_dir / "p2_f101.json")
    with pytest.raises(BudgetExceededError) as exc:
        count_points(spec, 1, budget=10)
    assert exc.value.required == 101**2 + 101 + 1
    assert exc.value.budget == 10
    with pytest.raises(BudgetExceededError, match="n=1"):
        count_series(spec, 2, budget=10)


def test_extension_coefficients_and_embedding(fixtures_dir):
    # The line x0 + g*x1 = 0 in P^1 over F_4 has exactly one point over
    # every extension; n=2 exercises the embedding F_4 -> F_16.
    spec = load_spec(fixtures_dir / "line_f4.json")
    assert spec.q == 4
    assert count_points(spec, 1) == 1
    assert count_points(spec, 2) == 1
    assert count_points(_projective_space(2, 2, 1), 1) == 5
    assert count_points(_projective_space(2, 2, 1), 2) == 17


def test_embedding_root_is_actual_root():
    from fqzeta.varieties import _make_embedding

    spec = VarietySpec.from_dict(
        {
            "label": "dummy",
            "p": 3,
            "k": 2,
            "ambient": {"type": "affine", "dim": 1},
            "equations": [],
        }
    )
    big = make_extension(3, 4)
    embed = _make_embedding(spec, big)
    base = make_extension(3, 2)
    g = embed(base.element((0, 1)))

    def modulus_at(x):
        acc = big.zero
        for c in reversed(base.modulus):
            acc = big._add(big._mul(acc, x), big.element(c))
        return acc

    # g must satisfy the base modulus inside F_81, and be its first root
    # there in scalar order.
    assert not modulus_at(g)
    assert g == next(t for t in range(big.order) if not modulus_at(t))
    assert embed(base.one) == big.one


_F9_CURVE = {  # y^2 + 2x^3 + t x + (1 + t) = 0 in A^2 over F_9 = F_3[t]
    "p": 3,
    "k": 2,
    "ambient": {"type": "affine", "dim": 2},
    "equations": [[[[1, 0], [0, 2]], [[2, 0], [3, 0]], [[0, 1], [1, 0]], [[1, 1], [0, 0]]]],
}
_F4_CUBIC = {  # y^2 z + y z^2 + x^3 + t z^3 = 0 in P^2 over F_4 = F_2[t]
    "p": 2,
    "k": 2,
    "ambient": {"type": "projective", "dim": 2},
    "equations": [[[[1, 0], [0, 2, 1]], [[1, 0], [0, 1, 2]], [[1, 0], [3, 0, 0]], [[0, 1], [0, 0, 3]]]],
}


@pytest.mark.parametrize(
    "data, pins",
    [
        (_F9_CURVE, [(12, [4, 4, 4], 1), (90, [30, 30, 30], 16)]),
        (_F4_CUBIC, [(1, [0, 0, 1], 0), (9, [2, 2, 5], 2)]),
    ],
    ids=["f9-curve", "f4-cubic"],
)
def test_extension_counts_are_pinned(data, pins):
    # Hard-coded counts over F_{q^n}, n = 1, 2, of specs with k = 2: whole,
    # by thirds of the domain and on the span 7..size // 5.  A span count
    # depends on the enumeration order, and n = 2 on the root that
    # _first_root picks to embed F_q; the oracle in purecount shares both,
    # so only fixed numbers catch a change of either.
    spec = VarietySpec.from_dict({"label": "pinned", **data})
    for n, (whole, thirds, span) in enumerate(pins, 1):
        size = domain_size(spec, n)
        cuts = [0, size // 3, 2 * size // 3, size]
        assert count_points(spec, n) == whole
        assert [count_points(spec, n, span=s) for s in zip(cuts, cuts[1:])] == thirds
        assert count_points(spec, n, span=(7, size // 5)) == span


def test_generator_is_pinned():
    # F_81's exp/log tables, and so every product the kernel forms there,
    # hang on this generator: t^2 + t^3 in F_3[t] / (m), index 4.
    field = make_extension(3, 4)
    assert field._generator() == field.element((0, 0, 1, 1)) == 4


def test_malformed_specs_rejected():
    base = {
        "label": "bad",
        "p": 3,
        "k": 1,
        "ambient": {"type": "projective", "dim": 1},
        "equations": [],
    }
    with pytest.raises(MalformedSpecError, match="homogeneous"):
        VarietySpec.from_dict(
            {**base, "equations": [[[1, [2, 0]], [1, [1, 0]]]]}
        )
    with pytest.raises(MalformedSpecError, match="length"):
        VarietySpec.from_dict({**base, "equations": [[[1, [1]]]]})
    with pytest.raises(MalformedSpecError, match="nonnegative"):
        VarietySpec.from_dict({**base, "equations": [[[1, [-1, 1]]]]})
    with pytest.raises(MalformedSpecError, match="missing"):
        VarietySpec.from_dict({"label": "x"})
    with pytest.raises(MalformedSpecError, match="ambient"):
        VarietySpec.from_dict({**base, "ambient": {"type": "weighted", "dim": 1}})
    with pytest.raises(MalformedSpecError, match="int when k=1"):
        VarietySpec.from_dict({**base, "equations": [[[[1, 0], [2, 0]]]]})
    with pytest.raises(MalformedSpecError, match="length-2 list"):
        VarietySpec.from_dict({**base, "k": 2, "equations": [[[3, [2, 0]]]]})
    with pytest.raises(MalformedSpecError, match="list of ints"):
        VarietySpec.from_dict({**base, "k": 2, "equations": [[[[1, None], [1, 0]]]]})


def test_spec_must_be_an_object_and_n_positive():
    with pytest.raises(MalformedSpecError, match="variety spec must be a JSON object"):
        VarietySpec.from_dict([])
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        count_points(_projective_space(3, 1, 1), 0)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"ambient": "projective"}, "ambient must be an object"),
        ({"ambient": None}, "ambient must be an object"),
        ({"equations": 5}, "equations must be a list"),
        ({"equations": {"a": 1}}, "equations must be a list"),
        ({"equations": [5]}, "equation 0 must be a list"),
        ({"p": 6}, "6 is not prime"),
        ({"p": 1}, "integer >= 2"),
        ({"p": 2**31 + 11}, "exceeds supported bound"),
        ({"p": True}, "p must be an int"),
        ({"k": True}, "k a positive int"),
        ({"ambient": {"type": "affine", "dim": True}}, "dimension"),
        ({"equations": [[[True, [1, 0]]]]}, "int when k=1"),
        ({"equations": [[[1, [1, False]]]]}, "nonnegative integers"),
        ({"label": 5}, "label must be a string"),
    ],
)
def test_spec_shape_errors_are_malformed(change, message):
    base = {
        "label": "bad",
        "p": 3,
        "k": 1,
        "ambient": {"type": "projective", "dim": 1},
        "equations": [],
    }
    with pytest.raises(MalformedSpecError, match=message):
        VarietySpec.from_dict({**base, **change})


def test_loading_a_spec_builds_no_field():
    # Validating p must not search for a degree-k modulus: that search takes
    # about a minute at k = 512, for a field no budget admits.
    misses = make_extension.cache_info().misses
    _projective_space(2, 160, 0)
    assert make_extension.cache_info().misses == misses


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
        path.write_bytes(content)
        with pytest.raises(MalformedSpecError, match="JSON"):
            load_spec(path)


def test_spec_dict_round_trip(fixtures_dir):
    for name in ("elliptic_f5.json", "line_f4.json", "p2_f2.json"):
        spec = load_spec(fixtures_dir / name)
        again = VarietySpec.from_dict(spec.to_dict())
        assert again == spec


def test_zero_coefficient_terms_dropped():
    spec = VarietySpec.from_dict(
        {
            "label": "zero eq",
            "p": 5,
            "k": 1,
            "ambient": {"type": "affine", "dim": 1},
            "equations": [[[5, [1]], [10, [0]]]],
        }
    )
    # Both terms vanish mod 5, leaving the zero polynomial: no constraint.
    assert spec.equations == ((),)
    assert count_points(spec, 1) == 5


def _binary_form_p1(p, terms):
    return VarietySpec.from_dict(
        {
            "label": "form",
            "p": p,
            "k": 1,
            "ambient": {"type": "projective", "dim": 1},
            "equations": [terms],
        }
    )


@pytest.mark.parametrize(
    "spec,n,span,expected",
    [
        pytest.param(_curve(5, 1, 1), 2, None, 27, id="F5^2-tables"),
        pytest.param(_curve(37, 1, 1), 2, (900_001, 904_097), 4, id="F37^2"),
        # x^11 + x^2 + 1 is irreducible over F_2: 11 roots in F_{2^11}.
        pytest.param(
            _binary_form_p1(2, [[1, [11, 0]], [1, [9, 2]], [1, [0, 11]]]),
            11, None, 11, id="F2^11",
        ),
        # Over F_{p^2} = F_p[t]/(t^2 + 1) the first 4096 points of A^1 are
        # x = j t, j < 4096; x^4 = 16 holds only for j = 2.  The powers of x
        # have digits near p, so their products reach 2^62.
        pytest.param(
            VarietySpec.from_dict(
                {
                    "label": "x^4 = 16",
                    "p": 2**31 - 1,
                    "k": 1,
                    "ambient": {"type": "affine", "dim": 1},
                    "equations": [[[1, [4]], [-16, [0]]]],
                }
            ),
            2, (0, 4096), 1, id="F(2^31-1)^2-span",
        ),
    ],
)
def test_pure_and_numpy_backends_agree(spec, n, span, expected):
    field = make_extension(spec.p, spec.k * n)
    size = domain_size(spec, n)
    lo, hi = span or (0, size)
    pure = count_pure(spec, field, embedded_equations(spec, field), lo, hi)
    assert pure == count_points(spec, n, span=(lo, hi), budget=size) == expected


def test_single_point_over_field_beyond_int64():
    # P^0 over F_{p^4}, p = 2^31 - 1: the field has about 2^124 elements, so
    # the lone point [1] must be counted without indexing the field.
    p = 2**31 - 1

    def point(equations):
        return VarietySpec.from_dict(
            {
                "label": "P^0",
                "p": p,
                "k": 1,
                "ambient": {"type": "projective", "dim": 0},
                "equations": equations,
            }
        )

    assert count_points(point([]), 4) == 1
    assert count_points(point([[[1, [1]]]]), 4) == 0
    assert count_points(point([[[3, [1]], [-3, [1]]]]), 4) == 1


def test_field_beyond_int64_is_indexed_only_where_a_count_must():
    one, g = [1] + [0] * 69, [0, 1] + [0] * 68

    def projective(dim, equations):
        return VarietySpec.from_dict(
            {
                "label": "over F_2^70",
                "p": 2,
                "k": 70,
                "ambient": {"type": "projective", "dim": dim},
                "equations": equations,
            }
        )

    budget = 10**24
    line = projective(1, [[[one, [1, 0]], [g, [0, 1]]]])
    # count_pure would find the one point [1 : 1/g] in the chart x_0 = 1
    # and none at [0 : 1], where g != 0.  A whole block with one free
    # coordinate is counted by a gcd over F_2^70, with no index.
    assert count_points(line, 1, budget=budget) == 1
    # The chart x_0 = 1 of the conic reads 1 + x_1 x_2 = 0, linear in x_1:
    # it is counted by roots over F_2^70, 2^70 + 1 points as on any smooth
    # conic.  The cubic's chart 1 + x_1^2 x_2 + x_2^3 has no linear
    # coordinate and no halves, so its two free coordinates must index.
    conic = projective(2, [[[one, [2, 0, 0]], [one, [0, 1, 1]]]])
    assert count_points(conic, 1, budget=10**43) == 2**70 + 1
    cubic = projective(2, [[[one, [3, 0, 0]], [one, [0, 2, 1]], [one, [0, 0, 3]]]])
    with pytest.raises(BudgetExceededError, match="int64"):
        count_points(cubic, 1, budget=10**43)
    # The one-point block [0:1], P^0 and a space with no equations need no index.
    size = 2**70 + 1
    assert count_points(line, 1, budget=budget, span=(size - 1, size)) == 0
    assert count_points(projective(0, [[[g, [1]]]]), 1, budget=budget) == 0
    assert count_points(projective(1, []), 1, budget=budget) == size


# The point counter builds exp/log tables for a field F_{p^k} with k > 1 and
# at most 2^17 elements, and none over F_p or above 2^17.  A fibre count with
# a quadratic fibre also builds the quadratic character table of a field of
# at most 2^17 elements, F_p included; no other count does.  fresh_tables
# clears the session-wide cached tables first, so these checks do not
# depend on test order.


def test_projective_line_over_f1024_builds_tables(fresh_tables):
    # x^5 + x^2 y^3 + y^5 = 0 in P^1 over F_{2^10}: 1025 points.  The whole
    # chart x = 1 is counted by a gcd and builds no tables; its two halves
    # are evaluated point by point, through the tables.
    spec = _binary_form_p1(2, [[1, [5, 0]], [1, [2, 3]], [1, [0, 5]]])
    field = fresh_tables(make_extension(2, 10))
    got = count_points(spec, 10)
    size = domain_size(spec, 10)
    assert field._np_tables is None
    halves = count_points(spec, 10, span=(0, 512)) + count_points(spec, 10, span=(512, size))
    assert field._np_tables is not None and field._np_chi is None
    eqs = embedded_equations(spec, field)
    assert got == halves == count_pure(spec, field, eqs, 0, size)


def test_plane_curve_count_builds_tables(fresh_tables):
    # Every coordinate of x^3 + y^3 + z^3 + xyz has degree 3, and xyz links
    # them all, so the 625 points of the chart x = 1 over F_{5^2} are
    # evaluated.  (The chart x = 0, y = 1 has one free coordinate and is
    # counted by a gcd.)  Counted over F_5, the same chart builds no tables.
    # Neither count goes by fibres, so neither builds chi.
    spec = VarietySpec.from_dict(
        {
            "label": "linked cubic",
            "p": 5,
            "k": 1,
            "ambient": {"type": "projective", "dim": 2},
            "equations": [[[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]], [1, [1, 1, 1]]]],
        }
    )
    base = fresh_tables(make_extension(5, 1))
    field = fresh_tables(make_extension(5, 2))
    counts = count_series(spec, 2).counts
    assert base._np_tables is None and field._np_tables is not None
    assert base._np_chi is None and field._np_chi is None
    for n, got in enumerate(counts, start=1):
        ext = make_extension(5, n)
        assert got == count_pure(spec, ext, embedded_equations(spec, ext), 0, domain_size(spec, n))


def test_weierstrass_n2_over_f31_squared_builds_no_tables(fresh_tables):
    # The chart x = 1 is a plane curve of genus 1, so N_2 comes from one
    # character sum over F_31, summed in pure Python: neither the exp/log
    # tables of F_{31^2} nor its quadratic character table is built.
    # count_pure over all of P^2(F_{31^2}) would take about 40 s, so it
    # counts N_1 and the genus-1 trace recursion gives N_2.
    p = 31
    spec = _curve(p, 2, 9)  # smooth: 4*2^3 + 27*9^2 is 18 mod 31
    base = fresh_tables(make_extension(p, 1))
    field = fresh_tables(make_extension(p, 2))
    got = count_points(spec, 2)
    assert field._np_tables is None and field._np_chi is None
    assert base._np_chi is None
    n1 = count_pure(spec, base, embedded_equations(spec, base), 0, domain_size(spec, 1))
    trace = p + 1 - n1
    assert got == p**2 + 1 - (trace**2 - 2 * p)


def test_weierstrass_n2_over_f367_squared_builds_no_tables(fresh_tables):
    # The chart x = 1 is a plane curve of genus 1, so N_2 comes from one
    # character sum over F_367 and F_{367^2}, which lies above the 2^17
    # cap, is never used.  N_1 counts y^2 = x^3 + 2x + 3 by Legendre
    # symbols, and the genus-1 trace recursion gives N_2.
    p = 367
    spec = _curve(p, 2, 3)  # smooth: 4*2^3 + 27*3^2 = 275 is not 0 mod 367
    field = fresh_tables(make_extension(p, 2))
    got = count_points(spec, 2, budget=10**11)
    assert field.quadratic_character() is None and field._np_tables is None

    def legendre(v):
        e = pow(v, (p - 1) // 2, p)
        return -1 if e == p - 1 else e

    n1 = 1 + sum(1 + legendre(x**3 + 2 * x + 3) for x in range(p))
    trace = p + 1 - n1
    assert got == p**2 + 1 - (trace**2 - 2 * p)


def test_nodal_cubic_over_f367_squared_runs_euler(fresh_tables):
    # y^2 = x^3 + x^2 in A^2: D = 4x^2 (x + 1) is not squarefree, so the
    # block stays on fibres, and F_{367^2} lies above the 2^17 cap, so chi
    # is taken by Euler's criterion on the digit-wise kernel.  The node
    # (y/x)^2 = x + 1 leaves q^n - 1 points: 1 + chi(x + 1) for each x != 0
    # and the origin.
    p = 367
    spec = _one_equation(p, 1, "affine", 2, [(1, (0, 2)), (-1, (3, 0)), (-1, (2, 0))])
    field = fresh_tables(make_extension(p, 2))
    assert count_points(spec, 2, budget=10**11) == p**2 - 1
    assert field.quadratic_character() is None and field._np_tables is None


def test_linear_fibres_build_no_chi(fresh_tables):
    # y x^2 z^2 + x^2 + z^2 - 1 over F_7 is linear in y, so A vanishes
    # identically: each fibre holds [B != 0] + 7 [B = C = 0] points, and no
    # quadratic character is taken.
    spec = _four_kinds(7, 1, linear=True)
    field = fresh_tables(make_extension(7, 1))
    assert count_points(spec, 1) == count_pure(spec, field, embedded_equations(spec, field), 0, 7**3)
    assert field._np_chi is None


def test_first_root_builds_no_tables(fixtures_dir, fresh_tables):
    # F_{4^9} = F_{2^18} lies above the 2^17 cap, so the search for a root of
    # F_4's modulus runs on the digit-wise kernel.
    from fqzeta.varieties import _first_root

    spec = load_spec(fixtures_dir / "line_f4.json")
    base = make_extension(spec.p, spec.k)
    field = fresh_tables(make_extension(spec.p, spec.k * 9))
    root = _first_root(base.modulus, field)
    assert field._np_tables is None

    def value_at(x):
        acc = field.zero
        for c in reversed(base.modulus):
            acc = field._add(field._mul(acc, x), field.element(c))
        return acc

    assert root == next(t for t in range(field.order) if not value_at(t))


# Fibre counting against the oracle.  One-equation specs in A^2, A^3 and P^2
# over F_{p^k}, p <= 7, k <= 2: count_points (fibre path on whole blocks with
# a coordinate of degree <= 2, <= 1 in characteristic 2) must equal
# count_pure, which evaluates every point.


def _one_equation(p, k, kind, dim, terms):
    return VarietySpec.from_dict(
        {
            "label": "one equation",
            "p": p,
            "k": k,
            "ambient": {"type": kind, "dim": dim},
            "equations": [[[c, list(e)] for c, e in terms]],
        }
    )


def _four_kinds(p, k, linear=False):
    """y^2 x^2 z^2 + y x^2 + z^2 - 1 in A^3 over F_{p^k}, y first.

    A = x^2 z^2, B = x^2 and C = z^2 - 1 vanish on different lines, so the
    fibres over (x, z) are of all four kinds: A != 0; A = 0 != B (z = 0 !=
    x); A = B = 0 != C (x = 0, z != +-1); A = B = C = 0 (x = 0, z = +-1).
    With ``linear``, y x^2 z^2 + x^2 + z^2 - 1, whose fibres mix B != 0,
    B = 0 != C and B = C = 0.
    """
    one = [1] + [0] * (k - 1) if k > 1 else 1
    minus_one = [p - 1] + [0] * (k - 1) if k > 1 else -1
    if linear:
        terms = [(one, (1, 2, 2)), (one, (0, 2, 0)), (one, (0, 0, 2)), (minus_one, (0, 0, 0))]
    else:
        terms = [(one, (2, 2, 2)), (one, (1, 2, 0)), (one, (0, 0, 2)), (minus_one, (0, 0, 0))]
    return _one_equation(p, k, "affine", 3, terms)


def _assert_matches_oracle(spec, n=1):
    field = make_extension(spec.p, spec.k * n)
    eqs = embedded_equations(spec, field)
    assert count_points(spec, n) == count_pure(spec, field, eqs, 0, domain_size(spec, n))


@st.composite
def _one_equation_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([1, 2]))
    # A^3 only over fields of at most 9 elements, to keep the oracle fast.
    ambients = [("affine", 2), ("projective", 2)] + [("affine", 3)] * (p**k <= 9)
    kind, dim = draw(st.sampled_from(ambients))
    if kind == "projective":
        degree = draw(st.integers(1, 3))
        monomials = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    else:
        caps = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
        monomials = list(itertools.product(*(range(c + 1) for c in caps)))
    exponents = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coeff = st.integers(1, p - 1) if k == 1 else st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    terms = [(draw(coeff), e) for e in exponents]
    return _one_equation(p, k, kind, dim, terms)


@settings(max_examples=80)
@given(_one_equation_specs())
def test_fibre_count_matches_oracle(spec):
    _assert_matches_oracle(spec)


@pytest.mark.parametrize(
    "spec,fibres",
    [
        # x^2 = 2 over F_25, y absent: every fibre is A = B = 0, with q
        # points where C = 0.
        pytest.param(
            _one_equation(5, 2, "affine", 2, [([1, 0], (2, 0)), ([3, 0], (0, 0))]),
            True, id="absent",
        ),
        # x + y^3 + 1 over F_4: x is linear in characteristic 2.
        pytest.param(
            _one_equation(2, 2, "affine", 2, [([1, 0], (1, 0)), ([0, 1], (0, 3)), ([1, 0], (0, 0))]),
            True, id="linear-char-2",
        ),
        # x^2 + y^3 + 1 over F_4: no coordinate of degree <= 1 in characteristic 2.
        pytest.param(
            _one_equation(2, 2, "affine", 2, [([1, 0], (2, 0)), ([0, 1], (0, 3)), ([1, 0], (0, 0))]),
            False, id="square-char-2",
        ),
        # x^3 + y^3 + z^3 + 2xyz over F_7: every coordinate has degree 3.
        pytest.param(
            _one_equation(7, 1, "affine", 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)), (2, (1, 1, 1))]),
            False, id="all-cubic",
        ),
        # y^2 z = x^3 + 2 x z^2 + 3 z^3 over F_49: a quadratic fibre per z in the chart x = 1.
        pytest.param(_curve(7, 2, 3), True, id="weierstrass-quadratic"),
        # Fibres of all four kinds: the identity
        # 1 + chi(B^2 - 4AC) - [A = 0] + Q [A = B = C = 0] on each.
        pytest.param(_four_kinds(7, 1), True, id="four-kinds-f7"),
        pytest.param(_four_kinds(3, 2), True, id="four-kinds-f9"),
        pytest.param(_four_kinds(2, 3, linear=True), True, id="linear-kinds-f8"),
    ],
)
def test_fibre_or_direct_path_matches_oracle(spec, fibres):
    from fqzeta.varieties import _block_plan, _blocks, _fibre_split

    prefix, n_free, *_ = next(_blocks(spec, spec.q, 0, domain_size(spec, 1)))
    plan = _block_plan(spec.p, spec.equations, prefix)
    assert (_fibre_split(spec.p, plan[0], n_free) is not None) == fibres
    _assert_matches_oracle(spec)


# The gcd path against the oracle.  A whole block with one free coordinate y
# is counted as deg gcd(g, y^Q - y) over F_q, with g the gcd of its
# equations; count_pure evaluates every point over F_Q, and two partial
# spans send the same blocks down the direct evaluator.  Fields hold at most
# 7^4 elements, to keep the oracle fast.


def _poly_mul(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = field._add(out[i + j], field._mul(ca, cb))
    return out


@st.composite
def _univariate_factors(draw, field):
    """A product of factors over F_q, low degree first; may repeat roots."""
    p = field.p
    elem = st.integers(0, field.order - 1)
    one, zero = field.one, field.zero
    kinds = st.sampled_from(["linear", "square", "artin-schreier", "inseparable", "any"])
    poly = [draw(st.integers(1, field.order - 1))]
    for _ in range(draw(st.integers(1, 3))):
        kind, a = draw(kinds), draw(elem)
        minus_a = field._sub(zero, a)
        if kind == "linear":  # y - a
            factor = [minus_a, one]
        elif kind == "square":  # (y - a)^2
            factor = _poly_mul(field, [minus_a, one], [minus_a, one])
        elif kind == "artin-schreier":  # y^p - a y
            factor = [zero, minus_a] + [zero] * (p - 2) + [one]
        elif kind == "inseparable":  # y^p - a = (y - a^(1/p))^p
            factor = [minus_a] + [zero] * (p - 1) + [one]
        else:
            factor = draw(st.lists(elem, min_size=1, max_size=4))
        poly = _poly_mul(field, poly, factor)
    while poly and not poly[-1]:
        poly.pop()
    return poly


@st.composite
def _one_coordinate_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, max(n for n in (1, 2, 3) if p ** (k * n) <= 7**4)))
    field = make_extension(p, k)
    kind = draw(st.sampled_from(["affine", "projective"]))
    common = draw(_univariate_factors(field))
    equations = []
    for _ in range(draw(st.integers(1, 2))):
        poly = _poly_mul(field, common, draw(_univariate_factors(field)))
        # In P^1, x_0^extra makes [0 : 1] a point when extra > 0.
        extra = draw(st.integers(0, 2)) if kind == "projective" else 0
        degree = len(poly) - 1 + extra
        terms = []
        for e, c in enumerate(poly):
            if c:
                exps = [e] if kind == "affine" else [degree - e, e]
                terms.append([c if k == 1 else to_digits(c, p, k), exps])
        equations.append(terms)
    spec = VarietySpec.from_dict(
        {
            "label": "one coordinate",
            "p": p,
            "k": k,
            "ambient": {"type": kind, "dim": 1},
            "equations": equations,
        }
    )
    return spec, n


@settings(max_examples=60)
@given(_one_coordinate_specs())
def test_one_coordinate_count_matches_oracle(case):
    spec, n = case
    field = make_extension(spec.p, spec.k * n)
    size = domain_size(spec, n)
    got = count_points(spec, n)
    assert got == count_pure(spec, field, embedded_equations(spec, field), 0, size)
    cut = field.order // 2
    assert got == count_points(spec, n, span=(0, cut)) + count_points(spec, n, span=(cut, size))


@st.composite
def _two_term_specs(draw, kind, shape, reach):
    """(spec, n): A^1 or P^1 over F_q, q^n <= 7^4, cut by one equation of at most two terms in y.

    The shapes: c + a y^e; a lone monomial a y^e; c y^e0 + a y^(e0 + e)
    with e0 >= 1, whose terms share the root 0; and c y^e + a y^e, two
    terms in one power of y, which _block_plan does not merge (c + a may
    vanish).  e is 1, 2 to 12, or q^n - 1 to 3 q^n, where it reaches past
    the field.  In P^1 the form is x_0-homogenized, and x_0^extra makes
    [0 : 1] a point when extra > 0.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, max(n for n in (1, 2, 3, 4) if p ** (k * n) <= 7**4)))
    order = p ** (k * n)
    if k == 1:
        scalar = st.integers(1, p - 1)
    else:
        scalar = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).filter(any)
    c, a = draw(scalar), draw(scalar)
    e = draw({"one": st.just(1), "small": st.integers(2, 12), "past": st.integers(order - 1, 3 * order)}[reach])
    e0 = draw(st.integers(1, 3))
    monomials = {
        "constant": [(c, 0), (a, e)],
        "monomial": [(a, e)],
        "zero root": [(c, e0), (a, e0 + e)],
        "like terms": [(c, e), (a, e)],
    }[shape]
    monomials = draw(st.permutations(monomials))
    extra = draw(st.integers(0, 2)) if kind == "projective" else 0
    degree = max(m for _, m in monomials) + extra
    terms = [(s, (m,) if kind == "affine" else (degree - m, m)) for s, m in monomials]
    return _one_equation(p, k, kind, 1, terms), n


@pytest.mark.parametrize("reach", ["one", "small", "past"])
@pytest.mark.parametrize("shape", ["constant", "monomial", "zero root", "like terms"])
@pytest.mark.parametrize("kind", ["affine", "projective"])
def test_two_term_block_count_matches_oracle(kind, shape, reach):
    # A lone polynomial of at most two terms in distinct powers of y is
    # counted in closed form and keeps no record; like terms in one power
    # take the record path (or, where they cancel, count every point).
    @settings(max_examples=10)
    @given(_two_term_specs(kind, shape, reach))
    def check(case):
        spec, n = case
        field = make_extension(spec.p, spec.k * n)
        pure = count_pure(spec, field, embedded_equations(spec, field), 0, domain_size(spec, n))
        assert count_points(spec, n) == pure
        (equation,) = spec.equations
        powers = {exps[-1] for _, exps in equation}
        if len(powers) == len(equation):
            assert not spec._roots
        elif field.order > max(powers):  # the record of an unreduced g is kept
            assert len(spec._roots) == 1

    check()


def test_two_term_block_counts_at_chosen_exponents():
    # e = 10^12 over F_{5^3}, e = 1 over F_{9^4} and like terms that cancel
    # (3 y^5 + 4 y^5 over F_7), each against the pure counter.
    for spec, n in (
        (_one_equation(5, 1, "projective", 1, [(1, (10**12, 0)), (-1, (0, 10**12))]), 3),
        (_one_equation(3, 2, "affine", 1, [([1, 0], (1,)), ([0, 1], (0,))]), 4),
        (_one_equation(7, 1, "affine", 1, [(3, (5,)), (4, (5,))]), 2),
    ):
        field = make_extension(spec.p, spec.k * n)
        assert count_points(spec, n) == count_pure(
            spec, field, embedded_equations(spec, field), 0, domain_size(spec, n)
        )


def test_binomials_take_no_polynomial_power(monkeypatch):
    # x_0^e = x_1^e in P^1 holds at [1 : y] for the gcd(e, Q - 1) e-th roots
    # of unity y in F_Q, and not at [0 : 1].  The record path would form g
    # densely up to degree e and take y^Q mod it, seconds for e = 10^6 over
    # F_{7^8}; a binomial takes no polynomial power at all.  The pure
    # counter checks each exponent over the fields of at most 7^4 elements;
    # over F_{7^8} and F_{5^7} it would take minutes, so the oracle there is
    # the number of discrete logs i mod Q - 1 with e i = 0, which rests on
    # F_Q^* being cyclic alone.
    from fqzeta import varieties

    def refuse(*args):
        raise AssertionError("polynomial power taken")

    monkeypatch.setattr(varieties, "_fq_powmod", refuse)
    for p, e, large in ((7, 10**6, 8), (5, 10**12, 7)):
        spec = _binary_form_p1(p, [[1, [e, 0]], [-1, [0, e]]])
        for n in range(1, 5):
            field = make_extension(p, n)
            pure = count_pure(spec, field, embedded_equations(spec, field), 0, p**n + 1)
            assert count_points(spec, n) == pure
        m = p**large - 1
        assert count_points(spec, large) == sum(1 for i in range(m) if e * i % m == 0)
        assert not spec._roots


@st.composite
def _repeated_factors(draw, field, max_degree):
    """A nonzero scalar times random factors over F_q, each repeated 1 to 3 times."""
    elem = st.integers(0, field.order - 1)
    poly = [draw(st.integers(1, field.order - 1))]
    for _ in range(draw(st.integers(1, 5))):
        factor = draw(st.lists(elem, min_size=1, max_size=4)) + [field.one]
        for _ in range(draw(st.integers(1, 3))):
            if len(poly) + len(factor) - 2 > max_degree:
                return poly
            poly = _poly_mul(field, poly, factor)
    return poly


@st.composite
def _roots_specs(draw):
    """(spec data, top): A^1 over F_q cut by one or two equations of degree
    at most 14 that share a factor, and top the largest n <= 4 with
    q^n <= 7^4."""
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]))
    field = make_extension(p, k)
    common = draw(_repeated_factors(field, 7))
    polys = [
        _poly_mul(field, common, draw(_repeated_factors(field, 7)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    equations = [
        [[c if k == 1 else to_digits(c, p, k), [e]] for e, c in enumerate(poly) if c]
        for poly in polys
    ]
    data = {
        "label": "roots",
        "p": p,
        "k": k,
        "ambient": {"type": "affine", "dim": 1},
        "equations": equations,
    }
    return data, max(n for n in range(1, 5) if (p**k) ** n <= 7**4)


def _moebius(n):
    out, m, d = 1, n, 2
    while m > 1:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return out


@settings(max_examples=60)
@given(_roots_specs())
def test_roots_factorization_matches_oracle(case):
    # Counts over F_{q^n} taken as a series, out of order on one spec (twice),
    # and each on a fresh spec, all against the pure counter; and the kept
    # record's c_d, once complete, against the roots of exact degree d, sum
    # over e | d of mu(d / e) N_e by Moebius inversion of the pure counts.
    # A lone polynomial of at most two terms is counted in closed form and
    # keeps no record, so its record is read from the same equation taken
    # twice, which has the same gcd g but takes the record path.
    data, top = case
    pure = []
    for n in range(1, top + 1):
        spec = VarietySpec.from_dict(data)
        field = make_extension(spec.p, spec.k * n)
        pure.append(count_pure(spec, field, embedded_equations(spec, field), 0, field.order))
    assert count_series(VarietySpec.from_dict(data), top).counts == tuple(pure)
    spec = VarietySpec.from_dict(data)
    for n in (4, 2, 3, 1) * 2:  # the second pass starts from the record n = 1 left
        if n <= top:
            assert count_points(spec, n) == pure[n - 1]
    assert [count_points(VarietySpec.from_dict(data), n) for n in range(1, top + 1)] == pure
    equations = data["equations"]
    if len(equations) == 1 and len(equations[0]) <= 2:
        assert not spec._roots
        spec = VarietySpec.from_dict({**data, "equations": equations * 2})
        assert count_series(spec, top).counts == tuple(pure)
    field = make_extension(spec.p, spec.k)
    (record,) = spec._roots.values()
    while not record.complete:
        record = record.advance(field)
    last = len(record.rest) - 1
    for d in range(1, top + 1):
        c_d = record.counts[d - 1] if d <= len(record.counts) else int(d == last)
        exact = sum(_moebius(d // e) * pure[e - 1] for e in range(1, d + 1) if d % e == 0)
        assert d * c_d == exact


def test_benchmark_shapes_stay_off_the_vector_path(fixtures_dir, monkeypatch):
    import math

    from fqzeta import varieties
    from fqzeta.fields import ExtensionField

    def refuse(*args, **kwargs):
        raise AssertionError("vector path taken")

    monkeypatch.setattr(ExtensionField, "vector_ops", refuse)
    monkeypatch.setattr(varieties, "_first_root", refuse)
    line = load_spec(fixtures_dir / "line_f4.json")
    assert count_series(line, 8).counts == (1,) * 8
    for c in range(1, 5):
        binomial = _binary_form_p1(5, [[1, [3, 0]], [-c, [0, 3]]])
        # x_1^3 = 1/c in the chart x_0 = 1, no point at [0 : 1].  Cubing is
        # a bijection of F_{5^n}^* for odd n; for even n, 8 divides
        # (5^n - 1)/3 and c^4 = 1, so c is a cube with 3 cube roots.
        expected = tuple(math.gcd(3, 5**n - 1) for n in range(1, 8))
        assert count_series(binomial, 7).counts == expected
    # The curve and compare jobs: Weierstrass curves over F_37 and F_29,
    # N_1 against Legendre symbols and N_2 by the genus-1 recursion.
    for p, a, b in ((37, 2, 9), (29, 1, 1), (29, 2, 3)):
        n1 = p + 1 + sum(_legendre(x**3 + a * x + b, p) for x in range(p))
        trace = p + 1 - n1
        assert count_series(_curve(p, a, b), 2).counts == (n1, p**2 + 1 - (trace**2 - 2 * p))
    # The surface jobs: the Fermat cubic surface over F_2 (N_1..N_7; see
    # test_counting_strategy_takes_fewest_points) and diagonal quadric
    # surfaces, which split, with (Q + 1)^2 points, iff their discriminant
    # is a square in F_Q.
    assert count_series(_fermat(2, 3), 7).counts == (7, 45, 73, 369, 1057, 4545, 16513)
    for p, coeffs in ((3, (1, 2, 1, 1)), (5, (1, 2, 3, 4)), (7, (3, 1, 4, 1)), (11, (2, 7, 1, 8))):
        squares = [(c, tuple(2 * (i == j) for i in range(4))) for j, c in enumerate(coeffs)]
        eps = _legendre(math.prod(coeffs), p)
        expected = tuple(p ** (2 * n) + 1 + p**n * (1 + eps**n) for n in (1, 2))
        assert count_series(_one_equation(p, 1, "projective", 3, squares), 2).counts == expected


# Counting by halves.  A whole block whose one equation reads g(X) + h(Y) = 0,
# with no monomial linking the free coordinates in X to those in Y, is
# counted from the value histograms of g and -h.  count_pure evaluates
# every point, and two spans that cut the first block send it down the
# direct evaluator.


def _fermat(p, dim):
    """x_0^3 + ... + x_dim^3 in P^dim over F_p."""
    terms = [(1, tuple(3 * (i == j) for i in range(dim + 1))) for j in range(dim + 1)]
    return _one_equation(p, 1, "projective", dim, terms)


@st.composite
def _separable_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([1, 2]))
    # A^3 and P^3 only over fields of at most 9 elements, to keep the oracle fast.
    ambients = [("affine", 2), ("projective", 2)] + [("affine", 3), ("projective", 3)] * (p**k <= 9)
    kind, dim = draw(st.sampled_from(ambients))
    nvars = dim + (kind == "projective")
    # Every coordinate gets a term of degree >= 3, so no fibre split applies.
    degree = draw(st.integers(3, 4)) if kind == "projective" else None
    coords = draw(st.permutations(range(nvars)))
    monomials = []
    while coords:
        if len(coords) > 1 and draw(st.booleans()):
            # One two-coordinate term links the next two coordinates.
            a = draw(st.integers(1, degree - 1 if degree else 3))
            b = degree - a if degree else draw(st.integers(1, 3))
            group, coords = coords[:2], coords[2:]
            monomials.append({group[0]: a, group[1]: b})
        else:
            group, coords = coords[:1], coords[1:]
        for t in group:
            monomials.append({t: degree or draw(st.integers(3, 4))})
            if not degree and draw(st.booleans()):
                monomials.append({t: draw(st.integers(1, 2))})
    if kind == "affine" and draw(st.booleans()):
        monomials.append({})
    coeff = st.integers(1, p - 1) if k == 1 else st.lists(st.integers(0, p - 1), min_size=k, max_size=k).filter(any)
    terms = [(draw(coeff), tuple(m.get(t, 0) for t in range(nvars))) for m in monomials]
    return _one_equation(p, k, kind, dim, terms)


@settings(max_examples=80)
@given(_separable_specs())
def test_halves_count_matches_oracle(spec):
    field = make_extension(spec.p, spec.k)
    size = domain_size(spec, 1)
    got = count_points(spec, 1)
    assert got == count_pure(spec, field, embedded_equations(spec, field), 0, size)
    cut = field.order**spec.ambient.dim // 2  # inside the first block
    assert got == count_points(spec, 1, span=(0, cut)) + count_points(spec, 1, span=(cut, size))


def test_diagonal_cubic_threefold_over_f2():
    # Every chart with two or more free coordinates is counted by Jacobi
    # sums.  For odd n, cubing permutes F_{2^n}, so those charts form no
    # term, and N_1 = 15 and N_3 = 585 count the hyperplane
    # x_0 + ... + x_4 = 0, a P^3.
    spec = _fermat(2, 4)
    counts = count_series(spec, 3).counts
    for n, got in enumerate(counts, start=1):
        field = make_extension(2, n)
        size = domain_size(spec, n)
        assert got == count_pure(spec, field, embedded_equations(spec, field), 0, size)
    assert counts == (15, 165, 585)
    # Past the default budget, no F_{2^n} is built up to n = 9.
    for n in (5, 7, 9):
        q = 2**n
        assert count_points(spec, n, budget=10**12) == (q**4 - 1) // (q - 1)


# Counting by Jacobi sums.  A whole block whose one equation reads
# c + sum a_i x_i^e_i, each term a power of its own free coordinate, is
# counted from Jacobi sums over the smallest field F_{q^f} that carries its
# characters.  count_pure evaluates every point, and two spans that cut the
# first block send it down the direct evaluator.


@st.composite
def _diagonal_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.sampled_from([1, 2]))
    q = p**k
    kind = draw(st.sampled_from(["affine", "projective"]))
    dim = draw(st.sampled_from([2, 3] if q <= 4 else [2]))
    # n = 1..3, and n = 4 over F_2 for e = 5; at most 4096 points per block.
    n = draw(st.sampled_from([n for n in range(1, 5 if q == 2 else 4) if q ** (n * dim) <= 4096]))
    order = q**n
    # Small exponents, f > 1 (e = 5 over F_2 and F_4, 4 over F_3, 3 over
    # F_5), e >= q^n and e = 0 mod q^n - 1.
    exponent = st.sampled_from([1, 2, 3, 4, 5, 6, order + 1, order + 3, order - 1, 2 * (order - 1)])
    nvars = dim + (kind == "projective")
    coords = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars, unique=True))
    e = draw(exponent)
    coeff = st.integers(1, p - 1) if k == 1 else st.lists(st.integers(0, p - 1), min_size=k, max_size=k).filter(any)
    terms = []
    for t in coords:
        power = e if kind == "projective" else draw(exponent)
        terms.append((draw(coeff), tuple(power * (i == t) for i in range(nvars))))
    if kind == "affine" and draw(st.booleans()):
        terms.append((draw(coeff), (0,) * nvars))
    return _one_equation(p, k, kind, dim, terms), n


def _diagonal(p, kind, dim, exponents, const=0):
    """sum_t x_t^e_t (+ const) over F_p, the pure powers of a diagonal spec."""
    nvars = len(exponents)
    terms = [(1, tuple(e * (i == t) for i in range(nvars))) for t, e in enumerate(exponents)]
    return _one_equation(p, 1, kind, dim, terms + [(const, (0,) * nvars)] * bool(const))


@settings(max_examples=60, deadline=None)
@given(_diagonal_specs())
# f > 1: characters of order 5 live on F_16, of order 4 on F_9, of order 3 on F_25.
@example((_diagonal(2, "affine", 2, (5, 5), const=1), 4))
@example((_diagonal(3, "projective", 2, (4, 4, 4)), 2))
@example((_diagonal(5, "affine", 2, (3, 6), const=2), 2))
def test_diagonal_count_matches_oracle(case):
    from fqzeta.varieties import _characters, _Count, _count_diagonal, _shapes

    spec, n = case
    field = make_extension(spec.p, spec.k * n)
    size = domain_size(spec, n)
    got = count_points(spec, n)
    assert got == count_pure(spec, field, embedded_equations(spec, field), 0, size)
    # The first block by Jacobi sums, whether or not the plan takes them,
    # against two spans that cut it.
    prefix, n_free = _shapes(spec.ambient)[0]
    block, cut = field.order**n_free, field.order**n_free // 2
    polys, _, _, diagonal = spec._block_plans[prefix]
    if diagonal is not None:
        _, L, f = _characters(spec.q, diagonal, n, field.order)
        jacobi = _count_diagonal(_Count(spec, n), (diagonal, L, f))
        assert jacobi == count_points(spec, n, span=(0, cut)) + count_points(spec, n, span=(cut, block))
    assert got == count_points(spec, n, span=(0, cut)) + count_points(spec, n, span=(cut, size))


def test_jacobi_tables_embed_f_q_without_numpy(monkeypatch):
    # x^5 + y^5 + t in A^2 over F_4 = F_2[t]: at n = 2 and 4 the characters
    # of order 5 live on F_16 (f = 2), so F_4 is embedded there, by the root
    # of its modulus that _first_root picks, found among the powers of the
    # generator that the Jacobi tables walk anyway.
    from fqzeta.varieties import _characters, _Count, _count_diagonal, _make_embedding

    spec = _one_equation(2, 2, "affine", 2, [([1, 0], (5, 0)), ([1, 0], (0, 5)), ([0, 1], (0, 0))])
    expected = []
    for n in range(1, 5):
        field = make_extension(2, 2 * n)
        expected.append(count_pure(spec, field, embedded_equations(spec, field), 0, field.order**2))
    by_first_root = _make_embedding(spec, make_extension(2, 4))
    monkeypatch.setitem(sys.modules, "numpy", None)
    diagonal = spec._block_plans[()][3]
    got = []
    for n in range(1, 5):
        _, L, f = _characters(4, diagonal, n, 4**n)
        got.append(_count_diagonal(_Count(spec, n), (diagonal, L, f)))
    assert got == expected
    assert [spec._jacobi[5].embed(a) for a in range(4)] == [by_first_root(a) for a in range(4)]


def test_cyclotomic_residue_certifies_an_integer():
    from fqzeta.varieties import _cyclotomic_value

    # zeta_3 + zeta_3^2 = -1, and zeta_4^2 = -1.
    assert _cyclotomic_value([5, -1, -1], 3) == 6
    assert _cyclotomic_value([0, 0, 2, 0], 4) == -2
    # zeta_3 and 1 + zeta_5 are not integers.
    with pytest.raises(AssertionError, match="Phi_3"):
        _cyclotomic_value([0, 1, 0], 3)
    with pytest.raises(AssertionError, match="Phi_5"):
        _cyclotomic_value([1, 1, 0, 0, 0], 5)


def test_counting_strategy_takes_fewest_points(monkeypatch):
    from fqzeta import varieties

    def refuse(*args, **kwargs):
        raise AssertionError("strategy taken")

    def spy(name, calls):
        counter = getattr(varieties, name)
        monkeypatch.setattr(varieties, name, lambda *args: calls.append(args) or counter(*args))

    # The Fermat cubic surface over F_2: its charts with three and two free
    # coordinates are counted by Jacobi sums, with no halves and no direct
    # evaluation.  For odd n, cubing permutes F_q and the surface has as
    # many points as a plane; for even n, its 27 lines are defined over F_4
    # and N = q^2 + 7q + 1.
    diagonal = []
    spy("_count_diagonal", diagonal)
    monkeypatch.setattr(varieties, "_count_direct", refuse)
    monkeypatch.setattr(varieties, "_count_halves", refuse)
    assert count_series(_fermat(2, 3), 7).counts == (7, 45, 73, 369, 1057, 4545, 16513)
    assert len(diagonal) == 2 * 7
    # x_0^4 + x_1^2 x_2^2 + x_3^4 over F_2 is separable but not diagonal,
    # and no coordinate of the chart x_0 = 1 has degree 1, so it is counted
    # by halves; the chart x_1 = 1 is diagonal.
    monkeypatch.undo()
    halves = []
    spy("_count_halves", halves)
    monkeypatch.setattr(varieties, "_count_direct", refuse)
    terms = [(1, (4, 0, 0, 0)), (1, (0, 2, 2, 0)), (1, (0, 0, 0, 4))]
    for n in (1, 2, 3):
        _assert_matches_oracle(_one_equation(2, 1, "projective", 3, terms), n)
    assert len(halves) == 3
    # A Weierstrass curve is counted by its curve, and a diagonal quadric
    # surface by Jacobi sums and, in its chart with two free coordinates,
    # by its curve of genus 0: neither takes halves.
    monkeypatch.setattr(varieties, "_count_halves", refuse)
    p = 7
    n1 = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - 2 * x - 3) % p == 0)
    trace = p + 1 - n1
    assert count_points(_curve(p, 2, 3), 2) == p**2 + 1 - (trace**2 - 2 * p)
    squares = [(c, tuple(2 * (i == j) for i in range(4))) for j, c in enumerate((1, 2, 3, 4))]
    _assert_matches_oracle(_one_equation(p, 1, "projective", 3, squares))


def test_each_block_is_planned_once(monkeypatch):
    from fqzeta import varieties

    calls = []
    block_plan = varieties._block_plan
    monkeypatch.setattr(
        varieties, "_block_plan", lambda *args: calls.append(args) or block_plan(*args)
    )
    # y^2 z = x^3 + 2 x z^2 + 3 z^3 over F_49 has three blocks: the chart
    # x = 1 by its curve, the line x = 0 by roots, and [0 : 0 : 1], not on
    # it.
    p = 7
    n1 = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - 2 * x - 3) % p == 0)
    trace = p + 1 - n1
    assert count_points(_curve(p, 2, 3), 2) == p**2 + 1 - (trace**2 - 2 * p)
    assert len(calls) == 3
    # A series plans each block once for all its terms.
    calls.clear()
    spec = _curve(p, 2, 3)
    counts = count_series(spec, 3).counts
    assert counts[:2] == (n1, p**2 + 1 - (trace**2 - 2 * p))
    assert [prefix for _, _, prefix in calls] == [(1,), (0, 1), (0, 0, 1)]
    # A roots block factors g by degree once for the whole series:
    # (x_1 - x_0)(x_1^2 - 2 x_0^2) over F_5 has one point for odd n and
    # three for even n, where 2 is a square.  g = (y - 1)(y^2 - 2) has one
    # root in F_5 and an irreducible quadratic cofactor, so one q-th power
    # completes it.
    exponents = []
    powmod = varieties._fq_powmod
    monkeypatch.setattr(
        varieties, "_fq_powmod", lambda base, e, *rest: exponents.append(e) or powmod(base, e, *rest)
    )
    cubic = _binary_form_p1(5, [[1, [0, 3]], [-1, [1, 2]], [-2, [2, 1]], [2, [3, 0]]])
    assert count_series(cubic, 7).counts == (1, 3, 1, 3, 1, 3, 1)
    assert exponents == [5] and len(cubic._roots) == 1
    # x_0^3 = 2 x_1^3 has the same counts, one for odd n, where cubing
    # permutes F_{5^n}, and three for even n, where 2 is a cube; a binomial
    # is counted in closed form, with no q-th power and no record.
    exponents.clear()
    binomial = _binary_form_p1(5, [[1, [3, 0]], [-2, [0, 3]]])
    assert count_series(binomial, 7).counts == (1, 3, 1, 3, 1, 3, 1)
    assert exponents == [] and not binomial._roots


def test_frobenius_chain_matches_the_oracle():
    # y^4 + y + 1 in A^1 over F_3: at n = 1 the exponent 4 enters g as y^2,
    # so g = y^2 + y + 1, and from n = 2 on g = y^4 + y + 1.  The series
    # keeps the factorization of the second g alone.  A fresh spec at n = 6
    # factors g whole, as that takes at most deg g / 2 = 2 degrees, and a
    # smaller n after the series reads the kept factorization.
    def spec():
        return VarietySpec.from_dict(
            {
                "label": "y^4 + y + 1",
                "p": 3,
                "k": 1,
                "ambient": {"type": "affine", "dim": 1},
                "equations": [[[1, [4]], [1, [1]], [1, [0]]]],
            }
        )

    series = spec()
    counts = count_series(series, 6).counts
    assert counts == (1, 1, 4, 1, 1, 4) and len(series._roots) == 1
    for n in (1, 2, 3):
        field = make_extension(3, n)
        assert counts[n - 1] == count_pure(series, field, embedded_equations(series, field), 0, 3**n)
    assert count_points(spec(), 6) == counts[5]
    assert count_points(series, 3) == counts[2]


def test_roots_keep_no_record_for_a_reduced_g():
    # y^2000 + 3 y^5 + 1 in A^1 over F_11: for n <= 3, q^n <= 2000, so the
    # exponent 2000 is reduced mod q^n - 1, and each such n forms a g that
    # no other n forms again.  From n = 4 on g is the polynomial itself, and
    # the spec keeps its record alone.  The oracles: the pure counter for
    # n <= 3, whose counts jump from a reduced g (at n = 4 its 11^4 points
    # take seconds), and for every n a span that cuts the block, so that it
    # is evaluated point by point.
    spec = _one_equation(11, 1, "affine", 1, [(1, (2000,)), (3, (5,)), (1, (0,))])
    counts = count_series(spec, 4).counts
    (record,) = spec._roots.values()
    assert len(record.rest) - 1 == 2000
    for n, got in enumerate(counts, start=1):
        field = make_extension(11, n)
        if n <= 3:
            assert got == count_pure(spec, field, embedded_equations(spec, field), 0, field.order)
        halves = ((0, field.order // 2), (field.order // 2, field.order))
        assert got == sum(count_points(spec, n, span=span) for span in halves)


def test_threads_sharing_specs_count_as_one_thread(fixtures_dir):
    # Four threads take N_1..N_6 of the same three specs at once: curve and
    # roots blocks, a roots block whose first terms reduce exponents, and
    # Jacobi sums over F_4.  The maps that the specs keep fill as the
    # threads race, with the GIL switched as often as it allows, and every
    # count must equal a single-threaded run.  Each round starts from fresh
    # specs, so that the threads meet on maps still being filled.
    import threading

    def specs():
        return [
            load_spec(fixtures_dir / "elliptic_f5.json"),
            _one_equation(3, 1, "affine", 1, [(1, (40,)), (1, (1,)), (2, (0,))]),
            _fermat(2, 3),
        ]

    def run(start, shared, results):
        start.wait()
        results.append([count_series(spec, 6, budget=10**12).counts for spec in shared])

    expected = [count_series(spec, 6, budget=10**12).counts for spec in specs()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            results = []
            args = threading.Barrier(4, timeout=60), specs(), results
            threads = [threading.Thread(target=run, args=args) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_roots_count_jumps_where_factoring_costs_more(monkeypatch):
    from fqzeta import varieties

    exponents = []
    powmod = varieties._fq_powmod
    monkeypatch.setattr(
        varieties, "_fq_powmod", lambda base, e, *rest: exponents.append(e) or powmod(base, e, *rest)
    )

    def line(label, p, terms):
        return VarietySpec.from_dict(
            {
                "label": label,
                "p": p,
                "k": 1,
                "ambient": {"type": "affine", "dim": 1},
                "equations": [terms],
            }
        )

    # y^300 + y^150 + 1 = (y^150 + y^75 + 1)^2 over F_2 at n = 12:
    # factoring g by degree would take 12 q-th powers and gcds at degree
    # 300, so a lone count takes y^4096 mod g from y, one power.  Its roots
    # are the y with y^75 a primitive cube root of unity, the 225th roots
    # of unity in F_4096 that are not 75th roots: gcd(225, 4095) = 45 less
    # gcd(75, 4095) = 15, 30 of them.
    spec = line("y^300 + y^150 + 1", 2, [[1, [300]], [1, [150]], [1, [0]]])
    assert count_points(spec, 12) == 30
    assert exponents == [2**12]
    # n = 13 jumps on from y^4096 by one q-th power; as gcd(225, 8191) = 1,
    # F_8192 holds no root.
    assert count_points(spec, 13) == 0
    assert exponents == [2**12, 2]
    # y^300 - 1 = (y^75 - 1)^4 is counted in closed form, with no power of
    # y and no record: its roots are the 75th roots of unity, gcd(75, 4095)
    # = 15 of them in F_4096 and gcd(75, 8191) = 1 in F_8192.
    exponents.clear()
    spec = line("y^300 - 1", 2, [[1, [300]], [-1, [0]]])
    assert count_points(spec, 12) == 15
    assert count_points(spec, 13) == 1
    assert exponents == [] and not spec._roots
    # y^10 + y + 2 over F_11: n = 1 factors degree 1 (one root) and leaves
    # a rest of degree 9, so n = 3 jumps from y^11, not from y.
    exponents.clear()
    spec = line("y^10 + y + 2", 11, [[1, [10]], [1, [1]], [2, [0]]])
    field = make_extension(11, 3)
    assert count_points(spec, 1) == 1
    assert count_points(spec, 3) == count_pure(spec, field, embedded_equations(spec, field), 0, 11**3) == 4
    assert exponents == [11, 11**2]


def test_plan_builds_no_field(monkeypatch):
    from fqzeta import varieties
    from fqzeta.varieties import (
        _Count,
        _count_diagonal,
        _count_direct,
        _count_halves,
        _count_known,
        _count_roots,
        _plan,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("field built")

    # The Fermat cubic surface over F_4: the charts with three and two free
    # coordinates by Jacobi sums, the line x_0 = x_1 = 0 by roots, and
    # [0:0:0:1] is not on it.  gcd(3, 4^n - 1) = 3 and 4 = 1 mod 3, so each
    # chart's characters live on F_4 itself: 2 + 2 * 2 + 3 * 2 and 2 + 2 * 2
    # terms, and the first chart also pays the 4 points of the class table
    # of F_4 that both share.  A span that cuts the first chart evaluates
    # it directly.
    cubes = [([1, 0], tuple(3 * (i == j) for i in range(4))) for j in range(4)]
    spec = _one_equation(2, 2, "projective", 3, cubes)
    # x_0^4 + x_1^2 x_2^2 + x_3^4 over F_4 is separable but not diagonal:
    # its chart x_0 = 1 is counted by halves.  In the chart x_1 = 1,
    # x_2^2 and x_3^4 permute F_{4^n}, so Jacobi sums form no term.
    quartic = _one_equation(
        2, 2, "projective", 3, [([1, 0], (4, 0, 0, 0)), ([1, 0], (0, 2, 2, 0)), ([1, 0], (0, 0, 0, 4))]
    )
    monkeypatch.setattr(varieties, "make_extension", refuse)
    for n in (1, 2, 3):
        q = spec.q**n
        plan = list(_plan(_Count(spec, n), 0, domain_size(spec, n)))
        assert [(points, counter) for points, counter, _ in plan] == [
            (12 + 4, _count_diagonal),
            (6, _count_diagonal),
            (0, _count_roots),
            (0, _count_known),
        ]
        [(points, counter, _)] = _plan(_Count(spec, n), 1, q**3)
        assert (points, counter) == (q**3 - 1, _count_direct)
        plan = list(_plan(_Count(quartic, n), 0, domain_size(quartic, n)))
        assert [(points, counter) for points, counter, _ in plan][:2] == [
            (q + q**2, _count_halves),
            (0, _count_diagonal),
        ]


def test_counting_kernel_is_built_once_per_count(fixtures_dir, monkeypatch):
    from fqzeta import varieties

    # F_{q^n}, its kernel and the embedding of F_q are built at most once
    # per count, and only for blocks evaluated over F_{q^n}.  The Jacobi
    # tables find their embedding among scalars they walk anyway
    # (``subfield``) and build no kernel, so the spy skips those calls.
    curve = _curve(7, 2, 3)
    field = make_extension(7, 1)
    cut = (1, 49 + 6)  # a span that cuts the charts with two and one free coordinates
    expected = count_pure(curve, field, embedded_equations(curve, field), *cut)
    make_embedding = varieties._make_embedding
    kernels = []

    def spy(spec, field, subfield=None):
        if subfield is None:
            kernels.append(field.order)
        return make_embedding(spec, field, subfield)

    monkeypatch.setattr(varieties, "_make_embedding", spy)
    assert count_points(curve, 1, span=cut) == expected
    assert kernels == [7]
    # A curve and a roots block, then Jacobi-sum and roots blocks, the
    # latter with class tables of F_4 from n = 2 on.
    kernels.clear()
    assert count_points(load_spec(fixtures_dir / "elliptic_f5.json"), 2) == 27
    fermat = _fermat(2, 3)
    assert count_series(fermat, 4).counts == (7, 45, 73, 369)
    assert 3 in fermat._jacobi
    assert kernels == []


@pytest.mark.parametrize("n", [1, 2])
def test_huge_exponent_is_evaluated_by_squaring(n):
    # y^2 = x^e + 1 in A^2 over F_7, counted by fibres over x and, cut by a
    # span, point by point.  x^e depends only on e mod Q - 1 for e >= 1.
    def spec(e):
        return _one_equation(7, 1, "affine", 2, [(1, (0, 2)), (-1, (e, 0)), (-1, (0, 0))])

    e, Q = 10**12 + 3, 7**n
    got = count_points(spec(e), n)
    assert got == count_points(spec((e - 1) % (Q - 1) + 1), n)
    cut = Q * Q // 2
    assert got == sum(count_points(spec(e), n, span=s) for s in ((0, cut), (cut, Q * Q)))


def test_huge_exponent_on_the_roots_path():
    import math

    # x_0^e = x_1^e in P^1 over F_{7^n}: [1 : y] with y^e = 1, and [0 : 1] is
    # not on it.  The roots path reduces e mod 7^n - 1 before building g.
    e = 10**12
    spec = _binary_form_p1(7, [[1, [e, 0]], [-1, [0, e]]])
    assert count_series(spec, 3).counts == tuple(math.gcd(e, 7**n - 1) for n in (1, 2, 3))


def test_exact_dot_past_int64():
    import numpy as np

    from fqzeta.varieties import _exact_dot

    a = np.array([2**40, 2**40, 3], dtype=np.int64)
    b = np.array([2**30, 2**30, 5], dtype=np.int64)
    assert _exact_dot(a, b) == 2**71 + 15
    assert _exact_dot(a[2:], b[2:]) == 15


# Counting a plane curve.  A whole block with two free coordinates and a
# fibre split is counted from polynomials over F_q: gcds for the roots of
# A, B, C, and the character sum S_n of D = B^2 - 4AC from S_1..S_g of the
# curve w^2 = D(z).  The oracles: the fibre path, forced by holding back
# the curve (_plane_curve), and, on small domains, a span that cuts the
# block, so that it is evaluated point by point, and count_pure.


def _scalars(draw, field, size, nonzero_lead=False):
    """``size`` scalars of ``field``, the last nonzero if asked."""
    scalars = draw(st.lists(st.integers(0, field.order - 1), min_size=size, max_size=size))
    if nonzero_lead:
        scalars[-1] = draw(st.integers(1, field.order - 1))
    return scalars


def _spec_terms(field, terms):
    """(scalar, exponents) pairs as spec terms, zero scalars dropped."""
    k = field.k
    return [(s if k == 1 else to_digits(s, field.p, k), e) for s, e in terms if s]


def _is_squarefree(field, f):
    """gcd(f, f') = 1 over F_q = field, for f of degree >= 1, low degree first."""
    from fqzeta.fields import _fq_gcd

    derivative = [field._mul(field.element(i), c) for i, c in enumerate(f)][1:]
    return len(_fq_gcd(f, derivative, field)) == 1


@st.composite
def _plane_curve_specs(draw):
    """(spec, curve): one equation in two coordinates with a fibre split.

    ``curve`` says whether a plan at n = 4 must count the chart by its curve,
    None where the shape leaves that open.
    """
    shape = draw(
        st.sampled_from(["hyperelliptic", "cubic", "conic", "linear", "repeated", "big-exponent"])
    )
    if shape == "big-exponent":
        p, k = draw(st.sampled_from([3, 5])), 1
    elif shape in ("conic", "linear"):
        p, k = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]))
    else:
        p, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (7, 1)]))
    field = make_extension(p, k)
    one = field.one
    if shape == "hyperelliptic":  # y^2 = f(x), deg f = 3..6
        f = _scalars(draw, field, draw(st.integers(4, 7)), nonzero_lead=True)
        terms = [(one, (0, 2))] + [(field._sub(0, c), (i, 0)) for i, c in enumerate(f)]
        return _one_equation(p, k, "affine", 2, _spec_terms(field, terms)), _is_squarefree(field, f)
    if shape == "cubic":  # y^2 z + a1 xyz + a3 yz^2 = x^3 + a2 x^2 z + a4 x z^2 + a6 z^3
        a1, a3, a2, a4, a6 = _scalars(draw, field, 5)
        if not (a1 or a3):
            a1 = one
        minus = [field._sub(0, c) for c in (one, a2, a4, a6)]
        terms = [(one, (0, 2, 1)), (a1, (1, 1, 1)), (a3, (0, 1, 2))]
        terms += [(s, (3 - i, 0, i)) for i, s in zip((0, 1, 2, 3), minus)]
        return _one_equation(p, k, "projective", 2, _spec_terms(field, terms)), None
    if shape == "conic":
        monomials = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
        terms = list(zip(_scalars(draw, field, 6), monomials))
        if sum(1 for s, _ in terms if s) < 2:
            terms[:2] = [(one, monomials[0]), (one, monomials[-1])]
        return _one_equation(p, k, "projective", 2, _spec_terms(field, terms)), None
    if shape == "linear":  # B(x) y + C(x), A = 0
        b = _scalars(draw, field, draw(st.integers(1, 4)), nonzero_lead=True)
        c = _scalars(draw, field, draw(st.integers(1, 4)))
        terms = [(s, (i, 1)) for i, s in enumerate(b)] + [(s, (i, 0)) for i, s in enumerate(c)]
        return _one_equation(p, k, "affine", 2, _spec_terms(field, terms)), True
    if shape == "repeated":  # y^2 = g(x)^2 h(x), deg >= 3: D is not squarefree
        g = _scalars(draw, field, draw(st.integers(2, 3)), nonzero_lead=True)
        h = _scalars(draw, field, 4 - len(g) + draw(st.integers(0, 1)), nonzero_lead=True)
        f = _poly_mul(field, _poly_mul(field, g, g), h)
        terms = [(one, (0, 2))] + [(field._sub(0, c), (i, 0)) for i, c in enumerate(f)]
        return _one_equation(p, k, "affine", 2, _spec_terms(field, terms)), False
    # y^2 = c x^e + d x + f with q <= e <= q + 2: exponents past q.
    e = draw(st.integers(p, p + 2))
    c, d, f0 = _scalars(draw, field, 3)
    f = [f0, d] + [0] * (e - 2) + [c or one]
    terms = [(one, (0, 2))] + [(field._sub(0, s), (i, 0)) for i, s in enumerate(f)]
    return _one_equation(p, k, "affine", 2, _spec_terms(field, terms)), _is_squarefree(field, f)


def _plane_curve_example(p, k, kind, terms, curve):
    return (_one_equation(p, k, kind, 2, terms), curve)


# Genus 2 over F_5: x^5 + x + 1 = (x - 2)(x^2 + x + 1)(x^2 + x + 2) is squarefree.
_GENUS_2 = [(1, (0, 2)), (-1, (5, 0)), (-1, (1, 0)), (-1, (0, 0))]
# A smooth conic over F_7: genus 0, D of degree 2.
_CONIC = [(1, (2, 0, 0)), (3, (0, 2, 0)), (5, (0, 0, 2))]
# y^2 z + g xyz = x^3 + z^3 over F_9: B = g z is not 0.
_CUBIC_WITH_B = [
    ([1, 0], (0, 2, 1)), ([0, 1], (1, 1, 1)), ([2, 0], (3, 0, 0)), ([2, 0], (0, 0, 3))
]
# x y + g x^3 + 1 over F_4: A = 0, counted by roots only.
_LINEAR_F4 = [([1, 0], (1, 1)), ([0, 1], (3, 0)), ([1, 0], (0, 0))]
# y^2 = x^2 (x + 1) over F_5: a node, D not squarefree.
_NODE = [(1, (0, 2)), (-1, (3, 0)), (-1, (2, 0))]
# y^2 z^2 + y over F_7 and (4z^2 + 2) y^2 + z y + 1 over F_5, y first: D is
# the constant 1, a square, and 2, not a square.
_CONSTANT_SQUARE = [(1, (2, 2)), (1, (1, 0))]
_CONSTANT_NONSQUARE = [(4, (2, 2)), (2, (2, 0)), (1, (1, 1)), (1, (0, 0))]


@settings(max_examples=60)
@given(_plane_curve_specs())
@example(_plane_curve_example(5, 1, "affine", _GENUS_2, True))
@example(_plane_curve_example(7, 1, "projective", _CONIC, None))
@example(_plane_curve_example(3, 2, "projective", _CUBIC_WITH_B, None))
@example(_plane_curve_example(2, 2, "affine", _LINEAR_F4, True))
@example(_plane_curve_example(5, 1, "affine", _NODE, False))
@example(_plane_curve_example(7, 1, "affine", _CONSTANT_SQUARE, True))
@example(_plane_curve_example(5, 1, "affine", _CONSTANT_NONSQUARE, True))
def test_plane_curve_count_matches_fibres_and_oracle(case):
    from unittest import mock

    from fqzeta import varieties
    from fqzeta.varieties import _Count, _count_curve, _plan

    spec, curve = case
    counts = count_series(spec, 4, budget=10**12).counts
    with mock.patch.object(varieties, "_plane_curve", return_value=None):
        fibres = count_series(VarietySpec.from_dict(spec.to_dict()), 4, budget=10**12).counts
    assert counts == fibres
    for n, got in enumerate(counts, start=1):
        size = domain_size(spec, n)
        order = spec.q**n
        if order**2 <= 5000:
            field = make_extension(spec.p, spec.k * n)
            assert got == count_pure(spec, field, embedded_equations(spec, field), 0, size)
        if order**2 <= 10**5:
            cut = order**2 // 2 + 1  # inside the chart with two free coordinates
            assert got == sum(count_points(spec, n, span=s) for s in ((0, cut), (cut, size)))
    # At n = 4 every shape with a squarefree D, or with A = 0, is within
    # the genus bound of the curve; a repeated factor stays on fibres.
    [(_, counter, _), *_] = _plan(_Count(spec, 4), 0, domain_size(spec, 4))
    if curve is not None:
        assert (counter is _count_curve) == curve


def test_curve_series_to_n64_imports_no_numpy(monkeypatch):
    # N_1..N_64 of a smooth Weierstrass curve over F_13 from its one
    # character sum over F_13.  A None entry in sys.modules makes any
    # import of numpy raise ImportError.
    from fqzeta.zeta import ZetaFunction, counts_from_zeta

    p = 13
    spec = _curve(p, 2, 3)  # smooth: 4*2^3 + 27*3^2 = 275 is 2 mod 13
    monkeypatch.setitem(sys.modules, "numpy", None)
    counts = count_series(spec, 64, budget=p**130).counts
    n1 = p + 1 + sum(_legendre(x**3 + 2 * x + 3, p) for x in range(p))
    trace = p + 1 - n1
    expected = counts_from_zeta(ZetaFunction(p, (1, -trace, p), (1, -(p + 1), p)), 64).counts
    assert counts == expected


def test_curve_keeps_its_l_polynomial(monkeypatch):
    # y^2 = x^5 + 3x + 2 in A^2 over F_7: genus 2, with one point at
    # infinity on its smooth model, so the affine counts plus 1 fit a zeta
    # function of profile (1, 4, 1) whose numerator is the curve's L(t).
    from fqzeta import varieties
    from fqzeta.varieties import PointCountSeries
    from fqzeta.zeta import connected_denominator, zeta_from_counts

    calls = []
    character_sum = varieties._character_sum
    monkeypatch.setattr(
        varieties,
        "_character_sum",
        lambda spec, disc, m: calls.append(m) or character_sum(spec, disc, m),
    )
    spec = _one_equation(7, 1, "affine", 2, [(1, (0, 2)), (-1, (5, 0)), (-3, (1, 0)), (-2, (0, 0))])
    counts = count_series(spec, 4).counts
    assert counts == (6, 48, 321, 2568)
    curve = spec._block_plans[()][1][1][0]
    assert curve.lpoly == [1, -1, 0, -7, 49]
    fit = zeta_from_counts(
        PointCountSeries(7, tuple(c + 1 for c in counts)),
        4,
        2,
        known_denominator=connected_denominator(7, 1),
    )
    assert list(fit.num) == curve.lpoly
    # S_1 and S_2 are summed once for both series; L serves every later n.
    assert count_series(spec, 4).counts == counts
    assert calls == [1, 2]
