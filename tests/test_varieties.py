import json

import pytest

from fqzeta.errors import BudgetExceededError, MalformedSpecError
from fqzeta.fields import make_extension
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
    # n=3 crosses the vectorized/pure backend threshold: the full pass is
    # vectorized while quarter spans run the pure path, so agreement of the
    # partition sums also cross-validates the two backends.
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
    # F_{37^2} has more than 1024 elements, so this runs the digit-wise
    # kernel, in chunks of _CHUNK // 2 points.  The cuts fall inside chunks,
    # so every piece starts and ends off the chunk grid of the full pass.
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
    g = embed((0, 1))

    def modulus_at(x):
        acc = (0,) * big.k
        for c in reversed(base.modulus):
            acc = big._add(big._mul(acc, x), big.element(c).coeffs)
        return acc

    # g must satisfy the base modulus inside F_81, and be its
    # lexicographically first root there.
    assert not any(modulus_at(g))
    assert g == next(t for t in big._tuples() if not any(modulus_at(t)))


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
    path.write_text("{not json")
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
    from fqzeta.varieties import _count_numpy, _count_pure, _embedded_equations

    field = make_extension(spec.p, spec.k * n)
    eqs = _embedded_equations(spec, field)
    lo, hi = span or (0, domain_size(spec, n))
    pure = _count_pure(spec, field, eqs, lo, hi)
    vec = _count_numpy(spec, field, eqs, lo, hi)
    assert pure == vec == expected


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


# The point counter builds a field's order^2 tables only for a count that
# evaluates at least order^2 points.  fresh_tables clears the session-wide
# cached tables first, so these checks do not depend on test order.


def test_projective_line_over_f1024_uses_digit_kernel(fresh_tables):
    from fqzeta.varieties import _count_pure, _embedded_equations

    # x^5 + x^2 y^3 + y^5 = 0 in P^1 over F_{2^10}: 1025 points, far fewer
    # than the 2^20 table entries.
    spec = _binary_form_p1(2, [[1, [5, 0]], [1, [2, 3]], [1, [0, 5]]])
    field = fresh_tables(make_extension(2, 10))
    got = count_points(spec, 10)
    assert field._np_tables is None
    eqs = _embedded_equations(spec, field)
    assert got == _count_pure(spec, field, eqs, 0, domain_size(spec, 10))


def test_plane_curve_count_builds_tables(fresh_tables):
    from fqzeta.varieties import _count_pure, _embedded_equations

    # P^2 over F_31 has 993 points, more than the 961 table entries.
    spec = _curve(31, 1, 1)
    field = fresh_tables(make_extension(31, 1))
    got = count_points(spec, 1)
    assert field._np_tables is not None
    eqs = _embedded_equations(spec, field)
    assert got == _count_pure(spec, field, eqs, 0, domain_size(spec, 1))


def test_first_root_builds_no_tables(fixtures_dir, fresh_tables):
    from fqzeta.varieties import _first_root

    spec = load_spec(fixtures_dir / "line_f4.json")
    base = make_extension(spec.p, spec.k)
    field = fresh_tables(make_extension(spec.p, spec.k * 5))
    root = _first_root(base.modulus, field)
    assert field._np_tables is None

    def value_at(x):
        acc = (0,) * field.k
        for c in reversed(base.modulus):
            acc = field._add(field._mul(acc, x), field.element(c).coeffs)
        return acc

    assert root == next(i for i, t in enumerate(field._tuples()) if not any(value_at(t)))
