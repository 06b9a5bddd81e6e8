import itertools
import json
from fractions import Fraction

import pytest

import qpolys
from ratfunc import ONE, RationalFunctionQ

from fqzeta import linalg, polys
from fqzeta.errors import DimensionMismatchError
from fqzeta.tracesolver import (
    ConstraintRow,
    ForcedReport,
    Relation,
    SolverFlags,
    TraceConstraintSystem,
    _rank,
    build_constraint_system,
    instantiate_at_q,
    solve_forced,
    solve_forced_numeric,
    verify_traces_against_system,
)
from fqzeta.zeta import (
    CohomologyProfile,
    TraceVector,
    ZetaFunction,
    factor_by_weights,
    traces_from_factorization,
)

ALL_FLAGS = list(itertools.product([False, True], repeat=3))


def system(d, alb=True, hl=True, triv=True):
    return build_constraint_system(
        d, include_albanese=alb, include_hard_lefschetz=hl, include_trivial=triv
    )


ZERO = (0, 0)


def qp(e, c=1):
    """The row entry c * q^e."""
    return (c, e)


def over_qq(entry):
    """A row entry (c, e) as the element c * q^e of the test-side Q(q)."""
    c, e = entry
    return RationalFunctionQ.q_power(e) * c


def scaled(row, c, e):
    """A row times the monomial c * q^e."""
    return ConstraintRow(
        row.label, tuple((a * c, b + e) if a else (a, b) for a, b in row.coeffs)
    )


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 6))
def test_rows_are_integer_monomials(d):
    for alb, hl, triv in ALL_FLAGS:
        for row in system(d, alb, hl, triv).rows:
            assert all(type(c) is int and type(e) is int for c, e in row.coeffs)


def test_d3_full_system_shape():
    sys3 = system(3)
    assert sys3.unknowns == 7
    assert [r.label for r in sys3.rows] == [
        "EVEN_MUKAI",
        "ODD_MUKAI",
        "HL(0)",
        "HL(1)",
        "HL(2)",
        "TRIVIAL(0)",
        "TRIVIAL(6)",
        "ALBANESE",
    ]


def test_d1_no_albanese_rows():
    sys1 = system(1, alb=False)
    assert [r.label for r in sys1.rows] == [
        "EVEN_MUKAI",
        "ODD_MUKAI",
        "HL(0)",
        "TRIVIAL(0)",
        "TRIVIAL(2)",
    ]


def test_d2_no_albanese_is_six_rows_over_five_unknowns():
    sys2 = system(2, alb=False)
    assert len(sys2.rows) == 6
    assert sys2.unknowns == 5


def test_row_coefficients():
    sys3 = system(3)
    rows = {r.label: r.coeffs for r in sys3.rows}
    assert rows["EVEN_MUKAI"] == (qp(0), ZERO, qp(-1), ZERO, qp(-2), ZERO, qp(-3))
    assert rows["ODD_MUKAI"] == (ZERO, qp(-1), ZERO, qp(-2), ZERO, qp(-3), ZERO)
    assert rows["HL(1)"] == (ZERO, qp(2, -1), ZERO, ZERO, ZERO, qp(0), ZERO)
    assert rows["TRIVIAL(0)"][0] == qp(0)
    assert rows["ALBANESE"][1] == qp(0)


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        build_constraint_system(0)


# ---------------------------------------------------------------------------
# Forced sets (hand-eliminated expectations)
# ---------------------------------------------------------------------------


def test_d3_full_forces_everything():
    report = solve_forced(system(3))
    assert report.forced == (0, 1, 2, 3, 4, 5, 6)
    assert report.fully_forced
    assert report.residual == ()


def test_d3_without_albanese():
    report = solve_forced(system(3, alb=False))
    assert report.forced == (0, 2, 4, 6)
    relations = {rel.coeffs for rel in report.residual}
    # Hand elimination: the odd block leaves D_3 = -2q D_1 and D_5 = q^2 D_1.
    assert ((1, (0, 2)), (3, (1,))) in relations  # 2q D_1 + D_3 = 0
    assert ((1, (0, 0, -1)), (5, (1,))) in relations  # -q^2 D_1 + D_5 = 0
    assert len(relations) == 2


def test_d2_forced_without_albanese():
    report = solve_forced(system(2, alb=False))
    assert report.forced == (0, 1, 2, 3, 4)
    assert report.fully_forced


def test_d4_not_fully_forced_even_with_albanese():
    report = solve_forced(system(4))
    assert report.forced == (0, 1, 3, 5, 7, 8)
    relations = {rel.coeffs for rel in report.residual}
    assert ((2, (0, 2)), (4, (1,))) in relations  # 2q D_2 + D_4 = 0
    assert ((2, (0, 0, -1)), (6, (1,))) in relations  # D_6 = q^2 D_2
    assert len(relations) == 2


def test_d1_forced_even_without_albanese():
    report = solve_forced(system(1, alb=False))
    assert report.forced == (0, 1, 2)


def test_mukai_rows_alone_still_force_d1_odd():
    report = solve_forced(system(1, alb=False, hl=False, triv=False))
    assert 1 in report.forced
    assert 0 not in report.forced


def test_albanese_removal_strictly_shrinks_d3():
    with_alb = set(solve_forced(system(3)).forced)
    without = set(solve_forced(system(3, alb=False)).forced)
    assert without < with_alb


# ---------------------------------------------------------------------------
# Numeric instantiation agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_symbolic_numeric_agreement(d):
    for alb, hl, triv in ALL_FLAGS:
        sys_ = system(d, alb, hl, triv)
        forced_sym = solve_forced(sys_).forced
        for q0 in (2, 3, 5, Fraction(49, 9)):
            forced_num = solve_forced_numeric(instantiate_at_q(sys_, q0)).forced
            assert forced_num == forced_sym, (d, alb, hl, triv, q0)


def test_instantiate_requires_q0_above_one():
    with pytest.raises(ValueError):
        instantiate_at_q(system(2), 1)
    with pytest.raises(ValueError):
        instantiate_at_q(system(2), Fraction(1, 2))


def test_numeric_report_carries_q0():
    report = solve_forced_numeric(instantiate_at_q(system(3, alb=False), 4))
    assert report.q0 == 4
    assert report.forced == (0, 2, 4, 6)
    assert report.flags == SolverFlags(False, True, True)
    full = solve_forced_numeric(instantiate_at_q(system(3), 4))
    assert full.forced == (0, 1, 2, 3, 4, 5, 6)


def test_unknown_names():
    from fqzeta.tracesolver import unknown_names

    assert unknown_names(1) == ("D_0", "D_1", "D_2")
    assert len(unknown_names(3)) == system(3).unknowns


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def _leq(f1, f2):
    return all(not a or b for a, b in zip(f1, f2))


@pytest.mark.parametrize("d", range(1, 6))
def test_monotonicity_over_flag_lattice(d):
    reports = {flags: set(solve_forced(system(d, *flags)).forced) for flags in ALL_FLAGS}
    for f1 in ALL_FLAGS:
        for f2 in ALL_FLAGS:
            if _leq(f1, f2):
                assert reports[f1] <= reports[f2], (d, f1, f2)


def test_adding_a_row_never_shrinks_forced():
    base = system(4, alb=False)
    before = set(solve_forced(base).forced)
    extra = [ZERO] * base.unknowns
    extra[3] = qp(0)
    extended = TraceConstraintSystem(
        base.d, base.rows + (ConstraintRow("EXTRA", tuple(extra)),), base.flags
    )
    after = set(solve_forced(extended).forced)
    assert before <= after
    assert 3 in after


@pytest.mark.parametrize("d", range(1, 6))
def test_duality_closure(d):
    for alb in (False, True):
        report = solve_forced(system(d, alb=alb))
        for i in report.forced:
            assert 2 * d - i in report.forced, (d, alb, i)


def test_d4_without_albanese_only_forces_the_ends():
    # Hand elimination: evens reduce to D_4 = -2q D_2, D_6 = q^2 D_2 with D_2
    # free; odds to D_3 = -q D_1, D_5 = q D_3, D_7 = q^3 D_1 with D_1 free.
    report = solve_forced(system(4, alb=False))
    assert report.forced == (0, 8)
    assert len(report.residual) == 5
    relations = {rel.coeffs for rel in report.residual}
    assert ((1, (0, 1)), (3, (1,))) in relations  # q D_1 + D_3 = 0


def test_report_serialization_deterministic():
    report = solve_forced(system(4, alb=False))
    ser1 = json.dumps(report.to_dict(), sort_keys=True)
    ser2 = json.dumps(solve_forced(system(4, alb=False)).to_dict(), sort_keys=True)
    assert ser1 == ser2
    parsed = json.loads(ser1)
    assert parsed["forced"] == [0, 8]
    for rel in parsed["residual_relations"]:
        for value in rel["coeffs"].values():
            assert "/" in value


# ---------------------------------------------------------------------------
# Verifying concrete trace data
# ---------------------------------------------------------------------------

ELLIPTIC_W5 = factor_by_weights(
    ZetaFunction(5, (1, 3, 5), (1, -6, 5)), CohomologyProfile(1, (1, 2, 1))
)
P1_W5 = factor_by_weights(
    ZetaFunction(5, (1,), (1, -6, 5)), CohomologyProfile(1, (1, 0, 1))
)


def test_identical_traces_satisfy_all_rows():
    tv = traces_from_factorization(ELLIPTIC_W5, 3)
    report = verify_traces_against_system(tv, tv, system(1))
    assert report.ok
    assert len(report.checks) == 3 * len(system(1).rows)


def test_elliptic_vs_line_violates_odd_row():
    tx = traces_from_factorization(ELLIPTIC_W5, 3)
    ty = traces_from_factorization(P1_W5, 3)
    report = verify_traces_against_system(tx, ty, system(1))
    assert not report.ok
    failed = {c.label for c in report.failures()}
    assert failed == {"ODD_MUKAI", "ALBANESE"}
    odd_n1 = next(c for c in report.checks if c.label == "ODD_MUKAI" and c.n == 1)
    assert odd_n1.value == Fraction(-3, 5)


def test_row_evaluation_uses_qn_for_power_n():
    # For the same variety all rows vanish; for distinct ones the ODD row at
    # power n is (tr_1(n)) / q^n, confirming the q -> q^n substitution.
    tx = traces_from_factorization(ELLIPTIC_W5, 3)
    ty = traces_from_factorization(P1_W5, 3)
    report = verify_traces_against_system(tx, ty, system(1, alb=False))
    for c in report.checks:
        if c.label == "ODD_MUKAI":
            expected = (tx.trace(1, c.n) - 0) / Fraction(5) ** c.n
            assert c.value == expected


@pytest.mark.parametrize("d", range(1, 6))
def test_report_invariant_under_row_scaling(d):
    # Scaling each row by its own nonzero monomial (-3/2 q^-3 for the first,
    # 9/4 q^-2 for the second, ...) keeps the row space, and with it the
    # RREF, the forced set and the residual relations.
    for alb, hl, triv in ALL_FLAGS:
        base = system(d, alb, hl, triv)
        rows = tuple(
            scaled(r, Fraction(-3, 2) ** (k + 1), k - 3) for k, r in enumerate(base.rows)
        )
        scaled_system = TraceConstraintSystem(d, rows, base.flags)
        assert solve_forced(scaled_system).to_dict() == solve_forced(base).to_dict()


# ---------------------------------------------------------------------------
# The graded reduction against a reduction over Q(q)
# ---------------------------------------------------------------------------


def _relation_over_qq(row, pivot_col):
    """Integer-cleared form of a nonzero RREF row over Q(q), pivot coefficient positive."""
    entries = [(i, c) for i, c in enumerate(row) if c]
    common_den = qpolys.ONE
    for _, c in entries:
        g = polys.gcd(common_den, c.den)[0]
        common_den = qpolys.div_mod(polys.mul(common_den, c.den), g)[0]
    cleared = []
    for i, c in entries:
        multiplier = qpolys.div_mod(common_den, c.den)[0]
        cleared.append((i, polys.mul(c.num, multiplier)))
    flat_num = []
    splits = []
    for _, poly in cleared:
        splits.append((len(flat_num), len(poly)))
        flat_num.extend(poly)
    ints, _ = qpolys.clear_integer_pair(tuple(flat_num), ())
    padded = list(ints) + [0] * (len(flat_num) - len(ints))
    out = []
    for (i, _), (ofs, ln) in zip(cleared, splits):
        out.append((i, polys.normalize(padded[ofs : ofs + ln])))
    pivot_poly = dict(out)[pivot_col]
    if pivot_poly and pivot_poly[-1] < 0:
        out = [(i, tuple(-c for c in poly)) for i, poly in out]
    return Relation(tuple(sorted(out)))


def _report_over_qq(d, flags, rows, q0=None):
    """The forced set and relations read off the RREF of Q(q) rows."""
    n = 2 * d + 1
    reduced, pivots = linalg.rref(rows, col_order=range(n - 1, -1, -1))
    forced = []
    residual = []
    for r, col in pivots:
        if [i for i, c in enumerate(reduced[r]) if c] == [col]:
            forced.append(col)
        else:
            residual.append(_relation_over_qq(reduced[r], col))
    return ForcedReport(d, flags, tuple(sorted(forced)), tuple(residual), q0)


@pytest.mark.parametrize("d", [*range(1, 7), 8, 12, 16])
def test_graded_reduction_matches_reduction_over_qq(d):
    # The oracle reduces the rows over Q(q) by linalg.rref, once as built and
    # once times a factor that is not a monomial, which keeps the row space.
    # The program reduces them sparse in Z by linalg.primitive_rref, so the
    # two share no elimination code.  rref pivots on the first candidate row
    # and primitive_rref on the sparsest, a different row at some step for
    # every d; d = 8, 12 and 16 add larger systems, as in the large-d tests.
    scale = RationalFunctionQ((1, 0, 1), (0, 0, 0, 1))  # (q^2 + 1) / q^3
    for alb, hl, triv in ALL_FLAGS:
        base = system(d, alb, hl, triv)
        got = solve_forced(base).to_dict()
        for factor in (ONE, scale):
            rows = [[over_qq(c) * factor for c in r.coeffs] for r in base.rows]
            want = _report_over_qq(d, base.flags, rows).to_dict()
            assert got == want, (d, alb, hl, triv, factor)


@pytest.mark.parametrize("d", range(1, 7))
def test_numeric_report_matches_reduction_over_qq(d):
    for alb, hl, triv in ALL_FLAGS:
        base = system(d, alb, hl, triv)
        for q0 in (2, 3, Fraction(5, 2)):
            nsys = instantiate_at_q(base, q0)
            assert nsys.rows == tuple(
                tuple(over_qq(c).evaluate(q0) for c in r.coeffs) for r in base.rows
            )
            rows = [[RationalFunctionQ((c,)) for c in row] for row in nsys.rows]
            want = _report_over_qq(d, base.flags, rows, nsys.q0).to_dict()
            assert solve_forced_numeric(nsys).to_dict() == want, (d, alb, hl, triv, q0)


@pytest.mark.parametrize("d", [8, 12, 16])
def test_large_d_relations_hold_at_q0(d):
    # Each residual relation, evaluated at q0 = 2, lies in the row space of
    # the instantiated system, and the symbolic forced set is the numeric one.
    for alb, hl, triv in ALL_FLAGS:
        base = system(d, alb, hl, triv)
        report = solve_forced(base)
        nsys = instantiate_at_q(base, 2)
        rows = [list(r) for r in nsys.rows]
        rank = _rank(rows)
        for rel in report.residual:
            extra = [Fraction(0)] * base.unknowns
            for i, poly in rel.coeffs:
                extra[i] = Fraction(polys.evaluate(poly, 2))
            assert _rank(rows + [extra]) == rank, (d, alb, hl, triv, str(rel))
        assert report.forced == solve_forced_numeric(nsys).forced


def test_row_not_homogeneous_for_the_grading_is_refused():
    even = ConstraintRow("EVEN_MUKAI", (qp(0), ZERO, qp(-1)))
    mixed = ConstraintRow("MIXED", (qp(0), qp(0), ZERO))  # D_0 + D_1 = 0
    with pytest.raises(ValueError, match="MIXED") as exc:
        solve_forced(TraceConstraintSystem(1, (even, mixed), SolverFlags()))
    assert "\n" not in str(exc.value)


def test_scaling_differences_preserves_satisfaction():
    tx = traces_from_factorization(ELLIPTIC_W5, 3)
    ty = traces_from_factorization(P1_W5, 3)
    base = verify_traces_against_system(tx, ty, system(1))
    for lam in (Fraction(2), Fraction(1, 3), Fraction(-1)):
        scaled_ty = TraceVector(
            ty.q,
            ty.d,
            ty.depth,
            tuple(
                tuple(
                    tx.trace(i, n) - lam * (tx.trace(i, n) - ty.trace(i, n))
                    for n in range(1, ty.depth + 1)
                )
                for i in range(2 * ty.d + 1)
            ),
        )
        scaled = verify_traces_against_system(tx, scaled_ty, system(1))
        assert [c.ok for c in scaled.checks] == [c.ok for c in base.checks]


def test_dimension_mismatch_errors():
    tv1 = traces_from_factorization(ELLIPTIC_W5, 3)
    tv_other_q = traces_from_factorization(
        factor_by_weights(
            ZetaFunction(7, (1, 2, 7), (1, -8, 7)), CohomologyProfile(1, (1, 2, 1))
        ),
        3,
    )
    with pytest.raises(DimensionMismatchError):
        verify_traces_against_system(tv1, tv_other_q, system(1))
    tv_short = traces_from_factorization(ELLIPTIC_W5, 2)
    with pytest.raises(DimensionMismatchError):
        verify_traces_against_system(tv1, tv_short, system(1))
    with pytest.raises(DimensionMismatchError):
        verify_traces_against_system(tv1, tv1, system(2))
