"""Which Frobenius-trace equalities between two varieties are forced?

For smooth projective X and Y of dimension d over F_q that are derived
equivalent, the comparison of their cohomologies yields homogeneous linear
constraints on the per-degree trace differences

    D_i = Tr(Frob | H^i of X) - Tr(Frob | H^i of Y),      0 <= i <= 2d.

Working with differences is valid because every constraint is linear with
identical coefficients on both sides.  The rows, over the field Q(q):

* EVEN_MUKAI:   sum_{i=0..d} q^(-i) D_{2i} = 0
* ODD_MUKAI:    sum_{i=1..d} q^(-i) D_{2i-1} = 0
* HL(i), i < d: D_{2d-i} - q^(d-i) D_i = 0        (hard Lefschetz pairing)
* TRIVIAL(i):   D_i = 0 for i in {0, 2d}          (connectedness)
* ALBANESE:     D_1 = 0                           (isogenous Albanese varieties)

solve_forced reports which D_i vanish in every solution over Q(q)
("forced": the zeta-relevant traces agree for every prime power q at once),
plus one explicit relation per unforced pivot.  Columns are eliminated from
degree 2d down to 0, so free parameters sit in the lowest unforced degrees
and residual relations express higher traces in terms of lower ones.

Every entry is a monomial c * q^e, stored as the pair (c, e) with c rational
(an int, +-1 or 0, in the rows build_constraint_system makes), and every row
is homogeneous once D_i has weight i/2 and q weight 1: 2e + i is the same over
the row's support.  The Q(q) reduction is then a reduction of the c's over Q,
done in Z with primitive rows, with the powers of q put back from the grading
(see solve_forced).  A row that is not homogeneous is refused with a
ValueError.

instantiate_at_q specializes the system at a rational q0 > 1, keeping its
flags, and solve_forced_numeric re-derives the forced set there by an
independent rank-comparison elimination, serving as an oracle for the
symbolic result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, polys
from .errors import DimensionMismatchError
from .zeta import TraceVector


@dataclass(frozen=True)
class SolverFlags:
    albanese: bool = True
    hard_lefschetz: bool = True
    trivial: bool = True

    def to_dict(self) -> dict:
        return {
            "albanese": self.albanese,
            "hard_lefschetz": self.hard_lefschetz,
            "trivial": self.trivial,
        }


def unknown_names(d: int) -> tuple[str, ...]:
    """The 2d+1 unknowns D_0..D_{2d}; D_i is the degree-i trace difference."""
    return tuple(f"D_{i}" for i in range(2 * d + 1))


@dataclass(frozen=True)
class ConstraintRow:
    label: str
    coeffs: tuple[tuple[int | Fraction, int], ...]  # entry i is c * q^e, as (c, e)


@dataclass(frozen=True)
class TraceConstraintSystem:
    d: int
    rows: tuple[ConstraintRow, ...]
    flags: SolverFlags

    @property
    def unknowns(self) -> int:
        return 2 * self.d + 1


@dataclass(frozen=True)
class NumericTraceSystem:
    d: int
    q0: Fraction
    flags: SolverFlags
    rows: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Relation:
    """A linear relation sum_i coeff_i * D_i = 0 with integer-poly coefficients."""

    coeffs: tuple[tuple[int, tuple[int, ...]], ...]  # ((degree, poly in q), ...)

    def to_dict(self) -> dict:
        return {
            "coeffs": {
                f"D_{i}": f"{polys.render(poly, 'q')}/1" for i, poly in self.coeffs
            }
        }

    def __str__(self):
        parts = []
        for i, poly in self.coeffs:
            s = polys.render(poly, "q")
            if s == "1":
                term = f"D_{i}"
            elif s == "-1":
                term = f"-D_{i}"
            elif s.startswith("-") or " " in s:
                term = f"({s})*D_{i}"
            else:
                term = f"{s}*D_{i}"
            parts.append(term)
        return " + ".join(parts) + " = 0"


@dataclass(frozen=True)
class ForcedReport:
    d: int
    flags: SolverFlags
    forced: tuple[int, ...]
    residual: tuple[Relation, ...]
    q0: Fraction | None = None

    @property
    def fully_forced(self) -> bool:
        return self.forced == tuple(range(2 * self.d + 1))

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "flags": self.flags.to_dict(),
            "forced": list(self.forced),
            "residual_relations": [r.to_dict() for r in self.residual],
        }
        if self.q0 is not None:
            out["q0"] = f"{self.q0.numerator}/{self.q0.denominator}"
        return out


def build_constraint_system(
    d: int,
    *,
    include_albanese: bool = True,
    include_hard_lefschetz: bool = True,
    include_trivial: bool = True,
) -> TraceConstraintSystem:
    """The homogeneous constraint rows on D_0..D_{2d} for dimension d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    n = 2 * d + 1
    zero = (0, 0)
    rows = []

    even = [zero] * n
    for i in range(d + 1):
        even[2 * i] = (1, -i)
    rows.append(ConstraintRow("EVEN_MUKAI", tuple(even)))

    odd = [zero] * n
    for i in range(1, d + 1):
        odd[2 * i - 1] = (1, -i)
    rows.append(ConstraintRow("ODD_MUKAI", tuple(odd)))

    if include_hard_lefschetz:
        for i in range(d):
            row = [zero] * n
            row[2 * d - i] = (1, 0)
            row[i] = (-1, d - i)
            rows.append(ConstraintRow(f"HL({i})", tuple(row)))

    if include_trivial:
        for i in (0, 2 * d):
            row = [zero] * n
            row[i] = (1, 0)
            rows.append(ConstraintRow(f"TRIVIAL({i})", tuple(row)))

    if include_albanese:
        row = [zero] * n
        row[1] = (1, 0)
        rows.append(ConstraintRow("ALBANESE", tuple(row)))

    return TraceConstraintSystem(
        d,
        tuple(rows),
        SolverFlags(include_albanese, include_hard_lefschetz, include_trivial),
    )


def _graded_row(row: ConstraintRow) -> list[int | Fraction]:
    """The c_i of a row whose entries c_i * q^(e_i) have 2 e_i + i constant."""
    if len({2 * e + i for i, (c, e) in enumerate(row.coeffs) if c}) > 1:
        raise ValueError(
            f"constraint row {row.label} is not homogeneous for the weight "
            "grading (D_i of weight i/2, q of weight 1)"
        )
    return [c for c, _ in row.coeffs]


def _reduce(
    matrix, n: int, graded: bool
) -> tuple[tuple[int, ...], tuple[Relation, ...]]:
    """Reduce over Z, with primitive rows, columns from degree n - 1 down to 0.

    Returns the degrees whose pivot row is the lone entry D_i = 0, and one
    primitive integer relation per other pivot row, pivot coefficient
    positive.  If ``graded``, the entry in column i of the row with pivot p
    stands for the Q(q) entry times q^((p - i)/2); p is the row's highest
    column, and a graded row's support has one parity, so the exponent is a
    nonnegative integer.
    """
    rows, pivots = linalg.primitive_rref(matrix, range(n - 1, -1, -1))
    forced = []
    residual = []
    for r, p in pivots:
        row = rows[r]
        if len(row) == 1:
            forced.append(p)
            continue
        coeffs = tuple(
            (i, (0,) * ((p - i) // 2 if graded else 0) + (row[i],))
            for i in sorted(row)
        )
        residual.append(Relation(coeffs))
    return tuple(sorted(forced)), tuple(residual)


def solve_forced(system: TraceConstraintSystem) -> ForcedReport:
    """Row-reduce by the weight grading; D_i is forced iff it is 0 in every solution.

    Give D_i weight i/2 and q weight 1.  Entry i of row r is
    c_(r,i) * q^(e_(r,i)), and a homogeneous row has 2 e_(r,i) + i = w_r
    over its support, so the row is q^(w_r/2) times c_(r,i) * q^(-i/2).
    The Q(q) row space is then that of C * diag(q^(-i/2)), C = (c_(r,i)),
    so its RREF (unique for the fixed column order) is RREF(C) over Q with
    entry (r, i) times q^((p_r - i)/2), p_r the pivot of row r.  C is
    reduced over Z, with primitive rows, and the forced degrees and
    relations are read off it.  A row that is not homogeneous raises
    ValueError naming its label.
    """
    matrix = [_graded_row(row) for row in system.rows]
    forced, residual = _reduce(matrix, system.unknowns, graded=True)
    return ForcedReport(system.d, system.flags, forced, residual)


def instantiate_at_q(system: TraceConstraintSystem, q0) -> NumericTraceSystem:
    """Specialize the symbolic system at a rational q0 > 1."""
    q0 = Fraction(q0)
    if q0 <= 1:
        raise ValueError(f"q0 must exceed 1, got {q0}")
    rows = tuple(
        tuple(c * q0**e for c, e in row.coeffs) for row in system.rows
    )
    return NumericTraceSystem(system.d, q0, system.flags, rows)


def _rank(rows: list[list[Fraction]]) -> int:
    """Forward elimination only; independent of linalg.primitive_rref."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / pr[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], pr)]
        rank += 1
    return rank


def solve_forced_numeric(nsys: NumericTraceSystem) -> ForcedReport:
    """Forced set at a fixed q0, by rank comparison.

    D_i vanishes on the whole solution space iff appending the row D_i = 0
    does not raise the rank.  This route shares no elimination code with
    solve_forced, so agreement between the two is a meaningful check.
    """
    n = 2 * nsys.d + 1
    base = [list(r) for r in nsys.rows]
    base_rank = _rank(base)
    forced = []
    for i in range(n):
        extra = [Fraction(0)] * n
        extra[i] = Fraction(1)
        if _rank(base + [extra]) == base_rank:
            forced.append(i)
    # Residual relations are presentation only; read them off the same
    # integer reduction as solve_forced.
    _, residual = _reduce(nsys.rows, n, graded=False)
    return ForcedReport(nsys.d, nsys.flags, tuple(forced), tuple(residual), q0=nsys.q0)


@dataclass(frozen=True)
class RowCheck:
    label: str
    n: int
    value: Fraction
    ok: bool


@dataclass(frozen=True)
class TraceCheckReport:
    q: int
    depth: int
    checks: tuple[RowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RowCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_traces_against_system(
    tx: TraceVector, ty: TraceVector, system: TraceConstraintSystem
) -> TraceCheckReport:
    """Substitute D_i = tx_i - ty_i and check every row exactly, per power n.

    The identities for the n-th power Frobenius are the base identities with
    q replaced by q^n (a Tate twist scales n-th power eigenvalues by q^(-in)),
    so row coefficients are evaluated at q0 = q^n.
    """
    if tx.q != ty.q:
        raise DimensionMismatchError(f"trace vectors over q={tx.q} and q={ty.q}")
    if tx.d != ty.d or tx.d != system.d:
        raise DimensionMismatchError(
            f"dimensions differ: tx d={tx.d}, ty d={ty.d}, system d={system.d}"
        )
    if tx.depth != ty.depth:
        raise DimensionMismatchError(
            f"trace depths differ: {tx.depth} vs {ty.depth}"
        )
    checks = []
    for n in range(1, tx.depth + 1):
        qn = Fraction(tx.q) ** n
        diffs = [tx.trace(i, n) - ty.trace(i, n) for i in range(2 * tx.d + 1)]
        for row in system.rows:
            value = sum(
                (c * qn**e * d for (c, e), d in zip(row.coeffs, diffs)),
                Fraction(0),
            )
            checks.append(RowCheck(row.label, n, value, value == 0))
    return TraceCheckReport(tx.q, tx.depth, tuple(checks))
