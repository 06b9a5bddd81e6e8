"""Exact Gaussian elimination over any field-like scalar type.

Entries of ``rref`` only need +, -, *, / and truthiness (zero is falsy),
which both fractions.Fraction and fqzeta.ratfunc.RationalFunctionQ provide;
zero entries are skipped, not computed with.  ``solve`` works over Q and
coerces its entries to Fraction.  The program reduces only Fraction
entries: the zeta fit's linear systems, and the trace solver's rows over Q
after their weight grading takes the powers of q out.  The tests also
reduce RationalFunctionQ rows, as the reference the graded reduction must
match.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def rref(matrix: Sequence[Sequence], col_order: Sequence[int] | None = None):
    """Reduced row echelon form.

    Returns (rows, pivots) where pivots is a list of (row_index, column)
    pairs in elimination order.  Columns are processed in ``col_order``
    (all columns, left to right, by default); the first row with a nonzero
    entry is chosen as pivot, so the result is deterministic.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    order = list(col_order) if col_order is not None else list(range(ncols))
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in order:
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv if x else x for x in rows[r]]
        for j in range(len(rows)):
            if j == r or not rows[j][col]:
                continue
            factor = rows[j][col]
            rows[j] = [x - factor * y if y else x for x, y in zip(rows[j], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve(matrix, rhs):
    """Solve A x = b exactly over Q; entries are coerced to Fraction.

    Returns the solution with free variables set to zero, or None if the
    system is inconsistent.
    """
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    nunk = len(matrix[0]) if matrix else 0
    rows, pivots = rref(aug, col_order=range(nunk))
    sol = [Fraction(0)] * nunk
    pivot_cols = {col: r for r, col in pivots}
    for col, r in pivot_cols.items():
        sol[col] = rows[r][nunk]
    for row in rows:
        if not any(row[:nunk]) and row[nunk]:
            return None
    return sol
