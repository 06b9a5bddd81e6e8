"""Exact Gaussian elimination over any field-like scalar type.

Entries of ``rref`` only need +, -, *, / and truthiness (zero is falsy);
zero entries are skipped, not computed with.  The program reduces the
trace solver's rows over Q with it, after their weight grading takes the
powers of q out.  The tests also reduce rows over Q(q), in a
rational-function class that only they use, as the reference the graded
reduction must match.  ``solve``, for the zeta fit's linear systems, works
over Q in integers: it scales each row to Z and eliminates fraction-free
(Bareiss, 1968), so that the only Fractions it forms are its solution.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm


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
    """Solve A x = b exactly over Q; entries may be ints or Fractions.

    Returns the solution as Fractions with free variables set to zero, or
    None if the system is inconsistent.  Pivots are chosen as in ``rref``.
    Each step replaces every other row by (pv * row - f * pivot row) / prev,
    where pv is the pivot, f the row's entry in the pivot column and prev
    the previous pivot; the division is exact, since every entry is then a
    minor of the scaled system.  Each row stays a nonzero multiple of its
    ``rref`` counterpart, so a pivot row's solution entry is its right-hand
    side over its pivot.
    """
    nunk = len(matrix[0]) if matrix else 0
    aug = []
    for row, b in zip(matrix, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        den = lcm(*(x.denominator for x in entries))
        aug.append([x.numerator * (den // x.denominator) for x in entries])
    pivots: list[tuple[int, int]] = []
    prev = 1
    for col in range(nunk):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot, pv = aug[r], aug[r][col]
        for j, row in enumerate(aug):
            if j != r:
                f = row[col]
                aug[j] = [(pv * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = pv
        pivots.append((r, col))
        if len(pivots) == len(aug):
            break
    if any(row[nunk] and not any(row[:nunk]) for row in aug):
        return None
    sol = [Fraction(0)] * nunk
    for r, col in pivots:
        sol[col] = Fraction(aug[r][nunk], aug[r][col])
    return sol
