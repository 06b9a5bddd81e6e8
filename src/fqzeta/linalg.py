"""Exact Gaussian elimination over Q, in integers where the program uses it.

``rref`` reduces rows over any field-like scalar type: its entries only
need +, -, *, / and truthiness (zero is falsy), and zero entries are
skipped, not computed with.  It is the tests' reference, over Q and over
Q(q) in a rational-function class that only they use; no program code
calls it.  ``primitive_rref`` reduces the trace solver's rows
(weight-graded, so over Q) sparse in Z: each row is a dict of its nonzero
integer entries, kept primitive, and each step pivots on the sparsest
candidate row; the reduced form is unique, so it is still rref's.
``solve``, for the zeta fit's linear systems, also works in integers: a
fraction-free forward elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", 1968), then
back-substitution in integers, so that the only Fractions it forms are its
solution.  Both scale their rows to Z with ``polys.primitive``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from . import polys


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


def primitive_rref(matrix: Sequence[Sequence], col_order: Sequence[int]):
    """``rref`` over Q, computed sparse in integers.

    Entries may be ints or Fractions.  Returns (rows, pivots) with the
    pivots of ``rref(matrix, col_order)``; each row is a dict of its nonzero
    entries, and pivot row r is the primitive integer multiple of rref's row
    r with a positive pivot entry.  The other rows are empty.

    Each step pivots on the candidate row with the fewest entries, not the
    first one, so that fewer entries fill in, and subtracts f times it
    from every other row with an entry f in the pivot column, scaling that
    row by the pivot entry pv > 0 first unless pv = 1; the row is then
    divided by its content.  The choice of pivot row changes neither result:
    a column is a pivot column exactly when the rows' span has a vector
    whose first nonzero entry in ``col_order`` lies there, whichever row
    carries it, and the reduced row echelon form over Q for a fixed column
    order is unique, so the rows and the pivots (r, col) are rref's.
    """
    rows = [
        {i: x for i, x in enumerate(polys.primitive(entries)) if x} for entries in matrix
    ]
    pivots: list[tuple[int, int]] = []
    for col in col_order:
        r = len(pivots)
        fewest = min(
            ((len(rows[i]), i) for i in range(r, len(rows)) if col in rows[i]), default=None
        )
        if fewest is None:
            continue
        pivot_row = fewest[1]
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        if pivot[col] < 0:
            pivot = rows[r] = {i: -x for i, x in pivot.items()}
        pv = pivot[col]
        for j, row in enumerate(rows):
            if j != r and col in row:
                f = row[col]
                if pv != 1:
                    row = {i: pv * x for i, x in row.items()}
                for i, y in pivot.items():
                    x = row.get(i, 0) - f * y
                    if x:
                        row[i] = x
                    else:
                        del row[i]
                rows[j] = _primitive(row)
        pivots.append((r, col))
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries; an empty row stays empty.

    The rows are integral, so polys.primitive here would only slow the loop.
    """
    g = gcd(*row.values())
    return {i: x // g for i, x in row.items()} if g > 1 else row


def solve(matrix, rhs):
    """Solve A x = b exactly over Q; entries may be ints or Fractions.

    Returns the solution as Fractions with free variables set to zero, or
    None if the system is inconsistent.  Pivots are chosen as in ``rref``.

    Forward elimination (Bareiss): each step replaces every row below the
    pivot by (pv * row - f * pivot row) / prev, from the pivot column on,
    where pv is the pivot, f the row's entry in the pivot column and prev
    the previous pivot.  The division is exact, since every entry is then a
    minor of the scaled system, and the entries left of the pivot column
    are zero.  The system is inconsistent exactly when a row below the last
    pivot keeps a nonzero right-hand side.

    Back-substitution then runs in integers too.  The last pivot, det, is
    the minor of the pivot rows on the pivot columns, so with the free
    variables 0, y = det x is integral (Cramer's rule).  Bottom up, each
    pivot row gives y_col = (det b - sum u y) / u_col, an exact division,
    with b its right-hand side and u its entries in the later pivot
    columns; x_col is y_col / det.
    """
    nunk = len(matrix[0]) if matrix else 0
    aug = [list(polys.primitive([*row, b])) for row, b in zip(matrix, rhs)]
    pivots: list[tuple[int, int]] = []
    prev = 1
    for col in range(nunk):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][col:]
        pv = pivot[0]
        for j in range(r + 1, len(aug)):
            row = aug[j]
            f = row[col]
            row[col:] = [(pv * x - f * y) // prev for x, y in zip(row[col:], pivot)]
        prev = pv
        pivots.append((r, col))
        if len(pivots) == len(aug):
            break
    if any(row[nunk] for row in aug[len(pivots) :]):
        return None
    sol = [Fraction(0)] * nunk
    det, y = prev, {}
    for r, col in reversed(pivots):
        row = aug[r]
        y[col] = (det * row[nunk] - sum(row[c] * yc for c, yc in y.items())) // row[col]
        sol[col] = Fraction(y[col], det)
    return sol
