import math
import random
from fractions import Fraction

from fqzeta import linalg


def test_solve_coerces_int_entries_to_fractions():
    # x + 2y = 3, 2x = 1 given as ints: the solution holds no int, free
    # variables included.
    sol = linalg.solve([[1, 2], [2, 0]], [3, 1])
    assert sol == [Fraction(1, 2), Fraction(5, 4)]
    assert all(type(x) is Fraction for x in sol)
    free = linalg.solve([[1, 1]], [2])  # y is free and set to zero
    assert free == [2, 0] and all(type(x) is Fraction for x in free)
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def _solve_by_rref(matrix, rhs):
    """solve's contract, read off linalg.rref over Fractions."""
    nunk = len(matrix[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    rows, pivots = linalg.rref(aug, col_order=range(nunk))
    if any(row[nunk] and not any(row[:nunk]) for row in rows):
        return None
    sol = [Fraction(0)] * nunk
    for r, col in pivots:
        sol[col] = rows[r][nunk]
    return sol


def test_fraction_free_solve_matches_rref():
    # Square, over- and underdetermined systems, rank-deficient ones (a row
    # that combines two others) and inconsistent ones, with int, Fraction and
    # large entries: the integer elimination gives rref's solution or None.
    rng = random.Random(7)
    values = [0, 0, 0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 2), 10**20 + 1]
    outcomes = set()
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:
            matrix[-1] = [3 * x - y for x, y in zip(matrix[0], matrix[1])]
        rhs = [rng.choice(values) for _ in range(nrows)]
        sol = linalg.solve(matrix, rhs)
        assert sol == _solve_by_rref(matrix, rhs), (matrix, rhs)
        outcomes.add(sol is None)
    assert outcomes == {True, False}


def test_rref_keeps_zero_entries_and_pivot_order():
    matrix = [[Fraction(x) for x in row] for row in ([0, 2, 4], [3, 0, 6])]
    rows, pivots = linalg.rref(matrix)
    assert pivots == [(0, 0), (1, 1)]
    assert rows == [[1, 0, 2], [0, 1, 2]]


def test_primitive_rref_matches_rref():
    # Square, wide and tall matrices, rank-deficient ones (a row combining
    # two others), zero and duplicate rows, negative leading entries, and
    # int, Fraction and 67-bit entries: the pivots are rref's, and each row
    # over its pivot entry is rref's row.
    rng = random.Random(11)
    values = [0, 0, 0, 1, -1, -2, 3, Fraction(1, 3), Fraction(-5, 2), 2**66 + 1]
    shapes = set()
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:
            matrix[-1] = [3 * x - y for x, y in zip(matrix[0], matrix[1])]
        if nrows > 1 and rng.random() < 0.3:
            matrix[rng.randrange(nrows)] = [0] * ncols
        if nrows > 1 and rng.random() < 0.3:
            matrix[-1] = list(matrix[0])
        if rng.random() < 0.5:
            matrix[0][0] = -abs(matrix[0][0]) or -1
        order = list(range(ncols))
        if rng.random() < 0.5:
            order.reverse()
        rows, pivots = linalg.primitive_rref(matrix, order)
        want, want_pivots = linalg.rref(
            [[Fraction(x) for x in row] for row in matrix], order
        )
        assert pivots == want_pivots, matrix
        for r, col in pivots:
            row = rows[r]
            assert row[col] > 0 and math.gcd(*row.values()) == 1, matrix
            got = [Fraction(row.get(i, 0), row[col]) for i in range(ncols)]
            assert got == want[r], matrix
        assert all(not rows[r] for r in range(len(pivots), nrows)), matrix
        shapes.add((nrows > ncols) - (nrows < ncols))
    assert shapes == {-1, 0, 1}
    assert linalg.primitive_rref([], []) == ([], [])
    assert linalg.primitive_rref([[0, 0], [0, 0]], [0, 1]) == ([{}, {}], [])
