from fractions import Fraction

from fqzeta import linalg


def test_solve_coerces_int_entries_to_fractions():
    # x + 2y = 3, 2x = 1 given as ints: rref skips the zero entry, and the
    # solution holds no int, free variables included.
    sol = linalg.solve([[1, 2], [2, 0]], [3, 1])
    assert sol == [Fraction(1, 2), Fraction(5, 4)]
    assert all(type(x) is Fraction for x in sol)
    free = linalg.solve([[1, 1]], [2])  # y is free and set to zero
    assert free == [2, 0] and all(type(x) is Fraction for x in free)
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_rref_keeps_zero_entries_and_pivot_order():
    matrix = [[Fraction(x) for x in row] for row in ([0, 2, 4], [3, 0, 6])]
    rows, pivots = linalg.rref(matrix)
    assert pivots == [(0, 0), (1, 1)]
    assert rows == [[1, 0, 2], [0, 1, 2]]
