"""Elimination of a whole augmented system on all its columns, as a
reference for the tests.

`schemeforge.triples.solve` eliminates only the live columns of a triple
system, from a cached echelon, and decides consistency from the cached
null combinations. `solve_integer` eliminates every row on every column,
right-hand side included, with the same `_rref_rows`, and reads the
space off with the same `_space`; `test_linalg` checks it against
Gauss-Jordan over Fraction, and the triple tests compare `solve` with
it where the Fraction oracle would be slow.
"""

from schemeforge.linalg import Inconsistent, _rref_rows, _space


def solve_integer(rows: list, ncols: int):
    """Solve the int augmented rows [a | b] over ncols unknowns exactly.

    Each row holds ncols + 1 ints, all of them eliminated. Raises
    Inconsistent when no solution exists, that is when the right-hand-side
    column becomes a pivot.
    """
    pivots, rows, _ = _rref_rows(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise Inconsistent("system has no solution")
    return _space(pivots, rows, ncols)
