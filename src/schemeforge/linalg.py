"""Exact solution spaces of integer linear systems.

There is one elimination routine, an integer reduced row echelon form
(`_rref_rows`), and one place that reads a solution space off its pivots
(`solve_integer`). Callers such as the triple solver hand over int rows;
a Fraction appears only when an entry of the result is divided by its
row's pivot. All operations are pure and exact; no floating point is used
anywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemeforgeError


class Inconsistent(SchemeforgeError, ValueError):
    """The linear system admits no solution."""


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set of a consistent linear system.

    Every solution is particular + sum(lambda_f * basis_f) with one free
    parameter lambda_f per free variable; basis_f carries a 1 in position
    free_indices[f] so the parameter IS the value of that variable.
    """

    particular: tuple
    basis: tuple
    free_indices: tuple

    @property
    def dimension(self) -> int:
        return len(self.free_indices)


def _primitive(row: list) -> list:
    """The int row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(row, prow, c: int) -> list:
    """row with column c cleared by the pivot row prow, in ints.

    (pv/g) * row - (f/g) * prow, pv and f their entries in column c and
    g = gcd(pv, f).
    """
    pv, f = prow[c], row[c]
    g = math.gcd(pv, f)
    a, b = pv // g, f // g
    return [a * x - b * y for x, y in zip(row, prow)]


def _rref_rows(rows) -> tuple:
    """Integer RREF of int rows: (pivot columns, pivot rows).

    The rows are inserted one at a time into an echelon form kept sorted
    by pivot column. Each is cleared at the pivot columns so far, in
    ascending order, made primitive, and dropped if it became zero, or
    else inserted at its leading column. Back substitution from the last
    pivot up then clears every pivot column above its row. Row r comes
    out as an integer multiple of row r of the RREF: dividing it by its
    entry in column pivots[r] gives that row. The RREF and its pivot
    columns depend only on the row space and the column order, so they
    are those of elimination over the rationals.
    """
    cols, prows = [], []
    for row in rows:
        for c, prow in zip(cols, prows):
            if row[c]:
                row = _combine(row, prow, c)
        row = _primitive(row)
        if any(row):
            c = next(j for j, x in enumerate(row) if x)
            k = bisect.bisect(cols, c)
            cols.insert(k, c)
            prows.insert(k, row)
    for k in range(len(cols) - 1, 0, -1):
        c, prow = cols[k], prows[k]
        for j in range(k):
            if prows[j][c]:
                prows[j] = _primitive(_combine(prows[j], prow, c))
    return tuple(cols), prows


def solve_integer(rows: list, ncols: int) -> AffineSolutionSpace:
    """Solve the int augmented rows [a | b] over ncols unknowns exactly.

    Each row holds ncols + 1 ints; `_rref_rows` eliminates them. Raises
    Inconsistent when no solution exists. Free variables are the non-pivot
    columns, with the particular solution taking them all to zero. A
    Fraction is formed only for a nonzero entry of the space, as a
    quotient by its row's pivot.
    """
    pivots, rows = _rref_rows(rows)
    if pivots and pivots[-1] == ncols:
        raise Inconsistent("system has no solution")
    zero = Fraction(0)
    pivot_rows = tuple(zip(rows, pivots))
    particular = [zero] * ncols
    for row, pc in pivot_rows:
        if row[ncols]:
            particular[pc] = Fraction(row[ncols], row[pc])
    pivot_set = set(pivots)
    free = tuple(j for j in range(ncols) if j not in pivot_set)
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = Fraction(1)
        for row, pc in pivot_rows:
            if row[f]:
                vec[pc] = Fraction(-row[f], row[pc])
        basis.append(tuple(vec))
    return AffineSolutionSpace(tuple(particular), tuple(basis), free)
