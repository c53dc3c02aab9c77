"""Exact solution spaces of integer linear systems.

There is one elimination routine, an integer reduced row echelon form
(`_rref_rows`), and one place that reads a solution space off its pivots
(`_space`). Callers such as the triple solver hand over int rows; a
Fraction appears only when an entry of the result is divided by its
row's pivot. `_rref_rows` pivots only among the first `width` columns
and carries the rest along, so rows with a unit vector appended come out
with the combination of input rows behind each reduced row, and behind
each row that cleared to zero: those null combinations are a basis of
the left null space, and decide whether a right-hand side is consistent.
All operations are pure and exact; no floating point is used anywhere.
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


def _rref_rows(rows, width: int) -> tuple:
    """Integer RREF of int rows on their first `width` columns: (pivot
    columns, pivot rows, null rows).

    The rows are inserted one at a time into a reduced echelon form kept
    sorted by pivot column. Each is cleared at the pivot columns where it
    is nonzero, one `_combine` per column, and made primitive. A row that
    became zero on its first `width` entries goes to the null rows; else
    its leading column is cleared from the pivot rows and it is inserted
    there. Entries past `width` are carried along by every combination
    and never pivot: with a unit vector appended to each row, they record
    which combination of the input rows each output row is. A null row's
    combination z has z A = 0 (A the input rows' first `width` columns),
    is nonzero at its own row and 0 at every later one, so the null
    rows' combinations are a basis of A's left null space. Row r of the
    pivot rows is an integer multiple of row r of the RREF: dividing it
    by its entry in column pivots[r] gives that row. The RREF and its
    pivot columns depend only on the row space and the column order, so
    they are those of elimination over the rationals.
    """
    cols, prows, nulls = [], [], []
    for row in rows:
        for c, prow in zip(cols, prows):
            if row[c]:
                row = _combine(row, prow, c)
        row = _primitive(row)
        c = next((j for j in range(width) if row[j]), None)
        if c is None:
            nulls.append(row)
            continue
        for k, prow in enumerate(prows):
            if prow[c]:
                prows[k] = _primitive(_combine(prow, row, c))
        k = bisect.bisect(cols, c)
        cols.insert(k, c)
        prows.insert(k, row)
    return tuple(cols), prows, nulls


def _space(pivots, rows, ncols: int) -> AffineSolutionSpace:
    """The solution space read off reduced rows [c | b] of a consistent
    system over ncols unknowns, pivots[r] the pivot column of rows[r].

    Free variables are the non-pivot columns, with the particular
    solution taking them all to zero. A Fraction is formed only for a
    nonzero entry of the space, as a quotient by its row's pivot.
    """
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

