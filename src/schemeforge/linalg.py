"""Exact solution spaces of integer linear systems.

There is one elimination routine, an integer reduced row echelon form
(`_rref_rows`), and one place that reads a solution space off its pivots
(`solve_integer`). Callers such as the triple solver hand over int rows;
a Fraction appears only when an entry of the result is divided by its
row's pivot. The pivot rows stay reduced as each row is inserted, so the
kernel of the rows so far (one int vector per non-pivot column, the
right-hand side among them) can be read straight off them. A row that
would cost more pivot clearings than there are kernel vectors is tested
against the kernel first, and skipped if it is orthogonal to all of it:
it then lies in the span of the rows already held, and is consistent
with them. All operations are pure and exact; no floating point is used
anywhere.
"""

from __future__ import annotations

import bisect
import math
import operator
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


def _kernel(cols, prows, free) -> list:
    """Int vectors spanning the kernel of the reduced pivot rows.

    One vector per non-pivot column f in `free`: at f the lcm L of the
    pivots of the rows that are nonzero at f, and -L * prow[f] / prow[c]
    at each such row's pivot column c. A row lies in the row space exactly
    when it is orthogonal to every one of them.
    """
    kernel = []
    for f in free:
        at_f = [(c, prow) for c, prow in zip(cols, prows) if prow[f]]
        # a list, not a generator: a generator is unpacked into a tuple of
        # guessed size that is then resized, and over many calls the tuple
        # free lists fill up with the resized ones
        scale = math.lcm(*[prow[c] for c, prow in at_f])
        vec = [0] * (len(cols) + len(free))
        vec[f] = scale
        for c, prow in at_f:
            vec[c] = -prow[f] * scale // prow[c]
        kernel.append(vec)
    return kernel


def _rref_rows(rows, width: int) -> tuple:
    """Integer RREF of int rows of `width` entries: (pivot columns, pivot
    rows).

    The rows are inserted one at a time into a reduced echelon form kept
    sorted by pivot column. Each is cleared at the pivot columns where it
    is nonzero, one `_combine` per column, made primitive, and dropped if
    it became zero; else its leading column is cleared from the pivot rows
    and it is inserted there. A row that would be cleared at more pivot
    columns than there are non-pivot columns is first tested against the
    kernel: one dot product per non-pivot column, the last column (a
    right-hand side) counted like any other, and a row in the row space is
    skipped. The kernel is rebuilt from the pivot rows after an insertion,
    when a row is next tested. Row r comes out as an integer multiple of
    row r of the RREF: dividing it by its entry in column pivots[r] gives
    that row. The RREF and its pivot columns depend only on the row space
    and the column order, so they are those of elimination over the
    rationals.
    """
    cols, prows, kernel = [], [], None
    free = list(range(width))
    for row in rows:
        hits = width - row.count(0) - sum(1 for f in free if row[f])
        if len(free) < hits:
            if kernel is None:
                kernel = _kernel(cols, prows, free)
            if not any(sum(map(operator.mul, row, vec)) for vec in kernel):
                continue
        for c, prow in zip(cols, prows):
            if row[c]:
                row = _combine(row, prow, c)
        row = _primitive(row)
        if not any(row):
            continue
        c = next(j for j, x in enumerate(row) if x)
        for k, prow in enumerate(prows):
            if prow[c]:
                prows[k] = _primitive(_combine(prow, row, c))
        k = bisect.bisect(cols, c)
        cols.insert(k, c)
        prows.insert(k, row)
        free.remove(c)
        kernel = None
    return tuple(cols), prows


def solve_integer(rows: list, ncols: int) -> AffineSolutionSpace:
    """Solve the int augmented rows [a | b] over ncols unknowns exactly.

    Each row holds ncols + 1 ints; `_rref_rows` eliminates them. Raises
    Inconsistent when no solution exists, that is when the right-hand-side
    column becomes a pivot; a row that the kernel test skips is consistent
    with the rows before it. Free variables are the non-pivot
    columns, with the particular solution taking them all to zero. A
    Fraction is formed only for a nonzero entry of the space, as a
    quotient by its row's pivot.
    """
    pivots, rows = _rref_rows(rows, ncols + 1)
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
