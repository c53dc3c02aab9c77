"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, parametric solution spaces for
underdetermined systems, and inversion. There is one elimination routine,
an integer reduced row echelon form, and one place that reads a solution
space off its pivots (`solve_integer`). Callers with int rows, such as
the triple solver, hand them over as they are; `solve_linear` and
`invert` first clear each row of a Fraction matrix of its denominators.
A Fraction appears only when an entry of the result is divided by its
row's pivot. All operations are pure and exact; no floating point is used
anywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SchemeforgeError

Rat = Fraction


class NotSquare(SchemeforgeError, ValueError):
    """A square-only operation was handed a rectangular matrix."""


class Singular(SchemeforgeError, ValueError):
    """Inversion was attempted on a singular matrix."""


class Inconsistent(SchemeforgeError, ValueError):
    """The linear system admits no solution."""


def _rat(x) -> Rat:
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable row-major matrix of Fractions.

    Entries are coerced to Fraction on construction, so elimination on a
    matrix built from ints stays exact and returns Fractions.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "entries", tuple(map(_rat, self.entries)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        data = [list(row) for row in rows]
        if not data:
            return cls(0, 0, ())
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, tuple(x for row in data for x in row))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scale(self, c) -> "RatMatrix":
        c = _rat(c)
        return RatMatrix(self.rows, self.cols,
                         tuple(c * x for x in self.entries))

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


def _cleared(row) -> list:
    """A row of ints and Fractions times the lcm of its denominators,
    made primitive."""
    den = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


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


def solve_linear(a: RatMatrix, b: Sequence) -> AffineSolutionSpace:
    """Solve a x = b exactly, returning the full affine solution space.

    Each row of [a | b] is cleared of denominators and handed to
    `solve_integer`, which raises Inconsistent when no solution exists.
    """
    bb = [_rat(x) for x in b]
    if len(bb) != a.rows:
        raise ValueError("right-hand side length mismatch")
    return solve_integer([_cleared(a.row(i) + (bb[i],))
                          for i in range(a.rows)], a.cols)


def invert(m: RatMatrix) -> RatMatrix:
    """Inverse from the integer RREF of [m | I], cleared of denominators."""
    if not m.is_square():
        raise NotSquare("only square matrices invert")
    n = m.rows
    aug = [_cleared(m.row(i) + tuple(int(i == j) for j in range(n)))
           for i in range(n)]
    pivots, rows = _rref_rows(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise Singular("matrix is singular")
    zero = Fraction(0)
    return RatMatrix.from_rows([[Fraction(x, row[i]) if x else zero
                                 for x in row[n:]]
                                for i, row in enumerate(rows)])
