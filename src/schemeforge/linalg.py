"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, reduced row echelon form with a fixed
first-nonzero pivoting rule, parametric solution spaces for underdetermined
systems, and inversion. All operations are pure and exact; no floating
point is used anywhere.
"""

from __future__ import annotations

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

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, tuple(one if i == j else zero
                               for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        out = []
        orows = [other.row(k) for k in range(other.rows)]
        for i in range(self.rows):
            srow = self.row(i)
            acc = [Fraction(0)] * other.cols
            for k, a in enumerate(srow):
                if a:
                    orow = orows[k]
                    for j in range(other.cols):
                        if orow[j]:
                            acc[j] += a * orow[j]
            out.extend(acc)
        return RatMatrix(self.rows, other.cols, tuple(out))

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


def _rref_rows(rows: list) -> tuple:
    """In-place RREF of a list of row lists; returns pivot column tuple.

    Pivoting rule: for each column left to right, the first row at or below
    the current one with a nonzero entry. Free columns are therefore
    canonical for a given column ordering.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def solve_linear(a: RatMatrix, b: Sequence) -> AffineSolutionSpace:
    """Solve a x = b exactly, returning the full affine solution space.

    Raises Inconsistent when no solution exists. Free variables are the
    non-pivot columns of the RREF, with the particular solution taking
    them all to zero.
    """
    bb = [_rat(x) for x in b]
    if len(bb) != a.rows:
        raise ValueError("right-hand side length mismatch")
    n = a.cols
    aug = [list(a.row(i)) + [bb[i]] for i in range(a.rows)]
    if not aug:
        pivots = ()
    else:
        pivots = _rref_rows(aug)
    if pivots and pivots[-1] == n:
        raise Inconsistent("system has no solution")
    free = tuple(j for j in range(n) if j not in set(pivots))
    particular = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        particular[pc] = aug[r][n]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -aug[r][f]
        basis.append(tuple(vec))
    return AffineSolutionSpace(tuple(particular), tuple(basis), free)


def invert(m: RatMatrix) -> RatMatrix:
    """Inverse via Gauss-Jordan on [m | I]."""
    if not m.is_square():
        raise NotSquare("only square matrices invert")
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(1) if i == j else Fraction(0)
                             for j in range(n)] for i in range(n)]
    pivots = _rref_rows(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise Singular("matrix is singular")
    return RatMatrix.from_rows([row[n:] for row in aug])
