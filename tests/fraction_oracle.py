"""Plain Fraction arithmetic, as a reference for the tests.

`schemeforge.linalg` eliminates in integers, and
`schemeforge.scheme_params` sums the spectral tensors and runs the dual
three-term recurrence in integers; this module keeps the rational
Gauss-Jordan elimination, the rational triple sum and the rational
recurrence they replaced, so that tests compare the two instead of the code under
test with itself. Results are built from the same `AffineSolutionSpace`
and `RatMatrix` types and raise the same errors.
"""

from fractions import Fraction
from typing import Sequence

from schemeforge.linalg import (AffineSolutionSpace, Inconsistent, NotSquare,
                                RatMatrix, Singular)
from schemeforge.scheme_params import DegenerateSpectrum, _three_term


def rref_rows(rows: list) -> tuple:
    """In-place RREF of a list of Fraction row lists; returns pivots.

    Pivoting rule: for each column left to right, the first row at or below
    the current one with a nonzero entry.
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


def solve_linear(a: RatMatrix, b) -> AffineSolutionSpace:
    """Solve a x = b; free variables are the non-pivot columns."""
    bb = [Fraction(x) for x in b]
    if len(bb) != a.rows:
        raise ValueError("right-hand side length mismatch")
    n = a.cols
    aug = [list(a.row(i)) + [bb[i]] for i in range(a.rows)]
    if not aug:
        pivots = ()
    else:
        pivots = rref_rows(aug)
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
    pivots = rref_rows(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise Singular("matrix is singular")
    return RatMatrix.from_rows([row[n:] for row in aug])


def spectral_tensor(mat: RatMatrix, weights: Sequence, norms: Sequence,
                    order: Fraction) -> tuple:
    """Tensor [k][i][j] = sum_r w_r M_ri M_rj M_rk / (order * norms_k)."""
    rng = range(mat.cols)
    cols = [[mat.at(r, j) for r in rng] for j in rng]
    return tuple(tuple(tuple(
        sum(w * cols[i][r] * cols[j][r] * cols[kk][r]
            for r, w in enumerate(weights)) / (order * norms[kk])
        for j in rng) for i in rng) for kk in rng)


def dual_row(k, theta) -> tuple:
    """One row of Q from the three-term recurrence at dual eigenvalue theta."""
    d = k.d
    a, b, c = _three_term(k)
    row = [Fraction(1), theta / c[1]]
    for j in range(1, d):
        nxt = ((theta - a[j]) * row[j] - b[j - 1] * row[j - 1]) / c[j + 1]
        row.append(nxt)
    # terminal consistency: theta must be an actual eigenvalue
    if (theta - a[d]) * row[d] - b[d - 1] * row[d - 1] != 0:
        raise DegenerateSpectrum(
            f"recurrence does not close at eigenvalue {theta}")
    return tuple(row)
