"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, reduced row echelon form with a fixed
first-nonzero pivoting rule, parametric solution spaces for underdetermined
systems, characteristic polynomials, and rational root extraction. All
operations are pure and exact; no floating point is used anywhere.
"""

from __future__ import annotations

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
    """Immutable row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        data = [[_rat(x) for x in row] for row in rows]
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

    def trace(self) -> Rat:
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), Fraction(0))

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

    def __str__(self) -> str:
        rows = self.to_rows()
        widths = [max(len(str(rows[i][j])) for i in range(self.rows))
                  for j in range(self.cols)] if self.rows else []
        return "\n".join(
            "[" + "  ".join(str(x).rjust(w) for x, w in zip(row, widths)) + "]"
            for row in rows)


@dataclass(frozen=True)
class RatPolynomial:
    """Polynomial with Fraction coefficients, lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    coefficients: tuple

    @classmethod
    def make(cls, coeffs: Iterable) -> "RatPolynomial":
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x) -> Rat:
        x = _rat(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def deflate(self, root) -> "RatPolynomial":
        """Divide by (x - root); the remainder must vanish."""
        root = _rat(root)
        cs = self.coefficients
        out = [Fraction(0)] * (len(cs) - 1)
        carry = Fraction(0)
        for k in range(len(cs) - 1, 0, -1):
            carry = cs[k] + root * carry
            out[k - 1] = carry
        if cs[0] + root * carry != 0:
            raise ValueError(f"{root} is not a root")
        return RatPolynomial.make(out)


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


def char_poly(m: RatMatrix) -> RatPolynomial:
    """Characteristic polynomial det(xI - m), monic, by Faddeev-LeVerrier."""
    if not m.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return RatPolynomial.make([1])
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    ident = RatMatrix.identity(n)
    acc = m
    for k in range(1, n + 1):
        ck = -acc.trace() / k
        coeffs[n - k] = ck
        if k < n:
            acc = m @ RatMatrix(n, n, tuple(
                a + ck * e for a, e in zip(acc.entries, ident.entries)))
    return RatPolynomial.make(coeffs)


def _int_divisors(n: int) -> list:
    """All positive divisors of n >= 1, ascending.

    Trial division strips 2, then odd p while p * p <= the cofactor, and the
    prime powers are expanded into the divisor list. The loop runs up to the
    larger of the second-largest prime factor and the square root of the
    largest, so it is quick on the family's coefficients (no prime factor
    above 1301 for t <= 51) and slow only when n has two large ones.
    """
    divs = [1]

    def expand(p, e):
        divs.extend([d * p ** k for k in range(1, e + 1) for d in divs])

    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            expand(p, e)
        p += 1 if p == 2 else 2
    if n > 1:
        expand(n, 1)
    return sorted(divs)


def rational_roots(p: RatPolynomial) -> tuple:
    """All rational roots of p, with multiplicity, sorted ascending.

    Clears denominators to a primitive integer polynomial, enumerates
    candidate roots num/den over divisors of the trailing and leading
    coefficients, and verifies each candidate by exact evaluation.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    roots = []
    cs = list(p.coefficients)
    # factor out x^k
    k0 = next(i for i, c in enumerate(cs) if c != 0)
    roots.extend([Fraction(0)] * k0)
    cs = cs[k0:]
    if len(cs) == 1:
        return tuple(sorted(roots))
    denlcm = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * denlcm) for c in cs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]

    def eval_scaled(num: int, den: int) -> int:
        # ints evaluated at num/den, times den^deg: exact integer Horner.
        acc = ints[-1]
        dpow = 1
        for c in reversed(ints[:-1]):
            dpow *= den
            acc = acc * num + c * dpow
        return acc

    # For a primitive integer polynomial, a rational root num/den in lowest
    # terms has num | trailing and den | leading coefficient, and (x - r) | p
    # forces (den - num) | p(1) and (den + num) | p(-1): cheap filters before
    # the exact evaluation.
    e1 = sum(ints)
    em1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    found = []
    nums = _int_divisors(abs(ints[0]))
    for den in _int_divisors(abs(ints[-1])):
        for num in nums:
            if math.gcd(num, den) != 1:
                continue
            for nn in (num, -num):
                d1 = den - nn
                if d1 != 0 and e1 % d1 != 0:
                    continue
                dm1 = den + nn
                if dm1 != 0 and em1 % dm1 != 0:
                    continue
                if eval_scaled(nn, den) == 0:
                    found.append(Fraction(nn, den))
    # multiplicities by deflation
    q = RatPolynomial.make(cs)
    for r in sorted(set(found)):
        while not q.is_zero() and q.degree >= 1 and q(r) == 0:
            roots.append(r)
            q = q.deflate(r)
    return tuple(sorted(roots))
