"""Association scheme parameters from a Krein array.

The generic pipeline runs Krein array -> eigenvalues of the tridiagonal
dual intersection matrix L1* -> second eigenmatrix Q -> first eigenmatrix
P from the orthogonality relations -> intersection and Krein number
tensors, and does each exact step once, in Python ints:
- the three-term array of L1* is scaled to integers once, straight from
  the numerators and denominators of the Krein array, and both the
  eigenvalues and the rows of Q are read off it;
- the eigenvalues come from integer Sturm bisection (no characteristic
  polynomial);
- Q's rows are the three-term recurrence in integers, tested for
  positivity as ints, with one division per entry;
- each tensor is one integer sum per unordered triple (i, j, k), C(d + 3, 3)
  of them, then one division per (k, i <= j): the integrality and sign
  checks run on that integer quotient, and [k][i][j] and [k][j][i] are
  the same entry.
For the hemisystem family (one cometric Q-antipodal 4-class scheme for
each odd t >= 3) the same data is also available in closed form; the two
routes are independent and cross-check each other. `validate` checks
P Q = order * I as one integer matrix product.

The order, the valencies, the multiplicities and every p^k_ij of a
SchemeParameters are Python ints on both routes, each made an int by the
check that proves it whole; no other module converts them. Every q^k_ij
is a Fraction.

Conventions: P rows are indexed by eigenspaces and columns by relations,
Q rows by relations and columns by eigenspaces, so that P Q = order * I.
P and Q are tuples of row tuples, their entries ints or Fractions as
their producer gives them. Tensors are nested tuples indexed [k][i][j].
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SchemeforgeError

Rat = Fraction

# Shared by every Krein tensor both routes build; Fractions are immutable.
_ZERO, _ONE = Fraction(0), Fraction(1)


class BadParameter(SchemeforgeError, ValueError):
    """Parameter outside the family's domain (t must be odd and >= 3)."""


class IrrationalEigenvalue(SchemeforgeError, ValueError):
    """The dual intersection matrix has eigenvalues outside Q."""


class DegenerateSpectrum(SchemeforgeError, ValueError):
    """Q has no unique all-positive (multiplicity) row."""


class NonIntegral(SchemeforgeError, ValueError):
    """A quantity that must be a nonnegative integer is not."""


class NegativeKrein(SchemeforgeError, ValueError):
    """A Krein parameter came out negative."""


@dataclass(frozen=True)
class KreinArray:
    """Cometric parameter array {b*_0..b*_{d-1}; c*_1..c*_d}."""

    d: int
    bstar: tuple
    cstar: tuple

    def __post_init__(self):
        if self.d < 1:
            raise BadParameter("need at least one class")
        if len(self.bstar) != self.d or len(self.cstar) != self.d:
            raise BadParameter("array lengths must equal the class count")
        if any(x <= 0 for x in self.bstar + self.cstar):
            raise BadParameter("Krein array entries must be positive")

    @classmethod
    def make(cls, bstar: Sequence, cstar: Sequence) -> "KreinArray":
        b = tuple(Fraction(x) for x in bstar)
        c = tuple(Fraction(x) for x in cstar)
        return cls(len(b), b, c)

    def is_antipodal(self) -> bool:
        """b*_i = c*_{d-i} for every i except possibly i = floor(d/2)."""
        # cstar is 0-indexed as c*_1..c*_d, so c*_{d-i} sits at d-i-1
        return all(self.bstar[i] == self.cstar[self.d - i - 1]
                   for i in range(self.d) if i != self.d // 2)


@dataclass(frozen=True)
class SchemeParameters:
    """Full parameter set of a d-class symmetric scheme."""

    d: int
    order: int
    t: int | None
    valencies: tuple        # of ints
    multiplicities: tuple   # of ints
    P: tuple   # first eigenmatrix, rows of ints and Fractions
    Q: tuple   # second eigenmatrix, rows of ints and Fractions
    p: tuple   # intersection numbers, [k][i][j], ints
    q: tuple   # Krein parameters,     [k][i][j], Fractions


@dataclass(frozen=True)
class ValidationReport:
    """Named check outcomes; witness strings are empty on success."""

    checks: tuple  # of (name, passed, witness)
    overall: bool

    @classmethod
    def from_checks(cls, checks) -> "ValidationReport":
        cs = tuple(checks)
        return cls(cs, all(ok for _, ok, _ in cs))

    def failed(self) -> list:
        return [c for c in self.checks if not c[1]]


def hemisystem_krein_array(t: int) -> KreinArray:
    """Krein array of the hemisystem scheme family at odd t >= 3."""
    if not isinstance(t, int) or t < 3 or t % 2 == 0:
        raise BadParameter(f"t must be an odd integer >= 3, got {t!r}")
    s = t * t - t + 1
    b0 = Fraction((s + t) * (t - 1))
    b1 = Fraction(s * s, t)
    b2 = Fraction(s * (t - 1), t)
    return KreinArray.make((b0, b1, b2, 1), (1, b2, b1, b0))


def match_family_t(k: KreinArray) -> int | None:
    """Recover t if the array is exactly the family array, else None.

    In the family b*_1 = s^2/t with s = t^2 - t + 1 prime to t, so t is
    the denominator of b*_1 in lowest terms.
    """
    if k.d != 4:
        return None
    t = Fraction(k.bstar[1]).denominator
    if t < 3 or t % 2 == 0 or hemisystem_krein_array(t) != k:
        return None
    return t


def _scaled_three_term(k: KreinArray) -> tuple:
    """(D, D a*, D b*, D c*) of L1* = (q^j_{1i})_{j,i}, as int lists.

    Row j of the tridiagonal L1* carries c*_j below the diagonal,
    a*_j = b*_0 - b*_j - c*_j on it and b*_j above it (b*_d = c*_0 = 0), so
    every row sums to b*_0. D is the lcm of the denominators of b* and c*,
    which a* shares; each entry is scaled from its numerator and
    denominator, and a* is then formed in ints.
    """
    den = math.lcm(*(x.denominator for x in k.bstar + k.cstar))
    up = [x.numerator * (den // x.denominator) for x in k.bstar] + [0]
    low = [0] + [x.numerator * (den // x.denominator) for x in k.cstar]
    return den, [up[0] - b - c for b, c in zip(up, low)], up, low


def _minors(scaled: tuple, x: int) -> list:
    """p_0(x)..p_{d+1}(x), the leading principal minors of x - D L1*.

    p_{j+1}(x) = (x - D a*_j) p_j - D^2 b*_{j-1} c*_j p_{j-1}, p_0 = 1.
    """
    _, diag, up, low = scaled
    num = [1, x - diag[0]]
    for j in range(1, len(diag)):
        num.append((x - diag[j]) * num[j] - up[j - 1] * low[j] * num[j - 1])
    return num


def _scaled_roots(scaled: tuple) -> list:
    """The integers D theta for the rational eigenvalues theta of L1*,
    ascending, by integer Sturm bisection.

    D L1* is integral with a monic integer characteristic polynomial, so a
    rational eigenvalue is x / D for an integer x. The minors p_j(x) form a
    Sturm sequence, since every b*_{j-1} c*_j > 0: the d + 1 eigenvalues
    are real and simple, and the sign changes of p_0(x)..p_{d+1}(x) count
    those above x. For each i the bisection finds the least integer x with
    at most d - i eigenvalues above it, the ceiling of the i-th smallest;
    it is that eigenvalue exactly when p_{d+1}(x) = 0 and exactly d - i lie
    above x (otherwise a rational eigenvalue i + 1 within 1 of an
    irrational eigenvalue i would be found twice).
    """
    _, diag, up, low = scaled
    d = len(diag) - 1
    # (D a*_j, D^2 b*_{j-1} c*_j) for j = 0..d
    steps = list(zip(diag, [0] + list(map(operator.mul, up, low[1:]))))
    radius = max(abs(diag[j]) + up[j] + low[j] for j in range(d + 1))

    def above(x):
        # (sign changes of p_0(x)..p_{d+1}(x), zeros dropped; p_{d+1}(x))
        changes, positive, prev, cur = 0, True, 0, 1
        for a, c in steps:
            prev, cur = cur, (x - a) * cur - c * prev
            if cur and (cur > 0) != positive:
                changes += 1
                positive = not positive
        return changes, cur

    roots = []
    for i in range(d + 1):
        # Gershgorin: all d + 1 eigenvalues lie above lo, none above hi
        lo, hi = -radius - 1, radius
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid)[0] <= d - i:
                hi = mid
            else:
                lo = mid
        if above(hi) == (d - i, 0):
            roots.append(hi)
    return roots


def _column_scales(low: list) -> list:
    """1, D c*_1, D c*_1 D c*_2, ...: the denominators of Q's columns."""
    return list(itertools.accumulate(low[1:], operator.mul, initial=1))


def dual_eigenmatrix(k: KreinArray) -> tuple:
    """(Q, multiplicities, order) from the Krein array alone.

    Q's first row is the multiplicity row (the unique all-positive one);
    the remaining rows are sorted by dual eigenvalue, descending. Callers
    that know the family reorder them against the closed form. No
    eigenvalue repeats: b*, c* > 0 make the spectrum of L1* simple (see
    `_scaled_roots`). The row at a root x is the three-term recurrence
    scaled, Q_j = p_j(x) / (D c*_1 ... D c*_j) with p_j the minors of
    `_minors`, which close there by construction; a row is positive when
    its ints are, and becomes Fractions only then. The order is one
    Fraction over the last column's denominator.
    """
    d = k.d
    scaled = _scaled_three_term(k)
    roots = _scaled_roots(scaled)
    if len(roots) < d + 1:
        raise IrrationalEigenvalue(
            f"only {len(roots)} of {d + 1} dual eigenvalues are rational")
    nums = [_minors(scaled, x)[:d + 1] for x in roots]
    positive = [i for i, num in enumerate(nums) if min(num) > 0]
    if len(positive) != 1:
        raise DegenerateSpectrum(
            f"expected exactly one all-positive row, found {len(positive)}")
    scales = _column_scales(scaled[3])
    top = positive[0]
    order = Fraction(sum(x * (scales[d] // s)
                         for x, s in zip(nums[top], scales)), scales[d])
    # the roots ascend, so the other rows are read back to front
    q = tuple(tuple(map(Fraction, nums[i], scales))
              for i in [top] + [i for i in range(d, -1, -1) if i != top])
    return q, q[0], order


def first_eigenmatrix(q: tuple, order: Rat) -> tuple:
    """P from the orthogonality relations; its first row lists the valencies.

    With m = Q[0] all positive, m_j P[j][i] = n_i Q[i][j] and the valency
    n_i = order / sum_j Q[i][j]^2 / m_j. In integers: C = D Q, D the lcm
    of Q's denominators, L the lcm of C[0], and
    S_i = sum_j C[i][j]^2 (L / C[0][j]) > 0, so that
    P[j][i] = order D L C[i][j] / (S_i C[0][j]), one Fraction per entry.
    """
    den, c = _cleared_rows(q)
    lcm = math.lcm(*c[0])
    sums = [sum(x * x * (lcm // m) for x, m in zip(row, c[0])) for row in c]
    top = order.numerator * den * lcm
    return tuple(tuple(Fraction(top * row[j], order.denominator * s * m)
                       for row, s in zip(c, sums))
                 for j, m in enumerate(c[0]))


def _cleared(xs, den: int) -> list:
    """The ints den * x, den a common multiple of the denominators of xs."""
    return [x.numerator * (den // x.denominator) for x in xs]


def _cleared_rows(mat: tuple) -> tuple:
    """(D, the rows of D * mat as int lists), D the lcm of its denominators."""
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return den, [_cleared(row, den) for row in mat]


def _spectral_tensor(mat: tuple, weights: Sequence, norms: Sequence,
                     order: Rat, entry) -> tuple:
    """Tensor [k][i][j] = sum_r w_r M_ri M_rj M_rk / (order * norms_k).

    With dm the lcm of the denominators of M and dw that of the weights,
    the numerator N_ijk = sum_r (dw w_r)(dm M_ri)(dm M_rj)(dm M_rk) is an
    integer sum, symmetric in (i, j, k), so it is formed once per unordered
    triple (C(d + 3, 3) of the (d + 1)^3 entries). The entry [k][i][j] is
    N_ijk top_k / bottom_k, with top_k / bottom_k the reduced
    1 / (order dw dm^3 norms_k) and bottom_k > 0. `entry(x, bottom_k, k,
    i, j)` turns the integer x = N_ijk top_k into the entry, or raises; it
    runs once per (k, i <= j), in [k][i][j] order, and [k][j][i] is the
    same object. A tensor symmetric in i and j breaks a check first at
    some i <= j, so raising there names the first breach in index order.
    """
    n = len(mat)
    rng = range(n)
    dm, rows = _cleared_rows(mat)
    dw = math.lcm(*(x.denominator for x in weights))
    cols = list(zip(*rows))
    w = _cleared(weights, dw)
    wcols = [list(map(operator.mul, w, col)) for col in cols]
    num = [[[None] * n for _ in rng] for _ in rng]   # [k][i][j], i <= j
    for a in rng:
        for b in range(a, n):
            pair = list(map(operator.mul, cols[a], cols[b]))
            for c in range(b, n):
                total = sum(map(operator.mul, wcols[c], pair))
                num[a][b][c] = num[b][a][c] = num[c][a][b] = total
    scale = order.numerator * dw * dm ** 3
    out = []
    for kk in rng:
        top = order.denominator * norms[kk].denominator
        bottom = scale * norms[kk].numerator
        g = math.gcd(top, bottom) if bottom > 0 else -math.gcd(top, bottom)
        top, bottom = top // g, bottom // g
        plane = [[None] * n for _ in rng]
        for i in rng:
            row = num[kk][i]
            for j in range(i, n):
                plane[i][j] = plane[j][i] = entry(row[j] * top, bottom,
                                                  kk, i, j)
        out.append(tuple(map(tuple, plane)))
    return tuple(out)


def _intersection_entry(x: int, bottom: int, kk, i, j) -> int:
    whole, rest = divmod(x, bottom)
    if rest or whole < 0:
        raise NonIntegral(f"p^{kk}_{i}{j} = {Fraction(x, bottom)} is not "
                          "a nonnegative integer")
    return whole


def _krein_entry(x: int, bottom: int, kk, i, j) -> Rat:
    if x < 0:
        raise NegativeKrein(f"q^{kk}_{i}{j} = {Fraction(x, bottom)} is "
                            "negative")
    return Fraction(x, bottom) if x else _ZERO


def intersection_numbers(p_mat: tuple, valencies: Sequence,
                         multiplicities: Sequence, order: Rat) -> tuple:
    """Tensor p[k][i][j] via the spectral triple-product identity.

    p^k_ij * n_k * order = sum_r m_r P_ri P_rj P_rk. Every entry must be a
    nonnegative integer, checked as an integer quotient, which is the
    entry's int; NonIntegral carries the first offending index.
    """
    return _spectral_tensor(p_mat, multiplicities, valencies, order,
                            _intersection_entry)


def krein_numbers(q_mat: tuple, valencies: Sequence,
                  multiplicities: Sequence, order: Rat) -> tuple:
    """Tensor q[k][i][j], the dual of intersection_numbers.

    q^k_ij * m_k * order = sum_r n_r Q_ri Q_rj Q_rk. Entries must be
    nonnegative rationals (integrality is not required), checked on the
    sign of the integer numerator.
    """
    return _spectral_tensor(q_mat, valencies, multiplicities, order,
                            _krein_entry)


def _closed_form_q(t: int) -> tuple:
    """The family's second eigenmatrix Q; row 0 is the multiplicities."""
    if not isinstance(t, int) or t < 3 or t % 2 == 0:
        raise BadParameter(f"t must be an odd integer >= 3, got {t!r}")
    F = Fraction
    s = t * t - t + 1
    return (
        (1, (t - 1) * (t * t + 1), s * (s + t), (t - 1) * (t * t + 1), 1),
        (1, s - 1, 0, 1 - s, -1),
        (1, -s - 1, 2 * s, -s - 1, 1),
        (1, F(-(s + t), t), 0, F(s + t, t), -1),
        (1, F(s - t, t), F(-2 * s, t), F(s - t, t), 1),
    )


def closed_form_parameters(t: int) -> SchemeParameters:
    """The family's parameter set, straight from the closed-form tables.

    At odd t every valency and every p^k_ij is whole, so each half below
    is an exact integer division: n, m, the order, P and p are ints, and
    q is Fractions. The tensors are built plane by plane from their 4 x 4
    inner blocks.
    """
    q_mat = _closed_form_q(t)
    F, Z, I = Fraction, _ZERO, _ONE
    s = t * t - t + 1
    b = t * (t + 1) // 2
    n = (1, (t + 1) * (t * t + 1) // 2, (t - 1) * (t * t + 1) // 2,
         t * t * (t * t - 1) // 2, t * t * (t * t + 1) // 2)
    m = q_mat[0]
    order = (t ** 3 + 1) * (t + 1)
    p_mat = (
        (1, n[1], n[2], n[3], n[4]),
        (1, b, -(s + 1) // 2, -b, (s - 1) // 2),
        (1, 0, t - 1, 0, -t),
        (1, -b, -(s + 1) // 2, b, (s - 1) // 2),
        (1, -n[1], n[2], -n[3], n[4]),
    )

    def tensor(inner, weights, zero, one):
        # plane 0 is diag(weights) and plane k has 1 at [k][0][k] and
        # [k][k][0]: the scheme axioms fix the boundary
        rng = range(5)
        planes = [tuple(tuple(weights[i] if i == j else zero for j in rng)
                        for i in rng)]
        for kk, block in enumerate(inner, 1):
            edge = tuple(one if j == kk else zero for j in rng)
            planes.append((edge,) + tuple((edge[i],) + row
                                          for i, row in enumerate(block, 1)))
        return tuple(planes)

    tb, bt = t * b, b * (t - 1)
    p_inner = (
        ((0, (t - 1) // 2, 0, tb),
         ((t - 1) // 2, 0, t * (s - 1) // 2, 0),
         (0, t * (s - 1) // 2, 0, t * t * (s - 1) // 2),
         (tb, 0, t * t * (s - 1) // 2, 0)),
        (((t + 1) // 2, 0, tb, 0),
         (0, (t - 3) // 2, 0, t * (s - 1) // 2),
         (tb, 0, t * t * (s - 3) // 2, 0),
         (0, t * (s - 1) // 2, 0, t * t * (s + 1) // 2)),
        ((0, (t * t + 1) // 2, 0, t * (t * t + 1) // 2),
         ((t * t + 1) // 2, 0, (t - 2) * (t * t + 1) // 2, 0),
         (0, (t - 2) * (t * t + 1) // 2, 0, (s - 1) * (t * t + 1) // 2),
         (t * (t * t + 1) // 2, 0, (s - 1) * (t * t + 1) // 2, 0)),
        (((t + 1) ** 2 // 2, 0, bt, 0),
         (0, (t - 1) ** 2 // 2, 0, (t - 1) * (s + 1) // 2),
         (bt, 0, b * (t - 1) ** 2, 0),
         (0, (t - 1) * (s + 1) // 2, 0, (s - 1) * (t * t + 3) // 2)),
    )
    # q^1..q^3 are tabulated times t; q^4 is tabulated unscaled.
    ot = lambda x: F(x, t)
    q_inner = (
        ((ot((t - 1) * s - 2 * t), ot(s * s), Z, Z),
         (ot(s * s), ot((t - 1) * (s + 1) * s), ot(s * s), Z),
         (Z, ot(s * s), ot((t - 1) * s - 2 * t), I),
         (Z, Z, I, Z)),
        ((ot((t - 1) * s), ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * s), Z),
         (ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * (s + 3) * s),
          ot((t - 1) ** 2 * (s + 1)), I),
         (ot((t - 1) * s), ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * s), Z),
         (Z, I, Z, Z)),
        ((Z, ot(s * s), ot((t - 1) * s - 2 * t), I),
         (ot(s * s), ot((t - 1) * (s + 1) * s), ot(s * s), Z),
         (ot((t - 1) * s - 2 * t), ot(s * s), Z, Z),
         (I, Z, Z, Z)),
        ((Z, Z, F(t * s - 1), Z),
         (Z, F((s + t) * s), Z, Z),
         (F(t * s - 1), Z, Z, Z),
         (Z, Z, Z, Z)),
    )
    return SchemeParameters(
        d=4, order=order, t=t, valencies=n, multiplicities=m, P=p_mat,
        Q=q_mat, p=tensor(p_inner, n, 0, 1),
        q=tensor(q_inner, tuple(map(F, m)), Z, I))


def _positive_ints(xs, what: str) -> tuple:
    """The Fractions xs as ints; NonIntegral names the first of them that
    is not a positive integer."""
    for x in xs:
        if x <= 0 or x.denominator != 1:
            raise NonIntegral(f"{what} {x} is not a positive integer")
    return tuple(x.numerator for x in xs)


def derive_parameters(k: KreinArray, t: int | None = None) -> SchemeParameters:
    """Run the generic pipeline on a Krein array.

    When t is given (or the array is recognized as the family array) the Q
    rows are ordered to match the closed form, each row placed where the
    closed-form row equal to it sits, which fixes the relation labelling;
    otherwise the deterministic eigenvalue-descending order is kept.
    Raises the pipeline's typed errors on infeasible arrays. The order,
    the multiplicities and the valencies become ints as their checks pass.
    """
    if t is None:
        t = match_family_t(k)
    q_mat, mults, order = dual_eigenmatrix(k)
    (order,) = _positive_ints((order,), "order")
    mults = _positive_ints(mults, "multiplicity")
    if t is not None:
        # the multiplicity row is the table's only all-positive row, so it
        # stays first
        table = _closed_form_q(t)
        perm = [None] * (k.d + 1)
        for row in q_mat:
            if row not in table:
                raise BadParameter(
                    "array is not the family array at t = %d" % t)
            perm[table.index(row)] = row
        q_mat = tuple(perm)
    p_mat = first_eigenmatrix(q_mat, order)
    valencies = _positive_ints(p_mat[0], "valency")
    p = intersection_numbers(p_mat, valencies, mults, order)
    q = krein_numbers(q_mat, valencies, mults, order)
    return SchemeParameters(d=k.d, order=order, t=t, valencies=valencies,
                            multiplicities=mults, P=p_mat, Q=q_mat, p=p, q=q)


def _absolute_bound_breaches(q: tuple, m: tuple):
    """Witnesses of the absolute bound of Delsarte, Goethals and Seidel,
    pair by pair (i <= j) in index order.

    The m_k of the k with q^k_ij != 0 sum to at most m_i m_j for i < j,
    and to at most m_i (m_i + 1) / 2 for i = j.
    """
    rng = range(len(m))
    for i in rng:
        for j in range(i, len(m)):
            total = 0
            for plane, mk in zip(q, m):
                if plane[i][j]:
                    total += mk
            if i != j and total > m[i] * m[j]:
                yield (f"sum of m_k over q^k_{i}{j} != 0 is {total} > "
                       f"m_{i} m_{j} = {m[i] * m[j]}")
            elif i == j and 2 * total > m[i] * (m[i] + 1):
                bound = Fraction(m[i] * (m[i] + 1), 2)
                yield (f"sum of m_k over q^k_{i}{i} != 0 is {total} > "
                       f"m_{i}(m_{i} + 1)/2 = {bound}")


def validate(params: SchemeParameters,
             krein: KreinArray | None = None) -> ValidationReport:
    """Structural sanity of a parameter set, reported check by check.

    A failed check's witness names its first failure in index order.

    The checks take the entries as given, so a hand-built set whose
    whole-number entries are Fractions gets the same verdicts and
    witnesses as its ints would. The Krein sign is read off numerators,
    and P Q = order * I is (D_P P)(D_Q Q) = D_P D_Q order * I, D_P and D_Q
    the lcms of the denominators: one product of int matrices.
    """
    d, n, m = params.d, params.valencies, params.multiplicities
    p, q = params.p, params.q
    pairs = list(itertools.product(range(d + 1), repeat=2))
    triples = list(itertools.product(range(d + 1), repeat=3))
    checks = []

    def check(name, ok, witness=""):
        checks.append((name, bool(ok), "" if ok else witness))

    def check_each(name, witnesses):
        # fail with the first witness the generator yields, if any
        wit = next(witnesses, "")
        check(name, not wit, wit)

    dp, p_rows = _cleared_rows(params.P)
    dq, q_rows = _cleared_rows(params.Q)
    target = dp * dq * params.order
    check("eigenmatrix_inverse_pair", all(
        sum(map(operator.mul, row, col)) == (target if i == j else 0)
        for i, row in enumerate(p_rows) for j, col in enumerate(zip(*q_rows))),
        "P Q != order * I")
    check_each("intersection_row_sums", (
        f"sum_j p^{kk}_{i}j = {sum(p[kk][i])} != n_{i}"
        for kk, i in pairs if sum(p[kk][i]) != n[i]))
    check_each("valency_weighted_symmetry", (
        f"n_k p^k_ij != n_i p^i_kj at {kk},{i},{j}"
        for kk, i, j in triples if n[kk] * p[kk][i][j] != n[i] * p[i][kk][j]))
    check_each("intersection_boundary", (
        f"p^{kk}_{i}0 != delta"
        for kk, i in pairs if p[kk][i][0] != (1 if i == kk else 0)))
    check_each("intersection_integrality", (
        f"p^{kk}_{i}{j}" for kk, i, j in triples
        if p[kk][i][j].denominator != 1 or p[kk][i][j] < 0))
    check_each("krein_nonnegativity", (
        f"q^{kk}_{i}{j}" for kk, i, j in triples
        if q[kk][i][j].numerator < 0))
    check_each("absolute_bound", _absolute_bound_breaches(q, m))

    if krein is None and params.t is not None:
        krein = hemisystem_krein_array(params.t)
    if krein is not None:
        check_each("krein_array_round_trip", itertools.chain(
            (f"q^{i}_1,{i + 1} != b*_{i}" for i in range(d)
             if q[i][1][i + 1] != krein.bstar[i]),
            (f"q^{i}_1,{i - 1} != c*_{i}" for i in range(1, d + 1)
             if q[i][1][i - 1] != krein.cstar[i - 1])))
        check("antipodality", krein.is_antipodal(), "b*_i != c*_{d-i}")

    check_each("cometric_band", (
        f"q^{kk}_1{j} != 0 breaks the cometric band"
        for kk, j in pairs if abs(kk - j) > 1 and q[kk][1][j] != 0))

    sn = sum(n)
    sm = sum(m)
    check("size_sums", sn == params.order == sm,
          f"sum n = {sn}, sum m = {sm}, order = {params.order}")

    return ValidationReport.from_checks(checks)
