"""Association scheme parameters from a Krein array.

The generic pipeline runs Krein array -> eigenvalues of the tridiagonal
dual intersection matrix L1* (integer Sturm bisection, no characteristic
polynomial) -> second eigenmatrix Q (rows generated by the three-term dual
recurrence) -> first eigenmatrix P = order * Q^(-1) -> intersection and
Krein number tensors (integer numerators sum_r w_r M_ri M_rj M_rk over the
denominator-cleared matrix, symmetric in (i, j, k) and so formed once per
unordered triple, then one division per entry). For the hemisystem family
(one cometric Q-antipodal 4-class scheme for each odd t >= 3) the same
data is also available in closed form; the two routes are independent and
cross-check each other.

Conventions: P rows are indexed by eigenspaces and columns by relations,
Q rows by relations and columns by eigenspaces, so that P Q = order * I.
Tensors are nested tuples indexed [k][i][j].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SchemeforgeError
from .linalg import RatMatrix, invert

Rat = Fraction


class BadParameter(SchemeforgeError, ValueError):
    """Parameter outside the family's domain (t must be odd and >= 3)."""


class IrrationalEigenvalue(SchemeforgeError, ValueError):
    """The dual intersection matrix has eigenvalues outside Q."""


class DegenerateSpectrum(SchemeforgeError, ValueError):
    """The dual recurrence does not close, or no unique multiplicity row."""


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
        skip = self.d // 2
        for i in range(self.d):
            if i == skip:
                continue
            # cstar is 0-indexed as c*_1..c*_d, so c*_{d-i} sits at d-i-1
            if self.bstar[i] != self.cstar[self.d - i - 1]:
                return False
        return True


@dataclass(frozen=True)
class SchemeParameters:
    """Full parameter set of a d-class symmetric scheme."""

    d: int
    order: Rat
    t: int | None
    s: int | None
    bcoef: int | None
    valencies: tuple
    multiplicities: tuple
    P: RatMatrix
    Q: RatMatrix
    p: tuple   # intersection numbers, [k][i][j]
    q: tuple   # Krein parameters,     [k][i][j]


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


def _three_term(k: KreinArray) -> tuple:
    """(a*, b*, c*) of L1* = (q^j_{1i})_{j,i}, with b*_d = c*_0 = 0.

    Row j of the tridiagonal L1* carries c*_j below the diagonal,
    a*_j = b*_0 - b*_j - c*_j on it and b*_j above it, so every row sums
    to b*_0.
    """
    b = k.bstar + (Fraction(0),)
    c = (Fraction(0),) + k.cstar
    return tuple(k.bstar[0] - b[j] - c[j] for j in range(k.d + 1)), b, c


def dual_eigenvalues(k: KreinArray) -> tuple:
    """The rational eigenvalues of L1*, ascending, by integer Sturm bisection.

    With D the lcm of the denominators of a*, b*, c*, the matrix D L1* is
    integral with a monic integer characteristic polynomial, so a rational
    eigenvalue is x / D for an integer x. Its leading principal minors
    p_{j+1}(x) = (x - D a*_j) p_j - D^2 b*_{j-1} c*_j p_{j-1} form a Sturm
    sequence, since every b*_{j-1} c*_j > 0: the d + 1 eigenvalues are real
    and simple, and the sign changes of p_0(x)..p_{d+1}(x) count those
    above x. For each i the bisection finds the least integer x with at
    most d - i eigenvalues above it, the ceiling of the i-th smallest; it
    is that eigenvalue exactly when p_{d+1}(x) = 0 and exactly d - i lie
    above x (otherwise a rational eigenvalue i + 1 within 1 of an
    irrational eigenvalue i would be found twice).
    """
    a, b, c = _three_term(k)
    d = k.d
    den = math.lcm(*(x.denominator for x in a + b + c))
    diag, up, low = ([int(x * den) for x in xs] for xs in (a, b, c))
    coupling = [0] + [up[j - 1] * low[j] for j in range(1, d + 1)]
    radius = max(abs(diag[j]) + up[j] + low[j] for j in range(d + 1))

    def above(x):
        # (sign changes of p_0(x)..p_{d+1}(x), zeros dropped; p_{d+1}(x))
        changes, positive, prev, cur = 0, True, 0, 1
        for j in range(d + 1):
            prev, cur = cur, (x - diag[j]) * cur - coupling[j] * prev
            if cur:
                changes += (cur > 0) != positive
                positive = cur > 0
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
            roots.append(Fraction(hi, den))
    return tuple(roots)


def _dual_row(k: KreinArray, theta: Rat) -> tuple:
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


def dual_eigenmatrix(k: KreinArray) -> tuple:
    """(Q, multiplicities, order) from the Krein array alone.

    Q's first row is the multiplicity row (the unique all-positive one);
    the remaining rows are sorted by dual eigenvalue, descending. Callers
    that know the family reorder them against the closed form. No
    eigenvalue repeats: b*, c* > 0 make the spectrum of L1* simple (see
    dual_eigenvalues).
    """
    d = k.d
    roots = dual_eigenvalues(k)
    if len(roots) < d + 1:
        raise IrrationalEigenvalue(
            f"only {len(roots)} of {d + 1} dual eigenvalues are rational")
    rows = {theta: _dual_row(k, theta) for theta in roots}
    positive = [theta for theta, row in rows.items()
                if all(x > 0 for x in row)]
    if len(positive) != 1:
        raise DegenerateSpectrum(
            f"expected exactly one all-positive row, found {len(positive)}")
    m_theta = positive[0]
    mults = rows[m_theta]
    order = sum(mults, Fraction(0))
    rest = sorted((theta for theta in roots if theta != m_theta),
                  reverse=True)
    q = RatMatrix.from_rows([rows[m_theta]] + [rows[t_] for t_ in rest])
    return q, mults, order


def first_eigenmatrix(q: RatMatrix, order: Rat) -> RatMatrix:
    """P = order * Q^(-1); its first row lists the valencies."""
    return invert(q).scale(order)


def _spectral_tensor(mat: RatMatrix, weights: Sequence, norms: Sequence,
                     order: Rat) -> tuple:
    """Tensor [k][i][j] = sum_r w_r M_ri M_rj M_rk / (order * norms_k).

    With dm the lcm of the denominators of M and dw that of the weights,
    the numerator N_ijk = sum_r (dw w_r)(dm M_ri)(dm M_rj)(dm M_rk) is an
    integer sum, symmetric in (i, j, k), so it is formed once per unordered
    triple (C(d + 3, 3) of the (d + 1)^3 entries). Each entry is then one
    division, N_ijk / (order * dw * dm^3 * norms_k), and a Fraction.
    """
    def cleared(xs, den):
        return [x.numerator * (den // x.denominator) for x in xs]

    rng = range(mat.cols)
    dm = math.lcm(*(x.denominator for x in mat.entries))
    dw = math.lcm(*(x.denominator for x in weights))
    cols = [cleared((mat.at(r, j) for r in rng), dm) for j in rng]
    w = cleared(weights, dw)
    num = [[[0] * mat.cols for _ in rng] for _ in rng]
    for ijk in itertools.combinations_with_replacement(rng, 3):
        i, j, kk = ijk
        total = sum(x * y * z * u for x, y, z, u in
                    zip(w, cols[i], cols[j], cols[kk]))
        for a, b, c in set(itertools.permutations(ijk)):
            num[a][b][c] = total
    scale = order * dw * dm ** 3
    out = []
    for kk in rng:
        den = scale * norms[kk]
        top, bottom = den.denominator, den.numerator
        out.append(tuple(tuple(Fraction(num[i][j][kk] * top, bottom)
                               for j in rng) for i in rng))
    return tuple(out)


def intersection_numbers(p_mat: RatMatrix, valencies: Sequence,
                         multiplicities: Sequence, order: Rat) -> tuple:
    """Tensor p[k][i][j] via the spectral triple-product identity.

    p^k_ij * n_k * order = sum_r m_r P_ri P_rj P_rk. Every entry must be a
    nonnegative integer; NonIntegral carries the first offending index.
    """
    p = _spectral_tensor(p_mat, multiplicities, valencies, order)
    for kk, i, j in itertools.product(range(len(p)), repeat=3):
        val = p[kk][i][j]
        if val.denominator != 1 or val.numerator < 0:
            raise NonIntegral(
                f"p^{kk}_{i}{j} = {val} is not a nonnegative integer")
    return p


def krein_numbers(q_mat: RatMatrix, valencies: Sequence,
                  multiplicities: Sequence, order: Rat) -> tuple:
    """Tensor q[k][i][j], the dual of intersection_numbers.

    q^k_ij * m_k * order = sum_r n_r Q_ri Q_rj Q_rk. Entries must be
    nonnegative rationals (integrality is not required).
    """
    q = _spectral_tensor(q_mat, valencies, multiplicities, order)
    for kk, i, j in itertools.product(range(len(q)), repeat=3):
        if q[kk][i][j].numerator < 0:
            raise NegativeKrein(f"q^{kk}_{i}{j} = {q[kk][i][j]} is negative")
    return q


def closed_form_parameters(t: int) -> SchemeParameters:
    """The family's parameter set, straight from the closed-form tables."""
    if not isinstance(t, int) or t < 3 or t % 2 == 0:
        raise BadParameter(f"t must be an odd integer >= 3, got {t!r}")
    F = Fraction
    s = t * t - t + 1
    b = t * (t + 1) // 2
    n = (F(1), F((t + 1) * (t * t + 1), 2), F((t - 1) * (t * t + 1), 2),
         F(t * t * (t * t - 1), 2), F(t * t * (t * t + 1), 2))
    m = (F(1), F((t - 1) * (t * t + 1)), F(s * (s + t)),
         F((t - 1) * (t * t + 1)), F(1))
    order = F((t ** 3 + 1) * (t + 1))
    p_mat = RatMatrix.from_rows([
        [1, n[1], n[2], n[3], n[4]],
        [1, F(b), F(-(s + 1), 2), F(-b), F(s - 1, 2)],
        [1, 0, F(t - 1), 0, F(-t)],
        [1, F(-b), F(-(s + 1), 2), F(b), F(s - 1, 2)],
        [1, -n[1], n[2], -n[3], n[4]],
    ])
    q_mat = RatMatrix.from_rows([
        [1, m[1], m[2], m[3], m[4]],
        [1, F(s - 1), 0, F(1 - s), -1],
        [1, F(-s - 1), F(2 * s), F(-s - 1), 1],
        [1, F(-(s + t), t), 0, F(s + t, t), -1],
        [1, F(s - t, t), F(-2 * s, t), F(s - t, t), 1],
    ])

    def tensor(inner, boundary_weights):
        # inner: 4x4 table for indices 1..4; boundary from the scheme axioms
        full = []
        for kk in range(5):
            plane = []
            for i in range(5):
                row = []
                for j in range(5):
                    if kk == 0:
                        v = boundary_weights[i] if i == j else F(0)
                    elif i == 0:
                        v = F(1) if kk == j else F(0)
                    elif j == 0:
                        v = F(1) if kk == i else F(0)
                    else:
                        v = F(inner[kk - 1][i - 1][j - 1])
                    row.append(v)
                plane.append(tuple(row))
            full.append(tuple(plane))
        return tuple(full)

    half = lambda x: F(x, 2)
    p_inner = (
        ((0, half(t - 1), 0, t * b),
         (half(t - 1), 0, half(t * (s - 1)), 0),
         (0, half(t * (s - 1)), 0, half(t * t * (s - 1))),
         (t * b, 0, half(t * t * (s - 1)), 0)),
        ((half(t + 1), 0, t * b, 0),
         (0, half(t - 3), 0, half(t * (s - 1))),
         (t * b, 0, half(t * t * (s - 3)), 0),
         (0, half(t * (s - 1)), 0, half(t * t * (s + 1)))),
        ((0, half(t * t + 1), 0, half(t * (t * t + 1))),
         (half(t * t + 1), 0, half((t - 2) * (t * t + 1)), 0),
         (0, half((t - 2) * (t * t + 1)), 0, half((s - 1) * (t * t + 1))),
         (half(t * (t * t + 1)), 0, half((s - 1) * (t * t + 1)), 0)),
        ((half((t + 1) ** 2), 0, b * (t - 1), 0),
         (0, half((t - 1) ** 2), 0, half((t - 1) * (s + 1))),
         (b * (t - 1), 0, b * (t - 1) ** 2, 0),
         (0, half((t - 1) * (s + 1)), 0, half((s - 1) * (t * t + 3)))),
    )
    # q^1..q^3 are tabulated times t; q^4 is tabulated unscaled.
    ot = lambda x: F(x, t)
    q_inner = (
        ((ot((t - 1) * s - 2 * t), ot(s * s), 0, 0),
         (ot(s * s), ot((t - 1) * (s + 1) * s), ot(s * s), 0),
         (0, ot(s * s), ot((t - 1) * s - 2 * t), 1),
         (0, 0, 1, 0)),
        ((ot((t - 1) * s), ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * s), 0),
         (ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * (s + 3) * s),
          ot((t - 1) ** 2 * (s + 1)), 1),
         (ot((t - 1) * s), ot((t - 1) ** 2 * (s + 1)), ot((t - 1) * s), 0),
         (0, 1, 0, 0)),
        ((0, ot(s * s), ot((t - 1) * s - 2 * t), 1),
         (ot(s * s), ot((t - 1) * (s + 1) * s), ot(s * s), 0),
         (ot((t - 1) * s - 2 * t), ot(s * s), 0, 0),
         (1, 0, 0, 0)),
        ((0, 0, t * s - 1, 0),
         (0, (s + t) * s, 0, 0),
         (t * s - 1, 0, 0, 0),
         (0, 0, 0, 0)),
    )
    return SchemeParameters(
        d=4, order=order, t=t, s=s, bcoef=b,
        valencies=n, multiplicities=m, P=p_mat, Q=q_mat,
        p=tensor(p_inner, n), q=tensor(q_inner, m))


def derive_parameters(k: KreinArray, t: int | None = None) -> SchemeParameters:
    """Run the generic pipeline on a Krein array.

    When t is given (or the array is recognized as the family array) the Q
    rows are ordered to match the closed form, which fixes the relation
    labelling; otherwise the deterministic eigenvalue-descending order is
    kept. Raises the pipeline's typed errors on infeasible arrays.
    """
    if t is None:
        t = match_family_t(k)
    q_mat, mults, order = dual_eigenmatrix(k)
    if order <= 0 or order.denominator != 1:
        raise NonIntegral(f"order {order} is not a positive integer")
    if t is not None:
        target = closed_form_parameters(t)
        by_row = {target.Q.row(i): i for i in range(k.d + 1)}
        perm = [None] * (k.d + 1)
        for i in range(k.d + 1):
            ti = by_row.get(q_mat.row(i))
            if ti is None:
                raise BadParameter(
                    "array is not the family array at t = %d" % t)
            perm[ti] = i
        q_mat = RatMatrix.from_rows([q_mat.row(perm[i])
                                     for i in range(k.d + 1)])
        mults = q_mat.row(0)
    p_mat = first_eigenmatrix(q_mat, order)
    valencies = p_mat.row(0)
    for v in valencies:
        if v.denominator != 1 or v <= 0:
            raise NonIntegral(f"valency {v} is not a positive integer")
    p = intersection_numbers(p_mat, valencies, mults, order)
    q = krein_numbers(q_mat, valencies, mults, order)
    s = t * t - t + 1 if t is not None else None
    bcoef = t * (t + 1) // 2 if t is not None else None
    return SchemeParameters(d=k.d, order=order, t=t, s=s, bcoef=bcoef,
                            valencies=valencies, multiplicities=mults,
                            P=p_mat, Q=q_mat, p=p, q=q)


def validate(params: SchemeParameters,
             krein: KreinArray | None = None) -> ValidationReport:
    """Structural sanity of a parameter set, reported check by check.

    A failed check's witness names its first failure in index order.
    """
    d = params.d
    n, p, q = params.valencies, params.p, params.q
    pairs = list(itertools.product(range(d + 1), repeat=2))
    triples = list(itertools.product(range(d + 1), repeat=3))
    checks = []

    def check(name, ok, witness=""):
        checks.append((name, bool(ok), "" if ok else witness))

    def check_each(name, witnesses):
        # fail with the first witness the generator yields, if any
        wit = next(witnesses, "")
        check(name, not wit, wit)

    prod = params.P @ params.Q
    ident = RatMatrix.identity(d + 1).scale(params.order)
    check("eigenmatrix_inverse_pair", prod == ident,
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
        f"q^{kk}_{i}{j}" for kk, i, j in triples if q[kk][i][j] < 0))

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

    sn = sum(n, Fraction(0))
    sm = sum(params.multiplicities, Fraction(0))
    check("size_sums", sn == params.order == sm,
          f"sum n = {sn}, sum m = {sm}, order = {params.order}")

    return ValidationReport.from_checks(checks)
