"""Plain Fraction arithmetic, as a reference for the tests.

`schemeforge.linalg` eliminates in integers, and
`schemeforge.scheme_params` scales the three-term array, sums the
spectral tensors, runs the dual three-term recurrence and checks a
parameter set in integers; this module keeps the rational Gauss-Jordan
elimination, the rational three-term array, triple sum and recurrence,
the whole derivation built from them, the Fraction-by-Fraction
`validate`, the closed-form builder and `rat_str` they replaced, so that
tests compare the two instead of the code under test with itself.
Matrices are lists or tuples of rows, and `invert` is the reference for
the first eigenmatrix. Results are built from the same
`AffineSolutionSpace`, `SchemeParameters` and `ValidationReport` types
and raise the same errors.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from schemeforge.linalg import AffineSolutionSpace, Inconsistent
from schemeforge.scheme_params import (BadParameter, DegenerateSpectrum,
                                       IrrationalEigenvalue, KreinArray,
                                       NegativeKrein, NonIntegral,
                                       SchemeParameters, ValidationReport,
                                       hemisystem_krein_array, match_family_t)


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


def solve_linear(a, b, n: int) -> AffineSolutionSpace:
    """Solve a x = b over n unknowns, a given as rows; free variables are
    the non-pivot columns."""
    if len(b) != len(a):
        raise ValueError("right-hand side length mismatch")
    aug = [list(map(Fraction, row)) + [Fraction(x)] for row, x in zip(a, b)]
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


def invert(m) -> tuple:
    """Inverse of the square matrix m, given as rows, via Gauss-Jordan on
    [m | I]."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only square matrices invert")
    aug = [list(map(Fraction, row)) + list(map(Fraction, unit))
           for row, unit in zip(m, identity(n))]
    pivots = rref_rows(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def spectral_tensor(mat, weights: Sequence, norms: Sequence,
                    order: Fraction) -> tuple:
    """Tensor [k][i][j] = sum_r w_r M_ri M_rj M_rk / (order * norms_k)."""
    rng = range(len(mat))
    cols = [[Fraction(mat[r][j]) for r in rng] for j in rng]
    return tuple(tuple(tuple(
        sum(w * cols[i][r] * cols[j][r] * cols[kk][r]
            for r, w in enumerate(weights)) / (order * norms[kk])
        for j in rng) for i in rng) for kk in rng)


def three_term(k) -> tuple:
    """(a*, b*, c*) of L1* = (q^j_{1i})_{j,i}, with b*_d = c*_0 = 0.

    Row j of the tridiagonal L1* carries c*_j below the diagonal,
    a*_j = b*_0 - b*_j - c*_j on it and b*_j above it, so every row sums
    to b*_0.
    """
    b = k.bstar + (Fraction(0),)
    c = (Fraction(0),) + k.cstar
    return tuple(k.bstar[0] - b[j] - c[j] for j in range(k.d + 1)), b, c


def dual_row(k, theta) -> tuple:
    """One row of Q from the three-term recurrence at dual eigenvalue theta."""
    d = k.d
    a, b, c = three_term(k)
    row = [Fraction(1), theta / c[1]]
    for j in range(1, d):
        nxt = ((theta - a[j]) * row[j] - b[j - 1] * row[j - 1]) / c[j + 1]
        row.append(nxt)
    # terminal consistency: theta must be an actual eigenvalue
    if (theta - a[d]) * row[d] - b[d - 1] * row[d - 1] != 0:
        raise DegenerateSpectrum(
            f"recurrence does not close at eigenvalue {theta}")
    return tuple(row)


def derive_parameters(k, roots, t=None) -> SchemeParameters:
    """The generic pipeline in Fractions, from the ascending dual
    eigenvalues `roots`: Q from `dual_row`, P as order * `invert`(Q), p and
    q from `spectral_tensor`, each check on the finished Fractions in
    [k][i][j] order. It raises the same typed errors, with the same
    messages, as `scheme_params.derive_parameters`.
    """
    d = k.d
    if t is None:
        t = match_family_t(k)
    if len(roots) < d + 1:
        raise IrrationalEigenvalue(
            f"only {len(roots)} of {d + 1} dual eigenvalues are rational")
    rows = {theta: dual_row(k, theta) for theta in roots}
    positive = [theta for theta, row in rows.items()
                if all(x > 0 for x in row)]
    if len(positive) != 1:
        raise DegenerateSpectrum(
            f"expected exactly one all-positive row, found {len(positive)}")
    rest = sorted((theta for theta in roots if theta != positive[0]),
                  reverse=True)
    q_mat = tuple(rows[theta] for theta in positive + rest)
    order = sum(q_mat[0], Fraction(0))
    if order <= 0 or order.denominator != 1:
        raise NonIntegral(f"order {order} is not a positive integer")
    for m in q_mat[0]:
        if m.denominator != 1 or m <= 0:
            raise NonIntegral(f"multiplicity {m} is not a positive integer")
    if t is not None:
        table = _closed_form_q(t)
        if any(row not in table for row in q_mat):
            raise BadParameter("array is not the family array at t = %d" % t)
        q_mat = tuple(row for want in table for row in q_mat if row == want)
    p_mat = tuple(tuple(order * x for x in row) for row in invert(q_mat))
    valencies, mults = p_mat[0], q_mat[0]
    for v in valencies:
        if v.denominator != 1 or v <= 0:
            raise NonIntegral(f"valency {v} is not a positive integer")
    p = spectral_tensor(p_mat, mults, valencies, order)
    for kk, i, j in itertools.product(range(d + 1), repeat=3):
        if p[kk][i][j].denominator != 1 or p[kk][i][j] < 0:
            raise NonIntegral(f"p^{kk}_{i}{j} = {p[kk][i][j]} is not a "
                              "nonnegative integer")
    q = spectral_tensor(q_mat, valencies, mults, order)
    for kk, i, j in itertools.product(range(d + 1), repeat=3):
        if q[kk][i][j] < 0:
            raise NegativeKrein(f"q^{kk}_{i}{j} = {q[kk][i][j]} is negative")
    return SchemeParameters(d=d, order=order, t=t, valencies=valencies,
                            multiplicities=mults, P=p_mat, Q=q_mat, p=p, q=q)


def matmul(a, b) -> tuple:
    """The product a b of matrices given as rows, one Fraction sum per
    entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch in product")
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                       for col in zip(*b)) for row in a)


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rat_str(x) -> str:
    """Every input goes through a new Fraction."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f}"


# The closed-form tables as built entry by entry, each entry a new Fraction.

def _fraction_rows(rows) -> tuple:
    return tuple(tuple(map(Fraction, row)) for row in rows)


def _closed_form_q(t: int) -> tuple:
    """The family's second eigenmatrix Q; row 0 is the multiplicities."""
    if not isinstance(t, int) or t < 3 or t % 2 == 0:
        raise BadParameter(f"t must be an odd integer >= 3, got {t!r}")
    F = Fraction
    s = t * t - t + 1
    return _fraction_rows([
        [1, (t - 1) * (t * t + 1), s * (s + t), (t - 1) * (t * t + 1), 1],
        [1, s - 1, 0, 1 - s, -1],
        [1, -s - 1, 2 * s, -s - 1, 1],
        [1, F(-(s + t), t), 0, F(s + t, t), -1],
        [1, F(s - t, t), F(-2 * s, t), F(s - t, t), 1],
    ])


def closed_form_parameters(t: int) -> SchemeParameters:
    """The family's parameter set, straight from the closed-form tables."""
    q_mat = _closed_form_q(t)
    F = Fraction
    s = t * t - t + 1
    b = t * (t + 1) // 2
    n = (F(1), F((t + 1) * (t * t + 1), 2), F((t - 1) * (t * t + 1), 2),
         F(t * t * (t * t - 1), 2), F(t * t * (t * t + 1), 2))
    m = q_mat[0]
    order = F((t ** 3 + 1) * (t + 1))
    p_mat = _fraction_rows([
        [1, n[1], n[2], n[3], n[4]],
        [1, F(b), F(-(s + 1), 2), F(-b), F(s - 1, 2)],
        [1, 0, F(t - 1), 0, F(-t)],
        [1, F(-b), F(-(s + 1), 2), F(b), F(s - 1, 2)],
        [1, -n[1], n[2], -n[3], n[4]],
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
        d=4, order=order, t=t, valencies=n, multiplicities=m, P=p_mat,
        Q=q_mat, p=tensor(p_inner, n), q=tensor(q_inner, m))


def absolute_bound_witnesses(q, m):
    """For each pair i <= j in index order whose multiplicities m_k with
    q^k_ij != 0 sum to more than m_i m_j (i < j) or m_i (m_i + 1) / 2
    (i = j), one witness with both sides."""
    rng = range(len(m))
    for i, j in itertools.combinations_with_replacement(rng, 2):
        total = sum((m[kk] for kk in rng if q[kk][i][j] != 0), Fraction(0))
        if i == j:
            side = f"m_{i}(m_{i} + 1)/2"
            bound = Fraction(m[i]) * (m[i] + 1) / 2
        else:
            side, bound = f"m_{i} m_{j}", Fraction(m[i]) * m[j]
        if total > bound:
            yield (f"sum of m_k over q^k_{i}{j} != 0 is {total} > "
                   f"{side} = {bound}")


# `validate` with every check on the Fractions as given; the product P Q is
# `matmul` above.

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

    prod = matmul(params.P, params.Q)
    ident = tuple(tuple(params.order * x for x in row)
                  for row in identity(d + 1))
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
    check_each("absolute_bound",
               absolute_bound_witnesses(q, params.multiplicities))

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
