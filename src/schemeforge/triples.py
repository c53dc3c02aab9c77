"""Triple intersection number systems and nonnegativity forcing.

For points x, y, u with (x,y) in R_A, (y,u) in R_B, (u,x) in R_C, the
symbol [l m n] counts points z with (x,z) in R_l, (y,z) in R_m and
(u,z) in R_n. Boundary symbols (any index 0) are Kronecker deltas; the d^3
inner symbols satisfy three families of sum equations whose right-hand
sides are ordinary intersection numbers. The system is widened by one
linear equation per vanishing Krein parameter (Coolsaet and Jurisic), and
nonnegativity of the symbols then pins many of them to exact values.

widened_system is the one builder: it stacks the sum rows, the zero
rows and the Krein rows of one pattern into the one integer matrix of a
TripleSystem, whose right-hand sides are Python ints; a Krein row is its
rational equation times the lcm of its denominators. Unknowns are
ordered lexicographically by (l, m, n). The sum, unit and Krein rows do
not depend on the pattern and are cached as blocks (see below). Solving
is exact and stays in ints until the solution is read off. The zero
rows kill unknowns, and the rows that kill nothing, read at the live
columns (12 to 16 for odd t <= 51, against d^3 = 64 names), make the
live coefficient matrix A, whatever their order or kinds. A's reduced
rows, with the combination of A's rows behind each, and the null
combinations z (z A = 0, a basis of A's left null space) are built once
per matrix and cached, so a solve of a matrix met before runs no
elimination. The system is consistent iff every z has z . b = 0, and a
z with z . b != 0 is the certificate that it is not; else the solve
forms the reduced rows' right-hand sides from its own and reads the
space off. The 799 non-vacuous systems for odd t <= 51 meet 113 such
matrices. Most rows carry no new information: in 780 of those systems
the sum rows have rank 14 over 16 live columns, and the Krein rows add
one. Forcing is exact too: every system of the family for odd t <= 51
has at most one free parameter, and nonnegativity bounds it by a ratio
test over the solution line, in integer cross products. A larger
solution space raises HighNullity.

Against a concrete scheme, each triple takes four calls on a few dozen
entries, so numpy's fixed cost per call, not arithmetic, sets their
time. triple_pattern reads the three labels as Python ints.
direct_triple_counts returns the counts as a read-only int64 array of
shape (c, c, c), c the number of classes, and that array goes unchanged
to boundary_violations, which compares its boundary entries with the
pattern's expected vector as bytes when both are int64, and to the
residual checker, which takes only the inner d^3 entries before casting
them for one matrix-vector product. The checker also takes the same
entries as nested lists. Its product is exact at every t: float64,
through BLAS, while the matrix-wide bound max |a| * d^3 * order + max |b|
is below 2^53 (every t = 3 system, about 10^8), and Python ints (an
object array) from there. The family first reaches 2^53 at t = 13.

Three caches hold what patterns share: `_sum_rows` the int64 block of
the sum and unit rows of the last d; the lru `_echelon` the reduced rows
of the last 128 live coefficient matrices, with the combinations of
rows that make them and the null combinations; and the store `_last`
the last params object with its vanishing tuples and Krein block. An
echelon entry takes a few milliseconds to build and about 32 kB to
hold, its key included, so the 113 family matrices fit. A sweep over t
holds one parameter set's rows at a time. The lru `_boundary` holds the
boundary cells and expected values of the last 128 (pattern, c).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SchemeforgeError
from .linalg import AffineSolutionSpace, Inconsistent, _rref_rows, _space
from .scheme_params import SchemeParameters, _cleared_rows


class VacuousConfig(SchemeforgeError, ValueError):
    """No triple realizes the requested relation pattern (p^A_CB = 0)."""


class Infeasible(SchemeforgeError, ValueError):
    """Nonnegativity contradicts the linear system."""


class HighNullity(SchemeforgeError, NotImplementedError):
    """The solution space has more than one free parameter."""


@dataclass(frozen=True)
class TripleConfig:
    """A relation pattern (A, B, C) over a fixed parameter set."""

    params: SchemeParameters
    abc: tuple

    def __post_init__(self):
        a, b, c = self.abc
        d = self.params.d
        if not all(1 <= x <= d for x in (a, b, c)):
            raise ValueError("pattern classes must lie in 1..d")

    @property
    def is_vacuous(self) -> bool:
        a, b, c = self.abc
        return self.params.p[a][c][b] == 0


@dataclass(frozen=True, eq=False)
class TripleSystem:
    """Linear equations over the d^3 inner symbols.

    rows is one read-only 2-D integer ndarray, row i the coefficients of
    equation i over `names`: int64, or an object array of Python ints
    where the Krein rows need them (from t = 103 in the family). rhs[i] is
    a Python int; kinds[i] tags where the row came from: "sum" (a sum
    equation), "zero" (an unknown that a zero sum forces to 0) or "krein"
    (a vanishing Krein parameter).
    """

    config: TripleConfig
    names: tuple   # of (l, m, n)
    rows: np.ndarray
    rhs: tuple
    kinds: tuple


@dataclass(frozen=True)
class TripleSolution:
    """Solution space plus everything nonnegativity managed to pin."""

    space: AffineSolutionSpace
    forced: dict        # (l, m, n) -> Fraction
    residual_free: tuple  # of (l, m, n) still undetermined


def _names(d: int) -> tuple:
    return tuple((l, m, n)
                 for l in range(1, d + 1)
                 for m in range(1, d + 1)
                 for n in range(1, d + 1))


@functools.lru_cache(maxsize=1)
def _sum_rows(d: int) -> tuple:
    """Pattern-free part of every system with d classes.

    (names, the member indices of each of the 3 d^2 sum rows, a read-only
    int64 block of the sum rows, in `widened_system`'s order, then the d^3
    unit rows). Each of the three families of d^2 sum rows fixes two
    slots, so two families share each one-slot margin; those 3 d
    relations, 3 d - 1 of them independent, leave the sum rows at rank
    3 d^2 - 3 d + 1.
    """
    names, rng, step = _names(d), range(d), (d * d, d, 1)
    members = tuple(tuple(r * step[s] + i * step[a] + j * step[b]
                          for r in rng)
                    for s, a, b in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
                    for i in rng for j in rng)
    units = np.eye(len(names), dtype=np.int64)
    block = np.concatenate((units[np.array(members)].sum(axis=1), units))
    block.setflags(write=False)
    return names, members, block


@functools.lru_cache(maxsize=128)
def _echelon(data, shape: tuple) -> tuple:
    """The reduced rows of one live coefficient matrix A, with the
    combination of A's rows behind each, and the null combinations.

    A has `shape`; `data` is its int64 bytes, or the flat tuple of its
    entries when they are Python ints (an object array's bytes would be
    pointers, not values). `_rref_rows` reduces the rows [a_i | e_i], a_i
    row i of A and e_i the i-th unit vector over A's rows, pivoting only
    among A's columns. Returns (pivot columns, coefficient rows,
    combinations, null combinations): the coefficient rows c are A's
    integer RREF, each an integer multiple of the RREF row, and the
    combination y behind c gives c = y A; each row that clears to zero
    on A's columns leaves a null combination z, z A = 0, and the z's are
    a basis of A's left null space. Each y and z is held as (row
    indices, multipliers) where it is nonzero, equal multipliers and
    multiplier tuples as one object: 3.6 MB, not 4.7, for the 113
    entries of the 799 family systems for odd t <= 51 (tracemalloc).
    """
    k, n = shape
    flat = (np.frombuffer(data, dtype=np.int64) if isinstance(data, bytes)
            else np.array(data, dtype=object))
    a = flat.reshape(shape).tolist()
    cols, prows, nulls = _rref_rows(
        [row + [0] * i + [1] + [0] * (k - 1 - i) for i, row in enumerate(a)],
        n)

    canon = {}

    def sparse(row):
        pairs = [(i, canon.setdefault(x, x)) for i, x in enumerate(row[n:])
                 if x]
        return tuple(canon.setdefault(part, part) for part in zip(*pairs))

    return (cols, tuple(tuple(row[:n]) for row in prows),
            tuple(map(sparse, prows)), tuple(map(sparse, nulls)))


def vanishing_tuples(params: SchemeParameters) -> tuple:
    """All ordered (r, s, t) with q^t_rs = 0, inner indices only."""
    d = params.d
    rng = range(1, d + 1)
    return tuple((r, s, t) for r in rng for s in rng for t in rng
                 if not params.q[t][r][s])


# The store: "params", the last params object `_krein_rows` was asked for
# (held, so its id stays unused), and "krein", its Krein rows.
_last = {}


def _krein_rows(params: SchemeParameters) -> tuple:
    """Pattern-free part of the Krein rows, formed once per params object.

    (tuples, cols, g0, rows): tuples is `vanishing_tuples(params)`;
    cols[j] is column j of den * Q, den the lcm of Q's denominators;
    rows, a read-only 2-D ndarray, holds in row i the integer row
    den^3 Q_lr Q_ms Q_nt of tuples[i] = (r, s, t), in `names` order,
    divided by g0[i] = gcd(den^3, *that row). All the rows are one outer
    product of three gathers of columns of the inner block of den * Q. It
    is formed in int64 while max |den Q_lr|^3 < 2^63, and in Python ints
    (an object array, the same expression) from there: the family first
    needs those at t = 103, and its rows reach 66 bits at t = 151. Only
    the divided rows are held; `widened_system` divides a row again by
    multiplying it by g0 / g.
    """
    if _last.get("params") is params:
        return _last["krein"]
    tuples = vanishing_tuples(params)
    den, cleared = _cleared_rows(params.Q)
    inner = [row[1:] for row in cleared[1:]]
    top = max(abs(x) for row in inner for x in row)
    # every entry is a product of three entries of `inner`, so while
    # top^3 < 2^63 no int64 product or partial product can wrap
    dtype = np.int64 if top ** 3 < 2 ** 63 else object
    qi = np.array(inner, dtype=dtype)
    r, s, t = np.array(tuples, dtype=np.intp).reshape(-1, 3).T - 1
    full = (qi[:, r].T[:, :, None, None] * qi[:, s].T[:, None, :, None]
            * qi[:, t].T[:, None, None, :]).reshape(len(tuples), -1)
    den3 = den ** 3
    g0 = [math.gcd(den3, g) for g in np.gcd.reduce(full, axis=1).tolist()]
    reduced = full // np.array(g0, dtype=dtype)[:, None]
    reduced.setflags(write=False)
    _last.clear()
    _last.update(params=params,
                 krein=(tuples, tuple(zip(*cleared)), g0, reduced))
    return _last["krein"]


def widened_system(cfg: TripleConfig) -> TripleSystem:
    """Sum, zero and Krein rows of one pattern, in that order.

    Each of the 3 d^2 sum equations fixes one coordinate pair and sums
    over the remaining index; the right-hand side subtracts the boundary
    symbol. A zero right-hand side forces every summand to zero (the
    symbols are counts), which is emitted as one zero row per unknown
    involved. Then comes one row per vanishing Krein parameter
    q^t_rs = 0, in `vanishing_tuples` order:
    sum_{l,m,n} Q_lr Q_ms Q_nt [l m n] = -(Q_0r Q_As Q_Ct
    + Q_Ar Q_0s Q_Bt + Q_Cr Q_Bs Q_0t), the boundary symbols having been
    moved to the right-hand side.

    The Krein products are formed in integers from the columns of den * Q,
    den the lcm of Q's denominators, so the equation comes out times
    den^3. Dividing it by g = gcd(den^3, b, *row) leaves the rational
    equation times the lcm of its own denominators. The pattern-free rows
    come from `_sum_rows`, cached per d, and `_krein_rows`, held for the
    last params object; each pattern forms its right-hand sides and picks
    its zero rows from the unit rows, and multiplies the Krein block by
    g0 / g only when some row has g = gcd(g0, b) != g0. One concatenate
    makes the system's matrix, int64, or Python ints where the Krein
    block is.
    """
    if cfg.is_vacuous:
        a, b, c = cfg.abc
        raise VacuousConfig(f"p^{a}_{c}{b} = 0: no ({a},{b},{c}) triple exists")
    params = cfg.params
    A, B, C = cfg.abc
    p = params.p
    names, members, block = _sum_rows(params.d)
    rng = range(1, params.d + 1)
    rhs = ([p[B][m][n] - ((m, n) == (A, C)) for m in rng for n in rng]
           + [p[C][l][n] - ((l, n) == (A, B)) for l in rng for n in rng]
           + [p[A][l][m] - ((l, m) == (C, B)) for l in rng for m in rng])
    for value in rhs:
        if value < 0:
            raise Inconsistent(f"negative right-hand side {value}")
    zero = sorted({v for mem, b in zip(members, rhs) if b == 0 for v in mem})
    tuples, cols, g0s, krein = _krein_rows(params)
    nsum = len(members)
    kinds = ("sum",) * nsum + ("zero",) * len(zero) + ("krein",) * len(tuples)
    rhs += [0] * len(zero)
    scale = []
    for (r, s, t), g0 in zip(tuples, g0s):
        qr, qs, qt = cols[r], cols[s], cols[t]
        b = -(qr[0] * qs[A] * qt[C] + qr[A] * qs[0] * qt[B]
              + qr[C] * qs[B] * qt[0])
        g = math.gcd(g0, b)
        scale.append(g0 // g)
        rhs.append(b // g)
    if scale.count(1) < len(scale):
        krein = krein * np.array(scale, dtype=krein.dtype)[:, None]
    rows = np.concatenate((block[:nsum], block[[nsum + v for v in zero]],
                           krein))
    rows.setflags(write=False)
    return TripleSystem(cfg, names, rows, tuple(rhs), kinds)


def solve(sys_: TripleSystem) -> TripleSolution:
    """Exact solution space; `forced` holds what linear algebra alone pins.

    A row with one nonzero coefficient and right-hand side 0 kills its
    unknown, whatever its kind; one nonzero mask of the matrix finds them
    and their unknowns, and the other unknowns are live. The rows that
    kill nothing, read at the live columns, are the matrix A, whatever
    their order or kinds. Its reduced rows, the combination y of A's rows
    behind each, and the null combinations z, a basis of A's left null
    space, come from the cache `_echelon`, keyed by A's contents, so a
    solve of a matrix met before runs no elimination. By the Fredholm
    alternative the right-hand sides b have a solution iff every z has
    z . b = 0, checked in Python ints, else Inconsistent. Each reduced
    row c gets the right-hand side y . b and `linalg._space` reads the
    space off. In elimination on all d^3 columns a killed unknown is a pivot
    whose unit row touches no other column, so the space on the live
    columns, in their order and expanded back with 0 at the killed
    unknowns, equals that elimination field for field.
    """
    names = sys_.names
    nvar = len(names)
    rows, rhs = sys_.rows, sys_.rhs
    nonzero = rows != 0
    counts = nonzero.sum(axis=1).tolist()
    kills = [i for i, n in enumerate(counts) if n == 1 and not rhs[i]]
    live = tuple(np.flatnonzero(~nonzero[kills].any(axis=0)).tolist())
    rest = [i for i, n in enumerate(counts) if n != 1 or rhs[i]]
    a = rows[np.ix_(rest, live)]
    data = a.tobytes() if a.dtype != object else tuple(a.ravel().tolist())
    pivots, coef, ys, zs = _echelon(data, a.shape)
    b = [rhs[i] for i in rest]
    if any(sum(x * b[i] for i, x in zip(*z)) for z in zs):
        raise Inconsistent("system has no solution")
    reduced = [[*c, sum(x * b[i] for i, x in zip(*y))]
               for c, y in zip(coef, ys)]
    on_live = _space(pivots, reduced, len(live))

    zero = Fraction(0)

    def expand(vec):
        out = [zero] * nvar
        for v, x in zip(live, vec):
            out[v] = x
        return tuple(out)

    space = AffineSolutionSpace(
        expand(on_live.particular),
        tuple(expand(vec) for vec in on_live.basis),
        tuple(live[j] for j in on_live.free_indices))
    forced = {nm: x for nm, x, *col in zip(names, space.particular,
                                           *space.basis) if not any(col)}
    residual = tuple(names[f] for f in space.free_indices)
    return TripleSolution(space, forced, residual)


def nonneg_force(sys_: TripleSystem, sol: TripleSolution) -> TripleSolution:
    """Pin unknowns by the exact range of the free parameter under x >= 0.

    With nullity 1 every solution is p + lam * b, where b carries a 1 at
    the free unknown, so lam is its value. Each unknown v bounds lam from
    below (b_v > 0) or above (b_v < 0) by -p_v / b_v; lam >= 0 is the
    free unknown's own bound. A range that is one point forces every
    unknown. This is the exact set of nonnegative solutions, not a
    relaxation. Raises Infeasible when the range is empty or a pinned
    value is negative, and HighNullity above nullity 1.
    """
    space = sol.space
    names = sys_.names
    if space.dimension > 1:
        raise HighNullity(f"solution space has dimension {space.dimension}; "
                          "forcing handles at most 1")
    forced, residual = sol.forced, sol.residual_free
    if space.dimension == 1:
        (b,) = space.basis
        p = space.particular
        support = [v for v, bv in enumerate(b) if bv]
        # the tightest bound -p_v / b_v on lam from below and from above,
        # as (numerator, positive denominator, v); two bounds compare by
        # integer cross products
        lo = hi = None
        for v in support:
            pv, bv = p[v], b[v]
            num = -pv.numerator * bv.denominator
            den = pv.denominator * bv.numerator
            if den > 0:
                if lo is None or num * lo[1] > lo[0] * den:
                    lo = (num, den, v)
            elif hi is None or num * hi[1] > hi[0] * den:
                hi = (-num, -den, v)
        if hi is not None:
            gap = lo[0] * hi[1] - hi[0] * lo[1]
            if gap > 0:
                free = names[space.free_indices[0]]
                raise Infeasible(
                    f"{names[lo[2]]} >= 0 needs {free} >= "
                    f"{Fraction(lo[0], lo[1])} but {names[hi[2]]} >= 0 "
                    f"needs {free} <= {Fraction(hi[0], hi[1])}")
            if gap == 0:
                lam = Fraction(lo[0], lo[1])
                forced = dict(zip(names, p))
                for v in support:
                    forced[names[v]] = p[v] + lam * b[v]
                residual = ()
    for nm, val in forced.items():
        if val.numerator < 0:
            raise Infeasible(f"{nm} forced to {val} < 0")
    return TripleSolution(space, dict(forced), residual)


def forced_triple_values(params: SchemeParameters, abc) -> TripleSolution:
    """Build, widen, solve and force the system for one pattern."""
    cfg = TripleConfig(params, tuple(abc))
    sys_ = widened_system(cfg)
    return nonneg_force(sys_, solve(sys_))


def triple_pattern(sch, x: int, y: int, u: int) -> tuple:
    """(A, B, C) for the relations (x,y), (y,u), (u,x)."""
    rel = sch.rel
    # item reads each label as a Python int, not a numpy scalar
    return (rel.item(x, y), rel.item(y, u), rel.item(u, x))


def direct_triple_counts(sch, x: int, y: int, u: int) -> np.ndarray:
    """Brute-force tensor [l][m][n] over all classes including 0.

    A read-only int64 ndarray of shape (c, c, c), c the scheme's classes:
    entry [l, m, n] counts the z with (x,z) in R_l, (y,z) in R_m and
    (u,z) in R_n. Every z in the scheme is counted, so the entries sum to
    the scheme's size. One bincount over the sum of the scheme's cached
    label planes rel c^2, rel c and rel at rows x, y and u makes it.
    """
    if x == y or y == u or u == x:
        raise ValueError("x, y, u must be three distinct elements")
    c = sch.classes
    planes = sch.label_planes
    codes = planes[0, x] + planes[1, y]
    codes += planes[2, u]
    # weights, minlength and write passed by position: numpy parses
    # keywords at a cost comparable to the work on 112 entries
    counts = np.bincount(codes, None, c ** 3).reshape(c, c, c)
    counts.setflags(False)
    return counts


def integer_residual_checker(sys_: TripleSystem):
    """Precompiled exact residual test for direct-count tensors.

    The system's matrix, cast once, makes the per-tensor check a single
    matrix product. Returns a function mapping a tensor (the (d+1)^3
    array of direct_triple_counts, or the same entries as nested lists or
    tuples) to the index of the first violated row, or None when every
    equation is satisfied; its inner d^3 entries, read in C order, are the
    unknowns in `names` order.

    A count is at most `order`, so every partial sum of row . counts lies
    within sum |a_ij| * order, and b_i within |b_i|. All rows are bounded
    at once by max |a| * width * order + max |b|: below 2^53 the product
    is summed in float64, and from there in Python ints, as an object
    array.
    """
    params = sys_.config.params
    rows = sys_.rows
    bound = (max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
             * len(sys_.names) * params.order
             + max(map(abs, sys_.rhs), default=0))
    # Every partial sum of mat @ vec is an integer below the bound: below
    # 2^53 each one is a float64 whatever order BLAS adds in, so the
    # float64 product is exact; from there Python ints sum exactly.
    dtype = np.float64 if bound < 2 ** 53 else object
    mat = rows.astype(dtype)
    rhs = np.array(sys_.rhs, dtype=dtype)
    c = params.d + 1
    inner = np.arange(c ** 3).reshape(c, c, c)[1:, 1:, 1:].ravel()

    def check(tensor):
        # only the d^3 inner entries are cast, in `names` order
        vec = np.asarray(tensor).take(inner).astype(dtype)
        bad = mat.dot(vec) != rhs
        return int(bad.argmax()) if np.count_nonzero(bad) else None

    return check


@functools.lru_cache(maxsize=128)
def _boundary(abc: tuple, c: int) -> tuple:
    """(cells, flat indices, expected vector, its bytes) for pattern abc
    in a c^3 tensor: every (l, m, n) with an index 0, in the order
    boundary_violations reports them, their indices in the flattened
    tensor, and the read-only int64 vector of the boundary symbols' values
    there. 128 entries hold every pattern of a scheme with up to 5
    classes."""
    A, B, C = abc
    rng, inner = range(c), range(1, c)
    cells = tuple([(0, m, n) for m in rng for n in rng]
                  + [(l, 0, n) for l in inner for n in rng]
                  + [(l, m, 0) for l in inner for m in inner])
    flat = np.array([(l * c + m) * c + n for l, m, n in cells], dtype=np.intp)
    want = np.array([(m, n) == (A, C) if l == 0
                     else (l, n) == (A, B) if m == 0
                     else (l, m) == (C, B)
                     for l, m, n in cells], dtype=np.int64)
    flat.setflags(write=False)
    want.setflags(write=False)
    return cells, flat, want, want.tobytes()


def boundary_violations(cfg_abc, tensor) -> list:
    """Check the boundary symbols of a direct-count tensor.

    [0 m n] = delta_mA delta_nC, [l 0 n] = delta_lA delta_nB,
    [l m 0] = delta_lC delta_mB, and [0 0 n] etc. vanish for distinct
    base points. The boundary entries are compared at once with the
    expected vector cached per (pattern, c), as bytes when they are int64
    too, where equal bytes are equal values. Otherwise, in any dtype,
    they are walked to list each ((l, m, n), count, expected) that
    differs: the count as the tensor holds it, read as a Python scalar,
    and the rest Python ints.
    """
    counts = np.asarray(tensor)
    cells, flat, want, want_bytes = _boundary(tuple(cfg_abc), len(counts))
    got = counts.take(flat)
    if got.dtype == want.dtype and got.tobytes() == want_bytes:
        return []
    return [(cell, g, w) for cell, g, w
            in zip(cells, got.tolist(), want.tolist()) if g != w]
