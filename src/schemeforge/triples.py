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
is exact and stays in ints until the solution is read off: the 3 d - 1
sum rows that are fixed sums of the others are checked by their
right-hand sides alone and skipped, the zero rows kill unknowns,
elimination sees the other 69 rows at the live columns (12 to 16 for
odd t <= 51, against d^3 = 64 names), and a Fraction first appears as an
entry of the solution space. Most of those rows carry no new
information: in 780 of the 799 non-vacuous systems for odd t <= 51 they
have rank 15 over 16 live columns. The elimination
keeps its pivot rows reduced and tests a row that would be cleared at
more pivots than there are kernel vectors against that kernel (two int
vectors at rank 15, the right-hand side's among them), so a row in the
span of the earlier ones costs two dot products and is never cleared;
this kernel test is the one filter for such rows. Forcing is exact too:
every system of the family for odd t <= 51 has at most one free
parameter, and nonnegativity bounds it by a ratio test over the solution
line. A larger solution space raises HighNullity.

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

Two caches hold what patterns share: `_sum_rows` the int64 block of the
sum and unit rows of the last d, and the store `_last` the last params
object with its vanishing tuples and Krein block. A sweep over t holds
one parameter set's rows at a time. The lru `_boundary` holds the
boundary cells and expected values of the last 128 (pattern, c).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SchemeforgeError
from .linalg import AffineSolutionSpace, Inconsistent, solve_integer
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

    (names, the member indices of each of the 3 d^2 sum rows, the indices
    of the 3 d^2 - 3 d + 1 sum rows that span them all, a read-only int64
    block of the sum rows, in `widened_system`'s order, then the d^3 unit
    rows). Each of the three families of d^2 sum rows fixes two slots, so
    two families share each one-slot margin: summed over m, the rows
    [. m n] and [l . n] both give the total at slot n, and so on for the
    other two pairs. Those 3 d relations, 3 d - 1 of them independent,
    leave the rows at rank 3 d^2 - 3 d + 1; they give [l . n] at l = d,
    [l m .] at m = d and [l m .] at l = d as fixed sums of the others.
    """
    names, rng, step = _names(d), range(d), (d * d, d, 1)
    members = tuple(tuple(r * step[s] + i * step[a] + j * step[b]
                          for r in rng)
                    for s, a, b in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
                    for i in rng for j in rng)
    # [l . n] at l = d, then [l m .] at l = d or m = d
    last, d2 = d - 1, d * d
    dependent = ({d2 + last * d + n for n in rng}
                 | {2 * d2 + l * d + m for l in rng for m in rng
                    if last in (l, m)})
    kept = tuple(i for i in range(len(members)) if i not in dependent)
    units = np.eye(len(names), dtype=np.int64)
    block = np.concatenate((units[np.array(members)].sum(axis=1), units))
    block.setflags(write=False)
    return names, members, kept, block


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
    names, members, _, block = _sum_rows(params.d)
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


def _margins_agree(rhs: tuple, d: int) -> bool:
    """Whether the sum rows' right-hand sides give every one-slot margin
    alike.

    rhs[:3 d^2] are the three families' right-hand sides, d x d grids over
    (m, n), (l, n) and (l, m) in `_sum_rows` order: families 0 and 1 both
    give the total at each n, 0 and 2 at each m, 1 and 2 at each l.
    """
    d2 = d * d
    f0, f1, f2 = (rhs[k * d2:(k + 1) * d2] for k in range(3))

    def by_col(f):
        return [sum(f[i::d]) for i in range(d)]

    def by_row(f):
        return [sum(f[i * d:(i + 1) * d]) for i in range(d)]

    return (by_col(f0) == by_col(f1) and by_row(f0) == by_col(f2)
            and by_row(f1) == by_row(f2))


def solve(sys_: TripleSystem) -> TripleSolution:
    """Exact solution space; `forced` holds what linear algebra alone pins.

    When the system opens with the 3 d^2 sum rows of `_sum_rows`, the
    3 d - 1 of them that are fixed sums of the others are checked by their
    right-hand sides alone (every one-slot margin must come out alike from
    both families that give it, else Inconsistent) and then skipped. Of
    the other rows, one with one nonzero coefficient and right-hand side 0
    kills its unknown, whatever its kind; one nonzero mask of the matrix
    finds them and their unknowns. The rest go to `linalg.solve_integer` in their
    order, read at the live unknowns only, as lists of Python ints; its
    kernel test skips the rows in the span of earlier ones, and a row that
    becomes 0 = b with b != 0 raises Inconsistent there. In elimination on
    all d^3 columns a killed unknown is a pivot whose unit row touches no
    other column, so the space on the live columns, in their order and
    expanded back with 0 at the killed unknowns, equals that elimination
    field for field.
    """
    names = sys_.names
    nvar = len(names)
    rows, rhs = sys_.rows, sys_.rhs
    d = sys_.config.params.d
    _, members, kept, block = _sum_rows(d)
    nsum = len(members)
    read = range(len(rhs))
    if np.array_equal(rows[:nsum], block[:nsum]):
        if not _margins_agree(rhs, d):
            raise Inconsistent("system has no solution")
        read = [*kept, *range(nsum, len(rhs))]
    nonzero = rows != 0
    counts = nonzero.sum(axis=1).tolist()
    kills = [i for i in read if counts[i] == 1 and not rhs[i]]
    live = np.flatnonzero(~nonzero[kills].any(axis=0)).tolist()
    rest = [i for i in read if counts[i] != 1 or rhs[i]]
    at_live = rows[rest][:, live].tolist()
    reduced = solve_integer([row + [rhs[i]] for i, row in zip(rest, at_live)],
                            len(live))

    zero = Fraction(0)

    def expand(vec):
        out = [zero] * nvar
        for v, x in zip(live, vec):
            out[v] = x
        return tuple(out)

    space = AffineSolutionSpace(
        expand(reduced.particular),
        tuple(expand(vec) for vec in reduced.basis),
        tuple(live[j] for j in reduced.free_indices))
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
        lo = hi = None   # (bound on lam, index of the unknown that sets it)
        for v in support:
            bound = -p[v] / b[v]
            if b[v] > 0:
                if lo is None or bound > lo[0]:
                    lo = (bound, v)
            elif hi is None or bound < hi[0]:
                hi = (bound, v)
        if hi is not None and lo[0] > hi[0]:
            free = names[space.free_indices[0]]
            raise Infeasible(
                f"{names[lo[1]]} >= 0 needs {free} >= {lo[0]} but "
                f"{names[hi[1]]} >= 0 needs {free} <= {hi[0]}")
        if hi is not None and lo[0] == hi[0]:
            forced = dict(zip(names, p))
            for v in support:
                forced[names[v]] = p[v] + lo[0] * b[v]
            residual = ()
    for nm, val in forced.items():
        if val < 0:
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
