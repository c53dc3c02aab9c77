"""Triple intersection number systems and nonnegativity forcing.

For points x, y, u with (x,y) in R_A, (y,u) in R_B, (u,x) in R_C, the
symbol [l m n] counts points z with (x,z) in R_l, (y,z) in R_m and
(u,z) in R_n. Boundary symbols (any index 0) are Kronecker deltas; the d^3
inner symbols satisfy three families of sum equations whose right-hand
sides are ordinary intersection numbers. The system can be widened by
symmetry identities when some of A, B, C coincide and by one linear
equation per vanishing Krein parameter, and nonnegativity of the symbols
then pins many of them to exact values.

Every row and right-hand side is a Python int, so the residual checker
reads the rows as they are built; a Krein row is its rational equation
times the lcm of its denominators. Unknowns are ordered lexicographically
by (l, m, n). Solving is exact and runs on symmetry classes: the zero
rows kill unknowns, the symmetry rows merge them, and elimination sees one
column per surviving class (6 to 16 for odd t <= 51, against d^3 = 64
names) and the rows that remain distinct up to scale (12 to 44). Fraction
arithmetic starts there. The solution space is then expanded back to the
names. Forcing is exact too: every system of the family for odd t <= 51
has at most one free parameter, and nonnegativity bounds it by a ratio
test over the solution line. A larger solution space raises HighNullity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .errors import SchemeforgeError
from .linalg import AffineSolutionSpace, Inconsistent, RatMatrix, solve_linear
from .scheme_params import SchemeParameters


class VacuousConfig(SchemeforgeError, ValueError):
    """No triple realizes the requested relation pattern (p^A_CB = 0)."""


class NotVanishing(SchemeforgeError, ValueError):
    """A Krein-vanishing equation was requested for a nonzero parameter."""


class Infeasible(SchemeforgeError, ValueError):
    """Nonnegativity contradicts the linear system."""


class HighNullity(SchemeforgeError, NotImplementedError):
    """The solution space has more than one free parameter."""


class CheckerOverflow(SchemeforgeError, OverflowError):
    """A row could overflow int64 in the residual checker."""


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


@dataclass(frozen=True)
class TripleSystem:
    """Linear equations over the d^3 inner symbols.

    rows[i] is a tuple of int coefficients over `names` and rhs[i] an int;
    kinds[i] tags where the row came from ("sum", "zero", "symmetry",
    "krein").
    """

    config: TripleConfig
    names: tuple   # of (l, m, n)
    rows: tuple    # of int coefficient tuples
    rhs: tuple
    kinds: tuple

    def index(self, lmn) -> int:
        d = self.config.params.d
        l, m, n = lmn
        return (l - 1) * d * d + (m - 1) * d + (n - 1)

    def extended(self, new_rows, new_rhs, kind) -> "TripleSystem":
        return replace(self,
                       rows=self.rows + tuple(new_rows),
                       rhs=self.rhs + tuple(new_rhs),
                       kinds=self.kinds + (kind,) * len(new_rows))


@dataclass(frozen=True)
class TripleSolution:
    """Solution space plus everything nonnegativity managed to pin."""

    config: TripleConfig
    space: AffineSolutionSpace
    forced: dict        # (l, m, n) -> Fraction
    residual_free: tuple  # of (l, m, n) still undetermined


def _names(d: int) -> tuple:
    return tuple((l, m, n)
                 for l in range(1, d + 1)
                 for m in range(1, d + 1)
                 for n in range(1, d + 1))


def build_base_system(cfg: TripleConfig) -> TripleSystem:
    """Sum equations over the inner symbols, plus forced zero rows.

    Each of the 3 d^2 equations fixes one coordinate pair and sums over the
    remaining index; the right-hand side subtracts the boundary symbol.
    A zero right-hand side forces every summand to zero (the symbols are
    counts), which is emitted as one extra row per unknown involved.
    """
    if cfg.is_vacuous:
        a, b, c = cfg.abc
        raise VacuousConfig(f"p^{a}_{c}{b} = 0: no ({a},{b},{c}) triple exists")
    d = cfg.params.d
    A, B, C = cfg.abc
    p = cfg.params.p
    names = _names(d)
    idx = {nm: i for i, nm in enumerate(names)}
    rows, rhs, kinds = [], [], []
    zero_rows = []

    def emit(members, value):
        row = [0] * len(names)
        for nm in members:
            row[idx[nm]] = 1
        rows.append(tuple(row))
        rhs.append(value)
        kinds.append("sum")
        if value == 0:
            zero_rows.extend(members)
        elif value < 0:
            raise Inconsistent(f"negative right-hand side {value}")

    rng = range(1, d + 1)
    for m in rng:
        for n in rng:
            emit([(r, m, n) for r in rng],
                 int(p[B][m][n]) - (1 if (m, n) == (A, C) else 0))
    for l in rng:
        for n in rng:
            emit([(l, r, n) for r in rng],
                 int(p[C][l][n]) - (1 if (l, n) == (A, B) else 0))
    for l in rng:
        for m in rng:
            emit([(l, m, r) for r in rng],
                 int(p[A][l][m]) - (1 if (l, m) == (C, B) else 0))

    sys_ = TripleSystem(cfg, names, tuple(rows), tuple(rhs), tuple(kinds))
    zrows = []
    for nm in sorted(set(zero_rows)):
        row = [0] * len(names)
        row[idx[nm]] = 1
        zrows.append(tuple(row))
    return sys_.extended(zrows, [0] * len(zrows), "zero")


def _slot_permutations(abc) -> list:
    """Index-slot permutations valid for this pattern.

    Swapping two of the three base points preserves the pattern exactly
    when the corresponding pair of A, B, C coincides; all of S3 applies
    when the three are equal.
    """
    A, B, C = abc
    swaps = []
    if B == C:
        swaps.append(lambda t: (t[1], t[0], t[2]))
    if A == C:
        swaps.append(lambda t: (t[0], t[2], t[1]))
    if A == B:
        swaps.append(lambda t: (t[2], t[1], t[0]))
    if A == B == C:
        swaps.append(lambda t: (t[1], t[2], t[0]))
        swaps.append(lambda t: (t[2], t[0], t[1]))
    return swaps


def add_symmetry(sys_: TripleSystem) -> TripleSystem:
    """Widen with [l m n] = [sigma(l m n)] for each valid slot swap."""
    perms = _slot_permutations(sys_.config.abc)
    if not perms:
        return sys_
    n = len(sys_.names)
    seen = set()
    rows, rhs = [], []
    for nm in sys_.names:
        for perm in perms:
            other = perm(nm)
            if other == nm:
                continue
            key = (min(nm, other), max(nm, other))
            if key in seen:
                continue
            seen.add(key)
            row = [0] * n
            row[sys_.index(nm)] = 1
            row[sys_.index(other)] = -1
            rows.append(tuple(row))
            rhs.append(0)
    return sys_.extended(rows, rhs, "symmetry")


def vanishing_tuples(params: SchemeParameters) -> tuple:
    """All ordered (r, s, t) with q^t_rs = 0, inner indices only."""
    d = params.d
    rng = range(1, d + 1)
    return tuple((r, s, t) for r in rng for s in rng for t in rng
                 if params.q[t][r][s] == 0)


def add_krein_vanishing(sys_: TripleSystem,
                        tuples: Iterable | None = None) -> TripleSystem:
    """One equation per vanishing Krein parameter q^t_rs = 0.

    sum_{l,m,n} Q_lr Q_ms Q_nt [l m n] = -(Q_0r Q_As Q_Ct
    + Q_Ar Q_0s Q_Bt + Q_Cr Q_Bs Q_0t), the boundary symbols having been
    moved to the right-hand side. Explicitly requested tuples are expanded
    to all their index permutations; by default every ordered tuple with
    q^t_rs = 0 is used.

    The products are formed in integers from the columns of den * Q, den
    the lcm of Q's denominators, so the equation comes out times den^3.
    Dividing it by g = gcd(den^3, b, *row) leaves the rational equation
    times the lcm of its own denominators.
    """
    cfg = sys_.config
    params = cfg.params
    if tuples is None:
        tuples = vanishing_tuples(params)
    else:
        tuples = sorted({p for tup in tuples
                         for p in itertools.permutations(tup)})
    A, B, C = cfg.abc
    Q = params.Q
    d = params.d
    rng = range(1, d + 1)
    den = math.lcm(*(x.denominator for x in Q.entries))
    cols = [[Q.at(i, j).numerator * (den // Q.at(i, j).denominator)
             for i in range(d + 1)] for j in range(d + 1)]
    den3 = den ** 3
    rows, rhs = [], []
    for r, s, t in tuples:
        if params.q[t][r][s] != 0:
            raise NotVanishing(f"q^{t}_{r}{s} = {params.q[t][r][s]} != 0")
        qr, qs, qt = cols[r], cols[s], cols[t]
        # entries in `names` order: l, then m, then n
        lm = [qr[l] * qs[m] for l in rng for m in rng]
        row = [x * qt[n] for x in lm for n in rng]
        b = -(qr[0] * qs[A] * qt[C] + qr[A] * qs[0] * qt[B]
              + qr[C] * qs[B] * qt[0])
        g = math.gcd(den3, b, *row)
        rows.append(tuple(x // g for x in row))
        rhs.append(b // g)
    return sys_.extended(rows, rhs, "krein")


def widened_system(cfg: TripleConfig,
                   krein_tuples: Iterable | None = None) -> TripleSystem:
    """Base system plus symmetry identities plus Krein-vanishing rows."""
    return add_krein_vanishing(add_symmetry(build_base_system(cfg)),
                               tuples=krein_tuples)


def _classes(sys_: TripleSystem) -> tuple:
    """Symmetry classes of the unknowns, and the rows left to eliminate.

    A row with one nonzero coefficient and right-hand side 0 kills its
    unknown; a row c e_i - c e_j = 0 merges i and j. Returns the classes
    that hold no killed unknown, each a sorted member list, ordered by
    their largest member, and (row, rhs, support) for the rows that did
    neither.
    """
    parent = list(range(len(sys_.names)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    killed, rest = [], []
    for row, rhs in zip(sys_.rows, sys_.rhs):
        support = [v for v, c in enumerate(row) if c]
        if rhs == 0 and len(support) == 1:
            killed.append(support[0])
        elif (rhs == 0 and len(support) == 2
              and row[support[0]] == -row[support[1]]):
            parent[find(support[0])] = find(support[1])
        else:
            rest.append((row, rhs, support))
    dead = {find(v) for v in killed}
    members = {}
    for v in range(len(parent)):
        root = find(v)
        if root not in dead:
            members.setdefault(root, []).append(v)
    return sorted(members.values(), key=lambda cls: cls[-1]), rest


def solve(sys_: TripleSystem) -> TripleSolution:
    """Exact solution space; `forced` holds what linear algebra alone pins.

    Elimination runs on the symmetry classes of `_classes`, not on the
    d^3 names: every other row is summed over each class, rows that
    become 0 = 0 or are a scalar multiple of an earlier row are dropped,
    and 0 = b with b != 0 raises Inconsistent. Fractions enter only in
    the elimination of the reduced rows. The reduced space is expanded
    back to the names, with each free index the largest member of its
    free class.
    Every null vector is constant on a class and zero on killed unknowns,
    and in an RREF free columns are the largest indices in the supports
    of null vectors, so the result equals elimination on all d^3 columns,
    field for field.
    """
    classes, rest = _classes(sys_)
    col = {v: j for j, cls in enumerate(classes) for v in cls}
    rows, rhs, seen = [], [], set()
    for row, b, support in rest:
        red = [0] * len(classes)
        for v in support:
            if v in col:
                red[col[v]] += row[v]
        if not any(red):
            if b != 0:
                raise Inconsistent("system has no solution")
            continue
        # divide by the gcd, first nonzero entry positive: one key per
        # row up to scale
        g = math.gcd(b, *red)
        if next(x for x in red if x) < 0:
            g = -g
        key = (tuple(x // g for x in red), b // g)
        if key not in seen:
            seen.add(key)
            rows.append(key[0])
            rhs.append(key[1])
    # built directly, so that a system with no rows left keeps its columns
    reduced = solve_linear(
        RatMatrix(len(rows), len(classes), tuple(x for r in rows for x in r)),
        rhs)

    nvar = len(sys_.names)

    def expand(vec):
        out = [Fraction(0)] * nvar
        for cls, x in zip(classes, vec):
            for v in cls:
                out[v] = x
        return tuple(out)

    space = AffineSolutionSpace(
        expand(reduced.particular),
        tuple(expand(vec) for vec in reduced.basis),
        tuple(classes[j][-1] for j in reduced.free_indices))
    forced = {}
    for v in range(nvar):
        if all(vec[v] == 0 for vec in space.basis):
            forced[sys_.names[v]] = space.particular[v]
    residual = tuple(sys_.names[f] for f in space.free_indices)
    return TripleSolution(sys_.config, space, forced, residual)


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
        lo = hi = None   # (bound on lam, index of the unknown that sets it)
        for v, (pv, bv) in enumerate(zip(space.particular, b)):
            if bv > 0 and (lo is None or -pv / bv > lo[0]):
                lo = (-pv / bv, v)
            elif bv < 0 and (hi is None or -pv / bv < hi[0]):
                hi = (-pv / bv, v)
        if hi is not None and lo[0] > hi[0]:
            free = names[space.free_indices[0]]
            raise Infeasible(
                f"{names[lo[1]]} >= 0 needs {free} >= {lo[0]} but "
                f"{names[hi[1]]} >= 0 needs {free} <= {hi[0]}")
        if hi is not None and lo[0] == hi[0]:
            forced = {nm: pv + lo[0] * bv
                      for nm, pv, bv in zip(names, space.particular, b)}
            residual = ()
    for nm, val in forced.items():
        if val < 0:
            raise Infeasible(f"{nm} forced to {val} < 0")
    return TripleSolution(sys_.config, space, dict(forced), residual)


def forced_triple_values(params: SchemeParameters, abc) -> TripleSolution:
    """Build, widen, solve and force the system for one pattern."""
    cfg = TripleConfig(params, tuple(abc))
    sys_ = widened_system(cfg)
    return nonneg_force(sys_, solve(sys_))


def triple_pattern(sch, x: int, y: int, u: int) -> tuple:
    """(A, B, C) for the relations (x,y), (y,u), (u,x)."""
    rel = sch.rel
    return (int(rel[x][y]), int(rel[y][u]), int(rel[u][x]))


def direct_triple_counts(sch, x: int, y: int, u: int) -> tuple:
    """Brute-force tensor [l][m][n] over all classes including 0.

    Counts every z in the scheme, so summing the full tensor gives the
    scheme's size.
    """
    if len({x, y, u}) != 3:
        raise ValueError("x, y, u must be three distinct elements")
    import numpy as np
    rel = sch.rel
    c = sch.classes
    code = rel[x].astype(np.int64) * c * c + rel[y].astype(np.int64) * c \
        + rel[u].astype(np.int64)
    counts = np.bincount(code, minlength=c ** 3)
    return tuple(tuple(tuple(int(counts[l * c * c + m * c + n])
                             for n in range(c))
                       for m in range(c))
                 for l in range(c))


def integer_residual_checker(sys_: TripleSystem):
    """Precompiled exact residual test for direct-count tensors.

    The int rows become one int64 matrix, so the per-tensor check is a
    single matrix product. Returns a function mapping a tensor to the
    index of the first violated row, or None when every equation is
    satisfied. Raises CheckerOverflow, naming the row, when the int64
    product of a row with a count tensor could wrap.
    """
    import numpy as np
    order = int(sys_.config.params.order)
    for i, (row, b) in enumerate(zip(sys_.rows, sys_.rhs)):
        # A count is at most `order`, so every partial sum of row . counts
        # and the residual row . counts - b lie within
        # sum |a_ij| * order + |b_i|; below 2^63, int64 cannot wrap.
        if sum(map(abs, row)) * order + abs(b) >= 2 ** 63:
            raise CheckerOverflow(
                f"{sys_.kinds[i]} row {i} can overflow int64 on counts up "
                f"to {order}")
    mat = np.array(sys_.rows, dtype=np.int64)
    vec_rhs = np.array(sys_.rhs, dtype=np.int64)
    names = sys_.names

    def check(tensor):
        vec = np.fromiter((tensor[l][m][n] for l, m, n in names),
                          dtype=np.int64, count=len(names))
        bad = np.nonzero(mat @ vec - vec_rhs)[0]
        return int(bad[0]) if bad.size else None

    return check


def pattern_checkers(params: SchemeParameters):
    """abc -> (widened system, integer residual checker), built once each."""
    cache = {}

    def get(abc):
        if abc not in cache:
            sys_ = widened_system(TripleConfig(params, abc))
            cache[abc] = (sys_, integer_residual_checker(sys_))
        return cache[abc]

    return get


def boundary_violations(cfg_abc, tensor) -> list:
    """Check the boundary symbols of a direct-count tensor.

    [0 m n] = delta_mA delta_nC, [l 0 n] = delta_lA delta_nB,
    [l m 0] = delta_lC delta_mB, and [0 0 n] etc. vanish for distinct
    base points.
    """
    A, B, C = cfg_abc
    d = len(tensor) - 1
    bad = []
    for m in range(d + 1):
        for n in range(d + 1):
            want = 1 if (m, n) == (A, C) else 0
            if tensor[0][m][n] != want:
                bad.append(((0, m, n), tensor[0][m][n], want))
    for l in range(1, d + 1):
        for n in range(d + 1):
            want = 1 if (l, n) == (A, B) else 0
            if tensor[l][0][n] != want:
                bad.append(((l, 0, n), tensor[l][0][n], want))
    for l in range(1, d + 1):
        for m in range(1, d + 1):
            want = 1 if (l, m) == (C, B) else 0
            if tensor[l][m][0] != want:
                bad.append(((l, m, 0), tensor[l][m][0], want))
    return bad
