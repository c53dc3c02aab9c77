"""The triple-system builders as they were before the shared rows.

`schemeforge.triples` forms the pattern-free sum, unit and Krein rows once
per parameter set, stacks them into one integer matrix and builds each
residual checker with array operations; this module keeps the
per-pattern builders and a residual checker that sums row by row in
Python ints, so that tests compare the two instead of the code under
test with itself. Systems are the same
`TripleSystem` type and raise the same errors; `system`, the one place
in the tests that makes a system, turns its rows into the matrix.
`widened_system` here still adds the slot-swap symmetry rows that
`schemeforge.triples` no longer adds, so tests can show that they change
no solution and build the proof systems that need them.
`add_krein_vanishing` here also takes chosen Krein tuples, expanded to
all their permutations, for those proof systems; `schemeforge.triples`
builds only the full vanishing set, so `NotVanishing`, raised for a
chosen tuple whose Krein parameter is not 0, lives here.

`direct_triple_counts` and `boundary_violations` are the per-triple
kernel as it was before the count tensor became one read-only int64
array: counts as a nested tuple, boundary symbols walked in Python.
With `integer_residual_checker` (whose check reads a tensor name by
name) they are the reference for the array kernel.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from schemeforge.errors import SchemeforgeError
from schemeforge.linalg import Inconsistent
from schemeforge.triples import (TripleConfig, TripleSystem, VacuousConfig,
                                 vanishing_tuples)


class NotVanishing(SchemeforgeError, ValueError):
    """A Krein-vanishing equation was requested for a nonzero parameter."""


def system(cfg: TripleConfig, names, rows, rhs, kinds) -> TripleSystem:
    """A TripleSystem whose rows, integer sequences or an ndarray, become
    the read-only 2-D matrix that `widened_system` makes: int64 where every
    entry fits, else an object array of Python ints."""
    try:
        mat = np.array(rows, dtype=np.int64)
    except OverflowError:
        mat = np.array(rows, dtype=object)
    mat = mat.reshape(len(rhs), len(names))
    mat.setflags(write=False)
    return TripleSystem(cfg, tuple(names), mat, tuple(rhs), tuple(kinds))


def extended(sys_: TripleSystem, new_rows, new_rhs, kind) -> TripleSystem:
    """`sys_` with rows of one kind appended."""
    return system(sys_.config, sys_.names, sys_.rows.tolist() + list(new_rows),
                  sys_.rhs + tuple(new_rhs),
                  sys_.kinds + (kind,) * len(new_rows))


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

    sys_ = system(cfg, names, rows, rhs, kinds)
    zrows = []
    for nm in sorted(set(zero_rows)):
        row = [0] * len(names)
        row[idx[nm]] = 1
        zrows.append(tuple(row))
    return extended(sys_, zrows, [0] * len(zrows), "zero")


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
            row[sys_.names.index(nm)] = 1
            row[sys_.names.index(other)] = -1
            rows.append(tuple(row))
            rhs.append(0)
    return extended(sys_, rows, rhs, "symmetry")


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
    den = math.lcm(*(x.denominator for row in Q for x in row))
    cols = [[Q[i][j].numerator * (den // Q[i][j].denominator)
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
    return extended(sys_, rows, rhs, "krein")


def widened_system(cfg: TripleConfig,
                   krein_tuples: Iterable | None = None) -> TripleSystem:
    """Base system plus symmetry identities plus Krein-vanishing rows."""
    return add_krein_vanishing(add_symmetry(build_base_system(cfg)),
                               tuples=krein_tuples)


def integer_residual_checker(sys_: TripleSystem):
    """Exact residual test for direct-count tensors, row by row in Python
    ints.

    Returns a function mapping a tensor to the index of the first violated
    row, or None when every equation is satisfied; each count is read as
    a Python int, so no sum can round or wrap. A row is read as its
    nonzero (index, coefficient) pairs: most rows are sum or unit rows
    with four or one of them.
    """
    rows = [[(j, a) for j, a in enumerate(row) if a]
            for row in sys_.rows.tolist()]
    names = sys_.names

    def check(tensor):
        vec = [int(tensor[l][m][n]) for l, m, n in names]
        for i, (row, b) in enumerate(zip(rows, sys_.rhs)):
            if sum([a * vec[j] for j, a in row]) != b:
                return i
        return None

    return check


def direct_triple_counts(sch, x: int, y: int, u: int) -> tuple:
    """Brute-force tensor [l][m][n] over all classes including 0.

    Counts every z in the scheme, so summing the full tensor gives the
    scheme's size.
    """
    if len({x, y, u}) != 3:
        raise ValueError("x, y, u must be three distinct elements")
    rel = sch.rel
    c = sch.classes
    code = rel[x].astype(np.int64) * c * c + rel[y].astype(np.int64) * c \
        + rel[u].astype(np.int64)
    counts = np.bincount(code, minlength=c ** 3).reshape(c, c, c).tolist()
    return tuple(tuple(map(tuple, plane)) for plane in counts)


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
