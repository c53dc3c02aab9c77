"""Concrete geometry for the order-(9,3) generalized quadrangle.

GF(9) is realized as GF(3)[w]/(w^2+1); an element c0 + c1*w is encoded as
the integer c0 + 3*c1, and sums of products over coordinates are taken on
the GF(3) planes c0 and c1. The surface x0^4 + x1^4 + x2^4 + x3^4 = 0
carries 280 of the 820 points of projective 3-space over the field: one
numpy array holds all 820, first nonzero coordinate scaled to 1, and
keeps those whose coordinate norms c0^2 + c1^2 (the fourth powers, in
GF(3)) sum to 0 mod 3. The surface holds 112 fully-contained projective
lines; points and lines form a generalized quadrangle of order (9,3).
The axioms are self-dual, so verify_gq checks its pairs on the Gram
matrix of the smaller side. A hemisystem is a set of half the lines
meeting every point exactly (t+1)/2 times; the search is depth-first over
lines with exact per-point counters. Every 0/1 matrix product goes through
exact_product, which sums in float32 below 2^24 and float64 below 2^53.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SchemeforgeError
from .scheme_params import ValidationReport


class NotFound(SchemeforgeError, RuntimeError):
    """Exhaustive search ended without a hemisystem."""


class EvenOrder(SchemeforgeError, ValueError):
    """Hemisystems exist only in quadrangles of odd order t."""


class ProductBound(SchemeforgeError, OverflowError):
    """An integer matrix product could leave float64's exact range."""


# ------------------------------------------------------ Hermitian surface

@lru_cache(maxsize=1)
def hermitian_coordinates() -> np.ndarray:
    """The 280 points of the surface, a read-only (280, 4) int64 array.

    Points of PG(3,9) have their first nonzero coordinate scaled to 1 and
    are ordered by its position, then by the coordinates after it read
    as a base-9 number, first coordinate lowest. The fourth power of
    c0 + c1 w is its norm c0^2 + c1^2, so a point lies on the surface
    when the norms of its coordinates sum to 0 mod 3.
    """
    blocks = []
    for lead in range(4):
        free = 3 - lead
        tails = np.arange(9 ** free)[:, None] // 9 ** np.arange(free) % 9
        heads = np.zeros((len(tails), lead + 1), np.int64)
        heads[:, lead] = 1
        blocks.append(np.hstack([heads, tails]))
    pts = np.concatenate(blocks)
    coords = pts[((pts % 3) ** 2 + (pts // 3) ** 2).sum(axis=1) % 3 == 0]
    coords.setflags(write=False)
    return coords


# ------------------------------------------------------------------- GQ

@dataclass(frozen=True)
class GQ:
    """Point-line geometry with GQ order parameters (s, t)."""

    s: int
    t: int
    points: tuple
    lines: tuple   # of sorted point-id tuples

    @cached_property
    def lines_through(self) -> tuple:
        per = {p: [] for p in self.points}
        for li, line in enumerate(self.lines):
            for p in line:
                per[p].append(li)
        return tuple(tuple(per[p]) for p in self.points)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Integer point x line matrix N, N[p, L] = 1 iff p lies on L."""
        inc = np.zeros((len(self.points), len(self.lines)), dtype=np.int64)
        sizes = [len(line) for line in self.lines]
        cols = np.repeat(np.arange(len(sizes)), sizes)
        inc[[p for line in self.lines for p in line], cols] = 1
        return inc


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for small integer matrices, summed in floats, as int64.

    Each entry of the product is a sum of `inner` terms of size at most
    max|a| * max|b|, so every partial sum, in whatever order BLAS adds
    them, is an integer of size at most bound = max|a| * max|b| * inner.
    Summed in float32 when bound < 2^24 and in float64 when bound < 2^53,
    where each type holds every such integer, the product is exact; from
    2^53 on ProductBound is raised.
    """
    inner = a.shape[-1]
    bound = (int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
             * inner)
    if bound >= 2 ** 53:
        raise ProductBound(
            f"{a.shape} x {b.shape} product may reach {bound} >= 2^53")
    dtype = np.float32 if bound < 2 ** 24 else np.float64
    return (a.astype(dtype) @ b.astype(dtype)).astype(np.int64)


def first_true(mask: np.ndarray):
    """Index tuple of a bool mask's first True entry (row-major), or None."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(mask.argmax(), mask.shape))


def hermitian_form() -> np.ndarray:
    """uint8 matrix of sum p_i q_i^3 over all pairs of surface points.

    With x = x0 + x1 w and w^2 = -1 it is sum (p0 q0 + p1 q1) plus
    w sum (p1 q0 + 2 p0 q1) mod 3: one exact_product each over the eight
    stacked coordinate planes, every sum at most 64, so uint8 holds it.
    """
    coords = hermitian_coordinates().astype(np.uint8)
    x0, x1 = coords % 3, coords // 3
    x = np.hstack([x0, x1])
    real = exact_product(x, x.T).astype(np.uint8) % 3
    imag = exact_product(np.hstack([x1, 2 * x0]), x.T).astype(np.uint8) % 3
    return real + 3 * imag


def row_sets(mask: np.ndarray) -> tuple:
    """The column ids of each row's True entries, as int tuples."""
    rows, cols = np.nonzero(mask)
    cols = cols.tolist()
    ends = np.searchsorted(rows, np.arange(1, len(mask) + 1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))


def line_sets(adj: np.ndarray) -> np.ndarray:
    """The bool line x point incidence of a quadrangle, from its collinearity.

    adj must hold a true diagonal. A point off a line is collinear with
    exactly one point of it, so the line through collinear points i < j is
    adj[i] & adj[j], and it is taken only from its two smallest points:
    with S[i, j] the number of common neighbours of i and j below j, those
    are the collinear pairs i < j with S[i, j] = 1 (i itself). S is one
    exact_product of 0/1 matrices with entries at most n, far below 2^24.
    Row L is the mask adj[i] & adj[j] of the L-th line in sorted order of
    its two smallest points; row_sets gives the lines as sorted tuples.
    """
    adj = np.asarray(adj, dtype=bool)
    ones = adj.astype(np.uint8)
    below = np.tril(ones, -1)   # below[j, k] = adj[j, k] for k < j, else 0
    firsts = np.triu(adj & (exact_product(ones, below.T) == 1), 1)
    i, j = np.nonzero(firsts)
    return adj[i] & adj[j]


def build_hermitian_gq() -> GQ:
    """The 280-point, 112-line quadrangle carried by the quartic surface.

    Two surface points are collinear iff they are orthogonal under the
    Hermitian form, and every point is orthogonal to itself.
    """
    form = hermitian_form()
    return GQ(s=9, t=3, points=tuple(range(len(form))),
              lines=row_sets(line_sets(form == 0)))


def verify_gq(gq: GQ) -> ValidationReport:
    """Check the defining axioms as integer products of the incidence N.

    K = N N^T (diagonal zeroed) counts the lines joining two points, so a
    unique joining line is K <= 1, and (K > 0) N counts, for a point and a
    line, the points of the line collinear with it: the quadrangle axiom
    asks for exactly one wherever the point is off the line. Two points
    share two lines iff two lines share two points, so with fewer lines
    than points M = N^T N (diagonal zeroed) decides: if M <= 1, N (M > 0)
    counts the same off the line, and K is formed only for a witness.
    Every product is an exact_product of 0/1 matrices, so each sum is at
    most the inner dimension, far below 2^24.
    """
    checks = []
    inc = gq.incidence

    n_pts, n_lines = inc.shape
    want_pts = (gq.s + 1) * (gq.s * gq.t + 1)
    want_lines = (gq.t + 1) * (gq.s * gq.t + 1)
    checks.append(("size_formulas",
                   n_pts == want_pts and n_lines == want_lines,
                   f"{n_pts} points (want {want_pts}), "
                   f"{n_lines} lines (want {want_lines})"))

    bad = first_true(inc.sum(axis=0) != gq.s + 1)
    checks.append(("points_per_line", bad is None,
                   None if bad is None else f"line {bad[0]}"))

    bad = first_true(inc.sum(axis=1) != gq.t + 1)
    checks.append(("lines_per_point", bad is None,
                   None if bad is None else f"point {bad[0]}"))

    meets = exact_product(inc.T, inc) if n_lines < n_pts else None
    if meets is not None:
        np.fill_diagonal(meets, 0)
    witness = None
    if meets is not None and meets.max(initial=0) <= 1:
        connectors = exact_product(inc, np.minimum(meets, 1, out=meets))
    else:
        joins = exact_product(inc, inc.T)
        np.fill_diagonal(joins, 0)
        bad = first_true(joins > 1)
        if bad:
            a, b = bad
            first, second = np.flatnonzero(inc[a] & inc[b])[:2]
            witness = f"points {a},{b} on lines {first},{second}"
        connectors = exact_product(np.minimum(joins, 1, out=joins), inc)
    checks.append(("unique_joining_line", witness is None, witness))

    bad = first_true((connectors != 1) & (inc == 0))
    witness = None if bad is None else (
        f"point {bad[0]}, line {bad[1]}: {connectors[bad]} connectors")
    checks.append(("one_connector", witness is None, witness))

    return ValidationReport.from_checks(checks)


# ------------------------------------------------------------ hemisystem

@dataclass(frozen=True)
class Hemisystem:
    """Line ids of one half; the complement is implicitly the other."""

    lines: tuple

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))

    def complement(self, gq: GQ) -> "Hemisystem":
        mine = set(self.lines)
        return Hemisystem(tuple(li for li in range(len(gq.lines))
                                if li not in mine))


def quota_witness(gq: GQ, hemi: Hemisystem) -> str | None:
    """Why the line set is not a hemisystem, or None if it is one.

    Each point's count of chosen lines is a row sum over the chosen
    columns of N; an id that names no line of gq counts for no point.
    """
    lines = set(hemi.lines)
    if 2 * len(lines) != len(gq.lines):
        return (f"{len(lines)} lines chosen, expected "
                f"{len(gq.lines) // 2}")
    quota = (gq.t + 1) // 2
    cols = sorted(li for li in lines if 0 <= li < len(gq.lines))
    got = gq.incidence[:, cols].sum(axis=1)
    bad = first_true(got != quota)
    if bad:
        return f"point {bad[0]} lies on {got[bad]} chosen lines, quota {quota}"
    return None


def verify_hemisystem(gq: GQ, hemi: Hemisystem) -> bool:
    return quota_witness(gq, hemi) is None


def find_hemisystem(gq: GQ, seed: int | None = None) -> Hemisystem:
    """Depth-first search with exact per-point quota propagation.

    Lines are decided in index order (shuffled when a seed is given); each
    decision propagates: a point holding its quota excludes its remaining
    lines, a point that can only just reach quota includes them. The first
    completed assignment is returned, so the default search is fully
    deterministic.
    """
    if gq.t % 2 == 0:
        raise EvenOrder(f"hemisystems need odd t, got t = {gq.t}")
    quota = (gq.t + 1) // 2
    nlines = len(gq.lines)
    order = list(range(nlines))
    if seed is not None:
        random.Random(seed).shuffle(order)
    lines_through = gq.lines_through
    line_points = gq.lines

    def propagate(status, cin, cunk, pending) -> bool:
        while pending:
            li, val = pending.pop()
            if status[li] == val:
                continue
            if status[li] == -val:
                return False
            status[li] = val
            for p in line_points[li]:
                cunk[p] -= 1
                if val == 1:
                    cin[p] += 1
                if cin[p] > quota or cin[p] + cunk[p] < quota:
                    return False
                if cunk[p] > 0:
                    if cin[p] == quota:
                        pending.extend((lj, -1) for lj in lines_through[p]
                                       if status[lj] == 0)
                    elif cin[p] + cunk[p] == quota:
                        pending.extend((lj, 1) for lj in lines_through[p]
                                       if status[lj] == 0)
        return True

    def dfs(status, cin, cunk):
        li = next((l for l in order if status[l] == 0), None)
        if li is None:
            return [i for i in range(nlines) if status[i] == 1]
        for val in (1, -1):
            st, ci, cu = status[:], cin[:], cunk[:]
            if propagate(st, ci, cu, [(li, val)]):
                hit = dfs(st, ci, cu)
                if hit is not None:
                    return hit
        return None

    status = [0] * nlines
    cin = [0] * len(gq.points)
    cunk = [len(lines_through[p]) for p in gq.points]
    hit = dfs(status, cin, cunk)
    if hit is None:
        raise NotFound("no hemisystem found by exhaustive search")
    return Hemisystem(tuple(hit))
