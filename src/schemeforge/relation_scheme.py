"""Explicit association schemes on a finite element set.

A scheme is stored as the dense symmetric table of class labels. The
construction of interest takes the 112 lines of the order-(9,3) quadrangle
with a hemisystem and classifies ordered pairs of distinct lines: class 1
for intersecting lines in different halves, 2 for intersecting in the same
half, 3 for disjoint in different halves, 4 for disjoint in the same half.
verify_scheme is the brute-force oracle: it recounts every intersection
number over every pair and reports the first inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemeforgeError
from .geometry import GQ, Hemisystem, verify_hemisystem


class NotHemisystem(SchemeforgeError, ValueError):
    """The candidate line set does not meet every point's quota."""


class ShapeMismatch(SchemeforgeError, ValueError):
    """The relation table is not size x size."""


def _quota_witness(gq: GQ, hemi: Hemisystem) -> str:
    chosen = set(hemi.lines)
    if 2 * len(chosen) != len(gq.lines):
        return (f"{len(chosen)} lines chosen, expected "
                f"{len(gq.lines) // 2}")
    quota = (gq.t + 1) // 2
    for p in gq.points:
        got = sum(1 for li in gq.lines_through[p] if li in chosen)
        if got != quota:
            return f"point {p} lies on {got} chosen lines, quota {quota}"
    return "quota check failed"


@dataclass(frozen=True, eq=False)
class RelationScheme:
    size: int
    classes: int
    rel: np.ndarray   # size x size labels in 0..classes-1, int8

    def __post_init__(self):
        if self.rel.shape != (self.size, self.size):
            raise ShapeMismatch(f"relation table has shape {self.rel.shape}, "
                                f"expected ({self.size}, {self.size})")


def scheme_from_hemisystem(gq: GQ, hemi: Hemisystem) -> RelationScheme:
    if not verify_hemisystem(gq, hemi):
        raise NotHemisystem(_quota_witness(gq, hemi))
    n = len(gq.lines)
    half = np.zeros(n, dtype=bool)
    half[list(hemi.lines)] = True
    meets = np.zeros((n, n), dtype=bool)
    for p in gq.points:
        through = gq.lines_through[p]
        for a in range(len(through)):
            for b in range(a + 1, len(through)):
                meets[through[a], through[b]] = True
                meets[through[b], through[a]] = True
    same = half[:, None] == half[None, :]
    rel = np.where(meets, np.where(same, 2, 1), np.where(same, 4, 3))
    np.fill_diagonal(rel, 0)
    return RelationScheme(size=n, classes=5, rel=rel.astype(np.int8))


@dataclass(frozen=True)
class CountedParameters:
    """Brute-force valencies and intersection numbers, with a verdict."""

    valencies: tuple
    p: tuple          # (d+1)^3 nested tuple of counts
    consistency: bool
    witness: str | None = None


def verify_scheme(sch: RelationScheme) -> CountedParameters:
    """Recount p^k_ij over every ordered pair and check full constancy.

    Structural defects (asymmetry, a stray 0 off the diagonal, a nonzero
    diagonal) are reported the same way, as consistency=false with a
    witness.
    """
    rel = sch.rel
    n, c = sch.size, sch.classes

    def fail(msg):
        return CountedParameters((), (), False, msg)

    bad = np.argwhere(rel != rel.T)
    if bad.size:
        x, y = map(int, bad[0])
        return fail(f"rel({x},{y})={int(rel[x, y])} != rel({y},{x})="
                    f"{int(rel[y, x])}")
    if np.any(np.diag(rel) != 0):
        x = int(np.argwhere(np.diag(rel) != 0)[0][0])
        return fail(f"rel({x},{x}) nonzero")
    off = rel.copy()
    np.fill_diagonal(off, 1)
    if np.any(off == 0):
        x, y = map(int, np.argwhere(off == 0)[0])
        return fail(f"rel({x},{y})=0 off the diagonal")
    if np.any(rel >= c) or np.any(rel < 0):
        return fail("class label out of range")

    counts = np.stack([np.bincount(rel[x], minlength=c) for x in range(n)])
    if np.any(counts != counts[0]):
        x = int(np.argwhere(np.any(counts != counts[0], axis=1))[0][0])
        return fail(f"valency row of {x} differs from row of 0")
    valencies = tuple(int(v) for v in counts[0])

    # representative p per class, then exhaustive constancy
    rel16 = rel.astype(np.int16)
    reference = [None] * c
    p_rep = np.zeros((c, c, c), dtype=np.int64)
    for x in range(n):
        codes_x = rel16[x] * c
        for y in range(n):
            k = int(rel[x, y])
            pair = np.bincount(codes_x + rel16[y], minlength=c * c)
            if reference[k] is None:
                reference[k] = pair
                p_rep[k] = pair.reshape(c, c)
            elif not np.array_equal(reference[k], pair):
                i, j = map(int, divmod(int(np.argwhere(
                    reference[k] != pair)[0][0]), c))
                return CountedParameters(
                    valencies, (), False,
                    f"pair ({x},{y}) class {k}: count at ({i},{j}) is "
                    f"{int(pair[i * c + j])}, expected "
                    f"{int(reference[k][i * c + j])}")
    p = tuple(tuple(tuple(int(v) for v in row) for row in plane)
              for plane in p_rep)
    return CountedParameters(valencies, p, True, None)


def neighbors(sch: RelationScheme, x: int, i: int) -> tuple:
    """Elements at relation i from x."""
    return tuple(int(z) for z in np.flatnonzero(sch.rel[x] == i))


def pair_set(sch: RelationScheme, x: int, y: int, i: int, j: int) -> tuple:
    """Elements at relation i from x and j from y."""
    if x == y:
        raise ValueError("x and y must differ")
    mask = (sch.rel[x] == i) & (sch.rel[y] == j)
    return tuple(int(z) for z in np.flatnonzero(mask))
