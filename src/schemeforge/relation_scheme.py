"""Explicit association schemes on a finite element set.

A scheme is stored as the dense symmetric table of class labels. The
construction of interest takes the 112 lines of the order-(9,3) quadrangle
with a hemisystem and classifies ordered pairs of distinct lines: class 1
for intersecting lines in different halves, 2 for intersecting in the same
half, 3 for disjoint in different halves, 4 for disjoint in the same half.
The table is read-only, so its stack of class indicators is built once,
cached on the scheme, and shared by every verifier that reads a class;
so are the even-relation mask, its rows with the first member whose row
differs (even_parts, which recover_hemisystem reads for every base at
once), and the premultiplied label planes that
triples.direct_triple_counts sums.
verify_scheme is the counting oracle: the exact products A_i A_j of class
indicators for 1 <= i <= j <= c-2, with A_0 = I, transposes and row sums
for the rest, count every intersection number at every pair, and the
first pair whose counts differ from its class's is reported. The products
go through geometry.exact_product, summed in float32 below 2^24.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemeforgeError
from .geometry import (GQ, Hemisystem, exact_product, first_true,
                       quota_witness, row_sets)


class NotHemisystem(SchemeforgeError, ValueError):
    """The candidate line set does not meet every point's quota."""


class ShapeMismatch(SchemeforgeError, ValueError):
    """The relation table is not size x size."""


@dataclass(frozen=True, eq=False)
class RelationScheme:
    size: int
    classes: int
    rel: np.ndarray   # size x size labels in 0..classes-1, int8

    def __post_init__(self):
        if self.rel.shape != (self.size, self.size):
            raise ShapeMismatch(f"relation table has shape {self.rel.shape}, "
                                f"expected ({self.size}, {self.size})")
        self.rel.setflags(write=False)

    @cached_property
    def indicators(self) -> np.ndarray:
        """Read-only bool stack, indicators[i] the 0/1 matrix of class i."""
        stack = self.rel == np.arange(self.classes)[:, None, None]
        stack.setflags(write=False)
        return stack

    @cached_property
    def even(self) -> np.ndarray:
        """Read-only bool mask of relations 2 and 4, plus the diagonal.

        A class past the table's classes contributes nothing.
        """
        mask = self.indicators[[k for k in (2, 4) if k < self.classes]]
        mask = mask.any(axis=0)
        np.fill_diagonal(mask, True)
        mask.setflags(write=False)
        return mask

    @cached_property
    def even_parts(self) -> tuple:
        """(parts, strays): each element's row of even, and its first
        member whose row differs from it (-1 if none), as int tuples.

        E E^T counts |row x & row y| in one exact_product, at most n, so
        rows x and y are equal iff it equals both row sizes.
        """
        even = self.even
        common = exact_product(even, even.T)
        sizes = even.sum(axis=1)
        differs = even & ((common != sizes[:, None])
                          | (common != sizes[None, :]))
        strays = np.where(differs.any(axis=1), differs.argmax(axis=1), -1)
        return row_sets(even), tuple(strays.tolist())

    @cached_property
    def label_planes(self) -> np.ndarray:
        """Read-only intp stack (rel * c^2, rel * c, rel), c = classes.

        planes[0][x] + planes[1][y] + planes[2][u] codes each z by its
        three labels, the code of (l, m, n) being l c^2 + m c + n.
        """
        planes = self.rel.astype(np.intp) * np.array(
            [self.classes ** 2, self.classes, 1], dtype=np.intp)[:, None, None]
        planes.setflags(write=False)
        return planes


def scheme_from_hemisystem(gq: GQ, hemi: Hemisystem) -> RelationScheme:
    witness = quota_witness(gq, hemi)
    if witness is not None:
        raise NotHemisystem(witness)
    n = len(gq.lines)
    half = np.zeros(n, dtype=bool)
    half[list(hemi.lines)] = True
    meets = exact_product(gq.incidence.T, gq.incidence) > 0
    same = half[:, None] == half[None, :]
    rel = np.where(meets, np.where(same, 2, 1), np.where(same, 4, 3))
    np.fill_diagonal(rel, 0)
    return RelationScheme(size=n, classes=5, rel=rel.astype(np.int8))


@dataclass(frozen=True)
class CountedParameters:
    """Counted valencies and intersection numbers, with a verdict."""

    valencies: tuple
    p: tuple          # (d+1)^3 nested tuple of counts
    consistency: bool
    witness: str | None = None


def verify_scheme(sch: RelationScheme) -> CountedParameters:
    """Count p^k_ij at every pair by products and check full constancy.

    With A_i the 0/1 indicator of class i, the product A_i A_j holds at
    (x, y) the number of z with x ~i z ~j y, so p^k_ij is read at the
    first pair of class k, and the scheme is consistent iff A_i A_j equals
    p^k_ij at every pair of every class k.  After the structural and
    valency checks, A_0 = I, A_j A_i = (A_i A_j)^T and sum_j A_i A_j =
    k_i J fix all products from those with 1 <= i <= j <= c-2, the only
    n x n ones formed (counts at most n < 2^24); p^k is read from the
    c x c product at the first pair of class k.  Structural defects
    (asymmetry, a stray 0 off the diagonal, a nonzero diagonal) are
    reported the same way, as consistency=false with a witness.
    """
    rel = sch.rel
    n, c = sch.size, sch.classes

    def fail(msg):
        return CountedParameters((), (), False, msg)

    bad = first_true(rel != rel.T)
    if bad:
        x, y = bad
        return fail(f"rel({x},{y})={int(rel[x, y])} != rel({y},{x})="
                    f"{int(rel[y, x])}")
    bad = first_true(np.diag(rel) != 0)
    if bad:
        return fail(f"rel({bad[0]},{bad[0]}) nonzero")
    adj = sch.indicators.view(np.uint8)
    bad = first_true(sch.indicators[0] & ~np.eye(n, dtype=bool))
    if bad:
        return fail(f"rel({bad[0]},{bad[1]})=0 off the diagonal")
    if np.any(rel >= c) or np.any(rel < 0):
        return fail("class label out of range")

    counts = adj.sum(axis=2).T
    bad = first_true(np.any(counts != counts[0], axis=1))
    if bad:
        return fail(f"valency row of {bad[0]} differs from row of 0")
    valencies = tuple(int(v) for v in counts[0])

    p_rep = np.zeros((c, c, c), dtype=np.int64)
    for k, plane in enumerate(sch.indicators):
        hit = first_true(plane)
        if hit:
            p_rep[k] = exact_product(adj[:, hit[0]], adj[:, :, hit[1]].T)
    differs = np.zeros((n, n), dtype=bool)
    for i in range(1, c - 1):
        for j in range(i, c - 1):
            prod = exact_product(adj[i], adj[j])
            differs |= prod != p_rep[:, i, j].take(rel)
            if i != j:   # A_j A_i is the transpose
                differs |= prod.T != p_rep[:, j, i].take(rel)
    bad = first_true(differs)
    if bad:
        x, y = bad
        k = int(rel[x, y])
        got = exact_product(adj[:, x], adj[:, :, y].T)
        i, j = first_true(got != p_rep[k])
        return CountedParameters(
            valencies, (), False,
            f"pair ({x},{y}) class {k}: count at ({i},{j}) is "
            f"{int(got[i, j])}, expected {int(p_rep[k, i, j])}")
    p = tuple(tuple(tuple(int(v) for v in row) for row in plane)
              for plane in p_rep)
    return CountedParameters(valencies, p, True, None)

