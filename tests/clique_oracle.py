"""The clique enumeration as it was before the common-neighbourhood lines.

`schemeforge.reconstruct.all_cliques` takes each clique as the common
neighbourhood of its two smallest elements and checks every clique at
once with incidence products. This module keeps the pair walk it
replaced: for every 1- or 2-related pair not yet covered, the clique is
built from the pair's mixed neighbourhoods and checked pair by pair, so
that tests compare the two instead of the code under test with itself.
"""

import itertools

import numpy as np

from schemeforge.reconstruct import Clique, StructureViolation, order_from_size


def _members(sch, x: int, i: int, y: int | None = None, j: int = 0) -> tuple:
    """Elements at relation i from x, and at relation j from y if given."""
    mask = sch.rel[x] == i
    if y is not None:
        mask &= sch.rel[y] == j
    return tuple(int(z) for z in np.flatnonzero(mask))


def _validated(sch, half_C, half_Cprime) -> Clique:
    """Check the half sizes and pairwise relation pattern, then wrap."""
    clq = Clique(half_C, half_Cprime)
    half = (order_from_size(sch.size) + 1) // 2
    for name, part in (("half_C", clq.half_C),
                       ("half_Cprime", clq.half_Cprime)):
        if len(part) != half:
            raise StructureViolation(
                f"{name} = {part} has {len(part)} elements, expected {half}")
        for a, b in itertools.combinations(part, 2):
            if int(sch.rel[a][b]) != 2:
                raise StructureViolation(
                    f"elements {a}, {b} inside {name} are "
                    f"{int(sch.rel[a][b])}-related, expected 2")
    for a in clq.half_C:
        for b in clq.half_Cprime:
            if int(sch.rel[a][b]) != 1:
                raise StructureViolation(
                    f"cross pair {a}, {b} is {int(sch.rel[a][b])}-related, "
                    f"expected 1")
    return clq


def clique_from_r2_pair(sch, x: int, y: int) -> Clique:
    """The clique through a 2-related pair: {x, y} with the elements
    2-related to both, and across from it the elements 1-related to both."""
    if int(sch.rel[x][y]) != 2:
        raise ValueError(f"({x}, {y}) is {int(sch.rel[x][y])}-related, "
                         f"need relation 2")
    return _validated(sch, (x, y) + _members(sch, x, 2, y, 2),
                      _members(sch, x, 1, y, 1))


def clique_from_r1_pair(sch, x: int, u: int) -> Clique:
    """The clique through a 1-related pair, x in half_C and u across."""
    if int(sch.rel[x][u]) != 1:
        raise ValueError(f"({x}, {u}) is {int(sch.rel[x][u])}-related, "
                         f"need relation 1")
    return _validated(sch, (x,) + _members(sch, x, 2, u, 1),
                      (u,) + _members(sch, x, 1, u, 2))


def halves(clq: Clique) -> frozenset:
    """The half pair as an unordered set, whichever half a walk began in."""
    return frozenset((clq.half_C, clq.half_Cprime))


def all_cliques(sch) -> tuple:
    """Every clique, built from its first uncovered pair, sorted.

    Pairs are taken in order, 1-related before 2-related for each x, so
    a clique is built from its smallest element and half_C holds it.
    """
    built, covered = [], set()
    for x in range(sch.size):
        for make, i in ((clique_from_r1_pair, 1), (clique_from_r2_pair, 2)):
            for y in _members(sch, x, i):
                if x < y and (x, y) not in covered:
                    clq = make(sch, x, y)
                    built.append(clq)
                    covered.update(itertools.combinations(clq.elements, 2))
    return tuple(sorted(built, key=lambda clq: clq.elements))
