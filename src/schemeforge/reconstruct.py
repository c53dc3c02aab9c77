"""Recover the quadrangle and its half-partition from the scheme alone.

The four-class scheme remembers where it came from.  Pairs in the first
two relations generate maximal cliques under relations {0, 1, 2}; those
cliques behave as the points of the dual geometry, and the incidence
structure they form is a generalized quadrangle of order (t, t^2).  The
half-partition reappears as the even-relation neighborhood of any single
element.  Every operation here both constructs and checks: a failed
characterization is reported with a witness, never smoothed over.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SchemeforgeError
from .geometry import (GQ, exact_product, first_true, incidence_matrix,
                       verify_gq)
from .relation_scheme import RelationScheme, neighbors, pair_set
from .scheme_params import ValidationReport


class StructureViolation(SchemeforgeError, ValueError):
    """A candidate clique fails its pairwise relation pattern."""


class AxiomFailure(SchemeforgeError, ValueError):
    """The assembled incidence structure is not a generalized quadrangle."""


class NotWellDefined(SchemeforgeError, ValueError):
    """The recovered half-partition depends on the base element."""


class NotFamilySize(SchemeforgeError, ValueError):
    """The element count is not (t^3 + 1)(t + 1) for any t."""


def order_from_size(size: int) -> int:
    """Invert |X| = (t^3 + 1)(t + 1) for the family's element count."""
    t = 1
    while (t ** 3 + 1) * (t + 1) < size:
        t += 1
    if (t ** 3 + 1) * (t + 1) != size:
        raise NotFamilySize(f"{size} elements does not fit (t^3+1)(t+1)")
    return t


# ------------------------------------------------------------ cliques

@dataclass(frozen=True)
class Clique:
    """A (t+1)-element clique under relations {0, 1, 2}, split in halves.

    Within each half every pair is 2-related; across the halves every
    pair is 1-related.  Halves are kept in construction order, so the
    starting elements stay in half_C; identity across construction
    paths goes through ``halves`` or ``elements``.
    """

    half_C: tuple
    half_Cprime: tuple

    def __post_init__(self):
        object.__setattr__(self, "half_C", tuple(sorted(self.half_C)))
        object.__setattr__(self, "half_Cprime",
                           tuple(sorted(self.half_Cprime)))

    @property
    def elements(self) -> tuple:
        """All member ids, sorted; the deduplication key."""
        return tuple(sorted(self.half_C + self.half_Cprime))

    @property
    def halves(self) -> frozenset:
        """The half pair as an unordered set."""
        return frozenset((self.half_C, self.half_Cprime))


def _validated(sch: RelationScheme, half_C, half_Cprime) -> Clique:
    """Check the half sizes and pairwise relation pattern, then wrap."""
    clq = Clique(half_C, half_Cprime)
    half = (order_from_size(sch.size) + 1) // 2
    for name, part in (("half_C", clq.half_C),
                       ("half_Cprime", clq.half_Cprime)):
        if len(part) != half:
            raise StructureViolation(
                f"{name} = {part} has {len(part)} elements, expected {half}")
        for i, a in enumerate(part):
            for b in part[i + 1:]:
                got = int(sch.rel[a][b])
                if got != 2:
                    raise StructureViolation(
                        f"elements {a}, {b} inside {name} are "
                        f"{got}-related, expected 2")
    for a in clq.half_C:
        for b in clq.half_Cprime:
            got = int(sch.rel[a][b])
            if got != 1:
                raise StructureViolation(
                    f"cross pair {a}, {b} is {got}-related, expected 1")
    return clq


def clique_from_r2_pair(sch: RelationScheme, x: int, y: int) -> Clique:
    """The unique maximal clique through a 2-related pair.

    One half is {x, y} extended by the elements 2-related to both; the
    other is the set of elements 1-related to both.  At t = 3 the first
    extension is empty and the half is just {x, y}.
    """
    if int(sch.rel[x][y]) != 2:
        raise ValueError(f"({x}, {y}) is {int(sch.rel[x][y])}-related, "
                         f"need relation 2")
    half_C = (x, y) + pair_set(sch, x, y, 2, 2)
    half_Cprime = pair_set(sch, x, y, 1, 1)
    return _validated(sch, half_C, half_Cprime)


def clique_from_r1_pair(sch: RelationScheme, x: int, u: int) -> Clique:
    """The unique maximal clique through a 1-related pair.

    x lands in half_C, u in half_Cprime; each half is filled in from
    the mixed pair sets.
    """
    if int(sch.rel[x][u]) != 1:
        raise ValueError(f"({x}, {u}) is {int(sch.rel[x][u])}-related, "
                         f"need relation 1")
    half_C = (x,) + pair_set(sch, x, u, 2, 1)
    half_Cprime = (u,) + pair_set(sch, x, u, 1, 2)
    return _validated(sch, half_C, half_Cprime)


def all_cliques(sch: RelationScheme) -> tuple:
    """Every maximal {0,1,2}-clique, each built once, sorted.

    Pairs are taken in order, 1-related before 2-related for each x, and
    a pair is skipped when a clique already built holds it; the cliques
    are then cross checked with the element x clique incidence M: off
    the diagonal, M M^T must be the indicator of relations {1, 2}, so
    each such pair lies in exactly one clique and two cliques share at
    most one element.
    """
    built, covered = [], set()

    def build(make, x: int, y: int) -> None:
        if (x, y) not in covered:
            clq = make(sch, x, y)
            built.append(clq)
            covered.update(itertools.combinations(clq.elements, 2))

    for x in range(sch.size):
        for u in neighbors(sch, x, 1):
            if x < u:
                build(clique_from_r1_pair, x, u)
        for y in neighbors(sch, x, 2):
            if x < y:
                build(clique_from_r2_pair, x, y)

    built.sort(key=lambda clq: clq.elements)
    keys = [clq.elements for clq in built]
    inc = incidence_matrix(sch.size, keys)
    shared = exact_product(inc, inc.T)
    np.fill_diagonal(shared, 0)
    low = (sch.rel == 1) | (sch.rel == 2)
    np.fill_diagonal(low, False)
    if not np.array_equal(shared, low):
        bad = first_true(shared > 1)
        if bad:
            a, b = bad
            first, second = np.flatnonzero(inc[a] & inc[b])[:2]
            raise StructureViolation(
                f"pair ({a}, {b}) lies in two cliques: {keys[first]} and "
                f"{keys[second]}")
        raise StructureViolation(
            f"cliques cover {np.count_nonzero(np.triu(shared))} "
            f"low-relation pairs, expected {np.count_nonzero(np.triu(low))}")

    return tuple(built)


# ------------------------------------------------------------ dual GQ

@dataclass(frozen=True)
class ReconstructedGQ:
    """Scheme elements as points, cliques as lines, axioms verified.

    ``dual_order`` is the (s, t) of this structure, (t, t^2).  Read with
    points and lines swapped, the same geometry has ``primal_order``
    (t^2, t); the reconstruction argues entirely on the dual side and
    records the primal reading without re-embedding it in coordinates.
    """

    points: tuple
    lines: tuple          # of Clique, sorted by element tuple
    dual_order: tuple
    primal_order: tuple
    report: ValidationReport


def reconstruct_gq(sch: RelationScheme, cliques=None) -> ReconstructedGQ:
    """Assemble the clique geometry and verify the quadrangle axioms."""
    if cliques is None:
        cliques = all_cliques(sch)
    t = order_from_size(sch.size)
    lines = tuple(sorted(cliques, key=lambda c: c.elements))
    gq = GQ(s=t, t=t * t, points=tuple(range(sch.size)),
            lines=tuple(c.elements for c in lines))
    report = verify_gq(gq)
    if not report.overall:
        name, _, witness = report.failed()[0]
        raise AxiomFailure(f"{name}: {witness}")
    return ReconstructedGQ(points=gq.points, lines=lines,
                           dual_order=(t, t * t), primal_order=(t * t, t),
                           report=report)


# ------------------------------------------------------------ half-partition

def recover_hemisystem(sch: RelationScheme, x: int) -> tuple:
    """The half-partition part containing x, checked for independence.

    Every element of the returned set must reproduce the same set when
    used as the base; otherwise the characterization fails for this
    scheme and the offending base is reported.
    """
    even = (sch.rel == 2) | (sch.rel == 4)
    np.fill_diagonal(even, True)
    part = np.flatnonzero(even[x])
    bad = first_true(np.any(even[part] != even[x], axis=1))
    if bad:
        y = int(part[bad[0]])
        raise NotWellDefined(
            f"base {x} gives a {len(part)}-set but base {y} inside "
            f"it gives a different {int(even[y].sum())}-set")
    return tuple(part.tolist())


def verify_dual_hemisystem(sch: RelationScheme, cliques, part) -> bool:
    """True iff every clique splits cleanly across the half-partition.

    Clean means one half inside ``part`` and the other disjoint from
    it, so each clique meets ``part`` in exactly (t+1)/2 elements.
    """
    inside = set(part)
    for clq in cliques:
        c_in = sum(1 for a in clq.half_C if a in inside)
        p_in = sum(1 for a in clq.half_Cprime if a in inside)
        whole = (c_in == len(clq.half_C) and p_in == 0)
        other = (p_in == len(clq.half_Cprime) and c_in == 0)
        if not (whole or other):
            return False
    return True
