"""Recover the quadrangle and its half-partition from the scheme alone.

The four-class scheme remembers where it came from.  The maximal cliques
under relations {0, 1, 2} are the common neighbourhoods of their 1- or
2-related pairs; they behave as the points of the dual geometry, and the
incidence structure they form is a generalized quadrangle of order
(t, t^2).  The half-partition reappears as the even-relation
neighborhood of any single element, and one product of that mask with
itself checks the reading from every base.  Every operation here both
constructs and checks: a failed characterization is reported with a
witness, never smoothed over.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SchemeforgeError
from .geometry import (GQ, exact_product, first_true, line_sets, row_sets,
                       verify_gq)
from .relation_scheme import RelationScheme
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
    pair is 1-related.  half_C holds the clique's smallest element, so
    the split, like the element tuple, is fixed by the clique alone.
    """

    half_C: tuple
    half_Cprime: tuple

    def __post_init__(self):
        object.__setattr__(self, "half_C", tuple(sorted(self.half_C)))
        object.__setattr__(self, "half_Cprime",
                           tuple(sorted(self.half_Cprime)))

    @property
    def elements(self) -> tuple:
        """All member ids, sorted; the sort key."""
        return tuple(sorted(self.half_C + self.half_Cprime))


def _indicator(sch: RelationScheme, k: int) -> np.ndarray:
    """Class k's plane of the stack; all false past the table's classes."""
    return (sch.indicators[k] if k < sch.classes
            else np.zeros((sch.size, sch.size), dtype=bool))


def _clique_fault(rel: np.ndarray, half: int, clq: Clique) -> str | None:
    """The first wrong half size or wrong pair relation of one clique."""
    for name, part in (("half_C", clq.half_C),
                       ("half_Cprime", clq.half_Cprime)):
        if len(part) != half:
            return (f"{name} = {part} has {len(part)} elements, "
                    f"expected {half}")
    for a, b in itertools.combinations(clq.elements, 2):
        want = 2 if (a in clq.half_C) == (b in clq.half_C) else 1
        if rel[a, b] != want:
            return (f"elements {a}, {b} of clique {clq.elements} are "
                    f"{int(rel[a, b])}-related, expected {want}")
    return None


def all_cliques(sch: RelationScheme) -> tuple:
    """Every maximal {0,1,2}-clique, once, sorted by its elements.

    The cliques are the lines of the collinearity "relation 1 or 2, or
    equal" (geometry.line_sets). half_C is a clique's smallest element
    with its 2-related members, half_Cprime the rest. With H and H' the
    clique x element incidences of the halves and A_i the indicator of
    relation i, (H A_2) * H summed over a row counts the 2-related
    ordered pairs inside half_C, and likewise for half_Cprime and for
    the 1-related cross pairs (H A_1) * H'; every clique must reach
    h(h-1), h(h-1) and h^2 with halves of h = (t+1)/2 elements. Only the
    first clique that does not is walked pair by pair for a witness.
    Then, with M the clique x element incidence that line_sets returns,
    the off-diagonal of M^T M must be the indicator of relations {1, 2},
    so each such pair lies in exactly one clique and two cliques share at
    most one element. Every product is an exact_product of 0/1 matrices
    with sums at most |X|, far below 2^24.
    """
    half = (order_from_size(sch.size) + 1) // 2
    ones, twos = _indicator(sch, 1), _indicator(sch, 2)
    eye = np.eye(sch.size, dtype=bool)
    low = (ones | twos) & ~eye
    M = line_sets(low | eye)

    heads = M.argmax(axis=1)
    in_c = M & (twos[heads] | eye[heads])
    in_p = M & ~in_c
    inner = half * (half - 1)
    good = ((in_c.sum(axis=1) == half) & (in_p.sum(axis=1) == half)
            & ((exact_product(in_c, twos) * in_c).sum(axis=1) == inner)
            & ((exact_product(in_p, twos) * in_p).sum(axis=1) == inner)
            & ((exact_product(in_c, ones) * in_p).sum(axis=1) == half * half))
    built = tuple(Clique(c, p) for c, p in zip(row_sets(in_c),
                                               row_sets(in_p)))
    bad = first_true(~good)
    if bad:
        raise StructureViolation(_clique_fault(sch.rel, half, built[bad[0]]))

    shared = exact_product(M.T, M)
    np.fill_diagonal(shared, 0)
    if not np.array_equal(shared, low):
        bad = first_true(shared > 1)
        if bad:
            a, b = bad
            first, second = np.flatnonzero(M[:, a] & M[:, b])[:2]
            raise StructureViolation(
                f"pair ({a}, {b}) lies in two cliques: "
                f"{built[first].elements} and {built[second].elements}")
        raise StructureViolation(
            f"cliques cover {np.count_nonzero(np.triu(shared))} "
            f"low-relation pairs, expected {np.count_nonzero(np.triu(low))}")

    return built


# ------------------------------------------------------------ dual GQ

@dataclass(frozen=True)
class ReconstructedGQ:
    """Scheme elements as points, cliques as lines, axioms verified.

    ``dual_order`` is the (s, t) of this structure, (t, t^2).  Read with
    points and lines swapped, the same geometry has ``primal_order``
    (t^2, t); the reconstruction argues entirely on the dual side and
    records the primal reading without re-embedding it in coordinates.
    """

    lines: tuple          # of Clique, sorted by element tuple
    dual_order: tuple
    primal_order: tuple
    report: ValidationReport


def reconstruct_gq(sch: RelationScheme, cliques) -> ReconstructedGQ:
    """Assemble the clique geometry and verify the quadrangle axioms."""
    t = order_from_size(sch.size)
    lines = tuple(sorted(cliques, key=lambda c: c.elements))
    gq = GQ(s=t, t=t * t, points=tuple(range(sch.size)),
            lines=tuple(c.elements for c in lines))
    report = verify_gq(gq)
    if not report.overall:
        name, _, witness = report.failed()[0]
        raise AxiomFailure(f"{name}: {witness}")
    return ReconstructedGQ(lines=lines, dual_order=(t, t * t),
                           primal_order=(t * t, t), report=report)


# ------------------------------------------------------------ half-partition

def recover_hemisystem(sch: RelationScheme, x: int) -> tuple:
    """The half-partition part containing x, checked for independence.

    The part is x's row of the scheme's even-relation mask
    (RelationScheme.even). Every element of the returned set must
    reproduce the same set when used as the base; otherwise the
    characterization fails for this scheme and the offending base is
    reported. RelationScheme.even_parts checks every base at once.
    """
    parts, strays = sch.even_parts
    y = strays[x]
    if y >= 0:
        raise NotWellDefined(
            f"base {x} gives a {len(parts[x])}-set but base {y} inside "
            f"it gives a different {len(parts[y])}-set")
    return parts[x]


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
