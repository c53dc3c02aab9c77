"""Clique extraction, the dual quadrangle, and half-partition recovery."""

import itertools

import numpy as np
import pytest

import clique_oracle as oracle
from schemeforge.geometry import find_hemisystem
from schemeforge.reconstruct import (AxiomFailure, NotFamilySize,
                                     NotWellDefined, StructureViolation,
                                     all_cliques, order_from_size,
                                     reconstruct_gq, recover_hemisystem,
                                     verify_dual_hemisystem)
from schemeforge.relation_scheme import (RelationScheme,
                                         scheme_from_hemisystem)


def test_order_inversion():
    assert order_from_size(112) == 3
    assert order_from_size((5 ** 3 + 1) * 6) == 5
    with pytest.raises(NotFamilySize, match="100 elements"):
        order_from_size(100)


# ------------------------------------------------------------ single cliques

def clique_of(cliques, a, b):
    return next(c for c in cliques if a in c.elements and b in c.elements)


def test_r2_pair_clique(scheme_t3, cliques):
    x = 0
    y = int(np.flatnonzero(scheme_t3.rel[x] == 2)[0])
    clq = clique_of(cliques, x, y)
    assert x in clq.half_C and y in clq.half_C
    assert len(clq.half_C) == len(clq.half_Cprime) == 2
    assert len(clq.elements) == 4


def test_r1_pair_clique(scheme_t3, cliques):
    x = 0
    u = int(np.flatnonzero(scheme_t3.rel[x] == 1)[0])
    clq = clique_of(cliques, x, u)
    assert x in clq.half_C and u in clq.half_Cprime
    assert len(clq.elements) == 4


def test_constructors_agree(scheme_t3, cliques):
    for clq in cliques[:25]:
        x, y = clq.half_C
        u = clq.half_Cprime[0]
        assert oracle.clique_from_r2_pair(scheme_t3, x, y) == clq
        assert oracle.clique_from_r1_pair(scheme_t3, x, u) == clq


def test_any_inner_pair_reproduces_the_clique(scheme_t3, cliques):
    for clq in cliques[:15]:
        for half in (clq.half_C, clq.half_Cprime):
            for a, b in itertools.combinations(half, 2):
                same = oracle.clique_from_r2_pair(scheme_t3, a, b)
                assert oracle.halves(same) == oracle.halves(clq)


@pytest.mark.parametrize("seed", [None, 0, 1, 7, 63])
def test_the_pair_walk_finds_the_same_cliques(hermitian_gq, seed):
    sch = scheme_from_hemisystem(hermitian_gq,
                                 find_hemisystem(hermitian_gq, seed))
    assert all_cliques(sch) == oracle.all_cliques(sch)


def test_half_relation_pattern(scheme_t3, cliques):
    rel = scheme_t3.rel
    for clq in cliques[:40]:
        for half in (clq.half_C, clq.half_Cprime):
            for a, b in itertools.combinations(half, 2):
                assert rel[a][b] == 2
        for a in clq.half_C:
            for b in clq.half_Cprime:
                assert rel[a][b] == 1


# ------------------------------------------------------------ the full set

def test_clique_census(cliques):
    assert len(cliques) == 280
    assert all(len(c.elements) == 4 for c in cliques)
    assert all(len(c.half_C) == 2 and len(c.half_Cprime) == 2
               for c in cliques)
    per = {}
    for c in cliques:
        for a in c.elements:
            per[a] = per.get(a, 0) + 1
    assert set(per.values()) == {10}
    assert len(per) == 112


def test_cliques_share_at_most_one_element(cliques):
    seen = {}
    for idx, c in enumerate(cliques):
        for pair in itertools.combinations(c.elements, 2):
            assert pair not in seen, (pair, seen.get(pair), idx)
            seen[pair] = idx


# ------------------------------------------------------------ dual quadrangle

def test_reconstructed_quadrangle(scheme_t3, cliques):
    rec = reconstruct_gq(scheme_t3, cliques)
    assert rec.dual_order == (3, 9)
    assert rec.primal_order == (9, 3)
    assert rec.report.overall
    assert {a for c in rec.lines for a in c.elements} == set(range(112))
    assert len(rec.lines) == 280


def test_one_connector_in_scheme_language(scheme_t3, cliques):
    rel = scheme_t3.rel
    for clq in cliques[:10]:
        members = set(clq.elements)
        for z in range(112):
            if z in members:
                continue
            low = sum(1 for m in members if rel[z][m] in (1, 2))
            assert low == 1


def test_corrupted_scheme_is_rejected(scheme_t3):
    rel = scheme_t3.rel.copy()
    a = 0
    b = int(np.flatnonzero(rel[a] == 1)[0])
    rel[a][b] = rel[b][a] = 2
    broken = RelationScheme(size=112, classes=5, rel=rel)
    with pytest.raises((StructureViolation, AxiomFailure)):
        reconstruct_gq(broken, all_cliques(broken))


# ------------------------------------------------------------ half partition

def test_recovered_half_partition(scheme_t3, cliques, hemisystem):
    part = recover_hemisystem(scheme_t3, 0)
    assert len(part) == 56
    assert verify_dual_hemisystem(scheme_t3, cliques, part)
    # the scheme's elements are the quadrangle's line ids, so the
    # recovered set must be one side of the original hemisystem split
    mine = set(hemisystem.lines)
    other = set(range(112)) - mine
    assert set(part) in (mine, other)


def test_partition_is_base_independent(scheme_t3):
    parts = {recover_hemisystem(scheme_t3, x) for x in range(112)}
    assert len(parts) == 2
    one, two = parts
    assert set(one) | set(two) == set(range(112))
    assert set(one) & set(two) == set()


def test_outside_base_gives_the_complement(scheme_t3):
    part = recover_hemisystem(scheme_t3, 0)
    outside = next(z for z in range(112) if z not in set(part))
    comp = recover_hemisystem(scheme_t3, outside)
    assert set(part) | set(comp) == set(range(112))
    assert set(part) & set(comp) == set()


def test_whole_set_is_not_a_valid_half(scheme_t3, cliques):
    assert not verify_dual_hemisystem(scheme_t3, cliques,
                                      tuple(range(112)))


def test_ill_defined_recovery_is_reported(scheme_t3):
    rel = scheme_t3.rel.copy()
    a = 0
    b = int(np.flatnonzero(rel[a] == 2)[0])
    rel[a][b] = rel[b][a] = 3   # even to odd: b leaves the half of a
    broken = RelationScheme(size=112, classes=5, rel=rel)
    with pytest.raises(NotWellDefined) as err:
        recover_hemisystem(broken, a)
    assert str(err.value) == ("base 0 gives a 55-set but base 4 inside it "
                              "gives a different 56-set")


def test_stray_zero_is_not_an_even_relation(scheme_t3):
    rel = scheme_t3.rel.copy()
    b = int(np.flatnonzero(rel[0] == 4)[0])
    rel[0][b] = rel[b][0] = 0
    broken = RelationScheme(size=112, classes=5, rel=rel)
    with pytest.raises(NotWellDefined) as err:
        recover_hemisystem(broken, 0)
    assert str(err.value) == ("base 0 gives a 55-set but base 1 inside it "
                              "gives a different 56-set")


def test_each_clique_is_built_once(cliques):
    keys = [c.elements for c in cliques]
    assert len(set(keys)) == len(keys) == 280


# ------------------------------------------------------------ corrupted tables

# clique (0, 1, 2, 3) splits as half_C (0, 1), half_Cprime (2, 3)
@pytest.mark.parametrize("entry, message", [
    ((0, 1, 1), "half_C = (0,) has 1 elements, expected 2"),
    ((0, 2, 3), "half_Cprime = (3,) has 1 elements, expected 2"),
    ((1, 2, 2), "elements 1, 2 of clique (0, 1, 2, 3) are 2-related, "
                "expected 1"),
    ((2, 3, 1), "elements 2, 3 of clique (0, 1, 2, 3) are 1-related, "
                "expected 2"),
    ((0, 10, 1), "cliques cover 1656 low-relation pairs, expected 1681"),
], ids=["half_C", "half_Cprime", "across", "inside", "uncovered"])
def test_corrupted_cliques_are_named(scheme_t3, entry, message):
    a, b, v = entry
    rel = scheme_t3.rel.copy()
    assert rel[a][b] != v
    rel[a][b] = rel[b][a] = v
    with pytest.raises(StructureViolation) as err:
        all_cliques(RelationScheme(size=112, classes=5, rel=rel))
    assert str(err.value) == message


def test_overlapping_cliques_are_rejected():
    """Two 2+2 cliques, (0, 1 | 10, 11) and (2, 3 | 10, 11), sharing a
    pair in a table where every other pair is 3-related."""
    rel = np.full((112, 112), 3, dtype=np.int8)
    np.fill_diagonal(rel, 0)
    for a, b in ((0, 1), (2, 3), (10, 11)):
        rel[a, b] = rel[b, a] = 2
    rel[:4, 10:12] = rel[10:12, :4] = 1
    with pytest.raises(StructureViolation) as err:
        all_cliques(RelationScheme(size=112, classes=5, rel=rel))
    assert str(err.value) == ("pair (10, 11) lies in two cliques: "
                              "(0, 1, 10, 11) and (2, 3, 10, 11)")


def test_a_table_with_fewer_classes_fails_on_its_cliques():
    """Two classes, every pair 1-related: the one "clique" is everything,
    and its first half holds only element 0."""
    rel = np.ones((112, 112), dtype=np.int8)
    np.fill_diagonal(rel, 0)
    sch = RelationScheme(size=112, classes=2, rel=rel)
    with pytest.raises(StructureViolation) as err:
        all_cliques(sch)
    assert str(err.value) == "half_C = (0,) has 1 elements, expected 2"
    assert recover_hemisystem(sch, 5) == (5,)
