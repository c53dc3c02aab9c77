"""Clique extraction, the dual quadrangle, and half-partition recovery."""

import itertools

import numpy as np
import pytest

from schemeforge.reconstruct import (AxiomFailure, NotWellDefined,
                                     StructureViolation, all_cliques,
                                     clique_from_r1_pair,
                                     clique_from_r2_pair, order_from_size,
                                     reconstruct_gq, recover_hemisystem,
                                     verify_dual_hemisystem)
from schemeforge.relation_scheme import RelationScheme, neighbors


def test_order_inversion():
    assert order_from_size(112) == 3
    assert order_from_size((5 ** 3 + 1) * 6) == 5
    with pytest.raises(ValueError):
        order_from_size(100)


# ------------------------------------------------------------ single cliques

def test_r2_pair_clique(scheme_t3):
    x = 0
    y = neighbors(scheme_t3, x, 2)[0]
    clq = clique_from_r2_pair(scheme_t3, x, y)
    assert x in clq.half_C and y in clq.half_C
    assert len(clq.half_C) == len(clq.half_Cprime) == 2
    assert len(clq.elements) == 4


def test_r2_pair_requires_relation_two(scheme_t3):
    x = 0
    u = neighbors(scheme_t3, x, 1)[0]
    with pytest.raises(ValueError):
        clique_from_r2_pair(scheme_t3, x, u)


def test_r1_pair_clique(scheme_t3):
    x = 0
    u = neighbors(scheme_t3, x, 1)[0]
    clq = clique_from_r1_pair(scheme_t3, x, u)
    assert x in clq.half_C and u in clq.half_Cprime
    assert len(clq.elements) == 4


def test_constructors_agree(scheme_t3, cliques):
    for clq in cliques[:25]:
        x, y = clq.half_C
        u = clq.half_Cprime[0]
        assert clique_from_r2_pair(scheme_t3, x, y).halves == clq.halves
        assert clique_from_r1_pair(scheme_t3, x, u).halves == clq.halves


def test_any_inner_pair_reproduces_the_clique(scheme_t3, cliques):
    for clq in cliques[:15]:
        for half in (clq.half_C, clq.half_Cprime):
            for a, b in itertools.combinations(half, 2):
                same = clique_from_r2_pair(scheme_t3, a, b)
                assert same.halves == clq.halves


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
    assert len(rec.points) == 112
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


def test_each_clique_is_built_once(scheme_t3, monkeypatch):
    import schemeforge.reconstruct as rc
    pairs = []
    for name in ("clique_from_r1_pair", "clique_from_r2_pair"):
        def counted(sch, a, b, real=getattr(rc, name)):
            pairs.append((a, b))
            return real(sch, a, b)
        monkeypatch.setattr(rc, name, counted)
    assert len(all_cliques(scheme_t3)) == 280
    assert len(pairs) == 280


def test_overlapping_cliques_are_rejected(scheme_t3, monkeypatch):
    import schemeforge.reconstruct as rc
    real = rc.clique_from_r1_pair
    x, u = 0, neighbors(scheme_t3, 0, 1)[0]
    true = real(scheme_t3, x, u)
    stranger = next(z for z in range(112) if z not in true.elements)

    def skewed(sch, a, b):
        if (a, b) != (x, u):
            return real(sch, a, b)
        return rc.Clique(true.half_C, (u, stranger))

    monkeypatch.setattr(rc, "clique_from_r1_pair", skewed)
    with pytest.raises(StructureViolation, match="lies in two cliques"):
        all_cliques(scheme_t3)
