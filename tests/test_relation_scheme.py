"""The concrete 4-class scheme as a counting oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.relation_scheme import (CountedParameters, NotHemisystem,
                                         RelationScheme,
                                         ShapeMismatch,
                                         scheme_from_hemisystem,
                                         verify_scheme)
from schemeforge.geometry import Hemisystem, first_true


def test_requires_a_real_hemisystem(hermitian_gq, hemisystem):
    damaged = Hemisystem(hemisystem.lines[1:])
    with pytest.raises(NotHemisystem) as err:
        scheme_from_hemisystem(hermitian_gq, damaged)
    assert str(err.value)


def test_relation_table_structure(scheme_t3):
    rel = scheme_t3.rel
    assert scheme_t3.size == 112
    assert scheme_t3.classes == 5
    assert (rel == rel.T).all()
    assert (np.diag(rel) == 0).all()
    off = rel[~np.eye(112, dtype=bool)]
    assert off.min() >= 1 and off.max() <= 4


def test_counted_valencies(scheme_t3):
    counted = verify_scheme(scheme_t3)
    assert counted.consistency
    assert counted.witness is None
    assert tuple(counted.valencies) == (1, 20, 10, 36, 45)


def test_counted_tensor_matches_the_tables(scheme_t3, params_t3):
    counted = verify_scheme(scheme_t3)
    for k in range(5):
        for i in range(5):
            for j in range(5):
                assert counted.p[k][i][j] == params_t3.p[k][i][j], (k, i, j)


def test_neighbor_sets_partition(scheme_t3):
    rel = scheme_t3.rel
    for x in (0, 17, 111):
        sets = [np.flatnonzero(rel[x] == i) for i in range(5)]
        assert sets[0].tolist() == [x]
        assert sorted(z for s in sets for z in s) == list(range(112))
    assert len(np.flatnonzero(rel[0] == 2)) == 10
    assert len(np.flatnonzero(rel[0] == 1)) + len(
        np.flatnonzero(rel[0] == 2)) == 30


def test_pair_sets(scheme_t3):
    rel = scheme_t3.rel
    x = 0
    y = np.flatnonzero(rel[x] == 2)[0]
    assert len(np.flatnonzero((rel[x] == 1) & (rel[y] == 1))) == 2
    assert len(np.flatnonzero((rel[x] == 2) & (rel[y] == 2))) == 0
    assert np.array_equal(np.flatnonzero((rel[x] == 1) & (rel[y] == 2)),
                          np.flatnonzero((rel[y] == 2) & (rel[x] == 1)))


def test_pair_set_sizes_match_intersection_numbers(scheme_t3, params_t3):
    import random
    rel = scheme_t3.rel
    rng = random.Random(1)
    for _ in range(25):
        x, y = rng.sample(range(112), 2)
        k = int(rel[x][y])
        i, j = rng.randrange(5), rng.randrange(5)
        assert len(np.flatnonzero((rel[x] == i) & (rel[y] == j))) \
            == params_t3.p[k][i][j]


def test_flipped_entry_is_detected(scheme_t3):
    rel = scheme_t3.rel.copy()
    a, b = 0, int(np.flatnonzero(rel[0] == 1)[0])
    rel[a][b] = 2   # asymmetric now
    broken = RelationScheme(size=112, classes=5, rel=rel)
    counted = verify_scheme(broken)
    assert not counted.consistency
    assert counted.witness


def test_symmetric_flip_breaks_constancy(scheme_t3):
    rel = scheme_t3.rel.copy()
    a, b = 0, int(np.flatnonzero(rel[0] == 1)[0])
    rel[a][b] = rel[b][a] = 2
    broken = RelationScheme(size=112, classes=5, rel=rel)
    counted = verify_scheme(broken)
    assert not counted.consistency
    assert counted.witness


def test_one_sided_entry_witness(scheme_t3):
    rel = scheme_t3.rel.copy()
    rel[0][2] = 2
    counted = verify_scheme(RelationScheme(size=112, classes=5, rel=rel))
    assert not counted.consistency
    assert counted.witness == "rel(0,2)=2 != rel(2,0)=1"


def test_constancy_witness_with_valencies_kept(scheme_t3):
    rel = scheme_t3.rel.copy()
    rel[0, 2] = rel[2, 0] = rel[4, 6] = rel[6, 4] = 3
    rel[0, 6] = rel[6, 0] = rel[4, 2] = rel[2, 4] = 1
    counted = verify_scheme(RelationScheme(size=112, classes=5, rel=rel))
    assert not counted.consistency
    assert counted.valencies == (1, 20, 10, 36, 45)
    assert counted.witness == ("pair (0,4) class 2: count at (1,1) is 2, "
                               "expected 1")


def all_pairs_verify(sch):
    """verify_scheme as it formed every A_i A_j, in int64 products.

    Only for tables that pass the structural and valency checks.
    """
    rel, n, c = sch.rel, sch.size, sch.classes
    adj = sch.indicators.astype(np.int64)
    counts = adj.sum(axis=2).T
    assert (counts == counts[0]).all()
    firsts = [np.argwhere(plane) for plane in adj]
    p_rep = np.zeros((c, c, c), dtype=np.int64)
    differs = np.zeros((n, n), dtype=bool)
    for i in range(c):
        for j in range(c):
            prod = adj[i] @ adj[j]
            for k, hits in enumerate(firsts):
                if hits.size:
                    p_rep[k, i, j] = prod[tuple(hits[0])]
            differs |= prod != p_rep[rel, i, j]
    valencies = tuple(int(v) for v in counts[0])
    if differs.any():
        x, y = (int(v) for v in np.argwhere(differs)[0])
        k = int(rel[x, y])
        got = adj[:, x] @ adj[:, :, y].T
        i, j = (int(v) for v in np.argwhere(got != p_rep[k])[0])
        return CountedParameters(
            valencies, (), False,
            f"pair ({x},{y}) class {k}: count at ({i},{j}) is "
            f"{int(got[i, j])}, expected {int(p_rep[k, i, j])}")
    p = tuple(tuple(tuple(int(v) for v in row) for row in plane)
              for plane in p_rep)
    return CountedParameters(valencies, p, True, None)


def two_switch(rel, rng):
    """Relabel x~y, u~v from a to b and x~v, u~y from b to a, symmetrically.

    Every row keeps its count of each label, so the valencies hold.
    """
    n = len(rel)
    while True:
        x, u = rng.sample(range(n), 2)
        a, b = rng.sample(range(1, int(rel.max()) + 1), 2)
        ys = np.flatnonzero((rel[x] == a) & (rel[u] == b))
        vs = np.flatnonzero((rel[u] == a) & (rel[x] == b))
        if ys.size and vs.size:
            y, v = int(rng.choice(ys)), int(rng.choice(vs))
            for p, q, label in ((x, y, b), (u, v, b), (x, v, a), (u, y, a)):
                rel[p, q] = rel[q, p] = label
            return


def hamming_table(d, q):
    """Hamming distance on q-ary words of length d: a d-class scheme."""
    words = np.array(np.unravel_index(np.arange(q ** d), (q,) * d)).T
    return (words[:, None] != words[None]).sum(axis=2).astype(np.int8)


@pytest.mark.parametrize("seed", range(16))
def test_products_agree_with_all_pairs_on_switched_tables(scheme_t3, seed):
    rng = random.Random(seed)
    base = scheme_t3.rel if seed % 4 else hamming_table(3, 3)
    rel = base.copy()
    for _ in range(seed % 3):
        two_switch(rel, rng)
    sch = RelationScheme(size=len(rel), classes=int(base.max()) + 1, rel=rel)
    assert verify_scheme(sch) == all_pairs_verify(sch)


def test_complete_graph_single_class_scheme():
    n = 6
    rel = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    sch = RelationScheme(size=n, classes=2, rel=rel)
    counted = verify_scheme(sch)
    assert counted.consistency
    assert counted.p[1][1][1] == n - 2


def test_a_table_of_the_wrong_shape_is_refused():
    table = np.zeros((2, 2), dtype=np.int8)
    with pytest.raises(ShapeMismatch,
                       match=r"shape \(2, 2\), expected \(3, 3\)"):
        RelationScheme(size=3, classes=2, rel=table)


def test_indicator_stack_is_cached_and_read_only(scheme_t3):
    stack = scheme_t3.indicators
    want = np.array([scheme_t3.rel == i for i in range(scheme_t3.classes)])
    assert stack.dtype == bool
    assert np.array_equal(stack, want)
    assert np.array_equal(stack.sum(axis=0), np.ones((112, 112)))
    assert scheme_t3.indicators is stack
    with pytest.raises(ValueError):
        scheme_t3.rel[0, 1] = 3
    with pytest.raises(ValueError):
        stack[1, 0, 1] = False


def test_even_mask_and_label_planes_are_cached_and_read_only(scheme_t3):
    rel = scheme_t3.rel
    even = scheme_t3.even
    eye = np.eye(112, dtype=bool)
    assert np.array_equal(even, (rel == 2) | (rel == 4) | eye)
    planes = scheme_t3.label_planes
    assert planes.shape == (3, 112, 112)
    assert np.array_equal(planes, [25 * rel, 5 * rel, rel])
    parts = scheme_t3.even_parts
    for cached, name in ((even, "even"), (planes, "label_planes"),
                         (parts, "even_parts")):
        assert getattr(scheme_t3, name) is cached
    for cached in (even, planes):
        with pytest.raises(ValueError):
            cached[0, 1] = 0


def test_even_mask_reads_missing_classes_as_false():
    rel = np.full((6, 6), 4, dtype=np.int8)
    rel[:3, :3] = 2
    np.fill_diagonal(rel, 0)
    eye = np.eye(6, dtype=bool)
    assert np.array_equal(RelationScheme(6, 5, rel).even, (rel > 0) | eye)
    assert np.array_equal(RelationScheme(6, 3, rel).even, (rel == 2) | eye)
    assert np.array_equal(RelationScheme(6, 2, rel).even, eye)


def per_base_recovery(even, x):
    """x's row of the even mask and its first member whose row differs,
    or -1: the comparison recover_hemisystem once made for each base."""
    part = np.flatnonzero(even[x])
    bad = first_true(np.any(even[part] != even[x], axis=1))
    return tuple(part.tolist()), -1 if bad is None else int(part[bad[0]])


@st.composite
def label_tables(draw):
    """Symmetric tables of 2-5 classes on up to 12 elements: random labels,
    or same-part pairs 2 or 4 and cross pairs 1 or 3 over a random
    partition, some pairs then relabelled at random."""
    classes, n = draw(st.integers(2, 5)), draw(st.integers(1, 12))
    labels = st.integers(0, classes - 1)
    rel = np.array(draw(st.lists(st.lists(labels, min_size=n, max_size=n),
                                 min_size=n, max_size=n)), dtype=np.int8)
    if classes == 5 and draw(st.booleans()):
        part = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                      max_size=n)))
        same = part[:, None] == part[None, :]
        noise = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n,
                                       max_size=n * n))).reshape(n, n) == 0
        rel = np.where(noise, rel,
                       np.where(same, 2, 1) + 2 * (rel % 2)).astype(np.int8)
    rel = np.triu(rel, 1)
    return RelationScheme(n, classes, rel + rel.T)


@settings(max_examples=300, deadline=None)
@given(label_tables())
def test_even_parts_equal_the_per_base_recovery(sch):
    parts, strays = sch.even_parts
    assert len(parts) == len(strays) == sch.size
    for x in range(sch.size):
        assert (parts[x], strays[x]) == per_base_recovery(sch.even, x)
