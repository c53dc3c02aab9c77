"""Triple intersection systems: widening, solving, forcing, counting."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from schemeforge import triples
from schemeforge.linalg import Inconsistent, RatMatrix, solve_linear
from schemeforge.scheme_params import closed_form_parameters
from schemeforge.triples import (CheckerOverflow, HighNullity, Infeasible,
                                 NotVanishing, TripleConfig, TripleSystem,
                                 VacuousConfig, add_krein_vanishing,
                                 boundary_violations, build_base_system,
                                 direct_triple_counts, forced_triple_values,
                                 integer_residual_checker, nonneg_force,
                                 solve, triple_pattern, vanishing_tuples,
                                 widened_system)

PROOF_TUPLES = ((1, 1, 3), (1, 1, 4), (1, 4, 2), (1, 4, 4))


def patterns(params):
    """Every non-vacuous (A, B, C) of the scheme."""
    rng = range(1, params.d + 1)
    return [abc for abc in itertools.product(rng, repeat=3)
            if not TripleConfig(params, abc).is_vacuous]


def only(sys_, kinds):
    """The rows of `sys_` whose kind is in `kinds`, in their order."""
    keep = [i for i, k in enumerate(sys_.kinds) if k in kinds]
    return TripleSystem(sys_.config, sys_.names,
                        tuple(sys_.rows[i] for i in keep),
                        tuple(sys_.rhs[i] for i in keep),
                        tuple(sys_.kinds[i] for i in keep))


def residuals(sys_, tensor):
    """(kind, row index, residual) of each row a count tensor violates."""
    vec = [tensor[l][m][n] for l, m, n in sys_.names]
    out = []
    for i, (row, b, kind) in enumerate(zip(sys_.rows, sys_.rhs, sys_.kinds)):
        res = sum(a * x for a, x in zip(row, vec)) - b
        if res:
            out.append((kind, i, res))
    return out


def proof_system(t, abc):
    """Sum, symmetry and four-orbit vanishing rows, nothing else."""
    cfg = TripleConfig(closed_form_parameters(t), abc)
    wide = widened_system(cfg, krein_tuples=PROOF_TUPLES)
    return only(wide, ("sum", "symmetry", "krein"))


# ------------------------------------------------------------ construction

def test_vacuous_symmetric_pattern_at_t3(params_t3):
    cfg = TripleConfig(params_t3, (2, 2, 2))
    assert cfg.is_vacuous
    with pytest.raises(VacuousConfig):
        build_base_system(cfg)
    with pytest.raises(VacuousConfig):
        forced_triple_values(params_t3, (2, 2, 2))


def test_base_system_shape():
    cfg = TripleConfig(closed_form_parameters(7), (2, 2, 2))
    sys_ = build_base_system(cfg)
    assert len(sys_.names) == 64
    assert sum(1 for k in sys_.kinds if k == "sum") == 48


def test_zero_rows_single_out_unknowns():
    cfg = TripleConfig(closed_form_parameters(5), (2, 1, 1))
    sys_ = build_base_system(cfg)
    zero_rows = [(row, rhs) for row, rhs, kind
                 in zip(sys_.rows, sys_.rhs, sys_.kinds) if kind == "zero"]
    assert zero_rows
    for row, rhs in zero_rows:
        assert rhs == 0
        assert sum(1 for c in row if c) == 1


def test_pattern_class_range_enforced(params_t3):
    with pytest.raises(ValueError):
        TripleConfig(params_t3, (0, 1, 1))
    with pytest.raises(ValueError):
        TripleConfig(params_t3, (1, 5, 1))


# ------------------------------------------------------------ symmetry

def test_two_equal_classes_transpose_unknowns():
    cfg = TripleConfig(closed_form_parameters(5), (2, 1, 1))
    sys_ = only(widened_system(cfg), ("symmetry",))
    i121 = sys_.index((1, 2, 1))
    i211 = sys_.index((2, 1, 1))
    matched = False
    for row in sys_.rows:
        support = {v for v, c in enumerate(row) if c}
        if support == {i121, i211}:
            matched = True
    assert matched


def test_all_distinct_classes_add_nothing():
    cfg = TripleConfig(closed_form_parameters(5), (1, 2, 3))
    sys_ = only(widened_system(cfg), ("symmetry",))
    assert len(sys_.rows) == 0


def test_full_symmetry_orbit_count():
    sys_ = only(proof_system(7, (2, 2, 2)), ("symmetry",))
    assert solve(sys_).space.dimension == 20


# ------------------------------------------------------------ krein rows

def test_vanishing_set_contains_the_four_orbits(params_t3):
    tuples = set(vanishing_tuples(params_t3))
    for tup in PROOF_TUPLES:
        for perm in itertools.permutations(tup):
            assert perm in tuples


def test_vanishing_set_size_t3(params_t3):
    assert len(vanishing_tuples(params_t3)) == 32


def test_nonvanishing_tuple_rejected():
    cfg = TripleConfig(closed_form_parameters(5), (2, 2, 2))
    sys_ = build_base_system(cfg)
    with pytest.raises(NotVanishing):
        add_krein_vanishing(sys_, tuples=((2, 2, 2),))


def test_vanishing_tuple_accepted():
    cfg = TripleConfig(closed_form_parameters(5), (2, 2, 2))
    sys_ = build_base_system(cfg)
    widened = add_krein_vanishing(sys_, tuples=((1, 1, 3),))
    assert any(k == "krein" for k in widened.kinds)


def direct_krein_rows(sys_, tuples):
    """Krein rows and right-hand sides, each entry its own product."""
    Q = sys_.config.params.Q
    A, B, C = sys_.config.abc
    rows = tuple(tuple(Q.at(l, r) * Q.at(m, s) * Q.at(n, t)
                       for l, m, n in sys_.names)
                 for r, s, t in tuples)
    rhs = tuple(-(Q.at(0, r) * Q.at(A, s) * Q.at(C, t)
                  + Q.at(A, r) * Q.at(0, s) * Q.at(B, t)
                  + Q.at(C, r) * Q.at(B, s) * Q.at(0, t))
                for r, s, t in tuples)
    return rows, rhs


def reference_integer_rows(rows, rhs):
    """Each row and its right-hand side times their lcm, via Fraction."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        denom = 1
        for c in row + (b,):
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        out_rows.append(tuple(int(c * denom) for c in row))
        out_rhs.append(int(b * denom))
    return tuple(out_rows), tuple(out_rhs)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_krein_rows_equal_the_direct_products(t):
    """Each Krein row is its Fraction equation times the lcm of its
    denominators."""
    params = closed_form_parameters(t)
    tuples = vanishing_tuples(params)
    for abc in patterns(params):
        krein = only(widened_system(TripleConfig(params, abc)), ("krein",))
        assert (krein.rows, krein.rhs) == reference_integer_rows(
            *direct_krein_rows(krein, tuples))


@pytest.mark.parametrize("requested", [PROOF_TUPLES, ((1, 1, 3),)])
def test_requested_krein_rows_equal_the_direct_products(requested):
    tuples = sorted({p for tup in requested
                     for p in itertools.permutations(tup)})
    for abc in ((2, 2, 2), (2, 1, 1), (1, 2, 3)):
        sys_ = build_base_system(TripleConfig(closed_form_parameters(7), abc))
        krein = only(add_krein_vanishing(sys_, tuples=requested),
                     ("krein",))
        assert krein.kinds == ("krein",) * len(tuples)
        assert (krein.rows, krein.rhs) == reference_integer_rows(
            *direct_krein_rows(krein, tuples))


def test_krein_scaling_clears_the_right_hand_side_denominator():
    """With Q's first row divided by 11 only the right-hand sides gain a
    denominator; the scale must clear it as well."""
    params = closed_form_parameters(7)
    q = params.Q
    doctored = replace(params, Q=RatMatrix(
        q.rows, q.cols,
        tuple(x / 11 for x in q.row(0)) + q.entries[q.cols:]))
    sys_ = build_base_system(TripleConfig(doctored, (2, 1, 1)))
    krein = only(add_krein_vanishing(sys_), ("krein",))
    direct = direct_krein_rows(krein, vanishing_tuples(params))
    assert any(b.denominator % 11 == 0 for b in direct[1])
    assert (krein.rows, krein.rhs) == reference_integer_rows(*direct)


def assert_int_rows(sys_):
    assert all(type(c) is int for row in sys_.rows for c in row)
    assert all(type(b) is int for b in sys_.rhs)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_every_row_is_built_in_ints(t):
    """Rows and right-hand sides are ints on both Krein paths; solving
    still returns Fractions."""
    params = closed_form_parameters(t)
    for abc in patterns(params):
        cfg = TripleConfig(params, abc)
        sys_ = widened_system(cfg)
        assert_int_rows(sys_)
        assert_int_rows(widened_system(cfg, krein_tuples=PROOF_TUPLES))
        space = solve(sys_).space
        assert all(type(x) is Fraction for x in space.particular)
        assert all(type(x) is Fraction for vec in space.basis for x in vec)


# ------------------------------------------------------------ solving

def test_symmetric_pattern_proof_space_dimension():
    """Sum + symmetry + four vanishing orbits leave a 6-dimensional space.

    A widely quoted parametrization of this space lists seven unknowns,
    but one of them is an exact combination of the others (checked in
    test_dependency_identity below), so the space itself has dimension 6.
    """
    sol = solve(proof_system(7, (2, 2, 2)))
    assert sol.space.dimension == 6


def test_mixed_pattern_proof_space_dimension():
    sol = solve(proof_system(7, (2, 1, 1)))
    assert sol.space.dimension == 9


@pytest.mark.parametrize("t", [5, 7, 11])
def test_dependency_identity(t):
    """[1 3 4] = t [1 1 2] + (t-1)/2 ([1 1 4] + [1 2 3]) on the space."""
    sys_ = proof_system(t, (2, 2, 2))
    space = solve(sys_).space

    def functional(vec):
        pick = {name: vec[sys_.index(name)]
                for name in ((1, 3, 4), (1, 1, 2), (1, 1, 4), (1, 2, 3))}
        return (pick[(1, 3, 4)] - t * pick[(1, 1, 2)]
                - Fraction(t - 1, 2) * (pick[(1, 1, 4)] + pick[(1, 2, 3)]))

    assert functional(space.particular) == 0
    for vec in space.basis:
        assert functional(vec) == 0


def reference_solve(sys_):
    """Elimination on all 64 columns: (space, forced, free names)."""
    space = solve_linear(RatMatrix.from_rows(sys_.rows), sys_.rhs)
    forced = {nm: space.particular[v] for v, nm in enumerate(sys_.names)
              if all(vec[v] == 0 for vec in space.basis)}
    return space, forced, tuple(sys_.names[f] for f in space.free_indices)


def assert_matches_reference(sys_):
    sol = solve(sys_)
    space, forced, free = reference_solve(sys_)
    assert sol.space == space
    assert sol.forced == forced
    assert sol.residual_free == free
    return sol


def differential_system(t, abc, form):
    if form == "widened":
        return widened_system(TripleConfig(closed_form_parameters(t), abc))
    sys_ = proof_system(t, abc)
    return sys_ if form == "proof" else only(sys_, ("symmetry",))


@pytest.mark.parametrize("t,abc,form,dimension", [
    (3, (2, 1, 1), "widened", 0), (3, (1, 2, 3), "widened", 0),
    (3, (4, 4, 4), "widened", 1), (5, (2, 2, 2), "widened", 0),
    (5, (2, 1, 1), "widened", 1), (5, (4, 4, 4), "widened", 1),
    (7, (2, 2, 2), "proof", 6), (7, (2, 1, 1), "proof", 9),
    (7, (2, 2, 2), "symmetry", 20)])
def test_solve_matches_64_column_elimination(t, abc, form, dimension):
    """Elimination on symmetry classes gives the 64-column result, field
    for field; the many-free-column systems pin the free index order.
    The widened (2,1,1) and (1,2,3) systems reduce to rows that are
    scalar multiples of each other, which `solve` keeps once."""
    sys_ = differential_system(t, abc, form)
    sol = assert_matches_reference(sys_)
    assert sol.space.dimension == dimension


def hand_system(rows):
    """A t = 5 system from ({index: coefficient}, rhs) pairs, with every
    unknown from 32 on killed by a zero row."""
    base = build_base_system(TripleConfig(closed_form_parameters(5),
                                          (2, 2, 2)))
    rows = list(rows) + [({v: 1}, 0) for v in range(32, 64)]
    return TripleSystem(
        base.config, base.names,
        tuple(tuple(row.get(v, 0) for v in range(64)) for row, _ in rows),
        tuple(b for _, b in rows), ("sum",) * len(rows))


def reduced_rows(monkeypatch, sys_):
    """How many rows `solve` hands to the elimination."""
    shapes = []

    def spy(a, b):
        shapes.append(a.rows)
        return solve_linear(a, b)

    monkeypatch.setattr(triples, "solve_linear", spy)
    solve(sys_)
    return shapes[-1]


@pytest.mark.parametrize("t,abc,rows", [
    (3, (2, 1, 1), 24), (3, (1, 2, 3), 43), (5, (2, 1, 1), 27),
    (5, (2, 2, 2), 12)])
def test_solve_keeps_one_row_per_scalar_multiple(monkeypatch, t, abc, rows):
    """The first three reduce to 28, 50 and 31 distinct rows, of which
    4, 7 and 4 are scalar multiples of an earlier one; (2,2,2) has
    none."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(t), abc))
    assert reduced_rows(monkeypatch, sys_) == rows


def test_rows_of_either_sign_reduce_to_one(monkeypatch):
    """2 [4] + 2 [5] = 1, -4 [4] - 4 [5] = -2 and 6 [4] + 6 [5] = 3 are
    one equation, [4] + [5] = 1/2."""
    sys_ = hand_system([({4: 2, 5: 2}, 1), ({4: -4, 5: -4}, -2),
                        ({4: 6, 5: 6}, 3)])
    assert reduced_rows(monkeypatch, sys_) == 1
    sol = assert_matches_reference(sys_)
    assert sol.space.particular[4] == Fraction(1, 2)


def test_a_class_with_a_killed_unknown_is_all_zero():
    """[3] = [9] and [3] = 0, so [3] + [5] = 2 leaves [5] = 2."""
    sys_ = hand_system([({3: 1, 9: -1}, 0), ({3: 1}, 0),
                        ({3: 1, 5: 1}, 2)])
    sol = assert_matches_reference(sys_)
    names = sys_.names
    assert sol.forced[names[3]] == sol.forced[names[9]] == 0
    assert sol.forced[names[5]] == 2


@pytest.mark.parametrize("rows", [
    [({4: 2, 7: -2}, 0), ({4: 1, 7: -1}, 1)],
    [({4: 1}, 0), ({4: 3}, 6)]], ids=["merged", "killed"])
def test_a_row_that_becomes_zero_equals_b_is_inconsistent(rows):
    sys_ = hand_system(rows)
    with pytest.raises(Inconsistent, match="system has no solution"):
        reference_solve(sys_)
    with pytest.raises(Inconsistent, match="system has no solution"):
        solve(sys_)


def test_a_free_class_reports_its_largest_member():
    """{20, 25, 26, 30} is merged in an order that roots it inside, not at
    30; with [20] + [28] = 1 the class holding 30 is the free one."""
    sys_ = hand_system([({20: 1, 30: -1}, 0), ({25: 1, 26: -1}, 0),
                        ({20: 1, 25: -1}, 0), ({20: 1, 28: 1}, 1)]
                       + [({v: 1}, 0) for v in range(32)
                          if v not in (20, 25, 26, 28, 30)])
    sol = assert_matches_reference(sys_)
    assert sol.space.free_indices == (30,)


def test_a_system_whose_rows_all_reduce_away_is_solved():
    sys_ = hand_system([({0: 1, 1: -1}, 0), ({3: 1, 2: -1}, 0),
                        ({0: 1, 1: -1, 2: 2, 3: -2}, 0), ({1: 1, 0: -1}, 0)]
                       + [({v: 1}, 0) for v in range(4, 32)])
    sol = assert_matches_reference(sys_)
    assert sol.space.free_indices == (1, 3)
    assert not any(sol.space.particular)


# ------------------------------------------------------------ forcing

def test_symmetric_pattern_forced_values_t7():
    sol = forced_triple_values(closed_form_parameters(7), (2, 2, 2))
    assert sol.forced[(2, 2, 2)] == 1
    for i in (1, 3, 4):
        assert sol.forced[(2, 2, i)] == 0
    assert sol.residual_free == ()


def test_mixed_pattern_forced_values_t5():
    sol = forced_triple_values(closed_form_parameters(5), (2, 1, 1))
    assert sol.forced[(1, 1, 2)] == 2
    assert sol.forced[(2, 2, 1)] == 1
    for i in (1, 3, 4):
        assert sol.forced[(1, 1, i)] == 0
        assert sol.forced[(2, i, 1)] == 0
    assert sol.forced[(1, 3, 4)] == 75


def test_mixed_pattern_forced_values_t3(params_t3):
    sol = forced_triple_values(params_t3, (2, 1, 1))
    assert sol.forced[(1, 1, 2)] == 1
    assert sol.forced[(2, 2, 1)] == 0
    assert sol.forced[(1, 3, 4)] == 3 ** 2 * 4 // 2


def test_forced_values_never_negative():
    for t in (5, 9):
        for abc in ((2, 2, 2), (2, 1, 1)):
            sol = forced_triple_values(closed_form_parameters(t), abc)
            assert all(v >= 0 for v in sol.forced.values())


def test_forcing_reports_infeasible_on_a_poisoned_system():
    cfg = TripleConfig(closed_form_parameters(5), (2, 1, 1))
    sys_ = widened_system(cfg)
    space = solve(sys_).space
    assert space.dimension == 1
    free = space.free_indices[0]
    pin = [0] * len(sys_.names)
    pin[free] = 1
    poisoned = sys_.extended([tuple(pin)], [-1], "sum")
    with pytest.raises(Infeasible):
        nonneg_force(poisoned, solve(poisoned))


def test_forcing_rejects_more_than_one_free_parameter():
    sys_ = proof_system(7, (2, 2, 2))
    with pytest.raises(HighNullity, match="dimension 6"):
        nonneg_force(sys_, solve(sys_))


def test_crossed_bounds_name_both_binding_unknowns():
    """[1 1 1] + [1 1 2] = -1 with every other unknown 0: the free [1 1 2]
    must be >= 0 for itself and <= -1 for [1 1 1]."""
    base = build_base_system(TripleConfig(closed_form_parameters(5),
                                          (2, 2, 2)))
    names = base.names
    rows = [tuple(int(nm in ((1, 1, 1), (1, 1, 2))) for nm in names)]
    rows += [tuple(int(nm == other) for nm in names) for other in names[2:]]
    sys_ = TripleSystem(base.config, names, tuple(rows), (-1,) + (0,) * 62,
                        ("sum",) * 63)
    sol = solve(sys_)
    assert sol.space.dimension == 1
    with pytest.raises(Infeasible, match=r"\(1, 1, 2\).*\(1, 1, 1\)"):
        nonneg_force(sys_, sol)


def tensor_from(forced):
    """A [l][m][n] tensor over classes 0..4 with the inner entries forced."""
    return [[[forced.get((l, m, n), 0) for n in range(5)] for m in range(5)]
            for l in range(5)]


@pytest.mark.parametrize("abc,nullity", [((2, 2, 2), 0), ((2, 1, 1), 1)],
                         ids=["nullity0", "collapsed"])
def test_forcing_pins_every_unknown_t5(abc, nullity):
    sys_ = widened_system(TripleConfig(closed_form_parameters(5), abc))
    sol = solve(sys_)
    assert sol.space.dimension == nullity
    forced = nonneg_force(sys_, sol)
    assert set(forced.forced) == set(sys_.names)
    assert forced.residual_free == ()
    assert all(v >= 0 for v in forced.forced.values())
    assert residuals(sys_, tensor_from(forced.forced)) == []


def test_forcing_leaves_an_open_range_free_t5():
    sys_ = widened_system(TripleConfig(closed_form_parameters(5), (4, 4, 4)))
    sol = solve(sys_)
    assert sol.space.dimension == 1
    forced = nonneg_force(sys_, sol)
    assert forced.forced == sol.forced
    assert len(forced.forced) == 48
    assert forced.residual_free == (sys_.names[sol.space.free_indices[0]],)


# ------------------------------------------------------------ counting oracle

def find_triple(sch, abc):
    for x in range(sch.size):
        for y in range(sch.size):
            if sch.rel[x][y] != abc[0]:
                continue
            for u in range(sch.size):
                if u in (x, y):
                    continue
                if triple_pattern(sch, x, y, u) == abc:
                    return x, y, u
    raise AssertionError(f"no triple with pattern {abc}")


def test_direct_counts_total(scheme_t3):
    tensor = direct_triple_counts(scheme_t3, 0, 1, 2)
    total = sum(tensor[l][m][n]
                for l in range(5) for m in range(5) for n in range(5))
    assert total == 112


def test_direct_counts_boundary(scheme_t3):
    x, y, u = 0, 1, 2
    abc = triple_pattern(scheme_t3, x, y, u)
    tensor = direct_triple_counts(scheme_t3, x, y, u)
    assert boundary_violations(abc, tensor) == []


def test_counted_mixed_pattern_values(scheme_t3, params_t3):
    x, y, u = find_triple(scheme_t3, (2, 1, 1))
    tensor = direct_triple_counts(scheme_t3, x, y, u)
    assert tensor[1][1][2] == 1
    assert tensor[2][2][1] == 0
    sys_ = widened_system(TripleConfig(params_t3, (2, 1, 1)))
    assert residuals(sys_, tensor) == []


def test_counts_satisfy_every_widened_equation(scheme_t3, params_t3):
    import random
    rng = random.Random(3)
    systems = {}
    for _ in range(40):
        x, y, u = rng.sample(range(112), 3)
        abc = triple_pattern(scheme_t3, x, y, u)
        if abc not in systems:
            systems[abc] = widened_system(TripleConfig(params_t3, abc))
        tensor = direct_triple_counts(scheme_t3, x, y, u)
        assert residuals(systems[abc], tensor) == []


def test_integer_checker_agrees_with_exact_residuals(scheme_t3, params_t3):
    import random
    rng = random.Random(4)
    x, y, u = find_triple(scheme_t3, (2, 1, 1))
    sys_ = widened_system(TripleConfig(params_t3, (2, 1, 1)))
    checker = integer_residual_checker(sys_)
    tensor = direct_triple_counts(scheme_t3, x, y, u)
    assert checker(tensor) is None
    # poke the tensor: the checker must notice
    broken = [[list(r) for r in plane] for plane in tensor]
    broken[1][1][2] += 1
    assert checker(broken) is not None


def reference_first_bad_row(sys_, tensor):
    bad = residuals(sys_, tensor)
    return bad[0][1] if bad else None


def live_cube(sys_):
    """+-1 on the corners of a 2x2x2 cube of unknowns that no zero row
    kills. Every line sum stays, so the sum rows cannot notice."""
    dead = {nm for row, kind in zip(sys_.rows, sys_.kinds) if kind == "zero"
            for nm, c in zip(sys_.names, row) if c}
    pairs = list(itertools.combinations(range(1, sys_.config.params.d + 1),
                                        2))
    lmn = next(lmn for lmn in itertools.product(pairs, repeat=3)
               if dead.isdisjoint(itertools.product(*lmn)))
    return {tuple(pair[i] for pair, i in zip(lmn, ijk)): (-1) ** sum(ijk)
            for ijk in itertools.product((0, 1), repeat=3)}


def test_checker_finds_the_reference_first_bad_row(scheme_t3, params_t3):
    kinds = set()
    for abc in patterns(params_t3):
        sys_ = widened_system(TripleConfig(params_t3, abc))
        checker = integer_residual_checker(sys_)
        tensor = direct_triple_counts(scheme_t3, *find_triple(scheme_t3, abc))
        assert checker(tensor) is None
        for change in ({(3, 1, 2): 1}, live_cube(sys_)):
            broken = [[list(r) for r in plane] for plane in tensor]
            for (l, m, n), delta in change.items():
                broken[l][m][n] += delta
            bad = checker(broken)
            assert bad is not None
            assert bad == reference_first_bad_row(sys_, broken)
            kinds.add(sys_.kinds[bad])
    assert kinds == {"sum", "krein"}


@pytest.mark.parametrize("t", [3, 5])
def test_checkers_fit_int64_for_small_t(t):
    params = closed_form_parameters(t)
    for abc in patterns(params):
        integer_residual_checker(widened_system(TripleConfig(params, abc)))


def test_checker_refuses_rows_that_can_overflow_int64():
    """Every count is at most the scheme's order; at t = 51 a scaled
    Krein row times counts of that size can pass 2^63."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(51), (1, 1, 2)))
    with pytest.raises(CheckerOverflow, match="krein row 120"):
        integer_residual_checker(sys_)


def test_distinct_elements_required(scheme_t3):
    with pytest.raises(ValueError):
        direct_triple_counts(scheme_t3, 3, 3, 5)
