"""Triple intersection systems: widening, solving, forcing, counting."""

import inspect
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fraction_oracle as oracle
import triple_rows_oracle as rows_oracle
from integer_reference import solve_integer
from schemeforge import linalg, triples
from schemeforge.linalg import Inconsistent
from schemeforge.scheme_params import (KreinArray, closed_form_parameters,
                                       derive_parameters)
from schemeforge.triples import (HighNullity, Infeasible, TripleConfig,
                                 VacuousConfig, boundary_violations,
                                 direct_triple_counts, forced_triple_values,
                                 integer_residual_checker, nonneg_force,
                                 solve, triple_pattern, vanishing_tuples,
                                 widened_system)
from triple_rows_oracle import system

PROOF_TUPLES = ((1, 1, 3), (1, 1, 4), (1, 4, 2), (1, 4, 4))


def patterns(params):
    """Every non-vacuous (A, B, C) of the scheme."""
    rng = range(1, params.d + 1)
    return [abc for abc in itertools.product(rng, repeat=3)
            if not TripleConfig(params, abc).is_vacuous]


def only(sys_, kinds):
    """The rows of `sys_` whose kind is in `kinds`, in their order."""
    keep = [i for i, k in enumerate(sys_.kinds) if k in kinds]
    return system(sys_.config, sys_.names, sys_.rows[keep],
                  [sys_.rhs[i] for i in keep], [sys_.kinds[i] for i in keep])


def assert_same_system(sys_, ref):
    """Equal systems, field by field, the rows entry for entry."""
    assert sys_.config == ref.config
    assert sys_.names == ref.names
    assert sys_.rows.tolist() == ref.rows.tolist()
    assert sys_.rhs == ref.rhs
    assert sys_.kinds == ref.kinds


def residuals(sys_, tensor):
    """(kind, row index, residual) of each row a count tensor violates."""
    vec = [tensor[l][m][n] for l, m, n in sys_.names]
    out = []
    for i, (row, b, kind) in enumerate(zip(sys_.rows.tolist(), sys_.rhs,
                                           sys_.kinds)):
        res = sum(a * x for a, x in zip(row, vec)) - b
        if res:
            out.append((kind, i, res))
    return out


def proof_system(t, abc):
    """Sum, symmetry and four-orbit vanishing rows, nothing else.

    The slot-swap identities [l m n] = [sigma(l m n)] are not among the
    triple equations, and `widened_system` adds neither them nor Krein
    rows for chosen tuples; these systems take both from the row oracle.
    """
    cfg = TripleConfig(closed_form_parameters(t), abc)
    swapped = rows_oracle.add_symmetry(
        only(widened_system(cfg), ("sum", "zero")))
    wide = rows_oracle.add_krein_vanishing(swapped, tuples=PROOF_TUPLES)
    return only(wide, ("sum", "symmetry", "krein"))


# ------------------------------------------------------------ construction

def test_vacuous_symmetric_pattern_at_t3(params_t3):
    cfg = TripleConfig(params_t3, (2, 2, 2))
    assert cfg.is_vacuous
    with pytest.raises(VacuousConfig):
        widened_system(cfg)
    with pytest.raises(VacuousConfig):
        forced_triple_values(params_t3, (2, 2, 2))


def test_base_system_shape():
    cfg = TripleConfig(closed_form_parameters(7), (2, 2, 2))
    sys_ = widened_system(cfg)
    assert len(sys_.names) == 64
    assert sum(1 for k in sys_.kinds if k == "sum") == 48


def test_zero_rows_single_out_unknowns():
    cfg = TripleConfig(closed_form_parameters(5), (2, 1, 1))
    sys_ = widened_system(cfg)
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
    """B = C: swapping x and y keeps the pattern, and every solution of
    the widened system has [l m n] = [m l n] without a row saying so,
    also where the solution line moves, as at [1 3 4] = [3 1 4]."""
    cfg = TripleConfig(closed_form_parameters(5), (2, 1, 1))
    sys_ = widened_system(cfg)
    space = solve(sys_).space
    index = sys_.names.index
    for vec in (space.particular,) + space.basis:
        for l, m, n in sys_.names:
            assert vec[index((l, m, n))] == vec[index((m, l, n))]
    assert space.basis[0][index((3, 1, 4))] != 0


def test_all_distinct_classes_add_nothing():
    """Widening adds the Krein rows and nothing else to the row oracle's
    base system, for (1,2,3) and for every other pattern alike."""
    params = closed_form_parameters(5)
    for abc in patterns(params):
        cfg = TripleConfig(params, abc)
        base = rows_oracle.build_base_system(cfg)
        wide = widened_system(cfg)
        krein = len(vanishing_tuples(params))
        assert wide.rows[:len(base.rows)].tolist() == base.rows.tolist()
        assert wide.kinds == base.kinds + ("krein",) * krein


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


def direct_krein_rows(sys_, tuples):
    """Krein rows and right-hand sides, each entry its own product."""
    Q = sys_.config.params.Q
    A, B, C = sys_.config.abc
    rows = tuple(tuple(Q[l][r] * Q[m][s] * Q[n][t]
                       for l, m, n in sys_.names)
                 for r, s, t in tuples)
    rhs = tuple(-(Q[0][r] * Q[A][s] * Q[C][t]
                  + Q[A][r] * Q[0][s] * Q[B][t]
                  + Q[C][r] * Q[B][s] * Q[0][t])
                for r, s, t in tuples)
    return rows, rhs


def reference_integer_rows(rows, rhs):
    """Each row (a list) and its right-hand side times their lcm, via
    Fraction."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        denom = 1
        for c in row + (b,):
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        out_rows.append([int(c * denom) for c in row])
        out_rhs.append(int(b * denom))
    return out_rows, tuple(out_rhs)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_krein_rows_equal_the_direct_products(t):
    """Each Krein row is its Fraction equation times the lcm of its
    denominators."""
    params = closed_form_parameters(t)
    tuples = vanishing_tuples(params)
    for abc in patterns(params):
        krein = only(widened_system(TripleConfig(params, abc)), ("krein",))
        assert (krein.rows.tolist(), krein.rhs) == reference_integer_rows(
            *direct_krein_rows(krein, tuples))


def assert_krein_rows_match_the_direct_products(params):
    """`_krein_rows` against each row's Fraction products: the held row is
    the rational row times the lcm of its denominators, and that row times
    g0 is the row times den^3."""
    tuples, _, g0s, block = triples._krein_rows(params)
    assert block.ndim == 2 and not block.flags.writeable
    rows = block.tolist()
    assert tuples == vanishing_tuples(params)
    den = math.lcm(*(x.denominator for row in params.Q for x in row))
    sys_ = widened_system(TripleConfig(params, (2, 1, 1)))
    direct = direct_krein_rows(sys_, tuples)[0]
    assert rows == reference_integer_rows(direct, (0,) * len(direct))[0]
    assert all(type(x) is int for row in rows for x in row)
    for g0, row, exact in zip(g0s, rows, direct):
        assert [x * g0 for x in row] == [x * den ** 3 for x in exact]
        assert g0 == math.gcd(den ** 3, *(int(x * den ** 3) for x in exact))
    return rows


@pytest.mark.parametrize("t", list(range(3, 52, 2)) + [101, 103, 151])
def test_krein_rows_equal_a_pure_python_reference(t):
    """Every odd t <= 51 and both sides of the int64 / Python int switch:
    at t = 101 every product of three entries of den * Q fits int64 and
    the store holds an int64 block; at t = 103 it may not, and the block
    holds Python ints."""
    params = closed_form_parameters(t)
    rows = assert_krein_rows_match_the_direct_products(params)
    assert triples._last["params"] is params
    block = triples._last["krein"][3]
    assert block.dtype == (np.int64 if t <= 101 else object)
    if t == 151:
        assert max(abs(x) for row in rows for x in row).bit_length() == 66


def test_krein_rows_of_a_doctored_q_equal_a_pure_python_reference():
    """With Q's first row divided by 11, den gains a factor 11 that only
    that row needs: every inner entry of den * Q carries it, and g0 takes
    it up, so the held rows are those of the undoctored Q."""
    params = closed_form_parameters(7)
    q = params.Q
    doctored = replace(params, Q=(tuple(Fraction(x, 11) for x in q[0]),)
                       + q[1:])
    rows = assert_krein_rows_match_the_direct_products(doctored)
    assert rows == triples._krein_rows(params)[3].tolist()


def test_krein_scaling_clears_the_right_hand_side_denominator():
    """With Q's first row divided by 11 only the right-hand sides gain a
    denominator; the scale must clear it as well."""
    params = closed_form_parameters(7)
    q = params.Q
    doctored = replace(params, Q=(tuple(Fraction(x, 11) for x in q[0]),)
                       + q[1:])
    krein = only(widened_system(TripleConfig(doctored, (2, 1, 1))),
                 ("krein",))
    direct = direct_krein_rows(krein, vanishing_tuples(params))
    assert any(b.denominator % 11 == 0 for b in direct[1])
    assert (krein.rows.tolist(), krein.rhs) == reference_integer_rows(*direct)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_every_row_is_built_in_ints(t):
    """Rows are an int64 matrix and right-hand sides Python ints; solving
    still returns Fractions."""
    params = closed_form_parameters(t)
    for abc in patterns(params):
        sys_ = widened_system(TripleConfig(params, abc))
        assert sys_.rows.dtype == np.int64
        assert all(type(b) is int for b in sys_.rhs)
        space = solve(sys_).space
        assert all(type(x) is Fraction for x in space.particular)
        assert all(type(x) is Fraction for vec in space.basis for x in vec)


@pytest.mark.parametrize("t", [3, 101, 103, 151])
def test_rows_are_one_read_only_integer_matrix(t):
    """A system's rows are one read-only 2-D ndarray, int64 up to t = 101
    and Python ints in an object array from t = 103, equal entry for entry
    to the row oracle's rows; right-hand sides, kinds and names are equal
    field by field."""
    params = closed_form_parameters(t)
    for abc in [(2, 1, 1), (1, 1, 2), (4, 4, 4)]:
        cfg = TripleConfig(params, abc)
        sys_ = widened_system(cfg)
        rows = sys_.rows
        assert isinstance(rows, np.ndarray)
        assert rows.shape == (len(sys_.rhs), 64)
        assert not rows.flags.writeable
        assert rows.dtype == (np.int64 if t <= 101 else object)
        assert all(type(x) is int for x in rows.flat) == (t > 101)
        assert_same_system(sys_, genuine(rows_oracle.widened_system(cfg)))


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
        pick = {name: vec[sys_.names.index(name)]
                for name in ((1, 3, 4), (1, 1, 2), (1, 1, 4), (1, 2, 3))}
        return (pick[(1, 3, 4)] - t * pick[(1, 1, 2)]
                - Fraction(t - 1, 2) * (pick[(1, 1, 4)] + pick[(1, 2, 3)]))

    assert functional(space.particular) == 0
    for vec in space.basis:
        assert functional(vec) == 0


def reference_solve(sys_):
    """Fraction elimination on all 64 columns: (space, forced, free
    names)."""
    space = oracle.solve_linear(sys_.rows.tolist(), sys_.rhs,
                                len(sys_.names))
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
    if form in ("proof", "symmetry"):
        sys_ = proof_system(t, abc)
        return sys_ if form == "proof" else only(sys_, ("symmetry",))
    sys_ = widened_system(TripleConfig(closed_form_parameters(t), abc))
    if form == "krein-first":
        return krein_first(sys_)
    if form == "reversed":
        return reordered(sys_, reversed(range(len(sys_.rows))))
    return only(sys_, ("sum", "zero")) if form == "sum-zero" else sys_


@pytest.mark.parametrize("t,abc,form,dimension", [
    (3, (2, 1, 1), "widened", 0), (3, (1, 2, 3), "widened", 0),
    (3, (4, 4, 4), "widened", 1), (5, (2, 2, 2), "widened", 0),
    (5, (2, 1, 1), "widened", 1), (5, (4, 4, 4), "widened", 1),
    (7, (2, 2, 2), "proof", 6), (7, (2, 1, 1), "proof", 9),
    (7, (2, 2, 2), "symmetry", 20),
    (3, (2, 1, 1), "krein-first", 0), (3, (2, 1, 1), "reversed", 0),
    (3, (2, 1, 1), "sum-zero", 1),
    (51, (1, 1, 2), "krein-first", 1), (51, (1, 1, 2), "reversed", 1),
    (51, (1, 1, 2), "sum-zero", 2)])
def test_solve_matches_64_column_elimination(t, abc, form, dimension):
    """Elimination on the live columns gives the 64-column result, field
    for field, whatever the order or kinds of the rows; the
    many-free-column systems pin the free index order. The widened
    (2,1,1) and (1,2,3) systems reduce to rows that are scalar multiples
    of each other, which the elimination drops."""
    sys_ = differential_system(t, abc, form)
    sol = assert_matches_reference(sys_)
    assert sol.space.dimension == dimension


def fields(sol):
    """Every field of a solution, the forced map in its order."""
    space = sol.space
    return (space.particular, space.basis, space.free_indices,
            list(sol.forced.items()), sol.residual_free)


def test_symmetry_rows_change_no_solution():
    """All 799 non-vacuous (t, pattern) systems for odd t <= 51: `solve`
    and `nonneg_force` give the same results, field for field, on the
    widened system and on the row oracle's, which adds the slot-swap
    identities back. So every symmetry row lies in the span of the
    triple equations."""
    seen = swapped = 0
    for t in range(3, 52, 2):
        params = closed_form_parameters(t)
        for abc in patterns(params):
            cfg = TripleConfig(params, abc)
            sys_ = widened_system(cfg)
            with_symmetry = rows_oracle.widened_system(cfg)
            swapped += "symmetry" in with_symmetry.kinds
            sol, ref = solve(sys_), solve(with_symmetry)
            assert fields(sol) == fields(ref)
            assert (fields(nonneg_force(sys_, sol))
                    == fields(nonneg_force(with_symmetry, ref)))
            seen += 1
    assert seen == 799
    assert swapped > 0


def hand_system(rows):
    """A t = 5 system from ({index: coefficient}, rhs) pairs, with every
    unknown from 32 on killed by a zero row."""
    rows = list(rows) + [({v: 1}, 0) for v in range(32, 64)]
    return system(TripleConfig(closed_form_parameters(5), (2, 2, 2)),
                  triples._names(4),
                  [[row.get(v, 0) for v in range(64)] for row, _ in rows],
                  [b for _, b in rows], ("sum",) * len(rows))


def live_columns(sys_) -> list:
    """The unknowns that no row with one nonzero entry and right-hand
    side 0 kills, in order."""
    killed = {int(np.flatnonzero(row)[0])
              for row, b in zip(sys_.rows, sys_.rhs)
              if not b and np.count_nonzero(row) == 1}
    return [v for v in range(len(sys_.names)) if v not in killed]


def live_matrix(sys_) -> tuple:
    """(A, b, the cached entry of A): A the rows of `sys_` that kill
    nothing at its live columns, as an ndarray, and b their right-hand
    sides."""
    rest = [i for i, (row, x) in enumerate(zip(sys_.rows, sys_.rhs))
            if x or np.count_nonzero(row) != 1]
    a = sys_.rows[np.ix_(rest, live_columns(sys_))]
    data = a.tobytes() if a.dtype != object else tuple(a.ravel().tolist())
    return a, [sys_.rhs[i] for i in rest], triples._echelon(data, a.shape)


def dependent_sum_rows(d) -> set:
    """The 3 d - 1 sum rows that are fixed sums of the others: [l . n] at
    l = d, then [l m .] at l = d or m = d."""
    last, d2 = d - 1, d * d
    return ({d2 + last * d + n for n in range(d)}
            | {2 * d2 + l * d + m for l in range(d) for m in range(d)
               if last in (l, m)})


def family_systems():
    """The 799 non-vacuous widened systems for odd t <= 51."""
    for t in range(3, 52, 2):
        params = closed_form_parameters(t)
        for abc in patterns(params):
            yield widened_system(TripleConfig(params, abc))


def reordered(sys_, order):
    """`sys_` with its rows in `order`."""
    order = list(order)
    return system(sys_.config, sys_.names, sys_.rows[order],
                  [sys_.rhs[i] for i in order],
                  [sys_.kinds[i] for i in order])


def krein_first(sys_):
    """`sys_` with its Krein rows moved in front of the sum rows."""
    return reordered(sys_, sorted(range(len(sys_.rows)),
                                  key=lambda i: sys_.kinds[i] != "krein"))


@pytest.mark.parametrize("t,abc", [
    (3, (2, 1, 1)), (3, (1, 2, 3)), (5, (2, 1, 1)), (5, (2, 2, 2))])
def test_solve_skips_the_dependent_sum_rows(t, abc):
    """The 3 d - 1 sum rows that are fixed sums of the others carry
    nothing: without them, with the Krein rows first or with every row
    reversed, the system has the same solution, field for field, as
    Fraction elimination on all 64 columns gives."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(t), abc))
    dependent = dependent_sum_rows(4)
    sol = assert_matches_reference(sys_)
    for other in (reordered(sys_, [i for i in range(len(sys_.rows))
                                   if i not in dependent]),
                  krein_first(sys_),
                  reordered(sys_, reversed(range(len(sys_.rows))))):
        assert fields(solve(other)) == fields(sol)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kept_sum_rows_are_a_basis_of_all_of_them(d):
    """The 3 d^2 - 3 d + 1 kept sum rows are independent and have the rank
    of all 3 d^2, so the others are fixed sums of them."""
    _, members, block = triples._sum_rows(d)
    sums = block[:len(members)].tolist()
    kept = [i for i in range(len(sums)) if i not in dependent_sum_rows(d)]
    rank = len(oracle.rref_rows([list(map(Fraction, row)) for row in sums]))
    assert len(oracle.rref_rows([list(map(Fraction, sums[i]))
                                 for i in kept])) == len(kept) == rank
    assert rank == 3 * d * d - 3 * d + 1


def test_rows_of_either_sign_reduce_to_one():
    """2 [4] + 2 [5] = 1, -4 [4] - 4 [5] = -2 and 6 [4] + 6 [5] = 3 are
    one equation, [4] + [5] = 1/2."""
    sys_ = hand_system([({4: 2, 5: 2}, 1), ({4: -4, 5: -4}, -2),
                        ({4: 6, 5: 6}, 3)])
    sol = assert_matches_reference(sys_)
    assert sol.space.particular[4] == Fraction(1, 2)


def test_a_class_with_a_killed_unknown_is_all_zero():
    """[3] = [9] and [3] = 0, so [3] + [5] = 2 leaves [5] = 2 and
    [9] = 0."""
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
    """[20] = [30], [25] = [26] and [20] = [25] tie {20, 25, 26, 30}
    together; with [20] + [28] = 1 the free unknown is 30, the largest
    index of the null vector."""
    sys_ = hand_system([({20: 1, 30: -1}, 0), ({25: 1, 26: -1}, 0),
                        ({20: 1, 25: -1}, 0), ({20: 1, 28: 1}, 1)]
                       + [({v: 1}, 0) for v in range(32)
                          if v not in (20, 25, 26, 28, 30)])
    sol = assert_matches_reference(sys_)
    assert sol.space.free_indices == (30,)


@pytest.mark.parametrize("live", [(), (5,)], ids=["none", "one"])
def test_a_system_with_at_most_one_live_unknown_is_solved(live):
    """Zero rows kill every unknown but `live`; 2 [5] = 6 is then the
    only equation left, or 0 = 0."""
    sys_ = hand_system([({5: 2}, 6 if live else 0)]
                       + [({v: 1}, 0) for v in range(32) if v not in live])
    sol = assert_matches_reference(sys_)
    assert sol.space.dimension == 0
    assert sol.forced[sys_.names[5]] == (3 if live else 0)


def test_a_system_whose_rows_all_reduce_away_is_solved():
    sys_ = hand_system([({0: 1, 1: -1}, 0), ({3: 1, 2: -1}, 0),
                        ({0: 1, 1: -1, 2: 2, 3: -2}, 0), ({1: 1, 0: -1}, 0)]
                       + [({v: 1}, 0) for v in range(4, 32)])
    sol = assert_matches_reference(sys_)
    assert sol.space.free_indices == (1, 3)
    assert not any(sol.space.particular)


def test_elimination_equals_fraction_rref_on_every_family_system():
    """The 799 non-vacuous (t, pattern) systems for odd t <= 51 meet 113
    live coefficient matrices A, and `solve` builds one cached entry for
    each. On every system, Gauss-Jordan over Fraction on the rows [A | b]
    finds the entry's pivot columns, and each coefficient row c with the
    right-hand side y . b appended, divided by its pivot, is that
    elimination's row."""
    triples._echelon.cache_clear()
    seen = 0
    for seen, sys_ in enumerate(family_systems(), 1):
        solve(sys_)
        a, b, (pivots, coef, ys, _) = live_matrix(sys_)
        exact = [list(map(Fraction, row)) + [Fraction(x)]
                 for row, x in zip(a.tolist(), b)]
        assert pivots == oracle.rref_rows(exact)
        assert [[Fraction(x, c[p]) for x in (*c, sum(
                    m * b[i] for i, m in zip(*y)))]
                for p, c, y in zip(pivots, coef, ys)] == exact[:len(pivots)]
    info = triples._echelon.cache_info()
    assert seen == 799 and info.misses == info.currsize == 113


def test_cached_echelon_equals_the_fraction_rref_of_every_family_live_set():
    """Each of the 113 cached entries the family systems meet, one per
    live coefficient matrix A: its pivot columns are those of Gauss-Jordan
    over Fraction on A, each coefficient row c divided by its pivot is
    that elimination's row, and its combination y of A's rows gives
    c = y A. Its null combinations z have z A = 0 in integers, and there
    are rows(A) - rank(A) of them."""
    triples._echelon.cache_clear()
    matrices = {}
    for sys_ in family_systems():
        a = live_matrix(sys_)[0]
        matrices[a.tobytes(), a.shape] = sys_
    assert len(matrices) == triples._echelon.cache_info().misses == 113
    for sys_ in matrices.values():
        a, _, (pivots, coef, ys, zs) = live_matrix(sys_)
        a = a.tolist()
        exact = [list(map(Fraction, row)) for row in a]
        assert pivots == oracle.rref_rows(exact)
        assert [[Fraction(x, row[c]) for x in row]
                for c, row in zip(pivots, coef)] == exact[:len(pivots)]
        for c, y in zip(coef, ys):
            assert [sum(x * a[i][j] for i, x in zip(*y))
                    for j in range(len(c))] == list(c)
        for z in zs:
            assert [sum(x * a[i][j] for i, x in zip(*z))
                    for j in range(len(a[0]))] == [0] * len(a[0])
        assert len(zs) == len(a) - len(pivots)
    assert triples._echelon.cache_info().misses == 113


def test_a_killed_kept_sum_row_off_by_one_is_inconsistent():
    """t = 3, (2,1,1): 1 added to the right-hand sides of the three sum
    rows through the killed unknown [2 2 2], all of them kept rows (none
    a fixed sum of the others) with right-hand side 0, so all their
    members are killed and at the live columns each reads 0 = 1. `solve`
    raises Inconsistent, cold and again with the entry of its live matrix
    cached, as Fraction elimination on all 64 columns does."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(3), (2, 1, 1)))
    v = sys_.names.index((2, 2, 2))
    assert v not in live_columns(sys_)
    members = triples._sum_rows(4)[1]
    through = [i for i, mem in enumerate(members) if v in mem]
    assert len(through) == 3 and not set(through) & dependent_sum_rows(4)
    rhs = list(sys_.rhs)
    for i in through:
        assert rhs[i] == 0
        rhs[i] = 1
    shifted = system(sys_.config, sys_.names, sys_.rows, rhs, sys_.kinds)
    with pytest.raises(Inconsistent, match="system has no solution"):
        reference_solve(shifted)
    triples._echelon.cache_clear()
    for _ in range(2):
        with pytest.raises(Inconsistent, match="system has no solution"):
            solve(shifted)
    assert triples._echelon.cache_info().hits == 1


def hamming_params(d, q):
    """H(d, q) is self-dual: its Krein array is its intersection array
    {(d-i)(q-1); i}."""
    return derive_parameters(KreinArray.make(
        [(d - i) * (q - 1) for i in range(d)], range(1, d + 1)))


@pytest.mark.parametrize("d,q", [(3, 2), (3, 3), (4, 3), (3, 4), (4, 2)])
def test_hamming_systems_match_elimination_on_every_column(d, q):
    """Off the family, at d = 3 and d = 4: every non-vacuous pattern's
    widened system solves, on a cold cache and again on a warm one, to
    the integer elimination of all its rows on all d^3 columns, field for
    field. (That elimination is checked against Fraction Gauss-Jordan in
    test_linalg; the Fraction oracle itself takes about 10 s on the 52
    systems of H(4, 3).)"""
    params = hamming_params(d, q)
    for abc in patterns(params):
        sys_ = widened_system(TripleConfig(params, abc))
        space = solve_integer([row + [b] for row, b
                               in zip(sys_.rows.tolist(), sys_.rhs)], d ** 3)
        triples._echelon.cache_clear()
        for info in ("misses", "hits"):
            sol = solve(sys_)
            assert getattr(triples._echelon.cache_info(), info) == 1
            assert sol.space == space
            assert sol.forced == {nm: x for nm, x, *col
                                  in zip(sys_.names, space.particular,
                                         *space.basis) if not any(col)}
            assert sol.residual_free == tuple(sys_.names[f]
                                              for f in space.free_indices)


@pytest.mark.parametrize("row", [28, 29, 30, 31, 35, 39, 43, 44, 45, 46, 47])
def test_a_dependent_sum_row_off_by_one_is_inconsistent(row):
    """1 added to the right-hand side of one of the 11 sum rows that are
    fixed sums of the others: `solve` raises Inconsistent, cold and again
    with the entry of its live matrix cached, as Fraction elimination on
    all 64 columns does."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(5), (2, 1, 1)))
    assert row in dependent_sum_rows(4)
    rhs = list(sys_.rhs)
    rhs[row] += 1
    shifted = system(sys_.config, sys_.names, sys_.rows, rhs, sys_.kinds)
    with pytest.raises(Inconsistent, match="system has no solution"):
        reference_solve(shifted)
    triples._echelon.cache_clear()
    for _ in range(2):
        with pytest.raises(Inconsistent, match="system has no solution"):
            solve(shifted)
    assert triples._echelon.cache_info().hits == 1


def test_a_unit_row_of_any_kind_kills_its_unknown():
    """-3 [3] = 0 tagged "krein" kills [3] as a zero row does, so only
    [3] + [5] = 2, read as [5] = 2, is left to solve; tagged "zero", it
    gives the same solution."""
    sys_ = hand_system([({3: 1, 5: 1}, 2), ({3: -3}, 0)])
    tagged = system(sys_.config, sys_.names, sys_.rows, sys_.rhs,
                    ("sum", "krein") + sys_.kinds[2:])
    sol = assert_matches_reference(tagged)
    assert sol.forced[sys_.names[3]] == 0
    assert sol.forced[sys_.names[5]] == 2
    assert 3 not in live_columns(tagged)
    assert len(live_matrix(tagged)[0]) == 1
    zero = system(sys_.config, sys_.names, sys_.rows, sys_.rhs,
                  ("sum", "zero") + sys_.kinds[2:])
    assert fields(solve(zero)) == fields(sol)


@pytest.mark.parametrize("t,abc", [(3, (2, 1, 1)), (51, (1, 1, 2))])
def test_a_late_inconsistent_krein_row_is_caught(t, abc):
    """1 added to the right-hand side of the last Krein row: the rows
    before it already have the rank of the whole system at the live
    columns, so only its right-hand side is off, and the perturbed system
    has the live matrix of the unperturbed one. `solve` reads the cached
    entry, runs no elimination, and raises Inconsistent, as Fraction
    elimination on all 64 columns does."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(t), abc))
    triples._echelon.cache_clear()
    dimension = solve(sys_).space.dimension
    last = max(i for i, kind in enumerate(sys_.kinds) if kind == "krein")
    a = live_matrix(sys_)[0].tolist()
    assert a[-1] == sys_.rows[last, live_columns(sys_)].tolist()
    assert len(oracle.rref_rows([list(map(Fraction, row))
                                 for row in a[:-1]])) == len(a[0]) - dimension
    rhs = list(sys_.rhs)
    rhs[last] += 1
    shifted = system(sys_.config, sys_.names, sys_.rows, rhs, sys_.kinds)
    with pytest.raises(Inconsistent, match="system has no solution"):
        reference_solve(shifted)
    with pytest.raises(Inconsistent, match="system has no solution"):
        solve(shifted)
    info = triples._echelon.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("t,abc", [
    (3, (2, 1, 1)), (5, (2, 2, 2)), (51, (1, 1, 2))])
def test_a_warm_solve_makes_no_combine_call(monkeypatch, t, abc):
    """Clearing every row took 160, 156 and 205 `_combine` calls on these
    systems. Once the first solve has built the entry of the live
    matrix, a second solve of the same system, or of a fresh build of it,
    clears no row at all."""
    cfg = TripleConfig(closed_form_parameters(t), abc)
    sol = solve(widened_system(cfg))
    calls = []
    combine = linalg._combine

    def counting(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(linalg, "_combine", counting)
    assert fields(solve(widened_system(cfg))) == fields(sol)
    assert calls == []


@pytest.mark.parametrize("t", [103, 151])
def test_object_rows_solve_alike_cold_and_warm(t):
    """From t = 103 the rows are Python ints in an object array, and the
    cache key is their values: a cold solve, then a warm solve of a fresh
    build of the same system, each equal Fraction elimination on all 64
    columns, field for field."""
    cfg = TripleConfig(closed_form_parameters(t), (2, 1, 1))
    triples._echelon.cache_clear()
    for info in ("misses", "hits"):
        sys_ = widened_system(cfg)
        assert sys_.rows.dtype == object
        assert_matches_reference(sys_)
        assert getattr(triples._echelon.cache_info(), info) == 1


def test_systems_one_krein_entry_apart_share_no_entry():
    """Two t = 151 systems whose live matrices differ in one Krein entry
    past 2^63, by 1: each solve misses the cache and leaves its own
    entry, and each agrees with Fraction elimination on all 64 columns."""
    sys_ = widened_system(TripleConfig(closed_form_parameters(151),
                                       (2, 1, 1)))
    live = live_columns(sys_)
    i, j = next((i, j) for i, kind in enumerate(sys_.kinds) for j in live
                if kind == "krein" and abs(sys_.rows[i, j]) > 2 ** 63)
    rows = sys_.rows.copy()
    rows[i, j] += 1
    other = system(sys_.config, sys_.names, rows, sys_.rhs, sys_.kinds)
    triples._echelon.cache_clear()
    for one in (sys_, other):
        got = outcome(solve, one)
        ref = outcome(reference_solve, one)
        assert (ref is Inconsistent if got is Inconsistent
                else (got.space, got.forced, got.residual_free) == ref)
    info = triples._echelon.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)


def outcome(fn, *args):
    """The result, or Inconsistent if that is raised."""
    try:
        return fn(*args)
    except Inconsistent:
        return Inconsistent


def certified(a, b, y, c, v, value) -> bool:
    """Whether the integer combination y, (row index, multiplier) pairs,
    of the rows a with right-hand sides b proves that unknown v is value:
    y a = c e_v and y . b = c value, with c != 0. Integer products and
    comparisons only."""
    combo = [sum(x * a[i][j] for i, x in y) for j in range(len(a[0]))]
    return (c != 0 and combo == [c * (j == v) for j in range(len(combo))]
            and sum(x * b[i] for i, x in y) == c * value)


def certificates(sys_):
    """(A, b, [(y, c, v, name)]): one certificate per live unknown that
    linear algebra pins, read off the cached entry: the reduced row with
    pivot v and no other nonzero is c e_v, and its combination is y."""
    a, b, (pivots, coef, ys, _) = live_matrix(sys_)
    live = live_columns(sys_)
    return a.tolist(), b, [(list(zip(*y)), row[v], v, sys_.names[live[v]])
                           for v, row, y in zip(pivots, coef, ys)
                           if row.count(0) == len(row) - 1]


@pytest.mark.parametrize("source", ["family", "H(3,3)", "H(4,3)"])
def test_linearly_forced_values_have_integer_certificates(source):
    """Every live unknown that `solve` pins has a certificate that the
    integer checker accepts, and every pinned live unknown is covered;
    with any one multiplier of y raised by 1 the checker refuses it."""
    if source == "family":
        systems = list(family_systems())
    else:
        params = hamming_params(*map(int, source[2:-1].split(",")))
        systems = [widened_system(TripleConfig(params, abc))
                   for abc in patterns(params)]
    for sys_ in systems:
        sol = solve(sys_)
        a, b, certs = certificates(sys_)
        live = {sys_.names[v] for v in live_columns(sys_)}
        assert {name for *_, name in certs} == live & set(sol.forced)
        for y, c, v, name in certs:
            assert certified(a, b, y, c, v, sol.forced[name])
            for k, (i, x) in enumerate(y):
                assert not certified(a, b, y[:k] + [(i, x + 1)] + y[k + 1:],
                                     c, v, sol.forced[name])


def refuted(a, b, z) -> bool:
    """Whether the integer combination z, (row index, multiplier) pairs,
    of the rows a with right-hand sides b proves that they have no
    solution: z a = 0 and z . b != 0. Integer products and comparisons
    only."""
    return (all(sum(x * a[i][j] for i, x in z) == 0
                for j in range(len(a[0])))
            and sum(x * b[i] for i, x in z) != 0)


def test_rejections_have_integer_certificates():
    """1 added to each right-hand side in turn of one family system each at
    t = 3, 51 and 103 (where the rows are Python ints), and of every
    H(3,3) system: each perturbed system that `solve` rejects, over sum,
    zero and Krein rows, has a cached null combination z that the integer
    checker accepts. With one multiplier of z set to 0, or raised by 1
    where z has more than one, the checker refuses it; a one-entry z is a
    zero row of A, which any nonzero multiple refutes as well."""
    systems = [widened_system(TripleConfig(closed_form_parameters(t), abc))
               for t, abc in ((3, (2, 1, 1)), (51, (1, 1, 2)),
                              (103, (2, 1, 1)))]
    params = hamming_params(3, 3)
    systems += [widened_system(TripleConfig(params, abc))
                for abc in patterns(params)]
    kinds = set()
    for sys_ in systems:
        for row, kind in enumerate(sys_.kinds):
            rhs = list(sys_.rhs)
            rhs[row] += 1
            shifted = system(sys_.config, sys_.names, sys_.rows, rhs,
                             sys_.kinds)
            if outcome(solve, shifted) is not Inconsistent:
                continue
            kinds.add(kind)
            a, b, entry = live_matrix(shifted)
            a = a.tolist()
            certs = [z for z in (list(zip(*z)) for z in entry[3])
                     if refuted(a, b, z)]
            assert certs
            z = certs[0]
            for k, (i, x) in enumerate(z):
                assert not refuted(a, b, z[:k] + [(i, 0)] + z[k + 1:])
                if len(z) > 1:
                    assert not refuted(a, b, z[:k] + [(i, x + 1)] + z[k + 1:])
    assert kinds == {"sum", "zero", "krein"}


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
    poisoned = system(cfg, sys_.names, sys_.rows.tolist() + [pin],
                      sys_.rhs + (-1,), sys_.kinds + ("sum",))
    with pytest.raises(Infeasible):
        nonneg_force(poisoned, solve(poisoned))


def test_forcing_rejects_more_than_one_free_parameter():
    sys_ = proof_system(7, (2, 2, 2))
    with pytest.raises(HighNullity, match="dimension 6"):
        nonneg_force(sys_, solve(sys_))


def test_crossed_bounds_name_both_binding_unknowns():
    """[1 1 1] + [1 1 2] = -1 with every other unknown 0: the free [1 1 2]
    must be >= 0 for itself and <= -1 for [1 1 1]."""
    names = triples._names(4)
    rows = [tuple(int(nm in ((1, 1, 1), (1, 1, 2))) for nm in names)]
    rows += [tuple(int(nm == other) for nm in names) for other in names[2:]]
    sys_ = system(TripleConfig(closed_form_parameters(5), (2, 2, 2)),
                  names, rows, (-1,) + (0,) * 62, ("sum",) * 63)
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


def test_triple_pattern_is_a_tuple_of_python_ints(scheme_t3):
    """At 200 seeded triples the pattern is three exact Python ints, the
    labels of (x,y), (y,u) and (u,x): a numpy scalar would print as
    np.int8(2) in a failure message."""
    rng = random.Random(25)
    for _ in range(200):
        x, y, u = rng.sample(range(112), 3)
        abc = triple_pattern(scheme_t3, x, y, u)
        assert type(abc) is tuple
        assert all(type(v) is int for v in abc)
        assert abc == tuple(scheme_t3.rel.tolist()[i][j]
                            for i, j in ((x, y), (y, u), (u, x)))


def boundary_variants(tensor, abc):
    """The boundary of a counted tensor in dtypes other than int64, each
    as counted and with one boundary entry off.

    A float64 5e-324 has the bytes of the int64 1, so at the three
    boundary cells that hold 1 it makes the boundary's bytes those of the
    expected int64 vector, and must be a violation; a float64 1.0 there
    must not. A bool tensor holds the boundary's 0 and 1 as they are; an
    object entry past 2^63 fits no int64."""
    A, B, C = abc
    ones = ((0, A, C), (A, 0, B), (C, B, 0))
    floats = tensor.astype(np.float64)
    tiny = floats.copy()
    for one in ones:
        tiny[one] = 5e-324
    narrow = tensor.astype(np.int32)
    narrow_off = narrow.copy()
    narrow_off[0, 0, 1] = 3
    flags = tensor.astype(bool)
    flags_off = flags.copy()
    flags_off[ones[0]] = False
    huge = tensor.astype(object)
    huge[0, 1, 1] = 2 ** 63 + 1
    nested = tensor.tolist()
    nested_off = tensor.tolist()
    nested_off[1][0][2] -= 1
    return (floats, tiny, narrow, narrow_off, flags, flags_off, huge,
            nested, nested_off)


def test_boundary_check_equals_the_oracle_in_any_dtype(scheme_t3, params_t3):
    """On all 31 non-vacuous t = 3 patterns, tensors of float64, int32,
    bool and object dtype and nested lists give the row oracle's witness
    list, each count as the tensor holds it: a byte compare that ran
    across dtypes would pass 5e-324 for 1 and fail 1.0, and a count read
    as an int would list 5e-324 as 0."""
    assert len(patterns(params_t3)) == 31
    flagged = 0
    for abc in patterns(params_t3):
        tensor = direct_triple_counts(scheme_t3, *find_triple(scheme_t3, abc))
        for variant in boundary_variants(tensor, abc):
            bad = boundary_violations(abc, variant)
            assert bad == rows_oracle.boundary_violations(abc, variant)
            assert all(type(v) is int for cell, got, w in bad
                       for v in cell + (w,))
            assert all(type(got) in (int, float, bool) for _, got, _ in bad)
            flagged += bool(bad)
    assert flagged == 31 * 5
    A, B, C = abc
    tiny = tensor.astype(np.float64)
    tiny[0, A, C] = 5e-324
    assert boundary_violations(abc, tiny) == [((0, A, C), 5e-324, 1)]


def test_counted_mixed_pattern_values(scheme_t3, params_t3):
    x, y, u = find_triple(scheme_t3, (2, 1, 1))
    tensor = direct_triple_counts(scheme_t3, x, y, u)
    assert tensor[1][1][2] == 1
    assert tensor[2][2][1] == 0
    sys_ = widened_system(TripleConfig(params_t3, (2, 1, 1)))
    assert residuals(sys_, tensor) == []


def test_counts_satisfy_every_widened_equation(scheme_t3, params_t3):
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
    """On each t = 3 pattern, every one of the 64 inner cells moved by +1
    and by -1, one at a time, and a cube of moves that no sum row sees."""
    kinds = set()
    inner = list(itertools.product(range(1, 5), repeat=3))
    for abc in patterns(params_t3):
        sys_ = widened_system(TripleConfig(params_t3, abc))
        checker = integer_residual_checker(sys_)
        tensor = direct_triple_counts(scheme_t3, *find_triple(scheme_t3, abc))
        assert checker(tensor) is None
        singles = [{lmn: delta} for lmn in inner for delta in (1, -1)]
        for change in singles + [live_cube(sys_)]:
            broken = [[list(r) for r in plane] for plane in tensor]
            for (l, m, n), delta in change.items():
                broken[l][m][n] += delta
            bad = checker(broken)
            assert bad is not None
            assert bad == reference_first_bad_row(sys_, broken)
            kinds.add(sys_.kinds[bad])
    assert kinds == {"sum", "krein"}


def integer_kernel(sys_):
    """The solution space of sys_'s rows with a zero right-hand side, as
    integer vectors."""
    space = solve_integer([row + [0] for row in sys_.rows.tolist()],
                          len(sys_.names))
    return [np.array([int(x * math.lcm(*(y.denominator for y in vec)))
                      for x in vec]) for vec in space.basis]


def test_checker_finds_the_reference_first_bad_krein_row(scheme_t3,
                                                         params_t3):
    """On each of the 31 non-vacuous t = 3 patterns, a count tensor, which
    every row holds, plus an integer vector that every sum and zero row
    annihilates and some Krein row does not. The checker and the row
    oracle name the same first violated row: the first Krein row, as on
    the sum and zero rows' solution space the Krein rows have rank 1 at
    t = 3, led by that row."""
    seen = 0
    for abc in patterns(params_t3):
        sys_ = widened_system(TripleConfig(params_t3, abc))
        checker = integer_residual_checker(sys_)
        reference = rows_oracle.integer_residual_checker(sys_)
        krein = only(sys_, ("krein",)).rows
        move = next(vec for vec in integer_kernel(only(sys_, ("sum", "zero")))
                    if krein.dot(vec).any())
        tensor = direct_triple_counts(scheme_t3, *find_triple(scheme_t3, abc))
        assert checker(tensor) is None and reference(tensor) is None
        broken = tensor.copy()
        broken[1:, 1:, 1:] += move.reshape(4, 4, 4)
        bad = checker(broken)
        assert bad == reference(broken) == sys_.kinds.index("krein")
        seen += 1
    assert seen == 31


def test_a_row_of_negative_coefficients_passes_zero_counts(params_t3):
    """Every product term of an all-negative row with zero counts is
    -0.0 in float64; the row sum equals its right-hand side 0, so no row
    is violated, whatever sign of zero BLAS returns."""
    names = triples._names(params_t3.d)
    row = tuple(-1 - i for i in range(len(names)))
    sys_ = system(TripleConfig(params_t3, (2, 1, 1)), names, [row], (0,),
                  ("krein",))
    checker = integer_residual_checker(sys_)
    assert product_dtype(checker) is np.float64
    assert checker(np.zeros((5, 5, 5), dtype=np.int64)) is None
    assert checker(counts_with({(4, 4, 4): 1})) == 0


@pytest.mark.parametrize("t", [3, 5])
def test_checkers_fit_int64_for_small_t(t):
    """Every t = 3 and t = 5 checker sums in float64, exactly."""
    params = closed_form_parameters(t)
    for abc in patterns(params):
        checker = integer_residual_checker(
            widened_system(TripleConfig(params, abc)))
        assert product_dtype(checker) is np.float64


def particular_tensor(sys_):
    """A 5 x 5 x 5 tensor whose inner entries are `solve`'s particular
    solution, an integer vector in the family, and whose boundary is 0."""
    vec = solve(sys_).space.particular
    assert all(x.denominator == 1 for x in vec)
    tensor = np.zeros((5, 5, 5), dtype=np.int64)
    tensor[1:, 1:, 1:] = np.array([int(x) for x in vec]).reshape(4, 4, 4)
    return tensor


@pytest.mark.parametrize("t", [25, 51, 151])
def test_checker_names_the_oracle_row_on_near_solutions(t):
    """(1,1,2) at t = 25, 51 and 151, where a Krein row times counts up to
    the order can pass 2^63: the checker sums in Python ints, passes the
    particular solution and, with one entry moved (seeded), names the
    oracle's first bad row."""
    params = closed_form_parameters(t)
    sys_ = widened_system(TripleConfig(params, (1, 1, 2)))
    assert any(sum(map(abs, row)) * params.order + abs(b) >= 2 ** 63
               for row, b in zip(sys_.rows.tolist(), sys_.rhs))
    checker = integer_residual_checker(sys_)
    assert product_dtype(checker) is object
    reference = rows_oracle.integer_residual_checker(sys_)
    tensor = particular_tensor(sys_)
    assert checker(tensor) is reference(tensor) is None
    rng = random.Random(t)
    for _ in range(20):
        moved = tensor.copy()
        moved[tuple(rng.randint(1, 4) for _ in range(3))] += rng.choice(
            (-2, -1, 1, 3))
        bad = checker(moved)
        assert bad is not None
        assert bad == reference(moved)


def test_checker_names_a_shared_krein_row_past_int64():
    """At t = 151 four of the Krein rows, which (1,1,2) shares with every
    pattern, have entries past 2^63, so the system's rows are Python
    ints. The particular solution moved by a cube that no sum
    row sees is caught first at one of those rows, which the checker names
    as the oracle does."""
    params = closed_form_parameters(151)
    sys_ = widened_system(TripleConfig(params, (1, 1, 2)))
    assert sys_.rows.dtype == object
    wide = [i for i, row in enumerate(sys_.rows.tolist())
            if max(map(abs, row)) >= 2 ** 63]
    assert len(wide) == 4
    assert {sys_.kinds[i] for i in wide} == {"krein"}
    moved = particular_tensor(sys_)
    for (l, m, n), delta in live_cube(sys_).items():
        moved[l, m, n] += delta
    bad = integer_residual_checker(sys_)(moved)
    assert bad in wide
    assert bad == rows_oracle.integer_residual_checker(sys_)(moved)


def test_distinct_elements_required(scheme_t3):
    with pytest.raises(ValueError):
        direct_triple_counts(scheme_t3, 3, 3, 5)


def test_counts_are_a_read_only_int64_array(scheme_t3):
    tensor = direct_triple_counts(scheme_t3, 0, 1, 2)
    assert isinstance(tensor, np.ndarray)
    assert tensor.dtype == np.int64
    assert tensor.shape == (5, 5, 5)
    assert not tensor.flags.writeable
    with pytest.raises(ValueError):
        tensor[0, 0, 0] = 1


def test_checker_reads_lists_tuples_and_arrays_alike(scheme_t3, params_t3):
    """The same entries as an array, nested lists and nested tuples give
    the same answer, on the counted tensor and on broken ones."""
    for abc in patterns(params_t3):
        sys_ = widened_system(TripleConfig(params_t3, abc))
        checker = integer_residual_checker(sys_)
        tensor = direct_triple_counts(scheme_t3, *find_triple(scheme_t3, abc))
        for change in ({}, {(3, 1, 2): 1}, live_cube(sys_)):
            broken = tensor.copy()
            for lmn, delta in change.items():
                broken[lmn] += delta
            nested = broken.tolist()
            frozen = tuple(tuple(map(tuple, plane)) for plane in nested)
            answers = {checker(broken), checker(nested), checker(frozen)}
            assert len(answers) == 1
            assert (answers.pop() is None) == (not change)


# ------------------------------------- array kernel against the tuple kernel

def test_array_kernel_equals_the_nested_tuple_kernel(scheme_t3, params_t3):
    """Every ordered triple with base 0 or 57 (2 * 111 * 110 = 24,420),
    each once as counted and once with 1 to 3 entries moved by -1, +1 or
    +2 (seeded): the array equals the nested tuple entry for entry, the
    boundary witness lists are equal and hold Python ints, and the
    checker names the same first bad row as the row-by-row reference."""
    rng = random.Random(18)
    checkers = {}
    cells = list(itertools.product(range(5), repeat=3))
    seen = 0
    for x in (0, 57):
        for y, u in itertools.permutations(
                [z for z in range(112) if z != x], 2):
            seen += 1
            abc = triple_pattern(scheme_t3, x, y, u)
            new = direct_triple_counts(scheme_t3, x, y, u)
            old = rows_oracle.direct_triple_counts(scheme_t3, x, y, u)
            assert new.tolist() == [[list(r) for r in p] for p in old]
            if abc not in checkers:
                sys_ = widened_system(TripleConfig(params_t3, abc))
                checkers[abc] = (integer_residual_checker(sys_),
                                 rows_oracle.integer_residual_checker(sys_))
            checker, reference = checkers[abc]
            broken = new.copy()
            for lmn in rng.sample(cells, rng.randint(1, 3)):
                broken[lmn] += rng.choice((-1, 1, 2))
            for tensor, nested in ((new, old), (broken, broken.tolist())):
                bad = boundary_violations(abc, tensor)
                assert bad == rows_oracle.boundary_violations(abc, nested)
                assert all(type(v) is int for cell, got, want in bad
                           for v in cell + (got, want))
                assert checker(tensor) == reference(nested)
    assert seen == 24420


# ------------------------------------------- shared rows against the oracle

def genuine(sys_):
    """The system without its symmetry rows."""
    return only(sys_, ("sum", "zero", "krein"))


def test_systems_and_checkers_equal_the_per_pattern_builders():
    """All 799 non-vacuous (t, pattern) systems for odd t <= 51, in the
    order t = 3, 51, 3, 5, ..., 49: the one-entry caches are filled,
    evicted and filled again. Rows, right-hand sides and kinds equal the
    oracle's without its symmetry rows, field for field, and the checker
    names the oracle's first bad row on random tensors."""
    rng = random.Random(12)
    seen = set()
    for t in [3, 51, 3] + list(range(5, 51, 2)):
        params = closed_form_parameters(t)
        for abc in patterns(params):
            seen.add((t, abc))
            cfg = TripleConfig(params, abc)
            sys_ = widened_system(cfg)
            assert_same_system(sys_, genuine(rows_oracle.widened_system(cfg)))
            checker = integer_residual_checker(sys_)
            reference = rows_oracle.integer_residual_checker(sys_)
            for _ in range(2):
                tensor = [[[rng.randint(0, params.order) for _ in range(5)]
                           for _ in range(5)] for _ in range(5)]
                assert checker(tensor) == reference(tensor)
    assert len(seen) == 799


def edge_system(params, row, b):
    """A unit row on [1 1 1], then `row` with right-hand side b."""
    names = triples._names(params.d)
    unit = (1,) + (0,) * (len(names) - 1)
    return system(TripleConfig(params, (2, 1, 1)), names, [unit, row],
                  (0, b), ("sum", "krein"))


def padded(*entries):
    return entries + (0,) * (64 - len(entries))


def test_checker_accepts_a_row_one_below_the_int64_bound(params_t3):
    """sum |a| * order + |b| = 2^63 - 1: the matrix-wide bound is past
    2^53, so the checker sums in Python ints, and it answers as the
    oracle does."""
    order = params_t3.order
    a, b = divmod(2 ** 63 - 1, 2 * order)
    sys_ = edge_system(params_t3, padded(0, a, -a), -b)
    assert 2 * a * order + b == 2 ** 63 - 1
    checker = integer_residual_checker(sys_)
    assert product_dtype(checker) is object
    zeros = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    assert checker(zeros) == (1 if b else None)
    assert checker(zeros) == rows_oracle.integer_residual_checker(sys_)(zeros)


@pytest.mark.parametrize("row,b", [
    (padded(0, (2 ** 63 - 1) // 112), 2 ** 63 - (2 ** 63 - 1) // 112 * 112),
    (padded(0, 2 ** 63), 0),
    (padded(0, 0, -2 ** 63), 0),
    (padded(0, -2 ** 64), 1),
    (padded(0, 1), 2 ** 63),
])
def test_checker_names_the_row_at_or_past_the_int64_bound(params_t3, row, b):
    """At exactly 2^63, and for entries that int64 cannot hold at all or
    whose absolute value it cannot hold, the system's rows are Python ints
    where needed and the checker sums in Python ints: on counts 1 at
    [1 1 2] and [1 1 3] it names row 1, and on zero counts it passes
    exactly when b = 0, as the row-by-row oracle does."""
    assert params_t3.order == 112
    sys_ = edge_system(params_t3, row, b)
    checker = integer_residual_checker(sys_)
    reference = rows_oracle.integer_residual_checker(sys_)
    assert product_dtype(checker) is object
    ones = counts_with({(1, 1, 2): 1, (1, 1, 3): 1})
    assert checker(ones) == reference(ones) == 1
    zeros = counts_with({})
    assert checker(zeros) == reference(zeros) == (1 if b else None)



def counts_with(entries):
    """A 5 x 5 x 5 int64 count tensor, 0 except at the given entries."""
    tensor = np.zeros((5, 5, 5), dtype=np.int64)
    for lmn, value in entries.items():
        tensor[lmn] = value
    return tensor


def product_dtype(checker):
    """The dtype the checker sums its product in."""
    return inspect.getclosurevars(checker).nonlocals["dtype"]


@pytest.mark.parametrize("bound,dtype", [(2 ** 53 - 1, np.float64),
                                         (2 ** 53, object)])
def test_checker_sums_in_float64_below_2_53(params_t3, bound, dtype):
    """With max |a| * 64 * order + max |b| set to `bound`, the product is
    float64 exactly when the bound is below 2^53, and Python ints from
    there, and a tensor whose row sum is one short of b is caught on
    either side."""
    order = params_t3.order
    a, r = divmod(bound, 65 * order)
    b = order * a + r
    sys_ = edge_system(params_t3, padded(0, a, r - 1), b)
    assert 64 * a * order + b == bound
    tensor = counts_with({(1, 1, 2): order, (1, 1, 3): 1})
    checker = integer_residual_checker(sys_)
    assert product_dtype(checker) is dtype
    assert checker(tensor) == 1
    assert rows_oracle.integer_residual_checker(sys_)(tensor) == 1


def test_checker_sums_in_python_ints_where_float64_would_round(params_t3):
    """row . counts = 2^53 + 1 against b = 2^53: a float64 sum rounds to
    b and would pass the tensor. The bound is past 2^53, so the checker
    sums in Python ints and reports row 1, as the oracle does."""
    row = padded(0, 2 ** 47, 1)
    sys_ = edge_system(params_t3, row, 2 ** 53)
    tensor = counts_with({(1, 1, 2): 64, (1, 1, 3): 1})
    vec = tensor[1:, 1:, 1:].reshape(64)
    assert np.array(row, dtype=np.float64) @ vec.astype(np.float64) == 2 ** 53
    assert sum(a * int(x) for a, x in zip(row, vec)) == 2 ** 53 + 1
    checker = integer_residual_checker(sys_)
    assert product_dtype(checker) is object
    assert checker(tensor) == 1
    assert rows_oracle.integer_residual_checker(sys_)(tensor) == 1


def test_checkers_of_rows_no_cache_holds_match_the_oracle(scheme_t3,
                                                          params_t3):
    """Every t = 3 system is built, then one t = 5 system, which replaces
    the store's params object and its Krein rows (d, and so the sum and
    unit rows, stay). Only then are the t = 3 checkers built, and a
    checker for a hand-built copy of the (2,1,1) system. On the counted
    tensor and on broken ones each names the oracle's first bad row."""
    systems = [widened_system(TripleConfig(params_t3, abc))
               for abc in patterns(params_t3)]
    widened_system(TripleConfig(closed_form_parameters(5), (2, 1, 1)))
    two_one_one = systems[patterns(params_t3).index((2, 1, 1))]
    copy = system(two_one_one.config, two_one_one.names,
                  two_one_one.rows.tolist(), two_one_one.rhs,
                  two_one_one.kinds)
    for sys_ in systems + [copy]:
        checker = integer_residual_checker(sys_)
        oracle_checker = rows_oracle.integer_residual_checker(sys_)
        tensor = direct_triple_counts(
            scheme_t3, *find_triple(scheme_t3, sys_.config.abc))
        for change in ({}, {(3, 1, 2): 1}, live_cube(sys_)):
            broken = tensor.copy()
            for lmn, delta in change.items():
                broken[lmn] += delta
            assert checker(broken) == oracle_checker(broken)
            assert (checker(broken) is None) == (not change)
