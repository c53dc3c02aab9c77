"""Exact rational linear algebra: elimination and inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from schemeforge.linalg import (Inconsistent, RatMatrix, Singular, invert,
                                solve_linear)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
entries = st.one_of(st.integers(-5, 5), rationals)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(RatMatrix.from_rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_inversion_or_rank_defect(m):
    try:
        inv = invert(m)
    except Singular:
        # singular exactly when m x = 0 has a nonzero solution
        assert solve_linear(m, [0, 0, 0]).dimension > 0
        return
    assert oracle.matmul(m, inv) == oracle.identity(3)
    assert oracle.matmul(inv, m) == oracle.identity(3)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3),
       st.lists(rationals, min_size=3, max_size=3))
def test_solutions_satisfy_the_system(m, x):
    b = [sum(m.at(i, j) * x[j] for j in range(3)) for i in range(3)]
    space = solve_linear(m, b)
    got = list(space.particular)
    for i in range(3):
        assert sum(m.at(i, j) * got[j] for j in range(3)) == b[i]
    for vec in space.basis:
        for i in range(3):
            assert sum(m.at(i, j) * vec[j] for j in range(3)) == 0


def test_inconsistent_system_is_reported():
    m = RatMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(Inconsistent):
        solve_linear(m, [1, 3])


def test_underdetermined_space_has_free_parameters():
    m = RatMatrix.from_rows([[1, 1, 1]])
    space = solve_linear(m, [1])
    assert space.dimension == 2


def only_fractions(space):
    return all(type(x) is Fraction
               for x in space.particular + sum(space.basis, ()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_int_entries_solve_and_invert_exactly(entries, b):
    """Int entries give the Fraction-entry results, in Fractions only."""
    ints = RatMatrix(3, 3, tuple(entries))
    fracs = RatMatrix(3, 3, tuple(map(Fraction, entries)))
    assert ints == fracs
    try:
        space = solve_linear(ints, b)
    except Inconsistent:
        with pytest.raises(Inconsistent):
            solve_linear(fracs, list(map(Fraction, b)))
    else:
        assert space == solve_linear(fracs, list(map(Fraction, b)))
        assert only_fractions(space)
    try:
        inv = invert(ints)
    except Singular:
        with pytest.raises(Singular):
            invert(fracs)
    else:
        assert inv == invert(fracs)
        assert all(type(x) is Fraction for x in inv.entries)


def test_an_int_pivot_divides_exactly():
    space = solve_linear(RatMatrix(2, 2, (3, 1, 1, 1)), [1, 0])
    assert space.particular == (Fraction(1, 2), Fraction(-1, 2))
    assert only_fractions(space)


@st.composite
def systems(draw, square=False):
    """(matrix, rhs) of up to 6 x 6, wide, tall or square, with int and
    Fraction entries. Some rows are repeats or combinations of the freely
    drawn ones, and their right-hand side may be shifted off the
    combination, which makes the system inconsistent."""
    ncols = draw(st.integers(0, 6))
    nrows = ncols if square else draw(st.integers(0, 6))
    nfree = nrows - draw(st.just(0) | st.integers(0, nrows))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nfree)]
    rhs = [draw(entries) for _ in range(nfree)]
    for _ in range(nrows - nfree):
        if nfree and draw(st.booleans()):   # a repeat
            k = draw(st.integers(0, nfree - 1))
            coeffs = [int(j == k) for j in range(nfree)]
        else:
            coeffs = draw(st.lists(entries, min_size=nfree, max_size=nfree))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                     for j in range(ncols)])
        shift = draw(entries) if draw(st.integers(0, 3)) == 0 else 0
        rhs.append(sum(c * b for c, b in zip(coeffs, rhs)) + shift)
    order = draw(st.permutations(range(nrows)))
    matrix = RatMatrix(nrows, ncols,
                       tuple(x for i in order for x in rows[i]))
    return matrix, [rhs[i] for i in order]


def outcome(fn, *args):
    """The result, or the type of the Inconsistent or Singular raised."""
    try:
        return fn(*args)
    except (Inconsistent, Singular) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_linear_matches_fraction_elimination(system):
    """Field for field, and in Fractions only, as Gauss-Jordan over
    Fraction; inconsistent on the same inputs."""
    m, b = system
    got = outcome(solve_linear, m, b)
    assert got == outcome(oracle.solve_linear, m, b)
    if got is not Inconsistent:
        assert only_fractions(got)


@settings(max_examples=300, deadline=None)
@given(systems(square=True))
def test_invert_matches_fraction_elimination(system):
    m, _ = system
    got = outcome(invert, m)
    assert got == outcome(oracle.invert, m)
    if got is not Singular:
        assert all(type(x) is Fraction for x in got.entries)
