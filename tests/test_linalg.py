"""Exact solution spaces of integer linear systems."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from schemeforge.linalg import Inconsistent, solve_integer

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
entries = st.one_of(st.integers(-5, 5), rationals)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def cleared(row) -> list:
    """A row of ints and Fractions times the lcm of its denominators."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


def solve(m, b, ncols):
    """solve_integer on the denominator-cleared rows of [m | b]."""
    return solve_integer([cleared(list(row) + [x]) for row, x in zip(m, b)],
                         ncols)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3),
       st.lists(rationals, min_size=3, max_size=3))
def test_solutions_satisfy_the_system(m, x):
    b = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    space = solve(m, b, 3)
    got = list(space.particular)
    for i in range(3):
        assert sum(m[i][j] * got[j] for j in range(3)) == b[i]
    for vec in space.basis:
        for i in range(3):
            assert sum(m[i][j] * vec[j] for j in range(3)) == 0


def test_inconsistent_system_is_reported():
    with pytest.raises(Inconsistent):
        solve_integer([[1, 1, 1], [2, 2, 3]], 2)


def test_underdetermined_space_has_free_parameters():
    space = solve_integer([[1, 1, 1, 1]], 3)
    assert space.dimension == 2


def only_fractions(space):
    return all(type(x) is Fraction
               for x in space.particular + sum(space.basis, ()))


def test_an_int_pivot_divides_exactly():
    space = solve_integer([[3, 1, 1], [1, 1, 0]], 2)
    assert space.particular == (Fraction(1, 2), Fraction(-1, 2))
    assert only_fractions(space)


@st.composite
def systems(draw):
    """(rows, rhs, ncols) of up to 6 x 6, wide, tall or square, with int
    and Fraction entries. Some rows are repeats or combinations of the
    freely drawn ones, and their right-hand side may be shifted off the
    combination, which makes the system inconsistent."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 6))
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
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


def outcome(fn, *args):
    """The result, or Inconsistent if that is raised."""
    try:
        return fn(*args)
    except Inconsistent:
        return Inconsistent


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_integer_matches_fraction_elimination(system):
    """solve_integer on the denominator-cleared rows gives, field for
    field and in Fractions only, the solution space of Gauss-Jordan over
    Fraction; inconsistent on the same inputs."""
    m, b, ncols = system
    got = outcome(solve, m, b, ncols)
    assert got == outcome(oracle.solve_linear, m, b, ncols)
    if got is not Inconsistent:
        assert only_fractions(got)


@st.composite
def wide_systems(draw):
    """(rows, rhs, ncols) of up to 12 columns and nullity 0 to 2: up to
    ncols - nullity freely drawn int rows, then more rows that are small
    int combinations of them. In half the systems one of those has its
    right-hand side shifted off the combination. Rows that arrive once
    most pivots are held reach the kernel test."""
    ncols = draw(st.integers(1, 12))
    nfree = ncols - draw(st.integers(0, min(2, ncols)))
    small = st.integers(-3, 3)
    rows = [draw(st.lists(small, min_size=ncols, max_size=ncols))
            for _ in range(nfree)]
    rhs = [draw(small) for _ in range(nfree)]
    ndep = draw(st.integers(nfree, 3 * nfree))
    shifted = draw(st.none() | st.integers(0, ndep - 1)) if ndep else None
    for k in range(ndep):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=nfree,
                               max_size=nfree))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                     for j in range(ncols)])
        rhs.append(sum(c * b for c, b in zip(coeffs, rhs)) + (k == shifted))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


@settings(max_examples=200, deadline=None)
@given(wide_systems())
def test_wide_dependent_systems_match_fraction_elimination(system):
    """Most rows of these systems lie in the span of earlier ones, as in
    the triple systems: solve_integer, skipping them by the kernel test,
    gives Gauss-Jordan's space over Fraction, or Inconsistent where it
    does."""
    m, b, ncols = system
    got = outcome(solve, m, b, ncols)
    assert got == outcome(oracle.solve_linear, m, b, ncols)
    if got is not Inconsistent:
        assert only_fractions(got)
