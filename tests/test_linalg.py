"""Exact rational linear algebra: elimination and inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.linalg import (Inconsistent, RatMatrix, Singular, invert,
                                solve_linear)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


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
    assert m @ inv == RatMatrix.identity(3)
    assert inv @ m == RatMatrix.identity(3)


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
