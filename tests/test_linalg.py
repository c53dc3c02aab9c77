"""Exact rational linear algebra: elimination, inversion, spectra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge import linalg
from schemeforge.linalg import (Inconsistent, RatMatrix, RatPolynomial,
                                Singular, _int_divisors, char_poly, invert,
                                rational_roots, solve_linear)
from schemeforge.scheme_params import build_L1star, hemisystem_krein_array

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
        # singular exactly when det(m) = 0, the constant term of det(xI - m)
        assert char_poly(m).coefficients[0] == 0
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


def test_diagonal_spectrum_recovered():
    diag = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(0)]
    m = RatMatrix.from_rows([[diag[i] if i == j else 0 for j in range(4)]
                             for i in range(4)])
    poly = char_poly(m)
    assert set(rational_roots(poly)) == set(diag)


def test_char_poly_of_identity():
    poly = char_poly(RatMatrix.identity(3))
    assert rational_roots(poly) == (Fraction(1),) * 3


def test_rational_roots_skips_irrationals():
    # x^2 - 2 has no rational root
    poly = RatPolynomial.make([-2, 0, 1])
    assert rational_roots(poly) == ()


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        assert _int_divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_of_the_family_coefficients(monkeypatch):
    """Every number rational_roots factors for odd t <= 51 (up to 5.5e18)."""
    seen = set()
    monkeypatch.setattr(linalg, "_int_divisors",
                        lambda n: seen.add(n) or _int_divisors(n))
    for t in range(3, 52, 2):
        rational_roots(char_poly(build_L1star(hemisystem_krein_array(t))))
    assert len(seen) == 50 and max(seen) > 10 ** 18
    for n in seen:
        divs = _int_divisors(n)
        assert divs == sorted(set(divs))
        assert all(n % d == 0 for d in divs)
        # divisor count from the prime powers; no prime factor exceeds 1301
        count, rest = 1, n
        for p in range(2, 1302):
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            count *= e + 1
        assert rest == 1
        assert len(divs) == count
