"""Parameter derivation from the Krein array against the exact tables."""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from schemeforge.linalg import RatMatrix, solve_linear
from schemeforge.scheme_params import (BadParameter, KreinArray,
                                       NegativeKrein, NonIntegral,
                                       _three_term, closed_form_parameters,
                                       derive_parameters, dual_eigenmatrix,
                                       dual_eigenvalues, first_eigenmatrix,
                                       hemisystem_krein_array,
                                       intersection_numbers, krein_numbers,
                                       match_family_t, validate)

F = Fraction


def test_krein_array_t3():
    k = hemisystem_krein_array(3)
    assert k.bstar == (F(20), F(49, 3), F(14, 3), F(1))
    assert k.cstar == (F(1), F(14, 3), F(49, 3), F(20))


def test_krein_array_t5():
    k = hemisystem_krein_array(5)
    assert k.bstar == (F(104), F(441, 5), F(84, 5), F(1))
    assert k.cstar == (F(1), F(84, 5), F(441, 5), F(104))


@pytest.mark.parametrize("bad", [4, 2, 1, 0, -3])
def test_even_or_small_t_rejected(bad):
    with pytest.raises(BadParameter):
        hemisystem_krein_array(bad)


@pytest.mark.parametrize("t", [3, 5, 7, 9, 11])
def test_family_arrays_are_antipodal(t):
    assert hemisystem_krein_array(t).is_antipodal()


def test_family_recognition():
    for t in range(3, 52, 2):
        assert match_family_t(hemisystem_krein_array(t)) == t
    near = hemisystem_krein_array(5)
    assert match_family_t(replace(near, bstar=(F(105),) + near.bstar[1:])) \
        is None


def test_family_recognition_of_a_huge_b0_is_immediate():
    k = KreinArray.make((10 ** 30, 1, 1, 1), (1, 1, 1, 1))
    start = time.perf_counter()
    assert match_family_t(k) is None
    assert time.perf_counter() - start < 0.5


def test_tridiagonal_rows_sum_to_b0():
    a, b, c = _three_term(hemisystem_krein_array(3))
    assert all(a[j] + b[j] + c[j] == 20 for j in range(5))
    assert b[4] == c[0] == 0


def test_tridiagonal_diagonal_t3():
    a, _, _ = _three_term(hemisystem_krein_array(3))
    assert a == (0, 20 - F(49, 3) - 1, 20 - F(14, 3) - F(14, 3),
                 20 - 1 - F(49, 3), 0)


def test_tridiagonal_spectrum_t3():
    assert dual_eigenvalues(hemisystem_krein_array(3)) == \
        (F(-8), F(-10, 3), F(4, 3), F(6), F(20))


def test_dual_eigenvalues_are_the_closed_form_q_column():
    for t in range(3, 52, 2):
        column = sorted(closed_form_parameters(t).Q.at(i, 1)
                        for i in range(5))
        assert dual_eigenvalues(hemisystem_krein_array(t)) == tuple(column)


def l1star(k):
    """L1* as row lists: c*_j below, a*_j on and b*_j above the diagonal."""
    a, b, c = _three_term(k)
    return [[{j - 1: c[j], j: a[j], j + 1: b[j]}.get(i, F(0))
             for i in range(k.d + 1)] for j in range(k.d + 1)]


def reference_dual_eigenvalues(k):
    """Float eigenvalues rounded to the 1/D grid, each confirmed exactly.

    Every rational eigenvalue of L1* lies on the grid, and a candidate
    theta is kept only if L1* - theta I has a nonzero null vector.
    """
    rows = l1star(k)
    den = math.lcm(*(x.denominator for row in rows for x in row))
    found = set()
    for lam in np.linalg.eigvals(np.array(rows, dtype=float)):
        theta = F(round(lam.real * den), den)
        shifted = RatMatrix.from_rows(
            [[x - theta if i == j else x for i, x in enumerate(row)]
             for j, row in enumerate(rows)])
        if solve_linear(shifted, [0] * (k.d + 1)).dimension > 0:
            found.add(theta)
    return tuple(sorted(found))


krein_entries = st.builds(F, st.integers(1, 12), st.sampled_from((1, 2, 3)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(krein_entries, min_size=d, max_size=d),
    st.lists(krein_entries, min_size=d, max_size=d))))
def test_dual_eigenvalues_match_a_float_reference(array):
    k = KreinArray.make(*array)
    assert dual_eigenvalues(k) == reference_dual_eigenvalues(k)


def test_dual_eigenmatrix_t3():
    q_mat, mults, order = dual_eigenmatrix(hemisystem_krein_array(3))
    assert order == 112
    assert tuple(mults) == (1, 20, 70, 20, 1)
    rows = [tuple(q_mat.row(i)) for i in range(5)]
    assert rows[0] == (1, 20, 70, 20, 1)
    assert (1, 6, 0, -6, -1) in rows
    assert all(r[0] == 1 for r in rows)


def test_first_eigenmatrix_t3():
    k = hemisystem_krein_array(3)
    q_mat, mults, order = dual_eigenmatrix(k)
    params = derive_parameters(k, 3)
    assert tuple(params.valencies) == (1, 20, 10, 36, 45)
    rows = [tuple(params.P.row(i)) for i in range(5)]
    assert (1, 6, -4, -6, 3) in rows
    prod = params.P @ params.Q
    for i in range(5):
        for j in range(5):
            assert prod.at(i, j) == (112 if i == j else 0)


def test_alternating_character_column(params_t3):
    # the rank-one idempotent pairs the scheme with its half partition:
    # relations 1 and 3 cross the halves, 2 and 4 stay inside
    col = tuple(params_t3.Q.at(j, 4) for j in range(5))
    assert col == (1, -1, 1, -1, 1)


def test_intersection_numbers_t3(params_t3):
    p = params_t3.p
    assert p[2][2][2] == 0
    assert p[2][1][1] == 2
    assert p[1][1][4] == 18
    assert p[4][4][4] == 36
    assert sum(p[4][4][j] for j in range(5)) == 45


def test_intersection_numbers_other_t():
    assert closed_form_parameters(5).p[3][1][2] == 13
    assert closed_form_parameters(7).p[2][2][2] == 2


def test_krein_numbers_t3(params_t3):
    q = params_t3.q
    assert q[1][1][2] == F(49, 3)
    assert q[3][1][1] == 0
    assert q[4][1][1] == 0
    assert q[2][2][4] == 1


def test_doctored_p_gives_a_non_integral_intersection_number(params_t3):
    rows = params_t3.P.to_rows()
    rows[2][2] += 1
    with pytest.raises(NonIntegral) as exc:
        intersection_numbers(RatMatrix.from_rows(rows), params_t3.valencies,
                             params_t3.multiplicities, params_t3.order)
    assert str(exc.value) == "p^0_02 = 5/8 is not a nonnegative integer"


def test_doctored_q_gives_a_negative_krein_parameter(params_t3):
    rows = params_t3.Q.to_rows()
    for row in rows:
        row[1] = -row[1]
    with pytest.raises(NegativeKrein) as exc:
        krein_numbers(RatMatrix.from_rows(rows), params_t3.valencies,
                      params_t3.multiplicities, params_t3.order)
    assert str(exc.value) == "q^1_11 = -8/3 is negative"


def entries(lo, whole):
    """Ints in lo..9, or Fractions with such numerators over 1..6."""
    if whole:
        return st.integers(lo, 9)
    return st.builds(F, st.integers(lo, 9), st.integers(1, 6))


@st.composite
def spectral_inputs(draw):
    """(M, weights, norms, order) for a square M of size 1..5.

    Entries are signed or nonnegative and weights positive, all ints or
    all Fractions; norms and order are positive, or all 1, so that
    integral and nonnegative tensors are drawn as well as failing ones.
    """
    n = draw(st.integers(1, 5))
    whole = draw(st.booleans())
    cell = entries(draw(st.sampled_from((-9, 0))), whole)
    mat = RatMatrix.from_rows(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                      min_size=n, max_size=n)))
    weights = draw(st.lists(entries(1, whole), min_size=n, max_size=n))
    if draw(st.booleans()):
        return mat, weights, [1] * n, 1
    norms = draw(st.lists(entries(1, whole), min_size=n, max_size=n))
    return mat, weights, norms, draw(entries(1, whole))


def first_breach(tensor, bad):
    """The first (k, i, j, value) in [k][i][j] order with bad(value)."""
    return next(((kk, i, j, tensor[kk][i][j]) for kk, i, j in
                 itertools.product(range(len(tensor)), repeat=3)
                 if bad(tensor[kk][i][j])), None)


def all_fractions(tensor):
    return all(type(x) is Fraction
               for plane in tensor for row in plane for x in row)


@settings(max_examples=300, deadline=None)
@given(spectral_inputs())
def test_intersection_numbers_match_the_fraction_oracle(inputs):
    mat, weights, norms, order = inputs
    expected = oracle.spectral_tensor(mat, weights, norms, order)
    breach = first_breach(expected, lambda v: v.denominator != 1 or v < 0)
    if breach is None:
        got = intersection_numbers(mat, norms, weights, order)
        assert got == expected
        assert all_fractions(got)
    else:
        kk, i, j, val = breach
        with pytest.raises(NonIntegral) as exc:
            intersection_numbers(mat, norms, weights, order)
        assert str(exc.value) == \
            f"p^{kk}_{i}{j} = {val} is not a nonnegative integer"


@settings(max_examples=300, deadline=None)
@given(spectral_inputs())
def test_krein_numbers_match_the_fraction_oracle(inputs):
    mat, weights, norms, order = inputs
    expected = oracle.spectral_tensor(mat, norms, weights, order)
    breach = first_breach(expected, lambda v: v < 0)
    if breach is None:
        got = krein_numbers(mat, norms, weights, order)
        assert got == expected
        assert all_fractions(got)
    else:
        kk, i, j, val = breach
        with pytest.raises(NegativeKrein) as exc:
            krein_numbers(mat, norms, weights, order)
        assert str(exc.value) == f"q^{kk}_{i}{j} = {val} is negative"


def binom(n, r):
    return math.comb(n, r) if 0 <= r <= n else 0


@pytest.mark.parametrize("d", range(1, 8))
def test_hypercube_off_the_family(d):
    # H(d, 2) is self-dual with Krein array {d, d-1, ..., 1; 1, 2, ..., d}
    params = derive_parameters(
        KreinArray.make(range(d, 0, -1), range(1, d + 1)))
    assert params.t is None
    assert params.order == 2 ** d
    assert params.p == params.q
    for kk, i, j in itertools.product(range(d + 1), repeat=3):
        expected = 0
        if (i + j - kk) % 2 == 0:
            expected = binom(kk, (i - j + kk) // 2) * \
                binom(d - kk, (i + j - kk) // 2)
        assert params.p[kk][i][j] == expected, (kk, i, j)


def test_krein_round_trip(params_t3):
    q = params_t3.q
    k = hemisystem_krein_array(3)
    for i in range(4):
        assert q[i][1][i + 1] == k.bstar[i]
    for i in range(1, 5):
        assert q[i][1][i - 1] == k.cstar[i - 1]


@pytest.mark.parametrize("t", [3, 5, 7])
def test_pipeline_equals_closed_form(t):
    generic = derive_parameters(hemisystem_krein_array(t), t)
    table = closed_form_parameters(t)
    assert generic.valencies == table.valencies
    assert generic.multiplicities == table.multiplicities
    assert generic.P == table.P
    assert generic.Q == table.Q
    assert generic.p == table.p
    assert generic.q == table.q


@pytest.mark.parametrize("t", [3, 7, 13])
def test_order_formula(t):
    params = closed_form_parameters(t)
    assert params.order == (t ** 3 + 1) * (t + 1)
    assert sum(params.multiplicities) == params.order


def test_vanishing_krein_set(params_t3):
    from itertools import permutations
    q = params_t3.q
    for tup in ((1, 1, 3), (1, 1, 4), (1, 4, 2), (1, 4, 4)):
        for i, j, kk in permutations(tup):
            assert q[kk][i][j] == 0


def test_validate_passes_on_tables(params_t3):
    report = validate(params_t3, hemisystem_krein_array(3))
    assert report.overall
    assert not report.failed()


def bumped(tensor, *indices):
    """A copy of a [k][i][j] tensor with 1 added at each (k, i, j)."""
    out = [[list(row) for row in plane] for plane in tensor]
    for kk, i, j in indices:
        out[kk][i][j] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def test_validate_names_a_corrupted_entry(params_t3):
    corrupted = replace(params_t3, p=bumped(params_t3.p, (2, 3, 3)))
    report = validate(corrupted, hemisystem_krein_array(3))
    assert not report.overall
    name, _, witness = report.failed()[0]
    assert name
    assert witness
    # the first failing (k, i, j) in index order
    assert dict((n, w) for n, _, w in report.failed())[
        "valency_weighted_symmetry"] == "n_k p^k_ij != n_i p^i_kj at 2,3,3"


def test_validate_names_the_first_band_breach(params_t3):
    corrupted = replace(params_t3,
                        q=bumped(params_t3.q, (1, 1, 4), (4, 1, 1)))
    report = validate(corrupted, hemisystem_krein_array(3))
    assert not report.overall
    assert dict((n, w) for n, _, w in report.failed())["cometric_band"] == \
        "q^1_14 != 0 breaks the cometric band"


@pytest.mark.parametrize("t", range(21, 52, 2))
def test_pipeline_equals_closed_form_for_large_t(t):
    generic = derive_parameters(hemisystem_krein_array(t), t)
    table = closed_form_parameters(t)
    for field in ("order", "valencies", "multiplicities", "P", "Q", "p", "q"):
        assert getattr(generic, field) == getattr(table, field), field
