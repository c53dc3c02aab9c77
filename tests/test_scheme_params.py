"""Parameter derivation from the Krein array against the exact tables."""

import itertools
import math
import time
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from schemeforge.errors import SchemeforgeError
from schemeforge.scheme_params import (BadParameter, DegenerateSpectrum,
                                       KreinArray, NegativeKrein, NonIntegral,
                                       SchemeParameters, _column_scales,
                                       _minors, _scaled_roots,
                                       _scaled_three_term,
                                       closed_form_parameters,
                                       derive_parameters, dual_eigenmatrix,
                                       first_eigenmatrix,
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
    den, a, b, c = _scaled_three_term(hemisystem_krein_array(3))
    assert den == 3
    assert all(a[j] + b[j] + c[j] == den * 20 for j in range(5))
    assert b[4] == c[0] == 0


def test_tridiagonal_diagonal_t3():
    den, a, _, _ = _scaled_three_term(hemisystem_krein_array(3))
    assert a == [den * x for x in (0, 20 - F(49, 3) - 1,
                                   20 - F(14, 3) - F(14, 3),
                                   20 - 1 - F(49, 3), 0)]
    assert all(type(x) is int for x in a)


def dual_eigenvalues(k):
    """The rational eigenvalues of L1*, ascending: the integer roots of the
    scaled array over its scale D."""
    scaled = _scaled_three_term(k)
    return tuple(F(x, scaled[0]) for x in _scaled_roots(scaled))


def test_tridiagonal_spectrum_t3():
    assert dual_eigenvalues(hemisystem_krein_array(3)) == \
        (F(-8), F(-10, 3), F(4, 3), F(6), F(20))


def test_dual_eigenvalues_are_the_closed_form_q_column():
    for t in range(3, 52, 2):
        column = sorted(row[1] for row in closed_form_parameters(t).Q)
        assert dual_eigenvalues(hemisystem_krein_array(t)) == tuple(column)


def l1star(k):
    """L1* as row lists: c*_j below, a*_j on and b*_j above the diagonal."""
    a, b, c = oracle.three_term(k)
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
        shifted = [[x - theta if i == j else x for i, x in enumerate(row)]
                   for j, row in enumerate(rows)]
        if oracle.solve_linear(shifted, [0] * (k.d + 1),
                               k.d + 1).dimension > 0:
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


def assert_dual_rows_match_the_fraction_recurrence(k):
    """At every rational eigenvalue, and at the grid points beside each,
    the minors of the scaled array close exactly where the Fraction
    recurrence does, and there scale to its row; when every eigenvalue is
    rational, `dual_eigenmatrix` gives those rows, the multiplicity row
    first and the rest by eigenvalue descending, or the same
    DegenerateSpectrum text."""
    scaled = _scaled_three_term(k)
    den, scales = scaled[0], _column_scales(scaled[3])
    roots = dual_eigenvalues(k)
    rows = {}
    for theta in roots + tuple(r + F(s, den) for r in roots for s in (-1, 1)):
        num = _minors(scaled, theta.numerator * (den // theta.denominator))
        try:
            rows[theta] = oracle.dual_row(k, theta)
        except DegenerateSpectrum:
            assert theta not in roots and num[-1] != 0
            continue
        assert num[-1] == 0
        assert tuple(map(F, num[:-1], scales)) == rows[theta]
    assert all(theta in rows for theta in roots)
    if len(roots) < k.d + 1:
        return
    positive = [theta for theta in roots if min(rows[theta]) > 0]
    try:
        q_mat, mults, order = dual_eigenmatrix(k)
    except DegenerateSpectrum as exc:
        assert str(exc) == ("expected exactly one all-positive row, "
                            f"found {len(positive)}")
        assert len(positive) != 1
        return
    assert len(positive) == 1
    rest = sorted((theta for theta in roots if theta not in positive),
                  reverse=True)
    assert q_mat == tuple(rows[theta] for theta in positive + rest)
    assert mults == q_mat[0] and order == sum(q_mat[0])
    assert all(type(x) is Fraction for row in q_mat for x in row)
    assert type(order) is Fraction


@pytest.mark.parametrize("k", [hemisystem_krein_array(t)
                               for t in range(3, 52, 2)]
                         + [KreinArray.make(range(d, 0, -1), range(1, d + 1))
                            for d in range(1, 8)])
def test_dual_rows_match_the_fraction_recurrence(k):
    assert_dual_rows_match_the_fraction_recurrence(k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(krein_entries, min_size=d, max_size=d),
    st.lists(krein_entries, min_size=d, max_size=d))))
def test_dual_rows_match_the_fraction_recurrence_at_random(array):
    assert_dual_rows_match_the_fraction_recurrence(KreinArray.make(*array))


def test_dual_eigenmatrix_t3():
    q_mat, mults, order = dual_eigenmatrix(hemisystem_krein_array(3))
    assert order == 112
    assert tuple(mults) == (1, 20, 70, 20, 1)
    rows = list(q_mat)
    assert rows[0] == (1, 20, 70, 20, 1)
    assert (1, 6, 0, -6, -1) in rows
    assert all(r[0] == 1 for r in rows)


def test_first_eigenmatrix_t3():
    k = hemisystem_krein_array(3)
    q_mat, mults, order = dual_eigenmatrix(k)
    params = derive_parameters(k, 3)
    assert tuple(params.valencies) == (1, 20, 10, 36, 45)
    assert (1, 6, -4, -6, 3) in params.P
    prod = oracle.matmul(params.P, params.Q)
    for i in range(5):
        for j in range(5):
            assert prod[i][j] == (112 if i == j else 0)


def test_alternating_character_column(params_t3):
    # the rank-one idempotent pairs the scheme with its half partition:
    # relations 1 and 3 cross the halves, 2 and 4 stay inside
    col = tuple(row[4] for row in params_t3.Q)
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
    rows = [list(row) for row in params_t3.P]
    rows[2][2] += 1
    with pytest.raises(NonIntegral) as exc:
        intersection_numbers(rows, params_t3.valencies,
                             params_t3.multiplicities, params_t3.order)
    assert str(exc.value) == "p^0_02 = 5/8 is not a nonnegative integer"


def test_doctored_q_gives_a_negative_krein_parameter(params_t3):
    rows = [list(row) for row in params_t3.Q]
    for row in rows:
        row[1] = -row[1]
    with pytest.raises(NegativeKrein) as exc:
        krein_numbers(rows, params_t3.valencies,
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
    mat = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                        min_size=n, max_size=n))
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


def all_of_type(kind, tensor):
    return all(type(x) is kind
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
        assert all_of_type(int, got)
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
        assert all_of_type(Fraction, got)
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


FAMILY_T = range(3, 52, 2)


def hypercube_array(d):
    return KreinArray.make(range(d, 0, -1), range(1, d + 1))


# The real-MUB arrays of ROADMAP item 1 besides the 4-cube.
MUB_ARRAYS = (KreinArray.make((4, 3, F(8, 3), 1), (1, F(4, 3), 3, 4)),
              KreinArray.make((16, 15, 8, 1), (1, 8, 15, 16)))


@pytest.mark.parametrize(
    "k", [hemisystem_krein_array(t) for t in FAMILY_T]
    + [hypercube_array(d) for d in range(1, 8)] + list(MUB_ARRAYS),
    ids=[f"t={t}" for t in FAMILY_T] + [f"cube{d}" for d in range(1, 8)]
    + [f"mub{i}" for i in range(len(MUB_ARRAYS))])
def test_first_eigenmatrix_matches_inversion(k):
    """P from the orthogonality relations is order * Q^(-1), the inverse
    taken by Gauss-Jordan over Fraction."""
    q_mat, _, order = dual_eigenmatrix(k)
    assert first_eigenmatrix(q_mat, order) == tuple(
        tuple(order * x for x in row) for row in oracle.invert(q_mat))


def assert_validate_matches_the_oracle(params, krein):
    got = validate(params, krein)
    want = oracle.validate(params, krein)
    assert got.checks == want.checks
    assert got.overall == want.overall


@pytest.mark.parametrize(
    "k", [hemisystem_krein_array(t) for t in FAMILY_T]
    + [hypercube_array(d) for d in range(1, 8)],
    ids=[f"t={t}" for t in FAMILY_T] + [f"cube{d}" for d in range(1, 8)])
def test_validate_matches_the_fraction_oracle(k):
    assert_validate_matches_the_oracle(derive_parameters(k), k)


@pytest.mark.parametrize("field", ["p", "q"])
def test_validate_matches_the_fraction_oracle_on_every_bump(params_t3, field):
    k = hemisystem_krein_array(3)
    for index in itertools.product(range(5), repeat=3):
        bad = bumped(getattr(params_t3, field), index)
        assert_validate_matches_the_oracle(
            replace(params_t3, **{field: bad}), k)


def with_entry(tensor, index, value):
    """A copy of a [k][i][j] tensor with value at (k, i, j)."""
    out = [[list(row) for row in plane] for plane in tensor]
    kk, i, j = index
    out[kk][i][j] = value
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


@pytest.mark.parametrize("index, value", [
    ((2, 1, 1), F(1, 2)),       # not an integer
    ((1, 2, 3), F(-1)),         # negative
    ((1, 2, 3), -1),            # negative, an int
    ((1, 0, 1), True),          # a bool of the right value
    ((1, 0, 0), True),          # a bool breaking the boundary
    ((3, 3, 3), F(7, 3)),       # not an integer, row sum not whole
])
def test_validate_matches_the_fraction_oracle_on_odd_entries(
        params_t3, index, value):
    bad = replace(params_t3, p=with_entry(params_t3.p, index, value))
    assert_validate_matches_the_oracle(bad, hemisystem_krein_array(3))


def test_validate_matches_the_fraction_oracle_on_int_tensors(params_t3):
    ints = tuple(tuple(tuple(int(x) for x in row) for row in plane)
                 for plane in params_t3.p)
    assert_validate_matches_the_oracle(replace(params_t3, p=ints),
                                       hemisystem_krein_array(3))


def test_validate_matches_the_fraction_oracle_on_changed_sizes(params_t3):
    k = hemisystem_krein_array(3)
    n = list(params_t3.valencies)
    n[2] += 1
    assert_validate_matches_the_oracle(
        replace(params_t3, valencies=tuple(n)), k)
    assert_validate_matches_the_oracle(
        replace(params_t3, order=params_t3.order + 1), k)
    assert_validate_matches_the_oracle(
        replace(params_t3, order=params_t3.order + F(1, 2)), k)
    assert_validate_matches_the_oracle(
        replace(params_t3, multiplicities=(1, F(1, 2))
                + params_t3.multiplicities[2:]), k)


def assert_whole_numbers_are_ints(params):
    """The order, n, m and p are ints; q is Fractions."""
    assert type(params.order) is int
    assert all(type(x) is int
               for x in params.valencies + params.multiplicities)
    assert all_of_type(int, params.p)
    assert all_of_type(Fraction, params.q)


@pytest.mark.parametrize("t", FAMILY_T)
def test_closed_forms_equal_the_entry_by_entry_builder(t):
    got = closed_form_parameters(t)
    want = oracle.closed_form_parameters(t)
    for field in fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), \
            field.name
    assert_whole_numbers_are_ints(got)


def mub_array(m, w):
    """The real-MUB Krein array {m, m-1, m(w-1)/w, 1; 1, m/w, m-1, m}."""
    return KreinArray.make((m, m - 1, F(m * (w - 1), w), 1),
                           (1, F(m, w), m - 1, m))


def derivation(derive, *args):
    """The parameter set, or the typed error's class and message."""
    try:
        return derive(*args)
    except SchemeforgeError as exc:
        return type(exc), str(exc)


def assert_derivation_matches_the_fraction_pipeline(k):
    got = derivation(derive_parameters, k)
    want = derivation(oracle.derive_parameters, k,
                      reference_dual_eigenvalues(k))
    assert got == want
    if isinstance(got, SchemeParameters):
        assert_whole_numbers_are_ints(got)
        assert all(type(x) is Fraction
                   for mat in (got.P, got.Q) for row in mat for x in row)


@pytest.mark.parametrize(
    "k", [hemisystem_krein_array(t) for t in FAMILY_T]
    + [hypercube_array(d) for d in range(1, 8)]
    # order 7 and valencies 1, 5, 1, but multiplicities 1, 7/2, 5/2
    + [KreinArray.make((F(7, 2), F(5, 2)), (1, F(7, 2)))],
    ids=[f"t={t}" for t in FAMILY_T] + [f"cube{d}" for d in range(1, 8)]
    + ["half-multiplicity"])
def test_derivation_matches_the_fraction_pipeline(k):
    assert_derivation_matches_the_fraction_pipeline(k)


@pytest.mark.parametrize("m", [4, 9, 16, 36])
def test_derivation_matches_the_fraction_pipeline_on_real_mub_arrays(m):
    for w in range(2, 2 * m + 2):
        assert_derivation_matches_the_fraction_pipeline(mub_array(m, w))


def test_real_mub_array_with_a_half_intersection_number():
    with pytest.raises(NonIntegral,
                       match=r"^p\^2_11 = 9/2 is not a nonnegative integer$"):
        derive_parameters(mub_array(9, 2))


def absolute_bound(k):
    report = validate(derive_parameters(k), k)
    return dict((name, (ok, witness)) for name, ok, witness in report.checks)[
        "absolute_bound"]


@pytest.mark.parametrize(
    "k", [hemisystem_krein_array(t) for t in FAMILY_T]
    + [hypercube_array(d) for d in range(1, 8)],
    ids=[f"t={t}" for t in FAMILY_T] + [f"cube{d}" for d in range(1, 8)])
def test_absolute_bound_holds_on_the_family_and_the_hypercubes(k):
    assert absolute_bound(k) == (True, "")


@pytest.mark.parametrize("m", [4, 16, 36])
def test_absolute_bound_keeps_exactly_the_real_mub_arrays_of_small_w(m):
    """The bound of Calderbank, Cameron, Kantor and Seidel on real MUBs:
    w <= m/2 + 1, the only check that fails beyond it."""
    for w in range(2, 2 * m + 2):
        k = mub_array(m, w)
        report = validate(derive_parameters(k), k)
        failed = [name for name, _, _ in report.failed()]
        assert failed == ([] if w <= m // 2 + 1 else ["absolute_bound"]), w


def test_absolute_bound_names_the_first_failing_pair():
    assert absolute_bound(mub_array(16, 10)) == (
        False, "sum of m_k over q^k_11 != 0 is 151 > m_1(m_1 + 1)/2 = 136")


def test_absolute_bound_off_the_diagonal(params_t3):
    """A nonzero q^2_01 puts m_2 = 70 beside m_1 = 20 in the sum for the
    pair (0, 1), whose bound is m_0 m_1 = 20; the oracle agrees."""
    assert absolute_bound_of(params_t3) == (True, "")
    bad = replace(params_t3, q=with_entry(params_t3.q, (2, 0, 1), F(1)))
    assert absolute_bound_of(bad) == (
        False, "sum of m_k over q^k_01 != 0 is 90 > m_0 m_1 = 20")


def absolute_bound_of(params):
    report = validate(params, hemisystem_krein_array(3))
    assert report.checks == oracle.validate(
        params, hemisystem_krein_array(3)).checks
    return dict((name, (ok, witness)) for name, ok, witness in report.checks)[
        "absolute_bound"]
