"""GF(9), the quartic surface, GQ axioms, and the hemisystem search."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemeforge.geometry import (GQ, EvenOrder, Hemisystem, NotFound,
                                  ProductBound, build_hermitian_gq,
                                  exact_product, find_hemisystem,
                                  first_true, hermitian_coordinates,
                                  hermitian_form, line_sets, row_sets,
                                  verify_gq, verify_hemisystem)


# ------------------------------------------------------------ field

def field_tables():
    """Scalar GF(9) addition and multiplication, a = a0 + a1 w as a0 + 3 a1.

    The reference that the coordinate-plane Hermitian form is checked
    against, entry by entry.
    """
    def enc(c0, c1):
        return c0 % 3 + 3 * (c1 % 3)

    add = tuple(tuple(enc(a % 3 + b % 3, a // 3 + b // 3) for b in range(9))
                for a in range(9))
    # (a0 + a1 w)(b0 + b1 w) with w^2 = -1
    mul = tuple(tuple(enc((a % 3) * (b % 3) - (a // 3) * (b // 3),
                          (a % 3) * (b // 3) + (a // 3) * (b % 3))
                      for b in range(9)) for a in range(9))
    return add, mul


ADD, MUL = field_tables()
CONJ = tuple(MUL[a][MUL[a][a]] for a in range(9))   # a^3, conjugate over GF(3)


def test_field_axioms_exhaustively():
    els = range(9)
    for a in els:
        assert ADD[a][0] == a
        assert MUL[a][1] == a
        # inverses exist: each a + _ and each nonzero a * _ is a bijection
        assert sorted(ADD[a]) == list(els)
        if a != 0:
            assert sorted(MUL[a][1:]) == list(range(1, 9))
        for b in els:
            assert ADD[a][b] == ADD[b][a]
            assert MUL[a][b] == MUL[b][a]
            for c in els:
                assert ADD[ADD[a][b]][c] == ADD[a][ADD[b][c]]
                assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]
                assert MUL[a][ADD[b][c]] == ADD[MUL[a][b]][MUL[a][c]]


def test_cube_is_the_conjugation():
    for a in range(9):
        a2 = MUL[a][a]
        assert CONJ[CONJ[a]] == a
        assert MUL[a][CONJ[a]] == MUL[a2][a2]
        for b in range(9):
            assert CONJ[MUL[a][b]] == MUL[CONJ[a]][CONJ[b]]
            assert CONJ[ADD[a][b]] == ADD[CONJ[a]][CONJ[b]]
    assert [a for a in range(9) if CONJ[a] == a] == [0, 1, 2]


# ------------------------------------------------------------ the surface

def canonical(point):
    """The first nonzero coordinate is 1."""
    return next(x for x in point if x != 0) == 1


def on_surface(point):
    """x0^4 + x1^4 + x2^4 + x3^4 = 0, by the scalar tables."""
    total = 0
    for x in point:
        x2 = MUL[x][x]
        total = ADD[total][MUL[x2][x2]]
    return total == 0


def test_surface_array_is_read_only_with_280_rows():
    coords = hermitian_coordinates()
    assert coords.shape == (280, 4)
    assert not coords.flags.writeable
    with pytest.raises(ValueError):
        coords[0, 0] = 0


def test_surface_rows_are_canonical_points_on_the_surface():
    for point in hermitian_coordinates().tolist():
        assert canonical(point)
        assert on_surface(point)


def test_surface_rows_follow_the_lead_then_the_base_9_tail():
    """Ordered by the position of the leading 1, then by the coordinates
    after it read as a base-9 number, first coordinate lowest."""
    keys = []
    for point in hermitian_coordinates().tolist():
        lead = next(i for i, x in enumerate(point) if x != 0)
        tail = sum(x * 9 ** i for i, x in enumerate(point[lead + 1:]))
        keys.append((lead, tail))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_surface_rows_are_every_canonical_surface_point():
    found = {point for point in itertools.product(range(9), repeat=4)
             if any(point) and canonical(point) and on_surface(point)}
    assert set(map(tuple, hermitian_coordinates().tolist())) == found


# ------------------------------------------------------------ quadrangle

def test_hermitian_gq_counts(hermitian_gq):
    assert len(hermitian_gq.points) == 280
    assert len(hermitian_gq.lines) == 112
    assert all(len(line) == 10 for line in hermitian_gq.lines)
    assert all(len(hermitian_gq.lines_through[p]) == 4
               for p in hermitian_gq.points)


def test_hermitian_gq_axioms(hermitian_gq):
    report = verify_gq(hermitian_gq)
    assert report.overall, report.failed()


def grid_gq():
    """3x3 grid: rows and columns as lines, a quadrangle of order (2,1)."""
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8),
             (0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return GQ(s=2, t=1, points=tuple(range(9)),
              lines=tuple(sorted(lines)))


def test_grid_is_a_quadrangle():
    report = verify_gq(grid_gq())
    assert report.overall, report.failed()


def test_line_sets_of_the_grid_and_its_dual():
    grid = grid_gq()
    inc = grid.incidence
    mask = line_sets(inc @ inc.T > 0)
    assert mask.dtype == bool
    assert row_sets(mask) == grid.lines
    assert np.array_equal(mask.T, inc > 0)
    # the dual, GQ(1, 2): the 6 lines as points, a line per grid point
    dual = row_sets(line_sets(inc.T @ inc > 0))
    assert dual == tuple(sorted(grid.lines_through))
    assert len(dual) == 9 and all(len(line) == 2 for line in dual)


def test_incidence_equals_a_per_line_fill(hermitian_gq):
    ragged = GQ(s=2, t=1, points=tuple(range(5)),
                lines=((0, 1, 2), (), (3,), (1, 4)))
    for gq in (hermitian_gq, ragged, grid_gq()):
        want = np.zeros((len(gq.points), len(gq.lines)), dtype=np.int64)
        for col, line in enumerate(gq.lines):
            want[list(line), col] = 1
        assert gq.incidence.dtype == np.int64
        assert np.array_equal(gq.incidence, want)


def test_incidence_refuses_an_out_of_range_point():
    gq = GQ(s=2, t=1, points=tuple(range(3)), lines=((0, 1), (1, 3)))
    with pytest.raises(IndexError):
        gq.incidence


def test_deleting_a_line_is_detected(hermitian_gq):
    broken = GQ(s=9, t=3, points=hermitian_gq.points,
                lines=hermitian_gq.lines[1:])
    report = verify_gq(broken)
    assert not report.overall
    name, _, witness = report.failed()[0]
    assert name in ("size_formulas", "lines_per_point", "one_connector")
    assert witness


def check_of(report, name):
    return next(c for c in report.checks if c[0] == name)


def test_witnesses_without_line_zero(hermitian_gq):
    report = verify_gq(GQ(s=9, t=3, points=hermitian_gq.points,
                          lines=hermitian_gq.lines[1:]))
    assert check_of(report, "size_formulas") == (
        "size_formulas", False, "280 points (want 280), 111 lines (want 112)")
    assert check_of(report, "lines_per_point") == (
        "lines_per_point", False, "point 0")
    assert check_of(report, "one_connector") == (
        "one_connector", False, "point 0, line 3: 0 connectors")


def test_witnesses_of_a_doubled_joining_line():
    grid = grid_gq()
    report = verify_gq(GQ(s=2, t=1, points=grid.points,
                          lines=tuple(sorted(grid.lines + ((0, 1, 5),)))))
    assert check_of(report, "unique_joining_line") == (
        "unique_joining_line", False, "points 0,1 on lines 0,1")
    assert check_of(report, "one_connector") == (
        "one_connector", False, "point 0, line 4: 2 connectors")


def point_side_pair_checks(gq):
    """The two pair checks read off K = N N^T, with K's witness walk: the
    reference that verify_gq must match from whichever side it decides."""
    inc = gq.incidence
    joins = inc @ inc.T
    np.fill_diagonal(joins, 0)
    bad = first_true(joins > 1)
    witness = None
    if bad:
        a, b = bad
        first, second = np.flatnonzero(inc[a] & inc[b])[:2]
        witness = f"points {a},{b} on lines {first},{second}"
    connectors = np.minimum(joins, 1) @ inc
    bad = first_true((connectors != 1) & (inc == 0))
    return (("unique_joining_line", witness is None, witness),
            ("one_connector", bad is None, None if bad is None else
             f"point {bad[0]}, line {bad[1]}: {connectors[bad]} connectors"))


def grid_dual():
    grid = grid_gq()
    return GQ(s=1, t=2, points=tuple(range(6)),
              lines=tuple(sorted(grid.lines_through)))


@st.composite
def incidence_structures(draw):
    """Random point-line structures on up to 9 points, and the grid (more
    points than lines) or its dual (fewer) with a line doubled or dropped,
    or one point of a line moved off it."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        lines = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=4),
                              max_size=12))
        return GQ(s=2, t=1, points=tuple(range(n)),
                  lines=tuple(tuple(sorted(line)) for line in lines))
    base = draw(st.sampled_from([grid_gq(), grid_dual()]))
    lines = list(base.lines)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["keep", "double", "drop", "move"]))
    if how == "double":
        lines.append(lines[i])
    elif how == "drop":
        del lines[i]
    elif how == "move":
        p = draw(st.sampled_from(lines[i]))
        q = draw(st.sampled_from([x for x in base.points
                                  if x not in lines[i]]))
        lines[i] = tuple(sorted(set(lines[i]) - {p} | {q}))
    return GQ(s=base.s, t=base.t, points=base.points,
              lines=tuple(sorted(lines)))


@settings(max_examples=300, deadline=None)
@given(incidence_structures())
def test_pair_checks_equal_the_point_side_reference(gq):
    assert verify_gq(gq).checks[3:] == point_side_pair_checks(gq)


def test_pair_checks_of_the_examples_equal_the_point_side_reference(
        hermitian_gq):
    clique_dual = GQ(s=3, t=9, points=tuple(range(112)),
                     lines=tuple(sorted(hermitian_gq.lines_through)))
    for gq in (hermitian_gq, clique_dual, grid_gq(), grid_dual()):
        report = verify_gq(gq)
        assert report.overall
        assert report.checks[3:] == point_side_pair_checks(gq)


def test_the_hermitian_axioms_form_no_point_gram_matrix(hermitian_gq,
                                                       monkeypatch):
    """280 points, 112 lines: both pair checks are decided on the lines."""
    import schemeforge.geometry as geometry
    shapes = []
    real = geometry.exact_product

    def spy(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(geometry, "exact_product", spy)
    assert verify_gq(hermitian_gq).overall
    assert shapes == [((112, 280), (280, 112)), ((280, 112), (112, 112))]


def test_incidence_products_mark_collinear_pairs(hermitian_gq):
    inc = hermitian_gq.incidence
    joins = inc @ inc.T
    collinear = np.zeros_like(joins)
    for line in hermitian_gq.lines:
        for a, b in itertools.permutations(line, 2):
            collinear[a, b] = 1
    assert (np.diag(joins) == 4).all()
    np.fill_diagonal(joins, 0)
    assert (joins == collinear).all()


def test_collinear_means_orthogonal(hermitian_gq):
    """Two surface points share a line iff sum p_i q_i^3 = 0.

    The vectorized form matrix equals the scalar table fold on every
    ordered pair, the diagonal included.
    """
    coords = hermitian_coordinates().tolist()
    joins = (hermitian_gq.incidence @ hermitian_gq.incidence.T).tolist()
    matrix = hermitian_form()
    assert matrix.shape == (len(coords), len(coords))
    matrix = matrix.tolist()
    for i, j in itertools.product(range(len(coords)), repeat=2):
        form = 0
        for a, b in zip(coords[i], coords[j]):
            form = ADD[form][MUL[a][CONJ[b]]]
        assert matrix[i][j] == form
        if i < j:
            assert (form == 0) == (joins[i][j] == 1)


def test_hermitian_lines_are_pinned(hermitian_gq):
    """The line list, byte for byte, as first recorded."""
    digest = hashlib.sha256(repr(hermitian_gq.lines).encode()).hexdigest()
    assert digest == ("c4de82078a0ef7dd39ef4df0f9623c02"
                      "6b296fc8112177bd6c35c7a14578c845")


# ------------------------------------------------------------ exact product

def int_matrices(rows, cols):
    entries = st.lists(st.integers(0, 2 ** 20), min_size=rows * cols,
                       max_size=rows * cols)
    return entries.map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(rows, cols))


def product_pairs():
    dims = st.integers(0, 6)
    return st.tuples(dims, dims, dims).flatmap(
        lambda d: st.tuples(int_matrices(d[0], d[1]),
                            int_matrices(d[1], d[2])))


def empty_pair(rows, inner, cols):
    return (np.ones((rows, inner), dtype=np.int64),
            np.ones((inner, cols), dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(product_pairs())
@example(empty_pair(0, 3, 2))
@example(empty_pair(2, 0, 3))
@example(empty_pair(2, 3, 0))
@example(empty_pair(0, 0, 0))
def test_exact_product_equals_integer_matmul(pair):
    a, b = pair
    got = exact_product(a, b)
    assert got.dtype == np.int64
    assert got.shape == (a.shape[0], b.shape[1])
    assert np.array_equal(got, a @ b)


def test_exact_product_bound():
    big = 2 ** 26
    a = np.full((1, 2), big, dtype=np.int64)
    b = np.full((2, 1), big, dtype=np.int64)
    # 2^26 * 2^26 * 2 = 2^53: the first bound that is refused
    with pytest.raises(ProductBound, match="2\\^53"):
        exact_product(a, b)
    with pytest.raises(OverflowError):
        exact_product(a, b)
    a -= 1
    assert exact_product(a, b).tolist() == [[2 * (big - 1) * big]]


def test_exact_product_sums_in_float64_from_2_to_the_24():
    # bound 2^12 * 2^12 * 2 = 2^25: float32 would round 2^24 + 1 to 2^24
    a = np.array([[2 ** 12, 1]], dtype=np.int64)
    assert exact_product(a, a.T).tolist() == [[2 ** 24 + 1]]


def test_exact_product_in_float32_just_under_2_to_the_24():
    # bound 4095 * 4097 = 2^24 - 1, the largest that is summed in float32
    a = np.array([[4095]], dtype=np.int64)
    b = np.array([[4097]], dtype=np.int64)
    assert exact_product(a, b).tolist() == [[2 ** 24 - 1]]
    assert exact_product(-a, b).tolist() == [[1 - 2 ** 24]]


def argwhere_first(mask):
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def bool_masks():
    shapes = st.lists(st.integers(0, 5), min_size=1, max_size=3)
    return shapes.flatmap(lambda shape: st.lists(
        st.booleans(), min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape))).map(
            lambda xs: np.array(xs, dtype=bool).reshape(shape)))


@settings(max_examples=300, deadline=None)
@given(bool_masks())
@example(np.zeros((0,), dtype=bool))
@example(np.zeros((3, 0, 2), dtype=bool))
@example(np.zeros((2, 3), dtype=bool))
@example(np.eye(4, dtype=bool)[::-1])
def test_first_true_equals_the_first_argwhere_hit(mask):
    assert first_true(mask) == argwhere_first(mask)
    assert first_true(mask.T) == argwhere_first(mask.T)


# ------------------------------------------------------------ hemisystem

def test_hemisystem_size_and_quota(hermitian_gq, hemisystem):
    assert len(hemisystem.lines) == 56
    chosen = set(hemisystem.lines)
    for p in hermitian_gq.points:
        on = sum(1 for li in hermitian_gq.lines_through[p] if li in chosen)
        assert on == 2


def test_hemisystem_complement_verifies(hermitian_gq, hemisystem):
    comp = hemisystem.complement(hermitian_gq)
    assert verify_hemisystem(hermitian_gq, comp)
    assert set(hemisystem.lines) | set(comp.lines) == set(range(112))
    assert set(hemisystem.lines) & set(comp.lines) == set()


def test_search_is_deterministic(hermitian_gq, hemisystem):
    again = find_hemisystem(hermitian_gq)
    assert again.lines == hemisystem.lines


def test_seeded_search_also_verifies(hermitian_gq):
    seeded = find_hemisystem(hermitian_gq, seed=42)
    assert verify_hemisystem(hermitian_gq, seeded)


def test_all_lines_are_not_a_hemisystem(hermitian_gq):
    assert not verify_hemisystem(hermitian_gq,
                                 Hemisystem(tuple(range(112))))


def test_deleting_one_line_breaks_the_quota(hermitian_gq, hemisystem):
    damaged = Hemisystem(hemisystem.lines[1:])
    assert not verify_hemisystem(hermitian_gq, damaged)


def test_search_failure_is_loud():
    # point 0 lies on no line at all, so its quota of 1 is unreachable
    starved = GQ(s=2, t=1, points=tuple(range(9)),
                 lines=((3, 4, 5), (6, 7, 8), (1, 4, 7), (2, 5, 8)))
    with pytest.raises(NotFound):
        find_hemisystem(starved)


def test_search_refuses_an_even_order():
    """A hemisystem needs odd t; the grid's dual, GQ(1, 2), has t = 2."""
    grid = grid_gq()
    dual = GQ(s=1, t=2, points=tuple(range(6)),
              lines=tuple(sorted(grid.lines_through)))
    assert verify_gq(dual).overall
    with pytest.raises(EvenOrder, match="t = 2"):
        find_hemisystem(dual)
