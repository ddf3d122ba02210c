"""Point generators, Vandermonde matrices, orthonormalization, quadrature."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sospoly.interpolation import (
    BoxDomain,
    PointSet,
    UnisolvencyError,
    approx_fekete_points,
    box_quadrature_weights,
    cheb1_points,
    cheb2_points,
    cheb_basis_values,
    cheb_vandermonde,
    graded_lex_exponents,
    orthonormalize,
    padua_points,
    points_for_degree,
    scale_to_box,
    space_dim,
)

RT2 = math.sqrt(2.0) / 2.0


# ----------------------------------------------------------------------
# point families


def test_cheb1_small_degrees():
    np.testing.assert_allclose(cheb1_points(0).points.ravel(), [0.0], atol=1e-15)
    np.testing.assert_allclose(cheb1_points(1).points.ravel(), [RT2, -RT2], atol=1e-15)
    np.testing.assert_allclose(
        cheb1_points(2).points.ravel(), [math.sqrt(3) / 2, 0.0, -math.sqrt(3) / 2],
        atol=1e-15)


@pytest.mark.parametrize("d", [0, 1, 2, 5, 17, 40])
def test_cheb1_cardinality_and_order(d):
    pts = cheb1_points(d).points.ravel()
    assert pts.size == d + 1
    assert np.all(np.diff(pts) < 0) or d == 0  # descending


def test_cheb2_small_degrees():
    with pytest.raises(ValueError):
        cheb2_points(0)
    np.testing.assert_allclose(cheb2_points(1).points.ravel(), [1, -1], atol=1e-15)
    np.testing.assert_allclose(cheb2_points(2).points.ravel(), [1, 0, -1], atol=1e-15)
    np.testing.assert_allclose(
        cheb2_points(4).points.ravel(), [1, RT2, 0, -RT2, -1], atol=1e-15)


def test_padua_d1_exact():
    got = {tuple(np.round(p, 12)) for p in padua_points(1).points}
    assert got == {(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_padua_d2_matches_direct_enumeration():
    # oracle: enumerate the even/odd index products directly
    c2 = np.cos(np.arange(3) * np.pi / 2)
    c3 = np.cos(np.arange(4) * np.pi / 3)
    expected = {(a, b) for a in c2[0::2] for b in c3[1::2]}
    expected |= {(a, b) for a in c2[1::2] for b in c3[0::2]}
    expected = {tuple(np.round(p, 12)) for p in expected}
    got = {tuple(np.round(p, 12)) for p in padua_points(2).points}
    assert got == expected
    assert len(got) == 6


@pytest.mark.parametrize("d", list(range(1, 31)))
def test_padua_cardinality(d):
    assert padua_points(d).U == (d + 1) * (d + 2) // 2


def test_padua_d20_has_231_points():
    assert padua_points(20).U == 231


# ----------------------------------------------------------------------
# Vandermonde matrices


def test_vandermonde_univariate_values():
    V = cheb_vandermonde(PointSet(np.array([0.0])), 2)
    np.testing.assert_allclose(V, [[1.0, 0.0, -1.0]], atol=1e-15)
    V = cheb_vandermonde(PointSet(np.array([1.0, -1.0])), 1)
    np.testing.assert_allclose(V, [[1, 1], [1, -1]], atol=1e-15)


def test_vandermonde_matches_cosine_formula():
    # T_k(cos theta) = cos(k theta) on [-1, 1]
    rng = np.random.default_rng(0)
    t = rng.uniform(-1, 1, 7)
    V = cheb_vandermonde(PointSet(t), 9)
    theta = np.arccos(t)
    for k in range(10):
        np.testing.assert_allclose(V[:, k], np.cos(k * theta), atol=1e-12)


@pytest.mark.parametrize("d", [2, 5, 11])
def test_discrete_orthogonality_first_kind(d):
    pts = cheb1_points(2 * d)
    V = cheb_vandermonde(pts, 2 * d, normalized=True)
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12


def test_vandermonde_tensor_order_is_graded_lex():
    pts = PointSet(np.array([[0.3, -0.7]]), BoxDomain.unit(2))
    V = cheb_vandermonde(pts, 2)
    exps = graded_lex_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    t1, t2 = 0.3, -0.7
    vals = {(0, 0): 1.0, (0, 1): t2, (1, 0): t1, (0, 2): 2 * t2**2 - 1,
            (1, 1): t1 * t2, (2, 0): 2 * t1**2 - 1}
    np.testing.assert_allclose(V[0], [vals[e] for e in exps], atol=1e-14)


# ----------------------------------------------------------------------
# approximate Fekete points


def test_fekete_1d_unisolvent():
    pts = approx_fekete_points(1, 2)
    assert pts.U == 3
    V = cheb_vandermonde(pts, 2)
    assert abs(np.linalg.det(V)) > 1e-8


def test_fekete_cardinalities():
    assert approx_fekete_points(2, 4).U == space_dim(2, 4) == 15
    assert approx_fekete_points(3, 12).U == 455


def test_fekete_beats_naive_row_choice():
    pts = approx_fekete_points(2, 4)
    V_sel = cheb_vandermonde(pts, 2 * 2)
    # naive choice: first 15 points of the same candidate grid
    grid = _candidate_grid(2, 4)
    naive = PointSet(grid[:15], BoxDomain.unit(2))
    V_naive = cheb_vandermonde(naive, 4)
    _, ld_sel = np.linalg.slogdet(cheb_vandermonde(pts, 4))
    _, ld_naive = np.linalg.slogdet(V_naive)
    assert ld_sel >= ld_naive


@pytest.mark.parametrize("n,deg", [(3, 8), (3, 12), (4, 6)])
def test_fekete_vandermonde_well_conditioned(n, deg):
    pts = approx_fekete_points(n, deg)
    sv = np.linalg.svd(cheb_vandermonde(pts, deg), compute_uv=False)
    assert sv[-1] > 1e-10 * sv[0]


@pytest.mark.parametrize("n,deg", [(1, 6), (2, 5), (3, 4)])
def test_generated_points_unisolvent(n, deg):
    pts = points_for_degree(n, deg)
    V = cheb_vandermonde(pts, deg)
    assert V.shape[0] == V.shape[1]
    sv = np.linalg.svd(V, compute_uv=False)
    assert sv[-1] > 1e-10 * sv[0]


def _candidate_grid(n, deg):
    """The Fekete candidate grid C_deg^n, last axis fastest."""
    axis = np.cos(np.arange(deg + 1) * np.pi / deg)
    return np.array(list(itertools.product(axis, repeat=n)))


@pytest.mark.parametrize("n,deg", [(1, 2), (2, 4), (3, 6), (3, 8), (4, 4)])
def test_fekete_matches_explicit_grid_lu(n, deg):
    # the algorithm written out: explicit grid, its Vandermonde, scipy's LU
    # with partial pivoting, the row swaps applied in order, the first U
    # rows in index order
    grid = _candidate_grid(n, deg)
    V = cheb_basis_values(grid, BoxDomain.unit(n), deg)
    _, piv = scipy.linalg.lu_factor(V)
    rows = np.arange(grid.shape[0])
    for i, p in enumerate(piv):
        rows[i], rows[p] = rows[p], rows[i]
    want = grid[np.sort(rows[:space_dim(n, deg)])]
    assert np.array_equal(approx_fekete_points(n, deg).points, want)


def test_fekete_factors_the_candidates_in_place():
    # 5^6 = 15,625 candidates x 210 columns (26 MB): the peak is that one
    # array plus the grid, its per-coordinate Chebyshev tables (6 x 5 rows
    # of 15,625, a seventh of it) and small temporaries; a C to Fortran copy
    # would double it
    approx_fekete_points(2, 2)  # first-call imports outside the traced peak
    one = 15_625 * 210 * 8
    tracemalloc.start()
    try:
        approx_fekete_points(6, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= one + one // 5 + 2**20


def test_fekete_unallocatable_candidates_name_their_size():
    # the 13^12 x 12 grid alone is 2 PiB, beyond any process's address
    # space, so the allocation fails before a multi-index is enumerated
    with pytest.raises(MemoryError, match=r"23,298,085,122,481 rows x 2704156 columns"):
        approx_fekete_points(12, 12)


def test_fekete_box_rescale_once():
    box = BoxDomain([0.0, -2.0, 1.0], [1.0, 3.0, 1.5])
    got = points_for_degree(3, 4, box)
    want = scale_to_box(approx_fekete_points(3, 4), box)
    assert np.array_equal(got.points, want.points)
    assert got.box is box and want.box is box


# ----------------------------------------------------------------------
# affine maps


def test_scale_to_box_values():
    pts = scale_to_box(PointSet(np.array([1.0, 0.0, -1.0])), BoxDomain([0.0], [1.0]))
    np.testing.assert_allclose(pts.points.ravel(), [1.0, 0.5, 0.0], atol=1e-15)

    same = scale_to_box(cheb2_points(3), BoxDomain.unit(1))
    np.testing.assert_allclose(same.points, cheb2_points(3).points, atol=1e-15)

    box = BoxDomain([-1.0, -0.1], [0.0, 0.9])
    pts = scale_to_box(PointSet(np.array([[1.0, 0.0]]), BoxDomain.unit(2)), box)
    np.testing.assert_allclose(pts.points, [[0.0, 0.4]], atol=1e-15)


def test_scale_roundtrip():
    rng = np.random.default_rng(3)
    raw = PointSet(rng.uniform(-1, 1, (20, 3)), BoxDomain.unit(3))
    box = BoxDomain([-2.0, 0.5, -0.1], [3.0, 0.75, 0.0])
    back = box.to_unit(scale_to_box(raw, box).points)
    assert np.max(np.abs(back - raw.points)) <= 1e-14


def test_scale_requires_unit_source():
    pts = PointSet(np.array([0.25, 0.5]), BoxDomain([0.0], [1.0]))
    with pytest.raises(ValueError):
        scale_to_box(pts, BoxDomain([-1.0], [1.0]))


# ----------------------------------------------------------------------
# orthonormalization


def test_orthonormalize_identity_and_scaling():
    eye = np.eye(4)
    np.testing.assert_allclose(orthonormalize(eye), eye, atol=1e-14)
    Q = orthonormalize(2.0 * eye)
    np.testing.assert_allclose(np.abs(Q), eye, atol=1e-14)


def test_orthonormalize_random_full_rank():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((40, 12))
    Q = orthonormalize(M)
    assert np.max(np.abs(Q.T @ Q - np.eye(12))) <= 1e-12
    # span preserved
    assert np.linalg.norm(M - Q @ (Q.T @ M)) <= 1e-10 * np.linalg.norm(M)


def test_orthonormalize_rank_deficient_raises():
    M = np.ones((6, 3))
    with pytest.raises(UnisolvencyError):
        orthonormalize(M)


@pytest.mark.parametrize("col_scale, raises", [(0.0, True), (1e-14, True), (1e-10, False)])
def test_orthonormalize_threshold_is_relative_to_the_2_norm(col_scale, raises):
    # one column shrunk to col_scale of the others: a diagonal entry of R
    # below 1e-12 ||M||_2 is rank deficiency; the returned Q is the QR's own
    rng = np.random.default_rng(11)
    M = 1e3 * rng.standard_normal((30, 5))
    M[:, 2] *= col_scale
    if raises:
        with pytest.raises(UnisolvencyError):
            orthonormalize(M)
    else:
        assert np.array_equal(orthonormalize(M), np.linalg.qr(M)[0])


# ----------------------------------------------------------------------
# quadrature weights


def test_quadrature_degree_zero():
    w = box_quadrature_weights(PointSet(np.array([0.0])), 0)
    np.testing.assert_allclose(w, [2.0], atol=1e-14)


def test_chebyshev_moment_t2():
    # integral of T_2 = 2t^2 - 1 over [-1, 1] is -2/3
    from sospoly.interpolation import _cheb_moments_1d

    np.testing.assert_allclose(_cheb_moments_1d(2)[2], -2.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 4, 9])
def test_quadrature_univariate_exactness(d):
    pts = cheb2_points(2 * d)
    w = box_quadrature_weights(pts, 2 * d)
    np.testing.assert_allclose(np.sum(w), 2.0, atol=1e-12)
    t = pts.points.ravel()
    np.testing.assert_allclose(w @ t**2, 2.0 / 3.0, atol=1e-12)


@pytest.mark.parametrize("n,deg", [(1, 8), (2, 6), (3, 4)])
def test_quadrature_exact_on_all_basis_polynomials(n, deg):
    pts = points_for_degree(n, deg)
    w = box_quadrature_weights(pts, deg)
    V = cheb_vandermonde(pts, deg)
    from sospoly.interpolation import _cheb_moments_1d

    mom = _cheb_moments_1d(deg)
    exact = np.array([
        np.prod([mom[a] for a in alpha]) for alpha in graded_lex_exponents(n, deg)
    ])
    assert np.max(np.abs(V.T @ w - exact)) <= 1e-10


def test_quadrature_scaled_box():
    pts = scale_to_box(cheb2_points(4), BoxDomain([0.0], [1.0]))
    w = box_quadrature_weights(pts, 4)
    np.testing.assert_allclose(np.sum(w), 1.0, atol=1e-12)        # length of box
    t = pts.points.ravel()
    np.testing.assert_allclose(w @ t**3, 0.25, atol=1e-12)        # int_0^1 t^3


def test_quadrature_wrong_point_count():
    pts = cheb2_points(4)
    with pytest.raises(UnisolvencyError):
        box_quadrature_weights(pts, 6)


# ----------------------------------------------------------------------
# misc invariants


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([0.5, 0.5]))  # duplicates
    with pytest.raises(ValueError):
        PointSet(np.array([2.0]), BoxDomain([-1.0], [1.0]))  # outside box


def test_cheb_basis_values_arbitrary_points_match_vandermonde():
    rng = np.random.default_rng(5)
    raw = rng.uniform(-1, 1, (9, 2))
    box = BoxDomain.unit(2)
    V = cheb_basis_values(raw, box, 3)
    assert V.flags.c_contiguous
    np.testing.assert_allclose(V, cheb_vandermonde(PointSet(raw, box), 3), atol=0)


# ----------------------------------------------------------------------
# the build layer, bit for bit against the direct definitions


def reference_graded_lex(n, deg):
    """The definition: every tuple of the box, filtered and sorted."""
    idx = [a for a in itertools.product(range(deg + 1), repeat=n) if sum(a) <= deg]
    idx.sort(key=lambda a: (sum(a), a))
    return idx


def reference_basis_values(points, box, deg):
    """All n Chebyshev factors of each T_alpha, T_0 included, multiplied left
    to right, with tables from the recurrence 2.0 * t * T_{i-1} - T_{i-2}."""
    unit = box.to_unit(points)
    tables = []
    for t in unit.T:
        table = [np.ones_like(t), t.copy()]
        for i in range(2, deg + 1):
            table.append(2.0 * t * table[i - 1] - table[i - 2])
        tables.append(table)
    cols = []
    for alpha in reference_graded_lex(box.n, deg):
        col = tables[0][alpha[0]].copy()
        for table, a in zip(tables[1:], alpha[1:]):
            col = col * table[a]
        cols.append(col)
    return np.array(cols).T


@pytest.mark.parametrize("n", range(1, 7))
def test_graded_lex_matches_filter_and_sort(n):
    for deg in range(9):
        assert graded_lex_exponents(n, deg) == reference_graded_lex(n, deg)


@pytest.mark.parametrize("n, deg", [(1, 12), (2, 7), (3, 6), (6, 4)])
def test_cheb_basis_values_match_the_all_factor_product(n, deg):
    rng = np.random.default_rng(n)
    lower = rng.uniform(-2.0, 0.0, n)
    box = BoxDomain(lower, lower + rng.uniform(0.5, 3.0, n))
    points = box.from_unit(rng.uniform(-1.0, 1.0, (50, n)))
    assert np.array_equal(cheb_basis_values(points, box, deg),
                          reference_basis_values(points, box, deg))


def test_fekete_candidate_fill_matches_the_all_factor_product():
    # the Leja points come from the LU of this fill, so equal bits here are
    # the same points; n=6, deg=4 is butcher's 15,625 x 210 fill
    n, deg = 6, 4
    axis = np.cos(np.arange(deg + 1) * np.pi / deg)
    grid = np.array(list(itertools.product(axis, repeat=n)))
    box = BoxDomain.unit(n)
    assert np.array_equal(cheb_basis_values(grid, box, deg),
                          reference_basis_values(grid, box, deg))


@pytest.mark.parametrize("pts, deg", [
    (scale_to_box(cheb2_points(12), BoxDomain([0.5], [3.0])), 12),
    (scale_to_box(padua_points(6), BoxDomain([-2.0, 0.0], [1.0, 0.25])), 6),
    (points_for_degree(3, 4, BoxDomain([-1.0, 0.0, 2.0], [3.0, 1.0, 2.5])), 4),
])
def test_quadrature_weights_match_the_per_index_moment_loop(pts, deg):
    from sospoly.interpolation import _cheb_moments_1d

    mom = _cheb_moments_1d(deg)
    halfwidth = (pts.box.upper - pts.box.lower) / 2.0
    m = np.array([np.prod([mom[a] * halfwidth[k] for k, a in enumerate(alpha)])
                  for alpha in reference_graded_lex(pts.n, deg)])
    V = reference_basis_values(pts.points, pts.box, deg)
    assert np.array_equal(box_quadrature_weights(pts, deg), np.linalg.solve(V.T, m))
