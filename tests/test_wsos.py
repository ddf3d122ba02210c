"""Cone construction, Lambda operators, and the log-det barrier oracle."""

import numpy as np
import pytest
import scipy.linalg

import sospoly as sp
from sospoly.hsd import initial_point, try_make_iterate
from sospoly.interpolation import cheb2_points, points_for_degree
from sospoly.wsos import (
    HESS_SHIFT,
    ConeConstructionError,
    InterpWSOSCone,
    NotInteriorError,
    ProductCone,
    build_cone,
)


def ones_weight(t):
    return np.ones(t.shape[0])


def unweighted_cone(n, d):
    pts = points_for_degree(n, 2 * d)
    return build_cone(pts, [ones_weight], [d])


def envelope_weights(n):
    weights = []
    for j in range(n):
        def gj(t, j=j):
            return (1.0 - t[:, j]) * (t[:, j] + 1.0)
        weights.append(gj)
    weights.append(ones_weight)
    return weights


def boxed_cone(n, d):
    pts = points_for_degree(n, 2 * d)
    return build_cone(pts, envelope_weights(n), [d - 1] * n + [d])


# ----------------------------------------------------------------------
# construction


def test_envelope_cone_block_sizes():
    d = 6
    cone = boxed_cone(1, d)
    assert [B.shape[1] for B in cone.blocks] == [d, d + 1]
    assert cone.U == 2 * d + 1


def test_unweighted_single_block():
    d = 4
    cone = unweighted_cone(1, d)
    assert len(cone.blocks) == 1
    assert cone.blocks[0].shape == (2 * d + 1, d + 1)


def test_boundary_zero_weight_row_accepted():
    # second-kind points include t = +-1 where 1 - t^2 vanishes
    d = 3
    cone = boxed_cone(1, d)
    row_norms = np.linalg.norm(cone.blocks[0], axis=1)
    assert row_norms[0] == 0.0 and row_norms[-1] == 0.0


def test_negative_weight_rejected():
    pts = cheb2_points(4)
    with pytest.raises(ConeConstructionError):
        build_cone(pts, [lambda t: t[:, 0]], [1])  # negative at t < 0


def test_barrier_parameter():
    d = 5
    assert unweighted_cone(1, d).nu == d + 1
    assert boxed_cone(1, d).nu == 2 * d + 1
    single = unweighted_cone(1, d)
    assert ProductCone([single] * 3).nu == 3 * single.nu


# ----------------------------------------------------------------------
# Lambda operators


def test_lambda_at_ones_is_identity():
    cone = unweighted_cone(1, 4)
    lam = cone.lambda_op(0, np.ones(cone.U))
    np.testing.assert_allclose(lam, np.eye(5), atol=1e-13)


def test_lambda_linearity_and_rank_one():
    cone = unweighted_cone(1, 3)
    np.testing.assert_allclose(cone.lambda_op(0, np.zeros(cone.U)), 0.0, atol=0)
    e2 = np.zeros(cone.U)
    e2[2] = 1.0
    lam = cone.lambda_op(0, e2)
    row = cone.blocks[0][2]
    np.testing.assert_allclose(lam, np.outer(row, row), atol=1e-14)
    assert np.linalg.matrix_rank(lam, tol=1e-10) <= 1


def test_lambda_adjoint_values():
    cone = unweighted_cone(1, 3)
    P = cone.blocks[0]
    np.testing.assert_allclose(
        cone.lambda_adjoint(0, np.eye(P.shape[1])),
        np.sum(P * P, axis=1), atol=1e-14)
    np.testing.assert_allclose(
        cone.lambda_adjoint(0, np.zeros((4, 4))), 0.0, atol=0)


def test_lambda_adjoint_identity():
    rng = np.random.default_rng(11)
    cone = boxed_cone(2, 3)
    for i in range(len(cone.blocks)):
        L = cone.blocks[i].shape[1]
        x = rng.standard_normal(cone.U)
        S = rng.standard_normal((L, L))
        S = S + S.T
        lhs = np.sum(cone.lambda_op(i, x) * S)
        rhs = x @ cone.lambda_adjoint(i, S)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# ----------------------------------------------------------------------
# interior tests


def test_in_interior_cases():
    cone = unweighted_cone(1, 3)
    assert cone.in_interior(np.ones(cone.U)) is not None
    assert cone.in_interior(-np.ones(cone.U)) is None
    e1 = np.zeros(cone.U)
    e1[0] = 1.0
    assert cone.in_interior(e1) is None
    assert cone.in_interior(np.full(cone.U, np.nan)) is None


def test_barrier_outside_interior_raises():
    cone = unweighted_cone(1, 3)
    with pytest.raises(NotInteriorError):
        cone.barrier(-np.ones(cone.U))


# ----------------------------------------------------------------------
# barrier values and derivatives


def test_barrier_at_ones_unweighted():
    cone = unweighted_cone(1, 5)
    P = cone.blocks[0]
    ev = cone.barrier(np.ones(cone.U))
    assert abs(ev.value) <= 1e-12
    np.testing.assert_allclose(ev.gradient, -np.diag(P @ P.T), atol=1e-12)
    np.testing.assert_allclose(ev.hessian, (P @ P.T) ** 2, atol=1e-12)


def test_logarithmic_homogeneity():
    cone = boxed_cone(1, 4)
    rng = np.random.default_rng(2)
    x = np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U)
    ev = cone.barrier(x)
    for t in (0.5, 2.0, 10.0):
        assert abs(cone.barrier(t * x).value - (ev.value - cone.nu * np.log(t))) <= 1e-10


def test_gradient_identity():
    for cone in (unweighted_cone(2, 2), boxed_cone(1, 6)):
        rng = np.random.default_rng(4)
        x = np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U)
        ev = cone.barrier(x)
        assert abs(x @ ev.gradient + cone.nu) <= 1e-8 * cone.nu


def test_gradient_homogeneity_degree_minus_one():
    cone = unweighted_cone(1, 4)
    rng = np.random.default_rng(6)
    x = np.ones(cone.U) + 0.2 * rng.uniform(-1, 1, cone.U)
    g = cone.barrier(x).gradient
    for t in (0.5, 2.0, 10.0):
        gt = cone.barrier(t * x).gradient
        assert np.linalg.norm(gt - g / t) <= 1e-9 * np.linalg.norm(g / t)


def test_finite_difference_gradient_and_hessian():
    cone = boxed_cone(2, 3)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U)
        ev = cone.barrier(x)
        h = rng.standard_normal(cone.U)
        h *= 1e-5 * np.linalg.norm(x) / np.linalg.norm(h)
        fp, fm = cone.barrier(x + h), cone.barrier(x - h)
        directional = (fp.value - fm.value) / 2.0
        assert abs(directional - ev.gradient @ h) <= 1e-5 * abs(ev.gradient @ h)
        grad_diff = (fp.gradient - fm.gradient) / 2.0
        Hh = ev.hessian @ h
        assert np.linalg.norm(grad_diff - Hh) <= 1e-4 * np.linalg.norm(Hh)


def test_hessian_positive_definite_at_interior_points():
    cone = boxed_cone(1, 5)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = np.ones(cone.U) + 0.4 * rng.uniform(-1, 1, cone.U)
        if cone.in_interior(x) is None:
            continue
        np.linalg.cholesky(cone.barrier(x).hessian)  # raises if not PD


def test_hess_inv_apply_roundtrip_and_dense():
    cone = unweighted_cone(1, 6)
    rng = np.random.default_rng(10)
    x = np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U)
    ev = cone.barrier(x)
    w = rng.standard_normal(cone.U)
    v = ev.hessian @ w
    back = ev.hess_inv_apply(v)
    assert np.linalg.norm(back - w) <= 1e-8 * np.linalg.norm(w)
    np.testing.assert_allclose(ev.hess_inv_apply(np.zeros(cone.U)), 0.0, atol=0)
    # independent dense factorization at x = ones
    ev1 = cone.barrier(np.ones(cone.U))
    rhs = rng.standard_normal(cone.U)
    dense = np.linalg.solve((cone.blocks[0] @ cone.blocks[0].T) ** 2, rhs)
    assert np.linalg.norm(ev1.hess_inv_apply(rhs) - dense) <= 1e-8 * np.linalg.norm(dense)


def test_hess_inv_apply_is_the_lower_factor_solve(envelope_small_k3, envelope_1d_100,
                                                  shifted_factor_iterate):
    # the factor goes to LAPACK as its upper transpose; the solve is bit for
    # bit the one with the lower factor, at random points and at the final
    # iterates of solves (U = 11 and 201), as they are and with factor 0
    # given the jittered, shifted factor
    rng = np.random.default_rng(13)
    evals = [cone.barrier(np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U))
             for cone in (unweighted_cone(1, 6), boxed_cone(1, 5), boxed_cone(2, 3))]
    for inst in (envelope_small_k3, envelope_1d_100):
        final = inst.result.final
        evals += final.barrier.factor_evals
        evals += shifted_factor_iterate(inst.built.problem, final, 0).barrier.factor_evals
    assert any(ev.hess_jitter for ev in evals[3:])
    for ev in evals:
        for v in (rng.standard_normal(ev.cone.U), ev.gradient):
            lower = scipy.linalg.cho_solve((ev.hess_chol, True), v, check_finite=False)
            assert np.array_equal(ev.hess_inv_apply(v), lower)


@pytest.mark.parametrize("U", [201, 455])
def test_right_side_solve_matches_solve_triangular(U):
    # V = L^{-1} Ptilde^T comes from the right-side solve on the stored
    # U x L block; it agrees with the left-side solve on Ptilde^T to rounding
    rng = np.random.default_rng(U)
    cone = InterpWSOSCone([rng.standard_normal((U, L)) for L in (1, 7, 56, 100)])
    for _ in range(3):
        x = np.ones(U) + 0.3 * rng.uniform(-1, 1, U)
        lam_chols = cone.in_interior(x)
        halves = cone.barrier(x)._halves
        for B, L, V in zip(cone.blocks, lam_chols, halves):
            want = scipy.linalg.solve_triangular(L, B.T, lower=True)
            assert V.shape == want.shape
            assert np.linalg.norm(V - want) <= 1e-13 * np.linalg.norm(want)


def test_hess_chol_records_jitter(monkeypatch, sequential_factors):
    cone = unweighted_cone(1, 6)
    x = np.ones(cone.U) + 0.3 * np.random.default_rng(11).uniform(-1, 1, cone.U)
    plain = cone.barrier(x)
    assert plain.hess_jitter is None
    plain.hess_chol
    assert plain.hess_jitter == 0.0

    ev = cone.barrier(x)
    cholesky = np.linalg.cholesky

    def fail_on_hessian(a):
        if a is ev.hessian:
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_on_hessian)
    L = ev.hess_chol
    assert ev.hess_jitter == HESS_SHIFT == 1e-14
    shift = 1e-14 * np.mean(np.diag(ev.hessian))
    np.testing.assert_allclose(L @ L.T, ev.hessian + shift * np.eye(cone.U), rtol=1e-12)

    # when the shifted factor fails too there is no further rung: the point
    # is not interior, and a trial iterate there comes out as None
    problem = sp.build_envelope(1, 3, 2, seed=1).problem
    U = problem.cone.factors[0].U
    assert all(f.U == U and U not in f.dims for f in problem.cone.factors)
    z = initial_point(problem)
    calls = []

    def fail_on_hessians(a):
        if a.shape == (U, U):
            calls.append(1)
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_on_hessians)
    ev = problem.cone.factors[0].barrier(z.x[:U])
    with pytest.raises(NotInteriorError, match="Hessian"):
        ev.hess_chol
    assert len(calls) == 2 and ev.hess_jitter is None
    assert try_make_iterate(problem, z.x, z.tau, z.y, z.s, z.kappa) is None


def test_screen_bound_tight_at_jittered_iterates(ray_search_finals, shifted_factor_iterate):
    # the screen's shift term is the one shift hess_chol can add, so at a
    # final iterate, each factor whose Hessian Cholesky needed that shift
    # has a bound, with its own evaluation as reference, that meets the
    # exact norm (a factor factored without it stays below by the shift
    # term); without the shift term the bound would pass the norm by more
    # than the screen's 1e-6 rounding margin. The final iterates are the
    # ray search's, where k = 2 shifts factor 1; the k = 3 one factors
    # plainly, so its factor 0 is given the shifted factor.
    for k in (2, 3):
        problem, z = ray_search_finals[k]
        if k == 3:
            z = shifted_factor_iterate(problem, z, 0)
        shifted = [(factor, ref, sl) for factor, ref, sl in zip(
            problem.cone.factors, z.barrier.factor_evals, problem.cone.slices())
            if ref.hess_jitter == HESS_SHIFT]
        assert shifted
        for factor, ref, sl in shifted:
            bound = factor.barrier(z.x[sl]).inv_quadform_lower_bound(z.s[sl], z.mu, ref)
            exact = ref.inv_quadform(z.s[sl] + z.mu * ref.gradient)
            assert (1.0 - 1e-5) * exact <= bound <= (1.0 + 1e-6) * exact


def test_screen_bound_below_the_shifted_norm_at_plain_near_singular_factors(
        ray_search_finals):
    # at the ray search's final iterates, factors whose Hessian factored
    # plainly still have eigenvalues below the shift; there the bound for
    # w = H^{-1} psi stays below the norm with the shift
    count = 0
    for k in (2, 3):
        problem, z = ray_search_finals[k]
        for factor, ref, sl in zip(problem.cone.factors, z.barrier.factor_evals,
                                   problem.cone.slices()):
            if ref.hess_jitter != 0.0:
                continue
            bound = factor.barrier(z.x[sl]).inv_quadform_lower_bound(z.s[sl], z.mu, ref)
            H, psi = ref.hessian, z.s[sl] + z.mu * ref.gradient
            shift = HESS_SHIFT * np.mean(np.diag(H))
            half = np.linalg.solve(np.linalg.cholesky(H + shift * np.eye(factor.U)), psi)
            assert bound <= (1.0 + 1e-9) * float(half @ half)
            count += 1
    assert count == 4


def test_conditioning_bound():
    # cond(H(x)) <= cond(Lambda_op)^2 * cond(Lambda(x))^2 on small cones
    rng = np.random.default_rng(12)
    for cone in (unweighted_cone(1, 7), boxed_cone(1, 5), unweighted_cone(2, 2)):
        assert cone.U <= 60
        lam_op_sq = np.linalg.cond(sum((B @ B.T) ** 2 for B in cone.blocks))
        for _ in range(5):
            x = np.ones(cone.U) + 0.4 * rng.uniform(-1, 1, cone.U)
            if cone.in_interior(x) is None:
                continue
            cond_H = np.linalg.cond(cone.barrier(x).hessian)
            eigs = np.concatenate([
                np.linalg.eigvalsh(cone.lambda_op(i, x))
                for i in range(len(cone.blocks))
            ])
            cond_lam = eigs.max() / eigs.min()
            assert cond_H <= lam_op_sq * cond_lam**2 * (1 + 1e-8)


def test_dual_membership_cross_check():
    rng = np.random.default_rng(13)
    cone = boxed_cone(1, 4)
    s = np.zeros(cone.U)
    for i, B in enumerate(cone.blocks):
        L = B.shape[1]
        G = rng.standard_normal((L, L))
        s += cone.lambda_adjoint(i, G @ G.T)
    for _ in range(20):
        x = np.ones(cone.U) + rng.uniform(-1, 1, cone.U)
        if cone.in_interior(x) is None:
            continue
        assert s @ x >= -1e-10 * np.linalg.norm(s)


# ----------------------------------------------------------------------
# product cones


def test_product_cone_slices_and_barrier():
    factor = unweighted_cone(1, 3)
    prod = ProductCone([factor, factor])
    assert prod.dim == 2 * factor.U
    x = np.concatenate([np.ones(factor.U), 2.0 * np.ones(factor.U)])
    ev = prod.barrier(x)
    single = factor.barrier(np.ones(factor.U))
    double = factor.barrier(2.0 * np.ones(factor.U))
    assert abs(ev.value - (single.value + double.value)) <= 1e-12
    np.testing.assert_allclose(
        ev.gradient, np.concatenate([single.gradient, double.gradient]), atol=1e-13)
    for e, want in zip(ev.factor_evals, (single, double)):
        np.testing.assert_allclose(e.hessian, want.hessian, atol=1e-13)


def test_cone_metadata():
    cone = boxed_cone(1, 3)
    assert [w.degree for w in cone.weights] == [2, 3]
    assert all(w.values.shape == (cone.U,) for w in cone.weights)
    assert np.all(cone.weights[0].values >= 0)


def test_rank_deficient_block_rejected():
    with pytest.raises(ConeConstructionError):
        InterpWSOSCone([np.ones((5, 2))])
