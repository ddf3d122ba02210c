"""Gram certificate recovery, verification, and SOS decompositions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sospoly as sp
from sospoly.hsd import initial_point
from sospoly.recovery import (
    _SUM_CHUNK_TERMS,
    _compensated_adjoint_sum,
    _sum2_rows,
    lower_bound_certificate,
    recover_gram,
    sos_terms,
    verify_certificate,
)
from sospoly.wsos import NotInteriorError, build_cone


def ones_weight(t):
    return np.ones(t.shape[0])


def unweighted_cone(d):
    return build_cone(sp.cheb2_points(2 * d), [ones_weight], [d])


# ----------------------------------------------------------------------
# recover_gram


def test_centered_unweighted_gram_is_identity():
    cone = unweighted_cone(4)
    x = np.ones(cone.U)
    P = cone.blocks[0]
    s = np.diag(P @ P.T)           # -g(1)
    cert = recover_gram(cone, x, s, delta=1.0)
    np.testing.assert_allclose(cert.grams[0], np.eye(P.shape[1]), atol=1e-10)
    assert cert.adjoint_residual <= 1e-12
    assert cert.min_eigenvalues[0] > 0.9


def test_centered_closed_form_on_solver_start(envelope_small):
    # psi(z0) = 0, so S_i = mu * Lambda_i(x0)^{-1}
    problem = envelope_small.built.problem
    z0 = initial_point(problem)
    for factor, ev, sl in zip(problem.cone.factors, z0.barrier.factor_evals,
                              problem.cone.slices()):
        cert = recover_gram(factor, z0.x[sl], z0.s[sl], z0.mu, barrier=ev)
        for i, S in enumerate(cert.grams):
            lam_inv = np.linalg.inv(factor.lambda_op(i, z0.x[sl]))
            err = np.linalg.norm(S - z0.mu * lam_inv) / np.linalg.norm(lam_inv)
            assert err <= 1e-9


def test_adjoint_identity_holds_for_arbitrary_s():
    # the equality needs no hypothesis; positivity is what needs one
    cone = unweighted_cone(3)
    rng = np.random.default_rng(21)
    x = np.ones(cone.U) + 0.4 * rng.uniform(-1, 1, cone.U)
    for _ in range(5):
        s = rng.standard_normal(cone.U) * 3.0
        cert = recover_gram(cone, x, s, delta=1.0)
        assert cert.adjoint_residual <= 1e-8 * (1 + np.linalg.norm(s))


def test_positivity_under_norm_hypothesis():
    cone = unweighted_cone(4)
    rng = np.random.default_rng(22)
    x = np.ones(cone.U) + 0.2 * rng.uniform(-1, 1, cone.U)
    ev = cone.barrier(x)
    delta = 0.7
    for _ in range(5):
        pert = rng.standard_normal(cone.U)
        pert *= 0.5 * delta / np.sqrt(pert @ ev.hessian @ pert)   # local norm 0.5 delta
        s = -delta * ev.gradient + ev.hessian @ pert * 0.0 + pert
        # check the hypothesis numerically before asserting the conclusion
        lhs = np.sqrt((s + delta * ev.gradient) @ ev.hess_inv_apply(s + delta * ev.gradient))
        if lhs >= delta:
            continue
        cert = recover_gram(cone, x, s, delta, barrier=ev)
        assert min(cert.min_eigenvalues) > 0


def test_recover_gram_requires_interior():
    cone = unweighted_cone(2)
    with pytest.raises(NotInteriorError):
        recover_gram(cone, -np.ones(cone.U), np.ones(cone.U), 1.0)


def _dense_least_squares_oracle(cone, x, s, delta):
    """Solve min ||Lam^(1/2) (S - delta Lam^{-1}) Lam^(1/2)||_F^2 s.t. adjoint = s."""
    lam = cone.lambda_op(0, x)
    L = lam.shape[0]
    basis = []
    for a, b in itertools.combinations_with_replacement(range(L), 2):
        E = np.zeros((L, L))
        E[a, b] = E[b, a] = 1.0
        basis.append(E)
    m = len(basis)
    # objective 0.5 sigma' Q sigma - q' sigma (+ const)
    Q = np.empty((m, m))
    for i, Ei in enumerate(basis):
        for j, Ej in enumerate(basis):
            Q[i, j] = 2.0 * np.trace(lam @ Ei @ lam @ Ej)
    q = np.array([2.0 * delta * np.trace(lam @ Ei) for Ei in basis])
    C = np.array([[np.sum(cone.lambda_op(0, e_u(cone.U, u)) * Ei) for Ei in basis]
                  for u in range(cone.U)])
    kkt = np.block([[Q, C.T], [C, np.zeros((cone.U, cone.U))]])
    rhs = np.concatenate([q, s])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    S = sum(sig * E for sig, E in zip(sol[:m], basis))
    return S


def e_u(U, u):
    v = np.zeros(U)
    v[u] = 1.0
    return v


def test_least_squares_characterization():
    # recover_gram's S solves the weighted-Frobenius projection problem
    cone = build_cone(sp.cheb2_points(4), [ones_weight], [2])   # L = 3 <= 6
    rng = np.random.default_rng(23)
    x = np.ones(cone.U) + 0.3 * rng.uniform(-1, 1, cone.U)
    G = rng.standard_normal((3, 3))
    s = cone.lambda_adjoint(0, G @ G.T + 0.1 * np.eye(3))
    delta = 0.8
    cert = recover_gram(cone, x, s, delta)
    S_oracle = _dense_least_squares_oracle(cone, x, s, delta)
    err = np.linalg.norm(cert.grams[0] - S_oracle) / np.linalg.norm(S_oracle)
    assert err <= 1e-6


# ----------------------------------------------------------------------
# verify_certificate


def test_verify_passes_on_centered_certificate():
    cone = unweighted_cone(3)
    x = np.ones(cone.U)
    s = np.diag(cone.blocks[0] @ cone.blocks[0].T)
    cert = recover_gram(cone, x, s, delta=1.0)
    report = verify_certificate(cone, s, cert)
    assert report.passed
    assert report.adjoint_residual <= 1e-12
    assert all(report.block_psd)


def test_verify_detects_perturbed_gram():
    cone = unweighted_cone(3)
    x = np.ones(cone.U)
    s = np.diag(cone.blocks[0] @ cone.blocks[0].T)
    cert = recover_gram(cone, x, s, delta=1.0)
    cert.grams[0][0, 1] += 1e-3
    cert.grams[0][1, 0] += 1e-3
    report = verify_certificate(cone, s, cert)
    assert not report.passed
    assert report.adjoint_residual > 1e-4
    assert np.max(np.abs(report.pointwise_residual)) > 1e-4


def test_verify_flags_indefinite_block():
    cone = unweighted_cone(2)
    x = np.ones(cone.U)
    s = np.diag(cone.blocks[0] @ cone.blocks[0].T)
    cert = recover_gram(cone, x, s, delta=1.0)
    cert.grams[0][-1, -1] = -1.0
    report = verify_certificate(cone, s, cert)
    assert not all(report.block_psd)
    assert min(report.block_min_pivot) < 0


@pytest.mark.parametrize("lb", [math.nan, -math.inf])
def test_lower_bound_certificate_rejects_a_non_finite_bound(butcher_solved, lb):
    built = butcher_solved.built
    with pytest.raises(ValueError, match="lb must be a finite number"):
        lower_bound_certificate(built.cone.factors[0], butcher_solved.result.final,
                                built.problem.c, lb)


def test_butcher_lower_bound_workflow(butcher_solved):
    # certify s = f(t_u) - LB at LB slightly below the computed bound
    r = butcher_solved.result
    built = butcher_solved.built
    factor = built.cone.factors[0]
    z = r.final
    lb = r.dual_objective - 1e-9
    cert, s_cert = lower_bound_certificate(
        factor, z, built.problem.c, lb, barrier=z.barrier.factor_evals[0])
    assert min(cert.min_eigenvalues) > 0
    report = verify_certificate(factor, s_cert, cert)
    assert report.passed
    assert report.adjoint_residual <= 1e-8 * (1 + np.linalg.norm(s_cert, np.inf))


def _fsum_adjoint(cone, grams):
    """The adjoint sum term by term, (B[u,a] * S[a,b]) * B[u,b], with math.fsum."""
    out = np.empty(cone.U)
    for u in range(cone.U):
        parts = []
        for B, S in zip(cone.blocks, grams):
            row = B[u]
            parts.extend((row[:, None] * S * row[None, :]).ravel())
        out[u] = math.fsum(parts)
    return out


def test_compensated_sum_within_an_ulp_of_fsum(envelope_small, envelope_1d_100,
                                              butcher_solved):
    certs = []
    for solved in (envelope_small, envelope_1d_100):
        z, cone = solved.result.final, solved.built.cone
        for factor, ev, sl in zip(cone.factors, z.barrier.factor_evals, cone.slices()):
            certs.append((factor, recover_gram(factor, z.x[sl], z.s[sl], z.mu,
                                               barrier=ev)))
    r, built = butcher_solved.result, butcher_solved.built
    certs.append((built.cone.factors[0], lower_bound_certificate(
        built.cone.factors[0], r.final, built.problem.c, r.dual_objective - 1e-9,
        barrier=r.final.barrier.factor_evals[0])[0]))
    for factor, cert in certs:
        want = _fsum_adjoint(factor, cert.grams)
        got = _compensated_adjoint_sum(factor, cert.grams)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_compensated_sum_allocates_its_buffers_once(envelope_1d_100):
    # the term buffer (one chunk of points) and the sum's two scratch
    # halves are the only large arrays, whatever the number of chunks
    factor = envelope_1d_100.built.cone.factors[0]
    rng = np.random.default_rng(5)
    grams = [G @ G.T for G in (rng.standard_normal((L, L)) for L in factor.dims)]
    width = sum(S.size for S in grams)
    rows = _SUM_CHUNK_TERMS // width
    assert factor.U > 2 * rows  # several chunks, the last one partial
    tracemalloc.start()
    try:
        _compensated_adjoint_sum(factor, grams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the two buffers: numpy's iteration buffers and small vectors
    assert peak <= 2 * 8 * rows * width + (256 << 10)


def test_sum2_bound_under_heavy_cancellation():
    # rows of large terms that cancel to a small sum, condition number ~1e16
    rng = np.random.default_rng(31)
    rows, m = 40, 301
    big = rng.standard_normal((rows, m // 2)) * 10.0 ** rng.integers(0, 16, (rows, m // 2))
    small = rng.standard_normal((rows, m - 2 * (m // 2)))
    P = np.concatenate([big, -big * (1 + 1e-15 * rng.standard_normal(big.shape)), small],
                       axis=1)
    P = rng.permuted(P, axis=1)
    exact = np.array([math.fsum(row) for row in P])
    eps = np.finfo(float).eps / 2
    gamma = (m - 1) * eps / (1 - (m - 1) * eps)
    bound = eps * np.abs(exact) + gamma**2 * np.abs(P).sum(axis=1)
    naive = P.sum(axis=1)
    assert np.any(np.abs(naive - exact) > bound)  # the inputs do need compensation
    got = _sum2_rows(P.copy(), np.empty((2, rows, m // 2)))
    assert np.all(np.abs(got - exact) <= bound)


# ----------------------------------------------------------------------
# sos_terms


def test_sos_terms_identity_gram():
    cone = build_cone(sp.cheb2_points(2), [ones_weight], [1])   # L = 2
    cert = sp.GramCertificate([np.eye(2)], 0.0, [1.0], 1.0)
    deco = sos_terms(cert, cone)
    T = deco.terms[0]
    assert T.shape == (2, 2)
    np.testing.assert_allclose(T.T @ T, np.eye(2), atol=1e-12)


def test_sos_terms_rank_one():
    cone = build_cone(sp.cheb2_points(2), [ones_weight], [1])
    v = np.array([2.0, -1.0])
    cert = sp.GramCertificate([np.outer(v, v)], 0.0, [0.0], 1.0)
    deco = sos_terms(cert, cone)
    T = deco.terms[0]
    assert T.shape == (1, 2)
    assert min(np.linalg.norm(T[0] - v), np.linalg.norm(T[0] + v)) <= 1e-12


def test_sos_terms_rejects_indefinite():
    cone = build_cone(sp.cheb2_points(2), [ones_weight], [1])
    cert = sp.GramCertificate([np.diag([1.0, -1e-6])], 0.0, [-1e-6], 1.0)
    with pytest.raises(ValueError):
        sos_terms(cert, cone)


def test_reconstruction_on_envelope_iterate(envelope_small):
    r = envelope_small.result
    built = envelope_small.built
    z = r.final
    for factor, ev, sl in zip(built.cone.factors, z.barrier.factor_evals,
                              built.cone.slices()):
        cert = recover_gram(factor, z.x[sl], z.s[sl], z.mu, barrier=ev)
        deco = sos_terms(cert, factor)
        recon = deco.values_at_points(factor)
        rel = np.max(np.abs(recon - z.s[sl]) / (1 + np.abs(z.s[sl])))
        assert rel <= 1e-7
