"""Gram certificate recovery, verification, and SOS decompositions."""

import itertools
import json
import math

import numpy as np
import pytest

import sospoly as sp
from sospoly import fileio
from sospoly.hsd import initial_point
from sospoly.recovery import (
    _adjoint_with_bound,
    lower_bound_certificate,
    recover_gram,
    sos_terms,
    verify_certificate,
)
from sospoly.wsos import InterpWSOSCone, NotInteriorError, build_cone


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
    # the shift of the Cholesky of S - cI is at the rounding level of S
    assert 0 < report.block_shift[0] <= 1e-13 * np.max(np.abs(cert.grams[0]))
    assert not report.passed


def _tiny_block_cone():
    """The cone of points_for_degree(1, 4) with one unit-weight block of
    degree 2 (L = 3), and three diagonal Gram blocks of size 1e-11: positive
    definite, negative definite, and indefinite with every entry of its
    adjoint negative."""
    cone = build_cone(sp.points_for_degree(1, 4), [np.ones(5)], [2])
    blocks = [np.diag([1e-12, 1e-12, 5e-11]), np.diag([-1e-12, -1e-12, -5e-11]),
              np.diag([1e-12, 1e-12, -5e-11])]
    return cone, blocks


def test_verify_rejects_a_small_indefinite_block():
    # every entry of s = Lambda^*(S) is negative, a certificate for a
    # negative polynomial; its residual is far below tol, so only a PSD
    # test relative to the scale of S can reject it
    cone, (_, _, S) = _tiny_block_cone()
    s = cone.lambda_adjoint(0, S)
    assert np.all(s < 0) and np.max(s) < -1e-13
    report = verify_certificate(cone, s, sp.GramCertificate([S], 0.0, [], 0.0), tol=1e-8)
    assert report.adjoint_residual <= 1e-20
    assert report.block_psd == [False] and not report.passed


def test_verify_verdicts_do_not_change_with_scale():
    # S -> 4^k S, s -> 4^k s scales every operation of the Cholesky of
    # S - cI by a power of two (even, so that square roots scale exactly)
    cone, blocks = _tiny_block_cone()
    for S, psd in zip(blocks, (True, False, False)):
        s = cone.lambda_adjoint(0, S)
        for k in range(-200, 201, 25):
            scale = 4.0**k
            cert = sp.GramCertificate([scale * S], 0.0, [], 0.0)
            report = verify_certificate(cone, scale * s, cert)
            assert report.block_psd == [psd] and report.passed == psd


def test_verify_rejects_an_asymmetric_block():
    # the adjoint sees only the symmetric part; the Cholesky reads one
    # triangle, so a block whose triangles differ is not verified
    cone = unweighted_cone(2)
    S = np.eye(3)
    S[0, 2] = 0.5
    s = cone.lambda_adjoint(0, S)
    report = verify_certificate(cone, s, sp.GramCertificate([S], 0.0, [], 0.0))
    assert report.block_psd == [False] and not report.passed


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


def test_constant_lower_bound_certificate_is_exact_to_rounding():
    # the constant 4.25 at d = 1 solves in a few iterations, and its final
    # mu sits near the 1e-8 tolerance. The certificate is recovered for the
    # exact dual slack tau c - y 1 of the bound, not for the iterate's s,
    # which differs from it by the dual residual (about 2 mu), so the
    # certified residual sits at rounding level, not at the scale of mu
    built = sp.build_polymin(sp.chebyshev_poly(1, 0, [4.25]), 1)
    r = sp.solve(built.problem)
    z, factor = r.final, built.cone.factors[0]
    assert r.status == sp.hsd.OPTIMAL and z.mu > 1e-10
    cert, s_cert = lower_bound_certificate(factor, z, built.problem.c,
                                           r.dual_objective - 1e-9,
                                           barrier=z.barrier.factor_evals[0])
    report = verify_certificate(factor, s_cert, cert)
    assert report.passed and min(cert.min_eigenvalues) > 0
    assert report.adjoint_residual <= 1e-13 * (1 + np.max(np.abs(s_cert)))
    assert report.adjoint_residual <= 1e-3 * z.mu


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """p + e = a * b exactly, p = fl(a * b) (Dekker), barring overflow and underflow."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _exact_adjoint(cone, grams):
    """sum_i diag(B_i S_i B_i^T) correctly rounded: every triple product
    B[u,a] S[a,b] B[u,b] split exactly into four doubles, summed by math.fsum."""
    out = np.empty(cone.U)
    for u in range(cone.U):
        parts = []
        for B, S in zip(cone.blocks, grams):
            row = B[u]
            p, e = _two_prod(row[:, None], S)
            for half in (p, e):
                hi, lo = _two_prod(half, row[None, :])
                parts.extend(hi.ravel())
                parts.extend(lo.ravel())
        out[u] = math.fsum(parts)
    return out


def test_adjoint_within_its_bound_of_the_exact_sum(envelope_small, envelope_1d_100,
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
        want = _exact_adjoint(factor, cert.grams)
        got, bound = _adjoint_with_bound(factor, cert.grams)
        # the exact sum is within half an ulp of want
        assert np.all(np.abs(got - want) + np.spacing(np.abs(want)) <= bound)


@pytest.mark.parametrize("seed", [1, 8])
def test_random_n1_envelope_certificates_verify(seed):
    # instance 0 of the envelope benchmark's n = 1, d = 100 draw at these
    # seeds: two inputs of degree 5 with iid uniform [-1, 1] Chebyshev
    # coefficients from default_rng([seed, 0]). Their final iterates' Hessians
    # are singular to working precision; taken through the unshifted sum's
    # Cholesky factor, one Gram certificate of each fails verify_certificate
    rng = np.random.default_rng([seed, 0])
    fs = [sp.chebyshev_poly(1, 5, rng.uniform(-1.0, 1.0, 6)) for _ in range(2)]
    built = sp.build_envelope(1, 100, 2, fs=fs)
    r = sp.solve(built.problem, sp.SolverParams(tol_gap=1e-8, tol_infeas=1e-8))
    assert r.status == "Optimal"
    z, cone = r.final, built.cone
    for factor, ev, sl in zip(cone.factors, z.barrier.factor_evals, cone.slices()):
        cert = recover_gram(factor, z.x[sl], z.s[sl], z.mu, barrier=ev)
        assert verify_certificate(factor, z.s[sl], cert).passed


def test_verify_fails_when_the_rounding_bound_exceeds_tol():
    # two nearly parallel basis columns and a positive definite Gram matrix
    # whose 1e12 entries cancel in the adjoint to values below 1: s is the
    # computed adjoint itself, so the computed residual is 0, but its
    # rounding is of the order u * 1e12 and the bound must decide. (At 1e18,
    # 1e18 + 1 rounds to 1e18 and the stored matrix is singular.)
    P = unweighted_cone(1).blocks[0]
    cone = InterpWSOSCone([np.column_stack([P[:, 0], P[:, 0] + 1e-6 * P[:, 1]])])
    S = 1e12 * np.array([[1.0, -1.0], [-1.0, 1.0]]) + 0.01 * np.eye(2)
    s, bound = _adjoint_with_bound(cone, [S])
    cert = sp.GramCertificate([S], 0.0, [0.0], 1.0)
    limit = 1e-8 * (1 + np.max(np.abs(s)))
    assert np.max(np.abs(s)) < 1 and np.max(bound) > limit
    report = verify_certificate(cone, s, cert)
    assert np.max(np.abs(report.pointwise_residual)) < limit
    assert all(report.block_psd)
    assert not report.passed
    assert report.error_bound == np.max(bound)
    # a tolerance whose limit covers the bound passes the same certificate
    tol = 2 * report.error_bound / (1 + np.max(np.abs(s)))
    assert verify_certificate(cone, s, cert, tol=tol).passed


def test_error_bound_json_round_trip():
    cone = unweighted_cone(3)
    s = np.diag(cone.blocks[0] @ cone.blocks[0].T)
    cert = recover_gram(cone, np.ones(cone.U), s, delta=1.0)
    report = verify_certificate(cone, s, cert)
    assert 0 < report.error_bound <= report.adjoint_residual
    back = json.loads(json.dumps(fileio.certificate_to_dict([(cert, report, None)])))
    verification = back["factors"][0]["verification"]
    assert verification["error_bound"] == report.error_bound
    assert verification["residual"] == report.adjoint_residual
    assert verification["passed"] is True


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
    # the threshold is relative to the block: scaled down to 1e-12, the
    # block's negative eigenvalue -1e-18 is not clipped as round-off
    cone = build_cone(sp.cheb2_points(2), [ones_weight], [1])
    for scale in (1.0, 1e-12):
        cert = sp.GramCertificate([scale * np.diag([1.0, -1e-6])], 0.0, [-1e-6 * scale], 1.0)
        with pytest.raises(ValueError, match="not PSD"):
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
