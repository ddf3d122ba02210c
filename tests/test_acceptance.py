"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the one-line
PASS/FAIL verdict per criterion.
"""

import numpy as np

import sospoly as sp
from sospoly.hsd import ETA, initial_point
from sospoly.interpolation import (
    approx_fekete_points,
    box_quadrature_weights,
    cheb1_points,
    cheb_vandermonde,
    graded_lex_exponents,
    padua_points,
    points_for_degree,
)
from sospoly.recovery import recover_gram, sos_terms

BUTCHER_OPT = -2159.0 / 1500.0


def _finish(criterion, checks):
    ok = all(c for c, _ in checks)
    detail = "; ".join(m for _, m in checks)
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    for passed, msg in checks:
        assert passed, msg


# ----------------------------------------------------------------------
# 1. univariate envelope at d = 100


def test_criterion_1_envelope_1d(envelope_1d_100):
    r = envelope_1d_100.result
    checks = [
        (r.status == "Optimal", f"status={r.status}"),
        (r.rel_primal_infeas <= 1e-8, f"rel_p={r.rel_primal_infeas:.2e}"),
        (r.rel_dual_infeas <= 1e-8, f"rel_d={r.rel_dual_infeas:.2e}"),
        (r.rel_gap <= 1e-8, f"gap={r.rel_gap:.2e}"),
        (r.iterations <= 102, f"iters={r.iterations} (<=102)"),
        (envelope_1d_100.elapsed < 30.0, f"time={envelope_1d_100.elapsed:.1f}s (<30s)"),
    ]
    _finish(1, checks)


# ----------------------------------------------------------------------
# 2. bivariate (Padua) and trivariate (Fekete) envelopes


def test_criterion_2_envelope_2d_3d(envelope_2d_10, envelope_3d_6):
    r2, r3 = envelope_2d_10.result, envelope_3d_6.result
    checks = [
        (r2.status == "Optimal", f"2d status={r2.status}"),
        (envelope_2d_10.built.pts.U == 231, f"2d U={envelope_2d_10.built.pts.U}"),
        (max(r2.rel_primal_infeas, r2.rel_dual_infeas, r2.rel_gap) <= 1e-8,
         f"2d resid={max(r2.rel_primal_infeas, r2.rel_dual_infeas, r2.rel_gap):.2e}"),
        (r2.iterations <= 142, f"2d iters={r2.iterations} (<=142)"),
        (r3.status == "Optimal", f"3d status={r3.status}"),
        (envelope_3d_6.built.pts.U == 455, f"3d U={envelope_3d_6.built.pts.U}"),
        (max(r3.rel_primal_infeas, r3.rel_dual_infeas, r3.rel_gap) <= 1e-6,
         f"3d resid={max(r3.rel_primal_infeas, r3.rel_dual_infeas, r3.rel_gap):.2e}"),
        (r3.iterations <= 122, f"3d iters={r3.iterations} (<=122)"),
    ]
    _finish(2, checks)


# ----------------------------------------------------------------------
# 3. polynomial minimization bounds


def test_criterion_3_polymin_bounds(butcher_solved, caprasse_solved, magnetism_solved):
    checks = [(butcher_solved.result.status == "Optimal",
               f"butcher status={butcher_solved.result.status}"),
              (abs(butcher_solved.result.dual_objective - BUTCHER_OPT) <= 1e-7,
               f"butcher err={abs(butcher_solved.result.dual_objective - BUTCHER_OPT):.2e}")]
    for label, inst in (("caprasse", caprasse_solved), ("magnetism", magnetism_solved)):
        bound = inst.result.dual_objective
        oracle = sp.grid_lower_bound_oracle(inst.built.fs[0])
        checks.append((inst.result.status == "Optimal",
                       f"{label} status={inst.result.status}"))
        checks.append((bound <= oracle + 1e-6,
                       f"{label} bound-oracle={bound - oracle:.2e} (<=1e-6)"))
        checks.append((abs(bound - oracle) <= 1e-4,
                       f"{label} |bound-oracle|={abs(bound - oracle):.2e} (<=1e-4)"))
    _finish(3, checks)


# ----------------------------------------------------------------------
# 4. Gram certificates on every final iterate of criteria 1-3


def test_criterion_4_certificates(envelope_1d_100, envelope_2d_10, envelope_3d_6,
                                  butcher_solved, caprasse_solved, magnetism_solved):
    instances = [("env1d", envelope_1d_100), ("env2d", envelope_2d_10),
                 ("env3d", envelope_3d_6), ("butcher", butcher_solved),
                 ("caprasse", caprasse_solved), ("magnetism", magnetism_solved)]
    worst_adj, worst_eig, worst_recon = 0.0, np.inf, 0.0
    for _, inst in instances:
        z = inst.result.final
        cone = inst.built.cone
        for factor, ev, sl in zip(cone.factors, z.barrier.factor_evals, cone.slices()):
            s = z.s[sl]
            cert = recover_gram(factor, z.x[sl], s, z.mu, barrier=ev)
            worst_adj = max(worst_adj,
                            cert.adjoint_residual / (1e-8 * (1 + np.linalg.norm(s))))
            worst_eig = min(worst_eig, min(cert.min_eigenvalues))
            recon = sos_terms(cert, factor).values_at_points(factor)
            worst_recon = max(worst_recon,
                              float(np.max(np.abs(recon - s) / (1 + np.abs(s)))))
    checks = [
        (worst_adj <= 1.0, f"adjoint residual <= 1e-8(1+||s||): worst ratio {worst_adj:.3f}"),
        (worst_eig > 0.0, f"min Gram eigenvalue {worst_eig:.2e} > 0"),
        (worst_recon <= 1e-7, f"sos reconstruction rel err {worst_recon:.2e} (<=1e-7)"),
    ]
    _finish(4, checks)


# ----------------------------------------------------------------------
# 5. barrier property suite


def _suite_cones():
    specs = [(1, 8, False), (1, 5, True), (1, 3, False), (2, 3, False),
             (2, 4, True), (2, 2, True), (3, 2, False), (3, 2, True),
             (1, 7, True), (2, 3, True)]
    cones = []
    for n, d, weighted in specs:
        pts = points_for_degree(n, 2 * d)
        if weighted:
            weights = []
            for j in range(n):
                def gj(t, j=j):
                    return (1.0 - t[:, j]) * (t[:, j] + 1.0)
                weights.append(gj)
            weights.append(lambda t: np.ones(t.shape[0]))
            cones.append(sp.build_cone(pts, weights, [d - 1] * n + [d]))
        else:
            cones.append(sp.build_cone(pts, [lambda t: np.ones(t.shape[0])], [d]))
    return cones


def test_criterion_5_barrier_properties():
    rng = np.random.default_rng(42)
    worst = dict(fd_grad=0.0, fd_hess=0.0, homog=0.0, xg=0.0, cond=0.0)
    tested = 0
    for cone in _suite_cones():
        lam_op_sq = np.linalg.cond(sum((B @ B.T) ** 2 for B in cone.blocks))
        accepted, attempts = 0, 0
        while accepted < 10 and attempts < 1000:
            attempts += 1
            x = np.ones(cone.U) + 0.4 * rng.uniform(-1, 1, cone.U)
            if cone.in_interior(x) is None:
                continue
            accepted += 1
            tested += 1
            ev = cone.barrier(x)
            h = rng.standard_normal(cone.U)
            h *= 1e-5 * np.linalg.norm(x) / np.linalg.norm(h)
            fp, fm = cone.barrier(x + h), cone.barrier(x - h)
            worst["fd_grad"] = max(worst["fd_grad"],
                                   abs((fp.value - fm.value) / 2 - ev.gradient @ h)
                                   / abs(ev.gradient @ h))
            gd = (fp.gradient - fm.gradient) / 2
            Hh = ev.hessian @ h
            worst["fd_hess"] = max(worst["fd_hess"],
                                   np.linalg.norm(gd - Hh) / np.linalg.norm(Hh))
            for t in (0.5, 2.0, 10.0):
                worst["homog"] = max(worst["homog"],
                                     abs(cone.barrier(t * x).value
                                         - (ev.value - cone.nu * np.log(t))))
            worst["xg"] = max(worst["xg"], abs(x @ ev.gradient + cone.nu) / cone.nu)
            eigs = np.concatenate([np.linalg.eigvalsh(cone.lambda_op(i, x))
                                   for i in range(len(cone.blocks))])
            bound = lam_op_sq * (eigs.max() / eigs.min()) ** 2
            worst["cond"] = max(worst["cond"], np.linalg.cond(ev.hessian) / bound)
    checks = [
        (tested == 100, f"{tested} interior points"),
        (worst["fd_grad"] <= 1e-5, f"fd gradient {worst['fd_grad']:.2e} (<=1e-5)"),
        (worst["fd_hess"] <= 1e-4, f"fd hessian {worst['fd_hess']:.2e} (<=1e-4)"),
        (worst["homog"] <= 1e-10, f"homogeneity {worst['homog']:.2e} (<=1e-10)"),
        (worst["xg"] <= 1e-8, f"x'g(x)=-nu {worst['xg']:.2e} (<=1e-8)"),
        (worst["cond"] <= 1.0 + 1e-8, f"conditioning bound ratio {worst['cond']:.3f} (<=1)"),
    ]
    _finish(5, checks)


# ----------------------------------------------------------------------
# 6. interpolation suite


def test_criterion_6_interpolation():
    ortho = 0.0
    for d in (3, 6, 10):
        V = cheb_vandermonde(cheb1_points(2 * d), 2 * d, normalized=True)
        ortho = max(ortho, float(np.max(np.abs(V.T @ V - np.eye(V.shape[1])))))
    cards_ok = all(padua_points(d).U == (d + 1) * (d + 2) // 2 for d in range(1, 31))
    sv_ratio = np.inf
    for n, deg in ((3, 8), (3, 12), (4, 6)):
        pts = approx_fekete_points(n, deg)
        sv = np.linalg.svd(cheb_vandermonde(pts, deg), compute_uv=False)
        sv_ratio = min(sv_ratio, sv[-1] / sv[0])
    quad_err = 0.0
    from sospoly.interpolation import _cheb_moments_1d

    for n, deg in ((1, 10), (2, 8), (3, 4)):
        pts = points_for_degree(n, deg)
        w = box_quadrature_weights(pts, deg)
        V = cheb_vandermonde(pts, deg)
        mom = _cheb_moments_1d(deg)
        exact = np.array([np.prod([mom[a] for a in alpha])
                          for alpha in graded_lex_exponents(n, deg)])
        quad_err = max(quad_err, float(np.max(np.abs(V.T @ w - exact))))
    checks = [
        (ortho <= 1e-12, f"discrete orthogonality {ortho:.2e} (<=1e-12)"),
        (cards_ok, "Padua cardinalities (d+1)(d+2)/2 for d<=30"),
        (sv_ratio > 1e-10, f"Fekete Vandermonde sv ratio {sv_ratio:.2e} (>1e-10)"),
        (quad_err <= 1e-10, f"quadrature exactness {quad_err:.2e} (<=1e-10)"),
    ]
    _finish(6, checks)


# ----------------------------------------------------------------------
# 7. embedding invariants


def test_criterion_7_embedding_invariants(envelope_1d_100, envelope_small):
    z0 = initial_point(envelope_1d_100.built.problem)
    shrink_dev, nbhd_ok = 0.0, True
    for inst in (envelope_1d_100, envelope_small):
        for rec in inst.result.trace:
            if rec.stalled:
                continue
            expected = (1.0 - rec.alpha_p) * rec.residual_before
            shrink_dev = max(shrink_dev,
                             abs(rec.residual_after - expected) / (1 + rec.residual_before))
            if rec.corrected:
                nbhd_ok = nbhd_ok and rec.nbhd_norm <= ETA * rec.mu * (1 + 1e-9)
    checks = [
        (abs(z0.mu - 1.0) <= 1e-12, f"mu(z0)-1={z0.mu - 1.0:.2e}"),
        (max(np.max(np.abs(z0.psi_x)), abs(z0.psi_tau)) <= 1e-12,
         f"psi(z0)={max(np.max(np.abs(z0.psi_x)), abs(z0.psi_tau)):.2e}"),
        (shrink_dev <= 1e-9, f"residual shrink dev {shrink_dev:.2e} (<=1e-9)"),
        (nbhd_ok, "post-corrector iterates inside N(eta)"),
    ]
    _finish(7, checks)


# ----------------------------------------------------------------------
# 8. infeasibility detection


def test_criterion_8_infeasibility(contradictory_rows_solved):
    r = contradictory_rows_solved.result
    p = contradictory_rows_solved.built.problem
    z = r.final
    by = float(p.b @ z.y)
    cert_norm = float(np.linalg.norm(p.A.T @ z.y + z.s))
    checks = [
        (r.status == "PrimalInfeasible", f"status={r.status}"),
        (by > 0, f"b'y={by:.3e} (>0)"),
        (cert_norm <= 1e-8 * by, f"||A'y+s||/b'y={cert_norm / by:.2e} (<=1e-8)"),
        (r.iterations <= 100, f"iters={r.iterations} (<=100)"),
    ]
    _finish(8, checks)
