"""The homogeneous self-dual predictor-corrector solver."""

import numpy as np
import pytest
import scipy.linalg

import sospoly as sp
from sospoly import fileio, hsd, wsos
from sospoly.hsd import (
    ConicProblem,
    SolverParams,
    classify,
    corrector_phase,
    embedding_residual,
    embedding_residual_norm,
    initial_point,
    make_iterate,
    newton_direction,
    predictor_step,
)


def ones_weight(t):
    return np.ones(t.shape[0])


def small_problem(seed=1, d=3):
    return sp.build_envelope(1, d, 2, seed=seed).problem


def trivial_problem():
    """N = k = 1 with the one-dimensional log cone (L = 1)."""
    cone = sp.InterpWSOSCone([np.ones((1, 1))])
    return ConicProblem(np.array([[2.0]]), np.array([3.0]), np.array([5.0]), cone)


# ----------------------------------------------------------------------
# parameters and problem validation


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(tol_gap=2.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverParams(max_iters=-1)
    assert SolverParams(max_iters=0).max_iters == 0


def test_consistent_rank_deficient_A_rejected():
    # redundant rows with b in the range of A make the Newton system singular
    cone = sp.build_cone(sp.cheb2_points(4), [ones_weight], [2])
    A = np.vstack([np.ones(5), np.ones(5)])
    with pytest.raises(ValueError, match="dependent"):
        ConicProblem(A, np.array([1.0, 1.0]), np.ones(5), cone)


def test_dependent_contradictory_rows_rejected():
    # three contradictory rows: b is outside the range of A, but
    # (1, -2, 1) is a left null vector of A orthogonal to b, so the
    # rows of [A b] are dependent and the Newton system is singular
    cone = sp.build_cone(sp.cheb2_points(4), [ones_weight], [2])
    A = np.vstack([np.ones(5)] * 3)
    with pytest.raises(ValueError, match="dependent"):
        ConicProblem(A, np.array([1.0, 2.0, 3.0]), np.ones(5), cone)


def test_identity_stack_skips_the_rank_check(monkeypatch):
    # the rows of [I ... I] are independent by structure, so an envelope,
    # built or loaded from its problem file, never takes the SVD of [A b]
    def no_svd(M):
        raise AssertionError("rank check run on an identity stack")

    problem = small_problem()
    monkeypatch.setattr(hsd, "_rank", no_svd)
    built = ConicProblem(problem.A, problem.b, problem.c, problem.cone)
    loaded = fileio.problem_from_dict(fileio.problem_to_dict(problem))
    assert built.identity_blocks and loaded.identity_blocks


# ----------------------------------------------------------------------
# initialization


def test_initial_point_metrics():
    z0 = initial_point(small_problem())
    assert abs(z0.mu - 1.0) <= 1e-12
    assert np.max(np.abs(z0.psi_x)) <= 1e-12
    assert abs(z0.psi_tau) <= 1e-12
    assert z0.nbhd_norm <= 1e-12            # z0 in N(0)
    assert z0.tau == 1.0 and z0.kappa == 1.0


def test_initial_delta_cancellation():
    # b = A 1 and c = -g(1) make delta_P = delta_D = 1
    cone = sp.build_cone(sp.cheb2_points(6), [ones_weight], [3])
    U = cone.U
    A = np.ones((1, U))
    g1 = cone.barrier(np.ones(U)).gradient
    problem = ConicProblem(A, A @ np.ones(U), -g1, cone)
    z0 = initial_point(problem)
    np.testing.assert_allclose(z0.x, np.ones(U), atol=1e-14)


def test_mu_scales_quadratically():
    problem = small_problem()
    z = initial_point(problem)
    scaled = make_iterate(problem, 2.0 * z.x, 2.0 * z.tau, z.y, 2.0 * z.s, 2.0 * z.kappa)
    assert abs(scaled.mu - 4.0 * z.mu) <= 1e-12


def test_neighborhood_norm_matches_dense_formula():
    problem = small_problem(seed=5)
    z = predictor_step(problem, initial_point(problem)).iterate
    H = scipy.linalg.block_diag(*(e.hessian for e in z.barrier.factor_evals))
    Hbar = np.zeros((H.shape[0] + 1, H.shape[0] + 1))
    Hbar[:-1, :-1] = H
    Hbar[-1, -1] = 1.0 / z.tau**2
    psi = np.concatenate([z.psi_x, [z.psi_tau]])
    vals, vecs = np.linalg.eigh(Hbar)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
    dense = np.linalg.norm(inv_sqrt @ psi)
    assert abs(dense - z.nbhd_norm) <= 1e-8 * (1 + dense)


# ----------------------------------------------------------------------
# Newton directions


def test_corrector_direction_vanishes_at_centered_point():
    problem = small_problem()
    z0 = initial_point(problem)
    d = newton_direction(problem, z0, "corrector")
    assert d.norm() <= 1e-10
    assert d.residual <= 1e-10


def test_predictor_direction_residual():
    problem = small_problem(seed=2)
    z0 = initial_point(problem)
    d = newton_direction(problem, z0, "predictor")
    assert d.residual <= 1e-9
    # explicit block equations
    r_p, r_d, r_g = embedding_residual(problem, z0)
    A, b, c = problem.A, problem.b, problem.c
    e1 = A @ d.dx - b * d.dtau + r_p
    e2 = -A.T @ d.dy + c * d.dtau - d.ds + r_d
    scale = 1 + max(np.max(np.abs(r_p)), np.max(np.abs(r_d)))
    assert np.max(np.abs(e1)) <= 1e-9 * scale
    assert np.max(np.abs(e2)) <= 1e-9 * scale


def test_direction_matches_dense_solve_tiny_instance():
    problem = trivial_problem()
    z = initial_point(problem)
    d = newton_direction(problem, z, "predictor")
    # dense 5x5 system in (dx, dtau, dy, ds, dkappa)
    A, b, c = problem.A[0, 0], problem.b[0], problem.c[0]
    mu, x, tau = z.mu, z.x[0], z.tau
    H = z.barrier.factor_evals[0].hessian[0, 0]
    M = np.array([
        [A, -b, 0, 0, 0],
        [0, c, -A, -1, 0],
        [-c, 0, b, 0, -1],
        [mu * H, 0, 0, 1, 0],
        [0, mu / tau**2, 0, 0, 1],
    ])
    r_p, r_d, r_g = embedding_residual(problem, z)
    rhs = np.array([-r_p[0], -r_d[0], -r_g, -z.s[0], -z.kappa])
    sol = np.linalg.solve(M, rhs)
    got = np.array([d.dx[0], d.dtau, d.dy[0], d.ds[0], d.dkappa])
    np.testing.assert_allclose(got, sol, rtol=1e-9, atol=1e-12)


def test_direction_residual_contradictory_rows(contradictory_rows_solved):
    # rank-deficient A with b outside its range: the tau border keeps the
    # reduced system nonsingular, so the LU direction is accurate
    problem = contradictory_rows_solved.built.problem
    z0 = initial_point(problem)
    for mode in ("predictor", "corrector"):
        assert newton_direction(problem, z0, mode).residual <= 1e-9
    d = newton_direction(problem, contradictory_rows_solved.result.final, "predictor")
    assert d.residual <= 1e-9


def test_every_direction_correction_is_evaluated(monkeypatch):
    # each reduced solve after the first is a correction whose residual is
    # then evaluated; this solve has directions that use all five
    # evaluations, after which no further correction may be computed
    problem = sp.build_envelope(1, 6, 2, seed=3).problem
    assert problem.identity_blocks  # the envelope takes the null-space path
    counts = []  # [reduced solves, residual evaluations] per direction
    solve = hsd._ReducedKKT.solve
    solve_reduced = hsd._NullSpaceKKT.solve_reduced
    residuals = hsd._ReducedKKT._equation_residuals

    def counted_solve(self, *rhs):
        counts.append([0, 0])
        return solve(self, *rhs)

    def counted_solve_reduced(self, *rhs):
        counts[-1][0] += 1
        return solve_reduced(self, *rhs)

    def counted_residuals(self, *args):
        counts[-1][1] += 1
        return residuals(self, *args)

    monkeypatch.setattr(hsd._ReducedKKT, "solve", counted_solve)
    monkeypatch.setattr(hsd._NullSpaceKKT, "solve_reduced", counted_solve_reduced)
    monkeypatch.setattr(hsd._ReducedKKT, "_equation_residuals", counted_residuals)
    sp.solve(problem)
    assert max(evals for _, evals in counts) == 5
    assert all(calls == evals for calls, evals in counts)


def _both_directions(problem, z, rhs_mode):
    """The direction newton_direction takes and the dense-LU direction."""
    if rhs_mode == "predictor":
        r_p, r_d, r_g = embedding_residual(problem, z)
        rhs = (-r_p, -r_d, -r_g, -z.s, -z.kappa)
    else:
        rhs = (np.zeros(problem.A.shape[0]), np.zeros(z.x.size), 0.0, -z.psi_x,
               -(z.kappa - z.mu / z.tau))
    return newton_direction(problem, z, rhs_mode), hsd._ReducedKKT(problem, z).solve(*rhs)


def _stacked(d):
    return np.concatenate([d.dx, [d.dtau], d.dy, d.ds, [d.dkappa]])


def _assert_same_direction(got, dense):
    assert got.residual <= 1e-9 and dense.residual <= 1e-9
    want = _stacked(dense)
    assert np.linalg.norm(_stacked(got) - want) <= 1e-9 * np.linalg.norm(want)


def _iterate_after(problem, iterations):
    r = sp.solve(problem, SolverParams(max_iters=iterations))
    assert r.status == hsd.ITERATION_LIMIT
    return r.final


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("iterations", [0, 9])
def test_null_space_direction_matches_dense_lu(k, iterations):
    # m = 2 and m = 3 identity blocks, at the start and at mu near 1e-3
    problem = sp.build_envelope(1, 6, k, seed=2).problem
    assert problem.identity_blocks
    z = _iterate_after(problem, iterations) if iterations else initial_point(problem)
    assert iterations == 0 or 1e-4 <= z.mu <= 1e-2
    for mode in ("predictor", "corrector"):
        _assert_same_direction(*_both_directions(problem, z, mode))


def test_null_space_direction_matches_dense_lu_env1d100(envelope_1d_100):
    problem = envelope_1d_100.built.problem
    middle = _iterate_after(problem, 13)
    assert 1e-4 <= middle.mu <= 1e-2
    for z in (initial_point(problem), middle):
        for mode in ("predictor", "corrector"):
            _assert_same_direction(*_both_directions(problem, z, mode))
    # At the final iterate (mu near 1e-11) the reduced system is singular to
    # working precision along the ray (x, y, tau) of the embedding, and no
    # factorization fixes the direction's component along it; both still
    # solve the full system to the accuracy the residual-shrink identity needs.
    for mode in ("predictor", "corrector"):
        for d in _both_directions(problem, envelope_1d_100.result.final, mode):
            assert d.residual <= 1e-9


def _kkt_classes(monkeypatch, problem, z):
    """The factorization classes whose solve newton_direction runs at z."""
    used = []
    solve = hsd._ReducedKKT.solve

    def spy(self, *rhs):
        used.append(type(self))
        return solve(self, *rhs)

    monkeypatch.setattr(hsd._ReducedKKT, "solve", spy)
    newton_direction(problem, z, "predictor")
    return used


def test_identity_blocks_detection():
    U = sp.cheb2_points(4).U
    cone = sp.build_cone(sp.cheb2_points(4), [ones_weight], [2])
    eye = np.eye(U)
    b, c, pair = np.ones(U), np.ones(2 * U), sp.ProductCone([cone, cone])
    assert ConicProblem(np.hstack([eye, eye]), b, c, pair).identity_blocks
    # one block, a permuted block, a scaled block: not the envelope form
    assert not ConicProblem(eye, b, np.ones(U), cone).identity_blocks
    assert not ConicProblem(np.hstack([eye, eye[::-1]]), b, c, pair).identity_blocks
    assert not ConicProblem(np.hstack([eye, 2 * eye]), b, c, pair).identity_blocks
    # a problem file of the envelope form takes the null-space path too
    problem = small_problem()
    loaded = fileio.problem_from_dict(fileio.problem_to_dict(problem))
    assert loaded.identity_blocks


def test_only_identity_blocks_take_the_null_space_path(monkeypatch,
                                                      contradictory_rows_solved):
    # a predictor direction is two solves with one factorization: the
    # direction and its third-order adjustment
    envelope = small_problem()
    z = initial_point(envelope)
    assert _kkt_classes(monkeypatch, envelope, z) == [hsd._NullSpaceKKT] * 2
    # polymin's 1^T and contradictory rows go through the dense LU
    poly = sp.chebyshev_poly(2, 4, np.linspace(-1.0, 1.0, sp.space_dim(2, 4)))
    for problem in (sp.build_polymin(poly).problem, contradictory_rows_solved.built.problem):
        assert not problem.identity_blocks
        assert (_kkt_classes(monkeypatch, problem, initial_point(problem))
                == [hsd._ReducedKKT] * 2)


def test_singular_null_space_system_is_a_numerical_failure(monkeypatch):
    # zero Hessians make R = 0; the barrier norms still work through an
    # identity Cholesky factor, so the first Newton direction meets R, whose
    # Cholesky fails at its first pivot
    monkeypatch.setattr(wsos.BarrierEval, "hessian",
                        property(lambda ev: np.zeros((ev.cone.U, ev.cone.U))))
    monkeypatch.setattr(wsos.BarrierEval, "hess_chol",
                        property(lambda ev: np.eye(ev.cone.U)))
    r = sp.solve(small_problem())
    assert r.status == hsd.NUMERICAL_FAILURE
    assert "Cholesky of the null-space Newton matrix failed at pivot 1" in r.message
    assert "R is not positive definite" in r.message


def test_null_space_directions_at_three_blocks(envelope_small_k3):
    # m = 3: R has off-diagonal blocks mu H_1, and its Cholesky directions
    # meet the residual bound at the start and at the final iterate
    problem = envelope_small_k3.built.problem
    assert problem.identity_blocks and len(problem.cone.factors) == 3
    for z in (initial_point(problem), envelope_small_k3.result.final):
        for mode in ("predictor", "corrector"):
            assert newton_direction(problem, z, mode).residual <= 1e-9


@pytest.mark.parametrize("k", [2, 3])
def test_identity_blocks_apply_A_by_structure(k):
    # A x sums x's blocks and A^T y repeats y: the dense products' values,
    # bit for bit with two blocks (one addition per entry either way), to
    # rounding with three (the additions may run in another order)
    problem = sp.build_envelope(1, 6, k, seed=3).problem
    assert problem.identity_blocks
    rng = np.random.default_rng(k)
    U, N = problem.A.shape
    for _ in range(5):
        x, y = rng.standard_normal(N), rng.standard_normal(U)
        assert np.array_equal(problem.rmatvec(y), problem.A.T @ y)
        dense = problem.A @ x
        if k == 2:
            assert np.array_equal(problem.matvec(x), dense)
        else:
            bound = 4 * np.finfo(float).eps * np.abs(x).reshape(k, U).sum(axis=0)
            assert np.all(np.abs(problem.matvec(x) - dense) <= bound)


def test_unknown_rhs_mode():
    problem = trivial_problem()
    with pytest.raises(ValueError):
        newton_direction(problem, initial_point(problem), "affine")


# ----------------------------------------------------------------------
# predictor and corrector phases


def test_predictor_accepts_reasonable_step():
    problem = sp.build_envelope(1, 5, 2, seed=0).problem
    out = predictor_step(problem, initial_point(problem))
    assert not out.stalled
    assert out.alpha >= 0.01
    assert out.iterate.mu < 1.0
    assert out.iterate.in_neighborhood(hsd.BETA)


def test_predictor_zero_direction_stalls(monkeypatch):
    problem = small_problem()
    z0 = initial_point(problem)
    zero = hsd.Direction(np.zeros(z0.x.size), 0.0, np.zeros(problem.A.shape[0]),
                         np.zeros(z0.x.size), 0.0, 0.0)
    monkeypatch.setattr(hsd, "newton_direction", lambda problem, z, rhs_mode: zero)
    out = predictor_step(problem, z0)
    assert out.stalled and out.iterate is z0


@pytest.mark.parametrize("alpha_init", [None, hsd.ALPHA_CAP])
def test_predictor_never_tries_a_step_twice(monkeypatch, alpha_init):
    # from the cap the first two trials leave N(beta), so the search halves
    # twice; the step rejected before the accepted halving must not be
    # tried again. From the start the cap's halving is accepted, so the
    # search steps from the iterate after one iteration.
    problem = small_problem()
    z0 = _iterate_after(problem, 1)
    tried = []
    step = hsd._step

    def recording_step(problem, z, d, alpha):
        tried.append(alpha)
        return step(problem, z, d, alpha)

    monkeypatch.setattr(hsd, "_step", recording_step)
    out = predictor_step(problem, z0, alpha_init=alpha_init)
    assert not out.stalled
    assert len(tried) == len(set(tried))
    if alpha_init is not None:
        assert out.alpha < alpha_init / 2     # the search did shrink


def _predict(problem, z, monkeypatch, screen):
    """predictor_step from z with the screen, or with one that never rejects;
    also the screen's verdicts and the number of factor barriers evaluated."""
    verdicts, evaluated = [], []
    screened_barrier = hsd._screened_barrier
    factor_barrier = wsos.InterpWSOSCone.barrier

    def recording(problem, z, x, tau, s, kappa):
        if screen:
            barrier = screened_barrier(problem, z, x, tau, s, kappa)
        else:
            barrier = problem.cone.barrier(x)
        verdicts.append(barrier is None)
        return barrier

    def counting(self, x):
        evaluated.append(1)
        return factor_barrier(self, x)

    with monkeypatch.context() as m:
        m.setattr(hsd, "_screened_barrier", recording)
        m.setattr(wsos.InterpWSOSCone, "barrier", counting)
        return predictor_step(problem, z), verdicts, len(evaluated)


@pytest.mark.parametrize("late", [False, True])
def test_predictor_screen_changes_no_step(envelope_small, envelope_small_k3,
                                          shifted_factor_iterate, monkeypatch, late):
    # the same step and bit-identical iterate with the screen as with a
    # screen that never rejects, early and at the last iterate with a
    # jittered Hessian Cholesky, for k = 2 and k = 3 cone factors; a trial
    # rejected at an early factor never evaluates the later factors'
    # barriers. Early is the iterate after one iteration: from the start,
    # k = 2 rejects its trials at the last factor only. The last iterates
    # factor every Hessian plainly, so one factor of each (1 for k = 2, 0
    # for k = 3, as in the screen-bound tests) is given the shifted factor.
    for k, inst, shifted in ((2, envelope_small, 1), (3, envelope_small_k3, 0)):
        problem = inst.built.problem
        assert len(problem.cone.factors) == k
        if late:
            z = shifted_factor_iterate(problem, inst.result.final, shifted)
        else:
            z = _iterate_after(problem, 1)
        assert z.barrier.jittered == late
        screened, verdicts, evaluated = _predict(problem, z, monkeypatch, screen=True)
        plain, _, evaluated_plain = _predict(problem, z, monkeypatch, screen=False)
        assert late or any(verdicts)  # early the screen does reject
        assert evaluated < evaluated_plain
        assert screened.alpha == plain.alpha and screened.stalled == plain.stalled
        for key in ("x", "y", "s"):
            assert np.array_equal(getattr(screened.iterate, key),
                                  getattr(plain.iterate, key))
        for key in ("tau", "kappa", "mu", "nbhd_norm"):
            assert getattr(screened.iterate, key) == getattr(plain.iterate, key)


def _linear_rows(problem, d):
    """The embedding's linear rows at d with zero right-hand side."""
    b, c = problem.b, problem.c
    e1 = problem.A @ d.dx - b * d.dtau
    e2 = -problem.A.T @ d.dy + c * d.dtau - d.ds
    e3 = float(b @ d.dy) - float(c @ d.dx) - d.dkappa
    return np.concatenate([e1, e2, [e3]])


def _residual_vector(problem, point):
    x, tau, y, s, kappa = point
    r_p = problem.A @ x - problem.b * tau
    r_d = -problem.A.T @ y + problem.c * tau - s
    r_g = float(problem.b @ y) - float(problem.c @ x) - kappa
    return np.concatenate([r_p, r_d, [r_g]])


@pytest.mark.parametrize("kind", ["envelope-2", "envelope-3", "polymin"])
def test_adjustment_keeps_the_residual_shrink_on_the_arc(kind):
    # criterion 7 along the predictor's arc: the third-order adjustment
    # solves the linear rows with zero right-hand side, on the null-space
    # path (m = 2 and 3) and the dense-LU path (polymin), so every trial
    # z + alpha d + alpha^2 d_adj has embedding residual (1 - alpha) r(z)
    if kind == "polymin":
        poly = sp.chebyshev_poly(2, 4, np.linspace(-1.0, 1.0, sp.space_dim(2, 4)))
        problem = sp.build_polymin(poly).problem
        assert not problem.identity_blocks
    else:
        problem = sp.build_envelope(1, 6, int(kind[-1]), seed=2).problem
        assert problem.identity_blocks
    for z in (initial_point(problem), _iterate_after(problem, 6)):
        d = newton_direction(problem, z, "predictor")
        adj = d.adjustment
        assert adj is not None and adj.residual <= 1e-9
        assert np.linalg.norm(_linear_rows(problem, adj)) <= 1e-9
        r = _residual_vector(problem, (z.x, z.tau, z.y, z.s, z.kappa))
        out = predictor_step(problem, z)
        for alpha in (0.1, 0.5, out.alpha, hsd.ALPHA_CAP):
            moved = _residual_vector(problem, hsd._stepped(z, d, alpha))
            assert np.linalg.norm(moved - (1.0 - alpha) * r) <= 1e-9 * (1 + np.linalg.norm(r))


def test_predictor_search_stops_at_first_trial_meeting_tolerance(monkeypatch):
    # butcher's last search, run to the largest step, reaches mu near 2e-12,
    # and the Gram certificate at that iterate misses the benchmark's
    # adjoint identity, max |sum_i Lambda_i^*(S_i) - s| <= 1e-8 (1 + ||s||),
    # by 3.6x. The search returns the first accepted trial that classify
    # gives a status, so the solve ends there, and the certificate holds.
    built = sp.build_polymin(sp.builtin_poly("butcher"))
    problem, params = built.problem, SolverParams()
    searches, outcomes = [], []
    predictor, step = hsd.predictor_step, hsd._step

    def recording_predictor(problem, z, alpha_init=None, params=None):
        searches.append([])
        outcomes.append(predictor(problem, z, alpha_init, params))
        return outcomes[-1]

    def recording_step(problem, z, d, alpha):
        trial = step(problem, z, d, alpha)
        searches[-1].append(trial)
        return trial

    monkeypatch.setattr(hsd, "predictor_step", recording_predictor)
    monkeypatch.setattr(hsd, "_step", recording_step)
    r = sp.solve(problem, params)
    assert r.status == hsd.OPTIMAL and len(searches) == r.iterations
    for i, (tried, out) in enumerate(zip(searches, outcomes)):
        accepted = [t for t in tried if t is not None and t.in_neighborhood(hsd.BETA)]
        meeting = [t for t in accepted if classify(problem, t, params) is not None]
        if i < len(searches) - 1:
            assert not meeting
        else:
            assert meeting and out.iterate is meeting[0] is tried[-1] is r.final
    z = r.final
    for factor, ev in zip(built.cone.factors, z.barrier.factor_evals):
        cert, s = sp.lower_bound_certificate(factor, z, problem.c,
                                             r.dual_objective - 1e-9, barrier=ev)
        adjoint = sum(np.einsum("ua,ab,ub->u", B, S, B)
                      for B, S in zip(factor.blocks, cert.grams))
        assert np.max(np.abs(adjoint - s)) <= 1e-8 * (1.0 + np.linalg.norm(s))


def test_trials_are_counted_per_iteration(envelope_small):
    r = envelope_small.result
    assert all(rec.trials >= 1 for rec in r.trace)
    assert r.trials == sum(rec.trials for rec in r.trace)
    assert fileio.solution_to_dict(r)["trials"] == r.trials


def test_corrector_noop_inside_eta():
    problem = small_problem()
    z0 = initial_point(problem)           # exactly centered
    z, steps, _ = corrector_phase(problem, z0)
    assert steps == 0 and z is z0


def test_corrector_recenters_within_r_c():
    problem = sp.build_envelope(1, 5, 2, seed=1).problem
    z = initial_point(problem)
    seen_recenter = False
    for _ in range(6):
        out = predictor_step(problem, z)
        zp = out.iterate
        if not zp.in_neighborhood(hsd.ETA):
            seen_recenter = True
            z2, steps, _ = corrector_phase(problem, zp)
            assert 1 <= steps <= hsd.R_C
            assert z2.in_neighborhood(hsd.ETA)
            # mu moves only modestly during correction
            assert 0.5 <= z2.mu / zp.mu <= 2.0
            z = z2
        else:
            z = zp
    assert seen_recenter


# ----------------------------------------------------------------------
# classification and full solves


def test_solve_small_envelope(envelope_small):
    r = envelope_small.result
    assert r.status == hsd.OPTIMAL
    assert r.rel_primal_infeas <= 1e-8
    assert r.rel_dual_infeas <= 1e-8
    assert r.rel_gap <= 1e-8
    # tau scaling of the reported primal
    p = envelope_small.built.problem
    assert np.linalg.norm(p.A @ r.x - p.b) <= 1e-8 * (1 + np.linalg.norm(p.b))


def test_solve_reports_trace(envelope_small):
    trace = envelope_small.result.trace
    assert len(trace) == envelope_small.result.iterations
    for rec in trace:
        assert rec.mu > 0
        assert 0.0 <= rec.alpha_p <= 0.9999


def test_mu_geometric_decrease(envelope_small):
    mus = [rec.mu for rec in envelope_small.result.trace if not rec.stalled]
    for i in range(len(mus) - 10):
        assert mus[i + 10] <= mus[i] / 2.0


@pytest.mark.parametrize("name", ["envelope_small", "butcher_solved", "caprasse_solved",
                                  "magnetism_solved", "contradictory_rows_solved"])
def test_residual_linearity(request, name):
    # criterion 7's residual shrink over whole solves: the envelope's Newton
    # systems take the null-space Cholesky, polymin's 1^T and contradictory
    # rows the LU of _ReducedKKT
    inst = request.getfixturevalue(name)
    assert inst.built.problem.identity_blocks == (name == "envelope_small")
    records = [rec for rec in inst.result.trace if not rec.stalled]
    assert records
    for rec in records:
        expected = (1.0 - rec.alpha_p) * rec.residual_before
        assert abs(rec.residual_after - expected) <= 1e-9 * (1 + rec.residual_before)


def test_neighborhood_invariant(envelope_small):
    for rec in envelope_small.result.trace:
        if rec.stalled or not rec.corrected:
            continue
        assert rec.nbhd_norm <= hsd.ETA * rec.mu * (1 + 1e-9)


def test_primal_infeasible_detection(contradictory_rows_solved):
    r = contradictory_rows_solved.result
    assert r.status == hsd.PRIMAL_INFEASIBLE
    p = contradictory_rows_solved.built.problem
    z = r.final
    by = p.b @ z.y
    assert by > 0
    assert np.linalg.norm(p.A.T @ z.y + z.s) <= 1e-8 * by
    assert r.iterations <= 100


def test_corrector_miss_is_marked_stalled(perturbed_rows_problem, monkeypatch):
    # the contradictory rows' corrector phases all reach N(eta), so
    # iteration 5's is skipped: that iteration misses N(eta), and the solve
    # goes on from its iterate and still detects infeasibility
    phase = hsd.corrector_phase
    calls = []

    def skip_sixth(problem, z):
        calls.append(1)
        return (z, 0, 0) if len(calls) == 6 else phase(problem, z)

    monkeypatch.setattr(hsd, "corrector_phase", skip_sixth)
    r = sp.solve(perturbed_rows_problem(0.0))
    assert r.status == hsd.PRIMAL_INFEASIBLE and r.iterations == 14
    assert [rec.iteration for rec in r.trace if rec.stalled] == [5]
    rec = r.trace[5]
    assert rec.iteration == 5 and rec.corrected
    assert rec.nbhd_norm > hsd.ETA * rec.mu


def test_predictor_stall_ends_solve(monkeypatch):
    problem = small_problem()

    def stalled(problem, z, alpha_init=None, params=None):
        return hsd.PredictorOutcome(z, 0.0, True)

    monkeypatch.setattr(hsd, "predictor_step", stalled)
    r = sp.solve(problem)
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.iterations == 1
    assert len(r.trace) == 1 and r.trace[0].stalled
    assert "predictor stalled" in r.message


def test_repeated_corrector_misses_end_solve(monkeypatch):
    # skipping the corrector leaves each predictor iterate outside N(eta)
    problem = small_problem()
    monkeypatch.setattr(hsd, "corrector_phase", lambda problem, z: (z, 0, 0))
    r = sp.solve(problem)
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.iterations == hsd.MAX_STALLS
    assert [rec.stalled for rec in r.trace] == [True] * hsd.MAX_STALLS
    assert "corrector failed to reach N(eta)" in r.message


def test_hessian_jitter_is_counted_and_reported(monkeypatch, sequential_factors):
    problem = small_problem()
    clean = sp.solve(problem)
    assert clean.status == hsd.OPTIMAL

    # fail the first Hessian Cholesky, the start point's, once
    U = problem.cone.factors[0].U
    cholesky = np.linalg.cholesky
    failed = []

    def fail_first_hessian(a):
        if a.shape == (U, U) and not failed:
            failed.append(True)
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_first_hessian)
    r = sp.solve(problem)
    assert failed
    assert r.status == hsd.OPTIMAL
    count = clean.jittered_iterates + 1
    assert r.jittered_iterates == count
    assert r.message == f"Hessian jitter at {count} accepted iterate(s)"
    assert fileio.solution_to_dict(r)["jittered_iterates"] == count


def test_dual_infeasible_detection(dual_infeasible_problem):
    problem = dual_infeasible_problem
    r = sp.solve(problem)
    assert r.status == hsd.DUAL_INFEASIBLE
    z = r.final
    assert -(problem.c @ z.x) > 0
    assert np.linalg.norm(problem.A @ z.x) <= 1e-8 * (-(problem.c @ z.x))


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
def test_nearly_infeasible_rows_are_primal_infeasible(perturbed_rows_problem, eps):
    # feasible, but only with ||x||_1 >= eps^-4: at tolerance 1e-8 the
    # solve certifies infeasibility, and the certificate holds to that tolerance
    problem = perturbed_rows_problem(eps)
    r = sp.solve(problem)
    assert r.status == hsd.PRIMAL_INFEASIBLE
    z = r.final
    by = problem.b @ z.y
    assert by > 0
    assert np.linalg.norm(problem.A.T @ z.y + z.s) <= 1e-8 * by
    assert r.iterations <= 21


def test_nearly_infeasible_rows_at_1e_2_fail_numerically(perturbed_rows_problem):
    # ||x||_1 >= 1e8 is needed; neither optimality nor infeasibility is
    # reached before the predictor stalls, and the status says so
    r = sp.solve(perturbed_rows_problem(1e-2))
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.message.startswith("predictor stalled")


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_nearly_dual_infeasible_cost_is_optimal(dual_infeasible_problem, eps):
    # c = eps*1 lies in the cone's interior, nearer its boundary as eps
    # falls; x = 0 is optimal with value 0
    p = dual_infeasible_problem
    r = sp.solve(sp.ConicProblem(p.A, p.b, eps * np.ones(p.c.size), p.cone))
    assert r.status == hsd.OPTIMAL
    assert r.dual_objective == 0.0
    assert abs(r.primal_objective) <= 1e-8


def test_iteration_limit():
    problem = sp.build_envelope(1, 6, 2, seed=4).problem
    r = sp.solve(problem, SolverParams(max_iters=2))
    assert r.status == hsd.ITERATION_LIMIT
    assert r.iterations == 2


def test_classify_optimal_matches_result(envelope_small):
    p = envelope_small.built.problem
    assert classify(p, envelope_small.result.final, SolverParams()) == hsd.OPTIMAL


def test_embedding_residual_norm_consistency(envelope_small):
    p = envelope_small.built.problem
    z = envelope_small.result.final
    r_p, r_d, r_g = embedding_residual(p, z)
    manual = np.sqrt(r_p @ r_p + r_d @ r_d + r_g**2)
    assert abs(embedding_residual_norm(p, z) - manual) <= 1e-15 * (1 + manual)
