"""The homogeneous self-dual predictor-corrector solver."""

import math
from types import SimpleNamespace

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
    # a tolerance that is not a real number in (0, 1) is refused by name,
    # not by a TypeError from the range comparison
    for name in ("tol_gap", "tol_infeas"):
        for bad in (2.0, 0.0, None, "1e-8", True, math.nan):
            with pytest.raises(ValueError, match=name):
                SolverParams(**{name: bad})
    assert SolverParams(tol_gap=np.float64(1e-6)).tol_gap == 1e-6
    # an iteration limit the loop's count can never equal is refused:
    # max_iters=2.5 would solve on to Optimal where 2 stops at the limit
    for bad in (-1, 2.5, None, "3", True):
        with pytest.raises(ValueError, match="max_iters"):
            SolverParams(max_iters=bad)
    assert SolverParams(max_iters=0).max_iters == 0
    assert SolverParams(max_iters=np.int64(3)).max_iters == 3


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


def test_problem_dimension_errors():
    cone = sp.build_cone(sp.cheb2_points(4), [ones_weight], [2])  # U = 5
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        ConicProblem(np.ones((1, 5)), np.ones(2), np.ones(5), cone)
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        ConicProblem(np.ones((1, 5)), np.ones(1), np.ones(4), cone)
    with pytest.raises(ValueError, match="cone dimension"):
        ConicProblem(np.ones((1, 6)), np.ones(1), np.ones(6), cone)


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


def test_negative_complementarity_is_outside_the_interior():
    # x's = nu at the centered start, so -s makes mu = (1 - nu) / (nu + 1) < 0
    problem = small_problem()
    z = initial_point(problem)
    assert problem.cone.nu > 1
    with pytest.raises(wsos.NotInteriorError, match="complementarity gap"):
        make_iterate(problem, z.x, z.tau, z.y, -z.s, z.kappa)
    assert hsd.try_make_iterate(problem, z.x, z.tau, z.y, -z.s, z.kappa) is None


def test_start_outside_the_interior_fails_before_the_first_iteration(monkeypatch):
    # every cone factor's Hessian Cholesky fails, the start's included
    problem = small_problem()
    U = problem.cone.factors[0].U
    cholesky = np.linalg.cholesky

    def fail_hessians(a):
        if a.shape == (U, U):
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_hessians)
    r = sp.solve(problem)
    assert r.status == hsd.NUMERICAL_FAILURE and r.iterations == 0 and r.trace == []
    assert r.message == "barrier Hessian not positive definite"


def test_neighborhood_norm_matches_dense_formula():
    problem = small_problem(seed=5)
    z = predictor_step(problem, initial_point(problem), None, SolverParams()).iterate
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
    # evaluations, after which no further correction may be computed. The
    # input is the first seed s = 1, 2, ... of build_envelope(1, 6, 2, seed=s)
    # whose solve has such a direction.
    problem = sp.build_envelope(1, 6, 2, seed=2).problem
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


def _first_iterate_below(problem, trace, mu):
    """The first iterate with mu at most ``mu`` of the solve that left ``trace``."""
    return _iterate_after(problem, next(rec.iteration for rec in trace if rec.mu <= mu) + 1)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("iterations", [0, 9])
def test_null_space_direction_matches_dense_lu(k, iterations):
    # m = 2 and m = 3 identity blocks, at the start and at the first iterate
    # with mu <= 1e-3, which the solve reaches within 9 iterations
    problem = sp.build_envelope(1, 6, k, seed=2).problem
    assert problem.identity_blocks
    if iterations:
        trace = sp.solve(problem).trace
        reached = next(rec.iteration for rec in trace if rec.mu <= 1e-3) + 1
        assert reached <= iterations
        z = _iterate_after(problem, reached)
        assert 1e-4 <= z.mu <= 1e-3
    else:
        z = initial_point(problem)
    for mode in ("predictor", "corrector"):
        _assert_same_direction(*_both_directions(problem, z, mode))


def test_null_space_direction_matches_dense_lu_env1d100(envelope_1d_100):
    problem = envelope_1d_100.built.problem
    middle = _first_iterate_below(problem, envelope_1d_100.result.trace, 1e-3)
    assert 1e-4 <= middle.mu <= 1e-3
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


def test_singular_null_space_system_is_a_numerical_failure(singular_newton_matrix):
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


@pytest.mark.parametrize("path", ["lu", "null_space"])
def test_non_finite_newton_solve_is_a_numerical_failure(monkeypatch, path):
    # the reduced solve returns NaN on either path: the first iteration's
    # predictor direction raises, and the solve ends NumericalFailure
    if path == "lu":
        problem, lu_solve = trivial_problem(), scipy.linalg.lu_solve
        monkeypatch.setattr(scipy.linalg, "lu_solve",
                            lambda *args, **kw: np.full_like(lu_solve(*args, **kw), np.nan))
    else:
        problem, dpotrs = small_problem(), scipy.linalg.lapack.dpotrs

        def nan_solve(*args, **kw):
            sol, info = dpotrs(*args, **kw)
            return np.full_like(sol, np.nan), info

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", nan_solve)
    assert problem.identity_blocks == (path == "null_space")
    r = sp.solve(problem)
    assert r.status == hsd.NUMERICAL_FAILURE and r.iterations == 1
    assert r.message == "reduced Newton solve produced non-finite values"


def test_unknown_rhs_mode():
    problem = trivial_problem()
    with pytest.raises(ValueError):
        newton_direction(problem, initial_point(problem), "affine")


# ----------------------------------------------------------------------
# predictor and corrector phases


def test_predictor_accepts_reasonable_step():
    problem = sp.build_envelope(1, 5, 2, seed=0).problem
    out = predictor_step(problem, initial_point(problem), None, SolverParams())
    assert not out.stalled
    assert out.alpha >= 0.01
    assert out.iterate.mu < 1.0
    assert out.iterate.proximity <= hsd.BETA * out.iterate.mu


def _solve_recording(problem, monkeypatch):
    """The solve of problem, the iterates its predictor searches returned
    and the iterates its corrector phases returned."""
    predicted, corrected = [], []
    search, phase = hsd.predictor_step, hsd.corrector_phase

    def recording_search(problem, z, alpha_init, params):
        out = search(problem, z, alpha_init, params)
        predicted.append(out.iterate)
        return out

    def recording_phase(problem, z):
        out = phase(problem, z)
        corrected.append(out[0])
        return out

    monkeypatch.setattr(hsd, "predictor_step", recording_search)
    monkeypatch.setattr(hsd, "corrector_phase", recording_phase)
    return sp.solve(problem), predicted, corrected


def _terms(z):
    """The tau term, then each cone factor's term psi_i^T H_i^{-1} psi_i, at z."""
    slices = z.barrier.cone.slices()
    return [(z.tau * z.psi_tau) ** 2] + [
        ev.inv_quadform(z.psi_x[sl]) for ev, sl in zip(z.barrier.factor_evals, slices)]


def test_predictor_bounds_each_term_not_their_sum(monkeypatch):
    # every accepted predictor trial has the tau term and each of the three
    # cone factors' terms at most (BETA mu)^2, while the sum of the terms,
    # the old acceptance test, exceeds it at some of them
    r, predicted, _ = _solve_recording(sp.build_envelope(1, 5, 3, seed=1).problem,
                                       monkeypatch)
    assert r.status == hsd.OPTIMAL and len(predicted) == r.iterations
    for z in predicted:
        assert math.sqrt(max(_terms(z))) == z.proximity <= hsd.BETA * z.mu
    assert any(z.nbhd_norm > hsd.BETA * z.mu for z in predicted)


def test_trace_records_carry_the_sum_norm(monkeypatch):
    # each record's nbhd_norm, which the trace CSV writes and criterion 7
    # checks against ETA, is the root of the sum of the terms at the iterate
    # the iteration ends at, not the predictor's proximity
    r, predicted, corrected = _solve_recording(sp.build_envelope(1, 5, 3, seed=1).problem,
                                               monkeypatch)
    ends = corrected + [predicted[-1]]
    assert r.status == hsd.OPTIMAL and len(ends) == len(r.trace)
    for rec, z in zip(r.trace, ends):
        terms = _terms(z)
        assert rec.nbhd_norm == z.nbhd_norm == math.sqrt(sum(terms[1:]) + terms[0])
    assert any(rec.nbhd_norm > z.proximity for rec, z in zip(r.trace, ends))


def test_predictor_zero_direction_stalls(monkeypatch):
    problem = small_problem()
    z0 = initial_point(problem)
    zero = hsd.Direction(np.zeros(z0.x.size), 0.0, np.zeros(problem.A.shape[0]),
                         np.zeros(z0.x.size), 0.0, 0.0)
    monkeypatch.setattr(hsd, "newton_direction", lambda problem, z, rhs_mode: zero)
    out = predictor_step(problem, z0, None, SolverParams())
    assert out.stalled and out.iterate is z0


def test_step_schedule_descends_from_the_cap_to_the_floor():
    schedule = hsd.STEP_SCHEDULE
    assert len(schedule) >= 1 and schedule[0] == hsd.ALPHA_CAP
    assert all(a > b for a, b in zip(schedule, schedule[1:]))
    assert schedule[-1] >= hsd.ALPHA_MIN > schedule[-1] / 2


def test_nan_factor_term_is_rejected(monkeypatch):
    # a NaN term is not known to be within BETA mu, so make_iterate rejects
    # every trial whose tau term passes, and the search stalls after trying
    # the whole schedule
    problem = sp.build_envelope(1, 5, 2, seed=1).problem
    z0 = initial_point(problem)
    centrality = wsos.BarrierEval.centrality
    monkeypatch.setattr(wsos.BarrierEval, "centrality",
                        lambda ev, s, mu: (centrality(ev, s, mu)[0], math.nan))
    out = predictor_step(problem, z0, None, SolverParams())
    assert out.stalled and out.iterate is z0
    assert out.trials == len(hsd.STEP_SCHEDULE)


def _scheduled_search(monkeypatch, accepts, alpha_init=None, meets=lambda a: False):
    """predictor_step from small_problem's start, with every trial at step a
    accepted when accepts(a) and the stepped point at a meeting the stopping
    rule when meets(a); the steps probed against the rule, the steps tried
    and the outcome."""
    problem = small_problem()
    probed, tried = [], []

    def probe(problem, z, d, alpha, params):
        probed.append(alpha)
        return meets(alpha)

    def step(problem, z, d, alpha):
        tried.append(alpha)
        if not accepts(alpha):
            return None
        return SimpleNamespace(alpha=alpha)

    monkeypatch.setattr(hsd, "_meets_stopping_rule", probe)
    monkeypatch.setattr(hsd, "_step", step)
    out = predictor_step(problem, initial_point(problem), alpha_init, SolverParams())
    return probed, tried, out


def _schedule_start(alpha_init):
    """Where the search starts: two entries above alpha_init, else the first."""
    if alpha_init is None:
        return 0
    return max(hsd.STEP_SCHEDULE.index(alpha_init) - 2, 0)


@pytest.mark.parametrize("alpha_init", [None, 0.9999, 0.999, 0.97, 0.6, 0.3, 0.1])
def test_predictor_returns_the_first_accepted_entry(monkeypatch, alpha_init):
    # no stepped point meets the stopping rule, so the probe stops at the
    # top entry; trials take consecutive schedule entries from two above
    # the last accepted step, and the first accepted one is returned
    probed, tried, out = _scheduled_search(monkeypatch, lambda a: a <= 0.3, alpha_init)
    start = _schedule_start(alpha_init)
    assert probed == [hsd.ALPHA_CAP]
    assert tried == list(hsd.STEP_SCHEDULE[start:start + len(tried)])
    assert tried[-1] == out.alpha == out.iterate.alpha == min(0.3, hsd.STEP_SCHEDULE[start])
    assert not out.stalled and out.trials == len(tried)


@pytest.mark.parametrize("alpha_init", [None, hsd.ALPHA_CAP, 0.5, hsd.STEP_SCHEDULE[-1]])
def test_predictor_never_tries_a_step_twice(monkeypatch, alpha_init):
    # the stepped points at the top four entries meet the stopping rule; a
    # search that accepts nothing tries the shortest of them, then each
    # entry below both the run and its start once, and stalls only after
    # the last
    probed, tried, out = _scheduled_search(monkeypatch, lambda a: False, alpha_init,
                                           meets=lambda a: a >= 0.97)
    run = hsd.STEP_SCHEDULE.index(0.97) + 1
    assert probed == list(hsd.STEP_SCHEDULE[:run + 1])
    assert tried == [0.97, *hsd.STEP_SCHEDULE[max(_schedule_start(alpha_init), run):]]
    assert len(tried) == len(set(tried))
    assert out.stalled and out.alpha == 0.0 and out.trials == len(tried)


@pytest.mark.parametrize("accepts, shortest, returned", [
    (lambda a: True, 0.7, 0.7),        # the run's shortest entry is accepted
    (lambda a: a != 0.7, 0.7, 0.6),    # it is rejected: the search goes below
    (lambda a: a < 0.85, 0.85, 0.8),   # so are the longer entries, never tried
])
def test_predictor_walks_down_while_the_stopping_rule_holds(monkeypatch, accepts,
                                                            shortest, returned):
    # every stepped point at a step of at least ``shortest`` meets the
    # stopping rule: the probe walks down the schedule while the rule holds,
    # and the first trial is the run's shortest entry. Accepted, it is the
    # search's only trial; rejected, the trials go on below the run and the
    # first accepted one is returned
    probed, tried, out = _scheduled_search(monkeypatch, accepts,
                                           meets=lambda a: a >= shortest)
    run = hsd.STEP_SCHEDULE.index(shortest) + 1
    assert probed == list(hsd.STEP_SCHEDULE[:run + 1])
    below = hsd.STEP_SCHEDULE[run:hsd.STEP_SCHEDULE.index(returned) + 1]
    assert tried == [shortest, *below]
    assert out.alpha == out.iterate.alpha == returned and not out.stalled
    assert out.trials == len(tried)


def _screen_rejects(bound, mu):
    """Whether a factor's screen bound rejects its trial in make_iterate."""
    return bound > (1.0 + 1e-6) * (hsd.BETA * mu) ** 2


def _predict(problem, z, monkeypatch, screen):
    """predictor_step from z with the screen, or with one that never rejects
    (its bound 0.0); also the screen's verdicts, one per screened factor, and
    the number of factor barriers evaluated."""
    verdicts, evaluated = [], []
    bound = wsos.BarrierEval.inv_quadform_lower_bound
    factor_barrier = wsos.InterpWSOSCone.barrier

    def recording(self, s, mu, reference):
        value = bound(self, s, mu, reference) if screen else 0.0
        verdicts.append(_screen_rejects(value, mu))
        return value

    def counting(self, x):
        evaluated.append(1)
        return factor_barrier(self, x)

    with monkeypatch.context() as m:
        m.setattr(wsos.BarrierEval, "inv_quadform_lower_bound", recording)
        m.setattr(wsos.InterpWSOSCone, "barrier", counting)
        return predictor_step(problem, z, None, SolverParams()), verdicts, len(evaluated)


def _first_screened_iterate(problem, iterations, monkeypatch, late):
    """The first iterate of the first (or, ``late``, the second) half of a
    solve of ``iterations`` iterations whose search, from the schedule's
    first entry, has a trial that the screen rejects."""
    half = (iterations + 1) // 2
    for i in range(half, iterations) if late else range(half):
        z = _iterate_after(problem, i)
        if any(_predict(problem, z, monkeypatch, screen=True)[1]):
            return z
    raise AssertionError(f"the screen rejects no trial in the {'second' if late else 'first'} "
                         "half of the solve")


@pytest.mark.parametrize("late", [False, True])
def test_predictor_screen_changes_no_step(envelope_small, envelope_small_k3,
                                          monkeypatch, screened_trials, late):
    # the same step and bit-identical iterate with the screen as with a
    # screen that never rejects, early and late, for k = 2 and k = 3 cone
    # factors (small, screened here as large ones are); a trial rejected at
    # an early factor never evaluates the later factors' barriers. Early and
    # late are picked by property, not by count: the first iterate of the
    # solve's first or second half from which the screen rejects a trial.
    # Trials whose tau term fails are rejected before the screen, and from
    # the start k = 2's first screened trials all pass it; near the end the
    # search's first trials leave the cone or are accepted at once, and
    # which iterates still see a rejection moves with the step rules.
    for k, inst in ((2, envelope_small), (3, envelope_small_k3)):
        problem = inst.built.problem
        assert len(problem.cone.factors) == k
        z = _first_screened_iterate(problem, inst.result.iterations, monkeypatch, late)
        screened, verdicts, evaluated = _predict(problem, z, monkeypatch, screen=True)
        plain, _, evaluated_plain = _predict(problem, z, monkeypatch, screen=False)
        assert any(verdicts)  # the screen does reject, early and late
        # a rejection at an early factor spares the later factors' barriers
        assert evaluated < evaluated_plain
        assert screened.alpha == plain.alpha and screened.stalled == plain.stalled
        for key in ("x", "y", "s"):
            assert np.array_equal(getattr(screened.iterate, key),
                                  getattr(plain.iterate, key))
        for key in ("tau", "kappa", "mu", "nbhd_norm"):
            assert getattr(screened.iterate, key) == getattr(plain.iterate, key)


def test_every_screen_rejection_is_a_rejected_trial(monkeypatch, screened_trials):
    # over a whole solve with three cone factors (small, screened here as
    # large ones are), every trial the screen rejects before its Hessian
    # has, formed in full, a proximity above BETA mu: the screen bounds
    # each term against (BETA mu)^2, never a sum
    problem = sp.build_envelope(1, 5, 3, seed=1).problem
    points, rejected = [], []
    trial_at = hsd.try_make_iterate
    bound = wsos.BarrierEval.inv_quadform_lower_bound

    def remembering(problem, x, tau, y, s, kappa, reference=None):
        points.append((x, tau, s, kappa))
        return trial_at(problem, x, tau, y, s, kappa, reference)

    def recording(self, s, mu, reference):
        value = bound(self, s, mu, reference)
        if _screen_rejects(value, mu):
            rejected.append(points[-1])
        return value

    monkeypatch.setattr(hsd, "try_make_iterate", remembering)
    monkeypatch.setattr(wsos.BarrierEval, "inv_quadform_lower_bound", recording)
    assert sp.solve(problem).status == hsd.OPTIMAL and rejected
    y = np.zeros(problem.A.shape[0])
    for x, tau, s, kappa in rejected:
        trial = hsd.try_make_iterate(problem, x, tau, y, s, kappa)
        assert trial is None or trial.proximity > hsd.BETA * trial.mu


def _counting_screen_calls(monkeypatch):
    calls = []
    bound = wsos.BarrierEval.inv_quadform_lower_bound

    def counting(self, *args):
        calls.append(1)
        return bound(self, *args)

    monkeypatch.setattr(wsos.BarrierEval, "inv_quadform_lower_bound", counting)
    return calls


def test_small_factor_trials_skip_the_screen(monkeypatch):
    # no trial of a whole solve screens a factor that is not screened
    problem = sp.build_envelope(1, 5, 3, seed=1).problem
    assert not any(f.screened for f in problem.cone.factors)
    calls = _counting_screen_calls(monkeypatch)
    result = sp.solve(problem)
    assert result.status == hsd.OPTIMAL and result.trials > result.iterations
    assert calls == []


def test_screen_forced_on_small_factors_changes_no_iterate(envelope_small, envelope_small_k3,
                                                           monkeypatch, screened_trials):
    # a whole small solve with its trials screened, as large factors' are,
    # takes the default solve's steps to bit-identical iterates in as many
    # trials (the session fixtures were solved before the screen was forced)
    calls = _counting_screen_calls(monkeypatch)
    for inst in (envelope_small, envelope_small_k3):
        calls.clear()
        plain, screened = inst.result, sp.solve(inst.built.problem)
        assert calls  # the screen ran
        assert plain.status == screened.status == hsd.OPTIMAL
        assert plain.trials == screened.trials and plain.trace == screened.trace
        for key in ("x", "y", "s"):
            assert np.array_equal(getattr(plain, key), getattr(screened, key))


def test_small_trial_stops_at_the_first_factor_that_fails(envelope_small_k3, monkeypatch,
                                                          request):
    # every trial of the first half of a k = 3 solve whose tau term passes,
    # with the screen off (small factors, as by default) and then on
    # (screened_trials): formed in full, its first factor with a term above
    # (BETA mu)^2 is the last factor whose Hessian the trial forms, and,
    # unscreened, the last whose barrier it evaluates; a screened trial
    # evaluates every barrier before the first Hessian. A trial the screen
    # rejects forms no Hessian. With no such factor, the trial is the
    # iterate formed in full, bit for bit. Unscreened, some trials fail at
    # factor 0 and evaluate no later factor's barrier. (The factors here
    # are one cone object, so calls are counted, not told apart.)
    problem = envelope_small_k3.built.problem
    slices = problem.cone.slices()
    assert len(slices) == 3
    assert not any(f.screened for f in problem.cone.factors)
    factor_barrier = wsos.InterpWSOSCone.barrier
    form = wsos.BarrierEval._form_hessian
    bound = wsos.BarrierEval.inv_quadform_lower_bound
    evaluated, formed, screened_out = [], [], []

    def counting(self, x):
        evaluated.append(1)
        return factor_barrier(self, x)

    def forming(self):
        formed.append(1)
        return form(self)

    def screening(self, s, mu, reference):
        value = bound(self, s, mu, reference)
        screened_out.append(_screen_rejects(value, mu))
        return value

    iterates = [_iterate_after(problem, i)
                for i in range(envelope_small_k3.result.iterations // 2 + 1)]
    for screened in (False, True):
        if screened:
            request.getfixturevalue("screened_trials")
        first_failures = []
        for z in iterates:
            d = newton_direction(problem, z, "predictor")
            for alpha in hsd.STEP_SCHEDULE[:12]:
                point = hsd._stepped(z, d, alpha)
                full = hsd.try_make_iterate(problem, *point)
                if full is None or abs(full.tau * full.psi_tau) > hsd.BETA * full.mu:
                    continue
                terms = [ev.inv_quadform(full.psi_x[sl])
                         for ev, sl in zip(full.barrier.factor_evals, slices)]
                failing = [j for j, q in enumerate(terms)
                           if math.sqrt(q) > hsd.BETA * full.mu]
                evaluated.clear(), formed.clear(), screened_out.clear()
                with monkeypatch.context() as m:
                    m.setattr(wsos.InterpWSOSCone, "barrier", counting)
                    m.setattr(wsos.BarrierEval, "_form_hessian", forming)
                    m.setattr(wsos.BarrierEval, "inv_quadform_lower_bound", screening)
                    trial = hsd.try_make_iterate(problem, *point, reference=z)
                assert len(screened_out) == (len(evaluated) if screened else 0)
                if any(screened_out):
                    assert failing and trial is None and formed == []
                    assert screened_out.index(True) == len(evaluated) - 1
                elif failing:
                    first_failures.append(failing[0])
                    assert len(formed) == failing[0] + 1
                    assert trial is None
                    assert len(evaluated) == (3 if screened else failing[0] + 1)
                else:
                    assert len(evaluated) == len(formed) == 3
                    assert np.array_equal(trial.x, full.x) and np.array_equal(trial.s, full.s)
                    assert trial.nbhd_norm == full.nbhd_norm
                    assert trial.proximity == full.proximity
        if screened:
            assert first_failures  # some trials pass the screen and fail exactly
        else:
            assert 0 in first_failures and len(set(first_failures)) > 1


def test_failed_factor_hessian_stops_the_stage(monkeypatch):
    # factor 1's Hessian Cholesky fails: the trial is None, and factor 2's
    # Hessian is never formed
    problem = sp.build_envelope(1, 12, 3, seed=3).problem
    U = problem.cone.factors[0].U
    z = initial_point(problem)
    cholesky = np.linalg.cholesky
    calls = []

    def fail_factor_1(a):
        if a.shape == (U, U):
            calls.append(1)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_factor_1)
    assert hsd.try_make_iterate(problem, z.x, z.tau, z.y, z.s, z.kappa) is None
    assert len(calls) == 2  # factor 2 never reached


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


def _arc_problem(kind):
    """An envelope with 2 or 3 identity blocks, or a polymin problem (A = 1^T)."""
    if kind == "polymin":
        poly = sp.chebyshev_poly(2, 4, np.linspace(-1.0, 1.0, sp.space_dim(2, 4)))
        problem = sp.build_polymin(poly).problem
        assert not problem.identity_blocks
    else:
        problem = sp.build_envelope(1, 6, int(kind[-1]), seed=2).problem
        assert problem.identity_blocks
    return problem


@pytest.mark.parametrize("kind", ["envelope-2", "envelope-3", "polymin"])
def test_adjustment_keeps_the_residual_shrink_on_the_arc(kind):
    # criterion 7 along the predictor's arc: the third-order adjustment
    # solves the linear rows with zero right-hand side, on the null-space
    # path (m = 2 and 3) and the dense-LU path (polymin), so every trial
    # z + alpha d + alpha^2 d_adj has embedding residual (1 - alpha) r(z);
    # at the start and at the first iterate with mu <= 1e-5
    problem = _arc_problem(kind)
    late = _first_iterate_below(problem, sp.solve(problem).trace, 1e-5)
    for z in (initial_point(problem), late):
        d = newton_direction(problem, z, "predictor")
        adj = d.adjustment
        assert adj is not None and adj.residual <= 1e-9
        assert np.linalg.norm(_linear_rows(problem, adj)) <= 1e-9
        r = _residual_vector(problem, (z.x, z.tau, z.y, z.s, z.kappa))
        out = predictor_step(problem, z, None, SolverParams())
        for alpha in (0.1, 0.5, out.alpha, hsd.ALPHA_CAP):
            moved = _residual_vector(problem, hsd._stepped(z, d, alpha))
            assert np.linalg.norm(moved - (1.0 - alpha) * r) <= 1e-9 * (1 + np.linalg.norm(r))


def _corrector_starts(problem, monkeypatch):
    """The iterates of a whole solve that the predictor leaves outside
    N(eta), where corrector phases start, in order."""
    iterates = []
    predictor = hsd.predictor_step

    def recording(problem, z, alpha_init, params):
        out = predictor(problem, z, alpha_init, params)
        iterates.append(out.iterate)
        return out

    with monkeypatch.context() as m:
        m.setattr(hsd, "predictor_step", recording)
        assert sp.solve(problem).status == hsd.OPTIMAL
    starts = [z for z in iterates if not z.in_neighborhood(hsd.ETA)]
    assert starts
    return starts


@pytest.mark.parametrize("kind", ["envelope-2", "envelope-3", "polymin"])
def test_corrector_adjustment_keeps_the_residual(kind, monkeypatch):
    # criterion 7 through the corrector: its direction and its third-order
    # adjustment both solve the linear rows with zero right-hand side, so
    # corrector steps z + alpha d + alpha^2 d_adj leave the embedding
    # residual where it was, from every iterate a corrector phase starts at
    problem = _arc_problem(kind)
    for z in _corrector_starts(problem, monkeypatch):
        d = newton_direction(problem, z, "corrector")
        adj = d.adjustment
        assert adj is not None and adj.residual <= 1e-9
        assert np.linalg.norm(_linear_rows(problem, adj)) <= 1e-9
        r = _residual_vector(problem, (z.x, z.tau, z.y, z.s, z.kappa))
        stepped, _ = corrector_phase(problem, z)
        after = _residual_vector(problem, (stepped.x, stepped.tau, stepped.y,
                                           stepped.s, stepped.kappa))
        assert np.linalg.norm(after - r) <= 1e-9 * (1 + np.linalg.norm(r))


def test_corrector_adjustment_lands_nearer_the_path(envelope_small, butcher_solved,
                                                    monkeypatch):
    # from every iterate the predictor leaves outside N(eta), the full
    # corrector step on the adjusted arc ends at a smaller neighborhood
    # norm than the step along the plain Newton ray z + d
    a = hsd.ALPHA_C
    for inst in (envelope_small, butcher_solved):
        problem = inst.built.problem
        for z in _corrector_starts(problem, monkeypatch):
            d = newton_direction(problem, z, "corrector")
            adjusted = hsd.try_make_iterate(problem, *hsd._stepped(z, d, a))
            plain = hsd.try_make_iterate(problem, z.x + a * d.dx, z.tau + a * d.dtau,
                                         z.y + a * d.dy, z.s + a * d.ds,
                                         z.kappa + a * d.dkappa)
            assert adjusted is not None and plain is not None
            assert adjusted.nbhd_norm < plain.nbhd_norm


def _recorded_searches(monkeypatch, step=None):
    """Patches predictor_step, the stopping-rule probe and the trials (with
    ``step`` in place of hsd._step, when given) to record each search: its
    probes as (step, met), its trials as (step, trial) and its outcome."""
    searches = []
    predictor, probe = hsd.predictor_step, hsd._meets_stopping_rule
    step = step or hsd._step

    def recording_predictor(problem, z, alpha_init, params):
        searches.append(SimpleNamespace(probed=[], tried=[]))
        searches[-1].out = predictor(problem, z, alpha_init, params)
        return searches[-1].out

    def recording_probe(problem, z, d, alpha, params):
        met = probe(problem, z, d, alpha, params)
        searches[-1].probed.append((alpha, met))
        return met

    def recording_step(problem, z, d, alpha):
        trial = step(problem, z, d, alpha)
        searches[-1].tried.append((alpha, trial))
        return trial

    monkeypatch.setattr(hsd, "predictor_step", recording_predictor)
    monkeypatch.setattr(hsd, "_meets_stopping_rule", recording_probe)
    monkeypatch.setattr(hsd, "_step", recording_step)
    return searches


def _run_meeting_the_rule(search):
    """The steps of a search's probe that met the stopping rule, after
    checking that they are the schedule's top entries and that the probe
    stopped at the first entry below them."""
    run = [alpha for alpha, met in search.probed if met]
    assert search.probed == [(alpha, True) for alpha in run] + [
        (hsd.STEP_SCHEDULE[len(run)], False)]
    assert run == list(hsd.STEP_SCHEDULE[:len(run)])
    return run


def test_predictor_search_walks_down_to_the_last_trial_meeting_tolerance(monkeypatch):
    # in butcher's last search the stepped points at 0.9999 and 0.999 both
    # meet the stopping rule. The probe walks down the schedule while the
    # rule holds, and the search's one trial is the shortest step whose
    # point still meets it (0.999, mu near 1e-9 rather than 1e-10), so the
    # solve ends there without pushing mu past the tolerance, and the Gram
    # certificate meets the benchmark's adjoint identity,
    # max |sum_i Lambda_i^*(S_i) - s| <= 1e-8 (1 + ||s||).
    built = sp.build_polymin(sp.builtin_poly("butcher"))
    problem, params = built.problem, SolverParams()
    searches = _recorded_searches(monkeypatch)
    r = sp.solve(problem, params)
    assert r.status == hsd.OPTIMAL and len(searches) == r.iterations
    for search in searches[:-1]:
        # no point meets the rule, and the first accepted trial is returned
        assert not _run_meeting_the_rule(search)
        ok = [t is not None and t.proximity <= hsd.BETA * t.mu for _, t in search.tried]
        assert ok.index(True) == len(ok) - 1
        assert search.out.iterate is search.tried[-1][1]
        assert classify(problem, search.out.iterate, params) is None
    last = searches[-1]
    run = _run_meeting_the_rule(last)
    assert len(run) >= 2  # the step is shorter than the first that meets the rule
    [(alpha, trial)] = last.tried
    assert alpha == run[-1] == last.out.alpha and trial is last.out.iterate is r.final
    assert classify(problem, trial, params) == hsd.OPTIMAL
    z = r.final
    for factor, ev in zip(built.cone.factors, z.barrier.factor_evals):
        cert, s = sp.lower_bound_certificate(factor, z, problem.c,
                                             r.dual_objective - 1e-9, barrier=ev)
        adjoint = sum(np.einsum("ua,ab,ub->u", B, S, B)
                      for B, S in zip(factor.blocks, cert.grams))
        assert np.max(np.abs(adjoint - s)) <= 1e-8 * (1.0 + np.linalg.norm(s))


def test_stopping_rule_probe_forms_no_barrier(envelope_small_k3, monkeypatch):
    # the probe decides the stopping rule from the stepped point's fields:
    # over a whole solve, every factor barrier a predictor search evaluates
    # belongs to a trial, and the last search, which probes its run and the
    # entry below it, evaluates the barriers of its one trial only
    problem = envelope_small_k3.built.problem
    searches = _recorded_searches(monkeypatch)
    barriers, inside = [], []
    step, factor_barrier = hsd._step, wsos.InterpWSOSCone.barrier

    def marking_step(problem, z, d, alpha):
        inside.append(True)
        try:
            return step(problem, z, d, alpha)
        finally:
            inside.pop()

    def counting(self, x):
        if searches and not hasattr(searches[-1], "out"):  # within a search
            barriers.append((len(searches) - 1, bool(inside)))
        return factor_barrier(self, x)

    monkeypatch.setattr(hsd, "_step", marking_step)
    monkeypatch.setattr(wsos.InterpWSOSCone, "barrier", counting)
    r = sp.solve(problem)
    assert r.status == hsd.OPTIMAL and len(searches) == r.iterations
    assert barriers and all(in_trial for _, in_trial in barriers)
    last = searches[-1]
    assert len(last.probed) >= 2 and len(last.tried) == 1
    assert sum(i == len(searches) - 1 for i, _ in barriers) == len(problem.cone.factors)


def test_rejected_stopping_trial_continues_below_the_run(butcher_solved, monkeypatch):
    # the first trial at the shortest step of a run meeting the stopping
    # rule is rejected here: the search goes on below the run, tries no
    # entry twice and returns an iterate that meets no rule, so the
    # iteration is corrected and the solve goes on to stop Optimal later
    problem, params = butcher_solved.built.problem, SolverParams()
    forced = []
    step = hsd._step

    def rejecting_step(problem, z, d, alpha):
        if not forced and any(met for _, met in searches[-1].probed):
            forced.append(len(searches) - 1)
            return None
        return step(problem, z, d, alpha)

    searches = _recorded_searches(monkeypatch, rejecting_step)
    r = sp.solve(problem, params)
    assert r.status == hsd.OPTIMAL and forced
    i = forced[0]
    search, rec = searches[i], r.trace[i]
    run = _run_meeting_the_rule(search)
    tried = [alpha for alpha, _ in search.tried]
    assert run and tried[0] == run[-1] and all(a < run[-1] for a in tried[1:])
    assert len(tried) == len(set(tried)) >= 2
    assert search.out.alpha == tried[-1] and not search.out.stalled
    assert classify(problem, search.out.iterate, params) is None
    assert rec.corrected and i < r.iterations - 1 and rec.trials == len(tried)


def test_trials_are_counted_per_iteration(envelope_small):
    r = envelope_small.result
    assert all(rec.trials >= 1 for rec in r.trace)
    assert r.trials == sum(rec.trials for rec in r.trace)
    assert fileio.solution_to_dict(r)["trials"] == r.trials


def test_corrector_noop_inside_eta():
    problem = small_problem()
    z0 = initial_point(problem)           # exactly centered
    z, steps = corrector_phase(problem, z0)
    assert steps == 0 and z is z0


def test_corrector_halves_a_step_that_leaves_the_interior(monkeypatch):
    # the full corrector step is refused as outside the interior: the step
    # is halved, and the phase's one step lands on the point at 1/2
    problem = sp.build_envelope(1, 5, 2, seed=1).problem
    z = predictor_step(problem, initial_point(problem), None, SolverParams()).iterate
    assert not z.in_neighborhood(hsd.ETA)
    d = newton_direction(problem, z, "corrector")
    half = hsd.try_make_iterate(problem, *hsd._stepped(z, d, 0.5))
    trial_at, stepped = hsd.try_make_iterate, hsd._stepped
    alphas = []

    def recording(z, d, alpha):
        alphas.append(alpha)
        return stepped(z, d, alpha)

    def first_refused(problem, *point, reference=None):
        return None if len(alphas) == 1 else trial_at(problem, *point, reference=reference)

    monkeypatch.setattr(hsd, "_stepped", recording)
    monkeypatch.setattr(hsd, "try_make_iterate", first_refused)
    monkeypatch.setattr(hsd, "R_C", 1)
    out, steps = corrector_phase(problem, z)
    assert steps == 1 and alphas == [hsd.ALPHA_C, hsd.ALPHA_C / 2]
    assert np.array_equal(out.x, half.x) and np.array_equal(out.s, half.s)
    assert out.nbhd_norm == half.nbhd_norm


def test_corrector_that_never_regains_the_interior_fails(monkeypatch):
    # every corrector step is refused: the step halves down to ALPHA_MIN,
    # and the solve ends NumericalFailure with the corrector's message
    trial_at = hsd.try_make_iterate
    refused = []

    def refuse_corrector_steps(problem, *point, reference=None):
        if reference is None:  # not a predictor trial
            refused.append(1)
            return None
        return trial_at(problem, *point, reference=reference)

    monkeypatch.setattr(hsd, "try_make_iterate", refuse_corrector_steps)
    r = sp.solve(sp.build_envelope(1, 5, 2, seed=1).problem)
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.message == "corrector step lost the cone interior"
    halvings = sum(1 for k in range(64) if hsd.ALPHA_C / 2**k >= hsd.ALPHA_MIN)
    assert len(refused) == halvings and len(r.trace) == r.iterations


def test_corrector_recenters_within_r_c():
    problem = sp.build_envelope(1, 5, 2, seed=1).problem
    z = initial_point(problem)
    seen_recenter = False
    for _ in range(6):
        out = predictor_step(problem, z, None, SolverParams())
        zp = out.iterate
        if not zp.in_neighborhood(hsd.ETA):
            seen_recenter = True
            z2, steps = corrector_phase(problem, zp)
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
    # goes on past it from its iterate and still detects infeasibility
    phase = hsd.corrector_phase
    calls = []

    def skip_sixth(problem, z):
        calls.append(1)
        return (z, 0) if len(calls) == 6 else phase(problem, z)

    monkeypatch.setattr(hsd, "corrector_phase", skip_sixth)
    r = sp.solve(perturbed_rows_problem(0.0))
    assert r.status == hsd.PRIMAL_INFEASIBLE and r.iterations > 6
    assert [rec.iteration for rec in r.trace if rec.stalled] == [5]
    rec = r.trace[5]
    assert rec.iteration == 5 and rec.corrected
    assert rec.nbhd_norm > hsd.ETA * rec.mu


def test_predictor_stall_ends_solve(monkeypatch):
    problem = small_problem()

    def stalled(problem, z, alpha_init, params):
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
    monkeypatch.setattr(hsd, "corrector_phase", lambda problem, z: (z, 0))
    r = sp.solve(problem)
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.iterations == hsd.MAX_STALLS
    assert [rec.stalled for rec in r.trace] == [True] * hsd.MAX_STALLS
    assert "corrector failed to reach N(eta)" in r.message


def _solve_to_exit(case, request, monkeypatch):
    """The solve that ends at the named exit of the solve loop."""
    fixture = request.getfixturevalue
    if case == "optimal":
        return fixture("envelope_small").result
    if case == "primal_infeasible":
        return fixture("contradictory_rows_solved").result
    if case == "dual_infeasible":
        return sp.solve(fixture("dual_infeasible_problem"))
    if case == "iteration_limit":
        return sp.solve(sp.build_envelope(1, 6, 2, seed=4).problem, SolverParams(max_iters=2))
    if case == "singular_newton_matrix":
        fixture("singular_newton_matrix")
        return sp.solve(small_problem())
    phase, search = hsd.corrector_phase, hsd.predictor_step
    calls = []

    def corrector(problem, z):
        calls.append(z)
        if case == "corrector_misses":
            return z, 0
        if len(calls) == 3:
            raise hsd.SolverError("forced corrector failure")
        return phase(problem, z)

    def predictor(problem, z, alpha_init, params):
        # the third search runs in full and then reports a stall
        out = search(problem, z, alpha_init, params)
        calls.append(z)
        return hsd.PredictorOutcome(z, 0.0, True, out.trials) if len(calls) == 3 else out

    if case == "predictor_stall":
        monkeypatch.setattr(hsd, "predictor_step", predictor)
    else:
        monkeypatch.setattr(hsd, "corrector_phase", corrector)
    return sp.solve(sp.build_envelope(1, 5, 2, seed=1).problem)


@pytest.mark.parametrize("case, status", [
    ("optimal", hsd.OPTIMAL),
    ("primal_infeasible", hsd.PRIMAL_INFEASIBLE),
    ("dual_infeasible", hsd.DUAL_INFEASIBLE),
    ("predictor_stall", hsd.NUMERICAL_FAILURE),
    ("corrector_misses", hsd.NUMERICAL_FAILURE),
    ("iteration_limit", hsd.ITERATION_LIMIT),
    ("singular_newton_matrix", hsd.NUMERICAL_FAILURE),
    ("corrector_error", hsd.NUMERICAL_FAILURE),
])
def test_every_exit_records_each_iteration(request, monkeypatch, case, status):
    # one record per reported iteration, whichever way the solve ends; the
    # last one describes the iterate the result reports, and the trials of
    # every search, a failing one included, add up to the total
    r = _solve_to_exit(case, request, monkeypatch)
    assert r.status == status
    assert len(r.trace) == r.iterations >= 1
    assert [rec.iteration for rec in r.trace] == list(range(r.iterations))
    assert r.trials == sum(rec.trials for rec in r.trace)
    # only the singular system fails before its search tries a step
    searched = r.trace[:-1] if case == "singular_newton_matrix" else r.trace
    assert all(rec.trials >= 1 for rec in searched)
    last = r.trace[-1]
    assert (last.mu, last.nbhd_norm) == (r.final.mu, r.final.nbhd_norm)
    if case == "predictor_stall":
        assert r.message.startswith("predictor stalled") and r.iterations == 3
    if case == "corrector_error":
        assert r.message == "forced corrector failure"
        assert r.iterations == 3 and last.stalled and last.trials >= 1
        assert last.corrector_steps == 0 and last.alpha_p > 0


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
    # reached before the corrector misses N(eta) MAX_STALLS times in a row,
    # and the status says so
    r = sp.solve(perturbed_rows_problem(1e-2))
    assert r.status == hsd.NUMERICAL_FAILURE
    assert r.message == ("corrector failed to reach N(eta) in 4 steps "
                         "(norm 5.645e-16 vs 3.251e-17)")
    assert r.iterations == 17


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


def test_vanishing_tau_and_mu_are_ill_posed(monkeypatch):
    # a predictor iterate with tau and mu below 1e-12 that meets no other
    # status ends the solve IllPosed
    problem = trivial_problem()
    tiny = hsd.Iterate(np.array([1e-14]), 1e-13, np.zeros(1), np.array([1e-14]), 1e-14,
                       None, 1e-14, np.zeros(1), 0.0, 0.0, 0.0)
    monkeypatch.setattr(hsd, "predictor_step", lambda problem, z, alpha_init, params:
                        hsd.PredictorOutcome(tiny, 0.5, False, 1))
    r = sp.solve(problem)
    assert r.status == hsd.ILL_POSED and r.final is tiny and r.iterations == 1


def test_classify_optimal_matches_result(envelope_small):
    p = envelope_small.built.problem
    assert classify(p, envelope_small.result.final, SolverParams()) == hsd.OPTIMAL


def test_embedding_residual_norm_consistency(envelope_small):
    p = envelope_small.built.problem
    z = envelope_small.result.final
    r_p, r_d, r_g = embedding_residual(p, z)
    manual = np.sqrt(r_p @ r_p + r_d @ r_d + r_g**2)
    assert abs(embedding_residual_norm(p, z) - manual) <= 1e-15 * (1 + manual)
