"""Homogeneous self-dual predictor-corrector interior-point method.

Works over any cone exposing the barrier-oracle interface of :mod:`wsos`
(value, gradient, Hessian with factorization). The method embeds the primal
and dual problems

    min c'x  s.t. Ax = b, x in K        max b'y  s.t. A'y + s = c, s in K*

into the homogeneous self-dual system in z = (x, tau, y, s, kappa) and
alternates line-searched predictor steps with centering corrector steps,
keeping every iterate inside a neighborhood of the central path measured in
the barrier's local norm. Optimal solutions are read off as x/tau, (y, s)/tau
when tau stays positive; infeasibility certificates appear when kappa wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .wsos import NotInteriorError, as_product


class SolverError(RuntimeError):
    """Unrecoverable numerical failure inside the solver."""


# neighborhood radii of the corrector (ETA) and predictor (BETA) phases, the
# corrector step length and the most corrector steps per phase: the fixed
# safe set of the Skajaa-Ye method
ETA = 0.0305
BETA = 0.2387
ALPHA_C = 1.0
R_C = 4
# predictor line search: start, expansion factor, cap and floor of the step,
# bisection passes after bracketing
ALPHA_START = 0.01
EXPANSION = 2.0
ALPHA_CAP = 0.9999
ALPHA_MIN = 1e-8
REFINE_BISECTIONS = 3
# consecutive corrector phases ending outside N(ETA) before NumericalFailure
MAX_STALLS = 3


@dataclass
class SolverParams:
    """Stopping rule: gap and infeasibility tolerances and the iteration limit."""

    tol_gap: float = 1e-8
    tol_infeas: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if not (0.0 < self.tol_gap < 1.0 and 0.0 < self.tol_infeas < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")


def _rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > 1e-12 * max(1.0, sv[0])))


class ConicProblem:
    """Standard-form conic problem (A, b, c) over a product of barrier cones.

    A must have full row rank. ``allow_rank_deficient=True`` admits
    contradictory rows only, for deliberate infeasibility experiments: the
    rows of A may be dependent as long as the rows of [A b] are not.
    Any dependency among the rows of [A b] (redundant rows consistent with
    b, or more than one contradiction among the same rows) is rejected
    either way, because the Newton system is singular for it.
    """

    def __init__(self, A, b, c, cone, allow_rank_deficient=False):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
        self.cone = as_product(cone)
        k, N = self.A.shape
        if self.b.shape != (k,) or self.c.shape != (N,):
            raise ValueError("inconsistent dimensions among A, b, c")
        if self.cone.dim != N:
            raise ValueError("cone dimension does not match the variable count")
        if _rank(self.A) < k:
            if not allow_rank_deficient:
                raise ValueError(
                    "A is not full row rank; pass allow_rank_deficient=True "
                    "only for deliberate infeasibility experiments"
                )
            # a left null vector w of A with w^T b = 0 makes (0, w, 0) a null
            # vector of the reduced Newton system; none exists iff the rows
            # of [A b] are independent
            if _rank(np.column_stack([self.A, self.b])) < k:
                raise ValueError(
                    "the rows of [A b] are linearly dependent, which makes the "
                    "Newton system singular; drop the dependent rows "
                    "(allow_rank_deficient admits contradictory rows only)"
                )

    @property
    def shape(self):
        return self.A.shape


@dataclass
class Iterate:
    """Point z = (x, tau, y, s, kappa) of the embedding with cached metrics."""

    x: np.ndarray
    tau: float
    y: np.ndarray
    s: np.ndarray
    kappa: float
    barrier: object
    mu: float
    psi_x: np.ndarray
    psi_tau: float
    nbhd_norm: float

    def in_neighborhood(self, theta: float) -> bool:
        return self.nbhd_norm <= theta * self.mu


@dataclass
class Direction:
    dx: np.ndarray
    dtau: float
    dy: np.ndarray
    ds: np.ndarray
    dkappa: float
    residual: float  # full-system residual, relative

    def norm(self) -> float:
        return math.sqrt(
            float(self.dx @ self.dx) + self.dtau**2
            + float(self.dy @ self.dy) + float(self.ds @ self.ds) + self.dkappa**2
        )


@dataclass
class TraceRecord:
    iteration: int
    mu: float
    alpha_p: float
    nbhd_norm: float
    corrector_steps: int
    residual_before: float
    residual_after: float
    stalled: bool = False   # predictor found no step, or corrector ended outside N(ETA)
    corrected: bool = True  # False when the run ended right after this predictor


@dataclass
class SolveResult:
    status: str
    primal_objective: float = math.nan
    dual_objective: float = math.nan
    rel_primal_infeas: float = math.nan
    rel_dual_infeas: float = math.nan
    rel_gap: float = math.nan
    iterations: int = 0
    x: np.ndarray = None        # x / tau when tau > 0, else raw ray
    y: np.ndarray = None
    s: np.ndarray = None
    final: Iterate = None
    trace: list = field(default_factory=list)
    message: str = ""


OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"
ILL_POSED = "IllPosed"
ITERATION_LIMIT = "IterationLimit"
NUMERICAL_FAILURE = "NumericalFailure"


def make_iterate(problem, x, tau, y, s, kappa, barrier=None) -> Iterate:
    """Assemble an Iterate, evaluating the barrier and central-path metrics."""
    if tau <= 0 or kappa <= 0:
        raise NotInteriorError("tau and kappa must stay positive")
    if barrier is None:
        barrier = problem.cone.barrier(x)
    nu_bar = problem.cone.nu + 1
    mu = (float(x @ s) + tau * kappa) / nu_bar
    if mu <= 0:
        raise NotInteriorError("complementarity gap must stay positive")
    psi_x = s + mu * barrier.gradient
    psi_tau = kappa - mu / tau
    norm = math.sqrt(barrier.inv_quadform(psi_x) + (tau * psi_tau) ** 2)
    return Iterate(x, tau, y, s, kappa, barrier, mu, psi_x, psi_tau, norm)


def try_make_iterate(problem, x, tau, y, s, kappa):
    try:
        return make_iterate(problem, x, tau, y, s, kappa)
    except NotInteriorError:
        return None


def initial_point(problem: ConicProblem) -> Iterate:
    """Scaled all-ones start: exactly centered, with mu(z0) = 1."""
    N = problem.A.shape[1]
    e = np.ones(N)
    g1 = problem.cone.barrier(e).gradient
    Ae = problem.A @ e
    delta_p = np.max((1.0 + np.abs(problem.b)) / (1.0 + np.abs(Ae)))
    delta_d = np.max((1.0 + np.abs(g1)) / (1.0 + np.abs(problem.c)))
    delta = math.sqrt(delta_p * delta_d)
    x0 = delta * e
    s0 = -g1 / delta
    return make_iterate(problem, x0, 1.0, np.zeros(problem.A.shape[0]), s0, 1.0)


def embedding_residual(problem, z: Iterate):
    """Residual blocks of the self-dual embedding at z."""
    r_p = problem.A @ z.x - problem.b * z.tau
    r_d = -problem.A.T @ z.y + problem.c * z.tau - z.s
    r_g = float(problem.b @ z.y - problem.c @ z.x) - z.kappa
    return r_p, r_d, r_g


def embedding_residual_norm(problem, z: Iterate) -> float:
    r_p, r_d, r_g = embedding_residual(problem, z)
    return math.sqrt(float(r_p @ r_p) + float(r_d @ r_d) + r_g * r_g)


class _ReducedKKT:
    """Factorization of the (N+k+1)-dimensional reduced Newton system at z.

    Eliminating (ds, dkappa) from the full embedding system leaves

        [ mu*H   -A^T    c      ] [dx  ]   [f1]
        [ A       0     -b      ] [dy  ] = [f2]
        [ -c^T    b^T  mu/tau^2 ] [dtau]   [f3],

    factored afresh by one dense LU with partial pivoting after max-norm
    equilibration, for every A. The tau row and column border the system,
    so it stays nonsingular when A has contradictory rows (rows of A
    dependent, rows of [A b] not), the one rank-deficient input
    ConicProblem admits. dx is
    not eliminated through (mu H)^{-1}: H is badly conditioned near
    convergence, and directions computed that way lose the 1e-9 accuracy
    that the residual-shrink identity r(z + alpha d) = (1 - alpha) r(z)
    relies on. A singular factor shows up as non-finite solution values
    and raises SolverError.
    """

    def __init__(self, problem, z: Iterate):
        self.problem = problem
        self.z = z
        self.mu = z.mu
        self.tau_diag = self.mu / z.tau**2
        A, b, c = problem.A, problem.b, problem.c
        k, N = A.shape
        self._n, self._k = N, k
        M = np.zeros((N + k + 1, N + k + 1))
        for ev, sl in zip(z.barrier.factor_evals, problem.cone.slices()):
            M[sl, sl] = self.mu * ev.hessian
        M[:N, N:N + k] = -A.T
        M[:N, -1] = c
        M[N:N + k, :N] = A
        M[N:N + k, -1] = -b
        M[-1, :N] = -c
        M[-1, N:N + k] = b
        M[-1, -1] = self.tau_diag
        # max-norm equilibration: mu*H rows dwarf the A rows near convergence,
        # which otherwise costs several digits in the LU solve
        self._rs = 1.0 / np.maximum(np.abs(M).max(axis=1), 1e-300)
        M *= self._rs[:, None]
        self._cs = 1.0 / np.maximum(np.abs(M).max(axis=0), 1e-300)
        M *= self._cs[None, :]
        self._lu = scipy.linalg.lu_factor(M, check_finite=False)

    def solve_reduced(self, f1, f2, f3):
        rhs = self._rs * np.concatenate([f1, f2, [f3]])
        sol = self._cs * scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)
        if not np.all(np.isfinite(sol)):
            raise SolverError("reduced Newton solve produced non-finite values")
        return sol[:self._n], sol[self._n:self._n + self._k], float(sol[-1])

    def solve(self, r1, r2, r3, r4, r5):
        """Full direction, residual-corrected until the residual stops improving."""
        rhs_scale = 1.0 + math.sqrt(
            float(r1 @ r1) + float(r2 @ r2) + r3 * r3 + float(r4 @ r4) + r5 * r5
        )
        dx, dy, dtau = self.solve_reduced(r2 + r4, r1, r3 + r5)
        ds = r4 - self.mu * self.z.barrier.hess_apply(dx)
        dkappa = r5 - self.tau_diag * dtau
        best = None
        for _ in range(5):
            e1, e2, e3, e5 = self._equation_residuals(dx, dy, dtau, ds, dkappa,
                                                      r1, r2, r3, r5)
            res = math.sqrt(float(e1 @ e1) + float(e2 @ e2) + e3 * e3 + e5 * e5)
            if best is None or res < best[0]:
                best = (res, (dx.copy(), dy.copy(), dtau, ds.copy(), dkappa))
            else:
                break
            if res <= 1e-15 * rhs_scale:
                break
            cx, cy, ctau = self.solve_reduced(-e2, -e1, -(e3 + e5))
            dx, dy, dtau = dx + cx, dy + cy, dtau + ctau
            ds = r4 - self.mu * self.z.barrier.hess_apply(dx)
            dkappa = r5 - self.tau_diag * dtau
        res, (dx, dy, dtau, ds, dkappa) = best
        return Direction(dx, dtau, dy, ds, dkappa, res / rhs_scale)

    def _equation_residuals(self, dx, dy, dtau, ds, dkappa, r1, r2, r3, r5):
        A, b, c = self.problem.A, self.problem.b, self.problem.c
        e1 = A @ dx - b * dtau - r1
        e2 = -A.T @ dy + c * dtau - ds - r2
        e3 = float(b @ dy) - float(c @ dx) - dkappa - r3
        e5 = dkappa + self.tau_diag * dtau - r5
        return e1, e2, e3, e5


def newton_direction(problem, z: Iterate, rhs_mode: str) -> Direction:
    """Predictor or corrector direction at z (one shared factorization)."""
    if rhs_mode == "predictor":
        r_p, r_d, r_g = embedding_residual(problem, z)
        rhs = (-r_p, -r_d, -r_g, -z.s, -z.kappa)
    elif rhs_mode == "corrector":
        k, N = problem.A.shape
        rhs = (np.zeros(k), np.zeros(N), 0.0, -z.psi_x, -(z.kappa - z.mu / z.tau))
    else:
        raise ValueError(f"unknown rhs_mode {rhs_mode!r}")
    return _ReducedKKT(problem, z).solve(*rhs)


def _step(problem, z: Iterate, d: Direction, alpha: float):
    return try_make_iterate(
        problem,
        z.x + alpha * d.dx,
        z.tau + alpha * d.dtau,
        z.y + alpha * d.dy,
        z.s + alpha * d.ds,
        z.kappa + alpha * d.dkappa,
    )


@dataclass
class PredictorOutcome:
    iterate: Iterate
    alpha: float
    stalled: bool


def predictor_step(problem, z: Iterate, direction=None,
                   alpha_init=None) -> PredictorOutcome:
    """Expanding line search for the largest step staying inside N(BETA).

    Starts at ``alpha_init`` (ALPHA_START by default; the solve loop passes
    the previously accepted step to save barrier evaluations), multiplies by
    EXPANSION while the trial stays interior and inside the
    beta-neighborhood (cap ALPHA_CAP), halves when even the start fails,
    then sharpens the bracket with REFINE_BISECTIONS bisections. Once a
    halving is accepted, the step rejected just before it closes the
    bracket, so no step is tried twice. A degenerate direction or no
    acceptable step above ALPHA_MIN is reported as a stall; z is returned
    unchanged.
    """
    if direction is None:
        direction = newton_direction(problem, z, "predictor")
    if direction.norm() == 0.0:
        return PredictorOutcome(z, 0.0, True)

    def accept(a):
        trial = _step(problem, z, direction, a)
        if trial is not None and trial.in_neighborhood(BETA):
            return trial
        return None

    alpha = min(alpha_init or ALPHA_START, ALPHA_CAP)
    hi = None
    trial = accept(alpha)
    while trial is None:
        hi = alpha
        alpha /= EXPANSION
        if alpha < ALPHA_MIN:
            return PredictorOutcome(z, 0.0, True)
        trial = accept(alpha)

    lo, best = alpha, trial
    while hi is None and lo < ALPHA_CAP:
        nxt = min(lo * EXPANSION, ALPHA_CAP)
        cand = accept(nxt)
        if cand is None:
            hi = nxt
        else:
            lo, best = nxt, cand
    if hi is not None:
        for _ in range(REFINE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            cand = accept(mid)
            if cand is None:
                hi = mid
            else:
                lo, best = mid, cand
    return PredictorOutcome(best, lo, False)


def corrector_phase(problem, z: Iterate):
    """Re-center with up to R_C corrector steps; early exit once inside N(ETA).

    Returns the last iterate and the number of steps taken; the iterate is
    outside N(ETA) when R_C steps did not suffice.
    """
    steps = 0
    while steps < R_C and not z.in_neighborhood(ETA):
        d = newton_direction(problem, z, "corrector")
        alpha = ALPHA_C
        trial = _step(problem, z, d, alpha)
        while trial is None:
            alpha *= 0.5
            if alpha < ALPHA_MIN:
                raise SolverError("corrector step lost the cone interior")
            trial = _step(problem, z, d, alpha)
        z = trial
        steps += 1
    return z, steps


def classify(problem, z: Iterate, params: SolverParams):
    """Status decision for the current iterate, or None to keep iterating."""
    A, b, c = problem.A, problem.b, problem.c
    x, tau, y, s, kappa = z.x, z.tau, z.y, z.s, z.kappa
    norm_b = np.linalg.norm(b)
    norm_c = np.linalg.norm(c)
    by = float(b @ y)
    cx = float(c @ x)

    rel_p = np.linalg.norm(A @ x - b * tau) / (tau * (1.0 + norm_b))
    rel_d = np.linalg.norm(A.T @ y + s - c * tau) / (tau * (1.0 + norm_c))
    rel_gap = (cx - by) / (tau + abs(by))
    if rel_p <= params.tol_infeas and rel_d <= params.tol_infeas and rel_gap <= params.tol_gap:
        return OPTIMAL, (rel_p, rel_d, rel_gap)
    if by > 0 and np.linalg.norm(A.T @ y + s) <= params.tol_infeas * by:
        return PRIMAL_INFEASIBLE, (rel_p, rel_d, rel_gap)
    if -cx > 0 and np.linalg.norm(A @ x) <= params.tol_infeas * (-cx):
        return DUAL_INFEASIBLE, (rel_p, rel_d, rel_gap)
    if z.mu < 1e-12 and tau < 1e-12:
        return ILL_POSED, (rel_p, rel_d, rel_gap)
    return None


def _result_from(problem, z: Iterate, status, metrics, iterations, trace, message=""):
    rel_p, rel_d, rel_gap = metrics if metrics is not None else (math.nan,) * 3
    scale = z.tau if (status == OPTIMAL and z.tau > 0) else 1.0
    return SolveResult(
        status=status,
        primal_objective=float(problem.c @ z.x) / z.tau if z.tau > 0 else math.nan,
        dual_objective=float(problem.b @ z.y) / z.tau if z.tau > 0 else math.nan,
        rel_primal_infeas=rel_p,
        rel_dual_infeas=rel_d,
        rel_gap=rel_gap,
        iterations=iterations,
        x=z.x / scale,
        y=z.y / scale,
        s=z.s / scale,
        final=z,
        trace=trace,
        message=message,
    )


def solve(problem: ConicProblem, params: SolverParams | None = None) -> SolveResult:
    """Run the predictor-corrector loop from the centered initial point."""
    params = params or SolverParams()
    trace = []
    try:
        z = initial_point(problem)
    except NotInteriorError as exc:
        return SolveResult(status=NUMERICAL_FAILURE, message=str(exc))

    misses = 0
    last_alpha = None
    for it_count in range(params.max_iters):
        decided = classify(problem, z, params)
        if decided is not None:
            return _result_from(problem, z, decided[0], decided[1], it_count, trace)
        try:
            res_before = embedding_residual_norm(problem, z)
            outcome = predictor_step(problem, z, alpha_init=last_alpha)
            if outcome.stalled:
                trace.append(TraceRecord(it_count, z.mu, 0.0, z.nbhd_norm, 0,
                                         res_before, res_before, stalled=True))
                return _result_from(
                    problem, z, NUMERICAL_FAILURE, None, it_count + 1, trace,
                    message=f"predictor stalled: no acceptable step above {ALPHA_MIN:g}",
                )
            last_alpha = outcome.alpha
            z = outcome.iterate
            res_after = embedding_residual_norm(problem, z)
            decided = classify(problem, z, params)
            if decided is not None:
                trace.append(TraceRecord(it_count, z.mu, outcome.alpha, z.nbhd_norm,
                                         0, res_before, res_after, corrected=False))
                return _result_from(problem, z, decided[0], decided[1],
                                    it_count + 1, trace)
            # a miss continues from the last corrector iterate
            z, c_steps = corrector_phase(problem, z)
            missed = not z.in_neighborhood(ETA)
            misses = misses + 1 if missed else 0
            trace.append(TraceRecord(it_count, z.mu, outcome.alpha, z.nbhd_norm,
                                     c_steps, res_before, res_after, stalled=missed))
            if misses >= MAX_STALLS:
                return _result_from(
                    problem, z, NUMERICAL_FAILURE, None, it_count + 1, trace,
                    message=f"corrector failed to reach N(eta) in {R_C} steps "
                            f"(norm {z.nbhd_norm:.3e} vs {ETA * z.mu:.3e})",
                )
        except SolverError as exc:
            return _result_from(problem, z, NUMERICAL_FAILURE, None, it_count + 1,
                                trace, message=str(exc))

    decided = classify(problem, z, params)
    if decided is not None:
        return _result_from(problem, z, decided[0], decided[1], params.max_iters, trace)
    return _result_from(problem, z, ITERATION_LIMIT, None, params.max_iters, trace,
                        message="iteration limit reached")
