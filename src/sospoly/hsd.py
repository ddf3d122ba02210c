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

The predictor searches along an arc rather than a ray. Its direction d
carries a third-order adjustment d_adj, solved with the same factorization
(Dahl and Andersen, Math. Program. 2022; Coey, Kapelevich and Vielma, Math.
Prog. Comp. 2023): d_adj has zero linear rows and complementarity rows
mu (H dx - nabla^3 F(x)[dx, dx] / 2) and mu (dtau / tau^2 + dtau^2 / tau^3),
the second-order term of the central path through z. Each trial sits at
z + alpha d + alpha^2 d_adj, so the linear residual still shrinks to
(1 - alpha) r(z), and the arc bends along the path where the ray leaves the
neighborhood. The search ends at the first accepted trial that meets the
stopping rule (``classify``), so the last step stops near the tolerance
instead of overshooting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .wsos import NotInteriorError, ProductBarrierEval, as_product


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
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


def _rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > 1e-12 * max(1.0, sv[0])))


def _is_identity_stack(A, cone) -> bool:
    """Whether A = [I ... I] has m >= 2 identity blocks aligned with the cone factors."""
    k = A.shape[0]
    if len(cone.factors) < 2 or any(f.U != k for f in cone.factors):
        return False
    eye = np.eye(k)
    return all(np.array_equal(A[:, sl], eye) for sl in cone.slices())


class ConicProblem:
    """Standard-form conic problem (A, b, c) over a product of barrier cones.

    The rows of [A b] must be linearly independent, the one condition under
    which the reduced Newton system is nonsingular: a left null vector w of
    [A b] makes (0, w, 0) a null vector of it. Dependent rows of A are
    admitted when the rows of [A b] are not dependent (contradictory rows,
    w^T A = 0 with w^T b != 0): Ax = b then has no solution, and the
    homogeneous embedding reports PrimalInfeasible. Any dependency among
    the rows of [A b] (redundant rows consistent with b, or more than one
    contradiction among the same rows) is rejected.

    ``identity_blocks`` records once whether A = [I ... I] is m >= 2
    identity blocks, one per cone factor (the envelope form); such rows are
    independent by structure, so the rank check is skipped, the Newton
    systems of such a problem are solved in the null space of A, and
    ``matvec`` and ``rmatvec`` apply A and A^T by that structure.
    """

    def __init__(self, A, b, c, cone):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
        self.cone = as_product(cone)
        k, N = self.A.shape
        if self.b.shape != (k,) or self.c.shape != (N,):
            raise ValueError("inconsistent dimensions among A, b, c")
        if self.cone.dim != N:
            raise ValueError("cone dimension does not match the variable count")
        self.identity_blocks = _is_identity_stack(self.A, self.cone)
        if not self.identity_blocks and _rank(np.column_stack([self.A, self.b])) < k:
            raise ValueError(
                "the rows of [A b] are linearly dependent, which makes the "
                "Newton system singular; drop the dependent rows"
            )

    @property
    def shape(self):
        return self.A.shape

    def matvec(self, x):
        """A x; for A = [I ... I] the sum of x's m blocks, with no dense product."""
        if self.identity_blocks:
            return x.reshape(-1, self.A.shape[0]).sum(axis=0)
        return self.A @ x

    def rmatvec(self, y):
        """A^T y; for A = [I ... I] y repeated m times, with no dense product."""
        if self.identity_blocks:
            return np.tile(y, len(self.cone.factors))
        return self.A.T @ y


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
    # a predictor direction's third-order adjustment: its trials sit at
    # z + alpha d + alpha^2 adjustment (None for a corrector direction)
    adjustment: Direction | None = None

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
    trials: int = 0         # predictor trials evaluated in this iteration


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
    jittered_iterates: int = 0  # accepted iterates whose Hessian Cholesky needed jitter
    trials: int = 0             # predictor trials over all iterations


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
    mu = _mu(problem, x, tau, s, kappa)
    if mu <= 0:
        raise NotInteriorError("complementarity gap must stay positive")
    psi_x, quad = barrier.centrality(s, mu)
    psi_tau = kappa - mu / tau
    norm = math.sqrt(quad + (tau * psi_tau) ** 2)
    return Iterate(x, tau, y, s, kappa, barrier, mu, psi_x, psi_tau, norm)


def _mu(problem, x, tau, s, kappa) -> float:
    return (float(x @ s) + tau * kappa) / (problem.cone.nu + 1)


def try_make_iterate(problem, x, tau, y, s, kappa, screen=None):
    """The iterate at (x, tau, y, s, kappa), or None outside the interior.

    With ``screen``, the iterate a predictor trial steps from, it is also
    None when a lower bound on the neighborhood norm already puts the point
    outside N(BETA); such a point never forms or factors its barrier
    Hessian. Any other point comes out exactly as make_iterate makes it.
    """
    try:
        barrier = None
        if screen is not None and tau > 0 and kappa > 0:
            barrier = _screened_barrier(problem, screen, x, tau, s, kappa)
            if barrier is None:
                return None
        return make_iterate(problem, x, tau, y, s, kappa, barrier)
    except NotInteriorError:
        return None


def _screened_barrier(problem, z: Iterate, x, tau, s, kappa):
    """The barrier at x, or None once the neighborhood norm provably exceeds BETA*mu.

    The tau term alone decides exactly, since the full norm only adds a
    nonnegative term under the root; it is checked before any barrier. Then
    each cone factor's barrier is evaluated in turn and its term
    lower-bounded with z's cached Hessian factors as reference
    (``BarrierEval.inv_quadform_lower_bound``), so the first factor whose
    running bound passes (BETA*mu)^2 (with a relative margin of 1e-6 for
    the rounding in which the bounds differ from the exact norm) spares the
    barriers of the rest. Raises NotInteriorError where a factor's barrier
    does.
    """
    x = np.asarray(x, dtype=float)
    mu = _mu(problem, x, tau, s, kappa)
    tau_term = (tau * (kappa - mu / tau)) ** 2
    if math.sqrt(tau_term) > BETA * mu:
        return None
    cap = (1.0 + 1e-6) * (BETA * mu) ** 2
    bound = tau_term
    cone = problem.cone
    evals = []
    for factor, ref, sl in zip(cone.factors, z.barrier.factor_evals, cone.slices()):
        ev = factor.barrier(x[sl])
        bound += ev.inv_quadform_lower_bound(s[sl], mu, ref)
        if bound > cap:
            return None
        evals.append(ev)
    return ProductBarrierEval(cone, x, evals)


def initial_point(problem: ConicProblem) -> Iterate:
    """Scaled all-ones start: exactly centered, with mu(z0) = 1."""
    N = problem.A.shape[1]
    e = np.ones(N)
    g1 = problem.cone.barrier(e).gradient
    Ae = problem.matvec(e)
    delta_p = np.max((1.0 + np.abs(problem.b)) / (1.0 + np.abs(Ae)))
    delta_d = np.max((1.0 + np.abs(g1)) / (1.0 + np.abs(problem.c)))
    delta = math.sqrt(delta_p * delta_d)
    x0 = delta * e
    s0 = -g1 / delta
    return make_iterate(problem, x0, 1.0, np.zeros(problem.A.shape[0]), s0, 1.0)


def embedding_residual(problem, z: Iterate):
    """Residual blocks of the self-dual embedding at z."""
    r_p = problem.matvec(z.x) - problem.b * z.tau
    r_d = -problem.rmatvec(z.y) + problem.c * z.tau - z.s
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
        [ -c^T    b^T  mu/tau^2 ] [dtau]   [f3].

    The system is indefinite, so this class factors it afresh by one dense
    LU with partial pivoting after max-norm equilibration, the solver's one
    LU. It serves every A that is not m >= 2 identity blocks
    (``ConicProblem.identity_blocks``; those go to :class:`_NullSpaceKKT`,
    whose matrix is positive definite and Cholesky-factored): polymin's
    1^T, contradictory rows, general problem files. The tau row and column
    border the system, so it stays nonsingular when A has contradictory
    rows (rows of A dependent, rows of [A b] not), the one rank-deficient
    input ConicProblem admits. dx is not eliminated through (mu H)^{-1}: H
    is badly conditioned near convergence, and directions computed that
    way lose the 1e-9 accuracy that the residual-shrink identity
    r(z + alpha d) = (1 - alpha) r(z) relies on. A singular LU factor
    shows up as non-finite solution values and raises SolverError.
    ``solve`` refines either factorization's directions against the full
    system.
    """

    def __init__(self, problem, z: Iterate):
        self.problem = problem
        self.z = z
        self.mu = z.mu
        self.tau_diag = self.mu / z.tau**2
        self._factor()

    def _factor(self):
        A, b, c = self.problem.A, self.problem.b, self.problem.c
        k, N = A.shape
        self._n, self._k = N, k
        M = np.zeros((N + k + 1, N + k + 1), order="F")  # factored in place
        for ev, sl in zip(self.z.barrier.factor_evals, self.problem.cone.slices()):
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
        self._lu = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)

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
        best = None
        for evaluation in range(5):
            if evaluation:  # correct only a direction whose residual is evaluated next
                cx, cy, ctau = self.solve_reduced(-e2, -e1, -(e3 + e5))
                dx, dy, dtau = dx + cx, dy + cy, dtau + ctau
            ds = r4 - self.mu * self.z.barrier.hess_apply(dx)
            dkappa = r5 - self.tau_diag * dtau
            e1, e2, e3, e5 = self._equation_residuals(dx, dy, dtau, ds, dkappa,
                                                      r1, r2, r3, r5)
            res = math.sqrt(float(e1 @ e1) + float(e2 @ e2) + e3 * e3 + e5 * e5)
            if best is None or res < best[0]:
                best = (res, (dx.copy(), dy.copy(), dtau, ds.copy(), dkappa))
            else:
                break
            if res <= 1e-15 * rhs_scale:
                break
        res, (dx, dy, dtau, ds, dkappa) = best
        return Direction(dx, dtau, dy, ds, dkappa, res / rhs_scale)

    def _equation_residuals(self, dx, dy, dtau, ds, dkappa, r1, r2, r3, r5):
        problem, b, c = self.problem, self.problem.b, self.problem.c
        e1 = problem.matvec(dx) - b * dtau - r1
        e2 = -problem.rmatvec(dy) + c * dtau - ds - r2
        e3 = float(b @ dy) - float(c @ dx) - dkappa - r3
        e5 = dkappa + self.tau_diag * dtau - r5
        return e1, e2, e3, e5


class _NullSpaceKKT(_ReducedKKT):
    """The reduced Newton system for A = [I ... I], solved in the null space of A.

    With m >= 2 identity blocks aligned with the cone factors, the A rows
    give dx_1 = f2 + b dtau - sum_{j>=2} dx_j and the first block row gives
    dy = mu H_1 dx_1 + c_1 dtau - f1_1. The other block rows then leave the
    symmetric (m-1)U system

        R [dx_2; ...; dx_m] = g + h dtau,
        R = blockdiag(mu H_2, ..., mu H_m) + (1 1^T) kron mu H_1,
        g_j = f1_j - f1_1 + mu H_1 f2,   h_j = mu H_1 b + c_1 - c_j,

    the reduced Hessian Z^T (mu H) Z on a null-space basis Z of A (just
    mu (H_1 + H_2) for m = 2), so R is symmetric positive definite. R is
    equilibrated by its diagonal and Cholesky-factored (half the flops of
    an LU); a failed pivot raises SolverError. R^{-1} h is solved once per
    factorization, so every (dx, dy) is affine in dtau, and the tau row
    fixes dtau as a scalar. No Hessian is inverted: (mu H)^{-1} is badly
    conditioned near convergence, while R is a sum of Hessians. The order
    falls from N + k + 1 = (m+1)U + 1 to (m-1)U.
    """

    def _factor(self):
        c, b = self.problem.c, self.problem.b
        hessians = [ev.hessian for ev in self.z.barrier.factor_evals]
        m, U = len(hessians), b.size
        n = (m - 1) * U
        self._m, self._U = m, U
        self._H1 = hessians[0]
        R = np.empty((n, n), order="F")  # factored in place
        # each H is exactly symmetric, so its transpose is the same values
        # in the column order of R: a contiguous copy
        for i in range(m - 1):
            rows = slice(i * U, (i + 1) * U)
            for j in range(m - 1):
                R[rows, j * U:(j + 1) * U] = self._H1.T
            R[rows, rows] += hessians[i + 1].T
        R *= self.mu
        # symmetric diagonal equilibration: R is PSD, so |R_ij| <= 1 after it
        self._d = 1.0 / np.sqrt(np.maximum(np.diag(R), 1e-300))
        R *= self._d[:, None]
        R *= self._d[None, :]
        self._chol, info = scipy.linalg.lapack.dpotrf(R, lower=1, overwrite_a=1)
        if info != 0:
            raise SolverError(
                f"Cholesky of the null-space Newton matrix failed at pivot {info}: "
                "R is not positive definite"
            )
        self._c = c.reshape(m, U)
        self._w = self.mu * (self._H1 @ b)
        self._q = self._solve_r((self._w + self._c[0]) - self._c[1:])
        self._u1 = b - self._q.sum(axis=0)
        # the tau row's coefficient of dtau, -c^T x_tau + b^T y_tau + mu/tau^2
        # for dx's and dy's coefficients x_tau = (u1, q), y_tau; since
        # mu H x_tau - A^T y_tau = -c and A x_tau = b, it equals
        # mu/tau^2 + mu x_tau^T H x_tau, a sum of positive terms, which
        # stays accurate where the first form cancels (the ray (x, y, tau)
        # singular to working precision near convergence)
        self._beta = self.tau_diag + self.mu * sum(
            float(v @ (H @ v)) for v, H in zip((self._u1, *self._q), hessians))

    def _solve_r(self, rhs):
        """R^{-1} rhs for rhs of shape (m-1, U)."""
        sol, _ = scipy.linalg.lapack.dpotrs(self._chol, self._d * rhs.ravel(), lower=1)
        return (self._d * sol).reshape(self._m - 1, self._U)

    def solve_reduced(self, f1, f2, f3):
        f1 = f1.reshape(self._m, self._U)
        p = self._solve_r((f1[1:] - f1[0]) + self.mu * (self._H1 @ f2))
        u0 = f2 - p.sum(axis=0)
        alpha = (float((self._w - self._c[0]) @ u0) - float(np.sum(self._c[1:] * p))
                 - float(self.problem.b @ f1[0]))
        dtau = (f3 - alpha) / self._beta
        dx1 = u0 + self._u1 * dtau
        dx = np.concatenate([dx1, (p + self._q * dtau).ravel()])
        dy = self.mu * (self._H1 @ dx1) + self._c[0] * dtau - f1[0]
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):  # dx carries dtau
            raise SolverError("reduced Newton solve produced non-finite values")
        return dx, dy, float(dtau)


def newton_direction(problem, z: Iterate, rhs_mode: str) -> Direction:
    """Predictor or corrector direction at z (one shared factorization).

    A predictor direction comes with its third-order adjustment
    (``Direction.adjustment``), a second solve with the same factorization.
    """
    if rhs_mode == "predictor":
        r_p, r_d, r_g = embedding_residual(problem, z)
        rhs = (-r_p, -r_d, -r_g, -z.s, -z.kappa)
    elif rhs_mode == "corrector":
        k, N = problem.A.shape
        rhs = (np.zeros(k), np.zeros(N), 0.0, -z.psi_x, -(z.kappa - z.mu / z.tau))
    else:
        raise ValueError(f"unknown rhs_mode {rhs_mode!r}")
    kkt = (_NullSpaceKKT if problem.identity_blocks else _ReducedKKT)(problem, z)
    d = kkt.solve(*rhs)
    if rhs_mode == "predictor":
        d.adjustment = kkt.solve(*_adjustment_rhs(problem, z, d))
    return d


def _adjustment_rhs(problem, z: Iterate, d: Direction):
    """Right-hand side of the third-order adjustment of predictor direction d.

    Along z(alpha) = z + alpha d + alpha^2 d_adj, the path condition
    s + (1 - alpha) mu g(x) = 0 holds to first order by d; its alpha^2 term
    gives ds_adj + mu H dx_adj = mu H dx - (mu/2) nabla^3 F(x)[dx, dx], and
    the tau barrier -ln tau, whose third derivative is -2/tau^3, gives
    dkappa_adj + (mu/tau^2) dtau_adj = mu dtau/tau^2 + mu dtau^2/tau^3.
    The linear rows are zero, so the embedding residual along the arc is
    (1 - alpha) r(z), as on the ray.
    """
    k, N = problem.A.shape
    mu, tau = z.mu, z.tau
    r4 = mu * (z.barrier.hess_apply(d.dx) - 0.5 * z.barrier.third_order(d.dx))
    r5 = mu * d.dtau / tau**2 + mu * d.dtau**2 / tau**3
    return np.zeros(k), np.zeros(N), 0.0, r4, r5


def _stepped(z: Iterate, d: Direction, alpha: float):
    """z + alpha d, and for a predictor direction + alpha^2 d.adjustment."""
    point = (z.x + alpha * d.dx, z.tau + alpha * d.dtau, z.y + alpha * d.dy,
             z.s + alpha * d.ds, z.kappa + alpha * d.dkappa)
    adj = d.adjustment
    if adj is None:
        return point
    a2 = alpha * alpha
    x, tau, y, s, kappa = point
    return (x + a2 * adj.dx, tau + a2 * adj.dtau, y + a2 * adj.dy,
            s + a2 * adj.ds, kappa + a2 * adj.dkappa)


def _step(problem, z: Iterate, d: Direction, alpha: float):
    """Predictor trial on d's arc, screened against N(BETA) before its Hessian."""
    return try_make_iterate(problem, *_stepped(z, d, alpha), screen=z)


@dataclass
class PredictorOutcome:
    iterate: Iterate
    alpha: float
    stalled: bool
    trials: int = 0  # trial points evaluated by the search


def predictor_step(problem, z: Iterate, alpha_init=None,
                   params: SolverParams | None = None) -> PredictorOutcome:
    """Expanding search for the largest step on the predictor arc inside N(BETA).

    Trials sit at z + alpha d + alpha^2 d_adj (``newton_direction``). The
    search starts at ``alpha_init`` (ALPHA_START by default; the solve loop
    passes the previously accepted step to save barrier evaluations),
    multiplies by EXPANSION while the trial stays interior and inside the
    beta-neighborhood (cap ALPHA_CAP), halves when even the start fails,
    then sharpens the bracket with REFINE_BISECTIONS bisections. Once a
    halving is accepted, the step rejected just before it closes the
    bracket, so no step is tried twice. Each trial is screened against
    N(BETA) before its barrier Hessian is formed (``try_make_iterate``),
    which saves work and changes no step. With ``params``, the search ends
    at the first accepted trial that ``classify`` gives a status: a longer
    step would only push mu past the tolerance, toward Hessians singular to
    working precision. A degenerate direction or no acceptable step above
    ALPHA_MIN is reported as a stall; z is returned unchanged.
    """
    direction = newton_direction(problem, z, "predictor")
    if direction.norm() == 0.0:
        return PredictorOutcome(z, 0.0, True)
    trials = 0

    def accept(a):
        nonlocal trials
        trials += 1
        trial = _step(problem, z, direction, a)
        if trial is not None and trial.in_neighborhood(BETA):
            return trial
        return None

    def stops(trial):
        return params is not None and classify(problem, trial, params) is not None

    alpha = min(alpha_init or ALPHA_START, ALPHA_CAP)
    hi = None
    trial = accept(alpha)
    while trial is None:
        hi = alpha
        alpha /= EXPANSION
        if alpha < ALPHA_MIN:
            return PredictorOutcome(z, 0.0, True, trials)
        trial = accept(alpha)

    # expand until a rejection brackets the step (or the cap is accepted),
    # then bisect the bracket
    lo, best = alpha, trial
    bisections = 0
    while not stops(best):
        if hi is None and lo < ALPHA_CAP:
            nxt = min(lo * EXPANSION, ALPHA_CAP)
        elif hi is not None and bisections < REFINE_BISECTIONS:
            nxt = 0.5 * (lo + hi)
            bisections += 1
        else:
            break
        cand = accept(nxt)
        if cand is None:
            hi = nxt
        else:
            lo, best = nxt, cand
    return PredictorOutcome(best, lo, False, trials)


def corrector_phase(problem, z: Iterate):
    """Re-center with up to R_C corrector steps; early exit once inside N(ETA).

    Returns the last iterate, the number of steps taken and how many of the
    iterates stepped to needed Hessian jitter; the last iterate is outside
    N(ETA) when R_C steps did not suffice.
    """
    steps = jittered = 0
    while steps < R_C and not z.in_neighborhood(ETA):
        d = newton_direction(problem, z, "corrector")
        alpha = ALPHA_C
        trial = try_make_iterate(problem, *_stepped(z, d, alpha))
        while trial is None:
            alpha *= 0.5
            if alpha < ALPHA_MIN:
                raise SolverError("corrector step lost the cone interior")
            trial = try_make_iterate(problem, *_stepped(z, d, alpha))
        z = trial
        steps += 1
        jittered += z.barrier.jittered
    return z, steps, jittered


def _residuals(problem, z: Iterate):
    """Relative primal and dual infeasibility and relative gap at z."""
    b, c = problem.b, problem.c
    by = float(b @ z.y)
    rel_p = (np.linalg.norm(problem.matvec(z.x) - b * z.tau)
             / (z.tau * (1.0 + np.linalg.norm(b))))
    rel_d = (np.linalg.norm(problem.rmatvec(z.y) + z.s - c * z.tau)
             / (z.tau * (1.0 + np.linalg.norm(c))))
    rel_gap = (float(c @ z.x) - by) / (z.tau + abs(by))
    return rel_p, rel_d, rel_gap


def classify(problem, z: Iterate, params: SolverParams):
    """Status decision for the current iterate, or None to keep iterating."""
    rel_p, rel_d, rel_gap = _residuals(problem, z)
    if rel_p <= params.tol_infeas and rel_d <= params.tol_infeas and rel_gap <= params.tol_gap:
        return OPTIMAL
    by = float(problem.b @ z.y)
    if by > 0 and np.linalg.norm(problem.rmatvec(z.y) + z.s) <= params.tol_infeas * by:
        return PRIMAL_INFEASIBLE
    cx = float(problem.c @ z.x)
    if -cx > 0 and np.linalg.norm(problem.matvec(z.x)) <= params.tol_infeas * (-cx):
        return DUAL_INFEASIBLE
    if z.mu < 1e-12 and z.tau < 1e-12:
        return ILL_POSED
    return None


def _result_from(problem, z: Iterate, status, iterations, trace, jittered, message=""):
    """The SolveResult at z; the trial total is summed over the trace."""
    rel_p, rel_d, rel_gap = _residuals(problem, z)
    scale = z.tau if (status == OPTIMAL and z.tau > 0) else 1.0
    if jittered:
        note = f"Hessian jitter at {jittered} accepted iterate(s)"
        message = f"{message}; {note}" if message else note
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
        jittered_iterates=jittered,
        trials=sum(rec.trials for rec in trace),
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
    jittered = int(z.barrier.jittered)
    last_alpha = None
    for it_count in range(params.max_iters):
        status = classify(problem, z, params)
        if status is not None:
            return _result_from(problem, z, status, it_count, trace, jittered)
        try:
            res_before = embedding_residual_norm(problem, z)
            outcome = predictor_step(problem, z, alpha_init=last_alpha, params=params)
            if outcome.stalled:
                trace.append(TraceRecord(it_count, z.mu, 0.0, z.nbhd_norm, 0,
                                         res_before, res_before, stalled=True,
                                         trials=outcome.trials))
                return _result_from(
                    problem, z, NUMERICAL_FAILURE, it_count + 1, trace, jittered,
                    message=f"predictor stalled: no acceptable step above {ALPHA_MIN:g}",
                )
            last_alpha = outcome.alpha
            z = outcome.iterate
            jittered += z.barrier.jittered
            res_after = embedding_residual_norm(problem, z)
            status = classify(problem, z, params)
            if status is not None:
                trace.append(TraceRecord(it_count, z.mu, outcome.alpha, z.nbhd_norm,
                                         0, res_before, res_after, corrected=False,
                                         trials=outcome.trials))
                return _result_from(problem, z, status, it_count + 1, trace, jittered)
            # a miss continues from the last corrector iterate
            z, c_steps, c_jittered = corrector_phase(problem, z)
            jittered += c_jittered
            missed = not z.in_neighborhood(ETA)
            misses = misses + 1 if missed else 0
            trace.append(TraceRecord(it_count, z.mu, outcome.alpha, z.nbhd_norm,
                                     c_steps, res_before, res_after, stalled=missed,
                                     trials=outcome.trials))
            if misses >= MAX_STALLS:
                return _result_from(
                    problem, z, NUMERICAL_FAILURE, it_count + 1, trace, jittered,
                    message=f"corrector failed to reach N(eta) in {R_C} steps "
                            f"(norm {z.nbhd_norm:.3e} vs {ETA * z.mu:.3e})",
                )
        except SolverError as exc:
            return _result_from(problem, z, NUMERICAL_FAILURE, it_count + 1,
                                trace, jittered, message=str(exc))

    status = classify(problem, z, params)
    if status is not None:
        return _result_from(problem, z, status, params.max_iters, trace, jittered)
    return _result_from(problem, z, ITERATION_LIMIT, params.max_iters, trace, jittered,
                        message="iteration limit reached")
