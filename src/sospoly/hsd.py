"""Homogeneous self-dual predictor-corrector interior-point method.

Works over any product of cone factors that meet the contract stated at
the end of this docstring. The method embeds the primal and dual problems

    min c'x  s.t. Ax = b, x in K        max b'y  s.t. A'y + s = c, s in K*

into the homogeneous self-dual system in z = (x, tau, y, s, kappa) and
alternates line-searched predictor steps with centering corrector steps,
keeping every iterate near the central path in the barrier's local norm:
a predictor trial is accepted when the tau term and each cone factor's term
are at most (BETA mu)^2, and the corrector re-centers into the sum-norm
neighborhood N(ETA). Optimal solutions are read off as x/tau, (y, s)/tau
when tau stays positive; infeasibility certificates appear when kappa wins.

Both steps move along an arc rather than a ray. Each direction d carries a
third-order adjustment d_adj, solved with the same factorization (Dahl and
Andersen, Math. Program. 2022; Coey, Kapelevich and Vielma, Math. Prog.
Comp. 2023), and each trial sits at z + alpha d + alpha^2 d_adj. d_adj has
zero linear rows, and complementarity rows that cancel the alpha^2 term of
the path conditions: for the predictor, the second-order term of the
central path through z, mu (H dx - nabla^3 F(x)[dx, dx] / 2) and
mu (dtau / tau^2 + dtau^2 / tau^3); for the corrector, at fixed mu,
-(mu/2) nabla^3 F(x)[dx, dx] and mu dtau^2 / tau^3. So the linear residual
still shrinks to (1 - alpha) r(z) on the predictor's arc and stays r(z) on
the corrector's, and the arcs bend along the path where the rays leave the
neighborhood. The predictor's search takes the first accepted step of a
fixed descending schedule. It decides the stopping rule first, on the
stepped points alone (``classify_point``, no barrier): when the top entries
meet it, the shortest of them is the first trial, so the last step stops
near the tolerance instead of overshooting it. Every point, the start,
a corrector step or a predictor trial, is evaluated by one loop over the
cone factors (``make_iterate``), which alone decides whether a trial is
accepted.

The solver reads its cone factors through this contract and nothing else
(:class:`wsos.InterpWSOSCone` is one implementation):

- a factor has ``U``, its dimension; ``nu``, its barrier parameter;
  ``screened``, whether a predictor trial bounds the factor's term before
  its Hessian; and ``barrier(x)``, an evaluation at x, which raises
  ``NotInteriorError`` outside the interior;
- an evaluation has ``value``, ``gradient``, ``hessian``, ``hess_apply(v)``,
  ``third_order(d)`` (nabla^3 F(x)[d, d]), ``centrality(s, mu)`` (psi =
  s + mu g and the term psi^T H^{-1} psi, raising ``NotInteriorError``
  when H cannot be factored) and, for a screened factor,
  ``inv_quadform_lower_bound(s, mu, reference)``, a lower bound on that
  term given the evaluation of the point the trial steps from.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .wsos import NotInteriorError, ProductBarrierEval, as_product


class SolverError(RuntimeError):
    """Unrecoverable numerical failure inside the solver."""


# the corrector's radius on the sum-norm neighborhood N(ETA) (the safe set
# of the Skajaa-Ye method), the predictor's bound on the proximity, each
# term separately (BETA; Coey, Kapelevich and Vielma, Math. Prog. Comp.
# 2023, chosen by a sweep under the certificate protocol), the corrector
# step length and the most corrector steps per phase
ETA = 0.0305
BETA = 0.7
ALPHA_C = 1.0
R_C = 4
# predictor search: its step lengths, longest first (Coey, Kapelevich and
# Vielma, Math. Prog. Comp. 2023), then halvings of 0.1 down to the floor
# ALPHA_MIN that the corrector's halvings share
ALPHA_MIN = 1e-8
STEP_SCHEDULE = (0.9999, 0.999, 0.99, 0.97, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3,
                 0.2, 0.1) + tuple(0.1 / 2**k for k in range(1, 24))  # 0.1 / 2**23 > 1e-8
ALPHA_CAP = STEP_SCHEDULE[0]
# consecutive corrector phases ending outside N(ETA) before NumericalFailure
MAX_STALLS = 3


@dataclass
class SolverParams:
    """Stopping rule: gap and infeasibility tolerances and the iteration limit."""

    tol_gap: float = 1e-8
    tol_infeas: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        for name in ("tol_gap", "tol_infeas"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < 1.0:
                raise ValueError(f"{name} must be a real number in (0, 1), got {tol!r}")
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")


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
    nbhd_norm: float  # root of the tau term plus every cone factor's term
    proximity: float  # root of the largest of those terms

    def in_neighborhood(self, theta: float) -> bool:
        """Whether z lies in N(theta), the sum-norm neighborhood."""
        return self.nbhd_norm <= theta * self.mu


@dataclass
class Direction:
    dx: np.ndarray
    dtau: float
    dy: np.ndarray
    ds: np.ndarray
    dkappa: float
    residual: float  # full-system residual, relative
    # the third-order adjustment that ``newton_direction`` gives a predictor
    # or corrector direction: its trials sit at z + alpha d + alpha^2
    # adjustment (None on the adjustment itself)
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
    trials: int = 0         # predictor trials evaluated in full (not stopping-rule probes)


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
    trials: int = 0             # predictor trials over all iterations


OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"
ILL_POSED = "IllPosed"
ITERATION_LIMIT = "IterationLimit"
NUMERICAL_FAILURE = "NumericalFailure"


def make_iterate(problem, x, tau, y, s, kappa, reference=None) -> Iterate | None:
    """The Iterate at (x, tau, y, s, kappa), the one place a point is evaluated.

    Raises NotInteriorError outside the interior (tau, kappa or mu not
    positive, or a factor's barrier or Hessian failing). With
    ``reference``, the iterate a predictor trial steps from, this is the
    solver's one acceptance test: the trial is None as soon as one term of
    the proximity, the tau term or a factor's, is not known to be at most
    (BETA*mu)^2, so a NaN term rejects it. The tau term, exact, goes first.
    Then the screen: each ``screened`` factor evaluates its barrier and
    bounds its term from below against the reference's factor, with no
    Hessian (``inv_quadform_lower_bound``; a relative margin of 1e-6 covers
    the rounding in which the bound differs from the exact term). Then
    every factor in order forms its exact term psi_i^T H_i^{-1} psi_i
    (``centrality``), and the first that fails stops the walk before any
    later factor's barrier or Hessian. A point that is not rejected comes
    out as it does without ``reference``.
    """
    if tau <= 0 or kappa <= 0:
        raise NotInteriorError("tau and kappa must stay positive")
    x = np.asarray(x, dtype=float)
    mu = _mu(problem, x, tau, s, kappa)
    if mu <= 0:
        raise NotInteriorError("complementarity gap must stay positive")
    psi_tau = kappa - mu / tau
    tau_term = (tau * psi_tau) ** 2
    trial = reference is not None
    if trial and not math.sqrt(tau_term) <= BETA * mu:
        return None
    cone = problem.cone
    slices = cone.slices()
    evals = [None] * len(cone.factors)
    if trial:
        cap = (1.0 + 1e-6) * (BETA * mu) ** 2
        for i, (factor, ref, sl) in enumerate(
                zip(cone.factors, reference.barrier.factor_evals, slices)):
            if factor.screened:
                evals[i] = factor.barrier(x[sl])
                if evals[i].inv_quadform_lower_bound(s[sl], mu, ref) > cap:
                    return None
    psis, terms = [], []
    for i, (factor, sl) in enumerate(zip(cone.factors, slices)):
        if evals[i] is None:
            evals[i] = factor.barrier(x[sl])
        psi, term = evals[i].centrality(s[sl], mu)
        if trial and not math.sqrt(term) <= BETA * mu:
            return None
        psis.append(psi)
        terms.append(term)
    norm = math.sqrt(sum(terms) + tau_term)
    proximity = math.sqrt(max(tau_term, *terms))
    return Iterate(x, tau, y, s, kappa, ProductBarrierEval(cone, evals), mu,
                   np.concatenate(psis), psi_tau, norm, proximity)


def _mu(problem, x, tau, s, kappa) -> float:
    return (float(x @ s) + tau * kappa) / (problem.cone.nu + 1)


def try_make_iterate(problem, x, tau, y, s, kappa, reference=None):
    """``make_iterate``, or None outside the interior.

    With ``reference``, the iterate a predictor trial steps from, the trial
    is also None when ``make_iterate`` rejects it; an accepted trial is bit
    for bit the point make_iterate forms in full, so the screen and the
    early stop change no step.
    """
    try:
        return make_iterate(problem, x, tau, y, s, kappa, reference=reference)
    except NotInteriorError:
        return None


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
                best = (res, (dx, dy, dtau, ds, dkappa))
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

    Either comes with its third-order adjustment (``Direction.adjustment``),
    a second solve with the same factorization.
    """
    if rhs_mode == "predictor":
        r_p, r_d, r_g = embedding_residual(problem, z)
        rhs = (-r_p, -r_d, -r_g, -z.s, -z.kappa)
    elif rhs_mode == "corrector":
        k, N = problem.A.shape
        rhs = (np.zeros(k), np.zeros(N), 0.0, -z.psi_x, -z.psi_tau)
    else:
        raise ValueError(f"unknown rhs_mode {rhs_mode!r}")
    kkt = (_NullSpaceKKT if problem.identity_blocks else _ReducedKKT)(problem, z)
    d = kkt.solve(*rhs)
    d.adjustment = kkt.solve(*_adjustment_rhs(problem, z, d, rhs_mode == "predictor"))
    return d


def _adjustment_rhs(problem, z: Iterate, d: Direction, predictor: bool):
    """Right-hand side of the third-order adjustment of direction d.

    Along z(alpha) = z + alpha d + alpha^2 d_adj, d meets the path condition
    to first order; the adjustment cancels its alpha^2 term. For a
    predictor the condition is s + (1 - alpha) mu g(x) = 0, whose alpha^2
    term gives ds_adj + mu H dx_adj = mu H dx - (mu/2) nabla^3 F(x)[dx, dx],
    and the tau barrier -ln tau, whose third derivative is -2/tau^3, gives
    dkappa_adj + (mu/tau^2) dtau_adj = mu dtau/tau^2 + mu dtau^2/tau^3. For
    a corrector mu is fixed, so the conditions s + mu g(x) = 0 and
    kappa - mu/tau = 0 lose the terms of mu's decrease and leave
    -(mu/2) nabla^3 F(x)[dx, dx] and mu dtau^2/tau^3. The linear rows are
    zero, so the embedding residual along the arc is (1 - alpha) r(z) for a
    predictor and r(z) for a corrector, as on the ray.
    """
    k, N = problem.A.shape
    mu, tau = z.mu, z.tau
    second = z.barrier.hess_apply(d.dx) if predictor else 0.0
    r4 = mu * (second - 0.5 * z.barrier.third_order(d.dx))
    r5 = (mu * d.dtau / tau**2 if predictor else 0.0) + mu * d.dtau**2 / tau**3
    return np.zeros(k), np.zeros(N), 0.0, r4, r5


def _stepped(z: Iterate, d: Direction, alpha: float):
    """z + alpha d + alpha^2 d.adjustment, the point at alpha on d's arc."""
    adj, a2 = d.adjustment, alpha * alpha
    return (z.x + alpha * d.dx + a2 * adj.dx, z.tau + alpha * d.dtau + a2 * adj.dtau,
            z.y + alpha * d.dy + a2 * adj.dy, z.s + alpha * d.ds + a2 * adj.ds,
            z.kappa + alpha * d.dkappa + a2 * adj.dkappa)


def _step(problem, z: Iterate, d: Direction, alpha: float):
    """Predictor trial on d's arc, None unless ``make_iterate`` accepts it."""
    return try_make_iterate(problem, *_stepped(z, d, alpha), reference=z)


def _meets_stopping_rule(problem, z: Iterate, d: Direction, alpha: float,
                         params: SolverParams) -> bool:
    """Whether the point at alpha on d's arc has tau, kappa > 0 and a status.

    The status is ``classify_point``'s, read from the point's fields alone:
    no barrier is evaluated.
    """
    x, tau, y, s, kappa = _stepped(z, d, alpha)
    return (tau > 0 and kappa > 0
            and classify_point(problem, x, tau, y, s, kappa, params) is not None)


@dataclass
class PredictorOutcome:
    iterate: Iterate
    alpha: float
    stalled: bool
    trials: int = 0  # trial points evaluated by the search


def predictor_step(problem, z: Iterate, alpha_init: float | None,
                   params: SolverParams) -> PredictorOutcome:
    """The first step of STEP_SCHEDULE whose trial on the predictor arc is within BETA.

    A trial is accepted when the tau term and each cone factor's term
    psi_i^T H_i^{-1} psi_i are each at most (BETA*mu)^2 (``Iterate.proximity``),
    not their sum: the per-factor proximity of Coey, Kapelevich and Vielma
    (Math. Prog. Comp. 2023). Trials sit at z + alpha d + alpha^2 d_adj
    (``newton_direction``), and each is evaluated and accepted or rejected
    by ``make_iterate`` with z as its reference: the screen of the
    ``screened`` factors, then one walk over the factors that stops at the
    first term that fails, before the later factors' barriers and Hessians.
    That changes no step.

    The stopping rule of ``params`` is decided first, on the stepped points
    alone: the schedule is scanned from its top entry for as long as the
    point has tau, kappa > 0 and ``classify_point`` gives it a status.
    If that run of entries is not empty, its shortest entry is the first
    trial, so a last step does not push mu past the tolerance, toward
    Hessians singular to working precision. Otherwise, or when that trial
    is rejected, trials take the schedule's entries in order from two
    entries above ``alpha_init``, the previously accepted step (from the
    first entry without one), below the run. The first accepted trial is
    returned. A degenerate direction, or a rejection of the last entry, is
    a stall; z is returned unchanged.
    """
    direction = newton_direction(problem, z, "predictor")
    if direction.norm() == 0.0:
        return PredictorOutcome(z, 0.0, True)
    run = 0
    while (run < len(STEP_SCHEDULE)
           and _meets_stopping_rule(problem, z, direction, STEP_SCHEDULE[run], params)):
        run += 1
    above = 0 if alpha_init is None else sum(a > alpha_init for a in STEP_SCHEDULE)
    steps = STEP_SCHEDULE[run - 1:run] + STEP_SCHEDULE[max(above - 2, run):]
    for trials, alpha in enumerate(steps, 1):
        trial = _step(problem, z, direction, alpha)
        if trial is not None:
            return PredictorOutcome(trial, alpha, False, trials)
    return PredictorOutcome(z, 0.0, True, len(steps))


def corrector_phase(problem, z: Iterate):
    """Re-center with up to R_C corrector steps; early exit once inside N(ETA).

    Each step takes the corrector direction's arc z + alpha d + alpha^2 d_adj
    (``newton_direction``) at alpha = ALPHA_C, halved while the point leaves
    the interior; the embedding residual is the same at every alpha. Returns
    the last iterate and the number of steps taken; the last iterate is
    outside N(ETA) when R_C steps did not suffice.
    """
    steps = 0
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
    return z, steps


def _residuals(problem, x, tau, y, s):
    """Relative primal and dual infeasibility and relative gap at (x, tau, y, s)."""
    b, c = problem.b, problem.c
    by = float(b @ y)
    rel_p = (np.linalg.norm(problem.matvec(x) - b * tau)
             / (tau * (1.0 + np.linalg.norm(b))))
    rel_d = (np.linalg.norm(problem.rmatvec(y) + s - c * tau)
             / (tau * (1.0 + np.linalg.norm(c))))
    rel_gap = (float(c @ x) - by) / (tau + abs(by))
    return rel_p, rel_d, rel_gap


def classify(problem, z: Iterate, params: SolverParams):
    """Status decision for the current iterate, or None to keep iterating."""
    return classify_point(problem, z.x, z.tau, z.y, z.s, z.kappa, params)


def classify_point(problem, x, tau, y, s, kappa, params: SolverParams):
    """``classify`` from the point's fields alone, with no barrier."""
    rel_p, rel_d, rel_gap = _residuals(problem, x, tau, y, s)
    if rel_p <= params.tol_infeas and rel_d <= params.tol_infeas and rel_gap <= params.tol_gap:
        return OPTIMAL
    by = float(problem.b @ y)
    if by > 0 and np.linalg.norm(problem.rmatvec(y) + s) <= params.tol_infeas * by:
        return PRIMAL_INFEASIBLE
    cx = float(problem.c @ x)
    if -cx > 0 and np.linalg.norm(problem.matvec(x)) <= params.tol_infeas * (-cx):
        return DUAL_INFEASIBLE
    if tau < 1e-12 and _mu(problem, x, tau, s, kappa) < 1e-12:
        return ILL_POSED
    return None


def _result_from(problem, z: Iterate, status, trace, message=""):
    """The SolveResult at z: one iteration per trace record, trials summed over them."""
    rel_p, rel_d, rel_gap = _residuals(problem, z.x, z.tau, z.y, z.s)
    scale = z.tau if (status == OPTIMAL and z.tau > 0) else 1.0
    return SolveResult(
        status=status,
        primal_objective=float(problem.c @ z.x) / z.tau if z.tau > 0 else math.nan,
        dual_objective=float(problem.b @ z.y) / z.tau if z.tau > 0 else math.nan,
        rel_primal_infeas=rel_p,
        rel_dual_infeas=rel_d,
        rel_gap=rel_gap,
        iterations=len(trace),
        x=z.x / scale,
        y=z.y / scale,
        s=z.s / scale,
        final=z,
        trace=trace,
        message=message,
        trials=sum(rec.trials for rec in trace),
    )


def solve(problem: ConicProblem, params: SolverParams | None = None) -> SolveResult:
    """Run the predictor-corrector loop from the centered initial point.

    Each iteration appends its TraceRecord first, as a stall at the iterate
    it starts from, and fills it in as its work succeeds: every stop leaves
    one record per iteration, the last describing the iterate reported.
    """
    params = params or SolverParams()
    trace = []
    try:
        z = initial_point(problem)
    except NotInteriorError as exc:
        return SolveResult(status=NUMERICAL_FAILURE, message=str(exc))

    message = ""
    misses = 0
    last_alpha = None
    while (status := classify(problem, z, params)) is None:
        if len(trace) == params.max_iters:
            status, message = ITERATION_LIMIT, "iteration limit reached"
            break
        res_before = embedding_residual_norm(problem, z)
        rec = TraceRecord(len(trace), z.mu, 0.0, z.nbhd_norm, 0, res_before, res_before,
                          stalled=True)
        trace.append(rec)
        try:
            outcome = predictor_step(problem, z, alpha_init=last_alpha, params=params)
            rec.trials = outcome.trials
            if outcome.stalled:
                status = NUMERICAL_FAILURE
                message = f"predictor stalled: no acceptable step above {ALPHA_MIN:g}"
                break
            z = outcome.iterate
            last_alpha = rec.alpha_p = outcome.alpha
            rec.mu, rec.nbhd_norm = z.mu, z.nbhd_norm
            rec.residual_after = embedding_residual_norm(problem, z)
            status = classify(problem, z, params)
            if status is not None:
                rec.stalled = rec.corrected = False
                break
            # a miss continues from the last corrector iterate
            z, rec.corrector_steps = corrector_phase(problem, z)
            rec.mu, rec.nbhd_norm = z.mu, z.nbhd_norm
            rec.stalled = not z.in_neighborhood(ETA)
            misses = misses + 1 if rec.stalled else 0
            if misses >= MAX_STALLS:
                status = NUMERICAL_FAILURE
                message = (f"corrector failed to reach N(eta) in {R_C} steps "
                           f"(norm {z.nbhd_norm:.3e} vs {ETA * z.mu:.3e})")
                break
        except SolverError as exc:
            status, message = NUMERICAL_FAILURE, str(exc)
            break
    return _result_from(problem, z, status, trace, message)
