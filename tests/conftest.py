"""Shared fixtures: the expensive benchmark solves are done once per session."""

import os
import time

# One BLAS thread, set before numpy loads its BLAS: numpy's and scipy's
# separate OpenBLAS pools contend for cores on the solver's many small dense
# operations, and the package itself can pin threads only when threadpoolctl
# is installed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

import sospoly as sp  # noqa: E402

# property tests draw a bounded set of examples and keep no example database;
# the draws repeat from run to run, but Hypothesis also seeds them with the
# numeric literals of the package's source, so editing a literal in src/
# changes them: a case a test must always see is pinned with @example
settings.register_profile("sospoly", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("sospoly")


class SolvedInstance:
    def __init__(self, built, result, elapsed):
        self.built = built
        self.result = result
        self.elapsed = elapsed


def _solve_envelope(n, d, k, seed, tol):
    built = sp.build_envelope(n, d, k, seed=seed)
    params = sp.SolverParams(tol_gap=tol, tol_infeas=tol)
    t0 = time.perf_counter()
    result = sp.solve(built.problem, params)
    return SolvedInstance(built, result, time.perf_counter() - t0)


def _solve_polymin(name):
    built = sp.build_polymin(sp.builtin_poly(name))
    t0 = time.perf_counter()
    result = sp.solve(built.problem)
    return SolvedInstance(built, result, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def envelope_1d_100():
    return _solve_envelope(1, 100, 2, seed=0, tol=1e-8)


@pytest.fixture(scope="session")
def envelope_2d_10():
    return _solve_envelope(2, 10, 2, seed=0, tol=1e-8)


@pytest.fixture(scope="session")
def envelope_3d_6():
    return _solve_envelope(3, 6, 2, seed=0, tol=1e-6)


@pytest.fixture(scope="session")
def envelope_small():
    return _solve_envelope(1, 5, 2, seed=1, tol=1e-8)


@pytest.fixture(scope="session")
def envelope_small_k3():
    return _solve_envelope(1, 5, 3, seed=1, tol=1e-8)


@pytest.fixture(scope="session")
def ray_search_finals():
    """{k: (problem, final iterate)} of build_envelope(1, 5, k, seed=1) at
    tolerance 1e-8, k = 2 and 3, solved with the predictor and the
    corrector stepping along the ray z + alpha d (adjustment right-hand
    sides zero) and the stopping rule never met by a stepped point: the
    predictor takes the first accepted step of the schedule, with no probe
    for the shortest step that still meets the tolerance. Such a final
    step overshoots the tolerance, so the final iterates have Hessians
    singular to working precision, with eigenvalues of the formed sum below
    the barrier's diagonal shift."""
    def zero_rhs(problem, z, d, predictor):
        k, N = problem.A.shape
        return np.zeros(k), np.zeros(N), 0.0, np.zeros(N), 0.0

    finals = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp.hsd, "_adjustment_rhs", zero_rhs)
        m.setattr(sp.hsd, "_meets_stopping_rule", lambda *args: False)
        for k in (2, 3):
            problem = sp.build_envelope(1, 5, k, seed=1).problem
            result = sp.solve(problem, sp.SolverParams(tol_gap=1e-8, tol_infeas=1e-8))
            assert result.status == sp.hsd.OPTIMAL
            finals[k] = problem, result.final
    return finals


@pytest.fixture(scope="session")
def butcher_solved():
    return _solve_polymin("butcher")


@pytest.fixture(scope="session")
def caprasse_solved():
    return _solve_polymin("caprasse")


@pytest.fixture(scope="session")
def magnetism_solved():
    return _solve_polymin("magnetism")


@pytest.fixture(scope="session")
def perturbed_rows_problem():
    """Factory: rows 1'x = 1 and (1 + eps*t)'x = 2 over univariate SOS quartics.

    With eps = 0 the rows contradict each other. Otherwise they ask for
    t'x = 1/eps with 1'x = 1, and the Hankel matrix of the moments
    m_k = sum_u x_u t_u^k must be PSD, so m_2 >= 1/eps^2, m_4 >= 1/eps^4 and
    every feasible x has ||x||_1 >= eps^-4: nearly infeasible for small eps.
    """
    pts = sp.cheb2_points(4)
    cone = sp.build_cone(pts, [lambda t: np.ones(t.shape[0])], [2])

    def build(eps):
        A = np.vstack([np.ones(pts.U), np.ones(pts.U) + eps * pts.points[:, 0]])
        b = np.array([1.0, 2.0])
        c = 2.0 + pts.points[:, 0] ** 2
        return sp.ConicProblem(A, b, c, cone)
    return build


@pytest.fixture(scope="session")
def contradictory_rows_solved(perturbed_rows_problem):
    problem = perturbed_rows_problem(0.0)
    t0 = time.perf_counter()
    result = sp.solve(problem)
    built = sp.BuiltProblem(problem, problem.cone, sp.cheb2_points(4))
    return SolvedInstance(built, result, time.perf_counter() - t0)


@pytest.fixture
def unscreened_trials(monkeypatch):
    """Predictor trials that skip the screen, as small factors' do, whatever
    the factor size: each factor forms its exact term in turn, for tests
    that inject faults by call order."""
    monkeypatch.setattr(sp.wsos.InterpWSOSCone, "screened", False)


@pytest.fixture
def screened_trials(monkeypatch):
    """Predictor trials screened before their Hessians, as large factors'
    are, whatever the factor size."""
    monkeypatch.setattr(sp.wsos.InterpWSOSCone, "screened", True)


@pytest.fixture
def singular_newton_matrix(monkeypatch):
    """Zero barrier Hessians behind an identity Cholesky factor: the barrier
    norms still work, and the first envelope Newton direction meets the
    null-space matrix R = 0, whose Cholesky fails at its first pivot."""
    monkeypatch.setattr(sp.wsos.BarrierEval, "hessian",
                        property(lambda ev: np.zeros((ev.cone.U, ev.cone.U))))
    monkeypatch.setattr(sp.wsos.BarrierEval, "hess_chol",
                        property(lambda ev: np.eye(ev.cone.U)))


@pytest.fixture
def dual_infeasible_problem():
    """A problem whose dual is infeasible: Ax = 0 holds on a ray of the cone
    along which c'x = -1'x falls without bound."""
    cone = sp.build_cone(sp.cheb2_points(4), [lambda t: np.ones(t.shape[0])], [2])
    A = np.zeros((1, cone.U))
    A[0, 0], A[0, 1] = 1.0, -0.5
    return sp.ConicProblem(A, np.array([0.0]), -np.ones(cone.U), cone)
