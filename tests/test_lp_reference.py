"""hsd.solve on linear programs, checked against HiGHS.

The nonnegative orthant is a second cone factor, written here against the
contract the ``hsd`` module docstring states and nothing else, so these
solves check the solver with a reference that shares no code with the
WSOS cone: random LPs min c'x s.t. Ax = b, x >= 0, built to be optimal,
primal infeasible or dual infeasible, must get HiGHS's status and, when
optimal, its objective.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from sospoly import hsd
from sospoly.wsos import NotInteriorError, ProductCone

SEEDS = range(20)
# linprog's status codes for an optimum, an infeasible and an unbounded LP
HIGHS_STATUS = {0: hsd.OPTIMAL, 2: hsd.PRIMAL_INFEASIBLE, 3: hsd.DUAL_INFEASIBLE}


class OrthantCone:
    """The nonnegative orthant R^U_+ with barrier F(x) = -sum_u log x_u, nu = U."""

    def __init__(self, U, screened=False):
        self.U = U
        self.nu = U
        self.screened = screened

    def barrier(self, x):
        if not (np.all(np.isfinite(x)) and np.all(x > 0)):
            raise NotInteriorError("x is not in the interior of the orthant")
        return OrthantBarrier(x)


class OrthantBarrier:
    """g = -1/x, H = diag(1/x^2) and nabla^3 F(x)[d, d] = -2 d^2 / x^3."""

    def __init__(self, x):
        self.x = x
        self.value = -float(np.sum(np.log(x)))
        self.gradient = -1.0 / x
        self.hessian = np.diag(1.0 / x**2)

    def hess_apply(self, v):
        return v / self.x**2

    def third_order(self, d):
        return -2.0 * d**2 / self.x**3

    def centrality(self, s, mu):
        psi = s + mu * self.gradient
        return psi, float(np.sum((self.x * psi) ** 2))

    def inv_quadform_lower_bound(self, s, mu, reference):
        # the exact term: a bound that is never loose
        return self.centrality(s, mu)[1]


def random_lp(seed, status):
    """(A, b, c) of a random LP with k rows and N > k + 1 columns whose
    status is ``status``: a strictly feasible primal and dual (Optimal), a
    Farkas vector y with A'y < 0 and b'y = 1 (PrimalInfeasible), or a
    feasible primal with a ray d > 0, Ad = 0 and c'd = -1 (DualInfeasible)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    N = k + int(rng.integers(2, 8))
    A = rng.standard_normal((k, N))
    if status == hsd.PRIMAL_INFEASIBLE:
        y = rng.standard_normal(k)
        A -= np.outer(y, y @ A + rng.uniform(0.5, 1.5, N)) / (y @ y)
        b = rng.standard_normal(k)
        b += (1.0 - b @ y) / (y @ y) * y
        return A, b, rng.standard_normal(N)
    x0 = rng.uniform(0.5, 1.5, N)
    if status == hsd.DUAL_INFEASIBLE:
        d = rng.uniform(0.5, 1.5, N)
        A -= np.outer(A @ d, d) / (d @ d)
        c = rng.standard_normal(N)
        c += (-1.0 - c @ d) / (d @ d) * d
        return A, A @ x0, c
    c = A.T @ rng.standard_normal(k) + rng.uniform(0.5, 1.5, N)
    return A, A @ x0, c


def identity_stack_lp(seed, status):
    """(A, b, c) with A = [I I]: min c_1'x_1 + c_2'x_2 s.t. x_1 + x_2 = b over
    two orthants, optimal for b > 0 and primal infeasible when an entry of b
    is negative."""
    rng = np.random.default_rng(seed)
    U = int(rng.integers(2, 8))
    b = rng.uniform(0.5, 1.5, U)
    if status == hsd.PRIMAL_INFEASIBLE:
        b[rng.integers(U)] *= -1.0
    return np.hstack([np.eye(U)] * 2), b, rng.standard_normal(2 * U)


def assert_agrees_with_highs(problem, result, label):
    ref = linprog(problem.c, A_eq=problem.A, b_eq=problem.b, bounds=(0, None),
                  method="highs")
    assert result.status == HIGHS_STATUS[ref.status], (label, result.message)
    if ref.status == 0:
        assert abs(result.primal_objective - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun)), label


@pytest.mark.parametrize("status", [hsd.OPTIMAL, hsd.PRIMAL_INFEASIBLE, hsd.DUAL_INFEASIBLE])
def test_random_lps_agree_with_highs(status):
    # general A: the reduced Newton systems are solved by the dense LU
    for seed in SEEDS:
        A, b, c = random_lp(seed, status)
        problem = hsd.ConicProblem(A, b, c, OrthantCone(A.shape[1]))
        assert not problem.identity_blocks
        result = hsd.solve(problem)
        assert result.status == status, (seed, result.message)
        assert_agrees_with_highs(problem, result, seed)


@pytest.mark.parametrize("status", [hsd.OPTIMAL, hsd.PRIMAL_INFEASIBLE])
def test_identity_stack_lps_agree_with_highs(status):
    # A = [I I] over two orthant factors: the null-space Newton path
    for seed in SEEDS:
        A, b, c = identity_stack_lp(seed, status)
        U = b.size
        problem = hsd.ConicProblem(A, b, c, ProductCone([OrthantCone(U), OrthantCone(U)]))
        assert problem.identity_blocks
        result = hsd.solve(problem)
        assert result.status == status, (seed, result.message)
        assert_agrees_with_highs(problem, result, seed)


@pytest.mark.parametrize("status", [hsd.OPTIMAL, hsd.PRIMAL_INFEASIBLE, hsd.DUAL_INFEASIBLE])
def test_screened_orthant_changes_no_iterate(status, monkeypatch):
    # the screen with an exact bound rejects the trials the exact terms
    # reject, so a screened factor takes the unscreened one's steps, bit
    # for bit, in as many iterations and trials
    rejections = []
    bound = OrthantBarrier.inv_quadform_lower_bound

    def recording(self, s, mu, reference):
        value = bound(self, s, mu, reference)
        rejections.append(value > (1.0 + 1e-6) * (hsd.BETA * mu) ** 2)
        return value

    monkeypatch.setattr(OrthantBarrier, "inv_quadform_lower_bound", recording)
    for seed in range(10):
        A, b, c = random_lp(seed, status)
        plain, screened = (hsd.solve(hsd.ConicProblem(A, b, c, OrthantCone(A.shape[1], on)))
                           for on in (False, True))
        assert plain.status == screened.status == status, seed
        assert plain.iterations == screened.iterations and plain.trials == screened.trials
        for key in ("x", "y", "s"):
            assert np.array_equal(getattr(plain, key), getattr(screened, key)), seed
    assert any(rejections)  # the screen does reject trials
