"""Correctness checks computed apart from the library.

Every check takes plain arrays (problem data, solver output, Gram matrices)
and returns a list of failure messages; an empty list means the check
passed. Polynomials are evaluated with numpy's Chebyshev Vandermonde and a
graded-lex exponent list written here, never with ``sospoly`` code.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.polynomial.chebyshev import chebvander

GRID_CHUNK = 2048  # grid rows evaluated at once, keeps the check's memory small


def graded_lex(n: int, deg: int) -> list[tuple[int, ...]]:
    """Exponents |a| <= deg ordered by total degree, then lexicographically."""
    exps = [a for a in itertools.product(range(deg + 1), repeat=n) if sum(a) <= deg]
    exps.sort(key=lambda a: (sum(a), a))
    return exps


def cheb_tensor(points: np.ndarray, exps) -> np.ndarray:
    """Tensor Chebyshev basis T_a(t) = prod_k T_{a_k}(t_k) on [-1, 1]^n, shape (M, len(exps))."""
    points = np.atleast_2d(points)
    deg = max(sum(a) for a in exps)
    per_coord = [chebvander(points[:, k], deg) for k in range(points.shape[1])]
    out = np.ones((points.shape[0], len(exps)))
    for j, a in enumerate(exps):
        for k, ak in enumerate(a):
            out[:, j] *= per_coord[k][:, ak]
    return out


def uniform_grid(n: int, per_axis: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, per_axis)
    return np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)


def check_solution(A, b, c, result, tol: float, max_iters: int | None) -> list[str]:
    """Status, recomputed relative residuals and gap, and the iteration bound."""
    fails = []
    if result.status != "Optimal":
        return [f"status {result.status}"]
    x, y, s = result.x, result.y, result.s
    by = float(b @ y)
    rel_p = np.linalg.norm(A @ x - b) / (1.0 + np.linalg.norm(b))
    rel_d = np.linalg.norm(A.T @ y + s - c) / (1.0 + np.linalg.norm(c))
    gap = (float(c @ x) - by) / (1.0 + abs(by))
    for label, value in (("primal residual", rel_p), ("dual residual", rel_d), ("gap", gap)):
        if not value <= tol:
            fails.append(f"{label} {value:.3e} > {tol:.0e}")
    if max_iters is not None and result.iterations > max_iters:
        fails.append(f"{result.iterations} iterations > {max_iters}")
    return fails


def adjoint_sum(blocks, grams) -> np.ndarray:
    """sum_i diag(P_i S_i P_i^T) at every interpolation point."""
    return sum(np.einsum("ua,ab,ub->u", B, S, B) for B, S in zip(blocks, grams))


def check_positive_gram(grams) -> list[str]:
    """Every Gram block is positive definite."""
    fails = []
    for i, S in enumerate(grams):
        lam = float(np.linalg.eigvalsh(S)[0])
        if not lam > 0.0:
            fails.append(f"Gram block {i} has smallest eigenvalue {lam:.3e}")
    return fails


def check_adjoint(blocks, grams, s) -> list[str]:
    """The Gram blocks reproduce s through the adjoint to 1e-8 * (1 + ||s||_2)."""
    resid = float(np.max(np.abs(adjoint_sum(blocks, grams) - s)))
    limit = 1e-8 * (1.0 + np.linalg.norm(s))
    if not resid <= limit:
        return [f"adjoint residual {resid:.3e} > {limit:.3e}"]
    return []


def check_envelope_below(points, deg, y, f_coeffs, f_exps, slack) -> list[str]:
    """The interpolant of y lies below every f_j on a dense grid of [-1, 1]^n.

    ``points`` are the interpolation points (unit box) for total degree
    ``deg``, ``y`` the dual values there, ``f_coeffs[j]`` the Chebyshev
    coefficients of f_j in the order ``f_exps``. f_j - y interpolates a certified nonnegative
    polynomial up to point errors of at most ``slack[j]``, so on the grid
    f_j - y >= -Lambda(t) * slack[j], with Lambda the Lebesgue function of
    the points. Any larger violation fails.
    """
    n = points.shape[1]
    exps = graded_lex(n, deg)
    V = cheb_tensor(points, exps)
    grid = uniform_grid(n, 4001 if n == 1 else 21)
    worst = -np.inf
    for lo in range(0, grid.shape[0], GRID_CHUNK):
        g = grid[lo:lo + GRID_CHUNK]
        lagrange = np.linalg.solve(V.T, cheb_tensor(g, exps).T).T  # rows: l_u(t)
        lebesgue = np.sum(np.abs(lagrange), axis=1)
        y_grid = lagrange @ y
        basis = cheb_tensor(g, f_exps)
        for coeffs, eps in zip(f_coeffs, slack):
            excess = (y_grid - basis @ coeffs) / (lebesgue * eps)
            worst = max(worst, float(np.max(excess)))
    if not worst <= 1.0:
        return [f"dual polynomial exceeds an input by {worst:.3g} x the certified slack"]
    return []


def check_bound(bound: float, optimum: float) -> list[str]:
    """A valid lower bound: at most optimum + 1e-6 and within 1e-4 of it."""
    fails = []
    if not bound <= optimum + 1e-6:
        fails.append(f"bound {bound:.10g} above the optimum {optimum:.10g}")
    if not abs(bound - optimum) <= 1e-4:
        fails.append(f"bound {bound:.10g} more than 1e-4 from the optimum {optimum:.10g}")
    return fails
