"""Dual weighted-SOS cones in the interpolant basis and their barrier oracle.

A cone lives in R^U, U the number of interpolation points, and is described
by m scaled basis matrices Ptilde_i = diag(sqrt(g_i(t_1)), ...) P_i with P_i
column-orthonormal. Membership, the log-det barrier F(x), its gradient and
Hessian, and the Lambda_i / Lambda_i^* operators are all expressed through
Ptilde_i, so weighted and unweighted blocks share one code path:

    Lambda_i(x) = Ptilde_i^T diag(x) Ptilde_i.

The barrier is F(x) = -sum_i ln det Lambda_i(x) with parameter nu = sum_i L_i.
Gradient and Hessian cost O(sum_i L_i U^2) per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .interpolation import PointSet, cheb_vandermonde, orthonormalize


class NotInteriorError(ValueError):
    """Raised when a barrier evaluation is requested outside the cone interior."""


class ConeConstructionError(ValueError):
    """Raised for invalid weight/degree data at cone construction."""


@dataclass(frozen=True)
class WeightSpec:
    """A weight polynomial: a label plus its values at the interpolation points."""

    label: str
    values: np.ndarray
    degree: int


class InterpWSOSCone:
    """Dual WSOS cone at U interpolation points.

    Parameters
    ----------
    blocks : list of ndarray
        Scaled basis matrices Ptilde_i, each of shape (U, L_i) and full
        column rank.
    weights : list of WeightSpec, optional
        Descriptive metadata for the g_i; not used in computations.
    """

    def __init__(self, blocks, weights=None):
        blocks = [np.ascontiguousarray(B, dtype=float) for B in blocks]
        if not blocks:
            raise ConeConstructionError("cone needs at least one block")
        U = blocks[0].shape[0]
        for B in blocks:
            if B.ndim != 2 or B.shape[0] != U:
                raise ConeConstructionError("all blocks must share the row count U")
            if B.shape[1] > U:
                raise ConeConstructionError("block has more columns than points")
            sv = np.linalg.svd(B, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                raise ConeConstructionError("scaled basis matrix is rank deficient")
        self.U = U
        self.blocks = blocks
        self.weights = weights
        self.dims = [B.shape[1] for B in blocks]

    @property
    def nu(self) -> int:
        """Barrier parameter: sum of block dimensions L_i."""
        return sum(self.dims)

    def lambda_op(self, i: int, x: np.ndarray) -> np.ndarray:
        """Lambda_i(x) = Ptilde_i^T diag(x) Ptilde_i, symmetric L_i x L_i."""
        B = self.blocks[i]
        M = B.T @ (x[:, None] * B)
        return 0.5 * (M + M.T)

    def lambda_adjoint(self, i: int, S: np.ndarray) -> np.ndarray:
        """Adjoint Lambda_i^*(S) = diag(Ptilde_i S Ptilde_i^T), length U."""
        B = self.blocks[i]
        return np.einsum("ua,ab,ub->u", B, np.asarray(S, dtype=float), B)

    def in_interior(self, x: np.ndarray):
        """Cholesky factors of every Lambda_i(x), or None if x is not interior."""
        if not np.all(np.isfinite(x)):
            return None
        x = np.asarray(x, dtype=float)
        factors = []
        for i in range(len(self.blocks)):
            try:
                factors.append(np.linalg.cholesky(self.lambda_op(i, x)))
            except np.linalg.LinAlgError:
                return None
        return factors

    def barrier(self, x: np.ndarray) -> "BarrierEval":
        """Value, gradient, and Hessian of F at an interior point x."""
        x = np.asarray(x, dtype=float)
        lam_chols = self.in_interior(x)
        if lam_chols is None:
            raise NotInteriorError("x is not in the interior of the cone")
        value = 0.0
        grad = np.zeros(self.U)
        hess = np.zeros((self.U, self.U))
        for B, L in zip(self.blocks, lam_chols):
            value -= 2.0 * np.sum(np.log(np.diag(L)))
            V = scipy.linalg.solve_triangular(L, B.T, lower=True, check_finite=False)
            Q = V.T @ V  # Ptilde Lambda(x)^{-1} Ptilde^T
            grad -= np.diag(Q)
            hess += Q * Q
        return BarrierEval(self, x, value, grad, hess, lam_chols)


@dataclass
class BarrierEval:
    """Barrier data at one interior point, with cached factorizations."""

    cone: "InterpWSOSCone"
    x: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    lambda_chols: list
    _hess_chol: np.ndarray = None

    @property
    def hess_chol(self) -> np.ndarray:
        if self._hess_chol is None:
            H = self.hessian
            try:
                self._hess_chol = np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                # H is PSD up to round-off but its accumulated entries can
                # miss positive definiteness marginally at late iterates;
                # jitter at the scale of that rounding noise
                scale = float(np.mean(np.diag(H)))
                eye = np.eye(H.shape[0])
                for eps in (1e-14, 1e-12, 1e-10):
                    try:
                        self._hess_chol = np.linalg.cholesky(H + eps * scale * eye)
                        break
                    except np.linalg.LinAlgError:
                        continue
                else:
                    raise NotInteriorError("barrier Hessian not positive definite")
        return self._hess_chol

    def hess_apply(self, v: np.ndarray) -> np.ndarray:
        return self.hessian @ v

    def hess_inv_apply(self, v: np.ndarray) -> np.ndarray:
        """H(x)^{-1} v via two triangular solves against the cached factor."""
        return scipy.linalg.cho_solve((self.hess_chol, True), v, check_finite=False)

    def inv_quadform(self, v: np.ndarray) -> float:
        """v^T H(x)^{-1} v, computed as ||L^{-1} v||^2."""
        half = scipy.linalg.solve_triangular(self.hess_chol, v, lower=True,
                                             check_finite=False)
        return float(half @ half)


def build_cone(pts: PointSet, weights, degs) -> InterpWSOSCone:
    """Assemble an InterpWSOSCone from weight functions and block degrees.

    Each weight may be a callable acting on an (U, n) point array or a
    length-U array of precomputed values; values must be nonnegative at every
    point (zero rows at boundary points of the domain are accepted). For each
    block the Chebyshev Vandermonde of the stated degree is orthonormalized
    and row-scaled by sqrt of the weight values.
    """
    if len(weights) != len(degs):
        raise ConeConstructionError("need one degree per weight")
    blocks = []
    specs = []
    for i, (w, deg) in enumerate(zip(weights, degs)):
        if callable(w):
            vals = np.asarray(w(pts.points), dtype=float).reshape(pts.U)
            label = getattr(w, "label", f"g{i}")
        else:
            vals = np.asarray(w, dtype=float).reshape(pts.U)
            label = f"g{i}"
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(vals < -1e-10 * scale):
            raise ConeConstructionError(
                f"weight {label} is negative at an interpolation point; "
                "points are not inside the weight's domain"
            )
        vals = np.clip(vals, 0.0, None)  # round-off at boundary points
        P = orthonormalize(cheb_vandermonde(pts, deg))
        blocks.append(np.sqrt(vals)[:, None] * P)
        specs.append(WeightSpec(label, vals, deg))
    return InterpWSOSCone(blocks, specs)


class ProductCone:
    """Cartesian product of InterpWSOSCone factors, concatenated coordinates."""

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ConeConstructionError("product cone needs at least one factor")
        self.offsets = np.cumsum([0] + [f.U for f in self.factors])
        self.dim = int(self.offsets[-1])

    @property
    def nu(self) -> int:
        return sum(f.nu for f in self.factors)

    def slices(self):
        return [slice(self.offsets[i], self.offsets[i + 1]) for i in range(len(self.factors))]

    def barrier(self, x: np.ndarray) -> "ProductBarrierEval":
        x = np.asarray(x, dtype=float)
        evals = [f.barrier(x[sl]) for f, sl in zip(self.factors, self.slices())]
        return ProductBarrierEval(self, x, evals)


class ProductBarrierEval:
    """Blockwise barrier data for a product cone."""

    def __init__(self, cone: ProductCone, x: np.ndarray, factor_evals):
        self.cone = cone
        self.x = x
        self.factor_evals = factor_evals
        self.value = sum(e.value for e in factor_evals)
        self.gradient = np.concatenate([e.gradient for e in factor_evals])

    def hess_apply(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [e.hess_apply(v[sl]) for e, sl in zip(self.factor_evals, self.cone.slices())]
        )

    def inv_quadform(self, v: np.ndarray) -> float:
        return sum(
            e.inv_quadform(v[sl]) for e, sl in zip(self.factor_evals, self.cone.slices())
        )

    def hess_dense(self) -> np.ndarray:
        H = np.zeros((self.cone.dim, self.cone.dim))
        for e, sl in zip(self.factor_evals, self.cone.slices()):
            H[sl, sl] = e.hessian
        return H


def as_product(cone) -> ProductCone:
    """Wrap a single factor as a one-factor product, pass products through."""
    if isinstance(cone, ProductCone):
        return cone
    return ProductCone([cone])
