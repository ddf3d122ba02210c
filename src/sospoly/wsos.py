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
        """Barrier data at an interior point x: value now, derivatives on first use.

        Computes the value and each block's V = L^{-1} Ptilde^T from the
        Cholesky factor L of Lambda(x); the gradient -sum diag(V^T V) and
        the Hessian sum (V^T V)∘(V^T V) are formed from them when first read.
        """
        x = np.asarray(x, dtype=float)
        lam_chols = self.in_interior(x)
        if lam_chols is None:
            raise NotInteriorError("x is not in the interior of the cone")
        value = 0.0
        halves = []
        for B, L in zip(self.blocks, lam_chols):
            value -= 2.0 * np.sum(np.log(np.diag(L)))
            halves.append(scipy.linalg.solve_triangular(L, B.T, lower=True,
                                                        check_finite=False))
        return BarrierEval(self, x, value, lam_chols, halves)


# relative diagonal shifts (times the mean diagonal of H) that hess_chol tries
# when the plain Cholesky of the Hessian fails
JITTER_LADDER = (1e-14, 1e-12, 1e-10)


@dataclass
class BarrierEval:
    """Barrier data at one interior point, with cached factorizations.

    Until the gradient or the Hessian is first read, each block's
    V = L^{-1} Ptilde^T is kept in ``_halves``; forming them drops the V
    blocks. Before that, ``inv_quadform_lower_bound`` bounds the local norm
    from the V blocks alone.
    """

    cone: "InterpWSOSCone"
    x: np.ndarray
    value: float
    lambda_chols: list
    _halves: list = None
    _gradient: np.ndarray = None
    _hessian: np.ndarray = None
    _hess_chol: np.ndarray = None
    # relative diagonal shift (times the mean diagonal of H) that hess_chol
    # needed: 0.0 for a plain Cholesky, None until hess_chol has run
    hess_jitter: float | None = None

    def _form_derivatives(self):
        grad = np.zeros(self.cone.U)
        hess = np.zeros((self.cone.U, self.cone.U))
        for V in self._halves:
            Q = V.T @ V  # Ptilde Lambda(x)^{-1} Ptilde^T
            grad -= np.diag(Q)
            hess += Q * Q
        self._gradient, self._hessian, self._halves = grad, hess, None

    @property
    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            self._form_derivatives()
        return self._gradient

    @property
    def hessian(self) -> np.ndarray:
        if self._hessian is None:
            self._form_derivatives()
        return self._hessian

    @property
    def hess_chol(self) -> np.ndarray:
        if self._hess_chol is None:
            H = self.hessian
            try:
                self._hess_chol = np.linalg.cholesky(H)
                self.hess_jitter = 0.0
            except np.linalg.LinAlgError:
                # H is PSD up to round-off but its accumulated entries can
                # miss positive definiteness marginally at late iterates;
                # jitter at the scale of that rounding noise
                scale = float(np.mean(np.diag(H)))
                eye = np.eye(H.shape[0])
                for eps in JITTER_LADDER:
                    try:
                        self._hess_chol = np.linalg.cholesky(H + eps * scale * eye)
                        self.hess_jitter = eps
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

    def inv_quadform_lower_bound(self, s: np.ndarray, mu: float,
                                 reference: "BarrierEval") -> float:
        """Lower bound on psi^T (H + eps I)^{-1} psi, psi = s + mu g, without H.

        Holds for every diagonal shift eps that ``hess_chol`` may add. With
        w = reference.hess_inv_apply(psi), any w gives

            psi^T (H + eps I)^{-1} psi >= (w^T psi)^2 / w^T (H + eps I) w,

        tight when the reference Hessian is close to H, and
        w^T H w = sum_i ||V_i diag(w) V_i^T||_F^2 costs O(sum_i L_i^2 U)
        against O(sum_i L_i U^2) for H. g and diag H are taken as the
        column sums -sum_i colsum(V_i∘V_i) and sum_i colsum(V_i∘V_i)^2,
        equal to the formed ones up to rounding, so a caller comparing the
        bound with a threshold needs a small relative margin. Must be
        called before the gradient or Hessian is read.
        """
        diag_q = [np.einsum("ij,ij->j", V, V) for V in self._halves]
        psi = s - mu * sum(diag_q)
        w = reference.hess_inv_apply(psi)
        w_psi = float(w @ psi)
        if w_psi == 0.0:
            return 0.0
        w_hess_w = 0.0
        for V in self._halves:
            M = (V * w) @ V.T
            w_hess_w += float(np.sum(M * M))
        shift = JITTER_LADDER[-1] * float(np.mean(sum(d * d for d in diag_q)))
        return w_psi * w_psi / (w_hess_w + shift * float(w @ w))


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

    @property
    def gradient(self) -> np.ndarray:
        return np.concatenate([e.gradient for e in self.factor_evals])

    def hess_apply(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [e.hess_apply(v[sl]) for e, sl in zip(self.factor_evals, self.cone.slices())]
        )

    def inv_quadform(self, v: np.ndarray) -> float:
        return sum(
            e.inv_quadform(v[sl]) for e, sl in zip(self.factor_evals, self.cone.slices())
        )

    @property
    def jittered(self) -> bool:
        """Whether a factor's Hessian Cholesky so far needed a diagonal shift."""
        return any(e.hess_jitter for e in self.factor_evals)


def as_product(cone) -> ProductCone:
    """Wrap a single factor as a one-factor product, pass products through."""
    if isinstance(cone, ProductCone):
        return cone
    return ProductCone([cone])
