"""Dual weighted-SOS cones in the interpolant basis and their barrier oracle.

A cone lives in R^U, U the number of interpolation points, and is described
by m scaled basis matrices Ptilde_i = diag(sqrt(g_i(t_1)), ...) P_i with P_i
column-orthonormal. Membership, the log-det barrier F(x), its gradient and
Hessian, and the Lambda_i / Lambda_i^* operators are all expressed through
Ptilde_i, so weighted and unweighted blocks share one code path:

    Lambda_i(x) = Ptilde_i^T diag(x) Ptilde_i.

The barrier is F(x) = -sum_i ln det Lambda_i(x) with parameter nu = sum_i L_i.
Gradient and Hessian cost O(sum_i L_i U^2) per evaluation. The Hessian the
oracle hands out, factors and applies is the one matrix H + eps I, with
eps = HESS_SHIFT * mean(diag H): the formed sum H is PSD only up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm

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


def diag_quadform(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """diag(B S B^T) as the row sums of (B S)∘B: one gemm and a rowwise dot."""
    return np.einsum("ij,ij->i", B @ S, B)


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
        return diag_quadform(self.blocks[i], np.asarray(S, dtype=float))

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
        the Hessian sum (V^T V)∘(V^T V) + eps I are formed from them when
        first read.
        V is the transpose of the right-side triangular solve
        V^T = Ptilde L^{-T} (BLAS dtrsm on the U x L block as stored): the
        same substitution as solving L V = Ptilde^T, at about half the time.
        """
        x = np.asarray(x, dtype=float)
        lam_chols = self.in_interior(x)
        if lam_chols is None:
            raise NotInteriorError("x is not in the interior of the cone")
        value = 0.0
        halves = []
        for B, L in zip(self.blocks, lam_chols):
            value -= 2.0 * np.sum(np.log(np.diag(L)))
            halves.append(dtrsm(1.0, L, B, side=1, lower=1, trans_a=1).T)
        return BarrierEval(self, x, value, lam_chols, halves)


# relative diagonal shift (times the mean diagonal of H) that the barrier
# adds to every Hessian it forms
HESS_SHIFT = 1e-14
# the screen bound's allowance, per unit of diag H, for the rounding of the
# formed Hessian: its entries err by about eps * sqrt(H_jj H_kk) with signs
# that largely cancel, so along w its w^T H w departs from the blockwise one
# by about eps * sum_j H_jj w_j^2; the bound allows twice that
HESS_ROUNDING = 2.0 * np.finfo(float).eps


@dataclass
class BarrierEval:
    """Barrier data at one interior point, with cached factorizations.

    Each block's V = L^{-1} Ptilde^T is kept in ``_halves`` for the life of
    the evaluation: the gradient and the Hessian are each formed from them
    on first read, one without the other (the start reads only the
    gradient), ``inv_quadform_lower_bound`` bounds the local norm from them
    alone, and ``third_order`` applies the third derivative with them.
    """

    cone: "InterpWSOSCone"
    x: np.ndarray
    value: float
    lambda_chols: list
    _halves: list = None
    _gradient: np.ndarray = None
    _hessian: np.ndarray = None
    _hess_chol: np.ndarray = None

    def _form_gradient(self):
        """g = -sum_i colsum(V_i∘V_i), O(sum_i L_i U): no Hessian is formed."""
        grad = np.zeros(self.cone.U)
        for V in self._halves:
            grad -= np.einsum("ij,ij->j", V, V)  # as inv_quadform_lower_bound sums it
        self._gradient = grad

    def _form_hessian(self):
        """H + eps I with H = sum_i (V_i^T V_i)∘(V_i^T V_i), O(sum_i L_i U^2)."""
        U = self.cone.U
        hess = np.zeros((U, U))
        Q = np.empty_like(hess)  # the one U x U temporary, reused per block
        for V in self._halves:
            np.matmul(V.T, V, out=Q)  # Ptilde Lambda(x)^{-1} Ptilde^T
            np.multiply(Q, Q, out=Q)
            hess += Q
        # the accumulated sum is PSD only up to round-off and can miss
        # positive definiteness at late iterates; one shift at the scale of
        # that rounding makes the Hessian every caller reads H + eps I
        hess.flat[::U + 1] += HESS_SHIFT * float(np.mean(np.diag(hess)))
        self._hessian = hess

    @property
    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            self._form_gradient()
        return self._gradient

    @property
    def hessian(self) -> np.ndarray:
        if self._hessian is None:
            self._form_hessian()
        return self._hessian

    @property
    def hess_chol(self) -> np.ndarray:
        if self._hess_chol is None:
            try:
                self._hess_chol = np.linalg.cholesky(self.hessian)
            except np.linalg.LinAlgError:
                raise NotInteriorError("barrier Hessian not positive definite") from None
        return self._hess_chol

    def hess_apply(self, v: np.ndarray) -> np.ndarray:
        return self.hessian @ v

    def third_order(self, d: np.ndarray) -> np.ndarray:
        """The third derivative along d twice, nabla^3 F(x)[d, d].

        With Q = V^T V = Ptilde Lambda(x)^{-1} Ptilde^T, the Hessian times d
        is (Q∘Q) d, and differentiating along d, where Q moves by
        -V^T W V with W = V diag(d) V^T = L^{-1} Lambda(d) L^{-T}, gives
        -2 diag(V^T W^2 V) per block: the column sums of (W V)∘(W V),
        O(L^2 U) per block from the kept V blocks, with no U x U product.
        """
        out = np.zeros(self.cone.U)
        for V in self._halves:
            WV = ((V * d) @ V.T) @ V
            out -= 2.0 * np.einsum("ij,ij->j", WV, WV)
        return out

    def hess_inv_apply(self, v: np.ndarray) -> np.ndarray:
        """H(x)^{-1} v via two triangular solves against the cached factor.

        The C-ordered lower factor goes to LAPACK as its Fortran-ordered
        upper transpose, which spares a U x U copy per call.
        """
        return scipy.linalg.cho_solve((self.hess_chol.T, False), v, check_finite=False)

    def inv_quadform(self, v: np.ndarray) -> float:
        """v^T H(x)^{-1} v, computed as ||L^{-1} v||^2."""
        half = scipy.linalg.solve_triangular(self.hess_chol, v, lower=True,
                                             check_finite=False)
        return float(half @ half)

    def centrality(self, s: np.ndarray, mu: float) -> tuple[np.ndarray, float]:
        """psi = s + mu g and its term psi^T H^{-1} psi, forming and factoring H.

        The one place a factor's term of the proximity is formed, for the
        Hessian stage of an iterate and for a predictor trial alike.
        """
        psi = s + mu * self.gradient
        return psi, self.inv_quadform(psi)

    def inv_quadform_lower_bound(self, s: np.ndarray, mu: float,
                                 reference: "BarrierEval") -> float:
        """Lower bound on psi^T (H + eps I)^{-1} psi, psi = s + mu g, without H.

        H + eps I, eps = HESS_SHIFT * mean(diag H), is the Hessian that
        ``hessian`` forms and ``hess_chol`` factors. With
        D = eps I + HESS_ROUNDING * diag(H), any w gives

            psi^T (H + eps I)^{-1} psi >= (w^T psi)^2 / w^T (H + D) w,

        and w^T H w = sum_i ||V_i diag(w) V_i^T||_F^2 costs O(sum_i L_i^2 U)
        against O(sum_i L_i U^2) for H. The HESS_ROUNDING term covers the
        rounding in which the formed Hessian, whose factor gives the exact
        norm, differs from that blockwise form along w. The bound is taken
        for w = reference.hess_inv_apply(psi), tight when the reference
        factor is close to H + eps I. g is the formed gradient, the column
        sums -sum_i colsum(V_i∘V_i); diag H is sum_i colsum(V_i∘V_i)^2, equal
        to the formed one up to rounding, so a caller comparing the bound
        with a threshold needs a small relative margin.
        """
        diag_q = [np.einsum("ij,ij->j", V, V) for V in self._halves]
        diag_h = sum(d * d for d in diag_q)
        psi = s - mu * sum(diag_q)
        w = reference.hess_inv_apply(psi)
        w_psi = float(w @ psi)
        if w_psi == 0.0:
            return 0.0
        D = HESS_SHIFT * float(np.mean(diag_h)) + HESS_ROUNDING * diag_h
        w_hw = sum(float(np.sum(M * M)) for M in ((V * w) @ V.T for V in self._halves))
        return w_psi * w_psi / (w_hw + float(D @ (w * w)))


def build_cone(pts: PointSet, weights, degs) -> InterpWSOSCone:
    """Assemble an InterpWSOSCone from weight functions and block degrees.

    Each weight may be a callable acting on an (U, n) point array or a
    length-U array of precomputed values; values must be nonnegative at every
    point (zero rows at boundary points of the domain are accepted). For each
    block the Chebyshev Vandermonde of the stated degree is orthonormalized
    and row-scaled by sqrt of the weight values. Blocks of equal degree share
    one orthonormal basis, filled and factored once per call: the basis
    depends only on the points and the degree, so each block has the bits it
    would have with a QR of its own.
    """
    if len(weights) != len(degs):
        raise ConeConstructionError("need one degree per weight")
    bases = {}
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
        if deg not in bases:
            bases[deg] = orthonormalize(cheb_vandermonde(pts, deg))
        blocks.append(np.sqrt(vals)[:, None] * bases[deg])
        specs.append(WeightSpec(label, vals, deg))
    return InterpWSOSCone(blocks, specs)


# smallest factor size U at which a predictor trial screens the factor
# before its Hessian (hsd.make_iterate), decided factor by factor. At n=1,
# L ~ U/2 makes the screen's O(sum_i L_i^2 U) bound cost about half a
# Hessian stage, so on small factors it cost more than it spared
# (envelope-1d, U = 201: 187 screen calls sparing 40 factor Hessian
# stages), while envelope-3d (U = 455) keeps it
SCREEN_MIN_U = 360


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

    def third_order(self, d: np.ndarray) -> np.ndarray:
        """nabla^3 F(x)[d, d], factor by factor (BarrierEval.third_order)."""
        return np.concatenate(
            [e.third_order(d[sl]) for e, sl in zip(self.factor_evals, self.cone.slices())]
        )


def as_product(cone) -> ProductCone:
    """Wrap a single factor as a one-factor product, pass products through."""
    if isinstance(cone, ProductCone):
        return cone
    return ProductCone([cone])
