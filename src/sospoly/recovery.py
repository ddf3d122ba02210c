"""Recovery and verification of positive-definite Gram certificates.

Given an interior point x of the dual cone and a vector s in the primal
(weighted-SOS) cone, the matrices

    S_i = Lambda_i(x)^{-1} Lambda_i(w) Lambda_i(x)^{-1},   w = H(x)^{-1} s,

satisfy sum_i Lambda_i^*(S_i) = s identically, and are positive definite
whenever ||H(x)^{-1/2}(s + delta g(x))|| < delta for some delta > 0 -- a
condition every neighborhood iterate of the solver meets with delta = mu(z).
Explicit decompositions into weighted squares follow from eigendecomposing
each S_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .wsos import InterpWSOSCone

# most negative LDL pivot a PSD Gram block may show, and the eigenvalue floor
# below which sos_terms calls a block not PSD rather than round-off
PIVOT_TOL = 1e-10
EIG_CLIP = 1e-10


@dataclass
class GramCertificate:
    """Per-block symmetric Gram matrices with their residual/eigenvalue report."""

    grams: list
    adjoint_residual: float
    min_eigenvalues: list
    delta: float


@dataclass
class SosDecomposition:
    """Coefficient vectors of polynomials whose weighted squares sum to s."""

    terms: list  # per block: array of shape (n_terms, L_i)

    def values_at_points(self, cone: InterpWSOSCone) -> np.ndarray:
        """sum_i g_i(t_u) sum_j (term_ij . p_i(t_u))^2 at every point."""
        out = np.zeros(cone.U)
        for B, T in zip(cone.blocks, self.terms):
            if T.size:
                out += np.sum((B @ T.T) ** 2, axis=1)
        return out


@dataclass
class VerificationReport:
    passed: bool
    adjoint_residual: float
    pointwise_residual: np.ndarray
    block_psd: list
    block_min_pivot: list


def recover_gram(cone: InterpWSOSCone, x, s, delta, barrier=None) -> GramCertificate:
    """Gram matrices reproducing s through the adjoint cone operators.

    ``delta`` should be mu(z) when (x, s) come from a solver iterate; the
    positivity guarantee is tied to that choice. ``barrier`` may pass a
    cached evaluation at x to reuse its factorizations.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if barrier is None:
        barrier = cone.barrier(x)  # raises NotInteriorError outside the cone

    # Split S_i = delta Lambda_i(x)^{-1} + Lambda_i^{-1} Lambda_i(u) Lambda_i^{-1}
    # with u = H(x)^{-1} psi and psi = s + delta g(x). Equivalent to the direct
    # w = H^{-1}s formula (w = delta*x + u), but numerically far tighter at
    # nearly singular H: the dominant term's adjoint reproduces -delta g(x) by
    # the same floating operations that computed the gradient, and the
    # correction term is small wherever the neighborhood hypothesis holds.
    psi = s + delta * barrier.gradient
    u = barrier.hess_inv_apply(psi)
    best_u, best_res = u, float(np.linalg.norm(barrier.hess_apply(u) - psi))
    for _ in range(10):
        du = barrier.hess_inv_apply(psi - barrier.hess_apply(u))
        if not np.all(np.isfinite(du)):
            break
        u = u + du
        res = float(np.linalg.norm(barrier.hess_apply(u) - psi))
        if res < best_res:
            best_u, best_res = u, res
        else:
            break
    u = best_u

    grams = []
    adjoint = np.zeros(cone.U)
    min_eigs = []
    for i, (B, L) in enumerate(zip(cone.blocks, barrier.lambda_chols)):
        lam_inv_half = scipy.linalg.solve_triangular(
            L, np.eye(L.shape[0]), lower=True, check_finite=False)
        lam_u = cone.lambda_op(i, u)
        half = scipy.linalg.cho_solve((L, True), lam_u, check_finite=False)
        corr = scipy.linalg.cho_solve((L, True), half.T, check_finite=False)
        S = delta * (lam_inv_half.T @ lam_inv_half) + 0.5 * (corr + corr.T)
        S = 0.5 * (S + S.T)
        grams.append(S)
        adjoint += cone.lambda_adjoint(i, S)
        min_eigs.append(float(np.linalg.eigvalsh(S)[0]))
    residual = float(np.max(np.abs(adjoint - s)))
    return GramCertificate(grams, residual, min_eigs, float(delta))


def lower_bound_certificate(cone: InterpWSOSCone, iterate, c, lb,
                            barrier=None) -> tuple[GramCertificate, np.ndarray]:
    """Certificate that the polynomial with point values c - lb is WSOS.

    For bound problems (A = 1^T, dual objective y/tau), the target
    c - lb splits as s/tau + (y/tau - lb) * 1 + dual residual. The first
    part is recovered from the raw iterate, where the recovery pipeline is
    most accurate; the constant shift is certified exactly by a rank-one
    update in the final (unit-weight) block, whose column span must contain
    the constant polynomial. Requires lb <= y/tau.

    Returns the certificate and the certified value vector c - lb.
    """
    z = iterate
    shift = float(z.y[0]) / z.tau - lb
    if shift < 0:
        raise ValueError("lb must not exceed the solved bound")
    ones = np.ones(cone.U)
    q = cone.blocks[-1].T @ ones
    if np.max(np.abs(cone.blocks[-1] @ q - ones)) > 1e-10:
        raise ValueError("final block does not span the constant polynomial")
    cert = recover_gram(cone, z.x, z.s, z.mu, barrier=barrier)
    grams = [S / z.tau for S in cert.grams]
    grams[-1] = grams[-1] + shift * np.outer(q, q)
    s_cert = np.asarray(c, dtype=float) - lb
    adjoint = np.zeros(cone.U)
    for i, S in enumerate(grams):
        adjoint += cone.lambda_adjoint(i, S)
    residual = float(np.max(np.abs(adjoint - s_cert)))
    min_eigs = [float(np.linalg.eigvalsh(S)[0]) for S in grams]
    return GramCertificate(grams, residual, min_eigs, z.mu / z.tau**2), s_cert


def _compensated_adjoint_sum(cone: InterpWSOSCone, grams) -> np.ndarray:
    """sum_i diag(Ptilde_i S_i Ptilde_i^T) with exact (fsum) accumulation."""
    out = np.empty(cone.U)
    for u in range(cone.U):
        parts = []
        for B, S in zip(cone.blocks, grams):
            row = B[u]
            parts.extend((row[:, None] * S * row[None, :]).ravel())
        out[u] = math.fsum(parts)
    return out


def _ldl_min_pivot(S: np.ndarray) -> tuple[bool, float]:
    """PSD check via LDL: smallest eigenvalue over the 1x1/2x2 pivot blocks."""
    _, D, _ = scipy.linalg.ldl(S)
    min_pivot = math.inf
    j = 0
    L = D.shape[0]
    while j < L:
        if j + 1 < L and (D[j, j + 1] != 0.0 or D[j + 1, j] != 0.0):
            eigs = np.linalg.eigvalsh(D[j:j + 2, j:j + 2])
            min_pivot = min(min_pivot, float(eigs[0]))
            j += 2
        else:
            min_pivot = min(min_pivot, float(D[j, j]))
            j += 1
    return min_pivot >= -PIVOT_TOL, min_pivot


def verify_certificate(cone: InterpWSOSCone, s, cert: GramCertificate,
                       tol: float = 1e-8) -> VerificationReport:
    """Independent certificate check in compensated floating point.

    Recomputes the adjoint identity sum_i Lambda_i^*(S_i) = s with exact
    summation and tests positive semidefiniteness of each block via LDL
    factorization; the pointwise identity is reported at all U points.
    """
    s = np.asarray(s, dtype=float)
    recomputed = _compensated_adjoint_sum(cone, cert.grams)
    pointwise = recomputed - s
    residual = float(np.max(np.abs(pointwise)))
    block_psd = []
    block_min_pivot = []
    for S in cert.grams:
        ok, piv = _ldl_min_pivot(S)
        block_psd.append(ok)
        block_min_pivot.append(piv)
    passed = bool(all(block_psd) and residual <= tol * (1.0 + np.linalg.norm(s, np.inf)))
    return VerificationReport(passed, residual, pointwise, block_psd, block_min_pivot)


def sos_terms(cert: GramCertificate, cone: InterpWSOSCone) -> SosDecomposition:
    """Split each Gram matrix into explicit squared-polynomial coefficients.

    Eigenvalues in [-EIG_CLIP, 0) are treated as round-off and clipped to
    zero; anything below -EIG_CLIP means the block is genuinely not PSD.
    """
    terms = []
    for S in cert.grams:
        eigvals, eigvecs = np.linalg.eigh(S)
        if eigvals[0] < -EIG_CLIP:
            raise ValueError(
                f"Gram block is not PSD (eigenvalue {eigvals[0]:.3e} < -{EIG_CLIP:.0e})"
            )
        eigvals = np.clip(eigvals, 0.0, None)
        keep = eigvals > 0.0
        terms.append((np.sqrt(eigvals[keep])[:, None] * eigvecs[:, keep].T))
    return SosDecomposition(terms)
