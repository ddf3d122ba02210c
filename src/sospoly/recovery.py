"""Recovery and verification of positive-definite Gram certificates.

Given an interior point x of the dual cone and a vector s in the primal
(weighted-SOS) cone, the matrices

    S_i = Lambda_i(x)^{-1} Lambda_i(w) Lambda_i(x)^{-1},   w = H(x)^{-1} s,

satisfy sum_i Lambda_i^*(S_i) = s identically, and are positive definite
whenever ||H(x)^{-1/2}(s + delta g(x))|| < delta for some delta > 0 -- a
condition every neighborhood iterate of the solver meets with delta = mu(z).
The solve goes through the barrier's Hessian H + eps I (``wsos.HESS_SHIFT``),
so the recovered blocks reproduce s - eps u, u the solve's result: eps is
at the scale of the rounding in H itself. Explicit decompositions into
weighted squares follow from eigendecomposing each S_i.

Verification recomputes the adjoint identity in working precision with one
gemm per block, and bounds the rounding of that evaluation at every point by
the standard inner-product and matrix-product error bounds; the bound holds
for an ordinary (non-Strassen) BLAS under the standard rounding model. A
certificate passes only when the recomputed residual plus that bound is
within the tolerance, so a tolerance below the bound can never pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .wsos import InterpWSOSCone, diag_quadform

# unit roundoff of IEEE double precision, the u of the standard model
# fl(a op b) = (a op b)(1 + delta), |delta| <= u, and the smallest positive
# subnormal, the absolute error an underflow may add
UNIT_ROUNDOFF = np.finfo(float).eps / 2
SUBNORMAL_MIN = float(np.nextafter(0.0, 1.0))


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
    """Outcome of ``verify_certificate``; ``adjoint_residual`` and ``passed``
    use the certified bound."""

    passed: bool
    adjoint_residual: float  # max_u |r_u - s_u| + beta_u, bounds the exact residual
    error_bound: float  # max_u beta_u, the rounding bound on the recomputed adjoint
    pointwise_residual: np.ndarray  # the computed r - s, without the bound
    block_psd: list
    block_shift: list  # per block, the c of ``_psd_shift``


def recover_gram(cone: InterpWSOSCone, x, s, delta, barrier=None) -> GramCertificate:
    """Gram matrices reproducing s through the adjoint cone operators.

    One Hessian solve and one pass over the blocks, with no refinement of u:
    the residual is set by rounding each S_i in the P~_i basis, which
    refining against H(x) cannot reach. ``delta`` should be mu(z) when
    (x, s) come from a solver iterate; the positivity guarantee is tied to
    that choice. ``barrier`` may pass a cached evaluation at x to reuse its
    factorizations.
    """
    s = np.asarray(s, dtype=float)
    return _certificate(cone, _gram_blocks(cone, x, s, delta, barrier), s, delta)


def _gram_blocks(cone: InterpWSOSCone, x, s: np.ndarray, delta, barrier) -> list:
    """The Gram blocks S_i of ``recover_gram``, without their certificate report."""
    if barrier is None:
        # raises NotInteriorError outside the cone
        barrier = cone.barrier(np.asarray(x, dtype=float))

    # Split S_i = delta Lambda_i(x)^{-1} + Lambda_i^{-1} Lambda_i(u) Lambda_i^{-1}
    # with u = H(x)^{-1} psi and psi = s + delta g(x). Equivalent to the direct
    # w = H^{-1}s formula (w = delta*x + u), but numerically far tighter at
    # nearly singular H: the dominant term's adjoint reproduces -delta g(x) by
    # the same floating operations that computed the gradient, and the
    # correction term is small wherever the neighborhood hypothesis holds.
    u = barrier.hess_inv_apply(s + delta * barrier.gradient)
    grams = []
    for i, L in enumerate(barrier.lambda_chols):
        lam_inv_half = scipy.linalg.solve_triangular(
            L, np.eye(L.shape[0]), lower=True, check_finite=False)
        half = scipy.linalg.cho_solve((L, True), cone.lambda_op(i, u), check_finite=False)
        corr = scipy.linalg.cho_solve((L, True), half.T, check_finite=False)
        S = delta * (lam_inv_half.T @ lam_inv_half) + 0.5 * (corr + corr.T)
        grams.append(0.5 * (S + S.T))
    return grams


def _certificate(cone: InterpWSOSCone, grams, s, delta) -> GramCertificate:
    """The certificate of ``grams`` for s: plain adjoint residual, min eigenvalues."""
    adjoint = np.zeros(cone.U)
    for i, S in enumerate(grams):
        adjoint += cone.lambda_adjoint(i, S)
    residual = float(np.max(np.abs(adjoint - s)))
    min_eigs = [float(np.linalg.eigvalsh(S)[0]) for S in grams]
    return GramCertificate(grams, residual, min_eigs, float(delta))


def lower_bound_certificate(cone: InterpWSOSCone, iterate, c, lb,
                            barrier=None) -> tuple[GramCertificate, np.ndarray]:
    """Certificate that the polynomial with point values c - lb is WSOS.

    For bound problems (A = 1^T, dual objective y/tau), the target
    c - lb splits exactly as (tau c - y 1)/tau + (y/tau - lb) 1. The first
    part, the exact dual slack of the bound, is recovered at the raw
    iterate's x with delta = mu, where the recovery pipeline is most
    accurate; it differs from the iterate's s by the dual residual, so the
    certified residual sits at rounding level rather than at the scale of
    mu. The constant shift is certified exactly by a rank-one update in the
    final (unit-weight) block, whose column span must contain the constant
    polynomial. Requires lb <= y/tau.

    Returns the certificate and the certified value vector c - lb.
    """
    if not math.isfinite(lb):
        raise ValueError(f"lb must be a finite number, got {lb!r}")
    z = iterate
    shift = float(z.y[0]) / z.tau - lb
    if shift < 0:
        raise ValueError("lb must not exceed the solved bound")
    ones = np.ones(cone.U)
    q = cone.blocks[-1].T @ ones
    if np.max(np.abs(cone.blocks[-1] @ q - ones)) > 1e-10:
        raise ValueError("final block does not span the constant polynomial")
    slack = z.tau * np.asarray(c, dtype=float) - float(z.y[0]) * ones
    grams = [S / z.tau for S in _gram_blocks(cone, z.x, slack, z.mu, barrier)]
    grams[-1] = grams[-1] + shift * np.outer(q, q)
    s_cert = np.asarray(c, dtype=float) - lb
    return _certificate(cone, grams, s_cert, z.mu / z.tau**2), s_cert


def _psd_shift(S: np.ndarray) -> float:
    """Rump's shift c (BIT 2006): a floating-point Cholesky of S - cI that
    succeeds proves S positive definite.

    A completed Cholesky R of fl(S - cI) has R^T R = fl(S - cI) + E with
    ||E||_2 <= gamma_{L+1} / (1 - gamma_{L+1}) tr(S); c is twice that, to
    cover the rounding of the shift and of c, plus an underflow term. The
    diagonal enters by absolute value, so that c > 0 for any S.
    """
    L = S.shape[0]
    gamma = (L + 1) * UNIT_ROUNDOFF / (1.0 - (L + 1) * UNIT_ROUNDOFF)
    diag = np.abs(np.diag(S))
    return (2.0 * gamma / (1.0 - gamma) * float(np.sum(diag))
            + 4.0 * SUBNORMAL_MIN * (2 * (L + 1) + float(np.max(diag))))


def _adjoint_with_bound(cone: InterpWSOSCone, grams) -> tuple[np.ndarray, np.ndarray]:
    """sum_i Lambda_i^*(S_i) at every point, and a bound on its rounding error.

    Both sums take one gemm and one rowwise dot per block (``diag_quadform``);
    the bound is ``verify_certificate``'s beta.
    """
    adjoint = np.zeros(cone.U)
    magnitude = np.zeros(cone.U)
    for i, S in enumerate(grams):
        adjoint += cone.lambda_adjoint(i, S)
        magnitude += diag_quadform(np.abs(cone.blocks[i]), np.abs(S))
    k = 2 * max(cone.dims) + len(cone.dims)
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    return adjoint, 2.0 * gamma * magnitude


def verify_certificate(cone: InterpWSOSCone, s, cert: GramCertificate,
                       tol: float = 1e-8) -> VerificationReport:
    """Independent certificate check, with a rigorous bound on its own rounding.

    Recomputes r = sum_i Lambda_i^*(S_i) with one gemm per block, as the
    row sums of (Ptilde_i S_i)∘Ptilde_i, and bounds its rounding at every
    point by

        beta_u = 2 gamma_k sum_i diag(|Ptilde_i| |S_i| |Ptilde_i|^T)_u,
        gamma_k = k u / (1 - k u),   k = 2 max_i L_i + m,

    with u = 2^-53 and m blocks. Each term of r_u meets at most L_i
    roundings in the gemm's inner product, one in the product with
    Ptilde_i, L_i - 1 in the row sum and m in the sum over blocks; the
    inner-product and matrix-product bounds (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1 and 3.5) then give
    |r_u - exact_u| <= gamma_k times the same sum of absolute terms, and
    the factor 2 covers the rounding of beta itself. The bound assumes the
    standard model of floating-point arithmetic, no underflow, and a BLAS
    that multiplies matrices by inner products in any order (an ordinary
    BLAS, not a Strassen-like fast product).

    ``adjoint_residual`` is the certified residual max_u(|r_u - s_u| +
    beta_u), an upper bound on the exact one; ``error_bound`` is max_u
    beta_u and ``pointwise_residual`` the computed r - s. The certificate
    passes when every block is verified positive definite (exactly
    symmetric, with a Cholesky of S - cI that succeeds, c = ``_psd_shift(S)``)
    and the certified residual is at most tol (1 + ||s||_inf),
    lowered by 6u for the roundings of that comparison, so that a pass
    means the exact adjoint identity holds to tol (1 + ||s||_inf). A tol
    whose limit is below the bound can never pass.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    s = np.asarray(s, dtype=float)
    recomputed, bound = _adjoint_with_bound(cone, cert.grams)
    pointwise = recomputed - s
    residual = float(np.max(np.abs(pointwise) + bound))
    block_shift = [_psd_shift(S) for S in cert.grams]
    block_psd = []
    for S, c in zip(cert.grams, block_shift):
        shifted = np.array(S, dtype=float, order="F")
        shifted[np.diag_indices_from(shifted)] -= c
        info = scipy.linalg.lapack.dpotrf(shifted, lower=1, overwrite_a=1, clean=0)[1]
        block_psd.append(info == 0 and np.array_equal(S, S.T))
    limit = tol * (1.0 + float(np.max(np.abs(s)))) * (1.0 - 6.0 * UNIT_ROUNDOFF)
    passed = bool(all(block_psd) and residual <= limit)
    return VerificationReport(passed, residual, float(np.max(bound)), pointwise,
                              block_psd, block_shift)


def sos_terms(cert: GramCertificate, cone: InterpWSOSCone) -> SosDecomposition:
    """Split each Gram matrix into explicit squared-polynomial coefficients.

    Eigenvalues in [-c, 0), c = ``_psd_shift(S)`` (relative to the block's
    trace), are treated as round-off and clipped to zero; anything below -c
    means the block is genuinely not PSD.
    """
    terms = []
    for S in cert.grams:
        eigvals, eigvecs = np.linalg.eigh(S)
        shift = _psd_shift(S)
        if eigvals[0] < -shift:
            raise ValueError(
                f"Gram block is not PSD (eigenvalue {eigvals[0]:.3e} < -{shift:.3e})"
            )
        eigvals = np.clip(eigvals, 0.0, None)
        keep = eigvals > 0.0
        terms.append((np.sqrt(eigvals[keep])[:, None] * eigvecs[:, keep].T))
    return SosDecomposition(terms)
