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

    One Hessian solve and one pass over the blocks, with no refinement of u:
    the residual is set by rounding each S_i in the P~_i basis, which
    refining against H(x) cannot reach. ``delta`` should be mu(z) when
    (x, s) come from a solver iterate; the positivity guarantee is tied to
    that choice. ``barrier`` may pass a cached evaluation at x to reuse its
    factorizations.
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
    u = barrier.hess_inv_apply(s + delta * barrier.gradient)
    grams = []
    for i, L in enumerate(barrier.lambda_chols):
        lam_inv_half = scipy.linalg.solve_triangular(
            L, np.eye(L.shape[0]), lower=True, check_finite=False)
        half = scipy.linalg.cho_solve((L, True), cone.lambda_op(i, u), check_finite=False)
        corr = scipy.linalg.cho_solve((L, True), half.T, check_finite=False)
        S = delta * (lam_inv_half.T @ lam_inv_half) + 0.5 * (corr + corr.T)
        grams.append(0.5 * (S + S.T))
    return _certificate(cone, grams, s, delta)


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
    c - lb splits as s/tau + (y/tau - lb) * 1 + dual residual. The first
    part is recovered from the raw iterate, where the recovery pipeline is
    most accurate; the constant shift is certified exactly by a rank-one
    update in the final (unit-weight) block, whose column span must contain
    the constant polynomial. Requires lb <= y/tau.

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
    cert = recover_gram(cone, z.x, z.s, z.mu, barrier=barrier)
    grams = [S / z.tau for S in cert.grams]
    grams[-1] = grams[-1] + shift * np.outer(q, q)
    s_cert = np.asarray(c, dtype=float) - lb
    return _certificate(cone, grams, s_cert, z.mu / z.tau**2), s_cert


# the compensated adjoint sum takes its points in chunks of about this many
# terms, which bounds its scratch arrays
_SUM_CHUNK_TERMS = 1 << 18


def _sum2_rows(P: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Compensated sum of each row of P (destroyed), Sum2 over a pairwise tree.

    Each pass adds the two halves of the remaining columns with TwoSum
    (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 2005), an odd column
    carried over; the exact rounding errors are summed on the side and
    added once at the end. The result is as accurate as if summed in twice
    the working precision and then rounded:
    |result - sum| <= eps |sum| + gamma_{m-1}^2 sum |p|, m terms per row.
    ``scratch``, two arrays of at least P's rows and half its columns,
    holds every pass's temporaries.
    """
    rows, m = P.shape
    t_buf, z_buf = scratch
    err = np.zeros(rows)
    while m > 1:
        h = m // 2
        a, b = P[:, :h], P[:, h:2 * h]
        t, z = t_buf[:rows, :h], z_buf[:rows, :h]
        np.add(a, b, out=t)
        np.subtract(t, a, out=z)
        np.subtract(b, z, out=b)  # b's columns are not read again
        np.subtract(t, z, out=z)
        np.subtract(a, z, out=z)
        z += b                    # (a - (t - z)) + (b - z), the TwoSum error
        err += z.sum(axis=1)
        a[...] = t
        if m % 2:
            P[:, h] = P[:, m - 1]
        m = h + m % 2
    return P[:, 0] + err


def _compensated_adjoint_sum(cone: InterpWSOSCone, grams) -> np.ndarray:
    """sum_i diag(Ptilde_i S_i Ptilde_i^T) with compensated (Sum2) accumulation.

    Every term is the rounded product (B[u, a] * S[a, b]) * B[u, b]; the
    terms of one point are summed by :func:`_sum2_rows`, chunks of points
    at a time. One term buffer and the two scratch buffers of the sum are
    allocated once and reused by every chunk; the scratch also holds each
    block's first products, since an in-place product on a strided block
    of the term buffer would make numpy copy it.
    """
    width = sum(S.size for S in grams)
    chunk = max(1, _SUM_CHUNK_TERMS // width)
    rows = min(chunk, cone.U)
    terms = np.empty((rows, width))
    scratch = np.empty((2, rows, (width + 1) // 2))  # holds rows * width
    out = np.empty(cone.U)
    for lo in range(0, cone.U, chunk):
        hi = min(lo + chunk, cone.U)
        P = terms[:hi - lo]
        col = 0
        for B, S in zip(cone.blocks, grams):
            left = scratch.reshape(-1)[:(hi - lo) * S.size].reshape(hi - lo, *S.shape)
            np.multiply(B[lo:hi, :, None], S, out=left)
            np.multiply(left, B[lo:hi, None, :],
                        out=P[:, col:col + S.size].reshape(hi - lo, *S.shape))
            col += S.size
        out[lo:hi] = _sum2_rows(P, scratch)
    return out


def _ldl_min_pivot(S: np.ndarray) -> tuple[bool, float]:
    """PSD check via LDL: smallest eigenvalue of the 1x1/2x2 block-diagonal D."""
    _, D, _ = scipy.linalg.ldl(S)
    min_pivot = float(np.linalg.eigvalsh(D)[0])
    return min_pivot >= -PIVOT_TOL, min_pivot


def verify_certificate(cone: InterpWSOSCone, s, cert: GramCertificate,
                       tol: float = 1e-8) -> VerificationReport:
    """Independent certificate check in compensated floating point.

    Recomputes the adjoint identity sum_i Lambda_i^*(S_i) = s with
    compensated (Sum2) summation and tests positive semidefiniteness of each block via LDL
    factorization; the pointwise identity is reported at all U points.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
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
