"""Interpolation point sets, Chebyshev Vandermonde matrices, and quadrature.

Everything here works on axis-aligned boxes. Point generators produce sets
that are unisolvent for the total-degree polynomial space they target, so
that values at the points determine the polynomial uniquely. Multivariate
bases are tensor-product Chebyshev polynomials ordered by graded
lexicographic multi-index (total degree first, then lexicographic on the
exponent tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack


class UnisolvencyError(ValueError):
    """Raised when a point set cannot support the requested basis."""


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box prod_j [lower_j, upper_j]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.size

    @staticmethod
    def unit(n: int) -> "BoxDomain":
        return BoxDomain(-np.ones(n), np.ones(n))

    def is_unit(self, tol: float = 1e-12) -> bool:
        return bool(
            np.all(np.abs(self.lower + 1.0) <= tol)
            and np.all(np.abs(self.upper - 1.0) <= tol)
        )

    def to_unit(self, points: np.ndarray) -> np.ndarray:
        """Affine map of points in this box onto [-1, 1]^n."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return 2.0 * (points - self.lower) / (self.upper - self.lower) - 1.0

    def from_unit(self, points: np.ndarray) -> np.ndarray:
        """Affine map of points in [-1, 1]^n into this box."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.lower + (self.upper - self.lower) * (points + 1.0) / 2.0

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(
            np.all(points >= self.lower - tol) and np.all(points <= self.upper + tol)
        )


@dataclass(frozen=True)
class PointSet:
    """Ordered interpolation points, shape (U, n), with their domain box."""

    points: np.ndarray
    box: BoxDomain = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("points must be a nonempty (U, n) array")
        box = self.box if self.box is not None else BoxDomain.unit(pts.shape[1])
        if box.n != pts.shape[1]:
            raise ValueError("box dimension does not match points")
        if not box.contains(pts):
            raise ValueError("points must lie inside the domain box")
        if len(np.unique(pts, axis=0)) != pts.shape[0]:
            raise ValueError("points must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "box", box)

    @property
    def U(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def space_dim(n: int, deg: int) -> int:
    """Dimension of the space of n-variate polynomials of total degree <= deg."""
    return math.comb(n + deg, n)


def _exponents_of_degree(n: int, k: int) -> list[tuple[int, ...]]:
    """The n-component multi-indices of total degree exactly k, in lexicographic order."""
    if n == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k + 1) for rest in _exponents_of_degree(n - 1, k - a)]


def graded_lex_exponents(n: int, deg: int) -> list[tuple[int, ...]]:
    """Multi-indices |alpha| <= deg sorted by total degree, then lexicographically.

    Each total degree's indices are generated directly in lexicographic
    order (first component ascending, the rest recursively), so the cost is
    O(n dim V) rather than a filter and sort over the (deg+1)^n tuples of
    the box; the list is the one that filter and sort returns.
    """
    return [a for k in range(deg + 1) for a in _exponents_of_degree(n, k)]


def cheb1_points(d: int) -> PointSet:
    """Chebyshev points of the first kind on [-1, 1], descending order, d+1 points."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ell = np.arange(d + 1)
    return PointSet(np.cos((ell + 0.5) * np.pi / (d + 1)), BoxDomain.unit(1))


def cheb2_points(d: int) -> PointSet:
    """Chebyshev points of the second kind on [-1, 1]; includes both endpoints."""
    if d < 1:
        raise ValueError("degree must be >= 1 (the defining formula divides by d)")
    ell = np.arange(d + 1)
    return PointSet(np.cos(ell * np.pi / d), BoxDomain.unit(1))


def padua_points(d: int) -> PointSet:
    """Padua points on [-1, 1]^2 for total-degree-d interpolation.

    Built from the even/odd index subsets of the second-kind Chebyshev
    sequences of degrees d and d+1 (indices counted from 0). Cardinality
    is (d+1)(d+2)/2, the dimension of the bivariate degree-d space.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    cd = np.cos(np.arange(d + 1) * np.pi / d)
    cd1 = np.cos(np.arange(d + 2) * np.pi / (d + 1))
    even_d, odd_d = cd[0::2], cd[1::2]
    even_d1, odd_d1 = cd1[0::2], cd1[1::2]
    pts = [(a, b) for a in even_d for b in odd_d1]
    pts += [(a, b) for a in odd_d for b in even_d1]
    pts = np.asarray(pts)
    assert pts.shape[0] == (d + 1) * (d + 2) // 2
    return PointSet(pts, BoxDomain.unit(2))


def scale_to_box(pts: PointSet, box: BoxDomain) -> PointSet:
    """Affinely map a point set from [-1, 1]^n onto the given box."""
    if not pts.box.is_unit():
        raise ValueError("scale_to_box expects points on [-1, 1]^n")
    if box.n != pts.n:
        raise ValueError("box dimension mismatch")
    return PointSet(box.from_unit(pts.points), box)


def _cheb_values_1d(t: np.ndarray, deg: int) -> np.ndarray:
    """T_0..T_deg at each entry of t via the three-term recurrence; shape (deg+1, len(t)).

    Each step is T_i = (2t) T_{i-1} - T_{i-2}, written into its row with no
    temporary. 2t is formed once; doubling is exact, so every row has the
    bits of the expression 2.0 * t * T_{i-1} - T_{i-2}.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((deg + 1, t.size))
    out[0] = 1.0
    if deg >= 1:
        out[1] = t
    two_t = 2.0 * t
    for i in range(2, deg + 1):
        np.multiply(two_t, out[i - 1], out=out[i])
        out[i] -= out[i - 2]
    return out


def _basis_rows(points: np.ndarray, box: BoxDomain, deg: int, out: np.ndarray) -> None:
    """Fill ``out``, shape (dim V_{n,deg}, M), with the transposed basis values.

    Row j of ``out`` holds T_alpha at the M points for the j-th graded-lex
    alpha: the left-to-right product of the per-coordinate Chebyshev rows
    T_{alpha_k}(t_k) with alpha_k > 0. T_0 is exactly 1.0, so leaving its
    factors out changes no bit of the product of all n factors. The product
    over alpha's nonzero factors but its last is the row of alpha with that
    last exponent zeroed, a lower total degree filled earlier (the row of
    ones for a single factor, an exact product), so each row costs one
    multiplication of contiguous rows.
    """
    unit_pts = box.to_unit(points)
    tables = [_cheb_values_1d(unit_pts[:, k], deg) for k in range(box.n)]
    exponents = graded_lex_exponents(box.n, deg)
    index = {alpha: j for j, alpha in enumerate(exponents)}
    out[0] = 1.0  # alpha = 0
    for row, alpha in zip(out[1:], exponents[1:]):
        k = max(i for i, a in enumerate(alpha) if a)
        prefix = alpha[:k] + (0,) * (box.n - k)
        np.multiply(out[index[prefix]], tables[k][alpha[k]], out=row)


def cheb_basis_values(points: np.ndarray, box: BoxDomain, deg: int) -> np.ndarray:
    """Tensor Chebyshev basis values at arbitrary points; shape (M, dim V_{n,deg}).

    Column j holds T_alpha(t) = prod_k T_{alpha_k}(t_k) with alpha running over
    graded-lex multi-indices of total degree <= deg; coordinates are affinely
    mapped from ``box`` onto [-1, 1] before the three-term recurrence. The
    result is C-contiguous.
    """
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = np.empty((space_dim(box.n, deg), points.shape[0]))
    _basis_rows(points, box, deg, rows)
    return np.ascontiguousarray(rows.T)


def cheb_vandermonde(pts: PointSet, deg: int, normalized: bool = False) -> np.ndarray:
    """Chebyshev Vandermonde matrix of a point set, shape (U, dim V_{n,deg}).

    With ``normalized=True`` each coordinate factor is scaled by
    sqrt(1/(deg+1)) for degree 0 and sqrt(2/(deg+1)) otherwise, which makes
    the columns orthonormal under the discrete inner product at first-kind
    Chebyshev points of degree ``deg`` in one dimension.
    """
    V = cheb_basis_values(pts.points, pts.box, deg)
    if normalized:
        nonzero = np.count_nonzero(graded_lex_exponents(pts.n, deg), axis=1)
        V *= np.sqrt(2.0 ** nonzero / (deg + 1) ** pts.n)
    return V


def approx_fekete_points(n: int, deg: int) -> PointSet:
    """Discrete Leja points for degree-``deg`` interpolation on [-1, 1]^n.

    Candidates come from the tensor Chebyshev-Lobatto grid C_deg^n, the
    (deg+1)^n points whose coordinates are cos(pi j / deg), j = 0..deg; it
    is a weakly admissible mesh for total degree deg (Calvi and Levenberg,
    J. Approx. Theory 2008). An LU factorization with partial row
    pivoting of their N x U Chebyshev Vandermonde (U = dim V_{n,deg})
    greedily picks, column by column, the candidate row of largest residual;
    its first U row pivots are the discrete Leja points (Bos, De Marchi,
    Sommariva and Vianello, SIAM J. Numer. Anal. 2010), a greedy
    approximation of Fekete points, which maximize the absolute Vandermonde
    determinant. They are returned in candidate index order, and are
    unisolvent unless the factorization raises UnisolvencyError.

    The grid is formed explicitly (last coordinate fastest) and its
    Vandermonde is filled as the C-ordered U x N array of
    ``cheb_basis_values`` rows, whose transpose LAPACK factors in place.
    Both arrays are allocated before anything is computed, so an
    unallocatable candidate set raises MemoryError naming its size at once.
    """
    if n < 1 or deg < 1:
        raise ValueError("need n >= 1 and deg >= 1")
    U = space_dim(n, deg)
    N = (deg + 1) ** n
    try:
        grid = np.empty((N, n))
        VT = np.empty((U, N))
    except MemoryError as exc:
        raise MemoryError(
            f"the candidate Vandermonde for n={n}, deg={deg} has {N:,} rows x "
            f"{U} columns, {N * U * 8 / 1e9:.1f} GB of doubles; it cannot be "
            "allocated") from exc
    axis = np.cos(np.arange(deg + 1) * np.pi / deg)
    cells = grid.reshape((deg + 1,) * n + (n,))
    for k in range(n):
        cells[..., k] = axis.reshape((-1,) + (1,) * (n - 1 - k))
    box = BoxDomain.unit(n)
    _basis_rows(grid, box, deg, VT)
    # VT.T is Fortran ordered, so LAPACK factors it in place; partial
    # pivoting takes the first index on exact ties
    lu, piv, info = scipy.linalg.lapack.dgetrf(VT.T, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    udiag = np.abs(np.diag(lu))
    if info > 0 or udiag.min() <= 1e-12 * udiag.max():
        raise UnisolvencyError("LU found a nearly singular row subset")
    rows = np.arange(N)
    for i, p in enumerate(piv):  # 0-based row swaps, applied in order
        rows[i], rows[p] = rows[p], rows[i]
    return PointSet(grid[np.sort(rows[:U])], box)


def points_for_degree(n: int, deg: int, box: BoxDomain | None = None) -> PointSet:
    """Unisolvent set for V_{n,deg}: Chebyshev (n=1), Padua (n=2), Fekete (n>=3)."""
    if deg == 0:
        pts = PointSet(np.zeros((1, n)), BoxDomain.unit(n))
    elif n == 1:
        pts = cheb2_points(deg)
    elif n == 2:
        pts = padua_points(deg)
    else:
        pts = approx_fekete_points(n, deg)
    if box is not None and not box.is_unit():
        pts = scale_to_box(pts, box)
    elif box is not None:
        pts = PointSet(pts.points, box)
    return pts


def orthonormalize(M: np.ndarray) -> np.ndarray:
    """Column-orthonormal matrix with the same span, via thin QR.

    Raises UnisolvencyError when a diagonal entry of R falls below
    1e-12 * ||M||_2, signaling rank deficiency (non-unisolvent points).
    ||M||_2 = ||QR||_2 = ||R||_2, since Q has orthonormal columns, so the
    norm is taken from the L x L factor R instead of an SVD of the U x L
    matrix M; Q, the returned matrix, is unchanged.
    """
    M = np.asarray(M, dtype=float)
    Q, R = np.linalg.qr(M)
    scale = np.linalg.norm(R, 2)
    if np.abs(np.diag(R)).min() < 1e-12 * scale:
        raise UnisolvencyError("rank-deficient basis matrix: points not unisolvent")
    return Q


def _cheb_moments_1d(deg: int) -> np.ndarray:
    """Exact integrals of T_0..T_deg over [-1, 1]: 2/(1-k^2) for even k, 0 for odd."""
    m = np.zeros(deg + 1)
    for k in range(0, deg + 1, 2):
        m[k] = 2.0 / (1.0 - k * k)
    return m


def box_quadrature_weights(pts: PointSet, deg: int) -> np.ndarray:
    """Weights w with sum_u w_u p(t_u) = integral of p over the box, deg(p) <= deg.

    Solves V^T w = m by moment matching, where V is the Chebyshev Vandermonde
    at the points and m holds the exact tensor Chebyshev moments over the box.
    One code path serves Chebyshev, Padua, and Fekete point families. The
    moment of T_alpha is prod_k mom1d[alpha_k] * halfwidth_k, taken for every
    alpha at once as one product along the rows of the (dim V, n) table of
    factors, which multiplies each row's factors in the order a per-index
    np.prod does.
    """
    V = cheb_vandermonde(pts, deg)
    if V.shape[0] != V.shape[1]:
        raise UnisolvencyError(
            f"need exactly dim V_(n,deg) = {V.shape[1]} points, got {V.shape[0]}"
        )
    exponents = np.array(graded_lex_exponents(pts.n, deg))
    halfwidth = (pts.box.upper - pts.box.lower) / 2.0
    m = np.prod(_cheb_moments_1d(deg)[exponents] * halfwidth, axis=1)
    try:
        w = np.linalg.solve(V.T, m)
    except np.linalg.LinAlgError as exc:
        raise UnisolvencyError("singular Vandermonde: points not unisolvent") from exc
    resid = np.linalg.norm(V.T @ w - m)
    if not np.isfinite(resid) or resid > 1e-8 * (1.0 + np.linalg.norm(m)):
        raise UnisolvencyError("ill-conditioned Vandermonde: points not unisolvent")
    return w
