"""Problem builders: polynomial envelopes and box-constrained minimization.

Both families are posed over the dual weighted-SOS cone in the interpolant
basis and handed to the interior-point solver in standard conic form
(min c'x, Ax = b, x in K). The module also carries the named benchmark
polynomials and a brute-force grid oracle used as an independent check on
computed lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hsd import ConicProblem
from .interpolation import (
    BoxDomain,
    PointSet,
    box_quadrature_weights,
    cheb_basis_values,
    points_for_degree,
    space_dim,
)
from .wsos import ProductCone, build_cone


def _butcher(t):
    return (t[:, 5] * t[:, 1] ** 2 + t[:, 4] * t[:, 2] ** 2
            - t[:, 0] * t[:, 3] ** 2 + t[:, 3] ** 3 + t[:, 3] ** 2
            - t[:, 0] / 3.0 + 4.0 * t[:, 3] / 3.0)


def _caprasse(t):
    return (-t[:, 0] * t[:, 2] ** 3 + 4.0 * t[:, 1] * t[:, 2] ** 2 * t[:, 3]
            + 4.0 * t[:, 0] * t[:, 2] * t[:, 3] ** 2 + 2.0 * t[:, 1] * t[:, 3] ** 3
            + 4.0 * t[:, 0] * t[:, 2] + 4.0 * t[:, 2] ** 2
            - 10.0 * t[:, 1] * t[:, 3] - 10.0 * t[:, 3] ** 2 + 2.0)


def _magnetism(t):
    return t[:, 0] ** 2 + 2.0 * np.sum(t[:, 1:] ** 2, axis=1) - t[:, 0]


_BUILTINS = {
    "butcher": (
        _butcher, 3,
        BoxDomain([-1.0, -0.1, -0.1, -1.0, -0.1, -0.1],
                  [0.0, 0.9, 0.5, -0.1, -0.05, -0.03]),
    ),
    "caprasse": (_caprasse, 4, BoxDomain([-0.5] * 4, [0.5] * 4)),
    "magnetism": (_magnetism, 2, BoxDomain([-1.0] * 7, [1.0] * 7)),
}


@dataclass(frozen=True)
class PolySpec:
    """A polynomial given by Chebyshev coefficients or a builtin name.

    Chebyshev coefficients are in the graded-lex tensor basis mapped to the
    polynomial's box.
    """

    kind: str
    n: int
    degree: int
    box: BoxDomain
    coeffs: np.ndarray = None
    name: str = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "builtin":
            return _BUILTINS[self.name][0](points)
        if self.kind == "chebyshev":
            return cheb_basis_values(points, self.box, self.degree) @ self.coeffs
        raise ValueError(f"unknown PolySpec kind {self.kind!r}")

    def to_chebyshev(self) -> "PolySpec":
        """Equivalent chebyshev-coefficient representation (by interpolation)."""
        if self.kind == "chebyshev":
            return self
        pts = points_for_degree(self.n, self.degree, self.box)
        V = cheb_basis_values(pts.points, self.box, self.degree)
        coeffs = np.linalg.solve(V, self(pts.points))
        return PolySpec("chebyshev", self.n, self.degree, self.box, coeffs=coeffs)


def builtin_poly(name: str) -> PolySpec:
    """One of the named benchmark polynomials with its standard box."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin polynomial {name!r}; "
                       f"choose from {sorted(_BUILTINS)}")
    _, deg, box = _BUILTINS[name]
    return PolySpec("builtin", box.n, deg, box, name=name)


def chebyshev_poly(n: int, degree: int, coeffs, box: BoxDomain | None = None) -> PolySpec:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space_dim(n, degree),):
        raise ValueError("coefficient vector length must equal dim V_(n,deg)")
    return PolySpec("chebyshev", n, degree, box or BoxDomain.unit(n), coeffs=coeffs)


def random_envelope_inputs(n: int, deg: int, k: int, seed: int,
                           box: BoxDomain | None = None) -> list[PolySpec]:
    """k random polynomials with iid uniform [-1, 1] Chebyshev coefficients."""
    rng = np.random.default_rng(seed)
    box = box or BoxDomain.unit(n)
    dim = space_dim(n, deg)
    return [
        PolySpec("chebyshev", n, deg, box, coeffs=rng.uniform(-1.0, 1.0, dim))
        for _ in range(k)
    ]


@dataclass
class BuiltProblem:
    """A conic problem together with the interpolation data that produced it."""

    problem: ConicProblem
    cone: ProductCone
    pts: PointSet
    meta: dict = field(default_factory=dict)
    quad_weights: np.ndarray = None
    fs: list = None


def _box_weights(box: BoxDomain):
    """Callables g_j(t) = (u_j - t_j)(t_j - l_j) plus the constant weight 1."""
    weights = []
    for j in range(box.n):
        def gj(t, j=j, lo=box.lower[j], hi=box.upper[j]):
            return (hi - t[:, j]) * (t[:, j] - lo)
        gj.label = f"(u{j}-t{j})(t{j}-l{j})"
        weights.append(gj)

    def g_one(t):
        return np.ones(t.shape[0])
    g_one.label = "1"
    weights.append(g_one)
    return weights


def build_envelope(n: int, d: int, k: int, box: BoxDomain | None = None,
                   fs=None, seed: int = 0) -> BuiltProblem:
    """Closest-lower-envelope problem for k polynomials, degree-2d relaxation.

    The decision polynomial is carried by its values at a degree-2d
    unisolvent set (second-kind Chebyshev for n=1, Padua for n=2,
    approximate Fekete otherwise). The conic standard form has A equal to
    k horizontally stacked identities, b the box quadrature weights, and c
    the stacked values of the f_j; the cone is the k-fold product of the
    dual weighted-SOS cone with boundary weights of degree d-1 and a
    constant-weight block of degree d.
    """
    if k < 1:
        raise ValueError("need k >= 1 input polynomials")
    box = box or BoxDomain.unit(n)
    if fs is None:
        fs = random_envelope_inputs(n, min(5, 2 * d), k, seed, box)
    if len(fs) != k:
        raise ValueError("number of polynomials does not match k")
    for f in fs:
        if f.degree > 2 * d:
            raise ValueError(f"input degree {f.degree} exceeds 2d = {2 * d}")

    pts = points_for_degree(n, 2 * d, box)
    w = box_quadrature_weights(pts, 2 * d)
    degs = [d - 1] * n + [d]
    factor = build_cone(pts, _box_weights(box), degs)
    cone = ProductCone([factor] * k)

    U = pts.U
    A = np.hstack([np.eye(U)] * k)
    c = np.concatenate([f(pts.points) for f in fs])
    problem = ConicProblem(A, w, c, cone)
    meta = {"family": "envelope", "n": n, "d": d, "k": k,
            "weights": [ws.label for ws in factor.weights],
            "degrees": degs, "U": U}
    return BuiltProblem(problem, cone, pts, meta, quad_weights=w, fs=list(fs))


def build_polymin(f: PolySpec, d: int | None = None) -> BuiltProblem:
    """Lower-bound problem for min of f over its box, degree-2d relaxation.

    At the default d = ceil(deg(f)/2) the block degrees are the standard
    ceil(deg f / 2) - 1 (boundary weights) and ceil(deg f / 2) (constant
    weight); larger d raises both so the relaxation tightens monotonically.
    """
    halfdeg = max(1, (f.degree + 1) // 2)
    d = halfdeg if d is None else d
    if d < 1 or f.degree > 2 * d:
        raise ValueError(f"need d >= 1 and deg(f) = {f.degree} <= 2d = {2 * d}")
    pts = points_for_degree(f.n, 2 * d, f.box)
    degs = [d - 1] * f.n + [d]
    factor = build_cone(pts, _box_weights(f.box), degs)
    cone = ProductCone([factor])

    U = pts.U
    A = np.ones((1, U))
    b = np.ones(1)
    c = f(pts.points)
    problem = ConicProblem(A, b, c, cone)
    meta = {"family": "polymin", "n": f.n, "d": d, "k": 1,
            "weights": [ws.label for ws in factor.weights],
            "degrees": degs, "U": U}
    return BuiltProblem(problem, cone, pts, meta, fs=[f])


def _corners(box: BoxDomain) -> np.ndarray:
    n = box.n
    corners = np.empty((2 ** n, n))
    for i in range(2 ** n):
        for j in range(n):
            corners[i, j] = box.upper[j] if (i >> j) & 1 else box.lower[j]
    return corners


def grid_lower_bound_oracle(f: PolySpec, resolution: int = 41,
                            samples: int = 10 ** 6, seed: int = 0,
                            refine_rounds: int = 8) -> float:
    """Minimum of f over refined uniform grids (or seeded samples) of its box.

    Always an upper bound on the true minimum. Tensor grids are used for
    n <= 4, Monte Carlo sampling otherwise; each refinement round shrinks
    the search window around the incumbent, keeping the oracle independent
    of any solver output. Box corners join the first round whenever 2^n is
    small, since several benchmark minimizers sit on the boundary.
    """
    n = f.n
    rng = np.random.default_rng(seed)
    lo = f.box.lower.copy()
    hi = f.box.upper.copy()
    best_val = math.inf
    best_pt = None
    if 2 ** n <= 4096:
        corners = _corners(f.box)
        vals = f(corners)
        i = int(np.argmin(vals))
        best_val, best_pt = float(vals[i]), corners[i]

    for _ in range(refine_rounds + 1):
        if n <= 4:
            axes = [np.linspace(lo[j], hi[j], resolution) for j in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            cand = np.stack([m.ravel() for m in mesh], axis=1)
            shrink = 8.0 / (resolution - 1)
        else:
            cand = rng.uniform(lo, hi, size=(samples, n))
            shrink = 0.3
        vals = f(cand)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), cand[i]
        width = (hi - lo) * shrink
        lo = np.maximum(f.box.lower, best_pt - width / 2.0)
        hi = np.minimum(f.box.upper, best_pt + width / 2.0)
    return best_val
