"""JSON/CSV formats for problems, solutions, certificates, and point sets.

All writes are atomic (temp file + rename). Serialized output is
deterministic apart from the top-level "timestamp" field, which consumers
should exclude when comparing files.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
import tempfile

import numpy as np

from .hsd import ConicProblem, SolveResult
from .interpolation import (
    BoxDomain,
    PointSet,
    cheb_basis_values,
    points_for_degree,
    space_dim,
)
from .problems import PolySpec, builtin_poly, chebyshev_poly
from .wsos import InterpWSOSCone, ProductCone


class SchemaError(ValueError):
    """Malformed input file; the message carries the offending field path."""


def write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dump_json(path: str, obj):
    """Write obj as strict JSON: non-finite floats become null."""
    obj = _finite_or_null(obj)
    obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _is_number(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"$: invalid JSON ({exc})") from exc


def _num_list(obj, path):
    _require(isinstance(obj, list) and len(obj) > 0, path, "expected a nonempty array")
    # every leaf is checked here: numpy would turn "1" into 1.0 and
    # [true, 2] into [1, 2]
    pending = [obj]
    while pending:
        for v in pending.pop():
            if isinstance(v, list):
                pending.append(v)
            else:
                _require(_is_number(v), path,
                         f"entries must be numbers, got {type(v).__name__}")
    try:
        arr = np.asarray(obj, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged, or an integer beyond float range
        raise SchemaError(f"{path}: expected a rectangular array of numbers ({exc})") from exc
    _require(np.all(np.isfinite(arr)), path, "entries must be finite numbers")
    return arr


# ---------------------------------------------------------------------------
# problems


def problem_to_dict(problem: ConicProblem) -> dict:
    cones = []
    for factor in problem.cone.factors:
        blocks = []
        for i, B in enumerate(factor.blocks):
            entry = {"L": B.shape[1], "P_scaled": [float(v) for v in B.ravel()]}
            if factor.weights is not None:
                entry["weight"] = factor.weights[i].label
                entry["degree"] = factor.weights[i].degree
            blocks.append(entry)
        cones.append({"type": "wsos_interp", "U": factor.U, "blocks": blocks})
    return {
        "A": [[float(v) for v in row] for row in problem.A],
        "b": [float(v) for v in problem.b],
        "c": [float(v) for v in problem.c],
        "cones": cones,
    }


def problem_from_dict(data: dict) -> ConicProblem:
    _require(isinstance(data, dict), "$", "expected a JSON object")
    for key in ("A", "b", "c", "cones"):
        _require(key in data, key, "missing required field")
    A = _num_list(data["A"], "A")
    _require(A.ndim == 2, "A", "expected a matrix (array of arrays)")
    b = _num_list(data["b"], "b")
    c = _num_list(data["c"], "c")
    _require(A.shape[0] == b.size, "b", f"expected {A.shape[0]} entries to match rows of A")
    _require(A.shape[1] == c.size, "c", f"expected {A.shape[1]} entries to match columns of A")

    cones = data["cones"]
    _require(isinstance(cones, list) and cones, "cones", "expected a nonempty array")
    factors = []
    for ci, entry in enumerate(cones):
        path = f"cones[{ci}]"
        _require(isinstance(entry, dict), path, "expected an object")
        _require(entry.get("type") == "wsos_interp", f"{path}.type",
                 "only 'wsos_interp' cones are supported")
        U = entry.get("U")
        _require(_is_int(U) and U > 0, f"{path}.U", "expected a positive integer")
        blocks_data = entry.get("blocks")
        _require(isinstance(blocks_data, list) and blocks_data, f"{path}.blocks",
                 "expected a nonempty array")
        blocks = []
        for bi, bd in enumerate(blocks_data):
            bpath = f"{path}.blocks[{bi}]"
            L = bd.get("L") if isinstance(bd, dict) else None
            _require(_is_int(L) and 0 < L <= U, f"{bpath}.L",
                     f"expected an integer in [1, {U}]")
            flat = _num_list(bd.get("P_scaled"), f"{bpath}.P_scaled")
            _require(flat.size == U * L, f"{bpath}.P_scaled",
                     f"expected {U * L} row-major entries, got {flat.size}")
            blocks.append(flat.reshape(U, L))
        factors.append(InterpWSOSCone(blocks))
    cone = ProductCone(factors)
    _require(cone.dim == c.size, "cones",
             f"total cone dimension {cone.dim} does not match len(c) = {c.size}")
    return ConicProblem(A, b, c, cone)


def load_problem(path: str) -> ConicProblem:
    return problem_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# solutions


def solution_to_dict(result: SolveResult) -> dict:
    out = {
        "status": result.status,
        "primal_objective": result.primal_objective,
        "dual_objective": result.dual_objective,
        "residuals": {
            "primal_infeasibility": result.rel_primal_infeas,
            "dual_infeasibility": result.rel_dual_infeas,
            "gap": result.rel_gap,
        },
        "iterations": result.iterations,
        "trials": result.trials,
        "message": result.message,
    }
    if result.x is not None:
        out["x"] = [float(v) for v in result.x]
        out["y"] = [float(v) for v in result.y]
        out["s"] = [float(v) for v in result.s]
    if result.final is not None:
        out["iterate"] = {
            "x": [float(v) for v in result.final.x],
            "s": [float(v) for v in result.final.s],
            "y": [float(v) for v in result.final.y],
            "tau": result.final.tau,
            "kappa": result.final.kappa,
            "mu": result.final.mu,
        }
    return out


def load_solution(path: str) -> dict:
    data = _read_json(path)
    _require(isinstance(data, dict) and "status" in data, "status", "missing field")
    return data


def solution_iterate(data: dict, dim: int) -> tuple[np.ndarray, np.ndarray, float]:
    """x, s and mu of a loaded solution's final iterate, for a cone of dimension dim."""
    it = data.get("iterate")
    _require(isinstance(it, dict), "iterate", "solution file carries no final iterate")
    x = _num_list(it.get("x"), "iterate.x")
    s = _num_list(it.get("s"), "iterate.s")
    for path, v in (("iterate.x", x), ("iterate.s", s)):
        _require(v.shape == (dim,), path, f"expected {dim} entries to match the problem")
    mu = it.get("mu")
    _require(_is_number(mu) and math.isfinite(mu) and mu > 0, "iterate.mu",
             "expected a finite positive number")
    return x, s, float(mu)


def write_trace_csv(path: str, trace):
    rows = ["iter,mu,alpha_p,nbhd_norm,corrector_steps,"
            "residual_before,residual_after,stalled,corrected,trials"]
    for rec in trace:
        rows.append(f"{rec.iteration},{rec.mu:.17g},{rec.alpha_p:.17g},"
                    f"{rec.nbhd_norm:.17g},{rec.corrector_steps},"
                    f"{rec.residual_before:.17g},{rec.residual_after:.17g},"
                    f"{int(rec.stalled)},{int(rec.corrected)},{rec.trials}")
    write_atomic(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# certificates


def certificate_to_dict(factor_reports: list) -> dict:
    """factor_reports: list of (GramCertificate, VerificationReport, SosDecomposition)."""
    factors = []
    for cert, report, deco in factor_reports:
        entry = {
            "delta": cert.delta,
            "adjoint_residual": cert.adjoint_residual,
            "blocks": [
                {
                    "L": S.shape[0],
                    "gram": [float(v) for v in S.ravel()],
                    "min_eigenvalue": float(me),
                }
                for S, me in zip(cert.grams, cert.min_eigenvalues)
            ],
        }
        if report is not None:
            entry["verification"] = {
                "passed": bool(report.passed),
                "residual": report.adjoint_residual,
                "error_bound": report.error_bound,
                "block_psd": [bool(v) for v in report.block_psd],
            }
        if deco is not None:
            entry["sos_terms"] = [
                {"block": i, "coefficients": [[float(v) for v in row] for row in T]}
                for i, T in enumerate(deco.terms)
            ]
        factors.append(entry)
    return {"factors": factors}


# ---------------------------------------------------------------------------
# point sets and polynomials


def points_to_json(pts: PointSet) -> str:
    coords = [[float(v) for v in row] for row in pts.points]
    return json.dumps(coords, indent=2) + "\n"


def points_to_csv(pts: PointSet) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in pts.points:
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue()


def polyspec_from_dict(data: dict) -> PolySpec:
    _require(isinstance(data, dict), "$", "expected a JSON object")
    kind = data.get("kind")
    _require(kind in ("chebyshev", "builtin", "values"), "kind",
             "expected one of 'chebyshev', 'builtin', 'values'")
    if kind == "builtin":
        name = data.get("name")
        _require(isinstance(name, str), "name", "expected a builtin name string")
        try:
            return builtin_poly(name)
        except KeyError as exc:
            raise SchemaError(f"name: {exc.args[0]}") from exc
    n = data.get("n")
    deg = data.get("deg")
    _require(_is_int(n) and n >= 1, "n", "expected a positive integer")
    _require(_is_int(deg) and deg >= 0, "deg", "expected a nonnegative integer")
    box_data = data.get("box")
    _require(isinstance(box_data, dict) and "lower" in box_data and "upper" in box_data,
             "box", "expected an object with 'lower' and 'upper'")
    lower = _num_list(box_data["lower"], "box.lower")
    upper = _num_list(box_data["upper"], "box.upper")
    _require(lower.size == n and upper.size == n, "box", f"bounds must have length {n}")
    try:
        box = BoxDomain(lower, upper)
    except ValueError as exc:
        raise SchemaError(f"box: {exc}") from exc
    if kind == "chebyshev":
        coeffs = _num_list(data.get("coeffs"), "coeffs")
        try:
            return chebyshev_poly(n, deg, coeffs, box)
        except ValueError as exc:
            raise SchemaError(f"coeffs: {exc}") from exc
    # values are taken at the canonical unisolvent set for (n, deg, box);
    # an explicit "points" array may override it. The fit to Chebyshev
    # coefficients happens once, here.
    values = _num_list(data.get("values"), "values")
    if "points" in data:
        pts_data = _num_list(data["points"], "points")
        _require(pts_data.ndim == 2 and pts_data.shape[1] == n, "points",
                 "expected an array of n-dimensional coordinates")
        try:
            pts = PointSet(pts_data, box)
        except ValueError as exc:
            raise SchemaError(f"points: {exc}") from exc
    else:
        pts = points_for_degree(n, deg, box)
    dim = space_dim(n, deg)
    _require(pts.U == dim, "points",
             f"expected dim V_(n,deg) = {dim} interpolation points, got {pts.U}")
    _require(pts.U == values.size, "values",
             f"need one value per interpolation point ({pts.U})")
    V = cheb_basis_values(pts.points, box, deg)
    sv = np.linalg.svd(V, compute_uv=False)
    _require(sv[-1] > 1e-12 * sv[0], "points",
             f"not unisolvent for degree {deg} (interpolation matrix is singular)")
    return chebyshev_poly(n, deg, np.linalg.solve(V, values), box)


def load_polyspec(path: str) -> PolySpec:
    return polyspec_from_dict(_read_json(path))
