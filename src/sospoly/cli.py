"""Command-line front end: build/solve/certify workflows and file I/O.

Exit codes: 0 optimal, 2 usage or schema error or an input too large to
allocate, 3 conclusive non-optimal status (infeasible / ill-posed),
4 numerical failure or iteration limit, 5 certificate verification failure.
The SOLVER_TOL environment variable overrides the default
gap/infeasibility tolerance when the flags are absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import fileio, hsd, problems, recovery
from .fileio import SchemaError
from .interpolation import (
    BoxDomain,
    approx_fekete_points,
    cheb1_points,
    cheb2_points,
    padua_points,
    scale_to_box,
)
from .wsos import NotInteriorError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_VERIFICATION = 5

_STATUS_EXIT = {
    hsd.OPTIMAL: EXIT_OK,
    hsd.PRIMAL_INFEASIBLE: EXIT_INFEASIBLE,
    hsd.DUAL_INFEASIBLE: EXIT_INFEASIBLE,
    hsd.ILL_POSED: EXIT_INFEASIBLE,
    hsd.ITERATION_LIMIT: EXIT_NUMERICAL,
    hsd.NUMERICAL_FAILURE: EXIT_NUMERICAL,
}


class UsageError(Exception):
    pass


def _solver_params(args) -> hsd.SolverParams:
    """SolverParams from the flags and SOLVER_TOL that were given; defaults stay there."""
    given = {}
    env = os.environ.get("SOLVER_TOL")
    if env is not None:
        try:
            tol = float(env)
        except ValueError as exc:
            raise UsageError(f"SOLVER_TOL must be a number, got {env!r}") from exc
        given = {"tol_gap": tol, "tol_infeas": tol}
    for name in ("tol_gap", "tol_infeas", "max_iters"):
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
    try:
        return hsd.SolverParams(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_box(text: str, n: int) -> BoxDomain:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--box must be JSON like [[lo,hi],...]: {exc}") from exc
    try:
        arr = fileio._num_list(data, "bounds")
    except SchemaError as exc:
        raise UsageError(f"--box must hold JSON numbers like [[lo,hi],...]; {exc}") from exc
    if arr.shape != (n, 2):
        raise UsageError(f"--box needs {n} [lo,hi] pairs")
    try:
        return BoxDomain(arr[:, 0], arr[:, 1])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_solution(args, result: hsd.SolveResult) -> int:
    if args.out:
        fileio.dump_json(args.out, fileio.solution_to_dict(result))
    if args.trace:
        fileio.write_trace_csv(args.trace, result.trace)
    print(f"status: {result.status}  iterations: {result.iterations}  "
          f"objective: {result.dual_objective:.12g}")
    return _STATUS_EXIT[result.status]


def cmd_points(args) -> int:
    family = args.family
    n = args.n
    if family in ("cheb1", "cheb2"):
        if n not in (None, 1):
            raise UsageError(f"family {family} is univariate; drop --n or use --n 1")
        if args.d is None:
            raise UsageError("--d is required for Chebyshev families")
        pts = cheb1_points(args.d) if family == "cheb1" else cheb2_points(args.d)
    elif family == "padua":
        if n not in (None, 2):
            raise UsageError("padua requires n=2")
        if args.d is None:
            raise UsageError("--d is required for the padua family")
        pts = padua_points(args.d)
    elif family == "fekete":
        if n is None or n < 1:
            raise UsageError("fekete requires --n")
        if args.d is None:
            raise UsageError("--d is required for the fekete family")
        pts = approx_fekete_points(n, args.d)
    else:
        raise UsageError(f"unknown family {family!r}")
    if args.box:
        pts = scale_to_box(pts, _parse_box(args.box, pts.n))
    if args.out:
        text = fileio.points_to_csv(pts) if args.format == "csv" else fileio.points_to_json(pts)
        fileio.write_atomic(args.out, text)
    print(pts.U)
    return EXIT_OK


def cmd_envelope(args) -> int:
    params = _solver_params(args)
    box = _parse_box(args.box, args.n) if args.box else None
    built = problems.build_envelope(args.n, args.d, args.k, box=box, seed=args.seed)
    if args.problem_out:
        fileio.dump_json(args.problem_out, fileio.problem_to_dict(built.problem))
    result = hsd.solve(built.problem, params)
    return _write_solution(args, result)


def cmd_polymin(args) -> int:
    params = _solver_params(args)
    if not (math.isfinite(args.lb_margin) and args.lb_margin >= 0):
        raise UsageError(f"--lb-margin must be a finite number >= 0, got {args.lb_margin!r}")
    if args.builtin and args.poly:
        raise UsageError("pass either --builtin or --poly, not both")
    if args.builtin:
        try:
            spec = problems.builtin_poly(args.builtin)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from exc
    elif args.poly:
        spec = fileio.load_polyspec(args.poly)
    else:
        raise UsageError("polymin needs --builtin NAME or --poly FILE")
    built = problems.build_polymin(spec, args.d)
    result = hsd.solve(built.problem, params)
    code = _write_solution(args, result)
    if result.status != hsd.OPTIMAL:
        return code

    # certify the bound: s = f(t_u) - LB with LB slightly below the bound
    factor = built.cone.factors[0]
    z = result.final
    lb = result.dual_objective - args.lb_margin
    cert, s_cert = recovery.lower_bound_certificate(
        factor, z, built.problem.c, lb, barrier=z.barrier.factor_evals[0])
    report = recovery.verify_certificate(factor, s_cert, cert)
    deco = recovery.sos_terms(cert, factor) if report.passed else None
    cert_path = args.certificate or (os.path.splitext(args.out)[0] + ".cert.json"
                                     if args.out else None)
    if cert_path:
        payload = fileio.certificate_to_dict([(cert, report, deco)])
        payload["lower_bound"] = lb
        fileio.dump_json(cert_path, payload)
    print(f"bound: {result.dual_objective:.12g}  certificate: "
          f"{'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_solve(args) -> int:
    params = _solver_params(args)
    problem = fileio.load_problem(args.problem)
    result = hsd.solve(problem, params)
    return _write_solution(args, result)


def cmd_certify(args) -> int:
    problem = fileio.load_problem(args.problem)
    x, s, delta = fileio.solution_iterate(fileio.load_solution(args.solution),
                                          problem.cone.dim)
    reports = []
    all_passed = True
    for factor, sl in zip(problem.cone.factors, problem.cone.slices()):
        cert = recovery.recover_gram(factor, x[sl], s[sl], delta)
        report = recovery.verify_certificate(factor, s[sl], cert, tol=args.tol)
        deco = recovery.sos_terms(cert, factor) if report.passed else None
        reports.append((cert, report, deco))
        all_passed = all_passed and report.passed
    if args.out:
        fileio.dump_json(args.out, fileio.certificate_to_dict(reports))
    print("certificate: " + ("pass" if all_passed else "FAIL"))
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sospoly",
        description="Optimization over weighted sum-of-squares polynomial cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=True):
        p.add_argument("--out", help="output file path")
        if solver:
            p.add_argument("--tol-gap", type=float, default=None)
            p.add_argument("--tol-infeas", type=float, default=None)
            p.add_argument("--max-iters", type=int, default=None)
            p.add_argument("--trace", help="write per-iteration CSV trace here")

    p_points = sub.add_parser("points", help="generate interpolation point sets")
    p_points.add_argument("--family", required=True,
                          choices=["cheb1", "cheb2", "padua", "fekete"])
    p_points.add_argument("--n", type=int, default=None)
    p_points.add_argument("--d", type=int, default=None)
    p_points.add_argument("--box", help="JSON [[lo,hi],...] to rescale onto")
    p_points.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p_points, solver=False)
    p_points.set_defaults(func=cmd_points)

    p_env = sub.add_parser("envelope", help="solve a polynomial envelope instance")
    p_env.add_argument("--n", type=int, required=True)
    p_env.add_argument("--d", type=int, required=True)
    p_env.add_argument("--k", type=int, default=2)
    p_env.add_argument("--seed", type=int, default=0)
    p_env.add_argument("--box", help="JSON [[lo,hi],...] domain box")
    p_env.add_argument("--problem-out", help="also dump the built problem JSON")
    add_common(p_env)
    p_env.set_defaults(func=cmd_envelope)

    p_min = sub.add_parser("polymin", help="lower-bound a polynomial over its box")
    p_min.add_argument("--builtin", help="builtin polynomial name")
    p_min.add_argument("--poly", help="PolySpec JSON file")
    p_min.add_argument("--d", type=int, default=None)
    p_min.add_argument("--certificate", help="certificate output path")
    p_min.add_argument("--lb-margin", type=float, default=1e-9,
                       help="certified bound is the solver bound minus this margin")
    add_common(p_min)
    p_min.set_defaults(func=cmd_polymin)

    p_solve = sub.add_parser("solve", help="solve a problem JSON file")
    p_solve.add_argument("--problem", required=True)
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="recover and verify Gram certificates")
    p_cert.add_argument("--problem", required=True)
    p_cert.add_argument("--solution", required=True)
    p_cert.add_argument("--tol", type=float, default=1e-8)
    add_common(p_cert, solver=False)
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInteriorError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a Fekete candidate grid too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
