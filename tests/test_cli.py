"""Command-line workflows, file formats, exit codes, determinism."""

import argparse
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sospoly as sp
from sospoly import cli, fileio, interpolation
from sospoly.cli import build_parser, main
from sospoly.fileio import SchemaError

SRC = Path(sp.__file__).resolve().parents[1]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


# ----------------------------------------------------------------------
# points subcommand


def test_points_cheb2(tmp_path, capsys):
    out = tmp_path / "pts.json"
    assert main(["points", "--family", "cheb2", "--d", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "5"
    coords = read_json(out)
    assert len(coords) == 5 and len(coords[0]) == 1


def test_points_padua(tmp_path, capsys):
    out = tmp_path / "padua.json"
    assert main(["points", "--family", "padua", "--d", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "231"
    assert len(read_json(out)) == 231


def test_points_fekete(tmp_path, capsys):
    out = tmp_path / "fek.json"
    code = main(["points", "--family", "fekete", "--n", "3", "--d", "12",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "455"
    assert len(read_json(out)) == 455


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_output_files_honor_the_umask(tmp_path, umask):
    out = tmp_path / "pts.json"
    old = os.umask(umask)
    try:
        assert main(["points", "--family", "cheb2", "--d", "2", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_points_csv_format(tmp_path):
    out = tmp_path / "pts.csv"
    assert main(["points", "--family", "cheb1", "--d", "2", "--out", str(out),
                 "--format", "csv"]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_points_format_without_out_is_a_usage_error(capsys):
    assert main(["points", "--family", "cheb1", "--d", "2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""  # refused before any point set is made


def test_points_box_rescale(tmp_path):
    out = tmp_path / "pts.json"
    assert main(["points", "--family", "cheb2", "--d", "2", "--out", str(out),
                 "--box", "[[0,1]]"]) == 0
    vals = sorted(v[0] for v in read_json(out))
    np.testing.assert_allclose(vals, [0.0, 0.5, 1.0], atol=1e-15)


@pytest.mark.parametrize("box", ['[[true, 2]]', '[["-1", "1"]]', '[[-1e999, 1]]'])
def test_points_box_non_numeric_bounds_are_usage_errors(tmp_path, capsys, box):
    # np.asarray(dtype=float) would turn true into 1.0 and "-1" into -1.0;
    # -1e999 parses as -inf
    out = tmp_path / "pts.json"
    assert main(["points", "--family", "cheb2", "--d", "2", "--out", str(out),
                 "--box", box]) == 2
    assert "JSON numbers" in capsys.readouterr().err
    assert not out.exists()


def test_points_usage_errors(capsys):
    assert main(["points", "--family", "padua", "--n", "3", "--d", "2"]) == 2
    assert main(["points", "--family", "fekete", "--n", "2"]) == 2
    assert main(["points", "--family", "cheb2"]) == 2


def test_oversized_fekete_request_exits_2_at_once():
    # 13^12 candidates: the 2 PiB grid fails to allocate before a single
    # multi-index is enumerated, so the command returns at once
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sospoly.cli", "points", "--family", "fekete",
         "--n", "12", "--d", "12"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "23,298,085,122,481 rows x 2704156 columns" in proc.stderr


def test_unallocatable_candidate_grid_exits_2(monkeypatch, capsys):
    # caprasse's points drawn from the 13^12 grid instead of its own
    real = interpolation.approx_fekete_points
    monkeypatch.setattr(interpolation, "approx_fekete_points", lambda n, deg: real(12, 12))
    assert main(["polymin", "--builtin", "caprasse"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot be allocated" in err


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


# ----------------------------------------------------------------------
# envelope subcommand


def test_envelope_solves_and_writes(tmp_path, capsys):
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    code = main(["envelope", "--n", "1", "--d", "5", "--k", "2", "--seed", "1",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    sol = read_json(out)
    assert sol["status"] == "Optimal"
    assert sol["residuals"]["primal_infeasibility"] <= 1e-8
    assert "iterate" in sol and "timestamp" in sol
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == ("iter,mu,alpha_p,nbhd_norm,corrector_steps,"
                        "residual_before,residual_after,stalled,corrected,trials")
    assert len(lines) == sol["iterations"] + 1
    # every iteration's predictor tried at least one step; the rows add up
    # to the solution's total
    trials = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert min(trials) >= 1 and sum(trials) == sol["trials"]


def test_numerical_failure_trace_has_the_failing_iteration(tmp_path, singular_newton_matrix):
    # the first Newton direction fails; its iteration still gets a row
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    code = main(["envelope", "--n", "1", "--d", "5", "--out", str(out),
                 "--trace", str(trace)])
    assert code == 4
    sol = read_json(out)
    assert sol["status"] == "NumericalFailure"
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == sol["iterations"] + 1 == 2
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == sol["trials"]


def test_envelope_deterministic_output(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sol_{tag}.json"
        assert main(["envelope", "--n", "1", "--d", "4", "--k", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        outs.append(strip_timestamp(out.read_text()))
    assert outs[0] == outs[1]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_iteration_limit_reports_finite_residuals_in_strict_json(tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["envelope", "--n", "1", "--d", "2", "--max-iters", "1",
                 "--out", str(out)]) == 7
    assert "IterationLimit" in capsys.readouterr().out
    with open(out) as fh:
        sol = json.load(fh, parse_constant=_reject_constant)
    assert sol["status"] == "IterationLimit"
    assert all(np.isfinite(v) for v in sol["residuals"].values())


# the README's exit-code table, one row per solver status
STATUS_EXITS = {
    "Optimal": 0,
    "PrimalInfeasible": 3,
    "DualInfeasible": 3,
    "NumericalFailure": 4,
    "IllPosed": 6,
    "IterationLimit": 7,
}


def test_every_status_has_a_documented_exit_code():
    # the table covers every status the solver reports, and only the two
    # infeasibility certificates share a code
    statuses = {getattr(sp.hsd, name) for name in (
        "OPTIMAL", "PRIMAL_INFEASIBLE", "DUAL_INFEASIBLE", "NUMERICAL_FAILURE",
        "ILL_POSED", "ITERATION_LIMIT")}
    assert set(STATUS_EXITS) == statuses and cli._STATUS_EXIT == STATUS_EXITS
    codes = [STATUS_EXITS[s] for s in sorted(statuses) if not s.endswith("Infeasible")]
    assert len(set(codes)) == len(codes) and STATUS_EXITS["PrimalInfeasible"] not in codes
    readme = (SRC.parent / "README.md").read_text()
    for status, code in STATUS_EXITS.items():
        row = next(line for line in readme.splitlines()
                   if line.startswith("| `") and f"`{status}`" in line)
        assert row.rstrip().endswith(f"| {code} |")


@pytest.mark.parametrize("status", sorted(STATUS_EXITS))
def test_solve_exits_with_its_status_code(tmp_path, monkeypatch, capsys, status):
    # a solve ending in ``status`` exits with the table's code, and the
    # solution file records that status
    solve = sp.hsd.solve

    def ending_in(problem, params=None):
        result = solve(problem, params)
        result.status = status
        return result

    monkeypatch.setattr(sp.hsd, "solve", ending_in)
    out = tmp_path / "sol.json"
    assert main(["envelope", "--n", "1", "--d", "2", "--out", str(out)]) == STATUS_EXITS[status]
    assert f"status: {status}" in capsys.readouterr().out
    assert read_json(out)["status"] == status


@pytest.mark.parametrize("argv", [
    ["envelope", "--n", "1", "--d", "2", "--max-iters", "-1"],
    ["polymin", "--builtin", "caprasse", "--lb-margin", "nan"],
    ["polymin", "--builtin", "caprasse", "--lb-margin", "inf"],
    ["polymin", "--builtin", "caprasse", "--lb-margin", "-1"],
])
def test_flags_that_void_a_check_are_usage_errors(monkeypatch, capsys, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a usage error")

    monkeypatch.setattr(sp.hsd, "solve", no_solve)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_envelope_degree_zero_is_a_usage_error(capsys):
    assert main(["envelope", "--n", "1", "--d", "0"]) == 2
    assert "d = 0" in capsys.readouterr().err


def test_envelope_problem_roundtrip(tmp_path):
    prob_path = tmp_path / "prob.json"
    sol1 = tmp_path / "sol1.json"
    sol2 = tmp_path / "sol2.json"
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "3",
                 "--out", str(sol1), "--problem-out", str(prob_path)]) == 0
    assert main(["solve", "--problem", str(prob_path), "--out", str(sol2)]) == 0
    a, b = read_json(sol1), read_json(sol2)
    assert abs(a["dual_objective"] - b["dual_objective"]) <= 1e-9 * (1 + abs(a["dual_objective"]))


# ----------------------------------------------------------------------
# polymin subcommand


def test_polymin_builtin_caprasse(tmp_path, capsys):
    out = tmp_path / "sol.json"
    cert = tmp_path / "cert.json"
    code = main(["polymin", "--builtin", "caprasse", "--out", str(out),
                 "--certificate", str(cert)])
    assert code == 0
    sol = read_json(out)
    assert sol["status"] == "Optimal"
    data = read_json(cert)
    assert data["factors"][0]["verification"]["passed"]
    assert all(b["min_eigenvalue"] > 0 for b in data["factors"][0]["blocks"])
    assert "lower_bound" in data
    assert "sos_terms" in data["factors"][0]


def test_polymin_constant_poly_file(tmp_path):
    spec = {"kind": "chebyshev", "n": 1, "deg": 0, "coeffs": [4.25],
            "box": {"lower": [-1.0], "upper": [1.0]}}
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(spec))
    out = tmp_path / "sol.json"
    assert main(["polymin", "--poly", str(poly), "--d", "1", "--out", str(out)]) == 0
    sol = read_json(out)
    assert abs(sol["dual_objective"] - 4.25) <= 1e-7


def test_polymin_usage_errors():
    assert main(["polymin"]) == 2
    assert main(["polymin", "--builtin", "nosuch"]) == 2


# ----------------------------------------------------------------------
# solve subcommand


def test_solve_infeasible_problem(tmp_path, capsys, contradictory_rows_solved):
    path = tmp_path / "infeas.json"
    data = fileio.problem_to_dict(contradictory_rows_solved.built.problem)
    fileio.dump_json(path.as_posix(), data)
    out = tmp_path / "sol.json"
    code = main(["solve", "--problem", str(path), "--out", str(out)])
    assert code == 3
    assert read_json(out)["status"] == "PrimalInfeasible"

    # with b = (1, 1) the rows of [A b] are dependent: the Newton system is
    # singular, so the file is refused before any solve
    data["b"] = [1.0, 1.0]
    fileio.dump_json(path.as_posix(), data)
    assert main(["solve", "--problem", str(path)]) == 2
    assert "dependent" in capsys.readouterr().err


def test_solve_dual_infeasible_problem(tmp_path, dual_infeasible_problem):
    path = tmp_path / "dual_infeas.json"
    fileio.dump_json(path.as_posix(), fileio.problem_to_dict(dual_infeasible_problem))
    out = tmp_path / "sol.json"
    code = main(["solve", "--problem", str(path), "--out", str(out)])
    assert code == 3
    assert read_json(out)["status"] == "DualInfeasible"


@pytest.mark.parametrize("eps, code, status", [
    (1e-8, 3, "PrimalInfeasible"),
    (1e-2, 4, "NumericalFailure"),
])
def test_solve_nearly_infeasible_problem(tmp_path, perturbed_rows_problem, eps, code,
                                         status):
    path = tmp_path / "nearly_infeas.json"
    fileio.dump_json(path.as_posix(), fileio.problem_to_dict(perturbed_rows_problem(eps)))
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--out", str(out)]) == code
    assert read_json(out)["status"] == status


def test_solve_nearly_dual_infeasible_problem(tmp_path, dual_infeasible_problem):
    p = dual_infeasible_problem
    path = tmp_path / "nearly_dual_infeas.json"
    problem = sp.ConicProblem(p.A, p.b, 1e-10 * np.ones(p.c.size), p.cone)
    fileio.dump_json(path.as_posix(), fileio.problem_to_dict(problem))
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--out", str(out)]) == 0
    assert read_json(out)["status"] == "Optimal"


def test_solve_envelope_with_inputs_scaled_by_1e6(tmp_path):
    # c of order 1e6 against b of order 1: the null-space Newton system's
    # equilibration must cope with mu*H and the tau row far apart in scale
    fs = [sp.chebyshev_poly(1, f.degree, 1e6 * f.coeffs)
          for f in sp.random_envelope_inputs(1, 5, 2, seed=1)]
    problem = sp.build_envelope(1, 20, 2, fs=fs).problem
    assert problem.identity_blocks and np.max(np.abs(problem.c)) > 1e5
    r = sp.solve(problem)
    assert r.status == "Optimal"
    path = tmp_path / "scaled.json"
    fileio.dump_json(path.as_posix(), fileio.problem_to_dict(problem))
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--out", str(out)]) == 0
    sol = read_json(out)
    assert sol["status"] == "Optimal" and sol["iterations"] == r.iterations


def test_solve_schema_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": [[1.0]], "b": [1.0], "c": [1.0]}))
    assert main(["solve", "--problem", str(bad)]) == 2
    assert "cones" in capsys.readouterr().err

    bad.write_text(json.dumps({
        "A": [[1.0, 1.0]], "b": [1.0], "c": [1.0, 1.0],
        "cones": [{"type": "wsos_interp", "U": 2,
                   "blocks": [{"L": 1, "P_scaled": [1.0, 2.0, 3.0]}]}],
    }))
    assert main(["solve", "--problem", str(bad)]) == 2
    assert "P_scaled" in capsys.readouterr().err

    bad.write_text(json.dumps({"A": [], "b": [], "c": [], "cones": []}))
    assert main(["solve", "--problem", str(bad)]) == 2

    assert main(["solve", "--problem", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("A", [
    [[{"a": 1}]],                # an object where a number belongs
    [[1.0, 1.0], [1.0]],         # ragged rows
    [["one", 1.0]],              # a string entry
])
def test_solve_malformed_A_is_a_schema_error(tmp_path, capsys, A):
    built = sp.build_envelope(1, 3, 2, seed=5)
    data = fileio.problem_to_dict(built.problem)
    data["A"] = A
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(bad)]) == 2
    assert "schema error: A:" in capsys.readouterr().err


def orthant_problem_dict(N):
    """min 1'x s.t. 1'x = N over N one-point cones (x >= 0)."""
    cone = {"type": "wsos_interp", "U": 1, "blocks": [{"L": 1, "P_scaled": [1.0]}]}
    return {"A": [[1.0] * N], "b": [float(N)], "c": [1.0] * N, "cones": [cone] * N}


@pytest.mark.parametrize("N, field, value", [
    (1, "b", ["1"]),             # a string that numpy would read as 1.0
    (1, "A", [[True]]),          # a boolean that numpy would read as 1.0
    (2, "c", [True, 2]),         # numpy makes this the integer array [1, 2]
    (1, "b", [10**400]),         # an integer beyond the float range
    (1, "cones[0].U", True),     # JSON true loads as a bool, a subclass of int
    (1, "cones[0].blocks[0].L", True),
])
def test_solve_non_numeric_entry_is_a_schema_error(tmp_path, capsys, N, field, value):
    data = orthant_problem_dict(N)
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", field)]
    parent = data
    for k in keys:
        parent = parent[k]
    parent[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(bad)]) == 2
    assert f"schema error: {field}:" in capsys.readouterr().err


def test_polymin_object_among_coeffs_is_a_schema_error(tmp_path, capsys):
    spec = {"kind": "chebyshev", "n": 1, "deg": 1, "coeffs": [1.0, {"a": 1}],
            "box": {"lower": [-1.0], "upper": [1.0]}}
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(spec))
    assert main(["polymin", "--poly", str(poly)]) == 2
    assert "schema error: coeffs:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n", "deg"])
def test_polymin_boolean_degree_field_is_a_schema_error(tmp_path, capsys, field):
    spec = {"kind": "chebyshev", "n": 1, "deg": 1, "coeffs": [1.0, 0.5],
            "box": {"lower": [-1.0], "upper": [1.0]}}
    spec[field] = True  # JSON true loads as a bool, a subclass of int
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(spec))
    assert main(["polymin", "--poly", str(poly)]) == 2
    assert f"schema error: {field}:" in capsys.readouterr().err


def test_solve_missing_rows_rejected(tmp_path):
    # empty constraint matrix (k = 0 rows) violates the schema
    pts = sp.cheb2_points(2)
    cone = sp.build_cone(pts, [lambda t: np.ones(t.shape[0])], [1])
    data = fileio.problem_to_dict(
        sp.ConicProblem(np.ones((1, 3)), np.array([1.0]), np.ones(3), cone))
    data["A"] = []
    data["b"] = []
    bad = tmp_path / "rows.json"
    bad.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(bad)]) == 2


# ----------------------------------------------------------------------
# certify subcommand


def test_certify_roundtrip(tmp_path):
    prob_path = tmp_path / "prob.json"
    sol_path = tmp_path / "sol.json"
    cert_path = tmp_path / "cert.json"
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "2",
                 "--out", str(sol_path), "--problem-out", str(prob_path)]) == 0
    code = main(["certify", "--problem", str(prob_path), "--solution", str(sol_path),
                 "--out", str(cert_path)])
    assert code == 0
    data = read_json(cert_path)
    assert len(data["factors"]) == 2
    for factor in data["factors"]:
        assert factor["verification"]["passed"]
        assert all(b["min_eigenvalue"] > 0 for b in factor["blocks"])


def test_certify_exterior_iterate_exits_numerical(tmp_path, capsys):
    prob_path = tmp_path / "prob.json"
    sol_path = tmp_path / "sol.json"
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "2",
                 "--out", str(sol_path), "--problem-out", str(prob_path)]) == 0
    sol = read_json(sol_path)
    sol["iterate"]["x"] = [-v for v in sol["iterate"]["x"]]
    sol_path.write_text(json.dumps(sol))
    code = main(["certify", "--problem", str(prob_path), "--solution", str(sol_path)])
    assert code == 4
    assert "interior" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved_files(tmp_path_factory):
    """A small envelope's problem file and its solution JSON."""
    tmp = tmp_path_factory.mktemp("certify")
    prob_path, sol_path = tmp / "prob.json", tmp / "sol.json"
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "2",
                 "--out", str(sol_path), "--problem-out", str(prob_path)]) == 0
    return prob_path, read_json(sol_path)


def _drop_mu(it):
    del it["mu"]


def _shorten_x(it):
    it["x"] = it["x"][:-1]


@pytest.mark.parametrize("field, corrupt", [
    ("iterate.mu", _drop_mu),
    ("iterate.x", _shorten_x),
])
def test_certify_malformed_iterate_is_a_schema_error(tmp_path, capsys, solved_files,
                                                     field, corrupt):
    prob_path, sol = solved_files
    sol = json.loads(json.dumps(sol))
    corrupt(sol["iterate"])
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(sol))
    assert main(["certify", "--problem", str(prob_path), "--solution", str(sol_path)]) == 2
    assert f"schema error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_certify_tolerance_must_be_finite_and_positive(tmp_path, capsys, solved_files,
                                                       tol):
    prob_path, sol = solved_files
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(sol))
    assert main(["certify", "--problem", str(prob_path), "--solution", str(sol_path),
                 "--tol", tol]) == 2
    assert "tol must be a finite positive number" in capsys.readouterr().err


def test_format_only_on_points(tmp_path):
    built = sp.build_envelope(1, 3, 2, seed=5)
    path = tmp_path / "prob.json"
    fileio.dump_json(path.as_posix(), fileio.problem_to_dict(built.problem))
    assert main(["solve", "--problem", str(path), "--format", "csv"]) == 2


# ----------------------------------------------------------------------
# environment and schema helpers


def test_solver_tol_env(tmp_path, monkeypatch):
    out = tmp_path / "sol.json"
    monkeypatch.setenv("SOLVER_TOL", "1e-4")
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    loose_iters = read_json(out)["iterations"]
    monkeypatch.delenv("SOLVER_TOL")
    assert main(["envelope", "--n", "1", "--d", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    tight_iters = read_json(out)["iterations"]
    assert loose_iters < tight_iters

    monkeypatch.setenv("SOLVER_TOL", "not-a-number")
    assert main(["envelope", "--n", "1", "--d", "4", "--out", str(out)]) == 2


def test_polyspec_schema_errors():
    with pytest.raises(SchemaError):
        fileio.polyspec_from_dict({"kind": "mystery"})
    with pytest.raises(SchemaError):
        fileio.polyspec_from_dict({"kind": "chebyshev", "n": 1, "deg": 1,
                                   "coeffs": [1.0],
                                   "box": {"lower": [-1.0], "upper": [1.0]}})
    with pytest.raises(SchemaError):
        fileio.polyspec_from_dict({"kind": "builtin", "name": "nosuch"})


def _values_spec(n, deg, values, points=None):
    spec = {"kind": "values", "n": n, "deg": deg, "values": list(values),
            "box": {"lower": [-1.0] * n, "upper": [2.0] * n}}
    if points is not None:
        spec["points"] = [list(p) for p in points]
    return spec


def test_values_polyspec_fits_chebyshev_coefficients():
    n, deg = 2, 3
    box = sp.BoxDomain([-1.0] * n, [2.0] * n)
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, sp.space_dim(n, deg))
    pts = sp.points_for_degree(n, deg, box).points
    values = sp.chebyshev_poly(n, deg, coeffs, box)(pts)
    spec = fileio.polyspec_from_dict(_values_spec(n, deg, values))
    assert spec.kind == "chebyshev"
    np.testing.assert_allclose(spec.coeffs, coeffs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0]],       # 5 of 6
    [[t, t] for t in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)],               # collinear
])
def test_values_polyspec_points_checked_at_load(tmp_path, points):
    spec = _values_spec(2, 2, np.arange(len(points), dtype=float), points)
    with pytest.raises(SchemaError, match="^points"):
        fileio.polyspec_from_dict(spec)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(spec))
    assert main(["polymin", "--poly", str(poly)]) == 2


def test_problem_dict_roundtrip_values():
    built = sp.build_envelope(1, 3, 2, seed=5)
    data = fileio.problem_to_dict(built.problem)
    again = fileio.problem_from_dict(data)
    np.testing.assert_array_equal(again.A, built.problem.A)
    np.testing.assert_array_equal(again.b, built.problem.b)
    np.testing.assert_array_equal(again.c, built.problem.c)
    for f0, f1 in zip(built.problem.cone.factors, again.cone.factors):
        for B0, B1 in zip(f0.blocks, f1.blocks):
            np.testing.assert_array_equal(B0, B1)


# ----------------------------------------------------------------------
# documentation


def test_readme_cli_section_names_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {opt for p in subparsers.choices.values() for action in p._actions
               for opt in action.option_strings if opt.startswith("--")}
    defined.discard("--help")
    assert documented == defined
