"""The benchmark's own tests: a seconds-long smoke run and the reference checks.

    python3 -m pytest benchmarks/test_perfbench.py
"""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(trace, kind):
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 and result["attempted"] % 2 == 0  # whole rounds
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])


def test_benchmark_workloads_exist():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == {"envelope-1d", "envelope-3d", "polymin-builtin"}
    assert names <= set(workloads.WORKLOADS)


def test_unknown_workload_is_refused():
    proc = _run("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def solved_smoke():
    import sospoly as sp

    inst = workloads.WORKLOADS["smoke"](5)[0]
    built = workloads.build(inst)
    result = sp.solve(built.problem, sp.SolverParams(tol_gap=inst.tol, tol_infeas=inst.tol))
    certs = workloads.certify(inst, built, result)
    return inst, built, result, certs


def test_checks_accept_a_correct_result(solved_smoke):
    assert workloads.check(*solved_smoke) == ([], [])
    assert all(report.passed for _, _, _, report in solved_smoke[3])


def test_a_certificate_off_the_adjoint_identity_fails_the_instance(solved_smoke):
    inst, built, result, certs = solved_smoke
    factor, s, cert, report = certs[0]
    grams = list(cert.grams)
    grams[0] = grams[0] + 1e-4 * np.eye(grams[0].shape[0])  # still positive definite
    bad = [(factor, s, dataclasses.replace(cert, grams=grams), report)] + certs[1:]
    wrong, inexact = workloads.check(inst, built, result, bad)
    assert wrong == []
    assert any("adjoint residual" in m for m in inexact)


def test_a_raising_stage_fails_the_operation_and_keeps_its_time(solved_smoke, monkeypatch):
    inst, built, _, _ = solved_smoke

    def broken_certify(*args):
        raise ValueError("broken")

    monkeypatch.setattr(workloads, "certify", broken_certify)
    out = workloads.solve_and_certify(inst, built)
    assert out.failed and out.wrong == ["ValueError: broken"]
    assert out.solve_s > 0.0 and out.certify_s > 0.0 and out.iterations > 0


def test_checks_reject_an_indefinite_gram_block(solved_smoke):
    inst, built, result, certs = solved_smoke
    factor, s, cert, report = certs[0]
    grams = list(cert.grams)
    w, v = np.linalg.eigh(grams[0])
    # move the smallest eigenvalue below zero
    grams[0] = grams[0] - (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0])
    assert checks.check_positive_gram(cert.grams) == []
    assert any("smallest eigenvalue" in f for f in checks.check_positive_gram(grams))
    assert checks.check_adjoint(factor.blocks, cert.grams, s) == []
    assert checks.check_adjoint(factor.blocks, grams, s)


def test_checks_reject_a_dual_polynomial_above_an_input(solved_smoke):
    inst, built, result, certs = solved_smoke
    bad = copy.copy(result)
    bad.y = result.y + 1e-3
    assert workloads.envelope_check(inst, built, bad, certs)


def test_checks_reject_a_bound_above_the_optimum():
    opt = workloads.POLYMIN_OPTIMA["butcher"]
    assert checks.check_bound(opt - 1e-8, opt) == []
    assert checks.check_bound(opt + 1e-5, opt)
    assert checks.check_bound(opt - 1e-3, opt)  # valid but too loose


def test_checks_reject_unconverged_or_slow_solves(solved_smoke):
    inst, built, result, certs = solved_smoke
    prob = built.problem
    assert checks.check_solution(prob.A, prob.b, prob.c, result, inst.tol, inst.max_iters) == []
    slow = copy.copy(result)
    slow.iterations = inst.max_iters + 1
    assert checks.check_solution(prob.A, prob.b, prob.c, slow, inst.tol, inst.max_iters)
    off = copy.copy(result)
    off.y = result.y + 1e-4
    assert checks.check_solution(prob.A, prob.b, prob.c, off, inst.tol, inst.max_iters)


def test_own_chebyshev_basis_matches_library_convention():
    import sospoly as sp

    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    ours = checks.cheb_tensor(pts, checks.graded_lex(3, 4))
    theirs = sp.interpolation.cheb_basis_values(pts, sp.BoxDomain.unit(3), 4)
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)
