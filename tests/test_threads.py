"""BLAS thread pinning at import, checked in fresh interpreters, and cone
factors evaluated on the calling thread."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sospoly as sp
from sospoly import hsd, wsos
from sospoly._threads import BLAS_THREAD_VARS

SRC = Path(__file__).resolve().parents[1] / "src"


def thread_vars_after_import(first="", keep=False):
    """The BLAS thread variables after `import sospoly` without threadpoolctl."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and k != "SOSPOLY_KEEP_BLAS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if keep:
        env["SOSPOLY_KEEP_BLAS_THREADS"] = "1"
    code = "\n".join([
        "import sys",
        "sys.modules['threadpoolctl'] = None  # import fails, as when not installed",
        first,
        "import json, os, sospoly",
        f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("first, keep, want", [
    ("", False, "1"),               # pinned before numpy loads its BLAS
    ("", True, None),               # opted out
    ("import numpy", False, None),  # too late to pin: threading left alone
])
def test_blas_pinning_without_threadpoolctl(first, keep, want):
    assert thread_vars_after_import(first, keep) == dict.fromkeys(BLAS_THREAD_VARS, want)


def test_factors_run_on_the_calling_thread(monkeypatch):
    # three factors, screened as large ones are: the solve starts no thread,
    # and every factor's Hessian is formed on the main thread
    monkeypatch.setattr(wsos.InterpWSOSCone, "screened", True)
    on_main = []
    form = wsos.BarrierEval._form_hessian

    def recording(ev):
        on_main.append(threading.current_thread() is threading.main_thread())
        return form(ev)

    monkeypatch.setattr(wsos.BarrierEval, "_form_hessian", recording)
    problem = sp.build_envelope(1, 12, 3, seed=3).problem
    assert len(problem.cone.factors) == 3
    assert all(f.screened for f in problem.cone.factors)
    before = threading.enumerate()
    assert sp.solve(problem).status == hsd.OPTIMAL
    assert threading.enumerate() == before
    assert on_main and all(on_main)
