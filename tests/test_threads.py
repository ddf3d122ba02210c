"""BLAS thread pinning at import, checked in fresh interpreters, and the
threads that cone factors run on."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sospoly as sp
from sospoly import _threads, hsd, wsos
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


# ----------------------------------------------------------------------
# cone factors on a thread pool


@pytest.fixture
def fresh_pool(monkeypatch):
    """No factor pool yet; whatever pool the test makes is shut down after it."""
    monkeypatch.setattr(_threads, "_pool", None)
    monkeypatch.delenv("SOSPOLY_KEEP_BLAS_THREADS", raising=False)
    yield
    if _threads._pool is not None:
        _threads._pool[1].shutdown()


def run_concurrently(monkeypatch):
    """Factors of any size run concurrently, with one worker besides the caller."""
    monkeypatch.setattr(wsos, "CONCURRENT_MIN_U", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def concurrent_factors(monkeypatch, fresh_pool):
    run_concurrently(monkeypatch)


def solve_envelope(n, d, k):
    built = sp.build_envelope(n, d, k, seed=3)
    result = sp.solve(built.problem)
    grams = [sp.recover_gram(f, result.final.x[sl], result.final.s[sl], result.final.mu,
                             barrier=ev).grams
             for f, ev, sl in zip(built.cone.factors, result.final.barrier.factor_evals,
                                  built.cone.slices())]
    return result, grams


def assert_identical(sequential, concurrent):
    """Same iterations, final x, y, s, trace and Gram blocks, bit for bit."""
    (seq, seq_grams), (con, con_grams) = sequential, concurrent
    assert seq.status == con.status == "Optimal"
    assert seq.iterations == con.iterations
    for key in ("x", "y", "s"):
        assert np.array_equal(getattr(seq, key), getattr(con, key))
    assert seq.trace == con.trace
    for a, b in zip(seq_grams, con_grams, strict=True):
        assert all(np.array_equal(ga, gb) for ga, gb in zip(a, b, strict=True))


def test_map_factors_waits_for_all_and_raises_in_factor_order(fresh_pool):
    done = []

    def fn(i):
        done.append(i)
        if i:
            raise ValueError(f"factor {i}")
        return i

    assert _threads.map_factors(lambda i: i * i, 3, 1) == [0, 1, 4]
    with pytest.raises(ValueError, match="factor 1"):
        _threads.map_factors(fn, 3, 1)
    assert sorted(done) == [0, 1, 2]


@pytest.mark.parametrize("n, d, k", [(1, 12, 2), (1, 12, 3), (2, 4, 2), (2, 4, 3)])
def test_concurrent_factors_change_no_bit(monkeypatch, fresh_pool, n, d, k):
    sequential = solve_envelope(n, d, k)  # U = 25 and 45: below the gate
    assert _threads._pool is None
    on_caller = []
    form = wsos.BarrierEval._form_derivatives

    def recording(ev):
        on_caller.append(threading.current_thread() is threading.main_thread())
        return form(ev)

    monkeypatch.setattr(wsos.BarrierEval, "_form_derivatives", recording)
    run_concurrently(monkeypatch)
    concurrent = solve_envelope(n, d, k)
    assert True in on_caller and False in on_caller  # caller and worker both formed
    assert_identical(sequential, concurrent)


def test_more_workers_than_cores_under_fast_switching(monkeypatch, fresh_pool):
    sequential = solve_envelope(2, 4, 3)
    run_concurrently(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = solve_envelope(2, 4, 3)
    finally:
        sys.setswitchinterval(interval)
    assert _threads._pool[1]._max_workers == 7
    assert_identical(sequential, concurrent)


def test_failed_factor_on_the_worker_leaves_no_task(monkeypatch, concurrent_factors):
    # factor 1's plain and shifted Hessian Cholesky both fail on the worker,
    # which then still runs factor 2 before the trial comes out as None
    problem = sp.build_envelope(1, 12, 3, seed=3).problem
    U = problem.cone.factors[0].U
    z = hsd.initial_point(problem)
    cholesky = np.linalg.cholesky
    worker_calls = []

    def fail_factor_1(a):
        if a.shape == (U, U) and threading.current_thread() is not threading.main_thread():
            worker_calls.append(1)
            if len(worker_calls) <= 2:
                raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", fail_factor_1)
    assert hsd.try_make_iterate(problem, z.x, z.tau, z.y, z.s, z.kappa) is None
    assert len(worker_calls) == 3
    assert _threads._pool[1]._work_queue.empty()

    # in sequence, the same fault (factor 1's two Hessian Cholesky calls) gives the same
    calls = []

    def fail_in_order(a):
        if a.shape == (U, U):
            calls.append(1)
            if len(calls) in (2, 3):
                raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(wsos, "CONCURRENT_MIN_U", math.inf)
    monkeypatch.setattr(np.linalg, "cholesky", fail_in_order)
    assert hsd.try_make_iterate(problem, z.x, z.tau, z.y, z.s, z.kappa) is None
    assert len(calls) == 3  # factor 2 never reached


def test_forked_child_solves_with_its_own_pool(concurrent_factors):
    problem = sp.build_envelope(1, 12, 2, seed=3).problem
    assert sp.solve(problem).status == "Optimal"
    parent_pool = _threads._pool

    def child():
        ok = sp.solve(problem).status == "Optimal"
        os._exit(0 if ok and _threads._pool[0] == os.getpid() else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("forked child hung on the inherited pool")
    assert proc.exitcode == 0
    assert _threads._pool is parent_pool


@pytest.mark.parametrize("one_core", [True, False])
def test_no_pool_with_one_core_or_kept_blas_threads(monkeypatch, fresh_pool, one_core):
    monkeypatch.setattr(wsos, "CONCURRENT_MIN_U", 0)
    if one_core:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("SOSPOLY_KEEP_BLAS_THREADS", "1")
    assert _threads.extra_workers() == 0
    assert sp.solve(sp.build_envelope(1, 12, 3, seed=3).problem).status == "Optimal"
    assert _threads._pool is None


@pytest.mark.parametrize("cpus, want", [(4, 3), (None, 0)])
def test_workers_without_affinity_call(monkeypatch, cpus, want):
    # macOS and Windows have no os.sched_getaffinity: the core count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delenv("SOSPOLY_KEEP_BLAS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _threads.extra_workers() == want
    monkeypatch.setenv("SOSPOLY_KEEP_BLAS_THREADS", "1")
    assert _threads.extra_workers() == 0
