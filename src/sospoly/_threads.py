"""BLAS threadpool management, and the threads that cone factors run on.

numpy and scipy each bundle their own OpenBLAS; with both pools spinning,
the solver's many small dense operations contend for cores and slow down by
one to two orders of magnitude. BLAS threading is therefore pinned to one
thread at import (set SOSPOLY_KEEP_BLAS_THREADS=1 to opt out): through
threadpoolctl when it is installed, otherwise through the BLAS thread
variables, which take effect only if numpy has not loaded its BLAS yet.

The spare cores go to the cone factors instead: ``map_factors`` runs the
per-factor work of a product cone with factor 0 in the calling thread and
the others on a pool of one worker per further usable core. numpy's BLAS
and LAPACK calls (matrix products, ``np.linalg.cholesky``) release the GIL,
so those overlap while each still runs on one BLAS thread. scipy's wrappers
do not: with scipy 1.17.1 on 2 cores, a Python loop beside a worker running
``scipy.linalg.lapack.dpotrf``, ``scipy.linalg.blas.dtrsm`` or
``solve_triangular`` at U = 1500 ran at 0.7-1.3 M iterations/s, against
7-9 M/s beside numpy's ``cholesky`` or a matrix product. So the concurrent
Hessian stage overlaps the forming and the Cholesky of each factor's
Hessian, while the triangular solve of ``BarrierEval.inv_quadform`` holds
the GIL. ``extra_workers`` is 0, and everything runs in the caller, when
one core is usable (``os.sched_getaffinity`` where the platform has it, as
on Linux, and ``os.cpu_count`` elsewhere) or when SOSPOLY_KEEP_BLAS_THREADS
is set, because BLAS then threads itself.
``wsos.ProductBarrierEval.centrality`` asks for it only when the cone has
two or more factors and they are large (``wsos.ProductCone.large_factors``).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait

try:
    import threadpoolctl
except ImportError:  # pragma: no cover
    threadpoolctl = None

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

_limiter = None
# (pid of the process that made it, executor); None until first needed
_pool = None


def limit_blas_threads():
    global _limiter
    if os.environ.get("SOSPOLY_KEEP_BLAS_THREADS"):
        return
    if threadpoolctl is None:
        # a BLAS reads its thread variable when it loads; once numpy is in,
        # setting it would do nothing, so threading is left alone
        if "numpy" not in sys.modules:
            for var in BLAS_THREAD_VARS:
                os.environ.setdefault(var, "1")
        return
    if _limiter is None:
        # force both BLAS-backed pools to exist before limiting them
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401

        _limiter = threadpoolctl.threadpool_limits(limits=1, user_api="blas")


def extra_workers() -> int:
    """Threads besides the caller's that ``map_factors`` may use."""
    if os.environ.get("SOSPOLY_KEEP_BLAS_THREADS"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1  # macOS and Windows have no affinity call


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        # a pool inherited through fork has no threads and would never run
        # a task, so a forked child makes its own; callers racing here each
        # get a working pool
        _pool = (pid, ThreadPoolExecutor(workers, thread_name_prefix="sospoly-factor"))
    return _pool[1]


def map_factors(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)], with fn(1), ... on a pool of ``workers`` threads.

    fn(0) runs in the caller. Every task is waited for before the first
    error in index order is raised, so none is left running. With no
    workers the calls run in order in the caller and the first error stops
    them.
    """
    if workers < 1:
        return [fn(i) for i in range(count)]
    futures = [_executor(workers).submit(fn, i) for i in range(1, count)]
    try:
        first = fn(0)
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
