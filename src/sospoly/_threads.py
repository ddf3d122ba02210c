"""BLAS threadpool management.

numpy and scipy each bundle their own OpenBLAS; with both pools spinning,
the solver's many small dense operations contend for cores and slow down by
one to two orders of magnitude. BLAS threading is therefore pinned to one
thread at import (set SOSPOLY_KEEP_BLAS_THREADS=1 to opt out): through
threadpoolctl when it is installed, otherwise through the BLAS thread
variables, which take effect only if numpy has not loaded its BLAS yet.
"""

from __future__ import annotations

import os
import sys

try:
    import threadpoolctl
except ImportError:  # pragma: no cover
    threadpoolctl = None

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

_limiter = None


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
