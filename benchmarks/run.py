"""Build -> solve -> certify benchmark for sospoly.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload envelope-1d --seed 1 --seconds 15 --trace 0

One process runs one workload with BLAS pinned to one thread. It builds
the workload's instances (the set-up, repeated in whole passes until
``SETUP_SECONDS`` have passed), then solves and certifies them in whole
rounds, same inputs in every round, until ``--seconds`` have passed. Every
solve is checked against independent references. The run prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when an operation failed a check that shows a wrong
result; an operation whose certificate only misses the 1e-8 adjoint
identity (a known library fault) counts in ``failed`` and leaves it true.
With ``--trace 0`` the metrics are the end-to-end ones: for each stage,
the sum over instances of the instance's median time. With ``--trace 1``
the library's layers are wrapped and the metrics are per-layer: medians
over set-up passes and over rounds. The library is imported from ``src/``
next to this directory; without it, or when a BLAS library runs on more
than one thread, the run exits with status 2 before printing a result.
"""

from __future__ import annotations

import os

# must precede the first numpy import; OpenBLAS reads it when it loads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SECONDS = 2.0  # build passes repeat until this long has passed

E2E_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

_BLAS_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name and ".so" in path:
                libs.add(path)
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import sospoly from this checkout's src/ only."""
    if not (SRC / "sospoly" / "__init__.py").is_file():
        fail(f"no sospoly sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sospoly
    if Path(sospoly.__file__).resolve().parent != SRC / "sospoly":
        fail(f"sospoly imported from {sospoly.__file__}, not from {SRC}")
    import numpy  # noqa: F401  (loads both BLAS pools before they are inspected)
    import scipy.linalg  # noqa: F401
    return sospoly


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sospoly = import_library()
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    threads = blas_threads()
    pinned = sospoly._threads._limiter is not None
    print(f"blas threads: {threads}; sospoly pinning active: {pinned}")
    if not threads or any(v != 1 for v in threads.values()):
        fail("BLAS must run on exactly one thread")

    instances = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    build_s = {inst.name: [] for inst in instances}
    solve_s = {inst.name: [] for inst in instances}
    certify_s = {inst.name: [] for inst in instances}
    iterations = {}
    attempted = failed = wrong = rejected = certificates = passes = rounds = 0
    if tracer:
        tracer.install()
    try:
        # set-up: build every instance, in whole passes until SETUP_SECONDS have passed
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < SETUP_SECONDS:
            passes += 1
            if tracer:
                tracer.new_segment()
            built = []
            for inst in instances:
                t0 = time.perf_counter()
                built.append(workloads.build(inst))
                build_s[inst.name].append(time.perf_counter() - t0)
        # measurement: whole rounds of solve + certify until --seconds have passed
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.new_segment()
            for inst, problem in zip(instances, built):
                attempted += 1
                try:
                    out = workloads.solve_and_certify(inst, problem)
                except Exception as exc:  # a check that raises counts as a wrong result
                    print(f"FAIL {inst.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    failed += 1
                    wrong += 1
                    continue
                if out.failed:
                    print(f"FAIL {inst.name}: {'; '.join(out.wrong + out.inexact)}",
                          file=sys.stderr)
                    failed += 1
                    wrong += bool(out.wrong)
                for m in out.rejected:
                    print(f"REJECTED {inst.name}: {m}", file=sys.stderr)
                rejected += len(out.rejected)
                certificates += len(problem.cone.factors)
                solve_s[inst.name].append(out.solve_s)
                certify_s[inst.name].append(out.certify_s)
                iterations[inst.name] = out.iterations
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()

    def median_sum(times):
        """Sum over instances of each instance's median time."""
        return sum(statistics.median(v) for v in times.values() if v)

    e2e = {
        "setup_s": median_sum(build_s),
        "solve_s": median_sum(solve_s),
        "certify_s": median_sum(certify_s),
        "iterations": sum(iterations.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    e2e["total_s"] = e2e["setup_s"] + e2e["solve_s"] + e2e["certify_s"]
    print(f"{rounds} rounds of {len(instances)} instances after {passes} set-up passes; "
          f"failed {failed} of {attempted} ({wrong} with a wrong result); "
          f"verify_certificate rejected {rejected} of {certificates} certificates")
    if tracer:
        layers = [layer_metrics(spans, counts) for spans, counts in tracer.segments()]
        setup_layers, round_layers = layers[:passes], layers[passes:]
        # each per-layer metric is fed by set-up passes or by rounds, not both
        values = {name: statistics.median(m[name] for m in setup_layers)
                  + statistics.median(m[name] for m in round_layers)
                  for name in PER_LAYER_UNITS}
        print("traced: " + ", ".join(f"{k} {e2e[k]:.4g}" for k in E2E_UNITS))
        units = PER_LAYER_UNITS
    else:
        values, units = e2e, E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
