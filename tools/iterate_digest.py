"""Digests of the 32-instance set's built problems and solves, in one command.

Builds and solves each instance of ROADMAP's 32-instance set and prints one
line per instance: a digest of the built problem (interpolation points,
every cone factor's blocks, b and c), the solve's status, iterations and
predictor trials, and a digest of the final x, y and s. Two checkouts whose
outputs diff empty build the same problems and take the same iterates, bit
for bit.

The instances come from the builders the tests and the benchmark already
use, imported and left unchanged:

- the session fixtures of ``tests/conftest.py``: envelope_small,
  envelope_small_k3, env1d100, env2d10, env3d6, the contradictory rows,
  butcher, caprasse and magnetism;
- ``benchmarks/workloads.py``: the envelope-1d panel's 3 instances and
  envelope-3d's 2 instances for each seed 1-10, built and solved as the
  benchmark builds and solves them. polymin-builtin's instances are the
  butcher, caprasse and magnetism fixtures' problems.

BLAS runs on one thread, as in the tests and the benchmark.

    python3 tools/iterate_digest.py > digests.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import sospoly as sp  # noqa: E402
import conftest  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ["envelope_small", "envelope_small_k3", "envelope_1d_100", "envelope_2d_10",
            "envelope_3d_6", "contradictory_rows_solved", "butcher_solved",
            "caprasse_solved", "magnetism_solved"]
ENVELOPE_3D_SEEDS = range(1, 11)


def digest(*arrays) -> str:
    """sha256 over each array's shape and bytes, in order; 16 hex digits."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def fixture_instances():
    """(name, built, result) from the conftest fixtures, called directly."""
    for name in FIXTURES:
        fixture = getattr(conftest, name).__wrapped__
        if name == "contradictory_rows_solved":
            solved = fixture(conftest.perturbed_rows_problem.__wrapped__())
        else:
            solved = fixture()
        yield name, solved.built, solved.result


def workload_instances():
    """(name, built, result) for the benchmark's envelope instances in the set."""
    insts = workloads.WORKLOADS["envelope-1d"](1)
    for seed in ENVELOPE_3D_SEEDS:
        insts += workloads.WORKLOADS["envelope-3d"](seed)
    for inst in insts:
        built = workloads.build(inst)
        params = sp.SolverParams(tol_gap=inst.tol, tol_infeas=inst.tol)
        yield inst.name, built, sp.solve(built.problem, params)


def main() -> int:
    count = iterations = 0
    for name, built, result in (*fixture_instances(), *workload_instances()):
        prob = built.problem
        blocks = [B for f in sp.wsos.as_product(prob.cone).factors for B in f.blocks]
        print(f"{name}: build {digest(built.pts.points, *blocks, prob.b, prob.c)}  "
              f"status {result.status}  iterations {result.iterations}  "
              f"trials {result.trials}  final {digest(result.x, result.y, result.s)}",
              flush=True)
        count += 1
        iterations += result.iterations
    print(f"instances {count}, iterations {iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
