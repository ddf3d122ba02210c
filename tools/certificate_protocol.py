"""The certificate protocol for changes that move iterates, in one command.

Solves and certifies the two populations of ROADMAP's protocol, built as
the benchmark builds its envelope instances (``benchmarks/workloads.py``,
imported and left unchanged):

- n1: n=1 d=100 envelopes, three per seed at tolerance 1e-8 (60 cone
  factors over seeds 1-10);
- n3: n=3 d=6 envelopes, the envelope-3d workload's two per seed at
  tolerance 1e-6 (40 cone factors over seeds 1-10).

For each population it prints the cone factors certified, the solver's
iterations, predictor trials, corrector steps, Newton directions (one
per iteration plus one per corrector step, each a factorization of the
Newton system), factor barrier evaluations, factor Hessian stages and
screen calls (counted by wrapping ``wsos.InterpWSOSCone.barrier``,
``wsos.BarrierEval._form_hessian``, which forms a factor's Hessian, and
``wsos.BarrierEval.inv_quadform_lower_bound``, which screens a trial's
factor, during the solves only), the factors whose Gram blocks miss the
adjoint identity to 1e-8 (1 + ||s||_2) (``checks.check_adjoint``), the
factors ``verify_certificate`` rejects, the worst adjoint residual as a share of
that limit, the worst ``verify_certificate`` margin (its certified residual
as a share of its limit, 1e-8 (1 + ||s||_inf)) with the factor that holds
it, and the instances that fail another reference check (a status other
than Optimal among them). A margin near 1 is a rejection that rounding
alone can bring about.
BLAS runs on one thread, as in the benchmark. It exits 1 if any factor
misses or is rejected or any instance fails a check.

    python3 tools/certificate_protocol.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import sospoly as sp  # noqa: E402
from sospoly import wsos  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)
POPULATIONS = {
    "n1": lambda seed: workloads.envelope_instances(seed, 1, 100, 3, 1e-8, 102),
    "n3": workloads.WORKLOADS["envelope-3d"],
}


def _counting(counts: dict, key: str, fn):
    """fn, adding one to counts[key] per call."""
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted


def _counted_solve(problem, params, totals):
    """sp.solve, adding its factor barrier evaluations, factor Hessian
    stages and screen calls to totals."""
    counted = ((wsos.InterpWSOSCone, "barrier", "barriers"),
               (wsos.BarrierEval, "_form_hessian", "hessian_stages"),
               (wsos.BarrierEval, "inv_quadform_lower_bound", "screens"))
    originals = [getattr(owner, attr) for owner, attr, _ in counted]
    for (owner, attr, key), fn in zip(counted, originals):
        setattr(owner, attr, _counting(totals, key, fn))
    try:
        return sp.solve(problem, params)
    finally:
        for (owner, attr, _), fn in zip(counted, originals):
            setattr(owner, attr, fn)


def run_population(name: str) -> dict:
    """Totals over the population's instances for every seed."""
    totals = dict(factors=0, iterations=0, trials=0, corrector_steps=0, barriers=0,
                  hessian_stages=0, screens=0, misses=0, rejections=0, worst_ratio=0.0,
                  worst_margin=(0.0, None), failed=[])
    for seed in SEEDS:
        for inst in POPULATIONS[name](seed):
            built = workloads.build(inst)
            params = sp.SolverParams(tol_gap=inst.tol, tol_infeas=inst.tol)
            result = _counted_solve(built.problem, params, totals)
            totals["iterations"] += result.iterations
            totals["trials"] += result.trials
            totals["corrector_steps"] += sum(rec.corrector_steps for rec in result.trace)
            if result.status != sp.hsd.OPTIMAL:
                totals["failed"].append(f"{inst.name}: status {result.status}")
                continue
            certs = workloads.certify(inst, built, result)
            wrong, _ = workloads.check(inst, built, result, certs)
            totals["failed"] += [f"{inst.name}: {m}" for m in wrong]
            for i, (factor, s, cert, report) in enumerate(certs):
                resid = np.max(np.abs(checks.adjoint_sum(factor.blocks, cert.grams) - s))
                ratio = float(resid) / (1e-8 * (1.0 + np.linalg.norm(s)))
                totals["factors"] += 1
                totals["misses"] += bool(checks.check_adjoint(factor.blocks, cert.grams, s))
                totals["rejections"] += not report.passed
                totals["worst_ratio"] = max(totals["worst_ratio"], ratio)
                margin = report.adjoint_residual / (1e-8 * (1.0 + np.max(np.abs(s))))
                if margin > totals["worst_margin"][0]:
                    totals["worst_margin"] = (float(margin), f"{inst.name} factor {i}")
    return totals


def main() -> int:
    clean = True
    for name in POPULATIONS:
        t = run_population(name)
        print(f"{name}: factors {t['factors']}, iterations {t['iterations']}, "
              f"trials {t['trials']}, corrector steps {t['corrector_steps']}, "
              f"Newton directions {t['iterations'] + t['corrector_steps']}, "
              f"factor barrier evaluations {t['barriers']}, "
              f"factor Hessian stages {t['hessian_stages']}, "
              f"screen calls {t['screens']}, "
              f"misses {t['misses']}, rejections {t['rejections']}, "
              f"worst ratio {t['worst_ratio']:.3g}, "
              f"worst margin {t['worst_margin'][0]:.3g} ({t['worst_margin'][1]}), "
              f"failed {len(t['failed'])}", flush=True)
        for line in t["failed"]:
            print(f"  FAIL {line}")
        clean = clean and not (t["misses"] or t["rejections"] or t["failed"])
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
