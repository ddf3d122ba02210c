"""Workload instances and the build -> solve -> certify pipeline they run.

Inputs come from the run's seed, except envelope-1d's fixed panel (see
``ENVELOPE_1D_PANEL_SEED``); the library only sees the generated
polynomials. Every stage goes through the public ``sospoly`` API, and every
instance is checked against the references in :mod:`checks`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import sospoly as sp

import checks

ENVELOPE_INPUT_DEGREE = 5
ENVELOPE_K = 2
POLYMIN_MARGIN = 1e-9  # certified bound = solved bound - margin


@dataclass(frozen=True)
class EnvelopeInstance:
    """Lower envelope of k random Chebyshev polynomials on [-1, 1]^n."""

    name: str
    n: int
    d: int
    coeffs: tuple  # one graded-lex Chebyshev coefficient array per input
    tol: float
    max_iters: int


@dataclass(frozen=True)
class PolyminInstance:
    """Box-constrained minimization of a named polynomial with known optimum."""

    name: str
    optimum: float
    tol: float = 1e-8
    max_iters: int | None = None  # no acceptance bound for these instances


# literature value for caprasse; magnetism is -1/4 at t0 = 1/2, other t = 0
POLYMIN_OPTIMA = {
    "butcher": -2159.0 / 1500.0,
    "caprasse": -3.1800966,
    "magnetism": -0.25,
}


def envelope_instances(seed: int, n: int, d: int, count: int, tol: float,
                       max_iters: int) -> list[EnvelopeInstance]:
    """``count`` instances with iid uniform [-1, 1] coefficients from (seed, i)."""
    dim = len(checks.graded_lex(n, ENVELOPE_INPUT_DEGREE))
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        coeffs = tuple(rng.uniform(-1.0, 1.0, dim) for _ in range(ENVELOPE_K))
        out.append(EnvelopeInstance(f"env{n}d{d}-s{seed}.{i}", n, d, coeffs, tol, max_iters))
    return out


# envelope-1d runs the three instances of this seed whatever --seed says:
# the library's Gram recovery misses the 1e-8 adjoint identity on some
# random n=1 d=100 inputs and not others, and a failed share that changes
# with the seed could not be compared between runs. This panel keeps one
# such miss (instance 2, by about 10x), so it fails in every round.
ENVELOPE_1D_PANEL_SEED = 9

# seed -> the instances of one round; why each workload exists is recorded
# in BENCHMARK.json and README.md
WORKLOADS: dict[str, Callable[[int], list]] = {
    "envelope-1d": lambda seed: envelope_instances(ENVELOPE_1D_PANEL_SEED, 1, 100, 3, 1e-8, 102),
    "envelope-3d": lambda seed: envelope_instances(seed, 3, 6, 2, 1e-6, 122),
    "polymin-builtin": lambda seed: [PolyminInstance(k, v) for k, v in POLYMIN_OPTIMA.items()],
    # seconds-long tiny envelope for the benchmark's own tests
    "smoke": lambda seed: envelope_instances(seed, 1, 5, 2, 1e-8, 102),
}


@dataclass
class Outcome:
    solve_s: float = 0.0
    certify_s: float = 0.0
    iterations: int = 0
    wrong: list = field(default_factory=list)  # failed reference checks
    inexact: list = field(default_factory=list)  # adjoint identity missed
    rejected: list = field(default_factory=list)  # verify_certificate said no, reported only

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.inexact)


def build(inst):
    if isinstance(inst, EnvelopeInstance):
        fs = [sp.chebyshev_poly(inst.n, ENVELOPE_INPUT_DEGREE, c) for c in inst.coeffs]
        return sp.build_envelope(inst.n, inst.d, ENVELOPE_K, fs=fs)
    return sp.build_polymin(sp.builtin_poly(inst.name))


def certify(inst, built, result):
    """Gram certificate, library verification and square decomposition per factor.

    Returns (factor, certified values, certificate, report) per factor.
    """
    z = result.final
    out = []
    for factor, ev, sl in zip(built.cone.factors, z.barrier.factor_evals, built.cone.slices()):
        if isinstance(inst, PolyminInstance):
            lb = result.dual_objective - POLYMIN_MARGIN
            cert, s = sp.lower_bound_certificate(factor, z, built.problem.c, lb, barrier=ev)
        else:
            s = z.s[sl]
            cert = sp.recover_gram(factor, z.x[sl], s, z.mu, barrier=ev)
        report = sp.verify_certificate(factor, s, cert)
        sp.sos_terms(cert, factor)
        out.append((factor, s, cert, report))
    return out


def check(inst, built, result, certs) -> tuple[list[str], list[str]]:
    """Every reference check for one solved and certified instance.

    Returns the failed checks that show a wrong result, and the factors
    whose Gram blocks miss the adjoint identity to 1e-8 * (1 + ||s||_2).
    Either fails the instance.
    """
    prob = built.problem
    wrong = checks.check_solution(prob.A, prob.b, prob.c, result, inst.tol, inst.max_iters)
    if wrong:
        return wrong, []
    inexact = []
    for i, (factor, s, cert, _) in enumerate(certs):
        wrong += [f"factor {i}: {m}" for m in checks.check_positive_gram(cert.grams)]
        inexact += [f"factor {i}: {m}" for m in checks.check_adjoint(factor.blocks, cert.grams, s)]
    if isinstance(inst, PolyminInstance):
        wrong += checks.check_bound(result.dual_objective - POLYMIN_MARGIN, inst.optimum)
    else:
        wrong += envelope_check(inst, built, result, certs)
    return wrong, inexact


def envelope_check(inst, built, result, certs) -> list[str]:
    """Dual polynomial below every input, with slack from checked residuals.

    At the points, f_j - y = s_j + r_j, where check_solution has bounded
    the dual residual r by tol * (1 + ||c||_2), and s_j matches the
    certified nonnegative polynomial up to the measured adjoint residual
    (divided by tau, as the solver reports s).
    """
    pts = built.pts.points
    exps = checks.graded_lex(inst.n, ENVELOPE_INPUT_DEGREE)
    f_vals = [checks.cheb_tensor(pts, exps) @ c for c in inst.coeffs]
    dual_resid = inst.tol * (1.0 + np.linalg.norm(np.concatenate(f_vals)))
    tau = result.final.tau
    slack = []
    for f, (factor, s, cert, _) in zip(f_vals, certs):
        adjoint = np.max(np.abs(checks.adjoint_sum(factor.blocks, cert.grams) - s)) / tau
        slack.append(dual_resid + adjoint + 1e-12 * (1.0 + np.max(np.abs(f))))
    return checks.check_envelope_below(pts, 2 * inst.d, result.y, inst.coeffs, exps, slack)


def solve_and_certify(inst, built) -> Outcome:
    """Time solve and certify for one built instance, then check it.

    A solve that is not Optimal, or a stage that raises, fails the
    operation; the stages that ran keep the time they took.
    """
    out = Outcome()
    params = sp.SolverParams(tol_gap=inst.tol, tol_infeas=inst.tol)
    start = time.perf_counter()
    try:
        result = sp.solve(built.problem, params)
        out.solve_s = time.perf_counter() - start
        out.iterations = result.iterations
        if result.status != "Optimal":
            out.wrong.append(f"status {result.status}")
            return out
        certs = certify(inst, built, result)
        out.certify_s = time.perf_counter() - start - out.solve_s
    except Exception as exc:
        elapsed = time.perf_counter() - start
        if out.solve_s:
            out.certify_s = elapsed - out.solve_s
        else:
            out.solve_s = elapsed
        out.wrong.append(f"{type(exc).__name__}: {exc}")
        return out
    out.wrong, out.inexact = check(inst, built, result, certs)
    out.rejected = [f"factor {i}: verify_certificate rejected the certificate"
                    for i, (_, _, _, report) in enumerate(certs) if not report.passed]
    return out
