"""In-memory span tracing of the library's layers, installed from outside.

``Tracer.install`` replaces every public function and method of the
``interpolation``, ``wsos``, ``hsd`` and ``recovery`` modules (and the
cached ``BarrierEval.hess_chol`` property, which does the Hessian
Cholesky) with a wrapper that records a span: id, parent id, name, start,
end. Names bound elsewhere by ``from module import name`` are rebound too,
so calls made inside the library go through the wrappers. ``uninstall``
restores the originals. Spans stay in memory; ``layer_metrics`` reduces
them to the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from sospoly import hsd, interpolation, recovery, wsos

TRACED_MODULES = (interpolation, wsos, hsd, recovery)

PER_LAYER_UNITS = {
    "interpolation.points_s": "s",
    "interpolation.basis_s": "s",
    "interpolation.candidate_rows": "count",
    "interpolation.candidate_mb": "MB",
    "interpolation.quadrature_s": "s",
    "wsos.build_cone_s": "s",
    "wsos.barrier_evals": "count",
    "wsos.barrier_s": "s",
    "wsos.not_interior": "count",
    "wsos.hess_chol_count": "count",
    "wsos.hess_chol_s": "s",
    "hsd.newton_directions": "count",
    "hsd.newton_direction_s": "s",
    "hsd.kkt_order": "count",
    "hsd.predictor_s": "s",
    "hsd.corrector_s": "s",
    "hsd.corrector_steps": "count",
    "hsd.trials": "count",
    "hsd.trials_per_iteration": "ratio",
    "hsd.trial_accept_ratio": "ratio",
    "recovery.recover_gram_s": "s",
    "recovery.sos_terms_s": "s",
    "recovery.gram_blocks": "count",
    "recovery.verify_s": "s",
    "recovery.verify_terms": "count",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _count_call(counts, name, args, result, exc):
    """Counts taken at a layer boundary from the call's arguments or outcome."""
    if name == "wsos.InterpWSOSCone.barrier" and isinstance(exc, wsos.NotInteriorError):
        counts["not_interior"] += 1
    elif name == "interpolation.approx_fekete_points":
        n, deg = args[0], args[1]
        rows = 1
        for d in range(deg + 1, deg + n + 1):
            rows *= d + 1
        counts["candidate_rows"] += rows
        mb = rows * math.comb(n + deg, n) * 8 / 1e6  # float64 Vandermonde
        counts["candidate_mb"] = max(counts["candidate_mb"], mb)
    elif name == "hsd.newton_direction":
        k, N = args[0].A.shape
        counts["kkt_order"] = max(counts["kkt_order"], N + k + 1)
    elif name == "hsd.predictor_step" and exc is None and not result.stalled:
        counts["kept_trials"] += 1
    elif name == "hsd.corrector_phase":
        steps = result[1] if exc is None else getattr(exc, "steps", 0)
        counts["corrector_steps"] += steps
        counts["kept_trials"] += steps
    elif name == "hsd.solve" and exc is None:
        counts["iterations"] += result.iterations
    elif name == "recovery.recover_gram" and exc is None:
        counts["gram_blocks"] += len(result.grams)
    elif name == "recovery.verify_certificate":
        cone = args[0]
        counts["verify_terms"] += cone.U * sum(L * L for L in cone.dims)


class Tracer:
    """Records spans and boundary counts while installed, in segments.

    Everything stays in memory until ``segments`` is read at the end of
    the run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._segments: list[tuple[int, Counter]] = []  # (first span, counts)
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def new_segment(self):
        """Start a segment (a set-up pass or a round); counts restart from zero."""
        self.counts = Counter()
        self._segments.append((len(self.spans), self.counts))

    def segments(self) -> list[tuple[list[Span], Counter]]:
        ends = [first for first, _ in self._segments[1:]] + [len(self.spans)]
        return [(self.spans[first:end], counts)
                for (first, counts), end in zip(self._segments, ends)]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
                _count_call(self.counts, name, args, result, exc)

        return traced

    def _wrap_hess_chol(self, prop):
        traced_fget = self._wrap("wsos.BarrierEval.hess_chol", prop.fget)

        def fget(ev):
            # only a first access factors; later ones read the cache
            return prop.fget(ev) if ev._hess_chol is not None else traced_fget(ev)

        return property(fget, doc=prop.__doc__)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for module in TRACED_MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                    self._set(module, attr, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        # rebind names that other library modules imported by value
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sospoly" or mod_name.startswith("sospoly.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def _install_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, property) and name == "wsos.BarrierEval.hess_chol":
                self._set(cls, attr, self._wrap_hess_chol(obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer totals: inclusive or self time per span name, plus counts."""
    # no traced function calls itself, so inclusive times never overlap
    inclusive = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    for sp in spans:
        dur = sp.end - sp.start
        calls[sp.name] += 1
        inclusive[sp.name] += dur
        if sp.parent is not None:
            child_time[sp.parent] += dur
    self_time = defaultdict(float)
    for sp in spans:
        self_time[sp.name] += (sp.end - sp.start) - child_time[sp.id]

    iterations = counts["iterations"]
    trials = calls["hsd.try_make_iterate"]
    return {
        "interpolation.points_s": inclusive["interpolation.points_for_degree"],
        "interpolation.basis_s": inclusive["interpolation.cheb_basis_values"],
        "interpolation.candidate_rows": counts["candidate_rows"],
        "interpolation.candidate_mb": counts["candidate_mb"],
        "interpolation.quadrature_s": inclusive["interpolation.box_quadrature_weights"],
        "wsos.build_cone_s": inclusive["wsos.build_cone"],
        "wsos.barrier_evals": calls["wsos.InterpWSOSCone.barrier"],
        "wsos.barrier_s": self_time["wsos.InterpWSOSCone.barrier"],
        "wsos.not_interior": counts["not_interior"],
        "wsos.hess_chol_count": calls["wsos.BarrierEval.hess_chol"],
        "wsos.hess_chol_s": inclusive["wsos.BarrierEval.hess_chol"],
        "hsd.newton_directions": calls["hsd.newton_direction"],
        "hsd.newton_direction_s": inclusive["hsd.newton_direction"],
        "hsd.kkt_order": counts["kkt_order"],
        "hsd.predictor_s": self_time["hsd.predictor_step"],
        "hsd.corrector_s": self_time["hsd.corrector_phase"],
        "hsd.corrector_steps": counts["corrector_steps"],
        "hsd.trials": trials,
        "hsd.trials_per_iteration": trials / iterations if iterations else 0.0,
        "hsd.trial_accept_ratio": counts["kept_trials"] / trials if trials else 0.0,
        "recovery.recover_gram_s": inclusive["recovery.recover_gram"],
        "recovery.sos_terms_s": inclusive["recovery.sos_terms"],
        "recovery.gram_blocks": counts["gram_blocks"],
        "recovery.verify_s": inclusive["recovery.verify_certificate"],
        "recovery.verify_terms": counts["verify_terms"],
    }
