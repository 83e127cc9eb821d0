"""Span tracing of the package's layers, installed from outside the package.

A :class:`Tracer` replaces module attributes (``qp.solve``,
``estimator.predict``, ...) with wrappers that record one span per call:
name, start, end, parent span and the control step it belongs to.  Calls
inside the package go through module attributes too, so nested calls become
child spans.  ``qp.solve`` is named after the layer that called it
(``qp.solve.tube``, ``.lambda``, ``.projection``, ``.rci``), and wrappers
keep the counts the result carries (QP iterations, ``MAX_ITER``, relaxed
weights, estimator fallbacks, sysid epochs).

Spans stay in memory; :func:`reduce` turns them into per-layer totals and
self times (a span's duration minus its children's), and :meth:`Tracer.dump`
writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from typing import Callable

from dualmpc import estimator, plant, polytope, qlpv, qp, rci, sysid, tmpc

# qp.solve is split by the layer that called it.
SOLVE_CALLERS = {
    "tmpc.solve_tmpc": "tube",
    "polytope.barycentric_lambda": "lambda",
    "qp.project_weighted": "projection",
    "rci.solve_optimal_rci": "rci",
}


def _qp_counts(sol) -> dict:
    return {"iters": sol.iterations, "max_iter": int(sol.status == qp.QpStatus.MAX_ITER)}


# (owner, attribute, span name, counts taken from the return value)
LAYERS: list[tuple[object, str, str, Callable | None]] = [
    (plant, "rk4_step", "plant.rk4_step", None),
    (polytope, "barycentric_lambda", "polytope.barycentric_lambda",
     lambda r: {"lambda_relaxed": int(r.relaxed)}),
    (qlpv, "jacobians", "qlpv.jacobians", None),
    (qp, "solve", "qp.solve", _qp_counts),
    (qp, "project_weighted", "qp.project_weighted", None),
    (qp.QpProblem, "validate", "qp.validate", None),
    (rci, "rci_constraint_block", "rci.rci_constraint_block", None),
    (rci, "solve_optimal_rci", "rci.solve_optimal_rci", None),
    (tmpc, "solve_tmpc", "tmpc.solve_tmpc", None),
    (tmpc, "nominal_input", "tmpc.nominal_input", None),
    (estimator, "predict", "estimator.predict", None),
    (estimator, "build_theta_polytope", "estimator.build_theta_polytope", None),
    (estimator, "constrained_correct", "estimator.constrained_correct",
     lambda r: {"fallback": int(r.fallback)}),
    (sysid, "collect_dataset", "sysid.collect_dataset", None),
    (sysid, "fit_feasible_model", "sysid.fit_feasible_model", None),
    (sysid, "fit_initial_model", "sysid.fit_initial_model",
     lambda r: {"epochs": r[1].epochs}),
    (sysid, "feasibility_gate", "sysid.feasibility_gate", None),
    (sysid, "mse_and_gradient", "sysid.mse_and_gradient", None),
    (sysid, "simulate_mse", "sysid.simulate_mse", None),
]


class Tracer:
    """Records spans while installed; ``with tracer:`` installs the wrappers."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        # [name, start, end, parent index or -1, where, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # "setup", or the pass and episode the spans belong to, e.g. "p0e1".
        self.where = "setup"

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self._record(name, None, fn, args, {})

    def _record(self, name, counts_of, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if name == "qp.solve":
            caller = self.spans[parent][0] if parent >= 0 else ""
            name = f"qp.solve.{SOLVE_CALLERS.get(caller, 'other')}"
        rec = [name, self.clock(), 0.0, parent, self.where, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
            if counts_of is not None:
                rec[5] = counts_of(out)
            return out
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def _wrap(self, fn, name, counts_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, counts_of, fn, args, kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counts_of in LAYERS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts_of))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        """One JSON line per span; ``step`` numbers the control steps of an episode."""
        step: list = []
        ordinal: dict = defaultdict(int)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, where, counts) in enumerate(self.spans):
                if parent >= 0:
                    step.append(step[parent])
                elif where == "setup":
                    step.append(None)
                else:
                    step.append(ordinal[where])
                    ordinal[where] += 1
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "where": where, "step": step[i],
                                     "counts": counts}) + "\n")


def reduce(spans: list[list], setup: bool) -> dict:
    """Per span name, over set-up or over control steps: calls, total and self
    seconds, and the summed counts."""
    child_s: dict = defaultdict(float)
    for name, t0, t1, parent, where, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "counts": defaultdict(int)})
    for i, (name, t0, t1, parent, where, counts) in enumerate(spans):
        if (where == "setup") != setup:
            continue
        layer = out[name]
        layer["calls"] += 1
        layer["total_s"] += t1 - t0
        layer["self_s"] += t1 - t0 - child_s[i]
        for key, value in (counts or {}).items():
            layer["counts"][key] += value
    return out


def qp_iterations(spans: list[list]) -> dict:
    """QP iterations per pass (the ``p<n>`` prefix of ``where``) and QP kind."""
    out: dict = defaultdict(Counter)
    for name, _, _, _, where, counts in spans:
        if name.startswith("qp.solve.") and where != "setup":
            out[where.split("e")[0]][name] += (counts or {}).get("iters", 0)
    return out
