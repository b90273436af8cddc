"""Per-layer split of a traced benchmark run.

The library already opens spans around the simulator step, advection,
forces, projection and the exact solvers.  :class:`Instrumentation` adds
spans of the benchmark's own around public entry points that have none
(NN solve and forward, the Algorithm 2 hook and its regression/KNN calls,
the level-set advection, farm checkpoint writes, serve submit and result
cache), by wrapping them for the duration of the traced phase only.

:func:`split_spans` turns the recorded spans into per-layer *self* times:
a span's duration minus the part its attributed descendants cover.  Spans
without a layer of their own (``kernels/build``, ``nn/plan_compile``,
``adaptive``) are transparent: their time stays with the nearest
attributed ancestor, or is unattributed when there is none.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

#: span name -> the per-layer self-time metric it feeds
SELF_TIME_LAYERS = {
    "sim": "fluid.step_other_s",
    "step": "fluid.step_other_s",
    "advection": "fluid.advection_s",
    "forces": "fluid.forces_s",
    "projection": "fluid.projection_s",
    "solve/pcg": "pcg.solve_s",
    "solve/free_surface": "freesurface.solve_s",
    "levelset.advect": "levelset.advect_s",
    "nn.solve": "nn.solve_s",
    "nn.forward": "nn.forward_s",
    "plan_build": "nn.plan_build_s",
    "solve/nn_pcg": "nn_pcg.solve_s",
    "sched.hook": "sched.hook_s",
    "sched.regression": "sched.regression_s",
    "sched.knn": "sched.knn_s",
    "job": "farm.job_setup_s",
    "farm.checkpoint_write": "farm.checkpoint_write_s",
    "serve.submit": "serve.submit_s",
    "serve.cache_get": "serve.cache_get_s",
    "serve.cache_put": "serve.cache_put_s",
}

#: self-time metrics that, with the workload's own gap metrics, must add up
#: to the unit wall time (the layer-sum check)
SUM_LAYERS = sorted(set(SELF_TIME_LAYERS.values())) + [
    "farm.spawn_s",
    "farm.result_return_s",
    "serve.queue_wait_s",
    "serve.wire_s",
]

#: the benchmark's own root span around each timed unit
UNIT_SPAN = "bench.unit"


def _spanned(fn, name, attrs_of=None):
    """``fn`` wrapped in a span of the current process tracer."""
    from repro.trace import get_tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name) as sp:
            out = fn(*args, **kwargs)
            if sp is not None and attrs_of is not None:
                sp.attrs.update(attrs_of(out))
            return out

    return wrapper


def _checkpoint_attrs(path):
    return {"bytes": os.path.getsize(path)}


class Instrumentation:
    """Wrap uncovered library entry points in spans while installed.

    ``submit_times`` maps each job id submitted to the serve tier to the
    wall-clock time its ``SimulationService.submit`` call returned; the
    serve workload derives queue wait from it.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.submit_times: dict[str, float] = {}

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, attrs_of=None) -> None:
        self._patch(owner, attr, _spanned(getattr(owner, attr), name, attrs_of))

    def install(self) -> "Instrumentation":
        from repro.core import knn, scheduler
        from repro.farm import worker
        from repro.fluid import levelset
        from repro.models import solver
        from repro.nn import engine
        from repro.serve import cache, service

        self._wrap(solver.NNProjectionSolver, "solve", "nn.solve")
        self._wrap(engine.InferencePlan, "run", "nn.forward")
        self._wrap(scheduler.AdaptiveController, "__call__", "sched.hook")
        self._wrap(scheduler, "predict_final_cumdivnorm", "sched.regression")
        self._wrap(knn.QlossKNNPredictor, "predict", "sched.knn")
        self._wrap(levelset, "advect_levelset", "levelset.advect")
        self._wrap(worker, "save_checkpoint", "farm.checkpoint_write", _checkpoint_attrs)
        self._wrap(cache.ResultCache, "get", "serve.cache_get")
        self._wrap(cache.ResultCache, "put", "serve.cache_put")

        submit = _spanned(service.SimulationService.submit, "serve.submit")
        submit_times = self.submit_times

        @functools.wraps(submit)
        def timed_submit(svc, spec, *args, **kwargs):
            try:
                return submit(svc, spec, *args, **kwargs)
            finally:
                submit_times[spec.job_id] = time.time()

        self._patch(service.SimulationService, "submit", timed_submit)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def split_spans(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer self times and counts over a list of spans.

    Returns ``(layers, counts)``: ``layers`` maps each metric of
    :data:`SELF_TIME_LAYERS` to summed self seconds, plus ``unattributed``
    for the self time of :data:`UNIT_SPAN` roots (transparent spans with no
    attributed ancestor count there too); ``counts`` holds the counters
    read from span attributes (steps, solves, iterations, forwards, plan
    builds, checkpoint bytes, spans).
    """
    by_id = {s.span_id: s for s in spans}
    covered: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name not in SELF_TIME_LAYERS:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name not in SELF_TIME_LAYERS and parent.name != UNIT_SPAN:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            covered[parent.span_id] += s.dur

    layers: dict[str, float] = defaultdict(float)
    for s in spans:
        metric = SELF_TIME_LAYERS.get(s.name)
        if metric is not None:
            layers[metric] += s.dur - covered[s.span_id]
        elif s.name == UNIT_SPAN:
            layers["unattributed"] += s.dur - covered[s.span_id]

    counts: dict[str, float] = defaultdict(float)
    counts["trace.spans"] = len(spans)
    for s in spans:
        a = s.attrs
        if s.name == "step":
            counts["fluid.steps"] += 1
            counts["fluid.step_s"] += s.dur
        elif s.name == "solve/pcg":
            counts["pcg.solves"] += 1
            counts["pcg.iterations"] += a.get("iterations", 0)
            counts["pcg.unconverged"] += 0 if a.get("converged", True) else 1
        elif s.name == "solve/nn_pcg":
            counts["nn_pcg.iterations"] += a.get("iterations", 0)
            counts["nn_pcg.safeguard_steps"] += a.get("safeguard_steps", 0)
        elif s.name == "nn.forward":
            counts["nn.forwards"] += 1
        elif s.name == "plan_build":
            counts["nn.plan_builds"] += 1
        elif s.name == "farm.checkpoint_write":
            counts["farm.checkpoint_bytes"] += a.get("bytes", 0)
    return dict(layers), dict(counts)


def geometry_cache_hit_ratio(counters: dict[str, float]) -> float:
    """MIC(0) + kernel geometry-cache hits over lookups (0 without lookups)."""
    hits = misses = 0.0
    for key, value in counters.items():
        if key.endswith(("cache/mic0/hit", "cache/kernels/hit")):
            hits += value
        elif key.endswith(("cache/mic0/miss", "cache/kernels/miss")):
            misses += value
    return hits / (hits + misses) if hits + misses else 0.0
