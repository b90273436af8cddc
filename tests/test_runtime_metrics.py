"""Tests for the repro.metrics runtime-observability module."""

import json
import math
import threading

import numpy as np
import pytest

from repro.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    set_metrics,
)
from repro.trace import Tracer, set_tracer


def _span_stat(m: MetricsRegistry, name: str):
    """The ``span_seconds`` series of span ``name`` (None if never timed)."""
    family = m.families.get("span_seconds")
    return None if family is None else family.stat(span=name)


class TestCountersAndTimers:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.5)
        m.inc("b", 0.5)
        assert m.counter("a") == 3.5
        assert m.counter("b") == 0.5
        assert m.counter("missing") == 0.0

    def test_timer_records_statistics(self):
        m = MetricsRegistry()
        for _ in range(3):
            with m.span("work"):
                pass
        stat = _span_stat(m, "work")
        assert stat.count == 3
        assert stat.total >= stat.max >= stat.min >= 0.0
        assert stat.mean == pytest.approx(stat.total / 3)

    def test_reset_clears_everything(self):
        m = MetricsRegistry()
        m.inc("a")
        with m.span("t"):
            pass
        m.reset()
        assert m.counters == {}
        assert len(m.families) == 0
        # the span series is declared afresh after a reset, not lost
        with m.span("t"):
            pass
        assert _span_stat(m, "t").count == 1


class TestScopes:
    def test_scope_prefixes_names(self):
        m = MetricsRegistry()
        with m.scope("sim"):
            m.inc("steps")
            with m.scope("projection"):
                m.inc("solves")
        m.inc("steps")
        assert m.counter("sim/steps") == 1.0
        assert m.counter("steps") == 1.0
        assert m.counter("sim/projection/solves") == 1.0

    def test_span_names_are_not_scoped(self):
        m = MetricsRegistry()
        with m.scope("sim"), m.span("step"):
            pass
        assert _span_stat(m, "step").count == 1
        assert _span_stat(m, "sim/step") is None

    def test_scope_restored_after_exception(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.scope("outer"):
                raise RuntimeError
        m.inc("after")
        assert m.counter("after") == 1.0

    def test_scopes_are_thread_local(self):
        """Two threads' scopes must not interleave on a shared registry.

        Regression: the prefix stack was a plain instance list, so a
        worker thread entering ``scope`` mid-block could prepend its prefix
        to another thread's metric names.
        """
        m = MetricsRegistry()
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def worker(name):
            try:
                for _ in range(200):
                    with m.scope(name):
                        barrier.wait()  # both threads are inside their scope
                        m.inc("ticks")
                        with m.scope("inner"):
                            m.inc("ticks")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        # every metric landed under its own thread's prefix, nothing crossed
        assert m.counter("a/ticks") == 200
        assert m.counter("b/ticks") == 200
        assert m.counter("a/inner/ticks") == 200
        assert m.counter("b/inner/ticks") == 200
        cross = [k for k in m.counters if "a/b" in k or "b/a" in k]
        assert cross == []


class TestJSONRoundTrip:
    def test_round_trip_preserves_snapshot(self):
        m = MetricsRegistry()
        m.inc("solver/pcg/solves", 4)
        for _ in range(2):
            with m.span("solve/pcg"):
                pass
        with m.scope("sim"):
            m.inc("steps", 7)
        snapshot = m.to_dict()
        restored = MetricsRegistry.from_dict(json.loads(m.to_json()))
        assert restored.to_dict() == snapshot

    def test_empty_registry_round_trips(self):
        m = MetricsRegistry()
        assert MetricsRegistry.from_dict(json.loads(m.to_json())).to_dict() == m.to_dict()


def _timed(m: MetricsRegistry, name: str, *seconds: float) -> MetricsRegistry:
    """Fold exact durations into ``m``'s span series, as ``span`` would."""
    family = m.families.histogram("span_seconds", labels=("span",))
    for s in seconds:
        family.observe(s, span=name)
    return m


class TestMerge:
    def test_counters_add_and_timers_combine(self):
        a = MetricsRegistry()
        a.inc("jobs", 2)
        _timed(a, "solve", 0.5, 1.5)
        b = MetricsRegistry()
        b.inc("jobs", 3)
        b.inc("retries")
        _timed(b, "solve", 0.25)
        _timed(b, "other", 1.0)
        a.merge(b)
        assert a.counter("jobs") == 5
        assert a.counter("retries") == 1
        stat = _span_stat(a, "solve")
        assert stat.count == 3
        assert stat.total == 2.25
        assert stat.min == 0.25
        assert stat.max == 1.5
        assert _span_stat(a, "other").count == 1

    def test_merge_accepts_snapshot_dict(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.inc("steps", 4)
        _timed(b, "t", 0.125)
        a.merge(b.to_dict())
        assert a.counter("steps") == 4
        assert _span_stat(a, "t").count == 1

    def test_merge_is_commutative(self):
        def build(vals):
            m = MetricsRegistry()
            for v in vals:
                m.inc("n")
                _timed(m, "t", v)
            return m

        ab = build([0.1, 0.2]).merge(build([0.3]))
        ba = build([0.3]).merge(build([0.1, 0.2]))
        assert ab.to_dict() == ba.to_dict()

    def test_merge_with_empty_timer_keeps_min_empty_semantics(self):
        a = MetricsRegistry()
        empty = _timed(MetricsRegistry(), "t", 0.5).to_dict()
        empty["families"]["span_seconds"]["series"][0]["value"]["hist"] = {"count": 0}
        a.merge(empty)  # a restored empty series: count 0, no bounds
        b = _timed(MetricsRegistry(), "t", 0.5)
        a.merge(b)
        stat = _span_stat(a, "t")
        assert stat.min == 0.5
        assert stat.max == 0.5
        assert stat.count == 1

    def test_legacy_timers_snapshot_loads_and_merges(self):
        """Snapshots from before spans replaced timers (old result-cache
        entries) carry a ``timers`` key: it is ignored, the rest loads."""
        legacy = {
            "counters": {"sim/steps": 12.0},
            "timers": {
                "sim/step": {"count": 12, "total": 0.5, "min": 0.01, "max": 0.1, "mean": 0.04},
                "sim/projection/solve": {"count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0},
            },
        }
        restored = MetricsRegistry.from_dict(json.loads(json.dumps(legacy)))
        assert restored.to_dict() == {"counters": {"sim/steps": 12.0}}
        current = _timed(MetricsRegistry(), "step", 0.25)
        current.inc("sim/steps", 3)
        current.merge(legacy)
        assert current.counter("sim/steps") == 15
        assert _span_stat(current, "step").count == 1


class TestForkedDefaultRegistry:
    def test_forked_child_gets_fresh_registry(self):
        import multiprocessing as mp

        get_metrics().inc("parent_only")

        def child(q):
            from repro.metrics import get_metrics as gm

            m = gm()
            q.put((m.counter("parent_only"), "child" in m.counters))
            m.inc("child")
            q.put(gm().counter("child"))

        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        q = ctx.Queue()
        p = ctx.Process(target=child, args=(q,))
        p.start()
        p.join(30)
        assert p.exitcode == 0
        inherited, had_child = q.get(timeout=5)
        # the child saw a fresh registry, not the parent's accumulated one
        assert inherited == 0.0
        assert not had_child
        assert q.get(timeout=5) == 1.0
        # and the parent's registry is untouched by the child's writes
        assert get_metrics().counter("child") == 0.0


class TestDisabledAndGlobal:
    def test_null_metrics_is_noop(self):
        before = dict(NULL_METRICS.counters)
        NULL_METRICS.inc("x")
        with NULL_METRICS.span("t") as sp:
            assert sp is None  # tracing is off too
        with NULL_METRICS.scope("s"):
            NULL_METRICS.inc("y")
        assert NULL_METRICS.counters == before == {}
        assert NULL_METRICS.to_dict() == {"counters": {}}

    def test_set_metrics_swaps_default(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            assert get_metrics() is mine
        finally:
            set_metrics(previous)
        assert get_metrics() is previous

    def test_reset_metrics_clears_default(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            get_metrics().inc("z")
            reset_metrics()
            assert get_metrics().counter("z") == 0.0
        finally:
            set_metrics(previous)


class TestInstrumentedComponents:
    def test_simulator_emits_profile(self):
        from repro.data import InputProblem
        from repro.fluid import FluidSimulator, PCGSolver

        metrics = MetricsRegistry()
        grid, source = InputProblem(16, 0).materialize()
        sim = FluidSimulator(
            grid, PCGSolver(metrics=metrics), source, metrics=metrics
        )
        sim.run(2)
        assert metrics.counter("sim/steps") == 2
        assert _span_stat(metrics, "step").count == 2
        # solver reporting lands under the sim scope (shared registry)
        assert metrics.counter("sim/solver/pcg/solves") == 2
        assert metrics.counter("sim/cache/mic0/miss") == 1
        assert metrics.counter("sim/cache/mic0/hit") == 1

    def test_trainer_records_epoch_seconds(self):
        from repro.nn import Adam, MSELoss, Network, Dense, Trainer

        rng = np.random.default_rng(0)
        net = Network([Dense(4, 2, rng=0)])
        data = {"x": rng.standard_normal((8, 4)), "y": rng.standard_normal((8, 2))}
        metrics = MetricsRegistry()
        trainer = Trainer(net, MSELoss(), Adam(net.parameters()), rng=0, metrics=metrics)
        history = trainer.fit(data, epochs=3, batch_size=4)
        assert len(history.epoch_seconds) == 3
        assert all(s >= 0 for s in history.epoch_seconds)
        assert metrics.counter("train/epochs") == 3


class TestOneMeasurementPerRegion:
    """Each library region is timed once, for the trace and the registry."""

    @staticmethod
    def _run(metrics, tracer):
        from repro.data import InputProblem
        from repro.fluid import FluidSimulator, PCGSolver

        previous_metrics, previous_tracer = set_metrics(metrics), set_tracer(tracer)
        try:
            grid, source = InputProblem(32, 0).materialize()
            FluidSimulator(grid, PCGSolver(), source).run(4)
        finally:
            set_metrics(previous_metrics)
            set_tracer(previous_tracer)

    @staticmethod
    def _series(m):
        family = m.families.get("span_seconds")
        if family is None:
            return {}
        return {labels["span"]: cell for labels, cell in family.samples()}

    def test_traced_series_equal_the_spans_they_timed(self):
        m, tracer = MetricsRegistry(), Tracer()
        self._run(m, tracer)
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"sim", "step", "advection", "forces", "projection", "solve/pcg"} <= names
        series = self._series(m)
        assert set(series) == names
        for name in names:
            mine = [s for s in spans if s.name == name]
            stat, exemplar = series[name]
            assert stat.count == len(mine), name
            assert math.isclose(stat.total, sum(s.dur for s in mine), rel_tol=1e-12), name
            # the exemplar is the slowest span of that name
            assert exemplar["span_id"] == max(mine, key=lambda s: s.dur).span_id, name

    def test_untraced_registry_times_the_same_regions(self):
        traced = MetricsRegistry()
        self._run(traced, Tracer())
        untraced, off = MetricsRegistry(), Tracer(enabled=False)
        self._run(untraced, off)
        assert off.spans() == []
        counts = {name: cell[0].count for name, cell in self._series(untraced).items()}
        assert counts == {name: cell[0].count for name, cell in self._series(traced).items()}
        assert counts["step"] == counts["solve/pcg"] == 4
        assert all(cell[1] is None for cell in self._series(untraced).values())

    def test_null_metrics_untraced_records_nothing(self):
        off = Tracer(enabled=False)
        self._run(NULL_METRICS, off)
        assert off.spans() == [] and off.events() == []
        assert len(NULL_METRICS.families) == 0
        assert NULL_METRICS.to_dict() == {"counters": {}}
