"""Farm telemetry: FleetView folding, rendering, and the event/trace flow."""

import io

import numpy as np
import pytest

from repro.farm import FleetView, JobSpec, LiveRenderer, SimulationFarm, render_fleet
from repro.farm.worker import run_job
from repro.trace import Tracer, set_tracer


def make_jobs(n, **kwargs):
    base = dict(grid_size=16, steps=3)
    base.update(kwargs)
    return [JobSpec(job_id=f"job-{i}", seed=10 + i, **base) for i in range(n)]


class TestFleetView:
    def test_expect_registers_pending_jobs(self):
        fleet = FleetView()
        fleet.expect(["a", "b"], {"a": 10, "b": 20})
        views = {v.job_id: v for v in fleet.jobs()}
        assert views["a"].state == "pending"
        assert views["a"].steps_total == 10
        assert views["b"].steps_total == 20

    def test_job_start_marks_running(self):
        fleet = FleetView()
        fleet.observe({"type": "job_start", "job_id": "a", "step": 0,
                       "steps_total": 8, "solver": "pcg", "pid": 123, "attempt": 0})
        (view,) = fleet.jobs()
        assert view.state == "running"
        assert view.solver == "pcg"
        assert view.pid == 123

    def test_heartbeat_updates_progress_and_promotes_pending(self):
        fleet = FleetView()
        fleet.expect(["a"], {"a": 8})
        fleet.observe({"type": "heartbeat", "job_id": "a", "step": 5,
                       "steps_total": 8, "divnorm": 0.25})
        (view,) = fleet.jobs()
        assert view.state == "running"
        assert view.step == 5
        assert view.progress == pytest.approx(5 / 8)
        assert view.divnorm == 0.25

    def test_fallback_and_terminal_states(self):
        fleet = FleetView()
        fleet.observe({"type": "job_start", "job_id": "a", "steps_total": 4})
        fleet.observe({"type": "pcg_fallback", "job_id": "a", "step": 2})
        assert fleet.jobs()[0].state == "degraded"
        fleet.observe({"type": "job_end", "job_id": "a", "step": 4,
                       "status": "completed"})
        assert fleet.jobs()[0].state == "completed"
        fleet.observe({"type": "job_end", "job_id": "b", "status": "failed"})
        assert fleet.counts() == {"completed": 1, "failed": 1}

    def test_event_without_job_id_is_ignored(self):
        fleet = FleetView()
        fleet.observe({"type": "heartbeat"})
        assert fleet.jobs() == []
        assert fleet.events_seen == 0

    def test_to_dict_snapshot(self):
        fleet = FleetView()
        fleet.observe({"type": "job_start", "job_id": "a", "steps_total": 2})
        snap = fleet.to_dict()
        assert snap["events_seen"] == 1
        assert snap["jobs"][0]["job_id"] == "a"


class TestRendering:
    def test_render_fleet_lists_every_job(self):
        fleet = FleetView()
        fleet.expect(["idle"], {"idle": 4})
        fleet.observe({"type": "heartbeat", "job_id": "busy", "step": 3,
                       "steps_total": 4, "divnorm": 0.5, "solver": "nn"})
        text = render_fleet(fleet, now=100.0)
        assert "busy" in text and "idle" in text
        assert "running:1" in text and "pending:1" in text
        assert "3/4" in text
        # pending job has no divnorm yet -> placeholder, not nan
        assert "nan" not in text

    def test_live_renderer_paints_final_frame(self):
        fleet = FleetView()
        fleet.observe({"type": "job_end", "job_id": "a", "status": "completed"})
        stream = io.StringIO()
        with LiveRenderer(fleet, interval=60.0, stream=stream):
            pass  # no periodic tick fires; stop() paints the final frame
        out = stream.getvalue()
        assert "completed:1" in out

    def test_counters_render_in_the_header(self):
        fleet = FleetView()
        fleet.observe({"type": "pcg_fallback", "job_id": "a"})
        for step in (4, 8, 12):
            fleet.observe({"type": "resume", "job_id": "b", "step": step})
        text = render_fleet(fleet, now=0.0)
        header = text.splitlines()[0]
        assert "pcg_fallbacks:1" in header
        assert "resumes:3" in header
        # no counters -> no separator noise
        assert "|" not in render_fleet(FleetView(), now=0.0).splitlines()[0]

    def test_pcg_fallback_events_bump_the_fleet_counter(self):
        fleet = FleetView()
        fleet.observe({"type": "pcg_fallback", "job_id": "a"})
        fleet.observe({"type": "pcg_fallback", "job_id": "b"})
        assert fleet.counters()["pcg_fallbacks"] == 2
        assert fleet.to_dict()["counters"]["pcg_fallbacks"] == 2

    def test_resume_events_bump_the_fleet_counter(self):
        """The ``repro top`` SLO panel samples this counter live; it must
        move while jobs run, not only after the farm merges results."""
        fleet = FleetView()
        fleet.observe({"type": "resume", "job_id": "a", "step": 4})
        fleet.observe({"type": "resume", "job_id": "a", "step": 8})
        assert fleet.counters()["resumes"] == 2

    def test_narrow_terminal_truncates_instead_of_crashing(self):
        fleet = FleetView()
        fleet.observe({"type": "resume", "job_id": "job-with-a-long-name", "step": 2})
        fleet.observe({"type": "heartbeat", "job_id": "job-with-a-long-name",
                       "step": 3, "steps_total": 4, "divnorm": 0.5, "solver": "nn"})
        for width in (8, 20, 40):
            text = render_fleet(fleet, now=100.0, width=width)
            assert all(len(line) <= width for line in text.splitlines())
        # a degenerate width is clamped, not an exception
        assert render_fleet(fleet, now=100.0, width=0)

    def test_live_renderer_alerts_panel_is_crash_proof(self):
        fleet = FleetView()
        fleet.observe({"type": "job_end", "job_id": "a", "status": "completed"})
        calls = []

        def alerts():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("slo engine hiccup")
            return ["[critical] job_failure_ratio: burn 12x"]

        stream = io.StringIO()
        renderer = LiveRenderer(fleet, interval=60.0, stream=stream, alerts_fn=alerts)
        renderer._paint()  # first call raises inside alerts_fn: swallowed
        renderer._paint()
        out = stream.getvalue()
        assert "alerts:" in out
        assert "[critical] job_failure_ratio" in out


class TestFarmEventFlow:
    def test_serial_farm_streams_events_and_fills_fleet(self):
        events = []
        farm = SimulationFarm(backend="serial", on_event=events.append,
                              heartbeat_seconds=0.0)
        report = farm.run(make_jobs(2))
        assert len(report.completed) == 2
        types = [e["type"] for e in events]
        assert types.count("job_start") == 2
        assert types.count("job_end") == 2
        # heartbeat_seconds=0 -> every step beats
        assert types.count("heartbeat") == 6
        assert farm.fleet.counts() == {"completed": 2}
        for event in events:
            assert event["job_id"].startswith("job-")
            assert "t" in event and "pid" in event

    def test_serial_farm_trace_records_job_spans_and_events(self):
        farm = SimulationFarm(backend="serial", trace=True)
        farm.run(make_jobs(2))
        spans = {s.name for s in farm.tracer.spans()}
        assert {"job", "step", "projection"} <= spans
        job_spans = [s for s in farm.tracer.spans() if s.name == "job"]
        assert {s.attrs["job_id"] for s in job_spans} == {"job-0", "job-1"}
        assert len(farm.tracer.events("job_end")) == 2
        assert len(farm.tracer.events("divnorm")) == 6

    def test_process_farm_ships_and_merges_worker_traces(self, tmp_path):
        farm = SimulationFarm(workers=2, backend="process", trace=True,
                              checkpoint_dir=tmp_path, heartbeat_seconds=0.0)
        report = farm.run(make_jobs(2, checkpoint_every=1))
        assert len(report.completed) == 2
        job_spans = [s for s in farm.tracer.spans() if s.name == "job"]
        assert {s.attrs["job_id"] for s in job_spans} == {"job-0", "job-1"}
        # checkpoint events crossed the process boundary into the fleet trace
        assert len(farm.tracer.events("checkpoint")) == 6
        assert farm.fleet.counts() == {"completed": 2}

    def test_tracing_disabled_farm_still_heartbeats(self):
        events = []
        farm = SimulationFarm(backend="serial", on_event=events.append,
                              heartbeat_seconds=0.0)
        assert farm.tracer.enabled is False
        farm.run(make_jobs(1))
        assert any(e["type"] == "heartbeat" for e in events)
        assert farm.tracer.spans() == []


class TestTraceAcrossCheckpointResume:
    def test_stitched_trace_covers_every_step_exactly_once(self, tmp_path):
        """Trace round-trip through a farm checkpoint resume (satellite check).

        Run a job halfway, then re-run it to completion from its checkpoint.
        The two attempts' traces, merged, must cover every step exactly once:
        no duplicated pre-resume events, no gap at the resume boundary.
        """
        def traced_run(spec):
            tracer = Tracer(enabled=True)
            previous = set_tracer(tracer)
            try:
                return run_job(spec, checkpoint_dir=tmp_path, attach_trace=True)
            finally:
                set_tracer(previous)

        first = traced_run(JobSpec(job_id="job", seed=7, grid_size=16, steps=3,
                                   checkpoint_every=1))
        second = traced_run(JobSpec(job_id="job", seed=7, grid_size=16, steps=6,
                                    checkpoint_every=1))
        assert first.ok and second.ok
        assert second.resumed_from == 3

        merged = Tracer().merge(first.trace).merge(second.trace)
        for type_ in ("divnorm", "step"):
            steps = sorted(e.step for e in merged.events(type_))
            assert steps == list(range(6)), type_

        # and the resumed trajectory is bit-for-bit the uninterrupted one
        reference = run_job(JobSpec(job_id="ref", seed=7, grid_size=16, steps=6))
        divnorms = [e.attrs["value"] for e in merged.events("divnorm")]
        ref_divnorms = np.cumsum(divnorms)[-1]
        assert second.final_divnorm == reference.final_divnorm
        assert second.cum_divnorm == pytest.approx(reference.cum_divnorm)
        assert ref_divnorms == pytest.approx(reference.cum_divnorm)


class TestFleetViewCrashProofing:
    """Rendering and folding must survive empty, sparse and disordered streams."""

    def test_render_empty_fleet_does_not_raise(self):
        out = render_fleet(FleetView())
        assert "0 jobs" in out

    def test_render_heartbeat_only_fleet_does_not_raise(self):
        fleet = FleetView()
        # a bare heartbeat: no job_start, no steps_total, no divnorm
        fleet.observe({"type": "heartbeat", "job_id": "h"})
        out = render_fleet(fleet)
        assert "h" in out
        (view,) = fleet.jobs()
        assert view.state == "running"

    def test_malformed_field_values_are_ignored_not_fatal(self):
        fleet = FleetView()
        fleet.observe({"type": "heartbeat", "job_id": "a", "step": "not-an-int",
                       "steps_total": None, "divnorm": "nan?", "pid": "pid",
                       "t": "yesterday", "attempt": object()})
        fleet.observe({"type": "job_start", "job_id": 42})  # non-str id: dropped
        fleet.observe("not even a dict")
        out = render_fleet(fleet)
        assert "a" in out

    def test_out_of_order_heartbeat_does_not_regress_progress(self):
        fleet = FleetView()
        fleet.observe({"type": "heartbeat", "job_id": "a", "step": 5, "attempt": 0})
        fleet.observe({"type": "heartbeat", "job_id": "a", "step": 3, "attempt": 0})
        (view,) = fleet.jobs()
        assert view.step == 5

    def test_late_events_cannot_resurrect_a_finished_job(self):
        fleet = FleetView()
        fleet.observe({"type": "job_start", "job_id": "a", "attempt": 0})
        fleet.observe({"type": "job_end", "job_id": "a", "status": "completed",
                       "attempt": 0})
        # stragglers of the same attempt arrive after the terminal event
        fleet.observe({"type": "heartbeat", "job_id": "a", "step": 9, "attempt": 0})
        fleet.observe({"type": "job_start", "job_id": "a", "attempt": 0})
        (view,) = fleet.jobs()
        assert view.state == "completed"

    def test_retry_attempt_legitimately_reopens_the_job(self):
        fleet = FleetView()
        fleet.observe({"type": "job_end", "job_id": "a", "status": "failed",
                       "attempt": 0, "step": 7})
        fleet.observe({"type": "job_start", "job_id": "a", "attempt": 1, "step": 0})
        (view,) = fleet.jobs()
        assert view.state == "running"
        assert view.attempt == 1
        assert view.step == 0  # progress restarts with the retry

    def test_cancelled_is_a_terminal_state(self):
        fleet = FleetView()
        fleet.observe({"type": "job_end", "job_id": "a", "status": "cancelled"})
        (view,) = fleet.jobs()
        assert view.state == "cancelled"
        assert "cancelled" in render_fleet(fleet)
