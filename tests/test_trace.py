"""Tests for :mod:`repro.trace` — spans, histograms, events, round-trips."""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest

from repro.trace import (
    EVENT_TYPES,
    Event,
    HistogramStat,
    NULL_TRACER,
    Span,
    Tracer,
    format_summary,
    get_tracer,
    read_trace,
    set_tracer,
    summarize,
)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_links(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        spans = {s.name: s for s in tr.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id

    def test_span_ids_are_unique(self):
        tr = Tracer()
        for _ in range(10):
            with tr.span("s"):
                pass
        ids = [s.span_id for s in tr.spans()]
        assert len(set(ids)) == len(ids)

    def test_attrs_can_be_set_during_the_block(self):
        tr = Tracer()
        with tr.span("solve", solver="pcg") as sp:
            sp.attrs["iterations"] = 42
        (span,) = tr.spans()
        assert span.attrs == {"solver": "pcg", "iterations": 42}

    def test_durations_are_positive_and_ordered(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.002)
        spans = {s.name: s for s in tr.spans()}
        assert spans["inner"].dur > 0
        assert spans["outer"].dur >= spans["inner"].dur

    def test_every_span_feeds_its_name_histogram(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("step"):
                pass
        assert tr.histograms["step"].count == 3

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("x") as sp:
            assert sp is None
        tr.event("step", step=1)
        tr.observe("h", 1.0)
        assert tr.spans() == [] and tr.events() == [] and tr.histograms == {}

    def test_concurrent_threads_do_not_interleave_stacks(self):
        tr = Tracer()
        errors = []

        def worker(name):
            try:
                for _ in range(50):
                    with tr.span(f"outer/{name}"):
                        with tr.span(f"inner/{name}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tr.spans()
        assert len(spans) == 4 * 100
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.parent_id is not None:
                # a child's parent is always from the same thread
                assert by_id[s.parent_id].tid == s.tid


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------


class TestEvents:
    def test_unknown_event_type_is_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            Event(type="nonsense")

    def test_event_stream_sorted_by_step(self):
        tr = Tracer()
        tr.event("divnorm", step=3, value=0.3)
        tr.event("divnorm", step=1, value=0.1)
        tr.event("model_switch", step=2, from_model="a", to_model="b")
        steps = [e.step for e in tr.events()]
        assert steps == [1, 2, 3]
        assert [e.step for e in tr.events("divnorm")] == [1, 3]

    def test_event_round_trip(self):
        ev = Event(type="pcg_fallback", step=7, t=123.5, attrs={"reason": "x"})
        assert Event.from_dict(ev.to_dict()) == ev

    def test_vocabulary_covers_the_issue_event_types(self):
        assert {
            "step", "divnorm", "model_switch", "pcg_fallback",
            "checkpoint", "plan_build",
        } <= EVENT_TYPES


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------


class TestHistogramStat:
    def test_quantiles_bracket_the_data(self):
        h = HistogramStat()
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-5, sigma=1.5, size=2000)
        for v in values:
            h.add(float(v))
        for q in (0.5, 0.95, 0.99):
            est = h.quantile(q)
            assert h.min <= est <= h.max
        # log-bucket resolution: p50 within one bucket width (~19%)
        true_p50 = float(np.quantile(values, 0.5))
        assert abs(h.quantile(0.5) - true_p50) / true_p50 < 0.25

    def test_quantile_of_single_observation_is_exactly_it(self):
        h = HistogramStat()
        h.add(0.125)
        assert h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0) == 0.125

    def test_empty_quantile_is_nan(self):
        assert math.isnan(HistogramStat().quantile(0.5))

    def test_merge_is_commutative(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.exponential(0.01, 100), rng.exponential(0.5, 100)
        a1, b1 = HistogramStat(), HistogramStat()
        a2, b2 = HistogramStat(), HistogramStat()
        for x in xs:
            a1.add(x), a2.add(x)
        for y in ys:
            b1.add(y), b2.add(y)
        ab = a1.merge(b1).to_dict()
        ba = b2.merge(a2).to_dict()
        assert ab == ba

    def test_merge_with_empty_is_identity(self):
        h = HistogramStat()
        h.add(0.5)
        before = h.to_dict()
        h.merge(HistogramStat())
        assert h.to_dict() == before
        empty = HistogramStat()
        empty.merge(h)
        assert empty.to_dict() == before

    def test_round_trip_including_empty(self):
        h = HistogramStat()
        for v in (1e-8, 3e-4, 0.02, 1.7):
            h.add(v)
        assert HistogramStat.from_dict(h.to_dict()).to_dict() == h.to_dict()
        assert HistogramStat.from_dict(HistogramStat().to_dict()).to_dict() == HistogramStat().to_dict()


# ----------------------------------------------------------------------
# serialisation / export
# ----------------------------------------------------------------------


def _sample_tracer() -> Tracer:
    tr = Tracer()
    with tr.span("sim", steps=2):
        for step in range(2):
            with tr.span("step", step=step):
                with tr.span("projection", solver="pcg") as sp:
                    sp.attrs["iterations"] = 5 + step
            tr.event("divnorm", step=step, value=0.01 * (step + 1))
            tr.event("step", step=step, seconds=0.001)
    tr.event("model_switch", step=1, from_model="a", to_model="b")
    return tr


class TestSerialisation:
    def test_to_dict_round_trip_is_lossless(self):
        tr = _sample_tracer()
        snap = tr.to_dict()
        restored = Tracer.from_dict(snap)
        assert restored.to_dict() == snap

    def test_merge_of_snapshot_dicts(self):
        a, b = _sample_tracer(), _sample_tracer()
        merged = Tracer().merge(a.to_dict()).merge(b.to_dict())
        assert len(merged.spans()) == len(a.spans()) + len(b.spans())
        assert merged.histograms["step"].count == 4
        assert Tracer().merge({}).to_dict()["spans"] == []

    def test_jsonl_round_trip(self, tmp_path):
        tr = _sample_tracer()
        path = tr.write_jsonl(tmp_path / "trace.jsonl")
        restored = read_trace(path)
        assert restored.to_dict() == tr.to_dict()

    def test_chrome_file_round_trips_through_embedded_snapshot(self, tmp_path):
        tr = _sample_tracer()
        path = tr.write_chrome(tmp_path / "trace.json")
        restored = read_trace(path)
        assert restored.to_dict() == tr.to_dict()

    def test_chrome_format_is_viewer_loadable(self, tmp_path):
        tr = _sample_tracer()
        doc = json.loads(tr.write_chrome(tmp_path / "t.json").read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "chrome trace must not be empty"
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == len(tr.spans())
        assert len(instants) == len(tr.events())
        for e in events:
            assert e["ts"] >= 0.0  # relative microsecond timestamps
            assert {"name", "cat", "ph", "pid", "tid"} <= set(e)
        names = {e["name"] for e in complete}
        assert {"sim", "step", "projection"} <= names

    def test_plain_chrome_trace_without_snapshot_is_reconstructed(self, tmp_path):
        tr = _sample_tracer()
        doc = tr.to_chrome()
        del doc["repro"]
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        restored = read_trace(path)
        assert len(restored.spans()) == len(tr.spans())
        assert len(restored.events("divnorm")) == 2
        assert restored.histograms["projection"].count == 2


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


class TestSummaries:
    def test_summarize_has_percentiles_per_span_name(self):
        s = summarize(_sample_tracer())
        assert {"sim", "step", "projection"} <= set(s)
        row = s["step"]
        assert row["count"] == 2
        assert row["p50"] <= row["p95"] <= row["p99"] <= row["max"]

    def test_format_summary_renders_every_span_name(self):
        text = format_summary(_sample_tracer())
        for name in ("sim", "step", "projection", "p50", "p95"):
            assert name in text
        assert format_summary(Tracer()) == "(no spans recorded)"

    def test_event_type_counts_sorted_by_frequency(self):
        from repro.trace import event_type_counts

        counts = event_type_counts(_sample_tracer())
        assert counts == {"divnorm": 2, "step": 2, "model_switch": 1}
        assert list(counts)[-1] == "model_switch"  # least frequent last

    def test_slowest_spans_ordered_and_capped(self):
        from repro.trace import slowest_spans

        spans = slowest_spans(_sample_tracer(), n=3)
        assert len(spans) == 3
        durations = [sp.dur for sp in spans]
        assert durations == sorted(durations, reverse=True)
        assert spans[0].name == "sim"  # the enclosing span is the slowest

    def test_format_summary_includes_events_and_slowest_sections(self):
        text = format_summary(_sample_tracer())
        assert "events: divnorm=2  step=2  model_switch=1" in text
        assert "slowest spans:" in text
        assert "[span " in text


# ----------------------------------------------------------------------
# process default
# ----------------------------------------------------------------------


class TestProcessDefault:
    def test_default_tracer_is_disabled(self):
        assert get_tracer().enabled is False

    def test_set_tracer_returns_previous(self):
        tr = Tracer()
        previous = set_tracer(tr)
        try:
            assert get_tracer() is tr
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_null_tracer_is_shared_and_disabled(self):
        assert NULL_TRACER.enabled is False


# ----------------------------------------------------------------------
# overhead guard (coarse; tests/test_timing_gates.py is the strict 5% check)
# ----------------------------------------------------------------------


def test_disabled_span_overhead_is_tiny():
    tr = Tracer(enabled=False)
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("hot"):
            pass
    per_call = (time.perf_counter() - t0) / n
    # a no-op span must stay far below any simulation-step cost
    assert per_call < 50e-6


def test_span_dataclass_round_trip():
    sp = Span(name="s", span_id="1:2:3", parent_id=None, t=5.0, dur=0.25,
              attrs={"k": 1}, pid=1, tid=2)
    assert Span.from_dict(sp.to_dict()) == sp
