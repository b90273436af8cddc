"""Structured tracing: spans, step events, timeline export.

This module is the *temporal* half of the observability stack.  Where
:mod:`repro.metrics` answers "how much / how long in aggregate", tracing
answers "when, in what order, and inside what" — the questions the
Smart-fluidnet runtime loop raises: when did the controller switch models,
why did a run fall back to exact PCG, and where inside one step the
wall-clock went.

Concepts
--------
spans
    Nested timed regions (``sim`` > ``step`` > ``projection`` >
    ``solve/pcg``) with ids, parent links and free-form attributes.  The
    :class:`Tracer` records them per thread without locks on the hot path;
    export interleaves all threads on one wall-clock axis.  Library code
    opens its spans through :meth:`repro.metrics.MetricsRegistry.span`,
    which times each region once for both the trace and the registry's
    ``span_seconds`` family.
histograms
    :class:`HistogramStat` — fixed log-bucket latency histograms, mergeable
    in any order, giving p50/p95/p99 instead of just min/mean/max.  They
    back the labeled histogram families of :mod:`repro.obs.families`, and
    :func:`summarize` folds a trace's spans into one per span name.
step events
    A typed event stream (:class:`Event`): ``step``, ``divnorm``,
    ``model_switch``, ``pcg_fallback``, ``checkpoint``, ``plan_build`` and
    the farm job/heartbeat types.  The simulator and the adaptive
    controller emit these, forming a per-run timeline that maps directly
    onto the paper's Figure 5 / Algorithm 2 quantities (see DESIGN.md).
export
    ``write_jsonl`` emits one JSON object per line; ``write_chrome`` emits
    the Chrome ``trace_event`` format, loadable in ``chrome://tracing`` or
    Perfetto.  The chrome file embeds the full structured snapshot under a
    top-level ``"repro"`` key (ignored by viewers), so :func:`read_trace`
    restores a lossless :class:`Tracer` from either format.

Disabled tracers are no-ops cheap enough to leave in every hot path —
mirroring the ``enabled=False`` contract of :mod:`repro.metrics` — and the
process-wide default (:func:`get_tracer`) starts *disabled*; ``repro
simulate --trace`` and the farm's ``trace=True`` install enabled ones.
All timestamps are wall-clock (``time.time()``) so traces from different
worker processes merge onto one axis without shifting; durations are
measured with ``time.perf_counter()`` for resolution.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "EVENT_TYPES",
    "Event",
    "Span",
    "HistogramStat",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "read_trace",
    "summarize",
    "event_type_counts",
    "slowest_spans",
    "format_summary",
]

#: the typed step-event vocabulary (see DESIGN.md for the paper mapping)
EVENT_TYPES = frozenset(
    {
        "step",  # one simulation step completed (seconds, solver)
        "divnorm",  # per-step DivNorm sample (Eq. 5 / Figure 5 trajectory)
        "model_switch",  # Algorithm 2 switched the runtime model
        "pcg_fallback",  # Algorithm 2 gave up / farm degraded to exact PCG
        "nn_precond",  # Algorithm 2 escalated to the NN-preconditioned CG solver
        "checkpoint",  # a job checkpoint was written
        "plan_build",  # an NN inference plan was compiled
        "job_start",  # a farm job (attempt) began executing
        "job_end",  # a farm job attempt reached a terminal state
        "heartbeat",  # periodic worker progress sample
        "resume",  # a job picked up a checkpoint (retry or pcg fallback)
    }
)


@dataclass
class Event:
    """One typed timeline event.

    ``t`` is wall-clock unix seconds (0.0 when unknown, e.g. events
    reconstructed from a pre-tracing checkpoint); ``step`` is the
    simulation step the event refers to, when it refers to one.
    """

    type: str
    step: int | None = None
    t: float = 0.0
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {self.type!r}; expected one of {sorted(EVENT_TYPES)}"
            )

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "type": self.type,
            "step": self.step,
            "t": self.t,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        step = d.get("step")
        return cls(
            type=d["type"],
            step=None if step is None else int(step),
            t=float(d.get("t", 0.0)),
            attrs=dict(d.get("attrs", {})),
        )


@dataclass
class Span:
    """One completed (or in-flight) timed region."""

    name: str
    span_id: str
    parent_id: str | None = None
    t: float = 0.0  # wall-clock start (unix seconds)
    dur: float = 0.0  # duration in seconds
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t": self.t,
            "dur": self.dur,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=d["name"],
            span_id=str(d["span_id"]),
            parent_id=d.get("parent_id"),
            t=float(d.get("t", 0.0)),
            dur=float(d.get("dur", 0.0)),
            attrs=dict(d.get("attrs", {})),
            pid=int(d.get("pid", 0)),
            tid=int(d.get("tid", 0)),
        )


# ----------------------------------------------------------------------
# histogram metric
# ----------------------------------------------------------------------

_HIST_FLOOR = 1e-9  # 1 ns: everything below lands in bucket 0
_HIST_GROWTH = 2.0 ** 0.25  # 4 buckets per doubling (~19% resolution)
_LOG_GROWTH = math.log(_HIST_GROWTH)


def _bucket_of(value: float) -> int:
    if value <= _HIST_FLOOR:
        return 0
    return int(math.floor(math.log(value / _HIST_FLOOR) / _LOG_GROWTH + 1e-12))


def _bucket_bounds(index: int) -> tuple[float, float]:
    lo = _HIST_FLOOR * _HIST_GROWTH**index
    return lo, lo * _HIST_GROWTH


@dataclass
class HistogramStat:
    """Fixed log-bucket histogram of a positive-valued metric (latencies).

    Buckets grow geometrically (4 per doubling, ~19% wide), so quantile
    estimates carry a bounded relative error at any scale from nanoseconds
    to minutes.  Empty stats are normal forms (``min = +inf``, ``max =
    -inf``, both serialised as null), so ``to_dict``/``from_dict``
    round-trip exactly and merge is commutative and associative even
    through snapshots: per-worker histograms fold into a farm-level view
    in any order.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def add(self, value: float) -> None:
        """Fold one observation into the histogram."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = _bucket_of(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (geometric bucket midpoint, clamped).

        Returns ``nan`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum > rank:
                lo, hi = _bucket_bounds(idx)
                mid = math.sqrt(lo * hi)
                return min(self.max, max(self.min, mid))
        return self.max  # pragma: no cover - defensive

    def merge(self, other: "HistogramStat") -> "HistogramStat":
        """Fold another histogram into this one (commutative); returns self."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

    def to_dict(self) -> dict:
        """Plain-JSON representation (``min``/``max`` null when empty)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HistogramStat":
        """Inverse of :meth:`to_dict` (empty stats normalise exactly)."""
        count = int(d.get("count", 0))
        if count == 0:
            return cls()
        return cls(
            count=count,
            total=float(d.get("total", 0.0)),
            min=math.inf if d.get("min") is None else float(d["min"]),
            max=-math.inf if d.get("max") is None else float(d["max"]),
            buckets={int(k): int(v) for k, v in d.get("buckets", {}).items()},
        )


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class _ThreadBuffer:
    """Per-thread recording state: no locks on the hot path."""

    __slots__ = ("tid", "spans", "events", "stack", "seq")

    def __init__(self, tid: int):
        self.tid = tid
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.stack: list[Span] = []
        self.seq = 0


class Tracer:
    """Record spans and typed events; export timelines.

    A disabled tracer (``enabled=False``) turns every operation into a
    cheap no-op, so instrumentation stays unconditionally in hot paths —
    the CI bench gate holds the enabled-vs-disabled simulation overhead
    under 5%.

    Thread model: each thread appends to its own buffer (created once under
    a small lock), so concurrent farm threads never contend; snapshots and
    exports interleave the buffers on the shared wall-clock axis.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        # state folded in from merge()/from_dict(): other processes' spans
        self._merged_spans: list[Span] = []
        self._merged_events: list[Event] = []

    # ------------------------------------------------------------------
    def _buf(self) -> _ThreadBuffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._tls.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Time a nested region; yields the live :class:`Span` (or None).

        The yielded span's ``attrs`` may be filled in during the block
        (e.g. iteration counts known only after a solve).
        """
        if not self.enabled:
            yield None
            return
        sp = self.open_span(name, attrs)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            self.close_span(sp, time.perf_counter() - t0)

    def open_span(self, name: str, attrs: dict) -> Span:
        """Start a span on this thread's stack; :meth:`close_span` ends it.

        For callers that time the region themselves and hand the duration
        over (:meth:`repro.metrics.MetricsRegistry.span`).  Only call it
        on an enabled tracer.
        """
        buf = self._buf()
        buf.seq += 1
        pid = os.getpid()
        sp = Span(
            name=name,
            span_id=f"{pid}:{buf.tid}:{buf.seq}",
            parent_id=buf.stack[-1].span_id if buf.stack else None,
            t=time.time(),
            attrs=attrs,
            pid=pid,
            tid=buf.tid,
        )
        buf.stack.append(sp)
        return sp

    def close_span(self, sp: Span, dur: float) -> None:
        """End a span of :meth:`open_span` (same thread) after ``dur`` seconds."""
        sp.dur = dur
        buf = self._buf()
        buf.stack.pop()
        buf.spans.append(sp)

    def event(self, type_: str, step: int | None = None, **attrs) -> Event | None:
        """Record one typed timeline event (no-op when disabled)."""
        if not self.enabled:
            return None
        ev = Event(type=type_, step=step, t=time.time(), attrs=attrs)
        self._buf().events.append(ev)
        return ev

    def record(self, event: Event) -> None:
        """Append an already-constructed :class:`Event` (no-op if disabled)."""
        if not self.enabled:
            return
        self._buf().events.append(event)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """All completed spans, sorted by start time."""
        with self._lock:
            bufs = list(self._buffers)
        out = list(self._merged_spans)
        for buf in bufs:
            out.extend(buf.spans)
        out.sort(key=lambda s: s.t)
        return out

    def events(self, type_: str | None = None) -> list[Event]:
        """All events (optionally of one type), ordered by step then time."""
        with self._lock:
            bufs = list(self._buffers)
        out = list(self._merged_events)
        for buf in bufs:
            out.extend(buf.events)
        if type_ is not None:
            out = [e for e in out if e.type == type_]
        out.sort(key=lambda e: (e.step if e.step is not None else -1, e.t))
        return out

    def reset(self) -> None:
        """Drop everything recorded so far (keeps enabled state)."""
        with self._lock:
            self._buffers = []
            self._tls = threading.local()
            self._merged_spans = []
            self._merged_events = []

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless plain-JSON snapshot of the whole trace."""
        return {
            "schema": "repro-trace/v1",
            "spans": [s.to_dict() for s in self.spans()],
            "events": [e.to_dict() for e in self.events()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tracer":
        """Rebuild a tracer from a :meth:`to_dict` snapshot.

        The ``histograms`` section of older snapshots is ignored: per-name
        latency summaries are folded from the spans (:func:`summarize`).
        """
        tr = cls(enabled=True)
        tr._merged_spans = [Span.from_dict(s) for s in d.get("spans", [])]
        tr._merged_events = [Event.from_dict(e) for e in d.get("events", [])]
        return tr

    def merge(self, other: "Tracer | dict") -> "Tracer":
        """Fold another tracer (or snapshot dict) into this one.

        Wall-clock timestamps are absolute, so traces from different
        processes interleave without shifting.  Returns ``self``.
        """
        if isinstance(other, dict):
            if not other:
                return self
            other = Tracer.from_dict(other)
        with self._lock:
            self._merged_spans.extend(other.spans())
            self._merged_events.extend(other.events())
        return self

    # ------------------------------------------------------------------
    # export formats
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace as JSON-lines; returns the path written."""
        path = Path(path)
        with open(path, "w") as f:
            f.write(json.dumps({"kind": "meta", "schema": "repro-trace/v1"}) + "\n")
            for sp in self.spans():
                f.write(json.dumps({"kind": "span", **sp.to_dict()}) + "\n")
            for ev in self.events():
                f.write(json.dumps({"kind": "event", **ev.to_dict()}) + "\n")
        return path

    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Loadable in ``chrome://tracing`` / Perfetto; the ``"repro"`` key
        carries the lossless structured snapshot (viewers ignore it).
        """
        snapshot = self.to_dict()
        spans, events = snapshot["spans"], snapshot["events"]
        t0 = min(
            [s["t"] for s in spans] + [e["t"] for e in events if e["t"]] or [0.0]
        )
        trace_events = []
        for s in spans:
            trace_events.append(
                {
                    "name": s["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": (s["t"] - t0) * 1e6,
                    "dur": s["dur"] * 1e6,
                    "pid": s["pid"],
                    "tid": s["tid"],
                    "args": s["attrs"],
                }
            )
        for e in events:
            args = dict(e["attrs"])
            if e["step"] is not None:
                args["step"] = e["step"]
            trace_events.append(
                {
                    "name": e["type"],
                    "cat": "event",
                    "ph": "i",
                    "s": "p",
                    "ts": ((e["t"] - t0) * 1e6) if e["t"] else 0.0,
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": args,
                }
            )
        trace_events.sort(key=lambda te: te["ts"])
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "repro": snapshot,
        }

    def write_chrome(self, path: str | Path) -> Path:
        """Write the Chrome-trace JSON file; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=None) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Tracer(enabled={self.enabled}, {len(self.spans())} spans, "
            f"{len(self.events())} events)"
        )


def read_trace(path: str | Path) -> Tracer:
    """Load a trace written by :meth:`Tracer.write_chrome` or ``write_jsonl``.

    Plain Chrome traces without the embedded ``"repro"`` snapshot are also
    accepted: spans and events are reconstructed from ``traceEvents``.
    The ``histogram`` records of older JSONL files are skipped.
    """
    path = Path(path)
    text = path.read_text()
    first = text.lstrip()[:1]
    if first == "{" and '"kind"' not in text.splitlines()[0]:
        doc = json.loads(text)
        if "repro" in doc:
            return Tracer.from_dict(doc["repro"])
        if "traceEvents" in doc:
            return _from_chrome_events(doc["traceEvents"])
        return Tracer.from_dict(doc)
    # JSONL
    tr = Tracer(enabled=True)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.pop("kind", None)
        if kind == "span":
            tr._merged_spans.append(Span.from_dict(rec))
        elif kind == "event":
            tr._merged_events.append(Event.from_dict(rec))
    return tr


def _from_chrome_events(trace_events: list[dict]) -> Tracer:
    tr = Tracer(enabled=True)
    seq = 0
    for te in trace_events:
        if te.get("ph") == "X":
            seq += 1
            tr._merged_spans.append(
                Span(
                    name=te.get("name", "?"),
                    span_id=str(seq),
                    t=float(te.get("ts", 0.0)) / 1e6,
                    dur=float(te.get("dur", 0.0)) / 1e6,
                    attrs=dict(te.get("args", {})),
                    pid=int(te.get("pid", 0)),
                    tid=int(te.get("tid", 0)),
                )
            )
        elif te.get("ph") == "i":
            args = dict(te.get("args", {}))
            step = args.pop("step", None)
            name = te.get("name", "")
            if name in EVENT_TYPES:
                tr._merged_events.append(
                    Event(
                        type=name,
                        step=None if step is None else int(step),
                        t=float(te.get("ts", 0.0)) / 1e6,
                        attrs=args,
                    )
                )
    return tr


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per-span-name latency summary (count/total/mean/p50/p95/p99).

    Folds the trace's spans into one :class:`HistogramStat` per name.
    """
    hists: dict[str, HistogramStat] = {}
    for sp in tracer.spans():
        h = hists.get(sp.name)
        if h is None:
            h = hists[sp.name] = HistogramStat()
        h.add(sp.dur)
    out: dict[str, dict] = {}
    for name, h in sorted(hists.items()):
        out[name] = {
            "count": h.count,
            "total": h.total,
            "mean": h.mean,
            "p50": h.quantile(0.50),
            "p95": h.quantile(0.95),
            "p99": h.quantile(0.99),
            "min": None if h.count == 0 else h.min,
            "max": None if h.count == 0 else h.max,
        }
    return out


def event_type_counts(tracer: Tracer) -> dict[str, int]:
    """Events per type, sorted by descending count then name.

    Answers "what happened how often" (checkpoints, fallbacks, model
    switches, heartbeats) without walking the raw event stream.
    """
    counts: dict[str, int] = {}
    for ev in tracer.events():
        counts[ev.type] = counts.get(ev.type, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def slowest_spans(tracer: Tracer, n: int = 5) -> list[Span]:
    """The ``n`` longest individual spans, slowest first.

    The per-name summary shows which *kind* of span dominates; this shows
    the worst *instances* — with their span ids and attrs, which exemplar-
    carrying histograms link back to.
    """
    return sorted(tracer.spans(), key=lambda sp: sp.dur, reverse=True)[: max(0, n)]


def _fmt_seconds(s: float | None) -> str:
    if s is None or (isinstance(s, float) and math.isnan(s)):
        return "-"
    if s >= 1.0:
        return f"{s:.3f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f}ms"
    return f"{s * 1e6:.1f}us"


def format_summary(tracer: Tracer) -> str:
    """Human-readable trace summary: per-span table, event counts, slowest.

    Three sections answer "what dominated" without loading Perfetto: the
    aggregate per-span-name latency table, events-per-type counts, and the
    top-5 slowest individual spans with their span ids and attrs.
    """
    rows = summarize(tracer)
    if not rows:
        lines = ["(no spans recorded)"]
    else:
        name_w = max(len("span"), max(len(n) for n in rows))
        header = (
            f"{'span':<{name_w}}  {'count':>7}  {'total':>9}  {'mean':>9}  "
            f"{'p50':>9}  {'p95':>9}  {'p99':>9}  {'max':>9}"
        )
        lines = [header, "-" * len(header)]
        for name, r in rows.items():
            lines.append(
                f"{name:<{name_w}}  {r['count']:>7d}  {_fmt_seconds(r['total']):>9}  "
                f"{_fmt_seconds(r['mean']):>9}  {_fmt_seconds(r['p50']):>9}  "
                f"{_fmt_seconds(r['p95']):>9}  {_fmt_seconds(r['p99']):>9}  "
                f"{_fmt_seconds(r['max']):>9}"
            )
    counts = event_type_counts(tracer)
    if counts:
        lines.append("")
        lines.append("events: " + "  ".join(f"{t}={c}" for t, c in counts.items()))
    slowest = slowest_spans(tracer, 5)
    if slowest:
        lines.append("")
        lines.append("slowest spans:")
        for sp in slowest:
            attrs = ""
            if sp.attrs:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(sp.attrs.items()))
                attrs = f"  {{{inner}}}"
            lines.append(
                f"  {_fmt_seconds(sp.dur):>9}  {sp.name}  [span {sp.span_id}]{attrs}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# process-wide default (fork-aware, like repro.metrics)
# ----------------------------------------------------------------------

#: Shared disabled tracer: safe zero-overhead default for library code.
NULL_TRACER = Tracer(enabled=False)

# The process default starts *disabled*: tracing is opt-in (CLI --trace,
# farm trace=True), unlike metrics whose default registry records always.
_default = Tracer(enabled=False)
_default_pid = os.getpid()


def get_tracer() -> Tracer:
    """The process-wide default tracer instrumented code records into.

    Fork-aware: a forked child inherits the parent's tracer object, whose
    buffers the parent would never see; the first call after a PID change
    installs a fresh (disabled) tracer in the child.  Workers that trace
    install their own enabled tracer via :func:`set_tracer` and ship the
    snapshot home inside their :class:`~repro.farm.jobs.JobResult`.
    """
    global _default, _default_pid
    if os.getpid() != _default_pid:
        _default = Tracer(enabled=False)
        _default_pid = os.getpid()
    return _default


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide default tracer; returns the previous one."""
    global _default, _default_pid
    previous = _default
    _default = tracer
    _default_pid = os.getpid()
    return previous
