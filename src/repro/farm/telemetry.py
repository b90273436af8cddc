"""Live farm telemetry: fold worker event streams into a fleet view.

Workers emit small plain-dict *events* while they run — ``job_start``,
throttled ``heartbeat`` progress beats, ``checkpoint``, ``resume``,
``pcg_fallback`` degradations and a terminal ``job_end`` — over the same
channel that carries their results (each pool child's pipe, or a direct
callback for the serial backend).  :class:`FleetView` folds that stream
into one thread-safe table of per-job state, and :func:`render_fleet`
formats it as the text dashboard behind ``repro top``.

Events are deliberately independent of :mod:`repro.trace`: heartbeats flow
even when tracing is disabled, so the live view costs nothing but a dict
per beat.  When tracing *is* enabled the same events also land in the
worker's tracer and ship back inside ``JobResult.trace`` for offline
timeline analysis.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = ["JobView", "FleetView", "render_fleet", "LiveRenderer"]

#: display order of job states in the fleet table
_STATE_ORDER = {
    "running": 0,
    "degraded": 1,
    "pending": 2,
    "completed": 3,
    "cancelled": 4,
    "failed": 5,
}

#: states no same-attempt event may leave again (late arrivals are folded
#: into ``updated`` only, never into a resurrected ``running``)
_TERMINAL_STATES = ("completed", "failed", "cancelled")


def _as_int(value, default: int) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _as_float(value, default: float) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


@dataclass
class JobView:
    """Last known state of one farm job, as seen through its events."""

    job_id: str
    state: str = "pending"  # pending | running | degraded | completed | failed
    step: int = 0
    steps_total: int = 0
    divnorm: float = float("nan")
    solver: str = ""
    pid: int | None = None
    attempt: int = 0
    updated: float = 0.0  # wall-clock time of the last event

    @property
    def progress(self) -> float:
        """Completed fraction of the step budget (0 when unknown)."""
        return self.step / self.steps_total if self.steps_total else 0.0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "step": self.step,
            "steps_total": self.steps_total,
            "divnorm": self.divnorm,
            "solver": self.solver,
            "pid": self.pid,
            "attempt": self.attempt,
            "updated": self.updated,
        }


class FleetView:
    """Thread-safe aggregate of per-job telemetry events.

    ``observe`` accepts the plain event dicts workers emit and updates the
    corresponding :class:`JobView`; readers take consistent snapshots with
    :meth:`jobs`.  Pool worker threads and any number of renderer threads
    may call in concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._jobs: dict[str, JobView] = {}
        self._counters: dict[str, int] = {}
        self.events_seen = 0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named fleet counter (admission rejects, cache hits, …).

        Counters are free-form so callers outside the farm (the serve tier)
        can surface their own tallies in the fleet header without the view
        needing to know about them up front.
        """
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> dict[str, int]:
        """Snapshot of named fleet counters, sorted by name."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def expect(self, job_ids: list[str], steps: dict[str, int] | None = None) -> None:
        """Pre-register jobs so the view shows pending work immediately."""
        with self._lock:
            for job_id in job_ids:
                view = self._jobs.setdefault(job_id, JobView(job_id=job_id))
                if steps and job_id in steps:
                    view.steps_total = steps[job_id]

    def observe(self, event: dict) -> None:
        """Fold one worker event into the fleet state (unknown types kept).

        Deliberately crash-proof: events arrive over pipes from many
        children and may be malformed, duplicated or out of order, and a
        telemetry fold must never fail the job whose event it folds.
        Malformed fields are ignored, ``step`` is monotonic within an
        attempt, and terminal states (``completed``/``failed``/
        ``cancelled``) are sticky — a late ``heartbeat`` or ``job_start``
        of the same attempt cannot resurrect a finished job, while a
        *higher* attempt (a retry) legitimately reopens it.
        """
        job_id = event.get("job_id") if isinstance(event, dict) else None
        if not job_id or not isinstance(job_id, str):
            return
        etype = str(event.get("type", ""))
        now = _as_float(event.get("t"), time.time())
        with self._lock:
            self.events_seen += 1
            view = self._jobs.setdefault(job_id, JobView(job_id=job_id))
            view.updated = max(view.updated, now)
            attempt = _as_int(event.get("attempt"), view.attempt)
            retry = attempt > view.attempt
            if retry:
                view.attempt = attempt
                view.step = 0  # a retry restarts (or re-resumes) the run
            if view.state in _TERMINAL_STATES and not retry:
                return  # sticky: late same-attempt events only refresh `updated`
            if "pid" in event:
                view.pid = event["pid"] if isinstance(event["pid"], int) else view.pid
            if "solver" in event:
                view.solver = str(event["solver"])
            if "steps_total" in event:
                view.steps_total = _as_int(event["steps_total"], view.steps_total)
            if "step" in event:
                # monotonic within one attempt: an out-of-order heartbeat
                # must not walk the progress bar backwards
                view.step = max(view.step, _as_int(event["step"], view.step))
            if "divnorm" in event:
                view.divnorm = _as_float(event["divnorm"], view.divnorm)
            if etype == "job_start":
                view.state = "running"
            elif etype == "pcg_fallback":
                view.state = "degraded"
                self._counters["pcg_fallbacks"] = self._counters.get("pcg_fallbacks", 0) + 1
            elif etype == "resume":
                self._counters["resumes"] = self._counters.get("resumes", 0) + 1
            elif etype == "job_end":
                status = event.get("status")
                view.state = status if status in _TERMINAL_STATES else "failed"
            elif etype in ("heartbeat", "checkpoint") and view.state == "pending":
                view.state = "running"

    def jobs(self) -> list[JobView]:
        """Snapshot of all job views, stable display order."""
        with self._lock:
            views = [JobView(**v.to_dict()) for v in self._jobs.values()]
        views.sort(key=lambda v: (_STATE_ORDER.get(v.state, 9), v.job_id))
        return views

    def counts(self) -> dict[str, int]:
        """Number of jobs per state."""
        out: dict[str, int] = {}
        for v in self.jobs():
            out[v.state] = out.get(v.state, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "events_seen": self.events_seen,
            "counters": self.counters(),
            "jobs": [v.to_dict() for v in self.jobs()],
        }


def _bar(fraction: float, width: int = 16) -> str:
    fraction = min(1.0, max(0.0, fraction))
    full = int(round(fraction * width))
    return "#" * full + "." * (width - full)


def render_fleet(fleet: FleetView, now: float | None = None, width: int | None = None) -> str:
    """Format the fleet as a fixed-width text table (the ``repro top`` body).

    ``width`` clamps every line (``None`` probes the terminal via
    :func:`shutil.get_terminal_size`, falling back to 100 in pipes).  The
    clamp is a hard truncation, never a crash: a 20-column terminal gets a
    20-column dashboard.
    """
    views = fleet.jobs()
    counts = fleet.counts()
    counters = fleet.counters()
    now = time.time() if now is None else now
    if width is None:
        width = shutil.get_terminal_size(fallback=(100, 24)).columns
    width = max(8, int(width))
    head = "  ".join(f"{state}:{n}" for state, n in sorted(counts.items()))
    header = f"farm: {len(views)} jobs  {head}"
    if counters:
        header += "  |  " + "  ".join(f"{name}:{n}" for name, n in counters.items())
    lines = [
        header,
        f"{'JOB':<16} {'STATE':<10} {'PROGRESS':<24} {'DIVNORM':>10} "
        f"{'SOLVER':<10} {'PID':>7} {'AGE':>6}",
    ]
    for v in views:
        progress = f"[{_bar(v.progress)}] {v.step}/{v.steps_total or '?'}"
        age = f"{now - v.updated:5.1f}s" if v.updated else "    --"
        finite = isinstance(v.divnorm, (int, float)) and v.divnorm == v.divnorm
        divnorm = f"{v.divnorm:10.3g}" if finite else "        --"
        lines.append(
            f"{v.job_id:<16} {v.state:<10} {progress:<24} {divnorm} "
            f"{v.solver:<10} {v.pid if v.pid is not None else '--':>7} {age}"
        )
    return "\n".join(line[:width] for line in lines)


class LiveRenderer:
    """Background thread that repaints a :class:`FleetView` periodically.

    Writes to ``stream`` (default stderr) every ``interval`` seconds while
    started; :meth:`stop` paints one final frame so the terminal ends on
    the fleet's terminal state.  Plain-text repaint (no cursor control), so
    it degrades gracefully in logs and pipes.
    """

    def __init__(self, fleet: FleetView, interval: float = 0.5, stream=None, alerts_fn=None):
        self.fleet = fleet
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self.alerts_fn = alerts_fn  # () -> list[str], painted under the table
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _paint(self) -> None:
        frame = render_fleet(self.fleet)
        if self.alerts_fn is not None:
            try:
                alerts = list(self.alerts_fn())
            except Exception:
                alerts = []  # the alerts panel must never take the repaint down
            if alerts:
                frame += "\nalerts:\n" + "\n".join(f"  {line}" for line in alerts)
        print(frame, file=self.stream, flush=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._paint()

    def start(self) -> "LiveRenderer":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self._paint()

    def __enter__(self) -> "LiveRenderer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
