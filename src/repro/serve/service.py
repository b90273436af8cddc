"""The serve tier itself: :class:`SimulationService` and its socket server.

:class:`SimulationService` is the in-process API — an asyncio front end
over a resizable :class:`repro.farm.pool.Pool` of simulation workers:

* **submit** consults the content-addressed :class:`~repro.serve.cache.
  ResultCache` first (a hit is answered instantly and skips the pending
  cap — it costs no worker time — but still drains one rate token), then
  per-tenant :class:`~repro.serve.admission.AdmissionController` quotas,
  then enqueues into the pool at the requested priority.
* an :class:`~repro.serve.autoscaler.Autoscaler` grows and shrinks the
  worker fleet with queue depth; shrink always drains, never kills.
* worker telemetry events are bridged from pool threads onto the event
  loop and fanned out to **watch** subscribers.
* the service answers ``status``/``result`` for queued, running and the
  :data:`MAX_FINISHED_JOBS` most recently finished jobs; an older
  finished job is forgotten (its id answers :class:`UnknownJobError`
  and may be submitted again), while its result stays in the cache.
* **stop(drain=True)** finishes every admitted job before exiting;
  ``drain=False`` cancels cooperatively and resolves still-pending
  result futures with ``cancelled`` results.  Either way the cache
  index is flushed to disk.

:class:`ServiceServer` exposes the same API over a local unix socket
using the length-prefixed JSON frames of :mod:`repro.serve.protocol`.

All service methods must be called from the event loop that ran
:meth:`SimulationService.start`; only the pool callbacks hop threads.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.farm.jobs import JobResult, JobSpec
from repro.farm.pool import Pool
from repro.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import OPENMETRICS_CONTENT_TYPE, render_prometheus
from repro.obs.slo import SLO, SLOEngine, default_serve_slos
from repro.obs.timeseries import SeriesRecorder
from repro.trace import HistogramStat

from .admission import AdmissionController, TenantQuota
from .autoscaler import Autoscaler
from .cache import ResultCache
from .protocol import ProtocolError, ServeError, read_frame, write_frame

__all__ = [
    "DuplicateJobError",
    "InvalidSpecError",
    "MAX_FINISHED_JOBS",
    "ShuttingDownError",
    "SimulationService",
    "ServiceServer",
    "UnknownJobError",
]

_TERMINAL = ("completed", "failed", "cancelled")

#: finished jobs a service keeps; past it the oldest-finished is forgotten
MAX_FINISHED_JOBS = 256


class UnknownJobError(ServeError):
    """The job_id was never submitted, or its job finished and was forgotten."""

    code = "unknown_job"


class DuplicateJobError(ServeError):
    """A job with this job_id is already tracked by the service."""

    code = "duplicate_job"


class ShuttingDownError(ServeError):
    """The service is stopping and no longer accepts submissions."""

    code = "shutting_down"


class InvalidSpecError(ServeError):
    """The submitted spec dict failed :class:`JobSpec` validation."""

    code = "invalid_spec"


@dataclass
class _Job:
    """One tracked submission: spec, bookkeeping and its waiters."""

    spec: JobSpec
    tenant: str
    priority: int
    status: str = "queued"
    admitted: bool = False
    cached: bool = False
    submitted_at: float = 0.0
    result: JobResult | None = None
    future: asyncio.Future = None  # set by the service on the loop
    watchers: list[asyncio.Queue] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "job_id": self.spec.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "cached": self.cached,
            "cache_key": self.spec.cache_key(),
        }


class SimulationService:
    """Long-lived simulation-as-a-service front end (in-process API).

    Parameters
    ----------
    cache_dir:
        Result-cache directory; ``None`` disables caching entirely.
    cache_entries:
        LRU capacity of the result cache.
    checkpoint_dir:
        Checkpoint directory handed to the pool (orphan-swept at start).
    min_workers, max_workers:
        Autoscaling band of the worker fleet.
    default_quota, quotas:
        Admission limits (service-wide default + per-tenant overrides).
    autoscale_seconds:
        Cadence of the background autoscaler loop.
    metrics:
        Registry shared by the pool, cache, admission and autoscaler.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        cache_entries: int | None = 256,
        checkpoint_dir: str | Path | None = None,
        min_workers: int = 1,
        max_workers: int = 4,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        autoscale_seconds: float = 0.25,
        heartbeat_seconds: float = 0.5,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
        obs_interval: float = 1.0,
        slos: list[SLO] | None = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            ResultCache(cache_dir, max_entries=cache_entries, metrics=self.metrics)
            if cache_dir is not None
            else None
        )
        self.admission = AdmissionController(
            default_quota=default_quota if default_quota is not None else TenantQuota(),
            quotas=quotas,
            clock=clock,
        )
        self.checkpoint_dir = checkpoint_dir
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.autoscale_seconds = autoscale_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.pool: Pool | None = None
        self.autoscaler: Autoscaler | None = None
        self._jobs: dict[str, _Job] = {}
        self._finished: deque[str] = deque()  # terminal job ids, oldest first
        self._loop: asyncio.AbstractEventLoop | None = None
        self._scaler_task: asyncio.Task | None = None
        self._obs_task: asyncio.Task | None = None
        self._stopping = False

        # --- labeled metric families (scraped via the metrics op) --------
        families = self.metrics.families
        self._submit_total = families.counter(
            "serve_submit_total",
            help="Submissions by tenant and outcome (accepted/cached/rejection code).",
            labels=("tenant", "outcome"),
        )
        self._submit_latency = families.histogram(
            "serve_submit_to_result_seconds",
            help="Submit-to-terminal-result latency by tenant.",
            labels=("tenant",),
            unit="seconds",
        )
        self._cache_by_scenario = families.counter(
            "serve_cache_requests_total",
            help="Result-cache lookups by scenario and outcome.",
            labels=("scenario", "outcome"),
        )
        self._jobs_by_status = families.counter(
            "serve_jobs_total",
            help="Terminal jobs by status (completed/failed/cancelled).",
            labels=("status",),
        )

        # --- time series + SLO engine (the repro health surface) ---------
        self.obs_interval = obs_interval
        self.recorder = SeriesRecorder(interval=obs_interval, clock=clock)
        self._register_series()
        self.slo_engine = SLOEngine(
            self.recorder, slos if slos is not None else default_serve_slos()
        )

    # ------------------------------------------------------------------
    # observability wiring
    # ------------------------------------------------------------------
    def _register_series(self) -> None:
        """Declare the recorded series the stock SLOs evaluate against."""
        counters = self.metrics.counters
        rec = self.recorder

        def flat(*names: str):
            return lambda: sum(counters.get(n, 0.0) for n in names)

        rec.add_source("serve_submitted", flat("serve/submitted"))
        rec.add_source("serve_rejected", flat("serve/rejected"))
        rec.add_source("serve_cache_misses", flat("serve/cache/misses"))
        rec.add_source(
            "serve_cache_requests", flat("serve/cache/hits", "serve/cache/misses")
        )
        rec.add_source("serve_jobs_failed", flat("serve/jobs_failed"))
        rec.add_source(
            "serve_jobs_finished",
            flat("serve/jobs_completed", "serve/jobs_failed", "serve/jobs_cancelled"),
        )
        rec.add_source("farm_degradations", flat("farm/degradations"))
        rec.add_source("serve_queue_depth", lambda: self.pool.queue_depth)
        rec.add_source("serve_workers", lambda: self.pool.alive)
        rec.add_source("serve_workers_busy", lambda: self.pool.busy)
        rec.add_source("serve_submit_to_result_p99", self._latency_p99)

    def _latency_p99(self) -> float:
        """p99 submit-to-result latency across all tenants (merged series)."""
        merged = HistogramStat()
        for _, (stat, _exemplar) in self._submit_latency.samples():
            merged.merge(stat)
        if merged.count == 0:
            raise ValueError("no latency observations yet")  # recorder skips
        return merged.quantile(0.99)

    async def _obs_loop(self) -> None:
        """Background sampling loop feeding the recorder at obs cadence."""
        while not self._stopping:
            self.recorder.tick()
            await asyncio.sleep(self.obs_interval)

    def _tenant_outcome(self, tenant: str, outcome: str) -> None:
        """Count a submit outcome, folding tenant-cardinality overflow.

        Tenant names arrive from clients, so the label is potentially
        unbounded; past the family's series cap new tenants aggregate
        under ``_overflow`` instead of failing the submission (the raise-
        don't-OOM guard stays for genuinely programmatic label abuse).
        """
        self._submit_total.labels_or_overflow(
            "tenant", tenant=tenant, outcome=outcome
        ).inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker pool and the background autoscaler."""
        if self.pool is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self.pool = Pool(
            workers=self.min_workers,
            checkpoint_dir=self.checkpoint_dir,
            metrics=self.metrics,
            on_event=self._on_pool_event,
            on_result=self._on_pool_result,
            heartbeat_seconds=self.heartbeat_seconds,
        )
        self.autoscaler = Autoscaler(
            self.pool,
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            interval_seconds=self.autoscale_seconds,
            metrics=self.metrics,
        )
        self._scaler_task = asyncio.create_task(self.autoscaler.run())
        self._obs_task = asyncio.create_task(self._obs_loop())

    async def stop(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the service; True when every job reached a terminal state.

        ``drain=True`` finishes all admitted jobs first (bounded by
        ``timeout``); ``drain=False`` cancels queued jobs and asks running
        ones to stop at their next step boundary.  The cache LRU index is
        flushed either way.
        """
        self._stopping = True
        ok = True
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self._scaler_task is not None:
            await self._scaler_task
            self._scaler_task = None
        if self._obs_task is not None:
            self._obs_task.cancel()
            try:
                await self._obs_task
            except asyncio.CancelledError:
                pass
            self._obs_task = None
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            if drain:
                ok = await loop.run_in_executor(None, self.pool.drain, timeout)
            # past this point any still-admitted job is cancelled at its
            # next step boundary; workers exit at the next job boundary
            ok = await loop.run_in_executor(
                None, lambda: self.pool.shutdown(False, timeout)
            ) and ok
        # let already-scheduled result callbacks land before sweeping
        await asyncio.sleep(0)
        for job in list(self._jobs.values()):
            if job.status not in _TERMINAL:
                self._finish(
                    JobResult(
                        job_id=job.spec.job_id,
                        status="cancelled",
                        error="service shutdown",
                    )
                )
        if self.cache is not None:
            self.cache.flush()
        return ok

    # ------------------------------------------------------------------
    # pool callbacks (worker threads) -> event loop
    # ------------------------------------------------------------------
    def _on_pool_event(self, event: dict) -> None:
        self._post(self._publish, event)

    def _on_pool_result(self, result: JobResult) -> None:
        self._post(self._finish, result)

    def _post(self, fn, arg) -> None:
        try:
            self._loop.call_soon_threadsafe(fn, arg)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _publish(self, event: dict) -> None:
        job = self._jobs.get(event.get("job_id")) if isinstance(event, dict) else None
        if job is None:
            return
        if event.get("type") == "job_start" and job.status == "queued":
            job.status = "running"
        for q in job.watchers:
            q.put_nowait(event)

    def _finish(self, result: JobResult) -> None:
        job = self._jobs.get(result.job_id)
        if job is None or job.status in _TERMINAL:
            return
        job.status = result.status
        job.result = result
        job.cached = result.cached
        if job.admitted:
            job.admitted = False
            self.admission.release(job.tenant)
        if self.cache is not None and result.ok and not result.cached:
            self.cache.put(job.spec.cache_key(), result)
        if job.future is not None and not job.future.done():
            job.future.set_result(result)
        terminal = {
            "type": "result",
            "job_id": result.job_id,
            "status": result.status,
            "cached": result.cached,
            "t": time.time(),
        }
        for q in job.watchers:
            q.put_nowait(terminal)
            q.put_nowait(None)  # sentinel: stream is over
        job.watchers.clear()
        self._finished.append(result.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]
        self.metrics.inc(f"serve/jobs_{result.status}")
        self._jobs_by_status.inc(status=result.status)
        if job.submitted_at:
            elapsed = time.time() - job.submitted_at
            self._submit_latency.labels_or_overflow(
                "tenant", tenant=job.tenant
            ).observe(elapsed)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, tenant: str = "default", priority: int = 1) -> dict:
        """Submit one job; returns its status summary.

        Raises the typed :class:`ServeError` hierarchy on rejection:
        :class:`DuplicateJobError`, :class:`ShuttingDownError`, or an
        :class:`~repro.serve.admission.AdmissionError` subclass.  A result
        -cache hit completes the job immediately (``cached=True`` in the
        summary) without worker time or a pending slot — but it still
        drains one rate token, so cached specs stay rate-limited.
        """
        if self.pool is None:
            raise RuntimeError("service not started")
        if self._stopping:
            raise ShuttingDownError("service is shutting down")
        if spec.job_id in self._jobs:
            raise DuplicateJobError(f"job_id {spec.job_id!r} was already submitted")
        job = _Job(
            spec=spec,
            tenant=tenant,
            priority=priority,
            submitted_at=time.time(),
            future=self._loop.create_future(),
        )
        self.metrics.inc("serve/submitted")
        scenario = spec.scenario.split(":", 1)[0]
        if self.cache is not None:
            hit = self.cache.get(spec.cache_key())
            self._cache_by_scenario.inc(
                scenario=scenario, outcome="hit" if hit is not None else "miss"
            )
            if hit is not None:
                # a hit costs no worker time (no pending slot) but is still
                # a submission: bill the tenant's token bucket
                try:
                    self.admission.charge(tenant)
                except ServeError as exc:
                    self.metrics.inc("serve/rejected")
                    self._tenant_outcome(tenant, exc.code)
                    raise
                # re-badge the stored result as *this* job's answer
                served = JobResult.from_dict({**hit.to_dict(), "job_id": spec.job_id})
                served.cached = True
                self._jobs[spec.job_id] = job
                self._tenant_outcome(tenant, "cached")
                self._finish(served)
                return job.summary()
        try:
            self.admission.admit(tenant)
        except ServeError as exc:
            self.metrics.inc("serve/rejected")
            self._tenant_outcome(tenant, exc.code)
            raise
        job.admitted = True
        self._tenant_outcome(tenant, "accepted")
        self._jobs[spec.job_id] = job
        self.pool.submit(spec, priority=priority)
        self.autoscaler.tick()  # react to the new demand immediately
        return job.summary()

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job_id {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """Current status summary of one job."""
        return self._job(job_id).summary()

    async def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Wait for (and return) the job's terminal :class:`JobResult`."""
        job = self._job(job_id)
        if job.result is not None:
            return job.result
        return await asyncio.wait_for(asyncio.shield(job.future), timeout)

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; returns ``{"job_id", "outcome"}``.

        ``outcome`` is ``"queued"`` (dequeued, will never run),
        ``"running"`` (stops at the next step boundary) or ``"finished"``
        (already terminal — nothing to do).
        """
        job = self._job(job_id)
        if job.status in _TERMINAL:
            return {"job_id": job_id, "outcome": "finished"}
        outcome = self.pool.cancel(job_id)
        if outcome == "unknown":
            # not in the pool yet/anymore but not terminal here: the result
            # callback is in flight — treat as finished-any-moment
            outcome = "finished"
        return {"job_id": job_id, "outcome": outcome}

    def subscribe(self, job_id: str) -> asyncio.Queue:
        """A queue of this job's live telemetry events.

        Yields worker event dicts and a final ``None`` sentinel once the
        job is terminal.  Subscribing to an already-finished job yields
        just its terminal ``result`` event.
        """
        job = self._job(job_id)
        q: asyncio.Queue = asyncio.Queue()
        if job.status in _TERMINAL:
            q.put_nowait(
                {
                    "type": "result",
                    "job_id": job_id,
                    "status": job.status,
                    "cached": job.cached,
                    "t": time.time(),
                }
            )
            q.put_nowait(None)
        else:
            job.watchers.append(q)
        return q

    def unsubscribe(self, job_id: str, q: asyncio.Queue) -> None:
        """Detach a watcher queue (no-op if already detached)."""
        job = self._jobs.get(job_id)
        if job is not None and q in job.watchers:
            job.watchers.remove(q)

    def stats(self) -> dict:
        """One JSON-able snapshot of the whole service."""
        by_status: dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": {
                "total": len(self._jobs),
                "by_status": by_status,
                "cached": sum(1 for j in self._jobs.values() if j.cached),
            },
            "admission": self.admission.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "pool": self.autoscaler.snapshot() if self.autoscaler is not None else None,
        }

    def metrics_text(self, openmetrics: bool = False) -> str:
        """The Prometheus exposition of every metric surface.

        Labeled families (including worker series merged home through the
        pool) plus the flat counters.  ``openmetrics=True``
        renders the OpenMetrics exposition, which additionally carries
        exemplars linking slow histogram buckets to their trace spans —
        the classic ``0.0.4`` page must not (classic parsers reject them).
        """
        return render_prometheus(
            self.metrics.families, self.metrics, openmetrics=openmetrics
        )

    def health(self) -> dict:
        """SLO burn-rate evaluation over the recorded series.

        Ticks the recorder opportunistically first (so a freshly-started
        service still reports against current samples), then evaluates
        every declared SLO.  ``state`` is the worst across SLOs:
        ``ok`` < ``warning`` < ``critical``; ``no_data`` means a series
        has no traffic to judge yet.
        """
        self.recorder.tick()
        report = self.slo_engine.to_dict()
        report["recorder"] = {
            "interval_seconds": self.recorder.interval,
            "series": self.recorder.names(),
        }
        return report


# ----------------------------------------------------------------------
# the unix-socket front end
# ----------------------------------------------------------------------
class ServiceServer:
    """Expose a :class:`SimulationService` over a local unix socket.

    One connection handles any number of sequential request frames; the
    streaming ``watch`` op holds the connection until the watched job is
    terminal.  Typed :class:`ServeError`\\ s become ``error`` responses
    with their stable ``code``; unexpected exceptions are reported as
    ``internal`` without taking the server down.
    """

    def __init__(self, service: SimulationService, socket_path: str | Path):
        self.service = service
        self.socket_path = str(socket_path)
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind the unix socket and start accepting connections."""
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    await write_frame(writer, _error_response(exc))
                    break
                if request is None:
                    break
                try:
                    await self._dispatch(request, writer)
                except ServeError as exc:
                    await write_frame(writer, _error_response(exc))
                except Exception as exc:  # keep the server alive
                    await write_frame(
                        writer,
                        {
                            "ok": False,
                            "error": {
                                "code": "internal",
                                "type": type(exc).__name__,
                                "message": str(exc),
                            },
                        },
                    )
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: dict, writer) -> None:
        op = request.get("op")
        if op == "submit":
            spec_dict = request.get("spec")
            if not isinstance(spec_dict, dict):
                raise ProtocolError("submit needs a 'spec' object")
            try:
                spec = JobSpec.from_dict(spec_dict)
            except (TypeError, ValueError) as exc:
                raise InvalidSpecError(str(exc)) from exc
            summary = self.service.submit(
                spec,
                tenant=str(request.get("tenant", "default")),
                priority=int(request.get("priority", 1)),
            )
            await write_frame(writer, {"ok": True, "job": summary})
        elif op == "status":
            await write_frame(
                writer, {"ok": True, "job": self.service.status(_job_id(request))}
            )
        elif op == "result":
            timeout = request.get("timeout")
            result = await self.service.result(
                _job_id(request), timeout=float(timeout) if timeout is not None else None
            )
            await write_frame(writer, {"ok": True, "result": result.to_dict()})
        elif op == "cancel":
            await write_frame(
                writer, {"ok": True, **self.service.cancel(_job_id(request))}
            )
        elif op == "watch":
            job_id = _job_id(request)
            q = self.service.subscribe(job_id)
            await write_frame(writer, {"ok": True, "watching": job_id})
            try:
                while True:
                    event = await q.get()
                    if event is None:
                        await write_frame(writer, {"done": True})
                        break
                    await write_frame(writer, {"event": event})
            finally:
                self.service.unsubscribe(job_id, q)
        elif op == "stats":
            await write_frame(writer, {"ok": True, "stats": self.service.stats()})
        elif op == "metrics":
            openmetrics = bool(request.get("openmetrics", False))
            await write_frame(
                writer,
                {
                    "ok": True,
                    "content_type": (
                        OPENMETRICS_CONTENT_TYPE if openmetrics else PROMETHEUS_CONTENT_TYPE
                    ),
                    "text": self.service.metrics_text(openmetrics=openmetrics),
                },
            )
        elif op == "health":
            await write_frame(writer, {"ok": True, "health": self.service.health()})
        else:
            raise ProtocolError(f"unknown op {op!r}")


def _job_id(request: dict) -> str:
    job_id = request.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise ProtocolError(f"op {request.get('op')!r} needs a 'job_id' string")
    return job_id


def _error_response(exc: ServeError) -> dict:
    return {
        "ok": False,
        "error": {"code": exc.code, "type": type(exc).__name__, "message": str(exc)},
    }
