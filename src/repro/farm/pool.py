"""The simulation farm: concurrent job execution with fault tolerance.

:class:`SimulationFarm` runs a list of :class:`~repro.farm.jobs.JobSpec`
through one of two backends:

``process`` (default)
    The batch runs through a :class:`Pool` of ``workers`` slots, one child
    process per running job.  A child that dies without a result (crash,
    OOM kill) or overruns its timeout is retried in the same slot up to
    ``spec.max_retries`` times, resuming from its latest checkpoint.  Each
    child's registry and trace ride home inside its
    :class:`~repro.farm.jobs.JobResult` and merge into the farm's as the
    result arrives.  Worker events reach the farm's ``on_event`` on pool
    worker threads; an exception there fails that job.

``serial``
    Jobs run inline one after another — the in-process reference the
    farm tests compare the process backend against.

:class:`Pool` is the one child supervisor: it runs the process backend's
batches and, long-lived and resizable, the serve tier.

In-run failures (NN raising, divergence, injected faults) never reach the
pool: :func:`~repro.farm.worker.run_job` degrades those to exact PCG
internally.  The pool only handles *hard* faults — the ones a single
process cannot survive.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.metrics import MetricsRegistry, set_metrics
from repro.trace import Tracer, get_tracer, set_tracer

from .checkpoint import sweep_orphans
from .jobs import JobResult, JobSpec
from .telemetry import FleetView
from .worker import _WORKER_ENV, run_job

__all__ = ["FarmReport", "SimulationFarm", "Pool", "BACKENDS"]

BACKENDS = ("process", "serial")


@dataclass
class FarmReport:
    """Aggregate outcome of one farm submission."""

    results: list[JobResult]
    backend: str
    workers: int
    wall_seconds: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def completed(self) -> list[JobResult]:
        """Jobs that ran their full step budget."""
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[JobResult]:
        """Jobs that exhausted retries or degradations."""
        return [r for r in self.results if not r.ok]

    @property
    def total_steps(self) -> int:
        """Simulation steps completed across all jobs."""
        return sum(r.steps_done for r in self.results)

    @property
    def jobs_per_second(self) -> float:
        """Completed jobs per wall-clock second of the submission."""
        return len(self.completed) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def steps_per_second(self) -> float:
        """Simulation steps per wall-clock second of the submission."""
        return self.total_steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """Plain-JSON representation of the report."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "jobs": len(self.results),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "total_steps": self.total_steps,
            "jobs_per_second": self.jobs_per_second,
            "steps_per_second": self.steps_per_second,
            "results": [r.to_dict() for r in self.results],
            "metrics": self.metrics.to_dict(),
        }


def _process_worker_entry(
    spec_dict: dict,
    checkpoint_dir: str | None,
    attempt: int,
    send,
    trace: bool = False,
    heartbeat_seconds: float = 0.5,
    cancel=None,
) -> None:
    """Child-process main of a pool job: run it, streaming events and the
    result back.

    ``send`` puts one message on the job's pipe to the pool worker thread
    that forked the child.  That thread hands each event to the pool's
    ``on_event``; an exception from it fails the job.  Messages are tagged
    tuples ``("event", job_id, attempt, event_dict)`` for in-flight
    telemetry and exactly one terminal ``("result", job_id, attempt,
    result_dict)``.  ``cancel`` is the job's :class:`multiprocessing.Event`,
    checked by :func:`run_job` between steps.
    """
    os.environ[_WORKER_ENV] = "1"
    m = MetricsRegistry()
    set_metrics(m)  # the worker's whole profile lands in one shippable registry
    set_tracer(Tracer(enabled=trace))  # private per-process tracer, shipped in the result
    spec = JobSpec.from_dict(spec_dict)

    def on_event(event: dict) -> None:
        send(("event", spec.job_id, attempt, event))

    try:
        result = run_job(
            spec,
            checkpoint_dir,
            metrics=m,
            attempt=attempt,
            on_event=on_event,
            heartbeat_seconds=heartbeat_seconds,
            attach_trace=True,
            cancel=cancel,
        )
    except BaseException as exc:  # harness-level error: report, don't hang the farm
        result = JobResult(
            job_id=spec.job_id,
            status="failed",
            retries=attempt,
            error=f"{type(exc).__name__}: {exc}",
            metrics=m.to_dict(),
        )
    send(("result", spec.job_id, attempt, result.to_dict()))


def _pool_child_main(*args) -> None:
    """Process target of a pool child: :func:`_process_worker_entry`, then
    ``os._exit``.

    The child restores default SIGINT/SIGTERM handling and drops the
    inherited ``signal.set_wakeup_fd``: ``repro serve`` installs asyncio
    signal handlers, and without this a signal sent to a job's child would
    be written into the server's wakeup socket and shut the server down.
    It leaves through ``os._exit``, because the normal exit path runs
    ``threading._shutdown`` and flushes stdio, whose locks another parent
    thread may have held when the child forked.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    code = 1
    try:
        _process_worker_entry(*args)
        code = 0
    finally:
        os._exit(code)


class SimulationFarm:
    """Execute many simulation jobs concurrently, tolerating worker faults.

    Parameters
    ----------
    workers:
        Concurrent job slots (default: CPU count, capped at 8).
    backend:
        ``"process"`` or ``"serial"`` (see module docstring).
    checkpoint_dir:
        Directory for job checkpoints.  Defaults to a temporary directory
        that lives for the duration of one :meth:`run` call — long enough
        for crash-retry resume, cleaned up afterwards.
    metrics:
        Farm-level registry all per-worker profiles are merged into.
    on_event:
        Optional callback receiving every worker telemetry event (plain
        dict) as it arrives; the farm's own :attr:`fleet` view is always
        updated regardless.  The process backend calls it on pool worker
        threads, so it must be thread-safe, and an exception from it fails
        that job rather than unwinding :meth:`run`; the serial backend
        calls it on the thread running :meth:`run`.
    trace:
        Enable structured tracing: workers run with an enabled
        :class:`repro.trace.Tracer` and the farm merges their spans,
        events and histograms into :attr:`tracer`.
    heartbeat_seconds:
        Minimum spacing of per-job ``heartbeat`` progress events.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "process",
        checkpoint_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        on_event=None,
        trace: bool = False,
        heartbeat_seconds: float = 0.5,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.workers = workers if workers is not None else min(8, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_event = on_event
        self.trace = trace
        self.heartbeat_seconds = heartbeat_seconds
        #: live per-job telemetry folded from worker event streams
        self.fleet = FleetView()
        #: farm-level tracer; workers' traces merge here when ``trace=True``
        self.tracer = Tracer(enabled=trace)

    def _dispatch_event(self, event: dict) -> None:
        """Fold one worker event into the fleet and the user callback."""
        self.fleet.observe(event)
        if self.on_event is not None:
            self.on_event(event)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec]) -> FarmReport:
        """Run all jobs to a terminal state and return the merged report."""
        jobs = list(jobs)
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job_ids within one submission must be unique")
        self.fleet.expect(ids, {j.job_id: j.steps for j in jobs})
        t0 = time.perf_counter()
        tmp: tempfile.TemporaryDirectory | None = None
        ckpt_dir = self.checkpoint_dir
        if ckpt_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-farm-")
            ckpt_dir = tmp.name
        # no worker is running yet, so every leftover ``.tmp`` is a torn
        # write from an earlier (killed) run — sweep before dispatching
        swept = sweep_orphans(ckpt_dir)
        if swept:
            self.metrics.inc("farm/orphan_checkpoints_swept", len(swept))
        # serial jobs record into the farm's tracer directly; pool children
        # trace when it is enabled, and the pool merges each child's trace
        # into it as the result arrives
        previous = set_tracer(self.tracer)
        try:
            runner = {
                "process": self._run_pool,
                "serial": self._run_serial,
            }[self.backend]
            results = runner(jobs, str(ckpt_dir))
        finally:
            set_tracer(previous)
            if tmp is not None:
                tmp.cleanup()
        wall = time.perf_counter() - t0
        order = {job_id: i for i, job_id in enumerate(ids)}
        results.sort(key=lambda r: order[r.job_id])
        return FarmReport(
            results=results,
            backend=self.backend,
            workers=self.workers,
            wall_seconds=wall,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: list[JobSpec], ckpt_dir: str) -> list[JobResult]:
        results = [
            run_job(
                spec,
                ckpt_dir,
                metrics=MetricsRegistry(),
                on_event=self._dispatch_event,
                heartbeat_seconds=self.heartbeat_seconds,
            )
            for spec in jobs
        ]
        for r in results:
            self.metrics.merge(r.metrics)
        self.metrics.inc("farm/jobs", len(results))
        self.metrics.inc("farm/jobs_completed", sum(1 for r in results if r.ok))
        self.metrics.inc("farm/jobs_failed", sum(1 for r in results if not r.ok))
        return results

    def _run_pool(self, jobs: list[JobSpec], ckpt_dir: str) -> list[JobResult]:
        """Run the batch through a :class:`Pool`, which merges and counts
        each result as it delivers it."""
        results: list[JobResult] = []
        pool = Pool(
            workers=self.workers,
            checkpoint_dir=ckpt_dir,
            metrics=self.metrics,
            on_event=self._dispatch_event,
            on_result=results.append,
            heartbeat_seconds=self.heartbeat_seconds,
        )
        try:
            for spec in jobs:
                pool.submit(spec)
            pool.shutdown(drain=True)
        except BaseException:
            pool.shutdown(drain=False)
            raise
        return results


# ----------------------------------------------------------------------
# the one child supervisor: the farm's process backend and the serve tier
# ----------------------------------------------------------------------
class Pool:
    """A *resizable* worker pool executing farm jobs in child processes.

    Jobs arrive through :meth:`submit` into a priority queue, a fleet of
    worker threads pulls them, and finished
    :class:`~repro.farm.jobs.JobResult`\\ s are delivered to the
    ``on_result`` callback (from the worker thread that produced them).
    :class:`SimulationFarm`'s process backend runs each batch through a
    pool sized to its ``workers``; :mod:`repro.serve` keeps one up for the
    lifetime of a service.

    Each worker thread runs its job in a child process forked through the
    farm's worker entry, so jobs in flight run on separate cores and the
    parent runs no simulation code.  The thread relays the child's events
    to ``on_event``, merges its metrics into :attr:`metrics` and its trace
    into :func:`repro.trace.get_tracer`, and applies the farm's fault
    rules: a child that dies without a result, or overruns
    ``spec.timeout_seconds`` (after the farm's grace), is retried from its
    checkpoint in the same slot up to ``spec.max_retries`` times; a child
    that lingers after reporting is terminated and its result kept.

    The pool is the autoscaling substrate of :mod:`repro.serve`:

    * :meth:`resize` *grows* by spawning threads immediately and *shrinks*
      by draining — excess workers finish their current job and exit at
      the next job boundary; a busy worker is **never** killed mid-job.
    * :meth:`cancel` removes a queued job without running it, or sets the
      cooperative cancel flag of a running one (honoured by ``run_job`` at
      its next step boundary).
    * in-run failures degrade gracefully inside ``run_job`` exactly as on
      the farm; a harness-level exception becomes a ``failed`` result
      rather than a dead worker.

    All public methods are thread-safe; callbacks run on worker threads
    and must be thread-safe themselves.  A job counts as running until
    ``on_result`` has returned for it, so :meth:`drain` returns only after
    every result was delivered, and ``on_result`` must not call
    :meth:`drain`.
    """

    _SENTINEL_PRIORITY = 1 << 30  # wake-up tokens sort after every real job

    def __init__(
        self,
        workers: int = 1,
        checkpoint_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        on_event=None,
        on_result=None,
        heartbeat_seconds: float = 0.5,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_event = on_event
        self.on_result = on_result
        self.heartbeat_seconds = heartbeat_seconds
        if self.checkpoint_dir is not None:
            swept = sweep_orphans(self.checkpoint_dir)
            if swept:
                self.metrics.inc("farm/orphan_checkpoints_swept", len(swept))
        methods = mp.get_all_start_methods()  # children fork where available
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        self._queue: queue_mod.PriorityQueue = queue_mod.PriorityQueue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._target = 0
        self._excess = 0  # shrink debt: workers asked to exit at the next boundary
        self._seq = 0
        self._queued: dict[str, JobSpec] = {}
        self._queued_at: dict[str, float] = {}
        # per-job lifecycle latencies, derived from the pool's own event
        # stream (submit -> pickup -> terminal); worker-side labeled series
        # ride home inside result.metrics and fold in _deliver's merge
        families = self.metrics.families
        self._queue_wait_hist = families.histogram(
            "farm_queue_wait_seconds",
            help="Submit-to-pickup wait of pool jobs.",
            unit="seconds",
        )
        self._job_run_hist = families.histogram(
            "farm_job_run_seconds",
            help="Worker-side job execution time by terminal status.",
            labels=("status",),
            unit="seconds",
        )
        self._jobs_by_status = families.counter(
            "farm_jobs_total",
            help="Terminal pool jobs by status.",
            labels=("status",),
        )
        #: jobs asked to cancel while queued or running; a running one whose
        #: child dies is not retried
        self._cancelled: set[str] = set()
        #: running job -> the cancel Event of its current child
        self._running: dict[str, mp.synchronize.Event] = {}
        self._shutdown = False
        self.resize(workers)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Target worker count (the last :meth:`resize` value)."""
        with self._lock:
            return self._target

    @property
    def alive(self) -> int:
        """Worker threads currently alive (> target while draining a shrink)."""
        with self._lock:
            return len(self._threads)

    @property
    def busy(self) -> int:
        """Workers currently executing a job."""
        with self._lock:
            return len(self._running)

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        with self._lock:
            return len(self._queued)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, priority: int = 1) -> None:
        """Enqueue one job; lower ``priority`` numbers run first."""
        if priority >= self._SENTINEL_PRIORITY:
            raise ValueError(f"priority must be < {self._SENTINEL_PRIORITY}")
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            if spec.job_id in self._queued or spec.job_id in self._running:
                raise ValueError(f"job_id {spec.job_id!r} is already in the pool")
            self._seq += 1
            self._queued[spec.job_id] = spec
            self._queued_at[spec.job_id] = time.monotonic()
            self._queue.put((priority, self._seq, spec))
        self.metrics.inc("farm/pool/submitted")

    def cancel(self, job_id: str) -> str:
        """Cancel a job: ``"queued"`` | ``"running"`` | ``"unknown"``.

        Queued jobs are dequeued without running (a ``cancelled`` result is
        still delivered); running jobs get their cooperative cancel flag
        set and stop at the next step boundary.
        """
        with self._lock:
            if job_id in self._queued and job_id not in self._cancelled:
                self._cancelled.add(job_id)
                return "queued"
            flag = self._running.get(job_id)
            if flag is None:
                return "unknown"
            self._cancelled.add(job_id)
        flag.set()
        return "running"

    # ------------------------------------------------------------------
    def resize(self, workers: int) -> None:
        """Set the target worker count; grow now, shrink by draining."""
        if workers < 0:
            raise ValueError("workers must be >= 0")
        spawn = 0
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            self._target = workers
            deficit = workers - (len(self._threads) - self._excess)
            if deficit > 0:
                # pay down shrink debt first, then spawn the remainder
                repay = min(self._excess, deficit)
                self._excess -= repay
                spawn = deficit - repay
                for _ in range(spawn):
                    t = threading.Thread(target=self._worker_loop, daemon=True)
                    self._threads.append(t)
            elif deficit < 0:
                self._excess += -deficit
                self._wake(-deficit)
                self.metrics.inc("farm/pool/shrink_requests", -deficit)
        # start outside the lock: a worker's first action is taking it
        if spawn:
            with self._lock:
                to_start = [t for t in self._threads if not t.is_alive() and not t.ident]
            for t in to_start:
                t.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running (True) or timeout (False)."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._idle:
            while self._queued or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the pool.  ``drain=True`` finishes queued + running jobs
        first; ``drain=False`` cancels queued jobs and asks running ones to
        stop at their next step boundary.  Every job still queued when the
        pool stops gets a ``cancelled`` result, delivered from the calling
        thread.  Returns False on timeout."""
        ok = True
        if drain:
            ok = self.drain(timeout)
        with self._idle:
            self._shutdown = True
            dropped = list(self._queued)
            self._queued.clear()
            self._queued_at.clear()
            self._cancelled.difference_update(dropped)
            flags = []
            if not drain:
                flags = list(self._running.values())
                self._cancelled.update(self._running)
            self._target = 0
            self._wake(len(self._threads) - self._excess)
            self._excess = len(self._threads)
            threads = list(self._threads)
            self._idle.notify_all()
        for flag in flags:
            flag.set()
        for job_id in dropped:
            self._deliver(JobResult(job_id=job_id, status="cancelled"))
        for t in threads:
            t.join(timeout=30.0)
            if t.is_alive():  # pragma: no cover - wedged worker
                ok = False
        return ok

    # ------------------------------------------------------------------
    def _wake(self, n: int) -> None:
        """Queue one wake-up token per worker newly asked to exit, so an
        idle one blocked on the queue re-checks the shrink debt (caller
        holds the lock)."""
        for _ in range(n):
            self._seq += 1
            self._queue.put((self._SENTINEL_PRIORITY, self._seq, None))

    def _deliver(self, result: JobResult) -> None:
        if result.trace:
            # the child's private tracer joins this process's trace here,
            # once; the result travels on without it
            get_tracer().merge(result.trace)
            result.trace = {}
        self.metrics.merge(result.metrics)
        self.metrics.inc("farm/jobs")
        self.metrics.inc(
            "farm/jobs_completed" if result.ok else
            ("farm/pool/cancelled" if result.status == "cancelled" else "farm/jobs_failed")
        )
        self._jobs_by_status.inc(status=result.status)
        if self.on_result is not None:
            self.on_result(result)

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            with self._lock:
                if self._excess > 0:
                    self._excess -= 1
                    self._threads.remove(me)
                    self.metrics.inc("farm/pool/drained_exits")
                    return
            _prio, _seq, spec = self._queue.get()
            if spec is None:
                continue  # a wake-up token: re-check the shrink debt
            flag = self._ctx.Event()
            with self._lock:
                if self._queued.pop(spec.job_id, None) is None:
                    continue  # shutdown already delivered it as cancelled
                queued_at = self._queued_at.pop(spec.job_id)
                cancelled = spec.job_id in self._cancelled
                self._running[spec.job_id] = flag
            proc = None
            try:
                if cancelled:
                    result = JobResult(job_id=spec.job_id, status="cancelled")
                else:
                    self._queue_wait_hist.observe(time.monotonic() - queued_at)
                    result, proc = self._run(spec, flag)
                self._deliver(result)
            finally:
                # running until delivered, so drain() waits for on_result
                with self._idle:
                    self._running.pop(spec.job_id, None)
                    self._cancelled.discard(spec.job_id)
                    self._idle.notify_all()
                # the reporting child's exit (a few ms) and any lingering are
                # the pool's business, not the caller's latency
                if proc is not None and _reap(proc, _LINGER_SECONDS):
                    self.metrics.inc("farm/lingering_workers")

    def _run(
        self, spec: JobSpec, flag
    ) -> tuple[JobResult, mp.process.BaseProcess | None]:
        """:meth:`_supervise`, timed; a harness error becomes a failed result."""
        run_started = time.perf_counter()
        proc = None
        try:
            result, proc = self._supervise(spec, flag)
        except Exception as exc:  # harness error: report, keep the worker
            result = JobResult(
                job_id=spec.job_id,
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
        self._job_run_hist.observe(time.perf_counter() - run_started, status=result.status)
        return result, proc

    def _supervise(
        self, spec: JobSpec, flag
    ) -> tuple[JobResult, mp.process.BaseProcess | None]:
        """Run one job in children until one reports: ``(result, child)``.

        A child that dies without a result or overruns its timeout is
        reaped and the job retried from its checkpoint (the farm's rules
        and counters); the reporting child is returned unreaped.
        """
        attempt = 0
        while True:
            proc, reader = self._start_child(spec, attempt, flag)
            try:
                result, fault = self._listen(spec, reader)
            except BaseException:  # e.g. on_event raised: leave no child behind
                _reap(proc, 0.0)
                raise
            finally:
                reader.close()
            if result is not None:
                return result, proc
            _reap(proc, 0.0 if fault == "timeouts" else _LINGER_SECONDS)
            self.metrics.inc(f"farm/{fault}")
            flag = self._ctx.Event()  # a killed child may have left the old one locked
            with self._lock:
                cancelled = spec.job_id in self._cancelled
                retry = not cancelled and attempt < spec.max_retries
                if retry:
                    self._running[spec.job_id] = flag
            if cancelled:
                return JobResult(job_id=spec.job_id, status="cancelled", retries=attempt), None
            if not retry:
                return JobResult(
                    job_id=spec.job_id,
                    status="failed",
                    retries=attempt,
                    error=f"worker {fault} after {attempt + 1} attempt(s)",
                ), None
            self.metrics.inc("farm/retries")
            attempt += 1

    def _start_child(
        self, spec: JobSpec, attempt: int, flag
    ) -> tuple[mp.process.BaseProcess, object]:
        """Fork one child for ``spec``: ``(process, read end of its pipe)``."""
        with _CHILDREN_LOCK:
            # another thread's fork between Pipe() and close() would inherit
            # the write end and hold the reader's EOF back until it exits
            reader, writer = self._ctx.Pipe(duplex=False)
            try:
                proc = self._ctx.Process(
                    target=_pool_child_main,
                    args=(
                        spec.to_dict(),
                        self.checkpoint_dir,
                        attempt,
                        writer.send,
                        get_tracer().enabled,
                        self.heartbeat_seconds,
                        flag,
                    ),
                    daemon=True,
                )
                proc.start()
            except BaseException:
                reader.close()
                raise
            finally:
                writer.close()
        return proc, reader

    def _listen(self, spec: JobSpec, reader) -> tuple[JobResult | None, str | None]:
        """Relay the child's events: ``(result, None)`` or ``(None, fault)``."""
        deadline = None
        if spec.timeout_seconds is not None:
            # the farm's grace: a result landing just past the deadline counts
            deadline = time.monotonic() + spec.timeout_seconds + _GRACE_SECONDS
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not reader.poll(wait):
                return None, "timeouts"
            try:
                tag, _job_id, _attempt, payload = reader.recv()
            except EOFError:  # the child exited without reporting
                return None, "worker_deaths"
            if tag == "result":
                return JobResult.from_dict(payload), None
            if self.on_event is not None:
                self.on_event(payload)


#: ``Process.start`` polls every child of the process
#: (``multiprocessing.process._cleanup``), so starts, joins and closes on
#: different pool threads must not interleave
_CHILDREN_LOCK = threading.Lock()
#: how long a reporting (or dying) child may take to exit before it counts
#: as lingering and is terminated
_LINGER_SECONDS = 1.0
#: how long past its deadline a child's result is still awaited
_GRACE_SECONDS = 0.5


def _reap(proc: mp.process.BaseProcess, grace: float) -> bool:
    """Join and close a pool child; True when it had to be terminated.

    Waits up to ``grace`` seconds on the child's sentinel, outside the
    lock, then terminates (and if need be kills) a child still running.
    Once the sentinel fired, the join blocks: a ``WNOHANG`` poll right
    after it can still see the child unreaped.
    """
    from multiprocessing.connection import wait  # loaded by the child's Pipe()

    lingered = not wait([proc.sentinel], grace)
    if lingered:
        proc.terminate()
        if not wait([proc.sentinel], 5.0):  # pragma: no cover - stubborn
            proc.kill()
            wait([proc.sentinel])
    with _CHILDREN_LOCK:
        proc.join()
        proc.close()
    return lingered
