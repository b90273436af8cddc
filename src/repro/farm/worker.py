"""Job execution: one :class:`JobSpec` in, one :class:`JobResult` out.

:func:`run_job` is the whole lifecycle of a simulation job and is backend
agnostic — the pool behind the farm's process backend and the serve tier
calls it in a forked child process, the serial backend inline:

1. build the input problem and the requested solver;
2. resume from the job's checkpoint if one exists (a previous attempt was
   preempted or crashed after saving);
3. step the simulation, checkpointing every ``spec.checkpoint_every`` steps
   and watching the DivNorm quality guard;
4. on *any* in-run failure — the NN solver raising, the run diverging past
   ``spec.divnorm_limit``, an injected fault — degrade gracefully: switch to
   the exact PCG solver and resume from the latest checkpoint (or restart
   from step 0 if none), mirroring the paper's "restart with the exact
   method" runtime policy (Algorithm 2's fallback);
5. report a structured :class:`JobResult` carrying the worker's private
   metrics snapshot for the farm to merge.

Hard faults (``fail_mode="crash"``, real segfaults, OOM kills) end the
process without a result; the pool reaps the corpse and retries the job,
which then resumes from the checkpoint in step 2.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.fluid import (
    FluidSimulator,
    MultigridSolver,
    PCGSolver,
    SimulationConfig,
    build_scenario,
)
from repro.metrics import MetricsRegistry
from repro.trace import get_tracer

from .checkpoint import load_checkpoint, save_checkpoint, sweep_orphans
from .jobs import JobResult, JobSpec

__all__ = [
    "InjectedWorkerFailure",
    "SimulationDiverged",
    "build_simulation",
    "build_solver",
    "run_job",
]

#: environment marker set by the process-pool entry so ``fail_mode="crash"``
#: only hard-exits inside an expendable worker process
_WORKER_ENV = "REPRO_FARM_WORKER"


class InjectedWorkerFailure(RuntimeError):
    """Artificial failure raised by ``fail_at_step`` fault injection."""


class SimulationDiverged(RuntimeError):
    """The run violated its quality requirement (DivNorm guard)."""


def _network(spec: JobSpec, params: dict):
    """The job's network: its saved model, or a seeded untrained Tompson net.

    Pops ``channels`` (the untrained net's width) from ``params``.
    """
    if spec.model_dir is not None:
        from repro.io import load_model

        return load_model(spec.model_dir).network
    from repro.models import tompson_arch

    return tompson_arch(params.pop("channels", 4)).build(rng=spec.seed)


def build_solver(spec: JobSpec, kind: str, metrics: MetricsRegistry):
    """Construct the pressure solver ``kind`` for a job.

    ``kind`` is usually ``spec.solver`` but the degradation path passes
    ``"pcg"`` explicitly; ``spec.solver_params`` only apply to the solver
    the spec asked for, so the fallback PCG always uses its exact defaults.
    """
    params = dict(spec.solver_params) if kind == spec.solver else {}
    if kind == "pcg":
        return PCGSolver(metrics=metrics, **params)
    if kind == "multigrid":
        return MultigridSolver(metrics=metrics, **params)
    if kind == "nn":
        from repro.models import NNProjectionSolver

        passes = params.pop("passes", 2)
        network = _network(spec, params)
        return NNProjectionSolver(network, passes=passes, metrics=metrics, **params)
    if kind == "nn-pcg":
        from repro.fluid import NNPCGSolver

        network = _network(spec, params)
        return NNPCGSolver(network, metrics=metrics, **params)
    raise ValueError(f"unknown solver kind {kind!r}")


def build_simulation(spec: JobSpec, kind: str, metrics: MetricsRegistry) -> FluidSimulator:
    """The job's simulator: its scenario stepped by solver ``kind``.

    The one construction path of a simulation run: every farm and serve
    job and ``repro simulate`` build theirs here.
    """
    sspec = spec.scenario_spec.with_defaults(grid=spec.grid_size)
    grid, driver = build_scenario(sspec, rng=spec.seed)
    solver = driver.wrap_solver(build_solver(spec, kind, metrics))
    overrides = getattr(driver, "config_overrides", {})
    config = SimulationConfig(**overrides) if overrides else None
    return FluidSimulator(grid, solver, driver, config=config, metrics=metrics)


def _checkpoint_path(spec: JobSpec, checkpoint_dir: str | Path | None) -> Path | None:
    if checkpoint_dir is None:
        return None
    return Path(checkpoint_dir) / f"{spec.checkpoint_key}.ckpt.npz"


def run_job(
    spec: JobSpec,
    checkpoint_dir: str | Path | None = None,
    metrics: MetricsRegistry | None = None,
    attempt: int = 0,
    on_event=None,
    heartbeat_seconds: float = 0.5,
    attach_trace: bool = False,
    cancel=None,
) -> JobResult:
    """Execute one job to completion (or bounded failure) and report it.

    ``on_event(dict)``, when given, receives the job's telemetry stream:
    ``resume`` when picking up a checkpoint, ``job_start``, throttled
    ``heartbeat`` beats (at most one per ``heartbeat_seconds``),
    ``checkpoint``, ``pcg_fallback`` on graceful degradation and a
    terminal ``job_end``.  Events are plain dicts so any
    backend can ship them over its own channel; the same events also land
    in the process tracer (:func:`repro.trace.get_tracer`) when enabled.

    ``attach_trace=True`` ships the process tracer's snapshot inside
    ``JobResult.trace``.  The pool sets it — its children own a private
    per-process tracer — while the serial backend shares the farm's
    tracer, whose data would be duplicated per job.

    ``cancel``, when given, is an :class:`~threading.Event`-like object
    (the pool passes a :class:`multiprocessing.Event`) checked
    between steps: once set, the job stops at the next step boundary with
    ``status="cancelled"`` (the serve tier's cooperative cancellation for
    already-running jobs).
    """
    m = metrics if metrics is not None else MetricsRegistry()
    ckpt = _checkpoint_path(spec, checkpoint_dir)
    t0 = time.perf_counter()
    tr = get_tracer()

    def emit(type_: str, **attrs) -> None:
        step = attrs.get("step")
        tr.event(type_, step=step, job_id=spec.job_id, **{k: v for k, v in attrs.items() if k != "step"})
        if on_event is not None:
            event = {
                "type": type_,
                "job_id": spec.job_id,
                "attempt": attempt,
                "pid": os.getpid(),
                "t": time.time(),
            }
            event.update(attrs)
            on_event(event)

    solver_kind = spec.solver
    with m.span("job", job_id=spec.job_id, attempt=attempt) as job_span:
        sim = build_simulation(spec, solver_kind, m)
        resumed_from: int | None = None
        if ckpt is not None:
            # a previous attempt hard-killed mid-write leaves a torn
            # ``.tmp`` behind; it is never a valid snapshot, so drop it
            # before resuming from the last good checkpoint
            torn = ckpt.with_name(ckpt.name + ".tmp")
            if torn.exists():
                torn.unlink(missing_ok=True)
                m.inc("farm/orphan_checkpoints_swept")
        if ckpt is not None and ckpt.exists():
            sim.load_state(load_checkpoint(ckpt))
            resumed_from = sim.current_step
            m.inc("farm/resumes")
            emit("resume", step=sim.current_step)
        emit(
            "job_start",
            step=sim.current_step,
            solver=solver_kind,
            steps_total=spec.steps,
            grid_size=spec.grid_size,
            resumed_from=resumed_from,
        )

        degraded = False
        error: str | None = None
        status = "completed"
        inject_at = spec.fail_at_step if attempt == 0 else None
        last_beat = time.monotonic()
        while sim.current_step < spec.steps:
            if cancel is not None and cancel.is_set():
                status = "cancelled"
                m.inc("farm/jobs_cancelled")
                break
            try:
                if inject_at is not None and sim.current_step == inject_at:
                    inject_at = None
                    if spec.fail_mode == "crash" and os.environ.get(_WORKER_ENV):
                        os._exit(17)  # hard worker death: no result, no cleanup
                    raise InjectedWorkerFailure(
                        f"injected failure at step {sim.current_step}"
                    )
                rec = sim.step()
                now = time.monotonic()
                if on_event is not None and now - last_beat >= heartbeat_seconds:
                    last_beat = now
                    emit(
                        "heartbeat",
                        step=sim.current_step,
                        steps_total=spec.steps,
                        divnorm=float(rec.divnorm),
                        solver=solver_kind,
                    )
                if not np.isfinite(rec.divnorm) or (
                    spec.divnorm_limit is not None and rec.divnorm > spec.divnorm_limit
                ):
                    raise SimulationDiverged(
                        f"DivNorm {rec.divnorm:.3g} at step {rec.step} "
                        f"exceeds limit {spec.divnorm_limit}"
                    )
                if (
                    ckpt is not None
                    and spec.checkpoint_every > 0
                    and sim.current_step % spec.checkpoint_every == 0
                ):
                    save_checkpoint(sim, ckpt)
                    m.inc("farm/checkpoints")
                    emit("checkpoint", step=sim.current_step)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if degraded:
                    status, error = "failed", f"{type(exc).__name__}: {exc}"
                    m.inc("farm/job_failures")
                    break
                # graceful degradation: the exact method from the last good state
                degraded = True
                failed_kind = solver_kind
                solver_kind = "pcg"
                m.inc("farm/degradations")
                # labeled by the solver that *failed*, not the fallback target:
                # the fleet-level question is "which solver degrades, where"
                m.families.counter(
                    "farm_pcg_fallbacks_total",
                    help="Graceful degradations to exact PCG by failing solver and scenario.",
                    labels=("solver", "scenario"),
                ).inc(solver=failed_kind, scenario=spec.scenario.split(":", 1)[0])
                emit(
                    "pcg_fallback",
                    step=sim.current_step,
                    reason=f"{type(exc).__name__}: {exc}",
                    solver=solver_kind,
                )
                sim = build_simulation(spec, solver_kind, m)
                if ckpt is not None and ckpt.exists():
                    sim.load_state(load_checkpoint(ckpt))
                    resumed_from = sim.current_step
                    m.inc("farm/resumes")
                    emit("resume", step=sim.current_step)

        if job_span is not None:
            job_span.attrs["status"] = status
            job_span.attrs["steps_done"] = sim.current_step
        emit(
            "job_end",
            step=sim.current_step,
            status=status,
            solver=solver_kind,
            degraded=degraded,
        )

    divnorms = sim.full_divnorm_history
    return JobResult(
        job_id=spec.job_id,
        status=status,
        steps_done=sim.current_step,
        solver_used=solver_kind,
        degraded=degraded,
        resumed_from=resumed_from,
        retries=attempt,
        wall_seconds=time.perf_counter() - t0,
        solve_seconds=sum(r.projection.solve_seconds for r in sim.records),
        final_divnorm=float(divnorms[-1]) if divnorms.size else float("nan"),
        cum_divnorm=float(divnorms.sum()),
        error=error,
        metrics=m.to_dict(),
        trace=tr.to_dict() if (attach_trace and tr.enabled) else {},
    )
