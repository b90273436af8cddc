"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, sets up (the runner
repeats ``setup`` to time it), runs one untimed warm-up, then runs timed
*units* until the phase's time is up.
A unit is one problem through all three Algorithm 2 arms
(``adaptive_plume``), one exact scenario run (``exact_obstacles``), one
served job (``serve_fleet``) or one farm batch (``farm_batch``).

``measure(seconds, traced)`` returns a :class:`Phase`.  Untraced phases
run as a user runs the library: the null tracer and ``NULL_METRICS``.
Traced phases install :class:`layers.Instrumentation`, enable a
:class:`repro.trace.Tracer` and a live ``MetricsRegistry``, and keep the
spans for the per-layer split.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import UNIT_SPAN, Instrumentation, split_spans

HERE = Path(__file__).resolve().parent
FRAMEWORK_DIR = HERE / "framework"
NN_PCG_MODEL_DIR = HERE / "models" / "nn_pcg_bench"

#: Algorithm 2 settings applied to the pinned framework (ci-scale values;
#: ``load_framework`` does not persist ``OfflineConfig``)
ALGORITHM2 = {"check_interval": 3, "skip_first": 3, "solver_passes": 2, "nn_precond": False}

ADAPTIVE_GRID, ADAPTIVE_STEPS = 64, 32
EXACT_GRID, EXACT_STEPS = 128, 24
JOB_GRID, JOB_STEPS, JOB_CHECKPOINT_EVERY = 32, 8, 4


@dataclass
class Unit:
    """One timed unit of work."""

    wall: float
    steps: int
    jobs: int
    failed: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class Phase:
    """The units of one measured phase plus what its trace recorded."""

    units: list[Unit]
    wall: float
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: summed wall time of the roots the layer split must add up to
    split_wall: float = 0.0


class _TraceScope:
    """Enable tracing, a live metrics registry and the wrappers (or not)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.instrumentation = Instrumentation()

    def __enter__(self):
        from repro.metrics import NULL_METRICS, MetricsRegistry, set_metrics
        from repro.trace import NULL_TRACER, Tracer, set_tracer

        self.tracer = Tracer(enabled=True) if self.traced else NULL_TRACER
        self.metrics = MetricsRegistry() if self.traced else NULL_METRICS
        self._prev_tracer = set_tracer(self.tracer)
        self._prev_metrics = set_metrics(self.metrics)
        if self.traced:
            self.instrumentation.install()
        return self

    def __exit__(self, *exc_info):
        from repro.metrics import set_metrics
        from repro.trace import set_tracer

        self.instrumentation.remove()
        set_tracer(self._prev_tracer)
        set_metrics(self._prev_metrics)


def _unit_span(**attrs):
    """The benchmark's root span around one unit (a no-op when untraced)."""
    from repro.trace import get_tracer

    return get_tracer().span(UNIT_SPAN, **attrs)


def _finish_spans(phase: Phase, spans) -> None:
    phase.spans = spans
    phase.layers, phase.counts = split_spans(spans)
    phase.split_wall = sum(s.dur for s in spans if s.name == UNIT_SPAN)


# ----------------------------------------------------------------------
# adaptive_plume
# ----------------------------------------------------------------------
class AdaptivePlume:
    """Eval smoke plumes through PCG-only, best-single-model and Smart arms."""

    name = "adaptive_plume"
    loop = "closed, 1 problem at a time"

    def __init__(self, seed: int, run_dir: Path):
        from repro.data import EVAL_SEED_BASE

        rng = np.random.default_rng(seed)
        base = EVAL_SEED_BASE + ADAPTIVE_GRID * 10_000
        self.problem_seeds = [base + int(k) for k in rng.choice(100_000, size=400, replace=False)]
        self._next = 0

    def setup(self) -> None:
        from repro.core import OfflineConfig
        from repro.io import load_framework

        fw = load_framework(FRAMEWORK_DIR)
        fw.config = OfflineConfig(
            check_interval=ALGORITHM2["check_interval"],
            skip_first=ALGORITHM2["skip_first"],
            solver_passes=ALGORITHM2["solver_passes"],
        )
        self.framework = fw
        # the most accurate runtime model is the slowest one on the ladder
        self.best = max(fw.runtime_models, key=lambda s: s.model_seconds)

    def _problem(self, grid: int = ADAPTIVE_GRID):
        from repro.data import InputProblem

        seed = self.problem_seeds[self._next % len(self.problem_seeds)]
        self._next += 1
        return InputProblem(grid, seed)

    def _arms(self, problem, steps: int) -> Unit:
        from repro.core import quality_loss, run_problem
        from repro.fluid import PCGSolver

        def arm(kind, fn):
            t0 = time.perf_counter()
            with _unit_span(arm=kind):
                out = fn()
            return out, time.perf_counter() - t0

        passes = ALGORITHM2["solver_passes"]
        ref, t_pcg = arm("pcg", lambda: run_problem(PCGSolver(), problem, steps))
        single, t_single = arm(
            "single", lambda: run_problem(self.best.model.solver(passes=passes), problem, steps)
        )
        smart, t_smart = arm(
            "smart",
            lambda: self.framework.run(problem, steps, nn_precond=ALGORITHM2["nn_precond"]),
        )
        failures = []
        if not all(r.projection.converged for r in ref.records):
            failures.append("pcg arm did not converge")
        if smart.restarted and not np.array_equal(smart.result.density, ref.density):
            failures.append("restarted Smart run differs from its PCG arm")
        qloss = quality_loss(ref.density, smart.result.density)
        if not np.isfinite(qloss):
            failures.append("non-finite Qloss")
        stats = smart.stats
        nn_steps = sum(stats.steps_per_model.values())
        return Unit(
            wall=t_smart,
            steps=3 * steps,
            jobs=1,
            failed=bool(failures),
            extra={
                "pcg_s": t_pcg,
                "single_s": t_single,
                "qloss": qloss,
                "qloss_miss": qloss > self.framework.requirement.q,
                "checks": len(stats.predictions),
                "switches": len(stats.switches),
                "restarted": smart.restarted,
                "simulated_steps": nn_steps + (steps if smart.restarted else 0),
                "kept_steps": steps,
                "top_model_s": stats.solve_seconds_per_model.get(self.best.name, 0.0),
                "model_s": sum(stats.solve_seconds_per_model.values()),
                "failures": failures,
            },
        )

    def warm(self) -> None:
        # full-size arrays: the allocator settles before timing starts
        self._arms(self._problem(), steps=8)
        self._next = 0

    def measure(self, seconds: float, traced: bool) -> Phase:
        units = []
        with _TraceScope(traced) as scope:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                units.append(self._arms(self._problem(), ADAPTIVE_STEPS))
            wall = time.perf_counter() - t0
        phase = Phase(units, wall)
        if traced:
            _finish_spans(phase, scope.tracer.spans())
            phase.counters = dict(scope.metrics.counters)
        return phase

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# exact_obstacles
# ----------------------------------------------------------------------
class ExactObstacles:
    """Exact simulations of three obstacle / free-surface scenarios."""

    name = "exact_obstacles"
    loop = "closed, 1 scenario run at a time"

    def __init__(self, seed: int, run_dir: Path):
        from repro.fluid import ScenarioSpec

        rng = np.random.default_rng(seed)
        jitter = lambda: float(rng.uniform(0.99, 1.01))  # noqa: E731
        self.specs = [
            ScenarioSpec("karman_street", grid=EXACT_GRID, speed=round(1.5 * jitter(), 4)),
            ScenarioSpec("moving_cylinder", grid=EXACT_GRID, period=round(3.2 * jitter(), 4)),
            ScenarioSpec("dam_break", grid=EXACT_GRID, fill_x=round(0.35 * jitter(), 4)),
        ]
        order = rng.permutation(len(self.specs))
        self.specs = [self.specs[i] for i in order]
        self.rng_seed = int(rng.integers(2**31))
        self._next = 0

    def setup(self) -> None:
        from repro.fluid import build_scenario

        for spec in self.specs:
            build_scenario(spec, rng=self.rng_seed)

    def _run(self, spec, steps: int) -> Unit:
        from repro.fluid import FluidSimulator, PCGSolver, SimulationConfig, build_scenario

        t0 = time.perf_counter()
        with _unit_span(scenario=spec.name):
            grid, driver = build_scenario(spec, rng=self.rng_seed)
            solver = driver.wrap_solver(PCGSolver())
            config = SimulationConfig(**getattr(driver, "config_overrides", {}))
            result = FluidSimulator(grid, solver, driver, config).run(steps)
        wall = time.perf_counter() - t0
        converged = all(r.projection.converged for r in result.records)
        finite = bool(np.isfinite(result.density).all())
        failures = [] if converged and finite else [f"{spec.name}: unconverged or non-finite"]
        return Unit(
            wall=wall,
            steps=len(result.records),
            jobs=1,
            failed=bool(failures),
            extra={"failures": failures},
        )

    def warm(self) -> None:
        for spec in self.specs:
            self._run(spec, steps=3)

    def measure(self, seconds: float, traced: bool) -> Phase:
        units = []
        with _TraceScope(traced) as scope:
            t0 = time.perf_counter()
            # whole cycles only, so every phase runs the same scenario mix
            while time.perf_counter() - t0 < seconds or self._next % len(self.specs):
                spec = self.specs[self._next % len(self.specs)]
                self._next += 1
                units.append(self._run(spec, EXACT_STEPS))
            wall = time.perf_counter() - t0
        phase = Phase(units, wall)
        if traced:
            _finish_spans(phase, scope.tracer.spans())
            phase.counters = dict(scope.metrics.counters)
        return phase

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# farm_batch
# ----------------------------------------------------------------------
#: solver mix of one batch; the two slow NN-PCG jobs go first so the two
#: workers share the batch evenly
FARM_SOLVERS = ("nn-pcg", "nn-pcg", "nn", "pcg", "nn", "pcg", "nn", "pcg")


class FarmBatch:
    """Fixed 8-job batches on the forking process backend, 2 workers."""

    name = "farm_batch"
    loop = "closed, 1 batch of 8 jobs at a time on 2 workers"
    workers = 2

    def __init__(self, seed: int, run_dir: Path):
        from repro.farm import JobSpec

        rng = np.random.default_rng(seed)
        model_dirs = {"nn": str(FRAMEWORK_DIR / "model0"), "nn-pcg": str(NN_PCG_MODEL_DIR), "pcg": None}
        self.model_dirs = model_dirs
        self.batches = []
        for _ in range(2):
            seeds = rng.choice(1_000_000, size=len(FARM_SOLVERS), replace=False)
            self.batches.append(
                [
                    JobSpec(
                        job_id=f"job{i}",
                        grid_size=JOB_GRID,
                        seed=int(s),
                        steps=JOB_STEPS,
                        solver=solver,
                        model_dir=model_dirs[solver],
                        checkpoint_every=JOB_CHECKPOINT_EVERY,
                    )
                    for i, (solver, s) in enumerate(zip(FARM_SOLVERS, seeds))
                ]
            )
        self._next = 0
        #: cum_divnorm of every job at its batch's first run
        self._expected: dict[tuple[int, str], float] = {}

    def setup(self) -> None:
        # the forked workers import nothing the parent has not imported
        import repro.fluid.nn_pcg  # noqa: F401
        import repro.io  # noqa: F401
        import repro.models  # noqa: F401
        from repro.farm import SimulationFarm

        self.farm_class = SimulationFarm

    def _batch(self, b: int, jobs, traced: bool, timing: dict | None = None) -> Unit:
        farm = self.farm_class(workers=self.workers, backend="process", trace=traced)
        t_start = time.time()
        t0 = time.perf_counter()
        report = farm.run(jobs)
        wall = time.perf_counter() - t0
        failures = []
        for r in report.results:
            if not r.ok:
                failures.append(f"{r.job_id}: {r.status} {r.error}")
                continue
            key = (b, r.job_id)
            expected = self._expected.setdefault(key, r.cum_divnorm)
            if r.cum_divnorm != expected:
                failures.append(f"{r.job_id}: cum_divnorm {r.cum_divnorm!r} != {expected!r}")
        if len(report.results) != len(jobs):
            failures.append("missing job results")
        unit = Unit(
            wall=wall,
            steps=report.total_steps,
            jobs=len(report.completed),
            failed=bool(failures),
            extra={
                "failures": failures,
                "retries": sum(r.retries for r in report.results),
                "degraded": sum(1 for r in report.results if r.degraded),
            },
        )
        if timing is not None:
            timing["spans"].extend(farm.tracer.spans())
            timing["counters"].append(dict(report.metrics.counters))
            timing["batches"].append((t_start, wall, timing["forks"].copy(), dict(timing["merged"])))
            timing["forks"].clear()
            timing["merged"].clear()
        return unit

    def warm(self) -> None:
        from repro.farm import JobSpec

        jobs = [
            JobSpec(job_id=f"w{i}", grid_size=16, seed=i, steps=2, solver=solver,
                    model_dir=self.model_dirs[solver], checkpoint_every=1)
            for i, solver in enumerate(("pcg", "nn", "nn-pcg"))
        ]
        self.farm_class(workers=self.workers, backend="process").run(jobs)

    def measure(self, seconds: float, traced: bool) -> Phase:
        timing = None
        units = []
        with _TraceScope(traced):
            patches = []
            if traced:
                timing = {"spans": [], "counters": [], "batches": [], "forks": {}, "merged": {}}
                patches = _patch_farm_clock(timing)
            try:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < seconds:
                    b = self._next % len(self.batches)
                    self._next += 1
                    units.append(self._batch(b, self.batches[b], traced, timing))
                wall = time.perf_counter() - t0
            finally:
                for owner, attr, original in patches:
                    setattr(owner, attr, original)
        phase = Phase(units, wall)
        if traced:
            _finish_spans(phase, timing["spans"])
            counters: dict[str, float] = {}
            for c in timing["counters"]:
                for k, v in c.items():
                    counters[k] = counters.get(k, 0.0) + v
            phase.counters = counters
            _farm_slots(phase, timing)
        return phase

    def close(self) -> None:
        pass


def _patch_farm_clock(timing: dict) -> list:
    """Record each job's fork time and result-merge time in the parent."""
    import multiprocessing.process as mp_process

    from repro.farm import pool

    start = mp_process.BaseProcess.start
    from_dict = pool.JobResult.__dict__["from_dict"]

    def timed_start(proc):
        spec = proc._args[0] if proc._args and isinstance(proc._args[0], dict) else None
        if spec is not None and "job_id" in spec:
            timing["forks"][spec["job_id"]] = time.time()
        return start(proc)

    def timed_from_dict(cls, d):
        result = from_dict.__func__(cls, d)
        timing["merged"][result.job_id] = time.time()
        return result

    mp_process.BaseProcess.start = timed_start
    pool.JobResult.from_dict = classmethod(timed_from_dict)
    return [(mp_process.BaseProcess, "start", start), (pool.JobResult, "from_dict", from_dict)]


def _farm_slots(phase: Phase, timing: dict) -> None:
    """Split each job slot (fork to result merged) around its ``job`` span."""
    jobs_by_start = sorted((s for s in phase.spans if s.name == "job"), key=lambda s: s.t)
    queue_wait = spawn = ret = slots = job_run = 0.0
    capacity = 0.0
    for t_start, wall, forks, merged in timing["batches"]:
        capacity += wall * FarmBatch.workers
        for job_id, t_fork in forks.items():
            span = next(
                (s for s in jobs_by_start if s.attrs.get("job_id") == job_id and s.t >= t_fork),
                None,
            )
            if span is None or job_id not in merged:
                continue
            queue_wait += t_fork - t_start
            spawn += span.t - t_fork
            ret += merged[job_id] - (span.t + span.dur)
            job_run += span.dur
            slots += merged[job_id] - t_fork
    phase.layers["farm.spawn_s"] = spawn
    phase.layers["farm.result_return_s"] = ret
    phase.counts["farm.queue_wait_s"] = queue_wait
    phase.counts["farm.job_run_s"] = job_run
    phase.counts["farm.overhead_share"] = 1.0 - job_run / capacity if capacity else 0.0
    phase.split_wall = slots


# ----------------------------------------------------------------------
# serve_fleet
# ----------------------------------------------------------------------
class ServeFleet:
    """A unix-socket SimulationService driven by 2 closed-loop clients.

    Submissions follow a seed-fixed plan: every third one repeats a spec
    whose result was delivered at least two submissions earlier (a cache
    read); the others are new specs (simulate, checkpoint, cache write).
    """

    name = "serve_fleet"
    loop = "closed, 2 client connections with 1 outstanding job each"
    clients = 2
    repeat_every = 3

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.rng = np.random.default_rng(seed)
        self.model_dir = str(FRAMEWORK_DIR / "model0")
        self._slot = 0
        self._submitted = 0  # job ids stay unique across plan restarts
        self._cold: list = []  # cold specs, in submission order
        self._delivered: dict[int, asyncio.Event] = {}
        self._cold_results: dict[int, object] = {}
        self._generation = 0

    # -- service lifecycle (one event loop for server and clients) -------
    def setup(self) -> None:
        if getattr(self, "event_loop", None) is not None:
            self.close()
        self._generation += 1
        self.event_loop = asyncio.new_event_loop()
        self.event_loop.run_until_complete(self._start())

    async def _start(self) -> None:
        import os

        from repro.serve import ServiceClient, ServiceServer, SimulationService, TenantQuota

        base = self.run_dir / f"serve{self._generation}"
        base.mkdir(parents=True, exist_ok=True)
        self.service = SimulationService(
            cache_dir=base / "cache",
            checkpoint_dir=base / "ckpt",
            min_workers=1,
            max_workers=2,
            default_quota=TenantQuota(rate=None, max_pending=None),
        )
        await self.service.start()
        # unix socket paths are short-limited: bind relative to the cwd
        sock = os.path.relpath(base / "s.sock")
        self.server = ServiceServer(self.service, sock)
        await self.server.start()
        self.conns = [await ServiceClient.open(sock) for _ in range(self.clients)]

    def close(self) -> None:
        if getattr(self, "event_loop", None) is None:
            return
        self.event_loop.run_until_complete(self._stop())
        self.event_loop.close()
        self.event_loop = None

    async def _stop(self) -> None:
        for c in self.conns:
            await c.close()
        await self.server.stop()
        await self.service.stop(drain=True, timeout=60.0)

    # -- the submission plan ---------------------------------------------
    def _next_spec(self):
        """``(spec, twin)``: a new spec (twin None) or a repeat of cold #twin."""
        from repro.farm import JobSpec

        slot = self._slot
        self._slot += 1
        self._submitted += 1
        job_id = f"s{self._submitted}"
        n_cold = len(self._cold)
        if slot % self.repeat_every == self.repeat_every - 1 and n_cold >= 2:
            twin = int(self.rng.integers(max(0, n_cold - 8), n_cold - 1))
            spec = JobSpec(**{**self._cold[twin].to_dict(), "job_id": job_id})
            return spec, twin
        solver = "pcg" if n_cold % 2 == 0 else "nn"
        spec = JobSpec(
            job_id=job_id,
            grid_size=JOB_GRID,
            seed=self.seed * 1_000_003 + n_cold,
            steps=JOB_STEPS,
            solver=solver,
            model_dir=self.model_dir if solver == "nn" else None,
            checkpoint_every=JOB_CHECKPOINT_EVERY,
        )
        self._cold.append(spec)
        self._delivered[n_cold] = asyncio.Event()
        return spec, None

    async def _client(self, conn, deadline: float, units: list, refused: list) -> None:
        from repro.serve import ServeError

        while time.perf_counter() < deadline:
            spec, twin = self._next_spec()
            cold_index = None if twin is not None else len(self._cold) - 1
            if twin is not None:
                await self._delivered[twin].wait()
            failures = []
            t0 = time.perf_counter()
            try:
                summary = await conn.submit(spec)
                result = await conn.result(summary["job_id"])
            except ServeError as exc:
                refused.append(spec.job_id)
                units.append(Unit(time.perf_counter() - t0, 0, 0, True,
                                  {"failures": [f"{spec.job_id}: {exc}"]}))
                if cold_index is not None:
                    self._delivered[cold_index].set()
                continue
            wall = time.perf_counter() - t0
            if not result.ok:
                failures.append(f"{spec.job_id}: {result.status} {result.error}")
            if twin is None:
                if result.cached:
                    failures.append(f"{spec.job_id}: new spec came back cached")
                self._cold_results[cold_index] = result
                self._delivered[cold_index].set()
            else:
                cold = self._cold_results.get(twin)
                if not result.cached:
                    failures.append(f"{spec.job_id}: repeat was not a cache hit")
                elif cold is None or (result.final_divnorm, result.cum_divnorm) != (
                    cold.final_divnorm,
                    cold.cum_divnorm,
                ):
                    failures.append(f"{spec.job_id}: cached result differs from its twin")
            units.append(
                Unit(
                    wall=wall,
                    steps=0 if result.cached else result.steps_done,
                    jobs=1 if result.ok else 0,
                    failed=bool(failures),
                    extra={"failures": failures},
                )
            )

    async def _drive(self, seconds: float, units: list, refused: list) -> float:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        await asyncio.gather(*(self._client(c, deadline, units, refused) for c in self.conns))
        return time.perf_counter() - t0

    def warm(self) -> None:
        # each client serves at least one job; then the plan starts afresh
        self.event_loop.run_until_complete(self._drive(0.3, [], []))
        self._slot = 0
        self._cold = []
        self._delivered = {}
        self._cold_results = {}
        self.seed += 7_919  # warm-up specs must not be cache hits later

    def measure(self, seconds: float, traced: bool) -> Phase:
        units: list[Unit] = []
        refused: list[str] = []
        counters_before = dict(self.service.metrics.counters)
        with _TraceScope(traced) as scope:
            wall = self.event_loop.run_until_complete(self._drive(seconds, units, refused))
            submit_times = dict(scope.instrumentation.submit_times)
        phase = Phase(units, wall)
        after = self.service.metrics.counters
        phase.counters = {k: v - counters_before.get(k, 0.0) for k, v in after.items()}
        phase.counts["serve.refused"] = len(refused)
        if traced:
            _finish_spans(phase, scope.tracer.spans())
            _serve_split(phase, submit_times)
        return phase


def _serve_split(phase: Phase, submit_times: dict[str, float]) -> None:
    """Queue wait (submit returned -> job span start) and the wire remainder."""
    queue_wait = 0.0
    for s in phase.spans:
        if s.name == "job":
            t_submit = submit_times.get(s.attrs.get("job_id"))
            if t_submit is not None:
                queue_wait += max(0.0, s.t - t_submit)
    phase.layers["serve.queue_wait_s"] = queue_wait
    phase.split_wall = sum(u.wall for u in phase.units)
    server_side = sum(phase.layers.values())
    phase.layers["serve.wire_s"] = phase.split_wall - server_side


WORKLOADS = {w.name: w for w in (AdaptivePlume, ExactObstacles, ServeFleet, FarmBatch)}
