"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``     run one scenario and print/render the result
``scenarios``    list the registered scenarios and their parameters
``experiment``   regenerate one of the paper's tables/figures
``offline``      build the Smart-fluidnet offline phase and save it
``report``       run every experiment and write one combined report
``adaptive``     run the adaptive online phase from a saved framework
``farm``         run a fleet of simulation jobs on the concurrent farm
``top``          run a farm fleet with a live terminal status view
``serve``        run the simulation service on a local unix socket
``submit``       submit one job to a running service and await the result
``health``       query a running service's SLO burn-rate health report
``trace``        summarise or dump a trace file written by ``--trace``

``simulate``, ``farm`` and ``top`` share one ``--scenario`` selector in
the form ``name[:key=val,key=val]`` (e.g.
``--scenario dam_break:grid=64,gravity=3.0``); ``repro scenarios`` lists
the registry with per-scenario parameter docs.

``simulate`` and ``adaptive`` accept ``--json`` for structured output: the
per-step records plus the run's full metrics profile, suitable for piping
into analysis tools.  ``simulate``, ``adaptive`` and ``farm`` accept
``--trace PATH`` to record a structured timeline (nested spans and typed
step events) and write it in Chrome ``trace_event`` format —
loadable in Perfetto / ``chrome://tracing`` and readable back with
``repro trace``.  The common ``--grid/--seed/--steps`` options are defined
once on shared parent parsers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": "run_table1",
    "fig1": "run_fig1",
    "fig3": "run_fig3",
    "fig5": "run_fig5",
    "fig6": "run_fig6",
    "fig8": "run_fig8",
    "fig9": "run_fig9_table2",
    "table2": "run_fig9_table2",
    "fig13": "run_fig13",
    "table4": "run_table4",
    "sec4": "run_sec4_sensitivity",
    "fig12": "run_fig12",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    # shared options: every problem-running command takes the same
    # --grid/--seed (and, where stepping, --steps) arguments
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--grid", type=int, default=32, help="grid resolution (NxN)")
    problem.add_argument("--seed", type=int, default=0, help="input-problem seed")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument(
        "--scenario", type=str, default="smoke_plume", metavar="NAME[:K=V,...]",
        help="scenario selector from the registry, e.g. smoke_plume or "
        "dam_break:grid=64 (see 'repro scenarios'); scenario parameters "
        "override --grid",
    )
    stepping = argparse.ArgumentParser(add_help=False)
    stepping.add_argument("--steps", type=int, default=16, help="simulation steps")
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a structured trace (spans + step events) "
        "and write it as a Chrome trace_event file at PATH",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smart-fluidnet reproduction (SC'19) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        parents=[problem, scenario, stepping, tracing],
        help="run one scenario (default: the smoke-plume input problem)",
    )
    sim.add_argument(
        "--solver",
        choices=["pcg", "jacobi-pcg", "jacobi", "multigrid", "spectral", "nn", "nn-pcg"],
        default="pcg",
    )
    sim.add_argument(
        "--model", type=str, default=None, metavar="DIR",
        help="trained-model directory (repro.io.save_model layout) for the "
        "nn/nn-pcg solvers; default: seeded untrained Tompson network",
    )
    sim.add_argument(
        "--warm-start", action="store_true",
        help="warm-start PCG from the previous step's pressure",
    )
    sim.add_argument("--ascii", action="store_true", help="print an ASCII rendering")
    sim.add_argument("--pgm", type=str, default=None, help="save the final frame as PGM")
    sim.add_argument(
        "--json", action="store_true",
        help="emit step records + metrics profile as JSON on stdout",
    )

    scn = sub.add_parser(
        "scenarios", help="list the registered scenarios and their parameters"
    )
    scn.add_argument(
        "--json", action="store_true",
        help="emit the registry (names, descriptions, params) as JSON",
    )

    exp = sub.add_parser("experiment", help="regenerate a table/figure of the paper")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--scale", choices=["ci", "default", "paper"], default=None)

    off = sub.add_parser(
        "offline", parents=[problem], help="build the offline phase and save it"
    )
    off.add_argument("output", type=str, help="directory to save the framework into")

    rep = sub.add_parser("report", help="run every experiment and write one report")
    rep.add_argument("--scale", choices=["ci", "default", "paper"], default=None)
    rep.add_argument("--output", type=str, default=None)

    ada = sub.add_parser(
        "adaptive",
        parents=[problem, stepping, tracing],
        help="run the adaptive phase from a saved framework",
    )
    ada.add_argument("framework", type=str, help="directory saved by 'offline'")
    ada.add_argument(
        "--json", action="store_true",
        help="emit run statistics + metrics profile as JSON on stdout",
    )

    def add_farm_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=8, help="number of jobs in the fleet")
        p.add_argument(
            "--solver",
            choices=["pcg", "jacobi-pcg", "jacobi", "multigrid", "spectral", "nn", "nn-pcg"],
            default="pcg", help="pressure solver every job requests",
        )
        p.add_argument(
            "--model", type=str, default=None, metavar="DIR",
            help="trained-model directory for nn/nn-pcg jobs "
            "(default: seeded untrained Tompson network)",
        )
        p.add_argument(
            "--backend", choices=["process", "serial"], default="process",
            help="process pool (fault-tolerant) or in-process serial baseline",
        )
        p.add_argument("--workers", type=int, default=None, help="concurrent job slots")
        p.add_argument(
            "--checkpoint-every", type=int, default=4,
            help="checkpoint each job every N steps (0 disables)",
        )
        p.add_argument(
            "--checkpoint-dir", type=str, default=None,
            help="checkpoint directory (default: temporary, per run)",
        )
        p.add_argument("--timeout", type=float, default=None, help="per-attempt seconds budget")
        p.add_argument("--retries", type=int, default=1, help="max retries per job after hard faults")
        p.add_argument(
            "--inject-failure", type=int, default=None, metavar="JOB_INDEX",
            help="fault-inject one worker failure into job JOB_INDEX mid-run",
        )
        p.add_argument(
            "--fail-mode", choices=["raise", "crash"], default="crash",
            help="flavour of the injected failure (crash = hard worker death)",
        )

    frm = sub.add_parser(
        "farm",
        parents=[problem, scenario, stepping, tracing],
        help="run a fleet of simulation jobs on the concurrent farm",
    )
    add_farm_options(frm)
    frm.add_argument(
        "--json", action="store_true",
        help="emit the full farm report (per-job results + merged metrics) as JSON",
    )

    top = sub.add_parser(
        "top",
        parents=[problem, scenario, stepping, tracing],
        help="run a farm fleet with a live terminal status view",
    )
    add_farm_options(top)
    top.add_argument(
        "--interval", type=float, default=0.5,
        help="live view repaint interval in seconds",
    )

    srv = sub.add_parser(
        "serve",
        parents=[tracing],
        help="run the simulation service on a local unix socket",
    )
    srv.add_argument(
        "--socket", type=str, default="repro-serve.sock",
        help="unix socket path the service listens on",
    )
    srv.add_argument(
        "--cache-dir", type=str, default=None,
        help="content-addressed result-cache directory (default: disabled)",
    )
    srv.add_argument(
        "--cache-entries", type=int, default=256,
        help="LRU capacity of the result cache",
    )
    srv.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="job checkpoint directory (orphan .tmp files swept at startup)",
    )
    srv.add_argument("--min-workers", type=int, default=1, help="autoscaler floor")
    srv.add_argument("--max-workers", type=int, default=4, help="autoscaler ceiling")
    srv.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant sustained submissions/second (default: unlimited)",
    )
    srv.add_argument("--burst", type=float, default=8, help="per-tenant burst allowance")
    srv.add_argument(
        "--max-pending", type=int, default=16,
        help="per-tenant cap on admitted-but-unfinished jobs",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=None,
        help="seconds to wait for in-flight jobs at shutdown (default: unbounded)",
    )
    srv.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "(0 picks a free port; default: scrape endpoint disabled)",
    )

    sbm = sub.add_parser(
        "submit",
        parents=[problem, scenario, stepping],
        help="submit one job to a running service and await the result",
    )
    sbm.add_argument(
        "--socket", type=str, default="repro-serve.sock",
        help="unix socket path of the running service",
    )
    sbm.add_argument(
        "--solver",
        choices=["pcg", "jacobi-pcg", "jacobi", "multigrid", "spectral", "nn", "nn-pcg"],
        default="pcg",
    )
    sbm.add_argument(
        "--model", type=str, default=None, metavar="DIR",
        help="trained-model directory for nn/nn-pcg jobs",
    )
    sbm.add_argument("--job-id", type=str, default=None, help="job id (default: generated)")
    sbm.add_argument("--tenant", type=str, default="default", help="tenant the job bills to")
    sbm.add_argument(
        "--priority", type=int, default=1, help="queue priority (lower runs first)"
    )
    sbm.add_argument(
        "--watch", action="store_true",
        help="stream the job's live telemetry events while it runs",
    )
    sbm.add_argument(
        "--timeout", type=float, default=None, help="seconds to wait for the result"
    )
    sbm.add_argument(
        "--json", action="store_true", help="emit the full JobResult as JSON"
    )

    hlt = sub.add_parser(
        "health", help="query a running service's SLO burn-rate health report"
    )
    hlt.add_argument(
        "--socket", type=str, default="repro-serve.sock",
        help="unix socket path of the running service",
    )
    hlt.add_argument(
        "--json", action="store_true", help="emit the full health report as JSON"
    )

    trc = sub.add_parser(
        "trace", help="summarise or dump a trace file written by --trace"
    )
    trc.add_argument("file", type=str, help="trace file (Chrome JSON or JSONL)")
    trc.add_argument(
        "--summary", action="store_true",
        help="print only the per-span latency table (p50/p95/p99 from "
        "histogram data)",
    )
    trc.add_argument(
        "--events", nargs="?", const="all", default=None, metavar="TYPE",
        help="list the typed step events (optionally only of TYPE)",
    )
    return parser


class _TraceRecorder:
    """Context manager enabling the process tracer for one CLI run.

    Installs an enabled :class:`repro.trace.Tracer` as the process default
    when ``path`` is given (no-op otherwise), restores the previous tracer
    on exit and writes the Chrome ``trace_event`` file.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.tracer = None
        self._previous = None

    def __enter__(self) -> "_TraceRecorder":
        if self.path is not None:
            from repro.trace import Tracer, set_tracer

            self.tracer = Tracer(enabled=True)
            self._previous = set_tracer(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is None:
            return
        from repro.trace import set_tracer

        set_tracer(self._previous)
        if exc[0] is None:
            self.tracer.write_chrome(self.path)
            print(f"wrote trace to {self.path}", file=sys.stderr)


def _step_dict(rec) -> dict:
    """One StepRecord as a plain-JSON dict."""
    return {
        "step": rec.step,
        "divnorm": rec.divnorm,
        "step_seconds": rec.step_seconds,
        "solver": rec.projection.solver_name,
        "solve_seconds": rec.projection.solve_seconds,
        "iterations": rec.projection.iterations,
        "converged": rec.projection.converged,
        "pre_divergence": rec.projection.pre_divergence,
        "post_divergence": rec.projection.post_divergence,
        "flops": rec.projection.flops,
    }


def _cmd_simulate(args) -> int:
    from repro.fluid import (
        FluidSimulator,
        JacobiSolver,
        MultigridSolver,
        PCGSolver,
        SimulationConfig,
        SpectralSolver,
        build_scenario,
        parse_scenario,
    )
    from repro.metrics import MetricsRegistry, set_metrics
    from repro import viz

    metrics = MetricsRegistry()

    def network():
        if args.model is not None:
            from repro.io import load_model

            return load_model(args.model).network
        from repro.models import tompson_arch

        return tompson_arch(4).build(rng=args.seed)

    def nn_solver():
        from repro.models import NNProjectionSolver

        return NNProjectionSolver(network(), passes=2, metrics=metrics)

    def nn_pcg_solver():
        from repro.fluid import NNPCGSolver

        return NNPCGSolver(network(), metrics=metrics)

    solver = {
        "pcg": lambda: PCGSolver(warm_start=args.warm_start, metrics=metrics),
        "jacobi-pcg": lambda: PCGSolver(
            preconditioner="jacobi", warm_start=args.warm_start, metrics=metrics
        ),
        "jacobi": lambda: JacobiSolver(metrics=metrics),
        "multigrid": lambda: MultigridSolver(metrics=metrics),
        "spectral": lambda: SpectralSolver(
            metrics=metrics,
            fallback=PCGSolver(metrics=metrics),
        ),
        "nn": nn_solver,
        "nn-pcg": nn_pcg_solver,
    }[args.solver]()
    sspec = parse_scenario(args.scenario).with_defaults(grid=args.grid)
    grid, driver = build_scenario(sspec, rng=args.seed)
    solver = driver.wrap_solver(solver)
    overrides = getattr(driver, "config_overrides", {})
    config = SimulationConfig(**overrides) if overrides else None
    sim = FluidSimulator(grid, solver, driver, config=config, metrics=metrics)
    t0 = time.perf_counter()
    previous = set_metrics(metrics)  # kernel builds and plan compiles too
    try:
        with _TraceRecorder(args.trace):
            result = sim.run(args.steps)
    finally:
        set_metrics(previous)
    dt = time.perf_counter() - t0
    if args.json:
        print(
            json.dumps(
                {
                    "command": "simulate",
                    "config": {
                        "grid": grid.nx,
                        "seed": args.seed,
                        "steps": args.steps,
                        "scenario": sspec.to_string(),
                        "solver": args.solver,
                        "warm_start": args.warm_start,
                    },
                    "total_seconds": dt,
                    "solve_seconds": result.solve_seconds,
                    "steps": [_step_dict(r) for r in result.records],
                    "metrics": metrics.to_dict(),
                },
                indent=2,
            )
        )
    else:
        print(
            f"{sspec.name} {grid.nx}x{grid.ny}, {args.steps} steps with {args.solver}: "
            f"{dt:.2f}s total, {result.solve_seconds:.2f}s in the pressure solver"
        )
    if args.ascii:
        print(viz.to_ascii(result.density))
    if args.pgm:
        path = viz.save_pgm(result.density, args.pgm)
        if not args.json:
            print(f"wrote {path}")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.fluid import list_scenarios

    infos = list_scenarios()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": info.name,
                        "description": info.description,
                        "params": [
                            {"name": p.name, "default": p.default, "doc": p.doc}
                            for p in info.params
                        ],
                    }
                    for info in infos
                ],
                indent=2,
            )
        )
        return 0
    for info in infos:
        print(f"{info.name}")
        if info.description:
            print(f"    {info.description}")
        for p in info.params:
            doc = f"  -- {p.doc}" if p.doc else ""
            print(f"    {p.name}={p.default!r}{doc}")
    return 0


def _cmd_experiment(args) -> int:
    import repro.experiments as experiments
    from repro.experiments import build_artifacts, get_scale

    artifacts = build_artifacts(get_scale(args.scale))
    runner = getattr(experiments, _EXPERIMENTS[args.name])
    result = runner(artifacts)
    if isinstance(result, tuple):
        for part in result:
            print(part.format())
    else:
        print(result.format())
    return 0


def _cmd_offline(args) -> int:
    from repro.core import OfflineConfig, SmartFluidnet
    from repro.io import save_framework

    cfg = OfflineConfig(grid_size=args.grid)
    framework = SmartFluidnet.build_offline(config=cfg, rng=args.seed, verbose=True)
    path = save_framework(framework, args.output)
    print(f"saved framework with {len(framework.runtime_models)} runtime models to {path}")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import build_artifacts, generate_report, get_scale

    text = generate_report(build_artifacts(get_scale(args.scale)), output=args.output)
    print(text)
    if args.output:
        print(f"\nwrote {args.output}")
    return 0


def _cmd_adaptive(args) -> int:
    from repro.data import InputProblem
    from repro.io import load_framework
    from repro.metrics import MetricsRegistry, set_metrics

    metrics = MetricsRegistry()
    previous = set_metrics(metrics)  # capture instrumentation of the whole run
    try:
        framework = load_framework(args.framework)
        with _TraceRecorder(args.trace):
            run = framework.run(InputProblem(args.grid, args.seed), args.steps)
    finally:
        set_metrics(previous)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "adaptive",
                    "config": {"grid": args.grid, "seed": args.seed, "steps": args.steps},
                    "requirement_qloss": framework.requirement.q,
                    "restarted": run.restarted,
                    "total_seconds": run.total_seconds,
                    "solve_seconds": run.solve_seconds,
                    "steps_per_model": run.stats.steps_per_model,
                    "solve_seconds_per_model": run.stats.solve_seconds_per_model,
                    "switches": [
                        {
                            "step": sw.step,
                            "from": sw.from_model,
                            "to": sw.to_model,
                            "predicted_qloss": sw.predicted_qloss,
                        }
                        for sw in run.stats.switches
                    ],
                    "steps": [_step_dict(r) for r in run.result.records],
                    "metrics": metrics.to_dict(),
                },
                indent=2,
            )
        )
        return 0
    print(f"requirement: qloss <= {framework.requirement.q:.4f}")
    print(f"restarted: {run.restarted}")
    print(f"steps per model: {run.stats.steps_per_model}")
    for sw in run.stats.switches:
        print(f"  step {sw.step}: {sw.from_model} -> {sw.to_model}")
    return 0


def _build_farm_specs(args) -> list:
    """Translate the shared farm/top CLI options into a JobSpec fleet."""
    from repro.data import generate_problems
    from repro.farm import JobSpec
    from repro.fluid import parse_scenario

    sspec = parse_scenario(args.scenario)
    grid_size = int(sspec.get("grid", args.grid))
    problems = generate_problems(args.jobs, grid_size)
    fail_step = max(1, args.steps // 2)
    model_dir = args.model if args.solver in ("nn", "nn-pcg") else None
    return [
        JobSpec(
            job_id=f"job-{i:03d}",
            grid_size=grid_size,
            seed=p.seed + args.seed,
            scenario=sspec.to_string(),
            steps=args.steps,
            solver=args.solver,
            model_dir=model_dir,
            checkpoint_every=args.checkpoint_every,
            timeout_seconds=args.timeout,
            max_retries=args.retries,
            fail_at_step=fail_step if i == args.inject_failure else None,
            fail_mode=args.fail_mode,
        )
        for i, p in enumerate(problems)
    ]


def _build_farm(args):
    from repro.farm import SimulationFarm

    return SimulationFarm(
        workers=args.workers,
        backend=args.backend,
        checkpoint_dir=args.checkpoint_dir,
        trace=args.trace is not None,
    )


def _write_farm_trace(farm, path: str | None) -> None:
    if path is not None:
        farm.tracer.write_chrome(path)
        print(f"wrote trace to {path}", file=sys.stderr)


def _print_farm_report(args, report) -> None:
    print(
        f"{args.backend} farm, {report.workers} worker(s): "
        f"{len(report.completed)}/{len(report.results)} jobs completed "
        f"in {report.wall_seconds:.2f}s "
        f"({report.jobs_per_second:.2f} jobs/s, {report.steps_per_second:.1f} steps/s)"
    )
    for r in report.results:
        notes = []
        if r.degraded:
            notes.append("degraded->pcg")
        if r.resumed_from is not None:
            notes.append(f"resumed@{r.resumed_from}")
        if r.retries:
            notes.append(f"retries={r.retries}")
        if r.error:
            notes.append(r.error)
        suffix = f" [{', '.join(notes)}]" if notes else ""
        print(
            f"  {r.job_id}: {r.status} ({r.steps_done}/{args.steps} steps, "
            f"{r.solver_used}){suffix}"
        )


def _cmd_farm(args) -> int:
    farm = _build_farm(args)
    report = farm.run(_build_farm_specs(args))
    _write_farm_trace(farm, args.trace)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if not report.failed else 1
    _print_farm_report(args, report)
    return 0 if not report.failed else 1


def _cmd_top(args) -> int:
    from repro.farm import LiveRenderer
    from repro.obs import SeriesRecorder, SLOEngine, default_farm_slos

    farm = _build_farm(args)
    # live SLO panel: sample the fleet's event-fed state each repaint and
    # surface any burning objectives under the fleet table.  The flat
    # farm/* counters are no use here — a worker's registry merges into
    # farm.metrics only when its job's result arrives (on the serial
    # backend, after the last job), so they say nothing of running jobs —
    # whereas FleetView folds worker events as they arrive.
    fleet = farm.fleet
    recorder = SeriesRecorder(interval=min(1.0, max(0.1, args.interval)))

    def terminal_jobs() -> float:
        counts = fleet.counts()
        return float(sum(counts.get(s, 0) for s in ("completed", "failed", "cancelled")))

    recorder.add_source("farm_jobs", terminal_jobs)
    recorder.add_source(
        "farm_jobs_failed", lambda: float(fleet.counts().get("failed", 0))
    )
    recorder.add_source(
        "farm_degradations", lambda: float(fleet.counters().get("pcg_fallbacks", 0))
    )
    recorder.add_source(
        "farm_resumes", lambda: float(fleet.counters().get("resumes", 0))
    )
    engine = SLOEngine(recorder, default_farm_slos())

    def alerts() -> list[str]:
        recorder.tick()
        lines = []
        for status in engine.evaluate():
            if status.state in ("warning", "critical"):
                value = (
                    f"{status.value:.3g}"
                    if isinstance(status.value, (int, float))
                    else "--"
                )
                lines.append(
                    f"[{status.state}] {status.name}: {status.objective} (value {value})"
                )
        return lines

    with LiveRenderer(farm.fleet, interval=args.interval, alerts_fn=alerts):
        report = farm.run(_build_farm_specs(args))
    _write_farm_trace(farm, args.trace)
    _print_farm_report(args, report)
    return 0 if not report.failed else 1


def _cmd_serve(args) -> int:
    import asyncio
    import os
    import signal

    from repro.serve import ServiceServer, SimulationService, TenantQuota

    async def run() -> int:
        service = SimulationService(
            cache_dir=args.cache_dir,
            cache_entries=args.cache_entries,
            checkpoint_dir=args.checkpoint_dir,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            default_quota=TenantQuota(
                rate=args.rate, burst=args.burst, max_pending=args.max_pending
            ),
        )
        await service.start()
        server = ServiceServer(service, args.socket)
        await server.start()
        scrape = None
        if args.metrics_port is not None:
            from repro.obs import ScrapeServer

            scrape = ScrapeServer(service.metrics_text, port=args.metrics_port)
            port = scrape.start()
            print(
                f"metrics on http://127.0.0.1:{port}/metrics", file=sys.stderr
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"serving on {args.socket} "
            f"(workers {args.min_workers}..{args.max_workers}, "
            f"cache {'off' if args.cache_dir is None else args.cache_dir})",
            file=sys.stderr,
        )
        await stop.wait()
        # graceful shutdown: stop accepting, drain in-flight jobs, persist
        # the cache index (service.stop flushes it)
        print("shutting down: draining in-flight jobs", file=sys.stderr)
        if scrape is not None:
            scrape.stop()
        await server.stop()
        drained = await service.stop(drain=True, timeout=args.drain_timeout)
        try:
            os.unlink(args.socket)
        except OSError:
            pass
        print("drained" if drained else "drain timed out", file=sys.stderr)
        return 0 if drained else 1

    with _TraceRecorder(args.trace):
        return asyncio.run(run())


def _cmd_submit(args) -> int:
    import asyncio
    import os

    from repro.farm import JobSpec
    from repro.fluid import parse_scenario
    from repro.serve import ServeError, ServiceClient

    sspec = parse_scenario(args.scenario)
    job_id = args.job_id or f"cli-{os.getpid()}-{time.monotonic_ns() % 1_000_000}"
    spec = JobSpec(
        job_id=job_id,
        grid_size=int(sspec.get("grid", args.grid)),
        seed=args.seed,
        scenario=sspec.to_string(),
        steps=args.steps,
        solver=args.solver,
        model_dir=args.model if args.solver in ("nn", "nn-pcg") else None,
    )

    async def run() -> int:
        async with await ServiceClient.open(args.socket) as client:
            job = await client.submit(spec, tenant=args.tenant, priority=args.priority)
            if not args.json:
                print(
                    f"{job['job_id']}: {job['status']}"
                    + (" (cache hit)" if job["cached"] else "")
                )
            if args.watch and job["status"] not in ("completed", "failed", "cancelled"):
                async with await ServiceClient.open(args.socket) as watcher:
                    async for event in watcher.watch(job["job_id"]):
                        etype = event.get("type", "?")
                        step = event.get("step")
                        at = f" step {step}" if step is not None else ""
                        pid = event.get("pid")
                        by = f" (pid {pid})" if pid is not None else ""
                        print(f"  {etype}{at}{by}", file=sys.stderr)
            result = await client.result(job["job_id"], timeout=args.timeout)
            if args.json:
                print(json.dumps(result.to_dict(), indent=2))
            else:
                note = " (cached)" if result.cached else ""
                print(
                    f"{result.job_id}: {result.status}{note} "
                    f"({result.steps_done}/{args.steps} steps, {result.solver_used}, "
                    f"{result.wall_seconds:.2f}s)"
                )
            return 0 if result.ok else 1

    try:
        return asyncio.run(run())
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no service listening on {args.socket}", file=sys.stderr)
        return 2


def _cmd_health(args) -> int:
    import asyncio

    from repro.serve import ServeError, ServiceClient

    async def run() -> int:
        async with await ServiceClient.open(args.socket) as client:
            health = await client.health()
        if args.json:
            print(json.dumps(health, indent=2))
            return 0 if health.get("state") in ("ok", "no_data") else 1
        print(f"state: {health.get('state', '?')}")
        for slo in health.get("slos", []):
            value = slo.get("value")
            shown = f"{value:.4g}" if isinstance(value, (int, float)) else "--"
            print(
                f"  [{slo.get('state', '?'):<8}] {slo.get('name')}: "
                f"{slo.get('objective')}  value={shown}"
            )
            for tier in slo.get("tiers", []):
                if tier.get("firing"):
                    print(
                        f"      burn[{tier['severity']}]: "
                        f"short={tier['short_burn']:.2f}x "
                        f"long={tier['long_burn']:.2f}x "
                        f"(threshold {tier['factor']}x)"
                    )
        return 0 if health.get("state") in ("ok", "no_data") else 1

    try:
        return asyncio.run(run())
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no service listening on {args.socket}", file=sys.stderr)
        return 2


def _cmd_trace(args) -> int:
    from repro.trace import format_summary, read_trace

    tracer = read_trace(args.file)
    if args.events is not None:
        type_ = None if args.events == "all" else args.events
        for ev in tracer.events(type_):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(ev.attrs.items()))
            step = f"step {ev.step:>5}" if ev.step is not None else "step     -"
            print(f"{ev.type:<14} {step}  {attrs}")
        return 0
    if not args.summary:
        spans = tracer.spans()
        events = tracer.events()
        by_type: dict[str, int] = {}
        for ev in events:
            by_type[ev.type] = by_type.get(ev.type, 0) + 1
        counts = "  ".join(f"{t}:{n}" for t, n in sorted(by_type.items()))
        print(f"{args.file}: {len(spans)} spans, {len(events)} events  {counts}")
    print(format_summary(tracer))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return {
        "simulate": _cmd_simulate,
        "scenarios": _cmd_scenarios,
        "experiment": _cmd_experiment,
        "offline": _cmd_offline,
        "report": _cmd_report,
        "adaptive": _cmd_adaptive,
        "farm": _cmd_farm,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "health": _cmd_health,
        "trace": _cmd_trace,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
