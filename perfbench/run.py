"""Repository benchmark: Algorithm 2 run ledger plus exact, serve and farm load.

Usage, from the repository root::

    python3 perfbench/run.py --workload adaptive_plume --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload for ``--seconds`` with tracing off and
prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` spends
half the time untraced and half traced, and prints the per-layer metrics.
Both print one ``report`` line with everything measured, then the result
as one JSON object on the last line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: BLAS/OpenMP threads per process: 2 cores, up to 2 concurrent workers
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = HERE / "_run"

END_TO_END = {
    "setup_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "steps_per_s": "steps/s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
}

#: per-layer metric -> unit; times and counts are per unit of the workload
PER_LAYER = {
    **{m: "s/unit" for m in (
        "fluid.step_s", "fluid.advection_s", "fluid.forces_s", "fluid.projection_s",
        "fluid.step_other_s", "pcg.solve_s", "freesurface.solve_s", "levelset.advect_s",
        "nn.solve_s", "nn.forward_s", "nn.plan_build_s", "nn_pcg.solve_s",
        "sched.hook_s", "sched.regression_s", "sched.knn_s", "sched.restart_wasted_s",
        "farm.queue_wait_s", "farm.spawn_s", "farm.job_run_s", "farm.job_setup_s",
        "farm.result_return_s", "farm.checkpoint_write_s",
        "serve.submit_s", "serve.cache_get_s", "serve.cache_put_s", "serve.queue_wait_s",
        "serve.wire_s",
    )},
    **{m: "count/unit" for m in (
        "fluid.steps", "pcg.iterations", "pcg.solves", "pcg.unconverged",
        "nn.forwards", "nn.plan_builds", "nn_pcg.iterations", "nn_pcg.safeguard_steps",
        "sched.checks", "sched.switches", "sched.restarts",
        "farm.retries", "farm.degraded", "serve.refused", "serve.resizes", "trace.spans",
    )},
    "farm.checkpoint_bytes": "B/unit",
    **{m: "1" for m in (
        "pcg.geometry_cache_hit_ratio", "sched.kept_step_ratio", "sched.top_model_share",
        "farm.overhead_share", "serve.cache_hit_ratio", "trace.overhead_ratio",
        "layer.unattributed_share", "qloss_p50", "qloss_miss_ratio", "failed_ratio",
        "smart_speedup_vs_pcg", "smart_over_single",
    )},
    "pcg_run_s": "s",
    "single_run_s": "s",
}

#: the per-layer self times must add up to the unit wall within this share
LAYER_SUM_TOLERANCE = 0.10
#: fresh-interpreter imports and in-process set-ups per run (medians)
SETUP_REPEATS = 3
IMPORTS = "import numpy, scipy, repro.core, repro.io, repro.fluid, repro.farm, repro.serve"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``; below 20 samples no percentile above
    the median qualifies, and the median is reported.
    """
    n = len(values)
    pct = max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n)))) if n else 50
    return percentile(values, pct), pct


def median(values) -> float:
    return percentile(list(values), 50.0)


def source_revision() -> str:
    """Git revision when run in a git checkout, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the library and exits."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": source_revision(),
    }


def end_to_end(wl, phase, setup_s: float) -> dict:
    walls = [u.wall for u in phase.units]
    tail_value, tail_pct = tail(walls)
    out = {
        "setup_s": setup_s,
        "run_p50_s": median(walls),
        "run_tail_s": tail_value,
        "run_tail_percentile": tail_pct,
        "run_samples": len(walls),
        "steps_per_s": sum(u.steps for u in phase.units) / phase.wall,
        "jobs_per_s": sum(u.jobs for u in phase.units) / phase.wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.update(adaptive_metrics(wl, phase, out["run_p50_s"]))
    return out


def adaptive_metrics(wl, phase, smart_p50: float) -> dict:
    """The Fig. 8 arm times, Qloss and derived ratios (adaptive_plume only)."""
    if wl.name != "adaptive_plume" or not phase.units:
        return {}
    ex = [u.extra for u in phase.units]
    pcg = median(e["pcg_s"] for e in ex)
    single = median(e["single_s"] for e in ex)
    return {
        "pcg_run_s": pcg,
        "single_run_s": single,
        "qloss_p50": median(e["qloss"] for e in ex),
        "qloss_miss_ratio": sum(e["qloss_miss"] for e in ex) / len(ex),
        "smart_speedup_vs_pcg": pcg / smart_p50,
        "smart_over_single": single / smart_p50,
        "q_requirement": wl.framework.requirement.q,
    }


def per_layer(wl, untraced, traced, e2e: dict) -> dict:
    """Per-layer metrics (per unit) from the traced phase."""
    from layers import SUM_LAYERS, geometry_cache_hit_ratio

    n = max(1, len(traced.units))
    out = {name: 0.0 for name in PER_LAYER}
    for name, value in {**traced.layers, **traced.counts}.items():
        if name in out and PER_LAYER[name] != "1":
            out[name] = value / n
    out["pcg.geometry_cache_hit_ratio"] = geometry_cache_hit_ratio(traced.counters)
    attributed = sum(traced.layers.get(k, 0.0) for k in SUM_LAYERS)
    if traced.split_wall > 0:
        out["layer.unattributed_share"] = (traced.split_wall - attributed) / traced.split_wall
    traced_p50 = median(u.wall for u in traced.units)
    if e2e["run_p50_s"] > 0:
        out["trace.overhead_ratio"] = traced_p50 / e2e["run_p50_s"]
    for key in ("pcg_run_s", "single_run_s", "qloss_p50", "qloss_miss_ratio",
                "smart_speedup_vs_pcg", "smart_over_single"):
        if key in e2e:
            out[key] = e2e[key]

    ex = [u.extra for u in traced.units]
    if wl.name == "adaptive_plume" and ex:
        out["sched.checks"] = sum(e["checks"] for e in ex) / n
        out["sched.switches"] = sum(e["switches"] for e in ex) / n
        out["sched.restarts"] = sum(e["restarted"] for e in ex) / n
        out["sched.kept_step_ratio"] = sum(e["kept_steps"] for e in ex) / max(
            1, sum(e["simulated_steps"] for e in ex)
        )
        model_s = sum(e["model_s"] for e in ex)
        out["sched.top_model_share"] = sum(e["top_model_s"] for e in ex) / model_s if model_s else 0.0
        out["sched.restart_wasted_s"] = restart_wasted(traced.spans) / n
    if wl.name == "farm_batch" and ex:
        out["farm.retries"] = sum(e["retries"] for e in ex) / n
        out["farm.degraded"] = sum(e["degraded"] for e in ex) / n
        out["farm.overhead_share"] = traced.counts.get("farm.overhead_share", 0.0)
    if wl.name == "serve_fleet":
        c = traced.counters
        lookups = c.get("serve/cache/hits", 0.0) + c.get("serve/cache/misses", 0.0)
        out["serve.cache_hit_ratio"] = c.get("serve/cache/hits", 0.0) / lookups if lookups else 0.0
        out["serve.resizes"] = (
            c.get("serve/autoscaler/grow_events", 0.0) + c.get("serve/autoscaler/shrink_events", 0.0)
        ) / n
    units = untraced.units + traced.units
    out["failed_ratio"] = sum(u.failed for u in units) / max(1, len(units))
    return out


def restart_wasted(spans) -> float:
    """Wall time of trajectories Algorithm 2 discarded by restarting."""
    first_sim: dict[str, object] = {}
    for s in spans:
        if s.name == "sim" and s.parent_id not in first_sim:
            first_sim[s.parent_id] = s
    return sum(
        first_sim[s.span_id].dur
        for s in spans
        if s.name == "adaptive" and s.attrs.get("restarted") and s.span_id in first_sim
    )


def write_trace(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s.to_dict(), default=str) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = str(run_dir / "tmp")
    try:
        import_samples = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_samples.append(time.perf_counter() - t0)
        setup_s = median(import_samples) + median(setup_samples)
        try:
            wl.warm()
            seconds = args.seconds / 2 if args.trace else args.seconds
            untraced = wl.measure(seconds, traced=False)
            traced = wl.measure(seconds, traced=True) if args.trace else None
        finally:
            wl.close()

        e2e = end_to_end(wl, untraced, setup_s)
        phases = [untraced] + ([traced] if traced else [])
        units = [u for p in phases for u in p.units]
        failures = [f for u in units for f in u.extra.get("failures", [])]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": wl.loop,
            "end_to_end": {**e2e, "failed_ratio": sum(u.failed for u in units) / max(1, len(units))},
            "environment": environment(),
            "failures": failures[:20],
        }
        if traced is not None:
            report["per_layer"] = per_layer(wl, untraced, traced, e2e)
            write_trace(RUN_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl", traced.spans)
        results = RUN_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(report, indent=2))
        print("report " + json.dumps(report))

        if args.trace:
            metrics = {k: {"value": report["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        failed = sum(u.failed for u in units)
        print(json.dumps({
            "correct": failed == 0 and bool(units),
            "attempted": max(1, len(units)),
            "failed": failed if units else 1,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
