"""``repro.farm`` — the concurrent simulation execution engine.

The execution layer above :class:`~repro.fluid.FluidSimulator`: declarative
job specs, a fault-tolerant worker pool with per-job timeout and bounded
retry, mid-run checkpoint/resume, and graceful degradation to the exact
PCG solver.  Entry points: build a list of :class:`JobSpec`, hand it to
:class:`SimulationFarm.run`, read the :class:`FarmReport` — or use the
``repro farm`` CLI subcommand.
"""

from .checkpoint import load_checkpoint, save_checkpoint, sweep_orphans
from .jobs import JobResult, JobSpec, SOLVER_CHOICES
from .pool import BACKENDS, FarmReport, Pool, SimulationFarm
from .telemetry import FleetView, JobView, LiveRenderer, render_fleet
from .worker import InjectedWorkerFailure, SimulationDiverged, build_solver, run_job

__all__ = [
    "JobSpec",
    "JobResult",
    "SOLVER_CHOICES",
    "SimulationFarm",
    "FarmReport",
    "Pool",
    "BACKENDS",
    "sweep_orphans",
    "run_job",
    "build_solver",
    "InjectedWorkerFailure",
    "SimulationDiverged",
    "save_checkpoint",
    "load_checkpoint",
    "FleetView",
    "JobView",
    "LiveRenderer",
    "render_fleet",
]
