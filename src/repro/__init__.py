"""Smart-fluidnet: adaptive neural-network approximation for Eulerian fluid
simulation.

Reproduction of Dong, Liu, Xie & Li, "Adaptive Neural Network-Based
Approximation to Accelerate Eulerian Fluid Simulation" (SC '19).

Public surface
--------------
This package root is the stable facade: the names in ``__all__`` are the
supported entry points and keep working across refactors.

* simulation — :class:`FluidSimulator`, :class:`SimulationConfig`,
  :class:`SimulationResult`;
* scenarios — the workload registry: :class:`ScenarioSpec`,
  :func:`build_scenario`, :func:`parse_scenario`, :func:`list_scenarios`,
  :func:`register_scenario` (smoke plume, inflow jets, moving solids,
  free-surface liquids);
* solvers — :class:`PressureSolver` (the protocol), :class:`PCGSolver`,
  :class:`JacobiSolver`, :class:`MultigridSolver`, :class:`SpectralSolver`,
  :class:`NNProjectionSolver`, :class:`SolveResult`;
* the framework — :class:`SmartFluidnet`, :class:`UserRequirement`,
  :class:`OfflineConfig`;
* observability — the :mod:`repro.metrics` runtime-metrics module
  (:class:`MetricsRegistry`, :func:`get_metrics`) and the :mod:`repro.trace`
  tracing/timeline module (:class:`Tracer`, :func:`get_tracer`);
* the execution farm — :class:`JobSpec`, :class:`JobResult`,
  :class:`SimulationFarm`, :class:`FarmReport`.

Every other public name lives in its subpackage; import it from there
(e.g. ``from repro.fluid import MIC0Preconditioner``).

Subpackages
-----------
``repro.fluid``
    The mantaflow-equivalent substrate: 2-D MAC-grid smoke simulation with
    semi-Lagrangian advection, buoyancy and PCG/MICCG(0) pressure
    projection (plus Jacobi and multigrid solvers).
``repro.nn``
    A from-scratch NumPy neural-network framework (conv / pool / unpool /
    dense / dropout / residual, backprop, Adam, DivNorm loss, FLOP
    accounting).
``repro.models``
    Architecture specs, the Tompson and Yang baselines, training with
    rollout augmentation, and the NN pressure-solver adapter.
``repro.data``
    Reproducible input-problem datasets and training-frame collection.
``repro.core``
    Smart-fluidnet itself: the four transformation operations, the
    Auto-Keras-style accurate-model search, Pareto selection, the
    success-rate MLP, Eq. 8 filtering, the CumDivNorm/KNN quality
    predictors, and the quality-aware model-switch runtime (Algorithm 2).
``repro.farm``
    Concurrent simulation execution: job schema, fault-tolerant
    multiprocessing worker pool with timeouts/retries, atomic ``.npz``
    checkpoint/resume and graceful degradation to exact PCG.
``repro.metrics``
    Runtime counters/timers with hierarchical scopes and JSON export.
``repro.trace``
    Structured tracing: nested spans, histogram metrics with percentiles,
    typed step-event streams, JSONL and Chrome ``trace_event`` export.
``repro.experiments``
    One module per table/figure of the paper's evaluation.
"""

from __future__ import annotations

from . import metrics, trace
from .metrics import MetricsRegistry, get_metrics
from .trace import Tracer, get_tracer
from .core import OfflineConfig, SmartFluidnet, UserRequirement
from .fluid import (
    FluidSimulator,
    JacobiSolver,
    MultigridSolver,
    PCGSolver,
    PressureSolver,
    ScenarioSpec,
    SimulationConfig,
    SimulationResult,
    SolveResult,
    SpectralSolver,
    build_scenario,
    list_scenarios,
    parse_scenario,
    register_scenario,
)
from .farm import FarmReport, JobResult, JobSpec, SimulationFarm
from .models import NNProjectionSolver

__version__ = "1.11.0"

__all__ = [
    # framework
    "SmartFluidnet",
    "UserRequirement",
    "OfflineConfig",
    # simulation
    "FluidSimulator",
    "SimulationConfig",
    "SimulationResult",
    # scenario registry
    "ScenarioSpec",
    "register_scenario",
    "build_scenario",
    "parse_scenario",
    "list_scenarios",
    # solver protocol + implementations
    "PressureSolver",
    "SolveResult",
    "PCGSolver",
    "JacobiSolver",
    "MultigridSolver",
    "SpectralSolver",
    "NNProjectionSolver",
    # execution farm
    "JobSpec",
    "JobResult",
    "SimulationFarm",
    "FarmReport",
    # observability
    "metrics",
    "MetricsRegistry",
    "get_metrics",
    "trace",
    "Tracer",
    "get_tracer",
    "__version__",
]

