"""Eulerian fluid-simulation substrate (mantaflow equivalent).

A pure NumPy/SciPy 2-D MAC-grid smoke simulator implementing the paper's
Algorithm 1: semi-Lagrangian advection, buoyancy, and pressure projection via
PCG with the MIC(0) preconditioner (plus Jacobi and geometric multigrid
alternatives).
"""

from .grid import CellType, MACGrid2D
from .operators import divergence, pressure_gradient_update, apply_laplacian
from .laplacian import PoissonSystem, build_poisson_system, stencil_arrays, poisson_rhs
from .solver_api import MaskKeyedCache
from .kernels import GeometryKernels, MICTriangularFactor, spectral_eligible
from .pcg import JacobiSolver, MIC0Preconditioner, PCGSolver, SolveResult
from .nn_pcg import NNPCGSolver
from .spectral import SpectralSolver
from .multigrid import MultigridSolver, build_hierarchy, vcycle
from .advection import advect_scalar, advect_velocity, maccormack_scalar
from .forces import add_buoyancy, add_gravity, add_vorticity_confinement
from .turbulence import apply_turbulent_velocity, stream_function_noise, value_noise
from .geometry import (
    box_mask,
    capsule_mask,
    disc_mask,
    polygon_mask,
    random_obstacles,
)
from .projection import PressureSolver, ProjectionInfo, project
from .levelset import (
    FreeSurfaceSolver,
    LevelSetDriver,
    advect_levelset,
    reinitialize,
    signed_distance,
)
from .scenarios import (
    CompositeDriver,
    MovingSolidDriver,
    ScenarioDriver,
    ScenarioInfo,
    ScenarioParam,
    ScenarioSpec,
    SmokeSource,
    build_scenario,
    get_scenario,
    list_scenarios,
    make_smoke_plume,
    parse_scenario,
    register_scenario,
)
from .simulator import (
    FluidSimulator,
    RestartRequested,
    SimulationConfig,
    SimulationResult,
    StepRecord,
    compute_divnorm,
    divnorm_weights,
)

__all__ = [
    "CellType",
    "MACGrid2D",
    "divergence",
    "pressure_gradient_update",
    "apply_laplacian",
    "PoissonSystem",
    "build_poisson_system",
    "stencil_arrays",
    "poisson_rhs",
    "MaskKeyedCache",
    "GeometryKernels",
    "MICTriangularFactor",
    "spectral_eligible",
    "MIC0Preconditioner",
    "PCGSolver",
    "NNPCGSolver",
    "JacobiSolver",
    "SolveResult",
    "SpectralSolver",
    "MultigridSolver",
    "build_hierarchy",
    "vcycle",
    "advect_scalar",
    "advect_velocity",
    "maccormack_scalar",
    "add_buoyancy",
    "add_gravity",
    "add_vorticity_confinement",
    "apply_turbulent_velocity",
    "stream_function_noise",
    "value_noise",
    "disc_mask",
    "box_mask",
    "capsule_mask",
    "polygon_mask",
    "random_obstacles",
    "PressureSolver",
    "ProjectionInfo",
    "project",
    "FreeSurfaceSolver",
    "LevelSetDriver",
    "advect_levelset",
    "reinitialize",
    "signed_distance",
    "ScenarioSpec",
    "ScenarioParam",
    "ScenarioInfo",
    "ScenarioDriver",
    "CompositeDriver",
    "MovingSolidDriver",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "build_scenario",
    "parse_scenario",
    "SmokeSource",
    "make_smoke_plume",
    "FluidSimulator",
    "RestartRequested",
    "SimulationConfig",
    "SimulationResult",
    "StepRecord",
    "compute_divnorm",
    "divnorm_weights",
]
