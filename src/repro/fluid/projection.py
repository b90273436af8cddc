"""Pressure projection (Algorithm 1, line 6) with pluggable solvers.

A *pressure solver* is a :class:`~repro.fluid.solver_api.PressureSolver`:
``solve(b, solid) -> SolveResult``, a ``name`` identifier and a ``reset()``
lifecycle hook.  The exact PCG solver, multigrid, NN-preconditioned CG, the
neural-network approximators and the adaptive Smart-fluidnet controller all
conform, so the simulator is agnostic to how the Poisson equation is
(approximately) solved.  The ABC itself lives in
:mod:`repro.fluid.solver_api` (to avoid import cycles with the concrete
solvers) and is re-exported here, its historical home.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.metrics import MetricsRegistry, get_metrics

from .grid import MACGrid2D
from .laplacian import poisson_rhs
from .operators import divergence, pressure_gradient_update
from .solver_api import PressureSolver, SolveResult

__all__ = ["PressureSolver", "SolveResult", "ProjectionInfo", "project"]


@dataclass
class ProjectionInfo:
    """Diagnostics of one projection step."""

    solver_name: str
    solve_seconds: float
    iterations: int
    converged: bool
    pre_divergence: float
    post_divergence: float
    flops: float


def project(
    grid: MACGrid2D,
    solver: PressureSolver,
    dt: float,
    rho: float = 1.0,
    metrics: MetricsRegistry | None = None,
) -> ProjectionInfo:
    """Make the grid velocity (approximately) divergence-free, in place."""
    m = metrics if metrics is not None else get_metrics()
    name = getattr(solver, "name", type(solver).__name__)
    with m.span("projection", solver=name) as sp:
        grid.enforce_solid_boundaries()
        div = divergence(grid)
        pre = float(np.abs(div[grid.fluid]).max()) if grid.fluid.any() else 0.0
        b = poisson_rhs(div, grid.solid, dt, rho, grid.dx)
        t0 = time.perf_counter()
        res = solver.solve(b, grid.solid)
        dt_solve = time.perf_counter() - t0
        grid.pressure = res.pressure
        pressure_gradient_update(grid, res.pressure, dt, rho)
        post_div = divergence(grid)
        post = float(np.abs(post_div[grid.fluid]).max()) if grid.fluid.any() else 0.0
        if sp is not None:
            sp.attrs["iterations"] = res.iterations
            sp.attrs["converged"] = res.converged
    return ProjectionInfo(
        solver_name=name,
        solve_seconds=dt_solve,
        iterations=res.iterations,
        converged=res.converged,
        pre_divergence=pre,
        post_divergence=post,
        flops=res.flops,
    )
