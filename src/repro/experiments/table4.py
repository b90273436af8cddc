"""Table 4: resource usage (FLOP per step, memory) of PCG / Tompson / Smart.

FLOPs are analytic (hardware-independent): the PCG count follows its
measured iteration count on a representative problem; network counts come
from the static accounting.  Memory is the resident float32 footprint: PCG's
solver fields, one network's parameters + activations for Tompson, and all
runtime models resident at once for Smart-fluidnet — which is why Smart
trades higher memory for fewer FLOPs, exactly the shape of the paper's
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems
from repro.fluid import PCGSolver, divergence, poisson_rhs
from repro.nn import pcg_flops, pcg_memory_bytes

from .common import Artifacts, build_artifacts, format_table

__all__ = ["Table4Row", "Table4Result", "run_table4"]


@dataclass
class Table4Row:
    method: str
    mflop_single_step: float
    memory_mb: float


@dataclass
class Table4Result:
    rows: list[Table4Row]
    grid_size: int

    def format(self) -> str:
        return format_table(
            ["Method", "FLOP single step (M)", "Memory (MB)"],
            [[r.method, r.mflop_single_step, r.memory_mb] for r in self.rows],
            title=f"Table 4: resource usage at {self.grid_size}x{self.grid_size}",
        )

    def by_method(self, name: str) -> Table4Row:
        return next(r for r in self.rows if r.method == name)


def run_table4(artifacts: Artifacts | None = None) -> Table4Result:
    """Regenerate Table 4 at the configured scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    grid_size = scale.base_grid
    problem = generate_problems(1, grid_size, split="eval")[0]

    # PCG: measure the iteration count of a representative single step
    grid, source = problem.materialize()
    source.apply(grid, 0.05)
    b = poisson_rhs(divergence(grid), grid.solid, dt=0.05, rho=1.0, dx=grid.dx)
    res = PCGSolver().solve(b, grid.solid)
    n_fluid = int(grid.fluid.sum())
    n_cells = grid_size * grid_size
    pcg_row = Table4Row(
        method="pcg",
        mflop_single_step=pcg_flops(n_fluid, res.iterations) / 1e6,
        memory_mb=pcg_memory_bytes(n_cells) / (1024 * 1024),
    )

    shape = (grid_size, grid_size)
    tomp_usage = art.input_model_solver().resource_usage(shape)
    tomp_row = Table4Row("tompson", tomp_usage.mflops, tomp_usage.memory_mb)

    # Smart: FLOPs weighted by the runtime models' observed usage; memory is
    # all runtime models resident simultaneously
    usages = [
        sel.model.solver(passes=art.framework.config.solver_passes).resource_usage(shape)
        for sel in art.framework.runtime_models
    ]
    smart_flops = float(np.mean([u.flops for u in usages]))
    smart_memory = float(sum(u.memory_bytes for u in usages))
    smart_row = Table4Row("smart-fluidnet", smart_flops / 1e6, smart_memory / (1024 * 1024))

    return Table4Result(rows=[pcg_row, tomp_row, smart_row], grid_size=grid_size)
