"""Figure 8: speedup over PCG across grid sizes, Tompson vs Smart-fluidnet.

The paper reports speedups (solver execution time, relative to PCG) for the
five grid sizes, with Smart-fluidnet beating Tompson's model in every case
(1.46x on average).  The trained networks are fully convolutional, so the
same models evaluate at every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems

from .common import Artifacts, build_artifacts, format_table
from .runners import evaluate_adaptive, evaluate_solver

__all__ = ["Fig8Row", "Fig8Result", "run_fig8"]


@dataclass
class Fig8Row:
    grid_size: int
    pcg_seconds: float
    tompson_speedup: float
    smart_speedup: float


@dataclass
class Fig8Result:
    rows: list[Fig8Row]

    @property
    def mean_smart_over_tompson(self) -> float:
        """Smart's mean advantage over Tompson (the paper reports 1.46x)."""
        return float(np.mean([r.smart_speedup / r.tompson_speedup for r in self.rows]))

    def format(self) -> str:
        table = format_table(
            ["Grid", "PCG (s)", "Tompson speedup", "Smart speedup"],
            [[f"{r.grid_size}x{r.grid_size}", r.pcg_seconds, r.tompson_speedup, r.smart_speedup] for r in self.rows],
            title="Figure 8: speedup over PCG by grid size",
        )
        return table + f"\nmean Smart/Tompson = {self.mean_smart_over_tompson:.2f}x"


def run_fig8(artifacts: Artifacts | None = None) -> Fig8Result:
    """Regenerate Figure 8 at the configured scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    rows = []
    for grid in scale.grid_sizes:
        problems = generate_problems(scale.n_problems, grid, split="eval")
        reference = ReferenceCache(scale.n_steps)
        pcg_secs = float(np.mean([reference.reference(p).solve_seconds for p in problems]))
        tomp = evaluate_solver(art.input_model_solver, problems, reference)
        smart = evaluate_adaptive(art.framework, problems, reference)
        t_mean = float(np.mean([s.solve_seconds for s in tomp]))
        s_mean = float(np.mean([s.solve_seconds for s in smart]))
        rows.append(
            Fig8Row(
                grid_size=grid,
                pcg_seconds=pcg_secs,
                tompson_speedup=pcg_secs / max(t_mean, 1e-12),
                smart_speedup=pcg_secs / max(s_mean, 1e-12),
            )
        )
    return Fig8Result(rows=rows)
