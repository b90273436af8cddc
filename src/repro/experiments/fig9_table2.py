"""Figure 9 and Table 2: quality-loss distributions and success rates by
grid size.

Figure 9 boxplots the per-problem quality loss of Tompson vs Smart-fluidnet
for each grid size; the paper's observations are that Smart's outputs sit
closer to the target and vary less.  Table 2 reports the percentage of input
problems whose simulation meets the quality requirement (the requirement is
Tompson's mean loss, the paper's convention).
The Tompson arm is the framework's input model, so Table 2 also counts the
problems on which Smart switched model or restarted with PCG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems

from .common import Artifacts, build_artifacts, format_table
from .runners import evaluate_adaptive, evaluate_solver

__all__ = ["BoxStats", "Fig9Table2Row", "Fig9Table2Result", "run_fig9_table2"]


@dataclass
class BoxStats:
    """Five-number summary of a sample (the paper's boxplots)."""

    median: float
    q1: float
    q3: float
    lo: float
    hi: float
    mean: float

    @classmethod
    def of(cls, values: np.ndarray) -> "BoxStats":
        v = np.asarray(values, dtype=np.float64)
        return cls(
            median=float(np.median(v)),
            q1=float(np.percentile(v, 25)),
            q3=float(np.percentile(v, 75)),
            lo=float(v.min()),
            hi=float(v.max()),
            mean=float(v.mean()),
        )

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass
class Fig9Table2Row:
    grid_size: int
    tompson: BoxStats
    smart: BoxStats
    tompson_success: float
    smart_success: float
    #: problems on which Smart switched model or restarted with PCG
    smart_adapted: int


@dataclass
class Fig9Table2Result:
    rows: list[Fig9Table2Row]
    requirement_q: float

    def format(self) -> str:
        fig9 = format_table(
            ["Grid", "Tompson med [q1,q3]", "Smart med [q1,q3]"],
            [
                [
                    f"{r.grid_size}x{r.grid_size}",
                    f"{r.tompson.median:.4f} [{r.tompson.q1:.4f},{r.tompson.q3:.4f}]",
                    f"{r.smart.median:.4f} [{r.smart.q1:.4f},{r.smart.q3:.4f}]",
                ]
                for r in self.rows
            ],
            title="Figure 9: quality-loss distribution by grid size",
        )
        table2 = format_table(
            ["Grid", "Tompson success", "Smart success", "Smart switched/restarted"],
            [
                [
                    f"{r.grid_size}x{r.grid_size}",
                    f"{100 * r.tompson_success:.2f}%",
                    f"{100 * r.smart_success:.2f}%",
                    r.smart_adapted,
                ]
                for r in self.rows
            ],
            title=f"Table 2: success rate at q <= {self.requirement_q:.4f}",
        )
        return fig9 + "\n\n" + table2


def run_fig9_table2(artifacts: Artifacts | None = None) -> Fig9Table2Result:
    """Regenerate Figure 9 and Table 2 at the configured scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    q_req = art.framework.requirement.q
    rows = []
    for grid in scale.grid_sizes:
        problems = generate_problems(scale.n_problems, grid, split="eval")
        reference = ReferenceCache(scale.n_steps)
        tomp = evaluate_solver(art.input_model_solver, problems, reference)
        smart = evaluate_adaptive(art.framework, problems, reference)
        t_loss = np.array([s.quality_loss for s in tomp])
        s_loss = np.array([s.quality_loss for s in smart])
        rows.append(
            Fig9Table2Row(
                grid_size=grid,
                tompson=BoxStats.of(t_loss),
                smart=BoxStats.of(s_loss),
                tompson_success=float((t_loss <= q_req).mean()),
                smart_success=float((s_loss <= q_req).mean()),
                smart_adapted=sum(1 for s in smart if s.restarted or s.stats.switches),
            )
        )
    return Fig9Table2Result(rows=rows, requirement_q=q_req)
