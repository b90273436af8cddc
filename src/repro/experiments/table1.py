"""Table 1: execution time and quality loss of PCG / Tompson / Yang.

The paper reports, averaged over its input problems, the Poisson-solve
execution time and the mean quality loss of the exact PCG solver and the two
neural baselines.  The expected shape: PCG is the slowest, with (by
definition here) zero loss; Yang is faster than Tompson but several times
less accurate.  On the paper's GPU the gap to PCG is orders of magnitude;
against this repository's compiled MICCG(0) at CPU scale it is much smaller
(see EXPERIMENTS.md).

The three methods are timed in :data:`ROUNDS` rounds over the same
problems.  Within a round each problem runs through every method in turn,
and each method reports its median round, so host load that comes and goes
during a run lands on every method alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems
from repro.fluid import PCGSolver

from .common import Artifacts, build_artifacts, format_table
from .runners import evaluate_solver

__all__ = ["Table1Row", "Table1Result", "run_table1"]

#: interleaved timing rounds per method; each method reports its median round
ROUNDS = 3

#: paper-reported values for side-by-side comparison (ms, qloss)
PAPER_TABLE1 = {
    "pcg": (2.34e8, None),
    "tompson": (7.19e4, 1.3e-2),
    "yang": (3.20e4, 4.9e-2),
}


@dataclass
class Table1Row:
    method: str
    execution_ms: float
    avg_quality_loss: float | None


@dataclass
class Table1Result:
    rows: list[Table1Row]

    def format(self) -> str:
        return format_table(
            ["Method", "Execution Time (ms)", "Avg. Quality Loss"],
            [[r.method, r.execution_ms, "--" if r.avg_quality_loss is None else r.avg_quality_loss] for r in self.rows],
            title="Table 1: solver comparison",
        )

    def by_method(self, name: str) -> Table1Row:
        return next(r for r in self.rows if r.method == name)


def run_table1(artifacts: Artifacts | None = None) -> Table1Result:
    """Regenerate Table 1 at the configured scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    problems = generate_problems(scale.n_problems, scale.base_grid, split="eval")
    reference = ReferenceCache(scale.n_steps)

    # the paper's baseline cost is its standard MICCG(0) implementation,
    # the same solver Fig. 8, the exact arm and the restart path run
    factories = {
        "pcg": PCGSolver,
        "tompson": art.input_model_solver,
        "yang": lambda: art.yang.solver(passes=art.framework.config.solver_passes),
    }
    round_ms: dict[str, list[float]] = {name: [] for name in factories}
    quality: dict[str, float] = {}
    for _ in range(ROUNDS):
        stats = {name: [] for name in factories}
        for problem in problems:
            for name, factory in factories.items():
                stats[name] += evaluate_solver(factory, [problem], reference)
        for name, runs in stats.items():
            round_ms[name].append(float(np.mean([s.solve_seconds for s in runs]) * 1000.0))
            quality[name] = float(np.mean([s.quality_loss for s in runs]))
    return Table1Result(
        rows=[
            Table1Row(
                method=name,
                execution_ms=float(np.median(round_ms[name])),
                avg_quality_loss=None if name == "pcg" else quality[name],
            )
            for name in factories
        ]
    )
