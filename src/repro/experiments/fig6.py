"""Figure 6 + Section 6.1 correlations: DivNorm, CumDivNorm and Qloss^ts.

Runs one input problem in lockstep with an approximate model and the exact
PCG reference, recording after every time step the DivNorm, its running sum
(CumDivNorm) and the quality loss so far (Qloss^ts, the density error against
the reference frame).  The paper's observations:

1. DivNorm rises over the first steps and converges to a stable value;
2. CumDivNorm and Qloss^ts share the same growth trend, with strong
   Pearson (0.61) and Spearman (0.79) correlation across problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cum_divnorm, pearson_r, quality_loss, spearman_r
from repro.data import generate_problems
from repro.fluid import PCGSolver

from .common import Artifacts, build_artifacts, format_table
from .runners import density_history

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    divnorm: np.ndarray  # per step
    cumdivnorm: np.ndarray
    qloss_ts: np.ndarray
    pearson: float
    spearman: float

    def format(self) -> str:
        steps = len(self.divnorm)
        idx = np.unique(np.linspace(0, steps - 1, min(8, steps)).astype(int))
        rows = [
            [int(i), self.divnorm[i], self.cumdivnorm[i], self.qloss_ts[i]] for i in idx
        ]
        table = format_table(
            ["Step", "DivNorm", "CumDivNorm", "Qloss^ts"],
            rows,
            title="Figure 6: per-step quality metrics",
        )
        return table + f"\nPearson rp = {self.pearson:.3f}, Spearman rs = {self.spearman:.3f}"


def run_fig6(
    artifacts: Artifacts | None = None,
    n_problems: int | None = None,
) -> Fig6Result:
    """Regenerate Figure 6 (first problem) and pooled correlations."""
    art = artifacts or build_artifacts()
    scale = art.scale
    n_problems = n_problems or min(3, scale.n_problems)
    problems = generate_problems(n_problems, scale.base_grid, split="eval")

    all_cdn: list[float] = []
    all_q: list[float] = []
    first: Fig6Result | None = None
    for problem in problems:
        ref_frames, _ = density_history(PCGSolver(), problem, scale.n_steps)
        solver = art.input_model_solver()
        approx_frames, sim = density_history(solver, problem, scale.n_steps)
        divnorm = np.array([r.divnorm for r in sim.records])
        cdn = cum_divnorm(divnorm)
        q_ts = np.array(
            [quality_loss(ref_frames[i], approx_frames[i]) for i in range(scale.n_steps)]
        )
        all_cdn.extend(cdn.tolist())
        all_q.extend(q_ts.tolist())
        if first is None:
            first = Fig6Result(divnorm, cdn, q_ts, 0.0, 0.0)

    assert first is not None
    first.pearson = pearson_r(np.array(all_cdn), np.array(all_q))
    first.spearman = spearman_r(np.array(all_cdn), np.array(all_q))
    return first
