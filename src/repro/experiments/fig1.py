"""Figure 1: distribution of the Tompson model's quality loss.

The paper histograms the quality loss of Tompson's model over its input
problems, showing a wide spread (most mass between 0.01 and 0.02), which
motivates using multiple models: a fixed model violates tight requirements
on a large fraction of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems

from .common import Artifacts, build_artifacts, format_table
from .runners import evaluate_solver

__all__ = ["Fig1Result", "run_fig1"]


@dataclass
class Fig1Result:
    bin_edges: np.ndarray
    proportions: np.ndarray
    losses: np.ndarray

    def format(self) -> str:
        rows = [
            [f"[{self.bin_edges[i]:.3f}, {self.bin_edges[i + 1]:.3f})", f"{100 * p:.1f}%"]
            for i, p in enumerate(self.proportions)
        ]
        return format_table(
            ["Quality-loss bin", "Proportion of inputs"],
            rows,
            title="Figure 1: Tompson quality-loss distribution",
        )

    def violation_rate(self, q: float) -> float:
        """Fraction of inputs whose loss exceeds a requirement ``q``."""
        return float((self.losses > q).mean())


def run_fig1(artifacts: Artifacts | None = None, n_bins: int = 10) -> Fig1Result:
    """Regenerate Figure 1 at the configured scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    problems = generate_problems(scale.n_problems, scale.base_grid, split="eval")
    reference = ReferenceCache(scale.n_steps)
    stats = evaluate_solver(art.input_model_solver, problems, reference)
    losses = np.array([s.quality_loss for s in stats])
    edges = np.linspace(0.0, max(losses.max() * 1.05, 1e-6), n_bins + 1)
    counts, _ = np.histogram(losses, bins=edges)
    return Fig1Result(bin_edges=edges, proportions=counts / len(losses), losses=losses)
