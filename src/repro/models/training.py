"""Model training: DivNorm optimisation with rollout augmentation.

Training only on exact-solver states leaves a distribution gap: at inference
the network sees divergence fields produced by *its own* imperfect
projections.  Because the DivNorm objective is unsupervised (no PCG labels
needed), we close the gap DAgger-style: roll the simulator forward with the
partially-trained network, harvest the states it visits, and fine-tune on
the combined set.  This mirrors the long-term-stability training of the
original FluidNet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fluid import FluidSimulator, SimulationConfig, divnorm_weights
from repro.fluid.pcg import SolveResult
from repro.nn import Adam, DivNormLoss, Network, TrainHistory, Trainer

from .arch import ArchSpec
from .solver import NNProjectionSolver

__all__ = [
    "TrainedModel",
    "rollout_frames",
    "train_model",
    "train_nn_pcg_model",
    "merge_datasets",
]


@dataclass
class TrainedModel:
    """An architecture together with its trained weights and measurements."""

    spec: ArchSpec
    network: Network
    history: TrainHistory | None = None
    inference_seconds: float = float("nan")  # measured per-solve time
    quality_loss: float = float("nan")  # measured mean Qloss
    metadata: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Model name (from the architecture spec)."""
        return self.spec.name or "model"

    def solver(self, passes: int = 2) -> NNProjectionSolver:
        """Wrap the trained network as a pressure solver."""
        return NNProjectionSolver(self.network, name=self.name, passes=passes)


class _HarvestingSolver:
    """Solve with a wrapped solver while harvesting normalised rhs frames."""

    def __init__(self, inner, sink: list, stride: int = 1):
        self.inner = inner
        self.sink = sink
        self.stride = stride
        self.name = getattr(inner, "name", "harvest")
        self._count = 0

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        if self._count % self.stride == 0:
            fluid = ~solid
            if fluid.any():
                from repro.fluid.laplacian import remove_nullspace

                bz = remove_nullspace(b, solid)
                sigma = float(bz[fluid].std())
                if sigma > 1e-12:
                    self.sink.append((bz / sigma, solid.copy()))
        self._count += 1
        return self.inner.solve(b, solid)


def rollout_frames(
    network: Network,
    problems,
    n_steps: int = 8,
    stride: int = 1,
    passes: int = 2,
    config: SimulationConfig | None = None,
) -> dict[str, np.ndarray]:
    """Collect DivNorm training frames from network-driven rollouts."""
    raw: list[tuple[np.ndarray, np.ndarray]] = []
    for prob in problems:
        grid, source = prob.materialize()
        solver = _HarvestingSolver(NNProjectionSolver(network, passes=passes), raw, stride)
        FluidSimulator(grid, solver, source, config or SimulationConfig()).run(n_steps)
    if not raw:
        raise ValueError("rollouts produced no usable frames")
    xs = np.stack([np.stack([bn, solid.astype(np.float64)]) for bn, solid in raw])
    bs = xs[:, :1]
    solids = np.stack([solid for _, solid in raw])
    weights = np.stack([divnorm_weights(solid) for _, solid in raw])
    return {"x": xs, "b": bs, "solid": solids, "weights": weights}


def merge_datasets(*datasets: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Concatenate datasets over the keys they all share."""
    keys = set(datasets[0])
    for d in datasets[1:]:
        keys &= set(d)
    return {k: np.concatenate([d[k] for d in datasets]) for k in keys}


def train_model(
    spec: ArchSpec,
    data: dict[str, np.ndarray],
    epochs: int = 30,
    lr: float = 2e-3,
    batch_size: int = 16,
    rng=0,
    network: Network | None = None,
    rollout_problems=None,
    rollout_rounds: int = 0,
    rollout_epochs: int = 15,
    rollout_steps: int = 8,
) -> TrainedModel:
    """Train (or fine-tune) a model with the DivNorm objective.

    If ``network`` is given, training fine-tunes those weights (used by the
    transformation operations for weight inheritance); otherwise a fresh
    network is built from ``spec``.  When ``rollout_problems`` is provided,
    ``rollout_rounds`` of self-rollout augmentation follow the initial fit.
    """
    rng = np.random.default_rng(rng)
    net = network if network is not None else spec.build(rng=rng)
    trainer = Trainer(net, DivNormLoss(), Adam(net.parameters(), lr=lr), rng=rng)
    history = trainer.fit(data, epochs=epochs, batch_size=batch_size)
    if rollout_problems and rollout_rounds > 0:
        for _ in range(rollout_rounds):
            extra = rollout_frames(net, rollout_problems, n_steps=rollout_steps)
            merged = merge_datasets(
                {k: data[k] for k in ("x", "b", "solid", "weights")}, extra
            )
            more = trainer.fit(merged, epochs=rollout_epochs, batch_size=batch_size)
            history.train_loss.extend(more.train_loss)
            history.step_loss.extend(more.step_loss)

    # measure single-solve inference time on a representative frame
    solver = NNProjectionSolver(net, passes=1)
    b = data["b"][0, 0]
    solid = data["solid"][0]
    t0 = time.perf_counter()
    reps = 3
    for _ in range(reps):
        solver.solve(b, solid)
    inference = (time.perf_counter() - t0) / reps
    return TrainedModel(spec=spec, network=net, history=history, inference_seconds=inference)


def train_nn_pcg_model(
    problems=None,
    spec: ArchSpec | None = None,
    epochs: int = 30,
    lr: float = 2e-3,
    batch_size: int = 16,
    rng=0,
    n_steps: int = 8,
    grid_size: int = 64,
    n_problems: int = 6,
) -> TrainedModel:
    """The reproducible training recipe behind the NN-preconditioned solver.

    Direction networks for :class:`repro.fluid.NNPCGSolver` must handle
    both the step's Poisson rhs (iteration 1) and the CG residuals every
    later iteration feeds them.  This merges the standard rhs dataset
    (:func:`repro.data.collect_training_frames`) with harvested MIC(0)-PCG
    residual frames (:func:`repro.data.collect_residual_frames`) and fits
    the unsupervised DivNorm objective — a residual is just another
    Poisson problem, so no extra labels are needed.  Training at 64²
    transfers to larger grids because the solver applies the network
    across a restriction pyramid whose levels match the training scale.

    The committed weights (``results/models/nn_pcg_bench``) are the
    output of this function at its defaults; the NN-PCG iteration gate in
    ``tests/fluid/test_nn_pcg.py`` pins their iteration counts.
    """
    from repro.data import (
        collect_residual_frames,
        collect_training_frames,
        generate_problems,
    )

    if problems is None:
        problems = generate_problems(n_problems, grid_size, split="train")
    data = collect_training_frames(problems, n_steps=n_steps)
    residuals = collect_residual_frames(problems, data=data)
    merged = merge_datasets(data, residuals)
    if spec is None:
        from .tompson import tompson_arch

        spec = tompson_arch(channels=8, name="nn_pcg")
    return train_model(spec, merged, epochs=epochs, lr=lr, batch_size=batch_size, rng=rng)
