"""Minibatch training loop with per-epoch wall-clock telemetry."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.metrics import MetricsRegistry, get_metrics

from .losses import Loss
from .network import Network
from .optim import Optimizer

__all__ = ["TrainHistory", "Trainer"]


@dataclass
class TrainHistory:
    """Per-epoch mean training (and optional validation) loss."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    step_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        """Last recorded epoch loss (inf if never trained)."""
        return self.train_loss[-1] if self.train_loss else float("inf")


class Trainer:
    """Train a network with a loss over a dict-of-arrays dataset.

    The dataset maps names to arrays whose leading dimension is the sample
    axis; the key ``"x"`` is the network input and the remaining keys are
    passed to the loss (e.g. ``"y"`` for MSE, or ``"b"``/``"solid"``/
    ``"weights"`` for the DivNorm objective).
    """

    def __init__(
        self,
        network: Network,
        loss: Loss,
        optimizer: Optimizer,
        rng=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.network = network
        self.loss = loss
        self.optimizer = optimizer
        self.rng = np.random.default_rng(rng)
        self._metrics = metrics

    def _batches(self, data: dict[str, np.ndarray], batch_size: int, shuffle: bool):
        n = len(data["x"])
        order = self.rng.permutation(n) if shuffle else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yield {k: v[idx] for k, v in data.items()}

    def evaluate(self, data: dict[str, np.ndarray], batch_size: int = 64) -> float:
        """Mean loss over a dataset without updating weights."""
        total, count = 0.0, 0
        for batch in self._batches(data, batch_size, shuffle=False):
            pred = self.network.forward(batch["x"], training=False)
            value, _ = self.loss.value_and_grad(pred, batch)
            bs = len(batch["x"])
            total += value * bs
            count += bs
        return total / max(count, 1)

    def fit(
        self,
        data: dict[str, np.ndarray],
        epochs: int = 10,
        batch_size: int = 16,
        shuffle: bool = True,
        validation: dict[str, np.ndarray] | None = None,
        scheduler=None,
        verbose: bool = False,
    ) -> TrainHistory:
        """Run the optimisation loop and return the loss history.

        ``scheduler`` may be any :class:`repro.nn.schedulers.LRScheduler`;
        it is stepped once per epoch.
        """
        if "x" not in data:
            raise ValueError('dataset must contain an "x" entry')
        metrics = self._metrics if self._metrics is not None else get_metrics()
        history = TrainHistory()
        for epoch in range(epochs):
            t0 = time.perf_counter()
            epoch_total, epoch_count = 0.0, 0
            for batch in self._batches(data, batch_size, shuffle):
                pred = self.network.forward(batch["x"], training=True)
                value, grad = self.loss.value_and_grad(pred, batch)
                self.optimizer.zero_grad()
                self.network.backward(grad)
                self.optimizer.step()
                bs = len(batch["x"])
                epoch_total += value * bs
                epoch_count += bs
                history.step_loss.append(value)
                metrics.inc("train/batches")
            history.train_loss.append(epoch_total / max(epoch_count, 1))
            history.epoch_seconds.append(time.perf_counter() - t0)
            metrics.inc("train/epochs")
            metrics.inc("train/samples", epoch_count)
            if scheduler is not None:
                scheduler.step()
            if validation is not None:
                history.val_loss.append(self.evaluate(validation, batch_size))
            if verbose:  # pragma: no cover
                msg = f"epoch {epoch + 1}/{epochs}: loss={history.train_loss[-1]:.5f}"
                if validation is not None:
                    msg += f" val={history.val_loss[-1]:.5f}"
                print(msg)
        return history
