"""Shared infrastructure for the evaluation experiments.

Every table and figure of the paper is regenerated by one module in this
package.  The paper's nominal workload (20,480 input problems, grids up to
1024x1024, 128 time steps, Titan X GPU) is far beyond a pure-Python CPU
budget, so each experiment reads its workload from an
:class:`ExperimentScale`:

* ``ci``      — seconds-scale, used by the benchmark suite by default;
* ``default`` — minutes-scale, better statistics;
* ``paper``   — the paper's nominal parameters, for users with the budget.

Select with the ``REPRO_SCALE`` environment variable.  The offline phase
(model family + MLP + KNN) is expensive and shared by most experiments, so
:func:`build_artifacts` caches it in-process and on disk under
``.cache/``.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core import (
    ConstructionConfig,
    OfflineConfig,
    SearchConfig,
    SmartFluidnet,
)
from repro.data import collect_training_frames, generate_problems
from repro.models import TrainedModel, YangModel
from repro.nn import Adam, DivNormLoss, Trainer

__all__ = ["ExperimentScale", "Artifacts", "get_scale", "build_artifacts", "format_table"]

_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache"
_ARTIFACT_VERSION = 10  # bump to invalidate on-disk caches


@dataclass
class ExperimentScale:
    """Workload knobs shared by the experiment modules."""

    name: str = "ci"
    grid_sizes: tuple[int, ...] = (16, 24, 32)  # the paper: 128..1024, 5 sizes
    base_grid: int = 32
    n_problems: int = 4  # the paper: 20,480
    n_steps: int = 12  # the paper: 128
    offline: OfflineConfig = field(default_factory=OfflineConfig)
    yang_epochs: int = 20
    rng_seed: int = 0


def _ci_scale() -> ExperimentScale:
    return ExperimentScale(
        name="ci",
        grid_sizes=(16, 24, 32),
        base_grid=32,
        n_problems=4,
        n_steps=12,
        offline=OfflineConfig(
            grid_size=32,
            n_train_problems=6,
            n_calibration_problems=3,
            n_small_problems=12,
            small_grid_size=32,
            train_steps=8,
            eval_steps=12,
            base_epochs=30,
            rollout_rounds=2,
            search=SearchConfig(
                iterations=2,
                proposals_per_iteration=3,
                evaluations_per_iteration=1,
                train_epochs=6,
                keep=3,
            ),
            construction=ConstructionConfig(
                n_shallow=3,
                narrows_per_model=2,
                n_dropout=4,
                fine_tune_epochs=6,
                rollout_rounds=1,
                rollout_epochs=4,
            ),
            mlp_epochs=300,
            check_interval=3,
            skip_first=3,
        ),
        yang_epochs=15,
    )


def _default_scale() -> ExperimentScale:
    scale = _ci_scale()
    return replace(
        scale,
        name="default",
        grid_sizes=(16, 24, 32, 48, 64),
        n_problems=16,
        n_steps=24,
        offline=replace(
            scale.offline,
            n_train_problems=10,
            n_calibration_problems=6,
            n_small_problems=24,
            base_epochs=60,
            rollout_rounds=3,
            eval_steps=24,
            construction=ConstructionConfig(
                n_shallow=5,
                narrows_per_model=4,
                n_dropout=8,
                fine_tune_epochs=8,
                rollout_rounds=1,
                rollout_epochs=6,
            ),
        ),
        yang_epochs=40,
    )


def _paper_scale() -> ExperimentScale:
    scale = _default_scale()
    return replace(
        scale,
        name="paper",
        grid_sizes=(128, 256, 512, 768, 1024),
        base_grid=128,
        n_problems=20480,
        n_steps=128,
        offline=replace(
            scale.offline,
            grid_size=128,
            n_train_problems=64,
            n_calibration_problems=32,
            n_small_problems=128,
            small_grid_size=64,
            base_epochs=200,
            rollout_rounds=4,
            eval_steps=128,
            construction=ConstructionConfig(),  # the paper's 5/10/18 counts
        ),
        yang_epochs=200,
    )


_SCALES = {"ci": _ci_scale, "default": _default_scale, "paper": _paper_scale}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a scale by name or the ``REPRO_SCALE`` environment variable."""
    name = name or os.environ.get("REPRO_SCALE", "ci")
    if name not in _SCALES:
        raise ValueError(f"unknown scale {name!r}; options: {sorted(_SCALES)}")
    return _SCALES[name]()


@dataclass
class Artifacts:
    """Everything the experiments share: framework, Yang's baseline, data."""

    scale: ExperimentScale
    framework: SmartFluidnet
    yang: TrainedModel
    train_data: dict[str, np.ndarray]

    @property
    def requirement(self):
        return self.framework.requirement

    def input_model_solver(self):
        """A fresh solver of the Tompson arm: the model Smart-fluidnet is
        built from (the paper's baseline), at the framework's passes."""
        return self.framework.input_model.solver(passes=self.framework.config.solver_passes)


_MEMORY_CACHE: dict[str, Artifacts] = {}


def build_artifacts(scale: ExperimentScale | None = None, use_disk_cache: bool = True) -> Artifacts:
    """Build (or load) the shared offline artifacts for a scale."""
    scale = scale or get_scale()
    key = f"{scale.name}-v{_ARTIFACT_VERSION}"
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    cache_file = _CACHE_DIR / f"artifacts-{key}.pkl"
    if use_disk_cache and cache_file.exists():
        try:
            with open(cache_file, "rb") as fh:
                artifacts = pickle.load(fh)
            _MEMORY_CACHE[key] = artifacts
            return artifacts
        except Exception:
            cache_file.unlink(missing_ok=True)

    rng = np.random.default_rng(scale.rng_seed)
    framework = SmartFluidnet.build_offline(config=scale.offline, rng=rng)

    # Yang's baseline, trained on the same frames as the input model
    probs = generate_problems(
        scale.offline.n_train_problems, scale.offline.grid_size, split="train"
    )
    data = collect_training_frames(probs, n_steps=scale.offline.train_steps)
    yang_net = YangModel(rng=int(rng.integers(2**31)))
    trainer = Trainer(yang_net, DivNormLoss(), Adam(yang_net.parameters(), lr=3e-3), rng=rng)
    hist = trainer.fit(
        {k: data[k] for k in ("x", "b", "solid", "weights")},
        epochs=scale.yang_epochs,
        batch_size=16,
    )
    from repro.models import ArchSpec, StageSpec

    yang_spec = ArchSpec([StageSpec(kernel=3, channels=1)], name="yang")  # descriptor only
    yang = TrainedModel(spec=yang_spec, network=yang_net, history=hist)

    artifacts = Artifacts(scale=scale, framework=framework, yang=yang, train_data=data)
    _MEMORY_CACHE[key] = artifacts
    if use_disk_cache:
        _CACHE_DIR.mkdir(exist_ok=True)
        with open(cache_file, "wb") as fh:
            pickle.dump(artifacts, fh)
    return artifacts


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Plain-text table used by every benchmark's printed output."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
