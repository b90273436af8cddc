"""Section 4 sensitivity studies of the transformation parameters.

The paper varies four construction parameters and observes the effect on
simulation quality:

1. pruning more than one layer causes large quality violations;
2. pooling 10% of neurons matches 5% quality at better speed, while 20-30%
   lose too much;
3. dropout rates of 5% and 10% beat 15%;
4. applying dropout to 15-20 models yields the 2-5 runtime models the
   scheduler wants.

We reproduce each sweep at reduced scale: pool counts substitute for neuron
percentages (our pooling operates on whole stages), and quality is measured
as mean Qloss over evaluation problems after a fixed fine-tune.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ReferenceCache, dropout, pooling, shallow
from repro.data import generate_problems
from repro.models import TrainedModel, train_model

from .common import Artifacts, build_artifacts, format_table
from .runners import evaluate_solver

__all__ = ["SensitivityResult", "run_sec4_sensitivity"]


@dataclass
class SensitivityResult:
    prune_depth: dict[int, float]  # layers pruned -> mean qloss
    pool_stages: dict[int, float]  # stages pooled -> mean qloss
    dropout_rate: dict[float, float]  # p -> mean qloss
    n_dropout_models: dict[int, int]  # n_dropout -> family size

    def format(self) -> str:
        parts = [
            format_table(
                ["Layers pruned", "Mean Qloss"],
                [[k, v] for k, v in sorted(self.prune_depth.items())],
                title="Sensitivity (1): pruning depth",
            ),
            format_table(
                ["Stages pooled", "Mean Qloss"],
                [[k, v] for k, v in sorted(self.pool_stages.items())],
                title="Sensitivity (2): pooling amount",
            ),
            format_table(
                ["Dropout rate", "Mean Qloss"],
                [[k, v] for k, v in sorted(self.dropout_rate.items())],
                title="Sensitivity (3): dropout rate",
            ),
            format_table(
                ["# dropout models", "Family size"],
                [[k, v] for k, v in sorted(self.n_dropout_models.items())],
                title="Sensitivity (4): dropout-model count",
            ),
        ]
        return "\n\n".join(parts)


def run_sec4_sensitivity(artifacts: Artifacts | None = None) -> SensitivityResult:
    """Regenerate the Section 4 sensitivity sweeps at reduced scale."""
    art = artifacts or build_artifacts()
    scale = art.scale
    data = art.train_data
    base = art.framework.input_model
    rng = np.random.default_rng(11)
    problems = generate_problems(max(2, scale.n_problems // 2), scale.base_grid, split="eval")
    reference = ReferenceCache(scale.n_steps)
    tune = dict(epochs=art.scale.offline.construction.fine_tune_epochs, rng=rng)
    passes = art.framework.config.solver_passes

    def tuned(model: TrainedModel) -> TrainedModel:
        return train_model(model.spec, data, network=model.network, **tune)

    def mean_qloss(model: TrainedModel) -> float:
        stats = evaluate_solver(lambda: model.solver(passes=passes), problems, reference)
        return float(np.mean([s.quality_loss for s in stats]))

    # (1) pruning depth: 1 vs 2 deleted stages
    prune_depth = {}
    one = tuned(shallow(base, stage=2, rng=rng))
    prune_depth[1] = mean_qloss(one)
    two = tuned(shallow(one, stage=1, rng=rng))
    prune_depth[2] = mean_qloss(two)

    # (2) pooling amount: 1, 2, 3 pooled stages
    pool_stages = {}
    cur = base
    for n_pooled in (1, 2, 3):
        unpooled = [i for i, s in enumerate(cur.spec.stages) if s.pool == 1]
        cur = tuned(pooling(cur, stage=int(rng.choice(unpooled)), rng=rng))
        pool_stages[n_pooled] = mean_qloss(cur)

    # (3) dropout rate
    dropout_rate = {}
    for p in (0.05, 0.10, 0.15):
        model = tuned(dropout(base, stage=2, p=p, rng=rng))
        dropout_rate[p] = mean_qloss(model)

    # (4) number of dropout models: family size bookkeeping (cheap: no tuning)
    from repro.core import ConstructionConfig, construct_model_family

    n_dropout_models = {}
    for n_drop in (2, 4, 6):
        cfg = ConstructionConfig(
            n_shallow=2, narrows_per_model=1, n_dropout=n_drop, fine_tune_epochs=0
        )
        family = construct_model_family(base, data, cfg, rng=rng)
        n_dropout_models[n_drop] = len(family)

    return SensitivityResult(
        prune_depth=prune_depth,
        pool_stages=pool_stages,
        dropout_rate=dropout_rate,
        n_dropout_models=n_dropout_models,
    )
