"""Micro-scale artifacts shared by the experiment tests.

Built once per session, never touching the on-disk cache, with every knob at
its minimum so the whole suite stays fast while exercising the same code
paths as the real benchmark scales.  As there, the Tompson baseline is the
framework's own input model, and Algorithm 2 checks from step 3 on.
"""

import numpy as np
import pytest

from repro.core import (
    ConstructionConfig,
    OfflineConfig,
    SearchConfig,
    SmartFluidnet,
)
from repro.data import collect_training_frames, generate_problems
from repro.experiments.common import Artifacts, ExperimentScale
from repro.models import ArchSpec, StageSpec, TrainedModel, YangModel
from repro.nn import Adam, DivNormLoss, Trainer


@pytest.fixture(scope="session")
def micro_artifacts() -> Artifacts:
    offline = OfflineConfig(
        grid_size=16,
        n_train_problems=2,
        n_calibration_problems=2,
        n_small_problems=3,
        small_grid_size=16,
        train_steps=4,
        eval_steps=10,
        base_epochs=8,
        rollout_rounds=0,
        search=SearchConfig(
            iterations=1, proposals_per_iteration=2, evaluations_per_iteration=1,
            train_epochs=2, keep=2,
        ),
        construction=ConstructionConfig(
            n_shallow=2, narrows_per_model=1, n_dropout=1, fine_tune_epochs=1
        ),
        mlp_epochs=40,
        mlp_samples=32,
        check_interval=3,
        skip_first=3,
    )
    scale = ExperimentScale(
        name="micro",
        grid_sizes=(16,),
        base_grid=16,
        n_problems=2,
        n_steps=10,
        offline=offline,
        yang_epochs=4,
    )
    rng = np.random.default_rng(0)
    framework = SmartFluidnet.build_offline(config=offline, rng=rng)

    probs = generate_problems(2, 16, split="train")
    data = collect_training_frames(probs, n_steps=4)
    yang_net = YangModel(hidden=(8,), rng=1)
    trainer = Trainer(yang_net, DivNormLoss(), Adam(yang_net.parameters(), lr=3e-3), rng=rng)
    hist = trainer.fit(
        {k: data[k] for k in ("x", "b", "solid", "weights")}, epochs=4, batch_size=8
    )
    yang = TrainedModel(
        spec=ArchSpec([StageSpec(kernel=3, channels=1)], name="yang"),
        network=yang_net,
        history=hist,
    )
    return Artifacts(scale=scale, framework=framework, yang=yang, train_data=data)
