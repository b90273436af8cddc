"""End-to-end tests of the Smart-fluidnet framework (micro scale)."""

import numpy as np
import pytest

from repro.core import (
    ConstructionConfig,
    OfflineConfig,
    ReferenceCache,
    SearchConfig,
    SmartFluidnet,
    UserRequirement,
    quality_loss,
    run_problem,
)
from repro.data import generate_problems


def micro_config(**overrides) -> OfflineConfig:
    cfg = OfflineConfig(
        grid_size=16,
        n_train_problems=2,
        n_calibration_problems=2,
        n_small_problems=3,
        small_grid_size=16,
        train_steps=4,
        eval_steps=10,
        base_epochs=6,
        rollout_rounds=0,
        search=SearchConfig(
            iterations=1, proposals_per_iteration=2, evaluations_per_iteration=1,
            train_epochs=2, keep=2,
        ),
        construction=ConstructionConfig(
            n_shallow=2, narrows_per_model=1, n_dropout=1, fine_tune_epochs=1
        ),
        mlp_epochs=40,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture(scope="module")
def framework():
    return SmartFluidnet.build_offline(config=micro_config(), rng=0)


class TestOfflineBuild:
    def test_runtime_models_selected(self, framework):
        assert 1 <= len(framework.runtime_models) <= 5
        names = [s.name for s in framework.runtime_models]
        assert len(set(names)) == len(names)

    def test_candidates_are_pareto_subset(self, framework):
        assert 0 < len(framework.candidates) <= 1 + 2 + 7  # base + accurate + family

    def test_default_requirement_from_base_model(self, framework):
        assert framework.requirement.q > 0
        assert framework.requirement.t > 0

    def test_knn_databases_cover_runtime_models(self, framework):
        for sel in framework.runtime_models:
            assert framework.knn.database_size(sel.name) > 0

    def test_records_collected_for_all_models(self, framework):
        names = {r.model_name for r in framework.records}
        assert "tompson" in names

    def test_exact_seconds_positive(self, framework):
        assert framework.exact_seconds > 0

    def test_explicit_requirement_respected(self):
        req = UserRequirement(q=0.5, t=100.0)
        sf = SmartFluidnet.build_offline(
            requirement=req, config=micro_config(run_search=False), rng=1
        )
        assert sf.requirement == req

    def test_needs_runtime_models(self):
        with pytest.raises(ValueError):
            SmartFluidnet(runtime_models=[], knn=None, requirement=UserRequirement(0.1, 1.0))


class TestOnlineRun:
    def test_run_completes(self, framework):
        prob = generate_problems(1, 16, split="eval")[0]
        run = framework.run(prob)
        assert len(run.result.records) == framework.config.eval_steps
        assert run.total_seconds > 0
        assert sum(run.stats.steps_per_model.values()) == framework.config.eval_steps

    def test_run_deterministic_density_given_same_decisions(self, framework):
        prob = generate_problems(1, 16, split="eval")[0]
        a = framework.run(prob)
        b = framework.run(prob)
        np.testing.assert_allclose(a.result.density, b.result.density)

    def test_evaluate_returns_quality(self, framework):
        probs = generate_problems(2, 16, split="eval")
        out = framework.evaluate(probs)
        assert len(out) == 2
        for run, q in out:
            assert q >= 0.0

    def test_unswitched_run_equals_its_start_model_bitwise(self, framework):
        """One rung and a requirement every prediction meets: Smart neither
        switches nor restarts, so its density, and its Qloss against PCG,
        are the rung's own run, bit for bit."""
        config = framework.config
        rung = framework.runtime_models[0]
        smart = SmartFluidnet(
            runtime_models=[rung],
            knn=framework.knn,
            requirement=UserRequirement(q=1e9, t=1e9),
            config=config,
        )
        steps = config.eval_steps
        reference = ReferenceCache(steps, config.simulation)
        for problem in generate_problems(2, 16, split="eval"):
            # an interval of 3 puts a check inside the 10-step run
            run = smart.run(problem, check_interval=3)
            assert not run.restarted
            assert run.stats.switches == []
            assert run.stats.predictions  # the check ran and kept the rung
            alone = run_problem(
                rung.model.solver(passes=config.solver_passes),
                problem,
                steps,
                config.simulation,
            )
            np.testing.assert_array_equal(run.result.density, alone.density)
            ref = reference.reference(problem)
            assert quality_loss(ref.density, run.result.density) == quality_loss(
                ref.density, alone.density
            )

    def test_no_mlp_mode_runs(self, framework):
        prob = generate_problems(1, 16, split="eval")[0]
        run = framework.run(prob, use_mlp_start=False, upgrade_only=True)
        assert len(run.result.records) == framework.config.eval_steps

    def test_restart_fallback_produces_exact_run(self):
        """Force an impossible requirement: the controller must restart with
        PCG and still deliver a full result."""
        sf = SmartFluidnet.build_offline(
            requirement=UserRequirement(q=1e-9, t=1e9),
            config=micro_config(run_search=False),
            rng=2,
        )
        prob = generate_problems(1, 16, split="eval")[0]
        run = sf.run(prob)
        if run.restarted:  # KNN may legitimately predict success on tiny dbs
            assert len(run.result.records) == sf.config.eval_steps
            assert run.result.records[-1].projection.solver_name == "pcg"
