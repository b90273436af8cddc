"""Scenario-aware farm jobs: spec round-trips, compat shim, checkpoint/resume."""

import numpy as np
import pytest

from repro.farm import JobSpec, run_job


class TestJobSpecScenario:
    def test_default_scenario_is_smoke_plume(self):
        spec = JobSpec(job_id="j")
        assert spec.scenario == "smoke_plume"
        assert spec.checkpoint_key == f"j.smoke_plume.{spec.state_key[:8]}"

    def test_scenario_string_canonicalised(self):
        spec = JobSpec(job_id="j", scenario="dam_break:gravity=2.0,grid=16")
        assert spec.scenario == "dam_break:gravity=2.0,grid=16"
        assert spec.scenario_spec.get("grid") == 16

    def test_round_trip_preserves_scenario(self):
        spec = JobSpec(job_id="j", scenario="dam_break:grid=16", steps=4)
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.scenario == "dam_break:grid=16"

    def test_legacy_dict_loads_as_smoke_plume(self):
        d = JobSpec(job_id="j", steps=4).to_dict()
        del d["scenario"]
        restored = JobSpec.from_dict(d)
        assert restored.scenario == "smoke_plume"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            JobSpec(job_id="j", scenario="warp_drive")
        with pytest.raises(ValueError, match="malformed"):
            JobSpec(job_id="j", scenario="dam_break:grid")

    def test_checkpoint_key_distinguishes_scenarios(self):
        plain = JobSpec(job_id="j").checkpoint_key
        dam = JobSpec(job_id="j", scenario="dam_break").checkpoint_key
        dam16 = JobSpec(job_id="j", scenario="dam_break:grid=16").checkpoint_key
        assert len({plain, dam, dam16}) == 3
        assert dam.startswith("j.dam_break.")
        assert dam16.startswith("j.dam_break-")

    def test_checkpoint_key_distinguishes_dynamics_not_step_budget(self):
        # a bigger step budget must reuse the checkpoint (a checkpoint is a
        # trajectory prefix), while any change to the dynamics re-keys it
        base = JobSpec(job_id="j", steps=4)
        assert JobSpec(job_id="j", steps=16).checkpoint_key == base.checkpoint_key
        assert JobSpec(job_id="j", seed=1).checkpoint_key != base.checkpoint_key
        assert JobSpec(job_id="j", solver="nn").checkpoint_key != base.checkpoint_key
        assert (
            JobSpec(job_id="j", divnorm_limit=1.0).checkpoint_key
            != base.checkpoint_key
        )


class TestScenarioJobs:
    def test_dam_break_job_completes(self):
        res = run_job(JobSpec(job_id="dam", grid_size=16, scenario="dam_break", steps=4))
        assert res.ok
        assert res.steps_done == 4
        assert res.solver_used == "pcg"  # requested kind; wrapped per-scenario
        assert np.isfinite(res.final_divnorm)

    def test_moving_cylinder_job_completes(self):
        res = run_job(
            JobSpec(job_id="cyl", grid_size=16, scenario="moving_cylinder", steps=4)
        )
        assert res.ok
        assert np.isfinite(res.final_divnorm)

    def test_scenario_grid_param_overrides_grid_size(self):
        # an explicit grid parameter in the scenario wins over grid_size
        a = run_job(JobSpec(job_id="a", grid_size=24, scenario="dam_break:grid=16", steps=2))
        b = run_job(JobSpec(job_id="b", grid_size=16, scenario="dam_break:grid=16", steps=2))
        assert a.ok and b.ok
        assert a.final_divnorm == b.final_divnorm

    def test_free_surface_checkpoint_resume_matches_straight_run(self, tmp_path):
        base = dict(grid_size=16, seed=5, scenario="dam_break:grid=16", steps=6)
        straight = run_job(JobSpec(job_id="dam", **base))
        # interrupted run: checkpoint at step 3, then a fresh process resumes
        partial = dict(base, steps=3, checkpoint_every=3)
        first = run_job(
            JobSpec(job_id="dam", **partial), checkpoint_dir=tmp_path
        )
        assert first.ok and first.steps_done == 3
        ckpt = tmp_path / f"{JobSpec(job_id='dam', **base).checkpoint_key}.ckpt.npz"
        assert ckpt.exists()
        resumed = run_job(JobSpec(job_id="dam", **base), checkpoint_dir=tmp_path)
        assert resumed.ok
        assert resumed.resumed_from == 3
        assert resumed.final_divnorm == straight.final_divnorm

    def test_moving_solid_checkpoint_restores_clock(self, tmp_path):
        base = dict(grid_size=16, seed=2, scenario="moving_cylinder:grid=16", steps=6)
        straight = run_job(JobSpec(job_id="cyl", **base))
        run_job(
            JobSpec(job_id="cyl", **dict(base, steps=3, checkpoint_every=3)),
            checkpoint_dir=tmp_path,
        )
        resumed = run_job(JobSpec(job_id="cyl", **base), checkpoint_dir=tmp_path)
        assert resumed.ok
        assert resumed.resumed_from == 3
        # the mover's clock is part of the checkpoint: the resumed run's
        # trajectory must match the uninterrupted one exactly
        assert resumed.final_divnorm == straight.final_divnorm

    def test_default_scenario_job_matches_pre_scenario_behaviour(self):
        # the scenario field's default must not change what jobs compute
        from repro.data import InputProblem
        from repro.fluid import FluidSimulator, PCGSolver
        from repro.metrics import NULL_METRICS

        res = run_job(JobSpec(job_id="j", grid_size=16, seed=3, steps=4))
        grid, source = InputProblem(16, 3).materialize()
        sim = FluidSimulator(grid, PCGSolver(metrics=NULL_METRICS), source,
                             metrics=NULL_METRICS)
        direct = sim.run(4)
        assert res.final_divnorm == direct.records[-1].divnorm
