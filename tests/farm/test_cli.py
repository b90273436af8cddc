"""The `repro farm` CLI subcommand, including the acceptance scenario."""

import json

import pytest

from repro.cli import main
from repro.farm import SOLVER_CHOICES, JobSpec, SimulationFarm


@pytest.mark.parametrize("solver", SOLVER_CHOICES)
def test_simulate_computes_the_bits_of_a_serial_farm_job(solver, capsys):
    """``repro simulate`` builds its run with the farm's factory, so it
    matches a farm job of the same scenario, grid, seed and steps."""
    argv = ["simulate", "--grid", "16", "--seed", "3", "--steps", "3", "--json"]
    assert main(argv + ["--solver", solver]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    job = JobSpec(job_id="twin", grid_size=16, seed=3, steps=3, solver=solver)
    result = SimulationFarm(backend="serial").run([job]).results[0]
    assert result.ok and not result.degraded
    assert result.final_divnorm == steps[-1]["divnorm"]


class TestFarmCLI:
    def test_eight_jobs_with_injected_crash_all_complete(self, capsys):
        # acceptance criteria: >= 8 concurrent jobs, one injected worker
        # failure, all jobs complete (checkpoint resume or PCG degradation)
        code = main(
            [
                "farm",
                "--grid", "16",
                "--steps", "3",
                "--jobs", "8",
                "--workers", "4",
                "--checkpoint-every", "1",
                "--inject-failure", "2",
                "--retries", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8 jobs completed" in out
        assert "resumed@" in out or "degraded->pcg" in out

    def test_json_output_carries_report(self, capsys):
        code = main(
            [
                "farm",
                "--grid", "16",
                "--steps", "2",
                "--jobs", "2",
                "--backend", "serial",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] == 2
        assert report["backend"] == "serial"
        assert report["jobs_per_second"] > 0
        assert report["metrics"]["counters"]["sim/steps"] == 4.0

    def test_injected_raise_in_serial_backend_degrades(self, capsys):
        code = main(
            [
                "farm",
                "--grid", "16",
                "--steps", "3",
                "--jobs", "2",
                "--backend", "serial",
                "--inject-failure", "0",
                "--fail-mode", "raise",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 jobs completed" in out
        assert "degraded->pcg" in out

    def test_dam_break_fleet_with_checkpoint_resume(self, capsys, tmp_path):
        # acceptance criteria: a free-surface fleet runs end-to-end on the
        # process pool, surviving an injected crash via checkpoint resume
        code = main(
            [
                "farm",
                "--scenario", "dam_break:grid=16",
                "--steps", "3",
                "--jobs", "4",
                "--workers", "2",
                "--checkpoint-every", "1",
                "--checkpoint-dir", str(tmp_path),
                "--inject-failure", "1",
                "--retries", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 jobs completed" in out
        assert list(tmp_path.glob("*.dam_break-*.ckpt.npz"))

    def test_scenario_flag_propagates_to_json_report(self, capsys):
        code = main(
            [
                "farm",
                "--scenario", "moving_cylinder:grid=16",
                "--steps", "2",
                "--jobs", "2",
                "--backend", "serial",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] == 2

    def test_serial_backend_with_nn_jobs(self, capsys):
        code = main(
            [
                "farm",
                "--grid", "16",
                "--steps", "2",
                "--jobs", "3",
                "--solver", "nn",
                "--backend", "serial",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] == 3
        assert report["metrics"]["counters"]["sim/solver/nn/solves"] == 6.0
