"""Tests for visualisation, persistence and the CLI."""

import json

import numpy as np
import pytest

from repro import viz
from repro.cli import build_parser, main
from repro.core import QlossKNNPredictor, SelectedModel, SmartFluidnet, UserRequirement
from repro.data import collect_training_frames, generate_problems
from repro.fluid import MACGrid2D
from repro.io import load_framework, load_model, save_framework, save_model
from repro.models import TrainedModel, tompson_arch


class TestViz:
    def test_ascii_dimensions(self):
        field = np.random.default_rng(0).random((32, 32))
        art = viz.to_ascii(field, width=16)
        lines = art.split("\n")
        assert all(len(line) <= 32 for line in lines)
        assert len(lines) >= 4

    def test_ascii_dark_for_zero_field(self):
        art = viz.to_ascii(np.zeros((16, 16)))
        assert set(art) <= {" ", "\n"}

    def test_ascii_bright_for_peak(self):
        field = np.zeros((8, 8))
        field[0, 0] = 1.0
        assert "@" in viz.to_ascii(field, width=8)

    def test_pgm_header_and_size(self):
        data = viz.to_pgm(np.random.default_rng(0).random((10, 12)))
        assert data.startswith(b"P5\n12 10\n255\n")
        assert len(data) == len(b"P5\n12 10\n255\n") + 120

    def test_save_pgm_appends_suffix(self, tmp_path):
        path = viz.save_pgm(np.zeros((4, 4)), tmp_path / "frame")
        assert path.suffix == ".pgm"
        assert path.exists()

    def test_frame_strip_width(self):
        frames = [np.zeros((8, 8)), np.ones((8, 8))]
        strip = viz.frame_strip(frames, gap=2)
        assert strip.shape == (8, 18)

    def test_frame_strip_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            viz.frame_strip([np.zeros((4, 4)), np.zeros((5, 5))])

    def test_render_velocity(self):
        g = MACGrid2D(8, 8)
        g.u[:] = 3.0
        g.enforce_solid_boundaries()
        speed = viz.render_velocity(g)
        assert speed[4, 4] == pytest.approx(3.0)
        assert (speed[g.solid] == 0).all()


@pytest.fixture(scope="module")
def small_model():
    probs = generate_problems(1, 16, split="train")
    data = collect_training_frames(probs, n_steps=4)
    from repro.models import train_model

    return train_model(tompson_arch(4), data, epochs=2, rng=0)


class TestModelIO:
    def test_roundtrip_preserves_outputs(self, small_model, tmp_path):
        save_model(small_model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        x = np.random.default_rng(0).standard_normal((1, 2, 16, 16))
        np.testing.assert_allclose(
            loaded.network.forward(x), small_model.network.forward(x), atol=1e-12
        )
        assert loaded.spec == small_model.spec

    def test_arch_json_readable(self, small_model, tmp_path):
        save_model(small_model, tmp_path / "m")
        arch = json.loads((tmp_path / "m" / "arch.json").read_text())
        assert len(arch["stages"]) == 5

    def test_weight_count_mismatch_rejected(self, small_model, tmp_path):
        save_model(small_model, tmp_path / "m")
        # overwrite arch with a different architecture
        other = tompson_arch(4)
        del other.stages[0]
        (tmp_path / "m" / "arch.json").write_text(json.dumps(other.to_dict()))
        with pytest.raises(ValueError):
            load_model(tmp_path / "m")


class TestFrameworkIO:
    def make_framework(self, small_model):
        knn = QlossKNNPredictor(k=2)
        knn.add_database(small_model.name, [(1.0, 0.1), (2.0, 0.2)])
        sel = SelectedModel(
            model=small_model, success_prob=0.9, model_seconds=0.05, expected_seconds=0.06
        )
        return SmartFluidnet(
            runtime_models=[sel],
            knn=knn,
            requirement=UserRequirement(q=0.1, t=1.0),
            exact_seconds=0.5,
        )

    def test_roundtrip(self, small_model, tmp_path):
        fw = self.make_framework(small_model)
        save_framework(fw, tmp_path / "fw")
        loaded = load_framework(tmp_path / "fw")
        assert loaded.requirement == fw.requirement
        assert len(loaded.runtime_models) == 1
        sel = loaded.runtime_models[0]
        assert sel.success_prob == 0.9
        assert loaded.knn.database_size(sel.name) == 2
        assert loaded.knn.predict(sel.name, 1.4) == pytest.approx(0.15)
        assert loaded.input_model is None  # only build_offline sets it

    def test_loaded_framework_runs(self, small_model, tmp_path):
        from repro.data import InputProblem

        fw = self.make_framework(small_model)
        save_framework(fw, tmp_path / "fw")
        loaded = load_framework(tmp_path / "fw")
        run = loaded.run(InputProblem(16, 3), 8)
        assert len(run.result.records) == 8


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_runs(self, capsys, tmp_path):
        code = main(
            [
                "simulate", "--grid", "16", "--steps", "2", "--seed", "1",
                "--ascii", "--pgm", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pressure solver" in out
        assert (tmp_path / "out.pgm").exists()

    def test_simulate_multigrid_backend(self, capsys):
        assert main(["simulate", "--grid", "18", "--steps", "1", "--solver", "multigrid"]) == 0

    def test_simulate_json_output(self, capsys):
        code = main(["simulate", "--grid", "16", "--steps", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["config"]["solver"] == "pcg"
        assert len(payload["steps"]) == 2
        assert payload["steps"][0]["converged"]
        assert payload["metrics"]["counters"]["sim/steps"] == 2
        series = payload["metrics"]["families"]["span_seconds"]["series"]
        counts = {entry["labels"][0]: entry["value"]["hist"]["count"] for entry in series}
        assert counts["step"] == counts["solve/pcg"] == 2


    def test_simulate_scenario_flag(self, capsys):
        # acceptance criteria: moving-obstacle scenario end-to-end via CLI
        code = main(
            ["simulate", "--scenario", "moving_cylinder:grid=16", "--steps", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["scenario"] == "moving_cylinder:grid=16"
        assert payload["config"]["grid"] == 16  # scenario param wins over --grid
        assert all(step["converged"] for step in payload["steps"])

    def test_simulate_free_surface_scenario(self, capsys):
        code = main(
            ["simulate", "--scenario", "dam_break", "--grid", "16", "--steps", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"][0]["solver"] == "free-surface"

    def test_scenarios_command_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        from repro.fluid import list_scenarios

        assert len(list_scenarios()) >= 5
        for info in list_scenarios():
            assert info.name in out
        assert "grid" in out  # per-scenario parameter docs are printed

    def test_scenarios_command_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 5
        assert all("params" in entry for entry in payload)

    def test_unknown_scenario_errors_cleanly(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            main(["simulate", "--scenario", "warp_drive", "--steps", "1"])

    def test_shared_parent_parser_arguments(self):
        parser = build_parser()
        for command, extra in (
            (["simulate"], []),
            (["adaptive", "fw"], []),
            (["offline", "out"], None),
        ):
            args = parser.parse_args(command + ["--grid", "24", "--seed", "7"])
            assert args.grid == 24 and args.seed == 7
            if extra is not None:
                args = parser.parse_args(command + ["--steps", "5"])
                assert args.steps == 5

    def test_experiment_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("command", ["simulate", "farm", "top", "submit"])
    def test_solver_option_takes_exactly_the_job_kinds(self, command):
        from repro.farm import SOLVER_CHOICES

        parser = build_parser()
        for kind in SOLVER_CHOICES:
            assert parser.parse_args([command, "--solver", kind]).solver == kind
        for kind in ("jacobi", "jacobi-pcg", "spectral"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--solver", kind])

    @pytest.mark.parametrize("command", ["simulate", "farm", "submit"])
    def test_steps_below_one_is_an_argparse_error(self, command):
        """Every run is a JobSpec, which needs at least one step."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--steps", "0"])

    def test_no_warm_start_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--warm-start"])

    @pytest.mark.parametrize("command", ["simulate", "farm", "top"])
    def test_no_precision_flag(self, command):
        """NN inference has one precision, so no command takes the flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--precision", "fp64"])

    def test_adaptive_from_saved_framework(self, small_model, tmp_path, capsys):
        fw = TestFrameworkIO().make_framework(small_model)
        save_framework(fw, tmp_path / "fw")
        code = main(["adaptive", str(tmp_path / "fw"), "--grid", "16", "--steps", "8"])
        assert code == 0
        assert "steps per model" in capsys.readouterr().out

    def test_adaptive_json_output(self, small_model, tmp_path, capsys):
        fw = TestFrameworkIO().make_framework(small_model)
        save_framework(fw, tmp_path / "fw")
        code = main(
            ["adaptive", str(tmp_path / "fw"), "--grid", "16", "--steps", "8", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "adaptive"
        assert payload["restarted"] is False
        assert sum(payload["steps_per_model"].values()) == 8
        assert len(payload["steps"]) == 8
        assert payload["metrics"]["counters"]["sim/steps"] == 8
