"""Structural tests of every experiment module at micro scale."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import QlossKNNPredictor, SelectedModel, SmartFluidnet, UserRequirement
from repro.data import generate_problems
from repro.experiments import (
    run_fig1,
    run_fig3,
    run_fig5,
    run_fig6,
    run_fig8,
    run_fig9_table2,
    run_fig10_11_table3,
    run_fig12,
    run_fig13,
    run_sec4_sensitivity,
    run_table1,
    run_table4,
)


class TestTable1:
    def test_rows_and_ordering(self, micro_artifacts):
        result = run_table1(micro_artifacts)
        methods = [r.method for r in result.rows]
        assert methods == ["pcg", "tompson", "yang"]
        assert result.by_method("pcg").avg_quality_loss is None
        assert result.by_method("pcg").execution_ms > 0
        assert "Table 1" in result.format()

    def test_nn_faster_than_pcg(self, micro_artifacts):
        result = run_table1(micro_artifacts)
        assert result.by_method("tompson").execution_ms < result.by_method("pcg").execution_ms


class TestFig1:
    def test_histogram_properties(self, micro_artifacts):
        result = run_fig1(micro_artifacts, n_bins=5)
        assert result.proportions.shape == (5,)
        assert result.proportions.sum() == pytest.approx(1.0)
        assert len(result.bin_edges) == 6
        assert result.violation_rate(0.0) == 1.0
        assert result.violation_rate(np.inf) == 0.0


class TestFig3:
    def test_points_cover_records(self, micro_artifacts):
        result = run_fig3(micro_artifacts)
        record_names = {r.model_name for r in micro_artifacts.framework.records}
        assert {p.model for p in result.points} == record_names
        assert 1 <= result.n_selected <= result.n_models


class TestFig5:
    def test_curve_lengths(self, micro_artifacts):
        result = run_fig5(micro_artifacts, epochs=10, topologies=("mlp1", "mlp3"))
        assert set(result.curves) == {"mlp1", "mlp3"}
        assert all(len(c) == 10 for c in result.curves.values())
        assert result.param_counts["mlp3"] > result.param_counts["mlp1"]

    def test_unknown_topology(self, micro_artifacts):
        with pytest.raises(ValueError):
            run_fig5(micro_artifacts, epochs=1, topologies=("mlp17",))


class TestFig6:
    def test_series_shapes(self, micro_artifacts):
        result = run_fig6(micro_artifacts, n_problems=1)
        n = micro_artifacts.scale.n_steps
        assert result.divnorm.shape == (n,)
        assert result.cumdivnorm.shape == (n,)
        assert result.qloss_ts.shape == (n,)
        assert (np.diff(result.cumdivnorm) >= -1e-12).all()
        assert -1.0 <= result.pearson <= 1.0
        assert -1.0 <= result.spearman <= 1.0


class TestFig8:
    def test_rows_per_grid(self, micro_artifacts):
        result = run_fig8(micro_artifacts)
        assert [r.grid_size for r in result.rows] == list(micro_artifacts.scale.grid_sizes)
        for r in result.rows:
            assert r.pcg_seconds > 0
            assert r.tompson_speedup > 0
            assert r.smart_speedup > 0
        assert result.mean_smart_over_tompson > 0


class TestFig9Table2:
    def test_stats_and_rates(self, micro_artifacts):
        result = run_fig9_table2(micro_artifacts)
        for row in result.rows:
            assert row.tompson.lo <= row.tompson.median <= row.tompson.hi
            assert row.smart.q1 <= row.smart.median <= row.smart.q3
            assert 0.0 <= row.tompson_success <= 1.0
            assert 0.0 <= row.smart_success <= 1.0
            assert 0 <= row.smart_adapted <= micro_artifacts.scale.n_problems
        assert result.requirement_q == micro_artifacts.requirement.q

    def test_unadapted_smart_equals_its_input_model_bitwise(self, micro_artifacts):
        """The Tompson arm is the framework's input model: with a ladder of
        that model alone and a requirement every check meets, Smart neither
        switches nor restarts, and Fig. 9 and Table 2 report it equal to
        the Tompson arm, bit for bit."""
        fw = micro_artifacts.framework
        model = fw.input_model
        knn = QlossKNNPredictor(k=1)
        knn.add_database(model.name, [(0.0, 0.0)])  # every check predicts Qloss 0
        one_rung = SmartFluidnet(
            runtime_models=[SelectedModel(model, 1.0, 1.0, 1.0)],
            knn=knn,
            requirement=UserRequirement(q=1e9, t=1e9),
            config=fw.config,
        )
        one_rung.input_model = model
        problem = generate_problems(1, 16, split="eval")[0]
        assert len(one_rung.run(problem).stats.predictions) == 2  # checks at steps 5 and 8
        result = run_fig9_table2(replace(micro_artifacts, framework=one_rung))
        assert result.rows
        for row in result.rows:
            assert row.smart_adapted == 0
            assert row.smart == row.tompson
            assert row.smart_success == row.tompson_success


class TestFig10_11Table3:
    def test_candidates_and_shares(self, micro_artifacts):
        fig, table3 = run_fig10_11_table3(micro_artifacts)
        assert len(fig.candidates) == len(micro_artifacts.framework.candidates)
        assert fig.smart.model == "smart-fluidnet"
        if table3.time_share:
            assert sum(table3.time_share.values()) == pytest.approx(1.0)
        runtime = {s.name for s in micro_artifacts.framework.runtime_models}
        assert set(table3.probabilities) == runtime


class TestFig12:
    def test_rows(self, micro_artifacts):
        result = run_fig12(micro_artifacts)
        assert len(result.rows) == len(micro_artifacts.scale.grid_sizes)
        for r in result.rows:
            assert 0.0 <= r.success_with_mlp <= 1.0
            assert 0.0 <= r.success_without_mlp <= 1.0
            assert r.perf_with_over_without > 0


class TestFig13:
    def test_intervals_filtered_to_run_length(self, micro_artifacts):
        result = run_fig13(micro_artifacts)
        assert all(i <= micro_artifacts.scale.n_steps for i in result.intervals)
        assert len(result.success_rates) == len(result.intervals)
        assert result.best_interval() in result.intervals

    def test_explicit_intervals(self, micro_artifacts):
        result = run_fig13(micro_artifacts, intervals=(3, 4))
        assert result.intervals == [3, 4]


class TestTable4:
    def test_rows_present(self, micro_artifacts):
        result = run_table4(micro_artifacts)
        assert {r.method for r in result.rows} == {"pcg", "tompson", "smart-fluidnet"}
        for r in result.rows:
            assert r.mflop_single_step > 0
            assert r.memory_mb > 0
        smart = result.by_method("smart-fluidnet")
        tomp = result.by_method("tompson")
        assert smart.memory_mb >= tomp.memory_mb  # several models resident


class TestSec4Sensitivity:
    def test_sweeps_populated(self, micro_artifacts):
        result = run_sec4_sensitivity(micro_artifacts)
        assert set(result.prune_depth) == {1, 2}
        assert set(result.pool_stages) == {1, 2, 3}
        assert set(result.dropout_rate) == {0.05, 0.10, 0.15}
        assert all(v > 0 for v in result.prune_depth.values())
        counts = [result.n_dropout_models[k] for k in sorted(result.n_dropout_models)]
        assert counts == sorted(counts)
