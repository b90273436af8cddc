"""Tests of the benchmark itself: tail percentile, self times, layer sum.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

The layer-sum tests run each workload briefly with ``--trace 1`` and
require the traced layer self times to add up to the unit wall time
within ``run.LAYER_SUM_TOLERANCE``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import UNIT_SPAN, split_spans  # noqa: E402
from repro.trace import Span  # noqa: E402


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, pct = run.tail(values)
    assert pct == 90
    assert sum(v > value for v in values) >= 10
    assert run.tail(values[:12]) == (run.median(values[:12]), 50)


def test_self_time_subtracts_attributed_children_only():
    def span(name, sid, parent, dur):
        return Span(name=name, span_id=sid, parent_id=parent, dur=dur)

    spans = [
        span(UNIT_SPAN, "u", None, 1.0),
        span("step", "s", "u", 0.9),
        span("advection", "a", "s", 0.3),
        span("projection", "p", "s", 0.5),
        span("kernels/build", "k", "p", 0.2),  # transparent: stays in its parent
        span("solve/pcg", "c", "k", 0.15),
    ]
    layers, counts = split_spans(spans)
    assert layers["fluid.step_other_s"] == pytest.approx(0.1)
    assert layers["fluid.advection_s"] == pytest.approx(0.3)
    assert layers["fluid.projection_s"] == pytest.approx(0.35)
    assert layers["pcg.solve_s"] == pytest.approx(0.15)
    assert layers["unattributed"] == pytest.approx(0.1)
    assert sum(layers.values()) == pytest.approx(1.0)
    assert counts["fluid.steps"] == 1 and counts["pcg.solves"] == 1


#: layers each workload must exercise, and layers it must never touch
EXERCISED = {
    "adaptive_plume": ({"nn.forward_s", "sched.knn_s", "sched.regression_s", "pcg.solve_s"}, set()),
    "exact_obstacles": (
        {"pcg.solve_s", "freesurface.solve_s", "levelset.advect_s"},
        {"nn.forward_s", "sched.hook_s", "farm.spawn_s", "serve.submit_s"},
    ),
    "serve_fleet": ({"serve.submit_s", "serve.cache_get_s", "serve.cache_put_s"}, {"farm.spawn_s"}),
    "farm_batch": (
        {"nn_pcg.solve_s", "farm.spawn_s", "farm.checkpoint_write_s", "farm.result_return_s"},
        {"serve.submit_s"},
    ),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_sum_and_correctness(workload):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "6", "--trace", "1")
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2][len("report "):])
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    layer = report["per_layer"]
    assert abs(layer["layer.unattributed_share"]) <= run.LAYER_SUM_TOLERANCE
    assert layer["trace.overhead_ratio"] > 0
    assert layer["failed_ratio"] == 0
    used, unused = EXERCISED[workload]
    assert all(layer[name] > 0 for name in used), {n: layer[n] for n in used}
    assert all(layer[name] == 0 for name in unused), {n: layer[n] for n in unused}


def test_end_to_end_result_has_every_metric():
    out = _bench("--workload", "exact_obstacles", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_driver():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("_run", "__pycache__"))
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "farm_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
