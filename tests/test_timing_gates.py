"""Same-process timing gates (marker: bench).

Each gate times two code paths in one process, interleaved, and compares
them with each other, so it needs no baseline recorded on another host.
CI runs them in their own step (``pytest -m bench tests``); the tier-1 step
deselects them because a shared runner's noise can still reach them.
"""

import time

import numpy as np
import pytest

from repro.data import InputProblem
from repro.fluid import FluidSimulator, PCGSolver
from repro.metrics import NULL_METRICS, MetricsRegistry
from repro.models import tompson_arch
from repro.nn import InferencePlan
from repro.trace import Tracer, set_tracer

pytestmark = pytest.mark.bench

#: the pinned overhead workload: a ~0.1 s run, long enough that timing
#: noise sits well under the 5% gate
GRID, STEPS, PAIRS = 64, 8, 5
#: the largest enabled/disabled ratio the least-disturbed pair may show
OVERHEAD_GATE = 1.05


def _run_sim(metrics) -> float:
    grid, source = InputProblem(GRID, 0).materialize()
    sim = FluidSimulator(grid, PCGSolver(metrics=metrics), source, metrics=metrics)
    t0 = time.perf_counter()
    sim.run(STEPS)
    return time.perf_counter() - t0


def _best_pair_ratio(disabled, enabled) -> float:
    """Smallest enabled/disabled ratio over ``PAIRS`` interleaved pairs.

    Each enabled run is compared only with the disabled run just before it.
    A systematic overhead inflates every pair, the cleanest one included,
    while ambient noise inflates only the pairs it lands on, so the best pair
    is a stable one-sided detector on a busy host.
    """
    disabled()  # warm caches (BLAS threads, allocator) outside the timing
    ratios = []
    for _ in range(PAIRS):
        disabled_s = disabled()
        ratios.append(enabled() / disabled_s)
    return min(ratios)


def test_tracing_overhead_best_pair_within_5_percent():
    tracer = Tracer(enabled=True)

    def enabled() -> float:
        previous = set_tracer(tracer)
        try:
            return _run_sim(NULL_METRICS)
        finally:
            set_tracer(previous)

    ratio = _best_pair_ratio(lambda: _run_sim(NULL_METRICS), enabled)
    assert len(tracer.spans()) > 0 and len(tracer.events()) > 0
    assert ratio <= OVERHEAD_GATE, f"tracing overhead {ratio:.3f}x (best pair)"


def test_metrics_overhead_best_pair_within_5_percent():
    registry = MetricsRegistry()
    ratio = _best_pair_ratio(lambda: _run_sim(NULL_METRICS), lambda: _run_sim(registry))
    assert len(registry.counters) > 0 and len(registry.families) > 0
    assert ratio <= OVERHEAD_GATE, f"metrics overhead {ratio:.3f}x (best pair)"


#: the plan computes in float64 only; the parameter keeps that in the test id
@pytest.mark.parametrize("dtype", [np.float64])
def test_inference_plan_at_least_2x_legacy_forward_at_128(dtype):
    net = tompson_arch(8).build(rng=0)
    x = np.random.default_rng(0).standard_normal((1, 2, 128, 128))
    plan = InferencePlan(net, (2, 128, 128))
    net.forward(x, training=False)  # warm the legacy workspaces
    plan.run(x)

    def best(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    legacy = best(lambda: net.forward(x, training=False))
    planned = best(lambda: plan.run(x))
    assert legacy / planned >= 2.0, f"{np.dtype(dtype).name} plan {legacy / planned:.2f}x"
