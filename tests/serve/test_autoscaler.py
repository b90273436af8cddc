"""Autoscaling: the pure policy and the drain-on-shrink pool path."""

import threading
import time

import pytest

from repro.farm import JobSpec, Pool
from repro.metrics import MetricsRegistry
from repro.serve import Autoscaler, plan_workers


class TestPlanWorkers:
    @pytest.mark.parametrize(
        "queue_depth,busy,current,expected",
        [
            (0, 0, 3, 1),   # idle: drain to the floor
            (0, 2, 1, 2),   # running jobs hold their workers
            (5, 1, 1, 4),   # deep queue: grow to the ceiling
            (1, 1, 1, 2),   # one-to-one with demand inside the band
            (100, 4, 4, 4), # never above the ceiling
        ],
    )
    def test_policy(self, queue_depth, busy, current, expected):
        assert (
            plan_workers(queue_depth, busy, current, min_workers=1, max_workers=4)
            == expected
        )

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            plan_workers(0, 0, 1, min_workers=3, max_workers=2)


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestAutoscalerOnPool:
    def _pool(self, results, workers=1):
        lock = threading.Lock()

        def on_result(r):
            with lock:
                results.append(r)

        return Pool(
            workers=workers,
            metrics=MetricsRegistry(),
            on_result=on_result,
        )

    def test_grows_with_queue_depth(self):
        results = []
        pool = self._pool(results)
        scaler = Autoscaler(pool, min_workers=1, max_workers=3)
        try:
            for i in range(5):
                pool.submit(JobSpec(job_id=f"g{i}", grid_size=12, steps=2))
            assert scaler.tick() == 3
            assert pool.workers == 3
            assert _wait(lambda: len(results) == 5)
        finally:
            pool.shutdown(drain=True, timeout=60.0)
        assert scaler.metrics.counter("serve/autoscaler/grow_events") >= 1

    def test_shrink_via_autoscaler_drains_busy_workers(self):
        """Regression: scaling down mid-run must drain, never kill.

        Three workers are busy when the autoscaler decides to shrink to
        one; every in-flight job must still complete its full step budget
        and the excess workers must exit at job boundaries (counted by
        ``farm/pool/drained_exits``), not be terminated.
        """
        results = []
        pool = self._pool(results)
        scaler = Autoscaler(pool, min_workers=1, max_workers=3)
        try:
            for i in range(3):
                pool.submit(JobSpec(job_id=f"s{i}", grid_size=24, steps=8))
            assert scaler.tick() == 3
            assert _wait(lambda: pool.busy == 3)
            # queue is empty but three jobs are running: the policy holds
            # all three workers — busy jobs are demand too
            assert scaler.tick() == 3
            assert _wait(lambda: len(results) == 3)
            # now idle: the autoscaler shrinks to the floor by draining
            assert scaler.tick() == 1
            assert pool.workers == 1
            assert _wait(lambda: pool.alive == 1)
        finally:
            pool.shutdown(drain=True, timeout=60.0)
        assert all(r.ok and r.steps_done == 8 for r in results)
        assert pool.metrics.counter("farm/pool/drained_exits") >= 2
        assert scaler.metrics.counter("serve/autoscaler/shrink_events") >= 1

    def test_shrink_while_workers_still_busy_completes_all_jobs(self):
        """Scale-down decided *while* jobs run: nothing is lost."""
        results = []
        pool = self._pool(results, workers=3)
        scaler = Autoscaler(pool, min_workers=0, max_workers=3)
        try:
            for i in range(3):
                pool.submit(JobSpec(job_id=f"b{i}", grid_size=24, steps=8))
            assert _wait(lambda: pool.busy >= 1)
            pool.resize(0)  # operator override below the running demand
            assert scaler.tick() >= 1  # policy immediately re-grows to demand
            assert _wait(lambda: len(results) == 3)
        finally:
            pool.shutdown(drain=True, timeout=60.0)
        assert all(r.ok and r.steps_done == 8 for r in results)

    def test_snapshot_reports_band_and_load(self):
        pool = self._pool([])
        scaler = Autoscaler(pool, min_workers=1, max_workers=4)
        try:
            snap = scaler.snapshot()
        finally:
            pool.shutdown(drain=True, timeout=30.0)
        assert snap["min_workers"] == 1
        assert snap["max_workers"] == 4
        assert snap["workers"] == 1
        assert snap["queue_depth"] == 0
