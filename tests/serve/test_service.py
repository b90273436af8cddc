"""SimulationService end to end: tenants, cache hits, cancel, shutdown."""

import asyncio

import pytest

from repro.farm import JobSpec
from repro.metrics import MetricsRegistry
from repro.serve import (
    DuplicateJobError,
    QueueFullError,
    QuotaExceededError,
    ShuttingDownError,
    SimulationService,
    TenantQuota,
    UnknownJobError,
)


def make_service(tmp_path, **kwargs) -> SimulationService:
    defaults = dict(
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
        min_workers=1,
        max_workers=2,
        default_quota=TenantQuota(rate=None, burst=64, max_pending=None),
        autoscale_seconds=0.05,
        metrics=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return SimulationService(**defaults)


def spec(job_id: str, seed=0, steps=3, grid=16, scenario="smoke_plume") -> JobSpec:
    return JobSpec(
        job_id=job_id, grid_size=grid, seed=seed, steps=steps, scenario=scenario
    )


class TestServiceEndToEnd:
    def test_concurrent_tenants_mixed_scenarios(self, tmp_path):
        """The acceptance workload: N tenants, mixed scenarios, bounded quota.

        Every submission must either complete or be rejected with a *typed*
        quota error — nothing hangs, nothing fails untyped — and resubmitting
        an already-computed spec must be answered from the cache without
        re-simulating (asserted via the ``sim/steps`` solve counter).
        """
        service = make_service(
            tmp_path,
            default_quota=TenantQuota(rate=None, burst=64, max_pending=2),
        )
        scenarios = ["smoke_plume", "inflow_jet", "dam_break"]

        async def run():
            await service.start()
            completed_ids, rejections = [], []
            for tenant_idx in range(3):
                tenant = f"tenant-{tenant_idx}"
                for k in range(4):  # 4 submissions against max_pending=2
                    job_id = f"{tenant}-j{k}"
                    try:
                        service.submit(
                            spec(
                                job_id,
                                seed=tenant_idx,
                                scenario=scenarios[k % len(scenarios)],
                            ),
                            tenant=tenant,
                        )
                        completed_ids.append(job_id)
                    except (QuotaExceededError, QueueFullError) as exc:
                        rejections.append(exc)
                results = await asyncio.gather(
                    *(service.result(j, timeout=120.0) for j in completed_ids
                      if j.startswith(tenant))
                )
                assert all(r.ok for r in results)
            assert rejections, "the pending cap never triggered"
            assert all(isinstance(e, QueueFullError) for e in rejections)

            # resubmit one finished spec verbatim (fresh job id): cache hit,
            # and the solve counter proves nothing was re-simulated
            steps_before = service.metrics.counter("sim/steps")
            summary = service.submit(
                spec("resubmit", seed=0, scenario="smoke_plume"), tenant="tenant-9"
            )
            result = await service.result("resubmit", timeout=30.0)
            assert summary["cached"] and summary["status"] == "completed"
            assert result.cached and result.ok
            assert service.metrics.counter("sim/steps") == steps_before
            assert await service.stop(drain=True, timeout=120.0)

        asyncio.run(run())

    def test_cache_hit_matches_original_result(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("a", seed=7))
            first = await service.result("a", timeout=60.0)
            service.submit(spec("b", seed=7))
            second = await service.result("b", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)
            return first, second

        first, second = asyncio.run(run())
        assert not first.cached and second.cached
        assert second.job_id == "b"
        assert second.final_divnorm == first.final_divnorm
        assert second.steps_done == first.steps_done

    def test_without_cache_every_job_simulates(self, tmp_path):
        service = make_service(tmp_path, cache_dir=None)

        async def run():
            await service.start()
            service.submit(spec("a", seed=7))
            await service.result("a", timeout=60.0)
            service.submit(spec("b", seed=7))
            second = await service.result("b", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)
            return second

        assert not asyncio.run(run()).cached

    def test_cache_survives_service_restart(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path)
            await service.start()
            service.submit(spec("a", seed=3))
            await service.result("a", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)

        async def second_life():
            service = make_service(tmp_path)
            await service.start()
            summary = service.submit(spec("b", seed=3))
            result = await service.result("b", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)
            return summary, result

        asyncio.run(first_life())
        summary, result = asyncio.run(second_life())
        assert summary["cached"] and result.cached

    def test_duplicate_and_unknown_job_ids_are_typed(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("a"))
            with pytest.raises(DuplicateJobError):
                service.submit(spec("a"))
            with pytest.raises(UnknownJobError):
                service.status("never-submitted")
            with pytest.raises(UnknownJobError):
                await service.result("never-submitted")
            await service.stop(drain=True, timeout=60.0)

        asyncio.run(run())

    def test_cancel_queued_job_never_runs(self, tmp_path):
        service = make_service(tmp_path, min_workers=1, max_workers=1)

        async def run():
            await service.start()
            service.submit(spec("long", grid=24, steps=10))
            service.submit(spec("victim", seed=1))
            outcome = service.cancel("victim")
            result = await service.result("victim", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)
            return outcome, result

        outcome, result = asyncio.run(run())
        assert outcome["outcome"] in ("queued", "running")
        assert result.status == "cancelled"
        assert result.steps_done == 0 or outcome["outcome"] == "running"

    def test_stop_without_drain_resolves_pending_futures(self, tmp_path):
        service = make_service(tmp_path, min_workers=1, max_workers=1)

        async def run():
            await service.start()
            for i in range(4):
                service.submit(spec(f"q{i}", grid=24, steps=10, seed=i))
            waiters = [
                asyncio.create_task(service.result(f"q{i}", timeout=60.0))
                for i in range(4)
            ]
            await asyncio.sleep(0.05)
            await service.stop(drain=False, timeout=60.0)
            return await asyncio.gather(*waiters)

        results = asyncio.run(run())
        assert len(results) == 4
        assert all(r.status in ("completed", "cancelled") for r in results)
        assert any(r.status == "cancelled" for r in results)

    def test_submissions_rejected_while_stopping(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            await service.stop(drain=True, timeout=60.0)
            with pytest.raises(ShuttingDownError):
                service.submit(spec("late"))

        asyncio.run(run())

    def test_stop_flushes_cache_index(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("a"))
            await service.result("a", timeout=60.0)
            await service.stop(drain=True, timeout=60.0)

        asyncio.run(run())
        assert (tmp_path / "cache" / "index.json").is_file()

    def test_watch_streams_events_until_terminal(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("w", grid=24, steps=6))
            q = service.subscribe("w")
            events = []
            while True:
                event = await asyncio.wait_for(q.get(), timeout=60.0)
                if event is None:
                    break
                events.append(event)
            await service.stop(drain=True, timeout=60.0)
            return events

        events = asyncio.run(run())
        types = [e["type"] for e in events]
        assert types[-1] == "result"
        assert "job_end" in types

    def test_subscribe_to_finished_job_yields_terminal_event(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("done"))
            await service.result("done", timeout=60.0)
            q = service.subscribe("done")
            first = q.get_nowait()
            sentinel = q.get_nowait()
            await service.stop(drain=True, timeout=60.0)
            return first, sentinel

        first, sentinel = asyncio.run(run())
        assert first["type"] == "result" and first["status"] == "completed"
        assert sentinel is None

    def test_finished_jobs_are_forgotten_oldest_first(self, tmp_path):
        """The service holds a bounded number of finished jobs: older ids
        answer UnknownJobError, their results stay in the cache, and a job
        still queued or running is never dropped."""
        from repro.serve.service import MAX_FINISHED_JOBS

        service = make_service(tmp_path)
        hits = [f"hit-{i}" for i in range(MAX_FINISHED_JOBS + 3)]

        async def run():
            await service.start()
            service.submit(spec("cold", seed=5))
            await service.result("cold", timeout=60.0)
            # nothing runs on the loop until the next await, so "queued"
            # stays unfinished while the cache hits finish around it
            service.submit(spec("queued", seed=6))
            for job_id in hits:
                assert service.submit(spec(job_id, seed=5))["cached"]
            held = service.stats()["jobs"]["total"]
            forgotten = []
            for job_id in ["cold"] + hits:
                try:
                    service.status(job_id)
                except UnknownJobError:
                    forgotten.append(job_id)
            queued = await service.result("queued", timeout=60.0)
            again = service.submit(spec("again", seed=5))
            await service.stop(drain=True, timeout=60.0)
            return held, forgotten, queued, again

        held, forgotten, queued, again = asyncio.run(run())
        assert held == MAX_FINISHED_JOBS + 1  # the finished ones + "queued"
        assert forgotten == ["cold"] + hits[:3]
        assert queued.ok and not queued.cached
        assert again["cached"]

    def test_stats_snapshot_shape(self, tmp_path):
        service = make_service(tmp_path)

        async def run():
            await service.start()
            service.submit(spec("a"), tenant="t")
            await service.result("a", timeout=60.0)
            stats = service.stats()
            await service.stop(drain=True, timeout=60.0)
            return stats

        stats = asyncio.run(run())
        assert stats["jobs"]["total"] == 1
        assert stats["jobs"]["by_status"] == {"completed": 1}
        assert stats["admission"]["t"]["admitted"] == 1
        assert stats["cache"]["puts"] == 1
        assert stats["pool"]["max_workers"] == 2
