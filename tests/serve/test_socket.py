"""The unix-socket front end: client/server round trips and typed errors."""

import asyncio

import pytest

from repro.farm import JobSpec
from repro.metrics import MetricsRegistry
from repro.serve import (
    InvalidSpecError,
    ProtocolError,
    QueueFullError,
    ServiceClient,
    ServiceServer,
    SimulationService,
    TenantQuota,
    UnknownJobError,
    encode_frame,
    read_frame,
)


def spec(job_id: str, seed=0, steps=3) -> JobSpec:
    return JobSpec(job_id=job_id, grid_size=16, seed=seed, steps=steps)


async def serve(tmp_path, **service_kwargs):
    defaults = dict(
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
        min_workers=1,
        max_workers=2,
        default_quota=TenantQuota(rate=None, burst=64, max_pending=None),
        metrics=MetricsRegistry(),
    )
    defaults.update(service_kwargs)
    service = SimulationService(**defaults)
    await service.start()
    server = ServiceServer(service, tmp_path / "serve.sock")
    await server.start()
    return service, server


async def shutdown(service, server):
    await server.stop()
    await service.stop(drain=True, timeout=60.0)


class TestSocketRoundTrip:
    def test_submit_status_result_stats(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    job = await client.submit(spec("a"), tenant="t1")
                    assert job["job_id"] == "a"
                    result = await client.result("a", timeout=60.0)
                    assert result.ok and result.steps_done == 3
                    status = await client.status("a")
                    assert status["status"] == "completed"
                    # identical spec, new id: a hit over the wire
                    hit = await client.submit(spec("b"), tenant="t2")
                    assert hit["cached"] and hit["status"] == "completed"
                    stats = await client.stats()
                    assert stats["jobs"]["total"] == 2
                    assert stats["cache"]["hits"] == 1
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_watch_streams_until_done(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                sock = tmp_path / "serve.sock"
                async with await ServiceClient.open(sock) as client:
                    await client.submit(spec("w", steps=6))
                    events = []
                    async with await ServiceClient.open(sock) as watcher:
                        async for event in watcher.watch("w"):
                            events.append(event["type"])
                    assert events[-1] == "result"
                    result = await client.result("w", timeout=60.0)
                    assert result.ok
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_cancel_over_the_wire(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path, max_workers=1)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client.submit(spec("long", steps=10))
                    await client.submit(spec("victim", seed=1))
                    outcome = await client.cancel("victim")
                    assert outcome in ("queued", "running")
                    result = await client.result("victim", timeout=60.0)
                    assert result.status == "cancelled"
            finally:
                await shutdown(service, server)

        asyncio.run(run())


class TestTypedErrorsOverTheWire:
    def test_quota_rejection_reraises_typed(self, tmp_path):
        async def run():
            service, server = await serve(
                tmp_path,
                default_quota=TenantQuota(rate=None, burst=8, max_pending=1),
            )
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client.submit(spec("a", steps=8), tenant="t")
                    with pytest.raises(QueueFullError):
                        await client.submit(spec("b", seed=1), tenant="t")
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_unknown_job_reraises_typed(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    with pytest.raises(UnknownJobError):
                        await client.status("ghost")
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_invalid_spec_reraises_typed(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    bad = spec("ok").to_dict()
                    bad["solver"] = "bogus"
                    await client._request(
                        {"op": "submit", "spec": bad, "tenant": "t", "priority": 1}
                    )
            finally:
                await shutdown(service, server)

        with pytest.raises(InvalidSpecError):
            asyncio.run(run())

    def test_removed_solver_kind_is_invalid_spec(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    bad = spec("gone").to_dict()
                    bad["solver"] = "spectral"
                    with pytest.raises(InvalidSpecError):
                        await client._request(
                            {"op": "submit", "spec": bad, "tenant": "t", "priority": 1}
                        )
                    # the service and the connection still take valid work
                    await client.submit(spec("after"))
                    assert (await client.result("after", timeout=60.0)).ok
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_unknown_op_is_a_protocol_error(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client._request({"op": "frobnicate"})
            finally:
                await shutdown(service, server)

        with pytest.raises(ProtocolError):
            asyncio.run(run())

    def test_connection_survives_an_error_response(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    with pytest.raises(UnknownJobError):
                        await client.status("ghost")
                    # same connection still works after the typed error
                    job = await client.submit(spec("after"))
                    assert job["job_id"] == "after"
                    assert (await client.result("after", timeout=60.0)).ok
            finally:
                await shutdown(service, server)

        asyncio.run(run())

    def test_malformed_frame_gets_protocol_error_response(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                frame = encode_frame({"op": "stats"})
                writer.write(frame[:4] + b"not json" + frame[4 + 8 :])
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert response["error"]["code"] == "protocol_error"
                writer.close()
            finally:
                await shutdown(service, server)

        asyncio.run(run())
