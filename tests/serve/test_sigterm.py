"""``repro serve`` as a process: SIGTERM drains and persists the cache."""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.farm import JobSpec
from repro.serve import ServiceClient

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="unix sockets + SIGTERM"
)


def start_server(tmp_path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str((os.path.dirname(__file__) + "/../../src").replace("\\", "/"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(tmp_path / "serve.sock"),
            "--cache-dir", str(tmp_path / "cache"),
            "--min-workers", "1", "--max-workers", "2",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_socket(tmp_path, proc, timeout=30.0) -> None:
    deadline = time.monotonic() + timeout
    sock = tmp_path / "serve.sock"
    while time.monotonic() < deadline:
        if sock.exists():
            return
        if proc.poll() is not None:
            raise RuntimeError(f"server died early: {proc.stderr.read()}")
        time.sleep(0.05)
    raise TimeoutError("server socket never appeared")


class TestSigtermShutdown:
    def test_sigterm_drains_in_flight_jobs_and_persists_cache(self, tmp_path):
        proc = start_server(tmp_path)
        try:
            wait_for_socket(tmp_path, proc)

            async def submit() -> dict:
                async with await ServiceClient.open(tmp_path / "serve.sock") as c:
                    return await c.submit(
                        JobSpec(job_id="inflight", grid_size=24, seed=0, steps=10)
                    )

            job = asyncio.run(submit())
            assert job["status"] in ("queued", "running")

            # SIGTERM while the job is still in flight: the server must
            # finish it (drain, not kill) and exit 0
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            stderr = proc.stderr.read()
            assert code == 0, stderr
            assert "draining" in stderr
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
            proc.stderr.close()

        # the drained job's result was cached and the LRU index persisted
        cache = tmp_path / "cache"
        assert (cache / "index.json").is_file()
        assert list(cache.glob("*/*.json")), "no cache entry persisted"
        assert not (tmp_path / "serve.sock").exists()


class TestJobChildSignals:
    def test_sigterm_to_a_jobs_child_retries_the_job_and_the_server_keeps_serving(
        self, tmp_path
    ):
        """A served job runs in a child process of its own.

        SIGTERM to that child kills only the child: the pool retries the
        job and the server keeps serving.  Without the child's signal
        reset, the signal would reach the server's asyncio handlers
        through the inherited wakeup fd and shut the server down.
        """
        sock = tmp_path / "serve.sock"
        proc = start_server(tmp_path)
        try:
            wait_for_socket(tmp_path, proc)

            async def scenario():
                async with await ServiceClient.open(sock) as client:
                    await client.submit(
                        JobSpec(job_id="victim", grid_size=64, seed=0, steps=60)
                    )
                    pids, killed = [], None
                    async with await ServiceClient.open(sock) as watcher:
                        async for event in watcher.watch("victim"):
                            pid = event.get("pid")
                            if pid is None:
                                continue
                            pids.append(pid)
                            if killed is None:
                                killed = pid
                                os.kill(pid, signal.SIGTERM)
                    victim = await client.result("victim", timeout=120)
                    await client.submit(JobSpec(job_id="after", grid_size=12, steps=2))
                    after = await client.result("after", timeout=60)
                return pids, killed, victim, after

            pids, killed, victim, after = asyncio.run(scenario())
            assert killed is not None and killed != proc.pid
            assert proc.pid not in pids
            assert len(set(pids)) >= 2  # the retry ran in a fresh child
            assert victim.ok and victim.retries == 1, victim.error
            assert after.ok
            assert proc.poll() is None, "the server stopped"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=120)
                except subprocess.TimeoutExpired:  # pragma: no cover - cleanup on failure
                    proc.kill()
                    proc.wait()
            stderr = proc.stderr.read()
            proc.stderr.close()
        assert proc.returncode == 0, stderr  # and it still drains and exits cleanly
