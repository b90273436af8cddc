"""SimulationFarm: backends, fault tolerance, retry/resume, merged metrics."""

import json

import pytest

from repro.farm import FarmReport, JobSpec, SimulationFarm
from repro.metrics import MetricsRegistry, get_metrics, set_metrics


def make_jobs(n, **kwargs):
    base = dict(grid_size=16, steps=3)
    base.update(kwargs)
    return [JobSpec(job_id=f"job-{i}", seed=10 + i, **base) for i in range(n)]


class TestSerialBackend:
    def test_runs_all_jobs(self):
        farm = SimulationFarm(backend="serial")
        report = farm.run(make_jobs(3))
        assert len(report.completed) == 3
        assert report.total_steps == 9
        assert report.jobs_per_second > 0
        # merged farm profile sees every job's simulator counters
        assert report.metrics.counter("sim/steps") == 9
        assert report.metrics.counter("farm/jobs") == 3

    def test_duplicate_job_ids_rejected(self):
        farm = SimulationFarm(backend="serial")
        jobs = make_jobs(2)
        with pytest.raises(ValueError, match="unique"):
            farm.run([jobs[0], jobs[0]])

    def test_report_round_trips_to_json(self):
        report = SimulationFarm(backend="serial").run(make_jobs(2))
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["completed"] == 2
        assert blob["backend"] == "serial"
        assert len(blob["results"]) == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationFarm(backend="gpu")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_unbuildable_solver_fails_only_its_job(self, backend):
        """A job whose solver cannot be built ends as one failed result; the
        rest of the batch still runs."""
        bad = JobSpec(job_id="bad", grid_size=16, seed=3, steps=2,
                      solver="nn", solver_params={"precision": "fp32"})
        report = SimulationFarm(workers=1, backend=backend).run([bad] + make_jobs(1))
        assert [r.job_id for r in report.results] == ["bad", "job-0"]
        failed, good = report.results
        assert failed.status == "failed" and not failed.degraded
        assert failed.error.startswith("TypeError") and "precision" in failed.error
        assert good.ok and good.steps_done == 3
        assert report.metrics.counter("farm/jobs") == 2
        assert report.metrics.counter("farm/jobs_failed") == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_warm_start_param_fails_only_its_job(self, backend):
        """PCG has no warm start: a spec that asks for it fails alone, and
        never degrades to a PCG run that ignores the request."""
        bad = JobSpec(job_id="warm", grid_size=16, seed=3, steps=2,
                      solver="pcg", solver_params={"warm_start": True})
        report = SimulationFarm(workers=1, backend=backend).run([bad] + make_jobs(1))
        failed, good = report.results
        assert failed.status == "failed" and not failed.degraded
        assert failed.error.startswith("TypeError") and "warm_start" in failed.error
        assert good.ok and good.steps_done == 3

    def test_spans_without_a_registry_land_in_the_job_profile(self):
        """``kernels/build`` opens on the process default registry; a serial
        job installs its own there, as a pool child does, and restores the
        caller's afterwards."""

        def span_names(registry):
            family = registry.to_dict().get("families", {}).get("span_seconds", {})
            return {e["labels"][0] for e in family.get("series", [])}

        caller = MetricsRegistry()
        previous = set_metrics(caller)
        try:
            report = SimulationFarm(backend="serial", trace=True).run(make_jobs(1))
            assert get_metrics() is caller
        finally:
            set_metrics(previous)
        assert "kernels/build" in span_names(report.metrics)
        assert "kernels/build" not in span_names(caller)


class TestProcessBackend:
    def test_eight_concurrent_jobs_with_injected_crash(self, tmp_path):
        # the ISSUE acceptance scenario: >= 8 concurrent jobs, one worker
        # hard-crashes mid-run, every job still completes (the crashed one
        # resumes from its checkpoint on retry)
        jobs = make_jobs(8, checkpoint_every=1, max_retries=2)
        jobs[3] = JobSpec(
            job_id="job-3",
            grid_size=16,
            seed=13,
            steps=3,
            checkpoint_every=1,
            max_retries=2,
            fail_at_step=2,
            fail_mode="crash",
        )
        farm = SimulationFarm(workers=4, backend="process", checkpoint_dir=tmp_path)
        report = farm.run(jobs)
        assert len(report.results) == 8
        assert len(report.completed) == 8
        crashed = next(r for r in report.results if r.job_id == "job-3")
        assert crashed.retries == 1
        assert crashed.resumed_from == 2  # resumed, not restarted
        assert report.metrics.counter("farm/worker_deaths") == 1
        assert report.metrics.counter("farm/retries") == 1
        # per-worker registries merged: every *surviving* attempt's steps
        # are visible (the crashed attempt died with its registry; its
        # retry resumed at step 2 and recorded only the final step)
        assert report.metrics.counter("sim/steps") == 7 * 3 + 1

    def test_results_preserve_submission_order(self):
        report = SimulationFarm(workers=2, backend="process").run(make_jobs(4))
        assert [r.job_id for r in report.results] == [f"job-{i}" for i in range(4)]

    def test_timeout_kills_and_fails_after_retries(self):
        jobs = [
            JobSpec(
                job_id="slow",
                grid_size=48,
                seed=1,
                steps=500,
                timeout_seconds=0.6,
                max_retries=1,
            )
        ]
        farm = SimulationFarm(workers=1, backend="process")
        report = farm.run(jobs)
        assert len(report.failed) == 1
        assert "timeouts" in report.failed[0].error
        assert report.failed[0].retries == 1
        assert report.metrics.counter("farm/timeouts") == 2

    def test_result_landing_at_the_deadline_is_not_reaped_as_timeout(self, monkeypatch):
        """Timeout reap must grace-drain the queue like the death path.

        Regression: a worker that finished just as its deadline expired
        left its success in the queue and, with no retries left, the job
        was reported failed despite having completed.
        """
        import multiprocessing as mp
        import time

        import repro.farm.pool as pool_mod

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to monkeypatch the worker entry")

        real_entry = pool_mod._process_worker_entry

        def finishes_at_the_deadline(spec_dict, checkpoint_dir, attempt, out_queue, *extra):
            # the result lands ~0.2 s past the 0.5 s deadline — inside the
            # grace window the death path already honours
            time.sleep(0.7)
            real_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra)

        monkeypatch.setattr(pool_mod, "_process_worker_entry", finishes_at_the_deadline)
        jobs = [
            JobSpec(
                job_id="edge",
                grid_size=16,
                seed=3,
                steps=1,
                timeout_seconds=0.5,
                max_retries=0,
            )
        ]
        farm = SimulationFarm(workers=1, backend="process")
        report = farm.run(jobs)
        assert report.results[0].ok, report.results[0].error
        assert report.metrics.counter("farm/timeouts") == 0

    def test_hung_queue_feeder_does_not_stall_supervision(self, monkeypatch):
        """drain() must bound its join on a worker that already reported.

        Regression: ``entry[0].join()`` was unbounded, so a worker whose
        process lingered after shipping its result froze the supervision
        loop and every other job's timeout enforcement.
        """
        import multiprocessing as mp
        import time

        import repro.farm.pool as pool_mod

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to monkeypatch the worker entry")

        real_entry = pool_mod._process_worker_entry

        def lingering_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra):
            real_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra)
            time.sleep(30)  # result is shipped, but the process hangs around

        monkeypatch.setattr(pool_mod, "_process_worker_entry", lingering_entry)
        farm = SimulationFarm(workers=1, backend="process")
        t0 = time.monotonic()
        report = farm.run(make_jobs(1, steps=1))
        wall = time.monotonic() - t0
        assert report.results[0].ok
        assert wall < 15.0  # pre-fix: blocked the full 30 s sleep
        assert report.metrics.counter("farm/lingering_workers") == 1

    def test_in_run_degradation_inside_worker_process(self):
        jobs = [
            JobSpec(job_id="nn-fail", grid_size=16, seed=2, steps=3,
                    solver="nn", fail_at_step=1)
        ]
        report = SimulationFarm(workers=1, backend="process").run(jobs)
        assert report.results[0].ok
        assert report.results[0].degraded
        assert report.results[0].solver_used == "pcg"
        assert report.metrics.counter("farm/degradations") == 1

    @pytest.mark.parametrize("solver", ["nn", "nn-pcg"])
    def test_precision_param_fails_the_job(self, solver):
        """A spec that still asks for the removed fp32 plan fails loudly: it
        never runs at another precision, and never degrades to PCG."""
        jobs = [
            JobSpec(job_id="fp32", grid_size=16, seed=3, steps=2,
                    solver=solver, solver_params={"precision": "fp32"})
        ]
        result = SimulationFarm(workers=1, backend="process").run(jobs).results[0]
        assert result.status == "failed"
        assert not result.degraded
        assert "precision" in result.error

    def test_nn_jobs_match_serial(self):
        # same seed -> same untrained model -> identical physics; forked
        # workers must reproduce the in-process serial results exactly
        def jobs():
            return [
                JobSpec(job_id=f"nn-{i}", grid_size=16, seed=21, steps=3,
                        solver="nn", solver_params={"passes": 1})
                for i in range(3)
            ]

        serial = SimulationFarm(backend="serial").run(jobs())
        process = SimulationFarm(workers=3, backend="process").run(jobs())
        assert len(process.completed) == 3
        for s, p in zip(serial.results, process.results):
            assert p.solver_used == s.solver_used == "nn"
            assert p.final_divnorm == s.final_divnorm
            assert p.cum_divnorm == s.cum_divnorm

    @staticmethod
    def _under_caller_tracer(farm, jobs):
        """Run ``farm`` with an enabled process tracer installed by the
        caller, as a benchmark's trace scope does; returns that tracer."""
        from repro.trace import Tracer, get_tracer, set_tracer

        caller = Tracer(enabled=True)
        previous = set_tracer(caller)
        try:
            farm.run(jobs)
            assert get_tracer() is caller  # restored after the run
        finally:
            set_tracer(previous)
        return caller

    def test_children_trace_into_the_farm_tracer_not_the_callers(self):
        import os

        farm = SimulationFarm(workers=2, backend="process", trace=True)
        caller = self._under_caller_tracer(farm, make_jobs(2))
        job_spans = [s for s in farm.tracer.spans() if s.name == "job"]
        assert sorted(s.attrs["job_id"] for s in job_spans) == ["job-0", "job-1"]
        assert os.getpid() not in {s.pid for s in job_spans}  # ran in children
        assert caller.spans() == []

    def test_untraced_farm_children_record_no_spans(self):
        farm = SimulationFarm(workers=2, backend="process", trace=False)
        caller = self._under_caller_tracer(farm, make_jobs(2))
        assert farm.tracer.spans() == []
        assert caller.spans() == []

    def test_counters_match_the_serial_backend(self):
        """Each result is merged and counted once (a double merge doubles them)."""
        serial = SimulationFarm(backend="serial").run(make_jobs(3)).metrics
        process = SimulationFarm(workers=2, backend="process").run(make_jobs(3)).metrics
        for name, expected in (("sim/steps", 9), ("farm/jobs", 3), ("farm/jobs_completed", 3)):
            assert process.counter(name) == serial.counter(name) == expected, name


class TestFarmReport:
    def test_throughput_properties(self):
        from repro.farm import JobResult

        report = FarmReport(
            results=[
                JobResult(job_id="a", status="completed", steps_done=10),
                JobResult(job_id="b", status="failed", steps_done=4),
            ],
            backend="serial",
            workers=1,
            wall_seconds=2.0,
        )
        assert report.total_steps == 14
        assert report.jobs_per_second == 0.5
        assert report.steps_per_second == 7.0
        assert len(report.failed) == 1


class TestResizablePool:
    """The long-lived pool behind repro.serve: drain-on-shrink, cancel."""

    @staticmethod
    def _pool(results, workers=2, **kwargs):
        import threading

        from repro.farm.pool import Pool

        lock = threading.Lock()

        def on_result(r):
            with lock:
                results.append(r)

        return Pool(workers=workers, on_result=on_result, **kwargs)

    @staticmethod
    def _wait(predicate, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_jobs_complete_and_results_are_delivered(self):
        results = []
        pool = self._pool(results, workers=2)
        for i in range(4):
            pool.submit(JobSpec(job_id=f"p{i}", grid_size=12, steps=2, seed=i))
        assert pool.drain(timeout=120)
        pool.shutdown()
        assert sorted(r.job_id for r in results) == ["p0", "p1", "p2", "p3"]
        assert all(r.ok for r in results)

    def test_shrink_drains_busy_workers_instead_of_killing_them(self):
        """Regression for the autoscaler path: resizing down mid-run must let
        every in-flight job finish (drain), never kill a busy worker."""
        results = []
        pool = self._pool(results, workers=3)
        for i in range(6):
            pool.submit(JobSpec(job_id=f"s{i}", grid_size=16, steps=5, seed=i))
        assert self._wait(lambda: pool.busy >= 2)  # workers mid-job
        pool.resize(1)  # scale down while they are busy
        assert pool.workers == 1
        assert pool.drain(timeout=240)
        # every job ran its full budget: nothing was killed or requeued
        assert sorted(r.job_id for r in results) == [f"s{i}" for i in range(6)]
        assert all(r.ok and r.steps_done == 5 for r in results)
        # the excess workers exit at a job boundary shortly after
        assert self._wait(lambda: pool.alive == 1)
        assert pool.metrics.counter("farm/pool/drained_exits") >= 2
        pool.shutdown()

    def test_drain_returns_after_the_last_result_is_delivered(self):
        """drain() returns only once on_result has returned for every job.

        Regression: a worker dropped its job from the running set before
        delivering the result, so drain() returned True while a slow
        on_result had yet to see any result.
        """
        import time

        from repro.farm.pool import Pool

        results = []

        def slow_on_result(r):
            time.sleep(0.3)
            results.append(r)

        pool = Pool(workers=2, on_result=slow_on_result)
        for i in range(2):
            pool.submit(JobSpec(job_id=f"d{i}", grid_size=12, steps=1, seed=i))
        assert pool.drain(timeout=60)
        assert sorted(r.job_id for r in results) == ["d0", "d1"]
        pool.shutdown()

    def test_grow_after_shrink_pays_down_drain_debt_first(self):
        pool = self._pool([], workers=4)
        pool.resize(1)
        pool.resize(3)  # net: one excess remains, no new threads needed
        assert pool.workers == 3
        assert self._wait(lambda: pool.alive == 3)
        pool.shutdown()

    def test_cancel_queued_job_never_runs(self):
        results = []
        pool = self._pool(results, workers=1)
        pool.submit(JobSpec(job_id="long", grid_size=16, steps=6))
        assert self._wait(lambda: pool.busy == 1)
        pool.submit(JobSpec(job_id="victim", grid_size=16, steps=6))
        assert pool.cancel("victim") == "queued"
        assert pool.drain(timeout=120)
        pool.shutdown()
        statuses = {r.job_id: r.status for r in results}
        assert statuses == {"long": "completed", "victim": "cancelled"}
        victim = next(r for r in results if r.job_id == "victim")
        assert victim.steps_done == 0

    def test_cancel_running_job_stops_at_step_boundary(self):
        results = []
        pool = self._pool(results, workers=1)
        pool.submit(JobSpec(job_id="run", grid_size=16, steps=400))
        assert self._wait(lambda: pool.busy == 1)
        assert pool.cancel("run") == "running"
        assert pool.drain(timeout=120)
        pool.shutdown()
        (res,) = results
        assert res.status == "cancelled"
        assert res.steps_done < 400

    def test_shutdown_without_drain_cancels_queued_jobs(self):
        """Every queued job gets the ``cancelled`` result cancel() promises.

        Regression: worker threads exited on the shrink debt before pulling
        the queue again, so only the running job was delivered, queue_depth
        stayed at 3 and a later drain() timed out.
        """
        results = []
        pool = self._pool(results, workers=1)
        pool.submit(JobSpec(job_id="long", grid_size=16, steps=400))
        assert self._wait(lambda: pool.busy == 1)
        for i in range(3):
            pool.submit(JobSpec(job_id=f"q{i}", grid_size=16, steps=6))
        assert pool.shutdown(drain=False, timeout=60)
        assert sorted((r.job_id, r.status) for r in results) == [
            ("long", "cancelled"),
            ("q0", "cancelled"),
            ("q1", "cancelled"),
            ("q2", "cancelled"),
        ]
        assert pool.queue_depth == 0
        assert pool.metrics.counter("farm/pool/cancelled") == 4
        assert pool.drain(timeout=2)

    def test_priority_orders_queued_jobs(self):
        results = []
        pool = self._pool(results, workers=1)
        pool.submit(JobSpec(job_id="head", grid_size=24, steps=8))
        assert self._wait(lambda: pool.busy == 1)
        pool.submit(JobSpec(job_id="low", grid_size=12, steps=2), priority=5)
        pool.submit(JobSpec(job_id="high", grid_size=12, steps=2), priority=0)
        assert pool.drain(timeout=120)
        pool.shutdown()
        order = [r.job_id for r in results]
        assert order.index("high") < order.index("low")

    def test_duplicate_and_post_shutdown_submissions_rejected(self):
        pool = self._pool([], workers=1)
        pool.submit(JobSpec(job_id="a", grid_size=12, steps=2))
        with pytest.raises(ValueError, match="already in the pool"):
            pool.submit(JobSpec(job_id="a", grid_size=12, steps=2))
        assert pool.drain(timeout=60)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(JobSpec(job_id="b", grid_size=12, steps=2))

    def test_raising_on_result_keeps_its_worker(self):
        """Regression: an ``on_result`` that raised killed the worker thread
        that delivered the result while ``alive`` still counted it, so a
        one-worker pool never ran its next job and ``drain`` timed out."""
        from repro.farm.pool import Pool

        delivered = []

        def on_result(r):
            delivered.append(r.job_id)
            if r.job_id == "a":
                raise RuntimeError("callback bug")

        pool = Pool(workers=1, on_result=on_result)
        pool.submit(JobSpec(job_id="a", grid_size=12, steps=1, seed=0))
        pool.submit(JobSpec(job_id="b", grid_size=12, steps=1, seed=1))
        assert pool.drain(timeout=60)
        assert pool.alive == 1
        assert pool.shutdown(timeout=30)
        assert delivered == ["a", "b"]
        assert pool.metrics.counter("farm/pool/on_result_errors") == 1
        assert pool.metrics.counter("farm/jobs_completed") == 2

    def test_pool_startup_sweeps_orphaned_checkpoints(self, tmp_path):
        (tmp_path / "dead.smoke_plume.0badf00d.ckpt.npz.tmp").write_bytes(b"torn")
        pool = self._pool([], workers=1, checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert pool.metrics.counter("farm/orphan_checkpoints_swept") == 1
        pool.shutdown()


class TestPoolChildSupervision:
    """Pool jobs run in forked children under the farm's fault rules."""

    _pool = staticmethod(TestResizablePool._pool)

    @staticmethod
    def _run(pool, *specs, timeout=120):
        for spec in specs:
            pool.submit(spec)
        assert pool.drain(timeout=timeout)
        assert pool.shutdown(timeout=30)

    @pytest.mark.parametrize(
        "solver,params", [("pcg", {}), ("nn", {"passes": 1}), ("nn-pcg", {})]
    )
    def test_served_job_matches_in_process_run_job_bitwise(self, solver, params):
        from repro.farm import run_job

        spec = JobSpec(job_id=f"bits-{solver}", grid_size=16, seed=21, steps=3,
                       solver=solver, solver_params=params)
        results = []
        self._run(self._pool(results, workers=1), spec)
        (served,) = results
        expected = run_job(spec)
        assert served.ok and served.solver_used == expected.solver_used == solver
        assert served.final_divnorm == expected.final_divnorm
        assert served.cum_divnorm == expected.cum_divnorm

    def test_child_events_metrics_and_trace_come_home(self):
        import os
        import threading

        from repro.trace import Tracer, set_tracer

        events, threads = [], set()

        def on_event(event):
            events.append(event)
            threads.add(threading.current_thread())

        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            results = []
            pool = self._pool(results, workers=1, on_event=on_event)
            self._run(pool, JobSpec(job_id="home", grid_size=12, steps=2))
        finally:
            set_tracer(previous)
        (res,) = results
        pids = {e["pid"] for e in events}
        assert len(pids) == 1 and os.getpid() not in pids  # ran in a child
        assert threading.main_thread() not in threads  # relayed by the worker thread
        assert pool.metrics.counter("sim/steps") == 2  # child registry merged
        steps = [s for s in tracer.spans() if s.name == "step"]
        assert len(steps) == 2 and {s.pid for s in steps} == pids  # trace merged
        assert res.trace == {}  # merged once, not delivered again

    def test_crashed_child_resumes_from_its_checkpoint(self, tmp_path):
        results = []
        pool = self._pool(results, workers=1, checkpoint_dir=tmp_path)
        self._run(pool, JobSpec(job_id="crash", grid_size=16, seed=13, steps=3,
                                checkpoint_every=1, max_retries=2, fail_at_step=2,
                                fail_mode="crash"))
        (res,) = results
        assert res.ok, res.error
        assert res.retries == 1
        assert res.resumed_from == 2  # resumed, not restarted
        assert pool.metrics.counter("farm/worker_deaths") == 1
        assert pool.metrics.counter("farm/retries") == 1

    def test_overrunning_child_is_terminated_retried_then_failed(self):
        results = []
        pool = self._pool(results, workers=1)
        self._run(pool, JobSpec(job_id="slow", grid_size=48, seed=1, steps=500,
                                timeout_seconds=0.6, max_retries=1))
        (res,) = results
        assert res.status == "failed"
        assert "timeouts" in res.error
        assert res.retries == 1
        assert pool.metrics.counter("farm/timeouts") == 2
        assert pool.metrics.counter("farm/retries") == 1

    def test_lingering_child_is_terminated_and_its_result_kept(self, monkeypatch):
        import time

        import repro.farm.pool as pool_mod

        real_entry = pool_mod._process_worker_entry

        def lingering_entry(*args):
            real_entry(*args)
            time.sleep(30)  # the result is sent, but the child hangs around

        monkeypatch.setattr(pool_mod, "_process_worker_entry", lingering_entry)
        results = []
        pool = self._pool(results, workers=1)
        t0 = time.monotonic()
        self._run(pool, *(JobSpec(job_id=f"l{i}", grid_size=12, steps=1) for i in range(2)))
        assert time.monotonic() - t0 < 15.0  # neither child held its thread for 30 s
        assert [r.job_id for r in results] == ["l0", "l1"]
        assert all(r.ok for r in results)
        assert pool.metrics.counter("farm/lingering_workers") == 2

    def test_stress_every_job_is_delivered_exactly_once(self, monkeypatch):
        """200 short jobs through 2 workers, every 5th cancelled.

        Regression for the reaping race: ``Process.start`` polls every child
        of the process, so a start on one pool thread racing a join or
        close on another failed jobs with "Cannot close a process while it
        is still running".
        """
        import sys
        import threading
        import time

        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        t0 = time.monotonic()
        try:
            results = []
            pool = self._pool(results, workers=2)
            ids = [f"x{i}" for i in range(200)]
            cancelled = set(ids[4::5])
            for job_id in ids:
                pool.submit(JobSpec(job_id=job_id, grid_size=12, steps=2))
                if job_id in cancelled:
                    pool.cancel(job_id)
            assert pool.drain(timeout=110)
            assert pool.shutdown(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert time.monotonic() - t0 < 120.0
        assert sorted(r.job_id for r in results) == sorted(ids)
        assert not [r for r in results if r.status == "failed"]
        assert all(r.ok for r in results if r.job_id not in cancelled)
        assert not thread_errors
