"""JobSpec/JobResult schema: validation and JSON round-trips."""

import json

import pytest

from repro.farm import SOLVER_CHOICES, JobResult, JobSpec


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(
            job_id="j1",
            grid_size=24,
            seed=7,
            steps=12,
            solver="nn",
            solver_params={"passes": 3},
            divnorm_limit=5.0,
            checkpoint_every=4,
            timeout_seconds=30.0,
            max_retries=2,
            fail_at_step=6,
            fail_mode="crash",
        )
        restored = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_defaults_are_pcg_no_faults(self):
        spec = JobSpec(job_id="j")
        assert spec.solver == "pcg"
        assert spec.fail_at_step is None
        assert spec.checkpoint_every == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solver": "bogus"},
            {"steps": 0},
            {"checkpoint_every": -1},
            {"max_retries": -1},
            {"fail_mode": "explode"},
            # kinds that are no longer solvers
            {"solver": "jacobi"},
            {"solver": "jacobi-pcg"},
            {"solver": "spectral"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JobSpec(job_id="j", **kwargs)

    def test_solver_choices_are_the_exact_and_network_kinds(self):
        assert SOLVER_CHOICES == ("pcg", "multigrid", "nn", "nn-pcg")


class TestCacheKey:
    """The content address behind the serve tier's result cache."""

    #: pinned digest of the default 32^2/seed-0/16-step PCG spec — this is a
    #: *format regression pin*: any change to the semantic-field set or the
    #: canonicalisation must bump CACHE_KEY_VERSION and re-pin, because a
    #: silent change would mis-address every persisted cache entry.  A change
    #: to what a spec computes bumps the version too, even with the canonical
    #: form unchanged: equal keys promise bit-identical results
    #: (v2: model weights are content-addressed, not path-addressed;
    #: v3: fp64 nn inference moved from the im2col replay to shift-and-GEMM;
    #: v4: advection reads grid-point velocities exactly;
    #: v5: fp64 nn conv products accumulate inside BLAS, bias first;
    #: v6: nn-pcg runs the fp64 plan, the only one left)
    PINNED_DEFAULT = "3eb4949644821da751202402e8f890d160e1db8ddfc33a4e4111e96edb0ae9b7"
    PINNED_DEFAULT_STATE = (
        "9deef07ea2a74578d9b5dac49e2e38463564071ba27635e3101324ba3594f13f"
    )

    def test_hash_format_is_pinned(self):
        spec = JobSpec(job_id="anything", grid_size=32, seed=0, steps=16, solver="pcg")
        assert spec.cache_key() == self.PINNED_DEFAULT
        assert spec.state_key == self.PINNED_DEFAULT_STATE

    def test_key_is_64_hex_chars(self):
        key = JobSpec(job_id="j").cache_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_non_semantic_fields_do_not_change_the_key(self):
        base = JobSpec(job_id="a").cache_key()
        loaded = JobSpec(
            job_id="completely-different",
            checkpoint_every=4,
            timeout_seconds=9.0,
            max_retries=3,
            fail_at_step=2,
            fail_mode="crash",
        )
        assert loaded.cache_key() == base

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_size": 48},
            {"seed": 1},
            {"steps": 17},
            {"solver": "nn"},
            {"solver_params": {"tol": 1e-6}},
            {"divnorm_limit": 2.0},
            {"scenario": "inflow_jet"},
        ],
    )
    def test_semantic_fields_change_the_key(self, kwargs):
        assert JobSpec(job_id="j", **kwargs).cache_key() != JobSpec(job_id="j").cache_key()

    def test_round_trip_preserves_key(self):
        spec = JobSpec(job_id="j", solver="nn", solver_params={"passes": 3}, steps=9)
        restored = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.cache_key() == spec.cache_key()

    def test_state_key_ignores_steps_only(self):
        a = JobSpec(job_id="j", steps=4)
        assert JobSpec(job_id="j", steps=32).state_key == a.state_key
        assert JobSpec(job_id="j", steps=32).cache_key() != a.cache_key()
        assert JobSpec(job_id="j", seed=5).state_key != a.state_key

    def test_relocated_identical_weights_keep_the_key(self, tmp_path):
        import shutil

        a = tmp_path / "a"
        a.mkdir()
        (a / "arch.json").write_text('{"stages": 5}')
        (a / "weights.npz").write_bytes(b"\x01\x02\x03weights")
        b = tmp_path / "elsewhere" / "b"
        shutil.copytree(a, b)
        key_a = JobSpec(job_id="j", solver="nn", model_dir=str(a)).cache_key()
        key_b = JobSpec(job_id="j", solver="nn", model_dir=str(b)).cache_key()
        assert key_a == key_b
        # ...but different weights at either path re-key
        (b / "weights.npz").write_bytes(b"other")
        assert JobSpec(job_id="j", solver="nn", model_dir=str(b)).cache_key() != key_a

    def test_retraining_in_place_changes_the_key(self, tmp_path):
        d = tmp_path / "m"
        d.mkdir()
        (d / "weights.npz").write_bytes(b"old weights")
        spec = JobSpec(job_id="j", solver="nn", model_dir=str(d))
        before = spec.cache_key()
        (d / "weights.npz").write_bytes(b"new weights")  # same path, new content
        assert spec.cache_key() != before

    def test_missing_model_dir_falls_back_to_the_path(self, tmp_path):
        a = JobSpec(job_id="j", solver="nn", model_dir=str(tmp_path / "not-yet-a"))
        b = JobSpec(job_id="j", solver="nn", model_dir=str(tmp_path / "not-yet-b"))
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == a.cache_key()  # deterministic without IO


class TestJobResult:
    def test_round_trips_through_json(self):
        res = JobResult(
            job_id="j1",
            status="completed",
            steps_done=12,
            solver_used="pcg",
            degraded=True,
            resumed_from=4,
            retries=1,
            wall_seconds=1.5,
            solve_seconds=0.8,
            final_divnorm=0.25,
            cum_divnorm=3.0,
            metrics={"counters": {"sim/steps": 12.0}, "timers": {}},
        )
        restored = JobResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert restored == res
        assert restored.ok

    def test_failed_result_not_ok(self):
        assert not JobResult(job_id="j", status="failed", error="boom").ok

    def test_legacy_timers_snapshot_loads_and_merges(self):
        """A result cached before spans replaced timers still loads: its
        metrics snapshot's ``timers`` key is ignored when merged."""
        from repro.metrics import MetricsRegistry

        legacy = JobResult(
            job_id="old",
            status="completed",
            steps_done=12,
            metrics={
                "counters": {"sim/steps": 12.0},
                "timers": {"sim/step": {"count": 12, "total": 0.5, "min": 0.01,
                                        "max": 0.1, "mean": 0.04}},
            },
        ).to_dict()
        restored = JobResult.from_dict(json.loads(json.dumps(legacy)))
        assert restored.ok and restored.metrics["timers"]["sim/step"]["count"] == 12
        farm = MetricsRegistry()
        farm.inc("sim/steps", 4)
        farm.merge(restored.metrics)
        assert farm.to_dict() == {"counters": {"sim/steps": 16.0}}
