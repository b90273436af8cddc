"""Checkpoint/restore: bit-for-bit resume equality for PCG and NN solvers."""

import numpy as np
import pytest

from repro.data import InputProblem
from repro.farm.checkpoint import checkpoint_step, load_checkpoint, save_checkpoint
from repro.fluid import FluidSimulator, PCGSolver, SpectralSolver
from repro.metrics import NULL_METRICS
from repro.models import NNProjectionSolver, tompson_arch

GRID = 20
SEED = 5
TOTAL_STEPS = 6
SPLIT_AT = 3


def make_solver(kind: str):
    if kind == "pcg":
        return PCGSolver(metrics=NULL_METRICS)
    if kind == "spectral":
        return SpectralSolver(metrics=NULL_METRICS)
    return NNProjectionSolver(tompson_arch(4).build(rng=0), passes=2, metrics=NULL_METRICS)


def make_sim(kind: str) -> FluidSimulator:
    grid, source = InputProblem(GRID, SEED).materialize()
    return FluidSimulator(grid, make_solver(kind), source, metrics=NULL_METRICS)


@pytest.mark.parametrize("kind", ["pcg", "spectral", "nn"])
def test_resumed_run_is_bit_for_bit_identical(kind, tmp_path):
    reference = make_sim(kind)
    reference.run(TOTAL_STEPS)

    first = make_sim(kind)
    first.run(SPLIT_AT)
    path = save_checkpoint(first, tmp_path / "job.ckpt.npz")
    assert checkpoint_step(path) == SPLIT_AT

    resumed = make_sim(kind)  # fresh process stand-in: new grid, new solver
    resumed.load_state(load_checkpoint(path))
    assert resumed.current_step == SPLIT_AT
    resumed.run(TOTAL_STEPS - SPLIT_AT)

    np.testing.assert_array_equal(resumed.grid.density, reference.grid.density)
    np.testing.assert_array_equal(resumed.grid.u, reference.grid.u)
    np.testing.assert_array_equal(resumed.grid.v, reference.grid.v)
    np.testing.assert_array_equal(resumed.grid.pressure, reference.grid.pressure)
    # per-step diagnostics also line up exactly across the seam
    ref_tail = [r.divnorm for r in reference.records[SPLIT_AT:]]
    res_tail = [r.divnorm for r in resumed.records]
    assert res_tail == ref_tail


def test_checkpoint_preserves_divnorm_history(tmp_path):
    sim = make_sim("pcg")
    sim.run(SPLIT_AT)
    history = [r.divnorm for r in sim.records]
    path = save_checkpoint(sim, tmp_path / "c.npz")
    state = load_checkpoint(path)
    np.testing.assert_allclose(state["divnorm_history"], history)
    fresh = make_sim("pcg")
    fresh.load_state(state)
    np.testing.assert_allclose(fresh.full_divnorm_history, history)


def test_resume_stitches_timeline_without_dup_or_missing_steps(tmp_path):
    """The step-event timeline must cover every step exactly once after a
    checkpoint restore — no duplicated pre-restore events, no gap at the seam.
    """
    reference = make_sim("pcg")
    ref_result = reference.run(TOTAL_STEPS)

    first = make_sim("pcg")
    first.run(SPLIT_AT)
    path = save_checkpoint(first, tmp_path / "job.ckpt.npz")
    resumed = make_sim("pcg")
    resumed.load_state(load_checkpoint(path))
    result = resumed.run(TOTAL_STEPS - SPLIT_AT)

    for type_ in ("divnorm", "step"):
        steps = sorted(e.step for e in result.timeline if e.type == type_)
        assert steps == list(range(TOTAL_STEPS)), type_
    np.testing.assert_allclose(
        result.full_divnorm_history, ref_result.full_divnorm_history
    )


def test_load_state_rejects_mismatched_grid(tmp_path):
    sim = make_sim("pcg")
    sim.run(1)
    path = save_checkpoint(sim, tmp_path / "c.npz")
    other_grid, other_source = InputProblem(GRID + 4, SEED).materialize()
    other = FluidSimulator(other_grid, PCGSolver(metrics=NULL_METRICS), other_source,
                           metrics=NULL_METRICS)
    with pytest.raises(ValueError, match="does not match"):
        other.load_state(load_checkpoint(path))


def test_checkpoint_payload_is_fsynced_before_rename(tmp_path, monkeypatch):
    """Durability regression: the tmp file must hit disk before the rename.

    Atomic-in-the-namespace is not enough — a crash right after the rename
    could otherwise leave a torn checkpoint that looks valid.
    """
    import os
    from pathlib import Path

    synced_before_rename = []
    real_fsync = os.fsync
    real_replace = Path.replace

    def spy_fsync(fd):
        synced_before_rename.append(fd)
        return real_fsync(fd)

    def spy_replace(self, target):
        assert synced_before_rename, "renamed without fsyncing the payload"
        return real_replace(self, target)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(Path, "replace", spy_replace)
    sim = make_sim("pcg")
    sim.run(1)
    path = save_checkpoint(sim, tmp_path / "c.npz")
    assert synced_before_rename
    assert checkpoint_step(path) == 1


def test_failed_checkpoint_write_leaves_no_tmp_file(tmp_path, monkeypatch):
    """A crash mid-write must propagate and not litter ``.tmp`` files."""
    import numpy as np_mod

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np_mod, "savez", boom)
    import repro.farm.checkpoint as ckpt_mod

    monkeypatch.setattr(ckpt_mod.np, "savez", boom)
    sim = make_sim("pcg")
    sim.run(1)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(sim, tmp_path / "c.npz")
    assert not list(tmp_path.glob("*.tmp"))
    assert not (tmp_path / "c.npz").exists()


def test_checkpoint_write_is_atomic(tmp_path):
    sim = make_sim("pcg")
    sim.run(1)
    path = save_checkpoint(sim, tmp_path / "c.npz")
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    # a second save overwrites in place and stays loadable
    sim.run(1)
    save_checkpoint(sim, path)
    assert checkpoint_step(path) == 2


class TestOrphanSweep:
    """Torn ``.tmp`` checkpoints from killed workers are swept, never resumed."""

    def test_sweep_removes_only_torn_tmp_files(self, tmp_path):
        from repro.farm import sweep_orphans

        good = tmp_path / "a.smoke_plume.deadbeef.ckpt.npz"
        torn = tmp_path / "a.smoke_plume.deadbeef.ckpt.npz.tmp"
        other = tmp_path / "unrelated.txt"
        good.write_bytes(b"payload")
        torn.write_bytes(b"torn half-write")
        other.write_text("keep me")
        removed = sweep_orphans(tmp_path)
        assert removed == [torn]
        assert good.exists() and other.exists() and not torn.exists()

    def test_sweep_of_missing_directory_is_a_noop(self, tmp_path):
        from repro.farm import sweep_orphans

        assert sweep_orphans(tmp_path / "nope") == []

    def test_crashed_mid_write_checkpoint_cleaned_and_job_resumes(self, tmp_path):
        """A worker killed mid-checkpoint leaves a torn .tmp next to the last
        good snapshot; the retry must drop the orphan and resume from the
        good state (satellite regression for the serve tier's long-lived
        checkpoint directories)."""
        from repro.farm import JobSpec
        from repro.farm.worker import run_job
        from repro.metrics import MetricsRegistry

        base = dict(grid_size=16, seed=3, steps=6, checkpoint_every=3)
        straight = run_job(JobSpec(job_id="job", **base))

        first = run_job(
            JobSpec(job_id="job", **dict(base, steps=3)), checkpoint_dir=tmp_path
        )
        assert first.ok and first.steps_done == 3
        ckpt = tmp_path / f"{JobSpec(job_id='job', **base).checkpoint_key}.ckpt.npz"
        assert ckpt.exists()
        torn = ckpt.with_name(ckpt.name + ".tmp")
        torn.write_bytes(b"\x00garbage from a kill -9 mid-savez")

        m = MetricsRegistry()
        resumed = run_job(JobSpec(job_id="job", **base), checkpoint_dir=tmp_path, metrics=m)
        assert not torn.exists()
        assert m.counter("farm/orphan_checkpoints_swept") == 1
        assert resumed.ok
        assert resumed.resumed_from == 3
        assert resumed.final_divnorm == straight.final_divnorm

    def test_farm_run_sweeps_orphans_at_startup(self, tmp_path):
        from repro.farm import JobSpec, SimulationFarm
        from repro.metrics import MetricsRegistry

        (tmp_path / "stale.smoke_plume.12345678.ckpt.npz.tmp").write_bytes(b"torn")
        m = MetricsRegistry()
        farm = SimulationFarm(backend="serial", checkpoint_dir=tmp_path, metrics=m)
        report = farm.run([JobSpec(job_id="j", grid_size=12, steps=2)])
        assert report.results[0].ok
        assert not list(tmp_path.glob("*.tmp"))
        assert m.counter("farm/orphan_checkpoints_swept") == 1
