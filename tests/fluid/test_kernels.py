"""Bit-for-bit equivalence of the kernel PCG loop vs. the grid-level oracle.

The kernel loop is only allowed to be *faster*, never *different*: every
assertion here is exact (``==`` / ``assert_array_equal``), not approximate.
"""

import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.fluid.kernels as kernels_mod
from repro.fluid import (
    FluidSimulator,
    MACGrid2D,
    MIC0Preconditioner,
    PCGSolver,
    ScenarioSpec,
    SimulationConfig,
    build_scenario,
)
from repro.fluid.geometry import disc_mask
from repro.fluid.kernels import GeometryKernels, MICTriangularFactor
from repro.fluid.laplacian import remove_nullspace, stencil_arrays
from repro.fluid.operators import apply_laplacian
from repro.metrics import MetricsRegistry, set_metrics
from repro.trace import Tracer, set_tracer

from .reference_pcg import ReferencePCGSolver


def border_wall(n=24):
    return MACGrid2D(n, n).solid.copy()


def multi_obstacle(n=24):
    solid = border_wall(n)
    solid |= disc_mask(solid.shape, n // 2, n // 3, n // 8)
    solid |= disc_mask(solid.shape, n // 4, 3 * n // 4, n // 10)
    return solid


def multi_component(n=24):
    """A full-height wall splits the fluid into two components."""
    solid = border_wall(n)
    solid[:, n // 2] = True
    return solid


GEOMETRIES = [
    ("border_wall", border_wall),
    ("multi_obstacle", multi_obstacle),
    ("multi_component", multi_component),
]


def make_rhs(solid, seed=1):
    rng = np.random.default_rng(seed)
    return np.where(~solid, rng.standard_normal(solid.shape), 0.0)


def require_native():
    if kernels_mod._native_mic0() is None:
        pytest.skip("the C MIC(0) sweep could not be built or loaded here")


def assert_results_identical(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.residual_norm == b.residual_norm
    assert a.flops == b.flops
    assert a.residual_history == b.residual_history
    np.testing.assert_array_equal(a.pressure, b.pressure)


class TestGeometryKernels:
    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    def test_matvec_matches_apply_laplacian_bitwise(self, label, geom):
        solid = geom()
        kern = GeometryKernels(solid)
        rng = np.random.default_rng(7)
        v = np.where(~solid, rng.standard_normal(solid.shape), 0.0)
        dense = apply_laplacian(v, solid)
        np.testing.assert_array_equal(kern.matvec(kern.gather(v)), kern.gather(dense))

    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    def test_gather_scatter_roundtrip(self, label, geom):
        solid = geom()
        kern = GeometryKernels(solid)
        rng = np.random.default_rng(3)
        field = np.where(~solid, rng.standard_normal(solid.shape), 0.0)
        np.testing.assert_array_equal(kern.gather(field), field[~solid])
        np.testing.assert_array_equal(kern.scatter(kern.gather(field)), field)

    def test_degree_matches_stencil_diagonal(self):
        solid = multi_obstacle()
        kern = GeometryKernels(solid)
        adiag, _, _ = stencil_arrays(solid)
        np.testing.assert_array_equal(kern.degree, adiag)


class TestMICTriangularFactor:
    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    @pytest.mark.parametrize("sweep", ["native", "superlu"])
    def test_factor_apply_matches_wavefront_apply_bitwise(self, sweep, label, geom, monkeypatch):
        if sweep == "native":
            require_native()
        else:
            monkeypatch.setattr(kernels_mod, "_mic0", False)
        solid = geom()
        kern = GeometryKernels(solid)
        mic = MIC0Preconditioner(solid)
        factor = kern.mic_factor(mic)
        rng = np.random.default_rng(11)
        r = np.where(~solid, rng.standard_normal(solid.shape), 0.0)
        np.testing.assert_array_equal(
            factor.apply(kern.gather(r)), kern.gather(mic.apply(r))
        )

    def test_factor_memoised_per_preconditioner(self):
        solid = border_wall()
        kern = GeometryKernels(solid)
        mic = MIC0Preconditioner(solid)
        assert kern.mic_factor(mic) is kern.mic_factor(mic)
        other = MIC0Preconditioner(solid, tau=0.9)
        assert kern.mic_factor(other) is not kern.mic_factor(mic)

    def test_wrapper_fallback_is_bitwise_identical(self, monkeypatch):
        """Without the C kernel and private SuperLU access the public wrapper must match."""
        solid = multi_obstacle()
        kern = GeometryKernels(solid)
        mic = MIC0Preconditioner(solid)
        factor = MICTriangularFactor(kern, mic)
        r = kern.gather(make_rhs(solid, seed=5))
        fast = factor.apply(r)
        monkeypatch.setattr(kernels_mod, "_mic0", False)
        monkeypatch.setattr(kernels_mod, "_superlu", None)
        slow = factor.apply(r)
        np.testing.assert_array_equal(fast, slow)

    def test_one_factor_applies_from_many_threads(self):
        """Applies share no work buffer: concurrent calls keep their own bits."""
        solid = multi_obstacle(64)
        kern = GeometryKernels(solid)
        factor = kern.mic_factor(MIC0Preconditioner(solid))
        rs = [kern.gather(make_rhs(solid, seed=s)) for s in range(4)]
        expected = [factor.apply(r) for r in rs]
        agree = {}

        def work(k):
            agree[k] = all(
                np.array_equal(factor.apply(r), e)
                for _ in range(50)
                for r, e in zip(rs, expected)
            )

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert agree == {k: True for k in range(4)}

    def test_rejects_a_vector_of_the_wrong_length(self):
        require_native()
        solid = border_wall()
        kern = GeometryKernels(solid)
        factor = kern.mic_factor(MIC0Preconditioner(solid))
        with pytest.raises(ValueError, match="cells"):
            factor.apply(np.zeros(kern.n - 1))


class TestNativeBuild:
    """The C sweep compiles once per source and flags, and its absence is harmless."""

    def test_build_is_cached_under_xdg_cache_home(self, monkeypatch, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        tracer = Tracer(enabled=True)
        previous_tracer = set_tracer(tracer)
        previous_metrics = set_metrics(MetricsRegistry())
        try:
            for _ in range(2):  # a fresh process compiles, the next one only loads
                monkeypatch.setattr(kernels_mod, "_mic0", None)
                assert kernels_mod._native_mic0() is not None
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
        spans = [s for s in tracer.spans() if s.name == "kernels/mic0"]
        assert [s.attrs["compiled"] for s in spans] == [True, False]
        cache = tmp_path / "repro"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        digest = hashlib.sha256(
            kernels_mod.MIC0_SOURCE.read_bytes()
            + " ".join(kernels_mod.MIC0_CFLAGS).encode()
            + platform.machine().encode()
        ).hexdigest()[:16]
        assert [p.name for p in cache.iterdir()] == [f"mic0-{digest}.so"]
        library = cache / f"mic0-{digest}.so"
        assert stat.S_IMODE(library.stat().st_mode) & (stat.S_IWGRP | stat.S_IWOTH) == 0

    @pytest.mark.parametrize("loose", ["directory", "library"])
    def test_cache_others_may_write_is_not_loaded(self, loose, monkeypatch, tmp_path, caplog):
        """A cache entry another user could have written or planted falls back."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels_mod, "_mic0", None)
        assert kernels_mod._native_mic0() is not None  # builds the library
        cache = tmp_path / "repro"
        (library,) = cache.iterdir()
        target, mode = (cache, 0o777) if loose == "directory" else (library, 0o775)
        target.chmod(mode)
        monkeypatch.setattr(kernels_mod, "_mic0", None)
        solid = multi_obstacle()
        b = make_rhs(solid)
        with caplog.at_level(logging.WARNING, logger=kernels_mod.__name__):
            result = PCGSolver().solve(b, solid)
        assert kernels_mod._mic0 is False
        (message,) = [r.getMessage() for r in caplog.records if "SuperLU" in r.getMessage()]
        assert f"{target} is not private" in message
        assert_results_identical(result, ReferencePCGSolver().solve(b, solid))

    def test_failed_build_falls_back_bitwise(self, monkeypatch, tmp_path, caplog):
        solid = multi_obstacle()
        b = make_rhs(solid)
        expected = PCGSolver().solve(b, solid)
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(empty))  # no cc to build with
        monkeypatch.setattr(kernels_mod, "_mic0", None)
        with caplog.at_level(logging.WARNING, logger=kernels_mod.__name__):
            first = PCGSolver().solve(b, solid)
            second = PCGSolver().solve(b, solid)
        assert kernels_mod._mic0 is False
        assert [r.getMessage() for r in caplog.records if "SuperLU" in r.getMessage()] == [
            "MIC(0) C sweep unavailable, using SuperLU: no C compiler (cc) on PATH"
        ]
        assert_results_identical(first, expected)
        assert_results_identical(second, expected)

    #: PCG solves on the main thread, then one child forked from a second
    #: thread.  SuperLU's ``gstrs`` leaves per-thread state whose teardown in
    #: such a child prints a ``SystemError`` from ``random``'s at-fork hook;
    #: the C sweep keeps none.
    FORK_AFTER_SOLVES = textwrap.dedent(
        """
        import multiprocessing, threading
        import numpy as np
        from repro.fluid import MACGrid2D, PCGSolver

        solid = MACGrid2D(24, 24).solid
        b = np.where(~solid, np.random.default_rng(0).standard_normal(solid.shape), 0.0)
        for _ in range(3):
            PCGSolver().solve(b, solid)

        def fork_child():
            child = multiprocessing.get_context("fork").Process(target=int)
            child.start()
            child.join()

        thread = threading.Thread(target=fork_child)
        thread.start()
        thread.join()
        """
    )

    def test_fork_from_another_thread_after_solves_is_silent(self):
        require_native()
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", self.FORK_AFTER_SOLVES],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SystemError" not in proc.stderr


class TestBackendEquivalence:
    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    @pytest.mark.parametrize("precond", ["mic0", "jacobi", "none"])
    def test_solve_results_identical(self, label, geom, precond):
        solid = geom()
        b = make_rhs(solid)
        res_k = PCGSolver(preconditioner=precond).solve(b, solid)
        res_r = ReferencePCGSolver(preconditioner=precond).solve(b, solid)
        assert res_k.converged
        assert_results_identical(res_k, res_r)

    def test_zero_rhs_identical(self):
        solid = border_wall()
        b = np.zeros(solid.shape)
        assert_results_identical(
            PCGSolver().solve(b, solid),
            ReferencePCGSolver().solve(b, solid),
        )

    def test_geometry_switch_identical(self):
        """Cache invalidation on a mid-stream geometry change, both loops."""
        s1, s2 = border_wall(), multi_obstacle()
        solver_k = PCGSolver()
        solver_r = ReferencePCGSolver()
        for solid in (s1, s2, s1):
            b = make_rhs(solid)
            assert_results_identical(solver_k.solve(b, solid), solver_r.solve(b, solid))

    def test_kernel_backend_counts_same_mic_cache(self):
        metrics = MetricsRegistry()
        solid = border_wall()
        b = make_rhs(solid)
        solver = PCGSolver(metrics=metrics)
        solver.solve(b, solid)
        solver.solve(b, solid)
        assert metrics.counter("cache/mic0/miss") == 1
        assert metrics.counter("cache/mic0/hit") == 1
        assert metrics.counter("cache/kernels/miss") == 1
        assert metrics.counter("cache/kernels/hit") == 1


def run_scenario(name: str, steps: int = 3):
    grid, scenario = build_scenario(ScenarioSpec(name, grid=128), rng=7)
    solver = scenario.wrap_solver(PCGSolver())
    config = SimulationConfig(**getattr(scenario, "config_overrides", {}))
    result = FluidSimulator(grid, solver, scenario, config).run(steps)
    return grid, result


class TestScenariosThroughBothSweeps:
    @pytest.mark.parametrize("name", ["karman_street", "moving_cylinder"])
    def test_native_and_superlu_runs_identical(self, name, monkeypatch):
        require_native()
        grid_n, res_n = run_scenario(name)
        monkeypatch.setattr(kernels_mod, "_mic0", False)
        grid_s, res_s = run_scenario(name)
        assert [r.projection.iterations for r in res_n.records] == [
            r.projection.iterations for r in res_s.records
        ]
        np.testing.assert_array_equal(res_n.density, res_s.density)
        np.testing.assert_array_equal(grid_n.u, grid_s.u)
        np.testing.assert_array_equal(grid_n.v, grid_s.v)
