"""PressureSolver protocol conformance and cache-correctness tests."""

import numpy as np
import pytest

from repro.fluid import (
    MACGrid2D,
    MaskKeyedCache,
    MIC0Preconditioner,
    MultigridSolver,
    PCGSolver,
    PressureSolver,
    SolveResult,
)
from repro.fluid.geometry import disc_mask
from repro.fluid.laplacian import remove_nullspace
from repro.metrics import MetricsRegistry
from repro.models import NNProjectionSolver
from repro.nn import Conv2d, Network, ReLU


def make_geometry(n=24):
    g = MACGrid2D(n, n)
    solid = g.solid.copy()
    solid |= disc_mask(solid.shape, n // 2, n // 3, n // 8)
    return solid


def make_rhs(solid, seed=1):
    rng = np.random.default_rng(seed)
    b = np.where(~solid, rng.standard_normal(solid.shape), 0.0)
    return remove_nullspace(b, solid)


def nn_solver(**kw):
    net = Network([Conv2d(2, 4, rng=0), ReLU(), Conv2d(4, 1, rng=1)])
    return NNProjectionSolver(net, **kw)


ALL_SOLVERS = [
    ("pcg", lambda: PCGSolver()),
    ("multigrid", lambda: MultigridSolver()),
    ("jacobi", lambda: PCGSolver(preconditioner="jacobi")),
    ("nn", lambda: nn_solver()),
]


class TestProtocolConformance:
    @pytest.mark.parametrize("label,factory", ALL_SOLVERS)
    def test_subclasses_abc(self, label, factory):
        solver = factory()
        assert isinstance(solver, PressureSolver)
        assert issubclass(type(solver), PressureSolver)

    @pytest.mark.parametrize("label,factory", ALL_SOLVERS)
    def test_name_and_reset(self, label, factory):
        solver = factory()
        assert isinstance(solver.name, str) and solver.name
        solver.reset()  # lifecycle hook must be callable at any time

    @pytest.mark.parametrize("label,factory", ALL_SOLVERS)
    def test_solve_returns_solve_result(self, label, factory):
        solid = make_geometry()
        res = factory().solve(make_rhs(solid), solid)
        assert isinstance(res, SolveResult)
        assert res.pressure.shape == solid.shape
        assert (res.pressure[solid] == 0).all()

    def test_abc_rejects_incomplete_subclass(self):
        class Incomplete(PressureSolver):
            name = "broken"

        with pytest.raises(TypeError):
            Incomplete()

    def test_structural_conformance_for_wrappers(self):
        class DuckSolver:
            name = "duck"

            def solve(self, b, solid):
                return SolveResult(np.zeros_like(b), 0, True, 0.0)

            def reset(self):
                pass

        assert isinstance(DuckSolver(), PressureSolver)


class TestCacheCorrectness:
    def test_cached_mic0_bitwise_equal_to_cold(self):
        solid = make_geometry()
        b = make_rhs(solid)
        solver = PCGSolver()
        solver.solve(b, solid)
        cached = solver._mic_cache._value.precon.copy()
        solver.reset()
        solver.solve(b, solid)
        cold = solver._mic_cache._value.precon
        np.testing.assert_array_equal(cached, cold)
        # and both match a freshly built preconditioner
        np.testing.assert_array_equal(cold, MIC0Preconditioner(solid).precon)

    @pytest.mark.parametrize(
        "label,factory",
        [
            ("pcg", lambda: PCGSolver()),
            ("multigrid", lambda: MultigridSolver()),
            ("jacobi", lambda: PCGSolver(preconditioner="jacobi")),
        ],
    )
    def test_caching_does_not_change_results(self, label, factory):
        """Identical inputs give identical SolveResults, cached or cold."""
        solid = make_geometry()
        b = make_rhs(solid)
        solver = factory()
        warmup = solver.solve(b, solid)  # populates the cache
        cached = solver.solve(b, solid)  # hits the cache
        solver.reset()
        cold = solver.solve(b, solid)  # rebuilds from scratch
        for res in (warmup, cached):
            assert res.iterations == cold.iterations
            assert res.converged == cold.converged
            assert res.residual_norm == cold.residual_norm
            np.testing.assert_array_equal(res.pressure, cold.pressure)

    def test_cache_hit_miss_counters(self):
        metrics = MetricsRegistry()
        solid = make_geometry()
        b = make_rhs(solid)
        solver = PCGSolver(metrics=metrics)
        solver.solve(b, solid)
        solver.solve(b, solid)
        assert metrics.counter("cache/mic0/miss") == 1
        assert metrics.counter("cache/mic0/hit") == 1

    def test_nn_solver_geometry_and_workspace_reuse(self):
        solid = make_geometry()
        b = make_rhs(solid)
        solver = nn_solver()
        r1 = solver.solve(b, solid)
        geo = solver._geo_cache._value
        x = solver._x
        r2 = solver.solve(b, solid)
        assert solver._geo_cache._value is geo
        assert solver._x is x
        np.testing.assert_array_equal(r1.pressure, r2.pressure)
        solver.reset()
        assert solver._x is None
        r3 = solver.solve(b, solid)
        np.testing.assert_array_equal(r1.pressure, r3.pressure)


class TestMaskKeyedCache:
    def masks(self, count, n=8):
        out = []
        for i in range(count):
            m = MACGrid2D(n, n).solid.copy()
            m[1 + i % (n - 2), 1] = True
            out.append(m)
        return out

    def test_capacity_one_evicts_previous_geometry(self):
        cache = MaskKeyedCache("t")
        a, b = self.masks(2)
        metrics = MetricsRegistry()
        cache.get(a, lambda: "A", metrics)
        cache.get(b, lambda: "B", metrics)
        assert cache.get(a, lambda: "A2", metrics) == "A2"  # a was evicted
        assert metrics.to_dict()["counters"]["cache/t/miss"] == 3

    def test_multi_entry_capacity_retains_all(self):
        cache = MaskKeyedCache("t", capacity=4)
        metrics = MetricsRegistry()
        for i, m in enumerate(self.masks(4)):
            cache.get(m, lambda i=i: i, metrics)
        for i, m in enumerate(self.masks(4)):
            assert cache.get(m, lambda: "rebuilt", metrics) == i
        counters = metrics.to_dict()["counters"]
        assert counters["cache/t/miss"] == 4
        assert counters["cache/t/hit"] == 4

    def test_lru_eviction_order(self):
        cache = MaskKeyedCache("t", capacity=2)
        a, b, c = self.masks(3)
        cache.get(a, lambda: "A")
        cache.get(b, lambda: "B")
        cache.get(a, lambda: "never")  # touch a: b is now least recent
        cache.get(c, lambda: "C")  # evicts b
        metrics = MetricsRegistry()
        cache.get(a, lambda: "rebuilt-a", metrics)
        cache.get(b, lambda: "rebuilt-b", metrics)
        counters = metrics.to_dict()["counters"]
        assert counters["cache/t/hit"] == 1  # a survived
        assert counters["cache/t/miss"] == 1  # b did not

    def test_value_tracks_most_recent(self):
        cache = MaskKeyedCache("t", capacity=2)
        a, b = self.masks(2)
        cache.get(a, lambda: "A")
        cache.get(b, lambda: "B")
        assert cache._value == "B"
        cache.get(a, lambda: "never")
        assert cache._value == "A"
        cache.clear()
        assert cache._value is None

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            MaskKeyedCache("t", capacity=0)
