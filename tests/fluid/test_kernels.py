"""Bit-for-bit equivalence of the kernel PCG loop vs. the grid-level oracle.

The kernel loop is only allowed to be *faster*, never *different*: every
assertion here is exact (``==`` / ``assert_array_equal``), not approximate.
"""

import numpy as np
import pytest

import repro.fluid.kernels as kernels_mod
from repro.fluid import MACGrid2D, MIC0Preconditioner, PCGSolver
from repro.fluid.geometry import disc_mask
from repro.fluid.kernels import GeometryKernels, MICTriangularFactor, spectral_eligible
from repro.fluid.laplacian import remove_nullspace, stencil_arrays
from repro.fluid.operators import apply_laplacian
from repro.metrics import MetricsRegistry

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

    def test_inv_degree_matches_reference_formula(self):
        solid = multi_obstacle()
        kern = GeometryKernels(solid)
        adiag, _, _ = stencil_arrays(solid)
        inv = np.where(adiag > 0, 1.0 / np.maximum(adiag, 1e-30), 0.0)
        np.testing.assert_array_equal(kern.inv_degree, kern.gather(inv))


class TestMICTriangularFactor:
    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    def test_factor_apply_matches_wavefront_apply_bitwise(self, label, geom):
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
        """Without private SuperLU access the public wrapper must match."""
        solid = multi_obstacle()
        kern = GeometryKernels(solid)
        mic = MIC0Preconditioner(solid)
        factor = MICTriangularFactor(kern, mic)
        r = kern.gather(make_rhs(solid, seed=5))
        fast = factor.apply(r)
        monkeypatch.setattr(kernels_mod, "_superlu", None)
        slow = factor.apply(r)
        np.testing.assert_array_equal(fast, slow)


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

    @pytest.mark.parametrize("label,geom", GEOMETRIES)
    def test_warm_start_identical_across_backends(self, label, geom):
        solid = geom()
        b1, b2 = make_rhs(solid, seed=1), make_rhs(solid, seed=2)
        warm_k = PCGSolver(warm_start=True)
        warm_r = ReferencePCGSolver(warm_start=True)
        assert_results_identical(warm_k.solve(b1, solid), warm_r.solve(b1, solid))
        assert_results_identical(warm_k.solve(b2, solid), warm_r.solve(b2, solid))

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


class TestJacobiKernelPath:
    def test_jacobi_solver_matches_legacy_dense_sweeps(self):
        """The flat Jacobi sweep equals the historical dense formulation."""
        from repro.fluid import JacobiSolver

        solid = multi_obstacle()
        b = make_rhs(solid)
        res = JacobiSolver(iterations=60).solve(b, solid)

        fluid = ~solid
        adiag, _, _ = stencil_arrays(solid)
        inv = np.where(adiag > 0, 1.0 / np.maximum(adiag, 1e-30), 0.0)
        bb = np.where(fluid, b, 0.0)
        p = np.zeros_like(bb)
        for _ in range(60):
            r = bb - apply_laplacian(p, solid)
            p = p + 0.8 * inv * r
        p = np.where(fluid, p - p[fluid].mean(), 0.0)
        np.testing.assert_array_equal(res.pressure, p)


class TestSpectralEligible:
    def test_closed_box_is_eligible(self):
        assert spectral_eligible(border_wall())

    def test_interior_obstacle_is_not(self):
        assert not spectral_eligible(multi_obstacle())

    def test_missing_wall_is_not(self):
        solid = border_wall()
        solid[0, 5] = False
        assert not spectral_eligible(solid)

    def test_tiny_grids_are_not(self):
        assert not spectral_eligible(np.ones((2, 5), dtype=bool))
