"""Tests for the MICCG(0) pressure solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    MACGrid2D,
    MIC0Preconditioner,
    PCGSolver,
    apply_laplacian,
    make_smoke_plume,
)


def plume_solid(n: int, seed: int) -> np.ndarray:
    g, _ = make_smoke_plume(n, n, rng=seed)
    return g.solid


def compatible_rhs(solid: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fluid = ~solid
    b = np.where(fluid, rng.standard_normal(solid.shape), 0.0)
    return np.where(fluid, b - b[fluid].mean(), 0.0)


class TestMIC0Preconditioner:
    def test_requires_border_wall(self):
        solid = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ValueError):
            MIC0Preconditioner(solid)

    def test_apply_is_linear(self):
        solid = plume_solid(16, 0)
        pc = MIC0Preconditioner(solid)
        a = compatible_rhs(solid, 1)
        b = compatible_rhs(solid, 2)
        np.testing.assert_allclose(
            pc.apply(2.0 * a + 3.0 * b), 2.0 * pc.apply(a) + 3.0 * pc.apply(b), atol=1e-10
        )

    def test_apply_is_symmetric(self):
        # M^{-1} = (L L^T)^{-1} must be symmetric: <M^{-1}a, b> == <a, M^{-1}b>
        solid = plume_solid(16, 3)
        pc = MIC0Preconditioner(solid)
        a = compatible_rhs(solid, 4)
        b = compatible_rhs(solid, 5)
        assert (pc.apply(a) * b).sum() == pytest.approx((a * pc.apply(b)).sum())

    def test_apply_is_positive_definite_on_fluid(self):
        solid = plume_solid(16, 6)
        pc = MIC0Preconditioner(solid)
        for seed in range(5):
            a = compatible_rhs(solid, seed)
            assert (pc.apply(a) * a).sum() > 0

    def test_zero_on_solid_cells(self):
        solid = plume_solid(16, 7)
        pc = MIC0Preconditioner(solid)
        out = pc.apply(compatible_rhs(solid, 8))
        assert (out[solid] == 0).all()

    def test_preconditioner_accelerates_cg(self):
        solid = plume_solid(32, 9)
        b = compatible_rhs(solid, 10)
        plain = PCGSolver(tol=1e-8, preconditioner="none").solve(b, solid)
        mic = PCGSolver(tol=1e-8, preconditioner="mic0").solve(b, solid)
        assert mic.converged and plain.converged
        assert mic.iterations < plain.iterations


class TestPCGSolver:
    def test_solves_poisson(self):
        solid = plume_solid(16, 0)
        b = compatible_rhs(solid, 1)
        res = PCGSolver(tol=1e-9).solve(b, solid)
        assert res.converged
        r = b - apply_laplacian(res.pressure, solid)
        assert np.abs(r[~solid]).max() < 1e-7

    def test_solution_mean_zero(self):
        solid = plume_solid(16, 2)
        res = PCGSolver().solve(compatible_rhs(solid, 3), solid)
        assert res.pressure[~solid].mean() == pytest.approx(0.0, abs=1e-12)

    def test_zero_rhs_returns_immediately(self):
        solid = plume_solid(16, 4)
        res = PCGSolver().solve(np.zeros(solid.shape), solid)
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.pressure, 0.0)

    def test_incompatible_rhs_projected(self):
        # a nonzero-mean rhs is projected onto the solvable subspace
        solid = plume_solid(16, 5)
        rng = np.random.default_rng(6)
        b = np.where(~solid, rng.standard_normal(solid.shape) + 5.0, 0.0)
        res = PCGSolver(tol=1e-8).solve(b, solid)
        assert res.converged

    def test_residual_history_monotone_trend(self):
        solid = plume_solid(32, 7)
        res = PCGSolver(tol=1e-8).solve(compatible_rhs(solid, 8), solid)
        hist = np.array(res.residual_history)
        assert hist[-1] < hist[0] * 1e-6

    def test_iteration_cap_reported(self):
        solid = plume_solid(32, 9)
        res = PCGSolver(tol=1e-12, max_iterations=3).solve(compatible_rhs(solid, 10), solid)
        assert not res.converged
        assert res.iterations == 3

    def test_flops_accounted(self):
        solid = plume_solid(16, 11)
        res = PCGSolver().solve(compatible_rhs(solid, 12), solid)
        assert res.flops > 0

    def test_unknown_preconditioner_rejected(self):
        with pytest.raises(ValueError):
            PCGSolver(preconditioner="ilu")

    def test_no_warm_start(self):
        """Every solve starts from zero; there is no warm-start option."""
        with pytest.raises(TypeError):
            PCGSolver(warm_start=True)

    def test_jacobi_preconditioner_works(self):
        solid = plume_solid(16, 13)
        res = PCGSolver(tol=1e-8, preconditioner="jacobi").solve(compatible_rhs(solid, 14), solid)
        assert res.converged

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_convergence_across_geometries(self, seed):
        solid = plume_solid(16, seed)
        b = compatible_rhs(solid, seed + 1)
        res = PCGSolver(tol=1e-7).solve(b, solid)
        assert res.converged

    def test_preconditioner_cache_reused_and_refreshed(self):
        solver = PCGSolver()
        s1 = plume_solid(16, 15)
        solver.solve(compatible_rhs(s1, 16), s1)
        first = solver._mic_cache._value
        assert first is not None
        solver.solve(compatible_rhs(s1, 17), s1)
        assert solver._mic_cache._value is first  # same mask -> cached
        s2 = plume_solid(16, 18)
        solver.solve(compatible_rhs(s2, 19), s2)
        assert solver._mic_cache._value is not first  # new mask -> rebuilt

    def test_linearity_of_solution(self):
        solid = plume_solid(16, 20)
        b = compatible_rhs(solid, 21)
        p1 = PCGSolver(tol=1e-10).solve(b, solid).pressure
        p2 = PCGSolver(tol=1e-10).solve(2.0 * b, solid).pressure
        np.testing.assert_allclose(p2, 2.0 * p1, atol=1e-6)
