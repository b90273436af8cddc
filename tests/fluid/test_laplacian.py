"""Tests for the sparse Poisson assembly."""

import numpy as np
import pytest
from scipy.ndimage import label

from repro.fluid import MACGrid2D, build_poisson_system, poisson_rhs, stencil_arrays
from repro.fluid.laplacian import fluid_components, remove_nullspace


class TestBuildPoissonSystem:
    def test_dimensions_match_fluid_count(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        assert system.n == int(g.fluid.sum())
        assert system.matrix.shape == (system.n, system.n)

    def test_interior_cell_has_degree_four(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        row = system.fluid_index[4, 4]
        assert system.matrix[row, row] == 4.0

    def test_corner_fluid_cell_has_degree_two(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        row = system.fluid_index[1, 1]  # touches wall on two sides
        assert system.matrix[row, row] == 2.0

    def test_offdiagonal_minus_one(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        r1 = system.fluid_index[4, 4]
        r2 = system.fluid_index[4, 5]
        assert system.matrix[r1, r2] == -1.0
        assert system.matrix[r2, r1] == -1.0

    def test_matrix_symmetric(self):
        g = MACGrid2D(10, 10)
        mask = np.zeros((10, 10), dtype=bool)
        mask[3:5, 6:8] = True
        g.add_solid(mask)
        m = build_poisson_system(g.solid).matrix
        assert (m != m.T).nnz == 0

    def test_row_sums_zero_interior(self):
        # rows of cells with all-fluid neighbours sum to zero (Neumann walls
        # remove the coupling *and* the degree, so wall rows also sum to 0)
        g = MACGrid2D(8, 8)
        m = build_poisson_system(g.solid).matrix
        np.testing.assert_allclose(np.asarray(m.sum(axis=1)).ravel(), 0.0)

    def test_flatten_unflatten_roundtrip(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        rng = np.random.default_rng(0)
        field = np.where(g.fluid, rng.standard_normal(g.shape), 0.0)
        vec = system.flatten(field)
        np.testing.assert_array_equal(system.unflatten(vec, g.shape), field)

    def test_fluid_index_solid_is_minus_one(self):
        g = MACGrid2D(8, 8)
        system = build_poisson_system(g.solid)
        assert (system.fluid_index[g.solid] == -1).all()
        assert (system.fluid_index[g.fluid] >= 0).all()


class TestStencilArrays:
    def test_adiag_matches_matrix_diagonal(self):
        g = MACGrid2D(9, 9)
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        g.add_solid(mask)
        adiag, _, _ = stencil_arrays(g.solid)
        system = build_poisson_system(g.solid)
        diag = system.matrix.diagonal()
        np.testing.assert_allclose(adiag[g.fluid], diag)

    def test_aplus_coupling_only_between_fluid(self):
        g = MACGrid2D(8, 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[4, 4] = True
        g.add_solid(mask)
        _, aplusx, aplusy = stencil_arrays(g.solid)
        assert aplusx[4, 3] == 0.0  # (4,3)-(4,4) has a solid end
        assert aplusx[4, 4] == 0.0
        assert aplusx[3, 3] == -1.0  # fluid-fluid
        assert aplusy[3, 4] == 0.0

    def test_zero_on_solid(self):
        g = MACGrid2D(8, 8)
        adiag, _, _ = stencil_arrays(g.solid)
        assert (adiag[g.solid] == 0).all()


class TestPoissonRhs:
    def test_scaling(self):
        g = MACGrid2D(8, 8)
        div = np.ones(g.shape)
        b = poisson_rhs(div, g.solid, dt=0.1, rho=2.0, dx=0.5)
        expected = -(2.0 * 0.25 / 0.1)
        assert b[4, 4] == pytest.approx(expected)

    def test_solid_zeroed(self):
        g = MACGrid2D(8, 8)
        b = poisson_rhs(np.ones(g.shape), g.solid, dt=0.1, rho=1.0, dx=0.1)
        assert (b[g.solid] == 0).all()

    def test_input_not_mutated(self):
        g = MACGrid2D(8, 8)
        div = np.ones(g.shape)
        poisson_rhs(div, g.solid, dt=0.1, rho=1.0, dx=0.1)
        np.testing.assert_array_equal(div, 1.0)


class TestRemoveNullspace:
    @staticmethod
    def recomputed(field, solid):
        """The per-component mean removal, every count derived afresh."""
        out = np.where(~solid, field, 0.0)
        labels, n = label(~solid)
        flat = labels.ravel()
        sums = np.bincount(flat, weights=out.ravel(), minlength=n + 1)
        counts = np.bincount(flat, minlength=n + 1)
        means = sums / np.maximum(counts, 1)
        means[0] = 0.0
        return out - means[labels]

    def test_several_components_match_the_recomputed_means_bitwise(self):
        g = MACGrid2D(24, 20)
        walls = np.zeros(g.shape, dtype=bool)
        walls[:, 7] = walls[:, 15] = True  # three vertical strips
        walls[9, :7] = True  # the left strip split in two
        walls[14:19, 17:21] = True  # a closed box inside the right strip
        walls[15:18, 18:20] = False
        g.add_solid(walls)
        assert fluid_components(g.solid)[1] == 5
        rng = np.random.default_rng(4)
        one_component = MACGrid2D(24, 20).solid
        # the first call builds the cached entry and the second hits it; the
        # one-component mask evicts it, so the last call builds it again
        for solid in (g.solid, g.solid, one_component, g.solid):
            field = rng.standard_normal(solid.shape) * 10.0 + 3.0
            np.testing.assert_array_equal(
                remove_nullspace(field, solid), self.recomputed(field, solid)
            )
