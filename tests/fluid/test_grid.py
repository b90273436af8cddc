"""Tests for the MAC grid data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import CellType, MACGrid2D


class TestConstruction:
    def test_field_shapes(self):
        g = MACGrid2D(8, 6)
        assert g.u.shape == (6, 9)
        assert g.v.shape == (7, 8)
        assert g.pressure.shape == (6, 8)
        assert g.density.shape == (6, 8)
        assert g.flags.shape == (6, 8)

    def test_default_dx_normalises_width(self):
        g = MACGrid2D(20, 10)
        assert g.dx == pytest.approx(1.0 / 20)

    def test_explicit_dx(self):
        g = MACGrid2D(8, 8, dx=0.5)
        assert g.dx == 0.5

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            MACGrid2D(2, 8)

    def test_border_wall_is_solid(self):
        g = MACGrid2D(8, 8)
        assert g.flags[0, :].tolist() == [CellType.SOLID] * 8
        assert g.flags[-1, :].tolist() == [CellType.SOLID] * 8
        assert g.flags[:, 0].tolist() == [CellType.SOLID] * 8
        assert g.flags[:, -1].tolist() == [CellType.SOLID] * 8

    def test_interior_is_fluid(self):
        g = MACGrid2D(8, 8)
        assert (g.flags[1:-1, 1:-1] == CellType.FLUID).all()

    def test_shape_property(self):
        assert MACGrid2D(5, 7).shape == (7, 5)


class TestFlags:
    def test_add_solid(self):
        g = MACGrid2D(8, 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[3, 3] = True
        g.add_solid(mask)
        assert g.flags[3, 3] == CellType.SOLID
        assert g.solid[3, 3]
        assert not g.fluid[3, 3]

    def test_add_solid_shape_mismatch(self):
        g = MACGrid2D(8, 8)
        with pytest.raises(ValueError):
            g.add_solid(np.zeros((4, 4), dtype=bool))

    def test_solid_fluid_partition(self):
        g = MACGrid2D(8, 8)
        assert ((g.solid.astype(int) + g.fluid.astype(int)) == 1).all()

    def test_geometry_field_matches_solid(self):
        g = MACGrid2D(8, 8)
        geo = g.geometry_field()
        assert geo.dtype == np.float64
        np.testing.assert_array_equal(geo > 0.5, g.solid)

    def test_thicker_border_wall(self):
        g = MACGrid2D(10, 10)
        g.set_border_wall(thickness=2)
        assert g.solid[1, 5]
        assert not g.solid[2, 5]


class TestBoundaries:
    def test_enforce_zeroes_wall_faces(self):
        g = MACGrid2D(8, 8)
        g.u[:] = 1.0
        g.v[:] = 1.0
        g.enforce_solid_boundaries()
        # faces of the border wall must carry no normal flow
        assert (g.u[:, :2] == 0).all() and (g.u[:, -2:] == 0).all()
        assert (g.v[:2, :] == 0).all() and (g.v[-2:, :] == 0).all()

    def test_enforce_preserves_interior_faces(self):
        g = MACGrid2D(8, 8)
        g.u[:] = 1.0
        g.enforce_solid_boundaries()
        assert g.u[4, 4] == 1.0

    def test_enforce_around_obstacle(self):
        g = MACGrid2D(8, 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[4, 4] = True
        g.add_solid(mask)
        g.u[:] = 1.0
        g.v[:] = 1.0
        g.enforce_solid_boundaries()
        assert g.u[4, 4] == 0.0  # left face of the obstacle
        assert g.u[4, 5] == 0.0  # right face
        assert g.v[4, 4] == 0.0  # top face
        assert g.v[5, 4] == 0.0  # bottom face
        assert g.u[2, 4] == 1.0  # unrelated face untouched


class TestSampling:
    def test_sample_constant_field(self):
        g = MACGrid2D(8, 8)
        g.u[:] = 3.0
        x = np.array([0.3, 0.5, 0.9])
        y = np.array([0.3, 0.5, 0.9])
        np.testing.assert_allclose(g.sample_u(x, y), 3.0)

    def test_sample_center_exact_at_centers(self):
        g = MACGrid2D(8, 8)
        f = np.arange(64, dtype=float).reshape(8, 8)
        cx, cy = g.cell_centers()
        np.testing.assert_allclose(g.sample_center(f, cx, cy), f)

    def test_sample_u_exact_at_faces(self):
        g = MACGrid2D(8, 8)
        g.u = np.random.default_rng(0).standard_normal(g.u.shape)
        ux, uy = g.u_positions()
        np.testing.assert_allclose(g.sample_u(ux, uy), g.u, atol=1e-12)

    def test_sample_v_exact_at_faces(self):
        g = MACGrid2D(8, 8)
        g.v = np.random.default_rng(0).standard_normal(g.v.shape)
        vx, vy = g.v_positions()
        np.testing.assert_allclose(g.sample_v(vx, vy), g.v, atol=1e-12)

    def test_sampling_clamps_outside_domain(self):
        g = MACGrid2D(8, 8)
        g.density[:] = 2.0
        out = g.sample_center(g.density, np.array([-5.0, 99.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, 2.0)

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_face_sampling_clamps_to_edge_faces(self, component):
        # points past every edge read that edge's faces, never a wrapped row
        g = MACGrid2D(8, 6)
        rng = np.random.default_rng(5)
        g.u = rng.standard_normal(g.u.shape)
        g.v = rng.standard_normal(g.v.shape)
        field, sample = (g.u, g.sample_u) if component == "u" else (g.v, g.sample_v)
        xs, ys = g.u_positions() if component == "u" else g.v_positions()
        col_x, row_y = xs[0], ys[:, 0]
        for far, edge in ((-5.0, 0), (99.0, -1)):
            left_right = sample(np.full_like(row_y, far), row_y)
            np.testing.assert_allclose(left_right, field[:, edge], atol=1e-12)
            top_bottom = sample(col_x, np.full_like(col_x, far))
            np.testing.assert_allclose(top_bottom, field[edge, :], atol=1e-12)
        corners = sample(np.array([-5.0, 99.0, -5.0, 99.0]), np.array([-5.0, -5.0, 99.0, 99.0]))
        np.testing.assert_allclose(
            corners, [field[0, 0], field[0, -1], field[-1, 0], field[-1, -1]], atol=1e-12
        )

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_bilinear_within_field_bounds(self, x, y):
        g = MACGrid2D(8, 8)
        f = np.random.default_rng(42).uniform(-1, 1, (8, 8))
        val = g.sample_center(f, np.array([x]), np.array([y]))[0]
        assert f.min() - 1e-9 <= val <= f.max() + 1e-9

    def test_velocity_at_linear_field_is_exact(self):
        # bilinear interpolation must reproduce a linear velocity field
        g = MACGrid2D(16, 16)
        ux, uy = g.u_positions()
        g.u = 2.0 * ux + 1.0
        vx, vy = g.v_positions()
        g.v = -3.0 * vy + 0.5
        xs = np.array([0.31, 0.55])
        ys = np.array([0.42, 0.66])
        u, v = g.velocity_at(xs, ys)
        np.testing.assert_allclose(u, 2.0 * xs + 1.0, atol=1e-12)
        np.testing.assert_allclose(v, -3.0 * ys + 0.5, atol=1e-12)


class TestDerived:
    def test_velocity_at_centers_shapes(self):
        g = MACGrid2D(6, 9)
        uc, vc = g.velocity_at_centers()
        assert uc.shape == (9, 6) and vc.shape == (9, 6)

    def test_max_speed_zero_initially(self):
        assert MACGrid2D(8, 8).max_speed() == 0.0

    def test_max_speed_positive(self):
        g = MACGrid2D(8, 8)
        g.u[4, 4] = 2.0
        assert g.max_speed() > 0.0

    def test_copy_is_deep(self):
        g = MACGrid2D(8, 8)
        g.density[4, 4] = 1.0
        c = g.copy()
        c.density[4, 4] = 9.0
        c.u[0, 0] = 7.0
        assert g.density[4, 4] == 1.0
        assert g.u[0, 0] == 0.0

    def test_cell_centers_range(self):
        g = MACGrid2D(8, 8)
        cx, cy = g.cell_centers()
        assert cx.min() == pytest.approx(0.5 * g.dx)
        assert cx.max() == pytest.approx(1.0 - 0.5 * g.dx)
