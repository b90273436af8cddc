"""Tests for semi-Lagrangian and MacCormack advection."""

import numpy as np
import pytest

from repro.fluid import MACGrid2D, advect_scalar, advect_velocity, maccormack_scalar
from repro.fluid.levelset import advect_levelset


def blob_field(g: MACGrid2D, cx: float, cy: float, r: float = 0.08) -> np.ndarray:
    x, y = g.cell_centers()
    return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / r**2)


def centroid(g: MACGrid2D, f: np.ndarray) -> tuple[float, float]:
    x, y = g.cell_centers()
    total = f.sum() + 1e-30
    return float((f * x).sum() / total), float((f * y).sum() / total)


class TestScalarAdvection:
    def test_zero_velocity_is_identity_for_smooth_fields(self):
        g = MACGrid2D(32, 32)
        f = blob_field(g, 0.5, 0.5)
        out = advect_scalar(g, f, dt=0.1)
        np.testing.assert_allclose(out[g.fluid], f[g.fluid], atol=1e-12)

    def test_uniform_flow_translates_blob(self):
        g = MACGrid2D(64, 64)
        g.u[:] = 1.0  # rightward
        f = blob_field(g, 0.3, 0.5)
        out = advect_scalar(g, f, dt=0.1)
        cx0, cy0 = centroid(g, f)
        cx1, cy1 = centroid(g, out)
        assert cx1 - cx0 == pytest.approx(0.1, abs=0.01)
        assert cy1 == pytest.approx(cy0, abs=0.01)

    def test_downward_flow_translates_blob(self):
        g = MACGrid2D(64, 64)
        g.v[:] = 0.5  # +y (down the array)
        f = blob_field(g, 0.5, 0.3)
        out = advect_scalar(g, f, dt=0.1)
        _, cy0 = centroid(g, f)
        _, cy1 = centroid(g, out)
        assert cy1 - cy0 == pytest.approx(0.05, abs=0.01)

    def test_no_new_extrema(self):
        g = MACGrid2D(32, 32)
        rng = np.random.default_rng(0)
        g.u = rng.standard_normal(g.u.shape)
        g.v = rng.standard_normal(g.v.shape)
        f = np.clip(blob_field(g, 0.5, 0.5), 0.0, 1.0)
        out = advect_scalar(g, f, dt=0.05)
        assert out.min() >= f.min() - 1e-12
        assert out.max() <= f.max() + 1e-12

    def test_solid_cells_stay_empty(self):
        g = MACGrid2D(32, 32)
        mask = np.zeros((32, 32), dtype=bool)
        mask[10:14, 10:14] = True
        g.add_solid(mask)
        g.u[:] = 1.0
        f = np.ones(g.shape)
        out = advect_scalar(g, f, dt=0.1)
        assert (out[g.solid] == 0).all()

    def test_input_not_mutated(self):
        g = MACGrid2D(16, 16)
        g.u[:] = 1.0
        f = blob_field(g, 0.5, 0.5)
        f0 = f.copy()
        advect_scalar(g, f, dt=0.1)
        np.testing.assert_array_equal(f, f0)


class TestMacCormack:
    def test_less_diffusive_than_semi_lagrangian(self):
        g = MACGrid2D(64, 64)
        g.u[:] = 1.0
        f = blob_field(g, 0.3, 0.5)
        sl = f.copy()
        mc = f.copy()
        for _ in range(10):
            sl = advect_scalar(g, sl, dt=0.02)
            mc = maccormack_scalar(g, mc, dt=0.02)
        # the corrected scheme preserves the peak better
        assert mc.max() > sl.max()

    def test_less_diffusive_than_semi_lagrangian_vertically(self):
        # the limiter must bracket the departure cell in y too, or motion
        # along y falls back to plain semi-Lagrangian
        g = MACGrid2D(64, 64)
        g.v[:] = 1.0
        f = blob_field(g, 0.5, 0.3)
        sl = f.copy()
        mc = f.copy()
        for _ in range(10):
            sl = advect_scalar(g, sl, dt=0.02)
            mc = maccormack_scalar(g, mc, dt=0.02)
        assert mc.max() > sl.max() + 0.01

    def test_limiter_prevents_overshoot(self):
        g = MACGrid2D(32, 32)
        rng = np.random.default_rng(1)
        g.u = rng.standard_normal(g.u.shape) * 0.5
        g.v = rng.standard_normal(g.v.shape) * 0.5
        f = np.clip(blob_field(g, 0.5, 0.5), 0.0, 1.0)
        out = maccormack_scalar(g, f, dt=0.05)
        assert out.max() <= 1.0 + 1e-9
        assert out.min() >= -1e-9


class TestVelocityAdvection:
    def test_zero_velocity_unchanged(self):
        g = MACGrid2D(16, 16)
        u, v = advect_velocity(g, dt=0.1)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_uniform_velocity_fixed_point(self):
        g = MACGrid2D(32, 32)
        g.u[:] = 1.5
        g.v[:] = -0.5
        u, v = advect_velocity(g, dt=0.05)
        np.testing.assert_allclose(u, 1.5, atol=1e-12)
        np.testing.assert_allclose(v, -0.5, atol=1e-12)

    def test_returns_new_arrays(self):
        g = MACGrid2D(16, 16)
        g.u[:] = 1.0
        u, v = advect_velocity(g, dt=0.1)
        assert u is not g.u and v is not g.v

    def test_shear_transport(self):
        # a u-stripe carried downward by constant v
        g = MACGrid2D(64, 64)
        g.v[:] = 1.0
        g.u[20, :] = 1.0
        u, _ = advect_velocity(g, dt=g.dx * 2)  # move 2 cells down
        row_energy = (u**2).sum(axis=1)
        assert row_energy.argmax() == 22


# ---------------------------------------------------------------------------
# Oracle: the transport as it was before grid-point velocities were read
# exactly -- an RK2 backtrace whose first stage samples bilinearly too, over
# a 2-D fancy-indexed bilinear kernel and freshly built sample points.
# ---------------------------------------------------------------------------


def oracle_bilerp(f, gx, gy):
    ny, nx = f.shape
    gx = np.clip(gx, 0.0, nx - 1.0)
    gy = np.clip(gy, 0.0, ny - 1.0)
    x0 = gx.astype(np.int64)
    y0 = gy.astype(np.int64)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    tx = gx - x0
    ty = gy - y0
    return (
        f[y0, x0] * (1 - tx) * (1 - ty)
        + f[y0, x1] * tx * (1 - ty)
        + f[y1, x0] * (1 - tx) * ty
        + f[y1, x1] * tx * ty
    )


def oracle_velocity_at(g, x, y):
    return (
        oracle_bilerp(g.u, x / g.dx, y / g.dx - 0.5),
        oracle_bilerp(g.v, x / g.dx - 0.5, y / g.dx),
    )


def oracle_points(g, rows, cols, ox, oy):
    ys, xs = np.mgrid[0:rows, 0:cols]
    return (xs + ox) * g.dx, (ys + oy) * g.dx


def oracle_backtrace(g, x, y, dt):
    u1, v1 = oracle_velocity_at(g, x, y)
    xm = x - 0.5 * dt * u1
    ym = y - 0.5 * dt * v1
    u2, v2 = oracle_velocity_at(g, xm, ym)
    w, h = g.nx * g.dx, g.ny * g.dx
    return np.clip(x - dt * u2, 0.0, w), np.clip(y - dt * v2, 0.0, h)


def oracle_advect_center(g, f, dt):
    """Old ``advect_levelset``; ``advect_scalar`` also zeroes solid cells."""
    bx, by = oracle_backtrace(g, *oracle_points(g, g.ny, g.nx, 0.5, 0.5), dt)
    return oracle_bilerp(f, bx / g.dx - 0.5, by / g.dx - 0.5)


def oracle_advect_velocity(g, dt):
    bx, by = oracle_backtrace(g, *oracle_points(g, g.ny, g.nx + 1, 0.0, 0.5), dt)
    new_u = oracle_bilerp(g.u, bx / g.dx, by / g.dx - 0.5)
    bx, by = oracle_backtrace(g, *oracle_points(g, g.ny + 1, g.nx, 0.5, 0.0), dt)
    new_v = oracle_bilerp(g.v, bx / g.dx - 0.5, by / g.dx)
    return new_u, new_v


def assert_within_contract(new, old):
    """The accuracy contract: ``max|new - old| <= 1e-12 * max(1, max|old|)``."""
    err = np.abs(new - old).max()
    assert err <= 1e-12 * max(1.0, np.abs(old).max()), err


#: (nx, ny): square, odd-sized, non-square and the exact_obstacles size
GRIDS = [(32, 32), (48, 48), (64, 40), (128, 128)]


def obstacle_grid(nx, ny, seed=0):
    """A grid with a block obstacle, a moving-solid velocity and random flow."""
    rng = np.random.default_rng(seed)
    g = MACGrid2D(nx, ny)
    mask = np.zeros((ny, nx), dtype=bool)
    mask[ny // 3 : ny // 3 + ny // 6, nx // 2 : nx // 2 + nx // 5] = True
    g.add_solid(mask)
    g.set_solid_velocity(
        rng.uniform(-0.5, 0.5, g.shape), rng.uniform(-0.5, 0.5, g.shape)
    )
    g.u = rng.standard_normal(g.u.shape)
    g.v = rng.standard_normal(g.v.shape)
    g.enforce_solid_boundaries()
    return g, rng


def dt_for(g, cells):
    """Time step that moves the fastest face ``cells`` cells."""
    return cells * g.dx / max(np.abs(g.u).max(), np.abs(g.v).max())


class TestOracleEquivalence:
    @pytest.mark.parametrize("nx,ny", GRIDS)
    @pytest.mark.parametrize("cells", [0.5, 2.0, 6.0])
    def test_transport_matches_oracle(self, nx, ny, cells):
        g, rng = obstacle_grid(nx, ny, seed=nx + ny)
        dt = dt_for(g, cells)
        f = rng.uniform(0.0, 1.0, g.shape)
        phi = rng.standard_normal(g.shape)
        expected = oracle_advect_center(g, f, dt)
        expected[g.solid] = 0.0
        assert_within_contract(advect_scalar(g, f, dt), expected)
        assert_within_contract(advect_levelset(g, phi, dt), oracle_advect_center(g, phi, dt))
        for new, old in zip(advect_velocity(g, dt), oracle_advect_velocity(g, dt)):
            assert_within_contract(new, old)

    @pytest.mark.parametrize("dt", [0.05, 0.5, 2.0])
    def test_uniform_flow_past_the_domain_clamp_matches_exactly(self, dt):
        # departures leave the domain on the inflow side and get clamped
        g = MACGrid2D(32, 32)
        g.u[:] = 1.5
        g.v[:] = -0.5
        f = np.random.default_rng(3).uniform(0.0, 1.0, g.shape)
        expected = oracle_advect_center(g, f, dt)
        np.testing.assert_array_equal(advect_levelset(g, f, dt), expected)
        expected[g.solid] = 0.0
        np.testing.assert_array_equal(advect_scalar(g, f, dt), expected)
        for new, old in zip(advect_velocity(g, dt), oracle_advect_velocity(g, dt)):
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("nx,ny", GRIDS)
    def test_first_stage_velocities_match_bilinear_sampling(self, nx, ny):
        g, _ = obstacle_grid(nx, ny, seed=7)
        scale = max(np.abs(g.u).max(), np.abs(g.v).max())
        for points, exact in (
            (g.cell_centers(), g.velocity_at_centers()),
            (g.u_positions(), g.velocity_at_u_faces()),
            (g.v_positions(), g.velocity_at_v_faces()),
        ):
            for sampled, read in zip(g.velocity_at(*points), exact):
                assert np.abs(sampled - read).max() <= 1e-13 * scale

    def test_repeated_calls_are_bitwise_equal(self):
        g, rng = obstacle_grid(48, 48, seed=11)
        f = rng.uniform(0.0, 1.0, g.shape)
        dt = dt_for(g, 3.0)
        for fn in (
            lambda: (advect_scalar(g, f, dt),),
            lambda: (maccormack_scalar(g, f, dt),),
            lambda: (advect_levelset(g, f, dt),),
            lambda: advect_velocity(g, dt),
        ):
            for a, b in zip(fn(), fn()):
                np.testing.assert_array_equal(a, b)


class TestCachedPositions:
    def test_positions_are_shared_and_read_only(self):
        g = MACGrid2D(24, 20)
        for positions in (g.cell_centers, g.u_positions, g.v_positions):
            xs, ys = positions()
            assert positions()[0] is xs  # built once per geometry
            for arr in (xs, ys):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0

    def test_positions_match_a_fresh_build(self):
        g = MACGrid2D(20, 12)
        for positions, args in (
            (g.cell_centers, (g.ny, g.nx, 0.5, 0.5)),
            (g.u_positions, (g.ny, g.nx + 1, 0.0, 0.5)),
            (g.v_positions, (g.ny + 1, g.nx, 0.5, 0.0)),
        ):
            for got, want in zip(positions(), oracle_points(g, *args)):
                np.testing.assert_array_equal(got, want)
