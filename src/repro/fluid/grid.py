"""Staggered marker-and-cell (MAC) grid for 2-D incompressible flow.

The grid follows the classic Harlow–Welch layout used by mantaflow:

* pressure ``p`` and smoke density live at cell centres, shape ``(ny, nx)``;
* x-velocity ``u`` lives on vertical faces, shape ``(ny, nx + 1)``;
* y-velocity ``v`` lives on horizontal faces, shape ``(ny + 1, nx)``.

Arrays are indexed ``[y, x]`` (row = y). Cell ``(j, i)`` spans the square
``[i*dx, (i+1)*dx] x [j*dx, (j+1)*dx]`` in world space.

Cell flags mark each cell as fluid or solid.  The domain border is always a
solid wall (the paper generates "occupancy grids with the border wall").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CellType", "MACGrid2D"]


class CellType:
    """Cell flag values (subset of mantaflow's FlagGrid)."""

    EMPTY = 0
    FLUID = 1
    SOLID = 2


@dataclass
class MACGrid2D:
    """A 2-D MAC grid holding velocity, pressure, density and cell flags.

    Parameters
    ----------
    nx, ny:
        Number of cells along x and y.
    dx:
        Cell size in world units.  Defaults to ``1.0 / nx`` so the domain
        width is 1 regardless of resolution (matching mantaflow's convention
        of resolution-independent physics).
    """

    nx: int
    ny: int
    dx: float = 0.0
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    pressure: np.ndarray = field(init=False, repr=False)
    density: np.ndarray = field(init=False, repr=False)
    flags: np.ndarray = field(init=False, repr=False)
    #: optional cell-centred prescribed solid velocity (moving obstacles);
    #: ``None`` means every solid is at rest (the historical behaviour)
    solid_u: np.ndarray | None = field(init=False, repr=False, default=None)
    solid_v: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must be at least 3x3 to hold a border wall")
        if self.dx <= 0.0:
            self.dx = 1.0 / float(self.nx)
        self.u = np.zeros((self.ny, self.nx + 1), dtype=np.float64)
        self.v = np.zeros((self.ny + 1, self.nx), dtype=np.float64)
        self.pressure = np.zeros((self.ny, self.nx), dtype=np.float64)
        self.density = np.zeros((self.ny, self.nx), dtype=np.float64)
        self.flags = np.full((self.ny, self.nx), CellType.FLUID, dtype=np.uint8)
        self.set_border_wall()

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------
    def set_border_wall(self, thickness: int = 1) -> None:
        """Mark a solid wall of ``thickness`` cells around the domain."""
        t = thickness
        self.flags[:t, :] = CellType.SOLID
        self.flags[-t:, :] = CellType.SOLID
        self.flags[:, :t] = CellType.SOLID
        self.flags[:, -t:] = CellType.SOLID

    def add_solid(self, mask: np.ndarray) -> None:
        """Mark cells where ``mask`` is True as solid obstacles."""
        if mask.shape != self.flags.shape:
            raise ValueError(f"mask shape {mask.shape} != grid shape {self.flags.shape}")
        self.flags[mask] = CellType.SOLID

    @property
    def solid(self) -> np.ndarray:
        """Boolean mask of solid cells."""
        return self.flags == CellType.SOLID

    @property
    def fluid(self) -> np.ndarray:
        """Boolean mask of fluid cells."""
        return self.flags == CellType.FLUID

    @property
    def shape(self) -> tuple[int, int]:
        """Cell-centred field shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    def geometry_field(self) -> np.ndarray:
        """Return the occupancy (geometry) field: 1.0 in solid cells.

        This is the ``g`` input channel of the approximation networks.
        """
        return self.solid.astype(np.float64)

    # ------------------------------------------------------------------
    # boundary conditions
    # ------------------------------------------------------------------
    def set_solid_velocity(self, solid_u: np.ndarray, solid_v: np.ndarray) -> None:
        """Prescribe a cell-centred velocity for (moving) solid cells.

        The arrays have the cell-centred shape; values outside solid cells
        are ignored.  Once set, :meth:`enforce_solid_boundaries` imposes
        these values on solid-adjacent faces instead of zero, so the
        projection sees the obstacle's motion as a normal-velocity boundary
        condition.  Call :meth:`clear_solid_velocity` to return to the
        resting-solid behaviour.
        """
        if solid_u.shape != self.shape or solid_v.shape != self.shape:
            raise ValueError(
                f"solid velocity shape {solid_u.shape}/{solid_v.shape} != grid shape {self.shape}"
            )
        self.solid_u = np.asarray(solid_u, dtype=np.float64)
        self.solid_v = np.asarray(solid_v, dtype=np.float64)

    def clear_solid_velocity(self) -> None:
        """Drop prescribed solid velocities (all solids return to rest)."""
        self.solid_u = None
        self.solid_v = None

    def enforce_solid_boundaries(self) -> None:
        """Impose the normal velocity on every face adjacent to a solid cell.

        Resting solids (the default) zero the normal component — the
        free-slip solid boundary condition: fluid may slide along a wall
        but not flow through it.  When a prescribed solid velocity is set
        (:meth:`set_solid_velocity`), solid-adjacent interior faces take
        the solid's velocity instead, so moving obstacles push fluid.  The
        domain border always stays a closed wall.
        """
        solid = self.solid
        # u face (j, i) sits between cells (j, i-1) and (j, i).
        u_adj = solid[:, :-1] | solid[:, 1:]
        if self.solid_u is None:
            self.u[:, 1:-1][u_adj] = 0.0
        else:
            su = self.solid_u
            face_su = np.where(solid[:, :-1], su[:, :-1], su[:, 1:])
            self.u[:, 1:-1] = np.where(u_adj, face_su, self.u[:, 1:-1])
        self.u[:, 0] = 0.0
        self.u[:, -1] = 0.0
        # v face (j, i) sits between cells (j-1, i) and (j, i).
        v_adj = solid[:-1, :] | solid[1:, :]
        if self.solid_v is None:
            self.v[1:-1, :][v_adj] = 0.0
        else:
            sv = self.solid_v
            face_sv = np.where(solid[:-1, :], sv[:-1, :], sv[1:, :])
            self.v[1:-1, :] = np.where(v_adj, face_sv, self.v[1:-1, :])
        self.v[0, :] = 0.0
        self.v[-1, :] = 0.0

    # ------------------------------------------------------------------
    # sampling (bilinear interpolation at world-space points)
    # ------------------------------------------------------------------
    def _bilerp(self, f: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Bilinearly sample array ``f`` at fractional grid coords (gx, gy)."""
        return _blend(*_cell_corners(f, gx, gy))

    def sample_u(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sample x-velocity at world points.  u[j,i] sits at (i*dx, (j+.5)*dx)."""
        return self._bilerp(self.u, x / self.dx, y / self.dx - 0.5)

    def sample_v(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sample y-velocity at world points.  v[j,i] sits at ((i+.5)*dx, j*dx)."""
        return self._bilerp(self.v, x / self.dx - 0.5, y / self.dx)

    def sample_center(self, f: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sample a cell-centred field at world points."""
        return self._bilerp(f, x / self.dx - 0.5, y / self.dx - 0.5)

    def _sample_center_bracketed(
        self, f: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_center` plus the min and max of the four values it blends."""
        corners, tx, ty = _cell_corners(f, x / self.dx - 0.5, y / self.dx - 0.5)
        f00, f01, f10, f11 = corners
        lo = np.minimum(np.minimum(f00, f01), np.minimum(f10, f11))
        hi = np.maximum(np.maximum(f00, f01), np.maximum(f10, f11))
        return _blend(corners, tx, ty), lo, hi

    def velocity_at(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full velocity vector sampled at world points."""
        return self.sample_u(x, y), self.sample_v(x, y)

    # ------------------------------------------------------------------
    # derived positions
    # ------------------------------------------------------------------
    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of all cell centres, as two read-only (ny, nx) arrays."""
        return _world_points(self.ny, self.nx, self.dx, 0.5, 0.5)

    def u_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of u-faces, as two read-only (ny, nx+1) arrays."""
        return _world_points(self.ny, self.nx + 1, self.dx, 0.0, 0.5)

    def v_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of v-faces, as two read-only (ny+1, nx) arrays."""
        return _world_points(self.ny + 1, self.nx, self.dx, 0.5, 0.0)

    def velocity_at_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity averaged to cell centres (two (ny, nx) arrays)."""
        uc = 0.5 * (self.u[:, :-1] + self.u[:, 1:])
        vc = 0.5 * (self.v[:-1, :] + self.v[1:, :])
        return uc, vc

    def velocity_at_u_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity at the u-faces (two (ny, nx+1) arrays; ``u`` is the grid's own).

        Matches :meth:`velocity_at` at :meth:`u_positions` to rounding: at a
        face, bilinear sampling reduces to the face's own ``u`` and the mean
        of the four nearest v-faces, whose columns past either domain edge
        clamp to the edge column as :meth:`sample_v` does.
        """
        v = self.v
        return self.u, _mean4(np.concatenate([v[:, :1], v, v[:, -1:]], axis=1))

    def velocity_at_v_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity at the v-faces (two (ny+1, nx) arrays; ``v`` is the grid's own).

        The transpose of :meth:`velocity_at_u_faces`: ``u`` is the mean of
        the four nearest u-faces, rows past the edges clamped to the edge row.
        """
        u = self.u
        return _mean4(np.concatenate([u[:1], u, u[-1:]], axis=0)), self.v

    def max_speed(self) -> float:
        """Maximum velocity magnitude estimate (for CFL time steps)."""
        uc, vc = self.velocity_at_centers()
        return float(np.sqrt(uc**2 + vc**2).max())

    def copy(self) -> "MACGrid2D":
        """Deep copy of the grid and all its fields."""
        g = MACGrid2D(self.nx, self.ny, self.dx)
        g.u = self.u.copy()
        g.v = self.v.copy()
        g.pressure = self.pressure.copy()
        g.density = self.density.copy()
        g.flags = self.flags.copy()
        if self.solid_u is not None:
            g.solid_u = self.solid_u.copy()
        if self.solid_v is not None:
            g.solid_v = self.solid_v.copy()
        return g


@functools.lru_cache(maxsize=12)
def _world_points(
    rows: int, cols: int, dx: float, ox: float, oy: float
) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates ``((i + ox) * dx, (j + oy) * dx)`` of a lattice.

    Every advection step traces the same cell-centre and face points, so
    they are built once per grid geometry (three sets each, room for four
    geometries) and shared read-only by every caller.
    """
    ys, xs = np.mgrid[0:rows, 0:cols]
    x = (xs + ox) * dx
    y = (ys + oy) * dx
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def _mean4(a: np.ndarray) -> np.ndarray:
    """Mean of each 2x2 neighbourhood, shape ``(h-1, w-1)``."""
    return 0.25 * ((a[:-1, :-1] + a[:-1, 1:]) + (a[1:, :-1] + a[1:, 1:]))


def _cell_corners(
    f: np.ndarray, gx: np.ndarray, gy: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Gather the corners of the cells holding fractional grid coords (gx, gy).

    Coordinates are clipped to the array.  Returns the values at
    ``(y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1)`` and the offsets
    ``(tx, ty)`` inside the cell, all float64 whatever the dtype of ``f``.
    ``x0 <= w-2`` and ``y0 <= h-2``, so a point on the far edge sits at
    offset 1 of the last cell and the ``+1`` neighbour is always in range;
    each corner is one flat ``take``.
    """
    h, w = f.shape
    tx = np.clip(gx, 0.0, w - 1.0)
    ty = np.clip(gy, 0.0, h - 1.0)
    x0 = tx.astype(np.intp)
    np.minimum(x0, w - 2, out=x0)
    tx -= x0
    idx = ty.astype(np.intp)
    np.minimum(idx, h - 2, out=idx)
    ty -= idx
    idx *= w
    idx += x0
    flat = np.asarray(f, dtype=np.float64).ravel()
    f00 = flat.take(idx)
    idx += 1
    f01 = flat.take(idx)
    idx += w
    f11 = flat.take(idx)
    idx -= 1
    f10 = flat.take(idx)
    return [f00, f01, f10, f11], tx, ty


def _blend(corners: list[np.ndarray], tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Bilinear blend of :func:`_cell_corners` output, in place over its arrays.

    Each corner is weighted ``(f * wx) * wy`` and the four are summed in
    order, so the result is bitwise the textbook expression.
    """
    f00, f01, f10, f11 = corners
    f01 *= tx
    f11 *= tx
    np.subtract(1.0, tx, out=tx)
    f00 *= tx
    f10 *= tx
    f10 *= ty
    f11 *= ty
    np.subtract(1.0, ty, out=ty)
    f00 *= ty
    f01 *= ty
    f00 += f01
    f00 += f10
    f00 += f11
    return f00
