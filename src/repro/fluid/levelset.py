"""Level-set machinery for free-surface liquids.

A liquid region is tracked as the negative set of a signed-distance field
``phi`` over cell centres: ``phi < 0`` inside the liquid, ``phi > 0`` in air,
with the zero level at the free surface.  Each step the field is advected
semi-Lagrangianly with the flow (the same RK2 backtrace the smoke advection
uses) and periodically *reinitialized* back to a signed distance — advection
distorts the gradient, and the classification only needs the sign, so an
exact Euclidean redistancing of the current zero level is both cheap and
robust on these grid sizes.

:class:`LevelSetDriver` is the scenario driver: it advects/reinitializes the
field, classifies cells (``SOLID`` from the static geometry, ``FLUID`` where
liquid, ``EMPTY`` for air), applies gravity to liquid faces, and wraps the
pressure solver in a :class:`FreeSurfaceSolver` that solves the Poisson
system *only on liquid cells* with free-surface Dirichlet conditions: air
neighbours contribute ``p = 0``, which shows up as a diagonal correction on
:class:`~repro.fluid.kernels.GeometryKernels`' fluid-only CSR Laplacian built
with ``solid | air`` as the excluded mask.  Enclosed liquid pockets with no
air contact would make that matrix singular (pure Neumann); the first cell
of each such component is pinned with a unit diagonal bump, the standard
grounding trick.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import distance_transform_edt, label
from scipy.sparse.linalg import splu

from repro.metrics import MetricsRegistry, get_metrics

from .advection import _backtrace_centers
from .grid import CellType, MACGrid2D
from .kernels import GeometryKernels
from .solver_api import MaskKeyedCache, PressureSolver, SolveResult

__all__ = [
    "signed_distance",
    "advect_levelset",
    "reinitialize",
    "LevelSetDriver",
    "FreeSurfaceSolver",
]


def signed_distance(liquid: np.ndarray, dx: float = 1.0) -> np.ndarray:
    """Signed distance (in world units) to the boundary of a liquid mask.

    Negative inside the liquid, positive outside.  The half-cell offset
    places the zero level on the cell boundary between a liquid cell and a
    non-liquid cell, so neither side reports distance 0.
    """
    inside = distance_transform_edt(liquid)
    outside = distance_transform_edt(~liquid)
    return np.where(liquid, -(inside - 0.5), outside - 0.5) * dx


def reinitialize(phi: np.ndarray, dx: float = 1.0) -> np.ndarray:
    """Redistance ``phi`` to an exact signed distance of its zero level."""
    return signed_distance(phi < 0.0, dx)


def advect_levelset(grid: MACGrid2D, phi: np.ndarray, dt: float) -> np.ndarray:
    """Advect the level-set field with the grid velocity (semi-Lagrangian).

    Unlike :func:`~repro.fluid.advection.advect_scalar`, values are *not*
    zeroed inside solids — the field must stay smooth across obstacles so
    the interface can slide along them.
    """
    bx, by = _backtrace_centers(grid, dt)
    return grid.sample_center(phi, bx, by)


class FreeSurfaceSolver(PressureSolver):
    """Direct pressure solve on liquid cells with free-surface Dirichlet BC.

    Wraps a :class:`LevelSetDriver`: at solve time the driver's current
    ``phi`` classifies cells, ``GeometryKernels(solid | air)`` compiles the
    liquid-only CSR Laplacian (Neumann at solid walls baked into the
    degree), and each liquid cell gains ``+1`` on the diagonal per air
    neighbour — the ``p = 0`` ghost-value Dirichlet condition.  The
    factorisation is cached per ``solid | air`` mask through the standard
    :class:`MaskKeyedCache`, so a settled interface costs one sparse
    triangular solve per step while any interface motion re-keys it.
    """

    name = "free-surface"

    def __init__(self, driver: "LevelSetDriver", metrics: MetricsRegistry | None = None):
        self.driver = driver
        self._metrics = metrics
        self._cache = MaskKeyedCache("free_surface", capacity=4)

    def reset(self) -> None:
        """Drop cached factorisations (e.g. after a checkpoint restore)."""
        self._cache.clear()

    def _factorize(self, closed: np.ndarray, air: np.ndarray):
        kern = GeometryKernels(closed)
        ny, nx = closed.shape
        pad = np.zeros((ny + 2, nx + 2), dtype=bool)
        pad[1:-1, 1:-1] = air
        ys, xs = kern.ys, kern.xs
        air_deg = (
            pad[ys, xs + 1].astype(np.float64)
            + pad[ys + 2, xs + 1]
            + pad[ys + 1, xs]
            + pad[ys + 1, xs + 2]
        )
        # ground enclosed components (no air contact): pure Neumann blocks
        # are singular, so pin their first cell with a unit diagonal bump
        labels, ncomp = label(~closed)
        if ncomp:
            comp = labels[ys, xs]
            contact = np.bincount(comp, weights=air_deg, minlength=ncomp + 1)
            for c in range(1, ncomp + 1):
                if contact[c] == 0.0:
                    air_deg[np.argmax(comp == c)] += 1.0
        matrix = (kern.laplacian + sp.diags(air_deg)).tocsc()
        return kern, matrix, splu(matrix)

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Solve the liquid-only Poisson system for the current interface."""
        m = self._metrics if self._metrics is not None else get_metrics()
        liquid = (self.driver.phi < 0.0) & ~solid
        if not liquid.any():
            return SolveResult(
                pressure=np.zeros_like(b), iterations=0, converged=True, residual_norm=0.0
            )
        closed = ~liquid  # solid + air: everything excluded from the solve
        air = closed & ~solid
        with m.span("solve/free_surface") as span:
            kern, matrix, lu = self._cache.get(
                closed, lambda: self._factorize(closed, air), m
            )
            bf = kern.gather(b)
            pf = lu.solve(bf)
            rnorm = float(np.abs(matrix @ pf - bf).max()) if kern.n else 0.0
            if span is not None:
                span.attrs["cells"] = kern.n
        m.inc("solver/free_surface/solves")
        m.inc("solver/free_surface/iterations")
        return SolveResult(
            pressure=kern.scatter(pf),
            iterations=1,
            converged=bool(np.isfinite(rnorm)),
            residual_norm=rnorm,
            flops=20.0 * kern.n,
        )


class LevelSetDriver:
    """Scenario driver advancing a free-surface liquid each step.

    Per step (``apply``): advect ``phi`` with the current velocity,
    periodically redistance it, classify cells (static solids / liquid
    ``FLUID`` / air ``EMPTY``), zero velocities on faces with no liquid
    neighbour (air carries no momentum in this single-phase model), apply
    gravity to liquid faces, and enforce solid boundaries.  The density
    field doubles as the liquid-occupancy rendering.

    The driver participates in checkpoints through ``state_arrays`` /
    ``load_state_arrays`` (the simulator stores them under ``scenario/``
    keys), and wraps the job's pressure solver in a
    :class:`FreeSurfaceSolver` via ``wrap_solver``.
    """

    #: liquids run without smoke buoyancy (density is occupancy, not heat)
    config_overrides = {"buoyancy": 0.0}

    def __init__(
        self,
        phi: np.ndarray,
        base_solid: np.ndarray,
        gravity: float = 2.0,
        reinit_every: int = 4,
    ):
        self.phi = np.asarray(phi, dtype=np.float64).copy()
        self.base_solid = np.asarray(base_solid, dtype=bool).copy()
        self.gravity = float(gravity)
        self.reinit_every = int(reinit_every)
        self._applies = 0

    def classify(self, grid: MACGrid2D) -> np.ndarray:
        """Write cell flags/density from the current ``phi``; return liquid."""
        liquid = (self.phi < 0.0) & ~self.base_solid
        flags = np.where(
            self.base_solid,
            CellType.SOLID,
            np.where(liquid, CellType.FLUID, CellType.EMPTY),
        ).astype(grid.flags.dtype)
        grid.flags = flags
        grid.density = liquid.astype(np.float64)
        return liquid

    def apply(self, grid: MACGrid2D, dt: float) -> None:
        """Advance the interface one step and set up the grid for it."""
        if dt > 0.0:
            self.phi = advect_levelset(grid, self.phi, dt)
            self._applies += 1
            if self.reinit_every > 0 and self._applies % self.reinit_every == 0:
                self.phi = reinitialize(self.phi)
        liquid = self.classify(grid)
        # air carries no momentum: zero faces with no liquid neighbour
        u_liq = np.zeros((grid.ny, grid.nx + 1), dtype=bool)
        u_liq[:, :-1] |= liquid
        u_liq[:, 1:] |= liquid
        grid.u[~u_liq] = 0.0
        v_liq = np.zeros((grid.ny + 1, grid.nx), dtype=bool)
        v_liq[:-1, :] |= liquid
        v_liq[1:, :] |= liquid
        grid.v[~v_liq] = 0.0
        if dt > 0.0 and self.gravity != 0.0:
            grid.v[1:-1, :][liquid[:-1, :] | liquid[1:, :]] += dt * self.gravity
        grid.enforce_solid_boundaries()

    def wrap_solver(self, solver: PressureSolver) -> PressureSolver:
        """Replace the configured solver with the liquid-only direct solve."""
        return FreeSurfaceSolver(self, metrics=getattr(solver, "_metrics", None))

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Checkpointable driver state (stitched into simulator snapshots)."""
        return {
            "phi": self.phi.copy(),
            "applies": np.asarray(self._applies, dtype=np.int64),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_arrays`."""
        self.phi = np.asarray(arrays["phi"], dtype=np.float64).copy()
        self._applies = int(arrays["applies"])
