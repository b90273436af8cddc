"""Geometric multigrid for the pressure Poisson equation.

Mantaflow uses a multigrid approach as a pre-processing step for PCG
(McAdams et al., the paper's reference [21]).  This module provides a
standalone V-cycle solver with red-black Gauss-Seidel smoothing (all sweeps
vectorised with checkerboard masks).

Coarsening is *interior-aligned*: the one-cell border wall is stripped, the
fluid interior is agglomerated 2x2, and the wall is re-imposed around the
coarse interior.  This keeps the coarse domain geometrically aligned with the
fine one (a naive whole-grid coarsening drops the entire wall-adjacent fluid
ring from coarse coverage, which destroys convergence).  Around *interior*
obstacles the re-discretised coarse operator is only an approximation, so the
hierarchy depth defaults to 3 levels — deeper hierarchies can amplify
obstacle-boundary modes, as the solver's tests document.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import zoom

from repro.metrics import MetricsRegistry, get_metrics

from .operators import apply_laplacian
from .laplacian import remove_nullspace, stencil_arrays
from .solver_api import MaskKeyedCache, PressureSolver, SolveResult

__all__ = ["MultigridSolver", "vcycle", "build_hierarchy"]


class _Level:
    """One grid level: solid mask plus precomputed smoother data."""

    def __init__(self, solid: np.ndarray):
        self.solid = solid
        self.fluid = ~solid
        adiag, _, _ = stencil_arrays(solid)
        self.adiag = adiag
        self.inv_diag = np.where(adiag > 0, 1.0 / np.maximum(adiag, 1e-30), 0.0)
        ny, nx = solid.shape
        ys, xs = np.mgrid[0:ny, 0:nx]
        checker = (ys + xs) % 2 == 0
        self.red = self.fluid & checker
        self.black = self.fluid & ~checker


def build_hierarchy(
    solid: np.ndarray, max_levels: int = 3, min_size: int = 4
) -> list[_Level]:
    """Build the interior-aligned coarsening hierarchy (finest first).

    Coarsening stops when the interior is no longer evenly divisible, the
    grid reaches ``min_size``, or ``max_levels`` levels exist.  A coarse
    interior cell is solid when at least half of its four children are.
    """
    if not (solid[0, :].all() and solid[-1, :].all() and solid[:, 0].all() and solid[:, -1].all()):
        raise ValueError("multigrid requires a solid border wall")
    levels = [_Level(solid)]
    cur = solid
    while len(levels) < max_levels:
        ny, nx = cur.shape
        iy, ix = ny - 2, nx - 2
        if iy % 2 or ix % 2 or min(iy, ix) <= min_size:
            break
        interior = cur[1:-1, 1:-1]
        children_solid = interior.reshape(iy // 2, 2, ix // 2, 2).sum(axis=(1, 3))
        coarse = np.ones((iy // 2 + 2, ix // 2 + 2), dtype=bool)
        coarse[1:-1, 1:-1] = children_solid >= 2
        if not (~coarse).any():
            break
        levels.append(_Level(coarse))
        cur = coarse
    return levels


def _smooth(level: _Level, p: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
    """Red-black Gauss-Seidel sweeps (each colour updated simultaneously)."""
    for _ in range(sweeps):
        for mask in (level.red, level.black):
            r = b - apply_laplacian(p, level.solid, deg=level.adiag)
            p = p + np.where(mask, r * level.inv_diag, 0.0)
    return p


def _restrict(r: np.ndarray, coarse: _Level) -> np.ndarray:
    """Interior-aligned restriction: sum the 2x2 fine interior children.

    Summation (rather than averaging) folds in the factor-4 rescaling the
    dimensionless 5-point stencil needs between levels.
    """
    ri = r[1:-1, 1:-1]
    iy, ix = ri.shape
    rc = np.zeros(coarse.solid.shape)
    rc[1:-1, 1:-1] = ri.reshape(iy // 2, 2, ix // 2, 2).sum(axis=(1, 3))
    return np.where(coarse.fluid, rc, 0.0)


def _prolong(ec: np.ndarray, fine: _Level) -> np.ndarray:
    """Bilinear (cell-centred) prolongation of the coarse-interior correction."""
    out = np.zeros(fine.solid.shape)
    out[1:-1, 1:-1] = zoom(ec[1:-1, 1:-1], 2, order=1, mode="nearest", grid_mode=True)
    return np.where(fine.fluid, out, 0.0)


def vcycle(
    levels: list[_Level],
    b: np.ndarray,
    p: np.ndarray | None = None,
    idx: int = 0,
    pre_sweeps: int = 2,
    post_sweeps: int = 2,
    coarse_sweeps: int = 60,
) -> np.ndarray:
    """One V-cycle of the hierarchy, returning the updated solution."""
    level = levels[idx]
    if p is None:
        p = np.zeros_like(b)
    if idx == len(levels) - 1:
        return _smooth(level, p, b, sweeps=coarse_sweeps)
    p = _smooth(level, p, b, pre_sweeps)
    r = np.where(level.fluid, b - apply_laplacian(p, level.solid, deg=level.adiag), 0.0)
    rc = _restrict(r, levels[idx + 1])
    ec = vcycle(levels, rc, None, idx + 1, pre_sweeps, post_sweeps, coarse_sweeps)
    p = p + _prolong(ec, level)
    return _smooth(level, p, b, post_sweeps)


class MultigridSolver(PressureSolver):
    """Standalone multigrid pressure solver (V-cycles until tolerance).

    The coarsening hierarchy (per-level masks, smoother diagonals and
    checkerboard colourings) is cached per solid mask and rebuilt only when
    the geometry changes.
    """

    name = "multigrid"

    def __init__(
        self,
        tol: float = 1e-5,
        max_cycles: int = 60,
        max_levels: int = 3,
        metrics: MetricsRegistry | None = None,
    ):
        self.tol = tol
        self.max_cycles = max_cycles
        self.max_levels = max_levels
        self._metrics = metrics
        self._hierarchy_cache = MaskKeyedCache("mg_hierarchy")

    def reset(self) -> None:
        """Drop the cached coarsening hierarchy."""
        self._hierarchy_cache.clear()

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Iterate V-cycles until the residual drops below tolerance."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.span(f"solve/{self.name}"):
            result = self._solve(b, solid, metrics)
        metrics.inc(f"solver/{self.name}/solves")
        metrics.inc(f"solver/{self.name}/iterations", result.iterations)
        return result

    def _solve(self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry) -> SolveResult:
        levels = self._hierarchy_cache.get(
            solid, lambda: build_hierarchy(solid, self.max_levels), metrics
        )
        fluid = ~solid
        b = remove_nullspace(b, solid)
        bnorm = float(np.abs(b[fluid]).max()) if fluid.any() else 0.0
        p = np.zeros_like(b)
        if bnorm < 1e-300:
            return SolveResult(p, 0, True, 0.0)
        tol_abs = self.tol * bnorm
        history = [bnorm]
        nf = float(fluid.sum())
        it = 0
        converged = False
        for it in range(1, self.max_cycles + 1):
            p = vcycle(levels, b, p)
            rnorm = float(np.abs((b - apply_laplacian(p, solid, deg=levels[0].adiag))[fluid]).max())
            history.append(rnorm)
            if rnorm <= tol_abs:
                converged = True
                break
        p = remove_nullspace(p, solid)
        return SolveResult(p, it, converged, history[-1], 120.0 * it * nf, history)
