"""Finite-difference operators on the MAC grid.

These are the discrete divergence, gradient and (matrix-free) Laplacian used
throughout the solver.  All operators honour solid cells: faces touching a
solid cell carry zero flux and solid neighbours contribute Neumann
(zero-normal-gradient) boundary terms, exactly as in mantaflow's pressure
projection.
"""

from __future__ import annotations

import numpy as np

from .grid import MACGrid2D

__all__ = [
    "divergence",
    "pressure_gradient_update",
    "apply_laplacian",
    "velocity_divergence_field",
]


def divergence(grid: MACGrid2D) -> np.ndarray:
    """Discrete divergence of the face velocity at every cell centre.

    Returns an (ny, nx) array; entries of solid cells are forced to zero
    (there is no flow to correct inside obstacles).
    """
    div = (grid.u[:, 1:] - grid.u[:, :-1] + grid.v[1:, :] - grid.v[:-1, :]) / grid.dx
    div[grid.solid] = 0.0
    return div


def velocity_divergence_field(grid: MACGrid2D) -> np.ndarray:
    """Alias of :func:`divergence` named after the network input ∇·u*."""
    return divergence(grid)


def pressure_gradient_update(grid: MACGrid2D, p: np.ndarray, dt: float, rho: float) -> None:
    """Subtract the pressure gradient from face velocities (in place).

    Implements line 18 of the paper's Algorithm 1:
    ``u^{n+1} = u_B - dt/rho * grad(p)``.  Faces adjacent to solid cells are
    left untouched and re-zeroed through the boundary condition.
    """
    scale = dt / (rho * grid.dx)
    solid = grid.solid
    # interior u faces between cells (j, i-1) and (j, i)
    interior_u = ~(solid[:, :-1] | solid[:, 1:])
    du = scale * (p[:, 1:] - p[:, :-1])
    grid.u[:, 1:-1][interior_u] -= du[interior_u]
    # interior v faces between cells (j-1, i) and (j, i)
    interior_v = ~(solid[:-1, :] | solid[1:, :])
    dv = scale * (p[1:, :] - p[:-1, :])
    grid.v[1:-1, :][interior_v] -= dv[interior_v]
    grid.enforce_solid_boundaries()


def apply_laplacian(p: np.ndarray, solid: np.ndarray, deg: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free application of the 5-point Poisson operator ``A @ p``.

    ``A`` is the (positive semi-definite) operator assembled by
    :mod:`repro.fluid.laplacian`:  ``(A p)_c = deg(c) p_c - sum_n p_n`` where
    the sum runs over fluid neighbours ``n`` of fluid cell ``c`` and
    ``deg(c)`` counts non-solid neighbours.  Solid rows are identically zero.

    ``deg`` optionally supplies the precomputed degree field (the stencil
    diagonal, e.g. ``GeometryKernels.degree`` or ``stencil_arrays(solid)[0]``)
    — it depends only on the geometry, so callers solving repeatedly on one
    mask can skip recomputing it.  The result is bitwise identical either
    way: a supplied diagonal differs from the internal accumulation only on
    solid cells, where it multiplies an exact zero.

    This is used by the multigrid smoother and the DivNorm loss gradient;
    :meth:`~repro.fluid.kernels.GeometryKernels.matvec` is its bitwise-equal
    flat form inside PCG.
    """
    fluid = ~solid
    pf = np.where(fluid, p, 0.0)
    out = np.zeros_like(p)

    compute_deg = deg is None
    if compute_deg:
        deg = np.zeros_like(p)
    # neighbour contributions (zero-padded at the domain edge; the border
    # wall means edge cells are solid anyway)
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        nb_val = np.zeros_like(p)
        if axis == 0 and shift == 1:
            nb_val[:-1, :] = pf[1:, :]
        elif axis == 0 and shift == -1:
            nb_val[1:, :] = pf[:-1, :]
        elif axis == 1 and shift == 1:
            nb_val[:, :-1] = pf[:, 1:]
        else:
            nb_val[:, 1:] = pf[:, :-1]
        if compute_deg:
            nb_fluid = np.zeros_like(fluid)
            if axis == 0 and shift == 1:
                nb_fluid[:-1, :] = fluid[1:, :]
            elif axis == 0 and shift == -1:
                nb_fluid[1:, :] = fluid[:-1, :]
            elif axis == 1 and shift == 1:
                nb_fluid[:, :-1] = fluid[:, 1:]
            else:
                nb_fluid[:, 1:] = fluid[:, :-1]
            deg += nb_fluid
        out -= nb_val
    out += deg * pf
    out[solid] = 0.0
    return out
