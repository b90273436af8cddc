"""Assembly of the 5-point pressure Poisson system.

We solve ``A p = b`` where, for each fluid cell ``c``,

    (A p)_c = deg(c) * p_c - sum_{n in fluid_neighbours(c)} p_n
    b_c     = -(rho * dx^2 / dt) * div_c

``deg(c)`` is the number of non-solid neighbours, which bakes the Neumann
condition at solid walls into the operator.  ``A`` is symmetric positive
semi-definite; with a closed domain (border wall) it has the constant vector
in its null space, so solvers pin the mean of the solution to zero.

Two representations are provided:

* :class:`PoissonSystem` — scipy CSR matrix over fluid cells only, plus the
  index maps to scatter solutions back onto the grid.  Used by reference
  solvers and tests.
* grid-shaped stencil arrays ``(adiag, aplusx, aplusy)`` — used by the
  MIC(0) preconditioner and by multigrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import label

from .solver_api import MaskKeyedCache

__all__ = [
    "PoissonSystem",
    "build_poisson_system",
    "stencil_arrays",
    "poisson_rhs",
    "fluid_components",
    "remove_nullspace",
]

_components_cache = MaskKeyedCache("fluid_components")


def fluid_components(solid: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Connected fluid components of a mask: ``(labels, count, cells)``.

    ``cells[i]`` is the number of cells labelled ``i`` (label 0 is the solid
    background), clamped to at least 1 so it can divide.  All three depend
    only on the geometry, so they are cached per solid mask —
    ``remove_nullspace`` runs on every solve's right-hand side and
    solution, making this a hot path.
    """

    def build():
        labels, count = label(~solid)
        cells = np.maximum(np.bincount(labels.ravel(), minlength=count + 1), 1)
        return labels, count, cells

    return _components_cache.get(solid, build)


def remove_nullspace(field: np.ndarray, solid: np.ndarray) -> np.ndarray:
    """Remove the per-component constant mode of a fluid field.

    With closed (Neumann) boundaries the Poisson operator has one constant
    null vector *per connected fluid component*.  Obstacles can split the
    domain into several components, so compatibility projection (of the
    right-hand side) and mean-centring (of the solution) must happen per
    component — a single global mean leaves the system inconsistent and CG
    diverges.  Returns a new array, zero on solids.
    """
    out = np.where(solid, 0.0, field)
    labels, n, cells = fluid_components(solid)
    if n:
        sums = np.bincount(labels.ravel(), weights=out.ravel(), minlength=n + 1)
        means = sums / cells
        means[0] = 0.0  # label 0 is the solid background
        out -= means[labels]
    return out


@dataclass
class PoissonSystem:
    """Sparse Poisson system restricted to fluid cells.

    Attributes
    ----------
    matrix:
        CSR matrix of shape (n_fluid, n_fluid).
    fluid_index:
        (ny, nx) int array mapping a fluid cell to its row; -1 for solids.
    fluid_cells:
        (n_fluid, 2) array of (y, x) coordinates, row order.
    """

    matrix: sp.csr_matrix
    fluid_index: np.ndarray
    fluid_cells: np.ndarray

    @property
    def n(self) -> int:
        """Number of unknowns (fluid cells)."""
        return self.matrix.shape[0]

    def flatten(self, field: np.ndarray) -> np.ndarray:
        """Gather a grid field into the fluid-cell vector ordering."""
        return field[self.fluid_cells[:, 0], self.fluid_cells[:, 1]]

    def unflatten(self, vec: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """Scatter a fluid-cell vector back to a dense grid (solids = 0)."""
        out = np.zeros(shape, dtype=vec.dtype)
        out[self.fluid_cells[:, 0], self.fluid_cells[:, 1]] = vec
        return out


def build_poisson_system(solid: np.ndarray) -> PoissonSystem:
    """Assemble the CSR Poisson matrix for the given solid mask."""
    ny, nx = solid.shape
    fluid = ~solid
    fluid_index = -np.ones((ny, nx), dtype=np.int64)
    ys, xs = np.nonzero(fluid)
    fluid_index[ys, xs] = np.arange(ys.size)
    fluid_cells = np.stack([ys, xs], axis=1)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    deg = np.zeros((ny, nx), dtype=np.float64)
    for dy, dx_ in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ny2 = np.clip(ys + dy, 0, ny - 1)
        nx2 = np.clip(xs + dx_, 0, nx - 1)
        inside = (ys + dy >= 0) & (ys + dy < ny) & (xs + dx_ >= 0) & (xs + dx_ < nx)
        nb_fluid = inside & fluid[ny2, nx2]
        deg[ys, xs] += nb_fluid  # all non-solid cells are fluid here
        r = fluid_index[ys[nb_fluid], xs[nb_fluid]]
        c = fluid_index[ny2[nb_fluid], nx2[nb_fluid]]
        rows.append(r)
        cols.append(c)
        vals.append(-np.ones(r.size))

    n = ys.size
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(deg[ys, xs])

    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return PoissonSystem(matrix=matrix, fluid_index=fluid_index, fluid_cells=fluid_cells)


def stencil_arrays(solid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-shaped stencil coefficients (adiag, aplusx, aplusy).

    ``aplusx[j, i]`` is the coupling between cells (j, i) and (j, i+1); it is
    -1 when both are fluid and 0 otherwise (mirroring Bridson's Aplusi /
    Aplusj arrays, up to sign).  ``adiag`` is the neighbour degree on fluid
    cells and 0 on solids.
    """
    fluid = ~solid
    ny, nx = solid.shape
    aplusx = np.zeros((ny, nx))
    aplusy = np.zeros((ny, nx))
    aplusx[:, :-1] = -(fluid[:, :-1] & fluid[:, 1:]).astype(np.float64)
    aplusy[:-1, :] = -(fluid[:-1, :] & fluid[1:, :]).astype(np.float64)

    deg = np.zeros((ny, nx))
    deg[:, 1:] += fluid[:, :-1]
    deg[:, :-1] += fluid[:, 1:]
    deg[1:, :] += fluid[:-1, :]
    deg[:-1, :] += fluid[1:, :]
    adiag = np.where(fluid, deg, 0.0)
    return adiag, aplusx, aplusy


def poisson_rhs(div: np.ndarray, solid: np.ndarray, dt: float, rho: float, dx: float) -> np.ndarray:
    """Right-hand side ``b = -(rho * dx^2 / dt) * div`` (zero on solids)."""
    b = -(rho * dx * dx / dt) * div
    b = b.copy()
    b[solid] = 0.0
    return b
