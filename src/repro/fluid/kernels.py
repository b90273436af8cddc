"""Per-geometry compiled solver kernels.

A matrix-free, grid-level PCG loop is dominated by Python-level overhead:
``apply_laplacian`` allocates ~10 full-grid temporaries per call and
recomputes the neighbour-degree field every time, the MIC(0) wavefront sweeps
issue ~2·(H+W) tiny NumPy calls per preconditioner application, and every CG
iteration pays repeated ``r[fluid]`` boolean fancy-indexing allocations.

:class:`GeometryKernels` compiles, once per solid mask, everything that
depends only on the geometry:

* the flat fluid-cell ordering (row-major, identical to ``field[fluid]``),
  with ``gather``/``scatter`` maps between grid fields and flat vectors;
* the cached neighbour-degree field (shared with ``apply_laplacian``);
* a fluid-only CSR Laplacian whose matvec is bit-for-bit identical to
  ``apply_laplacian`` (same per-row accumulation order: down, up, right,
  left, diagonal);
* lazily, the MIC(0) factor as sparse unit-diagonal triangular matrices
  (:class:`MICTriangularFactor`) whose solves run inside SuperLU — one C
  call per sweep instead of one Python call per anti-diagonal.

Bit-for-bit equivalence with the grid-level loop is a design requirement,
not an accident: CSR matvec accumulates each row's products in storage order
starting from 0.0, and SuperLU's triangular solves subtract each row's
contributions sequentially in ascending column order — both exactly mirror
the grid-level recurrences, so :class:`~repro.fluid.PCGSolver` produces the
same iterates, residual history and pressure as that loop, which the test
suite keeps as its oracle.

:func:`spectral_eligible` classifies masks that are a pure closed box (border
wall, no interior solids), the geometry class the DCT-based
:class:`~repro.fluid.spectral.SpectralSolver` can solve directly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.metrics import get_metrics

from .laplacian import stencil_arrays

try:  # pragma: no cover - exercised via the fallback test
    from scipy.sparse.linalg._dsolve import _superlu
except ImportError:  # pragma: no cover
    _superlu = None

__all__ = ["GeometryKernels", "MICTriangularFactor", "spectral_eligible"]


def spectral_eligible(solid: np.ndarray) -> bool:
    """True iff the mask is a closed box: one-cell border wall, fluid interior.

    This is the geometry class the DCT spectral solver handles exactly; any
    interior obstacle (or missing wall) requires the general PCG machinery.
    """
    ny, nx = solid.shape
    if ny < 3 or nx < 3:
        return False
    border = (
        bool(solid[0, :].all())
        and bool(solid[-1, :].all())
        and bool(solid[:, 0].all())
        and bool(solid[:, -1].all())
    )
    return border and not bool(solid[1:-1, 1:-1].any())


def _intc(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.intc)


class GeometryKernels:
    """Geometry-compiled artefacts for flat fluid-cell solver loops.

    Attributes
    ----------
    n:
        Number of fluid cells (flat vector length).
    ys, xs:
        Row-major fluid-cell coordinates; ``gather``/``scatter`` use them, so
        flat ordering matches boolean extraction ``field[~solid]`` exactly.
    fluid_index:
        (ny, nx) int map from cell to flat index; -1 on solids.
    degree:
        Grid-shaped non-solid-neighbour count (0 on solids) — the geometry
        term ``apply_laplacian`` otherwise recomputes every call.
    laplacian:
        (n, n) CSR matrix of the 5-point Poisson operator over fluid cells.
    """

    def __init__(self, solid: np.ndarray):
        with get_metrics().span("kernels/build") as sp:
            self._build(solid)
            if sp is not None:
                sp.attrs["cells"] = self.n

    def _build(self, solid: np.ndarray) -> None:
        self.solid = np.ascontiguousarray(solid, dtype=bool)
        self.shape = self.solid.shape
        fluid = ~self.solid
        self.degree, self.aplusx, self.aplusy = stencil_arrays(self.solid)
        ys, xs = np.nonzero(fluid)
        self.ys, self.xs = ys, xs
        self.n = int(ys.size)
        ny, nx = self.shape
        self.fluid_index = np.full((ny, nx), -1, dtype=np.int64)
        self.fluid_index[ys, xs] = np.arange(self.n)

        # padded index map: out-of-domain neighbours resolve to -1 like solids
        fi = np.full((ny + 2, nx + 2), -1, dtype=np.int64)
        fi[1:-1, 1:-1] = self.fluid_index
        down = fi[ys + 2, xs + 1]  # (y+1, x)
        up = fi[ys, xs + 1]  # (y-1, x)
        right = fi[ys + 1, xs + 2]  # (y, x+1)
        left = fi[ys + 1, xs]  # (y, x-1)
        diag = np.arange(self.n, dtype=np.int64)

        # Per-row entry order mirrors apply_laplacian's accumulation order
        # (down, up, right, left, then the diagonal term); CSR matvec sums in
        # storage order, which makes A @ v bitwise equal to the dense path.
        cols = np.stack([down, up, right, left, diag], axis=1)
        vals = np.empty((self.n, 5), dtype=np.float64)
        vals[:, :4] = -1.0
        vals[:, 4] = self.degree[ys, xs]
        keep = cols >= 0
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        self.laplacian = sp.csr_matrix(
            (vals[keep], cols[keep], indptr), shape=(self.n, self.n)
        )

        self._inv_degree: np.ndarray | None = None
        self._mic_factor: MICTriangularFactor | None = None
        self._mic_factor_src: object | None = None

    def gather(self, field: np.ndarray) -> np.ndarray:
        """Grid field -> flat fluid vector (row-major, == ``field[fluid]``)."""
        return field[self.ys, self.xs]

    def scatter(self, vec: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Flat fluid vector -> dense grid with zeros on solids."""
        out = np.zeros(self.shape, dtype=dtype)
        out[self.ys, self.xs] = vec
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` on flat fluid vectors (bitwise == ``apply_laplacian``)."""
        return self.laplacian @ v

    @property
    def inv_degree(self) -> np.ndarray:
        """Flat inverse stencil diagonal (Jacobi preconditioner/sweep term)."""
        if self._inv_degree is None:
            deg = self.degree[self.ys, self.xs]
            self._inv_degree = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-30), 0.0)
        return self._inv_degree

    def mic_factor(self, mic) -> "MICTriangularFactor":
        """Sparse triangular factor of a :class:`MIC0Preconditioner`, memoised.

        One factor per preconditioner instance: the kernels object is already
        per-geometry, and so is the cached preconditioner, so this is a
        single-slot memo that rebuilds only if a different ``mic`` arrives
        (e.g. different tuning constants).
        """
        if self._mic_factor is None or self._mic_factor_src is not mic:
            self._mic_factor = MICTriangularFactor(self, mic)
            self._mic_factor_src = mic
        return self._mic_factor


class MICTriangularFactor:
    """MIC(0) preconditioner as sparse unit-diagonal triangular solves.

    Rewrites ``z = M^{-1} r`` as

        ``L t = r``  (unit lower),  ``q = t * precon``,
        ``U s = q``  (unit upper),  ``z = s * precon``,

    using the coefficient grids precomputed by
    :class:`~repro.fluid.pcg.MIC0Preconditioner` (``_cl``/``_cb`` scale the
    left/below couplings of the forward sweep, ``_cr``/``_ca`` the
    right/above couplings of the backward sweep).  Both factors carry their
    off-diagonal entries in ascending column order — below then left, right
    then above — which is exactly the order the grid-level wavefront
    recurrence subtracts them in, so SuperLU's solves are bit-for-bit equal
    to :meth:`MIC0Preconditioner.apply`.

    The hot path calls ``_superlu.gstrs`` directly with prebuilt CSC buffers
    (the public :func:`~scipy.sparse.linalg.spsolve_triangular` wrapper pays
    a copy + ``setdiag`` + empty-matrix construction per call); when the
    private SuperLU module is unavailable the wrapper is used instead, and
    the two paths return identical bits.
    """

    def __init__(self, kern: GeometryKernels, mic):
        ys, xs, n = kern.ys, kern.xs, kern.n
        self.n = n
        self.precon_flat = mic.precon[ys, xs]

        ny, nx = kern.shape
        fi = np.full((ny + 2, nx + 2), -1, dtype=np.int64)
        fi[1:-1, 1:-1] = kern.fluid_index
        below = fi[ys, xs + 1]  # (y-1, x)
        left = fi[ys + 1, xs]  # (y, x-1)
        right = fi[ys + 1, xs + 2]  # (y, x+1)
        above = fi[ys + 2, xs + 1]  # (y+1, x)
        diag = np.arange(n, dtype=np.int64)
        ones = np.ones(n, dtype=np.float64)

        # forward-sweep coefficients live on the *neighbour* cell
        cb = mic._cb[ys - 1, xs] if n else np.zeros(0)
        cl = mic._cl[ys, xs - 1] if n else np.zeros(0)
        self.lower = self._assemble(
            n, [(below, cb), (left, cl), (diag, ones)]
        )
        # backward-sweep coefficients live on the cell itself
        cr = mic._cr[ys, xs] if n else np.zeros(0)
        ca = mic._ca[ys, xs] if n else np.zeros(0)
        self.upper = self._assemble(
            n, [(diag, ones), (right, cr), (above, ca)]
        )

        # prebuilt gstrs operands: lower as canonical CSC; upper's CSR
        # buffers reinterpreted as the CSC of its transpose (solved with
        # trans="T") — the exact plumbing of the scipy wrapper.
        lower_csc = sp.csc_matrix(self.lower)
        self._l_args = (
            lower_csc.nnz,
            lower_csc.data,
            _intc(lower_csc.indices),
            _intc(lower_csc.indptr),
        )
        self._u_args = (
            self.upper.nnz,
            self.upper.data,
            _intc(self.upper.indices),
            _intc(self.upper.indptr),
        )
        empty = sp.csc_matrix((n, n), dtype=np.float64)
        self._e_args = (
            0,
            empty.data,
            _intc(empty.indices),
            _intc(empty.indptr),
        )

    @staticmethod
    def _assemble(n: int, slots) -> sp.csr_matrix:
        """CSR with per-row entries in the given slot order (missing = -1)."""
        cols = np.stack([c for c, _ in slots], axis=1) if n else np.zeros((0, len(slots)), dtype=np.int64)
        vals = np.stack([v for _, v in slots], axis=1) if n else np.zeros((0, len(slots)))
        keep = cols >= 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))

    def _solve_lower(self, b: np.ndarray) -> np.ndarray:
        if _superlu is None:
            return spsolve_triangular(self.lower, b, lower=True, unit_diagonal=True)
        x, info = _superlu.gstrs(
            "N", self.n, *self._l_args, self.n, *self._e_args, b.copy()
        )
        if info:  # pragma: no cover - factor is unit-diagonal by construction
            raise RuntimeError("MIC(0) lower solve failed")
        return x

    def _solve_upper(self, b: np.ndarray) -> np.ndarray:
        if _superlu is None:
            return spsolve_triangular(self.upper, b, lower=False, unit_diagonal=True)
        x, info = _superlu.gstrs(
            "T", self.n, *self._u_args, self.n, *self._e_args, b.copy()
        )
        if info:  # pragma: no cover
            raise RuntimeError("MIC(0) upper solve failed")
        return x

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to a flat fluid vector."""
        if self.n == 0:
            return np.zeros_like(r)
        t = self._solve_lower(r)
        q = t * self.precon_flat
        s = self._solve_upper(q)
        return s * self.precon_flat
