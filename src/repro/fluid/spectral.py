"""Direct spectral pressure solve for obstacle-free closed boxes.

On a closed box (one-cell border wall, all-fluid interior) the 5-point
Poisson operator with Neumann walls is diagonalised by the type-II discrete
cosine transform: the 1-D cell-centred Neumann Laplacian has eigenvectors
``cos(pi k (i + 1/2) / m)`` with eigenvalues ``2 - 2 cos(pi k / m)``, and the
2-D operator is their Kronecker sum.  That turns the pressure solve into

    ``p = IDCT( DCT(b) / lambda )``

— an exact direct solve in O(N log N), no iteration, no preconditioner.
Smoke-plume scenarios without obstacles (`InputProblem(with_obstacles=False)`)
are exactly this geometry class.

:class:`SpectralSolver` conforms to the
:class:`~repro.fluid.solver_api.PressureSolver` protocol and auto-falls back
to a configurable iterative solver (PCG by default) whenever the mask has
interior solids, so it is safe to select unconditionally: eligible steps get
the direct solve, the rest get the exact baseline.  The reported residual is
measured honestly through the geometry kernels' CSR operator, not assumed
zero.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from repro.metrics import MetricsRegistry, get_metrics

from .kernels import GeometryKernels, spectral_eligible
from .laplacian import remove_nullspace
from .pcg import PCGSolver
from .solver_api import MaskKeyedCache, PressureSolver, SolveResult

__all__ = ["SpectralSolver"]


class _SpectralPlan:
    """Per-geometry DCT eigenvalue grid for the interior Neumann Laplacian."""

    def __init__(self, solid: np.ndarray):
        m = solid.shape[0] - 2
        n = solid.shape[1] - 2
        ly = 2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m)
        lx = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        lam = ly[:, None] + lx[None, :]
        lam[0, 0] = 1.0  # null mode; its coefficient is zeroed explicitly
        self.lam = lam


class SpectralSolver(PressureSolver):
    """O(N log N) DCT direct solver for obstacle-free closed boxes.

    Parameters
    ----------
    tol:
        Relative residual tolerance used only to *report* convergence (the
        solve itself is direct); also forwarded to the default fallback.
    fallback:
        Solver used when the geometry is not spectral-eligible (interior
        solids / missing wall).  Defaults to ``PCGSolver(tol=tol)``.
    metrics:
        Registry receiving counters and spans; defaults to the process-wide
        registry.  Fallback dispatches are counted as
        ``solver/spectral/fallbacks``.
    """

    name = "spectral"

    def __init__(
        self,
        tol: float = 1e-5,
        fallback: PressureSolver | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tol = tol
        self._metrics = metrics
        self.fallback = (
            fallback if fallback is not None else PCGSolver(tol=tol, metrics=metrics)
        )
        self._plan_cache = MaskKeyedCache("spectral_plan")
        self._kernels_cache = MaskKeyedCache("kernels")

    def reset(self) -> None:
        """Drop the cached DCT plan and kernels; reset the fallback too."""
        self._plan_cache.clear()
        self._kernels_cache.clear()
        self.fallback.reset()

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Direct-solve eligible geometries; delegate the rest to fallback."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        if not spectral_eligible(solid):
            metrics.inc(f"solver/{self.name}/fallbacks")
            return self.fallback.solve(b, solid)
        with metrics.span(f"solve/{self.name}"):
            result = self._solve(b, solid, metrics)
        metrics.inc(f"solver/{self.name}/solves")
        metrics.inc(f"solver/{self.name}/iterations", result.iterations)
        return result

    def _solve(self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry) -> SolveResult:
        plan: _SpectralPlan = self._plan_cache.get(
            solid, lambda: _SpectralPlan(solid), metrics
        )
        kern: GeometryKernels = self._kernels_cache.get(
            solid, lambda: GeometryKernels(solid), metrics
        )

        b = remove_nullspace(b, solid)
        bf = kern.gather(b)
        bnorm = float(np.abs(bf).max()) if kern.n else 0.0
        if bnorm < 1e-300:
            return SolveResult(np.zeros_like(b), 0, True, 0.0, 0.0, [bnorm])

        bhat = dctn(b[1:-1, 1:-1], type=2, norm="ortho")
        bhat[0, 0] = 0.0  # pin the constant (null) mode
        interior = idctn(bhat / plan.lam, type=2, norm="ortho")
        p = np.zeros_like(b)
        p[1:-1, 1:-1] = interior
        p = remove_nullspace(p, solid)

        residual = bf - kern.matvec(kern.gather(p))
        rnorm = float(np.abs(residual).max())
        converged = rnorm <= self.tol * bnorm
        ntot = float(kern.n)
        # two 2-D DCTs at ~5 N log2 N flops each, plus the eigenvalue scale
        flops = 10.0 * ntot * np.log2(max(ntot, 2.0)) + ntot
        return SolveResult(p, 1, converged, rnorm, flops, [bnorm, rnorm])
