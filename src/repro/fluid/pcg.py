"""Preconditioned conjugate gradient with the MIC(0) preconditioner.

This is the exact solver the paper's neural networks approximate (Algorithm 1
lines 7-17): conjugate gradient on the 5-point Poisson system, preconditioned
with the Modified Incomplete Cholesky level-0 factorisation ("MICCG(0)").

The CG loop runs on flat fluid-cell vectors using the per-geometry
:class:`~repro.fluid.kernels.GeometryKernels` artifact: CSR matvec for
``A·s``, one C-kernel call for both MIC(0) sweeps, allocation-free
reductions.  Its C-level loops accumulate in exactly the order of the
matrix-free grid recurrences (see :mod:`repro.fluid.kernels`), so it is
bit-for-bit equal to the grid-level CG loop; the test suite keeps that loop
as its oracle and asserts equal iterates, residual history and pressure.

Runtime caching: :class:`PCGSolver` keeps the MIC(0) factorisation (which
embeds the wavefront schedule) and the compiled geometry kernels in
:class:`~repro.fluid.solver_api.MaskKeyedCache`\\ s keyed on the solid mask,
so consecutive solves on the same geometry — the common case inside a
simulation — skip the setup entirely.  Every solve starts CG from zero, so
results on identical inputs are bit-for-bit reproducible regardless of
solver history.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import MetricsRegistry, get_metrics

from .kernels import GeometryKernels
from .laplacian import remove_nullspace, stencil_arrays
from .solver_api import MaskKeyedCache, PressureSolver, SolveResult

__all__ = [
    "SolveResult",
    "MIC0Preconditioner",
    "PCGSolver",
]


def _wavefronts(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index arrays of ``mask`` cells grouped by anti-diagonal x + y."""
    ys, xs = np.nonzero(mask)
    keys = ys + xs
    order = np.argsort(keys, kind="stable")
    ys, xs, keys = ys[order], xs[order], keys[order]
    fronts: list[tuple[np.ndarray, np.ndarray]] = []
    if ys.size == 0:
        return fronts
    bounds = np.nonzero(np.diff(keys))[0] + 1
    for y_blk, x_blk in zip(np.split(ys, bounds), np.split(xs, bounds)):
        fronts.append((y_blk, x_blk))
    return fronts


class MIC0Preconditioner:
    """Modified Incomplete Cholesky(0) preconditioner for the Poisson system.

    Follows Bridson's formulation (tuning constant ``tau = 0.97``, safety
    ``sigma = 0.25``).  Requires the domain border to be solid, which the
    simulator guarantees (border wall).

    Besides ``precon`` (the inverse diagonal of the factor), the constructor
    precomputes four coefficient grids that cast the two triangular sweeps as
    *unit-diagonal* recurrences on ``t = q / precon``:

        forward:   ``t_c = (r_c - cb_below · t_below) - cl_left · t_left``
        backward:  ``t_c = (q_c - cr_c · t_right) - ca_c · t_above``

    These grids are shared with the sparse
    :class:`~repro.fluid.kernels.MICTriangularFactor`, which is what makes
    its sparse sweeps bitwise-equal to :meth:`apply`: both subtract the
    smaller-flat-index contribution first (below before left, right before
    above), the ascending-column order of its C kernel and of SuperLU.
    """

    def __init__(self, solid: np.ndarray, tau: float = 0.97, sigma: float = 0.25):
        if not (solid[0, :].all() and solid[-1, :].all() and solid[:, 0].all() and solid[:, -1].all()):
            raise ValueError("MIC(0) requires a solid border wall")
        self.solid = solid
        self.fluid = ~solid
        self.adiag, self.aplusx, self.aplusy = stencil_arrays(solid)
        self._fronts = _wavefronts(self.fluid)
        self.precon = self._build(tau, sigma)
        precon = self.precon
        self._cl = self.aplusx * precon * precon
        self._cb = self.aplusy * precon * precon
        self._cr = np.zeros_like(precon)
        self._cr[:, :-1] = self.aplusx[:, :-1] * precon[:, :-1] * precon[:, 1:]
        self._ca = np.zeros_like(precon)
        self._ca[:-1, :] = self.aplusy[:-1, :] * precon[:-1, :] * precon[1:, :]

    def _build(self, tau: float, sigma: float) -> np.ndarray:
        adiag, apx, apy = self.adiag, self.aplusx, self.aplusy
        precon = np.zeros_like(adiag)
        for ys, xs in self._fronts:
            left = precon[ys, xs - 1]
            below = precon[ys - 1, xs]
            apx_l = apx[ys, xs - 1]
            apy_b = apy[ys - 1, xs]
            e = (
                adiag[ys, xs]
                - (apx_l * left) ** 2
                - (apy_b * below) ** 2
                - tau
                * (
                    apx_l * self.aplusy[ys, xs - 1] * left**2
                    + apy_b * self.aplusx[ys - 1, xs] * below**2
                )
            )
            bad = e < sigma * adiag[ys, xs]
            e = np.where(bad, adiag[ys, xs], e)
            precon[ys, xs] = 1.0 / np.sqrt(np.maximum(e, 1e-30))
        return precon

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: solve ``(L L^T) z = r`` approximately."""
        precon, cl, cb, cr, ca = self.precon, self._cl, self._cb, self._cr, self._ca
        t = np.zeros_like(r)
        for ys, xs in self._fronts:  # forward: unit-lower solve
            t[ys, xs] = (r[ys, xs] - cb[ys - 1, xs] * t[ys - 1, xs]) - cl[
                ys, xs - 1
            ] * t[ys, xs - 1]
        q = t * precon
        t = np.zeros_like(r)
        for ys, xs in reversed(self._fronts):  # backward: unit-upper solve
            t[ys, xs] = (q[ys, xs] - cr[ys, xs] * t[ys, xs + 1]) - ca[ys, xs] * t[
                ys + 1, xs
            ]
        return t * precon


class PCGSolver(PressureSolver):
    """PCG pressure solver (the paper's baseline 'PCG' method).

    Parameters
    ----------
    tol:
        Relative residual tolerance (infinity norm, relative to ``|b|``).
    max_iterations:
        Iteration cap; the solver reports non-convergence beyond it.
    preconditioner:
        ``"mic0"`` (default), ``"jacobi"`` or ``"none"``.
    metrics:
        Registry receiving solver counters and spans; defaults to the
        process-wide registry.
    """

    name = "pcg"

    def __init__(
        self,
        tol: float = 1e-5,
        max_iterations: int = 2000,
        preconditioner: str = "mic0",
        metrics: MetricsRegistry | None = None,
    ):
        if preconditioner not in ("mic0", "jacobi", "none"):
            raise ValueError(f"unknown preconditioner {preconditioner!r}")
        self.tol = tol
        self.max_iterations = max_iterations
        self.preconditioner = preconditioner
        self._metrics = metrics
        self._mic_cache = MaskKeyedCache("mic0")
        self._jacobi_cache = MaskKeyedCache("jacobi_diag")
        self._kernels_cache = MaskKeyedCache("kernels")

    def reset(self) -> None:
        """Drop the cached factorisation and kernels."""
        self._mic_cache.clear()
        self._jacobi_cache.clear()
        self._kernels_cache.clear()

    @staticmethod
    def _jacobi_inverse(solid: np.ndarray) -> np.ndarray:
        adiag, _, _ = stencil_arrays(solid)
        return np.where(adiag > 0, 1.0 / np.maximum(adiag, 1e-30), 0.0)

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Solve ``A p = b`` on fluid cells; returns mean-zero pressure."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.span(f"solve/{self.name}") as sp:
            result = self._solve_kernel(b, solid, metrics)
            if sp is not None:
                sp.attrs["iterations"] = result.iterations
                sp.attrs["converged"] = result.converged
        metrics.inc(f"solver/{self.name}/solves")
        metrics.inc(f"solver/{self.name}/iterations", result.iterations)
        metrics.families.histogram(
            "solver_iterations",
            help="Iterations per pressure solve by solver.",
            labels=("solver",),
        ).observe(
            result.iterations,
            exemplar=sp.span_id if sp is not None else None,
            solver=self.name,
        )
        return result

    def _solve_kernel(self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry) -> SolveResult:
        """Flat fluid-vector CG: CSR matvec + the factor's triangular sweeps."""
        kern: GeometryKernels = self._kernels_cache.get(
            solid, lambda: GeometryKernels(solid), metrics
        )
        nf = kern.n
        if self.preconditioner == "mic0":
            mic = self._mic_cache.get(solid, lambda: MIC0Preconditioner(solid), metrics)
            apply_m = kern.mic_factor(mic).apply
        elif self.preconditioner == "jacobi":
            inv = self._jacobi_cache.get(
                solid, lambda: self._jacobi_inverse(solid), metrics
            )
            inv_flat = kern.gather(inv)
            apply_m = lambda r: r * inv_flat  # noqa: E731
        else:
            apply_m = lambda r: r  # noqa: E731

        # compatibility projection: remove the per-component null space
        b = remove_nullspace(b, solid)

        bf = kern.gather(b)
        pf = np.zeros(nf)
        rf = bf.copy()
        bnorm = float(np.abs(bf).max()) if nf else 0.0
        history = [bnorm]
        if bnorm < 1e-300:
            return SolveResult(np.zeros_like(b), 0, True, 0.0, 0.0, history)
        tol_abs = self.tol * bnorm

        flops = 0.0
        it = 0
        converged = bnorm <= tol_abs
        if not converged:
            zf = apply_m(rf)
            sf = zf.copy()
            sigma = float((zf * rf).sum())
            for it in range(1, self.max_iterations + 1):
                wf = kern.matvec(sf)
                denom = float((wf * sf).sum())
                if abs(denom) < 1e-300:
                    break
                alpha = sigma / denom
                pf += alpha * sf
                rf -= alpha * wf
                flops += 40.0 * nf
                rnorm = float(np.abs(rf).max())
                history.append(rnorm)
                if rnorm <= tol_abs:
                    converged = True
                    break
                zf = apply_m(rf)
                sigma_new = float((zf * rf).sum())
                beta = sigma_new / sigma
                sf = zf + beta * sf
                sigma = sigma_new

        p = remove_nullspace(kern.scatter(pf), solid)
        rnorm = float(np.abs(rf).max())
        return SolveResult(p, it, converged, rnorm, flops, history)
