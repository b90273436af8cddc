"""The matrix-free grid-level CG loop: the bitwise oracle for :class:`PCGSolver`.

:class:`ReferencePCGSolver` replaces only the solve loop.  It runs CG on 2-D
grids with ``apply_laplacian`` and the wavefront
:meth:`~repro.fluid.MIC0Preconditioner.apply`, while the mask-keyed caches,
counters and the span come from :class:`PCGSolver`.  The flat-vector kernel loop must reproduce this
loop bit for bit: same iterations, residual history, flops and pressure.
"""

import numpy as np

from repro.fluid import MIC0Preconditioner, PCGSolver, SolveResult
from repro.fluid.laplacian import remove_nullspace
from repro.fluid.operators import apply_laplacian
from repro.metrics import MetricsRegistry


class ReferencePCGSolver(PCGSolver):
    """:class:`PCGSolver` with the grid-level CG loop in place of the kernels."""

    def _precondition(self, solid: np.ndarray, metrics: MetricsRegistry):
        if self.preconditioner == "mic0":
            mic = self._mic_cache.get(solid, lambda: MIC0Preconditioner(solid), metrics)
            return mic.apply
        if self.preconditioner == "jacobi":
            inv = self._jacobi_cache.get(
                solid, lambda: self._jacobi_inverse(solid), metrics
            )
            return lambda r: r * inv
        return lambda r: r

    def _solve_kernel(self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry) -> SolveResult:
        fluid = ~solid
        nf = int(fluid.sum())
        apply_m = self._precondition(solid, metrics)

        # compatibility projection: remove the per-component null space
        b = remove_nullspace(b, solid)

        p = np.zeros_like(b)
        r = b.copy()
        bnorm = float(np.abs(b[fluid]).max()) if nf else 0.0
        history = [bnorm]
        if bnorm < 1e-300:
            return SolveResult(p, 0, True, 0.0, 0.0, history)
        tol_abs = self.tol * bnorm

        flops = 0.0
        it = 0
        converged = bnorm <= tol_abs
        if not converged:
            z = apply_m(r)
            s = z.copy()
            sigma = float((z[fluid] * r[fluid]).sum())
            for it in range(1, self.max_iterations + 1):
                w = apply_laplacian(s, solid)
                denom = float((w[fluid] * s[fluid]).sum())
                if abs(denom) < 1e-300:
                    break
                alpha = sigma / denom
                p += alpha * s
                r -= alpha * w
                flops += 40.0 * nf
                rnorm = float(np.abs(r[fluid]).max())
                history.append(rnorm)
                if rnorm <= tol_abs:
                    converged = True
                    break
                z = apply_m(r)
                sigma_new = float((z[fluid] * r[fluid]).sum())
                beta = sigma_new / sigma
                s = z + beta * s
                sigma = sigma_new

        p = remove_nullspace(p, solid)
        rnorm = float(np.abs(r[fluid]).max())
        return SolveResult(p, it, converged, rnorm, flops, history)
