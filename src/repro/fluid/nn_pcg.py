"""NN-preconditioned flexible conjugate gradient (DCDM-style).

The paper's Algorithm 2 treats the CNN as all-or-nothing: when a network
run misses the DivNorm requirement, the runtime abandons it and pays a full
MIC(0)-PCG solve.  The DCDM/MLPCG line of work (Kaneda et al.; cf. Tompson
et al.) shows the stronger middle ground: feed the CNN's prediction on the
*current residual* back into conjugate gradient as that iteration's search
direction.  CG's exact line search and A-orthogonalization then keep the
exact solver's convergence guarantee — the loop iterates until the true
residual meets the tolerance — while good directions cut the iteration
count far below the MIC(0) preconditioner's.

Direction generator
-------------------
DCDM's GPU-scale networks are deep enough to span the whole grid; our
CPU-scale five-stage CNNs have an 11-cell receptive field and cannot
produce the global (smooth) components of ``A^{-1} r`` at 128² — a single
forward pass proposes directions that stall CG's tail.  The adapter
therefore composes the *same* network across a power-of-two residual
pyramid, V-cycle style (cf. FluidNet's multi-scale stack and geometric
multigrid's coarse-grid correction):

1. at each level, the network smooths the level residual:
   ``q_l = NN(r_l / sigma_l) * sigma_l`` (``sigma_l`` the fluid-cell std,
   the training-time normalisation), run through the per-shape fp32
   :class:`repro.nn.InferencePlan` fast path;
2. the remaining residual ``r_l - A_l q_l`` is restricted (2x2 sum — the
   factor-4 stencil rescale built in) to the next level, corrected there
   recursively, and the coarse correction is prolonged back (bilinear) and
   followed by one more network application on what is left;
3. optionally the whole cycle repeats ``cycles`` times on the updated
   residual (defect correction, like ``NNProjectionSolver``'s passes).

The receptive field covers a doubling fraction of each coarser level, so
the composition reaches global modes while every constituent operation is
still "the network forward on the current residual" — a documented
CPU-scale substitution for DCDM's single giant network (see DESIGN.md).

CG wrapper
----------
Each proposed direction is A-orthogonalized (modified Gram-Schmidt)
against a bounded window of previous directions (default 2, following
DCDM) using cached ``A s_j`` products, then applied with the exact line
search ``alpha = (q·r)/(q·Aq)``.  A **safeguard** replaces the direction
with the classic MIC(0) one ``M^{-1} r`` whenever the NN proposal
degenerates — non-finite, vanishing ``q·Aq`` after orthogonalization, or
non-descent (``q·r <= 0``) — so an untrained or adversarial network can
slow the solver down but never break convergence.

All CG-state linear algebra runs on flat fluid-cell vectors through the
per-geometry :class:`~repro.fluid.kernels.GeometryKernels` CSR Laplacian
(bitwise equal to ``apply_laplacian``); the MIC(0) factorisation, the
residual pyramid and the float geometry channels are held in
:class:`~repro.fluid.solver_api.MaskKeyedCache`\\ s keyed on the solid
mask.  The direction window lives on the stack of one ``solve`` call and
no state carries between solves, so repeated calls on identical inputs
are bit-for-bit identical.

Convergence semantics match :class:`~repro.fluid.pcg.PCGSolver`: the
right-hand side is compatibility-projected per component, the tolerance is
the relative infinity norm ``|r| <= tol * |b|`` over fluid cells, and the
returned pressure is nullspace-free.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import MetricsRegistry, get_metrics
from repro.trace import get_tracer

from .kernels import GeometryKernels
from .laplacian import remove_nullspace, stencil_arrays
from .operators import apply_laplacian
from .pcg import MIC0Preconditioner
from .solver_api import MaskKeyedCache, PressureSolver, SolveResult

__all__ = ["NNPCGSolver"]

_PRECISIONS = {"fp32": np.float32, "fp64": np.float64}

#: below this, a denominator/sigma is treated as exactly zero (matches PCG)
_TINY = 1e-300


class _PyramidLevel:
    """One level of the residual pyramid: mask + stencil diagonal + channel."""

    __slots__ = ("solid", "fluid", "adiag", "geo")

    def __init__(self, solid: np.ndarray):
        self.solid = solid
        self.fluid = ~solid
        self.adiag, _, _ = stencil_arrays(solid)
        self.geo = solid.astype(np.float64)


def _build_pyramid(solid: np.ndarray, min_size: int) -> list[_PyramidLevel]:
    """Power-of-two coarsening of the solid mask (finest first).

    Unlike the multigrid hierarchy (interior-aligned, for re-discretised
    coarse *operators*), this coarsens the whole grid 2x2 — the coarse
    levels only shape search-direction proposals, never a system that must
    be solved exactly, so alignment of the wall ring is not load-bearing.
    A coarse cell is solid when at least half of its four children are;
    the border wall is re-imposed so every level is a valid domain.
    """
    levels = [_PyramidLevel(solid)]
    cur = solid
    while (
        cur.shape[0] % 2 == 0
        and cur.shape[1] % 2 == 0
        and min(cur.shape) // 2 >= min_size
    ):
        ny, nx = cur.shape
        coarse = cur.reshape(ny // 2, 2, nx // 2, 2).sum(axis=(1, 3)) >= 2
        coarse[0, :] = coarse[-1, :] = True
        coarse[:, 0] = coarse[:, -1] = True
        if not (~coarse).any():
            break
        levels.append(_PyramidLevel(coarse))
        cur = coarse
    return levels


def _restrict(r: np.ndarray, coarse: _PyramidLevel) -> np.ndarray:
    """2x2 sum restriction (the factor-4 stencil rescale built in)."""
    ny, nx = r.shape
    rc = r.reshape(ny // 2, 2, nx // 2, 2).sum(axis=(1, 3))
    return np.where(coarse.fluid, rc, 0.0)


def _prolong(e: np.ndarray, fine: _PyramidLevel) -> np.ndarray:
    """Bilinear (cell-centred) prolongation of a coarse correction."""
    from scipy.ndimage import zoom

    out = zoom(e, 2, order=1, mode="nearest", grid_mode=True)
    return np.where(fine.fluid, out, 0.0)


class NNPCGSolver(PressureSolver):
    """Flexible CG whose search directions come from a neural network.

    Parameters
    ----------
    model:
        The trained network (``repro.nn`` layer); its forward passes on the
        (pyramid-restricted) residual become each iteration's search
        direction.
    name:
        Solver name used in metrics/span keys (default ``"nn_pcg"``).
    tol:
        Relative residual tolerance (infinity norm, relative to ``|b|``) —
        same convention as :class:`~repro.fluid.pcg.PCGSolver`.
    max_iterations:
        Iteration cap; the solver reports non-convergence beyond it.
    window:
        Number of previous directions to A-orthogonalize against (DCDM
        uses 2).  Each window entry costs one dot+axpy pair per iteration.
    cycles:
        Network V-cycles per proposed direction (defect correction on the
        direction itself).  2 roughly halves the iteration count at twice
        the inference cost per iteration.
    min_level:
        Pyramid coarsening stops before any side would drop below this.
        ``min_level`` >= the grid size disables the pyramid entirely,
        giving DCDM's original single-level direction.
    precision:
        ``"fp32"`` (default) compiles the single-precision inference
        plan; ``"fp64"`` the double-precision one.  The CG state (``p``,
        ``r``, all reductions) is always float64 — precision only affects
        the quality of proposed directions, never the residual accounting,
        so convergence checks stay PCG-grade.
    metrics:
        Registry receiving solver counters and spans; defaults to the
        process-wide registry.
    """

    def __init__(
        self,
        model,
        name: str = "nn_pcg",
        tol: float = 1e-5,
        max_iterations: int = 2000,
        window: int = 2,
        cycles: int = 2,
        min_level: int = 8,
        precision: str = "fp32",
        metrics: MetricsRegistry | None = None,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        if min_level < 4:
            raise ValueError("min_level must be >= 4")
        if precision not in _PRECISIONS:
            raise ValueError(
                f"precision must be one of {sorted(_PRECISIONS)}, got {precision!r}"
            )
        self.model = model
        self.name = name
        self.tol = tol
        self.max_iterations = max_iterations
        self.window = window
        self.cycles = cycles
        self.min_level = min_level
        self.precision = precision
        self._metrics = metrics
        self._pyramid_cache = MaskKeyedCache("nn_pyramid")
        self._kernels_cache = MaskKeyedCache("kernels", capacity=16)
        self._mic_cache = MaskKeyedCache("mic0")
        # per-shape inference plans and (1, 2, H, W) input workspaces: the
        # pyramid runs the same network at every level's shape
        self._plans: dict[tuple[int, int], object] = {}
        self._xs: dict[tuple[int, int], np.ndarray] = {}
        self._plan_unsupported = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached geometry artifacts, workspaces and plans."""
        self._pyramid_cache.clear()
        self._kernels_cache.clear()
        self._mic_cache.clear()
        self._plans.clear()
        self._xs.clear()
        self._plan_unsupported = False
        stack = [self.model]
        while stack:
            layer = stack.pop()
            if hasattr(layer, "reset_workspace"):
                layer.reset_workspace()
            stack.extend(getattr(layer, "layers", []))

    def _ensure_plan(self, shape, metrics):
        """Compiled plan for ``(2,) + shape``, or None on plan fallback."""
        from repro.nn import InferencePlan, PlanError

        if self._plan_unsupported:
            return None
        plan = self._plans.get(shape)
        if plan is not None:
            return plan
        try:
            with metrics.span("plan_build", solver=self.name, precision=self.precision):
                plan = InferencePlan(
                    self.model, (2,) + shape, dtype=_PRECISIONS[self.precision]
                )
        except PlanError:
            self._plan_unsupported = True
            metrics.inc(f"solver/{self.name}/plan_unsupported")
            return None
        self._plans[shape] = plan
        metrics.inc(f"solver/{self.name}/plan_builds")
        get_tracer().event(
            "plan_build",
            solver=self.name,
            shape=list(shape),
            precision=self.precision,
        )
        return plan

    def _nn_apply(self, r: np.ndarray, level: _PyramidLevel, metrics) -> np.ndarray:
        """One network application at one level: ``NN(r/sigma) * sigma``."""
        fluid = level.fluid
        sigma = float(r[fluid].std()) if fluid.any() else 0.0
        if not np.isfinite(sigma) or sigma < _TINY:
            return np.zeros_like(r)
        shape = r.shape
        x = self._xs.get(shape)
        if x is None:
            x = self._xs[shape] = np.empty((1, 2) + shape, dtype=np.float64)
        np.divide(r, sigma, out=x[0, 0])
        x[0, 1] = level.geo
        plan = self._ensure_plan(shape, metrics)
        if plan is None:
            out = self.model.forward(x, training=False)
        else:
            out = plan.run(x)
        q = out[0, 0].astype(np.float64, copy=False) * sigma
        return np.where(fluid, q, 0.0)

    def _nn_vcycle(
        self, r: np.ndarray, levels: list[_PyramidLevel], idx: int, metrics
    ) -> np.ndarray:
        """Recursive multiscale correction: smooth, restrict, correct, smooth."""
        level = levels[idx]
        q = self._nn_apply(r, level, metrics)
        if idx < len(levels) - 1:
            rr = np.where(
                level.fluid,
                r - apply_laplacian(q, level.solid, deg=level.adiag),
                0.0,
            )
            ec = self._nn_vcycle(_restrict(rr, levels[idx + 1]), levels, idx + 1, metrics)
            q = q + _prolong(ec, level)
            rr = np.where(
                level.fluid,
                r - apply_laplacian(q, level.solid, deg=level.adiag),
                0.0,
            )
            q = q + self._nn_apply(rr, level, metrics)
        return q

    def _direction(
        self, rf: np.ndarray, kern: GeometryKernels, levels, metrics
    ) -> np.ndarray | None:
        """The network's proposed direction for the residual ``rf`` (flat)."""
        r = kern.scatter(rf)
        top = levels[0]
        q = self._nn_vcycle(r, levels, 0, metrics)
        for _ in range(self.cycles - 1):
            rr = np.where(
                top.fluid, r - apply_laplacian(q, top.solid, deg=top.adiag), 0.0
            )
            q = q + self._nn_vcycle(rr, levels, 0, metrics)
        qf = kern.gather(q)
        return qf if np.all(np.isfinite(qf)) else None

    @staticmethod
    def _orthogonalize(q: np.ndarray, directions) -> np.ndarray:
        """Modified Gram-Schmidt A-orthogonalization against the window."""
        for s, As, sAs in directions:
            q = q - (float(q @ As) / sAs) * s
        return q

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Solve ``A p = b`` on fluid cells; returns mean-zero pressure."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.span(
            f"solve/{self.name}", precision=self.precision, window=self.window
        ) as sp:
            result, nn_steps, safeguard_steps = self._solve(b, solid, metrics)
            if sp is not None:
                sp.attrs["iterations"] = result.iterations
                sp.attrs["converged"] = result.converged
                sp.attrs["nn_steps"] = nn_steps
                sp.attrs["safeguard_steps"] = safeguard_steps
        metrics.inc(f"solver/{self.name}/solves")
        metrics.inc(f"solver/{self.name}/iterations", result.iterations)
        metrics.inc(f"solver/{self.name}/nn_steps", nn_steps)
        metrics.inc(f"solver/{self.name}/safeguard_steps", safeguard_steps)
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

    def _solve(
        self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry
    ) -> tuple[SolveResult, int, int]:
        kern: GeometryKernels = self._kernels_cache.get(
            solid, lambda: GeometryKernels(solid), metrics
        )
        nf = kern.n

        # compatibility projection: remove the per-component null space
        b = remove_nullspace(b, solid)
        bf = kern.gather(b)
        bnorm = float(np.abs(bf).max()) if nf else 0.0
        history = [bnorm]
        if bnorm < _TINY:
            return SolveResult(np.zeros_like(b), 0, True, 0.0, 0.0, history), 0, 0
        tol_abs = self.tol * bnorm

        mic = self._mic_cache.get(solid, lambda: MIC0Preconditioner(solid), metrics)
        apply_m = kern.mic_factor(mic).apply
        levels = self._pyramid_cache.get(
            solid, lambda: _build_pyramid(solid, self.min_level), metrics
        )

        pf = np.zeros(nf)
        rf = bf.copy()
        rnorm = bnorm
        model_flops = sum(
            float(self.model.flops((2,) + lev.solid.shape)) for lev in levels
        ) * (2.0 - (1.0 if len(levels) == 1 else 0.0)) * self.cycles
        flops = 0.0
        it = 0
        converged = False
        nn_steps = 0
        safeguard_steps = 0
        # (direction, A @ direction, direction·A·direction) sliding window;
        # rebuilt every solve so results are history-independent
        directions: list[tuple[np.ndarray, np.ndarray, float]] = []

        for it in range(1, self.max_iterations + 1):
            q = self._direction(rf, kern, levels, metrics)
            used_nn = q is not None
            if used_nn:
                q = self._orthogonalize(q, directions)
                Aq = kern.matvec(q)
                qAq = float(q @ Aq)
                qr = float(q @ rf)
                flops += model_flops
                # degenerate after orthogonalization (vanishing energy norm)
                # or a non-descent direction: the step would stall or move
                # uphill, so fall back to the classic preconditioned one
                used_nn = (
                    np.isfinite(qAq)
                    and np.isfinite(qr)
                    and qAq > _TINY
                    and qr > 0.0
                )
            if not used_nn:
                q = self._orthogonalize(apply_m(rf), directions)
                Aq = kern.matvec(q)
                qAq = float(q @ Aq)
                qr = float(q @ rf)
                safeguard_steps += 1
                if not (np.isfinite(qAq) and qAq > _TINY):
                    it -= 1  # no step was taken
                    break
            else:
                nn_steps += 1

            alpha = qr / qAq
            pf += alpha * q
            rf -= alpha * Aq
            flops += (40.0 + 8.0 * len(directions)) * nf
            directions.append((q, Aq, qAq))
            if len(directions) > self.window:
                directions.pop(0)
            rnorm = float(np.abs(rf).max())
            history.append(rnorm)
            if rnorm <= tol_abs:
                converged = True
                break

        p = remove_nullspace(kern.scatter(pf), solid)
        rnorm = float(np.abs(rf).max())
        result = SolveResult(p, it, converged, rnorm, flops, history)
        return result, nn_steps, safeguard_steps

    # ------------------------------------------------------------------
    def resource_usage(self, shape: tuple[int, int]):
        """Static per-iteration FLOP/parameter/memory profile."""
        from repro.nn import Network, analyze_network

        if isinstance(self.model, Network):
            usage = analyze_network(self.model, (2,) + shape)
        else:
            from repro.nn.accounting import ResourceUsage

            usage = ResourceUsage(
                flops=self.model.flops((2,) + shape),
                params=self.model.param_count(),
                memory_bytes=float(
                    self.model.param_count() * 4 + 3 * shape[0] * shape[1] * 4
                ),
            )
        # pyramid levels shrink 4x per step: the full multiscale stack costs
        # less than 2x the finest level even before the repeat cycles
        usage.flops = 2.0 * self.cycles * usage.flops + (
            40.0 + 8.0 * self.window
        ) * shape[0] * shape[1]
        return usage
