"""Adapter exposing a trained network as a pressure solver.

The Poisson solve ``A p = b`` is linear, so two tricks apply:

* **scale equivariance** — the network is trained on unit-variance
  right-hand sides; the adapter normalises ``b`` by its standard deviation
  over fluid cells and rescales the prediction, so one model covers all
  magnitudes;
* **defect correction** — the prediction can be refined by re-applying the
  network to the residual: ``p <- p + NN(b - A p)``.  Each pass costs one
  inference and multiplies the residual by the network's one-shot error
  factor.

The paper's GPU-scale CNNs reach their reported quality in a single
inference; our CPU-scale CNNs use a small number of passes (default 2) to
land in the same quality band — a documented substitution (see DESIGN.md).
The returned pressure is zeroed on solids and mean-centred over fluid,
matching the exact solver's convention.

Hot-path caching: the network input ``(1, 2, H, W)`` is a reused
workspace buffer, and the float view of the geometry channel is cached per
solid mask, so steady-state inference performs no per-call input
allocations.  ``reset()`` drops both.

Inference engine: forward passes run through a compiled
:class:`repro.nn.InferencePlan` (built lazily per input shape, rebuilt
only when the shape changes).  ``precision="fp64"`` (default) compiles a
double-precision plan, whose output matches the legacy layer-by-layer
forward to summation-order rounding (max deviation ``<= 1e-12`` relative
to the output's magnitude) and is bitwise reproducible run to run;
``precision="fp32"`` compiles the single-precision plan — the normalised
residual is cast to float32 on the way into the plan and the predicted
pressure increment is cast back to float64 here at the solver boundary,
so everything downstream (PCG-grade residual accounting, DivNorm
histories, checkpoints) stays double.  Models outside the plan vocabulary
fall back to the legacy forward (counted via
``solver/<name>/plan_unsupported``).
"""

from __future__ import annotations

import numpy as np

from repro.fluid.kernels import GeometryKernels
from repro.fluid.laplacian import remove_nullspace
from repro.fluid.solver_api import MaskKeyedCache, PressureSolver, SolveResult
from repro.metrics import MetricsRegistry, get_metrics
from repro.nn import InferencePlan, Layer, Network, PlanError, analyze_network
from repro.trace import get_tracer

__all__ = ["NNProjectionSolver"]

_PRECISIONS = {"fp32": np.float32, "fp64": np.float64}


class NNProjectionSolver(PressureSolver):
    """Pressure-solver protocol implementation backed by a neural network."""

    def __init__(
        self,
        model: Layer,
        name: str = "nn",
        passes: int = 2,
        metrics: MetricsRegistry | None = None,
        precision: str = "fp64",
    ):
        if passes < 1:
            raise ValueError("passes must be >= 1")
        if precision not in _PRECISIONS:
            raise ValueError(
                f"precision must be one of {sorted(_PRECISIONS)}, got {precision!r}"
            )
        self.model = model
        self.name = name
        self.passes = passes
        self.precision = precision
        self._metrics = metrics
        self._geo_cache = MaskKeyedCache("nn_geometry")
        self._kernels_cache = MaskKeyedCache("kernels")
        self._x: np.ndarray | None = None  # reused (1, 2, H, W) input workspace
        self._plan: InferencePlan | None = None
        self._plan_unsupported = False

    def reset(self) -> None:
        """Drop the cached geometry channel and all workspace buffers."""
        self._geo_cache.clear()
        self._kernels_cache.clear()
        self._x = None
        self._plan = None
        self._plan_unsupported = False
        stack = [self.model]
        while stack:
            layer = stack.pop()
            if hasattr(layer, "reset_workspace"):
                layer.reset_workspace()
            stack.extend(getattr(layer, "layers", []))

    def _ensure_plan(
        self, shape: tuple[int, int], metrics: MetricsRegistry
    ) -> InferencePlan | None:
        """The compiled plan for ``(2,) + shape``, or None.

        Plans are compiled once per input shape; models outside the plan
        vocabulary permanently fall back to the legacy layer-by-layer
        forward (counted, not raised).
        """
        if self._plan_unsupported:
            return None
        if self._plan is not None and self._plan.input_shape == (2,) + shape:
            return self._plan
        try:
            with metrics.span("plan_build", solver=self.name, precision=self.precision):
                self._plan = InferencePlan(
                    self.model, (2,) + shape, dtype=_PRECISIONS[self.precision]
                )
        except PlanError:
            self._plan = None
            self._plan_unsupported = True
            metrics.inc(f"solver/{self.name}/plan_unsupported")
            return None
        metrics.inc(f"solver/{self.name}/plan_builds")
        get_tracer().event(
            "plan_build",
            solver=self.name,
            shape=list(shape),
            precision=self.precision,
        )
        return self._plan

    def _infer(self, x: np.ndarray, metrics: MetricsRegistry) -> np.ndarray:
        """One forward pass through the plan (legacy on fallback)."""
        plan = self._ensure_plan(x.shape[2:], metrics)
        if plan is None:
            return self.model.forward(x, training=False)
        return plan.run(x)

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Approximate the Poisson solution with ``passes`` network inferences."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.span(f"solve/{self.name}"):
            result = self._solve(b, solid, metrics)
        metrics.inc(f"solver/{self.name}/solves")
        metrics.inc(f"solver/{self.name}/inferences", result.iterations)
        return result

    def _solve(
        self, b: np.ndarray, solid: np.ndarray, metrics: MetricsRegistry
    ) -> SolveResult:
        fluid = ~solid
        nf = int(fluid.sum())
        if nf == 0:
            return SolveResult(np.zeros_like(b), 0, True, 0.0)
        shape = b.shape
        if self._x is None or self._x.shape[2:] != shape:
            self._x = np.empty((1, 2) + shape, dtype=np.float64)
        x = self._x
        x[0, 1] = self._geo_cache.get(solid, lambda: solid.astype(np.float64), metrics)
        # defect-correction residuals run through the compiled CSR Laplacian
        # (bitwise equal to apply_laplacian, see repro.fluid.kernels)
        kern = self._kernels_cache.get(solid, lambda: GeometryKernels(solid), metrics)

        B = remove_nullspace(b, solid)
        P = np.zeros_like(b)
        R = B
        done = 0
        for _ in range(self.passes):
            sigma = float(R[fluid].std())
            if not sigma >= 1e-300:  # nothing left to correct (or NaN)
                break
            np.divide(R, sigma, out=x[0, 0])
            dp = self._infer(x, metrics)[0, 0] * sigma
            P = P + np.where(fluid, dp, 0.0)
            lap = kern.scatter(kern.matvec(kern.gather(P)))
            R = remove_nullspace(B - lap, solid)
            done += 1

        p = remove_nullspace(P, solid)
        residual = float(np.abs(R[fluid]).max())
        flops = done * (self.model.flops((2,) + shape) + 12.0 * nf)
        return SolveResult(p, done, True, residual, flops)

    def resource_usage(self, shape: tuple[int, int]):
        """Static FLOP/parameter/memory profile for a given grid shape.

        FLOPs cover all refinement passes of one solve.
        """
        if isinstance(self.model, Network):
            usage = analyze_network(self.model, (2,) + shape)
        else:
            from repro.nn.accounting import ResourceUsage

            usage = ResourceUsage(
                flops=self.model.flops((2,) + shape),
                params=self.model.param_count(),
                memory_bytes=float(self.model.param_count() * 4 + 3 * shape[0] * shape[1] * 4),
            )
        usage.flops = self.passes * (usage.flops + 12.0 * shape[0] * shape[1])
        return usage
