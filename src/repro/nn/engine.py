"""Planned inference: :class:`InferencePlan`.

The legacy inference path (``Network.forward(training=False)``) walks the
layer list, and every layer allocates its own output — plus, for
convolutions, materialises an im2col column buffer and runs three separate
array passes (GEMM, bias add, activation) over per-layer temporaries.
That cost structure is what the paper's surrogate competes against the
exact solver with, and Wandel et al. ("Teaching the Incompressible
Navier-Stokes Equations to Fast Neural Surrogate Models") show fp32
surrogates lose no usable pressure accuracy.

An :class:`InferencePlan` is compiled once per (network, input shape, batch
capacity, dtype) and then runs forward passes with zero steady-state
allocations:

* **workspace arena** — one flat buffer spanning every layer's workspaces
  (conv pad/accumulator buffers, pooling/upsampling outputs, activation
  buffers), carved into views at build time.  Buffers are sized by
  *capacity* along the batch axis, so shrinking batches run through
  leading-axis views of the same memory.
* **shift-and-GEMM convolution** — activations live in NHWC layout
  (channels contiguous) and each 2-D convolution runs as k² small channel
  GEMMs over shifted views of the padded input, accumulated in place.
  This skips the im2col gather entirely, which is latency-bound and
  dominates the legacy forward.
* **fused conv epilogue** — convolution, bias add and the directly
  following activation execute as one GEMM epilogue (in-place bias add,
  in-place activation on the accumulator) instead of three full array
  passes over separate temporaries.

The dtype decides only how weights and inputs are cast: weights **once**
at plan build, inputs on the way into the arena.  ``float64`` sums the
same products as the legacy forward in a different order, so its output
matches to rounding (``max |plan - legacy| <= 1e-12 * max(1, max |legacy|)``)
rather than bit for bit; ``float32`` also halves every GEMM's and copy's
byte traffic and differs from fp64 by float32 rounding, and the caller
casts the pressure back to float64 at the solver boundary.  Two plans of
one network and dtype return bitwise-identical outputs, whatever their
batch capacity or the batch size of a call.

Networks containing layers outside the inference vocabulary (``Dense``,
``Flatten``, custom layers) raise :class:`PlanError` at build time; callers
fall back to the legacy forward.
"""

from __future__ import annotations

import time

import numpy as np

from repro.metrics import get_metrics
from repro.trace import get_tracer

from .activations import LeakyReLU, ReLU, Sigmoid, Tanh
from .conv import Conv2d
from .dropout import Dropout
from .network import Network, Residual
from .pool import AvgPool2d, MaxPool2d, Upsample2d

__all__ = ["PlanError", "InferencePlan"]


class PlanError(ValueError):
    """The model (or input shape) cannot be compiled into a plan."""


class _Slot:
    """One buffer reservation inside the workspace arena."""

    __slots__ = ("shape", "zero", "array")

    def __init__(self, shape: tuple[int, ...], zero: bool = False):
        self.shape = shape
        self.zero = zero
        self.array: np.ndarray | None = None

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


# ---------------------------------------------------------------------------
# in-place activation epilogues (operation sequences mirror the legacy
# activation layers)


def _relu_inplace(a: np.ndarray) -> None:
    np.maximum(a, 0.0, out=a)


def _tanh_inplace(a: np.ndarray) -> None:
    np.tanh(a, out=a)


def _sigmoid_inplace(a: np.ndarray) -> None:
    np.clip(a, -60, 60, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


def _leaky_relu_inplace(slope: float):
    def apply(a: np.ndarray) -> None:
        np.copyto(a, np.where(a > 0, a, slope * a))

    return apply


def _activation_epilogue(layer):
    """The in-place epilogue for an activation layer (None if not one)."""
    if isinstance(layer, ReLU):
        return _relu_inplace
    if isinstance(layer, Tanh):
        return _tanh_inplace
    if isinstance(layer, Sigmoid):
        return _sigmoid_inplace
    if isinstance(layer, LeakyReLU):
        return _leaky_relu_inplace(layer.slope)
    return None


# ---------------------------------------------------------------------------
# compiled steps — ``shape`` is always the logical (C, H, W); buffers are NHWC


class _ConvShiftGemmStep:
    """Convolution: k² shifted channel GEMMs over NHWC activations.

    Skips the im2col gather (the legacy hot spot): each kernel offset is
    one ``(W, C) @ (C, F)`` matmul over a shifted view of the padded input
    — the channel axis is contiguous in NHWC, so every GEMM operand is a
    dense row — accumulated in place into the output buffer.
    """

    def __init__(self, conv: Conv2d, epilogue, in_slot: _Slot, shape, dtype):
        c, h, w = shape
        k = conv.kernel
        pad = k // 2
        f = conv.out_channels
        self.kernel, self.pad, self.out_channels = k, pad, f
        self.h, self.w, self.in_channels = h, w, c
        self.epilogue = epilogue
        # weights cast ONCE at plan build, re-laid-out as one contiguous
        # (C, F) GEMM operand per kernel offset
        self.w_off = np.ascontiguousarray(
            conv.weight.value.transpose(2, 3, 1, 0).astype(dtype)
        )  # (k, k, C, F)
        self.bias = conv.bias.value.astype(dtype)
        self.in_slot = in_slot
        self.pad_slot = _Slot((0, h + 2 * pad, w + 2 * pad, c), zero=True)
        self.tmp_slot = _Slot((0, h, w, f))
        self.out_slot = _Slot((0, h, w, f))

    def slots(self) -> list[_Slot]:
        return [self.pad_slot, self.tmp_slot, self.out_slot]

    def run(self, n: int) -> None:
        k, pad, h, w = self.kernel, self.pad, self.h, self.w
        xp = self.pad_slot.array[:n]
        xp[:, pad : pad + h, pad : pad + w, :] = self.in_slot.array[:n]
        acc = self.out_slot.array[:n]
        tmp = self.tmp_slot.array[:n]
        np.matmul(xp[:, 0:h, 0:w, :], self.w_off[0, 0], out=acc)
        for i in range(k):
            for j in range(k):
                if i == 0 and j == 0:
                    continue
                np.matmul(xp[:, i : i + h, j : j + w, :], self.w_off[i, j], out=tmp)
                acc += tmp
        acc += self.bias
        if self.epilogue is not None:
            self.epilogue(acc)


class _ActivationStep:
    """A standalone activation (not directly after a convolution)."""

    def __init__(self, epilogue, in_slot: _Slot, buf_shape):
        self.epilogue = epilogue
        self.in_slot = in_slot
        self.out_slot = _Slot(buf_shape)

    def slots(self) -> list[_Slot]:
        return [self.out_slot]

    def run(self, n: int) -> None:
        out = self.out_slot.array[:n]
        np.copyto(out, self.in_slot.array[:n])
        self.epilogue(out)


class _PoolStep:
    """Max or average pooling."""

    def __init__(self, factor: int, in_slot: _Slot, shape, op: str):
        c, h, w = shape
        if h % factor or w % factor:
            raise PlanError(f"spatial dims {h}x{w} not divisible by pool factor {factor}")
        self.factor = factor
        self.shape = shape
        self.op = op
        self.in_slot = in_slot
        self.out_slot = _Slot(_buf_shape((c, h // factor, w // factor)))

    def slots(self) -> list[_Slot]:
        return [self.out_slot]

    def run(self, n: int) -> None:
        c, h, w = self.shape
        f = self.factor
        blocks = self.in_slot.array[:n].reshape(n, h // f, f, w // f, f, c)
        if self.op == "max":
            blocks.max(axis=(2, 4), out=self.out_slot.array[:n])
        else:
            blocks.mean(axis=(2, 4), out=self.out_slot.array[:n])


class _UpsampleStep:
    """Nearest-neighbour upsampling."""

    def __init__(self, factor: int, in_slot: _Slot, shape):
        c, h, w = shape
        self.factor = factor
        self.shape = shape
        self.in_slot = in_slot
        self.out_slot = _Slot(_buf_shape((c, h * factor, w * factor)))

    def slots(self) -> list[_Slot]:
        return [self.out_slot]

    def run(self, n: int) -> None:
        c, h, w = self.shape
        f = self.factor
        out6 = self.out_slot.array[:n].reshape(n, h, f, w, f, c)
        out6[...] = self.in_slot.array[:n, :, None, :, None, :]


class _ResidualAddStep:
    """Close a residual block: add the saved block input in place."""

    def __init__(self, block_in: _Slot, out_slot: _Slot):
        self.block_in = block_in
        self.out_slot = out_slot

    def slots(self) -> list[_Slot]:
        return []

    def run(self, n: int) -> None:
        self.out_slot.array[:n] += self.block_in.array[:n]


def _buf_shape(shape: tuple[int, int, int]) -> tuple[int, ...]:
    """NHWC buffer shape (leading batch axis reserved as 0) for (C, H, W)."""
    c, h, w = shape
    return (0, h, w, c)


# ---------------------------------------------------------------------------


class InferencePlan:
    """A network compiled for repeated inference at a fixed shape/capacity.

    Parameters
    ----------
    model:
        The network to compile (a :class:`~repro.nn.Network` or any layer
        tree built from the inference vocabulary: Conv2d, ReLU/LeakyReLU/
        Tanh/Sigmoid, Max/AvgPool2d, Upsample2d, Dropout, Residual).
    input_shape:
        Batch-free input shape ``(C, H, W)``.
    batch_capacity:
        Maximum stacked batch size; calls with fewer samples reuse the same
        arena through leading-axis views.
    dtype:
        ``np.float64`` (matches the legacy forward to rounding) or
        ``np.float32`` (half the byte traffic); weights are cast once
        here.

    Attributes
    ----------
    runs, workspace_reuses:
        Forward passes executed / passes served entirely from the
        pre-allocated arena (equal by construction — the counters exist so
        benchmarks can certify zero steady-state allocations).
    arena_bytes:
        Total size of the workspace arena.
    """

    def __init__(
        self,
        model,
        input_shape: tuple[int, int, int],
        batch_capacity: int = 1,
        dtype=np.float64,
    ):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise PlanError(f"unsupported plan dtype {self.dtype}")
        input_shape = tuple(int(d) for d in input_shape)
        if len(input_shape) != 3:
            raise PlanError(f"input_shape must be (C, H, W), got {input_shape}")
        if batch_capacity < 1:
            raise PlanError("batch_capacity must be >= 1")
        self.input_shape = input_shape
        self.capacity = int(batch_capacity)
        self.runs = 0
        self.workspace_reuses = 0

        compile_started = time.perf_counter()
        with get_tracer().span(
            "nn/plan_compile",
            capacity=self.capacity,
            dtype=str(self.dtype),
        ) as sp:
            self._in_slot = _Slot(_buf_shape(input_shape))
            slots = [self._in_slot]
            self._steps, self._out_slot, self.output_shape = self._compile(
                self._layers_of(model), self._in_slot, input_shape, slots
            )

            # one arena spanning every workspace; buffers are views into it,
            # sized by capacity along the (reserved, leading) batch axis
            for s in slots:
                s.shape = (self.capacity,) + tuple(s.shape[1:])
            total = sum(s.size for s in slots)
            self._arena = np.empty(total, dtype=self.dtype)
            offset = 0
            for s in slots:
                view = self._arena[offset : offset + s.size].reshape(s.shape)
                if s.zero:  # conv pad borders stay zero for the arena's lifetime
                    view[...] = 0
                s.array = view
                offset += s.size
            if sp is not None:
                sp.attrs["arena_bytes"] = int(self._arena.nbytes)
        get_metrics().families.histogram(
            "nn_plan_compile_seconds",
            help="InferencePlan compile (lower + arena allocation) time.",
            labels=("dtype",),
            unit="seconds",
        ).observe(
            time.perf_counter() - compile_started,
            exemplar=sp.span_id if sp is not None else None,
            dtype=self.dtype.name,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _layers_of(model) -> list:
        if isinstance(model, Network):
            return list(model.layers)
        return [model]

    def _compile(self, layers: list, in_slot: _Slot, shape, slots: list[_Slot]):
        """Lower a layer list to steps; returns (steps, out_slot, out_shape)."""
        steps = []
        cur_slot, cur_shape = in_slot, tuple(shape)
        i = 0
        while i < len(layers):
            layer = layers[i]
            step = None
            if isinstance(layer, Conv2d):
                if cur_shape[0] != layer.in_channels:
                    raise PlanError(
                        f"conv expects {layer.in_channels} channels, got {cur_shape}"
                    )
                # fuse a directly following activation into the GEMM epilogue
                epilogue = None
                if i + 1 < len(layers):
                    epilogue = _activation_epilogue(layers[i + 1])
                    if epilogue is not None:
                        i += 1
                step = _ConvShiftGemmStep(layer, epilogue, cur_slot, cur_shape, self.dtype)
                cur_shape = (layer.out_channels,) + cur_shape[1:]
            elif _activation_epilogue(layer) is not None:
                step = _ActivationStep(
                    _activation_epilogue(layer), cur_slot, _buf_shape(cur_shape)
                )
            elif isinstance(layer, MaxPool2d):
                step = _PoolStep(layer.factor, cur_slot, cur_shape, "max")
                cur_shape = (cur_shape[0], cur_shape[1] // layer.factor, cur_shape[2] // layer.factor)
            elif isinstance(layer, AvgPool2d):
                step = _PoolStep(layer.factor, cur_slot, cur_shape, "avg")
                cur_shape = (cur_shape[0], cur_shape[1] // layer.factor, cur_shape[2] // layer.factor)
            elif isinstance(layer, Upsample2d):
                step = _UpsampleStep(layer.factor, cur_slot, cur_shape)
                cur_shape = (cur_shape[0], cur_shape[1] * layer.factor, cur_shape[2] * layer.factor)
            elif isinstance(layer, Dropout):
                pass  # inverted dropout is the identity at inference
            elif isinstance(layer, Residual):
                sub_steps, sub_out, sub_shape = self._compile(
                    layer.layers, cur_slot, cur_shape, slots
                )
                if sub_shape != cur_shape:
                    raise PlanError(
                        f"residual block changed shape {cur_shape} -> {sub_shape}"
                    )
                steps.extend(sub_steps)
                steps.append(_ResidualAddStep(cur_slot, sub_out))
                cur_slot = sub_out
            elif isinstance(layer, Network):
                sub_steps, cur_slot, cur_shape = self._compile(
                    layer.layers, cur_slot, cur_shape, slots
                )
                steps.extend(sub_steps)
            else:
                raise PlanError(
                    f"layer {type(layer).__name__} is outside the inference "
                    "plan vocabulary"
                )
            if step is not None:
                steps.append(step)
                slots.extend(step.slots())
                cur_slot = step.out_slot
            i += 1
        return steps, cur_slot, cur_shape

    # ------------------------------------------------------------------
    @property
    def arena_bytes(self) -> int:
        """Size of the single pre-allocated workspace arena."""
        return int(self._arena.nbytes)

    @property
    def num_steps(self) -> int:
        """Number of compiled execution steps (activations fused away)."""
        return len(self._steps)

    def run(self, x: np.ndarray) -> np.ndarray:
        """One forward pass; returns a ``(n,) + output_shape`` NCHW view.

        The input is cast and transposed to NHWC into the arena on the
        way in.  The returned view is overwritten by the next call, so
        callers must consume (or copy) it before running the plan again.
        """
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected (N,) + {self.input_shape} input, got {x.shape}"
            )
        n = x.shape[0]
        if not 1 <= n <= self.capacity:
            raise ValueError(
                f"batch size {n} outside plan capacity 1..{self.capacity}"
            )
        np.copyto(self._in_slot.array[:n], x.transpose(0, 2, 3, 1))  # casts here
        gemm_started = time.perf_counter()
        for step in self._steps:
            step.run(n)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.families.histogram(
                "nn_gemm_seconds",
                help="Fused-GEMM step-list execution time per plan forward.",
                labels=("dtype",),
                unit="seconds",
            ).observe(time.perf_counter() - gemm_started, dtype=self.dtype.name)
        self.runs += 1
        self.workspace_reuses += 1  # every pass runs entirely in the arena
        return self._out_slot.array[:n].transpose(0, 3, 1, 2)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"InferencePlan({self.input_shape}, capacity={self.capacity}, "
            f"dtype={self.dtype.name}, steps={self.num_steps})"
        )
