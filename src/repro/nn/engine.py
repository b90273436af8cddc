"""Planned inference: :class:`InferencePlan`.

The legacy inference path (``Network.forward(training=False)``) walks the
layer list, and every layer allocates its own output — plus, for
convolutions, materialises an im2col column buffer and runs three separate
array passes (GEMM, bias add, activation) over per-layer temporaries.
That cost structure is what the paper's surrogate competes against the
exact solver with, and Wandel et al. ("Teaching the Incompressible
Navier-Stokes Equations to Fast Neural Surrogate Models") show fp32
surrogates lose no usable pressure accuracy.

An :class:`InferencePlan` is compiled once per (network, input shape,
dtype) for one ``(1, C, H, W)`` sample and then runs forward passes with
no steady-state allocation:

* **flat padded rows** — every activation is a zero-padded NHWC image
  stored as one flat ``(rows, C)`` matrix, carved out of a single
  workspace arena at build time.  All images of one spatial resolution
  share one pad (the widest ``k // 2`` among the convolutions reading
  it) and so one padded row stride ``S``.
* **one GEMM per kernel offset** — output cell ``(y, x)`` is flat row
  ``y·S + x``, and its input under kernel offset ``(i, j)`` is that row
  shifted by a constant, so each offset is one contiguous row slice and
  one 2-D ``(rows, C) @ (C, F)`` GEMM.  The rows run in tiles of at most
  ``_TILE_ROWS`` (4096), which keeps one tile's input slab and
  accumulator in a core's 2 MiB L2: an untiled fp64 pass over 16,638
  rows at 128² has a ≈ 2 MB working set per layer, and its forward took
  8.6 ms against 5.1 ms tiled.
* **chained buffers** — a conv writes its output rows straight into the
  next layer's padded image.  The ``2·pad`` rows per image row that fall
  on pad cells compute garbage and are re-zeroed, so every image's pads
  read zero again before the next layer runs.
* **bias-first accumulation** — each tile's accumulator starts as a copy
  of a prebuilt bias tile (a plain copy needs no NumPy ufunc buffer, a
  broadcast ``acc += bias`` takes up to 64 KiB per call).  ``float64``
  adds the k² products inside BLAS: SciPy's ``dgemm`` with ``beta=1``
  writes in place into the tile's Fortran-order transpose.  Its f2py
  wrapper holds the GIL for the call (``np.matmul`` releases it), so
  other Python threads wait while a thread runs fp64 forwards.
  ``float32`` keeps ``matmul`` into a scratch tile plus an in-place add,
  because OpenBLAS's ``sgemm`` took 2.3–2.8× as long with ``beta=1`` as
  with ``beta=0`` at 1–4k rows.  A directly following activation runs in
  place on the finished tile.
* **narrow fp64 convs gather** — below 8 output channels
  (:data:`_BLAS_MIN_CHANNELS`) OpenBLAS's ``dgemm`` runs 3.4–4.7× slower
  with ``beta=1`` than with ``beta=0``, so such a conv copies its k²
  shifted slices into one ``(k²·C, rows)`` scratch tile, one row per
  offset and input channel, runs one ``beta=0`` ``dgemm`` straight into
  the accumulator and then adds the same-shape bias tile (no ufunc
  buffer): 3 NumPy/BLAS calls per tile instead of k² + 1.  A 4-channel Tompson
  forward took 0.19 → 0.068 ms at 16² and 9.6 → 3.3 ms at 128²; in a
  wider net only the final 1×1 output conv takes this path.

Forward times of an 8-channel Tompson net (Intel Xeon with AVX-512, 1
BLAS thread), the per-image-row convolution this layout replaced → this
one; DESIGN.md ("Inference engine") has the method and more numbers:

=====  =============  =============
grid   fp64 ms        fp32 ms
=====  =============  =============
8²     0.31 → 0.09    0.31 → 0.19
16²    0.48 → 0.15    0.45 → 0.29
32²    0.93 → 0.40    0.77 → 0.48
64²    2.87 → 1.54    2.30 → 1.76
128²   14.2 → 6.4     7.9 → 6.7
=====  =============  =============

The dtype decides how weights and inputs are cast (weights **once** at
plan build, inputs on the way into the arena) and which accumulation the
conv runs.  ``float64`` sums the same products as the legacy forward in a
different order, so its output matches to rounding
(``max |plan - legacy| <= 1e-12 * max(1, max |legacy|)``) rather than bit
for bit; ``float32`` differs from fp64 by float32 rounding, and the
caller casts the pressure back to float64 at the solver boundary.  Two
plans of one network, shape and dtype return bitwise-identical outputs.

Networks containing layers outside the inference vocabulary (``Dense``,
``Flatten``, custom layers) raise :class:`PlanError` at build time; callers
fall back to the legacy forward.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemm

from repro.metrics import get_metrics

from .activations import LeakyReLU, ReLU, Sigmoid, Tanh
from .conv import Conv2d
from .dropout import Dropout
from .network import Network, Residual
from .pool import AvgPool2d, MaxPool2d, Upsample2d

__all__ = ["PlanError", "InferencePlan"]

#: Most rows per conv GEMM tile; a conv's rows split into equal tiles.
_TILE_ROWS = 4096

#: Fewest output channels an fp64 conv sums inside BLAS, one ``beta=1``
#: ``dgemm`` per kernel offset.  Below it OpenBLAS's ``dgemm`` took 3.4–4.7×
#: as long with ``beta=1`` as with ``beta=0`` (286 and 4,222 rows, 1–7
#: outputs; level at 8 and more), so a narrower conv gathers its k² shifted
#: slices into one tile and runs one ``beta=0`` GEMM, then adds the bias.
_BLAS_MIN_CHANNELS = 8


class PlanError(ValueError):
    """The model (or input shape) cannot be compiled into a plan."""


# ---------------------------------------------------------------------------
# the activation layout


class _Grid:
    """One spatial resolution; its images share one pad and row stride."""

    __slots__ = ("h", "w", "pad")

    def __init__(self, h: int, w: int):
        self.h, self.w, self.pad = h, w, 0

    @property
    def stride(self) -> int:
        """Cells per padded image row."""
        return self.w + 2 * self.pad

    @property
    def span_rows(self) -> int:
        """Flat rows from the first interior cell to the last."""
        return self.h * self.stride - 2 * self.pad


class _Image:
    """A zero-padded NHWC activation stored as one flat ``(rows, C)`` matrix.

    Views, set by :meth:`bind` once the grid's pad is final:

    * ``flat`` — the whole padded image, one row per cell;
    * ``interior`` — the logical ``(H, W, C)`` image;
    * ``span`` — the contiguous rows from the first interior cell to the
      last, which a conv computes in one sweep;
    * ``gaps`` — the pad cells inside ``span`` (``2·pad`` after every
      image row but the last), re-zeroed after a whole-span write.
    """

    def __init__(self, grid: _Grid, channels: int):
        self.grid, self.channels = grid, channels

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.grid.h, self.grid.w)

    @property
    def size(self) -> int:
        g = self.grid
        return (g.h + 2 * g.pad) * g.stride * self.channels

    def bind(self, memory: np.ndarray) -> None:
        g, c = self.grid, self.channels
        p, s = g.pad, g.stride
        self.flat = memory.reshape(-1, c)
        self.interior = self.flat.reshape(g.h + 2 * p, s, c)[p : p + g.h, p : p + g.w]
        start = p * s + p
        self.span = self.flat[start : start + g.span_rows]
        gap_rows = self.flat[start + g.w : start + g.w + (g.h - 1) * s]
        self.gaps = gap_rows.reshape(g.h - 1, s, c)[:, : 2 * p]


# ---------------------------------------------------------------------------
# in-place activation epilogues ``f(a, tmp)``: ``tmp`` is same-shape scratch
# (operation sequences mirror the legacy activation layers)


def _relu_inplace(a: np.ndarray, tmp: np.ndarray) -> None:
    np.maximum(a, 0.0, out=a)


def _tanh_inplace(a: np.ndarray, tmp: np.ndarray) -> None:
    np.tanh(a, out=a)


def _sigmoid_inplace(a: np.ndarray, tmp: np.ndarray) -> None:
    np.clip(a, -60, 60, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


def _leaky_relu_inplace(slope: float):
    # where(a > 0, a, slope·a) is max(a, slope·a) for slope <= 1 and the min
    # above, exactly; np.where would build activation-sized temporaries
    pick = np.maximum if slope <= 1 else np.minimum

    def apply(a: np.ndarray, tmp: np.ndarray) -> None:
        np.multiply(a, slope, out=tmp)
        pick(a, tmp, out=a)

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
# compiled steps: built over images, bound to arena views, then run


class _Step:
    """A compiled step; ``bind`` gets the plan's shared scratch once."""

    def scratch_size(self) -> int:
        return 0

    def bind(self, scratch: np.ndarray) -> None:
        pass


class _ConvStep(_Step):
    """Convolution: one GEMM per kernel offset over flat padded rows.

    Output row ``r = y·S + x`` of the destination span reads source row
    ``r + (pad_grid - pad + i)·S + (pad_grid - pad + j)`` under offset
    ``(i, j)``, so each offset is one contiguous slice of the source.

    An fp64 conv with fewer than :data:`_BLAS_MIN_CHANNELS` outputs instead
    gathers the k² slices into one ``(k²·C, rows)`` tile and runs one GEMM
    on it (see :data:`_BLAS_MIN_CHANNELS`).
    """

    def __init__(self, conv: Conv2d, epilogue, src: _Image, dst: _Image, dtype):
        self.kernel, self.pad = conv.kernel, conv.kernel // 2
        self.epilogue = epilogue
        self.src, self.dst = src, dst
        # weights cast ONCE at plan build, re-laid-out as one contiguous
        # (C, F) GEMM operand per kernel offset
        self.w_off = np.ascontiguousarray(
            conv.weight.value.transpose(2, 3, 1, 0).astype(dtype)
        )  # (k, k, C, F)
        self.bias = conv.bias.value.astype(dtype)
        fp64 = np.dtype(dtype) == np.float64
        self.blas = fp64 and dst.channels >= _BLAS_MIN_CHANNELS
        self.gather = fp64 and not self.blas

    def _tile_rows(self) -> int:
        rows = self.dst.grid.span_rows
        n_tiles = -(-rows // _TILE_ROWS)
        return -(-rows // n_tiles)

    def scratch_size(self) -> int:
        cols = self.kernel**2 * self.src.channels if self.gather else 0
        return self._tile_rows() * (self.dst.channels + cols)

    def bind(self, scratch: np.ndarray) -> None:
        k, f = self.kernel, self.dst.channels
        g = self.src.grid
        s, lead = g.stride, g.pad - self.pad
        shifts = [(lead + i) * s + lead + j for i in range(k) for j in range(k)]
        weights = list(self.w_off.reshape(k * k, -1, f))
        tile = self._tile_rows()
        bias_tile = np.broadcast_to(self.bias, (tile, f)).copy()
        self._tiles = []
        for r0 in range(0, g.span_rows, tile):
            acc = self.dst.span[r0 : r0 + tile]
            m = len(acc)
            xs = [self.src.flat[r0 + d : r0 + d + m] for d in shifts]
            tmp = scratch[: m * f].reshape(m, f)
            gather = None
            if self.gather:
                # the (k, k, C, m) window holds, per kernel offset (in the
                # order of ``w_off``) and input channel, the m source rows the
                # tile reads; copied into one C-order tile it is X.T, and
                # acc = X @ W is one GEMM
                row, item = xs[0].strides
                window = as_strided(
                    xs[0],
                    shape=(k, k, self.src.channels, m),
                    strides=(s * row, row, item, row),
                    writeable=False,
                )
                cols = scratch[m * f : m * f + window.size].reshape(window.shape)
                gather = (cols, window)
                c = acc.T
                # b is the Fortran-order X, passed with trans_b=1
                operands = [(self.w_off.reshape(-1, f).T, cols.reshape(-1, m).T)]
                probe = dgemm(0.0, *operands[0], 1.0, c, 0, 1, 1)
            elif self.blas:
                # the C-order (m, F) tile is a Fortran-order (F, m) matrix c,
                # and c += W.T @ X.T is acc += X @ W
                c = acc.T
                operands = [(w.T, x.T) for w, x in zip(weights, xs)]
                probe = dgemm(0.0, *operands[0], 1.0, c, overwrite_c=1)
            else:
                c = None
                operands = list(zip(weights, xs))
            # f2py hands back a copy of a ``c`` it cannot write in place
            if c is not None and probe is not c:
                raise PlanError("dgemm would accumulate into a copy of the tile")
            self._tiles.append((acc, bias_tile[:m], c, operands, tmp, gather))

    def run(self) -> None:
        for acc, bias, c, operands, tmp, gather in self._tiles:
            if gather is not None:
                np.copyto(*gather)
                wt, x = operands[0]
                dgemm(1.0, wt, x, 0.0, c, 0, 1, 1)  # beta=0 overwrites acc
                acc += bias
            else:
                np.copyto(acc, bias)
                if c is not None:
                    for wt, xt in operands:  # positional overwrite_c=1 parses faster
                        dgemm(1.0, wt, xt, 1.0, c, 0, 0, 1)
                else:
                    for w, x in operands:
                        np.matmul(x, w, out=tmp)
                        acc += tmp
            if self.epilogue is not None:
                self.epilogue(acc, tmp)
        self.dst.gaps.fill(0)


class _ActivationStep(_Step):
    """A standalone activation (not directly after a convolution)."""

    def __init__(self, epilogue, src: _Image, dst: _Image):
        self.epilogue = epilogue
        self.src, self.dst = src, dst

    def scratch_size(self) -> int:
        return self.dst.grid.span_rows * self.dst.channels

    def bind(self, scratch: np.ndarray) -> None:
        self._tmp = scratch[: self.dst.span.size].reshape(self.dst.span.shape)

    def run(self) -> None:
        np.copyto(self.dst.span, self.src.span)
        self.epilogue(self.dst.span, self._tmp)
        self.dst.gaps.fill(0)  # e.g. sigmoid(0) = 0.5


class _PoolStep(_Step):
    """Max or average pooling, interior to interior."""

    def __init__(self, factor: int, src: _Image, dst: _Image, op: str):
        self.factor, self.op = factor, op
        self.src, self.dst = src, dst

    def bind(self, scratch: np.ndarray) -> None:
        c, h, w = self.src.shape
        f = self.factor
        self._blocks = self.src.interior.reshape(h // f, f, w // f, f, c)

    def run(self) -> None:
        if self.op == "max":
            np.maximum.reduce(self._blocks, axis=(1, 3), out=self.dst.interior)
        else:
            np.add.reduce(self._blocks, axis=(1, 3), out=self.dst.interior)
            # the span's pad cells are zero and stay zero
            np.divide(self.dst.span, self.factor**2, out=self.dst.span)


class _UpsampleStep(_Step):
    """Nearest-neighbour upsampling, interior to interior."""

    def __init__(self, factor: int, src: _Image, dst: _Image):
        self.factor = factor
        self.src, self.dst = src, dst

    def bind(self, scratch: np.ndarray) -> None:
        c, h, w = self.src.shape
        f = self.factor
        self._out = self.dst.interior.reshape(h, f, w, f, c)
        self._in = self.src.interior[:, None, :, None, :]

    def run(self) -> None:
        self._out[...] = self._in


class _ResidualAddStep(_Step):
    """Close a residual block: block input + block output, out of place.

    Out of place because a block that computes nothing (only Dropout)
    returns its own input image.
    """

    def __init__(self, block_in: _Image, block_out: _Image, dst: _Image):
        self.block_in, self.block_out, self.dst = block_in, block_out, dst

    def run(self) -> None:
        # one grid, one layout: the pad cells inside the spans add 0 + 0
        np.add(self.block_in.span, self.block_out.span, out=self.dst.span)


# ---------------------------------------------------------------------------


class InferencePlan:
    """A network compiled for repeated single-sample inference at one shape.

    Parameters
    ----------
    model:
        The network to compile (a :class:`~repro.nn.Network` or any layer
        tree built from the inference vocabulary: Conv2d, ReLU/LeakyReLU/
        Tanh/Sigmoid, Max/AvgPool2d, Upsample2d, Dropout, Residual).
    input_shape:
        Batch-free input shape ``(C, H, W)``; :meth:`run` takes one
        ``(1, C, H, W)`` sample.
    dtype:
        ``np.float64`` (matches the legacy forward to rounding, BLAS-side
        accumulation) or ``np.float32`` (half the byte traffic); weights
        are cast once here.

    Attributes
    ----------
    runs, workspace_reuses:
        Forward passes executed / passes served entirely from the
        pre-allocated arena (equal by construction — the counters exist so
        benchmarks can certify zero steady-state allocations).
    arena_bytes:
        Total size of the workspace arena.
    """

    def __init__(self, model, input_shape: tuple[int, int, int], dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise PlanError(f"unsupported plan dtype {self.dtype}")
        input_shape = tuple(int(d) for d in input_shape)
        if len(input_shape) != 3:
            raise PlanError(f"input_shape must be (C, H, W), got {input_shape}")
        self.input_shape = input_shape
        self.runs = 0
        self.workspace_reuses = 0

        with get_metrics().span("nn/plan_compile", dtype=str(self.dtype)) as sp:
            self._grids: dict[tuple[int, int], _Grid] = {}
            self._images: list[_Image] = []
            c, h, w = input_shape
            self._input = self._image(self._grid(h, w), c)
            self._steps, self._output = self._compile(self._layers_of(model), self._input)
            self.output_shape = self._output.shape

            # one zeroed arena: every image, then the steps' shared scratch;
            # the grids' pads are final now that every conv is compiled
            scratch = max((step.scratch_size() for step in self._steps), default=0)
            sizes = [im.size for im in self._images]
            self._arena = np.zeros(sum(sizes) + scratch, dtype=self.dtype)
            offset = 0
            for im, size in zip(self._images, sizes):
                im.bind(self._arena[offset : offset + size])
                offset += size
            for step in self._steps:
                step.bind(self._arena[offset:])
            self._result = self._output.interior[None].transpose(0, 3, 1, 2)
            if sp is not None:
                sp.attrs["arena_bytes"] = int(self._arena.nbytes)

    # ------------------------------------------------------------------
    @staticmethod
    def _layers_of(model) -> list:
        if isinstance(model, Network):
            return list(model.layers)
        return [model]

    def _grid(self, h: int, w: int) -> _Grid:
        return self._grids.setdefault((h, w), _Grid(h, w))

    def _image(self, grid: _Grid, channels: int) -> _Image:
        im = _Image(grid, channels)
        self._images.append(im)
        return im

    def _compile(self, layers: list, cur: _Image):
        """Lower a layer list to steps; returns (steps, output image)."""
        steps = []
        i = 0
        while i < len(layers):
            layer = layers[i]
            c, h, w = cur.shape
            step = None
            if isinstance(layer, Conv2d):
                if c != layer.in_channels:
                    raise PlanError(
                        f"conv expects {layer.in_channels} channels, got {cur.shape}"
                    )
                # fuse a directly following activation into the GEMM epilogue
                epilogue = None
                if i + 1 < len(layers):
                    epilogue = _activation_epilogue(layers[i + 1])
                    if epilogue is not None:
                        i += 1
                cur.grid.pad = max(cur.grid.pad, layer.kernel // 2)
                step = _ConvStep(
                    layer, epilogue, cur, self._image(cur.grid, layer.out_channels), self.dtype
                )
            elif _activation_epilogue(layer) is not None:
                step = _ActivationStep(
                    _activation_epilogue(layer), cur, self._image(cur.grid, c)
                )
            elif isinstance(layer, (MaxPool2d, AvgPool2d)):
                f = layer.factor
                if h % f or w % f:
                    raise PlanError(f"spatial dims {h}x{w} not divisible by pool factor {f}")
                op = "max" if isinstance(layer, MaxPool2d) else "avg"
                step = _PoolStep(f, cur, self._image(self._grid(h // f, w // f), c), op)
            elif isinstance(layer, Upsample2d):
                f = layer.factor
                step = _UpsampleStep(f, cur, self._image(self._grid(h * f, w * f), c))
            elif isinstance(layer, Dropout):
                pass  # inverted dropout is the identity at inference
            elif isinstance(layer, Residual):
                sub_steps, sub_out = self._compile(layer.layers, cur)
                if sub_out.shape != cur.shape:
                    raise PlanError(
                        f"residual block changed shape {cur.shape} -> {sub_out.shape}"
                    )
                steps.extend(sub_steps)
                step = _ResidualAddStep(cur, sub_out, self._image(cur.grid, c))
            elif isinstance(layer, Network):
                sub_steps, cur = self._compile(layer.layers, cur)
                steps.extend(sub_steps)
            else:
                raise PlanError(
                    f"layer {type(layer).__name__} is outside the inference "
                    "plan vocabulary"
                )
            if step is not None:
                steps.append(step)
                cur = step.dst
            i += 1
        return steps, cur

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
        """One forward pass; returns a ``(1,) + output_shape`` NCHW view.

        The input is cast and transposed to NHWC into the arena on the
        way in.  The returned view is overwritten by the next call, so
        callers must consume (or copy) it before running the plan again.
        """
        x = np.asarray(x)
        if x.shape != (1,) + self.input_shape:
            raise ValueError(f"expected (1,) + {self.input_shape} input, got {x.shape}")
        np.copyto(self._input.interior, x[0].transpose(1, 2, 0))  # casts here
        for step in self._steps:
            step.run()
        self.runs += 1
        self.workspace_reuses += 1  # every pass runs entirely in the arena
        return self._result

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"InferencePlan({self.input_shape}, dtype={self.dtype.name}, "
            f"steps={self.num_steps})"
        )
