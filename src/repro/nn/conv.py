"""2-D convolution via im2col.

Stride is fixed at 1 with "same" zero padding — downsampling in this package
is expressed through explicit pooling layers, matching the architecture
vocabulary of the paper's transformation operations.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import Layer, Parameter
from .init import he_init

__all__ = ["Conv2d"]


class Conv2d(Layer):
    """Same-padded stride-1 convolution over NCHW tensors."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3, rng=None):
        if kernel % 2 == 0:
            raise ValueError("Conv2d requires an odd kernel for same padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        fan_in = in_channels * kernel * kernel
        rng = np.random.default_rng(rng)
        self.weight = Parameter(
            he_init(rng, (out_channels, in_channels, kernel, kernel), fan_in), "conv.weight"
        )
        self.bias = Parameter(np.zeros(out_channels), "conv.bias")
        self._cols: np.ndarray | None = None
        self._in_shape: tuple[int, ...] | None = None
        self._ws_pad: np.ndarray | None = None  # inference-only padded-input workspace
        self._ws_cols: np.ndarray | None = None  # inference-only im2col workspace
        self.workspace_reuses = 0

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def reset_workspace(self) -> None:
        """Release the reusable inference buffers."""
        self._ws_pad = None
        self._ws_cols = None

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel
        pad = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (N, C, H, W, k, k)
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(n, h * w, c * k * k)

    def _im2col_inference(self, x: np.ndarray) -> np.ndarray:
        """im2col into reusable workspace buffers (no per-call allocation).

        Only safe outside training: the returned array is overwritten by the
        next call, while the training path must keep its columns alive for
        ``backward``.

        The buffers are sized by *capacity* along the batch axis: a call
        with a smaller batch than a previous one reuses the existing
        allocation through a leading-axis view, so batched callers whose
        batch shrinks over time (e.g. the short final minibatch of an
        evaluation pass) never reallocate.
        """
        n, c, h, w = x.shape
        k = self.kernel
        pad = k // 2
        pshape = (c, h + 2 * pad, w + 2 * pad)
        if (
            self._ws_pad is None
            or self._ws_pad.shape[1:] != pshape
            or self._ws_pad.shape[0] < n
            or self._ws_pad.dtype != x.dtype
        ):
            # border stays zero for the buffer's lifetime ("same" padding)
            self._ws_pad = np.zeros((n,) + pshape, dtype=x.dtype)
            self._ws_cols = np.empty((n, h * w, c * k * k), dtype=x.dtype)
        else:
            self.workspace_reuses += 1
        ws_pad = self._ws_pad[:n]
        ws_cols = self._ws_cols[:n]
        ws_pad[:, :, pad : pad + h, pad : pad + w] = x
        win = sliding_window_view(ws_pad, (k, k), axis=(2, 3))
        np.copyto(ws_cols.reshape(n, h, w, c, k, k), win.transpose(0, 2, 3, 1, 4, 5))
        return ws_cols

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N,{self.in_channels},H,W) input, got {x.shape}"
            )
        n, _, h, w = x.shape
        if training:
            cols = self._im2col(x)
            self._cols = cols
        else:
            cols = self._im2col_inference(x)
            self._cols = None
        self._in_shape = x.shape
        wmat = self.weight.value.reshape(self.out_channels, -1)
        out = cols @ wmat.T + self.bias.value
        return out.transpose(0, 2, 1).reshape(n, self.out_channels, h, w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._in_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._in_shape
        k = self.kernel
        pad = k // 2
        g2 = grad.reshape(n, self.out_channels, h * w).transpose(0, 2, 1)  # (N, HW, F)
        wmat = self.weight.value.reshape(self.out_channels, -1)

        dw = np.einsum("nlf,nlc->fc", g2, self._cols)
        self.weight.grad += dw.reshape(self.weight.value.shape)
        self.bias.grad += g2.sum(axis=(0, 1))

        dcols = g2 @ wmat  # (N, HW, C*k*k)
        dcols = dcols.reshape(n, h, w, c, k, k)
        # grad.dtype, not the float64 default: a float32 training pass must
        # not silently upcast its returned input gradient
        dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=grad.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + h, j : j + w] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return dxp[:, :, pad : pad + h, pad : pad + w]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, h, w = input_shape
        return (self.out_channels, h, w)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        _, h, w = input_shape
        per_pixel = 2.0 * self.in_channels * self.kernel * self.kernel
        return per_pixel * self.out_channels * h * w

    def __repr__(self) -> str:  # pragma: no cover
        return f"Conv2d({self.in_channels}->{self.out_channels}, k={self.kernel})"
