"""Tests for individual layers: shapes, semantics and exact gradients."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    Upsample2d,
)

from .gradcheck import check_layer_input_grad, check_layer_param_grads

RNG = np.random.default_rng(0)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(2, 5, kernel=3, rng=0)
        x = RNG.standard_normal((4, 2, 8, 8))
        assert conv.forward(x).shape == (4, 5, 8, 8)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel=4)

    def test_wrong_channels_rejected(self):
        conv = Conv2d(2, 5, rng=0)
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((1, 3, 8, 8)))

    def test_identity_kernel(self):
        conv = Conv2d(1, 1, kernel=3, rng=0)
        conv.weight.value[:] = 0.0
        conv.weight.value[0, 0, 1, 1] = 1.0
        conv.bias.value[:] = 0.0
        x = RNG.standard_normal((2, 1, 6, 6))
        np.testing.assert_allclose(conv.forward(x), x, atol=1e-12)

    def test_translation_equivariance_interior(self):
        conv = Conv2d(1, 3, kernel=3, rng=1)
        x = RNG.standard_normal((1, 1, 12, 12))
        shifted = np.roll(x, 2, axis=3)
        y = conv.forward(x)
        ys = conv.forward(shifted)
        np.testing.assert_allclose(ys[:, :, :, 4:10], np.roll(y, 2, axis=3)[:, :, :, 4:10], atol=1e-12)

    def test_inference_workspace_reused_and_correct(self):
        conv = Conv2d(2, 3, kernel=3, rng=0)
        x1 = RNG.standard_normal((1, 2, 8, 8))
        x2 = RNG.standard_normal((1, 2, 8, 8))
        y_train = conv.forward(x1, training=True)  # allocating reference path
        y1 = conv.forward(x1, training=False)
        np.testing.assert_allclose(y1, y_train, atol=1e-14)
        buf = conv._ws_cols
        assert conv.workspace_reuses == 0
        y2 = conv.forward(x2, training=False)
        assert conv._ws_cols is buf  # same shape -> same buffer
        assert conv.workspace_reuses == 1
        np.testing.assert_allclose(y2, conv.forward(x2, training=True), atol=1e-14)
        # outputs must not alias the workspace: y1 unchanged by the 2nd call
        np.testing.assert_allclose(y1, y_train, atol=1e-14)

    def test_inference_workspace_shape_change_and_reset(self):
        conv = Conv2d(1, 2, kernel=3, rng=0)
        conv.forward(RNG.standard_normal((1, 1, 8, 8)), training=False)
        buf = conv._ws_cols
        conv.forward(RNG.standard_normal((2, 1, 6, 6)), training=False)
        assert conv._ws_cols is not buf  # new shape -> reallocated
        conv.reset_workspace()
        assert conv._ws_cols is None and conv._ws_pad is None

    def test_bias_applied(self):
        conv = Conv2d(1, 2, rng=0)
        conv.weight.value[:] = 0.0
        conv.bias.value[:] = [1.5, -2.0]
        out = conv.forward(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_input_gradient(self):
        conv = Conv2d(2, 3, kernel=3, rng=2)
        x = RNG.standard_normal((2, 2, 5, 5))
        check_layer_input_grad(conv, x)

    def test_param_gradients(self):
        conv = Conv2d(2, 2, kernel=3, rng=3)
        x = RNG.standard_normal((2, 2, 4, 4))
        check_layer_param_grads(conv, x)

    def test_flops_formula(self):
        conv = Conv2d(2, 4, kernel=3, rng=0)
        assert conv.flops((2, 8, 8)) == 2 * 2 * 9 * 4 * 64

    def test_param_count(self):
        conv = Conv2d(2, 4, kernel=3, rng=0)
        assert conv.param_count() == 4 * 2 * 9 + 4

    def test_float32_forward_backward_round_trip_stays_float32(self):
        """Regression: backward allocated its padded gradient as float64,
        silently upcasting float32 training."""
        conv = Conv2d(2, 3, rng=0)
        conv.weight.value = conv.weight.value.astype(np.float32)
        conv.bias.value = conv.bias.value.astype(np.float32)
        x = np.random.default_rng(0).standard_normal((2, 2, 8, 8)).astype(np.float32)
        out = conv.forward(x, training=True)
        assert out.dtype == np.float32
        dx = conv.backward(np.ones_like(out))
        assert dx.dtype == np.float32

    def test_backward_requires_training_forward(self):
        conv = Conv2d(1, 1, rng=0)
        conv.forward(np.zeros((1, 1, 4, 4)), training=False)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4, 4)))


class TestConvWorkspaceCapacity:
    def test_shrinking_batch_reuses_workspace(self):
        conv = Conv2d(2, 4, rng=0)
        x8 = np.random.default_rng(0).standard_normal((8, 2, 12, 12))
        out8 = conv.forward(x8, training=False)
        reuses = conv.workspace_reuses
        out3 = conv.forward(x8[:3], training=False)
        assert conv.workspace_reuses == reuses + 1  # no reallocation
        np.testing.assert_allclose(out3, out8[:3], atol=1e-12)

    def test_growing_batch_reallocates_correctly(self):
        conv = Conv2d(2, 4, rng=0)
        x2 = np.random.default_rng(1).standard_normal((2, 2, 12, 12))
        conv.forward(x2, training=False)
        x5 = np.random.default_rng(2).standard_normal((5, 2, 12, 12))
        out5 = conv.forward(x5, training=False)
        ref = Conv2d(2, 4, rng=0).forward(x5, training=False)
        np.testing.assert_array_equal(out5, ref)


class TestDense:
    def test_affine(self):
        d = Dense(3, 2, rng=0)
        d.weight.value[:] = np.arange(6).reshape(3, 2)
        d.bias.value[:] = [1.0, -1.0]
        out = d.forward(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Dense(3, 2, rng=0).forward(np.zeros((1, 4)))

    def test_input_gradient(self):
        d = Dense(4, 3, rng=1)
        check_layer_input_grad(d, RNG.standard_normal((3, 4)))

    def test_param_gradients(self):
        d = Dense(4, 3, rng=2)
        check_layer_param_grads(d, RNG.standard_normal((3, 4)))

    def test_flops(self):
        assert Dense(4, 3, rng=0).flops((4,)) == 24


class TestFlatten:
    def test_roundtrip(self):
        f = Flatten()
        x = RNG.standard_normal((2, 3, 4, 5))
        out = f.forward(x)
        assert out.shape == (2, 60)
        back = f.backward(out)
        np.testing.assert_array_equal(back, x)

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh])
    def test_gradient(self, layer_cls):
        layer = layer_cls()
        x = RNG.standard_normal((3, 4)) + 0.1  # avoid the ReLU kink at 0
        check_layer_input_grad(layer, x)

    def test_relu_clamps(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_leaky_negative_slope(self):
        out = LeakyReLU(0.1).forward(np.array([[-10.0]]))
        np.testing.assert_allclose(out, [[-1.0]])

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([[-100.0, 0.0, 100.0]]))
        assert out[0, 0] < 1e-20 and out[0, 1] == 0.5 and out[0, 2] > 1 - 1e-12

    def test_sigmoid_overflow_safe(self):
        out = Sigmoid().forward(np.array([[-1e10, 1e10]]))
        assert np.isfinite(out).all()

    def test_tanh_odd(self):
        t = Tanh()
        np.testing.assert_allclose(t.forward(np.array([[1.0]])), -t.forward(np.array([[-1.0]])))


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_shape_check(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))

    def test_maxpool_factor_check(self):
        with pytest.raises(ValueError):
            MaxPool2d(1)

    def test_maxpool_gradient(self):
        # distinct values avoid ties, where the max-gradient is not defined
        x = RNG.permutation(np.arange(64.0)).reshape(1, 1, 8, 8) * 0.1
        check_layer_input_grad(MaxPool2d(2), x)

    def test_maxpool_tie_routes_to_single_position(self):
        x = np.ones((1, 1, 2, 2))
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        g = layer.backward(np.ones((1, 1, 1, 1)))
        assert g.sum() == 1.0  # not duplicated across tied positions

    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradient(self):
        check_layer_input_grad(AvgPool2d(2), RNG.standard_normal((2, 2, 4, 4)))

    def test_upsample_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = Upsample2d(2).forward(x)
        np.testing.assert_array_equal(out[0, 0, :2, :2], 1.0)
        np.testing.assert_array_equal(out[0, 0, 2:, 2:], 4.0)

    def test_upsample_gradient(self):
        check_layer_input_grad(Upsample2d(2), RNG.standard_normal((2, 1, 3, 3)))

    def test_pool_then_upsample_restores_shape(self):
        x = RNG.standard_normal((1, 3, 8, 8))
        y = Upsample2d(2).forward(MaxPool2d(2).forward(x))
        assert y.shape == x.shape

    def test_output_shapes(self):
        assert MaxPool2d(2).output_shape((3, 8, 8)) == (3, 4, 4)
        assert Upsample2d(2).output_shape((3, 4, 4)) == (3, 8, 8)


class TestDropout:
    def test_identity_at_inference(self):
        x = RNG.standard_normal((4, 8))
        np.testing.assert_array_equal(Dropout(0.5, rng=0).forward(x, training=False), x)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_zero_probability_identity_in_training(self):
        x = RNG.standard_normal((4, 8))
        np.testing.assert_array_equal(Dropout(0.0, rng=0).forward(x, training=True), x)

    def test_expected_scale_preserved(self):
        x = np.ones((200, 200))
        out = Dropout(0.3, rng=1).forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_mask_reused_in_backward(self):
        d = Dropout(0.5, rng=2)
        x = np.ones((10, 10))
        out = d.forward(x, training=True)
        g = d.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (g == 0))
