"""InferencePlan: fp64 matches the legacy forward, fp32 fast path, arena reuse."""

import numpy as np
import pytest

from repro.models import tompson_arch
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    InferencePlan,
    LeakyReLU,
    MaxPool2d,
    Network,
    PlanError,
    Residual,
    Sigmoid,
    Tanh,
    Upsample2d,
)

H = 32


@pytest.fixture
def net():
    return tompson_arch(8).build(rng=0)


@pytest.fixture
def exotic():
    rng = np.random.default_rng(7)
    return Network([
        Conv2d(2, 6, 3, rng=rng), LeakyReLU(0.1), MaxPool2d(2),
        Residual([Conv2d(6, 6, 3, rng=rng), Tanh(), Dropout(0.3)]),
        Upsample2d(2), Conv2d(6, 4, 1, rng=rng), Sigmoid(),
        AvgPool2d(2), Conv2d(4, 1, 3, rng=rng),
    ])


def batch(n, c=2, h=H, seed=0):
    return np.random.default_rng(seed).standard_normal((n, c, h, h))


def assert_fp64_matches(got, ref):
    """The fp64 plan contract: legacy output up to summation-order rounding."""
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_fp64_plan_is_bitwise_identical_to_legacy_forward(net):
    x = batch(3)
    plan = InferencePlan(net, (2, H, H), batch_capacity=3, dtype=np.float64)
    assert_fp64_matches(plan.run(x), net.forward(x, training=False))


def test_fp64_bitwise_holds_for_every_layer_kind(exotic):
    x = batch(2)
    plan = InferencePlan(exotic, (2, H, H), batch_capacity=2)
    assert_fp64_matches(plan.run(x), exotic.forward(x, training=False))


def test_shrinking_batches_reuse_the_same_arena_bitwise(net):
    x = batch(4, seed=3)
    plan = InferencePlan(net, (2, H, H), batch_capacity=4)
    for n in (4, 2, 1, 3):
        got = plan.run(x[:n])
        assert_fp64_matches(got, net.forward(x[:n], training=False))
    assert plan.workspace_reuses == 4


def test_fp64_plans_agree_bitwise_across_builds_and_batch_sizes(net):
    """Plan vs plan stays exact: no batch size or build changes a sample."""
    x = batch(4, seed=11)
    first = InferencePlan(net, (2, H, H), batch_capacity=4)
    second = InferencePlan(net, (2, H, H), batch_capacity=4)
    single = InferencePlan(net, (2, H, H), batch_capacity=1)
    alone = [single.run(x[i : i + 1])[0].copy() for i in range(4)]
    for n in (4, 2, 1, 3):
        got = first.run(x[:n]).copy()
        np.testing.assert_array_equal(got, second.run(x[:n]))
        for i in range(n):
            np.testing.assert_array_equal(got[i], alone[i])


def test_fp32_plan_matches_within_float32_tolerance(net):
    x = batch(2, seed=5)
    plan = InferencePlan(net, (2, H, H), batch_capacity=2, dtype=np.float32)
    out = plan.run(x)
    assert out.dtype == np.float32
    ref = net.forward(x, training=False)
    np.testing.assert_allclose(out.astype(np.float64), ref, rtol=0, atol=1e-4)


def test_fp32_plan_handles_every_layer_kind(exotic):
    x = batch(2, seed=9)
    plan = InferencePlan(exotic, (2, H, H), batch_capacity=2, dtype=np.float32)
    ref = exotic.forward(x, training=False)
    np.testing.assert_allclose(plan.run(x).astype(np.float64), ref, rtol=0, atol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_are_cast_once_at_build_not_per_run(net, dtype):
    plan = InferencePlan(net, (2, H, H), dtype=dtype)
    conv_steps = [s for s in plan._steps if hasattr(s, "w_off")]
    assert conv_steps, "the plan should compile shift-GEMM conv steps"
    assert all(s.w_off.dtype == dtype for s in conv_steps)
    assert all(s.bias.dtype == dtype for s in conv_steps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_steady_state_allocations(net, dtype):
    """Every run is served from the single pre-allocated arena."""
    x = batch(1)
    plan = InferencePlan(net, (2, H, H), dtype=dtype)
    assert plan.arena_bytes > 0
    arena_before = plan._arena.__array_interface__["data"][0]
    buffers_before = [s.array.__array_interface__["data"][0]
                      for step in plan._steps for s in step.slots()]
    for _ in range(5):
        plan.run(x)
    assert plan.runs == 5
    assert plan.workspace_reuses == 5
    assert plan._arena.__array_interface__["data"][0] == arena_before
    buffers_after = [s.array.__array_interface__["data"][0]
                     for step in plan._steps for s in step.slots()]
    assert buffers_after == buffers_before


def test_conv_activation_fusion_collapses_steps(net):
    # tompson_arch(8) is conv+ReLU pairs ending in a bare conv: one step per conv
    convs = sum(isinstance(l, Conv2d) for l in net.layers)
    plan = InferencePlan(net, (2, H, H))
    assert plan.num_steps == convs


def test_run_rejects_wrong_shape_and_over_capacity(net):
    plan = InferencePlan(net, (2, H, H), batch_capacity=2)
    with pytest.raises(ValueError, match="expected"):
        plan.run(batch(1, h=H // 2))
    with pytest.raises(ValueError, match="capacity"):
        plan.run(batch(3))


def test_unsupported_layers_raise_plan_error():
    rng = np.random.default_rng(0)
    dense = Network([Flatten(), Dense(8, 2, rng=rng)])
    with pytest.raises(PlanError, match="vocabulary"):
        InferencePlan(dense, (2, 2, 2))
    with pytest.raises(PlanError):
        InferencePlan(tompson_arch(4).build(rng=0), (2, H, H), dtype=np.float16)
    with pytest.raises(PlanError, match="channels"):
        InferencePlan(tompson_arch(4).build(rng=0), (3, H, H))


def test_fp32_output_is_a_view_overwritten_by_next_run(net):
    plan = InferencePlan(net, (2, H, H))
    first = plan.run(batch(1, seed=1))
    kept = first.copy()
    plan.run(batch(1, seed=2))
    assert not np.array_equal(first, kept)
