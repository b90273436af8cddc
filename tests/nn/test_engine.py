"""InferencePlan: fp64 matches the legacy forward, fp32 fast path, arena reuse."""

import tracemalloc

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
    ReLU,
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


def mixed_kernels():
    """1×1, 3×3 and 5×5 convs on one grid: the narrower ones read a wider pad."""
    rng = np.random.default_rng(5)
    return Network([
        Conv2d(2, 5, 1, rng=rng), ReLU(),
        Conv2d(5, 4, 5, rng=rng), LeakyReLU(0.2),
        Conv2d(4, 6, 3, rng=rng), Tanh(),
        Conv2d(6, 1, 1, rng=rng),
    ])


def resampled():
    """Convs straight after a pool and an upsample, a residual block, and a
    standalone sigmoid (sigmoid(0) = 0.5 lands on pad cells until re-zeroed)."""
    rng = np.random.default_rng(3)
    return Network([
        Conv2d(2, 4, 3, rng=rng), ReLU(),
        MaxPool2d(2), Conv2d(4, 4, 5, rng=rng), Tanh(),
        Residual([Conv2d(4, 4, 3, rng=rng), ReLU(), Dropout(0.5)]),
        Upsample2d(2), Conv2d(4, 3, 1, rng=rng), ReLU(),
        AvgPool2d(2), Upsample2d(2), Sigmoid(),
        Conv2d(3, 1, 3, rng=rng),
    ])


def wide_and_narrow():
    """8-wide convs, which sum their offsets inside BLAS, between narrower
    ones, which gather them into one GEMM."""
    rng = np.random.default_rng(9)
    return Network([
        Conv2d(2, 8, 3, rng=rng), ReLU(),
        Conv2d(8, 8, 5, rng=rng), LeakyReLU(0.2),
        Conv2d(8, 3, 3, rng=rng), Tanh(),
        Conv2d(3, 9, 3, rng=rng), ReLU(),
        Conv2d(9, 1, 1, rng=rng),
    ])


#: (net, grid) pairs off the square 32² path: odd and non-square grids for the
#: pool-free nets, even ones for the pooled net, and 65×70 and 66×70 split
#: into two GEMM tiles
EDGE_CASES = [
    (mixed_kernels, (24, 40)),
    (mixed_kernels, (33, 17)),
    (mixed_kernels, (65, 70)),
    (resampled, (24, 40)),
    (resampled, (66, 70)),
    (wide_and_narrow, (33, 17)),
    (wide_and_narrow, (65, 70)),
]
EDGE_IDS = [f"{make.__name__}-{h}x{w}" for make, (h, w) in EDGE_CASES]


def sample(seed=0, c=2, h=H, w=None):
    """One ``(1, C, H, W)`` input."""
    return np.random.default_rng(seed).standard_normal((1, c, h, h if w is None else w))


def assert_fp64_matches(got, ref):
    """The fp64 plan contract: legacy output up to summation-order rounding."""
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def assert_fp32_matches(got, ref):
    assert got.dtype == np.float32
    np.testing.assert_allclose(got.astype(np.float64), ref, rtol=0, atol=1e-4)


def test_fp64_plan_is_bitwise_identical_to_legacy_forward(net):
    plan = InferencePlan(net, (2, H, H), dtype=np.float64)
    for seed in range(3):
        x = sample(seed)
        assert_fp64_matches(plan.run(x), net.forward(x, training=False))


def test_fp64_bitwise_holds_for_every_layer_kind(exotic):
    plan = InferencePlan(exotic, (2, H, H))
    for seed in range(2):
        x = sample(seed)
        assert_fp64_matches(plan.run(x), exotic.forward(x, training=False))


def test_fp64_plans_agree_bitwise_across_builds(net):
    """Plan vs plan stays exact: a second build returns the same bits."""
    first = InferencePlan(net, (2, H, H))
    second = InferencePlan(net, (2, H, H))
    for seed in range(11, 15):
        x = sample(seed)
        np.testing.assert_array_equal(first.run(x), second.run(x))


def test_fp32_plan_matches_within_float32_tolerance(net):
    plan = InferencePlan(net, (2, H, H), dtype=np.float32)
    for seed in (5, 6):
        x = sample(seed)
        assert_fp32_matches(plan.run(x), net.forward(x, training=False))


def test_fp32_plan_handles_every_layer_kind(exotic):
    plan = InferencePlan(exotic, (2, H, H), dtype=np.float32)
    for seed in (9, 10):
        x = sample(seed)
        assert_fp32_matches(plan.run(x), exotic.forward(x, training=False))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(("make", "grid"), EDGE_CASES, ids=EDGE_IDS)
def test_odd_grids_and_mixed_layers_match_legacy(make, grid, dtype):
    model = make()
    h, w = grid
    x = sample(2, h=h, w=w)
    out = InferencePlan(model, (2, h, w), dtype=dtype).run(x)
    ref = model.forward(x, training=False)
    assert out.shape == ref.shape
    if dtype == np.float64:
        assert_fp64_matches(out, ref)
    else:
        assert_fp32_matches(out, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(("make", "grid"), EDGE_CASES, ids=EDGE_IDS)
def test_pad_cells_stay_zero_between_runs(make, grid, dtype):
    """A used plan returns exactly what a fresh plan does on the next input."""
    model = make()
    h, w = grid
    used = InferencePlan(model, (2, h, w), dtype=dtype)
    used.run(sample(1, h=h, w=w))
    x2 = sample(2, h=h, w=w)
    fresh = InferencePlan(model, (2, h, w), dtype=dtype)
    np.testing.assert_array_equal(used.run(x2), fresh.run(x2))


def test_residual_add_leaves_the_block_input_alone():
    """A block that computes nothing hands back its own input image."""
    nested = Network([Residual([Residual([Dropout(0.5)])])])
    x = sample(3, h=8)
    out = InferencePlan(nested, (2, 8, 8)).run(x)
    assert_fp64_matches(out, nested.forward(x, training=False))  # 3x, not 4x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_are_cast_once_at_build_not_per_run(net, dtype):
    plan = InferencePlan(net, (2, H, H), dtype=dtype)
    conv_steps = [s for s in plan._steps if hasattr(s, "w_off")]
    assert conv_steps, "the plan should compile conv steps"
    assert all(s.w_off.dtype == dtype for s in conv_steps)
    assert all(s.bias.dtype == dtype for s in conv_steps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_steady_state_allocations(net, dtype):
    """Every run is served from the single pre-allocated arena."""
    x = sample()
    plan = InferencePlan(net, (2, H, H), dtype=dtype)
    assert plan.arena_bytes > 0
    assert all(np.shares_memory(im.flat, plan._arena) for im in plan._images)

    def addresses():
        return [plan._arena.ctypes.data] + [im.flat.ctypes.data for im in plan._images]

    before = addresses()
    for _ in range(5):
        plan.run(x)
    assert plan.runs == 5
    assert plan.workspace_reuses == 5
    assert addresses() == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("model", ["net", "exotic"])
def test_warmed_run_allocates_under_4_kib(request, model, dtype):
    """No activation-sized temporary or NumPy ufunc buffer per forward."""
    plan = InferencePlan(request.getfixturevalue(model), (2, 64, 64), dtype=dtype)
    x = sample(h=64)
    plan.run(x)
    tracemalloc.start()
    try:
        plan.run(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_conv_activation_fusion_collapses_steps(net):
    # tompson_arch(8) is conv+ReLU pairs ending in a bare conv: one step per conv
    convs = sum(isinstance(l, Conv2d) for l in net.layers)
    plan = InferencePlan(net, (2, H, H))
    assert plan.num_steps == convs


def test_run_rejects_wrong_shape(net):
    plan = InferencePlan(net, (2, H, H))
    with pytest.raises(ValueError, match="expected"):
        plan.run(sample(h=H // 2))
    with pytest.raises(ValueError, match="expected"):
        plan.run(np.zeros((2, 2, H, H)))  # plans run one sample


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
    first = plan.run(sample(1))
    kept = first.copy()
    plan.run(sample(2))
    assert not np.array_equal(first, kept)
