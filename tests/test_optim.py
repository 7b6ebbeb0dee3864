import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_store

from hyperkkl.errors import ContractViolation, NumericError
from hyperkkl.optim import (
    ADAM_BLOCK,
    AdamState,
    adam_step,
    clip_grad_norm,
)
from hyperkkl.params import Layout, ParamStore


def whole_norm(grads):
    """The L2 norm in one numpy pass over the whole vector (the oracle)."""
    return float(np.sqrt(np.sum(grads.data * grads.data)))


def test_zero_gradient_leaves_params_unchanged():
    params = make_store([("w", np.array([1.0, -2.0, 0.5]))])
    before = params.data.copy()
    state = AdamState.for_params(params)
    adam_step(state, params, ParamStore(params.layout), lr=0.1)
    assert np.array_equal(params.data, before)
    assert state.step == 1


def test_hand_evaluated_first_step():
    params = make_store([("p", np.array(0.0))])
    grads = make_store([("p", np.array(1.0))])
    state = AdamState.for_params(params)
    adam_step(state, params, grads, lr=0.1)
    # bias-corrected first step moves by -lr * g/|g| regardless of magnitude
    assert params.data[0] == pytest.approx(-0.1, abs=1e-8)


def test_convergence_on_quadratic():
    params = make_store([("p", np.array(1.0))])
    state = AdamState.for_params(params)
    for _ in range(500):
        grads = ParamStore(params.layout, params.data.copy())  # d(p^2/2) = p
        adam_step(state, params, grads, lr=0.05)
        if abs(params.data[0]) < 1e-3:
            break
    assert abs(params.data[0]) < 1e-3


def test_layout_mismatch():
    params = make_store([("w", np.ones(2))])
    other = make_store([("v", np.ones(2))])
    state = AdamState.for_params(params)
    with pytest.raises(ContractViolation):
        adam_step(state, params, other)


def test_clip_below_threshold_unchanged():
    grads = make_store([("g", np.array([0.3, 0.4]))])
    before = grads.data.copy()
    assert clip_grad_norm(grads, 1.0) == 0.5
    assert np.array_equal(grads.data, before)


def test_clip_rescales():
    grads = make_store([("g", np.array([3.0, 4.0]))])
    assert clip_grad_norm(grads, 1.0) == 5.0  # the norm before clipping
    assert np.allclose(grads.data, [0.6, 0.8])


@given(
    arrays(np.float64, st.integers(1, 16),
           elements=st.floats(-1e6, 1e6, allow_nan=False)),
    st.floats(0.01, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_clip_postcondition(values, max_norm):
    grads = ParamStore(Layout([("g", values.shape)]), values.copy())
    clip_grad_norm(grads, max_norm)
    assert whole_norm(grads) <= max_norm + 1e-12 or whole_norm(grads) <= max_norm * (1 + 1e-12)


def test_clip_contract():
    grads = make_store([("g", np.ones(2))])
    with pytest.raises(ContractViolation):
        clip_grad_norm(grads, 0.0)


def oracle_adam_step(state, params, grads, lr=1e-3, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    """The out-of-place update, whole-vector temporaries and all."""
    state.step += 1
    g = grads.data
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = state.m / (1.0 - beta1**state.step)
    v_hat = state.v / (1.0 - beta2**state.step)
    params.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_blockwise_step_bitwise_equals_out_of_place_oracle():
    n = 2 * ADAM_BLOCK + 12345  # a partial last block
    rng = np.random.default_rng(11)
    layout = Layout([("w", (n,))])
    params = ParamStore(layout, rng.normal(size=n))
    expect = params.copy()
    state, oracle = AdamState.for_params(params), AdamState.for_params(expect)
    for _ in range(5):
        scale = 10.0 ** rng.integers(-8, 3, n)
        grads = ParamStore(layout, rng.normal(size=n) * scale)
        adam_step(state, params, grads, lr=0.01)
        oracle_adam_step(oracle, expect, grads, lr=0.01)
        assert np.array_equal(params.data, expect.data)
        assert np.array_equal(state.m, oracle.m)
        assert np.array_equal(state.v, oracle.v)
    assert state.step == oracle.step == 5


def test_step_adds_at_most_one_vector_of_transient_memory():
    # the norm and Adam both walk ADAM_BLOCK slices, so every temporary is
    # block-sized, and nothing outlives the step
    n = 1 << 20
    rng = np.random.default_rng(12)
    params = ParamStore(Layout([("w", (n,))]), rng.normal(size=n))
    state = AdamState.for_params(params)
    state.grad.data[:] = rng.normal(size=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clip_grad_norm(state.grad, 1.0)
        adam_step(state, params, state.grad)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 8 * ADAM_BLOCK * 8
    assert current - base <= 64 * 1024


@pytest.mark.parametrize("n", [1, 7, 1000, ADAM_BLOCK - 1, ADAM_BLOCK])
def test_norm_of_one_block_is_the_whole_vector_norm_bitwise(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 4, n)
    grads = ParamStore(Layout([("g", (n,))]), values)
    assert clip_grad_norm(grads, 1e300) == whole_norm(grads)


def test_norm_sums_the_blocks_in_order():
    n = 3 * ADAM_BLOCK + 1234  # a partial last block
    rng = np.random.default_rng(13)
    grads = ParamStore(Layout([("g", (n,))]), rng.normal(size=n))
    g = grads.data
    total = 0.0
    for lo in range(0, n, ADAM_BLOCK):
        total += np.sum(g[lo:lo + ADAM_BLOCK] ** 2)
    norm = clip_grad_norm(grads, 1e300)
    assert norm == float(np.sqrt(total))
    assert norm == pytest.approx(np.linalg.norm(g), rel=1e-13)


def test_clip_holds_one_block_of_temporaries():
    n = 10 * ADAM_BLOCK
    grads = ParamStore(Layout([("g", (n,))]),
                       np.random.default_rng(14).normal(size=n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clip_grad_norm(grads, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * ADAM_BLOCK * 8


def test_for_params_allocates_the_gradient_buffer():
    params = make_store([("w", np.ones((2, 3))), ("b", np.ones(2))])
    state = AdamState.for_params(params)
    assert state.grad.layout == params.layout
    assert np.all(state.grad.data == 0.0)
    assert not np.shares_memory(state.grad.data, params.data)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_refuses_a_non_finite_gradient(bad):
    grads = make_store([("g", np.array([0.1, bad, 0.2]))])
    with pytest.raises(NumericError, match="gradient norm is non-finite"):
        clip_grad_norm(grads, 1.0)
