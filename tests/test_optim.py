import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_store

from hyperkkl.errors import ContractViolation
from hyperkkl.optim import AdamState, adam_step, clip_grad_norm, global_norm
from hyperkkl.params import Layout, ParamStore


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
    clip_grad_norm(grads, 1.0)
    assert np.array_equal(grads.data, before)


def test_clip_rescales():
    grads = make_store([("g", np.array([3.0, 4.0]))])
    clip_grad_norm(grads, 1.0)
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
    assert global_norm(grads) <= max_norm + 1e-12 or global_norm(grads) <= max_norm * (1 + 1e-12)


def test_clip_contract():
    grads = make_store([("g", np.ones(2))])
    with pytest.raises(ContractViolation):
        clip_grad_norm(grads, 0.0)
