import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import copy_store, make_store

from hyperkkl.autodiff import AddInto, FactoredGrad
from hyperkkl.errors import ContractViolation, NumericError
from hyperkkl.nets import IN_BLOCK, u_grad_chunks
from hyperkkl.optim import (
    ADAM_BLOCK,
    AdamState,
    adam_step,
    clip_factor,
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
    expect = copy_store(params)
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


def factored_case(seed, n_out=5, n_in=2 * IN_BLOCK + 3, rank=3):
    """A layout with a readout U between two dense slices; U's rows
    [2, 2 + n_out·n_in) get three factored terms, the rows around them
    none. Returns params, the dense gradient store, the factored one and
    the FactoredGrad, with U's dense gradient formed from the same terms."""
    rng = np.random.default_rng(seed)
    rows = 2 + n_out * n_in + 3
    layout = Layout([("a", (7,)), ("U", (rows, rank)), ("b", (4,))])
    params = ParamStore(layout, rng.normal(size=layout.total))
    dense = ParamStore(layout)
    dense.set("a", rng.normal(size=7))
    dense.set("b", rng.normal(size=4))
    fg = FactoredGrad(rows)
    block = fg.narrow(2, n_out * n_in)
    u_grad = dense.get("U")[2:2 + n_out * n_in].reshape(n_out, -1)
    terms = [(rng.normal(size=(m, n_out)), rng.normal(size=(m, n_in)),
              rng.normal(size=(m, rank))) for m in (4, 9, 4)]
    for factors in terms:
        block.append(AddInto(None, factors))
    for cols, chunk in u_grad_chunks(terms):
        u_grad[:, cols] = chunk
    compact = ParamStore(layout.without(("U",)))
    for name in ("a", "b"):
        compact.set(name, dense.get(name))
    return params, dense, compact, fg


def test_factored_step_is_the_dense_step_bitwise_without_a_clip():
    params, dense, compact, fg = factored_case(50)
    expect = copy_store(params)
    state = AdamState.for_params(params, ("U",))
    oracle = AdamState.for_params(expect)
    assert state.grad.layout == compact.layout
    for _ in range(3):
        # the norm matches; no clip fires, so nothing is scaled
        norm = clip_grad_norm(compact, 1e300, {"U": fg})
        assert norm == pytest.approx(whole_norm(dense), rel=1e-13)
        assert clip_factor(norm, 1e300) is None
        adam_step(state, params, compact, lr=0.01, factored={"U": fg})
        adam_step(oracle, expect, dense, lr=0.01)
        for got, want in ((params.data, expect.data), (state.m, oracle.m),
                          (state.v, oracle.v)):
            assert got.tobytes() == want.tobytes()


def test_factored_clip_scales_each_formed_chunk():
    # with the clip firing, the factored and dense norms differ only in
    # their last bits, and so do the scaled gradients Adam sees
    params, dense, compact, fg = factored_case(51)
    expect = copy_store(params)
    raw = compact.data.copy()
    norm_d = clip_grad_norm(dense, 0.5)
    norm_f = clip_grad_norm(compact, 0.5, {"U": fg})
    assert norm_f == pytest.approx(norm_d, rel=1e-13) and norm_f > 0.5
    scale = clip_factor(norm_f, 0.5)
    assert scale == 0.5 / norm_f
    assert np.array_equal(compact.data, raw * scale)
    state = AdamState.for_params(params, ("U",))
    oracle = AdamState.for_params(expect)
    adam_step(state, params, compact, lr=0.01, factored={"U": fg},
              grad_scale=scale)
    adam_step(oracle, expect, dense, lr=0.01)
    for got, want in ((params.data, expect.data), (state.m, oracle.m),
                      (state.v, oracle.v)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_factored_step_forms_no_u_sized_array():
    # U is 20 MB; the step holds one chunk of IN_BLOCK input columns
    n_out, n_in, rank = 200, 320, 40
    rng = np.random.default_rng(52)
    layout = Layout([("U", (n_out * n_in, rank)), ("b", (3,))])
    params = ParamStore(layout, np.zeros(layout.total))
    state = AdamState.for_params(params, ("U",))
    assert state.grad.data.size == 3
    fg = FactoredGrad(n_out * n_in)
    fg.append(AddInto(None, (rng.normal(size=(8, n_out)),
                             rng.normal(size=(8, n_in)),
                             rng.normal(size=(8, rank)))))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norm = clip_grad_norm(state.grad, 1.0, {"U": fg})
        adam_step(state, params, state.grad, factored={"U": fg},
                  grad_scale=clip_factor(norm, 1.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk = n_out * IN_BLOCK * rank * 8
    assert peak <= 2 * chunk + 8 * ADAM_BLOCK * 8
    assert peak < params.data.nbytes / 4
    assert np.any(params.data[:-3] != 0.0)


def test_factored_gradient_contracts():
    params, _, compact, fg = factored_case(53)
    (terms,) = fg.blocks.values()
    fg.narrow(4, 6).append(AddInto(None, terms[0]))
    state = AdamState.for_params(params, ("U",))
    before = params.data.copy()
    with pytest.raises(ContractViolation, match="overlap"):
        adam_step(state, params, compact, factored={"U": fg})
    # refused before any update
    assert state.step == 0 and np.array_equal(params.data, before)
    misfit = FactoredGrad(fg.rows)
    misfit.narrow(0, 7).append(AddInto(None, terms[0]))
    with pytest.raises(ContractViolation, match="do not fit rows 0:7"):
        adam_step(state, params, compact, factored={"U": misfit})
    with pytest.raises(ContractViolation, match="different layouts"):
        adam_step(AdamState.for_params(params), params, compact)
    with pytest.raises(ContractViolation, match="no room for"):
        adam_step(state, params, compact)
    with pytest.raises(ContractViolation, match="only factors"):
        fg.append(AddInto(None))
    assert state.step == 0 and np.array_equal(params.data, before)


def test_factored_step_refuses_a_factor_that_views_the_parameters():
    # the dense stretches step before U's chunks are formed, so a factor
    # that is a view of ψ would be read after its update
    params, _, compact, fg = factored_case(55)
    ((g, xv, sv),) = next(iter(fg.blocks.values()))[:1]
    aliased = FactoredGrad(fg.rows)
    view = params.data[:sv.size].reshape(sv.shape)
    aliased.narrow(2, g.shape[1] * xv.shape[1]).append(
        AddInto(None, (g, xv, view)))
    state = AdamState.for_params(params, ("U",))
    before = params.data.copy()
    with pytest.raises(ContractViolation, match="share memory"):
        adam_step(state, params, compact, factored={"U": aliased})
    assert state.step == 0 and np.array_equal(params.data, before)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_refuses_a_non_finite_factor(bad):
    _, _, compact, fg = factored_case(54)
    next(iter(fg.blocks.values()))[1][0][0, 0] = bad
    with pytest.raises(NumericError, match="gradient norm is non-finite"), \
            np.errstate(invalid="ignore"):  # inf · 0 in the Gram products
        clip_grad_norm(compact, 1.0, {"U": fg})
