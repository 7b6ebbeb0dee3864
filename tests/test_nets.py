import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    broadcast_add,
    copy_store,
    factored_vars,
    formed_grads,
    grad_check,
    make_store,
    reshape,
    tanh,
    taped_lowrank_linear,
    traced_peak,
    zero_fill_backward,
)

import hyperkkl.autodiff as ad
from hyperkkl.errors import ContractViolation
from hyperkkl.nets import (
    IN_BLOCK,
    LSTM_BLOCK,
    MIN_REPLAY_ROWS,
    ROW_BLOCK,
    LstmSpec,
    MlpSpec,
    _lstm_replay,
    _lstm_run,
    _lstm_span,
    _lstm_step,
    _lstm_step_back,
    _mlp_layer,
    _row_blocks,
    init_lstm,
    init_mlp,
    lstm_forward,
    lowrank_linear,
    lstm_layout_entries,
    mlp_forward,
    mlp_forward_with_jacobian,
    mlp_layout_entries,
    transpose2d,
    u_grad_chunks,
    u_grad_sq_norm,
)
from hyperkkl.params import Layout, ParamStore, ParamVars


def fresh_mlp(widths, seed=0, activation="tanh"):
    spec = MlpSpec(widths=tuple(widths), activation=activation)
    store = ParamStore(Layout(mlp_layout_entries(spec, "net")))
    init_mlp(store, spec, "net", seed)
    return spec, store


def fresh_lstm(m, h, seed=0):
    spec = LstmSpec(input_size=m, hidden_size=h)
    store = ParamStore(Layout(lstm_layout_entries(spec, "lstm")))
    init_lstm(store, spec, "lstm", seed)
    return spec, store


class TestMlp:
    def test_zero_params_zero_output(self):
        spec, store = fresh_mlp([2, 5, 3])
        store.data[:] = 0.0
        out = mlp_forward(store, spec, np.array([[0.7, -1.2]]), "net")
        assert out.shape == (1, 3) and np.all(out == 0.0)

    def test_scalar_hand_computation(self):
        spec, store = fresh_mlp([1, 1, 1])
        store.set("net.W0", [[1.0]])
        store.set("net.W1", [[1.0]])
        store.set("net.b0", [0.0])
        store.set("net.b1", [0.0])
        out = mlp_forward(store, spec, np.array([[0.5]]), "net")[0]
        assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert out[0] == pytest.approx(0.46212, abs=1e-5)

    def test_batch_matches_single(self):
        spec, store = fresh_mlp([3, 8, 2], seed=4)
        xs = np.random.default_rng(1).normal(size=(6, 3))
        batch = mlp_forward(store, spec, xs, "net")
        for i in range(6):
            single = mlp_forward(store, spec, xs[i : i + 1], "net")
            assert np.allclose(batch[i], single[0], atol=1e-14)

    def test_gradient_against_central_differences(self):
        spec, store = fresh_mlp([2, 6, 3], seed=7)
        x = np.random.default_rng(2).normal(size=(4, 2))

        def loss(p):
            out = mlp_forward(p, spec, x, "net")
            return ad.mul(ad.sum_all(ad.mul(out, out)), 1.0 / 4.0)

        assert grad_check(loss, store, eps=1e-6) < 1e-5

    def test_jvp_matches_central_differences_along_the_tangent(self):
        spec, store = fresh_mlp([3, 7, 4], seed=9)
        rng = np.random.default_rng(3)
        x, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        out, jvp = mlp_forward_with_jacobian(store, spec, x, "net", v)
        assert np.array_equal(out, mlp_forward(store, spec, x, "net"))
        h = 1e-6
        fd = (mlp_forward(store, spec, x + h * v, "net")
              - mlp_forward(store, spec, x - h * v, "net")) / (2 * h)
        assert np.allclose(jvp, fd, atol=1e-8)

    def test_jacobian_stays_differentiable(self):
        spec, store = fresh_mlp([2, 5, 3], seed=11)
        rng = np.random.default_rng(4)
        x, v = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

        def loss(p):
            _, jvp = mlp_forward_with_jacobian(p, spec, x, "net", v)
            return ad.sum_all(ad.mul(jvp, jvp))

        assert grad_check(loss, store, eps=1e-6) < 1e-5

    def test_jvp_equals_the_sum_of_jacobian_columns(self):
        spec, store = fresh_mlp([3, 9, 6, 4], seed=12)
        rng = np.random.default_rng(12)
        x, v = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        s = rng.normal(size=(6, 2)) * 0.3
        deltas = [(rng.normal(size=(27, 2)), s), None,
                  (rng.normal(size=(24, 2)), s)]
        _, jvp = mlp_forward_with_jacobian(store, spec, x, "net", v,
                                           weight_deltas=deltas)
        cols = jacobian_columns(store, spec, x, deltas)
        expect = sum(cols[j] * v[:, j:j + 1] for j in range(3))
        assert np.allclose(jvp, expect, rtol=1e-13, atol=0.0)

    def test_jvp_needs_a_matching_tangent(self):
        spec, store = fresh_mlp([3, 7, 4])
        with pytest.raises(ContractViolation):
            mlp_forward_with_jacobian(store, spec, np.zeros((5, 3)), "net",
                                      np.zeros((5, 2)))

    def test_identity_activation_is_affine(self):
        spec, store = fresh_mlp([2, 3, 2], seed=5, activation="identity")
        x = np.random.default_rng(5).normal(size=(4, 2))
        w0, b0 = store.get("net.W0"), store.get("net.b0")
        w1, b1 = store.get("net.W1"), store.get("net.b1")
        expect = (x @ w0.T + b0) @ w1.T + b1
        assert np.allclose(mlp_forward(store, spec, x, "net"), expect, atol=1e-14)

    def test_per_sample_weight_deltas(self):
        spec, store = fresh_mlp([2, 4, 3], seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2))
        s = rng.normal(size=(3, 2)) * 0.3
        deltas = [(rng.normal(size=(8, 2)), s), (rng.normal(size=(12, 2)), s)]
        out = mlp_forward(store, spec, x, "net", weight_deltas=deltas)
        for i in range(3):
            shifted = copy_store(store)
            for layer, (u, _) in enumerate(deltas):
                w = store.get(f"net.W{layer}")
                shifted.set(f"net.W{layer}", w + (u @ s[i]).reshape(w.shape))
            single = mlp_forward(shifted, spec, x[i : i + 1], "net")
            assert np.allclose(out[i], single[0], atol=1e-13)

    def test_jvp_takes_the_same_deltas(self):
        spec, store = fresh_mlp([3, 7, 4], seed=8)
        rng = np.random.default_rng(8)
        x, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        s = rng.normal(size=(5, 2)) * 0.3
        deltas = [(rng.normal(size=(21, 2)), s), (rng.normal(size=(28, 2)), s)]
        out, jvp = mlp_forward_with_jacobian(store, spec, x, "net", v,
                                             weight_deltas=deltas)
        assert np.array_equal(
            out, mlp_forward(store, spec, x, "net", weight_deltas=deltas))
        h = 1e-6
        fd = (mlp_forward(store, spec, x + h * v, "net", weight_deltas=deltas)
              - mlp_forward(store, spec, x - h * v, "net",
                            weight_deltas=deltas)) / (2 * h)
        assert np.allclose(jvp, fd, atol=1e-8)
        plain = mlp_forward_with_jacobian(store, spec, x, "net", v)[1]
        assert not np.allclose(jvp, plain, atol=1e-3)

    def test_width_contracts(self):
        with pytest.raises(ContractViolation):
            MlpSpec(widths=(2, 3))
        spec, store = fresh_mlp([2, 3, 2])
        with pytest.raises(ContractViolation, match="input width"):
            mlp_forward(store, spec, np.zeros((1, 3)), "net")

    def test_refuses_anything_but_a_row_batch(self):
        # one sample is a (1, n_in) row; a bare (n_in,) vector is refused
        spec, store = fresh_mlp([2, 3, 2])
        for x in (np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(ContractViolation, match=r"\(B, n_in\) batch"):
                mlp_forward(store, spec, x, "net")


def chain_layer(x, n, w, b, factors, squash):
    """One MLP layer as a chain of tape primitives on separate value and
    tangent rows, about seven arrays each: the oracle of ``_mlp_layer``."""
    if factors is None:
        wt = transpose2d(w)
        linear = lambda v: ad.matmul(v, wt)
    else:
        linear = lambda v: taped_lowrank_linear(v, w, *factors)
    rows = len(ad.val(x))
    a = ad.narrow(x, 0, 0, n)
    tangent = ad.narrow(x, 0, n, n) if rows > n else None
    pre = broadcast_add(linear(a), b)
    tangent = None if tangent is None else linear(tangent)
    if not squash:
        return pre, tangent
    a = tanh(pre)
    if tangent is not None:
        tangent = ad.mul(tangent, ad.sub(1.0, ad.mul(a, a)))
    return a, tangent


def layer_inputs(batch, tangent, conditioned, seed, n_in=IN_BLOCK + 4,
                 n_out=6, rank=3):
    """Stacked x, one parameter store (W, b and, if conditioned, U and S)
    and output-gradient weights for the stacked rows."""
    rng = np.random.default_rng(seed)
    rows = 2 * batch if tangent else batch
    named = [("W", rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)),
             ("b", rng.normal(size=n_out))]
    if conditioned:
        named += [("U", 0.1 * rng.normal(size=(n_out * n_in, rank))),
                  ("S", rng.normal(size=(batch, rank)))]
    return (rng.normal(size=(rows, n_in)), make_store(named),
            rng.normal(size=(rows, n_out)))


def layer_args(p, conditioned):
    factors = (p.get("U"), p.get("S")) if conditioned else None
    return p.get("W"), p.get("b"), factors


# (squash, tangent, conditioned, taped x, batch)
LAYER_CASES = [
    (squash, tangent, conditioned, taped, batch)
    for squash in (True, False) for tangent in (True, False)
    for conditioned in (False, True) for taped in (False, True)
    for batch in (1, ROW_BLOCK + 3)
]


class TestFusedLayer:
    @pytest.mark.parametrize("squash, tangent, conditioned, taped, batch",
                             LAYER_CASES)
    def test_rows_bitwise_and_gradients_match_the_primitive_chain(
            self, squash, tangent, conditioned, taped, batch):
        # stated tolerance for the gradients: 1e-13 of the largest entry
        xv, store, weights = layer_inputs(batch, tangent, conditioned,
                                          seed=batch + 2 * conditioned)
        results = []
        for fused in (True, False):
            pv = factored_vars(store)
            x = ad.Var(xv) if taped else xv
            w, b, factors = layer_args(pv, conditioned)
            if fused:
                out = _mlp_layer(x, batch, w, b, factors, squash)
                value = ad.val(out)[:batch]
                jvp = ad.val(out)[batch:] if tangent else None
                loss = ad.sum_all(ad.mul(out, weights))
            else:
                a, t = chain_layer(x, batch, w, b, factors, squash)
                value, jvp = ad.val(a), None if t is None else ad.val(t)
                loss = ad.sum_all(ad.mul(a, weights[:batch]))
                if t is not None:
                    loss = ad.add(loss, ad.sum_all(ad.mul(t, weights[batch:])))
            ad.backward(loss)
            grads = {"params": formed_grads(pv)}
            if taped:
                grads["x"] = x.grad
            results.append((value, jvp, grads))
        (value, jvp, grads), (value_o, jvp_o, grads_o) = results
        assert np.array_equal(value, value_o)
        if tangent:
            assert np.array_equal(jvp, jvp_o)
        for name in grads_o:
            scale = np.max(np.abs(grads_o[name]))
            assert np.max(np.abs(grads[name] - grads_o[name])) <= 1e-13 * scale

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_gradient_through_the_tangent_rows(self, conditioned):
        batch = 4
        xv, store, weights = layer_inputs(batch, True, conditioned, seed=40)

        def loss(p):
            out = _mlp_layer(xv, batch, *layer_args(p, conditioned), True)
            jvp = ad.narrow(out, 0, batch, batch)
            return ad.sum_all(ad.mul(jvp, ad.mul(jvp, weights[batch:])))

        assert grad_check(loss, store, eps=1e-6, factored=("U",)) < 1e-5

    def test_plain_inputs_record_nothing(self):
        xv, store, _ = layer_inputs(3, True, True, seed=41)
        out = _mlp_layer(xv, 3, *layer_args(store, True), True)
        assert isinstance(out, np.ndarray) and out.shape == (6, 6)

    def test_taped_jacobian_forward_holds_one_stacked_array_per_layer(self):
        # three 350-wide tanh layers at B = 256: each layer keeps its
        # (2B, 350) result and nothing else, where ``chain_layer`` keeps
        # about seven (B, 350) arrays per layer
        batch, width = 256, 350
        spec, store = fresh_mlp([3, width, width, width, 7], seed=42)
        rng = np.random.default_rng(42)
        x, v = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 3))
        pv = ParamVars(store)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, jvp = mlp_forward_with_jacobian(pv, spec, x, "net", v)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 3 * 2 * batch * width * 8 + 256 * 1024
        ad.backward(ad.sum_all(ad.add(out, jvp)))
        assert np.any(pv.grads().data != 0.0)


    def test_taped_jacobian_backward_adopts_each_layer_gradient(self):
        # the lorenz encoder's shape: three 350-wide tanh layers at B = 256
        # over their (2B, 350) results. A layer's backward writes tanh's
        # gradient into its own .grad and passes its x gradient down as
        # the next layer's .grad, so at most two stacked arrays and the
        # (350, 350) product added into W's gradient exist at once; the
        # zero-filled walk adds each x gradient into zeros, one stacked
        # array more. Both walks give the same bytes.
        batch, width = 256, 350
        spec, store = fresh_mlp([3, width, width, width, 7], seed=43)
        rng = np.random.default_rng(43)
        x, v = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 3))
        grads = []
        for walk in (ad.backward, zero_fill_backward):
            pv = ParamVars(store)
            out, jvp = mlp_forward_with_jacobian(pv, spec, x, "net", v)
            loss = ad.sum_all(ad.add(ad.mul(out, out), ad.mul(jvp, jvp)))
            _, peak = traced_peak(walk, loss)
            grads.append((pv.grads().data.tobytes(), peak))
        stacked = 2 * batch * width * 8
        assert grads[0][0] == grads[1][0]
        assert (grads[0][1] <= 2 * stacked + width * width * 8 + 64 * 1024
                < grads[1][1])

    def test_value_backward_holds_one_gradient_sized_array_more(self):
        # a hidden layer of the lorenz decoder (7 -> 350^3 -> 3) at 512
        # rows: tanh's gradient is written into the g the VJP is handed,
        # so beyond g and the x gradient it returns, the VJP and the
        # additions into W's and b's gradients hold at most one (512, 350)
        # array (1 - y^2 by ROW_BLOCK rows, then the (350, 350) W product)
        rows, width = 512, 350
        spec, store = fresh_mlp([7, width, width, width, 3], seed=44)
        pv = ParamVars(store)
        w, b = pv.get("net.W1"), pv.get("net.b1")
        rng = np.random.default_rng(44)
        out = _mlp_layer(ad.Var(rng.normal(size=(rows, width))), rows, w, b,
                         None, True)
        g = rng.normal(size=out.value.shape)
        expect = ((1.0 - out.value * out.value) * g) @ w.value

        def vjp():
            gx, gw, gb = out._vjp(g)
            gw.add(w.grad)
            gb.add(b.grad)
            return gx

        gx, peak = traced_peak(vjp)
        assert np.array_equal(gx, expect)
        assert peak <= gx.nbytes + g.nbytes + 64 * 1024


def jacobian_columns(store, spec, x, deltas):
    """d out[b] / d x[b, j] for each j, from each sample's dense weights."""
    cols = []
    for b in range(len(x)):
        a, jac = x[b], np.eye(len(x[b]))
        for i in range(spec.n_layers):
            w = store.get(f"net.W{i}")
            if deltas[i] is not None:
                u, s = deltas[i]
                w = w + (u @ s[b]).reshape(w.shape)
            a, jac = w @ a + store.get(f"net.b{i}"), w @ jac
            if i < spec.n_layers - 1:
                a = np.tanh(a)
                jac = (1.0 - a * a)[:, None] * jac
        cols.append(jac)
    return [np.stack([c[:, j] for c in cols]) for j in range(x.shape[1])]


def oracle_bmatvec(w, x):
    """(B, o, i) x (B, i) -> (B, o): the per-sample product of the dense form."""
    wv, xv = ad.val(w), ad.val(x)

    def vjp(g):
        return np.einsum("bo,bi->boi", g, xv), np.einsum("boi,bo->bi", wv, g)

    return ad._binary(w, x, np.einsum("boi,bi->bo", wv, xv), vjp)


def dense_lowrank_linear(x, w, u, s):
    """x_b (W + reshape(s_b uᵀ)): every sample's weight formed in full."""
    batch, (n_out, n_in) = ad.val(x).shape[0], ad.val(w).shape
    delta = reshape(ad.matmul(s, transpose2d(u)), (batch, n_out, n_in))
    return oracle_bmatvec(broadcast_add(delta, w), x)


def lowrank_inputs(rng, batch=4, n_in=3, n_out=5, rank=2):
    return {"x": rng.normal(size=(batch, n_in)),
            "w": rng.normal(size=(n_out, n_in)),
            "u": rng.normal(size=(n_out * n_in, rank)),
            "s": rng.normal(size=(batch, rank))}


class TestLowRankLinear:
    NAMES = ("x", "w", "u", "s")

    def test_gradients_of_all_four_inputs(self):
        vals = lowrank_inputs(np.random.default_rng(20))
        store = ParamStore(Layout([(n, vals[n].shape) for n in self.NAMES]))
        for n in self.NAMES:
            store.set(n, vals[n])
        weights = np.random.default_rng(21).normal(size=(4, 5))

        def loss(p):
            out = taped_lowrank_linear(*(p.get(n) for n in self.NAMES))
            return ad.sum_all(ad.mul(tanh(out), weights))

        assert grad_check(loss, store, eps=1e-6) < 1e-6

    @pytest.mark.parametrize("shape", [(4, 3, 5, 2), (7, 6, 6, 4), (1, 2, 3, 1)])
    def test_matches_dense_per_sample_weights(self, shape):
        batch, n_in, n_out, rank = shape
        rng = np.random.default_rng(22)
        vals = lowrank_inputs(rng, batch, n_in, n_out, rank)
        weights = rng.normal(size=(batch, n_out))
        results = []
        for fn in (taped_lowrank_linear, dense_lowrank_linear):
            leaves = [ad.Var(vals[n]) for n in self.NAMES]
            out = fn(*leaves)
            ad.backward(ad.sum_all(ad.mul(out, weights)))
            results.append([out.value] + [v.grad for v in leaves])
        for fused, dense in zip(*results):
            assert np.max(np.abs(fused - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_plain_inputs_record_nothing(self):
        vals = lowrank_inputs(np.random.default_rng(23))
        out = lowrank_linear(*(vals[n] for n in self.NAMES))
        assert isinstance(out, np.ndarray) and out.shape == (4, 5)

    def test_zero_coordinates_give_the_plain_rows_bitwise(self):
        spec, store = fresh_mlp([3, 6, 6, 2], seed=24)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(5, 3))
        s = rng.normal(size=(5, 2))
        s[[0, 3]] = 0.0
        deltas = [(rng.normal(size=(18, 2)), s), (rng.normal(size=(36, 2)), s),
                  (rng.normal(size=(12, 2)), s)]
        plain = mlp_forward(store, spec, x, "net")
        out = mlp_forward(store, spec, x, "net", weight_deltas=deltas)
        assert np.array_equal(out[[0, 3]], plain[[0, 3]])
        assert not np.array_equal(out[1], plain[1])

    @staticmethod
    def rank_term(x, u, s, n_out):
        """P u_rᵀ with P[b] = x[b] ⊗ s[b], formed for all rows at once."""
        p = (x[:, :, None] * s[:, None, :]).reshape(len(x), -1)
        return p @ u.reshape(n_out, -1).T

    def one_gemm(self, x, w, u, s):
        return x @ w.T + self.rank_term(x, u, s, len(w))

    def add_rank_chunks(self, out, x, u, s):
        """Adds the rank term of each IN_BLOCK chunk of inputs into ``out``
        in turn: columns [i0, i1) of x meet columns [i0·r, i1·r) of u_r."""
        rank = s.shape[1]
        u_r = u.reshape(out.shape[1], -1)
        for i0 in range(0, x.shape[1], IN_BLOCK):
            i1 = i0 + IN_BLOCK
            out += self.rank_term(x[:, i0:i1], u_r[:, i0 * rank:i1 * rank],
                                  s, out.shape[1])
        return out

    def formula(self, x, w, u, s):
        return self.add_rank_chunks(x @ w.T, x, u, s)

    def test_plain_call_within_one_block_is_the_formula_bitwise(self):
        # 2 full chunks of input columns and a ragged one of 5
        vals = lowrank_inputs(np.random.default_rng(26), ROW_BLOCK,
                              2 * IN_BLOCK + 5, 10, 3)
        args = [vals[n] for n in self.NAMES]
        out = lowrank_linear(*args)
        assert np.array_equal(out, self.formula(*args))
        whole = self.one_gemm(*args)
        assert np.max(np.abs(out - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_plain_call_is_the_formula_block_by_block(self):
        # x Wᵀ is one GEMM over all rows; P u_rᵀ is formed per row block
        # and per chunk of input columns
        batch = 2 * ROW_BLOCK + 17
        x, w, u, s = (lowrank_inputs(np.random.default_rng(27), batch,
                                     2 * IN_BLOCK + 5, 10, 3)[n]
                      for n in self.NAMES)
        out = lowrank_linear(x, w, u, s)
        plain = x @ w.T
        for lo in range(0, batch, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            block = self.add_rank_chunks(plain[rows], x[rows], u, s[rows])
            assert np.array_equal(out[rows], block)
        whole = self.one_gemm(x, w, u, s)
        assert np.max(np.abs(out - whole)) <= 1e-13 * np.max(np.abs(whole))

    @staticmethod
    def one_chunk_grads(g, x, w, u, s):
        """The gradients as one formula over all input columns at once."""
        batch, n_in = x.shape
        rank = s.shape[1]
        u_r = u.reshape(len(w), n_in * rank)
        p = (x[:, :, None] * s[:, None, :]).reshape(batch, n_in * rank)
        gp = (g @ u_r).reshape(batch, n_in, rank)
        return {"x": g @ w + np.einsum("bir,br->bi", gp, s),
                "w": g.T @ x,
                "u": (g.T @ p).reshape(u.shape),
                "s": np.einsum("bir,bi->br", gp, x)}

    def test_chunked_backward_is_the_one_chunk_formula(self):
        # 2 full chunks of input columns and a ragged one of 5; u keeps
        # factored gradients, formed chunk by chunk
        batch, n_in, n_out, rank = 9, 2 * IN_BLOCK + 5, 7, 3
        rng = np.random.default_rng(30)
        vals = lowrank_inputs(rng, batch, n_in, n_out, rank)
        weights = rng.normal(size=(batch, n_out))
        leaves = {n: ad.Var(vals[n]) for n in ("x", "w", "s")}
        pv = factored_vars(make_store([("U", vals["u"])]))
        leaves["u"] = pv.get("U")
        out = taped_lowrank_linear(*(leaves[n] for n in self.NAMES))
        ad.backward(ad.sum_all(ad.mul(out, weights)))
        expect = self.one_chunk_grads(weights, *(vals[n] for n in self.NAMES))
        got = {n: leaves[n].grad for n in ("x", "w", "s")}
        got["u"] = formed_grads(pv).reshape(-1, rank)
        assert len(pv.factored["U"].terms) == 1
        for n in self.NAMES:
            scale = np.max(np.abs(expect[n]))
            assert np.max(np.abs(got[n] - expect[n])) <= 1e-13 * scale, n

    def test_taped_backward_holds_no_batch_by_factor_array(self):
        batch, width, rank = 256, 150, 32
        vals = lowrank_inputs(np.random.default_rng(31), batch, width, width,
                              rank)
        store = make_store([("W", vals["w"]), ("b", np.zeros(width)),
                            ("U", vals["u"])])
        pv = factored_vars(store)
        x, s = ad.Var(vals["x"]), ad.Var(vals["s"])
        out = _mlp_layer(x, batch, pv.get("W"), pv.get("b"),
                         (pv.get("U"), s), False)
        tracemalloc.start()
        try:
            ad.backward(ad.sum_all(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (B, i·r) array is 9.8 MB; u's gradient stayed as its factors
        assert peak < batch * width * rank * 8
        assert len(pv.factored["U"].terms) == 1

    def test_plain_call_holds_one_block_of_outer_products(self):
        batch, width, rank = 1000, 150, 32
        x, w, u, s = (lowrank_inputs(np.random.default_rng(29), batch, width,
                                     width, rank)[n] for n in self.NAMES)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = lowrank_linear(x, w, u, s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the whole P would be batch·width·rank·8 = 38.4 MB, one row
        # block's 9.8 MB, one block's chunk of IN_BLOCK inputs 1 MiB
        assert peak <= out.nbytes + ROW_BLOCK * IN_BLOCK * rank * 8 + 512 * 1024

    def test_factor_shapes_are_checked(self):
        vals = lowrank_inputs(np.random.default_rng(25))
        with pytest.raises(ContractViolation, match="low-rank factors"):
            lowrank_linear(vals["x"], vals["w"], vals["u"][:-1], vals["s"])

    # n_in is no multiple of IN_BLOCK and the batch spans three row
    # blocks, so the chunk-outer loop crosses row blocks and a short chunk
    CHUNKED = {"batch": 2 * ROW_BLOCK + 7, "n_in": 2 * IN_BLOCK + 5,
               "n_out": 9, "rank": 3}

    def test_a_chunk_source_gives_the_array_bits(self):
        vals = lowrank_inputs(np.random.default_rng(30), **self.CHUNKED)
        x, w, u, s = (vals[n] for n in self.NAMES)
        out = lowrank_linear(x, w, ChunkSource(u, len(w)), s)
        assert np.array_equal(out, lowrank_linear(x, w, u, s))
        assert np.array_equal(out, row_outer_lowrank_linear(x, w, u, s))

    def test_a_chunk_source_is_read_once_per_chunk_in_order(self):
        vals = lowrank_inputs(np.random.default_rng(31), **self.CHUNKED)
        source = ChunkSource(vals["u"], len(vals["w"]))
        lowrank_linear(vals["x"], vals["w"], source, vals["s"])
        n_in, rank = self.CHUNKED["n_in"], self.CHUNKED["rank"]
        assert source.asked == [
            slice(i0 * rank, min(i0 + IN_BLOCK, n_in) * rank)
            for i0 in range(0, n_in, IN_BLOCK)]

    @pytest.mark.parametrize("taped", ["x", "w", "b", "s"])
    def test_a_chunk_source_refuses_a_tape(self, taped):
        # its chunks share one buffer, which a backward would read
        vals = lowrank_inputs(np.random.default_rng(32))
        vals["b"] = np.zeros(len(vals["w"]))
        source = ChunkSource(vals["u"], len(vals["w"]))
        args = {**vals, "u": source, taped: ad.Var(vals[taped])}
        with pytest.raises(ContractViolation, match="cannot be taped"):
            _mlp_layer(args["x"], len(vals["x"]), args["w"], args["b"],
                       (source, args["s"]), True)
        assert source.asked == []


class ChunkSource:
    """u as a chunk source for lowrank_linear: it records the columns of
    u_r each call asks for and returns them in one reused buffer, as
    eval's file reader does."""

    def __init__(self, u, n_out):
        self.shape = u.shape
        self.u_r = u.reshape(n_out, -1)
        self.buf = np.empty(n_out * IN_BLOCK * u.shape[1])
        self.asked = []

    def chunk(self, cols_r):
        self.asked.append(cols_r)
        n_out = len(self.u_r)
        got = self.buf[:n_out * (cols_r.stop - cols_r.start)].reshape(n_out, -1)
        got[...] = self.u_r[:, cols_r]
        return got


def row_outer_lowrank_linear(x, w, u, s):
    """lowrank_linear's forward with the loops the other way round: each
    block of ROW_BLOCK rows adds its IN_BLOCK chunks' products in turn."""
    (n_out, n_in), rank = w.shape, s.shape[1]
    u_r = u.reshape(n_out, n_in * rank)
    out = x @ w.T
    for lo in range(0, len(x), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        for i0 in range(0, n_in, IN_BLOCK):
            i1 = min(i0 + IN_BLOCK, n_in)
            p = (x[rows, i0:i1, None] * s[rows, None, :]).reshape(
                len(x[rows]), -1)
            out[rows] += p @ u_r[:, i0 * rank:i1 * rank].T
    return out


READOUTS = ("U0", "U1")


def readout_uses(factored, seed=40, batch=6, rank=3):
    """Two layers' readouts U0 and U1, each used twice, as in the dynamic
    step: once through the Jacobian forward (value and tangent rows
    stacked, s repeated) and once through a plain forward at other
    coordinates. Returns the ParamVars after backward. The hidden width
    spans two IN_BLOCK chunks and a ragged one."""
    rng = np.random.default_rng(seed)
    spec = MlpSpec((3, 2 * IN_BLOCK + 5, 4))
    entries = [(n, rng.normal(size=shape) * 0.3)
               for n, shape in mlp_layout_entries(spec, "m")]
    store = make_store(entries + [
        (f"U{l}", rng.normal(size=(w.size, rank)))
        for l, (_, w) in enumerate(entries[::2])])
    pv = factored_vars(store, READOUTS) if factored else ParamVars(store)

    def deltas(s):
        return [(pv.get(u), s) for u in READOUTS]

    x, tangent = (rng.normal(size=(batch, 3)) for _ in range(2))
    s_pre, s_post = (ad.Var(rng.normal(size=(batch, rank))) for _ in range(2))
    out, jvp = mlp_forward_with_jacobian(pv, spec, x, "m", tangent,
                                         deltas(s_pre))
    post = mlp_forward(pv, spec, x, "m", deltas(s_post))
    weights = [rng.normal(size=(batch, 4)) for _ in range(3)]
    loss = ad.sum_all(ad.mul(out, weights[0]))
    for part, w in ((jvp, weights[1]), (post, weights[2])):
        loss = ad.add(loss, ad.sum_all(ad.mul(part, w)))
    ad.backward(loss)
    return pv


class TestFactoredReadoutGradient:
    """A readout's gradient kept as the factors of its terms
    (autodiff.FactoredGrad)."""

    def test_forming_from_factors_is_the_dense_buffer_bitwise(
            self, dense_u_grads):
        # the dense run adds each term into the full-layout buffer
        dense = readout_uses(factored=False)
        factored = readout_uses(factored=True)
        formed = ParamStore(factored.layout, formed_grads(factored))
        for u in READOUTS:
            # one list per readout, in the order backward delivered the
            # uses: the 12 stacked Jacobian rows, then the post forward's 6
            terms = factored.factored[u].terms
            assert [len(g) for g, _, _ in terms] == [12, 6]
            assert formed.get(u).tobytes() == dense.grads().get(u).tobytes()
            # and it has no room in the buffer
            assert u not in factored.grads().layout
        # every other slice is the dense buffer's
        for spec in factored.grads().layout.slices:
            assert np.array_equal(factored.grads().get(spec.name),
                                  dense.grads().get(spec.name))

    def test_gram_norm_matches_the_formed_gradient(self):
        pv = readout_uses(factored=True, seed=41)
        formed = ParamStore(pv.layout, formed_grads(pv))
        for u in READOUTS:
            gram = u_grad_sq_norm(pv.factored[u].terms)
            expect = np.sum(formed.get(u) ** 2)
            assert abs(gram - expect) <= 1e-13 * expect

    def test_gram_norm_in_row_blocks_of_many_rows(self):
        # more stacked rows than ROW_BLOCK, over three terms
        rng = np.random.default_rng(42)
        terms = [(rng.normal(size=(rows, 5)), rng.normal(size=(rows, 7)),
                  rng.normal(size=(rows, 2))) for rows in (200, 150, 30)]
        dense = np.zeros((5, 7 * 2))
        for cols, chunk in u_grad_chunks(terms):
            dense[:, cols] = chunk
        expect = np.sum(dense * dense)
        assert abs(u_grad_sq_norm(terms) - expect) <= 1e-13 * expect

    def test_a_factored_leaf_refuses_a_formed_gradient(self):
        store = make_store([("U", np.ones((4, 2)))])
        pv = factored_vars(store)
        loss = ad.sum_all(transpose2d(pv.get("U")))
        with pytest.raises(ContractViolation, match="only factors"):
            ad.backward(loss)

    def test_a_narrow_of_a_factored_leaf_is_refused(self):
        # a readout is used whole: a narrow of it is a node like any
        # other, which can neither take a layer's factors nor hand its
        # slice's gradient to the leaf
        xv, store, weights = layer_inputs(3, True, True, seed=46)
        pv = factored_vars(store)
        w, b, (u, s) = layer_args(pv, True)
        part = ad.narrow(u, 0, 0, len(u.value))
        out = _mlp_layer(xv, 3, w, b, (part, s), True)
        with pytest.raises(ContractViolation, match="factored leaf"):
            ad.backward(ad.sum_all(ad.mul(out, weights)))
        pv = factored_vars(store)
        with pytest.raises(ContractViolation, match="only factors"):
            ad.backward(ad.sum_all(ad.narrow(pv.get("U"), 0, 1, 2)))

    @pytest.mark.parametrize("narrowed", [False, True])
    def test_a_dense_leaf_refuses_a_gradient_of_factors(self, narrowed):
        # U's gradient exists only as factors, which a full-layout buffer
        # cannot take, whole or through a row narrow
        xv, store, weights = layer_inputs(3, True, True, seed=45)
        pv = ParamVars(store)
        w, b, (u, s) = layer_args(pv, True)
        if narrowed:
            u = ad.narrow(u, 0, 0, len(u.value))
        out = _mlp_layer(xv, 3, w, b, (u, s), True)
        with pytest.raises(ContractViolation, match="factored leaf"):
            ad.backward(ad.sum_all(ad.mul(out, weights)))


def oracle_lstm(wx, wh, b, seq):
    """Literal gate equations, kept independent of the production code."""
    hsz = wh.shape[1]
    h = np.zeros(hsz)
    c = np.zeros(hsz)
    for x_t in seq:
        z = wx @ x_t + wh @ h + b
        i = 1 / (1 + np.exp(-z[:hsz]))
        f = 1 / (1 + np.exp(-z[hsz : 2 * hsz]))
        g = np.tanh(z[2 * hsz : 3 * hsz])
        o = 1 / (1 + np.exp(-z[3 * hsz :]))
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def taped_sigmoid(x):
    """1 / (1 + exp(-x)) as one tape node, for the taped LSTM oracle."""
    out = 1.0 / (1.0 + np.exp(-ad.val(x)))
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g * out * (1.0 - out),))


def taped_lstm(params, spec, sequence, prefix):
    """The LSTM as about 15 tape nodes per step: the reference for the fused
    one-node forward and its hand-written backward-through-time pass."""
    seq = np.asarray(sequence, dtype=np.float64)
    batch, w, _ = seq.shape
    hsz = spec.hidden_size
    wxt, wht = (transpose2d(params.get(f"{prefix}.{n}")) for n in ("Wx", "Wh"))
    b = params.get(f"{prefix}.b")
    h = np.zeros((batch, hsz))
    c = np.zeros((batch, hsz))
    for t in range(w):
        gates = broadcast_add(ad.add(ad.matmul(seq[:, t, :], wxt),
                                ad.matmul(h, wht)), b)
        gi = taped_sigmoid(ad.narrow(gates, 1, 0, hsz))
        gf = taped_sigmoid(ad.narrow(gates, 1, hsz, hsz))
        gc = tanh(ad.narrow(gates, 1, 2 * hsz, hsz))
        go = taped_sigmoid(ad.narrow(gates, 1, 3 * hsz, hsz))
        c = ad.add(ad.mul(gf, c), ad.mul(gi, gc))
        h = ad.mul(go, tanh(c))
    return h


def stored_state_bptt(wx, wh, b, seq, dh, grads=None):
    """Gradients of sum(h_w * dh) by the stored-state BPTT that the fused
    window used before it kept checkpoints: every step's h_{t-1} and c_{t-1}
    are kept, and each reverse step recomputes its gates from them. The
    whole batch is one reverse pass. Each step's terms are added into
    ``grads`` when given (zeros otherwise)."""
    batch, w, _ = seq.shape
    hsz = wh.shape[1]

    def step(x_t, h, c):
        gates = x_t @ wx.T + h @ wh.T + b
        gi = 1.0 / (1.0 + np.exp(-gates[:, :hsz]))
        gf = 1.0 / (1.0 + np.exp(-gates[:, hsz : 2 * hsz]))
        gc = np.tanh(gates[:, 2 * hsz : 3 * hsz])
        go = 1.0 / (1.0 + np.exp(-gates[:, 3 * hsz :]))
        c = gf * c + gi * gc
        tanh_c = np.tanh(c)
        return gi, gf, gc, go, tanh_c, c, go * tanh_c

    h_prevs, c_prevs = [], []
    h = np.zeros((batch, hsz))
    c = np.zeros((batch, hsz))
    for t in range(w):
        h_prevs.append(h)
        c_prevs.append(c)
        *_, c, h = step(seq[:, t, :], h, c)
    if grads is None:
        grads = (np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b))
    gwx, gwh, gb = grads
    dc = np.zeros_like(dh)
    for t in reversed(range(w)):
        h_prev, c_prev = h_prevs[t], c_prevs[t]
        gi, gf, gc, go, tanh_c, _, _ = step(seq[:, t, :], h_prev, c_prev)
        dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
        dz = np.concatenate([
            dc * gc * gi * (1.0 - gi),
            dc * c_prev * gf * (1.0 - gf),
            dc * gi * (1.0 - gc * gc),
            dh * tanh_c * go * (1.0 - go),
        ], axis=1)
        gwx += dz.T @ seq[:, t, :]
        gwh += dz.T @ h_prev
        gb += dz.sum(axis=0)
        dh = dz @ wh
        dc = dc * gf
    return h, (gwx, gwh, gb)


def oracle_row_blocks(batch):
    """LSTM_BLOCK rows per block; a tail of 1-7 rows joins the block before."""
    edges = list(range(0, batch, LSTM_BLOCK)) + [batch]
    if len(edges) > 2 and edges[-1] - edges[-2] < 8:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def row_blocked_bptt(wx, wh, b, seq, dh):
    """``stored_state_bptt`` one row block after another, every block adding
    into the same gradients: the reference for the blocked backward's bits."""
    grads = (np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b))
    hs = [stored_state_bptt(wx, wh, b, seq[rows], dh[rows], grads)[0]
          for rows in oracle_row_blocks(len(seq))]
    return np.concatenate(hs), grads


def whole_batch_states(seq, wx, wh, b, hsz):
    """Every step's (i, f, g, o, tanh(c_t), c_t, h_t) of one whole-batch pass."""
    batch, w, _ = seq.shape
    h, c = np.zeros((batch, hsz)), np.zeros((batch, hsz))
    states = []
    for t in range(w):
        states.append(_lstm_step(seq[:, t, :], h, c, wx, wh, b, hsz))
        c, h = states[-1][5:]
    return states


def unblocked_lstm_run(seq, wx, wh, b, hsz, checkpoints=None):
    """The forward as one pass over all of ``seq``'s rows, as the taped
    window ran before its forward took row blocks: final h, and the
    (h, c) entering each ``_lstm_span`` segment but the first appended
    to ``checkpoints`` when given."""
    batch, w, _ = seq.shape
    span = _lstm_span(w, batch)
    h, c = np.zeros((batch, hsz)), np.zeros((batch, hsz))
    for t in range(w):
        if checkpoints is not None and t and t % span == 0:
            checkpoints.append((h, c))
        *_, c, h = _lstm_step(seq[:, t, :], h, c, wx, wh, b, hsz)
    return h


def replayed_lstm_grads(seq, wx, wh, b, hsz, checkpoints, g):
    """The weight gradients for the output gradient g, replayed from the
    whole-batch pass's ``checkpoints`` block by block, as the taped
    backward replays them."""
    batch, w, _ = seq.shape
    span = _lstm_span(w, batch)
    grads = (np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b))
    for rows in oracle_row_blocks(batch):
        n = rows.stop - rows.start
        dh, dc = g[rows], np.zeros((n, hsz))
        for t0 in reversed(range(0, w, span)):
            h0, c0 = ((a[rows] for a in checkpoints[t0 // span - 1]) if t0
                      else (np.zeros((n, hsz)),) * 2)
            steps = _lstm_replay(seq[rows], t0, min(t0 + span, w), h0, c0,
                                 wx, wh, b, hsz, [])
            for step in reversed(steps):
                dh, dc = _lstm_step_back(dh, dc, step, wh, grads)
    return grads


# (input size, hidden size, batch, window length); the last two have more
# rows than one backward block, one with a tail that joins the block before
FUSED_CASES = [(1, 4, 3, 7), (2, 5, 4, 30), (1, 16, 9, 100),
               (1, 8, 2 * LSTM_BLOCK + 3, 30), (2, 6, LSTM_BLOCK + 20, 13)]
# windows around the segment edges of the w = 100 span, and w = 100
SPAN_EDGE_WINDOWS = [1, _lstm_span(100, 1) - 1, _lstm_span(100, 1),
                     _lstm_span(100, 1) + 1, 2 * _lstm_span(100, 1) + 1, 100]
# B < R, B = R, and B = k·R + r with r in {1, 2, 3, 4, 7}, which join the
# block before, and r = 8, which makes its own block
REPLAY_BATCHES = [LSTM_BLOCK // 2 + 1, LSTM_BLOCK, LSTM_BLOCK + 1,
                  2 * LSTM_BLOCK + 2, LSTM_BLOCK + 3, 3 * LSTM_BLOCK + 4,
                  LSTM_BLOCK + 7, 2 * LSTM_BLOCK + 8]


class TestLstm:
    def test_zero_params_zero_input_zero_hidden(self):
        spec, store = fresh_lstm(1, 4)
        store.data[:] = 0.0
        h = lstm_forward(store, spec, np.zeros((1, 10, 1)), "lstm")
        assert np.all(h == 0.0)

    def test_matches_oracle(self):
        spec, store = fresh_lstm(2, 5, seed=3)
        seq = np.random.default_rng(7).normal(size=(6, 2))
        h = lstm_forward(store, spec, seq[None], "lstm")[0]
        expect = oracle_lstm(
            store.get("lstm.Wx"), store.get("lstm.Wh"), store.get("lstm.b"), seq
        )
        assert np.allclose(h, expect, atol=1e-13)

    def test_zero_recurrent_weights_collapse(self):
        # with Wh = 0 the gates see only x_t; the oracle collapses the
        # recurrence to its closed form, which the forward must match for
        # one and for two identical steps
        spec, store = fresh_lstm(1, 3, seed=8)
        store.set("lstm.Wh", np.zeros((12, 3)))
        x = np.array([[0.4]])
        one = lstm_forward(store, spec, x[None], "lstm")[0]
        two = lstm_forward(store, spec, np.repeat(x, 2, 0)[None], "lstm")[0]
        wx, wh, b = store.get("lstm.Wx"), store.get("lstm.Wh"), store.get("lstm.b")
        assert np.allclose(one, oracle_lstm(wx, wh, b, x), atol=1e-14)
        assert np.allclose(two, oracle_lstm(wx, wh, b, np.repeat(x, 2, 0)), atol=1e-14)

    def test_constant_window_time_invariance(self):
        spec, store = fresh_lstm(1, 4, seed=2)
        w1 = np.full((1, 8, 1), 0.3)
        assert np.array_equal(
            lstm_forward(store, spec, w1, "lstm"),
            lstm_forward(store, spec, w1.copy(), "lstm"),
        )

    def test_gradient_over_sequence(self):
        spec, store = fresh_lstm(1, 4, seed=5)
        seq = np.random.default_rng(8).normal(size=(2, 5, 1))

        def loss(p):
            h = lstm_forward(p, spec, seq, "lstm")
            return ad.sum_all(ad.mul(h, h))

        assert grad_check(loss, store, eps=1e-6) < 1e-5

    @pytest.mark.parametrize("m, h, batch, w", FUSED_CASES)
    def test_fused_forward_bitwise_equals_taped_oracle(self, m, h, batch, w):
        spec, store = fresh_lstm(m, h, seed=m + h)
        seq = np.random.default_rng(w).normal(size=(batch, w, m))
        expect = ad.val(taped_lstm(store, spec, seq, "lstm"))
        plain = lstm_forward(store, spec, seq, "lstm")
        taped = lstm_forward(ParamVars(store), spec, seq, "lstm")
        assert isinstance(plain, np.ndarray)
        assert np.array_equal(plain, expect)
        assert np.array_equal(taped.value, expect)

    @pytest.mark.parametrize("m, h, batch, w", FUSED_CASES)
    def test_fused_gradients_match_taped_oracle(self, m, h, batch, w):
        # stated tolerance: 1e-12 of the largest gradient entry (the two
        # sum the same products; on OpenBLAS they agree bit for bit)
        spec, store = fresh_lstm(m, h, seed=m + h)
        rng = np.random.default_rng(w)
        seq = rng.normal(size=(batch, w, m))
        weight = rng.normal(size=(batch, h))
        grads = []
        for forward in (lstm_forward, taped_lstm):
            pv = ParamVars(store)
            out = forward(pv, spec, seq, "lstm")
            ad.backward(ad.sum_all(ad.mul(out, weight)))
            grads.append(pv.grads().data)
        fused, oracle = grads
        assert np.max(np.abs(fused - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("batch", [1, 7, 2 * LSTM_BLOCK + 3])
    @pytest.mark.parametrize("w", SPAN_EDGE_WINDOWS)
    def test_checkpointed_gradients_equal_row_blocked_stored_state_bitwise(
            self, m, batch, w):
        # the replay runs the forward's own step on the same rows, so the
        # segment edges leave no trace in the bits; up to one block the
        # row-blocked oracle is the whole-batch one
        spec, store = fresh_lstm(m, 5, seed=w + m)
        rng = np.random.default_rng(10 * w + batch)
        seq = rng.normal(size=(batch, w, m))
        weight = rng.normal(size=(batch, 5))
        pv = ParamVars(store)
        out = lstm_forward(pv, spec, seq, "lstm")
        ad.backward(ad.sum_all(ad.mul(out, weight)))
        h, expect = row_blocked_bptt(
            *(store.get(f"lstm.{n}") for n in ("Wx", "Wh", "b")), seq, weight)
        assert np.array_equal(out.value, h)
        for name, gr in zip(("Wx", "Wh", "b"), expect):
            assert np.array_equal(pv.get(f"lstm.{name}").grad, gr), name

    @pytest.mark.parametrize("batch", [LSTM_BLOCK + 9, 3 * LSTM_BLOCK + 4,
                                       1001])
    def test_blocked_gradients_match_whole_batch_bptt(self, batch):
        # stated tolerance: 1e-14 of the largest entry. The blocked pass
        # sums the same per-row products, one block's before the next's;
        # at the shipped width (h 64, w 100) they differ by up to 3e-15
        spec, store = fresh_lstm(1, 64, seed=batch)
        rng = np.random.default_rng(batch)
        seq = rng.normal(size=(batch, 100, 1))
        weight = rng.normal(size=(batch, 64))
        pv = ParamVars(store)
        out = lstm_forward(pv, spec, seq, "lstm")
        ad.backward(ad.sum_all(ad.mul(out, weight)))
        h, expect = stored_state_bptt(
            *(store.get(f"lstm.{n}") for n in ("Wx", "Wh", "b")), seq, weight)
        assert np.array_equal(out.value, h)
        for name, gr in zip(("Wx", "Wh", "b"), expect):
            got = pv.get(f"lstm.{name}").grad
            assert np.max(np.abs(got - gr)) <= 1e-14 * np.max(np.abs(gr)), name

    @pytest.mark.parametrize("batch", REPLAY_BATCHES)
    def test_block_replay_gives_the_forward_states_bitwise(self, batch):
        # each block replays every segment from its rows of the whole-batch
        # checkpoints; every state and gate is the whole-batch pass's
        m, hsz, w = 1, 64, 20
        spec, store = fresh_lstm(m, hsz, seed=batch)
        seq = np.random.default_rng(batch).normal(size=(batch, w, m))
        wx, wh, b = (store.get(f"lstm.{n}") for n in ("Wx", "Wh", "b"))
        whole = whole_batch_states(seq, wx, wh, b, hsz)
        span = _lstm_span(w, batch)
        checkpoints = [(np.full((batch, hsz), np.nan),
                        np.full((batch, hsz), np.nan))
                       for _ in range(math.ceil(w / span) - 1)]
        _lstm_run(seq, wx, wh, b, hsz, checkpoints)
        assert len(checkpoints) == math.ceil(w / span) - 1
        for k, (h_k, c_k) in enumerate(checkpoints, 1):
            assert np.array_equal(h_k, whole[k * span - 1][6])
            assert np.array_equal(c_k, whole[k * span - 1][5])
        for rows in _row_blocks(batch):
            n = rows.stop - rows.start
            for t0 in range(0, w, span):
                h0, c0 = ((np.zeros((n, hsz)),) * 2 if t0 == 0 else
                          (a[rows] for a in checkpoints[t0 // span - 1]))
                steps = _lstm_replay(seq[rows], t0, min(t0 + span, w), h0, c0,
                                     wx, wh, b, hsz, [])
                for t, (_, h_prev, c_prev, *gates) in zip(range(t0, w), steps):
                    if t:
                        assert np.array_equal(c_prev, whole[t - 1][5][rows])
                        assert np.array_equal(h_prev, whole[t - 1][6][rows])
                    for got, expect in zip(gates, whole[t][:5]):
                        assert np.array_equal(got, expect[rows]), (t, rows)

    @pytest.mark.parametrize("batch", [1, 5, 8, 63, 64, 65, 71, 233,
                                       ROW_BLOCK, 1001])
    def test_row_blocked_forward_is_the_whole_batch_forward_bitwise(
            self, batch):
        # the references run the plain forward ROW_BLOCK windows at a time
        # and the taped one as one whole-batch pass, as both ran before
        # they took _row_blocks blocks; outputs, checkpoints and weight
        # gradients keep the bits of those passes
        m, hsz, w = 1, 64, 30
        spec, store = fresh_lstm(m, hsz, seed=batch)
        rng = np.random.default_rng(batch)
        seq = rng.normal(size=(batch, w, m))
        g = rng.normal(size=(batch, hsz))
        wx, wh, b = (store.get(f"lstm.{n}") for n in ("Wx", "Wh", "b"))
        plain = np.concatenate([
            unblocked_lstm_run(seq[lo:lo + ROW_BLOCK], wx, wh, b, hsz)
            for lo in range(0, batch, ROW_BLOCK)])
        assert np.array_equal(lstm_forward(store, spec, seq, "lstm"), plain)
        whole_checkpoints = []
        whole = unblocked_lstm_run(seq, wx, wh, b, hsz, whole_checkpoints)
        checkpoints = [(np.empty((batch, hsz)), np.empty((batch, hsz)))
                       for _ in whole_checkpoints]
        assert np.array_equal(_lstm_run(seq, wx, wh, b, hsz, checkpoints),
                              whole)
        for got, expect in zip(checkpoints, whole_checkpoints):
            assert np.array_equal(got[0], expect[0])
            assert np.array_equal(got[1], expect[1])
        pv = ParamVars(store)
        out = lstm_forward(pv, spec, seq, "lstm")
        ad.backward(ad.sum_all(ad.mul(out, g)))
        assert np.array_equal(out.value, whole)
        expect = replayed_lstm_grads(seq, wx, wh, b, hsz, whole_checkpoints, g)
        for name, gr in zip(("Wx", "Wh", "b"), expect):
            assert np.array_equal(pv.get(f"lstm.{name}").grad, gr), name

    def test_taped_forward_holds_its_checkpoints_and_one_block(self):
        # at B = 1001, w = 100, h = 64 the forward keeps 8 checkpoint
        # arrays and the output, B rows each, and runs one row block's
        # step at a time; one whole-batch step would hold its (B, 4h) gates
        # and h Whᵀ term and seven (B, h) results besides (26 B·h arrays)
        batch, w, h = 1001, 100, 64
        span = _lstm_span(w, batch)
        kept = 2 * (math.ceil(w / span) - 1)
        spec, store = fresh_lstm(1, h, seed=13)
        seq = np.random.default_rng(13).normal(size=(batch, w, 1))
        out, peak = traced_peak(lstm_forward, ParamVars(store), spec, seq,
                                "lstm")
        widest = max(r.stop - r.start for r in _row_blocks(batch))
        assert peak <= ((kept + 2) * batch + 20 * widest) * h * 8

    def test_row_blocks_fold_a_short_tail(self):
        for batch in range(1, 3 * LSTM_BLOCK + 10):
            blocks = _row_blocks(batch)
            assert blocks == oracle_row_blocks(batch), batch
            sizes = [r.stop - r.start for r in blocks]
            assert sum(sizes) == batch and blocks[0].start == 0
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) == 1 or min(sizes) >= MIN_REPLAY_ROWS

    def test_span_edge_windows_include_ragged_segments(self):
        assert any(w % _lstm_span(w, 1) for w in SPAN_EDGE_WINDOWS)
        assert _lstm_span(100, 1) == 6

    @pytest.mark.parametrize("batch, span", [
        (1, 6), (LSTM_BLOCK, 6), (ROW_BLOCK, 11), (1001, 22), (1024, 22)])
    def test_span_balances_checkpoints_against_one_block_replay(
            self, batch, span):
        # ceil(sqrt(2·w·B / (7·R))) with R = min(B, LSTM_BLOCK), at w = 100
        rows = min(batch, LSTM_BLOCK)
        assert _lstm_span(100, batch) == span
        assert span == math.ceil(math.sqrt(200 * batch / (7 * rows)))

    def test_taped_window_keeps_h_and_c_per_span(self):
        # between forward and backward the window holds the (h, c) entering
        # each segment but the first, plus O(B·h) for the output and the
        # bookkeeping; the backward replays one segment of one row block at
        # a time, so its peak adds at most the 7 arrays of each of span
        # steps of the widest block and O(R·h) transients, plus g and the
        # block's dh and dc (keeping every step's h and c would be 2·w·B·h)
        batch, w, h = 3 * LSTM_BLOCK + 5, 100, 16
        span = _lstm_span(w, batch)
        kept = 2 * (math.ceil(w / span) - 1)
        widest = max(r.stop - r.start for r in _row_blocks(batch))
        assert widest == LSTM_BLOCK + 5
        spec, store = fresh_lstm(1, h, seed=3)
        seq = np.random.default_rng(3).normal(size=(batch, w, 1))
        pv = ParamVars(store)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = lstm_forward(pv, spec, seq, "lstm")
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            ad.backward(ad.sum_all(out))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held <= (kept + 8) * batch * h * 8
        assert peak <= ((kept + 4) * batch + (7 * span + 16) * widest) * h * 8

    def test_blocked_backward_peak_follows_the_span_formula(self):
        # at B = 1001, w = 100, h = 64: 8 checkpoint arrays of B rows and
        # 7·22 replay arrays of 64 rows; a whole-batch replay at the 6-step
        # span of B ≤ 64 would hold 74 arrays of B rows (38 MB)
        batch, w, h = 1001, 100, 64
        span = math.ceil(math.sqrt(2 * w * batch / (7 * LSTM_BLOCK)))
        kept = 2 * (math.ceil(w / span) - 1)
        peak = self._backward_peak(batch, w, h)
        assert peak <= ((kept + 4) * batch + (7 * span + 16) * LSTM_BLOCK) * h * 8

    def test_blocked_backward_peak_grows_slower_than_the_batch(self):
        # 4× the rows: only the checkpoints grow with B, and √B of them
        assert self._backward_peak(1024, 100, 64) < (
            2.5 * self._backward_peak(256, 100, 64))

    @staticmethod
    def _backward_peak(batch, w, h):
        """Most bytes held during the backward of one taped window, from
        before its forward."""
        spec, store = fresh_lstm(1, h, seed=batch)
        seq = np.random.default_rng(batch).normal(size=(batch, w, 1))
        pv = ParamVars(store)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = lstm_forward(pv, spec, seq, "lstm")
            tracemalloc.reset_peak()
            ad.backward(ad.sum_all(out))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_plain_forward_in_row_blocks_is_one_whole_batch_pass_bitwise(self):
        # 2 full blocks of windows and a ragged one of 17
        batch, w, m, h = 2 * ROW_BLOCK + 17, 9, 2, 6
        spec, store = fresh_lstm(m, h, seed=11)
        seq = np.random.default_rng(11).normal(size=(batch, w, m))
        wx, wh, b = (store.get(f"lstm.{n}") for n in ("Wx", "Wh", "b"))
        hs = np.zeros((batch, h))
        cs = np.zeros((batch, h))
        for t in range(w):
            *_, cs, hs = _lstm_step(seq[:, t, :], hs, cs, wx, wh, b, h)
        plain = lstm_forward(store, spec, seq, "lstm")
        taped = lstm_forward(ParamVars(store), spec, seq, "lstm")
        assert np.array_equal(plain, hs)
        assert np.array_equal(plain, taped.value)

    def test_plain_forward_holds_one_block_of_state(self):
        # a step of one block holds its 4h-wide gates and h Whᵀ term, the
        # seven (rows, h) results and the entering (h, c): 18 arrays of
        # LSTM_BLOCK·h floats; the whole batch at once would hold 18 of B·h
        batch, w, h = 1001, 100, 64
        spec, store = fresh_lstm(1, h, seed=12)
        seq = np.random.default_rng(12).normal(size=(batch, w, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = lstm_forward(store, spec, seq, "lstm")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        widest = max(r.stop - r.start for r in _row_blocks(batch))
        assert peak <= out.nbytes + 20 * widest * h * 8

    def test_window_is_one_tape_node(self):
        spec, store = fresh_lstm(2, 3, seed=4)
        pv = ParamVars(store)
        seq = np.random.default_rng(4).normal(size=(2, 5, 2))
        out = lstm_forward(pv, spec, seq, "lstm")
        assert out._parents == tuple(pv.get(f"lstm.{n}") for n in ("Wx", "Wh", "b"))

    def test_empty_sequence_contract(self):
        spec, store = fresh_lstm(1, 3)
        with pytest.raises(ContractViolation):
            lstm_forward(store, spec, np.zeros((1, 0, 1)), "lstm")

    def test_refuses_a_single_unbatched_window(self):
        # one window is a (1, w, m) batch; a bare (w, m) window is refused
        spec, store = fresh_lstm(1, 3)
        with pytest.raises(ContractViolation, match=r"\(B, w, m\)"):
            lstm_forward(store, spec, np.zeros((10, 1)), "lstm")
