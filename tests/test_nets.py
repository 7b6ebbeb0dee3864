import math

import numpy as np
import pytest

from conftest import make_store

import hyperkkl.autodiff as ad
from hyperkkl.errors import ContractViolation
from hyperkkl.nets import (
    LstmSpec,
    MlpSpec,
    init_lstm,
    init_mlp,
    lstm_forward,
    lstm_layout_entries,
    mlp_forward,
    mlp_forward_with_jacobian,
    mlp_layout_entries,
    transpose2d,
)
from hyperkkl.optim import grad_check
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
        out = mlp_forward(store, spec, np.array([0.7, -1.2]), "net")
        assert np.all(out == 0.0)

    def test_scalar_hand_computation(self):
        spec, store = fresh_mlp([1, 1, 1])
        store.set("net.W0", [[1.0]])
        store.set("net.W1", [[1.0]])
        store.set("net.b0", [0.0])
        store.set("net.b1", [0.0])
        out = mlp_forward(store, spec, np.array([0.5]), "net")
        assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert out[0] == pytest.approx(0.46212, abs=1e-5)

    def test_batch_matches_single(self):
        spec, store = fresh_mlp([3, 8, 2], seed=4)
        xs = np.random.default_rng(1).normal(size=(6, 3))
        batch = mlp_forward(store, spec, xs, "net")
        for i in range(6):
            single = mlp_forward(store, spec, xs[i], "net")
            assert np.allclose(batch[i], single, atol=1e-14)

    def test_gradient_against_central_differences(self):
        spec, store = fresh_mlp([2, 6, 3], seed=7)
        x = np.random.default_rng(2).normal(size=(4, 2))

        def loss(p):
            out = mlp_forward(p, spec, x, "net")
            return ad.mul(ad.sum_all(ad.mul(out, out)), 1.0 / 4.0)

        assert grad_check(loss, store, eps=1e-6) < 1e-5

    def test_jacobian_columns_match_finite_differences(self):
        spec, store = fresh_mlp([3, 7, 4], seed=9)
        x = np.random.default_rng(3).normal(size=(5, 3))
        out, cols = mlp_forward_with_jacobian(store, spec, x, "net")
        base = mlp_forward(store, spec, x, "net")
        assert np.allclose(ad.val(out), base, atol=1e-14)
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            fd = (mlp_forward(store, spec, xp, "net")
                  - mlp_forward(store, spec, xm, "net")) / (2 * h)
            assert np.allclose(ad.val(cols[j]), fd, atol=1e-8)

    def test_jacobian_stays_differentiable(self):
        spec, store = fresh_mlp([2, 5, 3], seed=11)
        x = np.random.default_rng(4).normal(size=(3, 2))

        def loss(p):
            _, cols = mlp_forward_with_jacobian(p, spec, x, "net")
            acc = ad.sum_all(ad.mul(cols[0], cols[0]))
            return ad.add(acc, ad.sum_all(ad.mul(cols[1], cols[1])))

        assert grad_check(loss, store, eps=1e-6) < 1e-5

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
        deltas = [rng.normal(size=(3, 4, 2)) * 0.1, rng.normal(size=(3, 3, 4)) * 0.1]
        out = mlp_forward(store, spec, x, "net", weight_deltas=deltas)
        for i in range(3):
            shifted = store.copy()
            shifted.set("net.W0", store.get("net.W0") + deltas[0][i])
            shifted.set("net.W1", store.get("net.W1") + deltas[1][i])
            single = mlp_forward(shifted, spec, x[i], "net")
            assert np.allclose(out[i], single, atol=1e-13)

    def test_width_contracts(self):
        with pytest.raises(ContractViolation):
            MlpSpec(widths=(2, 3))
        spec, store = fresh_mlp([2, 3, 2])
        with pytest.raises(ContractViolation):
            mlp_forward(store, spec, np.zeros(3), "net")


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
        gates = ad.add(ad.add(ad.matmul(seq[:, t, :], wxt), ad.matmul(h, wht)), b)
        gi = ad.sigmoid(ad.narrow(gates, 1, 0, hsz))
        gf = ad.sigmoid(ad.narrow(gates, 1, hsz, hsz))
        gc = ad.tanh(ad.narrow(gates, 1, 2 * hsz, hsz))
        go = ad.sigmoid(ad.narrow(gates, 1, 3 * hsz, hsz))
        c = ad.add(ad.mul(gf, c), ad.mul(gi, gc))
        h = ad.mul(go, ad.tanh(c))
    return h


# (input size, hidden size, batch, window length)
FUSED_CASES = [(1, 4, 3, 7), (2, 5, 4, 30), (1, 16, 9, 100)]


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
