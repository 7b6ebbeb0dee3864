import numpy as np
import pytest

from conftest import grad_check, init_map_params, param_vars

import hyperkkl.autodiff as ad
import hyperkkl.hypernet as hypernet
from hyperkkl.errors import ContractViolation
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    delta_store,
    encode_context,
    gate_values,
    generate_deltas,
    head_layer_deltas,
    hypernet_layout,
    init_hypernet_params,
    init_injection_params,
    injection_layout,
    make_step_injection,
)
from hyperkkl.kkl import (
    build_observer_matrices,
    encode,
    make_maps,
    simulate_latent,
    simulate_latent_injected,
)
from hyperkkl.nets import ROW_BLOCK, mlp_forward
from hyperkkl.params import ParamStore
from hyperkkl.signals import window_matrix


def small_hyper(window=8, rank=3, hidden=6):
    maps = make_maps(2, 5, hidden=(7,))
    spec = build_hypernet_spec(maps, window=window, lstm_hidden=hidden, rank=rank)
    psi = init_hypernet_params(spec, seed=0)
    return maps, spec, psi


def stacked_u(psi, head):
    """The head's U_l stacked in layer order: the (Σ o_l·i_l, r) readout."""
    return np.concatenate([psi.get(u) for u in head.u_names])


class TestHeadSpec:
    def test_readout_covers_target_weights_once(self):
        maps, spec, psi = small_hyper()
        for head, mlp, prefix in (
            (spec.enc_head, maps.enc, "enc"),
            (spec.dec_head, maps.dec, "dec"),
        ):
            assert head.weight_names == tuple(
                f"{prefix}.W{i}" for i in range(mlp.n_layers)
            )
            # one U_l per weight, back to back in layer order
            assert head.u_names == tuple(
                f"{head.name}.U{i}" for i in range(mlp.n_layers))
            end = psi.layout[head.u_names[0]].offset
            for u, w in zip(head.u_names, head.weight_names):
                sl = psi.layout[u]
                assert sl.shape == (head.target_layout[w].size, head.rank)
                assert sl.offset == end
                end += sl.size

    def test_scatter_matches_delta_store(self):
        # layer l's (U_l, s) factor gives the enc.W{l} slice that
        # delta_store cuts from the flat row U s[b]
        maps, spec, psi = small_hyper()
        rng = np.random.default_rng(0)
        psi.data[:] = rng.normal(size=psi.data.shape)
        win = rng.normal(size=(2, spec.window, 1))
        ctx = encode_context(psi, spec, win)
        g = gate_values(win, spec.tau)
        factors = head_layer_deltas(psi, spec.enc_head, ctx, g)
        assert len(factors) == maps.enc.n_layers
        s = factors[0][1]
        assert np.array_equal(s, (ctx @ psi.get("hyper.enc_head.V").T) * g)
        u = stacked_u(psi, spec.enc_head)
        for b in range(2):
            store = delta_store(spec.enc_head, u @ s[b])
            for i, (u_l, s_l) in enumerate(factors):
                assert s_l is s
                w = store.get(f"enc.W{i}")
                assert np.allclose((u_l @ s[b]).reshape(w.shape), w,
                                   rtol=0.0, atol=1e-14)
            for i in range(maps.enc.n_layers):
                assert np.all(store.get(f"enc.b{i}") == 0.0)

    def test_listed_rows_pair_with_s_as_the_views_do(self):
        # u_rows stands in for psi's U, one entry per layer, in order
        maps, spec, psi = small_hyper()
        rng = np.random.default_rng(2)
        psi.data[:] = rng.normal(size=psi.data.shape)
        win = rng.normal(size=(2, spec.window, 1))
        ctx = encode_context(psi, spec, win)
        g = gate_values(win, spec.tau)
        args = (spec.dec_head, ctx, g)
        views = head_layer_deltas(psi, *args)
        rows = [object() for _ in views]
        listed = head_layer_deltas(psi, *args, rows)
        assert len(listed) == len(views) == maps.dec.n_layers
        for (got_u, got_s), u_l, (_, s) in zip(listed, rows, views):
            assert got_u is u_l and np.array_equal(got_s, s)
        # by default each layer's factor is psi's slice U_l itself
        for (view, _), name in zip(views, spec.dec_head.u_names):
            assert np.shares_memory(view, psi.data)
            assert np.array_equal(view, psi.get(name))


class TestGate:
    def test_zero_window_gate_is_exactly_zero(self):
        assert gate_values(np.zeros((3, 8, 1)), 1e-2).tolist() == [[0.0]] * 3

    def test_monotone_and_saturating(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(1, 8, 1))
        scales = np.linspace(0.0, 4.0, 9)
        gs = [float(gate_values(s * base, 1e-2)[0, 0]) for s in scales]
        assert gs[0] == 0.0
        assert all(b >= a for a, b in zip(gs, gs[1:]))
        assert gs[-1] > 0.999


class TestDeltas:
    def test_zero_window_deltas_exactly_zero(self):
        maps, spec, psi = small_hyper()
        psi.data[:] = np.random.default_rng(2).normal(size=psi.data.shape)
        dt_, dp_ = generate_deltas(psi, spec, np.zeros((2, spec.window, 1)))
        assert np.all(ad.val(dt_) == 0.0)
        assert np.all(ad.val(dp_) == 0.0)

    def test_zero_init_readout_gives_zero_deltas_for_any_window(self):
        maps, spec, psi = small_hyper()
        win = np.random.default_rng(3).normal(size=(2, spec.window, 1))
        dt_, dp_ = generate_deltas(psi, spec, win)
        assert np.all(ad.val(dt_) == 0.0)
        assert np.all(ad.val(dp_) == 0.0)

    def test_tiny_tau_recovers_raw_head_output(self):
        maps, spec0, _ = small_hyper()
        spec = build_hypernet_spec(
            maps, window=spec0.window, lstm_hidden=6, rank=3, tau=1e-12,
        )
        psi = init_hypernet_params(spec, seed=4)
        psi.data[:] = np.random.default_rng(4).normal(size=psi.data.shape) * 0.3
        win = np.random.default_rng(5).normal(size=(1, spec.window, 1))
        ctx = encode_context(psi, spec, win)
        v = psi.get("hyper.enc_head.V")
        raw = np.concatenate([(ctx @ v.T) @ psi.get(u).T
                              for u in spec.enc_head.u_names], axis=1)
        d_theta, _ = generate_deltas(psi, spec, win)
        assert np.array_equal(ad.val(d_theta), raw)  # gate saturates to 1.0

    def test_delta_layout_accepted_by_encode_and_additive(self):
        maps, spec, psi = small_hyper()
        theta, _ = init_map_params(maps, seed=1)
        rng = np.random.default_rng(6)
        flat = rng.normal(size=len(stacked_u(psi, spec.enc_head))) * 0.1
        delta = delta_store(spec.enc_head, flat)
        assert delta.layout == theta.layout
        eff = ParamStore(theta.layout, theta.data + delta.data)
        x = np.array([[0.4, -0.3]])
        out_eff = encode(maps, eff, x)
        assert out_eff.shape == (1, 5)

    def test_nonzero_first_layer_delta_changes_output(self):
        maps, spec, psi = small_hyper()
        theta, _ = init_map_params(maps, seed=4)
        flat = np.zeros(len(stacked_u(psi, spec.enc_head)))
        flat[0] = 0.5  # first entry of enc.W0
        delta = delta_store(spec.enc_head, flat)
        x = np.array([[0.7, 0.1]])
        base_out = encode(maps, theta, x)
        cond_out = encode(maps, ParamStore(theta.layout,
                                           theta.data + delta.data), x)
        assert not np.array_equal(base_out, cond_out)

    def test_delta_gradients_flow_to_psi(self):
        maps, spec, psi = small_hyper(window=5, hidden=4, rank=2)
        # move U off its zero init so V sees gradient too
        rng = np.random.default_rng(7)
        psi.data[:] = rng.normal(size=psi.data.shape) * 0.2
        win = rng.normal(size=(2, 5, 1))

        def loss(p):
            d_theta, d_phi = generate_deltas(p, spec, win)
            return ad.add(
                ad.sum_all(ad.mul(d_theta, d_theta)),
                ad.sum_all(ad.mul(d_phi, d_phi)),
            )

        assert grad_check(loss, psi, eps=1e-6) < 1e-5


class TestContext:
    def test_zero_lstm_zero_window_gives_zero_state(self):
        maps, spec, psi = small_hyper()
        psi.data[:] = 0.0
        h = encode_context(psi, spec, np.zeros((1, spec.window, 1)))
        assert np.all(h == 0.0)

    def test_constant_window_is_time_shift_invariant(self):
        maps, spec, psi = small_hyper()
        win_a = np.full((1, spec.window, 1), 0.4)
        win_b = np.full((1, spec.window, 1), 0.4)  # same window, later time
        assert np.array_equal(
            encode_context(psi, spec, win_a), encode_context(psi, spec, win_b)
        )

    def test_window_length_contract(self):
        maps, spec, psi = small_hyper()
        with pytest.raises(ContractViolation):
            encode_context(psi, spec, np.zeros((1, spec.window + 1, 1)))

    def test_refuses_a_single_unbatched_window(self):
        # one window is a (1, w, m) batch; a bare (w, m) window is refused
        maps, spec, psi = small_hyper()
        with pytest.raises(ContractViolation, match="got shape"):
            encode_context(psi, spec, np.zeros((spec.window, 1)))

    def test_context_gradient(self):
        maps, spec, psi = small_hyper(window=4, hidden=3)
        win = np.random.default_rng(8).normal(size=(2, 4, 1))

        def loss(p):
            h = encode_context(p, spec, win)
            return ad.sum_all(ad.mul(h, h))

        assert grad_check(loss, psi, eps=1e-6) < 1e-5


class TestInjection:
    def spec_and_params(self, window=6, seed=0):
        spec = build_injection_spec(
            n_z=5, window=window, lstm_hidden=4, mlp_hidden=(8,)
        )
        xi = init_injection_params(spec, seed=seed)
        return spec, xi

    @staticmethod
    def inject_once(xi, spec, z, win):
        """The step injection at the step whose window is exactly ``win``."""
        inject = make_step_injection(xi, spec, win)
        return inject(z, spec.window - 1)

    def test_zero_window_injection_exactly_zero(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = np.random.default_rng(9).normal(size=xi.data.shape)
        out = self.inject_once(xi, spec, np.ones((1, 5)),
                               np.zeros((spec.window, 1)))
        assert out is None  # the latent step adds nothing

    def test_zero_params_injection_zero_for_any_input(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = 0.0
        win = np.random.default_rng(10).normal(size=(spec.window, 1))
        out = self.inject_once(xi, spec, np.ones((1, 5)), win)
        assert ad.val(out).shape == (1, 5) and np.all(ad.val(out) == 0.0)

    def test_zero_final_layer_init_starts_at_zero(self):
        spec, xi = self.spec_and_params(seed=3)
        win = np.random.default_rng(11).normal(size=(spec.window, 1))
        out = self.inject_once(xi, spec, np.full((1, 5), 0.3), win)
        assert np.all(ad.val(out) == 0.0)

    def test_gradient_wrt_xi(self):
        spec = build_injection_spec(
            n_z=3, window=4, lstm_hidden=3, mlp_hidden=(5,)
        )
        xi = init_injection_params(spec, seed=1)
        rng = np.random.default_rng(12)
        xi.data[:] = rng.normal(size=xi.data.shape) * 0.3
        win = rng.normal(size=(4, 1))
        z = rng.normal(size=(1, 3))

        def loss(p):
            out = self.inject_once(p, spec, z, win)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(loss, xi, eps=1e-6) < 1e-5

    def test_latent_sim_with_zero_input_matches_autonomous_bitwise(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = np.random.default_rng(13).normal(size=xi.data.shape)
        obs = build_observer_matrices(2, 1)
        y = np.random.default_rng(14).normal(size=(60, 1, 1))
        u = np.zeros((60, 1))
        inject = make_step_injection(xi, spec, u)
        with_inj = np.concatenate(list(simulate_latent_injected(
            obs, y, 0.05, inject)))
        plain = simulate_latent(obs, y, 0.05)[:, 0]
        assert np.array_equal(with_inj, plain)

    def test_latent_sim_with_forcing_differs(self):
        spec, xi = self.spec_and_params()
        rng = np.random.default_rng(15)
        xi.data[:] = rng.normal(size=xi.data.shape)
        obs = build_observer_matrices(2, 1)
        y = rng.normal(size=(60, 1, 1))
        u = np.full((60, 1), 0.8)
        inject = make_step_injection(xi, spec, u)
        with_inj = np.concatenate(list(simulate_latent_injected(
            obs, y, 0.05, inject)))
        plain = simulate_latent(obs, y, 0.05)[:, 0]
        assert not np.array_equal(with_inj, plain)

    @staticmethod
    def counted_encodes(monkeypatch):
        """The batch of every LSTM forward the injection runs, in order."""
        batches, real = [], hypernet.lstm_forward

        def counted(params, spec, sequence, prefix):
            batches.append(len(sequence))
            return real(params, spec, sequence, prefix)

        monkeypatch.setattr(hypernet, "lstm_forward", counted)
        return batches

    @staticmethod
    def blocks_input():
        """Four ROW_BLOCK blocks of steps: all-zero windows, partly zero
        windows, live windows, and a last block of 100 live steps."""
        u = np.zeros((3 * ROW_BLOCK + 100, 1))
        live = np.arange(ROW_BLOCK + 40, len(u))
        u[live, 0] = np.sin(0.05 * live) + 0.3
        return u

    def test_plain_injection_is_the_whole_run_encode_bitwise(self,
                                                             monkeypatch):
        # at the shipped window and LSTM width; each block is encoded when
        # the filter first reaches it, the all-zero one not at all, and
        # every step's injection is the one of the run's windows encoded
        # at once, walked forward or backward
        spec = build_injection_spec(n_z=5, window=100, lstm_hidden=64,
                                    mlp_hidden=(8,))
        xi = init_injection_params(spec, seed=4)
        rng = np.random.default_rng(4)
        xi.data[:] = rng.normal(size=xi.data.shape) * 0.2
        u = self.blocks_input()
        windows = window_matrix(u, spec.window)
        gates = gate_values(windows, spec.tau)[:, 0]
        contexts = encode_context(xi, spec, windows)
        zs = rng.normal(size=(len(u), 1, 5))
        zero = gates == 0.0
        assert zero[:ROW_BLOCK].all() and not zero[2 * ROW_BLOCK:].any()
        assert zero[ROW_BLOCK:2 * ROW_BLOCK].any()
        assert not zero[ROW_BLOCK:2 * ROW_BLOCK].all()
        batches = self.counted_encodes(monkeypatch)
        inject = make_step_injection(xi, spec, u)
        assert batches == []
        for order in (range(len(u)), reversed(range(len(u)))):
            for k in order:
                got = inject(zs[k], k)
                if zero[k]:
                    assert got is None, k
                    continue
                row = np.concatenate([zs[k], contexts[k:k + 1]], axis=1)
                expect = mlp_forward(xi, spec.mlp, row, "inj.mlp") * gates[k]
                assert np.array_equal(got, expect), k
        # the backward walk starts in the block the forward walk ended in
        assert batches == [ROW_BLOCK, ROW_BLOCK, 100, ROW_BLOCK, ROW_BLOCK]

    @pytest.mark.parametrize("taped", [False, True])
    def test_the_first_block_is_encoded_before_the_injection_returns(
            self, monkeypatch, taped):
        # a plain injection encodes ROW_BLOCK steps, a taped one (the
        # static training rollout) its whole run, once
        spec, xi = self.spec_and_params()
        u = np.full((2 * ROW_BLOCK + 5, 1), 0.5)
        batches = self.counted_encodes(monkeypatch)
        inject = make_step_injection(param_vars(xi) if taped else xi, spec, u)
        first = [len(u)] if taped else [ROW_BLOCK]
        assert batches == first
        for k in range(len(u)):
            inject(np.ones((1, 5)), k)
        assert batches == (first if taped else [ROW_BLOCK, ROW_BLOCK, 5])

    def test_latent_dim_contract(self):
        spec, xi = self.spec_and_params()
        win = np.random.default_rng(16).normal(size=(spec.window, 1))
        with pytest.raises(ContractViolation):
            self.inject_once(xi, spec, np.ones((1, 4)), win)
