import numpy as np
import pytest

import hyperkkl.autodiff as ad
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
    init_map_params,
    make_maps,
    simulate_latent,
)
from hyperkkl.optim import grad_check
from hyperkkl.params import ParamStore


def small_hyper(window=8, rank=3, hidden=6):
    maps = make_maps(2, 5, hidden=(7,))
    spec = build_hypernet_spec(maps, window=window, lstm_hidden=hidden, rank=rank)
    psi = init_hypernet_params(spec, seed=0)
    return maps, spec, psi


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
            weight_total = sum(
                head.target_layout[n].size for n in head.weight_names
            )
            assert head.total == weight_total
            assert psi.get(f"{head.name}.U").shape == (head.total, head.rank)

    def test_scatter_matches_delta_store(self):
        maps, spec, psi = small_hyper()
        rng = np.random.default_rng(0)
        flat = rng.normal(size=(1, spec.enc_head.total))
        layers = head_layer_deltas(spec.enc_head, maps.enc, "enc", flat)
        store = delta_store(spec.enc_head, flat[0])
        for i, block in enumerate(layers):
            assert np.array_equal(ad.val(block)[0], store.get(f"enc.W{i}"))
        for i in range(maps.enc.n_layers):
            assert np.all(store.get(f"enc.b{i}") == 0.0)


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
        u = psi.get("hyper.enc_head.U")
        raw = (ctx @ v.T) @ u.T
        d_theta, _ = generate_deltas(psi, spec, win)
        assert np.array_equal(ad.val(d_theta), raw)  # gate saturates to 1.0

    def test_delta_layout_accepted_by_encode_and_additive(self):
        maps, spec, psi = small_hyper()
        theta, _ = init_map_params(maps, seed=1)
        rng = np.random.default_rng(6)
        flat = rng.normal(size=spec.enc_head.total) * 0.1
        delta = delta_store(spec.enc_head, flat)
        eff = theta + delta
        x = np.array([[0.4, -0.3]])
        out_eff = encode(maps, eff, x)
        assert out_eff.shape == (1, 5)
        # zero delta reproduces base bitwise
        zero = theta + ParamStore(theta.layout)
        assert np.array_equal(zero.data, theta.data)
        assert np.array_equal(encode(maps, zero, x), encode(maps, theta, x))

    def test_add_then_subtract_restores_base_bitwise(self):
        maps, spec, psi = small_hyper()
        theta, _ = init_map_params(maps, seed=2)
        theta.data[:] = np.round(theta.data * 64.0)  # representable values
        delta = ParamStore(theta.layout)
        delta.data[:] = np.arange(theta.layout.total, dtype=np.float64)
        assert np.array_equal((theta + delta).data - delta.data, theta.data)

    def test_layout_mismatch_rejected(self):
        maps, spec, psi = small_hyper()
        theta, phi = init_map_params(maps, seed=3)
        with pytest.raises(ContractViolation):
            theta + phi

    def test_nonzero_first_layer_delta_changes_output(self):
        maps, spec, psi = small_hyper()
        theta, _ = init_map_params(maps, seed=4)
        flat = np.zeros(spec.enc_head.total)
        flat[0] = 0.5  # first entry of enc.W0
        delta = delta_store(spec.enc_head, flat)
        x = np.array([[0.7, 0.1]])
        base_out = encode(maps, theta, x)
        cond_out = encode(maps, theta + delta, x)
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
        inject = make_step_injection(xi, spec, win, 0.05)
        return inject(z, spec.window - 1)

    def test_zero_window_injection_exactly_zero(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = np.random.default_rng(9).normal(size=xi.data.shape)
        out = self.inject_once(xi, spec, np.ones(5), np.zeros((spec.window, 1)))
        assert out is None  # the latent step adds nothing

    def test_zero_params_injection_zero_for_any_input(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = 0.0
        win = np.random.default_rng(10).normal(size=(spec.window, 1))
        out = self.inject_once(xi, spec, np.ones(5), win)
        assert np.all(ad.val(out) == 0.0)

    def test_zero_final_layer_init_starts_at_zero(self):
        spec, xi = self.spec_and_params(seed=3)
        win = np.random.default_rng(11).normal(size=(spec.window, 1))
        out = self.inject_once(xi, spec, np.full(5, 0.3), win)
        assert np.all(ad.val(out) == 0.0)

    def test_gradient_wrt_xi(self):
        spec = build_injection_spec(
            n_z=3, window=4, lstm_hidden=3, mlp_hidden=(5,)
        )
        xi = init_injection_params(spec, seed=1)
        rng = np.random.default_rng(12)
        xi.data[:] = rng.normal(size=xi.data.shape) * 0.3
        win = rng.normal(size=(4, 1))
        z = rng.normal(size=3)

        def loss(p):
            out = self.inject_once(p, spec, z, win)
            return ad.sum_all(ad.mul(out, out))

        assert grad_check(loss, xi, eps=1e-6) < 1e-5

    def test_latent_sim_with_zero_input_matches_autonomous_bitwise(self):
        spec, xi = self.spec_and_params()
        xi.data[:] = np.random.default_rng(13).normal(size=xi.data.shape)
        obs = build_observer_matrices(2, 1)
        y = np.random.default_rng(14).normal(size=(60, 1))
        u = np.zeros((60, 1))
        inject = make_step_injection(xi, spec, u, 0.05)
        with_inj = simulate_latent(obs, y, 0.05, injection=inject)
        plain = simulate_latent(obs, y, 0.05)
        assert np.array_equal(with_inj, plain)

    def test_latent_sim_with_forcing_differs(self):
        spec, xi = self.spec_and_params()
        rng = np.random.default_rng(15)
        xi.data[:] = rng.normal(size=xi.data.shape)
        obs = build_observer_matrices(2, 1)
        y = rng.normal(size=(60, 1))
        u = np.full((60, 1), 0.8)
        inject = make_step_injection(xi, spec, u, 0.05)
        with_inj = simulate_latent(obs, y, 0.05, injection=inject)
        plain = simulate_latent(obs, y, 0.05)
        assert not np.array_equal(with_inj, plain)

    def test_latent_dim_contract(self):
        spec, xi = self.spec_and_params()
        win = np.random.default_rng(16).normal(size=(spec.window, 1))
        with pytest.raises(ContractViolation):
            self.inject_once(xi, spec, np.ones(4), win)
