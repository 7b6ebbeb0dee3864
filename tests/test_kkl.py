import math

import numpy as np
import pytest

from conftest import oracle_latent, param_vars, traced_peak

import hyperkkl.autodiff as ad
from hyperkkl import kkl, nets
from hyperkkl.data import generate_dataset
from hyperkkl.dynamics import SystemSpec, duffing, lorenz, simulate, van_der_pol
from hyperkkl.errors import ContractViolation, NumericError
from hyperkkl.hypernet import (
    build_injection_spec,
    init_injection_params,
    make_step_injection,
)
from hyperkkl.kkl import (
    KklMaps,
    ObserverMatrices,
    autonomous_pde_residual,
    build_observer_matrices,
    check_controllable,
    check_hurwitz,
    decode,
    decoder_layout,
    dynamic_pde_residual_batch,
    encode,
    encoder_layout,
    latent_dim,
    make_maps,
    reconstruction_loss,
    simulate_latent,
    simulate_latent_injected,
    verify_observer,
)
from hyperkkl.nets import MlpSpec
from hyperkkl.params import ParamStore


def elimination_rank(mat, tol=1e-9):
    """Row rank via Gaussian elimination with partial pivoting (test oracle)."""
    m = np.array(mat, dtype=np.float64)
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivot = rank + np.argmax(np.abs(m[rank:, c]))
        if abs(m[pivot, c]) < tol * max(1.0, np.abs(m).max()):
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] /= m[rank, c]
        for r in range(rows):
            if r != rank:
                m[r] -= m[r, c] * m[rank]
        rank += 1
    return rank


from conftest import (
    analytic_linear_maps,
    analytic_linear_observer,
    forced_stationary_residual,
    grad_check,
    init_map_params,
    linear_test_system,
)


def random_weight_deltas(maps, batch, seed, rank=2):
    """Per-layer (U_l, s) encoder weight-delta factors."""
    rng = np.random.default_rng(seed)
    w = maps.enc.widths
    s = rng.normal(size=(batch, rank)) * 0.1
    return [(rng.normal(size=(w[i + 1] * w[i], rank)), s)
            for i in range(maps.enc.n_layers)]


class TestObserverMatrices:
    def test_latent_dimension_formula(self):
        assert latent_dim(2, 1) == 5
        assert latent_dim(3, 1) == 7
        obs = build_observer_matrices(2, 1)
        assert obs.n_z == 5
        assert np.array_equal(np.diag(obs.A), [-1, -2, -3, -4, -5])
        assert np.all(obs.B == 1.0)
        assert build_observer_matrices(3, 1).n_z == 7

    def test_hurwitz_examples(self):
        ok, absc = check_hurwitz(np.diag([-1.0, -2.0]))
        assert ok and absc == pytest.approx(-1.0)
        ok, _ = check_hurwitz(np.diag([0.0, -1.0]))
        assert not ok
        # complex pair -1 +- 5i: trace/2 gives the real part
        ok, absc = check_hurwitz([[-1.0, 5.0], [-5.0, -1.0]])
        assert ok and absc == pytest.approx(-1.0)

    def test_hurwitz_contract(self):
        with pytest.raises(ContractViolation):
            check_hurwitz(np.ones((2, 3)))

    def test_controllability_rank_against_elimination(self):
        obs = build_observer_matrices(3, 1)
        blocks = [obs.B]
        for _ in range(obs.n_z - 1):
            blocks.append(obs.A @ blocks[-1])
        krylov = np.concatenate(blocks, axis=1)
        assert elimination_rank(krylov) == 7
        ok, rank = check_controllable(obs.A, obs.B)
        assert ok and rank == 7

    def test_repeated_eigenvalues_fail_verification(self):
        bad = ObserverMatrices(
            A=np.diag([-1.0, -1.0]), B=np.ones((2, 1)), n_z=2
        )
        ok, rank = check_controllable(bad.A, bad.B)
        assert not ok and rank == 1
        with pytest.raises(ContractViolation):
            verify_observer(bad)

    def test_latent_dim_override_still_verified(self):
        obs = build_observer_matrices(2, 1, n_z=7)
        assert obs.n_z == 7
        verify_observer(obs)


class TestSimulateLatent:
    def test_hurwitz_decay_from_nonzero_start(self):
        obs = build_observer_matrices(2, 1)
        y = np.zeros((201, 1))
        z0 = np.array([1.0, -0.5, 0.2, 0.8, -0.1])
        zs = oracle_latent(obs, y, 0.05, z0=z0)
        n1 = np.linalg.norm(zs[20])  # t = 1
        assert n1 <= math.exp(-1.0) * np.linalg.norm(z0) * (1 + 1e-6)

    def test_superposition_matches_closed_form(self):
        obs = build_observer_matrices(2, 1)
        rng = np.random.default_rng(0)
        y = rng.normal(size=(101, 1, 1))
        dz0 = rng.normal(size=5)
        za = simulate_latent(obs, y, 0.05)[:, 0]
        zb = oracle_latent(obs, y[:, 0], 0.05, z0=dz0)
        diff = zb - za
        # RK4 on a diagonal linear system applies the degree-4 Taylor factor
        lam = np.diag(obs.A)
        factor = sum((lam * 0.05) ** k / math.factorial(k) for k in range(5))
        for step in (1, 10, 50, 100):
            expect = dz0 * factor**step
            assert np.allclose(diff[step], expect, atol=1e-12)

    def test_contraction_envelope_within_one_percent(self):
        obs = build_observer_matrices(2, 1)
        y = np.random.default_rng(1).normal(size=(201, 1, 1))
        dz0 = np.zeros(5)
        dz0[0] = 1.0  # slowest mode
        za = simulate_latent(obs, y, 0.05)[:, 0]
        zb = oracle_latent(obs, y[:, 0], 0.05, z0=dz0)
        ts = np.arange(201) * 0.05
        norms = np.linalg.norm(zb - za, axis=1)
        envelope = np.exp(-ts) * np.linalg.norm(dz0)
        assert np.all(norms <= envelope * 1.01)
        assert np.all(norms >= envelope * 0.99)

    def test_general_offset_decays_below_envelope(self):
        obs = build_observer_matrices(2, 1)
        y = np.random.default_rng(2).normal(size=(201, 1, 1))
        dz0 = np.array([0.5, -1.0, 2.0, 0.3, -0.7])
        za = simulate_latent(obs, y, 0.05)[:, 0]
        zb = oracle_latent(obs, y[:, 0], 0.05, z0=dz0)
        ts = np.arange(201) * 0.05
        norms = np.linalg.norm(zb - za, axis=1)
        assert np.all(norms <= np.exp(-ts) * np.linalg.norm(dz0) * 1.01)

    def test_injected_rollout_against_rk4_oracle(self):
        obs = build_observer_matrices(2, 1)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(41, 1))
        u = rng.normal(size=(41, 1))
        gain = rng.normal(size=(5, 1))
        # a state-independent injection is held over each step like y
        zs = np.concatenate(list(simulate_latent_injected(
            obs, y[:, None], 0.05, lambda z, k: u[k : k + 1] @ gain.T)))
        z = np.zeros(5)
        for k in range(40):
            c = obs.B @ y[k] + gain @ u[k]
            f = lambda zz: obs.A @ zz + c
            k1 = f(z)
            k2 = f(z + 0.025 * k1)
            k3 = f(z + 0.025 * k2)
            k4 = f(z + 0.05 * k3)
            z = z + (0.05 / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.allclose(zs[k + 1], z, atol=1e-13)

    @pytest.mark.parametrize("system", [duffing(), lorenz()])
    def test_a_time_major_block_filters_each_run_alone(self, system):
        # 7 noisy mixture runs as one (N+1, 7, n_y) block: column i is the
        # filter of run i alone, bit for bit
        obs = build_observer_matrices(system.n_x, system.n_y)
        ds = generate_dataset(system, "mixture", 7, seed=8, horizon=10.0)
        outputs = ds.trajectories.outputs
        zs = simulate_latent(obs, outputs.swapaxes(0, 1), ds.dt)
        assert zs.shape == (201, 7, obs.n_z)
        for i, y in enumerate(outputs):
            assert np.array_equal(zs[:, i], oracle_latent(obs, y, ds.dt))
            assert np.array_equal(zs[:, i],
                                  simulate_latent(obs, y[:, None], ds.dt)[:, 0])

    def test_a_non_finite_run_stops_the_block(self):
        obs = build_observer_matrices(2, 1)
        y = np.zeros((11, 3, 1))
        y[4, 1, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match="non-finite at step 5"):
            simulate_latent(obs, y, 0.05)

    def test_a_segment_rollout_is_the_same_taped_or_not(self):
        # static training rolls out a segment from step k0, calling the
        # injection at the run's absolute step; with a ParamStore ξ the
        # states are plain arrays, with ParamVars tape nodes of the same
        # values, bit for bit
        obs = build_observer_matrices(2, 1)
        spec = build_injection_spec(obs.n_z, window=4, lstm_hidden=3,
                                    mlp_hidden=(5,))
        rng = np.random.default_rng(5)
        xi = init_injection_params(spec, 0)
        xi.data[:] = rng.normal(size=xi.data.shape) * 0.3
        y = rng.normal(size=(61, 1, 1))
        u = np.zeros((61, 1))
        u[20:, 0] = np.sin(0.3 * np.arange(41)) + 0.5  # zero windows first
        k0, seg = 7, 40
        inject = make_step_injection(xi, spec, u)
        untaped = list(simulate_latent_injected(
            obs, y[k0 : k0 + seg + 1], 0.05, inject, k0))
        assert not any(ad.is_var(z) for z in untaped)
        plain = np.concatenate(untaped)

        def oracle_inject(z, k):
            inj = inject(z[None], k0 + k)
            return 0.0 if inj is None else inj[0]

        assert np.allclose(plain, oracle_latent(obs, y[k0 : k0 + seg + 1, 0],
                                                0.05, inject=oracle_inject),
                           rtol=0.0, atol=1e-13)
        pv = param_vars(xi)
        taped = list(simulate_latent_injected(
            obs, y[k0 : k0 + seg + 1], 0.05, make_step_injection(pv, spec, u),
            k0))
        assert [ad.is_var(z) for z in taped] == [False] * 14 + [True] * 27
        assert np.array_equal(np.concatenate([ad.val(z) for z in taped]),
                              plain)
        tail = ad.concat(taped[-5:])
        ad.backward(ad.sum_all(ad.mul(tail, tail)))
        assert np.any(pv.grads().data != 0.0)

    def test_the_plain_filter_makes_no_autodiff_call(self, monkeypatch):
        obs = build_observer_matrices(2, 1)
        y = np.random.default_rng(6).normal(size=(41, 3, 1))
        expected = simulate_latent(obs, y, 0.05)

        def tape_call(*args, **kwargs):
            raise AssertionError("the plain latent filter called autodiff")

        for name in ("add", "mul", "matmul", "val"):
            monkeypatch.setattr(kkl.ad, name, tape_call)
        assert np.array_equal(simulate_latent(obs, y, 0.05), expected)

    def test_plain_filter_holds_its_output_and_o1_per_step(self):
        # each state goes straight into the stacked output and B y_k is
        # formed a step at a time, so beyond the output the filter holds
        # one step's arrays whatever the run's length; a list of per-step
        # states and a whole-run B y would add about 2·count·n_z floats
        # a step and an array header, 840 KB more at 2048 steps than at 512
        obs = build_observer_matrices(3, 1)
        rng = np.random.default_rng(4)
        beyond = []
        for steps in (512, 2048):
            y = rng.normal(size=(steps + 1, 4, 1))
            zs, peak = traced_peak(simulate_latent, obs, y, 0.05)
            beyond.append(peak - zs.nbytes)
        assert beyond[1] - beyond[0] <= 2048
        assert beyond[1] <= 16 * 1024

    def test_contracts(self):
        obs = build_observer_matrices(2, 1)
        # one run is a count-1 block; its bare (N+1, n_y) outputs are refused
        for y in (np.zeros((10, 1)), np.zeros(10)):
            with pytest.raises(ContractViolation, match="block"):
                simulate_latent(obs, y, 0.05)
        with pytest.raises(ContractViolation, match=r"got shape \(10, 3, 2\)"):
            simulate_latent(obs, np.zeros((10, 3, 2)), 0.05)
        with pytest.raises(ContractViolation):
            simulate_latent(obs, np.zeros((10, 1, 1)), -0.1)


class TestMaps:
    def test_zero_parameter_maps(self):
        maps = make_maps(2, 5, hidden=(8,))
        theta = ParamStore(encoder_layout(maps))
        phi = ParamStore(decoder_layout(maps))
        x = np.array([[0.3, -0.4]])
        assert np.all(encode(maps, theta, x) == 0.0)
        assert np.all(decode(maps, phi, np.ones((1, 5))) == 0.0)

    def test_dimension_contracts(self):
        maps = make_maps(2, 5, hidden=(8,))
        theta, _ = init_map_params(maps, seed=0)
        with pytest.raises(ContractViolation):
            encode(maps, theta, np.zeros((1, 3)))
        with pytest.raises(ContractViolation):
            KklMaps(
                enc=MlpSpec(widths=(2, 4, 5)), dec=MlpSpec(widths=(4, 4, 2))
            )

    def test_roundtrip_error_is_the_reconstruction_integrand(self):
        maps = make_maps(2, 5, hidden=(8,))
        theta, phi = init_map_params(maps, seed=1)
        x = np.random.default_rng(4).uniform(-1, 1, size=(16, 2))
        xhat = decode(maps, phi, encode(maps, theta, x))
        by_hand = float(np.mean(np.sum((x - xhat) ** 2, axis=1)))
        loss = reconstruction_loss(maps, theta, phi, x)
        assert float(ad.val(loss)) == pytest.approx(by_hand, rel=1e-12)


class TestResiduals:
    def test_manufactured_solution_residual_below_1e10(self):
        sys = linear_test_system()
        obs, c = analytic_linear_observer()
        maps, theta, phi = analytic_linear_maps(c)
        x = np.linspace(-1, 1, 21)[:, None]
        loss = autonomous_pde_residual(maps, theta, obs, sys, x)
        assert float(ad.val(loss)) < 1e-10

    def test_zero_maps_zero_state(self):
        sys = linear_test_system()
        obs, _ = analytic_linear_observer()
        maps = make_maps(1, 3, hidden=(4,))
        theta = ParamStore(encoder_layout(maps))
        loss = autonomous_pde_residual(maps, theta, obs, sys, np.zeros((1, 1)))
        assert float(ad.val(loss)) == 0.0

    def test_residual_gradient_passes_grad_check(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(6,))
        theta, _ = init_map_params(maps, seed=3)
        x = np.random.default_rng(5).uniform(-1, 1, size=(4, 2))

        def loss(p):
            return autonomous_pde_residual(maps, p, obs, sys, x)

        assert grad_check(loss, theta, eps=1e-6) < 1e-5

    def test_residual_makes_two_row_passes_per_layer(self, monkeypatch):
        # the value and one tangent, not the value and n_x = 3 columns
        sys = lorenz()
        obs = build_observer_matrices(3, 1)
        maps = make_maps(3, obs.n_z, hidden=(6, 5))
        theta, _ = init_map_params(maps, seed=2)
        x = np.random.default_rng(20).uniform(-1, 1, size=(4, 3))
        deltas = random_weight_deltas(maps, 4, seed=21)
        rows = []
        real = nets.lowrank_linear

        def lowrank_linear(v, *args):
            rows.append(len(ad.val(v)))
            return real(v, *args)

        monkeypatch.setattr(nets, "lowrank_linear", lowrank_linear)
        dynamic_pde_residual_batch(maps, theta, obs, sys, x, np.zeros((4, 1)),
                                   deltas, deltas, dt=0.05)
        # two passes for the pre-window residual, one for the post encoding
        assert rows == [4] * (3 * maps.enc.n_layers)

    def test_dynamic_reduces_to_autonomous_at_zero_input(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(6,))
        theta, _ = init_map_params(maps, seed=6)
        x = np.array([[0.4, -0.2]])
        # equal windows before and after the step give equal deltas
        deltas = random_weight_deltas(maps, 1, seed=60)
        dyn, _ = dynamic_pde_residual_batch(
            maps, theta, obs, sys, x, np.zeros((1, 1)), deltas, deltas,
            dt=0.05,
        )
        auto = forced_stationary_residual(maps, theta, obs, sys, x, None,
                                          deltas)
        assert float(ad.val(dyn)) == float(ad.val(auto))

    def test_constant_input_reduces_to_forced_stationary(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(6,))
        theta, _ = init_map_params(maps, seed=7)
        x = np.array([[0.4, -0.2]])
        u = np.array([[0.6]])
        # a constant input's windows agree, and so do their deltas
        deltas = random_weight_deltas(maps, 1, seed=70)
        dyn, _ = dynamic_pde_residual_batch(
            maps, theta, obs, sys, x, u, deltas, deltas, dt=0.05,
        )
        forced = forced_stationary_residual(maps, theta, obs, sys, x, u, deltas)
        assert float(ad.val(dyn)) == float(ad.val(forced))

    def test_dynamic_residual_returns_the_pre_window_encoding(self):
        # the loss decodes this output instead of encoding x a second time
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(6,))
        theta, phi = init_map_params(maps, seed=8)
        x = np.random.default_rng(80).uniform(-1, 1, size=(4, 2))
        pre = random_weight_deltas(maps, 4, seed=81)
        post = random_weight_deltas(maps, 4, seed=82)
        _, t_pre = dynamic_pde_residual_batch(
            maps, theta, obs, sys, x, np.zeros((4, 1)), pre, post, dt=0.05,
        )
        assert np.array_equal(t_pre, encode(maps, theta, x, weight_deltas=pre))
        assert (reconstruction_loss(maps, theta, phi, x, z=t_pre)
                == reconstruction_loss(maps, theta, phi, x, enc_deltas=pre))

    def test_finite_difference_matches_linear_parameter_drift(self):
        # theta(t) = theta0 + t*d: the window finite difference must match
        # the analytic parameter-directional derivative to O(dt)
        maps = make_maps(2, 5, hidden=(6,))
        theta, _ = init_map_params(maps, seed=8)
        rng = np.random.default_rng(9)
        d = ParamStore(theta.layout, rng.normal(size=theta.layout.total) * 0.3)
        x = rng.uniform(-1, 1, size=(3, 2))

        analytic = np.zeros((3, 5))
        for s in range(3):
            for i in range(5):
                pv = param_vars(theta)
                out = encode(maps, pv, x[s : s + 1])
                ad.backward(ad.sum_all(ad.narrow(out, 1, i, 1)))
                analytic[s, i] = pv.grads().data @ d.data

        def fd_error(dt):
            shifted = ParamStore(theta.layout, theta.data + dt * d.data)
            fd = (encode(maps, shifted, x) - encode(maps, theta, x)) / dt
            return np.max(np.abs(fd - analytic))

        e1, e2 = fd_error(0.05), fd_error(0.025)
        assert 1.7 <= e1 / e2 <= 2.3

    def test_vector_field_normalization_scales_residual(self):
        # scaling f, A and B by s multiplies the raw residual by s; dividing
        # the residual by s recovers the original loss exactly
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(6,))
        theta, _ = init_map_params(maps, seed=10)
        x = np.random.default_rng(11).uniform(-1, 1, size=(5, 2))
        s = 3.7
        scaled_sys = SystemSpec(
            name="scaled", n_x=2, n_y=1, m=1,
            f=lambda xx, uu: s * sys.f(xx, uu), h=sys.h, domain=sys.domain,
        )
        scaled_obs = ObserverMatrices(A=s * obs.A, B=s * obs.B, n_z=obs.n_z)
        base = autonomous_pde_residual(maps, theta, obs, sys, x)
        scaled = autonomous_pde_residual(
            maps, theta, scaled_obs, scaled_sys, x, f_scale=s
        )
        assert float(ad.val(scaled)) == pytest.approx(
            float(ad.val(base)), rel=1e-12
        )


class TestManufacturedObserver:
    def test_estimate_error_decays_like_envelope(self):
        sys = linear_test_system()
        obs, c = analytic_linear_observer()
        maps, theta, phi = analytic_linear_maps(c)
        dt = 0.005
        runs = simulate(sys, np.array([[0.8]]), None, dt, 10.0, 0.0, seed=0)
        zs = simulate_latent(obs, runs.outputs[0][:, None], dt)[:, 0]
        xhat = decode(maps, phi, zs)
        err = np.abs(runs.states[0, :, 0] - xhat[:, 0])
        ts = runs.times
        k0 = int(0.5 / dt)
        c0 = err[k0] * math.exp(ts[k0])
        later = slice(k0, int(8.0 / dt))
        assert np.all(err[later] <= 1.05 * c0 * np.exp(-ts[later]) + 1e-12)
        assert err[int(8.0 / dt)] < 1e-5
