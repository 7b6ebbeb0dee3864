import numpy as np
import pytest

from conftest import (
    analytic_linear_maps,
    analytic_linear_observer,
    linear_test_system,
)

import hyperkkl.autodiff as ad
from hyperkkl import seeding
from hyperkkl.data import generate_dataset
from hyperkkl.dynamics import duffing, van_der_pol
from hyperkkl.errors import ContractViolation
from hyperkkl.hypernet import build_hypernet_spec, build_injection_spec
from hyperkkl.kkl import (
    build_observer_matrices,
    decode,
    encode,
    init_map_params,
    make_maps,
    reconstruction_loss,
)
from hyperkkl.optim import AdamState, adam_step, clip_grad_norm, global_norm
from hyperkkl.params import ParamVars
from hyperkkl.training import (
    CurriculumConfig,
    TrainConfig,
    curriculum_train,
    latent_targets,
    normalize_vector_field,
    phase1_train,
    phase2_train,
    plateau_detect,
    store_hash,
    total_loss,
)


def tiny_dataset(system, regime, count=3, seed=1, horizon=5.0, sigma=0.0):
    return generate_dataset(system, regime, count, seed, dt=0.05,
                            horizon=horizon, sigma=sigma)


def tiny_setup(system, hidden=(12,), seed=2):
    obs = build_observer_matrices(system.n_x, system.n_y)
    maps = make_maps(system.n_x, obs.n_z, hidden=hidden)
    theta, phi = init_map_params(maps, seed)
    return obs, maps, theta, phi


class TestConfigs:
    def test_invariants(self):
        with pytest.raises(ContractViolation):
            TrainConfig(lam=-0.1)
        with pytest.raises(ContractViolation):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(ContractViolation):
            CurriculumConfig(epsilon=1.5)
        with pytest.raises(ContractViolation):
            CurriculumConfig(patience=0)


class TestNormalization:
    def test_small_drift_is_identity(self):
        f = np.array([[0.3, 0.4], [0.0, 1.0]])
        scaled, s = normalize_vector_field(f)
        assert s == 1.0
        assert np.array_equal(scaled, f)

    def test_percentile_against_sorted_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(200, 3)) * 5
        norms = np.sort(np.sqrt(np.sum(f**2, axis=1)))
        # linear-interpolation percentile, written out by hand
        pos = 0.95 * (len(norms) - 1)
        lo = int(np.floor(pos))
        expected = norms[lo] + (pos - lo) * (norms[lo + 1] - norms[lo])
        _, s = normalize_vector_field(f)
        assert s == pytest.approx(max(1.0, expected), rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ContractViolation):
            normalize_vector_field(np.zeros((0, 2)))


class TestPlateau:
    def test_halving_is_not_a_plateau(self):
        assert not plateau_detect([1.0, 0.5, 0.25, 0.125], 0.01, 3)

    def test_constant_is_a_plateau(self):
        assert plateau_detect([0.7, 0.7, 0.7, 0.7, 0.7], 0.01, 3)

    def test_hand_evaluated_history(self):
        hist = [1.0, 0.5, 0.499, 0.4989, 0.49889]
        assert plateau_detect(hist, 0.01, 3)

    def test_insufficient_history(self):
        with pytest.raises(ContractViolation):
            plateau_detect([1.0, 0.9], 0.01, 3)


class TestTotalLoss:
    def test_lambda_zero_is_pure_reconstruction(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        x = np.random.default_rng(1).uniform(-1, 1, (8, 2))
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, 0.0)
        assert float(ad.val(total)) == float(ad.val(rec))
        assert pde == 0.0
        assert float(ad.val(rec)) == float(
            ad.val(reconstruction_loss(maps, theta, phi, x))
        )

    def test_perfect_analytic_maps_give_vanishing_loss(self):
        sys = linear_test_system()
        obs, c = analytic_linear_observer()
        maps, theta, phi = analytic_linear_maps(c)
        x = np.linspace(-1, 1, 32)[:, None]
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, lam=0.1)
        assert float(ad.val(total)) < 1e-10

    def test_batch_permutation_invariance(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (16, 2))
        perm = rng.permutation(16)
        a = float(ad.val(total_loss(maps, theta, phi, obs, sys, x, 0.1)[0]))
        b = float(ad.val(total_loss(maps, theta, phi, obs, sys, x[perm], 0.1)[0]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_decomposition_identity(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        x = np.random.default_rng(3).uniform(-1, 1, (8, 2))
        lam = 0.37
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, lam)
        assert float(ad.val(total)) == float(ad.val(rec)) + lam * float(ad.val(pde))


class TestLatentTargets:
    def test_shapes_and_discard(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        ds = tiny_dataset(sys, "zero", count=2, horizon=5.0, sigma=0.01)
        xs, zs = latent_targets(sys, obs, ds.trajectories)
        n_keep = 101 - int(np.ceil(0.2 * 101))
        assert xs.shape == (2 * n_keep, 2)
        assert zs.shape == (2 * n_keep, 5)

    def test_rejects_forced_data(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        ds = tiny_dataset(sys, "constant", count=1)
        with pytest.raises(ContractViolation):
            latent_targets(sys, obs, ds.trajectories)


class TestPhase1:
    def make_run(self, seed=5):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=3)
        ds = tiny_dataset(sys, "zero", count=3, horizon=5.0, sigma=0.0)
        config = TrainConfig(epochs=25, batch=32, collocation=32, seed=seed)
        result = phase1_train(
            sys, obs, maps, theta, phi, ds.trajectories, config
        )
        return result, maps, obs, sys

    def test_runs_and_logs(self):
        result, maps, obs, sys = self.make_run()
        assert len(result.log) == 50  # both stages
        assert result.abort is None
        assert result.f_scale >= 1.0
        assert all(np.isfinite(r.loss_rec) for r in result.log)
        assert all(r.grad_norm <= 1.0 + 1e-12 for r in result.log)

    def test_loss_decreases(self):
        result, *_ = self.make_run()
        first = result.log[0].loss_rec
        last = result.log[24].loss_rec
        assert last < first

    def test_bitwise_determinism(self):
        a, *_ = self.make_run(seed=5)
        b, *_ = self.make_run(seed=5)
        assert store_hash(a.theta) == store_hash(b.theta)
        assert store_hash(a.phi) == store_hash(b.phi)
        c, *_ = self.make_run(seed=6)
        assert store_hash(a.theta) != store_hash(c.theta)


class TestPhase2Dynamic:
    def make_run(self, seed=7):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=4)
        ds = tiny_dataset(sys, "sinusoid", count=3, horizon=5.0, sigma=0.0)
        spec = build_hypernet_spec(maps, window=8, lstm_hidden=6, rank=3)
        config = TrainConfig(epochs=15, batch=16, seed=seed, lam=0.1)
        result = phase2_train(
            sys, obs, maps, theta, phi, spec, ds.trajectories, config,
            "dynamic", f_scale=2.0,
        )
        return result, theta, phi

    def test_base_stays_frozen(self):
        result, theta, phi = self.make_run()
        assert result.base_hash_before == result.base_hash_after
        assert result.abort is None
        assert len(result.log) == 15

    def test_determinism(self):
        a, *_ = self.make_run(seed=7)
        b, *_ = self.make_run(seed=7)
        assert store_hash(a.params) == store_hash(b.params)

    def test_training_moves_parameters(self):
        result, *_ = self.make_run()
        assert np.any(result.params.data != 0.0)

    def test_spec_variant_mismatch(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys)
        spec = build_injection_spec(obs.n_z, 8, 4, (6,))
        ds = tiny_dataset(sys, "sinusoid", count=1, horizon=2.0)
        with pytest.raises(ContractViolation):
            phase2_train(sys, obs, maps, theta, phi, spec, ds.trajectories,
                         TrainConfig(epochs=1), "dynamic")


class TestPhase2Static:
    def make_run(self, seed=8):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=5)
        ds = tiny_dataset(sys, "constant", count=2, horizon=4.0, sigma=0.0)
        spec = build_injection_spec(obs.n_z, window=6, lstm_hidden=4,
                                    mlp_hidden=(8,))
        config = TrainConfig(epochs=8, seed=seed, segment_steps=30,
                             segment_discard=10, segment_batch=2)
        result = phase2_train(
            sys, obs, maps, theta, phi, spec, ds.trajectories, config, "static"
        )
        return result

    def test_runs_frozen_and_deterministic(self):
        a = self.make_run()
        assert a.base_hash_before == a.base_hash_after
        assert a.abort is None
        assert len(a.log) == 8
        b = self.make_run()
        assert store_hash(a.params) == store_hash(b.params)

    def test_training_moves_parameters(self):
        spec = build_injection_spec(5, window=6, lstm_hidden=4, mlp_hidden=(8,))
        from hyperkkl.hypernet import init_injection_params

        fresh = init_injection_params(spec, 8)
        result = self.make_run()
        assert store_hash(result.params) != store_hash(fresh)


class TestCurriculum:
    def make_levels(self, sys):
        return [
            tiny_dataset(sys, "constant", count=2, seed=10).trajectories,
            tiny_dataset(sys, "sinusoid", count=2, seed=20).trajectories,
        ]

    def test_levels_advance_in_order(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=6)
        result = curriculum_train(
            sys, obs, maps, theta, phi.copy(), self.make_levels(sys),
            TrainConfig(epochs=1, batch=32, seed=9),
            CurriculumConfig(epsilon=0.01, patience=5, level_epochs=20),
        )
        assert [lvl for lvl, _ in result.transitions] == [1, 2]
        starts = [e for _, e in result.transitions]
        assert starts == sorted(starts)
        levels_seen = [r.level for r in result.log]
        assert levels_seen == sorted(levels_seen)  # never skips back
        assert store_hash(theta) == store_hash(theta)  # encoder untouched

    def test_single_level_equals_plain_fine_tuning(self):
        sys = van_der_pol()
        obs, maps, theta, phi0 = tiny_setup(sys, hidden=(10,), seed=7)
        level = tiny_dataset(sys, "constant", count=2, seed=11).trajectories
        config = TrainConfig(epochs=1, batch=32, seed=12)
        schedule = CurriculumConfig(epsilon=1e-9, patience=10, level_epochs=15)
        result = curriculum_train(
            sys, obs, maps, theta, phi0.copy(), [level], config, schedule
        )

        # independent plain loop with the same draws and update rule
        from hyperkkl.kkl import simulate_latent

        phi = phi0.copy()
        batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
        state = AdamState.for_params(phi)
        zs, xs = [], []
        for tr in level:
            z = simulate_latent(obs, tr.outputs, tr.dt)
            k0 = int(np.ceil(0.2 * len(z)))
            zs.append(z[k0:])
            xs.append(tr.states[k0:])
        z_data, x_data = np.concatenate(zs), np.concatenate(xs)
        for _ in range(15):
            idx = batch_rng.integers(0, len(x_data), size=32)
            pv = ParamVars(phi)
            diff = ad.sub(decode(maps, pv, z_data[idx]), x_data[idx])
            loss = ad.mul(ad.sum_all(ad.mul(diff, diff)), 1.0 / 32)
            ad.backward(loss)
            grads = clip_grad_norm(pv.grads(), config.clip_norm)
            adam_step(state, phi, grads, lr=config.lr)
        assert store_hash(result.phi) == store_hash(phi)

    def test_plateau_cuts_level_short(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=8)
        result = curriculum_train(
            sys, obs, maps, theta, phi.copy(), self.make_levels(sys),
            TrainConfig(epochs=1, batch=32, seed=13, lr=1e-9),  # frozen loss
            CurriculumConfig(epsilon=0.5, patience=3, level_epochs=50),
        )
        level1 = [r for r in result.log if r.level == 1]
        assert len(level1) < 50  # plateaued early

    def test_needs_levels(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys)
        with pytest.raises(ContractViolation):
            curriculum_train(sys, obs, maps, theta, phi, [],
                             TrainConfig(epochs=1), CurriculumConfig())
