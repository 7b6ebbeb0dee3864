import dataclasses
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    analytic_linear_maps,
    init_map_params,
    poison_backward,
    analytic_linear_observer,
    copy_store,
    dense_linear_grads,
    linear_test_system,
    make_store,
    oracle_latent_targets,
)

import hyperkkl.autodiff as ad
from hyperkkl import nets, seeding, training
from hyperkkl.config import SETTINGS
from hyperkkl.data import generate_dataset
from hyperkkl.dynamics import SystemSpec, duffing, van_der_pol
from hyperkkl.errors import ContractViolation, NumericError
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    init_hypernet_params,
    init_injection_params,
)
from hyperkkl.kkl import (
    autonomous_pde_residual,
    build_observer_matrices,
    decode,
    make_maps,
    reconstruction_loss,
)
from hyperkkl.optim import AdamState, adam_step, clip_grad_norm
from hyperkkl.params import ParamVars
from hyperkkl.training import (
    CurriculumConfig,
    _check_zero_input_gating,
    TrainConfig,
    compute_f_scale,
    curriculum_train,
    latent_targets,
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
        for setting, value in [
            ("lam", np.nan), ("lam", np.inf), ("clip_norm", np.nan),
            ("lr", -1.0), ("lr", 0.0), ("lr", np.nan), ("lr", np.inf),
            ("collocation", 0), ("segment_steps", 0), ("segment_batch", 0),
            ("segment_discard", -5),
        ]:
            name = {"lam": "lambda", "clip_norm": "clip"}.get(setting, setting)
            with pytest.raises(ContractViolation, match=f"^{name} must be "):
                TrainConfig(**{setting: value})
        with pytest.raises(ContractViolation, match="^level_epochs must be "):
            CurriculumConfig(level_epochs=0)

    def test_defaults_are_the_settings_table(self):
        table = {row.name: row.default for row in SETTINGS
                 if "train" in row.commands}
        names = {"lam": "lambda", "clip_norm": "clip"}
        for cls in (TrainConfig, CurriculumConfig):
            for f in dataclasses.fields(cls):
                assert f.default == table[names.get(f.name, f.name)], f.name
        assert TrainConfig().seed == 7  # the CLI's train seed


class TestNormalization:
    """``compute_f_scale`` on a system whose drift is the state itself,
    so each state row is its own drift sample."""

    @staticmethod
    def scale(f):
        n_x = f.shape[1]
        system = SystemSpec(name="identity", n_x=n_x, n_y=1, m=0,
                            f=lambda x, u: x, h=lambda x: x[:, :1],
                            domain=np.tile([-1.0, 1.0], (n_x, 1)))
        return compute_f_scale(system, f)

    def test_small_drift_is_identity(self):
        assert self.scale(np.array([[0.3, 0.4], [0.0, 1.0]])) == 1.0

    def test_percentile_against_sorted_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(200, 3)) * 5
        norms = np.sort(np.sqrt(np.sum(f**2, axis=1)))
        # linear-interpolation percentile, written out by hand
        pos = 0.95 * (len(norms) - 1)
        lo = int(np.floor(pos))
        expected = norms[lo] + (pos - lo) * (norms[lo + 1] - norms[lo])
        assert self.scale(f) == pytest.approx(max(1.0, expected), rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ContractViolation, match="empty drift batch"):
            self.scale(np.zeros((0, 2)))


class TestPlateau:
    def test_halving_is_not_a_plateau(self):
        assert not plateau_detect([1.0, 0.5, 0.25, 0.125], 0.01, 3)

    def test_constant_is_a_plateau(self):
        assert plateau_detect([0.7, 0.7, 0.7, 0.7, 0.7], 0.01, 3)

    def test_hand_evaluated_history(self):
        hist = [1.0, 0.5, 0.499, 0.4989, 0.49889]
        assert plateau_detect(hist, 0.01, 3)

    def test_a_short_history_is_no_plateau(self):
        # the rule needs patience + 1 losses; fewer are not yet a plateau
        assert not plateau_detect([1.0, 0.9], 0.01, 3)
        assert not plateau_detect([0.7, 0.7, 0.7], 0.01, 3)
        assert plateau_detect([0.7, 0.7, 0.7, 0.7], 0.01, 3)


DT = 0.05  # the window step total_loss divides the encoder change by


class TestTotalLoss:
    def test_without_deltas_the_residual_is_the_stationary_one(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (8, 2))
        u = rng.uniform(-1, 1, (8, 1))
        _, _, pde = total_loss(maps, theta, phi, obs, sys, x, 0.1, DT,
                               u_now=u, f_scale=2.0)
        stationary = autonomous_pde_residual(maps, theta, obs, sys, x,
                                             u_batch=u, f_scale=2.0)
        assert float(ad.val(pde)) == float(ad.val(stationary))

    def test_lambda_zero_is_pure_reconstruction(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        x = np.random.default_rng(1).uniform(-1, 1, (8, 2))
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, 0.0, DT)
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
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, 0.1, DT)
        assert float(ad.val(total)) < 1e-10

    def test_batch_permutation_invariance(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (16, 2))
        perm = rng.permutation(16)
        a = float(ad.val(total_loss(maps, theta, phi, obs, sys, x, 0.1, DT)[0]))
        b = float(ad.val(
            total_loss(maps, theta, phi, obs, sys, x[perm], 0.1, DT)[0]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_decomposition_identity(self):
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        x = np.random.default_rng(3).uniform(-1, 1, (8, 2))
        lam = 0.37
        total, rec, pde = total_loss(maps, theta, phi, obs, sys, x, lam, DT)
        assert float(ad.val(total)) == float(ad.val(rec)) + lam * float(ad.val(pde))


    @pytest.mark.parametrize("term, store, lam", [
        ("reconstruction", "phi", 0.0), ("physics", "theta", 0.1)])
    def test_a_non_finite_term_is_named(self, term, store, lam):
        # every term is one mean square with one message; total_loss
        # names the term
        sys = duffing()
        obs, maps, theta, phi = tiny_setup(sys)
        {"theta": theta, "phi": phi}[store].data[0] = np.nan
        x = np.random.default_rng(5).uniform(-1, 1, (8, 2))
        with pytest.raises(NumericError,
                           match=f"^{term} component: loss is non-finite$"), \
                np.errstate(all="ignore"):
            total_loss(maps, theta, phi, obs, sys, x, lam, DT)

class TestLatentTargets:
    def test_shapes_and_discard(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        ds = tiny_dataset(sys, "zero", count=2, horizon=5.0, sigma=0.01)
        xs, zs = latent_targets(sys, obs, [ds.trajectories])
        n_keep = 101 - int(np.ceil(0.2 * 101))
        assert xs.shape == (2 * n_keep, 2)
        assert zs.shape == (2 * n_keep, 5)

    def test_rejects_forced_data(self):
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        ds = tiny_dataset(sys, "constant", count=1)
        with pytest.raises(ContractViolation):
            latent_targets(sys, obs, [ds.trajectories])

    def test_one_simulate_call_per_time_grid(self, monkeypatch):
        # two zero datasets of different horizons, as phase 1 takes them:
        # each set is re-simulated in one call, in order, and the pairs are
        # those of one trajectory at a time
        sys = duffing()
        obs = build_observer_matrices(2, 1)
        sets = [
            tiny_dataset(sys, "zero", count=2, seed=1, horizon=2.0,
                         sigma=0.01).trajectories,
            tiny_dataset(sys, "zero", count=3, seed=3, horizon=3.0,
                         sigma=0.01).trajectories]
        grids = []
        real = training.simulate

        def spy(system, x0, *args):
            out = real(system, x0, *args)
            grids.append((len(x0), len(out.times)))
            return out

        monkeypatch.setattr(training, "simulate", spy)
        xs, zs = latent_targets(sys, obs, sets)
        assert grids == [(2, 41), (3, 61)]
        want_xs, want_zs = oracle_latent_targets(sys, obs, sets)
        assert np.array_equal(xs, want_xs)
        assert np.array_equal(zs, want_zs)


class TestPhase1:
    def make_run(self, seed=5):
        sys = duffing()
        obs, maps, *_ = tiny_setup(sys, hidden=(10,))
        ds = tiny_dataset(sys, "zero", count=3, horizon=5.0, sigma=0.0)
        config = TrainConfig(epochs=25, batch=32, collocation=32, seed=seed)
        result = phase1_train(sys, obs, maps, [ds.trajectories], config)
        return result, maps, obs, sys

    def test_runs_and_logs(self):
        result, maps, obs, sys = self.make_run()
        assert len(result.log) == 50  # both stages
        assert result.abort is None
        assert result.f_scale >= 1.0
        assert all(np.isfinite(r.loss_rec) for r in result.log)
        assert all(np.isfinite(r.grad_norm) and r.grad_norm > 0.0
                   for r in result.log)

    def test_loss_decreases(self):
        result, *_ = self.make_run()
        first = result.log[0].loss_rec
        last = result.log[24].loss_rec
        assert last < first

    def test_trains_on_two_time_grids(self):
        sys = duffing()
        obs, maps, *_ = tiny_setup(sys, hidden=(10,))
        sets = [
            tiny_dataset(sys, "zero", count=2, seed=1, horizon=2.0).trajectories,
            tiny_dataset(sys, "zero", count=2, seed=3,
                         horizon=3.0).trajectories]
        config = TrainConfig(epochs=5, batch=32, collocation=32, seed=5)
        result = phase1_train(sys, obs, maps, sets, config)
        assert len(result.log) == 10 and result.abort is None
        assert sets == []  # phase 1 lets the data go once it has its targets

    def test_decoder_stage_holds_no_encoder_state_or_z_labels(
            self, monkeypatch):
        # phase 1's decoder stage reads the x data and the frozen θ; by
        # its first step the encoder's Adam state (m, v and the gradient
        # buffer) and the z labels are gone
        refs, alive = {}, []
        real_targets, real_step = training.latent_targets, training.adam_step

        def latent_targets(*args):
            xs, zs = real_targets(*args)
            refs["z labels"] = weakref.ref(zs)
            return xs, zs

        def adam_step(state, params, grads, **kw):
            if "encoder" not in refs:
                refs["encoder"] = params
                refs.update({name: weakref.ref(array) for name, array in
                             (("m", state.m), ("v", state.v),
                              ("gradient", grads.data))})
            elif params is not refs["encoder"]:
                alive.append([name for name, ref in refs.items()
                              if name != "encoder" and ref() is not None])
            return real_step(state, params, grads, **kw)

        monkeypatch.setattr(training, "latent_targets", latent_targets)
        monkeypatch.setattr(training, "adam_step", adam_step)
        result, *_ = self.make_run()
        assert result.abort is None
        assert alive == [[]] * 25

    def test_bitwise_determinism(self):
        a, *_ = self.make_run(seed=5)
        b, *_ = self.make_run(seed=5)
        assert store_hash(a.theta) == store_hash(b.theta)
        assert store_hash(a.phi) == store_hash(b.phi)
        c, *_ = self.make_run(seed=6)
        assert store_hash(a.theta) != store_hash(c.theta)


class TestEpochStep:
    def test_logs_the_gradient_norm_before_clipping(self):
        sys = duffing()
        obs, maps, theta, _ = tiny_setup(sys, hidden=(10,), seed=3)
        x = np.random.default_rng(30).uniform(-1, 1, size=(16, 2))

        def step(pv):
            loss = autonomous_pde_residual(maps, pv, obs, sys, x)
            return loss, loss, loss

        pv = ParamVars(copy_store(theta))
        ad.backward(step(pv)[0])
        expect = float(np.sqrt(np.sum(pv.grads().data ** 2)))
        clip = 1e-3
        assert expect > clip  # so the clip fires
        row = training._Fit(theta, TrainConfig(clip_norm=clip)).epoch(1, step)
        assert row.grad_norm == expect

    def test_a_run_holds_three_copies_of_the_parameters(self):
        # Adam's m and v and the gradient buffer; no rollback copy
        n = 1 << 18
        store = make_store([("w", np.ones(n))])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run = training._Fit(store, TrainConfig())
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert run.state.m.size == n
        assert grown <= 3 * n * 8 + 64 * 1024


def test_store_hash_is_the_sha256_of_the_values():
    store = make_store([("w", np.random.default_rng(8).normal(size=(7, 3))),
                        ("b", np.array([-0.0, np.pi]))])
    assert store_hash(store) == hashlib.sha256(store.data.tobytes()).hexdigest()


class TestPhase2Dynamic:
    def make_run(self, seed=7):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=4)
        ds = tiny_dataset(sys, "sinusoid", count=3, horizon=5.0, sigma=0.0)
        spec = build_hypernet_spec(maps, window=8, lstm_hidden=6, rank=3)
        config = TrainConfig(epochs=15, batch=16, seed=seed, lam=0.1)
        before = [store_hash(s) for s in (theta, phi)]
        result = phase2_train(
            sys, obs, maps, theta, phi, spec, [ds.trajectories], config,
            f_scale=2.0,
        )
        return result, before, [store_hash(s) for s in (theta, phi)]

    def test_base_stays_frozen(self):
        result, before, after = self.make_run()
        assert before == after
        assert result.abort is None
        assert len(result.log) == 15

    def test_determinism(self):
        a, *_ = self.make_run(seed=7)
        b, *_ = self.make_run(seed=7)
        assert store_hash(a.params) == store_hash(b.params)

    def test_training_moves_parameters(self):
        result, *_ = self.make_run()
        assert np.any(result.params.data != 0.0)

    def run_readouts(self, monkeypatch, keep_factors, clip):
        """A 2-epoch run whose readouts U keep factored gradients or, with
        ``keep_factors`` False, dense ones in the buffer (the oracle
        ``dense_linear_grads``); its result and Adam state."""
        real, fits = training._Fit, []

        def fit(params, config, frozen=(), factored=()):
            fits.append(real(params, config, frozen,
                             factored if keep_factors else ()))
            return fits[-1]

        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=4)
        ds = tiny_dataset(sys, "sinusoid", count=3, horizon=5.0, sigma=0.0)
        spec = build_hypernet_spec(maps, window=8, lstm_hidden=6, rank=3)
        config = TrainConfig(epochs=2, batch=16, seed=7, clip_norm=clip)
        with monkeypatch.context() as m:
            m.setattr(training, "_Fit", fit)
            if not keep_factors:
                m.setattr(nets, "_linear_grads", dense_linear_grads)
            result = phase2_train(sys, obs, maps, theta, phi, spec,
                                  [ds.trajectories], config, f_scale=2.0)
        return result, fits[0].state

    @pytest.mark.parametrize("clip", [1e300, 1e-3])
    def test_factored_readouts_step_as_the_dense_ones(self, monkeypatch,
                                                      clip):
        dense, dense_state = self.run_readouts(monkeypatch, False, clip)
        got, state = self.run_readouts(monkeypatch, True, clip)
        # the buffer has no room for any U_l; only ψ, m and v are ψ-sized
        readouts = [sl for sl in got.params.layout.slices
                    if "_head.U" in sl.name]
        assert len(readouts) == 4  # two layers in each head's map
        size = sum(sl.size for sl in readouts)
        assert state.grad.data.size == got.params.data.size - size
        assert len(got.log) == len(dense.log) == 2
        for row, want in zip(got.log, dense.log):
            assert row.grad_norm == pytest.approx(want.grad_norm, rel=1e-13)
            assert (row.grad_norm > clip) == (clip < 1.0)
        pairs = ((got.params.data, dense.params.data),
                 (state.m, dense_state.m), (state.v, dense_state.v))
        for a, b in pairs:
            if clip > 1.0:  # no clip: every U gradient entry is the dense one
                assert a.tobytes() == b.tobytes()
            else:  # the clip factor differs in its last bits
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_zero_input_check_refuses_a_nan_context(self):
        _, maps, *_ = tiny_setup(van_der_pol(), hidden=(10,))
        spec = build_hypernet_spec(maps, window=8, lstm_hidden=6, rank=3)
        psi = init_hypernet_params(spec, 7)
        _check_zero_input_gating(spec, psi)
        # gate 0 times a NaN context is NaN, not the exact zero training needs
        psi.set("hyper.lstm.b", np.full(4 * 6, np.nan))
        with pytest.raises(NumericError, match="zero-input gating"):
            _check_zero_input_gating(spec, psi)

    def test_refuses_a_non_spec(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys)
        ds = tiny_dataset(sys, "sinusoid", count=1, horizon=2.0)
        with pytest.raises(ContractViolation, match="got str"):
            phase2_train(sys, obs, maps, theta, phi, "dynamic",
                         [ds.trajectories], TrainConfig(epochs=1))

    def test_refuses_to_run_without_the_base_encoder(self):
        # only static phase 2 trains without θ
        sys = van_der_pol()
        obs, maps, _, phi = tiny_setup(sys, hidden=(10,))
        ds = tiny_dataset(sys, "sinusoid", count=1, horizon=2.0)
        spec = build_hypernet_spec(maps, window=8, lstm_hidden=6, rank=3)
        with pytest.raises(ContractViolation, match="base encoder"):
            phase2_train(sys, obs, maps, None, phi, spec,
                         [ds.trajectories], TrainConfig(epochs=1))


class TestPhase2Static:
    def make_run(self, seed=8):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=5)
        ds = tiny_dataset(sys, "constant", count=2, horizon=4.0, sigma=0.0)
        spec = build_injection_spec(obs.n_z, window=6, lstm_hidden=4,
                                    mlp_hidden=(8,))
        config = TrainConfig(epochs=8, seed=seed, segment_steps=30,
                             segment_discard=10, segment_batch=2)
        before = store_hash(phi)
        # the static variant never runs the encoder: no θ is passed
        result = phase2_train(
            sys, obs, maps, None, phi, spec, [ds.trajectories], config
        )
        return result, before, store_hash(phi)

    def test_runs_frozen_and_deterministic(self):
        a, before, after = self.make_run()
        assert before == after
        assert a.abort is None
        assert len(a.log) == 8
        b, *_ = self.make_run()
        assert store_hash(a.params) == store_hash(b.params)

    def test_training_moves_parameters(self):
        spec = build_injection_spec(5, window=6, lstm_hidden=4, mlp_hidden=(8,))
        fresh = init_injection_params(spec, 8)
        result, *_ = self.make_run()
        assert store_hash(result.params) != store_hash(fresh)

    @pytest.mark.parametrize("seg", [6, 10])
    def test_tape_holds_44_nodes_per_latent_step(self, monkeypatch, seg):
        # A live RK4 step tapes 4 derivatives of 8 nodes each (z Aᵀ, + B y,
        # concat [z, context row], narrow, 2 MLP layers, gate, + injection)
        # and 12 for the stage sums. The other 13 are the LSTM node, its 7
        # parameter leaves and 7 loss nodes (concat of the kept rows, 2
        # decoder layers, sub, mul, sum, mean), less the 2 plain arrays of
        # the first derivative at z0 = 0. A reshape per row would show here.
        sizes, backward = [], ad.backward

        def counted(root):
            seen, stack = {id(root)}, [root]
            while stack:
                for p in stack.pop()._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            sizes.append(len(seen))
            backward(root)

        monkeypatch.setattr(ad, "backward", counted)
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(6,), seed=5)
        ds = tiny_dataset(sys, "constant", count=1, horizon=2.0, sigma=0.0)
        spec = build_injection_spec(obs.n_z, window=4, lstm_hidden=3,
                                    mlp_hidden=(5,))
        config = TrainConfig(epochs=1, seed=1, segment_steps=seg,
                             segment_discard=2, segment_batch=1)
        phase2_train(sys, obs, maps, None, phi, spec, [ds.trajectories],
                     config)
        assert sizes == [13 + 44 * seg]


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
            obs, maps, copy_store(phi), self.make_levels(sys),
            TrainConfig(epochs=1, batch=32, seed=9),
            CurriculumConfig(epsilon=0.01, patience=5, level_epochs=20),
        )
        assert [lvl for lvl, _ in result.transitions] == [1, 2]
        starts = [e for _, e in result.transitions]
        assert starts == sorted(starts)
        levels_seen = [r.level for r in result.log]
        assert levels_seen == sorted(levels_seen)  # never skips back

    def test_single_level_equals_plain_fine_tuning(self):
        sys = van_der_pol()
        obs, maps, theta, phi0 = tiny_setup(sys, hidden=(10,), seed=7)
        level = tiny_dataset(sys, "constant", count=2, seed=11).trajectories
        config = TrainConfig(epochs=1, batch=32, seed=12)
        schedule = CurriculumConfig(epsilon=1e-9, patience=10, level_epochs=15)
        result = curriculum_train(
            obs, maps, copy_store(phi0), [level], config, schedule
        )

        # independent plain loop with the same draws and update rule
        from hyperkkl.kkl import simulate_latent

        phi = copy_store(phi0)
        batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
        state = AdamState.for_params(phi)
        zs, xs = [], []
        for y, states in zip(level.outputs, level.states):
            z = simulate_latent(obs, y[:, None], level.dt)[:, 0]
            k0 = int(np.ceil(0.2 * len(z)))
            zs.append(z[k0:])
            xs.append(states[k0:])
        z_data, x_data = np.concatenate(zs), np.concatenate(xs)
        for _ in range(15):
            idx = batch_rng.integers(0, len(x_data), size=32)
            pv = ParamVars(phi)
            diff = ad.sub(decode(maps, pv, z_data[idx]), x_data[idx])
            loss = ad.mul(ad.sum_all(ad.mul(diff, diff)), 1.0 / 32)
            ad.backward(loss)
            clip_grad_norm(pv.grads(), config.clip_norm)
            adam_step(state, phi, pv.grads(), lr=config.lr)
        assert store_hash(result.phi) == store_hash(phi)

    def test_plateau_cuts_level_short(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(10,), seed=8)
        result = curriculum_train(
            obs, maps, copy_store(phi), self.make_levels(sys),
            TrainConfig(epochs=1, batch=32, seed=13, lr=1e-9),  # frozen loss
            CurriculumConfig(epsilon=0.5, patience=3, level_epochs=50),
        )
        level1 = [r for r in result.log if r.level == 1]
        assert len(level1) < 50  # plateaued early

    def test_needs_levels(self):
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys)
        with pytest.raises(ContractViolation):
            curriculum_train(obs, maps, phi, [],
                             TrainConfig(epochs=1), CurriculumConfig())


class TestNonFiniteGradient:
    """The epoch policy every loop shares.

    An inf gradient aborts the run at its epoch, before its Adam step, so
    an abort at epoch k leaves the stores of a clean run stopped after
    k - 1 steps. A store the run holds frozen must not change.
    """

    def run(self, loop):
        """A tiny run of ``loop``: 3 epochs, or 3 per curriculum level."""
        sys = van_der_pol()
        obs, maps, theta, phi = tiny_setup(sys, hidden=(6,), seed=4)
        # a store the run holds frozen: static runs without θ, and phase 1
        # makes its own θ (the test's adam_step takes the first store)
        self.frozen = {"static": phi, "phase1": None}.get(loop, theta)
        config = TrainConfig(epochs=3, batch=8, collocation=8, seed=3,
                             segment_steps=12, segment_discard=4,
                             segment_batch=1)
        if loop == "phase1":
            ds = tiny_dataset(sys, "zero", count=2, horizon=2.0)
            result = phase1_train(sys, obs, maps, [ds.trajectories], config)
            return result, tuple(s for s in (result.theta, result.phi)
                                 if s is not None)
        if loop == "curriculum":
            levels = [tiny_dataset(sys, regime, count=2, seed=seed,
                                   horizon=2.0).trajectories
                      for regime, seed in (("constant", 10),
                                           ("sinusoid", 20))]
            result = curriculum_train(
                obs, maps, phi, levels, config,
                CurriculumConfig(level_epochs=3))
            return result, (result.phi,)
        ds = tiny_dataset(sys, "sinusoid", count=2, horizon=2.0)
        if loop == "dynamic":
            spec = build_hypernet_spec(maps, window=4, lstm_hidden=3, rank=2)
        else:
            spec = build_injection_spec(obs.n_z, window=4, lstm_hidden=3,
                                        mlp_hidden=(4,))
            theta = None
        result = phase2_train(sys, obs, maps, theta, phi, spec,
                              [ds.trajectories], config)
        return result, (result.params,)

    def clean_bytes(self, monkeypatch, loop, steps):
        """The store bytes of a clean run whose Adam stops after ``steps``."""
        real = training.adam_step
        taken = []

        def adam_step(state, params, grads, **kw):
            taken.append(None)
            if len(taken) > steps:
                return params
            return real(state, params, grads, **kw)

        with monkeypatch.context() as m:
            m.setattr(training, "adam_step", adam_step)
            return [s.data.tobytes() for s in self.run(loop)[1]]

    @pytest.mark.parametrize("loop, at_call", [
        ("phase1", 2), ("phase1", 5), ("static", 2), ("dynamic", 2),
        ("curriculum", 2),
        # the first epoch of level 2 keeps the last step of level 1
        ("curriculum", 4),
    ])
    def test_aborts_at_the_epoch(self, monkeypatch, loop, at_call):
        expected = self.clean_bytes(monkeypatch, loop, at_call - 1)
        one_step_back = self.clean_bytes(monkeypatch, loop, at_call - 2)
        poison_backward(monkeypatch, at_call)
        result, stores = self.run(loop)
        assert result.abort is not None
        assert result.abort.epoch == at_call
        assert result.abort.reason == "gradient norm is non-finite"
        assert [r.epoch for r in result.log] == list(range(1, at_call))
        if loop == "phase1" and at_call <= 3:
            # φ is made when the decoder stage starts: an abort in the
            # encoder stage leaves none
            assert result.phi is None
            expected, one_step_back = expected[:1], one_step_back[:1]
        assert all(np.all(np.isfinite(s.data)) for s in stores)
        assert [s.data.tobytes() for s in stores] == expected
        assert expected != one_step_back

    @pytest.mark.parametrize("loop", ["phase1", "static", "dynamic"])
    def test_a_changed_frozen_store_raises(self, monkeypatch, loop):
        # phase 1 trains the encoder first and then holds it frozen, as
        # dynamic phase 2 does; static holds the decoder frozen. The
        # curriculum trains the decoder and holds no store frozen.
        real = training.adam_step

        def adam_step(state, params, grads, **kw):
            if self.frozen is None:  # phase 1's encoder, frozen in stage 2
                self.frozen = params
            self.frozen.data[0] += 1.0
            return real(state, params, grads, **kw)

        monkeypatch.setattr(training, "adam_step", adam_step)
        with pytest.raises(NumericError, match="frozen"):
            self.run(loop)
