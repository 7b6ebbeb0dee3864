from pathlib import Path

import numpy as np
import pytest

from hyperkkl.checkpoints import (
    CheckpointBundle,
    read_checkpoint,
    write_checkpoint,
)
from hyperkkl.data import (
    generate_dataset,
    read_dataset,
    seed_ranges_overlap,
    trajectory_to_csv,
    write_dataset,
)
from hyperkkl.dynamics import (
    Trajectory,
    duffing,
    sample_initial_conditions,
    simulate,
    van_der_pol,
)
from hyperkkl.errors import ContractViolation
from hyperkkl.evaluation import run_observer
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    hypernet_layout,
    init_hypernet_params,
    init_injection_params,
)
from hyperkkl.kkl import build_observer_matrices, init_map_params, make_maps
from hyperkkl.signals import sample_signal

DATA = Path(__file__).parent / "data"


class TestGeneration:
    def test_seed_range_is_contiguous(self):
        ds = generate_dataset(duffing(), "zero", 5, 100, horizon=1.0)
        assert ds.seed_range == (100, 104)
        assert [tr.seed for tr in ds.trajectories] == [100, 101, 102, 103, 104]

    def test_overlap_predicate(self):
        assert seed_ranges_overlap((0, 10), (10, 20))
        assert not seed_ranges_overlap((0, 9), (10, 20))

    def test_batch_matches_single_trajectories(self):
        system = van_der_pol()
        ds = generate_dataset(system, "mixture", 6, 7, dt=0.05, horizon=2.0,
                              sigma=0.01)
        x0s = sample_initial_conditions(system, 6, 7)
        for i, tr in enumerate(ds.trajectories):
            one = simulate(system, x0s[i], sample_signal("mixture", 7 + i),
                           0.05, 2.0, 0.01, 7 + i)
            assert np.array_equal(tr.states, one.states)
            assert np.array_equal(tr.inputs, one.inputs)
            assert np.array_equal(tr.outputs, one.outputs)
            assert tr.signal == one.signal

    def test_regimes_record_signals(self):
        ds = generate_dataset(duffing(), "mixture", 4, 3, horizon=2.0)
        for tr in ds.trajectories:
            assert tr.signal.kind == "mixture"
            assert len(tr.signal.components) >= 2

    def test_zero_regime_zero_inputs(self):
        ds = generate_dataset(duffing(), "zero", 2, 3, horizon=1.0)
        for tr in ds.trajectories:
            assert np.all(tr.inputs == 0.0)


class TestDatasetFormat:
    @pytest.mark.parametrize("regime", ["zero", "constant", "sinusoid",
                                        "square", "mixture"])
    def test_roundtrip(self, tmp_path, regime):
        ds = generate_dataset(van_der_pol(), regime, 3, 11, horizon=2.0,
                              sigma=0.01)
        path = tmp_path / "set.hkkl"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.system.name == "vanderpol"
        assert back.regime == regime
        assert back.count == 3
        assert back.seed == 11
        assert back.dt == ds.dt and back.horizon == ds.horizon
        assert back.sigma == ds.sigma
        for a, b in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.outputs, b.outputs)
            if regime == "zero":
                assert b.signal is None
            else:
                assert a.signal == b.signal

    def test_write_is_deterministic(self, tmp_path):
        ds = generate_dataset(duffing(), "sinusoid", 2, 5, horizon=1.0)
        p1, p2 = tmp_path / "a.hkkl", tmp_path / "b.hkkl"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hkkl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ContractViolation):
            read_dataset(path)

    def test_csv_export(self, tmp_path):
        ds = generate_dataset(duffing(), "constant", 1, 5, horizon=1.0)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(ds.trajectories[0], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,u1,y1"
        assert len(lines) == 22  # header + 21 samples
        row = [float(v) for v in lines[1].split(",")]
        tr = ds.trajectories[0]
        assert row[0] == tr.times[0]
        assert row[1:3] == list(tr.states[0])
        assert row[3] == tr.inputs[0, 0]
        assert row[4] == tr.outputs[0, 0]


class TestCheckpointFormat:
    def build_bundle(self, variant="dynamic"):
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(9,))
        theta, phi = init_map_params(maps, 3)
        kw = {}
        if variant == "dynamic":
            spec = build_hypernet_spec(maps, window=7, lstm_hidden=5, rank=2,
                                       tau=0.02)
            psi = init_hypernet_params(spec, 4)
            psi.data[:] = np.random.default_rng(5).normal(size=psi.data.shape)
            kw = {"hyper_spec": spec, "psi": psi}
        elif variant == "static":
            spec = build_injection_spec(5, window=7, lstm_hidden=5,
                                        mlp_hidden=(8,), tau=0.02)
            xi = init_injection_params(spec, 6)
            kw = {"injection_spec": spec, "xi": xi}
        return CheckpointBundle(
            variant=variant, system_name="duffing", maps=maps, obs=obs,
            theta=theta, phi=phi, f_scale=2.5, train_seed_range=(1, 100), **kw,
        )

    @pytest.mark.parametrize("variant", ["autonomous", "dynamic", "static"])
    def test_roundtrip_bitwise(self, tmp_path, variant):
        bundle = self.build_bundle(variant)
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        back = read_checkpoint(path)
        assert back.variant == variant
        assert back.system_name == "duffing"
        assert back.f_scale == 2.5
        assert back.train_seed_range == (1, 100)
        assert np.array_equal(back.theta.data, bundle.theta.data)
        assert np.array_equal(back.phi.data, bundle.phi.data)
        assert np.array_equal(back.obs.A, bundle.obs.A)
        assert np.array_equal(back.obs.B, bundle.obs.B)
        assert back.theta.layout == bundle.theta.layout
        if variant == "dynamic":
            assert np.array_equal(back.psi.data, bundle.psi.data)
            assert back.hyper_spec == bundle.hyper_spec
        if variant == "static":
            assert np.array_equal(back.xi.data, bundle.xi.data)
            assert back.injection_spec == bundle.injection_spec
        # writing the reread bundle reproduces the file bitwise
        path2 = tmp_path / "ck2.hkkp"
        write_checkpoint(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_variant_requires_params(self):
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=(9,))
        theta, phi = init_map_params(maps, 3)
        with pytest.raises(ContractViolation):
            CheckpointBundle(
                variant="dynamic", system_name="duffing", maps=maps, obs=obs,
                theta=theta, phi=phi,
            )

    def test_reads_file_with_chunked_readout_slices(self):
        # Written by an earlier release that stored each head's U readout
        # as 7-row slices hyper.*_head.U0000, U0001, ... (tiny maps, rank
        # 2), with the run_observer estimate it gave on one trajectory.
        bundle = read_checkpoint(DATA / "dynamic_rank2_chunk7.hkkp")
        spec = bundle.hyper_spec
        assert bundle.psi.layout == hypernet_layout(spec)
        assert bundle.psi.get("hyper.dec_head.U").shape == (
            spec.dec_head.total, 2)
        with np.load(DATA / "dynamic_rank2_chunk7_estimate.npz") as ref:
            dt, u, y, xhat = (ref[k] for k in ("dt", "inputs", "outputs",
                                               "xhat"))
        n = len(y)
        tr = Trajectory(
            dt=float(dt), times=np.arange(n) * float(dt),
            states=np.zeros((n, 2)), inputs=u, outputs=y, x0=np.zeros(2),
            noise_sigma=0.0, seed=0,
        )
        assert np.array_equal(run_observer(bundle, tr), xhat)

    def test_hypernet_value_count_must_match_spec(self, tmp_path):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(self.build_bundle("dynamic"), path)
        blob = path.read_bytes()
        assert blob.count(b'"rank": 2') == 1
        path.write_bytes(blob.replace(b'"rank": 2', b'"rank": 3'))
        with pytest.raises(ContractViolation, match="hyper. block"):
            read_checkpoint(path)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hkkp"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ContractViolation):
            read_checkpoint(path)
