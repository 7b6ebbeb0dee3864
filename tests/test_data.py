import dataclasses
import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import init_map_params, oracle_simulate, raw_checkpoint

from hyperkkl.binfile import Reader
import hyperkkl.data as data
from hyperkkl.checkpoints import (
    CONDITIONING,
    META_KEYS,
    OBSERVER_SKIPS,
    STREAMED,
    CheckpointBundle,
    read_checkpoint,
    write_checkpoint,
)
from hyperkkl.data import (
    Dataset,
    generate_dataset,
    read_dataset,
    seed_ranges_overlap,
    trajectory_to_csv,
    write_dataset,
)
from hyperkkl.dynamics import (
    TrajectorySet,
    duffing,
    sample_initial_conditions,
    van_der_pol,
)
from hyperkkl.errors import ContractViolation
from hyperkkl.evaluation import run_observer
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    delta_store,
    gate_values,
    generate_deltas,
    hypernet_layout,
    init_hypernet_params,
    init_injection_params,
)
from hyperkkl.kkl import (
    build_observer_matrices,
    decode,
    make_maps,
    simulate_latent,
)
from hyperkkl.nets import IN_BLOCK
from hyperkkl.params import Layout, ParamStore
from hyperkkl.signals import InputSignal, sample_signal, window_matrix

DATA = Path(__file__).parent / "data"
CHUNKED = DATA / "dynamic_rank2_chunk7.hkkp"


def chunked_reference():
    """The one-run set and the run_observer estimate stored with CHUNKED."""
    with np.load(DATA / "dynamic_rank2_chunk7_estimate.npz") as ref:
        dt, u, y, xhat = (ref[k] for k in ("dt", "inputs", "outputs",
                                           "xhat"))
    n = len(y)
    runs = TrajectorySet(float(dt), np.arange(n) * float(dt),
                         np.zeros((1, n, 2)), u[None], y[None], (None,))
    return runs, xhat


class TestGeneration:
    def test_seed_range_is_contiguous(self):
        ds = generate_dataset(duffing(), "constant", 5, 100, horizon=1.0)
        assert ds.seed_range == (100, 104)
        assert ds.trajectories.signals == tuple(
            sample_signal("constant", s) for s in range(100, 105))

    def test_overlap_predicate(self):
        assert seed_ranges_overlap((0, 10), (10, 20))
        assert not seed_ranges_overlap((0, 9), (10, 20))

    def test_batch_matches_single_trajectories(self):
        system = van_der_pol()
        ds = generate_dataset(system, "mixture", 6, 7, dt=0.05, horizon=2.0,
                              sigma=0.01)
        x0s = sample_initial_conditions(system, 6, 7)
        runs = ds.trajectories
        for i in range(6):
            one = oracle_simulate(system, x0s[i],
                                  sample_signal("mixture", 7 + i), 0.05, 2.0,
                                  0.01, 7 + i)
            assert np.array_equal(runs.states[i], one.states[0])
            assert np.array_equal(runs.inputs[i], one.inputs[0])
            assert np.array_equal(runs.outputs[i], one.outputs[0])
            assert runs.signals[i] == one.signals[0]

    def test_regimes_record_signals(self):
        ds = generate_dataset(duffing(), "mixture", 4, 3, horizon=2.0)
        for sig in ds.trajectories.signals:
            assert sig.kind == "mixture"
            assert len(sig.components) >= 2

    def test_zero_regime_zero_inputs(self):
        ds = generate_dataset(duffing(), "zero", 2, 3, horizon=1.0)
        assert np.all(ds.trajectories.inputs == 0.0)
        assert ds.trajectories.signals == (InputSignal("zero"),) * 2

    def test_time_grid_is_stated_once(self):
        ds = generate_dataset(duffing(), "zero", 2, 3, horizon=2.0)
        assert ds.dt == ds.trajectories.dt == 0.05
        with pytest.raises(ContractViolation,
                           match="horizon 3.0 at dt 0.05 gives 60 steps, "
                                 "the trajectory set has 40"):
            Dataset(system=ds.system, trajectories=ds.trajectories,
                    horizon=3.0, sigma=ds.sigma, seed=ds.seed,
                    regime=ds.regime)
        coarse = dataclasses.replace(ds.trajectories, dt=0.1)
        with pytest.raises(ContractViolation,
                           match="horizon 2.0 at dt 0.1 gives 20 steps, "
                                 "the trajectory set has 40"):
            dataclasses.replace(ds, trajectories=coarse)


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
        a, b = ds.trajectories, back.trajectories
        assert np.array_equal(a.times, b.times)
        for name in ("states", "inputs", "outputs"):
            assert getattr(b, name).shape == getattr(a, name).shape
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.signals == b.signals

    def test_write_is_deterministic(self, tmp_path):
        ds = generate_dataset(duffing(), "sinusoid", 2, 5, horizon=1.0)
        p1, p2 = tmp_path / "a.hkkl", tmp_path / "b.hkkl"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_failed_write_keeps_the_file_it_would_replace(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), "zero", 1, 5, horizon=1.0),
                      path)
        old = path.read_bytes()

        def full_disk(sig):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data, "_pack_signal", full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_dataset(generate_dataset(duffing(), "zero", 2, 7,
                                           horizon=1.0), path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), "sinusoid", 1, 5,
                                       horizon=1.0), path)
        runs = read_dataset(path).trajectories
        for values in (runs.states, runs.inputs, runs.outputs):
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0, 0] = 1.0

    def test_read_holds_no_second_copy_of_the_data(self, tmp_path):
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), "sinusoid", 80, 5), path)
        data_bytes = 8 * 80 * 1001 * 4
        tracemalloc.start()
        try:
            runs = read_dataset(path).trajectories
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data_bytes
        # the states, inputs and outputs are views of one buffer
        base = runs.states.base
        assert runs.inputs.base is base and runs.outputs.base is base

    def test_huge_step_count_is_refused_before_allocating(self, tmp_path):
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), "zero", 1, 5, horizon=1.0),
                      path)
        blob = bytearray(path.read_bytes())
        at = 4 + 2 + 2 + len("duffing") + 3 * 2 + 8  # the f64 horizon
        assert struct.unpack_from("<d", blob, at) == (1.0,)
        struct.pack_into("<d", blob, at, 1e12)  # 2e13 steps at dt 0.05
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractViolation, match="truncated at byte"):
            read_dataset(path)

    @pytest.mark.parametrize("regime, k", [
        ("sinusoid", 0), ("sinusoid", 2), ("square", 0), ("constant", 1),
        ("zero", 1), ("mixture", 1), ("mixture", 0),
    ])
    def test_component_count_must_fit_the_kind(self, tmp_path, regime, k):
        # the first descriptor's count K edited, and the file length with
        # it, so only the count is wrong
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), regime, 2, 5, horizon=1.0),
                      path)
        blob = path.read_bytes()
        at = self.first_descriptor(regime)
        old = blob[at + 1]
        comps = at + 10  # its K (f64 A, f64 w, f64 phi) components
        blob = (blob[:at + 1] + bytes([k]) + blob[at + 2:comps]
                + b"\x00" * 24 * k + blob[comps + 24 * old:])
        path.write_bytes(blob)
        need = {"sinusoid": "1", "square": "1", "mixture": "2 or more"}
        with pytest.raises(ContractViolation) as exc:
            read_dataset(path)
        assert str(exc.value) == (
            f"{path}: at byte offset {at}, {regime} signal has {k} "
            f"components, needs {need.get(regime, '0')}")

    @staticmethod
    def first_descriptor(regime):
        """Byte offset of a duffing dataset's first signal descriptor."""
        return 4 + 2 + 2 + len("duffing") + 3 * 2 + 3 * 8 + 4 + 8 + 2 + len(
            regime)

    @pytest.mark.parametrize("regime", ["zero", "mixture"])
    def test_an_offset_the_kind_takes_none_of_is_refused(self, tmp_path,
                                                         regime):
        # these kinds ignored a stored offset; the signal now is the
        # descriptor as it stands, so a nonzero one is refused
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), regime, 2, 5, horizon=1.0),
                      path)
        blob = bytearray(path.read_bytes())
        at = self.first_descriptor(regime)
        assert struct.unpack_from("<d", blob, at + 2) == (0.0,)
        struct.pack_into("<d", blob, at + 2, 0.5)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractViolation) as exc:
            read_dataset(path)
        assert str(exc.value) == (
            f"{path}: at byte offset {at}, {regime} signal has offset 0.5, "
            "its kind takes none")

    @pytest.mark.parametrize("regime, code", [
        ("zero", 0), ("constant", 1), ("sinusoid", 2), ("square", 3),
        ("mixture", 4),
    ])
    def test_kind_codes_are_pinned(self, tmp_path, regime, code):
        # the codes are part of the format, whatever order config.KINDS has
        path = tmp_path / "set.hkkl"
        write_dataset(generate_dataset(duffing(), regime, 1, 5, horizon=1.0),
                      path)
        assert path.read_bytes()[self.first_descriptor(regime)] == code

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hkkl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ContractViolation):
            read_dataset(path)

    def test_csv_export(self, tmp_path):
        ds = generate_dataset(duffing(), "constant", 1, 5, horizon=1.0)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(ds.trajectories, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,u1,y1"
        assert len(lines) == 22  # header + 21 samples
        row = [float(v) for v in lines[1].split(",")]
        runs = ds.trajectories
        assert row[0] == runs.times[0]
        assert row[1:3] == list(runs.states[0, 0])
        assert row[3] == runs.inputs[0, 0, 0]
        assert row[4] == runs.outputs[0, 0, 0]


class ShortReads:
    """An open file whose reads return only the first half of a request."""

    def __init__(self, fh):
        self.fh = fh

    def fileno(self):
        return self.fh.fileno()

    def tell(self):
        return self.fh.tell()

    def seek(self, offset):
        return self.fh.seek(offset)

    def read(self, n):
        return self.fh.read(n // 2)

    def readinto(self, buf):
        view = memoryview(buf).cast("B")
        return self.fh.readinto(view[: len(view) // 2])


class TestReader:
    def test_f64_reads_values_into_a_writable_array(self, tmp_path):
        path = tmp_path / "v.bin"
        values = np.random.default_rng(1).normal(size=9)
        path.write_bytes(values.astype("<f8").tobytes())
        with open(path, "rb") as fh:
            r = Reader(fh, path)
            out = r.f64(9)
            r.finish()
        assert np.array_equal(out, values) and out.flags.writeable

    def test_short_read_is_refused_with_the_offset(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"\x00" * 80)
        with open(path, "rb") as fh:
            r = Reader(ShortReads(fh), path)
            with pytest.raises(ContractViolation,
                               match="truncated at byte 40: 80 bytes needed "
                                     "from byte offset 0"):
                r.f64(10)
            with pytest.raises(ContractViolation,
                               match="truncated at byte 44: 8 bytes needed "
                                     "from byte offset 40"):
                r.unpack("<Q")


class TestCheckpointFormat:
    def build_bundle(self, variant="dynamic", hidden=(9,), rank=2):
        obs = build_observer_matrices(2, 1)
        maps = make_maps(2, 5, hidden=hidden)
        theta, phi = init_map_params(maps, 3)
        kw = {}
        if variant == "dynamic":
            spec = build_hypernet_spec(maps, window=7, lstm_hidden=5,
                                       rank=rank, tau=0.02)
            psi = init_hypernet_params(spec, 4)
            psi.data[:] = np.random.default_rng(5).normal(size=psi.data.shape)
            kw = {"spec": spec, "params": psi}
        elif variant == "static":
            spec = build_injection_spec(5, window=7, lstm_hidden=5,
                                        mlp_hidden=(8,), tau=0.02)
            xi = init_injection_params(spec, 6)
            kw = {"spec": spec, "params": xi}
        return CheckpointBundle(
            variant=variant, system_name="duffing", maps=maps, obs=obs,
            theta=theta, phi=phi, f_scale=2.5, train_seed_range=(1, 100),
            dt=0.05, **kw,
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
        assert back.dt == 0.05
        assert np.array_equal(back.theta.data, bundle.theta.data)
        assert np.array_equal(back.phi.data, bundle.phi.data)
        assert np.array_equal(back.obs.A, bundle.obs.A)
        assert np.array_equal(back.obs.B, bundle.obs.B)
        assert back.theta.layout == bundle.theta.layout
        assert back.spec == bundle.spec
        if variant != "autonomous":
            assert np.array_equal(back.params.data, bundle.params.data)
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
                theta=theta, phi=phi, train_seed_range=(1, 4),
            )

    def test_reads_file_with_chunked_readout_slices(self):
        # Written by an earlier release that stored each head's U readout
        # as 7-row slices hyper.*_head.U0000, U0001, ... (tiny maps, rank
        # 2), with the run_observer estimate it gave on one trajectory.
        bundle = read_checkpoint(CHUNKED)
        assert bundle.dt is None  # written before checkpoints recorded dt
        spec = bundle.spec
        assert bundle.params.layout == hypernet_layout(spec)
        # the 7-row slices' values land in one U_l per decoder layer
        assert [bundle.params.get(u).shape for u in spec.dec_head.u_names] == [
            (bundle.phi.get(w).size, 2) for w in spec.dec_head.weight_names]
        runs, xhat = chunked_reference()
        dt, u, y = runs.dt, runs.inputs[0], runs.outputs[0]
        # the stored estimate is the dense decode, row by row through a
        # delta ParamStore, and reproduces bitwise
        zs = simulate_latent(bundle.obs, y[:, None], dt)[:, 0]
        windows = window_matrix(u, spec.window)
        live = gate_values(windows, spec.tau)[:, 0] != 0.0
        _, d_phi = generate_deltas(bundle.params, spec, windows[live])
        dense = decode(bundle.maps, bundle.phi, zs)
        for row, flat in zip(np.flatnonzero(live), d_phi):
            eff = ParamStore(bundle.phi.layout, bundle.phi.data
                             + delta_store(spec.dec_head, flat).data)
            dense[row] = decode(bundle.maps, eff, zs[row : row + 1])[0]
        assert np.array_equal(dense, xhat)
        # run_observer applies the same deltas as rank factors
        est = run_observer(bundle, runs)[0]
        assert np.array_equal(est[~live], xhat[~live])
        assert np.max(np.abs(est - xhat)) <= 1e-12 * np.max(np.abs(xhat))

    def test_hypernet_value_count_must_match_spec(self, tmp_path):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(self.build_bundle("dynamic"), path)
        blob = path.read_bytes()
        assert blob.count(b'"rank": 2') == 1
        path.write_bytes(blob.replace(b'"rank": 2', b'"rank": 3'))
        with pytest.raises(ContractViolation, match="hyper. block"):
            read_checkpoint(path)

    def test_io_holds_no_second_copy_of_the_data(self, tmp_path):
        bundle = self.build_bundle("dynamic", hidden=(100, 100), rank=48)
        assert bundle.params.data.nbytes >= 8_000_000
        data_bytes = 8 * sum(s.data.size for s in (bundle.theta, bundle.phi,
                                                   bundle.params))
        path = tmp_path / "ck.hkkp"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_checkpoint(bundle, path)
            write_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = read_checkpoint(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_peak <= 2**20
        assert read_peak <= 1.1 * data_bytes
        assert np.array_equal(back.params.data, bundle.params.data)

    def test_huge_value_count_is_refused_before_allocating(self, tmp_path):
        bundle = self.build_bundle("autonomous")
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        blob = bytearray(path.read_bytes())
        total = sum(a.size for a in (bundle.theta.data, bundle.phi.data,
                                     bundle.obs.A, bundle.obs.B))
        at = len(blob) - 8 * total - 8  # the u64 count before the data
        assert struct.unpack_from("<Q", blob, at) == (total,)
        struct.pack_into("<Q", blob, at, 2**60)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolation,
                               match=f"truncated at byte {len(blob)}: "
                                     f"{8 * 2**60} bytes needed"):
                read_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_slice_offsets_must_tile_the_data(self, tmp_path):
        # each stored offset is read, not only the first of each block
        bundle = self.build_bundle("autonomous")
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        assert bundle.theta.layout["enc.b0"].offset == 18
        path.write_bytes(set_u64("enc.b0", 0)(path.read_bytes()))
        for observer in (False, True):
            with pytest.raises(ContractViolation) as exc:
                read_checkpoint(path, observer=observer)
            assert str(exc.value) == (
                f"{path}: stored slice enc.b0 starts at value 0, not at 18")

    def autonomous_parts(self, path):
        """The metadata and the (name, array) slices of an autonomous
        checkpoint written at ``path``; raw_checkpoint writes them back
        to the same bytes."""
        bundle = self.build_bundle("autonomous")
        write_checkpoint(bundle, path)
        blob = path.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 6)
        meta = json.loads(blob[10 : 10 + size])
        stores = (bundle.theta, bundle.phi)
        slices = [(s.name, store.get(s.name)) for store in stores
                  for s in store.layout.slices]
        slices += [("obs.A", bundle.obs.A), ("obs.B", bundle.obs.B)]
        raw_checkpoint(path, meta, slices)
        assert path.read_bytes() == blob
        return meta, slices

    def test_a_block_is_one_run_of_slices(self, tmp_path):
        # a table that tiles the data but puts dec.W0 among the encoder's
        # slices would read dec.W0's values as enc.b0's
        path = tmp_path / "ck.hkkp"
        meta, slices = self.autonomous_parts(path)
        names = [name for name, _ in slices]
        slices.insert(1, slices.pop(names.index("dec.W0")))
        raw_checkpoint(path, meta, slices)
        with pytest.raises(ContractViolation) as exc:
            read_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: stored slice enc.b1 is apart from its enc. block")

    @pytest.mark.parametrize("name", ["zzz.junk", "inj.W0", "hyper.lstm.Wx"])
    def test_a_slice_no_read_takes_is_refused(self, tmp_path, monkeypatch,
                                              name):
        # an autonomous file's metadata names no hyper or injection block,
        # so a tiled slice outside obs., enc. and dec. is refused by name
        path = tmp_path / "ck.hkkp"
        meta, slices = self.autonomous_parts(path)
        raw_checkpoint(path, meta, slices + [(name, np.ones(10))])
        assert refused_unread(monkeypatch, path) == {
            f"{path}: stored slice {name} is in no block the metadata names"}

    @pytest.mark.parametrize("variant, key", [("static", "injection"),
                                              ("dynamic", "hyper")])
    def test_a_block_the_metadata_does_not_name_is_refused(
            self, tmp_path, monkeypatch, variant, key):
        # relabelled autonomous and without its key, the metadata names no
        # conditioning block (a conditioned variant without its key is
        # refused by the key: TestConditioningMetadata)
        bundle = self.build_bundle(variant)
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        path.write_bytes(edit_meta(lambda m: {
            **{k: v for k, v in m.items() if k != key},
            "variant": "autonomous"})(path.read_bytes()))
        store = bundle.params
        assert refused_unread(monkeypatch, path) == {
            f"{path}: stored slice {store.layout.slices[0].name} is in no "
            "block the metadata names"}

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hkkp"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ContractViolation):
            read_checkpoint(path)


def refused_unread(monkeypatch, path):
    """The messages both reads refuse ``path`` with; neither reads a
    value of the data block."""
    reads = []
    real = Reader.f64_at

    def f64_at(self, spans):
        reads.append(spans)
        return real(self, spans)

    monkeypatch.setattr(Reader, "f64_at", f64_at)
    messages = set()
    for observer in (False, True):
        with pytest.raises(ContractViolation) as exc:
            read_checkpoint(path, observer=observer)
        messages.add(str(exc.value))
    assert reads == []
    return messages


def slice_positions(blob):
    """Byte position of each slice's stored u64 offset, and of the total
    value count under the key None."""
    (size,) = struct.unpack_from("<I", blob, 6)
    at = 10 + size
    (count,) = struct.unpack_from("<I", blob, at)
    at += 4
    positions = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2 : at + 2 + n].decode()
        (ndim,) = struct.unpack_from("<B", blob, at + 2 + n)
        at += 2 + n + 1 + 4 * ndim
        positions[name] = at
        at += 8
    positions[None] = at
    return positions


def set_u64(key, value):
    def damage(blob):
        out = bytearray(blob)
        struct.pack_into("<Q", out, slice_positions(blob)[key], value)
        return bytes(out)
    return damage


def edit_meta(edit):
    def damage(blob):
        (size,) = struct.unpack_from("<I", blob, 6)
        text = json.dumps(edit(json.loads(blob[10 : 10 + size]))).encode()
        return blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + size :]
    return damage


def build_bundle(variant):
    return TestCheckpointFormat().build_bundle(variant)


def streamed_readout(lean, full):
    """Each decoder layer's U_l as the observer read ``lean`` streams it
    from its file, assembled from its IN_BLOCK chunks of input columns,
    after checking that in layer order they are the U_l of the full read
    ``full``."""
    widths, rank = lean.maps.dec.widths, lean.readout.rank
    rows = []
    with lean.readout.layers() as sources:
        assert len(sources) == len(widths) - 1
        for source, n_in, n_out in zip(sources, widths, widths[1:]):
            assert source.shape == (n_out * n_in, rank)
            chunks = [source.chunk(slice(i0 * rank,
                                         min(i0 + IN_BLOCK, n_in) * rank)).copy()
                      for i0 in range(0, n_in, IN_BLOCK)]
            rows.append(np.concatenate(chunks, axis=1).reshape(-1, rank))
    for u_l, name in zip(rows, lean.spec.dec_head.u_names, strict=True):
        assert np.array_equal(u_l, full.params.get(name))
    return rows


def readout_names(spec):
    """Both heads' readout slices U_l."""
    return spec.enc_head.u_names + spec.dec_head.u_names


def one_readout_per_head(bundle):
    """``bundle`` with each head's U_l joined into one (Σ o_l·i_l, r)
    slice hyper.*_head.U over the same values: the layout files were
    written in before each targeted layer had a slice of its own."""
    entries, joined = [], {}
    for sl in bundle.params.layout.slices:
        head = sl.name.rpartition(".U")[0]
        if sl.name in readout_names(bundle.spec):
            if head not in joined:
                joined[head] = [f"{head}.U", [0, sl.shape[1]]]
                entries.append(joined[head])
            joined[head][1][0] += sl.shape[0]
        else:
            entries.append([sl.name, sl.shape])
    return dataclasses.replace(bundle, params=ParamStore(
        Layout(entries), bundle.params.data))


class TestObserverRead:
    @pytest.mark.parametrize("variant, damage", [
        pytest.param("dynamic", lambda b: b"XXXX" + b[4:], id="magic"),
        pytest.param("dynamic", lambda b: b[:4] + b"\x02\x00" + b[6:],
                     id="version"),
        pytest.param("dynamic", lambda b: b[:40], id="cut-in-header"),
        pytest.param("dynamic", lambda b: b[:-12], id="cut-in-data"),
        pytest.param("dynamic", lambda b: b + b"\x00" * 4, id="trailing"),
        pytest.param("dynamic", set_u64(None, 2**60), id="huge-count"),
        pytest.param("static", set_u64(None, 3), id="small-count"),
        pytest.param("dynamic", edit_meta(lambda m: {
            **m, "hyper": {**m["hyper"], "rank": 3}}), id="hyper-count"),
        pytest.param("static", edit_meta(lambda m: {
            **m, "injection": {**m["injection"], "mlp_hidden": [9]}}),
            id="injection-count"),
        pytest.param("autonomous", edit_meta(lambda m: {
            **m, "enc_hidden": [9, 9]}), id="enc-slices"),
        pytest.param("autonomous", edit_meta(lambda m: {
            k: v for k, v in m.items() if k != "n_x"}), id="no-n_x"),
        pytest.param("dynamic", set_u64("enc.W0", 10**6), id="enc-past-data"),
        pytest.param("dynamic", set_u64("dec.W0", 10**6), id="dec-past-data"),
        pytest.param("dynamic", set_u64("hyper.lstm.Wx", 10**6),
                     id="hyper-past-data"),
    ])
    def test_refuses_what_the_full_read_refuses_alike(self, tmp_path, variant,
                                                      damage):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(build_bundle(variant), path)
        path.write_bytes(damage(path.read_bytes()))
        messages = []
        for observer in (False, True):
            with pytest.raises(ContractViolation) as exc:
                read_checkpoint(path, observer=observer)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("variant", ["autonomous", "static", "dynamic"])
    def test_holds_only_what_an_observer_runs(self, tmp_path, variant):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(build_bundle(variant), path)
        full = read_checkpoint(path)
        lean = read_checkpoint(path, observer=True)
        assert lean.theta is None
        stores = [s for s in (lean.phi, lean.params) if s is not None]
        names = [s.name for store in stores for s in store.layout.slices]
        assert not [n for n in names if n.startswith(OBSERVER_SKIPS)]
        kept = [s for store in (full.theta, full.phi, full.params)
                if store is not None for s in store.layout.slices
                if not s.name.startswith(OBSERVER_SKIPS + (STREAMED,))]
        assert names == [s.name for s in kept]
        sources = {"dec.": full.phi, "hyper.": full.params,
                   "inj.": full.params}
        for store in stores:
            for s in store.layout.slices:
                source = sources[s.name[: s.name.index(".") + 1]]
                assert np.array_equal(store.get(s.name), source.get(s.name))
        held = (sum(store.data.nbytes for store in stores)
                + lean.obs.A.nbytes + lean.obs.B.nbytes)
        assert held == 8 * (sum(s.size for s in kept)
                            + full.obs.A.size + full.obs.B.size)
        if variant == "dynamic":
            # the decoder head's U stays in the file, one span per layer
            layout = hypernet_layout(lean.spec)
            skipped = sum(s.size for s in layout.slices
                          if s.name.startswith(OBSERVER_SKIPS + (STREAMED,)))
            assert lean.params.data.size == layout.total - skipped
            for name in readout_names(lean.spec):
                with pytest.raises(ContractViolation,
                                   match=f"no slice named '{name}'"):
                    lean.params.get(name)
            rows = streamed_readout(lean, full)
            assert [r.shape for r in rows] == [
                (w.size, 2) for w in (lean.phi.get(f"dec.W{i}")
                                      for i in range(len(rows)))]
        else:
            assert lean.readout is None

    def test_a_readout_refuses_a_file_changed_while_open(self, tmp_path):
        # the rows already read may come from the old bytes: a cell whose
        # file was rewritten in place refuses it after its last read
        path = tmp_path / "ck.hkkp"
        write_checkpoint(build_bundle("dynamic"), path)
        lean = read_checkpoint(path, observer=True)
        with pytest.raises(ContractViolation) as exc:
            with lean.readout.layers() as sources:
                sources[0].chunk(slice(0, 2))
                st = path.stat()
                with open(path, "r+b") as fh:
                    fh.write(b"HKKP")  # the same bytes, a later mtime
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
                sources[1].chunk(slice(0, 2))
        assert str(exc.value) == (
            f"{path}: the checkpoint changed after it was read")

    def test_bundle_cannot_be_written(self, tmp_path):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(build_bundle("dynamic"), path)
        lean = read_checkpoint(path, observer=True)
        with pytest.raises(ContractViolation,
                           match="observer read holds no encoder"):
            write_checkpoint(lean, tmp_path / "again.hkkp")
        assert not (tmp_path / "again.hkkp").exists()

    def test_skipped_bytes_are_never_read(self, tmp_path):
        bundle = TestCheckpointFormat().build_bundle("dynamic",
                                                     hidden=(100, 100),
                                                     rank=48)
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        heads = sum(bundle.params.get(u).nbytes
                    for u in readout_names(bundle.spec))
        assert heads >= 0.9 * bundle.params.data.nbytes
        kept_bytes = (8 * (bundle.phi.data.size + bundle.params.data.size)
                      - heads)
        tracemalloc.start()
        try:
            lean = read_checkpoint(path, observer=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 64 KiB for the table, the metadata and the objects built from
        # them; each head's U is about 4 MB
        assert peak <= kept_bytes + 2**16
        streamed_readout(lean, bundle)

    def test_reads_file_with_chunked_readout_slices(self):
        full = read_checkpoint(CHUNKED)
        lean = read_checkpoint(CHUNKED, observer=True)
        kept = [s for s in hypernet_layout(lean.spec).slices
                if not s.name.startswith(OBSERVER_SKIPS + (STREAMED,))]
        # the chunk slices' values are read from the spans of each U_l
        streamed_readout(lean, full)
        assert [(s.name, s.shape) for s in lean.params.layout.slices] == [
            (s.name, s.shape) for s in kept]
        for s in kept:
            assert np.array_equal(lean.params.get(s.name),
                                  full.params.get(s.name))
        runs, xhat = chunked_reference()
        est = run_observer(lean, runs)[0]
        assert np.array_equal(est, run_observer(full, runs)[0])
        windows = window_matrix(runs.inputs[0], lean.spec.window)
        live = gate_values(windows, lean.spec.tau)[:, 0] != 0.0
        assert np.array_equal(est[~live], xhat[~live])
        assert np.max(np.abs(est - xhat)) <= 1e-12 * np.max(np.abs(xhat))


    def test_reads_file_with_one_readout_slice_per_head(self, tmp_path):
        # the layout every file had before each targeted layer got its own
        # U_l: it reads into the per-layer layout, fully and as an observer
        per_layer = read_checkpoint(CHUNKED)
        paths = {}
        for kind, bundle in (("layer", per_layer),
                             ("head", one_readout_per_head(per_layer))):
            paths[kind] = tmp_path / f"{kind}.hkkp"
            write_checkpoint(bundle, paths[kind])
        blob = paths["head"].read_bytes()
        assert b"hyper.dec_head.U\x02" in blob and b"dec_head.U0" not in blob
        runs, _ = chunked_reference()
        full = read_checkpoint(paths["head"])
        assert full.params.layout == per_layer.params.layout
        assert full.params.data.tobytes() == per_layer.params.data.tobytes()
        lean = read_checkpoint(paths["head"], observer=True)
        lean_layer = read_checkpoint(paths["layer"], observer=True)
        assert lean.params.layout == lean_layer.params.layout
        assert np.array_equal(lean.params.data, lean_layer.params.data)
        streamed_readout(lean, per_layer)
        # every read estimates as the per-layer file's observer read does
        est = run_observer(lean_layer, runs)[0]
        for bundle in (full, lean):
            assert run_observer(bundle, runs)[0].tobytes() == est.tobytes()


def cut_and_padded(path):
    """Yield once for each damaged form of the file at ``path``: every
    proper prefix, longest first, then the whole file with one byte
    appended; the file holds that form while the caller runs."""
    blob = path.read_bytes()
    for n in range(len(blob) - 1, -1, -1):
        os.truncate(path, n)
        yield
    path.write_bytes(blob + b"\x00")
    yield


class TestEveryCutAndOneMoreByte:
    """A file that ends early or runs on is refused, wherever it ends."""

    def test_dataset(self, tmp_path):
        path = tmp_path / "d.hkkl"
        write_dataset(generate_dataset(duffing(), "mixture", 2, 3,
                                       horizon=0.5), path)
        forms = 0
        for _ in cut_and_padded(path):
            with pytest.raises(ContractViolation):
                read_dataset(path)
            forms += 1
        assert forms == path.stat().st_size

    @pytest.mark.parametrize("variant", ["autonomous", "static", "dynamic"])
    def test_checkpoint(self, tmp_path, variant):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(build_bundle(variant), path)
        forms = 0
        for _ in cut_and_padded(path):
            for observer in (False, True):
                with pytest.raises(ContractViolation):
                    read_checkpoint(path, observer=observer)
            forms += 1
        assert forms == path.stat().st_size


def two_inputs(bundle):
    """A static bundle whose injection network reads two inputs."""
    spec = build_injection_spec(5, **{**bundle.spec.settings(),
                                      "input_size": 2})
    return dataclasses.replace(bundle, spec=spec,
                               params=init_injection_params(spec, 1))


class TestConditioningTable:
    """CONDITIONING is the one statement of which variant carries which
    spec, metadata key and block; the writer, the metadata check and the
    reader all go through it."""

    @pytest.mark.parametrize("variant", sorted(CONDITIONING))
    @pytest.mark.parametrize("n_x, hidden, size", [
        (2, (9,), 1), (3, (4, 6), 2), (2, (20, 20, 20), 5)])
    def test_settings_rebuild_the_spec(self, variant, n_x, hidden, size):
        cond = CONDITIONING[variant]
        maps = make_maps(n_x, 2 * n_x + 1, hidden=hidden)
        settings = {"window": 3 * size, "lstm_hidden": size + 2,
                    "tau": 0.5 * size, "input_size": size,
                    **({"rank": size} if variant == "dynamic"
                       else {"mlp_hidden": [size + 1] * size})}
        spec = cond.build(maps, **settings)
        assert isinstance(spec, cond.spec_type)
        assert spec.settings() == settings
        assert cond.build(maps, **spec.settings()) == spec
        assert set(META_KEYS[cond.key]) == set(spec.settings())
        assert all(s.name.startswith(cond.spec_type.PREFIX)
                   for s in cond.layout(spec).slices)

    @pytest.mark.parametrize("variant, other", [
        ("autonomous", "static"), ("curriculum", "dynamic"),
        ("static", "dynamic"), ("dynamic", "static"), ("static", None)])
    def test_a_bundle_carries_only_its_variants_conditioning(self, variant,
                                                             other):
        # ``other`` names the variant whose spec and params it is given
        kw = {}
        if other is not None:
            given = build_bundle(other)
            kw = {"spec": given.spec, "params": given.params}
        with pytest.raises(ContractViolation, match=f"^{variant} checkpoint"):
            dataclasses.replace(build_bundle("autonomous"), variant=variant,
                                **kw)

    @pytest.mark.parametrize("variant, edit, message", [
        pytest.param("autonomous", lambda b: dataclasses.replace(
            b, obs=build_observer_matrices(2, 2, 5)),
            "metadata key 'n_y' is 2, system duffing takes 1", id="n_y"),
        pytest.param("static", two_inputs,
                     "metadata key 'injection.input_size' is 2, system "
                     "duffing takes 1", id="injection-input_size"),
        pytest.param("dynamic", lambda b: dataclasses.replace(
            b, system_name="duffin"),
            "metadata key 'system' must be one of duffing, vanderpol, "
            "rossler, lorenz", id="unknown-system"),
    ])
    def test_dimensions_follow_the_system(self, tmp_path, variant, edit,
                                          message):
        path = tmp_path / "ck.hkkp"
        write_checkpoint(edit(build_bundle(variant)), path)
        for observer in (False, True):
            with pytest.raises(ContractViolation) as exc:
                read_checkpoint(path, observer=observer)
            assert str(exc.value).startswith(f"{path}: {message}")
