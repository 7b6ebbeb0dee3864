import csv
import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    analytic_linear_maps,
    analytic_linear_observer,
    init_map_params,
    linear_test_system,
    oracle_latent,
    traced_peak,
)

import hyperkkl.evaluation as evaluation
from hyperkkl.checkpoints import (
    STREAMED,
    VARIANTS,
    CheckpointBundle,
    read_checkpoint,
    write_checkpoint,
)
from hyperkkl.data import Dataset, generate_dataset
from hyperkkl.dynamics import TrajectorySet, duffing, get_system, simulate
from hyperkkl.errors import ContractViolation
from hyperkkl.evaluation import (
    EvalReport,
    benchmark,
    evaluate_cell,
    rmse,
    run_observer,
    smape,
)
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    init_hypernet_params,
    init_injection_params,
)
from hyperkkl.kkl import (
    build_observer_matrices,
    decode,
    make_maps,
)
from hyperkkl.nets import IN_BLOCK, LSTM_BLOCK, ROW_BLOCK


class TestMetrics:
    def test_identical_sequences(self):
        x = np.random.default_rng(0).normal(size=(40, 2)) + 3.0
        assert rmse(x, x) == 0.0
        assert smape(x, x) == 0.0

    def test_constant_offset_rmse(self):
        x = np.zeros((40, 2))
        xh = x.copy()
        xh[:, 0] += 0.25
        assert rmse(x, xh, transient_frac=0.0) == pytest.approx(0.25)

    def test_hand_dataset(self):
        x = np.zeros((4, 2))
        xh = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert rmse(x, xh, transient_frac=0.0) == pytest.approx(1.0, abs=1e-12)

    def test_smape_bounds_and_hand_values(self):
        ones = np.ones((10, 1))
        assert smape(ones, np.zeros((10, 1)), 0.0) == pytest.approx(200.0, abs=1e-5)
        assert smape(ones, 3 * ones, 0.0) == pytest.approx(100.0, abs=1e-6)

    def test_transient_discard_ignores_prefix(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        xh = x + 0.1
        xh2 = xh.copy()
        xh2[:5] = 99.0  # first 5% mangled
        assert rmse(x, xh) == rmse(x, xh2)
        assert smape(x, xh) == smape(x, xh2)

    def test_alignment_contract(self):
        with pytest.raises(ContractViolation):
            rmse(np.zeros((5, 2)), np.zeros((4, 2)))
        with pytest.raises(ContractViolation):
            rmse(np.zeros((2, 2)), np.zeros((2, 2)), transient_frac=1.0)


TRAIN_SEEDS = (1, 3)  # below every test set's seeds here


def manufactured_bundle():
    obs, c = analytic_linear_observer()
    maps, theta, phi = analytic_linear_maps(c)
    return CheckpointBundle(
        variant="autonomous", system_name="linear1d", maps=maps, obs=obs,
        theta=theta, phi=phi, train_seed_range=TRAIN_SEEDS,
    )


def observer_bundles(variant_list, seed=0, hidden=(10,), system="duffing"):
    """Bundles on the named system around one shared random base (fresh
    conditioning params)."""
    system = get_system(system)
    obs = build_observer_matrices(system.n_x, system.n_y)
    maps = make_maps(system.n_x, obs.n_z, hidden=hidden)
    theta, phi = init_map_params(maps, seed)
    out = {}
    for variant in variant_list:
        kw = {}
        if variant == "dynamic":
            spec = build_hypernet_spec(maps, window=12, lstm_hidden=6, rank=3)
            psi = init_hypernet_params(spec, seed + 1)
            psi.data[:] = np.random.default_rng(seed + 2).normal(
                size=psi.data.shape
            ) * 0.05
            kw = {"spec": spec, "params": psi}
        elif variant == "static":
            spec = build_injection_spec(obs.n_z, window=12, lstm_hidden=6,
                                        mlp_hidden=(8,))
            xi = init_injection_params(spec, seed + 3)
            xi.data[:] = np.random.default_rng(seed + 4).normal(
                size=xi.data.shape
            ) * 0.05
            kw = {"spec": spec, "params": xi}
        out[variant] = CheckpointBundle(
            variant=variant, system_name=system.name, maps=maps, obs=obs,
            theta=theta, phi=phi, train_seed_range=TRAIN_SEEDS, **kw,
        )
    return out


def loaders(bundles):
    """The grid's zero-argument loaders of ready-made bundles."""
    return {v: (lambda b=b: b) for v, b in bundles.items()}


def first_steps(runs, steps):
    """The first ``steps`` samples of every run of ``runs``."""
    return TrajectorySet(runs.dt, runs.times[:steps], runs.states[:, :steps],
                         runs.inputs[:, :steps], runs.outputs[:, :steps],
                         runs.signals)


class TestRunObserver:
    def test_manufactured_error_decays(self):
        bundle = manufactured_bundle()
        sys = linear_test_system()
        runs = simulate(sys, np.array([[0.9]]), None, 0.005, 8.0, 0.0, seed=0)
        xhat = run_observer(bundle, runs)
        assert xhat.shape == runs.states.shape
        err = np.abs(runs.states - xhat)[0, :, 0]
        k0 = int(0.5 / 0.005)
        c0 = err[k0] * math.exp(runs.times[k0])
        sl = slice(k0, len(err))
        assert np.all(err[sl] <= 1.05 * c0 * np.exp(-runs.times[sl]) + 1e-12)

    @pytest.mark.parametrize("variant", ["autonomous", "dynamic", "static"])
    def test_each_run_is_its_estimate_alone_bitwise(self, variant):
        bundle = observer_bundles([variant])[variant]
        runs = generate_dataset(duffing(), "sinusoid", 3, seed=5,
                                horizon=5.0).trajectories
        xhat = run_observer(bundle, runs)
        assert xhat.shape == (3, 101, 2)
        for i in range(3):
            alone = TrajectorySet(runs.dt, runs.times, runs.states[i:i + 1],
                                  runs.inputs[i:i + 1], runs.outputs[i:i + 1],
                                  runs.signals[i:i + 1])
            assert np.array_equal(xhat[i], run_observer(bundle, alone)[0])

    @pytest.mark.parametrize("variant", ["autonomous", "curriculum"])
    def test_plain_filter_block_is_each_run_filtered_alone_bitwise(self,
                                                                   variant):
        # the set's runs go through the latent filter as one block; each
        # run's estimate is its own filter and decode, bit for bit
        bundle = observer_bundles([variant], hidden=(32, 32))[variant]
        runs = generate_dataset(duffing(), "mixture", 4, seed=5,
                                horizon=5.0).trajectories
        xhat = run_observer(bundle, runs)
        for i in range(4):
            zs = oracle_latent(bundle.obs, runs.outputs[i], runs.dt)
            assert np.array_equal(xhat[i], decode(bundle.maps, bundle.phi, zs))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_observer_read_estimates_bitwise(self, tmp_path, variant):
        # three decode blocks per run; the input is zero on steps
        # 300-399, so the second block's windows are partly zero and the
        # dynamic variant decodes only some of its rows with the readout
        bundle = observer_bundles([variant])[variant]
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        runs = generate_dataset(duffing(), "sinusoid", 2, seed=5,
                                horizon=30.0).trajectories
        assert runs.n_steps > 2 * ROW_BLOCK
        inputs = runs.inputs.copy()
        inputs[:, 300:400] = 0.0
        runs = dataclasses.replace(runs, inputs=inputs)
        full = run_observer(read_checkpoint(path), runs)
        assert np.array_equal(full, run_observer(bundle, runs))
        read = read_checkpoint(path, observer=True)
        assert (read.readout is not None) == (variant == "dynamic")
        lean = run_observer(read, runs)
        assert np.array_equal(lean, full)

    def test_estimates_are_causal(self):
        bundles = observer_bundles(["dynamic"])
        sys = duffing()
        ds = generate_dataset(sys, "sinusoid", 1, seed=5, horizon=5.0, sigma=0.01)
        runs = ds.trajectories
        full = run_observer(bundles["dynamic"], runs)
        cut = 60
        prefix = run_observer(bundles["dynamic"], first_steps(runs, cut))
        assert np.array_equal(full[:, :cut], prefix)

    @pytest.mark.parametrize("variant, system, hidden", [
        ("autonomous", "lorenz", (350, 350)),
        ("dynamic", "duffing", (32, 32)),
    ])
    def test_estimates_are_causal_across_a_block_boundary(self, variant,
                                                          system, hidden):
        # At these widths a decode of the first 2 ROW_BLOCK rows alone
        # differs in its bits from the same rows of a 1001-row decode; the
        # block rule makes the cut run's estimates the whole run's.
        bundle = observer_bundles([variant], hidden=hidden,
                                  system=system)[variant]
        runs = generate_dataset(get_system(system), "sinusoid", 1,
                                seed=5).trajectories
        assert runs.n_steps > 2 * ROW_BLOCK
        full = run_observer(bundle, runs)
        prefix = run_observer(bundle, first_steps(runs, 2 * ROW_BLOCK))
        assert np.array_equal(full[:, :2 * ROW_BLOCK], prefix)

    @pytest.mark.parametrize("variant", ["autonomous", "dynamic"])
    def test_memory_does_not_grow_with_the_run(self, variant):
        # Beyond its output and the latent states, run_observer holds one
        # block's transients: at 350-wide maps a whole-run decode would
        # hold two (N+1, 350) activations.
        bundle = observer_bundles([variant], hidden=(350, 350),
                                  system="lorenz")[variant]
        runs = generate_dataset(get_system("lorenz"), "sinusoid", 1, seed=5,
                                horizon=8 * ROW_BLOCK * 0.05).trajectories
        run_observer(bundle, first_steps(runs, 2 * ROW_BLOCK))  # warm up
        extra = {}
        for steps in (2 * ROW_BLOCK, 8 * ROW_BLOCK):
            xhat, peak = traced_peak(run_observer, bundle,
                                     first_steps(runs, steps))
            latent = steps * bundle.obs.n_z * 8
            extra[steps] = peak - xhat.nbytes - latent
        # 4 KiB of slack for the interpreter's own bookkeeping
        assert extra[8 * ROW_BLOCK] <= extra[2 * ROW_BLOCK] + 4096

    def test_a_static_run_holds_one_block_of_contexts(self):
        # At the shipped window 100 and LSTM width 64, a step's window and
        # context take 1.3 KB: encoding a 2048-step run up front would
        # hold 2.7 MB of them. Beyond its output and the latent states,
        # the static filter holds one ROW_BLOCK block's windows, their
        # index and squares, and contexts, and one LSTM row block's step.
        bundle = observer_bundles(["static"])["static"]
        w, hsz = 100, 64
        spec = build_injection_spec(bundle.obs.n_z, window=w,
                                    lstm_hidden=hsz, mlp_hidden=(8,))
        xi = init_injection_params(spec, 3)
        xi.data[:] = np.random.default_rng(4).normal(
            size=xi.data.shape) * 0.05
        bundle = dataclasses.replace(bundle, spec=spec, params=xi)
        steps = 8 * ROW_BLOCK
        runs = first_steps(generate_dataset(
            duffing(), "sinusoid", 1, seed=5,
            horizon=steps * 0.05).trajectories, steps)
        run_observer(bundle, first_steps(runs, ROW_BLOCK + 9))  # warm up
        xhat, peak = traced_peak(run_observer, bundle, runs)
        extra = peak - xhat.nbytes - steps * bundle.obs.n_z * 8
        block = ROW_BLOCK * (3 * w + hsz) * 8
        lstm_step = 20 * LSTM_BLOCK * hsz * 8
        assert extra <= block + lstm_step

    def test_a_streamed_readout_holds_one_chunk_of_rows(self, tmp_path):
        # At 350-wide maps two of the decoder's four layers hold 350·350
        # readout rows each. The bundle in memory holds all of U before
        # the call; the observer read holds none, and its decode may
        # peak above the in-memory one's by one IN_BLOCK chunk of one
        # layer's rows only.
        bundle = observer_bundles(["dynamic"], hidden=(350, 350, 350),
                                  system="lorenz")["dynamic"]
        path = tmp_path / "ck.hkkp"
        write_checkpoint(bundle, path)
        lean = read_checkpoint(path, observer=True)
        runs = first_steps(generate_dataset(get_system("lorenz"), "sinusoid",
                                            1, seed=5).trajectories,
                           2 * ROW_BLOCK)
        run_observer(lean, runs)  # warm up
        held, held_peak = traced_peak(run_observer, bundle, runs)
        streamed, peak = traced_peak(run_observer, lean, runs)
        assert np.array_equal(streamed, held)
        widths, rank = bundle.maps.dec.widths, bundle.spec.dec_head.rank
        chunk = 8 * max(widths[1:]) * IN_BLOCK * rank
        layer = 8 * max(o * i for i, o in zip(widths, widths[1:])) * rank
        assert 20 * chunk <= layer
        # 64 KiB for the open file, its reader and a chunk's spans
        assert peak <= held_peak + chunk + 2**16

    @pytest.mark.parametrize("variant", ["dynamic", "static"])
    def test_zero_input_recovery_bitwise(self, variant):
        bundles = observer_bundles(["autonomous", variant])
        sys = duffing()
        ds = generate_dataset(sys, "zero", 3, seed=9, horizon=5.0, sigma=0.01)
        a = run_observer(bundles["autonomous"], ds.trajectories)
        b = run_observer(bundles[variant], ds.trajectories)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["dynamic", "static"])
    def test_rows_of_zero_windows_stay_autonomous_bitwise(self, variant):
        # At 32x32 maps a decode of only the rows before the cut (a GEMM
        # with fewer rows M) differs in its bits from the full decode at
        # each of these cuts, at 1 and at 2 BLAS threads. The last zero
        # stretch runs past the first block boundary.
        bundles = observer_bundles(["autonomous", variant], hidden=(32, 32))
        runs = generate_dataset(duffing(), "sinusoid", 1, seed=11,
                                horizon=20.0, sigma=0.0).trajectories
        a = run_observer(bundles["autonomous"], runs)[0]
        for cut in (3, 10, 37, 61, ROW_BLOCK + 44):
            inputs = runs.inputs.copy()
            inputs[:, :cut] = 0.0
            b = run_observer(bundles[variant],
                             dataclasses.replace(runs, inputs=inputs))[0]
            assert np.array_equal(a[:cut], b[:cut])
            assert not np.array_equal(a[cut:], b[cut:])

    @pytest.mark.parametrize("variant", ["autonomous", "dynamic", "static"])
    def test_a_last_block_of_one_row(self, variant, monkeypatch):
        # A single-row GEMM may round otherwise than the same row of a
        # longer one, so the last row is close to, not equal to, the
        # whole-run decode: the run decoded as one block.
        bundle = observer_bundles([variant], hidden=(32, 32))[variant]
        runs = first_steps(generate_dataset(duffing(), "sinusoid", 1,
                                            seed=5).trajectories,
                           2 * ROW_BLOCK + 1)
        xhat = run_observer(bundle, runs)
        monkeypatch.setattr(evaluation, "ROW_BLOCK", len(runs.times))
        whole = run_observer(bundle, runs)
        assert np.all(np.isfinite(xhat))
        np.testing.assert_allclose(xhat, whole, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("variant", ["dynamic", "static"])
    def test_forced_input_changes_estimates(self, variant):
        bundles = observer_bundles(["autonomous", variant])
        sys = duffing()
        ds = generate_dataset(sys, "sinusoid", 1, seed=11, horizon=5.0,
                              sigma=0.0)
        a = run_observer(bundles["autonomous"], ds.trajectories)
        b = run_observer(bundles[variant], ds.trajectories)
        assert not np.array_equal(a, b)


class TestBenchmark:
    def test_seed_overlap_refused(self):
        bundles = observer_bundles(["autonomous"])
        bundle = bundles["autonomous"]
        bundle.train_seed_range = (0, 99)
        sys = duffing()
        ds = generate_dataset(sys, "zero", 2, seed=50, horizon=2.0)
        with pytest.raises(ContractViolation):
            evaluate_cell(bundle, ds)
        ds_ok = generate_dataset(sys, "zero", 2, seed=100, horizon=2.0)
        evaluate_cell(bundle, ds_ok)

    def test_grid_shape_and_cell_independence(self):
        bundles = observer_bundles(["autonomous", "dynamic"])
        report = benchmark(
            loaders(bundles), "duffing", regimes=("zero", "sinusoid"),
            n_test=2, seed=500, horizon=2.0,
        )
        # regime-major, in loader order within a regime
        assert [(c.regime, c.variant) for c in report.cells] == [
            ("zero", "autonomous"), ("zero", "dynamic"),
            ("sinusoid", "autonomous"), ("sinusoid", "dynamic"),
        ]
        assert [c.seed_lo for c in report.cells] == [500, 500, 502, 502]
        # standalone recomputation of one cell matches the grid cell
        ds = generate_dataset(duffing(), "zero", 2, 500, horizon=2.0)
        solo = evaluate_cell(bundles["autonomous"], ds)
        assert solo == report.cells[0]

    def test_each_test_set_is_built_once_and_each_cell_loads_its_bundle(
            self, monkeypatch):
        bundles = observer_bundles(["autonomous", "dynamic"])
        events = []
        real_generate = evaluation.generate_dataset

        def generate(*args, **kwargs):
            events.append(args[1])
            return real_generate(*args, **kwargs)

        def loader(variant):
            def load():
                events.append(variant)
                return bundles[variant]
            return load

        monkeypatch.setattr(evaluation, "generate_dataset", generate)
        benchmark({v: loader(v) for v in ("dynamic", "autonomous")},
                  "duffing", regimes=("zero", "constant", "sinusoid"),
                  n_test=1, seed=500, horizon=1.0)
        assert events == [
            "zero", "dynamic", "autonomous",
            "constant", "dynamic", "autonomous",
            "sinusoid", "dynamic", "autonomous",
        ]

    def test_the_grid_holds_one_bundle_at_a_time(self, tmp_path):
        # At lorenz widths the autonomous bundle's decoder is about 2 MB:
        # a grid that held both bundles at once would peak that much
        # higher than the dynamic variant alone.
        paths = {}
        for variant, bundle in observer_bundles(
                ["autonomous", "dynamic"], hidden=(350, 350, 350),
                system="lorenz").items():
            paths[variant] = tmp_path / f"{variant}.hkkp"
            write_checkpoint(bundle, paths[variant])

        def grid_peak(variants):
            reads = {v: (lambda p=paths[v]: read_checkpoint(p, observer=True))
                     for v in variants}
            return traced_peak(lambda: benchmark(
                reads, "lorenz", regimes=("zero", "sinusoid"), n_test=1,
                seed=900, horizon=1.0))[1]

        grid_peak(["dynamic"])  # warm up
        alone = grid_peak(["dynamic"])
        both = grid_peak(["autonomous", "dynamic"])
        assert both <= alone + 64 * 1024

    def test_the_grid_holds_one_test_set_at_a_time(self):
        # 8 lorenz runs of 1001 steps are about 320 KB a test set: a grid
        # that kept every regime's would peak that much higher per regime
        loads = loaders(observer_bundles(["autonomous"], system="lorenz"))

        def grid_peak(regimes):
            return traced_peak(lambda: benchmark(
                loads, "lorenz", regimes=regimes, n_test=8, seed=900,
                horizon=50.0))[1]

        grid_peak(("zero",))  # warm up
        one = grid_peak(("zero",))
        three = grid_peak(("zero", "constant", "sinusoid"))
        assert three <= one + 64 * 1024

    def test_report_reproducible(self, tmp_path):
        bundles = observer_bundles(["autonomous"])
        kw = dict(regimes=("zero",), n_test=2, seed=700, horizon=2.0)
        a = benchmark(loaders(bundles), "duffing", **kw)
        b = benchmark(loaders(bundles), "duffing", **kw)
        assert a.cells == b.cells
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(p1)
        b.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_carries_the_rmse_spread(self, tmp_path):
        bundles = observer_bundles(["autonomous"])
        report = benchmark(loaders(bundles), "duffing",
                           regimes=("sinusoid",), n_test=3, seed=800,
                           horizon=2.0)
        path = tmp_path / "r.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        cell = report.cells[0]
        assert cell.rmse_std > 0.0
        assert float(row["rmse_std"]) == cell.rmse_std
        assert float(row["rmse"]) == cell.rmse
