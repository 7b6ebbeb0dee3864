import math

import numpy as np
import pytest

from conftest import (
    analytic_linear_maps,
    analytic_linear_observer,
    linear_test_system,
)

from hyperkkl.checkpoints import CheckpointBundle
from hyperkkl.data import Dataset, generate_dataset
from hyperkkl.dynamics import Trajectory, duffing, simulate
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
from hyperkkl.kkl import build_observer_matrices, init_map_params, make_maps


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


def manufactured_bundle():
    obs, c = analytic_linear_observer()
    maps, theta, phi = analytic_linear_maps(c)
    return CheckpointBundle(
        variant="autonomous", system_name="linear1d", maps=maps, obs=obs,
        theta=theta, phi=phi,
    )


def duffing_bundles(variant_list, seed=0):
    """Bundles around one shared random base (fresh conditioning params)."""
    obs = build_observer_matrices(2, 1)
    maps = make_maps(2, 5, hidden=(10,))
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
            kw = {"hyper_spec": spec, "psi": psi}
        elif variant == "static":
            spec = build_injection_spec(5, window=12, lstm_hidden=6,
                                        mlp_hidden=(8,))
            xi = init_injection_params(spec, seed + 3)
            xi.data[:] = np.random.default_rng(seed + 4).normal(
                size=xi.data.shape
            ) * 0.05
            kw = {"injection_spec": spec, "xi": xi}
        out[variant] = CheckpointBundle(
            variant=variant, system_name="duffing", maps=maps, obs=obs,
            theta=theta, phi=phi, **kw,
        )
    return out


class TestRunObserver:
    def test_manufactured_error_decays(self):
        bundle = manufactured_bundle()
        sys = linear_test_system()
        tr = simulate(sys, np.array([0.9]), None, 0.005, 8.0, 0.0, seed=0)
        xhat = run_observer(bundle, tr)
        err = np.abs(tr.states - xhat)[:, 0]
        k0 = int(0.5 / 0.005)
        c0 = err[k0] * math.exp(tr.times[k0])
        sl = slice(k0, len(err))
        assert np.all(err[sl] <= 1.05 * c0 * np.exp(-tr.times[sl]) + 1e-12)

    def test_estimates_are_causal(self):
        bundles = duffing_bundles(["dynamic"])
        sys = duffing()
        ds = generate_dataset(sys, "sinusoid", 1, seed=5, horizon=5.0, sigma=0.01)
        tr = ds.trajectories[0]
        full = run_observer(bundles["dynamic"], tr)
        cut = 60
        short = Trajectory(
            dt=tr.dt, times=tr.times[:cut], states=tr.states[:cut],
            inputs=tr.inputs[:cut], outputs=tr.outputs[:cut], x0=tr.x0,
            noise_sigma=tr.noise_sigma, seed=tr.seed, signal=tr.signal,
        )
        prefix = run_observer(bundles["dynamic"], short)
        assert np.array_equal(full[:cut], prefix)

    @pytest.mark.parametrize("variant", ["dynamic", "static"])
    def test_zero_input_recovery_bitwise(self, variant):
        bundles = duffing_bundles(["autonomous", variant])
        sys = duffing()
        ds = generate_dataset(sys, "zero", 3, seed=9, horizon=5.0, sigma=0.01)
        for tr in ds.trajectories:
            a = run_observer(bundles["autonomous"], tr)
            b = run_observer(bundles[variant], tr)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["dynamic", "static"])
    def test_forced_input_changes_estimates(self, variant):
        bundles = duffing_bundles(["autonomous", variant])
        sys = duffing()
        ds = generate_dataset(sys, "sinusoid", 1, seed=11, horizon=5.0,
                              sigma=0.0)
        tr = ds.trajectories[0]
        a = run_observer(bundles["autonomous"], tr)
        b = run_observer(bundles[variant], tr)
        assert not np.array_equal(a, b)


class TestBenchmark:
    def test_seed_overlap_refused(self):
        bundles = duffing_bundles(["autonomous"])
        bundle = bundles["autonomous"]
        bundle.train_seed_range = (0, 99)
        sys = duffing()
        ds = generate_dataset(sys, "zero", 2, seed=50, horizon=2.0)
        with pytest.raises(ContractViolation):
            evaluate_cell(bundle, ds)
        ds_ok = generate_dataset(sys, "zero", 2, seed=100, horizon=2.0)
        evaluate_cell(bundle, ds_ok)

    def test_grid_shape_and_cell_independence(self):
        bundles = duffing_bundles(["autonomous", "dynamic"])
        report = benchmark(
            bundles, "duffing", regimes=("zero", "sinusoid"), n_test=2,
            seed=500, horizon=2.0,
        )
        assert len(report.cells) == 4
        keys = {(c.variant, c.regime) for c in report.cells}
        assert keys == {
            ("autonomous", "zero"), ("autonomous", "sinusoid"),
            ("dynamic", "zero"), ("dynamic", "sinusoid"),
        }
        # standalone recomputation of one cell matches the grid cell
        ds = generate_dataset(duffing(), "zero", 2, 500, horizon=2.0)
        solo = evaluate_cell(bundles["autonomous"], ds)
        grid = next(
            c for c in report.cells
            if c.variant == "autonomous" and c.regime == "zero"
        )
        assert solo == grid

    def test_report_reproducible(self, tmp_path):
        bundles = duffing_bundles(["autonomous"])
        kw = dict(regimes=("zero",), n_test=2, seed=700, horizon=2.0)
        a = benchmark(bundles, "duffing", **kw)
        b = benchmark(bundles, "duffing", **kw)
        assert a.cells == b.cells
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(p1)
        b.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_checkpoint_listed(self):
        with pytest.raises(ContractViolation) as exc:
            benchmark({"autonomous": None}, "duffing")
        assert "autonomous" in str(exc.value)
