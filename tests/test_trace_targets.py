"""The benchmark's traced run wraps hyperkkl functions by name.

``pipebench/trace.py`` lists them in TARGETS and reads some of their
leading positional arguments in its hooks; a rename or a reordered
signature would break ``pipebench/run.py --trace 1`` without failing any
other test.
"""

import importlib
import inspect
import json
from pathlib import Path

from conftest import init_map_params

ROOT = Path(__file__).resolve().parent.parent


def _positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    trace = importlib.import_module("pipebench.trace")
    for mod_name, fn_name in trace.TARGETS:
        module = importlib.import_module(f"hyperkkl.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"hyperkkl.{mod_name}.{fn_name} is gone"
        # hooks take (self, [state, result,] leading args..., *a, **k)
        for prefix, skip in (("_before_", 1), ("_after_", 3)):
            hook = getattr(trace.Tracer, prefix + fn_name, None)
            if hook is None:
                continue
            wanted = _positional(hook)[skip:]
            assert _positional(fn)[: len(wanted)] == wanted, (
                f"hyperkkl.{mod_name}.{fn_name} no longer starts with "
                f"{wanted}"
            )


def test_tracer_counts_one_kernel_call_per_step(monkeypatch):
    # the traced benchmark checks rk4_step calls == simulate steps; both
    # must hold with one simulate call per trajectory set
    monkeypatch.syspath_prepend(str(ROOT))
    trace = importlib.import_module("pipebench.trace")
    from hyperkkl import data, dynamics, kkl, training

    tracer = trace.Tracer("test")
    tracer.install()
    try:
        ds = data.generate_dataset(dynamics.duffing(), "zero", 3, 4,
                                   horizon=2.0, sigma=0.01)
        obs = kkl.build_observer_matrices(2, 1)
        training.latent_targets(ds.system, obs, [ds.trajectories])
    finally:
        tracer.remove()
    counts = tracer.counts
    assert (counts["dynamics.rk4_step.calls"]
            == counts["dynamics.simulate.steps"] == 2 * 40)
    spans = tracer.spans
    simulate = [s for s in spans if s[0] == "dynamics.simulate"]
    assert [spans[s[3]][0] for s in simulate] == [
        "data.generate_dataset", "training.latent_targets"]
    latent = [s for s in spans if s[0] == "kkl.simulate_latent_nodes"]
    assert len(latent) == 1
    assert counts["kkl.simulate_latent_nodes.steps"] == 40 * len(latent)


def test_traced_eval_names_one_span_per_cell_and_counts_steps(monkeypatch):
    # run_observer takes a cell's whole test set: its span is named after
    # the variant, and the plain filter steps the set's runs as one block
    monkeypatch.syspath_prepend(str(ROOT))
    trace = importlib.import_module("pipebench.trace")
    from hyperkkl import data, dynamics, evaluation, kkl
    from hyperkkl.checkpoints import CheckpointBundle

    obs = kkl.build_observer_matrices(2, 1)
    maps = kkl.make_maps(2, obs.n_z, hidden=(6,))
    theta, phi = init_map_params(maps, 0)
    bundle = CheckpointBundle(variant="autonomous", system_name="duffing",
                              maps=maps, obs=obs, theta=theta, phi=phi,
                              train_seed_range=(1, 3))
    ds = data.generate_dataset(dynamics.duffing(), "sinusoid", 3, 4,
                               horizon=2.0)
    tracer = trace.Tracer("test")
    tracer.install()
    try:
        cell = evaluation.evaluate_cell(bundle, ds)
    finally:
        tracer.remove()
    assert cell.n == 3
    names = [s[0] for s in tracer.spans]
    assert [n for n in names if n.startswith("evaluation.run_observer")] == [
        "evaluation.run_observer.autonomous"]
    latent = [n for n in names if n == "kkl.simulate_latent_nodes"]
    assert len(latent) == 1
    assert tracer.counts["kkl.simulate_latent_nodes.steps"] == 40


def test_traced_static_phase2_encodes_each_run_once_per_segment(
        monkeypatch, tmp_path):
    # the traced benchmark requires context_use_ratio.static to be
    # segment_steps / (N + 1): each segment makes one step injection,
    # which encodes its run's N + 1 windows, and steps segment_steps of them
    monkeypatch.syspath_prepend(str(ROOT))
    trace = importlib.import_module("pipebench.trace")
    from hyperkkl import data, dynamics, hypernet, kkl, training

    system = dynamics.van_der_pol()
    obs = kkl.build_observer_matrices(2, 1)
    maps = kkl.make_maps(2, obs.n_z, hidden=(6,))
    _, phi = init_map_params(maps, 5)
    runs = data.generate_dataset(system, "sinusoid", 2, 3,
                                 horizon=2.0).trajectories
    spec = hypernet.build_injection_spec(obs.n_z, window=4, lstm_hidden=3,
                                         mlp_hidden=(5,))
    config = training.TrainConfig(epochs=1, seed=1, segment_steps=10,
                                  segment_discard=2, segment_batch=3)
    tracer = trace.Tracer("static")
    tracer.install()
    try:
        training.phase2_train(system, obs, maps, None, phi, spec, [runs],
                              config)
    finally:
        tracer.remove()
    names = [s[0] for s in tracer.spans]
    assert names.count("hypernet.make_step_injection") == 3
    tracer.dump(tmp_path / "static.json")
    counts = json.loads((tmp_path / "static.json").read_text())["counts"]
    assert (counts["hypernet.make_step_injection.windows_encoded.static"]
            == 3 * (runs.n_steps + 1))
    # a segment reaches at most segment_steps distinct steps, so the sum
    # is 3 * 10 only if every segment steps all of them
    assert counts["hypernet.make_step_injection.windows_used.static"] == 3 * 10
