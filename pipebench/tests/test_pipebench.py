"""Tests of the benchmark's own code: span arithmetic, wrapper install and
removal, the output checks, and that untraced stages run the plain CLI.

Run with ``python -m pytest pipebench/tests`` from the repository root.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from pipebench import checks, layers, run, stages, workloads
from pipebench.trace import Tracer


def installed_anywhere() -> bool:
    """True if any hyperkkl module in this process binds a tracing wrapper."""
    return any(
        getattr(value, "pipebench_wrapper", False)
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "hyperkkl"
        for value in list(vars(module).values())
    )


# -- self time -----------------------------------------------------------

def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.5, 6.0, 0],      # overlaps a: the union 1..6 is covered once
        ["leaf", 2.0, 3.0, 1],
        ["a", 7.0, 8.0, 0],
    ]
    t = layers.span_totals(spans)
    assert t["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert t["a"]["calls"] == 2
    assert t["a"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert t["a"]["incl_s"] == pytest.approx(4.0)
    assert t["b"]["self_s"] == pytest.approx(2.5)
    assert t["leaf"]["self_s"] == pytest.approx(1.0)


def test_inclusive_time_counts_nested_same_name_once():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0]]
    t = layers.span_totals(spans)
    assert t["f"]["incl_s"] == pytest.approx(4.0)
    assert t["f"]["self_s"] == pytest.approx(3.0 + 1.0)


def test_covered_clips_children_to_parent():
    assert layers.covered(0.0, 5.0, [(-1.0, 1.0), (4.0, 9.0)]) == pytest.approx(2.0)
    assert layers.covered(0.0, 5.0, []) == 0.0


# -- wrappers ------------------------------------------------------------

def test_install_replaces_simulate_latent_everywhere_and_remove_restores():
    from hyperkkl import evaluation, kkl, training

    original = kkl.simulate_latent
    assert training.simulate_latent is original
    assert evaluation.simulate_latent is original
    tracer = Tracer("eval")
    tracer.install()
    try:
        assert training.simulate_latent is not original
        assert evaluation.simulate_latent is training.simulate_latent
        assert kkl.simulate_latent is training.simulate_latent
        assert installed_anywhere()
        obs = kkl.build_observer_matrices(2, 1)
        evaluation.simulate_latent(obs, np.zeros((11, 1)), 0.05)
    finally:
        tracer.remove()
    assert training.simulate_latent is original
    assert evaluation.simulate_latent is original
    assert not installed_anywhere()
    names = [s[0] for s in tracer.spans]
    assert names == ["kkl.simulate_latent", "kkl.simulate_latent_nodes"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts["kkl.simulate_latent_nodes.steps"] == 10


def test_install_twice_is_refused():
    tracer = Tracer("gen")
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()


# -- output checks -------------------------------------------------------

def _write_loss(path, rows):
    with open(path, "w") as fh:
        fh.write("epoch,loss_rec,loss_pde,grad_norm,level\n")
        for epoch, loss, level in rows:
            fh.write(f"{epoch},{loss!r},0.0,1.0,{level}\n")


def test_loss_csv_with_missing_row_is_a_failed_operation(tmp_path):
    path = tmp_path / "loss.csv"
    stage = workloads.Stage("pretrain", (), loss_csv=str(path), expected_rows=4)
    _write_loss(path, [(e, 1.0 / e, 0) for e in range(1, 5)])
    assert checks.check_loss_csv(stage).ok
    _write_loss(path, [(e, 1.0 / e, 0) for e in range(1, 4)])
    out = checks.check_loss_csv(stage)
    assert not out.ok and "3 rows, expected 4" in out.detail


def test_curriculum_rows_follow_the_plateau_rule(tmp_path):
    schedule = {"level_epochs": 15, "patience": 10, "epsilon": 0.01}
    flat = [1.0] * 11                     # plateau fires at the 11th loss
    falling = [2.0 ** -i for i in range(15)]  # never plateaus: full budget
    rows = [(i + 1, v, 1) for i, v in enumerate(flat)]
    rows += [(len(rows) + i + 1, v, 2) for i, v in enumerate(falling)]
    path = tmp_path / "curr.csv"
    stage = workloads.Stage("curriculum", (), loss_csv=str(path))
    _write_loss(path, rows)
    assert checks.check_loss_csv(stage, schedule=schedule, levels=2).ok
    assert not checks.check_loss_csv(stage, reference_rows=25,
                                     schedule=schedule, levels=2).ok
    _write_loss(path, rows[:-1])          # aborted before the level budget
    assert not checks.check_loss_csv(stage, schedule=schedule, levels=2).ok


def _write_report(path, rmse):
    with open(path, "w") as fh:
        fh.write("system,variant,regime,rmse,smape,n,seed_lo,seed_hi\n")
        for regime in workloads.EVAL_REGIMES:
            fh.write(f"duffing,autonomous,{regime},{rmse!r},10.0,1,500,500\n")


def test_rmse_outside_tolerance_is_a_failed_operation(tmp_path):
    path = tmp_path / "report.csv"
    stage = workloads.Stage("eval", (), eval_csv=str(path),
                            eval_variants=("autonomous",))
    ref = {f"autonomous/{r}": {"rmse": 0.5, "smape": 10.0}
           for r in workloads.EVAL_REGIMES}
    _write_report(path, 0.5 * (1 + checks.RTOL / 10))
    outs = checks.check_eval_csv(stage, workloads.EVAL_REGIMES, 1, ref)
    assert len(outs) == 4 and all(o.ok for o in outs)
    _write_report(path, 0.5 * 1.01)
    outs = checks.check_eval_csv(stage, workloads.EVAL_REGIMES, 1, ref)
    assert len(outs) == 4 and not any(o.ok for o in outs)
    outs = checks.check_eval_csv(stage, workloads.EVAL_REGIMES, 1, None)
    assert all(o.ok for o in outs)        # no reference: range checks only
    _write_report(path, float("nan"))
    outs = checks.check_eval_csv(stage, workloads.EVAL_REGIMES, 1, None)
    assert not any(o.ok for o in outs)


def test_failed_stage_is_counted_not_raised(tmp_path):
    bad = stages.StageRun("gen", (), 2, 0.1, 0.1, 0.0, 30.0, 100)
    out = checks.check_stage(bad, [])
    assert not out.ok and "exit code 2" in out.detail


# -- untraced stages run the plain CLI --------------------------------------

@pytest.mark.parametrize("traced", [False, True])
def test_untraced_stages_never_run_with_wrappers(tmp_path, monkeypatch, traced):
    seen = []

    def fake_run_child(name, argv, cwd, log_path, timeout_s=0.0):
        seen.append((name, list(argv)))
        return stages.StageRun(name, tuple(argv), 0, 0.01, 0.0, 0.0, 1.0, 1)

    monkeypatch.setattr(stages, "run_child", fake_run_child)
    w = workloads.WORKLOADS["duffing-conditioned"]
    run.run_pass(w, 0, tmp_path / "p", traced, None, deadline=1e18)
    stage_argvs = [argv for name, argv in seen if name != "setup"]
    assert len(stage_argvs) == len(w.stages(0, tmp_path))
    for argv in stage_argvs:
        assert ("pipebench.traced_cli" in argv) == traced
        if not traced:
            assert argv[1:3] == ["-m", "hyperkkl.cli"]
    assert not installed_anywhere()


def test_untraced_child_is_the_real_cli(tmp_path):
    args = ["gen", "--system", "duffing", "--n", "1", "--horizon", "1.0",
            "--seed", "3", "--out", str(tmp_path)]
    r = stages.run_child("gen", stages.cli_command(args), tmp_path,
                         tmp_path / "gen.log")
    assert r.exit_code == 0 and r.maxrss_mb > 0 and r.wall_s > 0
    assert (tmp_path / "duffing_zero_n1_s3.hkkl").is_file()


def test_traced_child_writes_spans(tmp_path):
    args = ["gen", "--system", "duffing", "--regime", "sinusoid", "--n", "1",
            "--horizon", "1.0", "--seed", "3", "--out", str(tmp_path)]
    out = tmp_path / "spans.json"
    r = stages.run_child("gen", stages.traced_command(args, "gen", out),
                         tmp_path, tmp_path / "gen.log")
    assert r.exit_code == 0
    dump = json.loads(out.read_text())
    m = layers.layer_metrics([dump])
    assert m["dynamics.simulate.calls"] == 1
    assert m["dynamics.rk4_step.calls"] == m["_simulate_steps"] == 20
    assert m["data.hkkl_bytes"] == (tmp_path / "duffing_sinusoid_n1_s3.hkkl").stat().st_size


# -- seeds and metric names ------------------------------------------------

def test_train_and_test_seed_ranges_are_disjoint_across_seeds():
    for seed in (0, 1, 7, 12345):
        s = workloads.seeds_for(seed)
        train_hi = max(s["data"]) + 99
        test_lo, test_hi = s["test"], s["test"] + 4 * 20 - 1
        assert train_hi < test_lo
        assert test_hi < workloads.SEED_BLOCK * (seed + 1)


def test_every_benchmark_metric_is_produced():
    spec = run.load_spec()
    fake = stages.StageRun("gen", (), 0, 1.0, 0.5, 0.1, 30.0, 100)
    p = run.PassResult(0.5, 2.0, [fake], [])
    assert {e["name"] for e in spec["end_to_end"]} <= set(run.end_to_end(p))
    produced = set(layers.layer_metrics([])) | set(layers.process_metrics([]))
    produced |= {"cli.import_s", "trace.overhead_s", "process.pipeline.wall_s"}
    assert {e["name"] for e in spec["per_layer"]} <= produced


def test_no_source_tree_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "pipebench"
    bench.mkdir()
    for f in stages.ROOT.joinpath("pipebench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (stages.ROOT / "BENCHMARK.json").read_text())
    r = subprocess.run([sys.executable, "pipebench/run.py", "--workload",
                        "lorenz-curriculum", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
