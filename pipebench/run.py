"""Pipeline benchmark: per-stage wall time and peak RSS of the hyperkkl CLI.

Usage (from the repository root):

    python3 pipebench/run.py                      # both workloads, untraced
    python3 pipebench/run.py --workload duffing-conditioned --seed 0 \\
        --seconds 30 --trace 0                    # end-to-end metrics
    python3 pipebench/run.py --workload lorenz-curriculum --trace 1
                                                  # per-layer metrics

An untraced run sets up and runs whole pipeline passes, one stage per
child process, as many as fit in ``--seconds`` (at least one). It reports
the minimum of each metric over the passes: slow-downs on a shared box
only ever add time, and peak RSS is the same in every pass. Each pass's
stage wall times are printed too. ``--trace 1`` runs one untraced pass
(for the process.* metrics and the tracing overhead) and one traced pass
instead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, holding the metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench import checks, envinfo, layers, stages, workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".pipebench_work"

RUN_DEADLINE_S = 175.0   # every run must end within 180 s
SETUP_REPEATS = 6        # set-ups per pass; setup_s is the fastest one
IMPORT_REPEATS = 3


@dataclass
class PassResult:
    setup_s: float
    pipeline_s: float
    runs: list
    outcomes: list
    dumps: list = field(default_factory=list)
    recorded: dict = field(default_factory=dict)


def _deadline_left(deadline) -> float:
    return max(1.0, deadline - time.perf_counter())


def setup_pass(w, work: Path, deadline):
    """Make the work dir, write the config file, warm the CLI once.

    Done SETUP_REPEATS times from scratch; returns the fastest time and the
    outcome of the last set-up, whose directory the pass then uses.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        work.mkdir(parents=True)
        (work / f"{w.system}.ini").write_text(w.config_text)
        warm = stages.run_child("setup", stages.cli_command(["--help"]), work,
                                work / "setup.log", _deadline_left(deadline))
        times.append(time.perf_counter() - t0)
    ok = warm.exit_code == 0
    return min(times), checks.Outcome(
        "setup", ok, "" if ok else f"CLI start exit code {warm.exit_code}")


def run_pass(w, seed, work: Path, traced: bool, reference, deadline) -> PassResult:
    setup_s, setup_ok = setup_pass(w, work, deadline)
    plan = w.stages(seed, work)
    runs = []
    t0 = time.perf_counter()
    for i, st in enumerate(plan):
        if traced:
            argv = stages.traced_command(st.args, st.name, work / f"trace{i:02d}.json")
        else:
            argv = stages.cli_command(st.args)
        runs.append(stages.run_child(st.name, argv, work,
                                     work / f"{i:02d}-{st.name}.log",
                                     _deadline_left(deadline)))
    pipeline_s = time.perf_counter() - t0

    outcomes = [setup_ok]
    dumps = []
    recorded = {"cells": {}, "loss_rows": {}}
    ref_rows = (reference or {}).get("loss_rows", {})
    ref_cells = (reference or {}).get("cells")
    for i, (st, run) in enumerate(zip(plan, runs)):
        outcomes.append(checks.check_stage(run, st.outputs))
        if st.loss_csv:
            outcomes.append(checks.check_loss_csv(
                st, ref_rows.get(st.name), w.curriculum,
                levels=st.args.count("--data")))
            if Path(st.loss_csv).is_file():
                recorded["loss_rows"][st.name] = len(checks.read_loss_rows(st.loss_csv))
        if st.eval_csv:
            outcomes += checks.check_eval_csv(st, workloads.EVAL_REGIMES,
                                              w.n_test, ref_cells)
            if Path(st.eval_csv).is_file():
                recorded["cells"] = checks.eval_cells(st.eval_csv)
        dump_path = work / f"trace{i:02d}.json"
        if traced and dump_path.is_file():
            with open(dump_path) as fh:
                dumps.append(json.load(fh))
    return PassResult(setup_s, pipeline_s, runs, outcomes, dumps, recorded)


def end_to_end(p: PassResult) -> dict:
    def wall(names):
        return sum(r.wall_s for r in p.runs if r.name in names)

    def rss(names):
        return max((r.maxrss_mb for r in p.runs if r.name in names), default=0.0)

    fin = workloads.FINETUNE_STAGES
    return {
        "setup_s": p.setup_s,
        "pipeline_s": p.pipeline_s,
        "gen_s": wall(("gen",)),
        "pretrain_s": wall(("pretrain",)),
        "finetune_s": wall(fin),
        "eval_s": wall(("eval",)),
        "gen_rss_mb": rss(("gen",)),
        "pretrain_rss_mb": rss(("pretrain",)),
        "finetune_rss_mb": rss(fin),
        "eval_rss_mb": rss(("eval",)),
    }


def import_time(work: Path, deadline) -> float:
    """Median wall time of a child that only imports the CLI module."""
    times = []
    for i in range(IMPORT_REPEATS):
        r = stages.run_child("import", [sys.executable, "-c", "import hyperkkl.cli"],
                             work, work / f"import{i}.log", _deadline_left(deadline))
        times.append(r.wall_s)
    return statistics.median(times)


def instrumentation_checks(w, m) -> list:
    out = []
    rk4, steps = m["dynamics.rk4_step.calls"], m["_simulate_steps"]
    out.append(checks.Outcome(
        "trace rk4_step calls == simulate steps", rk4 == steps and rk4 > 0,
        f"rk4_step.calls={rk4} simulate steps={steps}"))
    if w.static_context_ratio is not None:
        ratio = m["hypernet.context_use_ratio.static"]
        out.append(checks.Outcome(
            "trace static context use ratio",
            abs(ratio - w.static_context_ratio) < 1e-12,
            f"ratio={ratio} expected={w.static_context_ratio}"))
    return out


def run_workload(w, seed, seconds, trace, reference):
    run_dir = WORK_ROOT / f"{w.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    passes = []
    try:
        if trace:
            plain = run_pass(w, seed, run_dir / "untraced", False, reference, deadline)
            traced = run_pass(w, seed, run_dir / "traced", True, reference, deadline)
            passes = [plain, traced]
            m = layers.layer_metrics(traced.dumps)
            m.update(layers.process_metrics(plain.runs))
            m["process.pipeline.wall_s"] = plain.pipeline_s
            m["cli.import_s"] = import_time(run_dir / "traced", deadline)
            m["trace.overhead_s"] = traced.pipeline_s - plain.pipeline_s
            outcomes = plain.outcomes + traced.outcomes + instrumentation_checks(w, m)
            del m["_simulate_steps"]
        else:
            while True:
                k = len(passes)
                p = run_pass(w, seed, run_dir / f"pass{k}", False, reference, deadline)
                passes.append(p)
                shutil.rmtree(run_dir / f"pass{k}", ignore_errors=True)
                # Start another pass only if it should end within --seconds.
                elapsed = time.perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > min(seconds, RUN_DEADLINE_S):
                    break
            per_pass = [end_to_end(p) for p in passes]
            m = {k: min(pp[k] for pp in per_pass) for k in per_pass[0]}
            outcomes = [o for p in passes for o in p.outcomes]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return m, outcomes, passes


def load_spec() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def result_line(spec, trace, m, outcomes) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {e["name"]: {"value": m[e["name"]], "unit": e["unit"]} for e in wanted}
    failed = sum(1 for o in outcomes if not o.ok)
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure whole passes until this many seconds "
                             "have passed (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's eval cells and loss row "
                             "counts in references.json")
    args = parser.parse_args(argv)

    if not (stages.SRC / "hyperkkl" / "cli.py").is_file():
        print(f"error: no hyperkkl source under {stages.SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    refs = checks.load_references()
    env = envinfo.record()
    lines = []
    for name in names:
        w = workloads.WORKLOADS[name]
        reference = None if args.record_reference else refs.get(name, {}).get(str(args.seed))
        m, outcomes, passes = run_workload(w, args.seed, seconds, args.trace,
                                           reference)
        line = result_line(spec, args.trace, m, outcomes)
        print(f"# {name} seed={args.seed} trace={args.trace} passes={len(passes)} "
              f"reference={'yes' if reference else 'no'}")
        for k, p in enumerate(passes):
            print(f"{name}  pass {k}: " + " ".join(
                f"{key}={v:.6g}" for key, v in end_to_end(p).items()))
        for key, v in line["metrics"].items():
            print(f"{name}  {key:52s} {v['value']:>16.6g} {v['unit']}")
        print(f"{name}  operations: {line['failed']} failed of {line['attempted']} attempted")
        for o in outcomes:
            if not o.ok:
                print(f"{name}  FAILED {o.op}: {o.detail}")
        if args.record_reference:
            rec = passes[0].recorded
            refs.setdefault(name, {})[str(args.seed)] = rec
            with open(checks.REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
        lines.append((name, line))

    print("env " + json.dumps(env, sort_keys=True))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {f"{n}/{k}": v for n, l in lines for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
