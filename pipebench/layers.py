"""Per-layer metrics from the traced stages' spans and counts.

A span's self time is its duration minus the part of its interval that
its child spans cover. An inclusive time (a name ending in ``.s``) sums
the durations of a name's outermost spans only, so recursion is not
counted twice.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

STAGES = ("gen", "pretrain", "static", "dynamic", "curriculum", "eval")
TRAIN_STAGES = ("pretrain", "static", "dynamic", "curriculum")
INJECTION_STAGES = ("static", "eval")
EVAL_VARIANTS = ("autonomous", "static", "dynamic", "curriculum")


def covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(spans) -> dict:
    """{name: {"calls", "incl_s", "self_s"}} over one list of spans.

    A span is ``[name, start, end, parent_index]`` with -1 for no parent.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += dur - covered(start, end, kids)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["incl_s"] += dur
    return out


def _gaps(times) -> list:
    return [b - a for a, b in zip(times, times[1:])]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(dumps) -> dict:
    """Per-layer metrics from the dumps of every traced stage of one pass.

    ``dumps`` is a list of Tracer dumps (dicts with stage, spans, counts,
    samples). Stage-suffixed metrics of stages the workload does not run
    read 0.
    """
    totals: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    counts: dict = defaultdict(int)
    by_stage: dict = {s: {"spans": defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}),
                          "counts": defaultdict(int),
                          "tape_nodes": [], "tape_bytes": [], "gaps": [],
                          "epochs": 0} for s in STAGES}
    for d in dumps:
        st = by_stage[d["stage"]]
        for name, t in span_totals(d["spans"]).items():
            for key in ("calls", "incl_s", "self_s"):
                totals[name][key] += t[key]
                st["spans"][name][key] += t[key]
        for name, v in d["counts"].items():
            counts[name] += v
            st["counts"][name] += v
        samples = d.get("samples", {})
        st["tape_nodes"] += samples.get("tape_nodes", [])
        st["tape_bytes"] += samples.get("tape_bytes", [])
        st["gaps"] += _gaps(samples.get("adam_end", []))
        st["epochs"] += len(samples.get("adam_end", []))

    def incl(name):
        return totals[name]["incl_s"]

    def self_s(name):
        return totals[name]["self_s"]

    def calls(name):
        return totals[name]["calls"]

    m = {
        "cli.main.self_s": self_s("cli.main"),
        "manifest.append_manifest.s": incl("manifest.append_manifest"),
        "data.generate_dataset.s": incl("data.generate_dataset"),
        "data.write_dataset.s": incl("data.write_dataset"),
        "data.read_dataset.s": incl("data.read_dataset"),
        "data.hkkl_bytes": counts["data.hkkl_bytes"],
        "checkpoints.write_checkpoint.s": incl("checkpoints.write_checkpoint"),
        "checkpoints.read_checkpoint.s": incl("checkpoints.read_checkpoint"),
        "checkpoints.hkkp_bytes": counts["checkpoints.hkkp_bytes"],
        "dynamics.simulate.calls": calls("dynamics.simulate"),
        "dynamics.simulate.self_s": self_s("dynamics.simulate"),
        "dynamics.rk4_step.calls": counts["dynamics.rk4_step.calls"],
        "signals.eval_signal.calls": calls("signals.eval_signal"),
        "signals.eval_signal.self_s": self_s("signals.eval_signal"),
        "signals.window_matrix.self_s": self_s("signals.window_matrix"),
        "kkl.simulate_latent_nodes.calls": calls("kkl.simulate_latent_nodes"),
        "kkl.simulate_latent_nodes.steps": counts["kkl.simulate_latent_nodes.steps"],
        "kkl.simulate_latent_nodes.self_s": self_s("kkl.simulate_latent_nodes"),
        "kkl.autonomous_pde_residual.s": incl("kkl.autonomous_pde_residual"),
        "kkl.dynamic_pde_residual_batch.s": incl("kkl.dynamic_pde_residual_batch"),
        "kkl.reconstruction_loss.s": incl("kkl.reconstruction_loss"),
        "nets.mlp_forward.calls": calls("nets.mlp_forward"),
        "nets.mlp_forward.rows": counts["nets.mlp_forward.rows"],
        "nets.mlp_forward.self_s": self_s("nets.mlp_forward"),
        "nets.mlp_forward_with_jacobian.self_s": self_s("nets.mlp_forward_with_jacobian"),
        "nets.lstm_forward.windows": counts["nets.lstm_forward.windows"],
        "nets.lstm_forward.self_s": self_s("nets.lstm_forward"),
        "hypernet.generate_deltas.self_s": self_s("hypernet.generate_deltas"),
        "hypernet.generate_deltas.out_bytes": counts["hypernet.generate_deltas.out_bytes"],
        "hypernet.head_layer_deltas.self_s": self_s("hypernet.head_layer_deltas"),
        "hypernet.delta_store.calls": counts["hypernet.delta_store.calls"],
        "autodiff.backward.calls": calls("autodiff.backward"),
        "optim.adam_step.s": incl("optim.adam_step"),
        "optim.clip_grad_norm.s": incl("optim.clip_grad_norm"),
        "training.latent_targets.s": incl("training.latent_targets"),
        "training.observer_pairs.s": incl("training.observer_pairs"),
        "evaluation.run_observer.calls": sum(
            calls(f"evaluation.run_observer.{v}") for v in EVAL_VARIANTS),
    }
    for v in EVAL_VARIANTS:
        m[f"evaluation.run_observer.self_s.{v}"] = self_s(f"evaluation.run_observer.{v}")
    for s in INJECTION_STAGES:
        enc = counts[f"hypernet.make_step_injection.windows_encoded.{s}"]
        used = counts[f"hypernet.make_step_injection.windows_used.{s}"]
        m[f"hypernet.make_step_injection.windows_encoded.{s}"] = enc
        m[f"hypernet.make_step_injection.windows_used.{s}"] = used
        m[f"hypernet.context_use_ratio.{s}"] = used / enc if enc else 0.0
    for s in TRAIN_STAGES:
        st = by_stage[s]
        m[f"autodiff.backward.self_s.{s}"] = st["spans"]["autodiff.backward"]["self_s"]
        m[f"autodiff.backward.tape_nodes.{s}"] = _median(st["tape_nodes"])
        m[f"autodiff.backward.tape_bytes.{s}"] = _median(st["tape_bytes"])
        m[f"training.epoch_p50_s.{s}"] = _median(st["gaps"])
        m[f"training.epochs_done.{s}"] = st["epochs"]
    m["_simulate_steps"] = counts["dynamics.simulate.steps"]
    return m


def process_metrics(runs) -> dict:
    """``process.<stage>.*`` from the untraced children's rusage."""
    m = {}
    for s in STAGES:
        mine = [r for r in runs if r.name == s]
        m[f"process.{s}.wall_s"] = sum(r.wall_s for r in mine)
        m[f"process.{s}.sys_s"] = sum(r.sys_s for r in mine)
        m[f"process.{s}.minor_faults"] = sum(r.minor_faults for r in mine)
        m[f"process.{s}.rss_mb"] = max((r.maxrss_mb for r in mine), default=0.0)
    return m
