"""Spans and counts around the public functions of ``hyperkkl``, from outside.

``Tracer.install`` replaces each target function in every ``hyperkkl.*``
module namespace that binds it (``training``, ``evaluation`` and ``cli``
import these names with ``from ... import``), and ``Tracer.remove`` puts
the originals back. The package itself is not changed.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span or -1; times come from ``time.perf_counter``. Spans and
counts stay in memory until ``Tracer.dump`` writes them out at the end of
the stage. Tape primitives (``autodiff.add`` and the rest) run millions of
times and are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> kind. "span" records a span; "count" only counts
# calls (rk4_step runs once per simulated step, delta_store once per row).
TARGETS = {
    ("cli", "main"): "span",
    ("manifest", "append_manifest"): "span",
    ("data", "generate_dataset"): "span",
    ("data", "write_dataset"): "span",
    ("data", "read_dataset"): "span",
    ("checkpoints", "write_checkpoint"): "span",
    ("checkpoints", "read_checkpoint"): "span",
    ("dynamics", "simulate"): "span",
    ("dynamics", "rk4_step"): "count",
    ("signals", "eval_signal"): "span",
    ("signals", "window_matrix"): "span",
    ("kkl", "simulate_latent"): "span",
    ("kkl", "simulate_latent_nodes"): "span",
    ("kkl", "autonomous_pde_residual"): "span",
    ("kkl", "dynamic_pde_residual_batch"): "span",
    ("kkl", "reconstruction_loss"): "span",
    ("nets", "mlp_forward"): "span",
    ("nets", "mlp_forward_with_jacobian"): "span",
    ("nets", "lstm_forward"): "span",
    ("hypernet", "generate_deltas"): "span",
    ("hypernet", "head_layer_deltas"): "span",
    ("hypernet", "make_step_injection"): "span",
    ("hypernet", "delta_store"): "count",
    ("autodiff", "backward"): "span",
    ("optim", "adam_step"): "span",
    ("optim", "clip_grad_norm"): "span",
    ("training", "latent_targets"): "span",
    ("training", "observer_pairs"): "span",
    ("evaluation", "run_observer"): "span",
}

TAPE_WALK = "pipebench.tape_walk"


def _value(x):
    return getattr(x, "value", x)


def _rows(x) -> int:
    shape = getattr(_value(x), "shape", ())
    return 1 if len(shape) <= 1 else int(shape[0])


def tape_size(root):
    """(node count, summed value bytes) of the graph reachable from root."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += getattr(node.value, "nbytes", 0)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


class Tracer:
    """Records spans and counts for one stage of one traced child."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list = []
        self._open: list = []
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)
        self._used_sets: list = []
        self._patched: list = []

    # -- spans --------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    # -- wrapper construction ----------------------------------------
    def _span_wrapper(self, name, fn):
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            idx = self.begin(self._span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                result = after(state, result, *args, **kwargs)
            return result

        wrapper.pipebench_wrapper = True
        return wrapper

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.pipebench_wrapper = True
        return wrapper

    @staticmethod
    def _span_name(name, args, kwargs):
        if name == "evaluation.run_observer":
            bundle = args[0] if args else kwargs["bundle"]
            return f"{name}.{bundle.variant}"
        return name

    # -- per-function hooks: counts read from arguments and results ----
    def _after_simulate(self, state, result, *a, **k):
        self.counts["dynamics.simulate.steps"] += len(result.times) - 1
        return result

    def _before_simulate_latent_nodes(self, obs, y_seq, *a, **k):
        self.counts["kkl.simulate_latent_nodes.steps"] += len(y_seq) - 1

    def _before_mlp_forward(self, params, spec, x, *a, **k):
        self.counts["nets.mlp_forward.rows"] += _rows(x)

    def _before_lstm_forward(self, params, spec, sequence, *a, **k):
        shape = getattr(_value(sequence), "shape", ())
        self.counts["nets.lstm_forward.windows"] += (
            1 if len(shape) == 2 else int(shape[0]))

    def _after_generate_deltas(self, state, result, *a, **k):
        self.counts["hypernet.generate_deltas.out_bytes"] += sum(
            _value(d).nbytes for d in result)
        return result

    def _before_make_step_injection(self, *a, **k):
        return self.counts["nets.lstm_forward.windows"]

    def _after_make_step_injection(self, windows_before, inject, *a, **k):
        encoded = self.counts["nets.lstm_forward.windows"] - windows_before
        self.counts[f"hypernet.make_step_injection.windows_encoded.{self.stage}"] += encoded
        used = set()
        self._used_sets.append(used)

        @functools.wraps(inject)
        def counted(z, k):
            used.add(k)
            return inject(z, k)

        return counted

    def _before_backward(self, root, *a, **k):
        idx = self.begin(TAPE_WALK)
        try:
            nodes, nbytes = tape_size(root)
        finally:
            self.end(idx)
        self.samples["tape_nodes"].append(nodes)
        self.samples["tape_bytes"].append(nbytes)

    def _after_adam_step(self, state, result, *a, **k):
        self.samples["adam_end"].append(time.perf_counter())
        return result

    def _after_write_dataset(self, state, result, dataset, path, *a, **k):
        self.counts["data.hkkl_bytes"] += os.path.getsize(path)
        return result

    def _after_write_checkpoint(self, state, result, bundle, path, *a, **k):
        self.counts["checkpoints.hkkp_bytes"] += os.path.getsize(path)
        return result

    # -- install / remove ---------------------------------------------
    def install(self) -> None:
        """Wrap every target in every hyperkkl module that binds it."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        for mod_name, _ in TARGETS:
            importlib.import_module(f"hyperkkl.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hyperkkl" or n.startswith("hyperkkl."))]
        for (mod_name, fn_name), kind in TARGETS.items():
            original = getattr(sys.modules[f"hyperkkl.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans, counts and samples of this stage as JSON."""
        counts = dict(self.counts)
        counts["hypernet.make_step_injection.windows_used." + self.stage] = sum(
            len(s) for s in self._used_sets)
        with open(path, "w") as fh:
            json.dump({"stage": self.stage, "spans": self.spans,
                       "counts": counts, "samples": dict(self.samples)}, fh)

