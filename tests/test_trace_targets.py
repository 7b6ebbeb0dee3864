"""The benchmark's traced run wraps hyperkkl functions by name.

``pipebench/trace.py`` lists them in TARGETS and reads some of their
leading positional arguments in its hooks; a rename or a reordered
signature would break ``pipebench/run.py --trace 1`` without failing any
other test.
"""

import importlib
import inspect
from pathlib import Path

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
