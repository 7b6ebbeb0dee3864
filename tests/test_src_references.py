"""Every top-level function and method in src is used by src itself.

A function that only tests call is either dead or a second copy of
behaviour the program has elsewhere. The few kept on purpose are listed
in ALLOWED with the reason; an entry that src starts to use again, or
whose function is gone, fails the census too.

A top-level function ``mod.fn`` counts as used where src names it as
``fn`` inside ``mod`` or in a module that imports it with
``from .mod import fn``, or as ``alias.fn`` with ``alias`` bound to
``mod`` (``from . import mod as alias``). So ``np.exp`` does not vouch
for a function ``exp`` in src. A method is called on objects of any
type, so any attribute of its name counts for it.

A second census holds every function, method and lambda in src to read
each parameter it declares: one that nothing reads is a caller's
argument that changes nothing. Its allow-list, PARAMETERS_ALLOWED, is
empty.

A third holds every parameter src declares with a default to be set by
some src call: a value no command can change belongs in a constant,
and a branch that only a test's argument reaches belongs in the test.
Its allow-list, DEFAULTS_ALLOWED, holds the console-script entry point.

A fourth holds the functions in UNTAPED to name no ``autodiff``
function: the plain latent filter stays plain numpy.

A fifth, the execution census, runs the program and holds every src
function, method and nested function to be entered: the golden
pipeline (``test_golden.pipeline_hashes``), ``report`` on its eval CSV
and ``gen`` for the other systems, all in one child process under
``sys.setprofile``. It closes the first census's blind spot: there any
attribute of a method's name vouches for the method, here only a call
does. Class bodies, comprehensions and lambdas are not counted. The
functions it never enters, each with its reason, are ENTRY_ALLOWED; an
entry that the run enters, or whose function is gone, fails it too.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from test_golden import pipeline_hashes

from hyperkkl.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperkkl"

ALLOWED = {
    ("hypernet", "generate_deltas"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
    ("hypernet", "delta_store"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
    ("cli", "error"): "argparse calls it, as ArgumentParser.error",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bindings(tree):
    """Local name -> the src module it is bound to, and local name ->
    (module, name) of each function imported with ``from .mod import``."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None:
                modules[local] = alias.name
            else:
                imported[local] = (node.module, alias.name)
    return modules, imported


def _referenced(node, module, bindings) -> Counter:
    """(module, name) of each src function ``node`` names, and
    (None, name) of each attribute it reads, whatever it is read off."""
    modules, imported = bindings
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[imported.get(sub.id, (module, sub.id))] += 1
        elif isinstance(sub, ast.Attribute):
            refs[(None, sub.attr)] += 1
            if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                refs[(modules[sub.value.id], sub.attr)] += 1
    return refs


def _definitions(tree):
    """(function, is_method) for the top-level functions and the
    non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body
                        if isinstance(item, FUNCTIONS)
                        and not item.name.startswith("__"))


def unreferenced() -> set:
    """(module, name) of each definition src names only inside itself."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    bindings = {module: _bindings(tree)
                for module, tree in trees.items()}
    everywhere = sum((_referenced(tree, module, bindings[module])
                      for module, tree in trees.items()), Counter())
    found = set()
    for module, tree in trees.items():
        for fn, is_method in _definitions(tree):
            key = (None, fn.name) if is_method else (module, fn.name)
            inside = _referenced(fn, module, bindings[module])
            if everywhere[key] == inside[key]:
                found.add((module, fn.name))
    return found


def test_src_calls_every_function_it_defines():
    assert unreferenced() == set(ALLOWED)


# Parameters that nothing reads, kept on purpose: (module.function,
# parameter) -> reason. Empty: each parameter src declares, src reads.
PARAMETERS_ALLOWED = {}


def _scopes(node, prefix):
    """(qualified name, node) of each function, method and lambda under
    ``node``, named through the classes and functions that hold it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
            name = prefix + getattr(child, "name", "<lambda>")
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _scopes(child, name + ".")
        else:
            yield from _scopes(child, prefix)


def unread_parameters() -> set:
    """(qualified function, parameter) of each parameter its function
    never reads: no load of its name anywhere in the body, nested
    functions included (``x += y`` reads x). ``self``, ``cls`` and names
    that start with ``_`` are exempt."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, fn in _scopes(tree, path.stem + "."):
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            nodes = [n for stmt in body for n in ast.walk(stmt)]
            read = {n.id for n in nodes
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.target.id for n in nodes if isinstance(n, ast.AugAssign)
                     and isinstance(n.target, ast.Name)}
            found |= {(name, p) for p in params if p not in read
                      and p not in ("self", "cls") and not p.startswith("_")}
    return found


def test_src_reads_every_parameter_it_declares():
    assert unread_parameters() == set(PARAMETERS_ALLOWED)


# Defaulted parameters that no src call sets, kept on purpose:
# (module.qualified function, parameter) -> reason.
DEFAULTS_ALLOWED = {
    ("cli.main", "argv"):
        "the console-script entry point calls main() with no argument",
}


def _is_method(fn) -> bool:
    return [p.arg for p in fn.args.args[:1]] in (["self"], ["cls"])


def _defaulted(fn):
    """(positional index or None, name) of each parameter ``fn`` declares
    with a default. A method's index, like its call's, skips self or cls."""
    a = fn.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)]
    shift = 1 if _is_method(fn) else 0
    first = len(positional) - len(a.defaults)
    return ({(i - shift, positional[i]) for i in range(first, len(positional))}
            | {(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None})


def unset_defaults() -> set:
    """(qualified function, parameter) of each defaulted parameter that
    no src call passes.

    A call ``fn(...)`` or ``alias.fn(...)`` reaches a function as the
    first census resolves names, and a class's name reaches its
    ``__init__``; ``anything.m(...)`` reaches every method ``m`` (a
    function whose first parameter is self or cls). A call passes a
    parameter by position, by keyword, or through a ``*`` or ``**``
    argument. A function named as an argument of a call is handed on as
    a value, and counts as called with every keyword.
    """
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    functions, methods = {}, {}  # (module, name) or name -> [(qual, params)]
    for module, tree in trees.items():
        for qual, fn in _scopes(tree, module + "."):
            params = _defaulted(fn)
            if not params:
                continue
            *owner, name = qual.split(".")
            table, key = ((functions, (module, owner[-1]))
                          if name == "__init__" else (methods, name)
                          if _is_method(fn) else (functions, (module, name)))
            table.setdefault(key, []).append((qual, params))
    unset = {(qual, name) for entries in (*functions.values(),
                                         *methods.values())
             for qual, params in entries for _, name in params}

    def reach(entries, positional, keywords):
        for qual, params in entries:
            unset.difference_update(
                (qual, name) for index, name in params
                if keywords is None or name in keywords
                or index is not None and index < positional)

    for module, tree in trees.items():
        modules, imported = _bindings(tree)

        def named(expr):
            if isinstance(expr, ast.Name):
                return functions.get(imported.get(expr.id, (module, expr.id)),
                                     [])
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id in modules):
                return functions.get((modules[expr.value.id], expr.attr), [])
            return []

        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            entries = named(call.func) + (
                methods.get(call.func.attr, [])
                if isinstance(call.func, ast.Attribute) else [])
            reach(entries, float("inf") if starred else len(call.args),
                  None if None in keywords else keywords)
            for value in (*call.args, *(k.value for k in call.keywords)):
                reach(named(value), 0, None)
    return unset


def test_src_sets_every_parameter_it_defaults():
    assert unset_defaults() == set(DEFAULTS_ALLOWED)


# Functions that must tape nothing, with the reason: (module, function).
# The static observer's rollout (``kkl.simulate_latent_injected``),
# which static training differentiates through, is built on ``autodiff``;
# the plain filter that every other variant and the training labels run
# names no ``autodiff`` primitive.
UNTAPED = {
    ("kkl", "simulate_latent_nodes"): "the plain latent filter",
    ("kkl", "simulate_latent"): "the plain latent filter's entry point",
}


def taped_names(module, name) -> set:
    """The ``autodiff`` names that function ``module.name`` reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, FUNCTIONS) and node.name == name)
    return {ref for (mod, ref) in _referenced(fn, module, _bindings(tree))
            if mod == "autodiff"}


def test_the_plain_latent_filter_names_no_autodiff_function():
    for (module, name), reason in UNTAPED.items():
        assert taped_names(module, name) == set(), f"{reason} tapes"


# Functions the execution census does not enter, kept on purpose:
# (module, qualified name) -> reason.
ENTRY_ALLOWED = {
    ("hypernet", "generate_deltas"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
    ("hypernet", "delta_store"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
    ("cli", "_interrupt"): "runs only on SIGTERM",
    ("cli", "_Parser.error"): "runs only on a bad flag",
    ("cli", "_report_rows.refuse"): "runs only on a malformed report CSV",
    ("binfile", "Reader._truncated"): "runs only on a truncated file",
    ("errors", "DivergenceError.__init__"):
        "runs only when a simulated run escapes its region",
    ("config", "boolean"):
        "checks the [train] normalize key, which only a config file sets; "
        "the census leaves it at its default",
}


def _defined() -> dict:
    """(file, first line) of each function, method and nested function
    in src -> (module, qualified name). A decorated function's code
    starts at its first decorator."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(str(SRC / f"{module}.py"), first)] = (
                    module, prefix + child.name)
                walk(child, module, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, "")
    return found


def census_commands(root) -> None:
    """The commands the execution census runs, in this process, under
    ``root``."""
    pipeline_hashes(root)
    assert main(["report", str(root / "eval" / "duffing_report.csv"),
                 "--out", str(root / "report")]) == 0
    for system in ("vanderpol", "rossler", "lorenz"):
        assert main(["gen", "--system", system, "--regime", "sinusoid",
                     "--n", "1", "--seed", "1", "--horizon", "1.0",
                     "--blas-threads", "1", "--out", str(root / "gen")]) == 0


# A child process profiles from before its first src import, so the
# calls src makes while its modules load count too.
CENSUS = """
import json, sys
from pathlib import Path
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(profile)
from test_src_references import census_commands
census_commands(Path(sys.argv[1]))
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno] for c in codes]))
"""


def unentered(root) -> set:
    """(module, qualified name) of each src function that the census's
    commands, run under ``root``, never enter."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(tests), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CENSUS, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    entered = {(str(Path(name).resolve()), line) for name, line
               in json.loads(done.stdout.splitlines()[-1])}
    return {name for key, name in _defined().items() if key not in entered}


def test_the_program_enters_every_function_src_defines(tmp_path):
    assert unentered(tmp_path) == set(ENTRY_ALLOWED)
