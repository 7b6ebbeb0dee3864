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
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperkkl"

ALLOWED = {
    ("hypernet", "generate_deltas"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
    ("hypernet", "delta_store"):
        "a traced-benchmark target (pipebench/trace.py TARGETS)",
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
