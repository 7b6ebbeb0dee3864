"""Every top-level function and method in src is used by src itself.

A function that only tests call is either dead or a second copy of
behaviour the program has elsewhere. The few kept on purpose are listed
in ALLOWED with the reason; an entry that src starts to use again, or
whose function is gone, fails the census too.
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


def _referenced(node) -> Counter:
    """Loaded names and attribute names inside ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree):
    """Top-level functions and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, FUNCTIONS)
                        and not item.name.startswith("__"))


def unreferenced() -> set:
    """(module, name) of each definition src names only inside itself."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    return {(module, fn.name)
            for module, tree in trees.items()
            for fn in _definitions(tree)
            if everywhere[fn.name] == _referenced(fn)[fn.name]}


def test_src_calls_every_function_it_defines():
    assert unreferenced() == set(ALLOWED)
