"""Every function, class and method under src/relbundles/ has a caller.

The package is read with `ast`, never imported.  A definition counts as
used when its name occurs anywhere in src/ outside its own body: as a
name, as an attribute, or in an import (the package's `__init__` re-exports
are its public interface).  Dunder methods are called by Python itself.
A name shared by several definitions, such as `multiply`, is used when
any of its occurrences is.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relbundles"

# Kept with no caller in src/, each for the reason given.
ALLOWED = {
    "RelativeGraph.distance_bfs": "plain bidirectional BFS, the referee for "
                                  "every DistanceOracle mode in "
                                  "tests/test_relgraph.py, and a span the "
                                  "benchmark's tracer hooks",
    "_Parser.error": "argparse calls it on a usage error",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each definition."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                yield qual, child.name, child.lineno, child.end_lineno
                yield from walk(child, qual + ".")
    yield from walk(tree, "")


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def uncalled(src: pathlib.Path = SRC) -> set[str]:
    """Qualified names of the definitions nothing else in `src` names."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    refs: dict[str, list[tuple[str, int]]] = {}
    for fname, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((fname, line))
    out = set()
    for fname, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(f == fname and first <= line <= last
                   for f, line in refs.get(name, ())):
                out.add(qual)
    return out


def test_every_definition_has_a_caller():
    dead = uncalled()
    assert sorted(dead - set(ALLOWED)) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - dead) == []
