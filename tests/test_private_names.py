"""No module under src/relbundles/ reads another module's private names.

A name with a leading underscore belongs to the module that defines it:
the oracle's `_pair` and `_coned` are how `DistanceOracle` picked its
closed form, and a second module that compares them works that choice
out again.  So every `x._name` attribute in a module must name something
the same module defines (a function, class, method, module or class
variable, or an attribute it sets on `self`), and no module imports a
`_name` from another.  Dunder names are Python's own.  The package is read
with `ast`, never imported.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relbundles"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(tree: ast.Module) -> set[str]:
    """Every name the module binds: definitions, assigned names, import
    aliases, and attributes stored on `self`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname for alias in node.names if alias.asname}
    return names


def foreign_private_names(src: pathlib.Path = SRC) -> list[str]:
    """`file:line name` of every private attribute a module does not
    define, and of every private name it imports, in source order."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined(tree)
        here = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if _private(node.attr) and node.attr not in own:
                    here.append((node.lineno, node.col_offset, node.attr))
            elif isinstance(node, ast.ImportFrom):
                here += [(node.lineno, node.col_offset, alias.name)
                         for alias in node.names if _private(alias.name)]
        found += [f"{path.name}:{line} {name}" for line, _, name in sorted(here)]
    return found


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_names() == []


def test_the_guard_sees_a_read_of_the_oracles_pair(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .relgraph import DistanceOracle, _helper\n\n\n"
        "class Probe:\n"
        "    def __init__(self, oracle):\n"
        "        self._oracle = oracle\n\n"
        "    def mode(self):\n"
        "        return self._oracle._pair is DistanceOracle._free_distance\n\n"
        "    def __repr__(self):\n"
        "        return self.__class__.__name__\n")
    assert foreign_private_names(tmp_path) == [
        "mod.py:1 _helper",
        "mod.py:9 _pair",
        "mod.py:9 _free_distance",
    ]
