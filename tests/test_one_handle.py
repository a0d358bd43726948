"""No function under src/relbundles/ takes an oracle beside its graph or group.

A `DistanceOracle` is built over one `RelativeGraph` and carries it as
`oracle.graph`, and its group as `oracle.group`; a function given the
oracle reads both from there.  Passing either beside the oracle restates
a choice made when the oracle was built, and lets the two disagree.  The
package is read with `ast`, never imported.  A parameter counts as an
oracle, graph or group by its name or by its annotation.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relbundles"

ROLES = {
    "oracle": ("oracle", "DistanceOracle"),
    "graph": ("graph", "RelativeGraph"),
    "group": ("group", "Group"),
}


def _role(arg: ast.arg) -> str | None:
    names = {arg.arg}
    if arg.annotation is not None:
        names |= {node.id for node in ast.walk(arg.annotation)
                  if isinstance(node, ast.Name)}
    for role, (param, cls) in ROLES.items():
        if param in names or cls in names:
            return role
    return None


def beside_the_oracle(src: pathlib.Path = SRC) -> list[str]:
    """`file:line name` of every function taking an oracle and a graph or
    group."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            roles = {_role(arg) for arg in (a.posonlyargs + a.args
                                            + a.kwonlyargs)}
            if "oracle" in roles and roles & {"graph", "group"}:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_the_oracle_is_the_only_handle():
    assert beside_the_oracle() == []


def test_the_guard_sees_a_graph_beside_an_oracle(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def by_name(graph, oracle, u):\n    pass\n\n\n"
        "def by_annotation(g: Group, o: DistanceOracle | None):\n"
        "    pass\n\n\n"
        "def alone(oracle, u):\n    pass\n")
    assert beside_the_oracle(tmp_path) == ["mod.py:1 by_name",
                                           "mod.py:5 by_annotation"]
