"""Each graph and oracle under src/relbundles/ measures one metric.

The word metric is the relative metric of the same group with no
parabolic declared, so it is an oracle of its own, `oracle.absolute`,
and no function takes a `metric` parameter to choose between the two.
The one parameter left is `RelativeGraph.ball`'s, which names only the
graph's own metric.  Outside relgraph.py only `hyperbolicity.bound_B`
reads `oracle.absolute`: the slimness sweep scores one metric.  The
package is read with `ast` for both, never imported; the other checks
run the oracles.
"""

from __future__ import annotations

import ast
import itertools
import pathlib

import pytest

from relbundles.groups import SpecError, build_group, load_spec, spec_from_dict
from relbundles.relgraph import ABSOLUTE, RELATIVE, DistanceOracle, RelativeGraph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relbundles"
SPECS = SRC.parent.parent / "specs"


def metric_parameters(src: pathlib.Path = SRC) -> list[str]:
    """`file qualified.name` of every function with a parameter `metric`."""
    found = []

    def visit(node: ast.AST, prefix: str, path: pathlib.Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                if any(arg.arg == "metric" for arg in
                       a.posonlyargs + a.args + a.kwonlyargs):
                    found.append(f"{path.name} {prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", path)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def absolute_readers(src: pathlib.Path = SRC) -> list[str]:
    """`file qualified.name` of every function outside relgraph.py that
    reads an attribute `absolute`, or `file <module>` for a read outside
    any function."""
    found = set()

    def visit(node: ast.AST, name: str, path: pathlib.Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
                visit(child, inner, path)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "absolute":
                found.add(f"{path.name} {name}")
            visit(child, name, path)

    for path in sorted(src.glob("*.py")):
        if path.name != "relgraph.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", path)
    return sorted(found)


def _oracle(name: str) -> DistanceOracle:
    return DistanceOracle(RelativeGraph(build_group(load_spec(str(SPECS / name)))))


def test_only_ball_takes_a_metric():
    assert metric_parameters() == ["relgraph.py RelativeGraph.ball"]


def test_only_bound_B_reads_the_word_metric():
    """The slimness sweep scores the relative metric alone, so the word
    metric's oracle serves the layer bound's ball and nothing else."""
    assert absolute_readers() == ["hyperbolicity.py bound_B"]


def test_the_absolute_guard_sees_every_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class C:\n    def m(self, o):\n        return o.absolute.distance\n\n\n"
        "def outer(o):\n    def inner():\n        return o.absolute\n\n\n"
        "WORD = ORACLE.absolute\n\n\n"
        "def alone(oracle):\n    return oracle.distance\n")
    (tmp_path / "relgraph.py").write_text("X = o.absolute\n")
    assert absolute_readers(tmp_path) == [
        "mod.py <module>", "mod.py C.m", "mod.py outer.inner"]


def test_the_guard_sees_methods_and_nested_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class C:\n    def m(self, u, metric='relative'):\n        pass\n\n\n"
        "def outer():\n    def inner(*, metric):\n        pass\n\n\n"
        "def alone(oracle, u):\n    pass\n")
    assert metric_parameters(tmp_path) == ["mod.py C.m", "mod.py outer.inner"]


def test_ball_names_only_the_graphs_own_metric():
    graph = _oracle("z3z2_rel_factors.json").graph
    assert graph.ball((), 2, RELATIVE) == graph.ball((), 2)
    with pytest.raises(SpecError, match="relative metric"):
        graph.ball((), 2, ABSOLUTE)


@pytest.mark.parametrize("name", ["f2_standard.json", "genus2_surface.json",
                                  "z6z2_free.json"])
def test_no_parabolic_is_its_own_word_metric(name):
    oracle = _oracle(name)
    assert oracle.absolute is oracle


def test_adjoined_words_without_a_parabolic_are_their_own_word_metric():
    """A free product may adjoin words where it cones no factor."""
    group = build_group(spec_from_dict({
        "family": "free-product",
        "factors": [{"family": "free", "generators": ["a"]},
                    {"family": "free", "generators": ["b"]}],
        "redundant_generators": ["a b"],
    }))
    oracle = DistanceOracle(RelativeGraph(group))
    assert oracle.absolute is oracle
    assert oracle.distance((), group.parse("a b a b")) == 2


def test_word_metric_of_coned_factors():
    """On ℤ₃∗ℤ₂ with both factors coned, the word metric's oracle is built
    once over the same group with no parabolic: its distances are its own
    graph's BFS and the length of u⁻¹v, and both groups multiply alike."""
    oracle = _oracle("z3z2_rel_factors.json")
    word = oracle.absolute
    assert word is not oracle and word is oracle.absolute
    g, h = oracle.group, word.group
    ball = sorted(oracle.graph.ball((), 3).entries)
    for u, v in itertools.product(ball, repeat=2):
        d = word.distance(u, v)
        assert d == word.graph.distance_bfs(u, v) == len(g.multiply(g.inverse(u), v))
        assert g.multiply(u, v) == h.multiply(u, v)
