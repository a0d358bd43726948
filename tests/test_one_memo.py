"""`DirectionPipeline` keeps its stage results in one memo table.

Each memoized stage of the pipeline (`window`, `signature`, `ray`,
`bundle`, `classes_from`, `sector`, `geo1`) stores its results through the `_memo`
decorator in `self._memo`.  A second dict set up in `__init__` would be a
hand-written cache beside it, with its own get/compute/store block, so
this guard fails on any dict attribute `__init__` assigns other than the
memo table.  The package is read with `ast`, never imported.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relbundles"
MEMO = "_memo"
DICT_CALLS = {"dict", "defaultdict", "OrderedDict", "Counter"}


def _is_dict(node: ast.Assign | ast.AnnAssign) -> bool:
    value = node.value
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in DICT_CALLS:
            return True
    annotation = getattr(node, "annotation", None)
    return annotation is not None and any(
        isinstance(n, ast.Name) and n.id in ("dict", "Dict")
        for n in ast.walk(annotation))


def caches_beside_the_memo(path: pathlib.Path = SRC / "bundles.py",
                           cls: str = "DirectionPipeline") -> list[str]:
    """`line self.name` of every dict attribute `cls.__init__` assigns
    other than the memo table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (owner,) = [n for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == cls]
    found = []
    for fn in owner.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self" and t.attr != MEMO
                        and _is_dict(node)):
                    found.append(f"{node.lineno} self.{t.attr}")
    return found


def test_the_pipeline_has_one_result_table():
    assert caches_beside_the_memo() == []


def test_the_guard_sees_a_second_cache(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class DirectionPipeline:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        self.notes: list[str] = []\n"
        "        self._windows: dict[int, tuple] = {}\n"
        "        self._bundles = dict()\n"
        "        self.radius = 3\n")
    assert caches_beside_the_memo(path) == ["5 self._windows",
                                            "6 self._bundles"]
