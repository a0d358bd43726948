"""Call counts and self times of the public functions of each relbundles layer.

The tracer wraps functions from outside the package: it replaces every
reference to a traced function that a ``relbundles.*`` module or class
holds, including the copies that other modules import by name
(``from .geodesics import geodesic_dag``).  Each wrapper counts calls and
keeps a stack of open spans, so a function's self time is its duration
minus the part covered by traced callees.  Spans are aggregated per
function rather than stored one by one: the hot functions (``multiply``,
``distance``, ``neighbors``) run millions of times per workload.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

PACKAGE = "relbundles"

# (stat name, module, attribute).  The layer is the stat name's first part.
# "*.multiply" means the method of every class in the module defining one.
TARGETS = (
    ("groups.build_group", "groups", "build_group"),
    ("groups.multiply", "groups", "*.multiply"),
    ("relgraph.graph_init", "relgraph", "RelativeGraph.__init__"),
    ("relgraph.oracle_init", "relgraph", "DistanceOracle.__init__"),
    ("relgraph.neighbors", "relgraph", "RelativeGraph.neighbors"),
    ("relgraph.ball", "relgraph", "RelativeGraph.ball"),
    ("relgraph.distance", "relgraph", "DistanceOracle.distance"),
    ("relgraph.distance_bfs", "relgraph", "RelativeGraph.distance_bfs"),
    ("geodesics.geodesic_dag", "geodesics", "geodesic_dag"),
    ("geodesics.enumerate_geodesics", "geodesics", "enumerate_geodesics"),
    ("geodesics.cgr_bundle_trunc", "geodesics", "cgr_bundle_trunc"),
    ("hyperbolicity.estimate_nu", "hyperbolicity", "estimate_nu"),
    ("bundles.pipelines", "bundles", "DirectionPipeline.__init__"),
    ("bundles.geo1", "bundles", "DirectionPipeline.geo1"),
    ("bundles.classes_from", "bundles", "DirectionPipeline.classes_from"),
    ("bundles.symdiff_scan", "bundles", "symdiff_scan"),
    ("coding.c_eta_window", "coding", "c_eta_window"),
    ("coding.t_n_and_g_n", "coding", "t_n_and_g_n"),
    ("coding.h_n_window", "coding", "h_n_window"),
    ("coding.check_lemma418", "coding", "check_lemma418"),
    ("suite.run_suite", "suite", "run_suite"),
    # run_suite is the suite's only public entry, so the per-check split
    # hooks its private _check_* functions.
    ("suite.check.slimness", "suite", "_check_slimness"),
    ("suite.check.layer-bound", "suite", "_check_layer_bound"),
    ("suite.check.class-count", "suite", "_check_classes"),
    ("suite.check.scan", "suite", "_check_scan"),
    ("suite.check.coding", "suite", "_check_coding"),
    ("suite.check.equivariance", "suite", "_check_equivariance"),
    ("suite.check.lemma418", "suite", "_check_lemma418_pair"),
    ("suite.check.order-property", "suite", "_check_order_property"),
    ("suite.check.oracle-equivalence", "suite", "_check_oracle_equivalence"),
    ("suite.check.arithmetic", "suite", "_check_arithmetic"),
    ("cli.main", "cli", "main"),
)

LAYERS = ("groups", "relgraph", "geodesics", "hyperbolicity", "bundles",
          "coding", "suite", "cli")

# geodesic_dag calls made while estimate_nu is open: DAG builds per triangle.
NESTED = {"geodesics.geodesic_dag": "hyperbolicity.estimate_nu"}
# Integer fields of a traced function's result, summed over its calls.
RESULT_FIELDS = {"hyperbolicity.estimate_nu": "triangles_checked"}

CALLS, TOTAL, SELF, OPEN, NESTED_CALLS, RESULT_SUM = range(6)


class Tracer:
    """Installs wrappers on the loaded relbundles modules and aggregates."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0, 0, 0]
                                       for name, _, _ in TARGETS}
        self.originals: dict[int, str] = {}  # id(original) -> stat name
        self.missing: list[str] = []
        self._keep = []  # originals stay alive so their ids stay unique
        # Child time of each open span; the root entry absorbs top-level spans.
        self._stack = [0.0]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = self._modules()
        for name, mod_name, attr in TARGETS:
            mod = mods.get(f"{PACKAGE}.{mod_name}")
            found = self._resolve(mod, attr) if mod is not None else []
            if not found:
                self.missing.append(f"{mod_name}.{attr}")
            outer = self.stats.get(NESTED.get(name))
            for fn in found:
                self.originals[id(fn)] = name
                self._keep.append(fn)
                wrapper = self._wrap(fn, self.stats[name], outer,
                                     RESULT_FIELDS.get(name))
                self._replace(mods, fn, wrapper)

    @staticmethod
    def _modules() -> dict:
        return {name: mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or
                                        name.startswith(PACKAGE + "."))}

    @staticmethod
    def _resolve(mod, attr: str) -> list:
        owner, _, leaf = attr.rpartition(".")
        if owner == "*":
            return [vars(cls)[leaf] for cls in _classes(mod)
                    if inspect.isfunction(vars(cls).get(leaf))]
        holder = getattr(mod, owner) if owner else mod
        fn = vars(holder).get(leaf)
        return [fn] if inspect.isfunction(fn) else []

    def _replace(self, mods: dict, original, wrapper) -> None:
        for mod in mods.values():
            for holder in (mod, *_classes(mod)):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def _wrap(self, fn, stat: list, outer: list | None, field: str | None):
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat[CALLS] += 1
            if outer is not None and outer[OPEN]:
                stat[NESTED_CALLS] += 1
            stat[OPEN] += 1
            push(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[OPEN] -= 1
                stat[SELF] += elapsed - pop()
                if not stat[OPEN]:  # recursion counts once in the total
                    stat[TOTAL] += elapsed
                stack[-1] += elapsed
            if field is not None:
                stat[RESULT_SUM] += getattr(out, field)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- self-check --------------------------------------------------------

    def unwrapped(self) -> list[str]:
        """Places in relbundles modules that still hold a traced original.

        Checks module globals, class attributes and the items of
        module-level containers, which is where a by-name import or a
        dispatch table would keep its own copy.
        """
        found = []
        for mod_name, mod in self._modules().items():
            for holder in (mod, *_classes(mod)):
                owner = (mod_name if holder is mod
                         else f"{mod_name}.{holder.__qualname__}")
                for key, value in vars(holder).items():
                    items = [value]
                    if isinstance(value, dict):
                        items += list(value.values())
                    elif isinstance(value, (list, tuple, set, frozenset)):
                        items += list(value)
                    for item in items:
                        if id(item) in self.originals:
                            found.append(f"{owner}.{key} holds "
                                         f"{self.originals[id(item)]}")
        return sorted(set(found))

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        return {name: {"calls": s[CALLS], "s": s[TOTAL], "self_s": s[SELF],
                       "nested_calls": s[NESTED_CALLS],
                       "result_sum": s[RESULT_SUM]}
                for name, s in self.stats.items()}


def _classes(mod) -> list:
    """Classes defined in `mod` itself, not the ones it imports."""
    return [obj for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__]


def load() -> None:
    """Import every layer so the tracer sees all modules before wrapping."""
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
