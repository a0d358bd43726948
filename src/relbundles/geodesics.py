"""DAG assembly: layered geodesic DAGs, exhaustive geodesic enumeration,
and truncated geodesic-ray bundles toward eventually periodic directions.

A DAG between u and v holds exactly the vertices w with
d(u,w) + d(w,v) = d(u,v), arranged in layers by d(u,·), with edges only
between consecutive layers.  An edge is its alphabet symbol (see `relgraph`), so
paths are enumerated and spelled by symbols.  Where the oracle's normal
form spells the one geodesic (`relgraph.spelled_geodesic`, which owns
the closed form), the DAG is that chain laid out one vertex per layer.
Otherwise the DAG is grown layer by layer, asking the oracle about each
candidate vertex; that build is also the chain's referee in the tests.
A bundle toward a direction is the DAG to a deep vertex on the
direction's ray, grown only to the requested depth; a margin controls
how much deeper the target sits than the cut.  The ray is walked by
`ray_vertex`, which checks each step geodesic; a caller that keeps the
walk (a direction pipeline) resumes it instead of starting over.

A function here that measures takes the `DistanceOracle` alone, as in
`geodesic_dag(oracle, u, v)`, and reads the graph and group the oracle was
built over as `oracle.graph` and `oracle.group`, in the oracle's one
metric: a DAG in the word metric is `geodesic_dag(oracle.absolute, u, v)`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

from .groups import SpecError, Word, shortlex_key
from .relgraph import (DistanceOracle, RelativeGraph, ResourceLimitError,
                       spelled_geodesic)


class DirectionError(ValueError):
    """A direction word fails the geodesy requirement at some length."""

    def __init__(self, k: int, message: str):
        super().__init__(message)
        self.prefix_length = k


@dataclass(frozen=True)
class GeodesicDAG:
    """Layers and forward edges of a geodesic DAG.

    `successors[v]` lists the (symbol, w) edges out of v in symbol order;
    every vertex has an entry, empty in the last layer.  No backward edges
    are kept: a walk toward the source reads the layers from the last up.
    """

    source: Word
    target: Word
    length: int
    layers: tuple[tuple[Word, ...], ...]
    successors: dict[Word, list[tuple[int, Word]]]

    def vertices(self) -> set[Word]:
        return {w for layer in self.layers for w in layer}


@dataclass(frozen=True)
class SymbolPath:
    """One geodesic: its vertices and the symbol of each edge."""

    vertices: tuple[Word, ...]
    symbols: tuple[int, ...]


def geodesic_dag(oracle: DistanceOracle, u: Word, v: Word,
                 depth: int | None = None) -> GeodesicDAG:
    """Every vertex and edge on a geodesic from u to v, up to layer `depth`.

    Where the oracle reads d(u, v) off a normal form that spells the one
    geodesic (`spelled_geodesic`), the DAG is that chain; otherwise it is
    grown layer by layer (`_layered_dag`).  Both builds give the same layers
    and edges in the same order, and cut at layer min(depth, d(u, v)), the
    DAG's `length`.
    """
    spelled = spelled_geodesic(oracle, u, v)
    if spelled is None:
        return _layered_dag(oracle, u, v, depth)
    steps, vertices = spelled
    stop = len(steps) if depth is None else min(depth, len(steps))
    path = list(islice(vertices, stop + 1))
    symbol = oracle.graph.symbols
    successors = {x: [(symbol[s], y)] for x, s, y in zip(path, steps, path[1:])}
    successors[path[-1]] = []
    return GeodesicDAG(u, v, stop, tuple((x,) for x in path), successors)


def _layered_dag(oracle: DistanceOracle, u: Word, v: Word,
                 depth: int | None = None) -> GeodesicDAG:
    """The DAG grown outward from u, for any oracle.

    A neighbor w of layer k−1 belongs to layer k iff d(w,v) = L−k (which
    forces d(u,w) = k, since d(u,w) ≤ k and anything smaller would
    shortcut u→v).  As d(w,v) ≥ L−k for every such w, the test asks the
    oracle only `within(w, v, L−k)`, which a ball search answers no
    without finding d(w,v).  Layer k depends only on layer k−1, so growth
    stopped after layer min(depth, L) keeps exactly the first layers and
    edges of the full DAG.
    A layer with no vertex would mean that the oracle disagrees with its
    graph's moves; that guard raises ResourceLimitError naming u, v and
    the layer.
    """
    length = oracle.distance(u, v)
    stop = length if depth is None else min(depth, length)
    layers: list[tuple[Word, ...]] = [(u,)]
    successors: dict[Word, list[tuple[int, Word]]] = {u: []}
    neighbors = oracle.graph.neighbors
    for k in range(1, stop + 1):
        recent: set[Word] = set(layers[-1])
        if len(layers) >= 2:
            recent |= set(layers[-2])
        found: set[Word] = set()
        for p in layers[-1]:
            out = successors[p]
            for symbol, w in neighbors(p):
                if w in recent:
                    continue
                if w not in found:
                    if not oracle.within(w, v, length - k):
                        recent.add(w)  # rejected once, skip other probes
                        continue
                    found.add(w)
                    successors[w] = []
                out.append((symbol, w))
        if not found:
            fmt = oracle.group.format
            raise ResourceLimitError(
                f"geodesic DAG from {fmt(u)} to {fmt(v)} has no layer {k}: "
                f"the graph's moves do not reach the oracle's distance {length}")
        layer = tuple(found)
        if len(layer) > 1:  # sorting one item is the identity
            layer = tuple(sorted(layer, key=shortlex_key))
        layers.append(layer)
    return GeodesicDAG(u, v, stop, tuple(layers), successors)


def enumerate_geodesics(dag: GeodesicDAG,
                        max_count: int = 1000) -> tuple[list[SymbolPath], bool]:
    """All source→target paths in lexicographic symbol order.

    Returns (paths, truncated): the first `max_count` paths, and whether
    the DAG holds more.  Successors are stored in symbol order, so a
    depth-first walk meets the paths in order.  The walk keeps its own
    stack, one iterator of untried edges per vertex on the current path,
    so a DAG of any length is walked without recursion.
    """
    paths: list[SymbolPath] = []
    verts: list[Word] = [dag.source]
    symbols: list[int] = []
    pending = [iter(dag.successors[dag.source])]
    while pending:
        if len(symbols) < dag.length:
            edge = next(pending[-1], None)
            if edge is not None:
                symbol, w = edge
                verts.append(w)
                symbols.append(symbol)
                pending.append(iter(dag.successors[w]))
                continue
        elif len(paths) == max_count:
            return paths, True
        else:
            paths.append(SymbolPath(tuple(verts), tuple(symbols)))
        pending.pop()
        verts.pop()
        if symbols:
            symbols.pop()
    return paths, False


# ---------------------------------------------------------------------------
# directions and bundles

@dataclass(frozen=True)
class DirectionSpec:
    """Eventually periodic label word standing in for a boundary point.

    `prefix` and `period` are sequences of alphabet elements (canonical
    words); the infinite word is prefix, then period repeated.  The k-th
    ray vertex is the product of the first k symbols, and validity means
    this walk is geodesic for every checked k.
    """

    prefix: tuple[Word, ...]
    period: tuple[Word, ...]
    name: str = ""

    def __post_init__(self):
        if not self.period:
            raise SpecError("direction period must be nonempty")

    def symbol(self, i: int) -> Word:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def display(self) -> str:
        return self.name or "direction"


def direction_from_text(graph: RelativeGraph, text: str, name: str = "") -> DirectionSpec:
    """Parse "prefix:period" or "period"; tokens are words over generators.

    Each whitespace-separated token must reduce to an alphabet element of
    the relative graph (a generator, its inverse, or a parabolic element).
    """
    if ":" in text:
        prefix_text, period_text = text.split(":", 1)
    else:
        prefix_text, period_text = "", text
    alphabet = set(graph.step_words)

    def parse_part(part: str) -> tuple[Word, ...]:
        out = []
        for token in part.split():
            w = graph.group.parse(token)
            if w not in alphabet:
                raise SpecError(
                    f"direction symbol {token!r} is not an alphabet element")
            out.append(w)
        return tuple(out)

    return DirectionSpec(parse_part(prefix_text), parse_part(period_text),
                         name=name or text.strip())


def ray_vertex(oracle: DistanceOracle, direction: DirectionSpec, k: int,
               base: Word = (), walked: tuple[int, Word] | None = None) -> Word:
    """Endpoint rₖ of the first k symbols from `base`, checking d(base, rᵢ)
    = i at each step; by left invariance a word fails at the same prefix
    length from every base.  `walked` = (j, rⱼ) resumes a walk already
    checked through step j."""
    j, v = walked or (0, base)
    for i in range(j + 1, k + 1):
        v = oracle.group.multiply(v, direction.symbol(i - 1))
        got = oracle.distance(base, v)
        if got != i:
            raise DirectionError(
                i, f"{direction.display()}: prefix of length {i} reaches a "
                   f"vertex at distance {got}, so the word is not geodesic")
    return v


def cgr_bundle_trunc(oracle: DistanceOracle, x: Word,
                     direction: DirectionSpec, depth: int, margin: int,
                     anchor: Word = (),
                     ray: Callable[[int], Word] | None = None) -> GeodesicDAG:
    """Bundle of all geodesics from x toward the direction, cut at `depth`.

    The direction's ray starts at `anchor`; the target sits at ray depth
    d(anchor,x) + depth + margin, which by the triangle inequality is at
    least depth+margin from x and never behind it — a nearer ray vertex
    could satisfy the distance bound from the wrong side when x lies on
    the ray itself.  The DAG to that target is grown through layer
    `depth` only, so every kept vertex extends to a geodesic reaching it.
    `ray(k)` gives the k-th ray vertex where the caller keeps the walk;
    by default the ray is walked here.
    """
    if depth < 0 or margin < 1:
        raise SpecError("bundle needs depth >= 0 and margin >= 1")
    k = depth + margin + oracle.distance(anchor, x)
    t = ray(k) if ray else ray_vertex(oracle, direction, k, base=anchor)
    return geodesic_dag(oracle, x, t, depth=depth)


def layer_profile(bundle: GeodesicDAG) -> list[int]:
    """Number of distinct vertices per layer index 0..depth."""
    return [len(layer) for layer in bundle.layers]
