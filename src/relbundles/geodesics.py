"""Layered geodesic DAGs, exhaustive geodesic enumeration, and truncated
geodesic-ray bundles toward eventually periodic directions.

A DAG between u and v holds exactly the vertices w with
d(u,w) + d(w,v) = d(u,v), arranged in layers by d(u,·), with edges only
between consecutive layers.  An edge is its alphabet symbol (see
`relgraph`), so paths are enumerated and spelled by symbols.  A bundle
toward a direction is the DAG to a deep vertex on the direction's ray,
grown only to the requested depth; a margin controls how much deeper the
target sits than the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import SpecError, Word, shortlex_key
from .relgraph import (
    RELATIVE,
    DistanceOracle,
    RelativeGraph,
    ResourceLimitError,
)


class DirectionError(ValueError):
    """A direction word fails the geodesy requirement at some length."""

    def __init__(self, k: int, message: str):
        super().__init__(message)
        self.prefix_length = k


@dataclass(frozen=True)
class GeodesicDAG:
    """Layers and edges of a geodesic DAG.

    `successors[v]` lists the (symbol, w) edges out of v in symbol order,
    and `predecessors[w]` the vertices with an edge into w in layer order;
    every vertex has both entries, empty at the ends.
    """

    source: Word
    target: Word
    length: int
    layers: tuple[tuple[Word, ...], ...]
    successors: dict[Word, list[tuple[int, Word]]]
    predecessors: dict[Word, list[Word]]

    def vertices(self) -> set[Word]:
        return {w for layer in self.layers for w in layer}


@dataclass(frozen=True)
class SymbolPath:
    """One geodesic: its vertices and the symbol of each edge."""

    vertices: tuple[Word, ...]
    symbols: tuple[int, ...]


def geodesic_dag(graph: RelativeGraph, oracle: DistanceOracle, u: Word,
                 v: Word, metric: str = RELATIVE,
                 depth: int | None = None) -> GeodesicDAG:
    """Every vertex and edge on a geodesic from u to v, up to layer `depth`.

    Grown outward from u: a neighbor w of layer k−1 belongs to layer k iff
    d(w,v) = L−k (which forces d(u,w) = k, since d(u,w) ≤ k and anything
    smaller would shortcut u→v).  As d(w,v) ≥ L−k for every such w, the
    test asks the oracle only `within(w, v, L−k)`, which a ball search
    answers no without finding d(w,v).  Layer k depends only on layer
    k−1, so growth stopped after layer min(depth, L) keeps exactly the
    first layers and edges of the full DAG; `length` is the last layer
    kept.
    A layer with no vertex would mean that the oracle disagrees with the
    graph's moves; that guard raises ResourceLimitError naming u, v and
    the layer.
    """
    length = oracle.distance(u, v, metric)
    stop = length if depth is None else min(depth, length)
    layers: list[tuple[Word, ...]] = [(u,)]
    successors: dict[Word, list[tuple[int, Word]]] = {u: []}
    predecessors: dict[Word, list[Word]] = {u: []}
    for k in range(1, stop + 1):
        recent: set[Word] = set(layers[-1])
        if len(layers) >= 2:
            recent |= set(layers[-2])
        found: dict[Word, list[Word]] = {}
        for p in layers[-1]:
            out = successors[p]
            for symbol, w in graph.neighbors(p, metric):
                if w in recent:
                    continue
                preds = found.get(w)
                if preds is None:
                    if not oracle.within(w, v, length - k, metric):
                        recent.add(w)  # rejected once, skip other probes
                        continue
                    preds = found[w] = predecessors[w] = []
                    successors[w] = []
                preds.append(p)
                out.append((symbol, w))
        if not found:
            fmt = graph.group.format
            raise ResourceLimitError(
                f"geodesic DAG from {fmt(u)} to {fmt(v)} has no layer {k}: "
                f"the graph's moves do not reach the oracle's distance {length}")
        layer = tuple(found)
        if len(layer) > 1:  # sorting one item is the identity
            layer = tuple(sorted(layer, key=shortlex_key))
        layers.append(layer)
    return GeodesicDAG(u, v, stop, tuple(layers), successors, predecessors)


def enumerate_geodesics(dag: GeodesicDAG,
                        max_count: int = 1000) -> tuple[list[SymbolPath], bool]:
    """All source→target paths in lexicographic symbol order.

    Returns (paths, truncated): the first `max_count` paths, and whether
    the DAG holds more.  Successors are stored in symbol order, so a
    depth-first walk meets the paths in order.
    """
    paths: list[SymbolPath] = []
    verts: list[Word] = [dag.source]
    symbols: list[int] = []

    def walk(v: Word) -> bool:
        if len(symbols) == dag.length:
            if len(paths) == max_count:
                return False
            paths.append(SymbolPath(tuple(verts), tuple(symbols)))
            return True
        for symbol, w in dag.successors[v]:
            verts.append(w)
            symbols.append(symbol)
            alive = walk(w)
            verts.pop()
            symbols.pop()
            if not alive:
                return False
        return True

    truncated = not walk(dag.source)
    return paths, truncated


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
    alphabet = set(graph.step_words(RELATIVE))

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


def ray_vertex(graph: RelativeGraph, direction: DirectionSpec, k: int,
               base: Word = ()) -> Word:
    """Endpoint of the first k symbols, applied from `base`."""
    v = base
    for i in range(k):
        v = graph.group.multiply(v, direction.symbol(i))
    return v


def validate_direction(graph: RelativeGraph, oracle: DistanceOracle,
                       direction: DirectionSpec, depth: int) -> None:
    """Check d(e, endpoint_k) = k for every k ≤ depth."""
    v: Word = ()
    for k in range(1, depth + 1):
        v = graph.group.multiply(v, direction.symbol(k - 1))
        got = oracle.distance((), v, RELATIVE)
        if got != k:
            raise DirectionError(
                k, f"{direction.display()}: prefix of length {k} reaches a "
                   f"vertex at distance {got}, so the word is not geodesic")


def cgr_bundle_trunc(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
                     direction: DirectionSpec, depth: int, margin: int,
                     anchor: Word = ()) -> GeodesicDAG:
    """Bundle of all geodesics from x toward the direction, cut at `depth`.

    The direction's ray starts at `anchor`; the target sits at ray depth
    d(anchor,x) + depth + margin, which by the triangle inequality is at
    least depth+margin from x and never behind it — a nearer ray vertex
    could satisfy the distance bound from the wrong side when x lies on
    the ray itself.  The DAG to that target is grown through layer
    `depth` only, so every kept vertex extends to a geodesic reaching it.
    """
    if depth < 0 or margin < 1:
        raise SpecError("bundle needs depth >= 0 and margin >= 1")
    k = depth + margin + oracle.distance(anchor, x, RELATIVE)
    validate_direction(graph, oracle, direction, k)
    t = ray_vertex(graph, direction, k, base=anchor)
    return geodesic_dag(graph, oracle, x, t, depth=depth)


def layer_profile(bundle: GeodesicDAG) -> list[int]:
    """Number of distinct vertices per layer index 0..depth."""
    return [len(layer) for layer in bundle.layers]
