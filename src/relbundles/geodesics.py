"""Layered geodesic DAGs, exhaustive geodesic enumeration, and truncated
geodesic-ray bundles toward eventually periodic directions.

A DAG between u and v holds exactly the vertices w with
d(u,w) + d(w,v) = d(u,v), arranged in layers by d(u,·), with edges only
between consecutive layers.  Bundles toward a direction are DAGs to a deep
vertex on the direction's ray, cut off at the requested depth; a margin
controls how much deeper the target sits than the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import SpecError, Word, shortlex_key
from .relgraph import (
    RELATIVE,
    DistanceOracle,
    EdgeLabel,
    RelativeGraph,
    label_key,
)


class DirectionError(ValueError):
    """A direction word fails the geodesy requirement at some length."""

    def __init__(self, k: int, message: str):
        super().__init__(message)
        self.prefix_length = k


@dataclass(frozen=True)
class GeodesicDAG:
    source: Word
    target: Word
    length: int
    layers: tuple[tuple[Word, ...], ...]
    edges: dict[tuple[Word, Word], tuple[EdgeLabel, ...]]
    metric: str

    def vertices(self) -> set[Word]:
        return {w for layer in self.layers for w in layer}

    @cached_property
    def _adjacency(self) -> dict[Word, tuple[list[Word], list[Word]]]:
        """(successors, predecessors) of every vertex, each in layer order,
        built once from `edges` on first use; layers are disjoint, so a
        vertex alone names its place."""
        rank = {v: i for layer in self.layers for i, v in enumerate(layer)}
        adj: dict[Word, tuple[list[Word], list[Word]]] = {v: ([], []) for v in rank}
        for a, b in sorted(self.edges, key=lambda e: (rank[e[0]], rank[e[1]])):
            adj[a][0].append(b)
            adj[b][1].append(a)
        return adj

    def successors(self, v: Word, k: int) -> list[Word]:
        return self._adjacency[v][0] if k < self.length else []

    def predecessors(self, v: Word, k: int) -> list[Word]:
        return self._adjacency[v][1] if k > 0 else []


@dataclass(frozen=True)
class LabeledPath:
    """One geodesic: its vertices and, per edge, the least label."""

    vertices: tuple[Word, ...]
    labels: tuple[EdgeLabel, ...]


def geodesic_dag(graph: RelativeGraph, oracle: DistanceOracle, u: Word,
                 v: Word, metric: str = RELATIVE) -> GeodesicDAG:
    """Every vertex and edge on a geodesic from u to v.

    Grown outward from u: a neighbor w of layer k−1 belongs to layer k iff
    d(w,v) = L−k (which forces d(u,w) = k, since d(u,w) ≤ k and anything
    smaller would shortcut u→v).
    """
    length = oracle.distance(u, v, metric)
    layers: list[tuple[Word, ...]] = [(u,)]
    edges: dict[tuple[Word, Word], tuple[EdgeLabel, ...]] = {}
    for k in range(1, length + 1):
        recent: set[Word] = set(layers[-1])
        if len(layers) >= 2:
            recent |= set(layers[-2])
        found: dict[Word, dict[Word, list[EdgeLabel]]] = {}
        for p in layers[-1]:
            for label, w in graph.neighbors(p, metric):
                if w in recent:
                    continue
                bucket = found.get(w)
                if bucket is None:
                    if oracle.distance(w, v, metric) != length - k:
                        recent.add(w)  # rejected once, skip other probes
                        continue
                    bucket = found[w] = {}
                bucket.setdefault(p, []).append(label)
        layer = tuple(sorted(found, key=shortlex_key))
        for w, preds in found.items():
            for p, labels in preds.items():
                edges[(p, w)] = tuple(sorted(labels, key=label_key))
        layers.append(layer)
    return GeodesicDAG(u, v, length, tuple(layers), edges, metric)


def enumerate_geodesics(graph: RelativeGraph, dag: GeodesicDAG,
                        max_count: int = 1000) -> tuple[list[LabeledPath], bool]:
    """All source→target paths in lexicographic label order.

    Returns (paths, truncated).  Each edge contributes its least label;
    successor order by that label makes the output order lexicographic.
    """
    paths: list[LabeledPath] = []
    truncated = False

    def walk(v: Word, k: int, verts: list[Word], labels: list[EdgeLabel]) -> bool:
        nonlocal truncated
        if k == dag.length:
            paths.append(LabeledPath(tuple(verts), tuple(labels)))
            if len(paths) >= max_count:
                truncated = True
                return False
        else:
            nxt = [(dag.edges[(v, w)][0], w) for w in dag.successors(v, k)]
            nxt.sort(key=lambda item: label_key(item[0]))
            for label, w in nxt:
                verts.append(w)
                labels.append(label)
                alive = walk(w, k + 1, verts, labels)
                verts.pop()
                labels.pop()
                if not alive:
                    return False
        return True

    walk(dag.source, 0, [dag.source], [])
    return paths, truncated


def path_elements(graph: RelativeGraph, path: LabeledPath) -> tuple[Word, ...]:
    """The alphabet element carried by each edge of a path."""
    return tuple(graph.label_word(label) for label in path.labels)


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
    alphabet = {w for w, _ in graph.alphabet(RELATIVE)}

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


def shift_direction(direction: DirectionSpec, steps: int) -> DirectionSpec:
    """Drop the first `steps` symbols (re-anchoring along the ray)."""
    symbols = [direction.symbol(i) for i in range(steps + len(direction.prefix))]
    rest = tuple(symbols[steps:])
    return DirectionSpec(rest, direction.period,
                         name=f"{direction.display()}>>{steps}")


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


@dataclass(frozen=True)
class CGRBundleTrunc:
    """Truncation of the geodesic ray bundle from `base` toward a direction.

    The DAG runs from the base to a ray vertex at least `margin` deeper
    than the truncation depth; only layers 0..depth are retained, so every
    kept vertex extends to a geodesic reaching layer depth.
    """

    base: Word
    direction: DirectionSpec
    depth: int
    margin: int
    target: Word
    full_length: int
    dag: GeodesicDAG
    anchor: Word = ()

    def layer(self, k: int) -> tuple[Word, ...]:
        return self.dag.layers[k]

    def vertices(self) -> set[Word]:
        return self.dag.vertices()


def cgr_bundle_trunc(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
                     direction: DirectionSpec, depth: int, margin: int,
                     validate_to: int | None = None,
                     anchor: Word = ()) -> CGRBundleTrunc:
    """Bundle of all geodesics from x toward the direction, cut at `depth`.

    The direction's ray starts at `anchor`; the target sits at ray depth
    d(anchor,x) + depth + margin, which by the triangle inequality is at
    least depth+margin from x and never behind it — a nearer ray vertex
    could satisfy the distance bound from the wrong side when x lies on
    the ray itself.
    """
    if depth < 0 or margin < 1:
        raise SpecError("bundle needs depth >= 0 and margin >= 1")
    k = depth + margin + oracle.distance(anchor, x, RELATIVE)
    validate_direction(graph, oracle, direction,
                       validate_to if validate_to is not None else k)
    t = ray_vertex(graph, direction, k, base=anchor)
    full = geodesic_dag(graph, oracle, x, t)
    length = min(depth, full.length)
    layers = full.layers[:length + 1]
    kept = {w for layer in layers for w in layer}
    edges = {pair: labels for pair, labels in full.edges.items()
             if pair[0] in kept and pair[1] in kept}
    cut = GeodesicDAG(x, t, length, layers, edges, full.metric)
    return CGRBundleTrunc(x, direction, length, margin, t, full.length, cut,
                          anchor)


def layer_profile(bundle: CGRBundleTrunc) -> list[int]:
    """Number of distinct vertices per layer index 0..depth."""
    return [len(layer) for layer in bundle.dag.layers]
