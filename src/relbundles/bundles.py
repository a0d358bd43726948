"""Horofunction classes, sectors, special vertices, and modified bundles.

Everything here works on finite truncations.  A boundary direction is an
eventually periodic label word; geodesics toward it are organized by the
stabilized horofunction signature they induce on a small window, and the
resulting classes drive the sector / special-vertex / modified-bundle
constructions, ending in symmetric-difference stabilization scans.

All signatures inside one `DirectionPipeline` share a window centered at
the pipeline anchor and are normalized there, which makes the whole
construction commute with left translation by construction.  A pipeline
is built from the oracle alone, `DirectionPipeline(oracle, direction)`,
and reads its balls and names off `oracle.graph` and `oracle.group`; its
stages keep their results in one table, through the `_memo` decorator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .groups import SpecError, Word, shortlex_key
from .relgraph import DistanceOracle
from .geodesics import DirectionSpec, GeodesicDAG, cgr_bundle_trunc, ray_vertex


class StabilizationError(RuntimeError):
    """No geodesic ray produced a stable signature at the working depth."""


def horofunction(oracle: DistanceOracle, z: Word, window: tuple[Word, ...],
                 base: Word = ()) -> tuple[int, ...]:
    """Values of g ↦ d(g,z) − d(base,z) over the window, in window order."""
    ref = oracle.distance(base, z)
    return tuple(oracle.distance(g, z) - ref for g in window)


def _prefixes_agree(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Do two signatures agree on the window the shorter one covers?"""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


@dataclass(frozen=True)
class XiClass:
    """One stabilized signature with the bundle vertices at the cut that
    end a ray realizing it."""

    id: int
    signature: tuple[int, ...]
    terminals: tuple[Word, ...]


@dataclass(frozen=True)
class XiDecomposition:
    window_radius: int
    classes: tuple[XiClass, ...]
    unstabilized: tuple[Word, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SectorTrunc:
    """Every vertex on a geodesic from the base to one class's terminals;
    a matched sector holds its base, so no vertices means no match."""

    vertices: frozenset[Word]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SpecialVertexReport:
    special: tuple[tuple[Word, int], ...]  # (vertex, class id)
    ambiguous: tuple[Word, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Geo1Trunc:
    """The union of the sectors from each class's nearest special vertices.

    `flags` gather what the classes, the sectors and the special-vertex
    scan raised up to the layer where that scan ended (see
    `DirectionPipeline.special_vertices`); vertices deeper than every
    class's nearest special vertex are not classified, so flags they
    alone would raise do not appear.
    """

    vertices: frozenset[Word]
    chosen: tuple[tuple[int, tuple[Word, ...]], ...]  # (class id, Y set)
    skipped_classes: tuple[int, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SymDiffScan:
    rows: tuple[tuple[int, int], ...]
    verdict: str  # "stabilized" | "unstabilized"
    flags: tuple[str, ...]


# Widening steps one decomposition may take past the pipeline's radius;
# the cap keeps runs finite on adversarial input.
WIDEN_LIMIT = 3


def _unique(flags: list[str]) -> tuple[str, ...]:
    """Flags gathered from several results, first occurrence kept."""
    return tuple(dict.fromkeys(flags))


def _memo(method):
    """Keep a stage's results in its pipeline's one table, keyed by stage name
    and positional arguments; a call that raises stores nothing."""
    @wraps(method)
    def memoized(self, *args):
        key = (method.__name__, *args)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = method(self, *args)
        return got
    return memoized


class DirectionPipeline:
    """Window/signature/bundle/class/sector/Geo₁ computations for one
    direction, each stage memoized in one table (`_memo`).

    Every stored result is a pure function of its stage, its arguments and
    the constructor arguments, so call order never changes what a query
    returns and one pipeline can serve every check on its direction.  The
    pipeline radius is fixed; a decomposition whose classes split one
    radius further out widens its own window, and each result carries the
    flags raised while computing it and the results it read.
    """

    def __init__(self, oracle: DistanceOracle, direction: DirectionSpec, *,
                 nu: int = 0, margin: int | None = None,
                 window_radius: int | None = None, anchor: Word = ()):
        self.oracle = oracle
        self.direction = direction
        self.anchor = anchor
        self.margin = margin if margin is not None else 3 * nu + 1
        self.window_radius = (window_radius if window_radius is not None
                              else 3 * nu + 2)
        self.notes: list[str] = []  # informational only
        self._memo: dict[tuple, object] = {}

    # -- primitives --------------------------------------------------------

    @_memo
    def window(self, radius: int) -> tuple[Word, ...]:
        """Window vertices ordered by (distance from anchor, shortlex).

        The layered order makes a smaller window a prefix of any larger
        one, so signatures taken at different radii compare on the
        shorter one's length.
        """
        ball = self.oracle.graph.ball(self.anchor, radius)
        return tuple(w for layer in ball.frontiers for w in layer)

    @_memo
    def signature(self, z: Word, radius: int) -> tuple[int, ...]:
        """Horofunction of z on the window, normalized at the anchor."""
        return horofunction(self.oracle, z, self.window(radius), self.anchor)

    @_memo
    def ray(self, k: int) -> Word:
        """The k-th vertex of the direction's ray from the anchor.  The walk
        resumes at the deepest vertex already kept and keeps each step it
        takes, so every step is walked and checked once per pipeline."""
        j, v = 0, self.anchor
        for i in range(k - 1, 0, -1):
            if ("ray", i) in self._memo:
                j, v = i, self._memo["ray", i]
                break
        for i in range(j + 1, k + 1):
            v = self._memo["ray", i] = ray_vertex(
                self.oracle, self.direction, i, base=self.anchor,
                walked=(i - 1, v))
        return v

    @_memo
    def bundle(self, base: Word, depth: int) -> GeodesicDAG:
        return cgr_bundle_trunc(self.oracle, base, self.direction, depth,
                                self.margin, anchor=self.anchor, ray=self.ray)

    # -- horofunction classes ----------------------------------------------

    def _stab_triples(self, base: Word, depth: int):
        """Terminal (u,v,w) vertex triples of depth-reaching bundle rays."""
        dag = self.bundle(base, depth)
        for u in dag.layers[depth - 2]:
            for _, v in dag.successors[u]:
                for _, w in dag.successors[v]:
                    yield u, v, w

    @_memo
    def classes_from(self, base: Word, depth: int) -> XiDecomposition:
        if depth < 2:
            raise SpecError("class decomposition needs depth >= 2")
        triples = list(self._stab_triples(base, depth))
        # An anchor at distance m from the pipeline anchor cannot have
        # stabilized on a window it has not yet escaped, so close to the
        # base the comparison radius is capped by the available depth.
        reach = min(min(self.oracle.distance(self.anchor, z)
                        for z in t) for t in triples)
        radius = min(self.window_radius, reach)
        if radius < self.window_radius:
            note = (f"window clipped to radius {radius} for the depth-{depth} "
                    f"decomposition from {self.oracle.group.format(base)}")
            if note not in self.notes:
                self.notes.append(note)
        flags: list[str] = []
        while True:
            grouped: dict[tuple[int, ...], set[Word]] = {}
            unstable: set[Word] = set()
            for u, v, w in triples:
                su = self.signature(u, radius)
                if su == self.signature(v, radius) and su == self.signature(w, radius):
                    grouped.setdefault(su, set()).add(w)
                else:
                    unstable.add(w)
            if not grouped:
                raise StabilizationError(
                    f"no geodesic ray from {self.oracle.group.format(base)} "
                    f"has a stable signature at depth {depth}; rerun with a "
                    f"larger depth")
            if radius < self.window_radius:
                break  # clipped windows never drive widening
            if (radius - self.window_radius >= WIDEN_LIMIT
                    or not self._splits(grouped, radius)):
                break
            if radius >= reach:
                flags.append(
                    f"collision at radius {radius} cannot widen past the "
                    f"ray anchors; keeping radius {radius}")
                break
            flags.append(f"window collision at radius {radius}; "
                         f"widened to {radius + 1}")
            radius += 1
        classes = tuple(
            XiClass(i, sig, tuple(sorted(grouped[sig], key=shortlex_key)))
            for i, sig in enumerate(sorted(grouped)))
        return XiDecomposition(radius, classes,
                               tuple(sorted(unstable, key=shortlex_key)),
                               tuple(flags))

    def _splits(self, grouped: dict, radius: int) -> bool:
        """Does some class's terminals disagree one radius further out?"""
        return any(len({self.signature(w, radius + 1) for w in terminals}) > 1
                   for terminals in grouped.values())

    # -- sectors -------------------------------------------------------------

    @_memo
    def sector(self, base: Word, signature: tuple[int, ...],
               depth: int) -> SectorTrunc:
        deco = self.classes_from(base, depth)
        matched = [c for c in deco.classes
                   if _prefixes_agree(signature, c.signature)]
        if not matched:
            return SectorTrunc(frozenset(), deco.flags)
        flags = list(deco.flags)
        if len(matched) > 1:
            flags.append(f"signature matches {len(matched)} classes from "
                         f"{self.oracle.group.format(base)} at depth {depth} "
                         f"after window restriction; their sectors were "
                         f"merged")
        # A terminal t sits in the last layer, `depth` = d(base, t), and
        # every geodesic base→t runs through bundle layers joined by
        # bundle edges, so the union of the DAGs base→t is the backward
        # closure of the terminals in the bundle: walking up from the last
        # layer, a vertex is kept when one of its successors is.
        dag = self.bundle(base, depth)
        seen = {t for cls in matched for t in cls.terminals}
        for layer in reversed(dag.layers[:-1]):
            seen.update(v for v in layer
                        if any(w in seen for _, w in dag.successors[v]))
        return SectorTrunc(frozenset(seen), _unique(flags))

    # -- special vertices ------------------------------------------------------

    def special_vertices(self, base: Word, depth: int) -> SpecialVertexReport:
        """Bundle vertices whose class sectors single out one class, from
        the layers that Geo₁ reads.

        The layers are classified shallowest first, and the scan ends with
        the first layer by which every class has a special vertex.  No
        deeper vertex can change Geo₁: a vertex v of layer k has
        d(base, v) = k, since the bundle is a geodesic DAG from the base,
        and Geo₁ keeps only the special vertices of least distance in each
        class.  Once every class has one at a layer ≤ k, every special
        vertex of a layer > k is farther than its class's nearest.  A
        class that never gets a special vertex keeps the scan going to
        layer depth − 2.  The special and ambiguous vertices and the flags
        therefore cover the layers up to where the scan ended, not the
        whole bundle.

        Not memoized: `geo1`, its only caller, is memoized on the same key.
        """
        deco = self.classes_from(base, depth)
        special: list[tuple[Word, int]] = []
        ambiguous: list[Word] = []
        flags = list(deco.flags)
        dag = self.bundle(base, depth)
        unmet = {c.id for c in deco.classes}
        for k in range(0, depth - 1):
            if not unmet:
                break
            remaining = depth - k
            for v in dag.layers[k]:
                try:
                    sectors = [self.sector(v, c.signature, remaining)
                               for c in deco.classes]
                except StabilizationError:
                    ambiguous.append(v)
                    continue
                flags.extend(f for sec in sectors for f in sec.flags)
                verdict = self._classify_vertex(deco, v, remaining, sectors)
                if verdict is None:
                    continue
                if verdict < 0:
                    ambiguous.append(v)
                else:
                    special.append((v, verdict))
                    unmet.discard(verdict)
        special.sort(key=lambda item: (shortlex_key(item[0]), item[1]))
        return SpecialVertexReport(tuple(special),
                                   tuple(sorted(ambiguous, key=shortlex_key)),
                                   _unique(flags))

    def _classify_vertex(self, deco: XiDecomposition, v: Word, remaining: int,
                         sectors: list[SectorTrunc]) -> int | None:
        """None: not special.  ≥0: special with that class id.  −1: tie."""
        if not all(s.vertices for s in sectors):
            return None
        common = frozenset.intersection(*(s.vertices for s in sectors))
        if not self._reaches_depth(v, common, remaining):
            return None
        owners = [c.id for c, s in zip(deco.classes, sectors)
                  if s.vertices == common]
        if len(owners) == 1:
            return owners[0]
        return -1

    def _reaches_depth(self, v: Word, allowed: frozenset[Word],
                       remaining: int) -> bool:
        """Is there a geodesic from v of full length inside `allowed`?

        `allowed` lies in sectors from v, so inside the bundle from v,
        whose edges join every adjacent pair of consecutive layers.
        """
        if v not in allowed:
            return False
        dag = self.bundle(v, remaining)
        frontier = {v}
        for _ in range(remaining):
            frontier = {w for p in frontier for _, w in dag.successors[p]
                        if w in allowed}
            if not frontier:
                return False
        return True

    # -- the modified bundle -----------------------------------------------

    @_memo
    def geo1(self, base: Word, depth: int) -> Geo1Trunc:
        report = self.special_vertices(base, depth)
        deco = self.classes_from(base, depth)
        flags = list(report.flags)
        if report.ambiguous:
            flags.append(
                f"{len(report.ambiguous)} bundle vertices had ambiguous "
                f"class assignment and were excluded")
        # d(base, v) is the index of v's bundle layer.
        layers = self.bundle(base, depth).layers
        layer_of = {v: k for k, layer in enumerate(layers) for v in layer}
        by_class: dict[int, list[tuple[int, Word]]] = {}
        for v, cid in report.special:
            by_class.setdefault(cid, []).append((layer_of[v], v))
        vertices: set[Word] = set()
        chosen: list[tuple[int, tuple[Word, ...]]] = []
        skipped: list[int] = []
        for cls in deco.classes:
            entries = by_class.get(cls.id)
            if not entries:
                skipped.append(cls.id)
                flags.append(
                    f"class {cls.id} has no special representative at "
                    f"depth {depth}; skipped")
                continue
            least = min(d for d, _ in entries)
            y_set = tuple(sorted((v for d, v in entries if d == least),
                                 key=shortlex_key))
            chosen.append((cls.id, y_set))
            for y in y_set:
                sec = self.sector(y, cls.signature, depth - least)
                flags.extend(sec.flags)
                vertices.update(sec.vertices)
        return Geo1Trunc(frozenset(vertices), tuple(chosen),
                         tuple(skipped), _unique(flags))


# ---------------------------------------------------------------------------
# symmetric-difference scans


def symdiff_scan(pipeline: DirectionPipeline, x: Word, y: Word,
                 depths: list[int]) -> SymDiffScan:
    """|Geo₁(x) Δ Geo₁(y)| per depth, on the common well-defined window.

    A vertex only counts when both truncations can see it — when it is
    within depth − margin of both bases — so horizon artifacts at the cut
    are never reported as differences.
    """
    dist = pipeline.oracle.distance
    rows = []
    flags: list[str] = []
    for depth in depths:
        gx = pipeline.geo1(x, depth)
        gy = pipeline.geo1(y, depth)
        flags += gx.flags + gy.flags
        horizon = depth - pipeline.margin

        def visible(v: Word) -> bool:
            return (dist(x, v) <= horizon
                    and dist(y, v) <= horizon)

        ax = {v for v in gx.vertices if visible(v)}
        ay = {v for v in gy.vertices if visible(v)}
        rows.append((depth, len(ax ^ ay)))
    stabilized = (len(rows) >= 3
                  and rows[-1][1] == rows[-2][1] == rows[-3][1])
    return SymDiffScan(tuple(rows),
                       "stabilized" if stabilized else "unstabilized",
                       _unique(flags))
