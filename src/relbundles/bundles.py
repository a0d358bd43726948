"""Horofunction classes, sectors, special vertices, and modified bundles.

Everything here works on finite truncations.  A boundary direction is an
eventually periodic label word; geodesics toward it are organized by the
stabilized horofunction signature they induce on a small window, and the
resulting classes drive the sector / special-vertex / modified-bundle
constructions, ending in symmetric-difference stabilization scans.

All signatures inside one `DirectionPipeline` share a window centered at
the pipeline anchor and are normalized there, which makes the whole
construction commute with left translation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import SpecError, Word, shortlex_key
from .relgraph import RELATIVE, DistanceOracle, RelativeGraph
from .geodesics import (
    CGRBundleTrunc,
    DirectionSpec,
    cgr_bundle_trunc,
    geodesic_dag,
)


class StabilizationError(RuntimeError):
    """No geodesic ray produced a stable signature at the working depth."""


@dataclass(frozen=True)
class HorofunctionTable:
    """Window values of g ↦ d(g,z) − d(base,z) for one anchor z."""

    anchor: Word
    base: Word
    window: tuple[Word, ...]
    values: tuple[int, ...]

    def value(self, g: Word) -> int:
        return self.values[self.window.index(g)]


def horofunction_table(oracle: DistanceOracle, z: Word,
                       window: tuple[Word, ...], base: Word = ()) -> HorofunctionTable:
    ref = oracle.distance(base, z, RELATIVE)
    values = tuple(oracle.distance(g, z, RELATIVE) - ref for g in window)
    return HorofunctionTable(z, base, window, values)


@dataclass(frozen=True)
class XiClass:
    """One stabilized signature with its witnesses per depth."""

    id: int
    signature: tuple[int, ...]
    window: tuple[Word, ...]
    window_radius: int
    reps: tuple[tuple[int, tuple[Word, ...]], ...]  # (depth, vertices)

    def terminals(self, depth: int) -> tuple[Word, ...]:
        for d, vs in self.reps:
            if d == depth:
                return vs
        return ()


@dataclass(frozen=True)
class XiDecomposition:
    base: Word
    depth: int
    window_radius: int
    classes: tuple[XiClass, ...]
    unstabilized: tuple[Word, ...]
    bundle: CGRBundleTrunc


@dataclass(frozen=True)
class SectorTrunc:
    """Union of geodesic DAGs from the base to one class's terminals."""

    base: Word
    signature: tuple[int, ...]
    depth: int
    layers: tuple[tuple[Word, ...], ...]
    empty: bool

    def vertices(self) -> frozenset[Word]:
        return frozenset(w for layer in self.layers for w in layer)


@dataclass(frozen=True)
class SpecialVertexReport:
    special: tuple[tuple[Word, int], ...]  # (vertex, class id)
    ambiguous: tuple[Word, ...]
    decomposition: XiDecomposition


@dataclass(frozen=True)
class Geo1Trunc:
    base: Word
    depth: int
    vertices: frozenset[Word]
    chosen: tuple[tuple[int, tuple[Word, ...]], ...]  # (class id, Y set)
    skipped_classes: tuple[int, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SymDiffScan:
    rows: tuple[tuple[int, int], ...]
    verdict: str  # "stabilized" | "unstabilized"
    flags: tuple[str, ...]


class DirectionPipeline:
    """Cached class/sector/special/Geo₁ computations for one direction.

    The window radius may grow during a run: if two stabilized rays agree
    on the window but split one radius further out, every signature is
    recomputed at the wider window and the event is recorded in `flags`.
    """

    def __init__(self, graph: RelativeGraph, oracle: DistanceOracle,
                 direction: DirectionSpec, *, nu: int = 0,
                 margin: int | None = None, window_radius: int | None = None,
                 anchor: Word = (), widen_limit: int = 3):
        self.graph = graph
        self.oracle = oracle
        self.direction = direction
        self.anchor = anchor
        self.margin = margin if margin is not None else 3 * nu + 1
        self.window_radius = (window_radius if window_radius is not None
                              else 3 * nu + 2)
        self.widen_limit = widen_limit
        self._base_window_radius = self.window_radius
        self.flags: list[str] = []  # ambiguity/truncation; drives verdicts
        self.notes: list[str] = []  # informational only
        self._windows: dict[int, tuple[Word, ...]] = {}
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._tables: dict[tuple[Word, int], HorofunctionTable] = {}
        self._bundles: dict[tuple[Word, int], CGRBundleTrunc] = {}
        self._classes: dict[tuple[Word, int], XiDecomposition] = {}
        self._sectors: dict[tuple[Word, tuple[int, ...], int], SectorTrunc] = {}
        self._specials: dict[tuple[Word, int], SpecialVertexReport] = {}
        self._geo1: dict[tuple[Word, int], Geo1Trunc] = {}

    # -- primitives --------------------------------------------------------

    def window(self, radius: int | None = None) -> tuple[Word, ...]:
        """Window vertices ordered by (distance from anchor, shortlex).

        The layered order makes a smaller window a prefix of any larger
        one, so signatures taken at different radii stay comparable on
        their common part.
        """
        r = self.window_radius if radius is None else radius
        got = self._windows.get(r)
        if got is None:
            ball = self.graph.ball(self.anchor, r, RELATIVE)
            got = tuple(w for layer in ball.frontiers for w in layer)
            self._windows[r] = got
        return got

    def table(self, z: Word, radius: int | None = None) -> HorofunctionTable:
        r = self.window_radius if radius is None else radius
        key = (z, r)
        got = self._tables.get(key)
        if got is None:
            got = horofunction_table(self.oracle, z, self.window(r), self.anchor)
            self._tables[key] = got
        return got

    def signature(self, z: Word, radius: int | None = None) -> tuple[int, ...]:
        return self.table(z, radius).values

    def restrict_signature(self, signature: tuple[int, ...], from_radius: int,
                           to_radius: int) -> tuple[int, ...]:
        if to_radius >= from_radius:
            return signature
        return signature[:len(self.window(to_radius))]

    def signatures_match(self, a: tuple[int, ...], ra: int,
                         b: tuple[int, ...], rb: int) -> bool:
        r = min(ra, rb)
        return (self.restrict_signature(a, ra, r)
                == self.restrict_signature(b, rb, r))

    def bundle(self, base: Word, depth: int) -> CGRBundleTrunc:
        key = (base, depth)
        got = self._bundles.get(key)
        if got is None:
            got = cgr_bundle_trunc(self.graph, self.oracle, base,
                                   self.direction, depth, self.margin,
                                   anchor=self.anchor)
            self._bundles[key] = got
        return got

    # -- horofunction classes ----------------------------------------------

    def classes_from(self, base: Word, depth: int) -> XiDecomposition:
        key = (base, depth)
        got = self._classes.get(key)
        if got is None:
            got = self._compute_classes(base, depth)
            self._classes[key] = got
        return got

    def _stab_triples(self, base: Word, depth: int):
        """Terminal (u,v,w) vertex triples of depth-reaching bundle rays."""
        dag = self.bundle(base, depth).dag
        for u in dag.layers[depth - 2]:
            for v in dag.successors(u, depth - 2):
                for w in dag.successors(v, depth - 1):
                    yield u, v, w

    def _compute_classes(self, base: Word, depth: int) -> XiDecomposition:
        if depth < 2:
            raise SpecError("class decomposition needs depth >= 2")
        triples = list(self._stab_triples(base, depth))
        # An anchor at distance m from the pipeline anchor cannot have
        # stabilized on a window it has not yet escaped, so close to the
        # base the comparison radius is capped by the available depth.
        reach = min(min(self.oracle.distance(self.anchor, z, RELATIVE)
                        for z in t) for t in triples)
        radius = min(self.window_radius, reach)
        if radius < self.window_radius:
            note = (f"window clipped to radius {radius} for the depth-{depth} "
                    f"decomposition from {self.graph.group.format(base)}")
            if note not in self.notes:
                self.notes.append(note)
        while True:
            grouped: dict[tuple[int, ...], dict[int, set[Word]]] = {}
            unstable: set[Word] = set()
            for u, v, w in triples:
                su = self.signature(u, radius)
                if su == self.signature(v, radius) and su == self.signature(w, radius):
                    slots = grouped.setdefault(su, {depth - 2: set(),
                                                    depth - 1: set(),
                                                    depth: set()})
                    slots[depth - 2].add(u)
                    slots[depth - 1].add(v)
                    slots[depth].add(w)
                else:
                    unstable.add(w)
            if not grouped:
                raise StabilizationError(
                    f"no geodesic ray from {self.graph.group.format(base)} has "
                    f"a stable signature at depth {depth}; rerun with a "
                    f"larger depth")
            if radius < self.window_radius:
                break  # clipped windows never drive widening
            if not self._collides(grouped, depth):
                break
            widened = min(self.window_radius, reach)
            if widened == radius:
                self.flags.append(
                    f"collision at radius {radius} cannot widen past the "
                    f"ray anchors; keeping radius {radius}")
                break
            radius = widened
        classes = []
        for i, sig in enumerate(sorted(grouped)):
            reps = tuple((d, tuple(sorted(vs, key=shortlex_key)))
                         for d, vs in sorted(grouped[sig].items()))
            classes.append(XiClass(i, sig, self.window(radius), radius, reps))
        return XiDecomposition(base, depth, radius, tuple(classes),
                               tuple(sorted(unstable, key=shortlex_key)),
                               self.bundle(base, depth))

    def _collides(self, grouped: dict, depth: int) -> bool:
        """Widen the window when a class splits one radius further out.

        Returns True when the caller must recompute; the guard keeps runs
        finite on adversarial input.
        """
        if self.window_radius - self._base_window_radius >= self.widen_limit:
            return False
        for sig, slots in grouped.items():
            terminals = slots[depth]
            wider = {self.signature(w, self.window_radius + 1)
                     for w in terminals}
            if len(wider) > 1:
                self.window_radius += 1
                self.flags.append(
                    f"window collision at radius {self.window_radius - 1}; "
                    f"widened to {self.window_radius}")
                self._reset_caches()
                return True
        return False

    # -- sectors -------------------------------------------------------------

    def sector(self, base: Word, signature: tuple[int, ...],
               depth: int, radius: int | None = None) -> SectorTrunc:
        r = self.window_radius if radius is None else radius
        key = (base, signature, depth, r)
        got = self._sectors.get(key)
        if got is None:
            got = self._compute_sector(base, signature, depth, r)
            self._sectors[key] = got
        return got

    def _compute_sector(self, base: Word, signature: tuple[int, ...],
                        depth: int, radius: int) -> SectorTrunc:
        deco = self.classes_from(base, depth)
        matched = [c for c in deco.classes
                   if self.signatures_match(signature, radius,
                                            c.signature, c.window_radius)]
        if not matched:
            return SectorTrunc(base, signature, depth, ((),) * (depth + 1), True)
        if len(matched) > 1:
            note = (f"signature matches {len(matched)} classes from "
                    f"{self.graph.group.format(base)} at depth {depth} after "
                    f"window restriction; their sectors were merged")
            if note not in self.flags:
                self.flags.append(note)
        layers: list[set[Word]] = [set() for _ in range(depth + 1)]
        for cls in matched:
            for t in cls.terminals(depth):
                dag = geodesic_dag(self.graph, self.oracle, base, t)
                for k, layer in enumerate(dag.layers):
                    layers[k].update(layer)
        return SectorTrunc(base, signature, depth,
                           tuple(tuple(sorted(l, key=shortlex_key))
                                 for l in layers), False)

    # -- special vertices ------------------------------------------------------

    def special_vertices(self, base: Word, depth: int) -> SpecialVertexReport:
        key = (base, depth)
        got = self._specials.get(key)
        if got is None:
            got = self._compute_specials(base, depth)
            self._specials[key] = got
        return got

    def _compute_specials(self, base: Word, depth: int) -> SpecialVertexReport:
        deco = self.classes_from(base, depth)
        special: list[tuple[Word, int]] = []
        ambiguous: list[Word] = []
        dag = deco.bundle.dag
        for k in range(0, depth - 1):
            remaining = depth - k
            for v in dag.layers[k]:
                verdict = self._classify_vertex(deco, v, remaining)
                if verdict is None:
                    continue
                if verdict < 0:
                    ambiguous.append(v)
                else:
                    special.append((v, verdict))
        special.sort(key=lambda item: (shortlex_key(item[0]), item[1]))
        return SpecialVertexReport(tuple(special),
                                   tuple(sorted(ambiguous, key=shortlex_key)),
                                   deco)

    def _classify_vertex(self, deco: XiDecomposition, v: Word,
                         remaining: int) -> int | None:
        """None: not special.  ≥0: special with that class id.  −1: tie."""
        try:
            sectors = [self.sector(v, c.signature, remaining, c.window_radius)
                       for c in deco.classes]
        except StabilizationError:
            return -1
        if any(s.empty for s in sectors):
            return None
        common = sectors[0].vertices()
        for s in sectors[1:]:
            common &= s.vertices()
        if not self._reaches_depth(v, common, remaining):
            return None
        owners = [c.id for c, s in zip(deco.classes, sectors)
                  if s.vertices() == common]
        if len(owners) == 1:
            return owners[0]
        return -1

    def _reaches_depth(self, v: Word, allowed: frozenset[Word],
                       remaining: int) -> bool:
        """Is there a geodesic from v of full length inside `allowed`?"""
        if v not in allowed:
            return False
        dist = self.oracle.distance
        frontier = [v]
        for step in range(1, remaining + 1):
            nxt = []
            for w in allowed:
                if dist(v, w, RELATIVE) == step and any(
                        dist(p, w, RELATIVE) == 1 for p in frontier):
                    nxt.append(w)
            if not nxt:
                return False
            frontier = nxt
        return True

    # -- the modified bundle -----------------------------------------------

    def geo1(self, base: Word, depth: int) -> Geo1Trunc:
        key = (base, depth)
        got = self._geo1.get(key)
        if got is None:
            got = self._compute_geo1(base, depth)
            self._geo1[key] = got
        return got

    def _compute_geo1(self, base: Word, depth: int) -> Geo1Trunc:
        report = self.special_vertices(base, depth)
        deco = report.decomposition
        flags = list(self.flags)
        if report.ambiguous:
            flags.append(
                f"{len(report.ambiguous)} bundle vertices had ambiguous "
                f"class assignment and were excluded")
        by_class: dict[int, list[tuple[int, Word]]] = {}
        for v, cid in report.special:
            by_class.setdefault(cid, []).append(
                (self.oracle.distance(base, v, RELATIVE), v))
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
                sec = self.sector(y, cls.signature, depth - least,
                                  cls.window_radius)
                vertices.update(sec.vertices())
        return Geo1Trunc(base, depth, frozenset(vertices), tuple(chosen),
                         tuple(skipped), tuple(flags))


# ---------------------------------------------------------------------------
# one-shot wrappers

def xi_classes(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
               direction: DirectionSpec, depth: int, *, nu: int = 0,
               window_radius: int | None = None,
               margin: int | None = None) -> XiDecomposition:
    pipe = DirectionPipeline(graph, oracle, direction, nu=nu,
                             window_radius=window_radius, margin=margin)
    return pipe.classes_from(x, depth)


def sector_trunc(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
                 xi: XiClass, direction: DirectionSpec, depth: int, *,
                 nu: int = 0, margin: int | None = None) -> SectorTrunc:
    pipe = DirectionPipeline(graph, oracle, direction, nu=nu,
                             window_radius=xi.window_radius, margin=margin)
    return pipe.sector(x, xi.signature, depth, xi.window_radius)


def special_vertices(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
                     direction: DirectionSpec, depth: int, *, nu: int = 0,
                     margin: int | None = None) -> SpecialVertexReport:
    pipe = DirectionPipeline(graph, oracle, direction, nu=nu, margin=margin)
    return pipe.special_vertices(x, depth)


def geo1_trunc(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
               direction: DirectionSpec, depth: int, *, nu: int = 0,
               margin: int | None = None) -> Geo1Trunc:
    pipe = DirectionPipeline(graph, oracle, direction, nu=nu, margin=margin)
    return pipe.geo1(x, depth)


def symdiff_scan(graph: RelativeGraph, oracle: DistanceOracle, x: Word,
                 y: Word, direction: DirectionSpec, depths: list[int], *,
                 nu: int = 0, margin: int | None = None,
                 window_radius: int | None = None,
                 pipeline: DirectionPipeline | None = None) -> SymDiffScan:
    """|Geo₁(x) Δ Geo₁(y)| per depth, on the common well-defined window.

    A vertex only counts when both truncations can see it — when it is
    within depth − margin of both bases — so horizon artifacts at the cut
    are never reported as differences.
    """
    pipe = pipeline or DirectionPipeline(graph, oracle, direction, nu=nu,
                                         margin=margin,
                                         window_radius=window_radius)
    dist = oracle.distance
    rows = []
    flags: list[str] = []
    for depth in depths:
        gx = pipe.geo1(x, depth)
        gy = pipe.geo1(y, depth)
        for f in (*gx.flags, *gy.flags):
            if f not in flags:
                flags.append(f)
        horizon = depth - pipe.margin

        def visible(v: Word) -> bool:
            return (dist(x, v, RELATIVE) <= horizon
                    and dist(y, v, RELATIVE) <= horizon)

        ax = {v for v in gx.vertices if visible(v)}
        ay = {v for v in gy.vertices if visible(v)}
        rows.append((depth, len(ax ^ ay)))
    stabilized = (len(rows) >= 3
                  and rows[-1][1] == rows[-2][1] == rows[-3][1])
    return SymDiffScan(tuple(rows),
                       "stabilized" if stabilized else "unstabilized",
                       tuple(flags))
