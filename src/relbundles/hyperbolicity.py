"""Empirical slim-triangle constants and the derived layer/class bounds.

Triangle sides are geodesics in the relative metric; the defect of a side
is how far one of its vertices can sit from the union of the other two
sides, and the reported constant is the worst defect over a triangle
family.  Side choices are adversarial: for each probe vertex we take the
maximum over all geodesic representatives of the opposing sides, computed
by a bottleneck DP over the geodesic DAGs, so no enumeration cap is
needed.  Both metrics are scored in one pass over the same side DAGs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .groups import SpecError, Word, shortlex_key
from .relgraph import ABSOLUTE, METRICS, RELATIVE, DistanceOracle, RelativeGraph
from .geodesics import GeodesicDAG, geodesic_dag


@dataclass(frozen=True)
class TriangleWitness:
    corners: tuple[Word, Word, Word]
    probe: Word
    defect_rel: int
    defect_abs: int


@dataclass
class SlimnessReport:
    exhaustive_radius: int
    ball_radius: int
    triangle_budget: int
    seed: int
    nu_rel: int
    nu_abs: int
    exhaustive_nu_rel: int
    exhaustive_nu_abs: int
    triangles_checked: int
    witnesses: tuple[TriangleWitness, ...]


def _check_geodesic(oracle: DistanceOracle, path: tuple[Word, ...], metric: str) -> None:
    if not path:
        raise SpecError("a triangle side must contain at least one vertex")
    if len(path) - 1 != oracle.distance(path[0], path[-1], metric):
        raise SpecError(
            f"side of length {len(path) - 1} is not geodesic between its endpoints")
    for u, v in zip(path, path[1:]):
        if oracle.distance(u, v, metric) != 1:
            raise SpecError("side vertices are not consecutive neighbors")


def triangle_defect(oracle: DistanceOracle, p: tuple[Word, ...],
                    q: tuple[Word, ...], r: tuple[Word, ...],
                    metric: str = RELATIVE,
                    side_metric: str = RELATIVE) -> int:
    """Worst distance from a vertex of one side to the union of the others.

    The three paths must close up cyclically (p: x→y, q: y→z, r: z→x) and
    each must be geodesic in `side_metric`; the defect itself is measured
    in `metric`, maximized over the three rotations.
    """
    for side in (p, q, r):
        _check_geodesic(oracle, side, side_metric)
    if p[-1] != q[0] or q[-1] != r[0] or r[-1] != p[0]:
        raise SpecError("triangle sides do not share endpoints cyclically")
    worst = 0
    sides = (p, q, r)
    for i in range(3):
        probe = sides[i]
        others = set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3])
        for u in probe:
            d = min(oracle.distance(u, v, metric) for v in others)
            worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# adversarial defect over all side choices

def _bottleneck(dag: GeodesicDAG, cost: dict[Word, int]) -> int:
    """max over source→target paths of (min over path vertices of cost)."""
    val: dict[Word, int] = {}
    for k in range(dag.length, -1, -1):
        for v in dag.layers[k]:
            c = cost[v]
            if k < dag.length:
                c = min(c, max(val[w] for w in dag.successors(v, k)))
            val[v] = c
    return val[dag.source]


@dataclass(frozen=True)
class _Side:
    """A side DAG in local coordinates (source e) and where it is placed."""

    dag: GeodesicDAG
    chain: bool
    placed: dict[Word, Word]  # local vertex x ↦ u·x


class _TriangleProbe:
    """Defects of corner triples in both metrics, one pass per triangle.

    The geodesic DAG from u to v is the DAG from e to w = u⁻¹v moved by u,
    so it is built once per difference word and kept with source e; a
    queried pair only translates its vertices.  The bottleneck DP runs over
    the local layers with costs measured at the translated vertices.
    """

    def __init__(self, graph: RelativeGraph, oracle: DistanceOracle):
        self.graph = graph
        self.oracle = oracle
        self._dags: dict[Word, tuple[GeodesicDAG, bool]] = {}

    def _side(self, u: Word, v: Word) -> _Side:
        g = self.graph.group
        w = g.multiply(g.inverse(u), v)
        hit = self._dags.get(w)
        if hit is None:
            dag = geodesic_dag(self.graph, self.oracle, (), w)
            hit = self._dags[w] = (dag, all(len(l) == 1 for l in dag.layers))
        dag, chain = hit
        placed = {x: g.multiply(u, x) if u else x
                  for layer in dag.layers for x in layer}
        return _Side(dag, chain, placed)

    def defects(self, a: Word, b: Word, c: Word) -> dict[str, tuple[int, Word]]:
        """Per metric, the worst defect over rotations and side choices and
        the first probe vertex attaining it."""
        sides = (self._side(a, b), self._side(b, c), self._side(c, a))
        verts = [set(s.placed.values()) for s in sides]
        dist = self.oracle.distance
        worst = {RELATIVE: (0, a), ABSOLUTE: (0, a)}
        for i in range(3):
            qi, ri = (i + 1) % 3, (i + 2) % 3
            q, r = sides[qi], sides[ri]
            if q.chain and r.chain:
                union = verts[qi] | verts[ri]
                for u in verts[i] - union:
                    for m in METRICS:
                        d = min(dist(u, v, m) for v in union)
                        if d > worst[m][0]:
                            worst[m] = (d, u)
            else:
                for u in verts[i]:
                    for m in METRICS:
                        d = min(_bottleneck(s.dag, {x: dist(u, y, m)
                                                    for x, y in s.placed.items()})
                                for s in (q, r))
                        if d > worst[m][0]:
                            worst[m] = (d, u)
        return worst


def estimate_nu(graph: RelativeGraph, oracle: DistanceOracle,
                exhaustive_radius: int = 3, ball_radius: int = 4,
                triangle_budget: int = 10_000, seed: int = 0,
                keep_witnesses: int = 5) -> SlimnessReport:
    """Slimness constants from an exhaustive small sweep plus sampling.

    The exhaustive stage tries every corner triple (repeats allowed, so
    geodesic bigons are covered) inside the relative ball of
    `exhaustive_radius`; the sampled stage draws `triangle_budget` seeded
    triples from the ball of `ball_radius`.  Reported constants are the
    maxima over both stages and can only grow with a larger sample.
    """
    probe = _TriangleProbe(graph, oracle)
    ball_small = graph.ball((), exhaustive_radius, RELATIVE)
    small = sorted(ball_small.entries, key=shortlex_key)
    worst: dict[str, int] = {RELATIVE: 0, ABSOLUTE: 0}
    exhaustive: dict[str, int] = {RELATIVE: 0, ABSOLUTE: 0}
    witnesses: list[TriangleWitness] = []
    count = 0

    def consider(a: Word, b: Word, c: Word, stage: dict[str, int] | None) -> None:
        nonlocal count
        count += 1
        found = probe.defects(a, b, c)
        (d_rel, who_rel), (d_abs, who_abs) = found[RELATIVE], found[ABSOLUTE]
        if stage is not None:
            stage[RELATIVE] = max(stage[RELATIVE], d_rel)
            stage[ABSOLUTE] = max(stage[ABSOLUTE], d_abs)
        improved = d_rel > worst[RELATIVE] or d_abs > worst[ABSOLUTE]
        worst[RELATIVE] = max(worst[RELATIVE], d_rel)
        worst[ABSOLUTE] = max(worst[ABSOLUTE], d_abs)
        if improved:
            who = who_rel if d_rel >= d_abs else who_abs
            witnesses.append(TriangleWitness((a, b, c), who, d_rel, d_abs))

    for a, b, c in combinations_with_replacement(small, 3):
        consider(a, b, c, exhaustive)

    rng = random.Random(seed)
    if triangle_budget > 0:
        ball_big = graph.ball((), ball_radius, RELATIVE)
        big = sorted(ball_big.entries, key=shortlex_key)
        for _ in range(triangle_budget):
            a, b, c = (rng.choice(big) for _ in range(3))
            consider(a, b, c, None)

    return SlimnessReport(
        exhaustive_radius=exhaustive_radius,
        ball_radius=ball_radius,
        triangle_budget=triangle_budget,
        seed=seed,
        nu_rel=worst[RELATIVE],
        nu_abs=worst[ABSOLUTE],
        exhaustive_nu_rel=exhaustive[RELATIVE],
        exhaustive_nu_abs=exhaustive[ABSOLUTE],
        triangles_checked=count,
        witnesses=tuple(witnesses[-keep_witnesses:]),
    )


# ---------------------------------------------------------------------------
# derived constants

def bound_B(graph: RelativeGraph, nu: int) -> int:
    """(6·nu + 1) times the size of the absolute ball of radius nu."""
    if nu < 0:
        raise SpecError("nu must be nonnegative")
    ball = graph.ball((), nu, ABSOLUTE)
    return (6 * nu + 1) * len(ball.entries)


def bound_K(nu: int, b: int) -> int:
    """(20·nu + 1) times the layer bound."""
    if nu < 0 or b < 0:
        raise SpecError("nu and B must be nonnegative")
    return (20 * nu + 1) * b
