"""Empirical slim-triangle constants and the derived layer/class bounds.

Triangle sides are geodesics in the relative metric; the defect of a side
is how far one of its vertices can sit from the union of the other two
sides, and the reported constant is the worst defect over a triangle
family.  Side choices are adversarial: for each probe vertex we take the
maximum over all geodesic representatives of the opposing sides, computed
by a bottleneck DP over the geodesic DAGs, so no enumeration cap is
needed.  One metric is scored, the relative one: where a parabolic is
declared, the word metric gives every probe the same defect (proof in
`_TriangleProbe`).  A side is placed once per unordered endpoint pair
and cached for the sweep (`_TriangleProbe`); the exhaustive stage reads
its sides from a table indexed by corner, built row by row in the order
its triangles first read them, so it forms no pair key per triangle.
Each side keeps its vertex set as an `int` mask, one bit per vertex:
where the other two sides of a triangle are chains, only the vertices
off both can have a defect.  Where the oracle's normal form spells the
one geodesic (`relgraph.spelled_geodesic`: a plain free group, or a
plain free product whose syllables of u⁻¹v are all coned), the chain's
mask is read off the root masks of u and v, the bits of the prefixes of
their parts in `oracle.spelling`, and the turn `relgraph.spelled_split`
finds, with no per-vertex work, and its vertices are formed only when a
triangle with the side is scored.  Otherwise (the parse DP of adjoined
generators, table groups, non-coned syllables, small cancellation) the
side is the geodesic DAG from u to v itself, grown in layers; a side
that is a single path is kept as its bare vertices.  A triangle of three
chains with no vertex on one side alone (every triangle on a tree) has
defect 0 and is counted without being scored.  A probe vertex counts
only past the running worst defect, so its search stops at the first
side, layer or vertex that is no farther.

`estimate_nu(oracle, …)` and `_TriangleProbe(oracle)` take the oracle
alone and sweep the graph it was built over, `oracle.graph`.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .groups import SpecError, Word, shortlex_key
from .relgraph import DistanceOracle, Spelling, spelled_geodesic, spelled_split
from .geodesics import GeodesicDAG, geodesic_dag


@dataclass(frozen=True)
class TriangleWitness:
    corners: tuple[Word, Word, Word]
    probe: Word  # a vertex attaining the defect
    defect: int


@dataclass
class SlimnessReport:
    exhaustive_radius: int
    seed: int
    nu: int
    exhaustive_nu: int
    triangles_checked: int
    witnesses: tuple[TriangleWitness, ...]


# ---------------------------------------------------------------------------
# adversarial defect over all side choices

def _bottleneck(dag: GeodesicDAG, cost: dict[Word, int]) -> int:
    """max over source→target paths of (min over path vertices of cost)."""
    val: dict[Word, int] = {}
    for k in range(dag.length, -1, -1):
        for v in dag.layers[k]:
            c = cost[v]
            if k < dag.length:
                c = min(c, max(val[w] for _, w in dag.successors[v]))
            val[v] = c
    return val[dag.source]


class Side:
    """One placed side of the sweep.

    `mask` has one bit per vertex and `chain` says whether the side has one
    vertex per layer.  `path` is a chain's vertices from its first endpoint
    or the side's DAG; on a spelled chain it is None until
    `_TriangleProbe.path` builds it from `ends`, the endpoints it was
    placed from.
    """

    __slots__ = ("path", "mask", "chain", "ends")

    def __init__(self, path: tuple[Word, ...] | GeodesicDAG | None, mask: int,
                 chain: bool, ends: tuple[Word, Word] | None = None):
        self.path, self.mask, self.chain, self.ends = path, mask, chain, ends


class _TriangleProbe:
    """Defects of corner triples in the relative metric.

    A defect reads only a side's vertex set and the bottleneck over its
    paths, and both are the same for u→v and v→u, so a side is placed once
    per unordered endpoint pair and kept for the probe's life, as a `Side`
    entry.  Each placed vertex gets one bit, through one dict that also
    interns its word, so masks from every side compare.

    Where the oracle spells geodesics (`oracle.spelling` is not None,
    which holds for every word or for none) and `spelled_split` finds the
    one from u to v, the side's mask is read off its endpoints' root masks
    with no per-vertex work (`_root`, `_spelled_mask`), and its vertices
    are built only when a triangle with the side is scored (`path`).
    Otherwise the side is `geodesic_dag(oracle, u, v)`, kept as its bare
    tuple of vertices when it is a chain (one vertex per layer).

    A vertex on a chain is 0 from it, so where both other sides are
    chains, the probe vertices of a side are its mask less theirs.  Where
    no bit lies on one side alone (every triangle on a tree), all three
    rotations are decided from the masks, the defect is 0 at a, and
    `estimate_nu` counts the triangle without asking `defects`.

    A probe vertex counts only past the running worst defect, so a search
    stops at the first distance at or below it: over a chain, at a vertex;
    over a DAG, at a layer, as every path crosses every layer; and over a
    pair of sides, at the first, which is a chain where one is.

    The word metric gives the same defect.  Only a free product declares
    a parabolic, and `FreeProductGroup` rejects adjoined words beside one,
    so both graphs are tree-graded over the factor cosets.  A corner lies
    on two sides.  Take any other probe u, on side p, and P the coset of
    a factor holding u and an edge of p at u.  If P is coned, p crosses
    it in one edge, so u is a cut vertex between p's ends and lies on q
    or r.  Otherwise each x outside P is reached through one cut vertex
    c = proj_P(x), so d(u, x) = d_P(u, c) + d(c, x), d_P the factor's own
    metric in both graphs: a side meeting P is as far from u in both.  If
    one of q and r misses P, the other passes that side's cut vertex and
    is the nearer.  So min(d(u, q), d(u, r)) does not depend on the metric.
    """

    def __init__(self, oracle: DistanceOracle):
        self.oracle = oracle
        self._sides: dict[tuple[Word, Word], Side] = {}
        self._vertices: dict[Word, tuple[Word, int]] = {}
        self._roots: dict[Word, tuple[int, tuple[int, ...], Spelling]] | None = (
            None if oracle.spelling(()) is None else {})

    def _bit(self, x: Word) -> int:
        known = self._vertices
        return (known.get(x) or known.setdefault(x, (x, 1 << len(known))))[1]

    def _root(self, x: Word) -> tuple[int, tuple[int, ...], Spelling]:
        """x's root record: (R, bits, `oracle.spelling(x)`), where bits[k]
        is the bit of the prefix of x's first k parts and R their OR, the
        mask of x's own prefixes."""
        got = self._roots.get(x)
        if got is None:
            s = self.oracle.spelling(x)
            bits = tuple(self._bit(x[:k]) for k in s.cuts)
            # distinct prefixes have distinct bits, so their sum is their OR
            got = self._roots[x] = (sum(bits), bits, s)
        return got

    def _spelled_mask(self, u: Word, v: Word) -> int | None:
        """The vertex mask of `spelled_geodesic`'s chain from u to v, or
        None where it spells none.

        The chain is the prefixes of u and of v longer than their common
        prefix P, which the two root masks differ by, and P itself where
        `spelled_split` says the chain passes through it.
        """
        if self._roots is None:
            return None
        ru, bits, su = self._root(u)
        rv, _, sv = self._root(v)
        split = spelled_split(su, sv)
        if split is None:
            return None
        c, through = split
        mask = ru ^ rv
        return mask | bits[c] if through else mask

    def _side(self, u: Word, v: Word) -> Side:
        """The side between u and v, placed as u → v on first read: from
        the root masks where the side is spelled, else as its geodesic
        DAG."""
        key = (u, v) if u <= v else (v, u)
        entry = self._sides.get(key)
        if entry is None:
            entry = self._sides[key] = self._place(u, v)
        return entry

    def _place(self, u: Word, v: Word) -> Side:
        """A new side for u → v."""
        mask = self._spelled_mask(u, v)
        if mask is not None:
            return Side(None, mask, True, (u, v))
        dag = geodesic_dag(self.oracle, u, v)
        chain = all(len(layer) == 1 for layer in dag.layers)
        known, mask, words = self._vertices, 0, []
        for x in (x for (x,) in dag.layers) if chain else dag.vertices():
            word, bit = known.get(x) or known.setdefault(x, (x, 1 << len(known)))
            words.append(word)
            mask |= bit
        return Side(tuple(words) if chain else dag, mask, chain)

    def path(self, side: Side) -> tuple[Word, ...] | GeodesicDAG:
        """A side's chain of vertices from its first endpoint, or its DAG;
        a spelled chain is built on first read and kept in the side."""
        if side.path is None:
            side.path = tuple(spelled_geodesic(self.oracle, *side.ends)[1])
        return side.path

    def defects(self, a: Word, b: Word, c: Word,
                sides: tuple[Side, Side, Side] | None = None,
                ) -> tuple[int, Word]:
        """The worst defect over rotations and side choices and a probe
        vertex attaining it (the corner a when the defect is 0).

        `sides` are the entries of (a, b), (b, c) and (a, c) where the
        caller has read them already.  Probe vertices are visited in the
        order of their vertex sets, and of tied vertices the first keeps
        the defect.
        """
        if sides is None:
            sides = (self._side(a, b), self._side(b, c), self._side(a, c))
        paths = [self.path(s) for s in sides]
        dist = self.oracle.distance

        def nearest(u: Word, ys: Iterable[Word], floor: int) -> int:
            """min over ys of d(u, y), or the first value at or below floor."""
            best = None
            for y in ys:
                d = dist(u, y)
                if d <= floor:
                    return d
                if best is None or d < best:
                    best = d
            return best

        def opposite(u: Word, s: tuple[Word, ...] | GeodesicDAG, floor: int) -> int:
            if isinstance(s, tuple):
                return nearest(u, s, floor)
            cost: dict[Word, int] = {}
            for layer in s.layers:
                top = 0
                for x in layer:
                    d = cost[x] = dist(u, x)
                    if d > top:
                        top = d
                if top <= floor:
                    return top
            return _bottleneck(s, cost)

        def vertices(s: tuple[Word, ...] | GeodesicDAG) -> set[Word]:
            return set(s) if isinstance(s, tuple) else s.vertices()

        worst, at = 0, a
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            p, q, r = paths[i], paths[j], paths[k]
            if sides[j].chain and sides[k].chain:
                if not sides[i].mask & ~(sides[j].mask | sides[k].mask):
                    continue
                union = vertices(q) | vertices(r)
                for u in vertices(p) - union:
                    d = nearest(u, union, worst)
                    if d > worst:
                        worst, at = d, u
            else:
                if sides[k].chain:
                    q, r = r, q
                for u in vertices(p):
                    d = opposite(u, q, worst)
                    if d > worst:
                        d = min(d, opposite(u, r, worst))
                        if d > worst:
                            worst, at = d, u
        return worst, at


def estimate_nu(oracle: DistanceOracle, exhaustive_radius: int = 3,
                ball_radius: int = 4, triangle_budget: int = 10_000,
                seed: int = 0) -> SlimnessReport:
    """Slimness constants from an exhaustive small sweep plus sampling.

    The exhaustive stage tries every corner triple (repeats allowed, so
    geodesic bigons are covered) inside the relative ball of
    `exhaustive_radius`; the sampled stage draws `triangle_budget` seeded
    triples from the ball of `ball_radius`.  Reported constants are the
    maxima over both stages and can only grow with a larger sample.  The
    last five triangles that raised a constant are kept.

    The exhaustive stage reads its sides from a corner-index table: row i
    holds small[i] → small[j] for j ≥ i, the order and orientation in
    which its triangles first read them.
    """
    if triangle_budget < 0:
        raise SpecError("triangle_budget must be nonnegative")
    probe = _TriangleProbe(oracle)
    side = probe._side
    small = sorted(oracle.graph.ball((), exhaustive_radius).entries, key=shortlex_key)

    def exhaustive_triangles():
        rows = [[side(a, b) for b in small[i:]] for i, a in enumerate(small)]
        for i, (a, row) in enumerate(zip(small, rows)):
            for j in range(i, len(small)):
                b, ab = small[j], row[j - i]
                for c, bc, ac in zip(small[j:], rows[j], row[j - i:]):
                    yield a, b, c, ab, bc, ac

    def sampled_triangles():
        if triangle_budget > 0:
            choice = random.Random(seed).choice
            big = sorted(oracle.graph.ball((), ball_radius).entries, key=shortlex_key)
            for _ in range(triangle_budget):
                a, b, c = choice(big), choice(big), choice(big)
                yield a, b, c, side(a, b), side(b, c), side(a, c)

    nu = count = 0
    witnesses: list[TriangleWitness] = []
    for triangles in (exhaustive_triangles(), sampled_triangles()):
        exhaustive_nu = nu  # at the sampled stage: the exhaustive stage's worst
        for a, b, c, ab, bc, ac in triangles:
            count += 1
            x, y, z = ab.mask, bc.mask, ac.mask
            if (ab.chain and bc.chain and ac.chain
                    and x | y | z == (x & y) | (y & z) | (x & z)):
                continue  # a tripod: no vertex on one side alone, defect 0
            d, at = probe.defects(a, b, c, (ab, bc, ac))
            if d > nu:
                nu = d
                witnesses.append(TriangleWitness((a, b, c), at, d))

    return SlimnessReport(
        exhaustive_radius=exhaustive_radius,
        seed=seed,
        nu=nu,
        exhaustive_nu=exhaustive_nu,
        triangles_checked=count,
        witnesses=tuple(witnesses[-5:]),
    )


# ---------------------------------------------------------------------------
# derived constants

def bound_B(oracle: DistanceOracle, nu: int) -> int:
    """(6·nu + 1) times the size of the word-metric ball of radius nu."""
    if nu < 0:
        raise SpecError("nu must be nonnegative")
    ball = oracle.absolute.graph.ball((), nu)
    return (6 * nu + 1) * len(ball.entries)


def bound_K(nu: int, b: int) -> int:
    """(20·nu + 1) times the layer bound."""
    if nu < 0 or b < 0:
        raise SpecError("nu and B must be nonnegative")
    return (20 * nu + 1) * b
