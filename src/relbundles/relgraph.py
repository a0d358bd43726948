"""Lazy adjacency, BFS balls and exact distances for relative Cayley graphs.

The graph is never materialized globally: vertices are canonical words and
adjacency comes from a fixed move alphabet.  The relative metric travels
over absolute generator edges plus one edge per non-identity parabolic
element; the absolute metric is that of the group with no parabolic, so a
graph measures one metric and `DistanceOracle.absolute` is the other.
Cone points are implicit — the two half-edges through a coset's cone vertex
collapse to a single parabolic edge, keeping distances integral.

A generator that also lies in a parabolic factor gives parallel edges
carrying one element.  Below the display layer an edge is its alphabet
symbol: the position of its element among the distinct move elements,
ordered by least label.  A label is only a name: `alphabet` keeps each
symbol's element with the names of its labels, which the DOT files print
and `validate-spec` counts.

Distance queries dispatch to closed forms where the family admits one,
on small-cancellation groups the length of a normal form proven geodesic;
where the normal form also spells the one geodesic, the oracle owns that
too (`DistanceOracle.spelling`, `spelled_split`, `spelled_geodesic`).
Otherwise the oracle keeps one ball around e, valid for every query
because the metric is left-invariant: a query inside it is a lookup,
and one outside meets it in a bidirectional search with a meet certificate,
growing the ball as it goes; a bounded query d(u, v) ≤ b stops at b.
Every oracle mode is cross-checked against the plain bidirectional BFS
`RelativeGraph.distance_bfs` in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, NamedTuple

from .groups import (
    FreeGroup,
    FreeProductGroup,
    Group,
    SmallCancellationGroup,
    SpecError,
    TableGroup,
    Word,
    build_group,
    free_reduce,
    invert_free,
    shortlex_key,
)

RELATIVE = "relative"
ABSOLUTE = "absolute"

DEFAULT_VERTEX_CAP = 5_000_000

# per symbol: its element and the names of its labels, in label order
Alphabet = tuple[tuple[Word, tuple[str, ...]], ...]


class ResourceLimitError(RuntimeError):
    """A search would pass the configured cap, or cannot finish within the
    graph's moves."""


@dataclass
class BallTable:
    """Exact BFS distances from a center out to `radius`.

    `frontiers[r]` lists the vertices at distance exactly r (shortlex
    sorted), so a ball can be resumed and grown without recomputation.
    """

    radius: int
    entries: dict[Word, int]
    frontiers: tuple[tuple[Word, ...], ...]

    def sphere(self, r: int) -> tuple[Word, ...]:
        return self.frontiers[r] if r < len(self.frontiers) else ()


class RelativeGraph:
    """Adjacency and BFS searches over X ∪ (parabolic elements)."""

    def __init__(self, group: Group, vertex_cap: int = DEFAULT_VERTEX_CAP):
        self.group = group
        self.spec = group.spec
        self.vertex_cap = vertex_cap

        # (name, element) of each label of X, in label order
        self._x_labels: list[tuple[str, Word]] = []
        for i, name in enumerate(group.gen_names, 1):
            self._x_labels += [(name, group.reduce((i,))),
                               (name + "'", group.reduce((-i,)))]
        for text in self.spec.redundant_generators:
            w = group.parse(text)
            if w == ():
                raise SpecError(f"adjoined generator {text!r} is the identity")
            name = "".join(text.split())
            self._x_labels += [(name, w), (name + "'", group.inverse(w))]

    # -- move alphabet -----------------------------------------------------

    @cached_property
    def alphabet(self) -> Alphabet:
        """Distinct move elements with the names of all their labels.

        Labels come in a fixed order: the generators of X as declared,
        primitive then adjoined, each + before −; then one `H{slot}:{h}`
        per non-identity element h of each parabolic factor, by slot and
        shortlex h.  Symbols, the positions in this table, follow the least
        label of each element; they are the canonical enumeration of the
        symmetrized alphabet used for binary coding.  Generator labels come
        first, so the word metric's alphabet (the same group with no
        parabolic) is a prefix of this one and a symbol names the same
        element in both.  The table is built on first use and kept only
        once built, so an infinite parabolic raises on every use.
        """
        labels = list(self._x_labels)
        g = self.group
        if isinstance(g, FreeProductGroup):
            for slot in sorted(g.parabolic_slots):
                labels += [(f"H{slot}:{g.format(h)}", h)
                           for h in g.parabolic_elements(slot)]
        names: dict[Word, list[str]] = {}
        for name, w in labels:
            names.setdefault(w, []).append(name)
        return tuple((w, tuple(ns)) for w, ns in names.items())

    @cached_property
    def step_words(self) -> tuple[Word, ...]:
        """The element of each symbol."""
        return tuple(w for w, _ in self.alphabet)

    @cached_property
    def symbols(self) -> dict[Word, int]:
        """The symbol of each move element: `step_words` inverted."""
        return {w: i for i, w in enumerate(self.step_words)}

    def format_symbol(self, symbol: int) -> str:
        """Every label of a symbol, joined by "|" in label order."""
        return "|".join(self.alphabet[symbol][1])

    # -- adjacency -----------------------------------------------------------

    def neighbors(self, v: Word) -> list[tuple[int, Word]]:
        """(symbol, neighbor) pairs in symbol order, one per distinct
        neighbor: distinct elements move v to distinct vertices."""
        out = []
        for symbol, w in enumerate(self.step_words):
            u = self.group.multiply(v, w)
            if u != v:
                out.append((symbol, u))
        return out

    # -- searches ------------------------------------------------------------

    def ball(self, center: Word, radius: int, metric: str = RELATIVE) -> BallTable:
        """Exact BFS ball; raises ResourceLimitError past the vertex cap."""
        # `metric` can only be the graph's own; perfbench/run.py passes it
        if metric != RELATIVE:
            raise SpecError(f"a graph measures the relative metric, not {metric!r}")
        if radius < 0:
            raise SpecError("radius must be nonnegative")
        start = BallTable(0, {center: 0}, ((center,),))
        return self.grow_ball(start, radius)

    def grow_ball(self, table: BallTable, radius: int) -> BallTable:
        """Extend a ball outward, reusing everything already computed."""
        if radius <= table.radius:
            return table
        steps = self.step_words
        entries = dict(table.entries)
        frontiers = list(table.frontiers)
        frontier = list(frontiers[table.radius]) if table.radius < len(frontiers) else []
        for r in range(table.radius + 1, radius + 1):
            nxt = []
            for v in frontier:
                for w in steps:
                    u = self.group.multiply(v, w)
                    if u not in entries:
                        entries[u] = r
                        nxt.append(u)
            if len(entries) > self.vertex_cap:
                raise ResourceLimitError(
                    f"ball({radius}) exceeds vertex cap {self.vertex_cap}")
            frontier = sorted(nxt, key=shortlex_key)
            frontiers.append(tuple(frontier))
            if not frontier:
                break
        while len(frontiers) < radius + 1:
            frontiers.append(())
        return BallTable(radius, entries, tuple(frontiers))

    def distance_bfs(self, u: Word, v: Word, max_radius: int = 64) -> int:
        """Bidirectional BFS; exact once frontier radii certify the meet."""
        if u == v:
            return 0
        steps = self.step_words
        du, dv = {u: 0}, {v: 0}
        fu, fv = [u], [v]
        ru = rv = 0
        best: int | None = None
        while True:
            if best is not None and best <= ru + rv:
                return best
            if not fu and not fv:
                raise ResourceLimitError(f"no path within {ru}+{rv} steps")
            if ru + rv >= max_radius:
                raise ResourceLimitError(f"distance search exceeded {max_radius}")
            own, other, frontier = (du, dv, fu) if (len(du) <= len(dv) and fu) or not fv else (dv, du, fv)
            r = (ru if own is du else rv) + 1
            nxt = []
            for x in frontier:
                for w in steps:
                    y = self.group.multiply(x, w)
                    if y not in own:
                        own[y] = r
                        nxt.append(y)
                        if y in other:
                            cand = r + other[y]
                            if best is None or cand < best:
                                best = cand
            if len(du) + len(dv) > self.vertex_cap:
                raise ResourceLimitError("distance search exceeds vertex cap")
            if own is du:
                fu, ru = nxt, r
            else:
                fv, rv = nxt, r


class Spelling(NamedTuple):
    """A word's parts where the oracle's normal form spells geodesics: its
    letters on a plain free group, its syllables on a plain free product.

    `heads[k]` is the factor of part k (on a free group the letter itself,
    so two different letters never share one), `cuts[k]` the length of the
    prefix of the first k parts, and `opened` the number of parts through
    the last one in a factor the oracle does not cone (0 on a free group).
    """

    parts: Sequence
    heads: Sequence
    cuts: Sequence[int]
    opened: int


def _geodesic_reach(group: SmallCancellationGroup) -> int:
    """L_max: a normal form of `group` at most this long is a geodesic;
    0 (no closed form) unless there are relators, all of even length,
    and every piece has one letter.

    Let w be Dehn-reduced (no subword is more than half a relator) and
    not geodesic, g a geodesic with the same ends.  Some simple disc
    component of a reduced diagram for the bigon w, g has a longer w
    side.  By Strebel's classification of C'(1/6) bigons (appendix to
    Ghys–de la Harpe 1990) it is a ladder of n cells, each glued to the
    next along one piece; his proof asks of each side only that it hold
    at most half of any cell's boundary, which w and g do.  So n ≥ 2,
    and for a cell of relator length 2m with one-letter pieces an end
    cell adds ±1 to |w| − |g| and a middle cell −2, 0 or +2; a positive
    cell holds m letters of w, a zero cell m − 1.  Even relators make
    the graph bipartite, so the sum is even and ≥ 2, and two positive
    cells are joined by a run of zero cells.  Swapping w's half along
    the first positive cell, then along each zero cell, keeps the
    length; the swap at the second positive cell cancels the piece it
    enters by.  So k swaps reach a shorter word, k the cells of the
    run, which cover at least k(m−1) + 2 letters of w, m now half the
    shortest relator.  If |w| ≤ L_max = search_depth·(m−1) + 2, then
    k ≤ search_depth and the normal-form search finds that word.  A
    normal form is as long as a Dehn-reduced word whose search found
    nothing shorter, or that holds no half relator and so no positive
    cell: if it has at most L_max letters, it is a geodesic.
    """
    relators = group.relators
    if (not relators or any(len(r) % 2 for r in relators)
            or any(len(p) > 1 for p in group.pieces.pieces)):
        return 0
    m = min(map(len, relators)) // 2
    return group.search_depth * (m - 1) + 2


class DistanceOracle:
    """Exact distance queries, specialized per group family.

    An oracle measures its graph's one metric.  Free groups over their
    primitive generators use |u| + |v| minus twice their common prefix;
    finite tables use the canonical length of u⁻¹v; free products charge 1
    per coned (parabolic) syllable of u⁻¹v and the factor length otherwise,
    read off where the syllables of u and v part, without building u⁻¹v,
    if every non-coned small-cancellation factor meets the hypotheses of
    `_geodesic_reach` (elsewhere a factor's normal form only bounds its
    length, and the product searches).  A free group with adjoined generators uses a parse DP of u⁻¹v when the
    alphabet passes the junction check below.  A small-cancellation group
    whose relators all have even length and whose pieces are at most one
    letter long uses |nf(u⁻¹v)|, the length of the normal form, while that
    is at most L_max = search_depth·(m−1) + 2, 2m the shortest relator
    (50 on genus 2; proof at `_geodesic_reach`).  Anything else, and a
    longer normal form, uses one ball around e: d(u, v) = |u⁻¹v| is a
    lookup when u⁻¹v lies in the ball, and otherwise a bidirectional
    search whose fixed side is the ball.  The ball is never invalidated,
    only grown, and the sizes of its outer sphere and of the search
    frontier decide how far.  The parse DP and the ball search share one
    memo keyed by u⁻¹v.

    `within(u, v, bound)` answers d(u, v) ≤ bound.  The closed forms, the
    normal form and the parse DP read it off `distance`; the ball search
    stops once its two radii sum to the bound with no meet at or below
    it, and memoizes only exact distances.
    """

    def __init__(self, graph: RelativeGraph):
        self.graph = graph
        self.group = graph.group
        self._memo: dict[Word, int] = {}
        self._ball = BallTable(0, {(): 0}, (((),),))
        g = self.group
        plain = not g.spec.redundant_generators
        # d(u, v), picked here so that a query pays no dispatch.  The
        # function is stored unbound: a bound method would tie the oracle,
        # its memo and its ball into a reference cycle.
        cls = DistanceOracle
        self._pair: Callable[[DistanceOracle, Word, Word], int]
        if isinstance(g, FreeGroup) and plain:
            self._pair = cls._free_distance
        elif isinstance(g, TableGroup) and plain:
            self._pair = cls._word_distance
        elif isinstance(g, FreeProductGroup) and plain:
            # the factors whose syllables count 1
            self._coned = frozenset(g.parabolic_slots)
            exact = all(_geodesic_reach(h) for f, h in enumerate(g.factors)
                        if f not in self._coned
                        and isinstance(h, SmallCancellationGroup))
            self._pair = (cls._syllable_distance if exact
                          else cls._searched_distance)
        elif isinstance(g, FreeGroup):
            self._t_words = frozenset(graph.step_words)
            self._t_maxlen = max(map(len, self._t_words), default=0)
            self._pair = (cls._parsed_distance if self._junction_check()
                          else cls._searched_distance)
        elif isinstance(g, SmallCancellationGroup) and plain:
            self._reach = _geodesic_reach(g)
            self._pair = (cls._normal_distance if self._reach
                          else cls._searched_distance)
        else:
            self._pair = cls._searched_distance

    @property
    def absolute(self) -> DistanceOracle:
        """The word metric's oracle: the same group with no parabolic.

        That is this oracle where none is declared (not stored: a reference
        cycle), and otherwise one built on first use and kept.
        """
        return self._word_oracle if self.group.spec.parabolics else self

    @cached_property
    def _word_oracle(self) -> DistanceOracle:
        group = build_group(replace(self.group.spec, parabolics=()))
        return DistanceOracle(RelativeGraph(group, self.graph.vertex_cap))

    def _junction_check(self) -> bool:
        """True when every cancelling junction of alphabet words shortcuts.

        If for all s, t in the symmetrized alphabet whose concatenation
        cancels, s·t is the identity or again an alphabet element, then no
        geodesic spelling can contain a cancelling junction (two steps would
        net at most one), so minimal factorizations are cancellation-free
        and a parse DP over the reduced word is exact.
        """
        words = self._t_words
        for s in words:
            for t in words:
                if s[-1] == -t[0]:
                    st = free_reduce(s + t)
                    if st != () and st not in words:
                        return False
        return True

    def _parse_dp(self, w: Word) -> int:
        big = len(w) + 1
        dist = [0] + [big] * len(w)
        for j in range(1, len(w) + 1):
            lo = max(0, j - self._t_maxlen)
            for i in range(lo, j):
                if dist[i] + 1 < dist[j] and w[i:j] in self._t_words:
                    dist[j] = dist[i] + 1
        return dist[len(w)]

    def distance(self, u: Word, v: Word) -> int:
        if u == v:
            return 0
        return self._pair(self, u, v)

    def within(self, u: Word, v: Word, bound: int) -> bool:
        """Whether d(u, v) ≤ bound; a ball search stops once it can tell."""
        pair = self._pair
        if pair not in (DistanceOracle._searched_distance,
                        DistanceOracle._normal_distance):
            return self.distance(u, v) <= bound
        d = pair(self, u, v, bound)
        return d is not None and d <= bound

    def _free_distance(self, u: Word, v: Word) -> int:
        # the common prefix of reduced words is what cancels in u⁻¹v
        k = 0
        for a, b in zip(u, v):
            if a != b:
                break
            k += 1
        return len(u) + len(v) - 2 * k

    def _word_distance(self, u: Word, v: Word) -> int:
        return len(self.group.multiply(self.group.inverse(u), v))

    def _normal_distance(self, u: Word, v: Word,
                         bound: int | None = None) -> int | None:
        """|nf(u⁻¹v)| up to L_max, else the ball search."""
        d = len(self.group.reduce(invert_free(u) + v))
        if d <= self._reach:
            return d
        return self._searched_distance(u, v, bound)

    def _syllable_distance(self, u: Word, v: Word) -> int:
        return self.group.syllable_distance(u, v, self._coned)

    def spelling(self, x: Word) -> Spelling | None:
        """x's parts where the normal form spells geodesics, else None."""
        pair = self._pair
        if pair is DistanceOracle._free_distance:
            return Spelling(x, x, range(len(x) + 1), 0)
        if pair is DistanceOracle._syllable_distance:
            parts = self.group.syllables(x)
            heads = [f for f, _ in parts]
            coned = self._coned
            opened = max((k for k, f in enumerate(heads, 1) if f not in coned),
                         default=0)
            cuts = list(accumulate((len(s) for _, s in parts), initial=0))
            return Spelling(parts, heads, cuts, opened)
        return None

    def _parsed_distance(self, u: Word, v: Word) -> int:
        """Parse DP on u⁻¹v, memoized."""
        w = self.group.multiply(self.group.inverse(u), v)
        d = self._memo.get(w)
        if d is None:
            d = self._memo[w] = self._parse_dp(w)
        return d

    def _searched_distance(self, u: Word, v: Word,
                           bound: int | None = None) -> int | None:
        """Ball search on u⁻¹v, memoized with its inverse; None when a
        search bounded by `bound` proves d(u, v) > bound."""
        w = self.group.multiply(self.group.inverse(u), v)
        hit = self._memo.get(w)
        if hit is not None:
            return hit
        d = self._ball_search(w, bound)
        if d is not None:
            self._memo[w] = d
            self._memo[self.group.inverse(w)] = d
        return d

    def _ball_search(self, w: Word, bound: int | None = None,
                     max_radius: int = 64) -> int | None:
        """|w| by a lookup in the ball around e, or a search from w to it.

        The ball is the fixed side of a bidirectional search: it grows by
        one sphere when its outer sphere is no larger than the frontier from
        w, and otherwise the search from w expands.  A meet found either
        way bounds |w|; once the best one is at most the two radii summed,
        every shorter path would have met too, so it is exact.  For the
        same reason, once the radii sum to `bound` with no meet at or below
        it, |w| > bound and the search returns None.
        """
        graph = self.graph
        ball = self._ball
        hit = ball.entries.get(w)
        if hit is not None:
            return hit
        steps = graph.step_words
        seen = {w: 0}
        frontier = [w]
        k = 0
        best: int | None = None
        while best is None or best > k + ball.radius:
            if bound is not None and k + ball.radius >= bound:
                return None
            sphere = ball.sphere(ball.radius)
            if not frontier and not sphere:
                raise ResourceLimitError(
                    f"no path within {ball.radius}+{k} steps")
            if k + ball.radius >= max_radius:
                raise ResourceLimitError(f"distance search exceeded {max_radius}")
            if not frontier or 0 < len(sphere) <= len(frontier):
                ball = self._ball = graph.grow_ball(ball, ball.radius + 1)
                for y in ball.sphere(ball.radius):
                    d = seen.get(y)
                    if d is not None and (best is None or ball.radius + d < best):
                        best = ball.radius + d
            else:
                k += 1
                nxt = []
                for x in frontier:
                    for step in steps:
                        y = self.group.multiply(x, step)
                        if y not in seen:
                            seen[y] = k
                            nxt.append(y)
                            d = ball.entries.get(y)
                            if d is not None and (best is None or k + d < best):
                                best = k + d
                frontier = nxt
            if len(seen) + len(ball.entries) > graph.vertex_cap:
                raise ResourceLimitError("distance search exceeds vertex cap")
        return best


def spelled_split(su: Spelling, sv: Spelling) -> tuple[int, bool] | None:
    """Where the spelled geodesic from u to v turns, or None where the
    normal form spells none.

    With P the longest common prefix of parts, c parts long, the geodesic
    is the prefixes of u back to P, then the longer prefixes of v.  It
    passes through P unless u and v both go on past P in one factor: that
    junction is one coned edge.  The answer is (c, whether it passes
    through P).  It is spelled unless a part past P lies in a factor that
    is not coned.
    """
    c = 0
    for x, y in zip(su.parts, sv.parts):
        if x != y:
            break
        c += 1
    if su.opened > c or sv.opened > c:
        return None
    hu, hv = su.heads, sv.heads
    return c, not (c < len(hu) and c < len(hv) and hu[c] == hv[c])


def spelled_geodesic(oracle: DistanceOracle, u: Word,
                     v: Word) -> tuple[list[Word], Iterable[Word]] | None:
    """The step elements and vertices of the one geodesic from u to v, where
    the oracle's normal form spells it; else None.

    On a plain free group the steps are the letters of the reduced word
    u⁻¹v.  On a plain free product, when every syllable of u⁻¹v lies in a
    factor the oracle cones (a parabolic one; the word metric's oracle
    cones none), each syllable is one edge and syllable boundaries are cut
    points, so the steps are the syllables.  The vertices are prefixes of
    u and v (`spelled_split`), yielded lazily, so a cut DAG forms only
    those it keeps.
    """
    su, sv = oracle.spelling(u), oracle.spelling(v)
    split = None if su is None else spelled_split(su, sv)
    if split is None:
        return None
    c, through = split
    cu, cv = su.cuts, sv.cuts
    vertices = chain((u[:k] for k in reversed(cu[c + 1:])),
                     (u[:cu[c]],) if through else (),
                     (v[:k] for k in cv[c + 1:]))
    if oracle._pair is DistanceOracle._free_distance:
        steps = [(-a,) for a in reversed(u[c:])] + [(b,) for b in v[c:]]
    else:
        g = oracle.group
        steps = [g.lift(f, x)
                 for f, x in g.syllables(g.multiply(g.inverse(u), v))]
    return steps, vertices
