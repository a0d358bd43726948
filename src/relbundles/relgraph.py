"""Lazy adjacency, BFS balls and exact distances for relative Cayley graphs.

The graph is never materialized globally: vertices are canonical words and
adjacency comes from a fixed move alphabet.  The relative metric travels
over absolute generator edges plus one edge per non-identity parabolic
element; the absolute metric uses generator edges only.  Cone points are
implicit — the two half-edges through a coset's cone vertex collapse to a
single parabolic edge between group elements, keeping distances integral.

Distance queries dispatch to closed forms where the family admits one and
fall back to bidirectional BFS with a meet certificate otherwise; every
fast path is cross-checked against plain BFS balls in the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

from .groups import (
    FreeGroup,
    FreeProductGroup,
    Group,
    SpecError,
    TableGroup,
    Word,
    free_reduce,
    shortlex_key,
    spec_hash,
)

RELATIVE = "relative"
ABSOLUTE = "absolute"
METRICS = (RELATIVE, ABSOLUTE)

DEFAULT_VERTEX_CAP = 5_000_000
CACHE_FORMAT_VERSION = 1


class ResourceLimitError(RuntimeError):
    """A search would materialize more vertices than the configured cap."""


class ChecksumError(RuntimeError):
    pass


@dataclass(frozen=True)
class EdgeLabel:
    """One symbol of the symmetrized alphabet.

    Absolute labels name a position in X (primitive generators first, then
    adjoined ones) plus a sign.  Parabolic labels name the factor slot and
    the non-identity subgroup element being applied; `sign` stays 0.
    """

    kind: str  # "abs" | "par"
    index: int
    sign: int = 0
    element: Word = ()


def label_key(label: EdgeLabel) -> tuple:
    """Canonical total order: absolute labels first, in declaration order
    with + before −, then parabolic labels by (slot, factor normal form)."""
    if label.kind == "abs":
        return (0, label.index, 0 if label.sign > 0 else 1)
    return (1, label.index, shortlex_key(label.element))


@dataclass
class BallTable:
    """Exact BFS distances from `center` out to `radius`.

    `frontiers[r]` lists the vertices at distance exactly r (shortlex
    sorted), so a ball can be resumed and grown without recomputation.
    """

    center: Word
    radius: int
    metric: str
    entries: dict[Word, int]
    frontiers: tuple[tuple[Word, ...], ...]
    approximate: bool
    spec_digest: str

    def __contains__(self, v: Word) -> bool:
        return v in self.entries

    def sphere(self, r: int) -> tuple[Word, ...]:
        return self.frontiers[r] if r < len(self.frontiers) else ()


class RelativeGraph:
    """Adjacency and BFS searches over X ∪ (parabolic elements)."""

    def __init__(self, group: Group, truncation_radius: int | None = None,
                 vertex_cap: int = DEFAULT_VERTEX_CAP):
        self.group = group
        self.spec = group.spec
        self.spec_digest = spec_hash(group.spec)
        self.truncation_radius = truncation_radius
        self.vertex_cap = vertex_cap

        prim = group.gen_names
        self._x_names = list(prim)
        self._abs_moves: list[tuple[EdgeLabel, Word]] = []
        for i in range(len(prim)):
            for sign in (1, -1):
                self._abs_moves.append(
                    (EdgeLabel("abs", i, sign), group.reduce((sign * (i + 1),))))
        for j, text in enumerate(self.spec.redundant_generators):
            w = group.parse(text)
            if w == ():
                raise SpecError(f"adjoined generator {text!r} is the identity")
            self._x_names.append("".join(text.split()))
            k = len(prim) + j
            self._abs_moves.append((EdgeLabel("abs", k, 1), w))
            self._abs_moves.append((EdgeLabel("abs", k, -1), group.inverse(w)))

        self._par_moves: list[tuple[EdgeLabel, Word]] | None = None
        self.approximate = False
        self._alphabets: dict[str, list[tuple[Word, tuple[EdgeLabel, ...]]]] = {}
        self._moves: dict[str, tuple[tuple[EdgeLabel, Word], ...]] = {}
        self._label_words: dict[EdgeLabel, Word] = dict(
            (label, w) for label, w in self._abs_moves)

    # -- move alphabet -----------------------------------------------------

    def _parabolic_moves(self) -> list[tuple[EdgeLabel, Word]]:
        if self._par_moves is not None:
            return self._par_moves
        moves: list[tuple[EdgeLabel, Word]] = []
        g = self.group
        if isinstance(g, FreeProductGroup):
            for slot in g.parabolic_slots:
                if g.parabolic_is_finite(slot):
                    elements = g.parabolic_elements(slot)
                else:
                    if self.truncation_radius is None:
                        raise SpecError(
                            "infinite parabolic subgroup: construct the graph "
                            "with a truncation_radius to enable truncated mode")
                    elements = g.parabolic_elements(slot, self.truncation_radius)
                    self.approximate = True
                for h in elements:
                    moves.append((EdgeLabel("par", slot, 0, h), h))
        self._par_moves = moves
        return moves

    def moves(self, metric: str = RELATIVE) -> tuple[tuple[EdgeLabel, Word], ...]:
        """Every (label, element) move, sorted by label once per metric."""
        cached = self._moves.get(metric)
        if cached is not None:
            return cached
        if metric not in METRICS:
            raise SpecError(f"unknown metric {metric!r}")
        out = list(self._abs_moves)
        if metric == RELATIVE:
            out.extend(self._parabolic_moves())
        out.sort(key=lambda mv: label_key(mv[0]))
        self._moves[metric] = tuple(out)
        return self._moves[metric]

    def alphabet(self, metric: str = RELATIVE) -> list[tuple[Word, tuple[EdgeLabel, ...]]]:
        """Distinct move elements with all their labels.

        The order — by least label — is the canonical enumeration of the
        symmetrized alphabet used for binary coding, and the elements are
        exactly the neighbors of the identity vertex.
        """
        cached = self._alphabets.get(metric)
        if cached is not None:
            return cached
        by_word: dict[Word, list[EdgeLabel]] = {}
        for label, w in self.moves(metric):
            by_word.setdefault(w, []).append(label)
        out = [(w, tuple(labels)) for w, labels in by_word.items()]
        out.sort(key=lambda item: label_key(item[1][0]))
        self._alphabets[metric] = out
        return out

    def step_words(self, metric: str = RELATIVE) -> list[Word]:
        return [w for w, _ in self.alphabet(metric)]

    # -- adjacency -----------------------------------------------------------

    def neighbors(self, v: Word, metric: str = RELATIVE) -> list[tuple[EdgeLabel, Word]]:
        """All (label, neighbor) pairs in canonical label order.

        A vertex reachable by several symbols appears once per label; use
        `neighbor_edges` for the collapsed per-vertex view.
        """
        out = []
        for label, w in self.moves(metric):
            u = self.group.multiply(v, w)
            if u != v:
                out.append((label, u))
        return out

    def neighbor_edges(self, v: Word, metric: str = RELATIVE) -> list[tuple[Word, tuple[EdgeLabel, ...]]]:
        """Distinct neighbor vertices, each with its full ordered label set."""
        by_vertex: dict[Word, list[EdgeLabel]] = {}
        for label, u in self.neighbors(v, metric):
            by_vertex.setdefault(u, []).append(label)
        out = [(u, tuple(labels)) for u, labels in by_vertex.items()]
        out.sort(key=lambda item: label_key(item[1][0]))
        return out

    def degree(self, v: Word, metric: str = RELATIVE) -> int:
        return len(self.neighbor_edges(v, metric))

    def format_label(self, label: EdgeLabel) -> str:
        if label.kind == "abs":
            return self._x_names[label.index] + ("" if label.sign > 0 else "'")
        return f"H{label.index}:{self.group.format(label.element)}"

    def label_word(self, label: EdgeLabel) -> Word:
        """The group element a label moves by."""
        if label.kind == "par":
            return label.element
        return self._label_words[label]

    # -- searches ------------------------------------------------------------

    def ball(self, center: Word, radius: int, metric: str = RELATIVE) -> BallTable:
        """Exact BFS ball; raises ResourceLimitError past the vertex cap."""
        if radius < 0:
            raise SpecError("radius must be nonnegative")
        start = BallTable(center, 0, metric, {center: 0}, ((center,),),
                          approximate=self._metric_approximate(metric),
                          spec_digest=self.spec_digest)
        return self.grow_ball(start, radius)

    def grow_ball(self, table: BallTable, radius: int) -> BallTable:
        """Extend a ball outward, reusing everything already computed."""
        if radius <= table.radius:
            return table
        steps = self.step_words(table.metric)
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
        return BallTable(table.center, radius, table.metric, entries,
                         tuple(frontiers), table.approximate, table.spec_digest)

    def _metric_approximate(self, metric: str) -> bool:
        if metric == ABSOLUTE:
            return False
        self._parabolic_moves()
        return self.approximate

    def distance_bfs(self, u: Word, v: Word, metric: str = RELATIVE,
                     max_radius: int = 64) -> int:
        """Bidirectional BFS; exact once frontier radii certify the meet."""
        if u == v:
            return 0
        steps = self.step_words(metric)
        du, dv = {u: 0}, {v: 0}
        fu, fv = [u], [v]
        ru = rv = 0
        best: int | None = None
        while True:
            if best is not None and best <= ru + rv:
                return best
            if not fu and not fv:
                raise ResourceLimitError(
                    f"no path within {ru}+{rv} steps; graph may be truncated")
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


class DistanceOracle:
    """Exact distance queries, specialized per group family.

    Free groups over their primitive generators use reduced length; finite
    tables use canonical-word length; free products charge 1 per parabolic
    syllable and the factor length otherwise.  A free group with adjoined
    generators uses a parse DP, valid because the alphabet passes the
    junction check below; anything else falls back to bidirectional BFS.
    On graphs with truncated parabolics the oracle reports the true metric,
    which can undercut truncated-BFS values — such runs are flagged
    approximate throughout.
    """

    def __init__(self, graph: RelativeGraph):
        self.graph = graph
        self.group = graph.group
        self._memo: dict[tuple[str, Word], int] = {}
        g = self.group
        plain = not g.spec.redundant_generators
        if isinstance(g, FreeGroup) and plain:
            self._mode = {RELATIVE: "freelen", ABSOLUTE: "freelen"}
        elif isinstance(g, TableGroup) and plain:
            self._mode = {RELATIVE: "wordlen", ABSOLUTE: "wordlen"}
        elif isinstance(g, FreeProductGroup) and plain:
            self._mode = {RELATIVE: "syllable", ABSOLUTE: "wordlen"}
        elif isinstance(g, FreeGroup) and self._junction_check():
            self._mode = {RELATIVE: "parse", ABSOLUTE: "parse"}
        else:
            self._mode = {RELATIVE: "bfs", ABSOLUTE: "bfs"}
        if isinstance(g, FreeProductGroup):
            self._parabolic = set(g.parabolic_slots)
        words = [w for w, _ in self.graph.alphabet(ABSOLUTE)]
        self._t_words = set(words)
        self._t_maxlen = max((len(w) for w in words), default=0)

    def _junction_check(self) -> bool:
        """True when every cancelling junction of alphabet words shortcuts.

        If for all s, t in the symmetrized alphabet whose concatenation
        cancels, s·t is the identity or again an alphabet element, then no
        geodesic spelling can contain a cancelling junction (two steps would
        net at most one), so minimal factorizations are cancellation-free
        and a parse DP over the reduced word is exact.
        """
        words = [w for w, _ in self.graph.alphabet(ABSOLUTE)]
        wordset = set(words)
        for s in words:
            for t in words:
                if s[-1] == -t[0]:
                    st = free_reduce(s + t)
                    if st != () and st not in wordset:
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

    def distance(self, u: Word, v: Word, metric: str = RELATIVE) -> int:
        if u == v:
            return 0
        w = self.group.multiply(self.group.inverse(u), v)
        return self.distance_from_origin(w, metric)

    def distance_from_origin(self, w: Word, metric: str = RELATIVE) -> int:
        if w == ():
            return 0
        mode = self._mode[metric]
        if mode == "freelen" or mode == "wordlen":
            return len(w)
        if mode == "syllable":
            total = 0
            g = self.group
            for slot, local in g.syllables(w):
                total += 1 if slot in self._parabolic else len(local)
            return total
        key = (metric, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if mode == "parse":
            d = self._parse_dp(w)
        else:
            d = self.graph.distance_bfs((), w, metric)
        self._memo[key] = d
        self._memo[(metric, self.group.inverse(w))] = d
        return d


# ---------------------------------------------------------------------------
# on-disk ball cache

def _cache_name(spec_digest: str, center: Word, radius: int, metric: str,
                truncation_radius: int | None) -> str:
    blob = json.dumps(
        [spec_digest, list(center), radius, metric, truncation_radius],
        separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24] + ".json"


def _body_checksum(body: dict) -> str:
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_store(table: BallTable, cache_dir: str,
                truncation_radius: int | None = None) -> str:
    body = {
        "entries": sorted([list(w), d] for w, d in table.entries.items()),
        "frontiers": [[list(w) for w in layer] for layer in table.frontiers],
    }
    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "spec_hash": table.spec_digest,
        "center": list(table.center),
        "radius": table.radius,
        "metric": table.metric,
        "approximate": table.approximate,
        "truncation_radius": truncation_radius,
        "checksum": _body_checksum(body),
        "body": body,
    }
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_name(
        table.spec_digest, table.center, table.radius, table.metric,
        truncation_radius))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic publish for concurrent readers
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_load(cache_dir: str, spec_digest: str, center: Word, radius: int,
               metric: str, truncation_radius: int | None = None) -> BallTable | None:
    path = os.path.join(cache_dir, _cache_name(
        spec_digest, center, radius, metric, truncation_radius))
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CACHE_FORMAT_VERSION:
        return None
    if doc.get("spec_hash") != spec_digest:
        return None
    body = doc.get("body", {})
    if _body_checksum(body) != doc.get("checksum"):
        raise ChecksumError(f"corrupt ball cache file {path}")
    entries = {tuple(w): d for w, d in body["entries"]}
    frontiers = tuple(tuple(tuple(w) for w in layer) for layer in body["frontiers"])
    return BallTable(tuple(doc["center"]), doc["radius"], doc["metric"],
                     entries, frontiers, bool(doc["approximate"]),
                     doc["spec_hash"])


def ball_cached(graph: RelativeGraph, center: Word, radius: int,
                metric: str, cache_dir: str) -> BallTable:
    """Load-or-compute; a corrupt file is recomputed and rewritten."""
    try:
        hit = cache_load(cache_dir, graph.spec_digest, center, radius, metric,
                         graph.truncation_radius)
    except ChecksumError:
        hit = None
    if hit is not None:
        return hit
    table = graph.ball(center, radius, metric)
    cache_store(table, cache_dir, graph.truncation_radius)
    return table


# ---------------------------------------------------------------------------
# DOT export

def export_ball_dot(graph: RelativeGraph, table: BallTable) -> str:
    """Undirected DOT drawing of a ball, vertices labeled by normal form."""
    fmt = graph.group.format
    lines = ["graph ball {", "  node [shape=ellipse];"]
    order = sorted(table.entries, key=shortlex_key)
    ids = {v: i for i, v in enumerate(order)}
    for v in order:
        lines.append(f'  n{ids[v]} [label="{fmt(v)}"];')
    for v in order:
        for u, labels in graph.neighbor_edges(v, table.metric):
            if u in table.entries and shortlex_key(v) < shortlex_key(u):
                text = "|".join(graph.format_label(l) for l in labels)
                lines.append(f'  n{ids[v]} -- n{ids[u]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
