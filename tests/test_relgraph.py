"""Adjacency, balls and exact distances."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbundles.groups import (
    SpecError,
    build_group,
    invert_free,
    load_spec,
    shortlex_key,
    spec_from_dict,
)
from relbundles.relgraph import (
    DistanceOracle,
    RelativeGraph,
    ResourceLimitError,
)
from referees import is_identity

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cyclic_table(n: int, gen: str) -> dict:
    return {
        "size": n,
        "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": {gen: 1},
    }


F2 = build_group(spec_from_dict({"family": "free", "generators": ["a", "b"]}))
F2X = build_group(spec_from_dict({
    "family": "free", "generators": ["a", "b"],
    "redundant_generators": ["a b"],
}))
Z3Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _cyclic_table(3, "a")},
                {"family": "finite-table", "table": _cyclic_table(2, "b")}],
    "parabolics": [0, 1],
}))
ZxZ2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "free", "generators": ["a"]},
                {"family": "finite-table", "table": _cyclic_table(2, "b")}],
    "parabolics": [0],
}))
GENUS2_SPEC = {
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b a' b' c d c' d'"],
}
GENUS2 = build_group(spec_from_dict(GENUS2_SPEC))
# one relator of odd length has no half swaps, so its oracle searches a ball
ODD_SPEC = {
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b c d a' b' c' d' a"],
}
ODD = build_group(spec_from_dict(ODD_SPEC))
# two relators of different lengths, pieces of one letter
TWO_RELATOR = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d", "f", "g", "h", "i", "j", "k"],
    "relators": ["a b a' b' c d c' d'", "f g h i j k f' g' h' i' j' k'"],
}))
# Z * Z3 with the Z3 slot parabolic: the non-parabolic factor is free
ZxZ3 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "free", "generators": ["a"]},
                {"family": "finite-table", "table": _cyclic_table(3, "b")}],
    "parabolics": [1],
}))

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")

GR_F2 = RelativeGraph(F2)
GR_F2X = RelativeGraph(F2X)
GR_Z3Z2 = RelativeGraph(Z3Z2)
GR_GENUS2 = RelativeGraph(GENUS2)
GR_ODD = RelativeGraph(ODD)
GR_ZxZ3 = RelativeGraph(ZxZ3)

OR_F2 = DistanceOracle(GR_F2)
OR_F2X = DistanceOracle(GR_F2X)
OR_Z3Z2 = DistanceOracle(GR_Z3Z2)
OR_GENUS2 = DistanceOracle(GR_GENUS2)
OR_ODD = DistanceOracle(GR_ODD)
OR_ZxZ3 = DistanceOracle(GR_ZxZ3)

GRAPHS = [GR_F2, GR_F2X, GR_Z3Z2, GR_GENUS2]
# each graph, then the graph of its word metric where that is another one
BOTH_METRICS = GRAPHS + [OR_Z3Z2.absolute.graph]


def words_of(group, max_len=5):
    n = len(group.gen_names)
    letters = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(
        lambda ls: group.reduce(ls))


# ---------------------------------------------------------------------------
# adjacency pins

def test_free_group_neighbor_order():
    got = [(GR_F2.format_symbol(s), w) for s, w in GR_F2.neighbors(())]
    assert got == [("a", (1,)), ("a'", (-1,)), ("b", (2,)), ("b'", (-2,))]


def test_free_product_neighbor_edges():
    """One edge per neighbor: the b symbol carries both signs plus the
    parabolic label."""
    got = [(s, w, GR_Z3Z2.format_symbol(s)) for s, w in GR_Z3Z2.neighbors(())]
    assert got == [
        (0, (1,), "a|H0:a"),
        (1, (-1,), "a'|H0:a'"),
        (2, (2,), "b|b'|H1:b"),
    ]


def test_alphabet_matches_identity_neighbors():
    for graph in BOTH_METRICS:
        assert graph.neighbors(()) == list(enumerate(graph.step_words))


def test_absolute_alphabet_is_a_relative_prefix():
    """A symbol names the same element in both metrics."""
    for graph in GRAPHS:
        absolute = DistanceOracle(graph).absolute.graph.step_words
        assert graph.step_words[:len(absolute)] == absolute


def test_adjoined_generator_alphabet():
    graph = OR_F2X.absolute.graph
    words = graph.step_words
    assert (1, 2) in words and (-2, -1) in words
    assert len(words) == 6
    assert graph.format_symbol(words.index((1, 2))) == "ab"
    assert graph.format_symbol(words.index((-2, -1))) == "ab'"


def _label_rank(graph, name):
    """Label order: the generators of X as declared, + before −, then the
    parabolic labels by slot and shortlex element."""
    if name.startswith("H"):
        slot, h = name[1:].split(":")
        return (1, int(slot), shortlex_key(graph.group.parse(h)))
    x = list(graph.group.gen_names)
    x += ["".join(t.split()) for t in graph.spec.redundant_generators]
    return (0, [n + s for n in x for s in ("", "'")].index(name))


def test_alphabet_in_label_order():
    """Each symbol lists its labels in label order, and symbols come in
    the order of their least label."""
    for graph in BOTH_METRICS + [GR_ZxZ3, OR_ZxZ3.absolute.graph]:
        ranks = [[_label_rank(graph, n) for n in names]
                 for _, names in graph.alphabet]
        assert all(r == sorted(r) for r in ranks)
        assert [r[0] for r in ranks] == sorted(r[0] for r in ranks)


def test_absolute_metric_has_no_parabolic_labels():
    def names(graph):
        return [n for _, ns in graph.alphabet for n in ns]
    assert not any(n.startswith("H") for n in names(OR_Z3Z2.absolute.graph))
    assert any(n.startswith("H") for n in names(GR_Z3Z2))


# ---------------------------------------------------------------------------
# balls

def test_free_group_ball_sizes():
    assert len(GR_F2.ball((), 0).entries) == 1
    assert len(GR_F2.ball((), 2).entries) == 17
    assert len(GR_F2.ball((), 3).entries) == 53


def test_ball_frontier_sizes():
    table = GR_F2.ball((), 3)
    assert [len(f) for f in table.frontiers] == [1, 4, 12, 36]


def test_free_product_relative_ball():
    table = GR_Z3Z2.ball((), 1)
    assert sorted(table.entries) == sorted([(), (1,), (-1,), (2,)])


def test_ball_entries_match_sphere():
    table = GR_Z3Z2.ball((), 3)
    for r in range(4):
        for v in table.sphere(r):
            assert table.entries[v] == r


def test_grow_ball_matches_direct():
    small = GR_F2X.ball((), 2)
    grown = GR_F2X.grow_ball(small, 4)
    direct = GR_F2X.ball((), 4)
    assert grown.entries == direct.entries
    assert grown.frontiers == direct.frontiers


def test_ball_vertex_cap():
    tight = RelativeGraph(F2, vertex_cap=10)
    with pytest.raises(ResourceLimitError):
        tight.ball((), 3)


def test_negative_radius_rejected():
    with pytest.raises(SpecError):
        GR_F2.ball((), -1)


# ---------------------------------------------------------------------------
# distances

def test_mixed_word_distance_pin():
    w = Z3Z2.parse("a b a a b")
    assert OR_Z3Z2.distance((), w) == 4
    assert OR_Z3Z2.absolute.distance((), w) == 4


def test_adjoined_generator_distances():
    assert OR_F2X.distance((), F2X.parse("a b")) == 1
    assert OR_F2X.absolute.distance((), F2X.parse("a b a b")) == 2
    assert OR_F2X.distance((), F2X.parse("b a")) == 2


def test_genus2_commutator_distance():
    assert OR_GENUS2.distance((), GENUS2.parse("a b a' b'")) == 4


def test_distance_bfs_max_radius():
    far = F2.parse("a b a b a b")
    with pytest.raises(ResourceLimitError):
        GR_F2.distance_bfs((), far, max_radius=2)


@pytest.mark.parametrize("text", ["a b a' b'", "a b c d a", "a c' b d' a d c"])
def test_ball_search_max_radius(text):
    """The search from w stops at the first radius sum that certifies |w|.

    Fresh oracles grow the ball and the search from w in step, so the meet
    comes when the search expands at an even |w| and when the ball grows
    at an odd one; max_radius = |w| fails if either meet is missed.
    """
    w = GENUS2.parse(text)
    d = GR_GENUS2.distance_bfs((), w)
    assert DistanceOracle(GR_GENUS2)._ball_search(w, max_radius=d) == d
    with pytest.raises(ResourceLimitError):
        DistanceOracle(GR_GENUS2)._ball_search(w, max_radius=d - 1)


class TestOracleAgainstSearch:
    """The closed-form oracle must agree with plain bidirectional BFS."""

    @PROPERTY_SETTINGS
    @given(u=words_of(F2), v=words_of(F2))
    def test_free(self, u, v):
        assert OR_F2.distance(u, v) == GR_F2.distance_bfs(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(F2X, 4), v=words_of(F2X, 4))
    def test_free_adjoined(self, u, v):
        for oracle in (OR_F2X, OR_F2X.absolute):
            assert oracle.distance(u, v) == oracle.graph.distance_bfs(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(Z3Z2), v=words_of(Z3Z2))
    def test_free_product(self, u, v):
        for oracle in (OR_Z3Z2, OR_Z3Z2.absolute):
            assert oracle.distance(u, v) == oracle.graph.distance_bfs(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(ZxZ3, 6), v=words_of(ZxZ3, 6))
    def test_free_product_with_free_factor(self, u, v):
        for oracle in (OR_ZxZ3, OR_ZxZ3.absolute):
            assert oracle.distance(u, v) == oracle.graph.distance_bfs(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(GENUS2, 4), v=words_of(GENUS2, 4))
    def test_small_cancellation(self, u, v):
        for oracle in (OR_GENUS2, OR_GENUS2.absolute):
            assert oracle.distance(u, v) == oracle.graph.distance_bfs(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(ODD, 4), v=words_of(ODD, 4))
    def test_ball_search(self, u, v):
        # OR_ODD keeps its ball across examples, so this also checks
        # that answers do not depend on the order of the queries
        assert OR_ODD.distance(u, v) == GR_ODD.distance_bfs(u, v)


NORMAL_FORM_ORACLES = {"genus2": OR_GENUS2,
                       "two-relator": DistanceOracle(RelativeGraph(TWO_RELATOR))}


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_ORACLES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_normal_form_distance_matches_search(name, data):
    """d(u, v) = |nf(u⁻¹v)| and within(u, v, b) agree with plain BFS.  v
    is u times up to 7 cyclic letters of a relator, so that u⁻¹v often
    holds half or more of one."""
    oracle = NORMAL_FORM_ORACLES[name]
    group = oracle.group
    assert oracle._pair.__name__ == "_normal_distance"
    u = data.draw(words_of(group, 3))
    r = data.draw(st.sampled_from(group.relators))
    r = data.draw(st.sampled_from([r, invert_free(r)]))
    i = data.draw(st.integers(0, len(r) - 1))
    x = (r + r)[i:i + data.draw(st.integers(0, 7))]
    v = group.reduce(u + x)
    d = oracle.graph.distance_bfs(u, v)
    assert oracle.distance(u, v) == d
    for bound in (d - 1, d):
        assert oracle.within(u, v, bound) == (d <= bound)


def test_genus2_normal_forms_are_geodesics():
    """Every normal form in the radius-5 ball is as long as its BFS
    distance from e, so the oracle reads that distance off it."""
    ball = GR_GENUS2.ball((), 5)
    assert len(ball.entries) == 22289
    oracle = DistanceOracle(GR_GENUS2)
    for w, d in ball.entries.items():
        assert len(w) == d
        assert oracle.distance((), w) == d


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_ORACLES))
def test_normal_form_shortens_a_dehn_reduced_word(name):
    """u⁻¹v Dehn-reduces to b a b' a' c' b a b', two half relators whose
    cells share one edge, a ladder of two cells: the normal-form search
    swaps both halves and finds the geodesic of 6 letters."""
    oracle = NORMAL_FORM_ORACLES[name]
    group = oracle.group
    u, v = group.parse("a b a' b'"), group.parse("c' b a b'")
    assert len(group.dehn_reduce(invert_free(u) + v)) == 8
    assert oracle.distance(u, v) == oracle.graph.distance_bfs(u, v) == 6


def test_normal_form_falls_back_past_its_reach(monkeypatch):
    """On genus 2, L_max = search_depth·(m−1) + 2 = 16·3 + 2 = 50: a
    normal form of 50 letters gives the distance, one of 52 goes to the
    ball search, bounded in `within`."""
    searched = []

    def search(oracle, w, bound=None):
        searched.append((len(w), bound))
        return len(w)
    monkeypatch.setattr(DistanceOracle, "_ball_search", search)
    oracle = DistanceOracle(GR_GENUS2)
    assert oracle._reach == 50
    at, past = (GENUS2.parse(" ".join(["a c"] * n)) for n in (25, 26))
    assert len(at) == 50 and len(past) == 52
    assert oracle.distance((), at) == 50
    assert oracle.within((), at, 49) is False
    assert searched == []
    assert oracle.distance((), past) == 52
    assert DistanceOracle(GR_GENUS2).within((), past, 51) is False
    assert searched == [(52, None), (52, 51)]


@pytest.mark.parametrize("relators", [
    ["a b c d f g h"],  # odd length: no half swaps
    ["a b c d a b f g h i j k l m"],  # C'(1/6) with the piece a b
], ids=["odd-relator", "two-letter-piece"])
def test_normal_form_needs_its_hypotheses(relators):
    """Outside the hypotheses of `_geodesic_reach` the oracle searches."""
    group = build_group(spec_from_dict({
        "family": "small-cancellation",
        "generators": sorted({x for r in relators for x in r.split()}),
        "relators": relators,
    }))
    assert group.pieces.passed
    oracle = DistanceOracle(RelativeGraph(group))
    assert oracle._reach == 0
    assert oracle._pair.__name__ == "_searched_distance"


# ---------------------------------------------------------------------------
# the bounded predicate d(u, v) <= bound

Z6 = build_group(spec_from_dict({"family": "finite-table",
                                 "table": _cyclic_table(6, "a")}))
# one group per oracle mode, with the d(u, v) the mode dispatches to
ORACLE_MODES = {
    "free": (F2, "_free_distance"),
    "parse": (F2X, "_parsed_distance"),
    "table": (Z6, "_word_distance"),
    "syllable": (Z3Z2, "_syllable_distance"),
    "normal": (GENUS2, "_normal_distance"),
    "ball": (ODD, "_searched_distance"),
}


def _seeded_pairs(group, seed, count=6, max_len=4):
    rng = random.Random(seed)
    n = len(group.gen_names)
    letters = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]

    def word():
        return group.reduce([rng.choice(letters)
                             for _ in range(rng.randint(0, max_len))])

    return [(word(), word()) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", sorted(ORACLE_MODES))
def test_within_matches_search(mode, seed):
    """within(u, v, b) is d(u, v) <= b for b around the true distance, on
    every oracle mode and both metrics."""
    group, pair = ORACLE_MODES[mode]
    graph = RelativeGraph(group)
    graphs = [graph, DistanceOracle(graph).absolute.graph]
    for graph in graphs:
        assert DistanceOracle(graph)._pair.__name__ == pair
    for u, v in _seeded_pairs(group, seed):
        for graph in graphs:
            d = graph.distance_bfs(u, v)
            # fresh, so that each no comes from a search and not the memo
            oracle = DistanceOracle(graph)
            for bound in sorted({0, d - 1, d, d + 1}):
                assert oracle.within(u, v, bound) == (d <= bound)


def test_parse_memo_stores_each_word_once():
    """A free group has no parabolic moves, so the word metric is the
    oracle itself and shares its parse DP: d(u, v) asked in each leaves
    one memo entry, for u⁻¹v alone."""
    u, v = F2X.parse("a"), F2X.parse("b a b a")
    d = GR_F2X.distance_bfs(u, v)
    oracle = DistanceOracle(GR_F2X)
    for measure in (oracle, oracle.absolute):
        assert measure.distance(u, v) == d
    assert oracle._memo == {F2X.multiply(F2X.inverse(u), v): d}


@pytest.mark.parametrize("forward_first", [True, False])
@pytest.mark.parametrize("seed", [2, 3])
def test_bounded_no_leaves_no_memo(seed, forward_first):
    """A bounded search that answers no memoizes nothing, so the exact
    distances asked afterwards, in either order, are still right."""
    for u, v in _seeded_pairs(ODD, seed):
        d = GR_ODD.distance_bfs(u, v)
        if d < 2:
            continue
        oracle = DistanceOracle(GR_ODD)
        assert not oracle.within(u, v, d - 1)
        assert not oracle._memo
        pairs = [(u, v), (v, u)] if forward_first else [(v, u), (u, v)]
        for a, b in pairs:
            assert oracle.distance(a, b) == d


# genus-2 surface group * Z2, the Z2 slot parabolic: a non-parabolic
# small-cancellation factor
GENUS2_Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [GENUS2_SPEC,
                {"family": "finite-table", "table": _cyclic_table(2, "t")}],
    "parabolics": [1],
}))
SYLLABLE_ORACLES = {
    name: DistanceOracle(RelativeGraph(group)) for name, group in [
        ("z3z2_rel_factors",
         build_group(load_spec(os.path.join(SPECS, "z3z2_rel_factors.json")))),
        ("f2_z_parabolic",
         build_group(load_spec(os.path.join(SPECS, "f2_z_parabolic.json")))),
        ("genus2_z2", GENUS2_Z2),
    ]}


@pytest.mark.parametrize("name", sorted(SYLLABLE_ORACLES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_syllable_distance_matches_difference_word(name, data):
    """The closed form counts the syllables of the canonical word u⁻¹v:
    in the relative metric 1 for each parabolic one and its letters for
    any other, in the absolute metric the letters of u⁻¹v."""
    oracle = SYLLABLE_ORACLES[name]
    group = oracle.group
    u = data.draw(words_of(group, 8))
    v = data.draw(words_of(group, 8))
    w = group.multiply(group.inverse(u), v)
    parabolic = set(group.parabolic_slots)
    want = sum(1 if f in parabolic else len(local)
               for f, local in group.syllables(w))
    assert oracle.distance(u, v) == want
    assert oracle.absolute.distance(u, v) == len(w)
    if name == "genus2_z2":
        # a genus-2 syllable counts its normal-form length, which the
        # ladder lemma makes its word length; b is a times a relator stretch
        r = group.lift(0, group.factors[0].relators[0])
        i = data.draw(st.integers(0, len(r) - 1))
        a = data.draw(words_of(group, 3))
        b = group.reduce(a + (r + r)[i:i + data.draw(st.integers(0, 7))])
        for measure in (oracle, oracle.absolute):
            assert measure.distance(a, b) == measure.graph.distance_bfs(a, b)


# the odd-relator group * Z2, the Z2 slot parabolic: a non-parabolic
# small-cancellation factor outside the hypotheses of `_geodesic_reach`
ODD_Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [ODD_SPEC,
                {"family": "finite-table", "table": _cyclic_table(2, "t")}],
    "parabolics": [1],
}))


def test_product_closed_form_needs_its_factors_hypotheses():
    """A product counts a non-parabolic small-cancellation syllable by its
    normal form only where `_geodesic_reach` proves that a geodesic.  In
    the odd-relator factor a ladder of three cells makes a Dehn-reduced
    word of 12 letters equal to one of 11, so ODD * Z2 searches, and its
    distances agree with the BFS on a ball; genus 2 * Z2 keeps the count."""
    assert SYLLABLE_ORACLES["genus2_z2"]._pair.__name__ == "_syllable_distance"
    long = ODD.parse("d' c' b' a' d' c' b' a' d' c' b' a'")
    short = ODD.parse("a' b' c' d' b' c' d' b' c' d' a")
    assert ODD.reduce(long) == long
    assert is_identity(ODD, long + invert_free(short))
    word = ODD_Z2.lift(0, long)
    assert ODD_Z2.syllable_distance((), word, frozenset({1})) == 12
    graph = RelativeGraph(ODD_Z2)
    oracle = DistanceOracle(graph)
    measures = (oracle, oracle.absolute)
    for measure in measures:
        assert measure._pair.__name__ == "_searched_distance"
    ball = sorted(graph.ball((), 2).entries, key=shortlex_key)
    inner = [w for w in ball if len(w) <= 1]
    for u in inner:
        for v in ball:
            for measure in measures:
                assert measure.distance(u, v) == \
                    measure.graph.distance_bfs(u, v)


class TestMetricProperties:
    @PROPERTY_SETTINGS
    @given(u=words_of(Z3Z2), v=words_of(Z3Z2))
    def test_relative_never_exceeds_absolute(self, u, v):
        assert OR_Z3Z2.distance(u, v) <= OR_Z3Z2.absolute.distance(u, v)

    @PROPERTY_SETTINGS
    @given(g=words_of(Z3Z2), u=words_of(Z3Z2), v=words_of(Z3Z2))
    def test_left_invariance(self, g, u, v):
        gu, gv = Z3Z2.multiply(g, u), Z3Z2.multiply(g, v)
        for oracle in (OR_Z3Z2, OR_Z3Z2.absolute):
            assert oracle.distance(gu, gv) == oracle.distance(u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(F2X, 4), v=words_of(F2X, 4), w=words_of(F2X, 4))
    def test_triangle_inequality(self, u, v, w):
        d = OR_F2X.distance
        assert d(u, w) <= d(u, v) + d(v, w)

    @PROPERTY_SETTINGS
    @given(u=words_of(F2), v=words_of(F2))
    def test_symmetry(self, u, v):
        assert OR_F2.distance(u, v) == OR_F2.distance(v, u)


# ---------------------------------------------------------------------------
# infinite parabolics

def test_infinite_parabolic_needs_truncation():
    """An infinite parabolic is rejected when the relative alphabet is
    first built, and again on every use; the word metric's alphabet does
    not cone it off and still builds."""
    graph = RelativeGraph(ZxZ2)
    with pytest.raises(SpecError, match=r"parabolic factor 0 \(a\) is infinite"):
        graph.alphabet
    with pytest.raises(SpecError, match="infinite parabolic"):
        graph.step_words  # nothing half-built was kept
    assert DistanceOracle(graph).absolute.graph.alphabet == (
        ((1,), ("a",)), ((-1,), ("a'",)), ((2,), ("b", "b'")))
