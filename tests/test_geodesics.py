"""Geodesic DAGs, exhaustive path enumeration, directions, and bundles."""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbundles import relgraph
from relbundles.groups import SpecError, build_group, load_spec, spec_from_dict
from relbundles.relgraph import (
    ABSOLUTE,
    RELATIVE,
    DistanceOracle,
    RelativeGraph,
    ResourceLimitError,
    spelled_geodesic,
)
from relbundles.geodesics import (
    _layered_dag,
    DirectionError,
    DirectionSpec,
    GeodesicDAG,
    cgr_bundle_trunc,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
    layer_profile,
    ray_vertex,
)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
PROPERTY_SETTINGS = settings(
    max_examples=60,
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
GENUS2 = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b a' b' c d c' d'"],
}))
# one relator of odd length has no half swaps, so its oracle searches a ball
ODD = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b c d a' b' c' d' a"],
}))

Z6Z2 = build_group(load_spec(str(SPECS / "z6z2_free.json")))
F2Z = build_group(load_spec(str(SPECS / "f2_z_parabolic.json")))
# ℤ₆∗ℤ₂ with only ℤ₂ coned: relative symbols of b meet absolute ones of t
Z6Z2_MIXED = build_group(spec_from_dict(
    json.loads((SPECS / "z6z2_free.json").read_text()) | {"parabolics": [1]}))

GR_F2 = RelativeGraph(F2)
OR_F2 = DistanceOracle(GR_F2)
GR_F2X = RelativeGraph(F2X)
OR_F2X = DistanceOracle(GR_F2X)
GR_Z3Z2 = RelativeGraph(Z3Z2)
OR_Z3Z2 = DistanceOracle(GR_Z3Z2)
GR_GENUS2 = RelativeGraph(GENUS2)
OR_GENUS2 = DistanceOracle(GR_GENUS2)
GR_ODD = RelativeGraph(ODD)
GR_Z6Z2 = RelativeGraph(Z6Z2)
OR_Z6Z2 = DistanceOracle(GR_Z6Z2)
OR_F2Z = DistanceOracle(RelativeGraph(F2Z))
GR_Z6Z2_MIXED = RelativeGraph(Z6Z2_MIXED)
OR_Z6Z2_MIXED = DistanceOracle(GR_Z6Z2_MIXED)


def words_of(group, max_len=4):
    n = len(group.gen_names)
    letters = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(
        lambda ls: group.reduce(ls))


def brute_geodesics(oracle, u, v):
    """Oracle-guided DFS over raw adjacency, independent of the DAG."""
    # exact, not `within`: a referee sharing the DAG's test shares its faults
    total = oracle.distance(u, v)
    out = []

    def walk(w, path):
        if len(path) - 1 == total:
            if w == v:
                out.append(tuple(path))
            return
        remaining = total - (len(path) - 1)
        for _, x in oracle.graph.neighbors(w):
            if oracle.distance(x, v) == remaining - 1:
                path.append(x)
                walk(x, path)
                path.pop()

    walk(u, [u])
    return sorted(set(out))


# ---------------------------------------------------------------------------
# DAG pins

def test_free_chain_dag():
    dag = geodesic_dag(OR_F2, (), F2.parse("a b"))
    assert dag.length == 2
    assert dag.layers == (((),), ((1,),), ((1, 2),))
    paths, truncated = enumerate_geodesics(dag)
    assert len(paths) == 1 and not truncated
    assert [GR_F2.format_symbol(s) for s in paths[0].symbols] == ["a", "b"]


def test_free_product_syllable_chain():
    w = Z3Z2.parse("a b a")
    dag = geodesic_dag(OR_Z3Z2, (), w)
    assert dag.layers == (((),), ((1,),), ((1, 2),), ((1, 2, 1),))
    paths, _ = enumerate_geodesics(dag)
    assert len(paths) == 1
    steps = GR_Z3Z2.step_words
    assert [steps[s] for s in paths[0].symbols] == [(1,), (2,), (1,)]


def test_adjoined_generator_single_step():
    dag = geodesic_dag(OR_F2X, (), F2X.parse("a b"))
    assert dag.length == 1
    (path,), _ = enumerate_geodesics(dag)
    assert [GR_F2X.format_symbol(s) for s in path.symbols] == ["ab"]


def test_adjoined_generator_double_step():
    dag = geodesic_dag(OR_F2X, (), F2X.parse("a b a b"))
    paths, _ = enumerate_geodesics(dag)
    assert len(paths) == 1
    steps = GR_F2X.step_words
    assert [steps[s] for s in paths[0].symbols] == [(1, 2), (1, 2)]


def test_commutator_bigon_enumeration():
    """Both spellings of the genus-2 commutator, in label order."""
    dag = geodesic_dag(OR_GENUS2, (), GENUS2.parse("a b a' b'"))
    assert dag.length == 4
    paths, truncated = enumerate_geodesics(dag)
    assert not truncated
    spelled = [tuple(GR_GENUS2.format_symbol(s) for s in p.symbols) for p in paths]
    assert spelled == [("a", "b", "a'", "b'"), ("d", "c", "d'", "c'")]


def test_enumeration_cap():
    dag = geodesic_dag(OR_GENUS2, (), GENUS2.parse("a b a' b'"))
    paths, truncated = enumerate_geodesics(dag, max_count=1)
    assert truncated and len(paths) == 1


def _recursive_paths(dag: GeodesicDAG, max_count: int):
    """Referee: the depth-first walk as plain recursion."""
    paths = []

    def walk(verts, symbols):
        if len(symbols) == dag.length:
            if len(paths) == max_count:
                return False
            paths.append((tuple(verts), tuple(symbols)))
            return True
        return all(walk(verts + [w], symbols + [s])
                   for s, w in dag.successors[verts[-1]])

    truncated = not walk([dag.source], [])
    return paths, truncated


@pytest.mark.parametrize("max_count", [0, 1, 2, 3, 1000])
def test_enumeration_matches_the_recursive_walk(max_count):
    dags = [geodesic_dag(OR_GENUS2, (), GENUS2.parse("a b a' b'")),
            geodesic_dag(OR_Z3Z2, (), ()),
            cgr_bundle_trunc(OR_Z6Z2, (),
                             direction_from_text(GR_Z6Z2, "t t t b"), 7, 1)]
    for dag in dags:
        paths, truncated = enumerate_geodesics(dag, max_count)
        assert ([(p.vertices, p.symbols) for p in paths], truncated) == (
            _recursive_paths(dag, max_count))


def test_chain_longer_than_the_recursion_limit_has_one_path():
    w = F2.parse(" ".join(["a"] * 2500))
    (path,), truncated = enumerate_geodesics(geodesic_dag(OR_F2, (), w))
    assert not truncated
    assert path.vertices[-1] == w and len(path.symbols) == 2500


def test_dag_source_not_identity():
    base = Z3Z2.parse("b")
    target = Z3Z2.parse("b a b")
    dag = geodesic_dag(OR_Z3Z2, base, target)
    assert dag.source == base and dag.target == target
    assert dag.length == 2


# (group, oracle) of every free group and free product the dispatch sees,
# in both metrics; F₂∗ℤ cones off ℤ, an infinite factor, so its relative
# metric has no alphabet
DISPATCH_CASES = [
    pytest.param(F2, OR_F2, id="f2"),
    pytest.param(Z3Z2, OR_Z3Z2, id="z3z2-rel"),
    pytest.param(Z3Z2, OR_Z3Z2.absolute, id="z3z2-abs"),
    pytest.param(Z6Z2, OR_Z6Z2, id="z6z2"),
    pytest.param(Z6Z2_MIXED, OR_Z6Z2_MIXED, id="z6z2-mixed-rel"),
    pytest.param(F2Z, OR_F2Z.absolute, id="f2z-abs"),
]


@pytest.mark.parametrize("group, oracle", DISPATCH_CASES)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_chain_is_the_layered_dag(group, oracle, data):
    """Where the normal form spells the one geodesic, its chain is the very
    DAG the layered search grows: same layers in the same order and same
    successor lists in symbol order.  Elsewhere `geodesic_dag` is the
    layered build."""
    u = data.draw(words_of(group, 5), label="u")
    v = data.draw(words_of(group, 7), label="v")
    length = oracle.distance(u, v)
    depth = data.draw(st.one_of(st.none(), st.integers(0, length + 3)),
                      label="depth")
    dag = geodesic_dag(oracle, u, v, depth)
    assert dag == _layered_dag(oracle, u, v, depth)
    assert dag.length == (length if depth is None else min(depth, length))


@pytest.mark.parametrize("graph, oracle, metric, u, v, spelled", [
    (GR_F2, OR_F2, RELATIVE, "a b", "a a' b'", True),
    (GR_Z3Z2, OR_Z3Z2, RELATIVE, "b", "a b a' b", True),
    (GR_Z3Z2, OR_Z3Z2, ABSOLUTE, "e", "a b", False),
    (GR_Z6Z2_MIXED, OR_Z6Z2_MIXED, RELATIVE, "t", "t b", True),
    (GR_Z6Z2_MIXED, OR_Z6Z2_MIXED, RELATIVE, "e", "t b", False),
    (GR_Z6Z2, OR_Z6Z2, RELATIVE, "e", "b", False),
    (GR_F2X, OR_F2X, RELATIVE, "e", "a", False),
    (GR_GENUS2, OR_GENUS2, RELATIVE, "e", "a", False),
])
def test_chain_only_where_the_normal_form_spells_it(graph, oracle, metric, u,
                                                    v, spelled):
    """Plain free groups, and coned syllables in a free product's relative
    metric, are chains; any other syllable or family is grown in layers."""
    g = graph.group
    if metric == ABSOLUTE:
        oracle = oracle.absolute
    assert (spelled_geodesic(oracle, g.parse(u), g.parse(v))
            is not None) == spelled


class _ShortcutOracle(DistanceOracle):
    """Claims d(e, a a) = 1 on F₂ with `a b` adjoined, a distance no single
    move realizes."""

    def distance(self, u, v):
        if (u, v) == ((), F2X.parse("a a")):
            return 1
        return super().distance(u, v)


def test_unreachable_layer_is_an_error():
    """An oracle that disagrees with the graph's moves gives no DAG, not
    one with an empty last layer."""
    oracle = _ShortcutOracle(GR_F2X)
    w = F2X.parse("a a")
    assert oracle.distance((), w) == 1
    with pytest.raises(ResourceLimitError, match=r"from e to a a has no layer 1"):
        geodesic_dag(oracle, (), w)
    # a is a move, so its DAG is one edge
    dag = geodesic_dag(oracle, (), F2X.parse("a"))
    assert [len(layer) for layer in dag.layers] == [1, 1]


class TestDagInvariants:
    @PROPERTY_SETTINGS
    @given(u=words_of(Z3Z2), v=words_of(Z3Z2))
    def test_layers_are_exact_slices(self, u, v):
        dag = geodesic_dag(OR_Z3Z2, u, v)
        for k, layer in enumerate(dag.layers):
            for w in layer:
                assert OR_Z3Z2.distance(u, w) == k
                assert OR_Z3Z2.distance(w, v) == dag.length - k

    @PROPERTY_SETTINGS
    @given(u=words_of(F2X, 3), v=words_of(F2X, 3))
    def test_every_vertex_lies_on_a_path(self, u, v):
        dag = geodesic_dag(OR_F2X, u, v)
        entered = {w for out in dag.successors.values() for _, w in out}
        assert set(dag.successors) == dag.vertices()
        for k, layer in enumerate(dag.layers):
            for w in layer:
                assert (w in entered) == (k > 0)
                assert bool(dag.successors[w]) == (k < dag.length)

    @PROPERTY_SETTINGS
    @given(g=words_of(Z3Z2, 3), u=words_of(Z3Z2, 3), v=words_of(Z3Z2, 3))
    def test_equivariance(self, g, u, v):
        dag = geodesic_dag(OR_Z3Z2, u, v)
        moved = geodesic_dag(OR_Z3Z2,
                             Z3Z2.multiply(g, u), Z3Z2.multiply(g, v))
        assert moved.length == dag.length
        for ours, theirs in zip(dag.layers, moved.layers):
            assert sorted(Z3Z2.multiply(g, w) for w in ours) == sorted(theirs)


class TestAgainstBruteForce:
    """DAG enumeration must reproduce an independent oracle-guided DFS."""

    @PROPERTY_SETTINGS
    @given(u=words_of(Z3Z2, 3), v=words_of(Z3Z2, 3))
    def test_free_product(self, u, v):
        dag = geodesic_dag(OR_Z3Z2, u, v)
        paths, _ = enumerate_geodesics(dag, max_count=10_000)
        assert sorted(p.vertices for p in paths) == brute_geodesics(
            OR_Z3Z2, u, v)

    @PROPERTY_SETTINGS
    @given(u=words_of(F2X, 3), v=words_of(F2X, 3))
    def test_free_adjoined(self, u, v):
        dag = geodesic_dag(OR_F2X, u, v)
        paths, _ = enumerate_geodesics(dag, max_count=10_000)
        assert sorted(p.vertices for p in paths) == brute_geodesics(
            OR_F2X, u, v)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(v=words_of(GENUS2, 4))
    def test_small_cancellation(self, v):
        dag = geodesic_dag(OR_GENUS2, (), v)
        paths, _ = enumerate_geodesics(dag, max_count=10_000)
        assert sorted(p.vertices for p in paths) == brute_geodesics(
            OR_GENUS2, (), v)


# ---------------------------------------------------------------------------
# directions

def test_direction_parsing():
    d = direction_from_text(GR_F2, "a b : a b")
    assert d.prefix == ((1,), (2,)) and d.period == ((1,), (2,))
    assert d.symbol(0) == (1,) and d.symbol(3) == (2,)


def test_direction_symbols_must_be_single_steps():
    with pytest.raises(SpecError):
        direction_from_text(GR_F2, "ab")  # two letters, not one step
    d = direction_from_text(GR_F2X, "ab")  # but a step once ab is adjoined
    assert d.period == ((1, 2),)
    with pytest.raises(SpecError):
        direction_from_text(GR_F2, "")


def test_direction_with_repeated_symbol_is_allowed():
    d = direction_from_text(GR_F2, "a a")
    assert d.period == ((1,), (1,))
    ray_vertex(OR_F2, d, 6)


def test_parabolic_direction_symbol():
    d = direction_from_text(GR_Z3Z2, "a b")
    assert d.period == ((1,), (2,))
    assert ray_vertex(OR_Z3Z2, d, 4) == Z3Z2.parse("a b a b")


def test_validate_direction_accepts_geodesic_ray():
    ray_vertex(OR_Z3Z2, direction_from_text(GR_Z3Z2, "a b"), 9)


def test_validate_direction_rejects_backtracking():
    bad = direction_from_text(GR_F2, "a a'")
    with pytest.raises(DirectionError) as info:
        ray_vertex(OR_F2, bad, 5)
    assert info.value.prefix_length == 2


def test_validate_direction_rejects_torsion_loop():
    bad = direction_from_text(GR_Z3Z2, "b")
    with pytest.raises(DirectionError) as info:
        ray_vertex(OR_Z3Z2, bad, 4)
    assert info.value.prefix_length == 2


# (oracle, a geodesic direction, a word whose prefix of length `failing`
# reaches distance `reached`, two anchors); genus 2 measures by normal form.
RAY_CASES = [
    pytest.param(OR_F2, "a b", "a b b' a", 3, 1, ("b", "a' b a"), id="F2"),
    pytest.param(OR_Z3Z2, "a b", "a b b", 3, 1, ("b a", "a' b a'"),
                 id="Z3Z2"),
    pytest.param(OR_GENUS2, "a c", "a b a' b' c d c' d'", 5, 3,
                 ("c", "d' a b"), id="genus2"),
]


@pytest.mark.parametrize("oracle, good, bad, failing, reached, anchors",
                         RAY_CASES)
def test_ray_vertex_from_an_anchor_is_the_translated_ray(
        oracle, good, bad, failing, reached, anchors):
    group = oracle.group
    d = direction_from_text(oracle.graph, good)
    for g in map(group.parse, anchors):
        for k in range(8):
            assert ray_vertex(oracle, d, k, base=g) == group.multiply(
                g, ray_vertex(oracle, d, k))


@pytest.mark.parametrize("oracle, good, bad, failing, reached, anchors",
                         RAY_CASES)
def test_non_geodesic_word_fails_alike_from_every_anchor(
        oracle, good, bad, failing, reached, anchors):
    d = direction_from_text(oracle.graph, bad)
    raised = set()
    for base in [(), *map(oracle.group.parse, anchors)]:
        ray_vertex(oracle, d, failing - 1, base=base)
        with pytest.raises(DirectionError) as info:
            ray_vertex(oracle, d, failing + 2, base=base)
        raised.add((info.value.prefix_length, str(info.value)))
    assert raised == {(failing, f"{bad}: prefix of length {failing} reaches "
                                f"a vertex at distance {reached}, so the "
                                f"word is not geodesic")}


def test_empty_period_rejected():
    with pytest.raises(SpecError):
        DirectionSpec(prefix=((1,),), period=())


# ---------------------------------------------------------------------------
# bundles

def test_bundle_along_periodic_ray():
    d = direction_from_text(GR_Z3Z2, "a b")
    bundle = cgr_bundle_trunc(OR_Z3Z2, (), d, depth=5, margin=1)
    assert layer_profile(bundle) == [1, 1, 1, 1, 1, 1]
    assert bundle.layers[3] == (Z3Z2.parse("a b a"),)
    assert OR_Z3Z2.distance((), bundle.target) >= 6


def test_bundle_from_offset_base_passes_identity():
    d = direction_from_text(GR_F2, "a")
    bundle = cgr_bundle_trunc(OR_F2, F2.parse("b"), d, depth=3, margin=1)
    assert layer_profile(bundle) == [1, 1, 1, 1]
    assert bundle.layers[0] == (F2.parse("b"),)
    assert bundle.layers[1] == ((),)
    assert bundle.layers[2] == (F2.parse("a"),)


def test_bundle_margin_does_not_change_kept_layers():
    d = direction_from_text(GR_Z3Z2, "a b")
    small = cgr_bundle_trunc(OR_Z3Z2, Z3Z2.parse("b"), d, 4, margin=1)
    large = cgr_bundle_trunc(OR_Z3Z2, Z3Z2.parse("b"), d, 4, margin=3)
    assert small.layers == large.layers


def test_bundle_rejects_invalid_direction():
    bad = direction_from_text(GR_F2, "a a'")
    with pytest.raises(DirectionError):
        cgr_bundle_trunc(OR_F2, (), bad, depth=4, margin=1)


def test_bundle_parameter_validation():
    d = direction_from_text(GR_F2, "a")
    with pytest.raises(SpecError):
        cgr_bundle_trunc(OR_F2, (), d, depth=-1, margin=1)
    with pytest.raises(SpecError):
        cgr_bundle_trunc(OR_F2, (), d, depth=3, margin=0)


def test_bundle_layers_extend_to_full_depth():
    """Every kept vertex must reach the cut: successors exist below depth."""
    d = direction_from_text(GR_Z3Z2, "a b")
    dag = cgr_bundle_trunc(OR_Z3Z2, Z3Z2.parse("b a'"), d, 4, margin=2)
    assert dag.length == 4
    for k in range(dag.length):
        for w in dag.layers[k]:
            assert dag.successors[w]


@pytest.mark.parametrize("text, radius", [("a b c d", 2), ("a b c d a", 3)])
def test_membership_search_stops_at_its_bound(text, radius):
    """Layer k keeps a neighbour w iff d(w, v) <= L−k, and the ball-backed
    search for a rejected w stops once it could have met within L−k: from
    e to the radius-4 target the ball around e stops at radius 2, where
    exact distances grow it to 3."""
    oracle = DistanceOracle(GR_ODD)
    assert oracle._pair.__name__ == "_searched_distance"
    geodesic_dag(oracle, (), ODD.parse(text))
    assert oracle._ball.radius == radius


def _full_dag_cut(oracle, x, target, depth):
    """The bundle built the long way: the whole DAG from x to the target,
    then layers 0..depth and the edges among them."""
    full = geodesic_dag(oracle, x, target)
    length = min(depth, full.length)
    layers = full.layers[:length + 1]
    kept = {w for layer in layers for w in layer}
    successors = {v: [(s, w) for s, w in full.successors[v] if w in kept]
                  for v in kept}
    return full, GeodesicDAG(x, target, length, layers, successors)


@pytest.mark.parametrize("oracle, text, bases, depths, widest", [
    (OR_Z3Z2, "a b", ["e", "b", "a b", "b a'"], [0, 3, 6], 1),
    (OR_Z3Z2, "a:b a'", ["e", "a'"], [2, 5], 1),
    (OR_F2X, "ab a", ["e", "b", "a'"], [2, 5], 1),
    (OR_F2X, "a b'", ["e", "b a"], [1, 4], 1),
    (OR_GENUS2, "a b a' b':a", ["e", "c"], [2, 4], 2),
    # base and target far from e: the layer profile is [1, 2]
    (OR_GENUS2, "a", ["c d c' d'"], [1], 2),
], ids=["z3z2", "z3z2-prefix", "f2-ab", "f2-ab-mixed", "genus2",
        "genus2-far-base"])
def test_truncated_bundle_is_the_cut_of_the_full_dag(oracle, text, bases,
                                                     depths, widest):
    """Growing only to the cut keeps the same layers and edges (same dict)
    as cutting the full DAG, and a cut at or past d(u,v) is the full DAG."""
    direction = direction_from_text(oracle.graph, text)
    width = 1
    for base in bases:
        x = oracle.group.parse(base)
        for depth in depths:
            bundle = cgr_bundle_trunc(oracle, x, direction, depth,
                                      margin=1)
            full, cut = _full_dag_cut(oracle, x, bundle.target, depth)
            assert bundle == cut
            assert bundle.length == depth
            for extra in (0, 2):
                assert geodesic_dag(oracle, x, bundle.target,
                                    depth=full.length + extra) == full
            width = max(width, *(len(layer) for layer in bundle.layers))
    assert width == widest


def test_far_base_bundle_grows_no_ball(monkeypatch):
    """The genus-2 bundle from c d c' d' toward a at depth 2, margin 3,
    reads every distance off the normal form, so the oracle's ball stays
    at radius 0; a ball search grew it to radius 7 (1,085,905 vertices).
    On the depth-1, margin-1 instance a ball-search oracle is the referee."""
    x = GENUS2.parse("c d c' d'")
    direction = direction_from_text(GR_GENUS2, "a")
    oracle = DistanceOracle(GR_GENUS2)
    bundle = cgr_bundle_trunc(oracle, x, direction, depth=2, margin=3)
    assert layer_profile(bundle) == [1, 2, 2]
    assert oracle._ball.radius == 0
    cheap = cgr_bundle_trunc(oracle, x, direction, depth=1, margin=1)
    monkeypatch.setattr(relgraph, "_geodesic_reach", lambda group: 0)
    searched = DistanceOracle(GR_GENUS2)
    assert searched._pair.__name__ == "_searched_distance"
    assert cgr_bundle_trunc(searched, x, direction, depth=1, margin=1) == cheap
    assert searched._ball.radius > 0
