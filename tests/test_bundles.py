"""Horofunction classes, sectors, special vertices, Geo₁, and Δ-scans."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbundles.groups import SpecError, build_group, load_spec, spec_from_dict
from relbundles.relgraph import DistanceOracle, RelativeGraph
from relbundles import bundles
from relbundles.geodesics import (
    DirectionError,
    cgr_bundle_trunc,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
)
from relbundles.bundles import (
    DirectionPipeline,
    StabilizationError,
    horofunction,
    symdiff_scan,
)
from referees import all_special_vertices, full_geo1

PROPERTY_SETTINGS = settings(
    max_examples=30,
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
Z3Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _cyclic_table(3, "a")},
                {"family": "finite-table", "table": _cyclic_table(2, "b")}],
    "parabolics": [0, 1],
}))

# Z10 x Z10: element (i, j) is index 10*(i mod 10) + (j mod 10).
Z10Z10 = build_group(spec_from_dict({
    "family": "finite-table",
    "table": {
        "size": 100,
        "mul": [[10 * ((i // 10 + j // 10) % 10) + (i + j) % 10
                 for j in range(100)] for i in range(100)],
        "generators": {"x": 10, "y": 1},
    },
}))

# Z6 * Z2 with no parabolics: directions through the antipode t t t of
# the hexagon have bundles whose layers are two wide.
SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
Z6Z2 = build_group(load_spec(str(SPECS / "z6z2_free.json")))

GR_F2 = RelativeGraph(F2)
OR_F2 = DistanceOracle(GR_F2)
GR_Z3Z2 = RelativeGraph(Z3Z2)
OR_Z3Z2 = DistanceOracle(GR_Z3Z2)
GR_Z6Z2 = RelativeGraph(Z6Z2)
OR_Z6Z2 = DistanceOracle(GR_Z6Z2)
GR_Z10Z10 = RelativeGraph(Z10Z10)
OR_Z10Z10 = DistanceOracle(GR_Z10Z10)

DIR_A = direction_from_text(GR_F2, "a")
DIR_AB = direction_from_text(GR_Z3Z2, "a b")


def f2_words(max_len: int):
    letters = st.sampled_from([1, -1, 2, -2])
    return st.lists(letters, max_size=max_len).map(lambda w: F2.reduce(w))


# ---------------------------------------------------------------------------
# horofunction signatures


def _flat_window(radius: int) -> tuple:
    ball = GR_F2.ball((), radius)
    return tuple(w for layer in ball.frontiers for w in layer)


class TestHorofunctionTable:
    def test_anchor_value_is_zero(self):
        pipe = DirectionPipeline(OR_F2, DIR_A, nu=0)
        r = pipe.window_radius
        sig = pipe.signature(F2.parse("a b a'"), r)
        assert sig[pipe.window(r).index(())] == 0

    def test_z_equals_anchor_gives_distance_table(self):
        pipe = DirectionPipeline(OR_F2, DIR_A, nu=0)
        sig = pipe.signature((), pipe.window_radius)
        window = pipe.window(pipe.window_radius)
        assert len(sig) == len(window)
        for g, value in zip(window, sig):
            assert value == OR_F2.distance((), g)

    def test_axis_values(self):
        flat = _flat_window(2)
        values = horofunction(OR_F2, F2.parse("a a a a a"), flat)
        assert values[flat.index(F2.parse("a"))] == -1
        assert values[flat.index(F2.parse("a'"))] == 1

    def test_busemann_stabilization_on_axis(self):
        flat = _flat_window(2)
        near = horofunction(OR_F2, F2.parse("a a a a a"), flat)
        far = horofunction(OR_F2, tuple([1] * 9), flat)
        assert near == far

    @PROPERTY_SETTINGS
    @given(z=f2_words(5), g=f2_words(2), h=f2_words(2))
    def test_one_lipschitz(self, z, g, h):
        flat = _flat_window(2)
        values = horofunction(OR_F2, z, flat)
        assert abs(values[flat.index(g)] - values[flat.index(h)]) <= (
            OR_F2.distance(g, h))


# ---------------------------------------------------------------------------
# horofunction classes


class TestXiClasses:
    def test_tree_single_class_many_directions(self):
        for text in ["a", "b", "a b", "b' a"]:
            d = direction_from_text(GR_F2, text)
            deco = DirectionPipeline(OR_F2, d, nu=0).classes_from((), 8)
            assert len(deco.classes) == 1
            assert deco.unstabilized == ()

    def test_z3z2_depth12_pinned(self):
        deco = DirectionPipeline(OR_Z3Z2, DIR_AB,
                                 nu=0).classes_from((), 12)
        assert len(deco.classes) == 1
        assert deco.unstabilized == ()
        assert deco.window_radius == 2
        assert deco.classes[0].signature == (0, -1, 0, 1, -2, 1, 2, 2)

    def test_signature_window_is_distance_layered(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        deco = pipe.classes_from((), 12)
        window = pipe.window(deco.window_radius)
        assert len(window) == len(deco.classes[0].signature)
        dists = [OR_Z3Z2.distance((), w) for w in window]
        assert dists == sorted(dists)
        assert window[0] == ()

    def test_class_count_within_layer_bound(self):
        # ν̂ = 0 for both families pins bound_B to 1
        for oracle, texts in [
            (OR_F2, ["a", "b a", "a b'"]),
            (OR_Z3Z2, ["a b", "a' b"]),
        ]:
            for text in texts:
                d = direction_from_text(oracle.graph, text)
                deco = DirectionPipeline(oracle, d, nu=0).classes_from((), 8)
                assert len(deco.classes) <= 1

    def test_shallow_base_clips_window(self):
        pipe = DirectionPipeline(OR_F2, DIR_A, nu=0)
        deco = pipe.classes_from(F2.parse("b"), 4)
        assert deco.window_radius == 1
        assert any("clipped" in note for note in pipe.notes)
        assert deco.flags == ()

    def test_depth_below_two_rejected(self):
        pipe = DirectionPipeline(OR_F2, DIR_A, nu=0)
        with pytest.raises(SpecError):
            pipe.classes_from((), 1)

    def test_no_stable_ray_is_an_error(self):
        class Scrambled(DirectionPipeline):
            def signature(self, z, radius=None):
                return (OR_F2.distance((), z),)

        pipe = Scrambled(OR_F2, DIR_A, nu=0)
        with pytest.raises(StabilizationError, match="larger depth"):
            pipe.classes_from((), 6)


# ---------------------------------------------------------------------------
# sectors


class TestSectors:
    def test_tree_sector_is_the_ray(self):
        pipe = DirectionPipeline(OR_F2, DIR_A, nu=0)
        cls = pipe.classes_from((), 8).classes[0]
        sec = pipe.sector((), cls.signature, 8)
        assert sec.vertices == frozenset(
            tuple([1] * k) for k in range(9))
        assert sorted(OR_F2.distance((), v)
                      for v in sec.vertices) == list(range(9))

    def test_sector_inside_bundle(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        deco = pipe.classes_from((), 8)
        for cls in deco.classes:
            sec = pipe.sector((), cls.signature, 8)
            assert sec.vertices <= pipe.bundle((), 8).vertices()

    def test_unrealized_signature_reports_empty(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        sec = pipe.sector((), (99,) * 8, 8)
        assert sec.vertices == frozenset()

    def test_sector_monotone_in_depth(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        d8 = pipe.classes_from((), 8)
        d10 = pipe.classes_from((), 10)
        s8 = pipe.sector((), d8.classes[0].signature, 8)
        s10 = pipe.sector((), d10.classes[0].signature, 10)
        assert max(OR_Z3Z2.distance((), v)
                   for v in s8.vertices) == 8
        assert s8.vertices <= s10.vertices

    def test_ray_vertex_sector_contains_later_representatives(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        x = Z3Z2.parse("a b a b")
        deco = pipe.classes_from(x, 8)
        sec = pipe.sector(x, deco.classes[0].signature, 8)
        for rep in deco.classes[0].terminals:
            assert rep in sec.vertices


class TestReadsOffTheBundle:
    """Sectors and reach, read off the cached bundle, against the direct
    constructions: a geodesic DAG per terminal, and an oracle scan."""

    @staticmethod
    def _sector_referee(pipe, v, signature, depth):
        deco = pipe.classes_from(v, depth)
        got = set()
        for cls in deco.classes:
            n = min(len(signature), len(cls.signature))
            if signature[:n] == cls.signature[:n]:
                for t in cls.terminals:
                    got |= geodesic_dag(pipe.oracle, v, t).vertices()
        return frozenset(got)

    @staticmethod
    def _reach_referee(oracle, v, allowed, remaining):
        if v not in allowed:
            return False
        frontier = [v]
        for step in range(1, remaining + 1):
            frontier = [w for w in allowed
                        if oracle.distance(v, w) == step
                        and any(oracle.distance(p, w) == 1
                                for p in frontier)]
            if not frontier:
                return False
        return True

    def _check_vertex_reads(self, pipe, base, depth) -> tuple[int, int]:
        """Compare every sector and reach `special_vertices` reads from
        (base, depth), plus reach inside each sector less one vertex;
        returns how many reach queries came out true and false."""
        deco = pipe.classes_from(base, depth)
        dag = pipe.bundle(base, depth)
        outcomes = [0, 0]
        for k in range(depth - 1):
            remaining = depth - k
            for v in dag.layers[k]:
                try:
                    sectors = [pipe.sector(v, c.signature, remaining)
                               for c in deco.classes]
                except StabilizationError:
                    continue
                for c, sec in zip(deco.classes, sectors):
                    assert sec.vertices == self._sector_referee(
                        pipe, v, c.signature, remaining)
                candidates = [s.vertices for s in sectors]
                candidates.append(frozenset.intersection(*candidates))
                candidates += [s.vertices - {w} for s in sectors
                               for w in s.vertices if w != v]
                for allowed in candidates:
                    want = self._reach_referee(pipe.oracle, v, allowed,
                                               remaining)
                    assert pipe._reaches_depth(v, allowed, remaining) == want
                    outcomes[want] += 1
        return outcomes[1], outcomes[0]

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("text", ["t b", "t t t b", "t' b t b"])
    def test_z6z2_sectors_and_reach_match_referees(self, text, nu):
        direction = direction_from_text(GR_Z6Z2, text)
        pipe = DirectionPipeline(OR_Z6Z2, direction, nu=nu)
        reached = missed = 0
        for base_text in ("e", "b", "t"):
            for depth in (8, 10, 12):
                try:
                    got = self._check_vertex_reads(
                        pipe, Z6Z2.parse(base_text), depth)
                except StabilizationError:
                    # ν̂ = 1 margins leave t t t b from e and b no stable
                    # ray at depth 8; Geo₁ raises there too.
                    assert (text, base_text, depth, nu) in {
                        ("t t t b", "e", 8, 1), ("t t t b", "b", 8, 1)}
                    continue
                reached += got[0]
                missed += got[1]
        assert reached and missed
        widest = max(len(layer) for layer in pipe.bundle((), 12).layers)
        assert widest == (2 if text == "t t t b" else 1)

    @pytest.mark.parametrize("window_radius", [0, 1])
    def test_torus_split_sectors_match_referees(self, window_radius):
        # Two classes on the flat torus: proper, merged and empty sectors.
        direction = direction_from_text(GR_Z10Z10, "x")
        pipe = DirectionPipeline(OR_Z10Z10, direction, nu=0,
                                 window_radius=window_radius)
        assert len(pipe.classes_from((), 4).classes) == 2
        for depth in (3, 4):
            reached, missed = self._check_vertex_reads(pipe, (), depth)
            assert reached and missed


# ---------------------------------------------------------------------------
# special vertices


class TestSpecialVertices:
    def test_tree_everything_classifiable_is_special(self):
        report = all_special_vertices(DirectionPipeline(OR_F2, DIR_A, nu=0),
                                      (), 6)
        assert report.ambiguous == ()
        assert {v for v, _ in report.special} == {
            tuple([1] * k) for k in range(5)}
        assert {c for _, c in report.special} == {0}

    def test_special_set_inside_bundle(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        report = pipe.special_vertices((), 8)
        bundle = pipe.bundle((), 8).vertices()
        for v, _ in report.special:
            assert v in bundle

    def test_z3z2_specials_pinned_and_stable(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        r8 = all_special_vertices(pipe, (), 8)
        r10 = all_special_vertices(pipe, (), 10)
        ray = [Z3Z2.parse(" ".join(["a b"] * (k // 2)) + (" a" if k % 2 else ""))
               for k in range(7)]
        assert [v for v, _ in r8.special] == sorted(
            ray, key=lambda w: (len(w), w))

        def upto(report, cut):
            return {(v, c) for v, c in report.special
                    if OR_Z3Z2.distance((), v) <= cut}

        assert upto(r8, 6) == upto(r10, 6)


# ---------------------------------------------------------------------------
# the modified bundle Geo₁


def _assert_geo1_is_full_geo1(pipe, full, base, depth) -> bool:
    """`geo1` classifies the layers up to its classes' nearest special
    vertices, `full_geo1` every layer: the two agree but for flags only the
    deeper layers raised.  False when both raise StabilizationError."""
    try:
        want = full_geo1(full, base, depth)
    except StabilizationError:
        with pytest.raises(StabilizationError):
            pipe.geo1(base, depth)
        return False
    got = pipe.geo1(base, depth)
    assert got.vertices == want.vertices
    assert got.chosen == want.chosen
    assert got.skipped_classes == want.skipped_classes
    assert set(got.flags) <= set(want.flags)
    return True


class TestGeo1ReadsNoDeeperLayer:
    @pytest.mark.parametrize("oracle, text, base_text", [
        (OR_F2, "a", "e"), (OR_Z3Z2, "a b", "e"), (OR_Z3Z2, "a b", "b")])
    def test_free_and_coned_product(self, oracle, text, base_text):
        direction = direction_from_text(oracle.graph, text)
        pipe = DirectionPipeline(oracle, direction, nu=0)
        full = DirectionPipeline(oracle, direction, nu=0)
        base = oracle.group.parse(base_text)
        assert all(_assert_geo1_is_full_geo1(pipe, full, base, depth)
                   for depth in (6, 8))

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("text", ["t b", "t t t b", "t' b t b"])
    def test_z6z2(self, text, nu):
        direction = direction_from_text(GR_Z6Z2, text)
        pipe = DirectionPipeline(OR_Z6Z2, direction, nu=nu)
        full = DirectionPipeline(OR_Z6Z2, direction, nu=nu)
        raised = {(base_text, depth)
                  for base_text in ("e", "b", "t") for depth in (8, 10, 12)
                  if not _assert_geo1_is_full_geo1(
                      pipe, full, Z6Z2.parse(base_text), depth)}
        # as in test_z6z2_sectors_and_reach_match_referees
        assert raised == ({("e", 8), ("b", 8)}
                          if (text, nu) == ("t t t b", 1) else set())

    @pytest.mark.parametrize("window_radius", [0, 1])
    def test_torus_two_classes(self, window_radius):
        # At depth 4 there are two classes and neither gets a special
        # vertex, so both scans run to layer depth − 2.
        direction = direction_from_text(GR_Z10Z10, "x")
        pipe = DirectionPipeline(OR_Z10Z10, direction, nu=0,
                                 window_radius=window_radius)
        full = DirectionPipeline(OR_Z10Z10, direction, nu=0,
                                 window_radius=window_radius)
        assert all(_assert_geo1_is_full_geo1(pipe, full, (), depth)
                   for depth in (2, 3, 4))
        assert pipe.geo1((), 4).skipped_classes == (0, 1)

    def test_classes_met_at_different_layers(self):
        # In no group above do two classes both get special vertices, so a
        # classifier stands in: class 0 is special at layer 0 and class 1
        # at layer 2.  The scan must pass class 0's layer and stop at 2.
        depth = 7

        class Staggered(DirectionPipeline):
            def _classify_vertex(self, deco, v, remaining, sectors):
                return {depth: 0, depth - 2: 1}.get(remaining)

        direction = direction_from_text(GR_Z10Z10, "x y'")
        pipe = Staggered(OR_Z10Z10, direction, nu=0, window_radius=1)
        full = Staggered(OR_Z10Z10, direction, nu=0, window_radius=1)
        base = Z10Z10.parse("x")
        assert _assert_geo1_is_full_geo1(pipe, full, base, depth)
        assert [len(ys) for _, ys in pipe.geo1(base, depth).chosen] == [1, 3]
        assert {depth - key[2] for key in pipe._memo
                if key[0] == "classes_from"} == {0, 1, 2}

    def test_base_special_classifies_the_base_alone(self):
        # One class, and the base is special at layer 0: no other vertex
        # gets a class decomposition or a sector.
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        pipe.geo1((), 8)
        assert {key[1] for key in pipe._memo
                if key[0] in ("classes_from", "sector")} == {()}


class TestGeo1:
    def test_tree_geo1_is_the_ray(self):
        g1 = DirectionPipeline(OR_F2, DIR_A, nu=0).geo1((), 8)
        assert g1.vertices == frozenset(tuple([1] * k) for k in range(9))
        assert g1.chosen == ((0, ((),)),)
        assert g1.skipped_classes == ()

    def test_base_is_its_own_nearest_special(self):
        g1 = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0).geo1((), 8)
        assert g1.chosen[0][1] == ((),)

    def test_geo1_equals_union_of_chosen_sectors(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        base = Z3Z2.parse("b")
        g1 = pipe.geo1(base, 8)
        deco = pipe.classes_from(base, 8)
        expected: set = set()
        for cid, ys in g1.chosen:
            cls = deco.classes[cid]
            for y in ys:
                dist = OR_Z3Z2.distance(base, y)
                sec = pipe.sector(y, cls.signature, 8 - dist)
                expected |= sec.vertices
        assert g1.vertices == frozenset(expected)

    def test_ray_capture_bound_does_not_grow(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        base = Z3Z2.parse("b")
        bounds = []
        for depth in (8, 10, 12):
            g1 = pipe.geo1(base, depth).vertices
            paths, truncated = enumerate_geodesics(pipe.bundle(base, depth))
            assert not truncated
            worst = 0
            for path in paths:
                missing = [i for i, v in enumerate(path.vertices)
                           if v not in g1]
                if missing:
                    worst = max(worst, max(missing) + 1)
            bounds.append(worst)
        assert bounds == [0, 0, 0]

    def test_left_translation_equivariance(self):
        g = Z3Z2.parse("b a")
        plain = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        moved = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0, anchor=g)
        x = Z3Z2.parse("a")
        translated = frozenset(Z3Z2.multiply(g, v)
                               for v in plain.geo1(x, 8).vertices)
        assert moved.geo1(Z3Z2.multiply(g, x), 8).vertices == translated

    def test_table_values_translate_with_the_anchor(self):
        g = Z3Z2.parse("b a")
        plain = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        moved = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0, anchor=g)
        z = Z3Z2.parse("a b a b")
        r = plain.window_radius
        te = plain.signature(z, r)
        tg = moved.signature(Z3Z2.multiply(g, z), r)
        window, moved_window = plain.window(r), moved.window(r)
        assert len(te) == len(window)
        for w, value in zip(window, te):
            assert tg[moved_window.index(Z3Z2.multiply(g, w))] == value


# ---------------------------------------------------------------------------
# the memo


class TestMemo:
    def test_repeat_call_returns_the_stored_result(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        assert pipe.geo1((), 8) is pipe.geo1((), 8)
        assert pipe.classes_from((), 8) is pipe.classes_from((), 8)

    def test_raising_stage_raises_again(self):
        class Scrambled(DirectionPipeline):
            def _stab_triples(self, base, depth):
                raise StabilizationError("no stable ray here")

        pipe = Scrambled(OR_F2, DIR_A, nu=0)
        for _ in range(2):
            with pytest.raises(StabilizationError, match="no stable ray"):
                pipe.classes_from((), 6)
        bad = DirectionPipeline(OR_F2, direction_from_text(GR_F2, "a a'"),
                                nu=0)
        for _ in range(2):
            with pytest.raises(DirectionError) as info:
                bad.bundle((), 3)
            assert info.value.prefix_length == 2
        # the ray's steps checked before the failing one are kept
        assert pipe._memo == {}
        assert bad._memo == {("ray", 1): F2.parse("a")}

    def test_pipeline_walks_its_ray_once(self, monkeypatch):
        """Bundles from bases at several distances read one walk of the
        ray, each step checked once, and equal bundles whose ray is walked
        afresh."""
        steps = []
        walk = bundles.ray_vertex

        def counting(oracle, direction, k, base=(), walked=None):
            steps.extend(range((walked or (0,))[0] + 1, k + 1))
            return walk(oracle, direction, k, base, walked)

        monkeypatch.setattr(bundles, "ray_vertex", counting)
        anchor = Z3Z2.parse("b")
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0, anchor=anchor)
        for base in map(Z3Z2.parse, ("e", "b", "a b", "a' b a")):
            for depth in (2, 4, 6):
                assert pipe.bundle(base, depth) == cgr_bundle_trunc(
                    OR_Z3Z2, base, DIR_AB, depth, pipe.margin, anchor=anchor)
        assert steps == list(range(1, len(steps) + 1))
        assert all(pipe.ray(k) == walk(OR_Z3Z2, DIR_AB, k, base=anchor)
                   for k in range(len(steps) + 1))


# ---------------------------------------------------------------------------
# order independence


class TestOrderIndependence:
    """A pipeline is a pure cache: no call order changes a result."""

    def _pipe(self):
        direction = direction_from_text(GR_Z10Z10, "x")
        return DirectionPipeline(OR_Z10Z10, direction, nu=0,
                                 window_radius=0)

    def test_geo1_does_not_depend_on_call_order(self):
        # On the flat torus the classes from y collide at radius 0 and
        # cannot widen, while those from e widen to radius 1: both raise
        # flags that must stay with their own results.
        y = Z10Z10.parse("y")
        calls = [(y, 3), ((), 4)]
        fresh = {call: self._pipe().geo1(*call) for call in calls}
        for order in (calls, calls[::-1]):
            pipe = self._pipe()
            got = {call: pipe.geo1(*call) for call in order}
            assert got == fresh
            assert pipe.window_radius == 0
        assert any("cannot widen" in f for f in fresh[(y, 3)].flags)
        assert not any("cannot widen" in f for f in fresh[((), 4)].flags)

    def test_widening_stays_with_the_decomposition(self):
        pipe = self._pipe()
        deco = pipe.classes_from((), 4)
        assert deco.window_radius == 1
        assert deco.flags == ("window collision at radius 0; widened to 1",)
        assert pipe.window_radius == 0
        assert len(pipe.window(pipe.window_radius)) == 1


# ---------------------------------------------------------------------------
# symmetric-difference scans


class TestSymDiffScan:
    def test_tree_median_row_pinned(self):
        scan = symdiff_scan(DirectionPipeline(OR_F2, DIR_A, nu=0),
                            (), F2.parse("b"), [2, 3, 4, 6, 8])
        assert scan.rows == ((2, 1), (3, 1), (4, 1), (6, 1), (8, 1))
        assert scan.verdict == "stabilized"

    def test_same_base_is_zero(self):
        x = F2.parse("b a")
        scan = symdiff_scan(DirectionPipeline(OR_F2, DIR_A, nu=0),
                            x, x, [4, 6, 8])
        assert scan.rows == ((4, 0), (6, 0), (8, 0))
        assert scan.verdict == "stabilized"

    def test_z3z2_scans_pinned(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        ab = symdiff_scan(pipe, (), Z3Z2.parse("a b"), [8, 10, 12])
        assert ab.rows == ((8, 2), (10, 2), (12, 2))
        assert ab.verdict == "stabilized"
        b = symdiff_scan(pipe, (), Z3Z2.parse("b"), [8, 10, 12])
        assert b.rows == ((8, 1), (10, 1), (12, 1))

    def test_z3z2_difference_sits_below_layer_one(self):
        pipe = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)
        x, y = (), Z3Z2.parse("b")
        gx = pipe.geo1(x, 10).vertices
        gy = pipe.geo1(y, 10).vertices
        horizon = 10 - pipe.margin
        vis = {v for v in gx ^ gy
               if OR_Z3Z2.distance(x, v) <= horizon
               and OR_Z3Z2.distance(y, v) <= horizon}
        assert vis == {Z3Z2.parse("b")}

    def test_short_scan_never_reports_stabilized(self):
        scan = symdiff_scan(DirectionPipeline(OR_F2, DIR_A, nu=0),
                            (), F2.parse("b"), [4, 6])
        assert scan.verdict == "unstabilized"

    @PROPERTY_SETTINGS
    @given(x=f2_words(2), y=f2_words(2))
    def test_tree_scan_matches_median_formula(self, x, y):
        far = tuple([1] * 20)
        med_x = (OR_F2.distance(x, y)
                 + OR_F2.distance(x, far)
                 - OR_F2.distance(y, far)) // 2
        med_y = OR_F2.distance(x, y) - med_x
        scan = symdiff_scan(DirectionPipeline(OR_F2, DIR_A, nu=0),
                            x, y, [6, 7, 8])
        assert scan.verdict == "stabilized"
        assert [n for _, n in scan.rows] == [med_x + med_y] * 3
