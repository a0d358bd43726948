"""Slim-triangle measurement and the derived counting bounds."""

from __future__ import annotations

import itertools
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbundles.groups import (
    SpecError,
    build_group,
    load_spec,
    shortlex_key,
    spec_from_dict,
)
from relbundles.relgraph import DistanceOracle, RelativeGraph, spelled_geodesic
from relbundles.geodesics import enumerate_geodesics, geodesic_dag
from relbundles import hyperbolicity
from relbundles.hyperbolicity import (
    SlimnessReport,
    TriangleWitness,
    _TriangleProbe,
    bound_B,
    bound_K,
    estimate_nu,
)
from referees import triangle_defect

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


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

OR_F2 = DistanceOracle(RelativeGraph(F2))
OR_F2X = DistanceOracle(RelativeGraph(F2X))
OR_Z3Z2 = DistanceOracle(RelativeGraph(Z3Z2))
OR_GENUS2 = DistanceOracle(RelativeGraph(GENUS2))
Z6 = build_group(load_spec(os.path.join(SPECS, "z6_table.json")))
OR_Z6 = DistanceOracle(RelativeGraph(Z6))
Z6Z2 = build_group(load_spec(os.path.join(SPECS, "z6z2_free.json")))
OR_Z6Z2 = DistanceOracle(RelativeGraph(Z6Z2))
# ℤ₆∗ℤ₆ with the first factor coned: the second factor's 6-cycles give
# triangles with a nonzero defect in both metrics
Z6Z6 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _cyclic_table(6, "a")},
                {"family": "finite-table", "table": _cyclic_table(6, "b")}],
    "parabolics": [0],
}))
OR_Z6Z6 = DistanceOracle(RelativeGraph(Z6Z6))


# ---------------------------------------------------------------------------
# explicit triangles

def test_tripod_has_no_defect():
    p = ((), (1,))
    q = ((1,), (1, 2))
    r = ((1, 2), (1,), ())
    assert triangle_defect(OR_F2, p, q, r) == 0


def test_bigon_defect_in_one_relator_group():
    """The two commutator spellings stay 2 apart in the middle."""
    w = GENUS2.parse("a b a' b'")
    dag = geodesic_dag(OR_GENUS2, (), w)
    paths, _ = enumerate_geodesics(dag)
    first, second = paths[0].vertices, paths[-1].vertices
    assert triangle_defect(OR_GENUS2, first, (w,), tuple(reversed(second))) == 2


def test_triangle_sides_must_close_up():
    with pytest.raises(SpecError):
        triangle_defect(OR_F2, ((), (1,)), ((1,), ()), ((2,), ()))


def test_triangle_sides_must_be_geodesic():
    detour = ((), (1,), (1, 2), (1,))
    with pytest.raises(SpecError):
        triangle_defect(OR_F2, detour, ((1,), ()), ((), ()))


def test_empty_side_rejected():
    with pytest.raises(SpecError):
        triangle_defect(OR_F2, (), ((), ()), ((), ()))


# ---------------------------------------------------------------------------
# adversarial defect vs explicit side choices

def _measures(oracle):
    """The relative and the word metric, each as the oracle that measures it."""
    return (oracle, oracle.absolute)


def _referee_defect(oracle, a, b, c, measure):
    """Max of triangle_defect over every choice of one geodesic per side."""
    choices = []
    for u, v in ((a, b), (b, c), (c, a)):
        paths, truncated = enumerate_geodesics(geodesic_dag(oracle, u, v))
        assert not truncated
        choices.append([p.vertices for p in paths])
    return max(triangle_defect(oracle, p, q, r, measure=measure)
               for p, q, r in itertools.product(*choices))


@pytest.mark.parametrize("oracle, radius, anchored", [
    (OR_Z6, 3, False),    # 6-cycle bigons: the non-chain bottleneck branch
    (OR_F2X, 1, False),   # adjoined generator: one edge spans two letters
    (OR_Z3Z2, 2, False),  # parabolic edges
    (OR_F2, 2, False),    # sides placed straight from the normal form
    (OR_Z6Z2, 2, False),  # branching sides beside chains: the running bound prunes
    # a coned family with non-tripod triangles: the two measures score
    # nonzero defects (26 of these 900 triples); the radius-1 ball has none
    (OR_Z6Z6, 2, True),
], ids=["z6_table", "F2X", "Z3Z2", "F2", "Z6Z2", "Z6Z6"])
def test_probe_matches_side_choice_referee(oracle, radius, anchored):
    """Every corner triple of the ball, or, where `anchored`, every one
    with its first corner at e: defects are left-invariant, so these are
    the triangles with the other corners within `radius` of the first.
    The probe's one defect is the referee's in both metrics."""
    probe = _TriangleProbe(oracle)
    corners = sorted(oracle.graph.ball((), radius).entries)
    firsts = [()] if anchored else corners
    for a, b, c in itertools.product(firsts, corners, corners):
        got = probe.defects(a, b, c)[0]
        for measure in _measures(oracle):
            assert got == _referee_defect(oracle, a, b, c, measure), \
                (a, b, c, measure is oracle)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_coned_products_score_one_defect_in_both_metrics(data):
    """On a coned free product both graphs are tree-graded over the factor
    cosets, so the word metric gives each triangle the relative defect
    (`_TriangleProbe`): on two cyclic factors, or a cyclic and a free one,
    with a nonempty set of the finite ones coned, the side-choice referee
    agrees in both metrics, and with the probe, on corner triples
    anchored at e in the radius-2 ball."""
    orders = data.draw(st.tuples(st.integers(2, 8),
                                 st.none() | st.integers(2, 8)))
    factors = data.draw(st.permutations([
        {"family": "free", "generators": ["t"]} if n is None else
        {"family": "finite-table", "table": _cyclic_table(n, gen)}
        for n, gen in zip(orders, "ab")]))
    finite = [i for i, f in enumerate(factors) if f["family"] == "finite-table"]
    coned = data.draw(st.lists(st.sampled_from(finite), min_size=1, unique=True))
    oracle = DistanceOracle(RelativeGraph(build_group(spec_from_dict({
        "family": "free-product", "factors": factors,
        "parabolics": sorted(coned)}))))
    assert oracle.absolute is not oracle
    probe = _TriangleProbe(oracle)
    ball = sorted(oracle.graph.ball((), 2).entries)
    # uniform corners: Hypothesis leans to the first entries of a list
    rng = data.draw(st.randoms(use_true_random=False))
    for _ in range(12):
        b, c = rng.choice(ball), rng.choice(ball)
        relative, word = (_referee_defect(oracle, (), b, c, measure)
                          for measure in _measures(oracle))
        assert relative == word == probe.defects((), b, c)[0], (b, c)


# ---------------------------------------------------------------------------
# what the probe relies on, and what it builds

def _edges(dag):
    return {(p, w) for p, out in dag.successors.items() for _, w in out}


@pytest.mark.parametrize("oracle, radius", [
    (OR_F2, 3),
    (OR_F2X, 3),
    (OR_Z3Z2, 3),
    (OR_Z6, 3),          # all of ℤ₆
    (OR_GENUS2, 2),
], ids=["F2", "F2X", "Z3Z2", "z6_table", "genus2"])
def test_reversed_dag_is_the_dag_of_the_inverse(oracle, radius):
    """The DAG e→w is the DAG e→w⁻¹ moved by w and read backwards."""
    g = oracle.group
    for w in oracle.graph.ball((), radius).entries:
        dag = geodesic_dag(oracle, (), w)
        back = geodesic_dag(oracle, (), g.inverse(w))
        assert dag.length == back.length
        moved = [{g.multiply(w, x) for x in layer} for layer in back.layers]
        assert [set(layer) for layer in dag.layers] == moved[::-1], w
        assert _edges(dag) == {(g.multiply(w, q), g.multiply(w, p))
                               for p, q in _edges(back)}, w


def _attained(oracle, corners, probe, defect, measure):
    """True when `probe` lies on a side of the triangle and some choice of
    geodesics for the other two sides keeps it `defect` away from both."""
    dags = [geodesic_dag(oracle, u, v)
            for u, v in zip(corners, corners[1:] + corners[:1])]
    for i, dag in enumerate(dags):
        if probe not in dag.vertices():
            continue
        far = []
        for other in (dags[(i + 1) % 3], dags[(i + 2) % 3]):
            paths, truncated = enumerate_geodesics(other)
            assert not truncated
            far.append(max(min(measure.distance(probe, x) for x in p.vertices)
                           for p in paths))
        if min(far) == defect:
            return True
    return False


@pytest.mark.parametrize("oracle, radius", [
    (OR_Z6, 3),      # bigons: defect 1 on the non-chain branch
    (OR_F2X, 1),
    (OR_Z3Z2, 2),
    (OR_F2, 2),
    (OR_Z6Z2, 2),
], ids=["z6_table", "F2X", "Z3Z2", "F2", "Z6Z2"])
def test_defects_are_left_invariant(oracle, radius):
    g = oracle.group
    probe = _TriangleProbe(oracle)
    corners = sorted(oracle.graph.ball((), radius).entries)
    shifts = sorted(oracle.graph.ball((), 2).entries)
    for a, b, c in itertools.combinations_with_replacement(corners, 3):
        want = probe.defects(a, b, c)
        for t in shifts:
            moved = tuple(g.multiply(t, x) for x in (a, b, c))
            defect, at = probe.defects(*moved)
            assert defect == want[0], (a, b, c, t)
            for measure in _measures(oracle):
                assert _attained(oracle, moved, at, defect, measure), \
                    (a, b, c, t, measure is oracle)


def _unpruned_defects(probe, a, b, c):
    """`defects` with no masks and no running bound: every probe vertex,
    every distance, in the same order."""
    dist = probe.oracle.distance
    sides = [probe.path(probe._side(u, v)) for u, v in ((a, b), (b, c), (a, c))]
    verts = [set(s) if isinstance(s, tuple) else s.vertices() for s in sides]

    def opposite(u, s):
        if isinstance(s, tuple):
            return min(dist(u, y) for y in s)
        return hyperbolicity._bottleneck(
            s, {x: dist(u, x) for x in s.vertices()})

    worst = (0, a)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        if isinstance(sides[j], tuple) and isinstance(sides[k], tuple):
            union = verts[j] | verts[k]
            scores = ((u, min(dist(u, y) for y in union))
                      for u in verts[i] - union)
        else:
            scores = ((u, min(opposite(u, sides[j]), opposite(u, sides[k])))
                      for u in verts[i])
        for u, d in scores:
            if d > worst[0]:
                worst = (d, u)
    return worst


@pytest.mark.parametrize("oracle, radius", [
    (OR_Z6, 3),
    (OR_F2X, 1),
    (OR_Z3Z2, 2),
    (OR_F2, 2),
    (OR_Z6Z2, 2),
], ids=["z6_table", "F2X", "Z3Z2", "F2", "Z6Z2"])
def test_pruned_scan_keeps_each_witness(oracle, radius):
    """Masks and the running bound skip only vertices that cannot raise a
    defect, so every defect and its probe vertex, ties included, are the
    full scan's."""
    probe = _TriangleProbe(oracle)
    corners = sorted(oracle.graph.ball((), radius).entries)
    for a, b, c in itertools.product(corners, repeat=3):
        assert probe.defects(a, b, c) == _unpruned_defects(probe, a, b, c), \
            (a, b, c)


def test_tripod_defects_ask_no_distance(monkeypatch):
    """On a tree every triangle is a tripod, counted from its side masks,
    and every side's mask is read off its endpoints' root masks: the sweep
    places sides but asks no distance at all."""
    oracle = DistanceOracle(RelativeGraph(F2))
    asked = {"placing": 0, "scoring": 0}
    placing, placed = [], []
    distance, place = oracle.distance, _TriangleProbe._place

    def counting_distance(*args):
        asked["placing" if placing else "scoring"] += 1
        return distance(*args)

    def flagged_place(self, u, v):
        placing.append(True)
        placed.append((u, v))
        try:
            return place(self, u, v)
        finally:
            placing.pop()

    monkeypatch.setattr(oracle, "distance", counting_distance)
    monkeypatch.setattr(_TriangleProbe, "_place", flagged_place)
    estimate_nu(oracle, exhaustive_radius=2, ball_radius=3,
                triangle_budget=400, seed=3)
    assert placed
    assert asked == {"placing": 0, "scoring": 0}


def test_referee_reaches_chain_triangles_with_a_defect():
    """The ℤ₆ referee case gets past the mask shortcut: some triangles of
    three chains, such as e, t², t⁴, have a vertex off both other sides
    and a defect of 1."""
    probe = _TriangleProbe(OR_Z6)
    corners = sorted(OR_Z6.graph.ball((), 3).entries)
    assert any(
        all(isinstance(probe.path(probe._side(u, v)), tuple)
            for u, v in ((a, b), (b, c), (a, c)))
        and probe.defects(a, b, c)[0] == 1
        for a, b, c in itertools.product(corners, repeat=3))


@pytest.fixture
def built(monkeypatch):
    """The endpoints (u, v) of every side DAG the probe builds, in order."""
    ends = []

    def counting(oracle, u, v, *args, **kwargs):
        ends.append((u, v))
        return geodesic_dag(oracle, u, v, *args, **kwargs)

    monkeypatch.setattr(hyperbolicity, "geodesic_dag", counting)
    return ends


@pytest.mark.parametrize("oracle", [OR_F2, OR_Z3Z2], ids=["F2", "Z3Z2"])
def test_sweep_builds_no_dag_where_the_normal_form_spells_sides(built, oracle):
    estimate_nu(oracle, exhaustive_radius=2, ball_radius=3,
                triangle_budget=400, seed=3)
    assert built == []


@pytest.mark.parametrize("oracle", [OR_F2, OR_Z3Z2], ids=["F2", "Z3Z2"])
def test_spelled_side_is_the_geodesic_chain(oracle):
    """A side placed from the normal form is the chain `geodesic_dag`
    builds, vertex for vertex from u to v."""
    probe = _TriangleProbe(oracle)
    corners = sorted(oracle.graph.ball((), 3).entries)
    for u, v in itertools.product(corners, repeat=2):
        dag = geodesic_dag(oracle, u, v)
        assert probe.path(probe._place(u, v)) == tuple(
            x for (x,) in dag.layers), (u, v)


def _coned_product(order: int, parabolics: list[int]) -> DistanceOracle:
    """The oracle of ℤ_order ∗ ℤ₂ with the given factors coned."""
    return DistanceOracle(RelativeGraph(build_group(spec_from_dict({
        "family": "free-product",
        "factors": [
            {"family": "finite-table", "table": _cyclic_table(order, "a")},
            {"family": "finite-table", "table": _cyclic_table(2, "b")}],
        "parabolics": parabolics,
    }))))


SPELLED_CASES = [pytest.param(OR_F2, id="F2")] + [
    pytest.param(_coned_product(order, parabolics),
                 id=f"Z{order}Z2-{'-'.join(map(str, parabolics))}")
    for order in (3, 6) for parabolics in ([0], [1], [0, 1])]


@pytest.mark.parametrize("oracle", SPELLED_CASES)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_root_mask_side_is_the_spelled_chain(oracle, data):
    """A side mask read off two root masks is the OR of the bits of the
    vertices `spelled_geodesic` spells, in both orientations, and is None
    exactly where it spells none; the chain built on demand is those
    vertices in order.  Beside a second corner of the radius-4 ball, a
    corner within 2 of the first reaches the junctions of one factor more
    often."""
    ball = sorted(oracle.graph.ball((), 4).entries, key=shortlex_key)
    near = sorted(oracle.graph.ball((), 2).entries, key=shortlex_key)
    a, b = data.draw(st.sampled_from(ball)), data.draw(st.sampled_from(ball))
    c = oracle.group.multiply(a, data.draw(st.sampled_from(near)))
    probe = _TriangleProbe(oracle)
    for u, v in ((a, b), (b, a), (a, c), (c, a)):
        spelled = spelled_geodesic(oracle, u, v)
        mask = probe._spelled_mask(u, v)
        if spelled is None:
            assert mask is None, (u, v)
            continue
        vertices = tuple(spelled[1])
        want = 0
        for x in vertices:
            want |= probe._bit(x)
        assert mask == want, (u, v)
        assert probe.path(probe._place(u, v)) == vertices, (u, v)


def _swept_triangles(oracle, exhaustive_radius, ball_radius, triangle_budget,
                     seed):
    """The corner triples `estimate_nu` sweeps, in order, each with whether
    it is in the exhaustive stage."""
    small = sorted(oracle.graph.ball((), exhaustive_radius).entries,
                   key=shortlex_key)
    for triangle in itertools.combinations_with_replacement(small, 3):
        yield True, triangle
    rng = random.Random(seed)
    big = sorted(oracle.graph.ball((), ball_radius).entries, key=shortlex_key)
    for _ in range(triangle_budget):
        yield False, tuple(rng.choice(big) for _ in range(3))


SWEEP = dict(exhaustive_radius=2, ball_radius=3, triangle_budget=400, seed=3)


def test_sweep_places_one_side_per_endpoint_pair(monkeypatch):
    """Both stages read their sides through `_side`, the exhaustive one to
    fill its corner-index table: every corner pair of a swept triangle is
    read, and each is placed once."""
    pairs, placed = set(), []
    side, place = _TriangleProbe._side, _TriangleProbe._place

    def recording_side(self, u, v):
        pairs.add(tuple(sorted((u, v))))
        return side(self, u, v)

    def counting_place(self, u, v):
        placed.append(tuple(sorted((u, v))))
        return place(self, u, v)

    monkeypatch.setattr(_TriangleProbe, "_side", recording_side)
    monkeypatch.setattr(_TriangleProbe, "_place", counting_place)
    estimate_nu(OR_F2, **SWEEP)
    assert len(placed) == len(pairs) > 0
    assert set(placed) == pairs
    assert pairs == {tuple(sorted(pair))
                     for _, (a, b, c) in _swept_triangles(OR_F2, **SWEEP)
                     for pair in ((a, b), (b, c), (a, c))}


def test_tree_sweep_scores_no_triangle(monkeypatch):
    """Every triangle on a tree is a tripod of chains, counted from its
    side masks without a call to `defects`."""
    scored = []
    defects = _TriangleProbe.defects

    def recording_defects(self, a, b, c, sides=None):
        scored.append((a, b, c))
        return defects(self, a, b, c, sides)

    monkeypatch.setattr(_TriangleProbe, "defects", recording_defects)
    report = estimate_nu(OR_F2, **SWEEP)
    assert report.triangles_checked == 969 + 400  # C(17 + 2, 3) plus sampled
    assert scored == []


def _referee_sweep(oracle, **kw):
    """`estimate_nu` with no corner table and no tripod count: `defects` on
    every triangle.  Returns the report and each triangle's defects."""
    probe = _TriangleProbe(oracle)
    worst = exhaustive = 0
    witnesses, found = [], []
    for in_small, (a, b, c) in _swept_triangles(oracle, **kw):
        got = probe.defects(a, b, c)
        found.append(((a, b, c), got))
        d, who = got
        if in_small:
            exhaustive = max(exhaustive, d)
        if d > worst:
            witnesses.append(TriangleWitness((a, b, c), who, d))
            worst = d
    report = SlimnessReport(
        exhaustive_radius=kw["exhaustive_radius"], seed=kw["seed"],
        nu=worst, exhaustive_nu=exhaustive,
        triangles_checked=len(found),
        witnesses=tuple(witnesses[-5:]))
    return report, found


@pytest.mark.parametrize("oracle, kw", [
    (OR_F2, SWEEP),
    (OR_Z3Z2, SWEEP),
    (OR_Z6, dict(exhaustive_radius=3, ball_radius=3, triangle_budget=50,
                 seed=1)),
    (OR_Z6Z2, dict(exhaustive_radius=2, ball_radius=3, triangle_budget=200,
                   seed=0)),
    (OR_F2X, dict(exhaustive_radius=1, ball_radius=2, triangle_budget=200,
                  seed=3)),
    (OR_GENUS2, dict(exhaustive_radius=1, ball_radius=3, triangle_budget=200,
                     seed=2)),
], ids=["F2", "Z3Z2", "z6_table", "Z6Z2", "F2X", "genus2"])
def test_sweep_is_the_referee_sweep(monkeypatch, oracle, kw):
    """The corner table and the tripod count change no report, witnesses
    included, and every triangle left unscored has defect 0 at a."""
    want, found = _referee_sweep(oracle, **kw)
    scored = set()
    defects = _TriangleProbe.defects

    def recording_defects(self, a, b, c, sides=None):
        scored.add((a, b, c))
        return defects(self, a, b, c, sides)

    monkeypatch.setattr(_TriangleProbe, "defects", recording_defects)
    assert estimate_nu(oracle, **kw) == want
    for (a, b, c), got in found:
        if (a, b, c) not in scored:
            assert got == (0, a), (a, b, c)


@pytest.mark.parametrize("oracle", [
    OR_F2,
    OR_Z6,           # bigons of defect 1
    OR_Z3Z2,
], ids=["F2", "z6_table", "Z3Z2"])
def test_degenerate_triangles(oracle):
    """A point has defect 0 at itself; a bigon's probe lies on the bigon."""
    probe = _TriangleProbe(oracle)
    corners = sorted(oracle.graph.ball((), 2).entries)
    for t in corners:
        assert probe.defects(t, t, t) == (0, t), t
    for a, b in itertools.product(corners, repeat=2):
        on = geodesic_dag(oracle, a, b).vertices()
        assert probe.defects(a, a, b)[1] in on, (a, b)


def test_cyclic_group_sweep_is_pinned():
    report = estimate_nu(OR_Z6, exhaustive_radius=3, ball_radius=3,
                         triangle_budget=50, seed=1)
    assert report.nu == 1
    assert report.triangles_checked == 106  # C(6+2, 3) = 56 plus 50 sampled
    assert len(report.witnesses) == 1
    witness = report.witnesses[0]
    assert witness.corners == ((), (), (1, 1, 1))
    assert witness.defect == 1
    assert witness.probe == (-1, -1)


def test_z6z2_sweep_is_pinned():
    """The whole report, witnesses included: the probe vertex of a witness
    is the first of its ties, so a change in the order probe vertices are
    visited in shows here."""
    report = estimate_nu(OR_Z6Z2, exhaustive_radius=2, ball_radius=3,
                         triangle_budget=200, seed=0)
    t, t2, t_2 = Z6Z2.parse("t"), Z6Z2.parse("t t"), Z6Z2.parse("t' t'")
    assert report == SlimnessReport(
        exhaustive_radius=2, seed=0, nu=1, exhaustive_nu=1,
        triangles_checked=420,
        witnesses=(TriangleWitness(((), t, t_2), t2, 1),))


@pytest.mark.parametrize("oracle, kw, nu, count, witness", [
    (OR_F2X, dict(exhaustive_radius=2, ball_radius=3, triangle_budget=400,
                  seed=3), 0, 5856, None),
    (OR_GENUS2, dict(exhaustive_radius=1, ball_radius=2, triangle_budget=60,
                     seed=2), 0, 225, None),
    # the sampled triangles reach the commutator bigons: a tied witness
    (OR_GENUS2, dict(exhaustive_radius=1, ball_radius=3, triangle_budget=200,
                     seed=2), 2, 365, (("d d", "a' c' c'", "b a' b'"), "a' d c")),
], ids=["F2X", "genus2", "genus2-witness"])
def test_dag_side_sweeps_are_pinned(oracle, kw, nu, count, witness):
    """As `test_z6z2_sweep_is_pinned`, on families whose sides are
    geodesic DAGs grown in layers."""
    report = estimate_nu(oracle, **kw)
    parse = oracle.group.parse
    witnesses = () if witness is None else (TriangleWitness(
        tuple(map(parse, witness[0])), parse(witness[1]), nu),)
    assert report == SlimnessReport(
        exhaustive_radius=kw["exhaustive_radius"], seed=kw["seed"],
        nu=nu, exhaustive_nu=0, triangles_checked=count, witnesses=witnesses)


def test_negative_triangle_budget_rejected():
    with pytest.raises(SpecError, match="triangle_budget"):
        estimate_nu(OR_F2, exhaustive_radius=1, ball_radius=1,
                    triangle_budget=-5)


# ---------------------------------------------------------------------------
# sweeps; the constants below are regression pins for these presentations

def test_tree_like_families_are_zero_slim():
    for oracle in (OR_F2, OR_Z3Z2):
        report = estimate_nu(oracle, exhaustive_radius=2,
                             ball_radius=3, triangle_budget=400, seed=3)
        assert report.nu == 0


def test_adjoined_generator_family_is_zero_slim():
    report = estimate_nu(OR_F2X, exhaustive_radius=2,
                         ball_radius=3, triangle_budget=400, seed=3)
    assert report.nu == 0


def test_surface_group_shallow_sweep():
    # radius-1 corners cannot reach the commutator bigons yet
    report = estimate_nu(OR_GENUS2, exhaustive_radius=1,
                         ball_radius=1, triangle_budget=0)
    assert report.nu == 0
    assert report.triangles_checked == 165  # C(9+2, 3) triples from |B(1)| = 9


def test_report_is_deterministic():
    kw = dict(exhaustive_radius=1, ball_radius=2, triangle_budget=150, seed=11)
    a = estimate_nu(OR_Z3Z2, **kw)
    b = estimate_nu(OR_Z3Z2, **kw)
    assert (a.nu, a.triangles_checked) == (b.nu, b.triangles_checked)
    assert [w.corners for w in a.witnesses] == [w.corners for w in b.witnesses]


def test_sampling_only_grows_the_estimate():
    lean = estimate_nu(OR_Z3Z2, exhaustive_radius=1,
                       ball_radius=2, triangle_budget=0)
    rich = estimate_nu(OR_Z3Z2, exhaustive_radius=1,
                       ball_radius=2, triangle_budget=200, seed=5)
    assert rich.nu >= lean.nu
    assert lean.exhaustive_nu == lean.nu  # no sampling stage at all


def test_exhaustive_stage_never_exceeds_total():
    report = estimate_nu(OR_GENUS2, exhaustive_radius=1,
                         ball_radius=2, triangle_budget=60, seed=2)
    assert report.exhaustive_nu <= report.nu


# ---------------------------------------------------------------------------
# derived constants

def test_layer_bound_values():
    assert bound_B(OR_F2, 0) == 1
    assert bound_B(OR_F2, 1) == 7 * 5
    assert bound_B(OR_F2, 2) == 13 * 17
    assert bound_B(OR_GENUS2, 1) == 7 * 9


def test_class_bound_values():
    assert bound_K(0, 1) == 1
    assert bound_K(1, 35) == 735
    assert bound_K(2, 221) == 9061


def test_bounds_reject_negative_input():
    with pytest.raises(SpecError):
        bound_B(OR_F2, -1)
    with pytest.raises(SpecError):
        bound_K(-1, 10)
    with pytest.raises(SpecError):
        bound_K(1, -1)
