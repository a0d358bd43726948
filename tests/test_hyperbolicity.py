"""Slim-triangle measurement and the derived counting bounds."""

from __future__ import annotations

import itertools
import os

import pytest

from relbundles.groups import SpecError, build_group, load_spec, spec_from_dict
from relbundles.relgraph import (
    METRICS,
    RELATIVE,
    DistanceOracle,
    RelativeGraph,
)
from relbundles.geodesics import enumerate_geodesics, geodesic_dag
from relbundles.hyperbolicity import (
    _TriangleProbe,
    bound_B,
    bound_K,
    estimate_nu,
    triangle_defect,
)

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

GR_F2 = RelativeGraph(F2)
OR_F2 = DistanceOracle(GR_F2)
GR_F2X = RelativeGraph(F2X)
OR_F2X = DistanceOracle(GR_F2X)
GR_Z3Z2 = RelativeGraph(Z3Z2)
OR_Z3Z2 = DistanceOracle(GR_Z3Z2)
GR_GENUS2 = RelativeGraph(GENUS2)
OR_GENUS2 = DistanceOracle(GR_GENUS2)
Z6 = build_group(load_spec(os.path.join(SPECS, "z6_table.json")))
GR_Z6 = RelativeGraph(Z6)
OR_Z6 = DistanceOracle(GR_Z6)


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
    dag = geodesic_dag(GR_GENUS2, OR_GENUS2, (), w)
    paths, _ = enumerate_geodesics(GR_GENUS2, dag)
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

def _referee_defect(graph, oracle, a, b, c, metric):
    """Max of triangle_defect over every choice of one geodesic per side."""
    choices = []
    for u, v in ((a, b), (b, c), (c, a)):
        paths, truncated = enumerate_geodesics(
            graph, geodesic_dag(graph, oracle, u, v))
        assert not truncated
        choices.append([p.vertices for p in paths])
    return max(triangle_defect(oracle, p, q, r, metric=metric)
               for p, q, r in itertools.product(*choices))


@pytest.mark.parametrize("graph, oracle, radius", [
    (GR_Z6, OR_Z6, 3),      # 6-cycle bigons: the non-chain bottleneck branch
    (GR_F2X, OR_F2X, 1),    # adjoined generator: one edge spans two letters
    (GR_Z3Z2, OR_Z3Z2, 2),  # parabolic edges
], ids=["z6_table", "F2X", "Z3Z2"])
def test_probe_matches_side_choice_referee(graph, oracle, radius):
    probe = _TriangleProbe(graph, oracle)
    corners = sorted(graph.ball((), radius, RELATIVE).entries)
    for a, b, c in itertools.product(corners, repeat=3):
        got = probe.defects(a, b, c)
        for metric in METRICS:
            assert got[metric][0] == _referee_defect(
                graph, oracle, a, b, c, metric), (a, b, c, metric)


def test_cyclic_group_sweep_is_pinned():
    report = estimate_nu(GR_Z6, OR_Z6, exhaustive_radius=3, ball_radius=3,
                         triangle_budget=50, seed=1)
    assert (report.nu_rel, report.nu_abs) == (1, 1)
    assert report.triangles_checked == 106  # C(6+2, 3) = 56 plus 50 sampled
    assert len(report.witnesses) == 1
    witness = report.witnesses[0]
    assert witness.corners == ((), (), (1, 1, 1))
    assert (witness.defect_rel, witness.defect_abs) == (1, 1)


# ---------------------------------------------------------------------------
# sweeps; the constants below are regression pins for these presentations

def test_tree_like_families_are_zero_slim():
    for graph, oracle in ((GR_F2, OR_F2), (GR_Z3Z2, OR_Z3Z2)):
        report = estimate_nu(graph, oracle, exhaustive_radius=2,
                             ball_radius=3, triangle_budget=400, seed=3)
        assert report.nu_rel == 0
        assert report.nu_abs == 0


def test_adjoined_generator_family_is_zero_slim():
    report = estimate_nu(GR_F2X, OR_F2X, exhaustive_radius=2,
                         ball_radius=3, triangle_budget=400, seed=3)
    assert report.nu_rel == 0 and report.nu_abs == 0


def test_surface_group_shallow_sweep():
    # radius-1 corners cannot reach the commutator bigons yet
    report = estimate_nu(GR_GENUS2, OR_GENUS2, exhaustive_radius=1,
                         ball_radius=1, triangle_budget=0)
    assert report.nu_rel == 0
    assert report.triangles_checked == 165  # C(9+2, 3) triples from |B(1)| = 9


def test_report_is_deterministic():
    kw = dict(exhaustive_radius=1, ball_radius=2, triangle_budget=150, seed=11)
    a = estimate_nu(GR_Z3Z2, OR_Z3Z2, **kw)
    b = estimate_nu(GR_Z3Z2, OR_Z3Z2, **kw)
    assert (a.nu_rel, a.nu_abs, a.triangles_checked) == \
        (b.nu_rel, b.nu_abs, b.triangles_checked)
    assert [w.corners for w in a.witnesses] == [w.corners for w in b.witnesses]


def test_sampling_only_grows_the_estimate():
    lean = estimate_nu(GR_Z3Z2, OR_Z3Z2, exhaustive_radius=1,
                       ball_radius=2, triangle_budget=0)
    rich = estimate_nu(GR_Z3Z2, OR_Z3Z2, exhaustive_radius=1,
                       ball_radius=2, triangle_budget=200, seed=5)
    assert rich.nu_rel >= lean.nu_rel
    assert rich.nu_abs >= lean.nu_abs
    assert lean.exhaustive_nu_rel == lean.nu_rel  # no sampling stage at all


def test_exhaustive_stage_never_exceeds_total():
    report = estimate_nu(GR_GENUS2, OR_GENUS2, exhaustive_radius=1,
                         ball_radius=2, triangle_budget=60, seed=2)
    assert report.exhaustive_nu_rel <= report.nu_rel
    assert report.exhaustive_nu_abs <= report.nu_abs


# ---------------------------------------------------------------------------
# derived constants

def test_layer_bound_values():
    assert bound_B(GR_F2, 0) == 1
    assert bound_B(GR_F2, 1) == 7 * 5
    assert bound_B(GR_F2, 2) == 13 * 17
    assert bound_B(GR_GENUS2, 1) == 7 * 9


def test_class_bound_values():
    assert bound_K(0, 1) == 1
    assert bound_K(1, 35) == 735
    assert bound_K(2, 221) == 9061


def test_bounds_reject_negative_input():
    with pytest.raises(SpecError):
        bound_B(GR_F2, -1)
    with pytest.raises(SpecError):
        bound_K(-1, 10)
    with pytest.raises(SpecError):
        bound_K(1, -1)
