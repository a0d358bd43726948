"""Suite runner: configuration, determinism, and the reusable referees."""

from __future__ import annotations

import json

import pytest

from relbundles import suite
from relbundles.groups import SpecError, build_group, spec_from_dict
from relbundles.relgraph import DistanceOracle, RelativeGraph
from relbundles.geodesics import (
    DirectionError,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
)
from relbundles.suite import (
    CheckResult,
    RunConfig,
    SuiteReport,
    arithmetic_violations,
    brute_force_geodesics,
    coding_depth,
    oracle_equivalence_violations,
    order_property_violations,
    run_suite,
)


def _cyclic_table(n: int, gen: str) -> dict:
    return {
        "size": n,
        "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": {gen: 1},
    }


F2_SPEC = {"family": "free", "generators": ["a", "b"]}
Z6_SPEC = {"family": "finite-table", "table": _cyclic_table(6, "t")}
Z3Z2_SPEC = {
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _cyclic_table(3, "a")},
                {"family": "finite-table", "table": _cyclic_table(2, "b")}],
    "parabolics": [0, 1],
}

TINY = dict(
    spec=F2_SPEC, suite="tiny", directions=("a", "b"), bases=("e", "b"),
    depth=6, scan_depths=(4, 5, 6), n_max=1, exhaustive_radius=2,
    ball_radius=3, triangle_budget=150, order_samples=60, oracle_samples=25,
    oracle_max_distance=4, arithmetic_length=3, seed=3,
)


class TestRunConfig:
    def test_from_dict_coerces_sequences(self):
        cfg = RunConfig.from_dict({
            "spec": F2_SPEC,
            "directions": ["a", "b"],
            "bases": ["e"],
            "scan_depths": [4, 6],
        })
        assert cfg.directions == ("a", "b")
        assert cfg.scan_depths == (4, 6)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown config keys.*radius"):
            RunConfig.from_dict({"spec": F2_SPEC, "radius": 5})

    def test_spec_required(self):
        with pytest.raises(SpecError, match="spec"):
            RunConfig.from_dict({"depth": 5})

    @pytest.mark.parametrize("bad", [
        {"depth": -1},
        {"scan_depths": (0,)},
        {"margin": 0},
        {"window_radius": -2},
        {"n_max": 0},
        {"jobs": 0},
    ])
    def test_invalid_numbers_rejected(self, bad):
        with pytest.raises(SpecError):
            RunConfig(spec=F2_SPEC, **bad)

    def test_digest_ignores_worker_count(self):
        one = RunConfig(spec=F2_SPEC, jobs=1)
        four = RunConfig(spec=F2_SPEC, jobs=4)
        assert one.digest() == four.digest()
        assert one.digest() != RunConfig(spec=F2_SPEC, seed=1).digest()


class TestReportShape:
    def _result(self, status):
        return CheckResult("x", status, "s")

    def test_exit_codes(self):
        def report(*statuses):
            return SuiteReport("s", "c", "v", {}, tuple(
                CheckResult(f"c{i}", st, "") for i, st in enumerate(statuses)))

        assert report("pass", "pass").exit_code() == 0
        assert report("pass", "flagged").exit_code() == 2
        assert report("approximate").exit_code() == 2
        assert report("flagged", "fail").exit_code() == 1
        assert report().exit_code() == 0

    def test_status_takes_worst(self):
        rep = SuiteReport("s", "c", "v", {}, (
            CheckResult("a", "pass", ""),
            CheckResult("b", "approximate", ""),
            CheckResult("c", "flagged", ""),
        ))
        assert rep.status() == "flagged"

    def test_json_has_no_timestamps_and_sorted_keys(self):
        rep = SuiteReport("shash", "chash", "0.0", {"nu": 0},
                          (CheckResult("a", "pass", "ok", {"k": 1}),))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"spec_hash", "config_hash", "toolkit_version",
                            "constants", "status", "checks"}
        assert rep.to_json() == rep.to_json()


class TestRunSuite:
    def test_tree_suite_all_pass(self):
        report = run_suite(RunConfig(**TINY))
        assert report.status() == "pass"
        assert report.exit_code() == 0
        assert report.constants == {"nu": 0, "nu_rel": 0, "nu_abs": 0,
                                    "B": 1, "K": 1}
        ids = [c.id for c in report.checks]
        assert ids == sorted(ids)
        assert "slimness" in ids
        assert "scan[a|e|b]" in ids
        assert "arithmetic" in ids

    @pytest.mark.parametrize("bad, error", [
        ({"directions": ("a", "a:a'")}, DirectionError),
        ({"bases": ("e", "b z")}, SpecError),
        ({"directions": ("a", "c")}, SpecError),
    ])
    def test_bad_input_fails_before_the_sweep(self, monkeypatch, bad, error):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        with pytest.raises(error):
            run_suite(RunConfig(**dict(TINY, **bad)))

    def test_byte_identical_across_jobs(self):
        one = run_suite(RunConfig(**TINY, jobs=1))
        two = run_suite(RunConfig(**TINY, jobs=3))
        assert one.to_json() == two.to_json()

    def test_scan_rows_cover_each_depth_and_pair(self):
        report = run_suite(RunConfig(**TINY))
        rows = report.scan_rows()
        # 2 directions x 1 base pair x 3 scan depths
        assert len(rows) == 6
        assert {depth for _, _, _, depth, _ in rows} == {4, 5, 6}
        assert all(delta == 1 for *_, delta in rows)

    def test_free_product_has_no_arithmetic_check(self):
        cfg = RunConfig(spec=Z3Z2_SPEC, directions=("a b",), bases=("e",),
                        depth=6, scan_depths=(4, 5, 6), n_max=1,
                        exhaustive_radius=2, ball_radius=3,
                        triangle_budget=100, order_samples=40,
                        oracle_samples=15, arithmetic_length=3, seed=5)
        report = run_suite(cfg)
        assert all(c.id != "arithmetic" for c in report.checks)
        assert report.status() == "pass"


class TestReferees:
    def test_order_property_holds(self):
        assert order_property_violations(300, seed=1) == 0

    def test_arithmetic_free_group(self):
        assert arithmetic_violations(build_group(spec_from_dict(F2_SPEC)), 4) == 0

    def test_arithmetic_finite_table(self):
        assert arithmetic_violations(build_group(spec_from_dict(Z6_SPEC)), 4) == 0

    def test_arithmetic_needs_independent_evaluator(self):
        with pytest.raises(SpecError, match="free-product"):
            arithmetic_violations(build_group(spec_from_dict(Z3Z2_SPEC)), 2)

    def test_brute_force_matches_dag_enumeration(self):
        group = build_group(spec_from_dict(Z3Z2_SPEC))
        graph = RelativeGraph(group)
        oracle = DistanceOracle(graph)
        for u_text, v_text in [("e", "a b a"), ("b", "a b"), ("a", "a'")]:
            u, v = group.parse(u_text), group.parse(v_text)
            dag = geodesic_dag(graph, oracle, u, v)
            paths, truncated = enumerate_geodesics(graph, dag)
            assert not truncated
            assert {p.vertices for p in paths} == brute_force_geodesics(
                graph, oracle, u, v)

    def test_oracle_equivalence_samples_clean(self):
        group = build_group(spec_from_dict(Z3Z2_SPEC))
        graph = RelativeGraph(group)
        oracle = DistanceOracle(graph)
        assert oracle_equivalence_violations(graph, oracle, samples=40,
                                             max_distance=4, seed=2) == 0


class TestCodingDepth:
    def test_period_length_sets_depth(self):
        group = build_group(spec_from_dict(F2_SPEC))
        graph = RelativeGraph(group)
        single = direction_from_text(graph, "a")
        double = direction_from_text(graph, "a b")
        assert coding_depth(single, 2, 1) == 15
        assert coding_depth(double, 2, 1) == 18
        # depth must leave a full period of hosts beyond the 2R/3 threshold
        for direction, n, margin in [(single, 1, 1), (double, 3, 2)]:
            depth = coding_depth(direction, n, margin)
            hosts_beyond = (depth - n - margin) - (2 * depth // 3)
            assert hosts_beyond >= len(direction.period) + 1
