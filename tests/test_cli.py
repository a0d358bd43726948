"""End-to-end command-line behavior on temp directories, in-process."""

from __future__ import annotations

import json
import os

import pytest

from relbundles import suite
from relbundles.cli import main

F2_SPEC = {"family": "free", "generators": ["a", "b"]}
Z3Z2_SPEC = {
    "family": "free-product",
    "factors": [
        {"family": "finite-table",
         "table": {"size": 3, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                   "generators": {"a": 1}}},
        {"family": "finite-table",
         "table": {"size": 2, "mul": [[0, 1], [1, 0]],
                   "generators": {"b": 1}}},
    ],
    "parabolics": [0, 1],
}
TINY_CONFIG = {
    "suite": "tiny",
    "directions": ["a", "b"],
    "bases": ["e", "b"],
    "depth": 6,
    "scan_depths": [4, 5, 6],
    "n_max": 1,
    "exhaustive_radius": 2,
    "ball_radius": 3,
    "triangle_budget": 150,
    "order_samples": 60,
    "oracle_samples": 25,
    "oracle_max_distance": 4,
    "arithmetic_length": 3,
    "seed": 3,
}


def _write(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture()
def f2_spec_file(tmp_path):
    return _write(tmp_path / "spec.json", F2_SPEC)


@pytest.fixture()
def z3z2_spec_file(tmp_path):
    return _write(tmp_path / "z3z2.json", Z3Z2_SPEC)


class TestValidateSpec:
    def test_free_product_passes(self, z3z2_spec_file, capsys):
        assert main(["validate-spec", "--spec", z3z2_spec_file]) == 0
        out = capsys.readouterr().out
        assert "free-product" in out
        assert "spec hash" in out

    def test_small_cancellation_metric_failure(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.json", {
            "family": "small-cancellation",
            "generators": ["a", "b"],
            "relators": ["a b a b'"],
        })
        assert main(["validate-spec", "--spec", bad]) == 1
        assert "C'(1/6)" in capsys.readouterr().err

    def test_malformed_spec(self, tmp_path, capsys):
        broken = _write(tmp_path / "broken.json", {"family": "quantum"})
        assert main(["validate-spec", "--spec", broken]) == 1
        assert "error" in capsys.readouterr().err


class TestExplore:
    def test_ball_emits_dot_json_csv(self, f2_spec_file, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(["explore", "ball", "e", "3", "--spec", f2_spec_file,
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        doc = json.loads((out / "ball_r3.json").read_text())
        assert doc["vertex_count"] == 53  # 1 + 4 + 12 + 36
        dot = (out / "ball_r3.dot").read_text()
        assert dot.startswith("graph ball {")
        csv_lines = (out / "ball_r3.csv").read_text().splitlines()
        assert csv_lines[0] == "vertex,distance"
        assert len(csv_lines) == 54

    def test_ball_cache_round_trip(self, f2_spec_file, tmp_path):
        out, cache = tmp_path / "a1", tmp_path / "cache"
        args = ["explore", "ball", "e", "2", "--spec", f2_spec_file,
                "--cache-dir", str(cache)]
        assert main(args + ["--out", str(out)]) == 0
        assert len(os.listdir(cache)) == 1
        out2 = tmp_path / "a2"
        assert main(args + ["--out", str(out2)]) == 0
        assert (out / "ball_r2.json").read_text() == \
            (out2 / "ball_r2.json").read_text()

    def test_dag_layered_dot(self, z3z2_spec_file, tmp_path):
        out = tmp_path / "art"
        assert main(["explore", "dag", "e", "a b a", "--spec", z3z2_spec_file,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "dag.json").read_text())
        assert doc["length"] == 3
        assert doc["layer_sizes"] == [1, 1, 1, 1]
        assert "rank=same" in (out / "dag.dot").read_text()

    def test_geo1_vertex_list(self, z3z2_spec_file, tmp_path):
        out = tmp_path / "art"
        assert main(["explore", "geo1", "e", "a b", "8",
                     "--spec", z3z2_spec_file, "--out", str(out)]) == 0
        doc = json.loads((out / "geo1.json").read_text())
        assert doc["vertices"][:3] == ["e", "a", "a b"]
        assert doc["flags"] == []

    def test_bundle_profile(self, z3z2_spec_file, tmp_path):
        out = tmp_path / "art"
        assert main(["explore", "bundle", "e", "a b", "6",
                     "--spec", z3z2_spec_file, "--out", str(out)]) == 0
        doc = json.loads((out / "bundle.json").read_text())
        assert doc["layer_profile"] == [1] * 7

    def test_non_geodesic_direction_names_prefix(self, z3z2_spec_file,
                                                 tmp_path, capsys):
        code = main(["explore", "geo1", "e", "a b:b a", "8",
                     "--spec", z3z2_spec_file, "--out", str(tmp_path)])
        assert code == 1
        assert "prefix of length 3" in capsys.readouterr().err

    def test_bad_argument_count(self, f2_spec_file, tmp_path, capsys):
        assert main(["explore", "ball", "e", "--spec", f2_spec_file,
                     "--out", str(tmp_path)]) == 1
        assert "CENTER and RADIUS" in capsys.readouterr().err


class TestVerify:
    def _config(self, tmp_path, **overrides):
        doc = dict(TINY_CONFIG, spec=F2_SPEC, **overrides)
        return _write(tmp_path / "config.json", doc)

    def test_tree_suite_passes(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert "suite status: pass" in out
        doc = json.loads((run / "report.json").read_text())
        assert doc["status"] == "pass"
        assert doc["constants"] == {"B": 1, "K": 1, "nu": 0,
                                    "nu_abs": 0, "nu_rel": 0}
        scans = (run / "scans.csv").read_text().splitlines()
        assert scans[0] == "direction,x,y,depth,delta"
        assert len(scans) == 7  # 2 directions x 1 pair x 3 depths

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = self._config(tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", cfg, "--out", str(r1),
                     "--jobs", "1"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(r2),
                     "--jobs", "3"]) == 0
        assert (r1 / "report.json").read_bytes() == \
            (r2 / "report.json").read_bytes()
        assert (r1 / "scans.csv").read_bytes() == (r2 / "scans.csv").read_bytes()

    def test_spec_path_resolved_relative_to_config(self, tmp_path):
        _write(tmp_path / "group.json", F2_SPEC)
        doc = dict(TINY_CONFIG, spec_path="group.json")
        cfg = _write(tmp_path / "config.json", doc)
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 0
        assert (run / "report.json").exists()

    def test_seed_override_changes_config_hash(self, tmp_path):
        cfg = self._config(tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", cfg, "--out", str(r1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(r2),
                     "--seed", "99"]) == 0
        h1 = json.loads((r1 / "report.json").read_text())["config_hash"]
        h2 = json.loads((r2 / "report.json").read_text())["config_hash"]
        assert h1 != h2

    def test_non_geodesic_direction_exits_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = self._config(tmp_path, directions=["a", "a:a'"])
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 1
        assert "not geodesic" in capsys.readouterr().err

    def test_missing_spec_is_an_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "config.json", dict(TINY_CONFIG))
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 1
        assert "no group spec" in capsys.readouterr().err

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path, typo_key=1)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestReport:
    def test_round_trip_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path / "config.json",
                     dict(TINY_CONFIG, spec=F2_SPEC))
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["report", str(run)]) == 0
        md = (run / "summary.md").read_text()
        assert "status: **pass**" in md
        assert "| nu | 0 |" in md
        csv_lines = (run / "delta_vs_depth.csv").read_text().splitlines()
        assert csv_lines[0] == "depth,pairs,min_delta,median_delta,max_delta"
        assert len(csv_lines) == 4  # one row per configured depth

    def test_aggregation_is_deterministic(self, tmp_path):
        cfg = _write(tmp_path / "config.json",
                     dict(TINY_CONFIG, spec=F2_SPEC))
        run = tmp_path / "run"
        main(["verify", "--config", cfg, "--out", str(run)])
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["report", str(run), "--out", str(out1)]) == 0
        assert main(["report", str(run), "--out", str(out2)]) == 0
        assert (out1 / "summary.md").read_bytes() == \
            (out2 / "summary.md").read_bytes()

    def test_missing_report_named(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 1
        err = capsys.readouterr().err
        assert "report.json" in err and "nowhere" in err
