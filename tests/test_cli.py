"""End-to-end command-line behavior on temp directories, in-process."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relbundles import cli, suite
from relbundles.bundles import StabilizationError
from relbundles.cli import _build_parser, main
from relbundles.groups import (
    DehnReductionError,
    SpecError,
    build_group,
    spec_from_dict,
)
from relbundles.relgraph import DistanceOracle, RelativeGraph, ResourceLimitError

ROOT = Path(__file__).resolve().parent.parent
F2_Z_PARABOLIC = str(ROOT / "specs" / "f2_z_parabolic.json")
INFINITE_PARABOLIC_ERROR = ("error: parabolic factor 1 (t) is infinite: "
                            "infinite parabolic subgroups are not supported\n")
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
# one relator of odd length has no half swaps, so its oracle searches a ball
ODD_SPEC = {
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b c d a' b' c' d' a"],
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

    def test_parabolic_slot_order_is_immaterial(self, tmp_path, capsys):
        """Parabolic labels come by slot, not by declaration order.  In
        ℤ₄∗ℤ₄ the squares a a and b b are carried by no generator, so
        they are the last two symbols either way."""
        def z4(gen):
            mul = [[(i + j) % 4 for j in range(4)] for i in range(4)]
            return {"family": "finite-table",
                    "table": {"size": 4, "mul": mul, "generators": {gen: 1}}}
        seen = []
        for order in ([0, 1], [1, 0]):
            spec = {"family": "free-product", "factors": [z4("a"), z4("b")],
                    "parabolics": order}
            graph = RelativeGraph(build_group(spec_from_dict(spec)))
            path = _write(tmp_path / "z4z4.json", spec)
            assert main(["validate-spec", "--spec", path]) == 0
            size = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("relative alphabet size")]
            labels = [graph.format_symbol(i)
                      for i in range(len(graph.step_words))]
            seen.append((graph.alphabet, labels, size))
        assert seen[0] == seen[1]
        assert seen[0][1][-2:] == ["H0:a a", "H1:b b"]
        assert seen[0][2] == ["relative alphabet size: 10"]


MALFORMED = [
    pytest.param("spec", "{not json", id="spec-not-json"),
    pytest.param("spec", "[1, 2]", id="spec-not-object"),
    pytest.param("spec", json.dumps({"family": "finite-table",
                                     "table": {"mul": [[0]], "generators": {}}}),
                 id="table-without-size"),
    pytest.param("spec", json.dumps(dict(Z3Z2_SPEC, parabolics=["x"])),
                 id="parabolic-not-integer"),
    pytest.param("spec", json.dumps({"family": "free", "generators": "ab"}),
                 id="generators-not-list"),
    pytest.param("config", "{not json", id="config-not-json"),
    pytest.param("config", json.dumps(dict(TINY_CONFIG, depth="ten")),
                 id="depth-not-integer"),
    pytest.param("config", json.dumps(dict(TINY_CONFIG, scan_depths=[8, 10, "x"])),
                 id="scan-depth-not-integer"),
    pytest.param("config", json.dumps(dict(TINY_CONFIG, directions="a")),
                 id="directions-not-list"),
]


@pytest.mark.parametrize("kind, text", MALFORMED)
def test_malformed_input_is_one_error_line(tmp_path, capsys, f2_spec_file,
                                           kind, text):
    """A file that is not the JSON document it should be gives exit 1 and
    one error line, not a traceback."""
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    if kind == "spec":
        argv = ["validate-spec", "--spec", str(doc)]
    else:
        argv = ["verify", "--config", str(doc), "--spec", f2_spec_file,
                "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestExplore:
    def test_ball_emits_dot_json_csv(self, f2_spec_file, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(["explore", "ball", "e", "3", "--spec", f2_spec_file,
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "ball_r3.json").read_text())
        assert doc["vertex_count"] == 53  # 1 + 4 + 12 + 36
        dot = (out / "ball_r3.dot").read_text()
        assert dot.startswith("graph ball {")
        csv_lines = (out / "ball_r3.csv").read_text().splitlines()
        assert csv_lines[0] == "vertex,distance"
        assert len(csv_lines) == 54

    def test_ball_reruns_identical(self, f2_spec_file, tmp_path):
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        args = ["explore", "ball", "e", "2", "--spec", f2_spec_file]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("ball_r2.json", "ball_r2.dot", "ball_r2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dag_layered_dot(self, z3z2_spec_file, tmp_path):
        out = tmp_path / "art"
        assert main(["explore", "dag", "e", "a b a", "--spec", z3z2_spec_file,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "dag.json").read_text())
        assert doc["length"] == 3
        assert doc["layer_sizes"] == [1, 1, 1, 1]
        assert "rank=same" in (out / "dag.dot").read_text()

    def test_dag_longer_than_the_recursion_limit(self, f2_spec_file,
                                                 tmp_path):
        word = " ".join(["a"] * 2100)
        assert main(["explore", "dag", "e", word, "--spec", f2_spec_file,
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "dag.json").read_text())
        assert doc["length"] == 2100
        assert doc["geodesic_count"] == 1 and not doc["count_truncated"]

    def test_bundle_deeper_than_the_recursion_limit(self, f2_spec_file,
                                                    tmp_path):
        """The pipeline walks its ray in a loop, so a target far past the
        recursion limit is reached."""
        depth = sys.getrecursionlimit() + 200
        assert main(["explore", "bundle", "e", "a", str(depth), "--spec",
                     f2_spec_file, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "bundle.json").read_text())
        assert doc["layer_profile"] == [1] * (depth + 1)

    @pytest.mark.parametrize("spec, args, name, label, digest", [
        ("z3z2_rel_factors", ["dag", "e", "a b a"], "dag.dot", "a|H0:a",
         "b0def84c53cf80c353d940fd5f772c0e591b133ab477c0c59f5e0fec523e2f9a"),
        ("z3z2_rel_factors", ["ball", "e", "2"], "ball_r2.dot", "a|H0:a",
         "290ecca67b9b94307259767838743b047a92f103c431a462c209af655443a9c0"),
        # from t, symbol order reaches t t before e; layer order puts e first
        ("z6z2_free", ["dag", "t b t'", "t' t'"], "dag.dot", "b|b'",
         "03fe7b196adc8881a0c5dc1f783626fc59b9e1188cbf41679bc1a11f6046388b"),
    ], ids=["z3z2-dag", "z3z2-ball", "z6z2-dag"])
    def test_parallel_label_dot_pinned(self, tmp_path, spec, args, name,
                                       label, digest):
        """DOT edges print every parallel label, such as `a|H0:a` in ℤ₃∗ℤ₂,
        and a DAG's edges in layer order; the files keep their bytes."""
        spec = str(ROOT / "specs" / f"{spec}.json")
        assert main(["explore", *args, "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        dot = (tmp_path / name).read_bytes()
        assert f'label="{label}"'.encode() in dot
        assert hashlib.sha256(dot).hexdigest() == digest

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

    def test_branching_bundle_layers_pinned(self, tmp_path):
        """Layers are written as the DAG stores them, in shortlex order."""
        spec = str(ROOT / "specs" / "z6z2_free.json")
        assert main(["explore", "bundle", "e", "t t t b", "10", "--spec", spec,
                     "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "bundle.json").read_bytes()
        doc = json.loads(raw)
        assert doc["layer_profile"] == [1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2]
        assert doc["layers"][1] == ["t", "t'"]
        assert hashlib.sha256(raw).hexdigest() == (
            "ec110215a55bfcbea8695a57d3ba64e84937c6ae0a6b4127df9f0ffd591af8f0")

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

    @pytest.mark.parametrize("args, name", [
        (["ball", "e", "x"], "RADIUS"),
        (["bundle", "e", "a", "x"], "DEPTH"),
        (["geo1", "e", "a", "2.5"], "DEPTH"),
    ])
    def test_non_integer_size_is_an_error(self, f2_spec_file, tmp_path,
                                          capsys, args, name):
        assert main(["explore", *args, "--spec", f2_spec_file,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be an integer")
        assert "Traceback" not in err

    @pytest.mark.parametrize("error", [ResourceLimitError, DehnReductionError])
    def test_search_errors_exit_one(self, tmp_path, capsys, monkeypatch,
                                    error):
        def search(*args, **kwargs):
            raise error("search gave up")
        monkeypatch.setattr(DistanceOracle, "_ball_search", search)
        spec = _write(tmp_path / "odd.json", ODD_SPEC)
        assert main(["explore", "dag", "e", "a b a' b'", "--spec", spec,
                     "--out", str(tmp_path / "art")]) == 1
        assert capsys.readouterr().err == "error: search gave up\n"


class TestInfiniteParabolic:
    """Every entry point rejects an infinite parabolic with one error line,
    no traceback and exit code 1."""

    @pytest.mark.parametrize("argv", [
        ["validate-spec"],
        ["explore", "ball", "e", "2"],
        ["explore", "dag", "e", "a t"],
    ])
    def test_rejected(self, tmp_path, capsys, argv):
        if argv[0] == "explore":
            argv = argv + ["--out", str(tmp_path / "art")]
        assert main(argv + ["--spec", F2_Z_PARABOLIC]) == 1
        assert capsys.readouterr().err == INFINITE_PARABOLIC_ERROR

    def test_verify_rejects_before_the_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = _write(tmp_path / "config.json", dict(TINY_CONFIG))
        assert main(["verify", "--config", cfg, "--spec", F2_Z_PARABOLIC,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == INFINITE_PARABOLIC_ERROR
        assert not (tmp_path / "run").exists()


# ℤ₃∗ℤ₂ with both factors coned and the word a b adjoined
CONED_ADJOINED_SPEC = dict(Z3Z2_SPEC, redundant_generators=["a b"])
CONED_ADJOINED_ERROR = ("error: a free product with parabolics must not "
                        "adjoin redundant generators\n")


class TestParabolicBesideAdjoinedWords:
    """A coned free product with an adjoined word is rejected before any
    work, with one error line and exit code 1."""

    def test_validate_spec_rejected(self, tmp_path, capsys):
        spec = _write(tmp_path / "coned.json", CONED_ADJOINED_SPEC)
        assert main(["validate-spec", "--spec", spec]) == 1
        assert capsys.readouterr().err == CONED_ADJOINED_ERROR

    def test_verify_rejects_before_the_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        spec = _write(tmp_path / "coned.json", CONED_ADJOINED_SPEC)
        cfg = _write(tmp_path / "config.json", dict(TINY_CONFIG))
        assert main(["verify", "--config", cfg, "--spec", spec,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == CONED_ADJOINED_ERROR
        assert not (tmp_path / "run").exists()


KLEIN_BOTTLE_SPEC = {
    "family": "small-cancellation",
    "generators": ["a", "b"],
    "relators": ["a b a b'"],
}
KLEIN_BOTTLE_ERROR = ("error: presentation fails the C'(1/6) metric "
                      "condition: piece a has ratio 1/4\n")


class TestNotSmallCancellation:
    """A presentation that fails C'(1/6) is rejected before any work, with
    one error line and exit code 1: Dehn's algorithm would contradict
    itself on it."""

    def test_explore_rejected(self, tmp_path, capsys):
        spec = _write(tmp_path / "klein.json", KLEIN_BOTTLE_SPEC)
        assert main(["explore", "dag", "e", "a a b", "--spec", spec,
                     "--out", str(tmp_path / "art")]) == 1
        assert capsys.readouterr().err == KLEIN_BOTTLE_ERROR
        assert not (tmp_path / "art").exists()

    def test_validate_spec_reports_then_rejects(self, tmp_path, capsys):
        spec = _write(tmp_path / "klein.json", KLEIN_BOTTLE_SPEC)
        assert main(["validate-spec", "--spec", spec]) == 1
        captured = capsys.readouterr()
        assert "max piece ratio: 1/4" in captured.out
        assert captured.err == KLEIN_BOTTLE_ERROR

    def test_verify_rejects_before_the_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        spec = _write(tmp_path / "klein.json", KLEIN_BOTTLE_SPEC)
        cfg = _write(tmp_path / "config.json", dict(TINY_CONFIG))
        assert main(["verify", "--config", cfg, "--spec", spec,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == KLEIN_BOTTLE_ERROR
        assert not (tmp_path / "run").exists()


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

    def test_reruns_give_identical_bytes(self, tmp_path):
        cfg = self._config(tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", cfg, "--out", str(r1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(r2)]) == 0
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

    @pytest.mark.parametrize("error", [ResourceLimitError, DehnReductionError])
    def test_sweep_errors_exit_one(self, tmp_path, capsys, monkeypatch, error):
        def sweep(*args, **kwargs):
            raise error("sweep gave up")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = self._config(tmp_path)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: sweep gave up\n"

    @pytest.mark.parametrize("bad", [{"depth": 1},
                                     {"arithmetic_length": -1},
                                     {"directions": []},
                                     {"bases": []},
                                     {"scan_depths": []},
                                     {"scan_depths": [4, 6]},
                                     {"scan_depths": [4, 4, 4]},
                                     {"scan_depths": [4, 8, 6]},
                                     {"bases": ["e", "e"]}])
    def test_bad_numbers_exit_before_the_sweep(self, tmp_path, capsys,
                                               monkeypatch, bad):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = self._config(tmp_path, **bad)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 1
        assert next(iter(bad)) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("repeat, error", [
        ({"bases": ["e", "a a'"]}, "error: bases 'e' and \"a a'\" parse alike\n"),
        ({"directions": ["a b", "a  b"]},
         "error: directions 'a b' and 'a  b' parse alike\n"),
    ])
    def test_entries_that_parse_alike_exit_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, repeat, error):
        def sweep(*args, **kwargs):
            raise AssertionError("slimness sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = self._config(tmp_path, **repeat)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == error
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("directions, error", [
        (["a", "a:a"], "error: directions 'a' and 'a:a' parse alike\n"),
        (["a b", "a:b a"], "error: directions 'a b' and 'a:b a' parse alike\n"),
        (["a b'", "a b' a b'"],
         "error: directions \"a b'\" and \"a b' a b'\" parse alike\n"),
        (["a", "b:a", "a b", "a b:a"], "error: sweep reached\n"),
    ])
    def test_directions_compare_as_symbol_words(self, tmp_path, capsys,
                                                monkeypatch, directions,
                                                error):
        """Two spellings of one infinite symbol word are one direction;
        different words, even toward one boundary point, are not."""
        def sweep(*args, **kwargs):
            raise ResourceLimitError("sweep reached")
        monkeypatch.setattr(suite, "estimate_nu", sweep)
        cfg = self._config(tmp_path, directions=directions)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == error

    def test_raising_scan_is_flagged_and_other_rows_kept(
            self, tmp_path, capsys, monkeypatch):
        real = suite.symdiff_scan

        def scan(pipe, x, y, depths):
            if pipe.direction.display() == "b":
                raise StabilizationError("no stable ray here")
            return real(pipe, x, y, depths)
        monkeypatch.setattr(suite, "symdiff_scan", scan)
        cfg = self._config(tmp_path)
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 2
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads((run / "report.json").read_text())
        assert len(lines) == len(doc["checks"]) + 1
        assert "flagged      scan[b|e|b]: no stable ray here" in lines
        assert lines[-1].startswith("suite status: flagged")
        assert (run / "scans.csv").read_text().splitlines() == [
            "direction,x,y,depth,delta",
            "a,e,b,4,1", "a,e,b,5,1", "a,e,b,6,1"]
        assert main(["report", str(run)]) == 0
        assert (run / "delta_vs_depth.csv").read_text().splitlines() == [
            "depth,pairs,min_delta,median_delta,max_delta",
            "4,1,1,1,1", "5,1,1,1,1", "6,1,1,1,1"]

    def test_direction_failing_past_the_validated_depth_is_flagged(
            self, tmp_path, capsys):
        """Directions are validated to `depth` before the sweep; a bundle
        deeper than that which meets the bad prefix flags its own check,
        and every other check still runs."""
        bad = "a a a a a a a a a a a:a'"
        cfg = _write(tmp_path / "config.json", {
            "spec_path": str(ROOT / "specs" / "f2_standard.json"),
            "directions": ["a", bad], "depth": 8, "scan_depths": [8, 10, 12],
            "n_max": 1, "exhaustive_radius": 1, "ball_radius": 2,
            "triangle_budget": 10})
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 2
        assert capsys.readouterr().err == ""
        doc = json.loads((run / "report.json").read_text())
        flagged = {c["id"]: c for c in doc["checks"]
                   if c["status"] != "pass"}
        assert sorted(flagged) == [f"coding[{bad}]",
                                   f"lemma418[{bad}|a|n=1]",
                                   f"lemma418[a|{bad}|n=1]"]
        for check in flagged.values():
            assert check["status"] == "flagged"
            assert check["summary"] == (
                f"{bad}: prefix of length 12 reaches a vertex at distance "
                f"10, so the word is not geodesic")
            assert check["details"] == {"error": "DirectionError"}
        assert len(doc["checks"]) == 14

    @pytest.mark.parametrize("out", ["taken", "taken/run"])
    def test_unusable_out_fails_before_the_run(self, tmp_path, capsys,
                                               monkeypatch, out):
        def run_suite(cfg):
            raise AssertionError("suite reached")
        monkeypatch.setattr(cli, "run_suite", run_suite)
        (tmp_path / "taken").write_text("a file\n")
        cfg = self._config(tmp_path)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(tmp_path / "taken") in lines[0]

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

    def test_malformed_report_is_one_error_line(self, tmp_path, capsys):
        """A report.json that lacks a key the summary or the delta table
        reads, or holds one of the wrong type, exits 1 with one error
        line and writes neither output."""
        cfg = _write(tmp_path / "config.json",
                     dict(TINY_CONFIG, spec=F2_SPEC))
        run = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(run)]) == 0
        good = json.loads((run / "report.json").read_text())
        scan = next(i for i, c in enumerate(good["checks"])
                    if c["id"].startswith("scan["))
        no_details = json.loads(json.dumps(good))
        del no_details["checks"][scan]["details"]
        bad_rows = json.loads(json.dumps(good))
        bad_rows["checks"][scan]["details"]["rows"] = [[4]]
        cases = {
            "empty": ({}, "no key 'checks'"),
            "no-constants": ({k: v for k, v in good.items()
                              if k != "constants"}, "no key 'constants'"),
            "no-status": ({k: v for k, v in good.items() if k != "status"},
                          "no key 'status'"),
            "scan-without-details": (no_details, "no key 'details'"),
            "checks-not-a-list": (dict(good, checks=3), "not iterable"),
            "short-row": (bad_rows, "not enough values to unpack"),
        }
        capsys.readouterr()
        for name, (doc, reason) in cases.items():
            bad = tmp_path / name
            bad.mkdir()
            _write(bad / "report.json", doc)
            out = tmp_path / f"{name}-out"
            assert main(["report", str(bad), "--out", str(out)]) == 1, name
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), name
            assert "is not a verify report" in lines[0] and reason in lines[0]
            assert not out.exists(), name


class TestUsage:
    """Parser errors exit 1: exit code 2 means flagged or approximate."""

    def _exit_code(self, argv) -> int:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        return stop.value.code

    def test_missing_required_option(self, capsys):
        assert self._exit_code(["verify"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_removed_cache_dir_option(self, f2_spec_file, tmp_path, capsys):
        assert self._exit_code(["explore", "ball", "e", "2",
                                "--spec", f2_spec_file,
                                "--out", str(tmp_path),
                                "--cache-dir", str(tmp_path / "c")]) == 1
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    def test_removed_format_option(self, f2_spec_file, tmp_path, capsys):
        assert self._exit_code(["explore", "ball", "e", "2",
                                "--spec", f2_spec_file,
                                "--out", str(tmp_path),
                                "--format", "csv"]) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert self._exit_code(["--help"]) == 0
        assert self._exit_code(["verify", "--help"]) == 0
        assert "--config" in capsys.readouterr().out


class TestParserReuse:
    """`main` builds its parser once per process and reuses it: a call
    answers as it would in a process of its own."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def _outcome(self, argv, out, capsys):
        """Exit code, stdout, stderr and the bytes written under `out`."""
        shutil.rmtree(out, ignore_errors=True)
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        written = {str(path.relative_to(out)): path.read_bytes()
                   for path in sorted(out.rglob("*")) if path.is_file()}
        return code, captured.out, captured.err, written

    def test_calls_in_one_process_match_calls_alone(self, z3z2_spec_file,
                                                    tmp_path, capsys):
        out = tmp_path / "out"
        calls = [
            ["explore", "dag", "e", "a b", "--out", str(out)],  # no --spec
            ["--help"],
            ["explore", "dag", "e", "a b a", "--spec", z3z2_spec_file,
             "--out", str(out)],
            ["validate-spec", "--spec", z3z2_spec_file],
        ]
        alone = []
        for argv in calls:
            _build_parser.cache_clear()
            alone.append(self._outcome(argv, out, capsys))
        assert [code for code, *_ in alone] == [1, 0, 0, 0]
        assert "--spec" in alone[0][2] and "usage:" in alone[1][1]
        assert set(alone[2][3]) == {"dag.json", "dag.dot"}
        _build_parser.cache_clear()
        assert [self._outcome(argv, out, capsys) for argv in calls] == alone

    def test_seed_override_is_not_carried_over(self, tmp_path, monkeypatch):
        seeds = []

        def run_suite(cfg):
            seeds.append(cfg.seed)
            raise SpecError("stop before the suite")
        monkeypatch.setattr(cli, "run_suite", run_suite)
        cfg = _write(tmp_path / "config.json", dict(TINY_CONFIG, spec=F2_SPEC))
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "r")]
        assert main(argv + ["--seed", "99"]) == 1
        assert main(argv) == 1
        assert seeds == [99, TINY_CONFIG["seed"]]


def test_import_builds_no_parser():
    """Importing the front end leaves the parser unbuilt, so its cost is
    paid by the first `main` call and not by every import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import relbundles.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def _parser_options() -> set[str]:
    parsers = [_build_parser()]
    options = set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def test_readme_options_exist():
    """Every --option in a README code span or relbundles command line
    is an option of the parser or of one of its subcommands."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("relbundles ")]
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text,
                                              flags=re.S | re.M))
    shown = set()
    for snippet in commands + spans:
        shown.update(re.findall(r"(?<![\w-])--[a-z][a-z-]*", snippet))
    assert shown, "no options found in README.md"
    assert shown <= _parser_options(), sorted(shown - _parser_options())
