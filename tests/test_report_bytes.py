"""The bytes of `report.json` and `scans.csv` are pinned.

`perfbench/references.json` records the sha256[:16] digests of both files
for `verify --seed N` on the shipped benchmark configs; seeds 0 and 5 are
checked here.  `configs/z6z2_bounds.json` is pinned at seed 0 by digests
kept in this file.  A change that alters a report (a reworded summary, a
reordered key, a different verdict) fails here and not only in a
benchmark run.  The reference file is read, never written.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from relbundles.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCES = ROOT / "perfbench" / "references.json"


# A second seed draws other sampled triangles, so the slimness sweep meets
# the two orientations of its geodesics in another order.
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("config", ["perfbench/z3z2_bench.json",
                                    "configs/f2_tree.json"])
def test_report_bytes_match_the_references(config, seed, tmp_path,
                                           monkeypatch, capsys):
    want = json.loads(REFERENCES.read_text())[
        f"verify --config {config} --seed {seed}"]
    assert set(want) == {"report.json", "scans.csv"}
    monkeypatch.chdir(ROOT)
    run = tmp_path / "run"
    assert main(["verify", "--config", config, "--seed", str(seed),
                 "--out", str(run)]) == 0
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()[:16]
           for name in want}
    assert got == want


# ℤ₆∗ℤ₂ is the shipped config whose bundles branch: a ℤ₆ syllable t t t has
# two geodesics.  Digests of `verify --seed 0`, recorded before geodesic
# DAGs were read off syllables.
Z6Z2_SEED0 = {"report.json": "092448168217245a", "scans.csv": "168f4477409dc5d4"}


def test_z6z2_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    run = tmp_path / "run"
    assert main(["verify", "--config", "configs/z6z2_bounds.json",
                 "--seed", "0", "--out", str(run)]) == 0
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()[:16]
           for name in Z6Z2_SEED0}
    assert got == Z6Z2_SEED0
