"""End-to-end acceptance: one verdict line per advertised guarantee.

Each test exercises one headline criterion on the shipped configs at full
size and prints its own PASS/FAIL line (run with ``pytest -v`` for the
per-criterion report, add ``-s`` to see the lines as they happen).  The
expensive suite runs are shared across criteria through session fixtures,
not repeated per test; the module takes about 10 s on a 2-core Xeon.
"""

from __future__ import annotations

import functools
import hashlib
import math
import pathlib
import random
import time
from dataclasses import replace

import pytest

from relbundles import cli
from relbundles.cli import load_config
from relbundles.groups import build_group, load_spec, shortlex_key
from relbundles.relgraph import DistanceOracle, RelativeGraph
from relbundles.geodesics import direction_from_text, enumerate_geodesics, geodesic_dag
from relbundles.hyperbolicity import bound_B, bound_K
from relbundles.bundles import DirectionPipeline, symdiff_scan
from relbundles.coding import (
    RestrictedLabel,
    c_eta_window,
    check_lemma418,
    h_n_window,
    s_n_eta,
    t_n_and_g_n,
)
from relbundles.suite import (
    arithmetic_violations,
    coding_depth,
    oracle_equivalence_violations,
    order_property_violations,
    run_suite,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SPECS = ROOT / "specs"

TREE_BUDGET = 60.0
BOUNDS_BUDGET = 600.0
SCAN_BUDGET = 900.0


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def _oracle(spec_name: str) -> DistanceOracle:
    group = build_group(load_spec(str(SPECS / spec_name)))
    return DistanceOracle(RelativeGraph(group))


def _checks(report, prefix: str):
    return [c for c in report.checks if c.id.startswith(prefix)]


def _failures(report):
    return [c.id for c in report.checks if c.status == "fail"]


@pytest.fixture(scope="session")
def tree_run():
    cfg = load_config(str(CONFIGS / "f2_tree.json"))
    start = time.monotonic()
    report = run_suite(cfg)
    return cfg, report, time.monotonic() - start


@pytest.fixture(scope="session")
def bounds_runs():
    runs = {}
    for name in ("z3z2_bounds.json", "f2_redundant_bounds.json"):
        cfg = load_config(str(CONFIGS / name))
        start = time.monotonic()
        runs[name] = (cfg, run_suite(cfg), time.monotonic() - start)
    return runs


# ---------------------------------------------------------------------------
# 1. free-group tree: everything is exact and closed-form


def test_criterion_1_tree_suite_is_exact(tree_run):
    cfg, report, elapsed = tree_run
    start = time.monotonic()
    oracle = _oracle("f2_standard.json")
    problems = []

    want = {"nu": 0, "nu_rel": 0, "nu_abs": 0, "B": 1, "K": 1}
    if report.constants != want:
        problems.append(f"constants {report.constants} != {want}")
    if _failures(report) or report.status() != "pass":
        problems.append(f"status {report.status()}, failures {_failures(report)}")
    for check in _checks(report, "layer-bound["):
        if any(width != 1 for width in check.details["profile"]):
            problems.append(f"{check.id} profile {check.details['profile']}")

    # |Geo₁(e) Δ Geo₁(b)| along (a)^∞ equals d(e,b) = 1 at every depth
    direction = direction_from_text(oracle.graph, "a")
    pipe = DirectionPipeline(oracle, direction, nu=0)
    scan = symdiff_scan(pipe, (), oracle.group.parse("b"), list(range(2, 11)))
    if [delta for _, delta in scan.rows] != [1] * 9:
        problems.append(f"symdiff rows {scan.rows}")

    # windows along (a)^∞ from e: zero matrices, powers of a, g_n = e
    depth = coding_depth(direction, 4, pipe.margin)
    for n in range(1, 5):
        window = c_eta_window(pipe, depth, n)
        s_n = s_n_eta(window, depth // 2)
        t_n, g_n = t_n_and_g_n(oracle, window, s_n)
        cutoff = depth - n - pipe.margin
        zero = RestrictedLabel(n, tuple(tuple(0 for _ in range(n))
                                        for _ in range(n)))
        powers = tuple(tuple([1] * k) for k in range(cutoff + 1))
        if s_n != zero:
            problems.append(f"s_{n} not the zero matrix")
        if t_n != powers or g_n != ():
            problems.append(f"T_{n}/g_{n} not the a-power chain from e")
        h_n = h_n_window(oracle, window, t_n)
        if h_n.elements != tuple(sorted(powers)) or h_n.complete_radius != cutoff:
            problems.append(f"H_{n} not the a-power chain to radius {cutoff}")

    total = elapsed + (time.monotonic() - start)
    if total >= TREE_BUDGET:
        problems.append(f"{total:.1f}s over the {TREE_BUDGET:.0f}s budget")
    _verdict("criterion 1 (tree suite exact)", not problems,
             "; ".join(problems) or
             f"{len(report.checks)} checks, constants pinned, {total:.1f}s")


# ---------------------------------------------------------------------------
# 2. layer bound (6ν̂+1)|B_X^ν̂(e)| across two generating setups


BOUNDS_SPECS = {
    "z3z2_bounds.json": "z3z2_rel_factors.json",
    "f2_redundant_bounds.json": "f2_redundant.json",
}


def test_criterion_2_layer_bounds_hold(bounds_runs):
    problems = []
    total = 0.0
    for name, (cfg, report, took) in bounds_runs.items():
        total += took
        if len(cfg.directions) < 10 or len(cfg.bases) < 3 or cfg.depth != 10:
            problems.append(f"{name}: matrix too small")
        slim = _checks(report, "slimness")[0]
        if slim.details["exhaustive_radius"] != 3:
            problems.append(f"{name}: exhaustive sweep radius "
                            f"{slim.details['exhaustive_radius']}")
        if slim.details["triangles_checked"] < 10_000:
            problems.append(f"{name}: only {slim.details['triangles_checked']}"
                            " triangles")
        graph = _oracle(BOUNDS_SPECS[name]).absolute.graph
        nu = report.constants["nu"]
        ball = graph.ball((), nu)
        if report.constants["B"] != (6 * nu + 1) * len(ball.entries):
            problems.append(f"{name}: B != (6ν+1)|B_X^ν(e)|")
        layer_checks = _checks(report, "layer-bound[")
        if len(layer_checks) != len(cfg.directions) * len(cfg.bases):
            problems.append(f"{name}: {len(layer_checks)} layer checks")
        for check in layer_checks:
            if check.status == "fail" or \
                    max(check.details["profile"]) > report.constants["B"]:
                problems.append(f"{name}: {check.id} breaks the bound")
        if _failures(report):
            problems.append(f"{name}: failures {_failures(report)}")
    if total >= BOUNDS_BUDGET:
        problems.append(f"{total:.1f}s over the {BOUNDS_BUDGET:.0f}s budget")
    _verdict("criterion 2 (layer bounds)", not problems,
             "; ".join(problems) or
             f"two families, zero violations, {total:.1f}s")


# ---------------------------------------------------------------------------
# 3. symmetric differences stabilize by depth 12


def test_criterion_3_symmetric_differences_stabilize(bounds_runs):
    problems = []
    total = 0.0
    for name, (cfg, report, took) in bounds_runs.items():
        total += took
        scans = _checks(report, "scan[")
        expected = len(cfg.directions) * math.comb(len(cfg.bases), 2)
        if len(scans) != expected:
            problems.append(f"{name}: {len(scans)} scans, expected {expected}")
        if max(cfg.scan_depths) != 12:
            problems.append(f"{name}: scan depths {cfg.scan_depths}")
        for check in scans:
            if check.details["verdict"] != "stabilized":
                problems.append(f"{name}: {check.id} "
                                f"{check.details['verdict']}")
            deltas = [delta for _, delta in check.details["rows"]]
            if len(set(deltas[-3:])) != 1:
                problems.append(f"{name}: {check.id} tail {deltas}")
    if total >= SCAN_BUDGET:
        problems.append(f"{total:.1f}s over the {SCAN_BUDGET:.0f}s budget")
    _verdict("criterion 3 (scan stabilization)", not problems,
             "; ".join(problems) or
             f"60 scans stabilized by depth 12, {total:.1f}s")


# ---------------------------------------------------------------------------
# 4. window translators: d(e,g) ≤ 8ν̂ and at most (20ν̂+1)B̂ matches per pair


def _h_window(spec_name: str, text: str, n: int):
    oracle = _oracle(spec_name)
    direction = direction_from_text(oracle.graph, text)
    pipe = DirectionPipeline(oracle, direction, nu=0)
    depth = coding_depth(direction, n, pipe.margin)
    window = c_eta_window(pipe, depth, n)
    s_n = s_n_eta(window, depth // 2)
    t_n, _ = t_n_and_g_n(oracle, window, s_n)
    return h_n_window(oracle, window, t_n)


def test_criterion_4_window_translators_bounded(bounds_runs):
    problems = []
    paired = 0
    for name, (cfg, report, _) in bounds_runs.items():
        for check in _checks(report, "lemma418["):
            paired += 1
            if check.details["n"] > 4:
                problems.append(f"{name}: {check.id} beyond n=4")
            if check.details["distance_violations"]:
                problems.append(f"{name}: {check.id} distance violations "
                                f"{check.details['distance_violations']}")
            if len(check.details["matches"]) > check.details["count_bound"]:
                problems.append(f"{name}: {check.id} too many matches")
            if check.status == "fail":
                problems.append(f"{name}: {check.id} failed")
    # a few deeper pairings than the suites schedule
    oracle = _oracle("z3z2_rel_factors.json")
    k0 = bound_K(0, bound_B(oracle, 0))
    for eta, theta in (("a b", "b a"), ("a' b", "b a'")):
        for n in (3, 4):
            paired += 1
            result = check_lemma418(oracle,
                                    _h_window("z3z2_rel_factors.json", eta, n),
                                    _h_window("z3z2_rel_factors.json", theta, n),
                                    nu=0)
            if result.distance_violations:
                problems.append(f"deep pair {eta}|{theta} n={n} violated")
            if len(result.matches) > k0:
                problems.append(f"deep pair {eta}|{theta} n={n} overfull")
    if paired < 20:
        problems.append(f"only {paired} paired comparisons")
    _verdict("criterion 4 (window translators)", not problems,
             "; ".join(problems) or
             f"{paired} paired comparisons, zero violations")


# ---------------------------------------------------------------------------
# 5. coding coherence, threshold insensitivity, label equivariance


def _ladder_problems(spec_name: str, text: str) -> list[str]:
    oracle = _oracle(spec_name)
    direction = direction_from_text(oracle.graph, text)
    pipe = DirectionPipeline(oracle, direction, nu=0)
    depth = coding_depth(direction, 5, pipe.margin)
    problems = []
    prev_s = prev_t = None
    for n in range(1, 6):
        window = c_eta_window(pipe, depth, n)
        s_n = s_n_eta(window, depth // 2)
        if n <= 4 and s_n != s_n_eta(window, 2 * depth // 3):
            problems.append(f"{text}: s_{n} threshold-sensitive")
        t_n, _ = t_n_and_g_n(oracle, window, s_n)
        if prev_s is not None and s_n.restrict(n - 1) != prev_s:
            problems.append(f"{text}: s_{n} does not restrict to s_{n - 1}")
        if prev_t is not None and not set(t_n) <= set(prev_t):
            problems.append(f"{text}: T_{n} not nested in T_{n - 1}")
        prev_s, prev_t = s_n, t_n
    return problems


def _equivariance_mismatches(spec_name: str, samples: int, seed: int) -> tuple[int, int]:
    oracle = _oracle(spec_name)
    group, graph = oracle.group, oracle.graph
    rng = random.Random(seed)
    pool = sorted(graph.ball((), 3).entries, key=shortlex_key)
    shifts = sorted(graph.ball((), 2).entries, key=shortlex_key)
    bad = done = 0
    while done < samples:
        u, v = rng.choice(pool), rng.choice(pool)
        if u == v:
            continue
        g = rng.choice(shifts)
        dag = geodesic_dag(oracle, u, v)
        moved = geodesic_dag(oracle, group.multiply(g, u),
                             group.multiply(g, v))
        paths, _ = enumerate_geodesics(dag, max_count=2)
        for path in paths:
            if done >= samples:
                break
            done += 1
            translated = [group.multiply(g, w) for w in path.vertices]
            for symbol, ga, gb in zip(path.symbols, translated,
                                      translated[1:]):
                if (symbol, gb) not in moved.successors.get(ga, ()):
                    bad += 1
                    break
    return bad, done


def test_criterion_5_coding_coherent_and_equivariant():
    problems = []
    for spec_name, text in (("f2_standard.json", "a"),
                            ("z3z2_rel_factors.json", "a b"),
                            ("f2_redundant.json", "ab")):
        problems.extend(_ladder_problems(spec_name, text))
    sampled = 0
    for spec_name, quota in (("f2_standard.json", 334),
                             ("z3z2_rel_factors.json", 333),
                             ("f2_redundant.json", 333)):
        bad, done = _equivariance_mismatches(spec_name, quota, seed=2026)
        sampled += done
        if bad:
            problems.append(f"{spec_name}: {bad} label-equivariance mismatches")
    if sampled < 1000:
        problems.append(f"only {sampled} equivariance samples")
    _verdict("criterion 5 (coding coherence)", not problems,
             "; ".join(problems) or
             f"ladders to n=5 coherent, {sampled} equivariant translations")


# ---------------------------------------------------------------------------
# 6. the <_n order survives extension


def test_criterion_6_order_extension_monotone():
    bad = order_property_violations(10_000, seed=2026)
    _verdict("criterion 6 (order extension)", bad == 0,
             f"{bad} violations over exhaustive n=1 plus 10000 samples")


# ---------------------------------------------------------------------------
# 7. independent referees: geodesic enumeration and group arithmetic


def test_criterion_7_independent_referees_agree():
    allocation = (
        ("f2_standard.json", 300),
        ("f2_redundant.json", 200),
        ("z3z2_rel_factors.json", 300),
        ("z6_table.json", 140),
        ("genus2_surface.json", 60),
    )
    assert sum(quota for _, quota in allocation) == 1000
    problems = []
    for spec_name, quota in allocation:
        bad = oracle_equivalence_violations(_oracle(spec_name), quota,
                                            max_distance=5, seed=2026)
        if bad:
            problems.append(f"{spec_name}: {bad} enumeration mismatches")
    for spec_name in ("f2_standard.json", "z6_table.json"):
        bad = arithmetic_violations(_oracle(spec_name).group, 6)
        if bad:
            problems.append(f"{spec_name}: {bad} arithmetic mismatches")
    _verdict("criterion 7 (independent referees)", not problems,
             "; ".join(problems) or
             "1000 enumeration pairs and all words to length 6 agree")


# ---------------------------------------------------------------------------
# 8. verdicts do not depend on the order the checks run in


def test_criterion_8_reports_deterministic(bounds_runs):
    cfg, report, _ = bounds_runs["z3z2_bounds.json"]
    rerun = run_suite(replace(cfg, bases=cfg.bases[::-1]))
    theirs = {c.id: c for c in rerun.checks}
    problems = []
    if rerun.constants != report.constants:
        problems.append("constants differ")
    if len(rerun.checks) != len(report.checks):
        problems.append(f"{len(rerun.checks)} checks, "
                        f"expected {len(report.checks)}")
    same = twins = 0
    for check in report.checks:
        if check.id in theirs:
            same += 1
            if theirs[check.id] != check:
                problems.append(f"{check.id} differs")
            continue
        d, x, y = (check.details[k] for k in ("direction", "x", "y"))
        twin = theirs.get(f"scan[{d}|{y}|{x}]")
        twins += 1
        if twin is None or (twin.status, twin.summary, twin.details) != (
                check.status, check.summary, dict(check.details, x=y, y=x)):
            problems.append(f"{check.id} has no matching swapped twin")
    if not twins:
        problems.append("reversing the bases moved no scan")
    _verdict("criterion 8 (determinism)", not problems,
             "; ".join(problems) or
             f"bases reversed: {same} checks identical, {twins} scans "
             f"match their swapped twins")


# `verify --config configs/<name>` at the config seed (11), then `report`
# of that run, sha256[:16].
BOUNDS_DIGESTS = {
    "z3z2_bounds.json": {"report.json": "49fdcef7210b2bb8",
                         "scans.csv": "61964f90a1cdb8b7",
                         "summary.md": "19fa1ba1035e5d2c",
                         "delta_vs_depth.csv": "e619b7dedda22191"},
    "f2_redundant_bounds.json": {"report.json": "5e9321d56c44852a",
                                 "scans.csv": "d505373429fdb275",
                                 "summary.md": "ad3e02fbb4bd0007",
                                 "delta_vs_depth.csv": "f8d68328cd02cf33"},
}


def test_criterion_8_bounds_report_bytes_pinned(bounds_runs, tmp_path):
    """The files `verify` and then `report` write for the bounds configs
    keep their bytes.  The run's files come from `cli.verify_files`, so no
    suite runs again."""
    problems = []
    for name, (_, report, _) in bounds_runs.items():
        run = tmp_path / name
        run.mkdir()
        for file, text in cli.verify_files(report).items():
            (run / file).write_text(text, encoding="utf-8", newline="")
        if cli.main(["report", str(run)]) != 0:
            problems.append(f"{name}: report exited nonzero")
        for file, want in BOUNDS_DIGESTS[name].items():
            got = hashlib.sha256((run / file).read_bytes()).hexdigest()[:16]
            if got != want:
                problems.append(f"{name} {file} is {got}, pinned {want}")
    _verdict("criterion 8 (pinned report bytes)", not problems,
             "; ".join(problems) or
             f"report.json, scans.csv, summary.md and delta_vs_depth.csv "
             f"match on {len(bounds_runs)} configs")


# ---------------------------------------------------------------------------
# 9. the bounds where they bite: ℤ₆∗ℤ₂ has ν̂ = 1 and branching bundles


def test_criterion_9_bounds_hold_beyond_nu_zero():
    cfg = load_config(str(CONFIGS / "z6z2_bounds.json"))
    start = time.monotonic()
    report = run_suite(cfg)
    took = time.monotonic() - start
    problems = []
    want = {"nu": 1, "nu_rel": 1, "nu_abs": 1, "B": 28, "K": 588}
    if report.constants != want:
        problems.append(f"constants {report.constants} != {want}")
    graph = _oracle("z6z2_free.json").absolute.graph
    if report.constants["B"] != 7 * len(graph.ball((), 1).entries):
        problems.append("B != (6ν+1)|B_X^ν(e)|")
    if report.status() != "pass" or len(report.checks) != 42:
        problems.append(f"status {report.status()} over "
                        f"{len(report.checks)} checks")
    for check in _checks(report, "layer-bound["):
        widest = 2 if check.id.startswith("layer-bound[t t t b|") else 1
        if max(check.details["profile"]) != widest:
            problems.append(f"{check.id} profile {check.details['profile']}")
    if took >= BOUNDS_BUDGET:
        problems.append(f"{took:.1f}s over the {BOUNDS_BUDGET:.0f}s budget")
    _verdict("criterion 9 (bounds beyond ν̂ = 0)", not problems,
             "; ".join(problems) or
             f"42 checks pass at ν̂ = 1, B = 28, K = 588, {took:.1f}s")
