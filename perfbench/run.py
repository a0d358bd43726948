"""The relbundles benchmark: one workload per run, bodies in fresh processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    tree_verify        relbundles verify --config configs/f2_tree.json
    relfactors_verify  relbundles verify --config perfbench/z3z2_bench.json
                       (configs/z3z2_bounds.json cut to two directions
                       and 2000 triangles)
    surface_dag        relbundles explore dag e V
                           --spec specs/genus2_surface.json
                       for a seeded sequence of 50 targets V

All three pass --seed N to the program's sampler or to the target draw.

--trace 0 repeats the untraced body in fresh processes for about S
seconds (at least twice) and reports the end-to-end metrics.  --trace 1
runs the body traced, untraced and traced again, and reports the
per-layer metrics.  Every operation's exit code and output bytes are
checked; the last line of standard output is one JSON object with the
result.

--record adds the output digests of this run's operations to
perfbench/references.json; it was used once, at the commit that added the
benchmark, for the seeds the file ships.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
REFERENCES = os.path.join(HERE, "references.json")
SEEN = os.path.join(WORK, "seen.json")

VERIFY_CONFIGS = {
    "tree_verify": "configs/f2_tree.json",
    "relfactors_verify": "perfbench/z3z2_bench.json",
}
SURFACE_SPEC = "specs/genus2_surface.json"
# Target radii in turn.  Latency grows three- to fivefold per radius, so
# this mix puts p50 in the middle of the radius-4 share and p90 in the
# middle of the radius-5 share.  On the edge between two shares a
# percentile jumps; near the low end of a share it follows the fastest
# queries, which move most with the machine's speed.
SURFACE_RADII = (2, 3, 4, 4, 4, 4, 4, 4, 5, 5)
SURFACE_QUERIES = 50  # per body: 5 beyond p90, 10 over MIN_BODIES bodies
WORKLOADS = (*VERIFY_CONFIGS, "surface_dag")
MIN_BODIES = 2
SETUP_SAMPLES = 21
WORKER_TIMEOUT_S = 170

CHECK_PREFIX = "suite.check."
CHECK_KINDS = tuple(name[len(CHECK_PREFIX):] for name, _, _ in TARGETS
                    if name.startswith(CHECK_PREFIX))


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed op)."""


# ---------------------------------------------------------------------------
# inputs


def make_ops(workload: str, seed: int, out: str) -> list[dict]:
    """The operations of one body, generated from the seed alone."""
    if workload in VERIFY_CONFIGS:
        argv = ["verify", "--config", VERIFY_CONFIGS[workload],
                "--seed", str(seed)]
        return [_op(argv, out, ["report.json", "scans.csv"], {})]
    ops = []
    for radius, target in surface_targets(seed):
        argv = ["explore", "dag", "e", target, "--spec", SURFACE_SPEC]
        expect = {"dag.json": {"source": "e", "target": target,
                               "length": radius}}
        ops.append(_op(argv, out, ["dag.json"], expect))
    return ops


def _op(argv: list[str], out: str, outputs: list[str], expect: dict) -> dict:
    return {"key": " ".join(argv), "argv": [*argv, "--out", out],
            "out": out, "outputs": outputs, "expect": expect}


def surface_targets(seed: int) -> list[tuple[int, str]]:
    """SURFACE_QUERIES (radius, vertex) pairs, cycling through SURFACE_RADII.

    Vertices are drawn from the spheres of the genus-2 ball, which the
    program itself computes here, outside any timed body.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from relbundles import RELATIVE, RelativeGraph, build_group, load_spec

    group = build_group(load_spec(os.path.join(ROOT, SURFACE_SPEC)))
    ball = RelativeGraph(group).ball((), max(SURFACE_RADII), RELATIVE)
    rng = random.Random(seed)
    targets = []
    for i in range(SURFACE_QUERIES):
        radius = SURFACE_RADII[i % len(SURFACE_RADII)]
        targets.append((radius, group.format(rng.choice(ball.sphere(radius)))))
    return targets


# ---------------------------------------------------------------------------
# bodies


def spawn(workload: str, ops: list[dict], trace: bool) -> dict:
    """Run one body (or, with no ops, set-up only) in a fresh interpreter."""
    job_path = os.path.join(WORK, f"{workload}.job.json")
    result_path = os.path.join(WORK, f"{workload}.result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "ops": ops, "trace": trace}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path,
         result_path, repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker for {workload} exited with "
                         f"{proc.returncode} and no result")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_ops(bodies: list[dict], references: dict, seen: dict) -> list[str]:
    """Failure messages, one per failed operation.

    An operation fails on an exception, a nonzero exit code, a missing
    output, a JSON field that differs from its expected value, or output
    bytes that differ from the recorded reference.  Without a reference the
    bytes must match every other run of the same operation: earlier bodies
    of this run and earlier runs in this checkout (kept in `seen`).
    """
    failures = []
    for body in bodies:
        for op in body["ops"]:
            key, why = op["key"], []
            if op["error"]:
                why.append(op["error"].strip().splitlines()[-1])
            if op["rc"] != 0:
                why.append(f"exit code {op['rc']}")
            why += [f"{name} missing" for name, digest in op["files"].items()
                    if digest is None]
            why += op["mismatches"]
            want = references.get(key) or seen.get(key)
            if want is None and not why:
                seen[key] = op["files"]
            elif want is not None and want != op["files"]:
                why.append("output bytes differ from "
                           + ("the reference" if key in references
                              else "an earlier run"))
            if why:
                failures.append(f"{key}: {'; '.join(why)}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_run(workload: str, ops: list[dict], seconds: float):
    """Untraced bodies for about `seconds`; end-to-end metrics.

    Each body is followed by a set-up-only process, so set-up samples are
    spread over the run like the bodies; more are added at the end when
    the run holds fewer than SETUP_SAMPLES, and the time they will take is
    kept free in the run.  At least MIN_BODIES bodies run.
    """
    start = time.monotonic()
    bodies, setups = [], []
    while True:
        bodies.append(spawn(workload, ops, trace=False))
        between = time.monotonic()
        setups.append(spawn(workload, [], trace=False)["setup_s"])
        setup_cost = time.monotonic() - between
        lap = (time.monotonic() - start) / len(bodies)
        # set-up samples still missing after one more lap
        missing = max(0, SETUP_SAMPLES - 2 * (len(bodies) + 1))
        # Another lap starts if it is due to end no more than half a lap
        # past `seconds`, so that runs last `seconds` on average.
        if (len(bodies) >= MIN_BODIES and time.monotonic() - start + lap / 2
                + missing * setup_cost > seconds):
            break
    setups += [b["setup_s"] for b in bodies]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, [], trace=False)["setup_s"])

    def latency(q):
        # Per body, then the mean: a percentile pooled over bodies jumps
        # between a fast and a slow body's values when machine speed does.
        return statistics.fmean(percentile([op["ms"] for op in b["ops"]], q)
                                for b in bodies)

    metrics = {
        "wall_s": (statistics.fmean(b["wall_s"] for b in bodies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in bodies),
                        "MB"),
        "query_ms.p50": (latency(0.5), "ms"),
        "query_ms.p90": (latency(0.9), "ms"),
    }
    return bodies, metrics, []


def traced_run(workload: str, ops: list[dict]):
    """Two traced bodies around an untraced one; per-layer metrics.

    The untraced body runs between the traced ones so that a drift in
    machine speed moves both sides of the overhead ratio alike.
    """
    first = spawn(workload, ops, trace=True)
    plain = spawn(workload, ops, trace=False)
    second = spawn(workload, ops, trace=True)
    problems = [f"tracer: {where}"
                for where in sorted({*first["unwrapped"],
                                     *second["unwrapped"]})]
    counts, again = _counts(first), _counts(second)
    problems += [f"count differs between traced runs: {name} "
                 f"{counts[name]} vs {again[name]}"
                 for name in counts if counts[name] != again[name]]
    if first["missing"]:
        print("warning: traced functions not found: "
              + ", ".join(first["missing"]), file=sys.stderr)
    overhead = (first["wall_s"] + second["wall_s"]) / 2 / plain["wall_s"]
    metrics = layer_metrics(first["trace"], overhead, len(first["missing"]))
    return [first, plain, second], metrics, problems


def _counts(body: dict) -> dict[str, int]:
    """Every integer the tracer counted; these must repeat exactly."""
    return {f"{name}.{field}": stat[field]
            for name, stat in body["trace"].items()
            for field in ("calls", "nested_calls", "result_sum")}


def layer_metrics(trace: dict, overhead: float, missing: int) -> dict:
    def calls(name):
        return (trace[name]["calls"], "count")

    def secs(name, field):
        return (trace[name][field], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in ("groups.multiply", "relgraph.distance",
                 "relgraph.distance_bfs", "relgraph.neighbors",
                 "relgraph.ball", "geodesics.geodesic_dag",
                 "bundles.geo1", "bundles.classes_from",
                 "coding.c_eta_window"):
        metrics[f"{name}.calls"] = calls(name)
    for name in ("groups.multiply", "relgraph.distance",
                 "relgraph.distance_bfs", "relgraph.neighbors",
                 "relgraph.ball", "geodesics.geodesic_dag",
                 "geodesics.enumerate_geodesics",
                 "hyperbolicity.estimate_nu", "bundles.geo1",
                 "bundles.classes_from"):
        metrics[f"{name}.self_s"] = secs(name, "self_s")
    for name in ("hyperbolicity.estimate_nu", "bundles.geo1",
                 "bundles.symdiff_scan", "coding.c_eta_window",
                 "coding.t_n_and_g_n", "coding.check_lemma418"):
        metrics[f"{name}.s"] = secs(name, "s")
    nu = trace["hyperbolicity.estimate_nu"]
    metrics["relgraph.bfs_per_distance"] = (
        ratio(trace["relgraph.distance_bfs"]["calls"],
              trace["relgraph.distance"]["calls"]), "ratio")
    metrics["geodesics.dags_per_triangle"] = (
        ratio(trace["geodesics.geodesic_dag"]["nested_calls"],
              nu["result_sum"]), "ratio")
    metrics["hyperbolicity.triangles_per_s"] = (
        ratio(nu["result_sum"], nu["s"]), "1/s")
    metrics["bundles.pipelines"] = calls("bundles.pipelines")
    for kind in CHECK_KINDS:
        metrics[f"suite.check_s.{kind}"] = secs(CHECK_PREFIX + kind, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(s["self_s"] for name, s in trace.items()
                if name.startswith(layer + ".")), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.missing_targets"] = (missing, "count")
    return metrics


# ---------------------------------------------------------------------------
# main


def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _store(path: str, doc: dict) -> None:
    """Write one entry per line, sorted, and replace the file atomically."""
    entries = ",\n".join(f"{json.dumps(key)}: {json.dumps(doc[key])}"
                         for key in sorted(doc))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("{\n" + entries + "\n}\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add this run's output digests to "
                             "references.json")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "relbundles", "cli.py")):
        print(f"error: no relbundles sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    out = os.path.join(WORK, args.workload)
    os.makedirs(out, exist_ok=True)
    ops = make_ops(args.workload, args.seed, out)
    try:
        if args.trace:
            bodies, metrics, problems = traced_run(args.workload, ops)
        else:
            bodies, metrics, problems = timed_run(args.workload, ops,
                                                  args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    references, seen = _load(REFERENCES), _load(SEEN)
    failures = check_ops(bodies, references, seen)
    _store(SEEN, seen)
    if args.record and not failures:
        references.update((op["key"], seen[op["key"]]) for op in ops
                          if op["key"] in seen)
        _store(REFERENCES, references)
    for line in [*failures, *problems]:
        print(f"FAIL {line}", file=sys.stderr)

    attempted = sum(len(b["ops"]) for b in bodies)
    print(f"{args.workload} seed={args.seed} bodies={len(bodies)} "
          f"operations={attempted}")
    print("  body wall_s: " + " ".join(f"{b['wall_s']:.3f}" for b in bodies))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':34s} {len(failures) / attempted:14.6f} ratio")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
