"""Command-line front end: verify suites, explore artifacts, emit reports.

Exit codes follow the verification contract: 0 all pass, 1 hard failure
(including usage and spec errors), 2 flagged-or-approximate findings only.
Every artifact is written deterministically — same spec, config and seed
give byte-identical files.

`main` builds its argument parser once per process, on its first call,
and reuses it: the parser is never changed after it is built, and each
`parse_args` returns a fresh namespace.  Only in-process callers that run
`main` many times gain; a `relbundles` process calls it once.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import statistics
import sys

from .groups import (
    DehnReductionError,
    SpecError,
    build_group,
    load_json,
    load_spec,
    shortlex_key,
    spec_hash,
    validate_presentation,
)
from .relgraph import (
    RELATIVE,
    DistanceOracle,
    RelativeGraph,
    ResourceLimitError,
    export_ball_dot,
)
from .geodesics import (
    DirectionError,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
    layer_profile,
)
from .bundles import DirectionPipeline
from .suite import RunConfig, run_suite


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SpecError, DirectionError, ResourceLimitError,
            DehnReductionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 means flagged or approximate."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relbundles",
        description="Geodesic ray bundle toolkit for relative Cayley graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True,
                          help="suite configuration JSON")
    p_verify.add_argument("--spec", help="group spec JSON (overrides config)")
    p_verify.add_argument("--seed", type=int, help="override config seed")
    p_verify.add_argument("--radius", type=int,
                          help="override truncation depth R")
    p_verify.add_argument("--window", type=int,
                          help="override horofunction window radius")
    p_verify.add_argument("--out", default="run",
                          help="output directory (default: run)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_explore = sub.add_parser("explore", help="emit one object as files")
    p_explore.add_argument("object", choices=("ball", "dag", "bundle", "geo1"))
    p_explore.add_argument("args", nargs="*",
                           help="ball CENTER RADIUS | dag U V | "
                                "bundle BASE DIRECTION DEPTH | "
                                "geo1 BASE DIRECTION DEPTH")
    p_explore.add_argument("--spec", required=True, help="group spec JSON")
    p_explore.add_argument("--window", type=int,
                           help="horofunction window radius for geo1")
    p_explore.add_argument("--out", default=".", help="output directory")
    p_explore.set_defaults(handler=_cmd_explore)

    p_report = sub.add_parser("report", help="summarize a verify run")
    p_report.add_argument("run_dir", help="directory holding report.json")
    p_report.add_argument("--out", help="output directory (default: run dir)")
    p_report.set_defaults(handler=_cmd_report)

    p_val = sub.add_parser("validate-spec", help="check a group spec")
    p_val.add_argument("--spec", required=True, help="group spec JSON")
    p_val.set_defaults(handler=_cmd_validate_spec)
    return parser


# ---------------------------------------------------------------------------
# verify


def load_config(config_path: str, spec_path: str | None = None,
                **overrides) -> RunConfig:
    """Config document + spec resolution + overrides, as `verify` sees it.

    A `spec_path` key inside the document is resolved relative to the
    document's own directory, so shipped configs stay relocatable; an
    explicit spec file wins over both it and an inline spec.
    """
    doc = load_json(config_path)
    relative = doc.pop("spec_path", None)
    if relative is not None and not isinstance(relative, str):
        raise SpecError("spec_path must be a string")
    if spec_path:
        doc["spec"] = load_json(spec_path)
    elif relative is not None:
        doc["spec"] = load_json(os.path.join(
            os.path.dirname(os.path.abspath(config_path)), relative))
    if "spec" not in doc:
        raise SpecError("config names no group spec; use --spec or spec_path")
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    return RunConfig.from_dict(doc)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.spec, seed=args.seed,
                      depth=args.radius, window_radius=args.window)
    _check_out_dir(args.out)
    report = run_suite(cfg)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_scans_csv(os.path.join(args.out, "scans.csv"), report.scan_rows())

    for check in report.checks:
        print(f"{check.status:12s} {check.id}: {check.summary}")
    print(f"suite status: {report.status()} "
          f"({len(report.checks)} checks, spec {report.spec_hash[:12]})")
    return report.exit_code()


def _check_out_dir(path: str) -> None:
    """Raise an OSError now if `path` cannot become an output directory.

    Nothing is created, so a run rejected before its report is written
    leaves no directory behind."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        code = errno.ENOTDIR
    elif not os.access(probe, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), probe)


def _write_scans_csv(path: str,
                     rows: list[tuple[str, str, str, int, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "x", "y", "depth", "delta"])
        writer.writerows(sorted(rows))


# ---------------------------------------------------------------------------
# explore


def _cmd_explore(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    oracle = DistanceOracle(RelativeGraph(build_group(spec)))
    os.makedirs(args.out, exist_ok=True)
    handlers = {"ball": _explore_ball, "dag": _explore_dag,
                "bundle": _explore_bundle, "geo1": _explore_geo1}
    written = handlers[args.object](args, oracle)
    for path in written:
        print(path)
    return 0


def _out_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _int_arg(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{name} must be an integer, got {text!r}") from None


def _explore_ball(args: argparse.Namespace,
                  oracle: DistanceOracle) -> list[str]:
    if len(args.args) != 2:
        raise SpecError("explore ball needs CENTER and RADIUS")
    graph = oracle.graph
    center = graph.group.parse(args.args[0])
    radius = _int_arg("RADIUS", args.args[1])
    table = graph.ball(center, radius)
    fmt = graph.group.format
    stem = os.path.join(args.out, f"ball_r{radius}")
    written = [_out_json(stem + ".json", {
        "center": fmt(center),
        "radius": radius,
        "metric": RELATIVE,
        "vertex_count": len(table.entries),
        "vertices": sorted([fmt(v), d] for v, d in table.entries.items()),
    })]
    with open(stem + ".dot", "w", encoding="utf-8") as fh:
        fh.write(export_ball_dot(graph, table))
    written.append(stem + ".dot")
    with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "distance"])
        writer.writerows(sorted([fmt(v), d] for v, d in table.entries.items()))
    written.append(stem + ".csv")
    return written


def _explore_dag(args: argparse.Namespace,
                 oracle: DistanceOracle) -> list[str]:
    if len(args.args) != 2:
        raise SpecError("explore dag needs two vertices U and V")
    group = oracle.group
    u, v = group.parse(args.args[0]), group.parse(args.args[1])
    dag = geodesic_dag(oracle, u, v)
    paths, truncated = enumerate_geodesics(dag, max_count=10_000)
    stem = os.path.join(args.out, "dag")
    written = [_out_json(stem + ".json", {
        "source": group.format(u),
        "target": group.format(v),
        "length": dag.length,
        "layer_sizes": [len(layer) for layer in dag.layers],
        "geodesic_count": len(paths),
        "count_truncated": truncated,
    })]
    with open(stem + ".dot", "w", encoding="utf-8") as fh:
        fh.write(_dag_dot(oracle.graph, dag))
    written.append(stem + ".dot")
    return written


def _dag_dot(graph: RelativeGraph, dag) -> str:
    """Directed DOT of a geodesic DAG, one rank per layer."""
    fmt = graph.group.format
    pos = {v: i for layer in dag.layers for i, v in enumerate(layer)}
    lines = ["digraph dag {", "  rankdir=LR;", "  node [shape=box];"]
    for k, layer in enumerate(dag.layers):
        names = [f"n{k}_{i}" for i in range(len(layer))]
        for name, v in zip(names, layer):
            lines.append(f'  {name} [label="{fmt(v)}"];')
        lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for k, layer in enumerate(dag.layers[:-1]):
        for i, v in enumerate(layer):
            # edges are drawn in layer order, not the stored symbol order
            for symbol, w in sorted(dag.successors[v],
                                    key=lambda edge: pos[edge[1]]):
                lines.append(f'  n{k}_{i} -> n{k + 1}_{pos[w]} '
                             f'[label="{graph.format_symbol(symbol)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _direction_args(args: argparse.Namespace, graph: RelativeGraph):
    if len(args.args) != 3:
        raise SpecError(f"explore {args.object} needs BASE DIRECTION DEPTH")
    base = graph.group.parse(args.args[0])
    direction = direction_from_text(graph, args.args[1])
    depth = _int_arg("DEPTH", args.args[2])
    return base, direction, depth


def _explore_bundle(args: argparse.Namespace,
                    oracle: DistanceOracle) -> list[str]:
    base, direction, depth = _direction_args(args, oracle.graph)
    bundle = DirectionPipeline(oracle, direction).bundle(base, depth)
    fmt = oracle.group.format
    payload = {
        "base": fmt(base),
        "direction": direction.display(),
        "depth": depth,
        "layer_profile": layer_profile(bundle),
        "layers": [[fmt(v) for v in layer] for layer in bundle.layers],
    }
    return [_out_json(os.path.join(args.out, "bundle.json"), payload)]


def _explore_geo1(args: argparse.Namespace,
                  oracle: DistanceOracle) -> list[str]:
    base, direction, depth = _direction_args(args, oracle.graph)
    pipe = DirectionPipeline(oracle, direction, window_radius=args.window)
    geo1 = pipe.geo1(base, depth)
    fmt = oracle.group.format
    payload = {
        "base": fmt(base),
        "direction": direction.display(),
        "depth": depth,
        "vertex_count": len(geo1.vertices),
        "vertices": [fmt(v) for v in sorted(geo1.vertices, key=shortlex_key)],
        "chosen_classes": [{"class": i, "nearest": [fmt(v) for v in ys]}
                           for i, ys in geo1.chosen],
        "skipped_classes": list(geo1.skipped_classes),
        "flags": sorted(geo1.flags),
        "notes": sorted(pipe.notes),
    }
    return [_out_json(os.path.join(args.out, "geo1.json"), payload)]


# ---------------------------------------------------------------------------
# report


def _cmd_report(args: argparse.Namespace) -> int:
    report_path = os.path.join(args.run_dir, "report.json")
    if not os.path.exists(report_path):
        print(f"error: missing report file {report_path}", file=sys.stderr)
        return 1
    doc = load_json(report_path)
    # both outputs are read off the document before either is written
    try:
        summary = _summary_markdown(doc)
        deltas = _delta_rows(doc)
    except KeyError as err:
        raise SpecError(f"{report_path} is not a verify report: "
                        f"no key {err}") from None
    except (TypeError, ValueError, AttributeError) as err:
        raise SpecError(f"{report_path} is not a verify report: {err}") from None
    out_dir = args.out or args.run_dir
    os.makedirs(out_dir, exist_ok=True)

    md_path = os.path.join(out_dir, "summary.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(summary)
    csv_path = os.path.join(out_dir, "delta_vs_depth.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "pairs", "min_delta", "median_delta",
                         "max_delta"])
        writer.writerows(deltas)
    print(md_path)
    print(csv_path)
    return 0


def _summary_markdown(doc: dict) -> str:
    checks = doc["checks"]
    by_status: dict[str, int] = {}
    for c in checks:
        by_status[c["status"]] = by_status.get(c["status"], 0) + 1
    lines = [
        "# Verification summary",
        "",
        f"- status: **{doc['status']}**",
        f"- spec: `{doc['spec_hash']}`",
        f"- config: `{doc['config_hash']}`",
        f"- toolkit: {doc['toolkit_version']}",
        "",
        "## Constants",
        "",
        "| name | value |",
        "| --- | --- |",
    ]
    for name in sorted(doc["constants"]):
        lines.append(f"| {name} | {doc['constants'][name]} |")
    lines += ["", "## Checks", ""]
    for status in sorted(by_status):
        lines.append(f"- {status}: {by_status[status]}")
    worst = [c for c in checks if c["status"] in ("fail", "flagged")]
    if worst:
        lines += ["", "| check | status | summary |", "| --- | --- | --- |"]
        for c in worst:
            lines.append(f"| {c['id']} | {c['status']} | {c['summary']} |")
    lines.append("")
    return "\n".join(lines)


def _delta_rows(doc: dict) -> list[list]:
    """Per scanned depth: pairs, and the min, median and max delta."""
    per_depth: dict[int, list[int]] = {}
    for c in doc["checks"]:
        if not c["id"].startswith("scan[") or "rows" not in c["details"]:
            continue
        for depth, delta in c["details"]["rows"]:
            per_depth.setdefault(depth, []).append(delta)
    return [[depth, len(deltas), min(deltas), statistics.median(deltas),
             max(deltas)]
            for depth, deltas in sorted(per_depth.items())]


# ---------------------------------------------------------------------------
# validate-spec


def _cmd_validate_spec(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    print(f"family: {spec.family}")
    if spec.family == "small-cancellation":
        report = validate_presentation(spec)
        ratio = report.max_ratio
        print(f"pieces: {len(report.pieces)}")
        print(f"max piece ratio: {ratio.numerator}/{ratio.denominator}")
    group = build_group(spec)
    graph = RelativeGraph(group)
    # before the generators line: an infinite parabolic raises here
    size = sum(len(names) for _, names in graph.alphabet)
    print(f"generators: {', '.join(group.gen_names)}")
    print(f"relative alphabet size: {size}")
    print(f"spec hash: {spec_hash(spec)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
