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
import contextlib
import csv
import errno
import functools
import io
import json
import os
import statistics
import sys

from .groups import (
    SpecError,
    build_group,
    load_json,
    load_spec,
    shortlex_key,
    spec_hash,
    validate_presentation,
)
from .relgraph import RELATIVE, BallTable, DistanceOracle, RelativeGraph
from .geodesics import (
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
    layer_profile,
)
from .bundles import DirectionPipeline
from .suite import CHECK_ERRORS, RunConfig, SuiteReport, run_suite, scan_rows


def main(argv: list[str] | None = None) -> int:
    # an error that flags a check in `verify` is one line here
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (*CHECK_ERRORS, SpecError, OSError) as err:
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
    p_explore.set_defaults(handler=_cmd_explore)
    objects = p_explore.add_subparsers(dest="object", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--spec", required=True, help="group spec JSON")
    shared.add_argument("--out", default=".", help="output directory")
    p_ball = objects.add_parser("ball", parents=[shared],
                                help="ball of RADIUS around CENTER")
    p_ball.add_argument("center", metavar="CENTER")
    p_ball.add_argument("radius", metavar="RADIUS", type=int)
    p_ball.set_defaults(build=_explore_ball)
    p_dag = objects.add_parser("dag", parents=[shared],
                               help="geodesic DAG from U to V")
    p_dag.add_argument("u", metavar="U")
    p_dag.add_argument("v", metavar="V")
    p_dag.set_defaults(build=_explore_dag)
    p_bundle = objects.add_parser("bundle", parents=[shared],
                                  help="ray bundle of DIRECTION from BASE")
    p_geo1 = objects.add_parser("geo1", parents=[shared],
                                help="Geo₁ of DIRECTION from BASE")
    for p_ray, build in ((p_bundle, _explore_bundle), (p_geo1, _explore_geo1)):
        p_ray.add_argument("base", metavar="BASE")
        p_ray.add_argument("direction", metavar="DIRECTION")
        p_ray.add_argument("depth", metavar="DEPTH", type=int)
        p_ray.set_defaults(build=build)
    p_geo1.add_argument("--window", type=int,
                        help="horofunction window radius")

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
    with _output(args.out) as files:
        cfg = load_config(args.config, args.spec, seed=args.seed,
                          depth=args.radius, window_radius=args.window)
        report = run_suite(cfg)
        files.update(verify_files(report))
    for check in report.checks:
        print(f"{check.status:12s} {check.id}: {check.summary}")
    print(f"suite status: {report.status()} "
          f"({len(report.checks)} checks, spec {report.spec_hash[:12]})")
    return report.exit_code()


def verify_files(report: SuiteReport) -> dict[str, str]:
    """The texts `verify` writes, by file name."""
    return {
        "report.json": report.to_json(),
        "scans.csv": _csv_text(["direction", "x", "y", "depth", "delta"],
                               sorted(scan_rows((c.id, c.details)
                                                for c in report.checks))),
    }


@contextlib.contextmanager
def _output(out: str, *, list_paths: bool = False):
    """Collect a command's files as {name: text}, then write them to `out`.

    `out` is checked before the body runs and created only after the body
    has built every text, so a command that fails leaves no directory
    behind.  With `list_paths`, each written path is printed."""
    _check_out_dir(out)
    files: dict[str, str] = {}
    yield files
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if list_paths:
            print(path)


def _check_out_dir(path: str) -> None:
    """Raise an OSError if `path` cannot become an output directory.

    Nothing is created.  An empty path names no directory, although its
    absolute path would be the working directory."""
    if not path:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
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


def _csv_text(header: list[str], rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# explore


def _cmd_explore(args: argparse.Namespace) -> int:
    with _output(args.out, list_paths=True) as files:
        window = getattr(args, "window", None)  # only geo1 takes --window
        if window is not None and window < 0:
            raise SpecError("window radius must be nonnegative")
        spec = load_spec(args.spec)
        oracle = DistanceOracle(RelativeGraph(build_group(spec)))
        files.update(args.build(args, oracle))
    return 0


def _explore_ball(args: argparse.Namespace,
                  oracle: DistanceOracle) -> dict[str, str]:
    graph = oracle.graph
    center = graph.group.parse(args.center)
    table = graph.ball(center, args.radius)
    fmt = graph.group.format
    rows = sorted([fmt(v), d] for v, d in table.entries.items())
    stem = f"ball_r{args.radius}"
    return {
        stem + ".json": _json_text({
            "center": fmt(center),
            "radius": args.radius,
            "metric": RELATIVE,
            "vertex_count": len(table.entries),
            "vertices": rows,
        }),
        stem + ".dot": _ball_dot(graph, table),
        stem + ".csv": _csv_text(["vertex", "distance"], rows),
    }


def _ball_dot(graph: RelativeGraph, table: BallTable) -> str:
    """Undirected DOT drawing of a ball, vertices labeled by normal form."""
    fmt = graph.group.format
    lines = ["graph ball {", "  node [shape=ellipse];"]
    order = sorted(table.entries, key=shortlex_key)
    ids = {v: i for i, v in enumerate(order)}
    for v in order:
        lines.append(f'  n{ids[v]} [label="{fmt(v)}"];')
    for v in order:
        for symbol, u in graph.neighbors(v):
            if u in table.entries and shortlex_key(v) < shortlex_key(u):
                text = graph.format_symbol(symbol)
                lines.append(f'  n{ids[v]} -- n{ids[u]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _explore_dag(args: argparse.Namespace,
                 oracle: DistanceOracle) -> dict[str, str]:
    group = oracle.group
    u, v = group.parse(args.u), group.parse(args.v)
    dag = geodesic_dag(oracle, u, v)
    paths, truncated = enumerate_geodesics(dag, max_count=10_000)
    return {
        "dag.json": _json_text({
            "source": group.format(u),
            "target": group.format(v),
            "length": dag.length,
            "layer_sizes": layer_profile(dag),
            "geodesic_count": len(paths),
            "count_truncated": truncated,
        }),
        "dag.dot": _dag_dot(oracle.graph, dag),
    }


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


def _explore_bundle(args: argparse.Namespace,
                    oracle: DistanceOracle) -> dict[str, str]:
    base = oracle.group.parse(args.base)
    direction = direction_from_text(oracle.graph, args.direction)
    bundle = DirectionPipeline(oracle, direction).bundle(base, args.depth)
    fmt = oracle.group.format
    payload = {
        "base": fmt(base),
        "direction": direction.display(),
        "depth": args.depth,
        "layer_profile": layer_profile(bundle),
        "layers": [[fmt(v) for v in layer] for layer in bundle.layers],
    }
    return {"bundle.json": _json_text(payload)}


def _explore_geo1(args: argparse.Namespace,
                  oracle: DistanceOracle) -> dict[str, str]:
    base = oracle.group.parse(args.base)
    direction = direction_from_text(oracle.graph, args.direction)
    pipe = DirectionPipeline(oracle, direction, window_radius=args.window)
    geo1 = pipe.geo1(base, args.depth)
    fmt = oracle.group.format
    payload = {
        "base": fmt(base),
        "direction": direction.display(),
        "depth": args.depth,
        "vertex_count": len(geo1.vertices),
        "vertices": [fmt(v) for v in sorted(geo1.vertices, key=shortlex_key)],
        "chosen_classes": [{"class": i, "nearest": [fmt(v) for v in ys]}
                           for i, ys in geo1.chosen],
        "skipped_classes": list(geo1.skipped_classes),
        "flags": sorted(geo1.flags),
        "notes": sorted(pipe.notes),
    }
    return {"geo1.json": _json_text(payload)}


# ---------------------------------------------------------------------------
# report


def _cmd_report(args: argparse.Namespace) -> int:
    report_path = os.path.join(args.run_dir, "report.json")
    out = args.run_dir if args.out is None else args.out
    with _output(out, list_paths=True) as files:
        if not os.path.exists(report_path):
            raise SpecError(f"missing report file {report_path}")
        doc = load_json(report_path)
        try:
            files["summary.md"] = _summary_markdown(doc)
            files["delta_vs_depth.csv"] = _csv_text(
                ["depth", "pairs", "min_delta", "median_delta", "max_delta"],
                _delta_rows(doc))
        except KeyError as err:
            raise SpecError(f"{report_path} is not a verify report: "
                            f"no key {err}") from None
        except (TypeError, ValueError, AttributeError) as err:
            raise SpecError(
                f"{report_path} is not a verify report: {err}") from None
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
    for *_, depth, delta in scan_rows((c["id"], c["details"])
                                      for c in doc["checks"]):
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
