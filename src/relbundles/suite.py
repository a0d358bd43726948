"""Named verification checks over one group spec, reported deterministically.

A run builds the graph, measures slimness, derives the layer and
class-size budgets, and then fans independent checks over the configured
direction/base matrix: bundle layer bounds, Δ-stabilization scans,
coding-window coherence, H_n window matching, the label order property,
and cross-validation of the geodesic and arithmetic oracles.  Every check
is a pure function of (spec, config, seed), so reports are byte-identical
across runs and worker counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .groups import (
    Group,
    SpecError,
    Word,
    build_group,
    shortlex_key,
    spec_from_dict,
    spec_hash,
)
from .relgraph import RELATIVE, DistanceOracle, RelativeGraph
from .geodesics import (
    DirectionSpec,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
    layer_profile,
    validate_direction,
)
from .bundles import DirectionPipeline, StabilizationError, symdiff_scan
from .coding import (
    RestrictedLabel,
    c_eta_window,
    check_lemma418,
    compare_n,
    h_n_window,
    pigeonhole_witness,
    s_n_eta,
    t_n_and_g_n,
)
from .hyperbolicity import bound_B, bound_K, estimate_nu

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"
APPROXIMATE = "approximate"
_SEVERITY = {PASS: 0, APPROXIMATE: 1, FLAGGED: 2, FAIL: 3}


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on, hashable to one digest."""

    spec: dict
    suite: str = "standard"
    directions: tuple[str, ...] = ("a",)
    bases: tuple[str, ...] = ("e",)
    depth: int = 10
    scan_depths: tuple[int, ...] = (8, 10, 12)
    n_max: int = 2
    window_radius: int | None = None
    margin: int | None = None
    exhaustive_radius: int = 3
    ball_radius: int = 4
    triangle_budget: int = 10_000
    order_samples: int = 2_000
    oracle_samples: int = 150
    oracle_max_distance: int = 5
    arithmetic_length: int = 5
    continuation_cap: int = 256
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        for name in ("depth", "exhaustive_radius", "ball_radius"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be nonnegative")
        if any(r <= 0 for r in self.scan_depths):
            raise SpecError("scan depths must be positive")
        if self.margin is not None and self.margin < 1:
            raise SpecError("margin must be at least 1")
        if self.window_radius is not None and self.window_radius < 0:
            raise SpecError("window radius must be nonnegative")
        if self.n_max < 1:
            raise SpecError("n_max must be at least 1")
        if self.jobs < 1:
            raise SpecError("jobs must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown config keys: {sorted(unknown)}")
        if "spec" not in data:
            raise SpecError("config needs a 'spec' document")
        coerced = dict(data)
        for name in ("directions", "bases", "scan_depths"):
            if name in coerced:
                coerced[name] = tuple(coerced[name])
        return cls(**coerced)

    def digest(self) -> str:
        payload = {name: getattr(self, name)
                   for name in self.__dataclass_fields__
                   if name != "jobs"}  # worker count must not change bytes
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=list)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class CheckResult:
    id: str
    status: str
    summary: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteReport:
    spec_hash: str
    config_hash: str
    version: str
    constants: dict
    checks: tuple[CheckResult, ...]

    def status(self) -> str:
        worst = PASS
        for c in self.checks:
            if _SEVERITY[c.status] > _SEVERITY[worst]:
                worst = c.status
        return worst

    def exit_code(self) -> int:
        s = self.status()
        if s == FAIL:
            return 1
        if s in (FLAGGED, APPROXIMATE):
            return 2
        return 0

    def to_json(self) -> str:
        payload = {
            "spec_hash": self.spec_hash,
            "config_hash": self.config_hash,
            "toolkit_version": self.version,
            "constants": self.constants,
            "status": self.status(),
            "checks": [
                {"id": c.id, "status": c.status, "summary": c.summary,
                 "details": c.details}
                for c in self.checks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def scan_rows(self) -> list[tuple[str, str, str, int, int]]:
        """(direction, x, y, depth, delta) rows of every scan check."""
        rows = []
        for c in self.checks:
            if c.id.startswith("scan["):
                for depth, delta in c.details["rows"]:
                    rows.append((c.details["direction"], c.details["x"],
                                 c.details["y"], depth, delta))
        return rows


# ---------------------------------------------------------------------------
# individual checks


def _status_from(violations: int, flags: int, approximate: bool = False) -> str:
    if violations:
        return FAIL
    if flags:
        return FLAGGED
    return APPROXIMATE if approximate else PASS


def _check_slimness(graph: RelativeGraph, oracle: DistanceOracle,
                    cfg: RunConfig) -> tuple[CheckResult, int]:
    report = estimate_nu(graph, oracle,
                         exhaustive_radius=cfg.exhaustive_radius,
                         ball_radius=cfg.ball_radius,
                         triangle_budget=cfg.triangle_budget, seed=cfg.seed)
    nu = max(report.nu_rel, report.nu_abs)
    approx = graph.ball((), 0, RELATIVE).approximate
    result = CheckResult(
        "slimness",
        APPROXIMATE if approx else PASS,
        f"nu_rel={report.nu_rel} nu_abs={report.nu_abs} over "
        f"{report.triangles_checked} triangles",
        {
            "nu_rel": report.nu_rel,
            "nu_abs": report.nu_abs,
            "exhaustive_nu_rel": report.exhaustive_nu_rel,
            "exhaustive_nu_abs": report.exhaustive_nu_abs,
            "triangles_checked": report.triangles_checked,
            "exhaustive_radius": report.exhaustive_radius,
            "seed": report.seed,
        })
    return result, nu


def _check_layer_bound(graph: RelativeGraph, oracle: DistanceOracle,
                       cfg: RunConfig, base_text: str, dir_text: str,
                       nu: int, cap: int) -> CheckResult:
    group = graph.group
    base = group.parse(base_text)
    direction = direction_from_text(graph, dir_text)
    pipe = _pipeline(graph, oracle, direction, cfg, nu)
    bundle = pipe.bundle(base, cfg.depth)
    profile = layer_profile(bundle)
    worst = max(profile)
    return CheckResult(
        f"layer-bound[{dir_text}|{base_text}]",
        PASS if worst <= cap else FAIL,
        f"max layer {worst} vs bound {cap}",
        {"direction": dir_text, "base": base_text, "profile": profile,
         "bound": cap})


def _check_classes(graph: RelativeGraph, oracle: DistanceOracle,
                   cfg: RunConfig, base_text: str, dir_text: str,
                   nu: int, cap: int) -> CheckResult:
    group = graph.group
    base = group.parse(base_text)
    direction = direction_from_text(graph, dir_text)
    pipe = _pipeline(graph, oracle, direction, cfg, nu)
    try:
        deco = pipe.classes_from(base, cfg.depth)
    except StabilizationError as err:
        return CheckResult(
            f"class-count[{dir_text}|{base_text}]", FLAGGED, str(err),
            {"direction": dir_text, "base": base_text})
    count = len(deco.classes)
    flags = list(pipe.flags)
    if deco.unstabilized:
        flags.append(f"{len(deco.unstabilized)} unstabilized rays")
    return CheckResult(
        f"class-count[{dir_text}|{base_text}]",
        _status_from(int(count > cap), len(flags)),
        f"{count} classes vs bound {cap}",
        {"direction": dir_text, "base": base_text, "classes": count,
         "bound": cap, "unstabilized": len(deco.unstabilized),
         "flags": sorted(flags)})


def _check_scan(graph: RelativeGraph, oracle: DistanceOracle, cfg: RunConfig,
                x_text: str, y_text: str, dir_text: str,
                nu: int) -> CheckResult:
    group = graph.group
    direction = direction_from_text(graph, dir_text)
    pipe = _pipeline(graph, oracle, direction, cfg, nu)
    scan = symdiff_scan(graph, oracle, group.parse(x_text),
                        group.parse(y_text), direction,
                        list(cfg.scan_depths), pipeline=pipe)
    flags = sorted(set(scan.flags))
    status = PASS if scan.verdict == "stabilized" and not flags else FLAGGED
    return CheckResult(
        f"scan[{dir_text}|{x_text}|{y_text}]", status,
        f"{scan.verdict}; deltas {[n for _, n in scan.rows]}",
        {"direction": dir_text, "x": x_text, "y": y_text,
         "rows": [list(r) for r in scan.rows], "verdict": scan.verdict,
         "flags": flags})


def coding_depth(direction: DirectionSpec, n: int, margin: int) -> int:
    """Depth guaranteeing a full period of hosts strictly beyond the 2R/3
    threshold, plus one for recurrence: R = 3(n + margin + period + 1)."""
    return 3 * (n + margin + len(direction.period) + 1)


def _check_coding(graph: RelativeGraph, oracle: DistanceOracle,
                  cfg: RunConfig, dir_text: str, nu: int) -> CheckResult:
    direction = direction_from_text(graph, dir_text)
    pipe = _pipeline(graph, oracle, direction, cfg, nu)
    # One depth for the whole ladder: nesting only makes sense with all
    # windows cut at the same horizon, and the depth chosen for n_max
    # leaves a full period beyond the threshold for every smaller n too.
    depth = coding_depth(direction, cfg.n_max, pipe.margin)
    half, two_thirds = depth // 2, 2 * depth // 3
    flags: list[str] = []
    violations = 0
    trend = []
    prev_s: RestrictedLabel | None = None
    prev_t: tuple[Word, ...] | None = None
    for n in range(1, cfg.n_max + 1):
        window = c_eta_window(pipe, depth, n,
                              continuation_cap=cfg.continuation_cap)
        if window.capped:
            flags.append(f"n={n}: continuation cap hit at "
                         f"{len(window.capped)} vertices")
        try:
            s_n = s_n_eta(window, half)
        except StabilizationError as err:
            flags.append(f"n={n}: {err}")
            prev_s, prev_t = None, None
            continue
        if s_n != s_n_eta(window, two_thirds):
            flags.append(f"n={n}: minimal label is threshold-sensitive")
        if not pigeonhole_witness(window, two_thirds):
            flags.append(f"n={n}: no label recurs beyond {two_thirds}")
        t_n, g_n = t_n_and_g_n(graph, oracle, window, s_n)
        if prev_s is not None:
            if s_n.restrict(n - 1) != prev_s:
                violations += 1
            if not set(t_n) <= set(prev_t):
                violations += 1
        trend.append([n, oracle.distance((), g_n, RELATIVE), len(t_n)])
        prev_s, prev_t = s_n, t_n
    return CheckResult(
        f"coding[{dir_text}]",
        _status_from(violations, len(flags)),
        f"{violations} coherence violations through n={cfg.n_max} "
        f"at depth {depth}",
        {"direction": dir_text, "depth": depth, "k_n_trend": trend,
         "violations": violations, "flags": sorted(flags)})


def _check_lemma418_pair(graph: RelativeGraph, oracle: DistanceOracle,
                         cfg: RunConfig, eta_text: str, theta_text: str,
                         n: int, nu: int) -> CheckResult:
    group = graph.group

    def window(dir_text: str):
        direction = direction_from_text(graph, dir_text)
        pipe = _pipeline(graph, oracle, direction, cfg, nu)
        depth = coding_depth(direction, n, pipe.margin)
        win = c_eta_window(pipe, depth, n,
                           continuation_cap=cfg.continuation_cap)
        s_n = s_n_eta(win, depth // 2)
        t_n, g_n = t_n_and_g_n(graph, oracle, win, s_n)
        return h_n_window(group, oracle, win, t_n, g_n)

    check_id = f"lemma418[{eta_text}|{theta_text}|n={n}]"
    try:
        wa, wb = window(eta_text), window(theta_text)
    except StabilizationError as err:
        return CheckResult(check_id, FLAGGED, str(err),
                           {"eta": eta_text, "theta": theta_text, "n": n})
    report = check_lemma418(graph, oracle, wa, wb, nu)
    bad = len(report.distance_violations)
    over = int(len(report.matches) > report.count_bound)
    shallow = report.search_radius < report.distance_bound
    flags = ([f"search radius {report.search_radius} cannot certify the "
              f"distance bound {report.distance_bound}"] if shallow else [])
    return CheckResult(
        check_id,
        _status_from(bad + over, len(flags)),
        f"{len(report.matches)} matches, bound {report.count_bound}, "
        f"{bad} distance violations",
        {"eta": eta_text, "theta": theta_text, "n": n,
         "matches": [group.format(g) for g in report.matches],
         "d_star": report.d_star, "search_radius": report.search_radius,
         "count_bound": report.count_bound,
         "distance_bound": report.distance_bound,
         "distance_violations": [group.format(g)
                                 for g in report.distance_violations],
         "flags": flags})


def order_property_violations(samples: int, seed: int,
                              sizes: tuple[int, ...] = (2, 3)) -> int:
    """Exhaustive n=1 plus sampled checks that <_n order survives growth."""
    bad = 0
    two_by_two = [RestrictedLabel(2, (tuple(bits[:2]), tuple(bits[2:])))
                  for bits in itertools.product((0, 1), repeat=4)]
    for u, v in itertools.product(two_by_two, repeat=2):
        if compare_n(u.restrict(1), v.restrict(1)) == -1:
            if compare_n(u, v) != -1:
                bad += 1
    rng = random.Random(seed)
    per_size = samples // len(sizes)
    for size in sizes:
        for _ in range(per_size):
            u = _random_label(rng, size + 1)
            v = _random_label(rng, size + 1)
            if compare_n(u.restrict(size), v.restrict(size)) == -1:
                if compare_n(u, v) != -1:
                    bad += 1
    return bad


def _random_label(rng: random.Random, n: int) -> RestrictedLabel:
    return RestrictedLabel(
        n, tuple(tuple(rng.randint(0, 1) for _ in range(n))
                 for _ in range(n)))


def _check_order_property(cfg: RunConfig) -> CheckResult:
    bad = order_property_violations(cfg.order_samples, cfg.seed)
    return CheckResult("order-property", PASS if bad == 0 else FAIL,
                       f"{bad} violations over exhaustive n=1 plus "
                       f"{cfg.order_samples} samples",
                       {"violations": bad, "samples": cfg.order_samples})


def brute_force_geodesics(graph: RelativeGraph, oracle: DistanceOracle,
                          u: Word, v: Word) -> set[tuple[Word, ...]]:
    """Depth-first vertex paths u→v of geodesic length, no DAG involved."""
    length = oracle.distance(u, v, RELATIVE)
    found: set[tuple[Word, ...]] = set()

    def walk(w: Word, path: tuple[Word, ...]):
        if len(path) - 1 == length:
            if w == v:
                found.add(path)
            return
        remaining = length - (len(path) - 1)
        for x, _ in graph.neighbor_edges(w, RELATIVE):
            if oracle.distance(x, v, RELATIVE) == remaining - 1:
                walk(x, path + (x,))

    walk(u, (u,))
    return found


def oracle_equivalence_violations(graph: RelativeGraph,
                                  oracle: DistanceOracle, samples: int,
                                  max_distance: int, seed: int) -> int:
    """DAG-based enumeration vs naive DFS on random nearby pairs."""
    rng = random.Random(seed)
    pool = graph.ball((), max_distance, RELATIVE)
    vertices = sorted(pool.entries, key=shortlex_key)
    bad = 0
    for _ in range(samples):
        u, v = rng.choice(vertices), rng.choice(vertices)
        if oracle.distance(u, v, RELATIVE) > max_distance:
            continue
        dag = geodesic_dag(graph, oracle, u, v)
        paths, truncated = enumerate_geodesics(graph, dag, max_count=100_000)
        if truncated:
            continue
        got = {p.vertices for p in paths}
        if got != brute_force_geodesics(graph, oracle, u, v):
            bad += 1
    return bad


def _check_oracle_equivalence(graph: RelativeGraph, oracle: DistanceOracle,
                              cfg: RunConfig) -> CheckResult:
    bad = oracle_equivalence_violations(graph, oracle, cfg.oracle_samples,
                                        cfg.oracle_max_distance, cfg.seed)
    return CheckResult(
        "oracle-equivalence", PASS if bad == 0 else FAIL,
        f"{bad} mismatches over {cfg.oracle_samples} sampled pairs",
        {"samples": cfg.oracle_samples, "mismatches": bad,
         "max_distance": cfg.oracle_max_distance})


def arithmetic_violations(group: Group, max_len: int) -> int:
    """Normal forms vs letter-by-letter evaluation on every short word.

    The referee never calls the group's own reduction: free words are
    folded through a plain cancellation stack, finite-table words through
    the raw multiplication table from the spec.  Only those two families
    admit such an independent evaluator.
    """
    family = group.spec.family
    if family == "free":
        def verdict(combo: tuple[int, ...]) -> bool:
            stack: list[int] = []
            for letter in combo:
                if stack and stack[-1] == -letter:
                    stack.pop()
                else:
                    stack.append(letter)
            return tuple(stack) == group.reduce(combo)
    elif family == "finite-table":
        table = group.spec.table
        mul = table.mul
        gen_idx = [i for _, i in table.generators]
        inv = [row.index(0) for row in mul]

        def fold(word: tuple[int, ...]) -> int:
            state = 0
            for letter in word:
                g = gen_idx[abs(letter) - 1]
                state = mul[state][inv[g] if letter < 0 else g]
            return state

        def verdict(combo: tuple[int, ...]) -> bool:
            return fold(combo) == fold(group.reduce(combo))
    else:
        raise SpecError(f"no independent evaluator for family {family!r}")

    letters = group.signed_letters()
    bad = 0
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            if not verdict(combo):
                bad += 1
    return bad


def _check_arithmetic(group: Group, cfg: RunConfig) -> CheckResult:
    bad = arithmetic_violations(group, cfg.arithmetic_length)
    return CheckResult(
        "arithmetic", PASS if bad == 0 else FAIL,
        f"{bad} mismatches on words up to length {cfg.arithmetic_length}",
        {"max_length": cfg.arithmetic_length, "mismatches": bad})


def _check_equivariance(graph: RelativeGraph, oracle: DistanceOracle,
                        cfg: RunConfig, dir_text: str, nu: int) -> CheckResult:
    group = graph.group
    direction = direction_from_text(graph, dir_text)
    rng = random.Random(cfg.seed)
    pool = sorted(graph.ball((), 2, RELATIVE).entries, key=shortlex_key)
    bad = 0
    tried = []
    for _ in range(3):
        g = rng.choice(pool)
        tried.append(group.format(g))
        plain = _pipeline(graph, oracle, direction, cfg, nu)
        moved = _pipeline(graph, oracle, direction, cfg, nu, anchor=g)
        want = frozenset(group.multiply(g, v)
                         for v in plain.geo1((), cfg.depth).vertices)
        if moved.geo1(g, cfg.depth).vertices != want:
            bad += 1
    return CheckResult(
        f"equivariance[{dir_text}]", PASS if bad == 0 else FAIL,
        f"{bad} translation mismatches",
        {"direction": dir_text, "translations": tried, "mismatches": bad})


def _pipeline(graph: RelativeGraph, oracle: DistanceOracle,
              direction: DirectionSpec, cfg: RunConfig, nu: int,
              anchor: Word = ()) -> DirectionPipeline:
    return DirectionPipeline(graph, oracle, direction, nu=nu,
                             margin=cfg.margin,
                             window_radius=cfg.window_radius, anchor=anchor)


# ---------------------------------------------------------------------------
# the runner


def run_suite(cfg: RunConfig) -> SuiteReport:
    spec = spec_from_dict(cfg.spec)
    group = build_group(spec)
    graph = RelativeGraph(group)
    oracle = DistanceOracle(graph)

    # Bad bases and directions fail here, before the slimness sweep.
    for base_text in cfg.bases:
        group.parse(base_text)
    for dir_text in cfg.directions:
        validate_direction(graph, oracle, direction_from_text(graph, dir_text),
                           cfg.depth)

    slim, nu = _check_slimness(graph, oracle, cfg)
    b_cap = bound_B(graph, nu)
    k_cap = bound_K(nu, b_cap)

    tasks = []
    for dir_text in cfg.directions:
        for base_text in cfg.bases:
            tasks.append(lambda d=dir_text, b=base_text: _check_layer_bound(
                graph, oracle, cfg, b, d, nu, b_cap))
            tasks.append(lambda d=dir_text, b=base_text: _check_classes(
                graph, oracle, cfg, b, d, nu, b_cap))
        for x_text, y_text in itertools.combinations(cfg.bases, 2):
            tasks.append(lambda d=dir_text, x=x_text, y=y_text: _check_scan(
                graph, oracle, cfg, x, y, d, nu))
        tasks.append(lambda d=dir_text: _check_coding(
            graph, oracle, cfg, d, nu))
        tasks.append(lambda d=dir_text: _check_equivariance(
            graph, oracle, cfg, d, nu))
    dirs = list(cfg.directions)
    for i, eta in enumerate(dirs):
        theta = dirs[(i + 1) % len(dirs)]
        for n in range(1, cfg.n_max + 1):
            tasks.append(lambda e=eta, t=theta, m=n: _check_lemma418_pair(
                graph, oracle, cfg, e, t, m, nu))
    tasks.append(lambda: _check_order_property(cfg))
    tasks.append(lambda: _check_oracle_equivalence(graph, oracle, cfg))
    if group.spec.family in ("free", "finite-table"):
        tasks.append(lambda: _check_arithmetic(group, cfg))

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(lambda task: task(), tasks))
    else:
        results = [task() for task in tasks]
    checks = tuple(sorted([slim, *results], key=lambda c: c.id))
    constants = {
        "nu": nu,
        "nu_rel": slim.details["nu_rel"],
        "nu_abs": slim.details["nu_abs"],
        "B": b_cap,
        "K": k_cap,
    }
    return SuiteReport(spec_hash(spec), cfg.digest(), __version__,
                       constants, checks)
