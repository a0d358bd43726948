"""Named verification checks over one group spec, reported deterministically.

A run builds the graph, measures slimness, derives the layer and
class-size budgets, and then runs independent checks over the configured
direction/base matrix: bundle layer bounds, Δ-stabilization scans,
coding-window coherence, H_n window matching, the label order property,
and cross-validation of the geodesic and arithmetic oracles.  All checks
on one direction share one `DirectionPipeline` per anchor; its results do
not depend on call order, so every check is a pure function of (spec,
config, seed) and reports are byte-identical regardless of check order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache

from . import __version__
from .groups import (
    DehnReductionError,
    Group,
    SpecError,
    Word,
    build_group,
    json_int,
    json_list,
    shortlex_key,
    spec_from_dict,
    spec_hash,
)
from .relgraph import (
    DistanceOracle,
    RelativeGraph,
    ResourceLimitError,
)
from .geodesics import (
    DirectionError,
    DirectionSpec,
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
    layer_profile,
    ray_vertex,
)
from .bundles import DirectionPipeline, StabilizationError, symdiff_scan
from .coding import (
    HnWindow,
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

    def __post_init__(self):
        # Bundle, class, scan and coding checks run once per listed item;
        # an empty list would let a suite pass with none of them run, and a
        # repeated one would repeat its check ids.
        for name in ("directions", "bases", "scan_depths"):
            items = getattr(self, name)
            if not items:
                raise SpecError(f"{name} must not be empty")
            if len(set(items)) < len(items):
                raise SpecError(f"{name} must not repeat an entry")
        # class-count and every scan depth build a ξ-class decomposition,
        # which needs depth >= 2; failing here saves the slimness sweep.
        if self.depth < 2:
            raise SpecError("depth must be at least 2")
        if any(r < 2 for r in self.scan_depths):
            raise SpecError("scan depths must be at least 2")
        # A scan is stabilized only on three equal rows, so with fewer
        # depths every scan would be flagged whatever the group does, and
        # rows at one depth would be equal whatever it does.
        if len(self.scan_depths) < 3:
            raise SpecError("scan_depths needs at least three depths")
        if any(a >= b for a, b in zip(self.scan_depths, self.scan_depths[1:])):
            raise SpecError("scan_depths must be strictly increasing")
        for name in ("exhaustive_radius", "ball_radius", "triangle_budget",
                     "order_samples", "oracle_samples", "oracle_max_distance",
                     "arithmetic_length"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be nonnegative")
        if self.continuation_cap < 1:
            raise SpecError("continuation_cap must be at least 1")
        if self.margin is not None and self.margin < 1:
            raise SpecError("margin must be at least 1")
        if self.window_radius is not None and self.window_radius < 0:
            raise SpecError("window radius must be nonnegative")
        if self.n_max < 1:
            raise SpecError("n_max must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown config keys: {sorted(unknown)}")
        if "spec" not in data:
            raise SpecError("config needs a 'spec' document")
        # JSON can put any type anywhere: check each before __post_init__
        # compares them.  Every field not named here is an integer.
        coerced = dict(data)
        for name, value in data.items():
            if name in ("directions", "bases"):
                coerced[name] = json_list(value, str, name)
            elif name == "scan_depths":
                coerced[name] = json_list(value, int, name)
            elif name == "suite":
                if not isinstance(value, str):
                    raise SpecError("suite must be a string")
            elif name != "spec" and not (
                    value is None and name in ("window_radius", "margin")):
                json_int(value, name)
        return cls(**coerced)

    def digest(self) -> str:
        payload = {name: getattr(self, name)
                   for name in self.__dataclass_fields__}
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
        """(direction, x, y, depth, delta) rows of every scan that ran."""
        rows = []
        for c in self.checks:
            if c.id.startswith("scan[") and "rows" in c.details:
                for depth, delta in c.details["rows"]:
                    rows.append((c.details["direction"], c.details["x"],
                                 c.details["y"], depth, delta))
        return rows


# ---------------------------------------------------------------------------
# individual checks


def _status_from(violations: int, flags: int) -> str:
    if violations:
        return FAIL
    if flags:
        return FLAGGED
    return PASS


def _check_slimness(oracle: DistanceOracle,
                    cfg: RunConfig) -> tuple[CheckResult, int]:
    report = estimate_nu(oracle, exhaustive_radius=cfg.exhaustive_radius,
                         ball_radius=cfg.ball_radius,
                         triangle_budget=cfg.triangle_budget, seed=cfg.seed)
    # the word metric's defect is the relative one (`hyperbolicity`), kept
    # under both keys
    nu, exhaustive = report.nu, report.exhaustive_nu
    result = CheckResult(
        "slimness",
        PASS,
        f"nu_rel={nu} nu_abs={nu} over {report.triangles_checked} triangles",
        {
            "nu_rel": nu,
            "nu_abs": nu,
            "exhaustive_nu_rel": exhaustive,
            "exhaustive_nu_abs": exhaustive,
            "triangles_checked": report.triangles_checked,
            "exhaustive_radius": report.exhaustive_radius,
            "seed": report.seed,
        })
    return result, nu


def _check_layer_bound(check_id: str, pipe: DirectionPipeline,
                       cfg: RunConfig, base_text: str, dir_text: str,
                       cap: int) -> CheckResult:
    bundle = pipe.bundle(pipe.oracle.group.parse(base_text), cfg.depth)
    profile = layer_profile(bundle)
    worst = max(profile)
    return CheckResult(
        check_id, PASS if worst <= cap else FAIL,
        f"max layer {worst} vs bound {cap}",
        {"direction": dir_text, "base": base_text, "profile": profile,
         "bound": cap})


def _check_classes(check_id: str, pipe: DirectionPipeline, cfg: RunConfig,
                   base_text: str, dir_text: str, cap: int) -> CheckResult:
    deco = pipe.classes_from(pipe.oracle.group.parse(base_text), cfg.depth)
    count = len(deco.classes)
    flags = list(deco.flags)
    if deco.unstabilized:
        flags.append(f"{len(deco.unstabilized)} unstabilized rays")
    return CheckResult(
        check_id, _status_from(int(count > cap), len(flags)),
        f"{count} classes vs bound {cap}",
        {"direction": dir_text, "base": base_text, "classes": count,
         "bound": cap, "unstabilized": len(deco.unstabilized),
         "flags": sorted(flags)})


def _check_scan(check_id: str, pipe: DirectionPipeline, cfg: RunConfig,
                x_text: str, y_text: str, dir_text: str) -> CheckResult:
    group = pipe.oracle.group
    scan = symdiff_scan(pipe, group.parse(x_text), group.parse(y_text),
                        list(cfg.scan_depths))
    flags = sorted(scan.flags)
    status = PASS if scan.verdict == "stabilized" and not flags else FLAGGED
    return CheckResult(
        check_id, status,
        f"{scan.verdict}; deltas {[n for _, n in scan.rows]}",
        {"direction": dir_text, "x": x_text, "y": y_text,
         "rows": [list(r) for r in scan.rows], "verdict": scan.verdict,
         "flags": flags})


def coding_depth(direction: DirectionSpec, n: int, margin: int) -> int:
    """Depth guaranteeing a full period of hosts strictly beyond the 2R/3
    threshold, plus one for recurrence: R = 3(n + margin + period + 1)."""
    return 3 * (n + margin + len(direction.period) + 1)


def _check_coding(check_id: str, pipe: DirectionPipeline, cfg: RunConfig,
                  dir_text: str) -> CheckResult:
    oracle = pipe.oracle
    # One depth for the whole ladder: nesting only makes sense with all
    # windows cut at the same horizon, and the depth chosen for n_max
    # leaves a full period beyond the threshold for every smaller n too.
    depth = coding_depth(pipe.direction, cfg.n_max, pipe.margin)
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
        t_n, g_n = t_n_and_g_n(oracle, window, s_n)
        if prev_s is not None:
            if s_n.restrict(n - 1) != prev_s:
                violations += 1
            if not set(t_n) <= set(prev_t):
                violations += 1
        trend.append([n, oracle.distance((), g_n), len(t_n)])
        prev_s, prev_t = s_n, t_n
    return CheckResult(
        check_id, _status_from(violations, len(flags)),
        f"{violations} coherence violations through n={cfg.n_max} "
        f"at depth {depth}",
        {"direction": dir_text, "depth": depth, "k_n_trend": trend,
         "violations": violations, "flags": sorted(flags)})


def _h_window(pipe: DirectionPipeline, cfg: RunConfig, n: int) -> HnWindow:
    depth = coding_depth(pipe.direction, n, pipe.margin)
    win = c_eta_window(pipe, depth, n, continuation_cap=cfg.continuation_cap)
    s_n = s_n_eta(win, depth // 2)
    t_n, _ = t_n_and_g_n(pipe.oracle, win, s_n)
    return h_n_window(pipe.oracle, win, t_n)


def _check_lemma418_pair(check_id: str, eta: DirectionPipeline,
                         theta: DirectionPipeline, cfg: RunConfig,
                         eta_text: str, theta_text: str, n: int,
                         nu: int) -> CheckResult:
    oracle = eta.oracle
    wa, wb = _h_window(eta, cfg, n), _h_window(theta, cfg, n)
    report = check_lemma418(oracle, wa, wb, nu)
    bad = len(report.distance_violations)
    over = int(len(report.matches) > report.count_bound)
    shallow = report.search_radius < report.distance_bound
    flags = ([f"search radius {report.search_radius} cannot certify the "
              f"distance bound {report.distance_bound}"] if shallow else [])
    return CheckResult(
        check_id, _status_from(bad + over, len(flags)),
        f"{len(report.matches)} matches, bound {report.count_bound}, "
        f"{bad} distance violations",
        {"eta": eta_text, "theta": theta_text, "n": n,
         "matches": [oracle.group.format(g) for g in report.matches],
         "d_star": report.d_star, "search_radius": report.search_radius,
         "count_bound": report.count_bound,
         "distance_bound": report.distance_bound,
         "distance_violations": [oracle.group.format(g)
                                 for g in report.distance_violations],
         "flags": flags})


def order_property_violations(samples: int, seed: int) -> int:
    """Exhaustive n=1 plus sampled n=2, 3 checks that <_n order survives
    growth.

    The count is 0 for every draw: `order_key(label.restrict(m))` is a
    prefix of `order_key(label)`, as both list the k×k corners for
    k = 1..m first.  So the keys of u and v first differ where those of
    their m-restrictions do, and compare alike.
    """
    bad = 0
    two_by_two = [RestrictedLabel(2, (tuple(bits[:2]), tuple(bits[2:])))
                  for bits in itertools.product((0, 1), repeat=4)]
    for u, v in itertools.product(two_by_two, repeat=2):
        if compare_n(u.restrict(1), v.restrict(1)) == -1:
            if compare_n(u, v) != -1:
                bad += 1
    rng = random.Random(seed)
    for size in (2, 3):
        for _ in range(samples // 2):
            u = _random_label(rng, size + 1)
            v = _random_label(rng, size + 1)
            if compare_n(u.restrict(size), v.restrict(size)) == -1:
                if compare_n(u, v) != -1:
                    bad += 1
    return bad


@cache
def _label_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Every row of n bits, indexed by the row read as a binary number."""
    return tuple(itertools.product((0, 1), repeat=n))


def _random_label(rng: random.Random, n: int) -> RestrictedLabel:
    """An n-label whose n² bits come from one draw, row by row, the
    draw's high bits first."""
    bits, rows, mask = rng.getrandbits(n * n), _label_rows(n), (1 << n) - 1
    return RestrictedLabel(n, tuple(rows[bits >> shift & mask]
                                    for shift in range(n * n - n, -1, -n)))


def _check_order_property(check_id: str, cfg: RunConfig) -> CheckResult:
    bad = order_property_violations(cfg.order_samples, cfg.seed)
    return CheckResult(check_id, PASS if bad == 0 else FAIL,
                       f"{bad} violations over exhaustive n=1 plus "
                       f"{cfg.order_samples} samples",
                       {"violations": bad, "samples": cfg.order_samples})


def brute_force_geodesics(oracle: DistanceOracle, u: Word,
                          v: Word) -> set[tuple[Word, ...]]:
    """Depth-first vertex paths u→v of geodesic length, no DAG involved."""
    length = oracle.distance(u, v)
    found: set[tuple[Word, ...]] = set()

    def walk(w: Word, path: tuple[Word, ...]):
        if len(path) - 1 == length:
            if w == v:
                found.add(path)
            return
        remaining = length - (len(path) - 1)
        for _, x in oracle.graph.neighbors(w):
            # exact, not `within`: a referee sharing the DAG's test shares its faults
            if oracle.distance(x, v) == remaining - 1:
                walk(x, path + (x,))

    walk(u, (u,))
    return found


def oracle_equivalence_violations(oracle: DistanceOracle, samples: int,
                                  max_distance: int, seed: int) -> int:
    """DAG-based enumeration vs naive DFS on random nearby pairs."""
    rng = random.Random(seed)
    pool = oracle.graph.ball((), max_distance)
    vertices = sorted(pool.entries, key=shortlex_key)
    bad = 0
    for _ in range(samples):
        u, v = rng.choice(vertices), rng.choice(vertices)
        # exact, not `within`: the referee's sample stays off the DAG's test
        if oracle.distance(u, v) > max_distance:
            continue
        dag = geodesic_dag(oracle, u, v)
        paths, truncated = enumerate_geodesics(dag, max_count=100_000)
        if truncated:
            continue
        got = {p.vertices for p in paths}
        if got != brute_force_geodesics(oracle, u, v):
            bad += 1
    return bad


def _check_oracle_equivalence(check_id: str, oracle: DistanceOracle,
                              cfg: RunConfig) -> CheckResult:
    bad = oracle_equivalence_violations(oracle, cfg.oracle_samples,
                                        cfg.oracle_max_distance, cfg.seed)
    return CheckResult(
        check_id, PASS if bad == 0 else FAIL,
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


def _check_arithmetic(check_id: str, group: Group,
                      cfg: RunConfig) -> CheckResult:
    bad = arithmetic_violations(group, cfg.arithmetic_length)
    return CheckResult(
        check_id, PASS if bad == 0 else FAIL,
        f"{bad} mismatches on words up to length {cfg.arithmetic_length}",
        {"max_length": cfg.arithmetic_length, "mismatches": bad})


def _check_equivariance(check_id: str,
                        pipeline: Callable[..., DirectionPipeline],
                        cfg: RunConfig,
                        dir_text: str) -> CheckResult:
    """Geo₁ from a moved anchor is the translate of Geo₁ from e.

    `pipeline(dir_text, anchor)` is the run's shared pipeline lookup.
    """
    plain = pipeline(dir_text)
    graph, group = plain.oracle.graph, plain.oracle.group
    want_e = plain.geo1((), cfg.depth).vertices
    rng = random.Random(cfg.seed)
    pool = sorted(graph.ball((), 2).entries, key=shortlex_key)
    bad = 0
    tried = []
    for _ in range(3):
        g = rng.choice(pool)
        tried.append(group.format(g))
        want = frozenset(group.multiply(g, v) for v in want_e)
        if pipeline(dir_text, g).geo1(g, cfg.depth).vertices != want:
            bad += 1
    return CheckResult(
        check_id, PASS if bad == 0 else FAIL,
        f"{bad} translation mismatches",
        {"direction": dir_text, "translations": tried, "mismatches": bad})


# ---------------------------------------------------------------------------
# the runner

# Errors a check can hit on a finite truncation of an infinite object.
# Each one becomes that check's verdict instead of ending the run.
CHECK_ERRORS = (StabilizationError, ResourceLimitError, DehnReductionError,
                DirectionError)


def _run_check(check_id: str, check, *args) -> CheckResult:
    try:
        return check(check_id, *args)
    except CHECK_ERRORS as err:
        return CheckResult(check_id, FLAGGED, str(err),
                           {"error": type(err).__name__})


def _symbol_word(direction: DirectionSpec) -> tuple[tuple[Word, ...], ...]:
    """The shortest (prefix, period) that spells the direction's infinite
    symbol word: `a`, `a a` and `a:a` give one pair, while `aa` and `a:aa`
    (with a² a move) are different rays toward one boundary point."""
    prefix, period = direction.prefix, direction.period
    n = len(period)
    root = next(k for k in range(1, n + 1)
                if n % k == 0 and period == period[:k] * (n // k))
    period = period[:root]
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1:] + period[:-1]
    return prefix, period


def _reject_repeats(name: str, entries: tuple[str, ...],
                    parse: Callable[[str], object]) -> None:
    first: dict[object, str] = {}
    for text in entries:
        seen = first.setdefault(parse(text), text)
        if seen != text:
            raise SpecError(f"{name} {seen!r} and {text!r} parse alike")


def run_suite(cfg: RunConfig) -> SuiteReport:
    spec = spec_from_dict(cfg.spec)
    group = build_group(spec)
    graph = RelativeGraph(group)
    oracle = DistanceOracle(graph)

    # Bad bases and directions fail here, before the slimness sweep.  Two
    # entries that parse alike would rerun one check under a second name
    # (a base scanned against itself).
    _reject_repeats("bases", cfg.bases, group.parse)
    directions = {d: direction_from_text(graph, d) for d in cfg.directions}
    _reject_repeats("directions", cfg.directions,
                    lambda d: _symbol_word(directions[d]))
    for direction in directions.values():
        ray_vertex(oracle, direction, cfg.depth)

    slim, nu = _check_slimness(oracle, cfg)
    b_cap = bound_B(oracle, nu)
    k_cap = bound_K(nu, b_cap)

    # One pipeline per (direction, anchor), shared by every check.
    pipelines: dict[tuple[str, Word], DirectionPipeline] = {}

    def pipeline(dir_text: str, anchor: Word = ()) -> DirectionPipeline:
        got = pipelines.get((dir_text, anchor))
        if got is None:
            got = DirectionPipeline(oracle, directions[dir_text],
                                    nu=nu, margin=cfg.margin,
                                    window_radius=cfg.window_radius,
                                    anchor=anchor)
            pipelines[(dir_text, anchor)] = got
        return got

    results = [slim]
    for d in cfg.directions:
        pipe = pipeline(d)
        for b in cfg.bases:
            results.append(_run_check(f"layer-bound[{d}|{b}]",
                                      _check_layer_bound, pipe, cfg, b, d,
                                      b_cap))
            results.append(_run_check(f"class-count[{d}|{b}]",
                                      _check_classes, pipe, cfg, b, d, b_cap))
        for x, y in itertools.combinations(cfg.bases, 2):
            results.append(_run_check(f"scan[{d}|{x}|{y}]", _check_scan,
                                      pipe, cfg, x, y, d))
        results.append(_run_check(f"coding[{d}]", _check_coding, pipe, cfg,
                                  d))
        results.append(_run_check(f"equivariance[{d}]", _check_equivariance,
                                  pipeline, cfg, d))
    dirs = list(cfg.directions)
    for i, eta in enumerate(dirs):
        theta = dirs[(i + 1) % len(dirs)]
        for n in range(1, cfg.n_max + 1):
            results.append(_run_check(
                f"lemma418[{eta}|{theta}|n={n}]", _check_lemma418_pair,
                pipeline(eta), pipeline(theta), cfg, eta, theta, n, nu))
    results.append(_run_check("order-property", _check_order_property, cfg))
    results.append(_run_check("oracle-equivalence", _check_oracle_equivalence,
                              oracle, cfg))
    if group.spec.family in ("free", "finite-table"):
        results.append(_run_check("arithmetic", _check_arithmetic, group,
                                  cfg))

    checks = tuple(sorted(results, key=lambda c: c.id))
    constants = {
        "nu": nu,
        "nu_rel": slim.details["nu_rel"],
        "nu_abs": slim.details["nu_abs"],
        "B": b_cap,
        "K": k_cap,
    }
    return SuiteReport(spec_hash(spec), cfg.digest(), __version__,
                       constants, checks)
