"""Binary label coding over Geo₁ and the minimal-label machinery.

Alphabet symbol i codes as `_bits(i)`, the i-th binary string shortest
first, so parallel labels carrying one element share a code and left
translation cannot change a path's coding.  The first `n` edges of a
geodesic continuation become an n×n bit matrix.  Collecting those
matrices over a truncated Geo₁ gives a finite window into C^η, from which
the minimal recurring label, the set it tags, its least element, and the
translated comparison window are all computed.  `check_lemma418`-style
window matching closes the loop: two directions are compared by searching
for a translation aligning their windows.  Every step takes the oracle as
its one handle on the group: `t_n_and_g_n(oracle, window, s_n)`,
`h_n_window(oracle, window, t_n)` (gₙ is Tₙ's least element, t_n[0]) and
`check_lemma418(oracle, window_a, window_b, nu)`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import SpecError, Word, shortlex_key
from .relgraph import DistanceOracle
from .geodesics import enumerate_geodesics, geodesic_dag
from .bundles import DirectionPipeline, StabilizationError
from .hyperbolicity import bound_B, bound_K


def _bits(k: int) -> tuple[int, ...]:
    """The k-th binary string in length-then-lex order: "", 0, 1, 00, 01, …"""
    return tuple(int(c) for c in bin(k + 1)[3:])


@dataclass(frozen=True)
class RestrictedLabel:
    """n rows of n bits; row j is the zero-padded code prefix of edge j."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def restrict(self, m: int) -> "RestrictedLabel":
        if m > self.n:
            raise SpecError(f"cannot restrict a {self.n}-label to {m}")
        return RestrictedLabel(m, tuple(r[:m] for r in self.rows[:m]))

    def order_key(self) -> tuple[int, ...]:
        """Concatenated row-major corners k×k for k = 1..n.

        Comparing keys lexicographically compares the restrictions in
        increasing k, so an order decided at stage k survives every
        refinement to larger matrices.
        """
        out: list[int] = []
        for k in range(1, self.n + 1):
            for j in range(k):
                out.extend(self.rows[j][:k])
        return tuple(out)


def restrict_label(symbols: tuple[int, ...], n: int) -> RestrictedLabel:
    """The first n edges of a path, each row its symbol's code padded."""
    if len(symbols) < n:
        raise SpecError(f"path has {len(symbols)} edges, need {n}")
    pad = (0,) * n
    return RestrictedLabel(n, tuple((_bits(s) + pad)[:n] for s in symbols[:n]))


def compare_n(u: RestrictedLabel, v: RestrictedLabel) -> int:
    """Total order on equal-size restricted labels: −1, 0, or +1."""
    if u.n != v.n:
        raise SpecError(f"cannot compare sizes {u.n} and {v.n}")
    ku, kv = u.order_key(), v.order_key()
    return (ku > kv) - (ku < kv)


# ---------------------------------------------------------------------------
# the coding window over Geo₁


@dataclass(frozen=True)
class CEtaWindow:
    """Finite view of C^η: (g, restricted continuation label, depth of g)."""

    base: Word
    n: int
    entries: tuple[tuple[Word, RestrictedLabel, int], ...]
    capped: tuple[Word, ...]  # vertices with more continuations than the cap
    horizon: int  # host depth cutoff; every qualifying vertex this close is in

    def labels_beyond(self, threshold: int) -> list[RestrictedLabel]:
        return [lab for _, lab, d in self.entries if d > threshold]


def c_eta_window(pipeline: DirectionPipeline, depth: int, n: int, *,
                 continuation_cap: int = 256) -> CEtaWindow:
    """Restricted labels of the continuations from each Geo₁ host.

    A host's continuations are the paths of its length-n bundle, read in
    symbol order; a host with more than `continuation_cap` of them keeps
    the first ones and is listed in `capped`.
    """
    if n < 1:
        raise SpecError("label size n must be positive")
    if n > depth - pipeline.margin:
        raise SpecError(
            f"label size {n} too large for depth {depth} with margin "
            f"{pipeline.margin}")
    base = pipeline.anchor
    dist = pipeline.oracle.distance
    cutoff = depth - n - pipeline.margin
    hosts = sorted((g for g in pipeline.geo1(base, depth).vertices
                    if dist(base, g) <= cutoff),
                   key=lambda g: (dist(base, g), shortlex_key(g)))
    entries: list[tuple[Word, RestrictedLabel, int]] = []
    capped: list[Word] = []
    for g in hosts:
        paths, hit = enumerate_geodesics(pipeline.bundle(g, n),
                                         max_count=continuation_cap)
        if hit:
            capped.append(g)
        seen: set[RestrictedLabel] = set()
        for path in paths:
            lab = restrict_label(path.symbols, n)
            if lab not in seen:
                seen.add(lab)
                entries.append((g, lab, dist(base, g)))
    return CEtaWindow(base, n, tuple(entries), tuple(capped), cutoff)


def s_n_eta(window: CEtaWindow, depth_threshold: int) -> RestrictedLabel:
    """The <_n-least label realized beyond the depth threshold."""
    beyond = window.labels_beyond(depth_threshold)
    if not beyond:
        raise StabilizationError(
            f"no continuation label occurs beyond depth {depth_threshold}; "
            f"rerun with a larger depth")
    return min(beyond, key=RestrictedLabel.order_key)


def pigeonhole_witness(window: CEtaWindow, depth_threshold: int) -> bool:
    """Does some label recur beyond the threshold?  Stabilized runs must
    answer yes — finitely many matrices cannot all be distinct forever."""
    seen: set[RestrictedLabel] = set()
    for lab in window.labels_beyond(depth_threshold):
        if lab in seen:
            return True
        seen.add(lab)
    return False


# ---------------------------------------------------------------------------
# T_n, g_n, H_n


def element_order_key(oracle: DistanceOracle, base: Word, g: Word) -> tuple:
    """Order on vertices: distance first, then least spelling over the
    alphabet — so g ≤ h forces d(base,g) ≤ d(base,h)."""
    dag = geodesic_dag(oracle, base, g)
    (least,), _ = enumerate_geodesics(dag, max_count=1)
    return (dag.length, least.symbols)


def t_n_and_g_n(oracle: DistanceOracle, window: CEtaWindow,
                s_n: RestrictedLabel) -> tuple[tuple[Word, ...], Word]:
    tagged = {g for g, lab, _ in window.entries if lab == s_n}
    if not tagged:
        raise SpecError("the minimal label tags no window vertex")
    t_n = tuple(sorted(tagged, key=lambda g: element_order_key(
        oracle, window.base, g)))
    return t_n, t_n[0]


@dataclass(frozen=True)
class HnWindow:
    """(g_n)⁻¹·T_n with enough metadata to compare across directions.

    `complete_radius` is the guarantee that makes comparisons honest:
    every element of the full (infinite) H_n within that distance of the
    identity is present in `elements`, because its T_n preimage sits
    inside the window horizon.
    """

    n: int
    elements: tuple[Word, ...]
    complete_radius: int

    def within(self, r: int, oracle: DistanceOracle) -> frozenset[Word]:
        return frozenset(h for h in self.elements
                         if oracle.within((), h, r))


def h_n_window(oracle: DistanceOracle, window: CEtaWindow,
               t_n: tuple[Word, ...]) -> HnWindow:
    """(g_n)⁻¹·T_n, where g_n = t_n[0] is the least element of T_n."""
    if not t_n:
        raise SpecError("T_n is empty")
    group, g_n = oracle.group, t_n[0]
    inv = group.inverse(g_n)
    translated = tuple(sorted((group.multiply(inv, t) for t in t_n),
                              key=shortlex_key))
    # h with d(e,h) <= horizon - d(e,g_n) has d(e, g_n·h) <= horizon, so
    # its preimage was a window host and h cannot be missing.
    rho = window.horizon - oracle.distance((), g_n)
    return HnWindow(window.n, translated, rho)


# ---------------------------------------------------------------------------
# window matching


@dataclass(frozen=True)
class Lemma418Report:
    """Translators aligning two H_n windows on truncation-immune balls.

    `search_radius` is the largest translator distance the windows can
    certify; a genuine translator farther out than this would be
    invisible, so callers should treat search_radius < distance_bound as
    inconclusive rather than clean.
    """

    n: int
    d_star: int
    search_radius: int
    matches: tuple[Word, ...]
    distance_bound: int
    distance_violations: tuple[Word, ...]
    count_bound: int


def check_lemma418(oracle: DistanceOracle, window_a: HnWindow,
                   window_b: HnWindow, nu: int) -> Lemma418Report:
    """Find every g with window_a = g·window_b, as far as the windows prove.

    The hypothesis being surrogated is equality of *infinite* sets, so a
    candidate g is compared on the ball of radius min(ρ_a, ρ_b − d(e,g)):
    there an element missing from either truncated window would have to
    come from beyond a complete radius, which is impossible.  Candidates
    that do not fit inside their own evidence ball are skipped — matching
    them would only ever certify that a window can be slid onto itself.
    """
    if window_a.n != window_b.n:
        raise SpecError(
            f"window sizes differ: {window_a.n} vs {window_b.n}")
    group = oracle.group
    dist = oracle.distance
    rho_a, rho_b = window_a.complete_radius, window_b.complete_radius
    d_star = min(rho_a, rho_b)
    candidates = {group.multiply(x, group.inverse(y))
                  for x in window_a.elements for y in window_b.elements}
    matches = []
    for g in sorted(candidates, key=shortlex_key):
        dg = dist((), g)
        r = min(rho_a, rho_b - dg)
        if dg > r:
            continue
        moved = {group.multiply(g, h) for h in window_b.elements}
        if frozenset(h for h in moved
                     if dist((), h) <= r) == window_a.within(r, oracle):
            matches.append(g)
    bound = 8 * nu
    violations = tuple(g for g in matches
                       if dist((), g) > bound)
    return Lemma418Report(window_a.n, d_star, min(rho_a, rho_b // 2),
                          tuple(matches), bound, violations,
                          bound_K(nu, bound_B(oracle, nu)))
