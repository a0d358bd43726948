"""Plain reference answers the tests hold the package against.

Each referee answers a question the package answers another way, by the
most direct method that is exact, so that a test can compare the two.
Nothing under src/ calls them.
"""

from __future__ import annotations

from itertools import product

from relbundles.bundles import (
    DirectionPipeline,
    Geo1Trunc,
    SpecialVertexReport,
    StabilizationError,
)
from relbundles.groups import (
    SmallCancellationGroup,
    SpecError,
    TableGroup,
    Word,
    free_reduce,
    invert_free,
    shortlex_key,
)
from relbundles.relgraph import DistanceOracle


def canonical_word(group: TableGroup, index: int) -> Word:
    """The shortlex-least word of table element `index`: the first word,
    in order of length and then of the group's signed letters, that
    evaluates to it.  Every element has one shorter than the table."""
    for n in range(group.size):
        for word in product(group.signed_letters(), repeat=n):
            if group.element_index(word) == index:
                return word
    raise ValueError(f"no element {index} in a table of size {group.size}")


def is_identity(group: SmallCancellationGroup, word: Word) -> bool:
    """Dehn's algorithm: a C'(1/6) word is trivial iff it reduces to e."""
    return group.dehn_reduce(word) == ()


def equal(group: SmallCancellationGroup, u: Word, v: Word) -> bool:
    return is_identity(group, free_reduce(u + invert_free(v)))


def _check_geodesic(oracle: DistanceOracle, path: tuple[Word, ...]) -> None:
    if not path:
        raise SpecError("a triangle side must contain at least one vertex")
    if len(path) - 1 != oracle.distance(path[0], path[-1]):
        raise SpecError(
            f"side of length {len(path) - 1} is not geodesic between its endpoints")
    for u, v in zip(path, path[1:]):
        if oracle.distance(u, v) != 1:
            raise SpecError("side vertices are not consecutive neighbors")


def triangle_defect(oracle: DistanceOracle, p: tuple[Word, ...],
                    q: tuple[Word, ...], r: tuple[Word, ...],
                    measure: DistanceOracle | None = None) -> int:
    """Worst distance from a vertex of one side to the union of the others.

    The three paths must close up cyclically (p: x→y, q: y→z, r: z→x) and
    each must be geodesic for `oracle`; the defect itself is measured by
    `measure` (`oracle` when None, `oracle.absolute` for the word metric),
    maximized over the three rotations.
    """
    for side in (p, q, r):
        _check_geodesic(oracle, side)
    if p[-1] != q[0] or q[-1] != r[0] or r[-1] != p[0]:
        raise SpecError("triangle sides do not share endpoints cyclically")
    dist = (measure or oracle).distance
    worst = 0
    sides = (p, q, r)
    for i in range(3):
        probe = sides[i]
        others = set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3])
        for u in probe:
            d = min(dist(u, v) for v in others)
            worst = max(worst, d)
    return worst


def all_special_vertices(pipe: DirectionPipeline, base: Word,
                         depth: int) -> SpecialVertexReport:
    """Classify every vertex of bundle layers 0..depth−2 from `base`, with
    the flags every classification raised; the pipeline's own scan stops
    at the layer past which Geo₁ reads nothing."""
    deco = pipe.classes_from(base, depth)
    special: list[tuple[Word, int]] = []
    ambiguous: list[Word] = []
    flags = list(deco.flags)
    dag = pipe.bundle(base, depth)
    for k in range(0, depth - 1):
        remaining = depth - k
        for v in dag.layers[k]:
            try:
                sectors = [pipe.sector(v, c.signature, remaining)
                           for c in deco.classes]
            except StabilizationError:
                ambiguous.append(v)
                continue
            flags.extend(f for sec in sectors for f in sec.flags)
            verdict = pipe._classify_vertex(deco, v, remaining, sectors)
            if verdict is None:
                continue
            if verdict < 0:
                ambiguous.append(v)
            else:
                special.append((v, verdict))
    special.sort(key=lambda item: (shortlex_key(item[0]), item[1]))
    return SpecialVertexReport(tuple(special),
                               tuple(sorted(ambiguous, key=shortlex_key)),
                               tuple(dict.fromkeys(flags)))


def full_geo1(pipe: DirectionPipeline, base: Word, depth: int) -> Geo1Trunc:
    """Geo₁ from every special vertex of `all_special_vertices`: for each
    class, the union of the sectors from its special vertices nearest
    `base`, with distances asked of the oracle."""
    report = all_special_vertices(pipe, base, depth)
    deco = pipe.classes_from(base, depth)
    flags = list(report.flags)
    if report.ambiguous:
        flags.append(
            f"{len(report.ambiguous)} bundle vertices had ambiguous "
            f"class assignment and were excluded")
    by_class: dict[int, list[tuple[int, Word]]] = {}
    for v, cid in report.special:
        by_class.setdefault(cid, []).append(
            (pipe.oracle.distance(base, v), v))
    vertices: set[Word] = set()
    chosen: list[tuple[int, tuple[Word, ...]]] = []
    skipped: list[int] = []
    for cls in deco.classes:
        entries = by_class.get(cls.id)
        if not entries:
            skipped.append(cls.id)
            flags.append(
                f"class {cls.id} has no special representative at "
                f"depth {depth}; skipped")
            continue
        least = min(d for d, _ in entries)
        y_set = tuple(sorted((v for d, v in entries if d == least),
                             key=shortlex_key))
        chosen.append((cls.id, y_set))
        for y in y_set:
            sec = pipe.sector(y, cls.signature, depth - least)
            flags.extend(sec.flags)
            vertices.update(sec.vertices)
    return Geo1Trunc(frozenset(vertices), tuple(chosen),
                     tuple(skipped), tuple(dict.fromkeys(flags)))
