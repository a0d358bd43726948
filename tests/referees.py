"""Plain reference answers the tests hold the package against.

Each referee answers a question the package answers another way, by the
most direct method that is exact, so that a test can compare the two.
Nothing under src/ calls them.
"""

from __future__ import annotations

from itertools import product

from relbundles.groups import (
    SmallCancellationGroup,
    SpecError,
    TableGroup,
    Word,
    free_reduce,
    invert_free,
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
