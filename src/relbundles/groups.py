"""Group families and exact word arithmetic.

Elements are canonical words: tuples of nonzero ints, where letter ``+(i+1)``
is the i-th primitive generator and ``-(i+1)`` its inverse.  Every public
operation takes and returns canonical words, so tuple equality is group
equality.  Four families are supported:

* ``free``              -- free reduction,
* ``finite-table``      -- multiplication table; canonical word is the
                           shortlex-least signed generator word,
* ``small-cancellation``-- C'(1/6) presentations, Dehn's algorithm,
* ``free-product``      -- alternating syllables, factors in their own
                           normal form.

Parabolic subgroups are factor subgroups of a free product; the other
families must declare ``parabolics = none``.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Word = tuple[int, ...]

IDENTITY_NAMES = ("", "e", "1")


class SpecError(ValueError):
    """Raised when a group spec is structurally invalid."""


def letter_key(letter: int) -> tuple[int, int]:
    # declaration order, positive sign before negative
    return (abs(letter), 0 if letter > 0 else 1)


def shortlex_key(word: Word) -> tuple:
    return (len(word), tuple(letter_key(l) for l in word))


def free_reduce(word: Iterable[int]) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_free(word: Word) -> Word:
    return tuple(-l for l in reversed(word))


# ---------------------------------------------------------------------------
# word (de)serialization

def parse_word(text: str, gen_names: Sequence[str]) -> Word:
    """Parse ``"a b' a"`` (or ``"ab'a"`` when all names are single chars)."""
    text = text.strip()
    if text in IDENTITY_NAMES:
        return ()
    index = {name: i + 1 for i, name in enumerate(gen_names)}
    tokens: list[str]
    if any(ch.isspace() for ch in text):
        tokens = text.split()
    elif all(len(n) == 1 for n in gen_names):
        tokens = []
        for ch in text:
            if ch == "'":
                if not tokens:
                    raise SpecError(f"dangling inverse mark in word {text!r}")
                tokens[-1] += "'"
            else:
                tokens.append(ch)
    else:
        tokens = [text]
    letters: list[int] = []
    for tok in tokens:
        inv = tok.endswith("'")
        name = tok[:-1] if inv else tok
        if name not in index:
            raise SpecError(f"unknown generator {name!r} in word {text!r}")
        letters.append(-index[name] if inv else index[name])
    return tuple(letters)


def word_to_str(word: Word, gen_names: Sequence[str]) -> str:
    if not word:
        return "e"
    parts = []
    for letter in word:
        name = gen_names[abs(letter) - 1]
        parts.append(name + "'" if letter < 0 else name)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class TableData:
    size: int
    mul: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[str, int], ...]  # (name, element index)


@dataclass(frozen=True)
class GroupSpec:
    family: str
    generators: tuple[str, ...] = ()
    relators: tuple[str, ...] = ()
    table: TableData | None = None
    factors: tuple["GroupSpec", ...] = ()
    parabolics: tuple[int, ...] = ()
    redundant_generators: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d: dict = {"family": self.family}
        if self.family == "finite-table":
            assert self.table is not None
            d["table"] = {
                "size": self.table.size,
                "mul": [list(row) for row in self.table.mul],
                "generators": {n: i for n, i in self.table.generators},
            }
        elif self.family == "free-product":
            d["factors"] = [f.to_dict() for f in self.factors]
        else:
            d["generators"] = list(self.generators)
            if self.family == "small-cancellation":
                d["relators"] = list(self.relators)
        d["parabolics"] = list(self.parabolics) if self.parabolics else "none"
        if self.redundant_generators:
            d["redundant_generators"] = list(self.redundant_generators)
        return d


def spec_from_dict(data: dict) -> GroupSpec:
    family = data.get("family")
    if family not in ("free", "finite-table", "small-cancellation", "free-product"):
        raise SpecError(f"unknown family {family!r}")
    parab = data.get("parabolics", "none")
    parabolics = () if parab in ("none", None) else tuple(int(i) for i in parab)
    redundant = tuple(data.get("redundant_generators", ()))
    if family == "finite-table":
        t = data.get("table")
        if not isinstance(t, dict):
            raise SpecError("finite-table spec needs a 'table' object")
        table = TableData(
            size=int(t["size"]),
            mul=tuple(tuple(int(x) for x in row) for row in t["mul"]),
            generators=tuple(sorted((str(n), int(i)) for n, i in t["generators"].items())),
        )
        return GroupSpec(family, table=table, parabolics=parabolics,
                         redundant_generators=redundant)
    if family == "free-product":
        factors = tuple(spec_from_dict(f) for f in data.get("factors", ()))
        return GroupSpec(family, factors=factors, parabolics=parabolics,
                         redundant_generators=redundant)
    gens = tuple(str(g) for g in data.get("generators", ()))
    relators = tuple(str(r) for r in data.get("relators", ()))
    return GroupSpec(family, generators=gens, relators=relators,
                     parabolics=parabolics, redundant_generators=redundant)


def load_spec(path: str) -> GroupSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def spec_hash(spec: GroupSpec) -> str:
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# families

class Group:
    """Common interface: canonical words in signed primitive letters."""

    gen_names: tuple[str, ...]
    spec: GroupSpec

    one: Word = ()

    def reduce(self, word: Iterable[int]) -> Word:
        raise NotImplementedError

    def multiply(self, u: Word, v: Word) -> Word:
        raise NotImplementedError

    def inverse(self, u: Word) -> Word:
        raise NotImplementedError

    def is_identity(self, word: Word) -> bool:
        return self.reduce(word) == ()

    def equal(self, u: Word, v: Word) -> bool:
        return self.reduce(u) == self.reduce(v)

    # -- enumeration ------------------------------------------------------

    def signed_letters(self) -> list[int]:
        out = []
        for i in range(1, len(self.gen_names) + 1):
            out.extend((i, -i))
        return out

    def elements_within(self, radius: int) -> list[Word]:
        """All canonical words of generator length <= radius, shortlex sorted."""
        seen = {self.one}
        frontier = [self.one]
        for _ in range(radius):
            new = []
            for w in frontier:
                for letter in self.signed_letters():
                    z = self.multiply(w, (letter,))
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
            frontier = new
            if not frontier:
                break
        return sorted(seen, key=shortlex_key)

    def parse(self, text: str) -> Word:
        return self.reduce(parse_word(text, self.gen_names))

    def format(self, word: Word) -> str:
        return word_to_str(word, self.gen_names)


class FreeGroup(Group):
    def __init__(self, spec: GroupSpec):
        if not spec.generators:
            raise SpecError("free family needs at least one generator")
        _check_names(spec.generators)
        self.spec = spec
        self.gen_names = tuple(spec.generators)

    def reduce(self, word: Iterable[int]) -> Word:
        return free_reduce(word)

    def multiply(self, u: Word, v: Word) -> Word:
        if not u:
            return v
        if not v:
            return u
        # cancel only at the junction; u and v are already reduced
        i = len(u)
        j = 0
        while i > 0 and j < len(v) and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return u[:i] + v[j:]

    def inverse(self, u: Word) -> Word:
        return invert_free(u)


class TableGroup(Group):
    """Finite group given by a multiplication table (identity at index 0)."""

    def __init__(self, spec: GroupSpec):
        table = spec.table
        if table is None:
            raise SpecError("finite-table family needs a table")
        n = table.size
        mul = table.mul
        if len(mul) != n or any(len(row) != n for row in mul):
            raise SpecError("multiplication table must be size x size")
        for row in mul:
            for x in row:
                if not 0 <= x < n:
                    raise SpecError("table entry out of range")
        for i in range(n):
            if mul[0][i] != i or mul[i][0] != i:
                raise SpecError("index 0 must be the identity")
        if n <= 64:  # cheap at spec scale; skip for big imported tables
            for a in range(n):
                for b in range(n):
                    ab = mul[a][b]
                    for c in range(n):
                        if mul[ab][c] != mul[a][mul[b][c]]:
                            raise SpecError("table is not associative")
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if mul[a][b] == 0:
                    inv[a] = b
        if any(i < 0 for i in inv):
            raise SpecError("table has a non-invertible element")

        names = tuple(name for name, _ in table.generators)
        _check_names(names)
        self.spec = spec
        self.gen_names = names
        self._mul = mul
        self._inv = tuple(inv)
        self._gen_elts = tuple(idx for _, idx in table.generators)
        for idx in self._gen_elts:
            if not 0 < idx < n:
                raise SpecError("generator element index out of range")

        # shortlex-least signed word per element, by BFS from the identity
        canon: list[Word | None] = [None] * n
        canon[0] = ()
        queue = [0]
        while queue:
            nxt: list[int] = []
            for elt in queue:
                w = canon[elt]
                assert w is not None
                for letter in self.signed_letters():
                    g = self._gen_elts[abs(letter) - 1]
                    if letter < 0:
                        g = self._inv[g]
                    image = mul[elt][g]
                    if canon[image] is None:
                        canon[image] = w + (letter,)
                        nxt.append(image)
            queue = nxt
        if any(c is None for c in canon):
            raise SpecError("declared generators do not generate the table group")
        self._canon: tuple[Word, ...] = tuple(c for c in canon if c is not None)
        self._index = {w: i for i, w in enumerate(self._canon)}
        self.size = n

    def element_index(self, word: Iterable[int]) -> int:
        elt = 0
        for letter in word:
            g = self._gen_elts[abs(letter) - 1]
            if letter < 0:
                g = self._inv[g]
            elt = self._mul[elt][g]
        return elt

    def canonical_word(self, index: int) -> Word:
        return self._canon[index]

    def reduce(self, word: Iterable[int]) -> Word:
        return self._canon[self.element_index(word)]

    def multiply(self, u: Word, v: Word) -> Word:
        i = self._index.get(u)
        j = self._index.get(v)
        if i is None:
            i = self.element_index(u)
        if j is None:
            j = self.element_index(v)
        return self._canon[self._mul[i][j]]

    def inverse(self, u: Word) -> Word:
        i = self._index.get(u)
        if i is None:
            i = self.element_index(u)
        return self._canon[self._inv[i]]

    def all_elements(self) -> list[Word]:
        return sorted(self._canon, key=shortlex_key)


class DehnReductionError(RuntimeError):
    pass


class SmallCancellationGroup(Group):
    """C'(1/6) presentation; the word problem runs by Dehn's algorithm.

    Equality testing is exact (Greendlinger).  The stored normal form is the
    shortlex-least word among Dehn-reduced words reachable by
    non-length-increasing half-relator rewrites within ``search_depth`` steps,
    which canonicalizes every element met at desk scale; ``equal`` never
    relies on it.
    """

    def __init__(self, spec: GroupSpec, search_depth: int | None = None):
        if not spec.generators:
            raise SpecError("small-cancellation family needs generators")
        _check_names(spec.generators)
        self.spec = spec
        self.gen_names = tuple(spec.generators)
        self.relators: tuple[Word, ...] = tuple(
            free_reduce(parse_word(r, self.gen_names)) for r in spec.relators
        )
        for r in self.relators:
            if not r:
                raise SpecError("empty relator")
            if r[0] == -r[-1]:
                raise SpecError(f"relator {r} is not cyclically reduced")
        self.max_relator_len = max((len(r) for r in self.relators), default=0)
        self.search_depth = (2 * self.max_relator_len if search_depth is None
                             else search_depth)

        # tagged cyclic rotations of relators and their inverses
        self._rotations: list[Word] = []
        for r in self.relators:
            for w in (r, invert_free(r)):
                for s in range(len(w)):
                    self._rotations.append(w[s:] + w[:s])
        # (prefix, replacement) pairs: prefix longer than half a rotation
        self._majority: list[tuple[Word, Word]] = []
        self._half_swaps: list[tuple[Word, Word]] = []
        for rot in self._rotations:
            L = len(rot)
            for k in range(L // 2 + 1, L + 1):
                self._majority.append((rot[:k], invert_free(rot[k:])))
            if L % 2 == 0:
                k = L // 2
                self._half_swaps.append((rot[:k], invert_free(rot[k:])))
        # longest candidates first so one scan finds the longest match
        self._majority.sort(key=lambda pr: (-len(pr[0]), shortlex_key(pr[0])))
        self._nf_cache: dict[Word, Word] = {}

    # -- Dehn reduction ----------------------------------------------------

    def _find_majority(self, word: Word) -> tuple[int, Word, Word] | None:
        best: tuple[int, Word, Word] | None = None
        for prefix, repl in self._majority:
            k = len(prefix)
            if k > len(word):
                continue
            for i in range(len(word) - k + 1):
                if word[i:i + k] == prefix:
                    if best is None or i < best[0] or (i == best[0] and k > len(best[1])):
                        best = (i, prefix, repl)
                    break  # leftmost occurrence of this prefix
        return best

    def dehn_reduce(self, word: Iterable[int]) -> Word:
        w = free_reduce(word)
        for _ in range(10000):
            hit = self._find_majority(w)
            if hit is None:
                return w
            i, prefix, repl = hit
            w = free_reduce(w[:i] + repl + w[i + len(prefix):])
        raise DehnReductionError("Dehn reduction did not terminate")

    def is_identity(self, word: Word) -> bool:
        return self.dehn_reduce(word) == ()

    def equal(self, u: Word, v: Word) -> bool:
        return self.is_identity(free_reduce(u + invert_free(v)))

    def reduce(self, word: Iterable[int]) -> Word:
        w = self.dehn_reduce(word)
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        best = self._canonical_search(w)
        self._nf_cache[w] = best
        return best

    def _canonical_search(self, start: Word) -> Word:
        """Shortlex-least word reachable by half-relator swaps (bounded BFS)."""
        seen = {start}
        frontier = [start]
        best = start
        for _ in range(self.search_depth):
            nxt = []
            for w in frontier:
                for prefix, repl in self._half_swaps:
                    k = len(prefix)
                    if k > len(w):
                        continue
                    for i in range(len(w) - k + 1):
                        if w[i:i + k] == prefix:
                            z = free_reduce(w[:i] + repl + w[i + k:])
                            if len(z) < len(w):
                                # a swap exposed a shorter word; it dominates
                                return self._canonical_search(self.dehn_reduce(z))
                            if z not in seen:
                                seen.add(z)
                                nxt.append(z)
            frontier = nxt
            if not frontier:
                break
        for w in seen:
            if shortlex_key(w) < shortlex_key(best):
                best = w
        return best

    def multiply(self, u: Word, v: Word) -> Word:
        return self.reduce(u + v)

    def inverse(self, u: Word) -> Word:
        return self.reduce(invert_free(u))


class FreeProductGroup(Group):
    """Free product of factor groups; canonical form is alternating syllables."""

    def __init__(self, spec: GroupSpec):
        if len(spec.factors) < 2:
            raise SpecError("free-product family needs at least two factors")
        self.spec = spec
        self.factors: list[Group] = []
        names: list[str] = []
        self._offsets: list[int] = []
        off = 0
        for fs in spec.factors:
            if fs.family == "free-product":
                raise SpecError("nested free products are unsupported; flatten factors")
            if fs.parabolics:
                raise SpecError("factors must not declare their own parabolics")
            g = build_group(fs)
            self.factors.append(g)
            self._offsets.append(off)
            names.extend(g.gen_names)
            off += len(g.gen_names)
        _check_names(tuple(names))
        self.gen_names = tuple(names)
        self._owner: list[int] = []
        for f, g in enumerate(self.factors):
            self._owner.extend([f] * len(g.gen_names))
        for p in spec.parabolics:
            if not 0 <= p < len(self.factors):
                raise SpecError(f"parabolic factor index {p} out of range")
        if len(set(spec.parabolics)) != len(spec.parabolics):
            raise SpecError("duplicate parabolic factor index")

    # -- syllable plumbing --------------------------------------------------

    def owner(self, letter: int) -> int:
        return self._owner[abs(letter) - 1]

    def _to_local(self, factor: int, letter: int) -> int:
        off = self._offsets[factor]
        return letter - off if letter > 0 else letter + off

    def _to_global(self, factor: int, word: Word) -> Word:
        off = self._offsets[factor]
        return tuple(l + off if l > 0 else l - off for l in word)

    def syllables(self, word: Word) -> list[tuple[int, Word]]:
        """Split a canonical word into (factor index, local canonical word)."""
        out: list[tuple[int, Word]] = []
        run: list[int] = []
        cur = -1
        for letter in word:
            f = self.owner(letter)
            if f != cur and run:
                out.append((cur, tuple(run)))
                run = []
            cur = f
            run.append(self._to_local(f, letter))
        if run:
            out.append((cur, tuple(run)))
        return out

    def _assemble(self, syls: list[tuple[int, Word]]) -> Word:
        word: list[int] = []
        for f, local in syls:
            word.extend(self._to_global(f, local))
        return tuple(word)

    def reduce(self, word: Iterable[int]) -> Word:
        # syllable stack; adjacent entries always come from different factors
        syls: list[tuple[int, Word]] = []
        for letter in word:
            f = self.owner(letter)
            local = (self._to_local(f, letter),)
            if syls and syls[-1][0] == f:
                merged = self.factors[f].multiply(syls[-1][1], local)
                syls.pop()
                if merged:
                    syls.append((f, merged))
            else:
                canon = self.factors[f].reduce(local)
                if canon:
                    syls.append((f, canon))
        return self._assemble(syls)

    def multiply(self, u: Word, v: Word) -> Word:
        if not u:
            return v
        if not v:
            return u
        left = self.syllables(u)
        right = self.syllables(v)
        while left and right and left[-1][0] == right[0][0]:
            f = left[-1][0]
            merged = self.factors[f].multiply(left[-1][1], right[0][1])
            left.pop()
            right.pop(0)
            if merged != ():
                left.append((f, merged))
                break
        return self._assemble(left + right)

    def inverse(self, u: Word) -> Word:
        syls = self.syllables(u)
        out = [(f, self.factors[f].inverse(local)) for f, local in reversed(syls)]
        return self._assemble(out)

    # -- parabolic structure --------------------------------------------

    @property
    def parabolic_slots(self) -> tuple[int, ...]:
        return self.spec.parabolics

    def _parabolic_factor(self, slot: int) -> Group:
        if slot not in self.spec.parabolics:
            raise SpecError(f"factor {slot} is not declared parabolic")
        return self.factors[slot]

    def parabolic_is_finite(self, slot: int) -> bool:
        return isinstance(self._parabolic_factor(slot), TableGroup)

    def parabolic_elements(self, slot: int, truncation_radius: int | None = None) -> list[Word]:
        """Non-identity elements of a parabolic factor, as global words.

        `slot` is the factor index (it must be declared parabolic).  Finite
        factors enumerate exactly; infinite ones require a truncation radius
        (canonical-word length in the factor's own generators) and the caller
        is responsible for stamping results as approximate.
        """
        factor = self._parabolic_factor(slot)
        if isinstance(factor, TableGroup):
            local = [w for w in factor.all_elements() if w]
        else:
            if truncation_radius is None:
                raise SpecError(
                    "infinite parabolic subgroup requires a truncation radius")
            local = [w for w in factor.elements_within(truncation_radius) if w]
        return [self._to_global(slot, w) for w in local]

    def coset_rep(self, g: Word, slot: int) -> Word:
        """Canonical representative of the left coset g H_slot."""
        self._parabolic_factor(slot)
        syls = self.syllables(g)
        if syls and syls[-1][0] == slot:
            syls = syls[:-1]
        return self._assemble(syls)


@dataclass(frozen=True)
class CosetId:
    parabolic_slot: int
    rep: Word


def coset_id(group: Group, g: Word, slot: int) -> CosetId:
    if not isinstance(group, FreeProductGroup):
        raise SpecError("cosets are only defined for parabolic factors of a free product")
    return CosetId(slot, group.coset_rep(g, slot))


def _check_names(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate generator names in {names}")
    for n in names:
        if not n or n in IDENTITY_NAMES or n.endswith("'") or any(c.isspace() for c in n):
            raise SpecError(f"invalid generator name {n!r}")


def build_group(spec: GroupSpec) -> Group:
    if spec.family != "free-product" and spec.parabolics:
        raise SpecError("parabolics must be factor indices of a free product")
    if spec.family == "free":
        return FreeGroup(spec)
    if spec.family == "finite-table":
        return TableGroup(spec)
    if spec.family == "small-cancellation":
        return SmallCancellationGroup(spec)
    if spec.family == "free-product":
        return FreeProductGroup(spec)
    raise SpecError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# presentation validation

@dataclass(frozen=True)
class PieceReport:
    pieces: tuple[Word, ...]
    max_piece: Word
    max_ratio: Fraction
    passed: bool


def enumerate_pieces(relators: Sequence[Word]) -> list[tuple[Word, Fraction]]:
    """All pieces with their worst length ratio.

    A piece is a common prefix of two *distinct occurrences*: cyclic rotations
    of the symmetrized relators tagged by (relator, orientation, rotation).
    Equal words under different tags count, so proper powers are rejected.
    """
    tagged: list[tuple[Word, int]] = []
    for r in relators:
        for w in (r, invert_free(r)):
            for s in range(len(w)):
                tagged.append((w[s:] + w[:s], len(r)))
    found: dict[Word, Fraction] = {}
    for i in range(len(tagged)):
        wi, li = tagged[i]
        for j in range(i + 1, len(tagged)):
            wj, lj = tagged[j]
            k = 0
            m = min(len(wi), len(wj))
            while k < m and wi[k] == wj[k]:
                k += 1
            if k == 0:
                continue
            p = wi[:k]
            ratio = max(Fraction(k, li), Fraction(k, lj))
            if p not in found or ratio > found[p]:
                found[p] = ratio
    return sorted(found.items(), key=lambda kv: (shortlex_key(kv[0])))


def validate_presentation(spec: GroupSpec, bound: Fraction = Fraction(1, 6)) -> PieceReport:
    """Piece report for a small-cancellation presentation.

    Passes iff every piece p of every relator r has |p|/|r| < bound.
    """
    if spec.family != "small-cancellation":
        raise SpecError("piece validation applies to the small-cancellation family")
    group = SmallCancellationGroup(spec)
    pieces = enumerate_pieces(group.relators)
    if not pieces:
        return PieceReport((), (), Fraction(0), True)
    max_piece, max_ratio = max(pieces, key=lambda kv: (kv[1], len(kv[0])))
    return PieceReport(
        pieces=tuple(p for p, _ in pieces),
        max_piece=max_piece,
        max_ratio=max_ratio,
        passed=max_ratio < bound,
    )
