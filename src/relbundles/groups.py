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
from itertools import groupby
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


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; true and false are not, though
    Python counts a bool as an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, kind: type, what: str) -> tuple:
    """`value` as a tuple if it is a JSON list of `kind` (int or str)."""
    if not isinstance(value, list) or not all(
            isinstance(x, kind) and not isinstance(x, bool) for x in value):
        noun = "integers" if kind is int else "strings"
        raise SpecError(f"{what} must be a list of {noun}")
    return tuple(value)


def spec_from_dict(data: dict) -> GroupSpec:
    if not isinstance(data, dict):
        raise SpecError("a group spec must be a JSON object")
    family = data.get("family")
    if family not in ("free", "finite-table", "small-cancellation", "free-product"):
        raise SpecError(f"unknown family {family!r}")
    parab = data.get("parabolics", "none")
    parabolics = () if parab in ("none", None) else json_list(parab, int, "parabolics")
    redundant = json_list(data.get("redundant_generators", []), str,
                          "redundant_generators")
    if family == "finite-table":
        t = data.get("table")
        if not isinstance(t, dict):
            raise SpecError("finite-table spec needs a 'table' object")
        mul = t.get("mul")
        if not isinstance(mul, list):
            raise SpecError("table 'mul' must be a list of rows")
        names = t.get("generators")
        if not isinstance(names, dict):
            raise SpecError("table 'generators' must map names to elements")
        table = TableData(
            size=json_int(t.get("size"), "table size"),
            mul=tuple(json_list(row, int, "table row") for row in mul),
            generators=tuple(sorted((n, json_int(i, f"element of {n!r}"))
                                    for n, i in names.items())),
        )
        return GroupSpec(family, table=table, parabolics=parabolics,
                         redundant_generators=redundant)
    if family == "free-product":
        factors = data.get("factors", [])
        if not isinstance(factors, list):
            raise SpecError("'factors' must be a list of group specs")
        return GroupSpec(family, factors=tuple(map(spec_from_dict, factors)),
                         parabolics=parabolics, redundant_generators=redundant)
    gens = json_list(data.get("generators", []), str, "generators")
    relators = json_list(data.get("relators", []), str, "relators")
    return GroupSpec(family, generators=gens, relators=relators,
                     parabolics=parabolics, redundant_generators=redundant)


def load_json(path: str) -> dict:
    """The JSON object a file holds; anything else is a SpecError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # bad JSON, or bytes that are not UTF-8
            raise SpecError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path} must hold a JSON object")
    return doc


def load_spec(path: str) -> GroupSpec:
    return spec_from_dict(load_json(path))


def spec_hash(spec: GroupSpec) -> str:
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# families

class Group:
    """Common interface: canonical words in signed primitive letters."""

    gen_names: tuple[str, ...]
    spec: GroupSpec

    def reduce(self, word: Iterable[int]) -> Word:
        raise NotImplementedError

    def multiply(self, u: Word, v: Word) -> Word:
        raise NotImplementedError

    def inverse(self, u: Word) -> Word:
        raise NotImplementedError

    # -- enumeration ------------------------------------------------------

    def signed_letters(self) -> list[int]:
        out = []
        for i in range(1, len(self.gen_names) + 1):
            out.extend((i, -i))
        return out

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

    def reduce(self, word: Iterable[int]) -> Word:
        return self._canon[self.element_index(word)]

    def multiply(self, u: Word, v: Word) -> Word:
        return self._canon[self._mul[self._index[u]][self._index[v]]]

    def inverse(self, u: Word) -> Word:
        return self._canon[self._inv[self._index[u]]]

    def all_elements(self) -> list[Word]:
        return sorted(self._canon, key=shortlex_key)


class DehnReductionError(RuntimeError):
    pass


class SmallCancellationGroup(Group):
    """C'(1/6) presentation; the word problem runs by Dehn's algorithm.

    Equality testing is exact (Greendlinger).  The stored normal form is the
    shortlex-least word among Dehn-reduced words reachable by
    non-length-increasing half-relator rewrites within ``search_depth`` steps
    (twice the longest relator).  Where every relator has even length this
    canonicalizes every element met at desk scale; half-relator swaps need
    an even relator, so on an odd one (``a b c d a' b' c' d' a``) two
    spellings of one element can stay apart.  Dehn's algorithm
    (``dehn_reduce`` reaching e) never relies on it.  ``pieces`` keeps the
    C'(1/6) piece report of the relators.
    """

    def __init__(self, spec: GroupSpec):
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
        self.search_depth = 2 * self.max_relator_len

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
        # the first pair per prefix wins a tie
        self._majority_index: dict[Word, Word] = {}
        for prefix, repl in self._majority:
            self._majority_index.setdefault(prefix, repl)
        self._majority_lengths = sorted(
            {len(prefix) for prefix, _ in self._majority}, reverse=True)
        # every majority prefix starts with one of these m-grams, m the
        # shortest majority length over all relators
        self._head_len = min(self._majority_lengths, default=1)
        self._majority_heads = frozenset(
            prefix[:self._head_len] for prefix, _ in self._majority)
        self._swap_lengths = sorted({len(prefix) for prefix, _ in self._half_swaps})
        self._swap_prefixes = frozenset(prefix for prefix, _ in self._half_swaps)
        # normal forms of the words whose canonical search ran
        self._nf_cache: dict[Word, Word] = {}
        self.pieces = _piece_report(self.relators)

    # -- Dehn reduction ----------------------------------------------------

    def _find_majority(self, word: Word) -> tuple[int, Word, Word] | None:
        """The leftmost majority prefix in `word`, longest at that position."""
        n = len(word)
        m = self._head_len
        heads = self._majority_heads
        index = self._majority_index
        for i in range(n - m + 1):
            if word[i:i + m] not in heads:
                continue
            for k in self._majority_lengths:
                if i + k <= n:
                    repl = index.get(word[i:i + k])
                    if repl is not None:
                        return i, word[i:i + k], repl
        return None

    def dehn_reduce(self, word: Iterable[int]) -> Word:
        w = free_reduce(word)
        for _ in range(10000):
            hit = self._find_majority(w)
            if hit is None:
                return w
            i, prefix, repl = hit
            w = free_reduce(w[:i] + repl + w[i + len(prefix):])
        raise DehnReductionError("Dehn reduction did not terminate")

    def reduce(self, word: Iterable[int]) -> Word:
        w = self.dehn_reduce(word)
        if not self._swappable(w):
            # no swap applies, so the search would keep only w
            return w
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        best = self._canonical_search(w)
        self._nf_cache[w] = best
        return best

    def _swappable(self, word: Word) -> bool:
        """Whether some half-relator swap prefix occurs in `word`."""
        prefixes = self._swap_prefixes
        for k in self._swap_lengths:
            for i in range(len(word) - k + 1):
                if word[i:i + k] in prefixes:
                    return True
        return False

    def _canonical_search(self, start: Word) -> Word:
        """Shortlex-least word reachable by half-relator swaps (bounded BFS)."""
        seen = {start}
        frontier = [start]
        for _ in range(self.search_depth):
            nxt = []
            for w in frontier:
                # positions of each k-gram, ascending, so the visiting order
                # (swap by swap, then left to right) is that of a plain scan
                grams: dict[Word, list[int]] = {}
                for k in self._swap_lengths:
                    for i in range(len(w) - k + 1):
                        grams.setdefault(w[i:i + k], []).append(i)
                for prefix, repl in self._half_swaps:
                    k = len(prefix)
                    for i in grams.get(prefix, ()):
                        z = free_reduce(w[:i] + repl + w[i + k:])
                        if len(z) < len(w):
                            # a swap exposed a shorter word; it dominates
                            return self.reduce(z)
                        if z not in seen:
                            seen.add(z)
                            nxt.append(z)
            frontier = nxt
            if not frontier:
                break
        return min(seen, key=shortlex_key)

    def multiply(self, u: Word, v: Word) -> Word:
        return self.reduce(u + v)

    def inverse(self, u: Word) -> Word:
        return self.reduce(invert_free(u))


class FreeProductGroup(Group):
    """Free product of factor groups; canonical form is alternating syllables.

    A syllable is a maximal run of letters owned by one factor.  Letter
    tables built once map each signed letter to its factor and to its letter
    in the factor's own numbering, and back.  Arithmetic scans runs and hands
    a factor only the syllables that meet at a junction.
    """

    def __init__(self, spec: GroupSpec):
        if len(spec.factors) < 2:
            raise SpecError("free-product family needs at least two factors")
        self.spec = spec
        self.factors: list[Group] = []
        names: list[str] = []
        # signed letter -> factor, signed letter -> factor-local letter, and
        # per factor the local -> global inverse of the latter
        self._owner: dict[int, int] = {}
        self._local: dict[int, int] = {}
        self._global: list[dict[int, int]] = []
        for f, fs in enumerate(spec.factors):
            if fs.family == "free-product":
                raise SpecError("nested free products are unsupported; flatten factors")
            if fs.parabolics:
                raise SpecError("factors must not declare their own parabolics")
            if fs.redundant_generators:
                # the product's moves are its own generators and adjoined words
                raise SpecError("factors must not declare redundant generators; "
                                "adjoin them to the product")
            g = build_group(fs)
            glob: dict[int, int] = {}
            for i in range(1, len(g.gen_names) + 1):
                for sign in (1, -1):
                    letter = sign * (len(names) + i)
                    self._owner[letter] = f
                    self._local[letter] = sign * i
                    glob[sign * i] = letter
            self.factors.append(g)
            self._global.append(glob)
            names.extend(g.gen_names)
        _check_names(tuple(names))
        self.gen_names = tuple(names)
        for p in spec.parabolics:
            if not 0 <= p < len(self.factors):
                raise SpecError(f"parabolic factor index {p} out of range")
        if len(set(spec.parabolics)) != len(spec.parabolics):
            raise SpecError("duplicate parabolic factor index")
        if spec.parabolics and spec.redundant_generators:
            # the slimness sweep scores the relative metric alone, exact only
            # where the graphs are tree-graded over the factor cosets
            raise SpecError("a free product with parabolics must not adjoin "
                            "redundant generators")

    # -- syllable plumbing --------------------------------------------------

    def syllables(self, word: Word) -> list[tuple[int, Word]]:
        """Split a canonical word into (factor index, local canonical word)."""
        local = self._local.__getitem__
        return [(f, tuple(map(local, run)))
                for f, run in groupby(word, self._owner.__getitem__)]

    def lift(self, f: int, local: Word) -> Word:
        """A factor-local word of factor f as a global word."""
        return tuple(map(self._global[f].__getitem__, local))

    def reduce(self, word: Iterable[int]) -> Word:
        out: Word = ()
        for letter in word:
            f = self._owner[letter]
            canon = self.factors[f].reduce((self._local[letter],))
            out = self.multiply(out, tuple(map(self._global[f].__getitem__, canon)))
        return out

    def multiply(self, u: Word, v: Word) -> Word:
        # only the last syllable of u and the first of v can change; merge
        # them, and the next pair too while a merge is the identity
        owner = self._owner
        while u and v:
            f = owner[u[-1]]
            if owner[v[0]] != f:
                break
            s = len(u) - 1
            while s and owner[u[s - 1]] == f:
                s -= 1
            t = 1
            while t < len(v) and owner[v[t]] == f:
                t += 1
            local = self._local.__getitem__
            merged = self.factors[f].multiply(tuple(map(local, u[s:])),
                                              tuple(map(local, v[:t])))
            if merged:
                return u[:s] + tuple(map(self._global[f].__getitem__, merged)) + v[t:]
            u, v = u[:s], v[t:]
        return u + v

    def inverse(self, u: Word) -> Word:
        local = self._local.__getitem__
        out: list[int] = []
        for f, run in groupby(reversed(u), self._owner.__getitem__):
            inv = self.factors[f].inverse(tuple(map(local, run))[::-1])
            out.extend(map(self._global[f].__getitem__, inv))
        return tuple(out)

    def syllable_distance(self, u: Word, v: Word, coned: frozenset[int]) -> int:
        """Length of u⁻¹v, where a syllable from a `coned` factor counts 1.

        The syllables u and v share cancel; the first ones that differ merge
        when they lie in one factor; the rest of u (inverted) and of v
        counts run by run.  Neither u⁻¹ nor u⁻¹v is built.  Another syllable
        counts the length of its normal form.  In a small-cancellation
        factor that is its word length where the ladder lemma of
        relgraph's `_geodesic_reach` holds: even relators, pieces of one
        letter, and at most L_max letters (50 on genus 2); elsewhere it is
        an upper bound, so the oracle uses this count only on products
        whose non-coned small-cancellation factors meet the first two.
        """
        owner = self._owner
        m = min(len(u), len(v))
        i = 0
        while i < m and u[i] == v[i]:
            i += 1
        if i:
            # a shared letter whose syllable goes on in u or v is not in a
            # shared syllable: back up to where that syllable starts
            f = owner[u[i - 1]]
            if (i < len(u) and owner[u[i]] == f) or (i < len(v) and owner[v[i]] == f):
                while i and owner[u[i - 1]] == f:
                    i -= 1
        j = i
        total = 0
        local = self._local.__getitem__
        # as in multiply, a merge that is the identity lets the next pair meet
        while i < len(u) and j < len(v) and owner[u[i]] == owner[v[j]]:
            f = owner[u[i]]
            s, t = i, j
            while i < len(u) and owner[u[i]] == f:
                i += 1
            while j < len(v) and owner[v[j]] == f:
                j += 1
            factor = self.factors[f]
            merged = factor.multiply(factor.inverse(tuple(map(local, u[s:i]))),
                                     tuple(map(local, v[t:j])))
            if merged:
                total += 1 if f in coned else len(merged)
                break
        for f, run in groupby(u[i:], owner.__getitem__):
            if f in coned:
                total += 1
            else:
                total += len(self.factors[f].inverse(tuple(map(local, run))))
        for f, run in groupby(v[j:], owner.__getitem__):
            total += 1 if f in coned else len(tuple(run))
        return total

    # -- parabolic structure --------------------------------------------

    @property
    def parabolic_slots(self) -> tuple[int, ...]:
        return self.spec.parabolics

    def parabolic_elements(self, slot: int) -> list[Word]:
        """Non-identity elements of a parabolic factor, as global words.

        `slot` is the factor index; it must be declared parabolic and be a
        finite table, since coning off an infinite factor would give the
        relative graph vertices of infinite degree.
        """
        if slot not in self.spec.parabolics:
            raise SpecError(f"factor {slot} is not declared parabolic")
        factor = self.factors[slot]
        if not isinstance(factor, TableGroup):
            raise SpecError(
                f"parabolic factor {slot} ({', '.join(factor.gen_names)}) is "
                "infinite: infinite parabolic subgroups are not supported")
        return [self.lift(slot, w) for w in factor.all_elements() if w]


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
        group = SmallCancellationGroup(spec)
        # Dehn's algorithm decides the word problem only under C'(1/6)
        report = group.pieces
        if not report.passed:
            raise SpecError(
                "presentation fails the C'(1/6) metric condition: piece "
                f"{group.format(report.max_piece)} has ratio {report.max_ratio}")
        return group
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


def enumerate_pieces(relators: Sequence[Word]) -> list[tuple[Word, int]]:
    """All pieces, each with the length of the shortest relator it lies in.

    A piece is a common prefix of two *distinct occurrences*: cyclic rotations
    of the symmetrized relators tagged by (relator, orientation, rotation).
    Equal words under different tags count, so proper powers are rejected.
    A piece p with shortest relator length l has worst ratio |p|/l.
    """
    tagged: list[tuple[Word, int]] = []
    for r in relators:
        for w in (r, invert_free(r)):
            for s in range(len(w)):
                tagged.append((w[s:] + w[:s], len(r)))
    found: dict[Word, int] = {}
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
            found[p] = min(li, lj, found.get(p, li))
    return sorted(found.items(), key=lambda kv: (shortlex_key(kv[0])))


def validate_presentation(spec: GroupSpec) -> PieceReport:
    """Piece report for a small-cancellation presentation.

    Passes iff every piece p of every relator r has |p|/|r| < 1/6: C'(1/6).
    """
    if spec.family != "small-cancellation":
        raise SpecError("piece validation applies to the small-cancellation family")
    return SmallCancellationGroup(spec).pieces


def _piece_report(relators: Sequence[Word]) -> PieceReport:
    """Piece report for cyclically reduced relators, as in validate_presentation."""
    pieces = enumerate_pieces(relators)
    if not pieces:
        return PieceReport((), (), Fraction(0), True)
    # the first piece of greatest ratio |p|/l, then greatest length; ratios
    # compare as integer cross-products
    top, top_len = pieces[0]
    for p, l in pieces[1:]:
        c = len(p) * top_len - len(top) * l
        if c > 0 or (c == 0 and len(p) > len(top)):
            top, top_len = p, l
    return PieceReport(
        pieces=tuple(p for p, _ in pieces),
        max_piece=top,
        max_ratio=Fraction(len(top), top_len),
        passed=6 * len(top) < top_len,
    )
