"""Tests for group arithmetic: normal forms, cosets, piece validation."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relbundles.groups import (
    SpecError,
    build_group,
    free_reduce,
    invert_free,
    load_spec,
    shortlex_key,
    spec_from_dict,
    spec_hash,
    validate_presentation,
)
from relbundles.relgraph import RelativeGraph
from referees import canonical_word, equal, is_identity

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cyclic_table(n: int) -> dict:
    return {
        "size": n,
        "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": {"a": 1},
    }


def _s3_table() -> dict:
    """Symmetric group on 3 points; elements indexed with identity first."""
    perms = [(0, 1, 2)]
    for p in [(1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        perms.append(p)
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    mul = [[index[compose(perms[i], perms[j])] for j in range(len(perms))]
           for i in range(len(perms))]
    return {"size": 6, "mul": mul, "generators": {"r": 1, "s": 3}}


Z3_TABLE = _cyclic_table(3)
Z2_TABLE = {"size": 2, "mul": [[0, 1], [1, 0]], "generators": {"b": 1}}

F2 = build_group(spec_from_dict({"family": "free", "generators": ["a", "b"]}))
Z3 = build_group(spec_from_dict(Z3_TABLE | {"family": "finite-table", "table": Z3_TABLE}))
Z6 = build_group(spec_from_dict({"family": "finite-table", "table": _cyclic_table(6)}))
S3 = build_group(spec_from_dict({"family": "finite-table", "table": _s3_table()}))

GENUS2_SPEC = spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d"],
    "relators": ["a b a' b' c d c' d'"],
})
GENUS2 = build_group(GENUS2_SPEC)

# two relators of different lengths: majority lengths 5-12, half-swap
# lengths 4 and 6, max piece ratio 1/8
TWO_RELATOR = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d", "f", "g", "h", "i", "j", "k"],
    "relators": ["a b a' b' c d c' d'", "f g h i j k f' g' h' i' j' k'"],
}))
# an odd relator has no half swaps
ODD_RELATOR = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c", "d", "f", "g", "h"],
    "relators": ["a b c d f g h"],
}))
NO_RELATOR = build_group(spec_from_dict({
    "family": "small-cancellation",
    "generators": ["a", "b", "c"],
    "relators": [],
}))

Z3Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": Z3_TABLE},
                {"family": "finite-table", "table": Z2_TABLE}],
    "parabolics": [0, 1],
}))

# Z * Z2: one infinite parabolic factor
ZFREE_Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "free", "generators": ["a"]},
                {"family": "finite-table", "table": Z2_TABLE}],
    "parabolics": [0],
}))

# S3 * Z: a non-abelian, non-parabolic finite factor with syllables of
# length up to 3, beside an infinite parabolic one
S3_Z = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _s3_table()},
                {"family": "free", "generators": ["t"]}],
    "parabolics": [1],
}))

ALL_GROUPS = [F2, Z3, Z6, S3, GENUS2, Z3Z2, ZFREE_Z2]
FREE_PRODUCTS = [Z3Z2, ZFREE_Z2, S3_Z]
over_free_products = pytest.mark.parametrize(
    "group", FREE_PRODUCTS, ids=["Z3Z2", "ZxZ2", "S3xZ"])

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


def _letters(group) -> list[int]:
    return group.signed_letters()


def _word_strategy(group, max_len: int = 10):
    return st.lists(st.sampled_from(_letters(group)), max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# independent oracles

def _scan_reduce(word):
    """Free reduction by repeated full scans (quadratic reference method)."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i:i + 2]
                changed = True
                break
    return tuple(w)


def _table_fold(table: dict, word) -> int:
    """Evaluate a signed word letter-by-letter straight off the table."""
    mul = table["mul"]
    gens = sorted(table["generators"].items())
    inv = {}
    for i in range(table["size"]):
        for j in range(table["size"]):
            if mul[i][j] == 0:
                inv[i] = j
    cur = 0
    for letter in word:
        g = gens[abs(letter) - 1][1]
        cur = mul[cur][g if letter > 0 else inv[g]]
    return cur


def _exponent_vector(word, n_gens: int):
    v = [0] * n_gens
    for letter in word:
        v[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(v)


def _factor_starts(group) -> list[int]:
    """Factor f owns the global letters starts[f] + 1 .. starts[f + 1]."""
    return list(itertools.accumulate(
        [0] + [len(f.gen_names) for f in group.factors]))


def _free_product_fold(group, word) -> list[tuple[int, tuple[int, ...]]]:
    """Syllables of a letter sequence's normal form, from the factors alone.

    Letters are numbered factor by factor in declaration order.  Each one
    joins the top syllable of a stack when it comes from the same factor,
    and that factor's `reduce` re-canonicalizes the syllable; one that
    reduces to the identity is popped.  The free product's own `multiply`,
    `inverse`, `syllables` and letter tables are never used.
    """
    starts = _factor_starts(group)
    stack: list[tuple[int, tuple[int, ...]]] = []
    for letter in word:
        f = next(i for i in range(len(group.factors))
                 if starts[i] < abs(letter) <= starts[i + 1])
        local = letter - starts[f] if letter > 0 else letter + starts[f]
        if stack and stack[-1][0] == f:
            syl = group.factors[f].reduce(stack.pop()[1] + (local,))
        else:
            syl = group.factors[f].reduce((local,))
        if syl:
            stack.append((f, syl))
    return stack


def _join_syllables(group, syls) -> tuple[int, ...]:
    starts = _factor_starts(group)
    return tuple(l + starts[f] if l > 0 else l - starts[f]
                 for f, syl in syls for l in syl)


def _scan_majority(group, word):
    """Dehn's majority match by a linear scan of every prefix (reference).

    Each prefix, longest first, is matched at its leftmost position; the
    smallest position wins, then the longest prefix there.
    """
    best = None
    for prefix, repl in group._majority:
        k = len(prefix)
        if k > len(word):
            continue
        for i in range(len(word) - k + 1):
            if word[i:i + k] == prefix:
                if best is None or i < best[0] or (i == best[0] and k > len(best[1])):
                    best = (i, prefix, repl)
                break  # leftmost occurrence of this prefix
    return best


def _bfs_canonical(group, start):
    """Shortlex-least word reachable by half-relator swaps (reference).

    A breadth-first search of `search_depth` rounds from the Dehn-reduced
    `start` over every half swap at every position; a swap that shortens
    the word restarts the search from its Dehn reduction.
    """
    seen = {start}
    frontier = [start]
    for _ in range(group.search_depth):
        nxt = []
        for w in frontier:
            for prefix, repl in group._half_swaps:
                k = len(prefix)
                for i in range(len(w) - k + 1):
                    if w[i:i + k] != prefix:
                        continue
                    z = free_reduce(w[:i] + repl + w[i + k:])
                    if len(z) < len(w):
                        return _bfs_canonical(group, group.dehn_reduce(z))
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
        frontier = nxt
        if not frontier:
            break
    return min(seen, key=shortlex_key)


def _all_words(n_letters: int, alphabet) -> list:
    out = [()]
    frontier = [()]
    for _ in range(n_letters):
        frontier = [w + (l,) for w in frontier for l in alphabet]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# pinned normal forms

def test_free_reduction_example():
    assert F2.format(F2.parse("a b b' a")) == "a a"
    assert F2.parse("a a'") == ()
    assert F2.format(()) == "e"


def test_identity_spellings_parse_to_empty_word():
    for text in ("", "e", "1"):
        assert F2.parse(text) == ()


def test_z3_table_normal_forms():
    assert Z3.format(Z3.parse("a a a a")) == "a"
    # a^2 = a^-1, so the canonical spelling is the shorter one
    assert Z3.format(Z3.reduce((1, 1))) == "a'"


def test_z6_canonical_words_pinned():
    want = ["e", "a", "a a", "a a a", "a' a'", "a'"]
    got = [Z6.format(canonical_word(Z6, i)) for i in range(6)]
    assert got == want


def test_s3_canonical_words_are_a_bijection():
    words = S3.all_elements()
    assert len(set(words)) == 6
    for i in range(6):
        assert S3.element_index(canonical_word(S3, i)) == i


def test_free_product_multiplication_examples():
    ab = Z3Z2.parse("a b")
    assert Z3Z2.format(Z3Z2.multiply(ab, Z3Z2.parse("a"))) == "a b a"
    assert Z3Z2.format(Z3Z2.multiply(ab, Z3Z2.parse("b"))) == "a"
    assert Z3Z2.multiply(Z3Z2.parse("a"), Z3Z2.parse("a'")) == ()
    assert Z3Z2.format(Z3Z2.inverse(ab)) == "b a'"


def test_free_product_syllables_alternate():
    w = Z3Z2.parse("a b a a b")
    syls = Z3Z2.syllables(w)
    owners = [f for f, _ in syls]
    assert owners == [0, 1, 0, 1]  # "a b a' b": a·a = a² = a'
    assert Z3Z2.format(w) == "a b a' b"


class TestFreeProductReferee:
    """Free-product arithmetic against the syllable-stack fold."""

    @PROPERTY_SETTINGS
    @over_free_products
    @given(data=st.data())
    def test_reduce_and_syllables(self, group, data):
        w = data.draw(_word_strategy(group, 16))
        syls = _free_product_fold(group, w)
        assert group.reduce(w) == _join_syllables(group, syls)
        assert group.syllables(_join_syllables(group, syls)) == syls

    @PROPERTY_SETTINGS
    @over_free_products
    @given(data=st.data())
    def test_multiply(self, group, data):
        x = data.draw(_word_strategy(group, 14))
        y = data.draw(_word_strategy(group, 14))
        u = _join_syllables(group, _free_product_fold(group, x))
        v = _join_syllables(group, _free_product_fold(group, y))
        assert group.multiply(u, v) == _join_syllables(
            group, _free_product_fold(group, x + y))

    @PROPERTY_SETTINGS
    @over_free_products
    @given(data=st.data())
    def test_inverse(self, group, data):
        x = data.draw(_word_strategy(group, 14))
        u = _join_syllables(group, _free_product_fold(group, x))
        assert group.inverse(u) == _join_syllables(
            group, _free_product_fold(group, invert_free(x)))


def _arithmetic_digest(group, seed: int = 2026, count: int = 3000) -> str:
    rng = random.Random(seed)
    letters = _letters(group)
    rows = []
    for _ in range(count):
        u, v = (group.reduce(tuple(rng.choice(letters)
                                   for _ in range(rng.randint(0, 14))))
                for _ in range(2))
        rows.append([u, v, group.multiply(u, v), group.inverse(u),
                     group.syllables(u)])
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("z3z2_rel_factors.json",
     "b752788c948563c31b2193208bff6ce5ca15e903a9cb0fd348332b365b7b1473"),
    ("f2_z_parabolic.json",
     "e9d032c2140609ba1d7107d379cac80a5b26d86330483829a20ae07879b8c422"),
])
def test_free_product_arithmetic_pinned(name, digest):
    """Seeded multiply, inverse and syllables results, pinned by digest."""
    group = build_group(load_spec(os.path.join(SPECS, name)))
    assert _arithmetic_digest(group) == digest


# ---------------------------------------------------------------------------
# parabolic enumeration

def test_coset_id_requires_parabolic_slot():
    with pytest.raises(SpecError, match="factor 1 is not declared parabolic"):
        ZFREE_Z2.parabolic_elements(1)


def test_parabolic_elements_exact():
    assert [Z3Z2.format(w) for w in Z3Z2.parabolic_elements(0)] == ["a", "a'"]
    assert [Z3Z2.format(w) for w in Z3Z2.parabolic_elements(1)] == ["b"]


def test_exact_mode_on_infinite_parabolic_fails():
    with pytest.raises(SpecError, match="infinite parabolic subgroups are not supported"):
        ZFREE_Z2.parabolic_elements(0)


# ---------------------------------------------------------------------------
# Dehn's algorithm on the genus-2 surface group

def test_dehn_kills_the_relator():
    rel = GENUS2.parse("a b a' b' c d c' d'")
    assert rel == ()


def test_commutator_bigon():
    # [a,b] and [d,c] are the two halves of the relator: equal elements,
    # distinct freely reduced words of length 4.
    u = free_reduce(GENUS2.parse("a b a' b'"))
    v = free_reduce((4, 3, -4, -3))  # d c d' c'
    assert equal(GENUS2, u, v)
    assert GENUS2.reduce(u) == GENUS2.reduce(v)
    assert GENUS2.reduce(u) != ()


def test_dehn_reduce_handles_conjugated_relators():
    rel = (1, 2, -1, -2, 3, 4, -3, -4)
    for conj in [(1,), (2, 3), (-4, 1, 2)]:
        w = conj + rel + invert_free(conj)
        assert is_identity(GENUS2, w)
        assert GENUS2.reduce(w + (1,)) == (1,)


def _rotation_words(group, rng, count):
    """Words spliced from relator-rotation slices and random letters."""
    letters = _letters(group)
    for _ in range(count):
        word = []
        for _ in range(rng.randint(1, 3)):
            word += rng.choices(letters, k=rng.randint(0, 3))
            rot = rng.choice(group._rotations)
            word += rot[:rng.randint(len(rot) // 2, len(rot))]
        yield tuple(word + rng.choices(letters, k=rng.randint(0, 3)))


def _random_and_rotation_words(group, seed):
    rng = random.Random(seed)
    letters = _letters(group)
    randoms = (tuple(rng.choices(letters, k=rng.randint(0, 16)))
               for _ in range(3000))
    return itertools.chain(randoms, _rotation_words(group, rng, 3000))


def test_indexed_majority_matches_linear_scan():
    # on TWO_RELATOR the shortest majority length (5, of the 8-relator) is
    # below that of the 12-relator (7), so the index must use the former
    for group in (GENUS2, TWO_RELATOR):
        for w in _random_and_rotation_words(group, 7):
            assert group._find_majority(w) == _scan_majority(group, w)


@pytest.mark.parametrize("group", [GENUS2, TWO_RELATOR, ODD_RELATOR],
                         ids=["genus2", "two-relator", "odd-relator"])
def test_canonical_search_matches_bfs_referee(group):
    for w in _random_and_rotation_words(group, 11):
        assert group.reduce(w) == _bfs_canonical(group, group.dehn_reduce(w)), w


def test_no_relators_reduce_freely():
    rng = random.Random(5)
    letters = _letters(NO_RELATOR)
    for _ in range(500):
        w = tuple(rng.choices(letters, k=rng.randint(0, 16)))
        assert NO_RELATOR.reduce(w) == free_reduce(w)


def _sorted_ball(radius):
    ball = RelativeGraph(GENUS2).ball((), radius)
    return sorted([list(w), d] for w, d in ball.entries.items())


def test_genus2_ball_normal_forms_pinned():
    """Every normal form in the radius-5 ball, pinned by digest."""
    pairs = _sorted_ball(5)
    assert len(pairs) == 22289
    blob = json.dumps(pairs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "7b4ba9f31e50232e615e7e3998d84e26eb754b6f3399951ac431d3720f3368aa")


def test_genus2_normal_forms_are_unique():
    """No two normal forms in the radius-4 ball name the same element.

    Ball BFS takes tuple equality for group equality, but `reduce` ends in
    a bounded search.  Equal elements have equal distance from e and equal
    exponent vectors, so exact Dehn equality is tried within those buckets.
    """
    buckets: dict[tuple, list] = {}
    for w, d in _sorted_ball(4):
        buckets.setdefault((d, _exponent_vector(w, 4)), []).append(tuple(w))
    pairs = 0
    for words in buckets.values():
        for u, v in itertools.combinations(words, 2):
            assert not equal(GENUS2, u, v), (u, v)
            pairs += 1
    assert pairs == 23345


# ---------------------------------------------------------------------------
# presentation validation

def test_genus2_presentation_passes():
    report = validate_presentation(GENUS2_SPEC)
    assert report.passed
    assert report.max_ratio == Fraction(1, 8)


def test_klein_bottle_presentation_fails():
    spec = spec_from_dict({
        "family": "small-cancellation",
        "generators": ["a", "b"],
        "relators": ["a b a b'"],
    })
    report = validate_presentation(spec)
    assert not report.passed
    assert report.max_ratio >= Fraction(1, 4)
    # Dehn's algorithm is wrong here, so no group is built
    with pytest.raises(SpecError, match=r"C'\(1/6\).*ratio 1/4"):
        build_group(spec)


def test_validation_rejects_other_families():
    with pytest.raises(SpecError):
        validate_presentation(spec_from_dict({"family": "free", "generators": ["a"]}))


def test_relators_must_be_cyclically_reduced():
    with pytest.raises(SpecError):
        build_group(spec_from_dict({
            "family": "small-cancellation",
            "generators": ["a", "b"],
            "relators": ["a b a'"],
        }))


# ---------------------------------------------------------------------------
# spec parsing and serialization

def test_spec_json_round_trip(tmp_path):
    spec = Z3Z2.spec
    path = tmp_path / "spec.json"
    path.write_text(__import__("json").dumps(spec.to_dict()))
    again = load_spec(str(path))
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


@pytest.mark.parametrize("text", ['{"family": "free",', '["free"]'],
                         ids=["malformed", "list"])
def test_load_spec_rejects_what_is_not_a_json_object(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(SpecError, match="spec.json"):
        load_spec(str(path))


def test_unknown_generator_name_is_an_error():
    with pytest.raises(SpecError):
        F2.parse("a x")


def test_bad_generator_names_rejected():
    for bad in (["a", "a"], ["e"], ["a'"], ["a b"]):
        with pytest.raises(SpecError):
            build_group(spec_from_dict({"family": "free", "generators": bad}))


def test_parabolics_only_on_free_products():
    with pytest.raises(SpecError):
        build_group(spec_from_dict(
            {"family": "free", "generators": ["a"], "parabolics": [0]}))


def test_factor_redundant_generators_rejected():
    """The product's moves are its own generators and adjoined words, so a
    factor's adjoined words would be silently dropped."""
    factor = {"family": "free", "generators": ["a", "b"],
              "redundant_generators": ["a b"]}
    with pytest.raises(SpecError, match="factors must not declare redundant"):
        build_group(spec_from_dict({
            "family": "free-product",
            "factors": [factor, {"family": "free", "generators": ["t"]}]}))


def test_parabolic_beside_adjoined_words_rejected():
    """An adjoined word can cross the factor cosets, so a coned product
    with one is not tree-graded over them, which the one-metric slimness
    sweep needs."""
    spec = spec_from_dict({
        "family": "free-product",
        "factors": [{"family": "finite-table", "table": _cyclic_table(3)},
                    {"family": "free", "generators": ["t"]}],
        "parabolics": [0],
        "redundant_generators": ["a t"],
    })
    with pytest.raises(SpecError, match="with parabolics must not adjoin"):
        build_group(spec)


# ---------------------------------------------------------------------------
# oracle agreement

def test_free_reduction_matches_scan_oracle_exhaustively():
    for w in _all_words(4, _letters(F2)):
        assert F2.reduce(w) == _scan_reduce(w)


def test_table_reduction_matches_fold_oracle_exhaustively():
    table = _cyclic_table(6)
    for w in _all_words(4, _letters(Z6)):
        idx = _table_fold(table, w)
        assert Z6.reduce(w) == canonical_word(Z6, idx)


class TestGroupAxioms:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec.family)
    def test_normal_forms_are_stable(self, group, data):
        w = data.draw(_word_strategy(group))
        nf = group.reduce(w)
        assert group.reduce(nf) == nf

    @PROPERTY_SETTINGS
    @given(data=st.data())
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec.family)
    def test_associativity(self, group, data):
        u = group.reduce(data.draw(_word_strategy(group, 6)))
        v = group.reduce(data.draw(_word_strategy(group, 6)))
        w = group.reduce(data.draw(_word_strategy(group, 6)))
        left = group.multiply(group.multiply(u, v), w)
        right = group.multiply(u, group.multiply(v, w))
        assert left == right

    @PROPERTY_SETTINGS
    @given(data=st.data())
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec.family)
    def test_identity_and_inverse_laws(self, group, data):
        g = group.reduce(data.draw(_word_strategy(group)))
        assert group.multiply(g, ()) == g
        assert group.multiply((), g) == g
        assert group.multiply(g, group.inverse(g)) == ()
        assert group.multiply(group.inverse(g), g) == ()


class TestFreeGroupOracle:
    @PROPERTY_SETTINGS
    @given(w=_word_strategy(F2, 24))
    def test_reduction_agrees_with_scan(self, w):
        assert F2.reduce(w) == _scan_reduce(w)

    @PROPERTY_SETTINGS
    @given(w=_word_strategy(F2, 24))
    def test_inverse_reverses_letters(self, w):
        nf = F2.reduce(w)
        assert F2.inverse(nf) == tuple(-l for l in reversed(nf))


class TestTableOracle:
    @PROPERTY_SETTINGS
    @given(w=_word_strategy(S3, 16))
    def test_s3_reduction_agrees_with_fold(self, w):
        idx = _table_fold(_s3_table(), w)
        assert S3.reduce(w) == canonical_word(S3, idx)


class TestDehnProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_relator_conjugate_products_vanish(self, data):
        rel = (1, 2, -1, -2, 3, 4, -3, -4)
        parts = []
        for _ in range(data.draw(st.integers(1, 3))):
            conj = data.draw(_word_strategy(GENUS2, 3))
            r = rel if data.draw(st.booleans()) else invert_free(rel)
            parts.append(conj + r + invert_free(conj))
        w = tuple(l for p in parts for l in p)
        assert is_identity(GENUS2, w)

    @PROPERTY_SETTINGS
    @given(w=_word_strategy(GENUS2, 8))
    def test_identity_verdict_implies_zero_exponents(self, w):
        # the relator is a product of commutators, so the abelianization is
        # free abelian and faithful on exponent vectors
        if is_identity(GENUS2, w):
            assert _exponent_vector(w, 4) == (0, 0, 0, 0)

    @PROPERTY_SETTINGS
    @given(u=_word_strategy(GENUS2, 8), v=_word_strategy(GENUS2, 8))
    def test_equality_agrees_with_canonical_forms(self, u, v):
        assert equal(GENUS2, u, v) == (GENUS2.reduce(u) == GENUS2.reduce(v))


def _coset_word(g, slot):
    """g without a trailing syllable from the slot: one word per coset g·H."""
    syls = Z3Z2.syllables(g)
    if syls and syls[-1][0] == slot:
        syls = syls[:-1]
    return _join_syllables(Z3Z2, syls)


class TestCosetPartition:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_right_multiplication_preserves_coset(self, data):
        g = Z3Z2.reduce(data.draw(_word_strategy(Z3Z2)))
        slot = data.draw(st.sampled_from([0, 1]))
        h = data.draw(st.sampled_from(Z3Z2.parabolic_elements(slot)))
        assert _coset_word(g, slot) == _coset_word(Z3Z2.multiply(g, h), slot)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_syllable_normal_form_alternates(self, data):
        w = Z3Z2.reduce(data.draw(_word_strategy(Z3Z2, 14)))
        syls = Z3Z2.syllables(w)
        for (f1, w1), (f2, _) in zip(syls, syls[1:]):
            assert f1 != f2
        for f, local in syls:
            assert local != ()
            assert Z3Z2.factors[f].reduce(local) == local
