"""Symbol codes, restricted labels, the <_n order, and window machinery."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relbundles.groups import SpecError, build_group, spec_from_dict
from relbundles.relgraph import DistanceOracle, RelativeGraph
from relbundles.geodesics import (
    direction_from_text,
    enumerate_geodesics,
    geodesic_dag,
)
from relbundles.bundles import DirectionPipeline, StabilizationError
from relbundles.coding import (
    CEtaWindow,
    RestrictedLabel,
    _bits,
    c_eta_window,
    check_lemma418,
    compare_n,
    element_order_key,
    h_n_window,
    pigeonhole_witness,
    restrict_label,
    s_n_eta,
    t_n_and_g_n,
)

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cyclic_table(n: int, gen: str) -> dict:
    return {
        "size": n,
        "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": {gen: 1},
    }


F2 = build_group(spec_from_dict({"family": "free", "generators": ["a", "b"]}))
F2X = build_group(spec_from_dict({
    "family": "free", "generators": ["a", "b"],
    "redundant_generators": ["a b"],
}))
Z3Z2 = build_group(spec_from_dict({
    "family": "free-product",
    "factors": [{"family": "finite-table", "table": _cyclic_table(3, "a")},
                {"family": "finite-table", "table": _cyclic_table(2, "b")}],
    "parabolics": [0, 1],
}))

GR_F2 = RelativeGraph(F2)
OR_F2 = DistanceOracle(GR_F2)
GR_F2X = RelativeGraph(F2X)
GR_Z3Z2 = RelativeGraph(Z3Z2)
OR_Z3Z2 = DistanceOracle(GR_Z3Z2)

DIR_A = direction_from_text(GR_F2, "a")
DIR_AB = direction_from_text(GR_Z3Z2, "a b")

PIPE_TREE = DirectionPipeline(OR_F2, DIR_A, nu=0)
PIPE_AB = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0)


def bit_matrices(n: int):
    row = st.tuples(*([st.integers(0, 1)] * n))
    return st.tuples(*([row] * n)).map(lambda rows: RestrictedLabel(n, rows))


# ---------------------------------------------------------------------------
# symbol codes


class TestSymbolCodes:
    """Symbol i codes as `_bits(i)`: shortest first, one code per element."""

    def test_f2_codes_are_shortest_first(self):
        assert [GR_F2.format_symbol(i) for i in range(4)] == ["a", "a'", "b", "b'"]
        assert [_bits(i) for i in range(4)] == [(), (0,), (1,), (0, 0)]

    def test_fifth_symbol_code(self):
        assert len(GR_F2X.step_words) == 6
        assert F2X.format(GR_F2X.step_words[4]) == "a b"
        assert GR_F2X.format_symbol(4) == "ab"
        assert _bits(4) == (0, 1)

    def test_z3z2_parallel_labels_share_codes(self):
        # a reachable by the absolute generator and the Z₃ factor alike
        assert [(Z3Z2.format(w), names) for w, names in GR_Z3Z2.alphabet] == [
            ("a", ("a", "H0:a")), ("a'", ("a'", "H0:a'")),
            ("b", ("b", "b'", "H1:b"))]
        assert [_bits(i) for i in range(3)] == [(), (0,), (1,)]

    def test_injective_over_alphabet(self):
        codes = [_bits(i) for i in range(64)]
        assert len(set(codes)) == len(codes)
        assert [len(c) for c in codes] == sorted(len(c) for c in codes)


# ---------------------------------------------------------------------------
# restricted labels and the order


def _tree_edge_symbols(text: str):
    target = F2.parse(text)
    dag = geodesic_dag(OR_F2, (), target)
    paths, _ = enumerate_geodesics(dag, max_count=1)
    return paths[0].symbols


class TestRestrictedLabel:
    def test_first_symbol_padded_to_zero_row(self):
        lab = restrict_label(_tree_edge_symbols("a"), 1)
        assert lab.rows == ((0,),)

    def test_two_step_padding(self):
        # edges b then a': codes "1" and "0", padded to two bits each
        lab = restrict_label(_tree_edge_symbols("b a'"), 2)
        assert lab.rows == ((1, 0), (0, 0))

    def test_short_path_rejected(self):
        with pytest.raises(SpecError, match="edges"):
            restrict_label(_tree_edge_symbols("a"), 2)

    def test_restriction_drops_row_and_bits(self):
        lab = restrict_label(_tree_edge_symbols("b a' b"), 3)
        assert lab.restrict(2) == restrict_label(_tree_edge_symbols("b a' b"), 2)

    @PROPERTY_SETTINGS
    @given(lab=bit_matrices(6), m=st.integers(1, 6), k=st.integers(1, 6))
    def test_restriction_composes(self, lab, m, k):
        lo, hi = sorted((m, k))
        assert lab.restrict(hi).restrict(lo) == lab.restrict(lo)

    @PROPERTY_SETTINGS
    @given(lab=bit_matrices(6), m=st.integers(1, 6))
    def test_restricted_key_is_a_prefix(self, lab, m):
        """The order property rests on this: a label's key starts with the
        key of each of its restrictions."""
        key = lab.restrict(m).order_key()
        assert lab.order_key()[:len(key)] == key

    def test_overlong_restriction_rejected(self):
        with pytest.raises(SpecError):
            RestrictedLabel(2, ((0, 0), (0, 0))).restrict(3)


class TestCompareN:
    def test_equal(self):
        u = RestrictedLabel(2, ((0, 1), (1, 0)))
        assert compare_n(u, u) == 0

    def test_first_stage_dominates(self):
        u = RestrictedLabel(2, ((0, 1), (1, 1)))
        v = RestrictedLabel(2, ((1, 0), (0, 0)))
        assert compare_n(u, v) == -1
        assert compare_n(v, u) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(SpecError, match="sizes"):
            compare_n(RestrictedLabel(1, ((0,),)),
                      RestrictedLabel(2, ((0, 0), (0, 0))))

    def test_implication_exhaustive_n1(self):
        import itertools
        mats = [RestrictedLabel(2, (tuple(bits[:2]), tuple(bits[2:])))
                for bits in itertools.product((0, 1), repeat=4)]
        for u, v in itertools.product(mats, repeat=2):
            if compare_n(u.restrict(1), v.restrict(1)) == -1:
                assert compare_n(u, v) == -1

    @PROPERTY_SETTINGS
    @given(u=bit_matrices(3), v=bit_matrices(3))
    def test_implication_random_n2(self, u, v):
        if compare_n(u.restrict(2), v.restrict(2)) == -1:
            assert compare_n(u, v) == -1

    @PROPERTY_SETTINGS
    @given(u=bit_matrices(4), v=bit_matrices(4))
    def test_implication_random_n3(self, u, v):
        if compare_n(u.restrict(3), v.restrict(3)) == -1:
            assert compare_n(u, v) == -1


# ---------------------------------------------------------------------------
# C^η windows


class TestCEtaWindow:
    def test_tree_single_zero_label(self):
        win = c_eta_window(PIPE_TREE, 12, 2)
        labels = {lab for _, lab, _ in win.entries}
        assert labels == {RestrictedLabel(2, ((0, 0), (0, 0)))}
        assert len(win.entries) == 10  # hosts a^0..a^9
        assert win.capped == ()

    def test_cap_counts_distinct_continuations(self):
        """In ℤ₃∗ℤ₂ with both factors parabolic (the group of
        specs/z3z2_rel_factors.json) every edge has parallel labels, but a
        host is capped only past its number of distinct continuations."""
        win = c_eta_window(PIPE_AB, 12, 2)
        hosts = sorted({g for g, _, _ in win.entries})
        counts = []
        for g in hosts:
            paths, truncated = enumerate_geodesics(PIPE_AB.bundle(g, 2))
            assert not truncated
            counts.append(len(paths))
        cap = max(counts)
        assert c_eta_window(PIPE_AB, 12, 2, continuation_cap=cap).capped == ()
        tight = c_eta_window(PIPE_AB, 12, 2, continuation_cap=cap - 1)
        assert sorted(tight.capped) == [g for g, c in zip(hosts, counts)
                                        if c == cap]

    def test_entry_depths_respect_cutoff(self):
        win = c_eta_window(PIPE_AB, 12, 3)
        cutoff = 12 - 3 - PIPE_AB.margin
        assert all(d <= cutoff for _, _, d in win.entries)
        geo1 = PIPE_AB.geo1((), 12).vertices
        assert all(g in geo1 for g, _, _ in win.entries)

    def test_z3z2_two_labels_pinned(self):
        win = c_eta_window(PIPE_AB, 18, 2)
        labels = {lab.rows for _, lab, _ in win.entries}
        assert labels == {((0, 0), (1, 0)), ((1, 0), (0, 0))}

    def test_oversized_n_rejected(self):
        with pytest.raises(SpecError, match="too large"):
            c_eta_window(PIPE_TREE, 6, 6)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(SpecError):
            c_eta_window(PIPE_TREE, 6, 0)


class TestMinimalLabel:
    def test_tree_unique_label(self):
        win = c_eta_window(PIPE_TREE, 21, 3)
        s = s_n_eta(win, 10)
        assert s.rows == ((0, 0, 0),) * 3
        assert s == s_n_eta(win, 14)

    def test_z3z2_threshold_insensitive(self):
        win = c_eta_window(PIPE_AB, 18, 2)
        assert s_n_eta(win, 9) == s_n_eta(win, 12)
        assert s_n_eta(win, 9).rows == ((0, 0), (1, 0))

    def test_empty_tail_is_an_error(self):
        win = c_eta_window(PIPE_TREE, 8, 2)
        with pytest.raises(StabilizationError, match="larger depth"):
            s_n_eta(win, 50)

    def test_pigeonhole_recurrence(self):
        win = c_eta_window(PIPE_AB, 18, 2)
        assert pigeonhole_witness(win, 12)
        assert not pigeonhole_witness(win, 14)  # lone deepest host


# ---------------------------------------------------------------------------
# T_n, g_n, H_n


class TestTnGnHn:
    def test_tree_closed_forms(self):
        win = c_eta_window(PIPE_TREE, 21, 2)
        s = s_n_eta(win, 10)
        t_n, g_n = t_n_and_g_n(OR_F2, win, s)
        assert t_n == tuple(tuple([1] * k) for k in range(19))
        assert g_n == ()
        h = h_n_window(OR_F2, win, t_n)
        assert h.elements == tuple(sorted(t_n))
        assert h.complete_radius == 18

    def test_z3z2_even_vertices_pinned(self):
        win = c_eta_window(PIPE_AB, 18, 2)
        t_n, g_n = t_n_and_g_n(OR_Z3Z2, win, s_n_eta(win, 9))
        assert g_n == ()
        assert t_n == tuple(Z3Z2.parse(" ".join(["a b"] * k))
                            for k in range(8))

    def test_minimum_element_distance(self):
        win = c_eta_window(PIPE_AB, 18, 2)
        t_n, g_n = t_n_and_g_n(OR_Z3Z2, win, s_n_eta(win, 9))
        dmin = min(OR_Z3Z2.distance((), t) for t in t_n)
        assert OR_Z3Z2.distance((), g_n) == dmin

    def test_order_key_respects_distance(self):
        words = [(), Z3Z2.parse("a"), Z3Z2.parse("b a"), Z3Z2.parse("a b a")]
        keys = [element_order_key(OR_Z3Z2, (), w) for w in words]
        ranked = sorted(zip(keys, words))
        dists = [OR_Z3Z2.distance((), w) for _, w in ranked]
        assert dists == sorted(dists)

    def test_identity_always_in_h_n(self):
        for pipe in (PIPE_TREE, PIPE_AB):
            win = c_eta_window(pipe, 15, 2)
            t_n, _ = t_n_and_g_n(pipe.oracle, win, s_n_eta(win, 7))
            h = h_n_window(pipe.oracle, win, t_n)
            assert () in h.elements

    def test_coherence_and_nesting(self):
        prev_s, prev_t = None, None
        for n in (1, 2, 3, 4):
            win = c_eta_window(PIPE_AB, 18, n)
            s = s_n_eta(win, 9)
            t_n, _ = t_n_and_g_n(OR_Z3Z2, win, s)
            if prev_s is not None:
                assert s.restrict(n - 1) == prev_s
                assert set(t_n) <= set(prev_t)
            prev_s, prev_t = s, t_n

    def test_s_n_invariant_under_reanchoring(self):
        g = Z3Z2.parse("b a")
        moved = DirectionPipeline(OR_Z3Z2, DIR_AB, nu=0, anchor=g)
        w0 = c_eta_window(PIPE_AB, 18, 2)
        wg = c_eta_window(moved, 18, 2)
        assert s_n_eta(wg, 9) == s_n_eta(w0, 9)


# ---------------------------------------------------------------------------
# label equivariance


class TestLabelEquivariance:
    @PROPERTY_SETTINGS
    @given(g=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
           t=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4))
    def test_translated_paths_spell_identically(self, g, t):
        g = F2.reduce(g)
        t = F2.reduce(t)
        dag = geodesic_dag(OR_F2, (), t)
        moved = geodesic_dag(OR_F2, g, F2.multiply(g, t))
        paths, _ = enumerate_geodesics(dag)
        moved_paths, _ = enumerate_geodesics(moved)
        assert [p.symbols for p in paths] == [p.symbols for p in moved_paths]


# ---------------------------------------------------------------------------
# window matching


class TestLemma418:
    def _window(self, pipe, depth, n, threshold):
        win = c_eta_window(pipe, depth, n)
        t_n, _ = t_n_and_g_n(pipe.oracle, win, s_n_eta(win, threshold))
        return h_n_window(pipe.oracle, win, t_n)

    def test_identical_windows_match_at_identity(self):
        h = self._window(PIPE_AB, 18, 2, 9)
        report = check_lemma418(OR_Z3Z2, h, h, 0)
        assert report.matches == ((),)
        assert report.distance_violations == ()
        assert len(report.matches) <= report.count_bound

    def test_rotated_direction_matches_after_translation(self):
        d_ba = direction_from_text(GR_Z3Z2, "b a")
        pipe = DirectionPipeline(OR_Z3Z2, d_ba, nu=0)
        ha = self._window(PIPE_AB, 18, 2, 9)
        win = c_eta_window(pipe, 18, 2)
        t_n, g_n = t_n_and_g_n(pipe.oracle, win, s_n_eta(win, 9))
        assert g_n == Z3Z2.parse("b")
        hb = h_n_window(pipe.oracle, win, t_n)
        report = check_lemma418(OR_Z3Z2, ha, hb, 0)
        assert report.matches == ((),)
        assert report.distance_violations == ()
        assert report.count_bound == 1

    def test_transverse_tree_directions_share_nothing(self):
        d_b = direction_from_text(GR_F2, "b")
        pipe_b = DirectionPipeline(OR_F2, d_b, nu=0)
        ha = self._window(PIPE_TREE, 21, 2, 10)
        hb = self._window(pipe_b, 21, 2, 10)
        report = check_lemma418(OR_F2, ha, hb, 0)
        assert report.matches == ()
        assert report.distance_violations == ()

    def test_size_mismatch_rejected(self):
        ha = self._window(PIPE_AB, 18, 2, 9)
        hb = self._window(PIPE_AB, 18, 3, 9)
        with pytest.raises(SpecError, match="sizes"):
            check_lemma418(OR_Z3Z2, ha, hb, 0)

    def test_common_ball_uses_smaller_window(self):
        ha = self._window(PIPE_AB, 18, 2, 9)
        hb = self._window(PIPE_AB, 12, 2, 6)
        report = check_lemma418(OR_Z3Z2, ha, hb, 0)
        assert report.d_star == min(ha.complete_radius, hb.complete_radius)
        assert report.matches == ((),)

    def test_opposite_tree_rays_are_not_window_slides(self):
        # H_n((a)^∞) is the positive a-ray, H_n((a')^∞) the negative one.
        # Translating the negative window by a^k lays it over the positive
        # one inside any finite ball, but the infinite sets differ; none
        # of those slides may count as a match.
        d_back = direction_from_text(GR_F2, "a'")
        pipe_back = DirectionPipeline(OR_F2, d_back, nu=0)
        ha = self._window(PIPE_TREE, 21, 2, 10)
        hb = self._window(pipe_back, 21, 2, 10)
        report = check_lemma418(OR_F2, ha, hb, 0)
        assert report.matches == ()
        assert report.distance_violations == ()
        assert report.search_radius == 9
