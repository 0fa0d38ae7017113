"""Baseline engines (paper §7.6): exactness and structural invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute import LocalBrute
from repro.baselines.dualtrans import DualTransEngine, token_buckets, transform
from repro.baselines.invidx import LocalInvIdx
from repro.baselines.rtree import RTree
from repro.core.similarity import jaccard
from repro.synth_data import dataset, gen_sets, sample_queries


@pytest.fixture(scope="module")
def db():
    return dataset("kosarak", scale=0.0004, token_scale=0.004, seed=9)


@pytest.fixture(scope="module")
def engines(db):
    return {
        "brute": LocalBrute(db.sets),
        "invidx": LocalInvIdx(db.sets, db.n_tokens),
        "dualtrans": DualTransEngine(db.sets, db.n_tokens, d=8, fanout=16),
    }


class TestExactness:
    @pytest.mark.parametrize("name", ["invidx", "dualtrans"])
    @pytest.mark.parametrize("delta", [0.9, 0.6, 0.3])
    def test_range_matches_brute(self, db, engines, name, delta):
        for q in sample_queries(db, n=6, seed=31):
            got, _ = engines[name].range(q, delta)
            exp, _ = engines["brute"].range(q, delta)
            assert got == exp

    @pytest.mark.parametrize("name", ["invidx", "dualtrans"])
    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_knn_matches_brute(self, db, engines, name, k):
        for q in sample_queries(db, n=6, seed=32):
            got, _ = engines[name].knn(q, k)
            exp, _ = engines["brute"].knn(q, k)
            np.testing.assert_allclose(
                sorted(v for _, v in got), sorted(v for _, v in exp), atol=1e-12
            )


class TestInvIdx:
    def test_prefix_filter_candidates_complete(self, db, engines):
        """Every true range result must appear among the prefix-filter
        candidates — the exactness core of the method."""
        from repro.core.search import SearchStats

        inv = engines["invidx"]
        for q in sample_queries(db, n=5, seed=33):
            for delta in (0.8, 0.5):
                st = SearchStats()
                cands = set(inv._candidates(q, delta, st).tolist())
                for sid, s in enumerate(db.sets):
                    if jaccard(q, s) >= delta:
                        assert sid in cands

    def test_prefix_length_formula(self, db, engines):
        inv = engines["invidx"]
        q = np.unique(db.sets[0])
        p = inv._prefix(q, 0.8)
        assert len(p) == max(1, len(q) - int(np.ceil(0.8 * len(q))) + 1)

    def test_prefix_is_rarest_first(self, db, engines):
        inv = engines["invidx"]
        q = np.unique(db.sets[1])
        p = inv._prefix(q, 0.5)
        ranks = inv.rank[p]
        assert list(ranks) == sorted(ranks)

    def test_delta_one_knn_still_exact(self, db, engines):
        """kNN must survive the δ=1.0 starting point (self-match only)."""
        q = db.sets[3]
        got, _ = engines["invidx"].knn(q, 1)
        exp, _ = engines["brute"].knn(q, 1)
        assert got[0][1] == pytest.approx(exp[0][1])

    def test_tokens_outside_the_universe_match_nothing(self, db, engines):
        """They count toward |Q| (so they lower every similarity) but
        match no set."""
        inv, brute = engines["invidx"], engines["brute"]
        for q in sample_queries(db, n=4, seed=35):
            q = np.concatenate([q, [db.n_tokens, db.n_tokens + 7]])
            for delta in (0.6, 0.3):
                assert inv.range(q, delta)[0] == brute.range(q, delta)[0]
            got, _ = inv.knn(q, 5)
            exp, _ = brute.knn(q, 5)
            np.testing.assert_allclose(
                sorted(v for _, v in got), sorted(v for _, v in exp), atol=1e-12
            )

    def test_index_bytes_positive(self, engines):
        assert engines["invidx"].index_bytes() > 0


class TestDualTransTransform:
    def test_vector_sums_equal_set_sizes(self, db):
        bucket = token_buckets(db.sets, db.n_tokens, 8)
        vecs = transform(db.sets, bucket, 8)
        np.testing.assert_array_equal(
            vecs.sum(axis=1), [len(s) for s in db.sets]
        )

    def test_buckets_round_robin_by_frequency(self):
        sets = [np.array([0, 1]), np.array([0]), np.array([0, 2])]
        bucket = token_buckets(sets, 3, 2)
        # token 0 is most frequent -> bucket 0; next go 1, 0, 1...
        assert bucket[0] == 0

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.integers(0, 30), min_size=1, max_size=12),
        b=st.lists(st.integers(0, 30), min_size=1, max_size=12),
    )
    def test_minmax_bound_dominates_jaccard(self, a, b):
        """Σmin/Σmax over count vectors upper-bounds true Jaccard."""
        sa = np.unique(np.array(a, dtype=np.int64))
        sb = np.unique(np.array(b, dtype=np.int64))
        bucket = token_buckets([sa, sb], 31, 4)
        u, v = transform([sa, sb], bucket, 4)
        ub = np.minimum(u, v).sum() / np.maximum(u, v).sum()
        assert ub >= jaccard(sa, sb) - 1e-12


class TestRTree:
    @pytest.fixture(scope="class")
    def tree(self):
        pts = np.random.default_rng(0).integers(0, 20, size=(300, 5)).astype(float)
        return pts, RTree(pts, fanout=8)

    def test_all_points_in_exactly_one_leaf(self, tree):
        pts, t = tree
        seen = []

        def rec(node):
            if node.is_leaf:
                seen.extend(node.point_ids.tolist())
            else:
                for c in node.children:
                    rec(c)

        rec(t.root)
        assert sorted(seen) == list(range(len(pts)))

    def test_mbrs_contain_children(self, tree):
        pts, t = tree

        def rec(node):
            if node.is_leaf:
                sub = pts[node.point_ids]
                assert np.all(node.lo <= sub) and np.all(sub <= node.hi)
            else:
                for c in node.children:
                    assert np.all(node.lo <= c.lo) and np.all(c.hi <= node.hi)
                    rec(c)

        rec(t.root)

    def test_leaf_fanout_respected(self, tree):
        _, t = tree

        def rec(node):
            if node.is_leaf:
                assert 1 <= len(node.point_ids) <= 8
            else:
                assert 1 <= len(node.children) <= 8
                for c in node.children:
                    rec(c)

        rec(t.root)

    def test_index_bytes(self, tree):
        _, t = tree
        assert t.index_bytes() > 0


class TestBrute:
    def test_pe_is_roughly_zero(self, db, engines):
        """Brute force verifies everything: PE ~= k/|D| only."""
        q = db.sets[0]
        _, st = engines["brute"].knn(q, 10)
        assert st.n_candidates == len(db.sets)
        assert st.pruning_efficiency(len(db.sets), 10) == pytest.approx(
            10 / len(db.sets)
        )
