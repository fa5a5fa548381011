import re
from collections import Counter

import pytest

from helpers import make_rating
from paraeval.paragraphs import build_paragraphs
from paraeval.sampling import sample_stratified, sample_uniform


def make_pool(ks=(1,), docs_per_k=5):
    """Build a pool with docs_per_k paragraphs for each requested k."""
    records = []
    for k in ks:
        for d in range(docs_per_k):
            records.extend(
                make_rating(sent_index=i, rater_id="A", score=float(i),
                            doc_id=f"k{k}-doc{d}")
                for i in range(k))
    pool = []
    for k in ks:
        pool.extend(p for p in build_paragraphs(records, k)
                    if p.doc_id.startswith(f"k{k}-"))
    return pool


class TestUniform:
    def test_full_draw_returns_whole_pool_canonically(self):
        pool = make_pool()
        sample = sample_uniform(reversed(pool), len(pool), seed=3)
        assert sample == sorted(pool, key=lambda p: p.sort_key())

    def test_same_seed_same_selection(self):
        pool = make_pool(docs_per_k=20)
        assert sample_uniform(pool, 7, seed=11) == sample_uniform(pool, 7, seed=11)

    def test_different_seeds_differ(self):
        pool = make_pool(docs_per_k=30)
        assert sample_uniform(pool, 5, seed=1) != sample_uniform(pool, 5, seed=2)

    def test_input_order_is_irrelevant(self):
        pool = make_pool(docs_per_k=12)
        assert sample_uniform(pool, 4, seed=9) == \
            sample_uniform(reversed(pool), 4, seed=9)

    def test_no_duplicates_and_subset_of_pool(self):
        pool = make_pool(docs_per_k=15)
        sample = sample_uniform(pool, 10, seed=5)
        keys = [p.sort_key() for p in sample]
        assert len(set(keys)) == 10
        assert set(keys) <= {p.sort_key() for p in pool}

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="^sample size must be >= 1, got 0$"):
            sample_uniform(make_pool(), 0, seed=0)

    def test_oversized_request_names_pool_size(self):
        pool = make_pool(docs_per_k=3)
        with pytest.raises(ValueError, match="exceeds pool size 3"):
            sample_uniform(pool, 4, seed=0)

    def test_selection_is_uniform_over_10000_seeds(self):
        pool = make_pool(docs_per_k=5)
        assert len(pool) == 5
        counts = Counter()
        for seed in range(10000):
            (chosen,) = sample_uniform(pool, 1, seed=seed)
            counts[chosen.doc_id] += 1
        assert len(counts) == 5
        for doc_id, count in counts.items():
            assert 2000 - 150 <= count <= 2000 + 150, (doc_id, count)


class TestStratified:
    def test_exact_quota_per_k(self):
        pool = make_pool(ks=range(1, 11), docs_per_k=4)
        sample = sample_stratified(pool, 20, ks=range(1, 11), seed=2)
        assert Counter(p.k for p in sample) == {k: 2 for k in range(1, 11)}

    def test_histogram_exactly_uniform_even_for_skewed_pool(self):
        pool = make_pool(ks=(1,), docs_per_k=50) + make_pool(ks=(2,), docs_per_k=3)
        sample = sample_stratified(pool, 6, ks=(1, 2), seed=8)
        assert Counter(p.k for p in sample) == {1: 3, 2: 3}

    def test_undersized_stratum_names_k_and_size(self):
        pool = make_pool(ks=(1,), docs_per_k=5) + make_pool(ks=(10,), docs_per_k=1)
        with pytest.raises(ValueError, match="stratum k=10 holds 1"):
            sample_stratified(pool, 4, ks=(1, 10), seed=0)

    def test_non_divisible_size_rejected(self):
        pool = make_pool(ks=(1, 2), docs_per_k=5)
        with pytest.raises(ValueError, match="not divisible"):
            sample_stratified(pool, 5, ks=(1, 2), seed=0)

    def test_duplicate_ks_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            sample_stratified(make_pool(), 2, ks=(1, 1), seed=0)

    @pytest.mark.parametrize("ks, message", [
        ((), "ks must be non-empty"),
        ((0, 1), "ks must be positive integers: [0, 1]"),
    ])
    def test_empty_or_nonpositive_ks_rejected(self, ks, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_stratified(make_pool(), 2, ks=ks, seed=0)

    def test_same_seed_same_selection(self):
        pool = make_pool(ks=(1, 2, 3), docs_per_k=10)
        first = sample_stratified(pool, 9, ks=(1, 2, 3), seed=4)
        second = sample_stratified(pool, 9, ks=(1, 2, 3), seed=4)
        assert first == second

    def test_paragraphs_with_unlisted_k_are_ignored(self):
        pool = make_pool(ks=(1, 2, 3), docs_per_k=4)
        sample = sample_stratified(pool, 4, ks=(1, 3), seed=1)
        assert {p.k for p in sample} == {1, 3}

    def test_no_duplicates(self):
        pool = make_pool(ks=(1, 2), docs_per_k=10)
        sample = sample_stratified(pool, 12, ks=(1, 2), seed=6)
        keys = [p.sort_key() for p in sample]
        assert len(set(keys)) == len(keys) == 12
