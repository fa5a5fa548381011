import statistics
import tracemalloc

import numpy as np
import pytest
from helpers import make_item
from hypothesis import given, settings
from hypothesis import strategies as st

from paraeval import noise
from paraeval.metaeval import pair_table, segment_accuracy
from paraeval.model import SimConfig
from paraeval.noise import noise_curve, simulate


def config(**overrides):
    base = dict(n_items=50, n_systems=4, max_k=5, sigma_quality=1.0,
                sigma_human=0.5, sigma_metric=0.5, system_mean_spread=0.5,
                seed=1234)
    base.update(overrides)
    return SimConfig(**base)


def test_a_config_past_the_memory_limit_is_refused_at_the_limit(monkeypatch):
    # 3 items x 2 systems x 4 sentences, in six float64 arrays at once.
    monkeypatch.setattr(noise, "SIMULATE_MAX_BYTES", 6 * 8 * 3 * 2 * 4)
    assert len(simulate(config(n_items=3, n_systems=2, max_k=4))) == 4
    with pytest.raises(ValueError, match=r"^simulate would hold 1344 bytes of arrays "
                       r"at once for n_items=7 n_systems=2 max_k=2, above its limit of 1152$"):
        simulate(config(n_items=7, n_systems=2, max_k=2))


def pairs(matrices):
    """The matrices' rows as EvalItems, paired as the CLI pairs them."""
    human, metric = matrices
    return pair_table(
        make_item(dict(enumerate(h)), dict(enumerate(m)), doc_id=f"item{i}")
        for i, (h, m) in enumerate(zip(human.tolist(), metric.tolist())))


def brute_force_agreement(human, metric):
    """The share of agreeing pairs, one (row, pair of columns) at a time."""
    rows, n = human.shape
    pairs = [(r, a, b) for r in range(rows) for a in range(n) for b in range(a + 1, n)]
    return sum(np.sign(human[r, a] - human[r, b]) == np.sign(metric[r, a] - metric[r, b])
               for r, a, b in pairs) / len(pairs)


def test_agreement_counts_every_pair_of_systems():
    rng = np.random.default_rng(7)
    for _ in range(200):  # small integer scores, so many ties on both sides
        shape = (rng.integers(1, 6), rng.integers(2, 9))
        human, metric = (rng.integers(-2, 3, shape).astype(float) for _ in range(2))
        assert noise._agreement(human, metric) == brute_force_agreement(human, metric)


def test_scoring_holds_no_array_larger_than_the_simulated_ones():
    # Two thousand systems make about two million pairs per item; the scoring
    # must not hold them at once.
    tracemalloc.start()
    try:
        noise_curve(config(n_items=1, n_systems=2000, max_k=2), ks=[1, 2], n_seeds=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("field", ["sigma_quality", "sigma_human", "sigma_metric",
                                   "system_mean_spread"])
def test_scores_that_overflow_are_refused_without_a_warning(field):
    with pytest.raises(ValueError, match="^simulated scores overflow float64"):
        simulate(config(**{field: 1e308}))


def test_a_difference_past_float64_keeps_its_sign():
    assert noise._agreement(np.array([[1e308, -1e308]]), np.array([[1.0, 0.0]])) == 1.0


class TestSimulate:
    def test_shapes(self):
        out = simulate(config(n_items=3, n_systems=2, max_k=4))
        assert sorted(out) == [1, 2, 3, 4]
        for human, metric in out.values():
            assert human.shape == metric.shape == (3, 2)
            assert np.isfinite(human).all() and np.isfinite(metric).all()

    def test_same_seed_is_bit_identical(self):
        first = simulate(config())
        second = simulate(config())
        for k in first:
            assert all(np.array_equal(a, b) for a, b in zip(first[k], second[k]))

    def test_different_seeds_differ(self):
        first, second = simulate(config()), simulate(config(seed=1235))
        assert not np.array_equal(first[1][0], second[1][0])
        assert not np.array_equal(first[1][1], second[1][1])

    def test_prefix_means_collapse_to_system_mean_when_noiseless(self):
        # With every noise term at zero each sentence scores exactly the
        # system mean, so the k-sentence prefix mean is that same value
        # for every item and every k.
        out = simulate(config(sigma_quality=0.0, sigma_human=0.0,
                              sigma_metric=0.0, system_mean_spread=2.0,
                              n_items=3, max_k=4))
        mu = out[1][0][0]
        assert len(set(mu.tolist())) == len(mu)
        for human, metric in out.values():
            for row in (*human, *metric):
                assert row == pytest.approx(mu, rel=1e-12)

    def test_noiseless_metric_tracks_human_exactly(self):
        out = simulate(config(sigma_human=0.0, sigma_metric=0.0))
        for human, metric in out.values():
            assert np.array_equal(human, metric)
            assert segment_accuracy(pairs((human, metric)), 0.0) == 1.0

    def test_huge_system_spread_dominates_noise(self):
        # System means are far apart relative to the noise, so orderings
        # agree almost everywhere even at k=1.
        out = simulate(config(system_mean_spread=1000.0, n_items=100))
        assert segment_accuracy(pairs(out[1]), 0.0) >= 0.95

    def test_accuracy_noise_shrinks_with_k(self):
        # With iid noise, paragraph scores at k average k sentence draws,
        # so the noise variance on each side shrinks like 1/k.
        out = simulate(config(n_items=400, n_systems=2, max_k=10,
                              sigma_quality=0.0, system_mean_spread=1.0,
                              sigma_human=1.0, sigma_metric=1.0, seed=7))
        acc1 = segment_accuracy(pairs(out[1]), 0.0)
        acc10 = segment_accuracy(pairs(out[10]), 0.0)
        assert acc10 > acc1


class TestNoiseCurve:
    def test_point_fields_and_order(self):
        points = noise_curve(config(n_items=20), ks=[5, 1, 2], n_seeds=3)
        assert [p.k for p in points] == [1, 2, 5]
        for point in points:
            assert len(point.per_seed) == 3
            assert point.mean_accuracy == \
                pytest.approx(statistics.fmean(point.per_seed))
            assert point.std_accuracy == \
                pytest.approx(statistics.pstdev(point.per_seed))

    def test_per_seed_values_match_direct_simulation(self):
        cfg = config(n_items=15, seed=99)
        points = noise_curve(cfg, ks=[1, 3], n_seeds=4)
        by_k = {p.k: p for p in points}
        for i in range(4):
            matrices = simulate(config(n_items=15, seed=99 + i))
            for k in (1, 3):
                assert by_k[k].per_seed[i] == \
                    segment_accuracy(pairs(matrices[k]), 0.0)

    def test_single_seed_has_zero_spread(self):
        points = noise_curve(config(n_items=10), ks=[1, 2], n_seeds=1)
        assert all(p.std_accuracy == 0.0 for p in points)

    def test_chance_level_when_no_signal(self):
        # No quality signal at all: metric and human orderings are
        # independent, and ties have probability zero, so each pair is
        # a coin flip.
        cfg = config(n_items=40, n_systems=4, max_k=2, sigma_quality=0.0,
                     system_mean_spread=0.0, sigma_human=1.0,
                     sigma_metric=1.0, seed=2024)
        points = noise_curve(cfg, ks=[1, 2], n_seeds=50)
        for point in points:
            assert point.mean_accuracy == pytest.approx(0.5, abs=0.03)

    def test_duplicate_or_singleton_ks_rejected(self):
        with pytest.raises(ValueError, match="2 distinct"):
            noise_curve(config(), ks=[3], n_seeds=2)
        with pytest.raises(ValueError, match="2 distinct"):
            noise_curve(config(), ks=[3, 3], n_seeds=2)

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError, match="1..5"):
            noise_curve(config(), ks=[1, 6], n_seeds=2)
        with pytest.raises(ValueError, match="1..5"):
            noise_curve(config(), ks=[0, 2], n_seeds=2)

    def test_nonpositive_seed_count_rejected(self):
        with pytest.raises(ValueError, match="n_seeds"):
            noise_curve(config(), ks=[1, 2], n_seeds=0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_items=st.integers(1, 12), n_systems=st.integers(2, 8),
           seed=st.integers(0, 2 ** 64 - 1), k=st.integers(1, 3))
    def test_agreement_matches_the_core_on_heavily_tied_matrices(
            self, n_items, n_systems, seed, k):
        # Rounded to integers of spread about 1, both sides tie often, so the
        # sign rule meets every tie case that the core's epsilon-0 rule has.
        matrices = simulate(config(n_items=n_items, n_systems=n_systems, max_k=3,
                                   seed=seed))[k]
        human, metric = (np.rint(matrix) for matrix in matrices)
        assert noise._agreement(human, metric) == \
            segment_accuracy(pairs((human, metric)), 0.0)

    def test_seed_wraps_around_the_64_bit_boundary(self):
        cfg = config(n_items=5, seed=2 ** 64 - 1)
        points = noise_curve(cfg, ks=[1, 2], n_seeds=2)
        wrapped = simulate(config(n_items=5, seed=0))
        assert points[0].per_seed[1] == segment_accuracy(pairs(wrapped[1]), 0.0)
