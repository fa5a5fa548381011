import math
import random
from fractions import Fraction

import pytest
import scipy.stats

import oracles
from helpers import make_item, make_rating
from paraeval.metaeval import (attach_metric_scores, mode_correlation,
                               pair_table, pearson_no_grouping,
                               segment_accuracy, system_pairwise_accuracy,
                               system_scores, tau_optimize, tie_rates)
from paraeval.model import EvalItem, ScoreTable, SystemEntry
from paraeval.paragraphs import build_paragraphs

KEY = ("doc1", 0, 1)


def score_table(entries, name="m"):
    return ScoreTable(metric_name=name, entries=entries)


class TestAttachMetricScores:
    def test_fills_metric_scores_from_table(self):
        items = [make_item({"sysA": 1.0, "sysB": 2.0})]
        table = score_table({("sysA", KEY): 10.0, ("sysB", KEY): 20.0})
        attached = attach_metric_scores(items, table)
        assert attached[0].per_system["sysA"].metric_score == 10.0
        assert attached[0].per_system["sysB"].metric_score == 20.0
        assert attached[0].per_system["sysA"].human_score == 1.0
        # the input items are left untouched
        assert items[0].per_system["sysA"].metric_score is None

    def test_extra_table_entries_are_ignored(self):
        items = [make_item({"sysA": 1.0, "sysB": 2.0})]
        table = score_table({("sysA", KEY): 1.0, ("sysB", KEY): 2.0,
                             ("sysC", KEY): 3.0,
                             ("sysA", ("doc9", 0, 1)): 4.0})
        attached = attach_metric_scores(items, table)
        assert set(attached[0].per_system) == {"sysA", "sysB"}

    def test_missing_entry_names_system_and_item(self):
        items = [make_item({"sysA": 1.0, "sysB": 2.0})]
        table = score_table({("sysA", KEY): 1.0})
        with pytest.raises(ValueError, match=r"sysB.*doc1"):
            attach_metric_scores(items, table)


class TestSystemScores:
    def test_single_entry_per_system_is_identity(self):
        table = score_table({("sysA", KEY): 7.5, ("sysB", KEY): -1.0})
        assert system_scores(table.entries) == {"sysA": 7.5, "sysB": -1.0}

    def test_mean_of_2_and_4_is_3(self):
        table = score_table({("sysA", ("d1", 0, 1)): 2.0,
                             ("sysA", ("d2", 0, 1)): 4.0})
        assert system_scores(table.entries) == {"sysA": 3.0}

    def test_asymmetric_coverage_averages_each_system_over_its_own_items(self):
        table = score_table({("sysA", ("d1", 0, 1)): 1.0,
                             ("sysA", ("d2", 0, 1)): 5.0,
                             ("sysB", ("d1", 0, 1)): 4.0})
        assert system_scores(table.entries) == {"sysA": 3.0, "sysB": 4.0}

    def test_mean_of_scores_whose_sum_overflows_is_finite(self):
        table = score_table({("sysA", ("d1", 0, 1)): 1e308,
                             ("sysA", ("d2", 0, 1)): 1e308})
        assert system_scores(table.entries) == {"sysA": 1e308}

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            system_scores(score_table({}).entries)


class TestHumanSystemScores:
    def test_means_per_system(self):
        records = [
            make_rating(sent_index=0, rater_id="A", score=1.0,
                        system_id="sysA", doc_id="d1"),
            make_rating(sent_index=0, rater_id="A", score=3.0,
                        system_id="sysA", doc_id="d2"),
            make_rating(sent_index=0, rater_id="A", score=2.0,
                        system_id="sysB", doc_id="d1"),
        ]
        paragraphs = build_paragraphs(records, 1)
        human = {(p.system_id, p.item_key): p.human_score for p in paragraphs}
        assert system_scores(human) == {"sysA": 2.0, "sysB": 2.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            system_scores({})


class TestSystemPairwiseAccuracy:
    def test_full_agreement_is_exactly_1(self):
        scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert system_pairwise_accuracy(scores, dict(scores)) == 1.0

    def test_full_inversion_is_exactly_0(self):
        human = {"a": 3.0, "b": 2.0, "c": 1.0}
        metric = {s: -v for s, v in human.items()}
        assert system_pairwise_accuracy(metric, human) == 0.0

    def test_hand_enumerated_two_thirds(self):
        human = {"a": 3.0, "b": 2.0, "c": 1.0}
        metric = {"a": 3.0, "b": 1.0, "c": 2.0}
        accuracy = system_pairwise_accuracy(metric, human)
        assert accuracy == float(Fraction(2, 3))

    def test_human_tied_pairs_are_excluded(self):
        human = {"a": 1.0, "b": 1.0, "c": 0.0}
        metric = {"a": 9.0, "b": 1.0, "c": 0.5}
        # (a,b) is human-tied and ignored even though the metric orders it.
        assert system_pairwise_accuracy(metric, human) == 1.0

    def test_metric_tie_on_counted_pair_is_a_disagreement(self):
        human = {"a": 2.0, "b": 1.0}
        metric = {"a": 1.0, "b": 1.0}
        assert system_pairwise_accuracy(metric, human) == 0.0

    def test_fewer_than_two_systems_rejected(self):
        with pytest.raises(ValueError, match="2 systems"):
            system_pairwise_accuracy({"a": 1.0}, {"a": 2.0})

    def test_mismatched_key_sets_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            system_pairwise_accuracy({"a": 1.0, "b": 2.0},
                                     {"a": 1.0, "c": 2.0})

    def test_all_pairs_human_tied_rejected(self):
        with pytest.raises(ValueError, match="human-tied"):
            system_pairwise_accuracy({"a": 1.0, "b": 2.0},
                                     {"a": 5.0, "b": 5.0})


def fixture_pairs():
    """One item, 3 systems: human (0, 0, -5), metric (1.0, 1.1, 0.2)."""
    return pair_table([make_item({"a": 0.0, "b": 0.0, "c": -5.0},
                                 {"a": 1.0, "b": 1.1, "c": 0.2})])


class TestSegmentAccuracy:
    def test_identical_scores_everywhere_give_exactly_1(self):
        items = [make_item({"a": 1.0, "b": 1.0}, {"a": 4.0, "b": 4.0},
                           doc_id=f"d{i}") for i in range(3)]
        assert segment_accuracy(pair_table(items), 0.0) == 1.0

    def test_hand_fixture_at_epsilon_0(self):
        assert segment_accuracy(fixture_pairs(), 0.0) == float(Fraction(2, 3))

    def test_hand_fixture_at_epsilon_015(self):
        assert segment_accuracy(fixture_pairs(), 0.15) == 1.0

    def test_items_are_averaged_unweighted(self):
        # Item 1: one pair, correct. Item 2: three pairs, one correct.
        # Unweighted item mean = (1 + 1/3) / 2, not pooled 2/4.
        one_pair = make_item({"a": 1.0, "b": 0.0}, {"a": 2.0, "b": 1.0},
                             doc_id="d1")
        three_pairs = make_item({"a": 2.0, "b": 1.0, "c": 0.0},
                                {"a": 0.0, "b": 1.0, "c": 2.0},
                                doc_id="d2")
        # d2 pairs: (a,b) human + vs metric −; (a,c) + vs −; (b,c) + vs −…
        assert segment_accuracy(pair_table([one_pair, three_pairs]), 0.0) == \
            float((Fraction(1) + Fraction(0, 3)) / 2)
        assert segment_accuracy(pair_table([one_pair]), 0.0) == 1.0

    def test_unscored_item_among_scored_rejected(self):
        scored = make_item({"a": 1.0, "b": 0.0}, {"a": 2.0, "b": 1.0},
                           doc_id="d1")
        unscored = make_item({"a": 1.0, "b": 0.0}, doc_id="d2")
        assert segment_accuracy(pair_table([scored]), 0.0) == 1.0
        with pytest.raises(ValueError, match="2 or more systems"):
            segment_accuracy(pair_table([scored, unscored]), 0.0)
        with pytest.raises(ValueError, match="2 or more systems"):
            tau_optimize(pair_table([scored, unscored]))

    def test_all_items_dropped_rejected(self):
        with pytest.raises(ValueError, match="2 or more systems"):
            segment_accuracy(pair_table([make_item({"a": 1.0, "b": 0.0})]), 0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            segment_accuracy(fixture_pairs(), -0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # `epsilon < 0` is False for NaN, so that test alone would accept it.
        with pytest.raises(ValueError, match=f"epsilon must be a finite number >= 0, "
                                             f"got {epsilon}"):
            segment_accuracy(fixture_pairs(), epsilon)

    def test_huge_epsilon_predicts_all_ties(self):
        # Everything becomes a predicted tie, so accuracy equals the
        # human tie rate of the fixture (1 tied pair of 3).
        assert segment_accuracy(fixture_pairs(), 100.0) == \
            tie_rates(fixture_pairs().human)

    def test_matches_exact_fraction_oracle(self):
        rng = random.Random(41)
        for trial in range(40):
            items = random_items(rng, n_items=rng.randint(1, 6),
                                 n_systems=rng.randint(2, 5))
            epsilon = rng.choice([0.0, 0.05, 0.1, 0.5])
            expected = oracles.segment_accuracy_exact(items, epsilon)
            assert segment_accuracy(pair_table(items), epsilon) == \
                float(expected)


def random_items(rng, n_items, n_systems, human_grid=(0, 1, 2),
                 metric_grid=(0.0, 0.1, 0.2, 0.35, 0.7)):
    """Items drawn from coarse score grids so ties actually occur."""
    systems = [f"s{j}" for j in range(n_systems)]
    items = []
    for i in range(n_items):
        human = {s: float(rng.choice(human_grid)) for s in systems}
        metric = {s: rng.choice(metric_grid) for s in systems}
        items.append(make_item(human, metric, doc_id=f"d{i}"))
    return items


class TestTauOptimize:
    def test_hand_fixture_reaches_perfect_accuracy(self):
        calibration = tau_optimize(fixture_pairs())
        # The winning threshold is the observed |1.1 − 1.0| difference.
        assert calibration.epsilon == 1.1 - 1.0
        assert calibration.epsilon == pytest.approx(0.1, abs=1e-12)
        assert calibration.accuracy_at_epsilon == 1.0
        assert segment_accuracy(fixture_pairs(), calibration.epsilon) == 1.0

    def test_metric_matching_tie_structure_keeps_epsilon_0(self):
        items = [make_item({"a": 1.0, "b": 1.0, "c": 0.0},
                           {"a": 3.0, "b": 3.0, "c": 1.0})]
        calibration = tau_optimize(pair_table(items))
        assert calibration.epsilon == 0.0
        assert calibration.accuracy_at_epsilon == 1.0

    def test_no_human_ties_and_agreeing_signs_keep_epsilon_0(self):
        items = [make_item({"a": 2.0, "b": 1.0, "c": 0.0},
                           {"a": 30.0, "b": 20.0, "c": 10.0})]
        calibration = tau_optimize(pair_table(items))
        assert calibration.epsilon == 0.0
        assert calibration.accuracy_at_epsilon == 1.0

    def test_ties_in_best_accuracy_resolve_to_smallest_epsilon(self):
        # At epsilon 0.25 one pair is fixed and another broken, so the
        # accuracy curve is flat and the smallest maximizer is 0.
        items = [make_item({"a": 0.0, "b": 0.0, "c": 1.0},
                           {"a": 0.0, "b": 0.25, "c": 0.5})]
        calibration = tau_optimize(pair_table(items))
        assert calibration.epsilon == 0.0
        assert calibration.accuracy_at_epsilon == \
            segment_accuracy(pair_table(items), 0.0)

    def test_never_below_epsilon_0_accuracy(self):
        rng = random.Random(43)
        for trial in range(60):
            items = random_items(rng, n_items=rng.randint(1, 8),
                                 n_systems=rng.randint(2, 6))
            calibration = tau_optimize(pair_table(items))
            assert calibration.accuracy_at_epsilon >= \
                segment_accuracy(pair_table(items), 0.0)
            assert calibration.accuracy_at_epsilon == \
                segment_accuracy(pair_table(items), calibration.epsilon)

    def test_matches_brute_force_sweep(self):
        rng = random.Random(47)
        for trial in range(40):
            items = random_items(rng, n_items=rng.randint(1, 5),
                                 n_systems=rng.randint(2, 4))
            calibration = tau_optimize(pair_table(items))
            oracle_eps, oracle_acc = oracles.tau_sweep_exact(items)
            assert calibration.epsilon == oracle_eps
            assert calibration.accuracy_at_epsilon == float(oracle_acc)


class TestPearsonNoGrouping:
    def test_positive_affine_is_1(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 1 for x in xs]
        assert pearson_no_grouping(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_1(self):
        xs = [0.5, 1.5, -2.0]
        ys = [-x for x in xs]
        assert pearson_no_grouping(xs, ys) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case_is_half(self):
        assert pearson_no_grouping([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == \
            pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson_no_grouping([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="zero variance"):
            pearson_no_grouping([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_length_mismatch_and_short_input_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            pearson_no_grouping([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="at least 2"):
            pearson_no_grouping([1.0], [1.0])

    def test_scores_whose_squares_overflow_are_scaled(self):
        # 3 systems x 2 docs near 1e200: the squared deviations overflow, and
        # unscaled they gave var_x = inf and r = -0.0.
        metric = [-1e200, 1e200, 1e200, -2e200, 2e200, 2e200]
        human = [0.0, -1.0, -2.0, 0.0, -1.0, -2.0]
        assert pearson_no_grouping(metric, human) == \
            pytest.approx(-0.8164965809277261)

    @pytest.mark.parametrize("scale", [2.0 ** 660, 2.0 ** -600],
                             ids=["2**660", "2**-600"])
    def test_power_of_two_scaling_leaves_r_bit_equal(self, scale):
        rng = random.Random(59)
        xs = [rng.uniform(-5, 5) for _ in range(20)]
        ys = [rng.uniform(-5, 5) for _ in range(20)]
        assert pearson_no_grouping([x * scale for x in xs], ys) == \
            pearson_no_grouping(xs, [y * scale for y in ys]) == \
            pearson_no_grouping(xs, ys)

    @pytest.mark.parametrize("xs, ys, r", [
        ([1.7e308, 1.7e308, 1.6e308], [1.0, 2.0, 3.0], -math.sqrt(3) / 2),
        # The mean is finite, but 1.7e308 lies more than the float range from it.
        ([1.7e308, -1.7e308, 1.7e308], [0.0, 1.0, 3.0], 6 / math.sqrt(1008)),
        ([1.3e154, -1.3e154, 1.3e154, -1.3e154, 0.0], [1.0, 2.0, 3.0, 4.0, 6.0],
         -1 / math.sqrt(14.8)),
    ], ids=["the-sum", "a-deviation", "the-sum-of-squares"])
    def test_scores_whose_sums_overflow_are_scaled(self, xs, ys, r):
        assert pearson_no_grouping(xs, ys) == pytest.approx(r)

    def test_a_constant_side_is_rejected_though_its_mean_is_inexact(self):
        # fsum([0.1] * 3) / 3 is not 0.1, so the computed deviations are not 0.
        with pytest.raises(ValueError, match="zero variance"):
            pearson_no_grouping([0.1, 0.1, 0.1], [1.0, 2.0, 4.0])

    def test_matches_scipy(self):
        rng = random.Random(53)
        for trial in range(50):
            n = rng.randint(3, 12)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            expected = scipy.stats.pearsonr(xs, ys).statistic
            assert pearson_no_grouping(xs, ys) == \
                pytest.approx(expected, abs=1e-12)


class TestTieRates:
    def test_all_distinct_is_0(self):
        items = [make_item({"a": 1.0, "b": 2.0, "c": 3.0})]
        assert tie_rates(pair_table(items).human) == 0.0

    def test_all_equal_is_1(self):
        items = [make_item({"a": 1.0, "b": 1.0}, doc_id=f"d{i}")
                 for i in range(2)]
        assert tie_rates(pair_table(items).human) == 1.0

    def test_hand_case_one_third(self):
        items = [make_item({"a": 0.0, "b": 0.0, "c": 1.0})]
        assert tie_rates(pair_table(items).human) == float(Fraction(1, 3))

    def test_metric_source_uses_attached_scores(self):
        items = [make_item({"a": 0.0, "b": 1.0, "c": 2.0},
                           {"a": 5.0, "b": 5.0, "c": 5.0})]
        assert tie_rates(pair_table(items).human) == 0.0
        assert tie_rates(pair_table(items).metric) == 1.0

    def test_score_table_source(self):
        items = [make_item({"a": 0.0, "b": 1.0})]
        table = score_table({("a", KEY): 3.0, ("b", KEY): 3.0})
        assert tie_rates(pair_table(attach_metric_scores(items, table)).metric) == 1.0

    def test_score_table_missing_entry_rejected(self):
        items = [make_item({"a": 0.0, "b": 1.0})]
        table = score_table({("a", KEY): 3.0})
        with pytest.raises(ValueError, match="no entry"):
            tie_rates(pair_table(attach_metric_scores(items, table)).metric)

    def test_unscored_metric_side_rejected(self):
        pairs = pair_table([make_item({"a": 0.0, "b": 1.0})])
        assert tie_rates(pairs.human) == 0.0
        with pytest.raises(ValueError, match="2 or more systems"):
            tie_rates(pairs.metric)

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="no within-item"):
            tie_rates(pair_table([make_item({"a": 0.0})]).human)


class TestModeCorrelation:
    @staticmethod
    def tables(direct_values, aligned_values):
        keys = [(f"s{i}", (f"d{i}", 0, 2)) for i in range(len(direct_values))]
        direct = ScoreTable(metric_name="bleu",
                            entries=dict(zip(keys, direct_values)))
        aligned = ScoreTable(metric_name="bleu",
                             entries=dict(zip(keys, aligned_values)))
        return direct, aligned

    def test_identical_tables_correlate_at_exactly_1(self):
        values = [12.5, 40.0, 33.3, 91.2]
        assert mode_correlation(*self.tables(values, list(values))) == 1.0

    def test_anti_correlated_tables_reach_minus_1(self):
        values = [12.5, 40.0, 33.3, 91.2]
        negated = [-v for v in values]
        assert mode_correlation(*self.tables(values, negated)) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_key_mismatch_rejected_and_lists_keys(self):
        direct, _ = self.tables([1.0, 2.0], [1.0, 2.0])
        aligned = ScoreTable(metric_name="bleu",
                             entries={("sX", ("dX", 0, 2)): 1.0,
                                      ("s0", ("d0", 0, 2)): 1.0})
        with pytest.raises(ValueError, match=r"different.*sX"):
            mode_correlation(direct, aligned)

    def test_disagreement_lowers_correlation(self):
        direct, aligned = self.tables([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
        assert mode_correlation(direct, aligned) < 1.0


def scaled_items(items, human_factor=1.0, metric_factor=1.0):
    scaled = []
    for item in items:
        per_system = {
            s: SystemEntry(
                human_score=entry.human_score * human_factor,
                metric_score=None if entry.metric_score is None
                else entry.metric_score * metric_factor)
            for s, entry in item.per_system.items()}
        scaled.append(EvalItem(item_key=item.item_key, per_system=per_system))
    return scaled


class TestInvariances:
    def test_human_scaling_by_2_7_leaves_accuracies_bit_equal(self):
        rng = random.Random(59)
        for trial in range(20):
            items = random_items(rng, n_items=rng.randint(2, 6),
                                 n_systems=rng.randint(2, 5),
                                 human_grid=range(-5, 6))
            rescaled = scaled_items(items, human_factor=2.7)
            for epsilon in (0.0, 0.1, 0.5):
                assert segment_accuracy(pair_table(rescaled), epsilon) == \
                    segment_accuracy(pair_table(items), epsilon)
            assert tie_rates(pair_table(rescaled).human) == \
                tie_rates(pair_table(items).human)
            original = tau_optimize(pair_table(items))
            scaled = tau_optimize(pair_table(rescaled))
            assert scaled.epsilon == original.epsilon
            assert scaled.accuracy_at_epsilon == original.accuracy_at_epsilon

    def test_metric_doubling_with_doubled_epsilon_is_bit_equal(self):
        rng = random.Random(61)
        for trial in range(20):
            items = random_items(rng, n_items=rng.randint(2, 6),
                                 n_systems=rng.randint(2, 5))
            doubled = scaled_items(items, metric_factor=2.0)
            for epsilon in (0.0, 0.05, 0.1, 0.35):
                assert segment_accuracy(pair_table(doubled), 2 * epsilon) == \
                    segment_accuracy(pair_table(items), epsilon)
            original = tau_optimize(pair_table(items))
            scaled = tau_optimize(pair_table(doubled))
            assert scaled.epsilon == 2 * original.epsilon
            assert scaled.accuracy_at_epsilon == original.accuracy_at_epsilon

    def test_system_relabeling_changes_nothing(self):
        rng = random.Random(67)
        items = random_items(rng, n_items=5, n_systems=4)
        renamed = []
        mapping = {"s0": "zulu", "s1": "alpha", "s2": "mike", "s3": "kilo"}
        for item in items:
            # Sorted by the new names, as build_eval_items orders them, so
            # the pairs come in another order and some swap their sides.
            per_system = dict(sorted((mapping[s], entry)
                                     for s, entry in item.per_system.items()))
            renamed.append(EvalItem(item_key=item.item_key,
                                    per_system=per_system))
        renamed, items = pair_table(renamed), pair_table(items)
        for epsilon in (0.0, 0.1):
            assert segment_accuracy(renamed, epsilon) == \
                segment_accuracy(items, epsilon)
        assert tau_optimize(renamed) == tau_optimize(items)
        assert tie_rates(renamed.human) == tie_rates(items.human)
        assert tie_rates(renamed.metric) == tie_rates(items.metric)

    def test_item_order_changes_nothing(self):
        rng = random.Random(71)
        for trial in range(20):
            # Items of 2 to 6 systems: reordering them reorders the pairs
            # across items of different pair counts.
            items = [item for n_systems in range(2, 7)
                     for item in random_items(rng, n_items=rng.randint(1, 3),
                                              n_systems=n_systems)]
            shuffled = rng.sample(items, len(items))
            pairs = pair_table(items)
            for other in (pair_table(items[::-1]), pair_table(shuffled)):
                for epsilon in (0.0, 0.1, 0.35):
                    assert segment_accuracy(other, epsilon) == \
                        segment_accuracy(pairs, epsilon)
                assert tau_optimize(other) == tau_optimize(pairs)
                assert tie_rates(other.human) == tie_rates(pairs.human)
                assert tie_rates(other.metric) == tie_rates(pairs.metric)
