import math
import random
import re
from dataclasses import replace

import pytest

import oracles
from helpers import make_rating
from paraeval import metrics
from paraeval.metrics import (bleu_corpus, bleu_sentence,
                              char_token_count, length_percentiles,
                              nearest_rank_percentile, score_aligned_avg,
                              score_direct, tokenize, truncation_stats,
                              whitespace_token_count)
from paraeval.paragraphs import build_paragraphs


class TestTokenize:
    def test_punctuation_split_off(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_unicode_punctuation(self):
        assert tokenize("«Guten Tag» — sagte er…") == \
            ["«", "Guten", "Tag", "»", "—", "sagte", "er", "…"]

    def test_plain_words_split_on_whitespace(self):
        assert tokenize("a  b\tc\nd") == ["a", "b", "c", "d"]

    def test_empty_and_whitespace_only(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_apostrophe_is_punctuation(self):
        assert tokenize("don't") == ["don", "'", "t"]


def words(seq):
    return " ".join(seq)


class TestBleuSentence:
    def test_identical_text_scores_100(self):
        text = "the quick brown fox jumps over the lazy dog"
        assert bleu_sentence(text, text) == 100.0

    def test_empty_hypothesis_scores_0(self):
        assert bleu_sentence("", "a reference") == 0.0

    def test_zero_overlap_scores_below_1(self):
        hyp = words(f"h{i}" for i in range(30))
        ref = words(f"r{i}" for i in range(30))
        score = bleu_sentence(hyp, ref)
        assert 0.0 < score < 1.0

    def test_hand_computed_brevity_penalty_case(self):
        # All clipped precisions are 1; only the brevity penalty bites:
        # c=4, r=5 -> 100 * exp(1 - 5/4) = 77.880...
        score = bleu_sentence("the cat sat down", "the cat sat down quickly")
        assert score == pytest.approx(77.88, abs=0.01)
        assert score == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=1e-9)

    def test_no_brevity_penalty_when_hypothesis_longer(self):
        score = bleu_sentence("the cat sat down quickly", "the cat sat down")
        brevity_free = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert score == pytest.approx(100.0 * brevity_free, abs=1e-9)

    def test_short_hypothesis_uses_only_available_orders(self):
        # A 2-token hypothesis has no 3- or 4-grams; those orders must
        # drop out instead of zeroing the score.
        assert bleu_sentence("a b", "a b") == pytest.approx(100.0, abs=1e-9)

    def test_smoothing_halves_with_each_zero_order(self):
        # hyp/ref share unigrams only; p2..p4 come from the smoothing floor.
        hyp = "b a c e d"
        ref = "a b c d e"
        total = [5, 4, 3, 2]
        expected = 100.0 * math.exp(
            (math.log(5 / 5) + math.log(1 / (2 * 4))
             + math.log(1 / (4 * 3)) + math.log(1 / (8 * 2))) / 4)
        assert bleu_sentence(hyp, ref) == pytest.approx(expected, abs=1e-9)

    def test_scores_stay_in_range_on_random_pairs(self):
        rng = random.Random(17)
        vocabulary = [f"w{i}" for i in range(8)]
        for _ in range(200):
            hyp = words(rng.choices(vocabulary, k=rng.randint(1, 15)))
            ref = words(rng.choices(vocabulary, k=rng.randint(1, 15)))
            assert 0.0 <= bleu_sentence(hyp, ref) <= 100.0


class TestBleuCorpus:
    def test_single_identical_pair_scores_100(self):
        assert bleu_corpus([("a b c d", "a b c d")]) == 100.0

    def test_short_identical_pair_scores_100(self):
        # Orders the pooled hypothesis cannot produce (here 4-grams)
        # drop out instead of zeroing the unsmoothed score.
        assert bleu_corpus([("x y z", "x y z")]) == 100.0

    def test_corpus_of_one_equals_sentence_when_no_zero_precision(self):
        hyp = "the cat sat down"
        ref = "the cat sat down quickly"
        assert bleu_corpus([(hyp, ref)]) == pytest.approx(
            bleu_sentence(hyp, ref), abs=1e-12)

    def test_zero_pooled_precision_collapses_to_0(self):
        assert bleu_corpus([("a b c d e", "v w x y z")]) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bleu_corpus([])

    def test_pooling_is_not_averaging(self):
        pairs = [("a b c d e f", "a b c d e f"), ("p q r", "k l m")]
        pooled = bleu_corpus(pairs)
        assert 0.0 < pooled < 100.0
        # Unsmoothed per-pair scores are 100 and 0; pooling is far from
        # their mean because counts, not scores, are accumulated.
        mean_of_scores = (100.0 + 0.0) / 2
        assert abs(pooled - mean_of_scores) > 10.0

    def test_matches_naive_oracle_on_random_pairs(self):
        rng = random.Random(23)
        vocabulary = [f"w{i}" for i in range(20)]
        pairs = []
        for _ in range(60):
            ref_tokens = rng.choices(vocabulary, k=rng.randint(1, 40))
            if rng.random() < 0.4:
                keep = rng.randint(1, len(ref_tokens))
                hyp_tokens = ref_tokens[:keep] + rng.choices(
                    vocabulary, k=rng.randint(0, 10))
            else:
                hyp_tokens = rng.choices(vocabulary, k=rng.randint(1, 40))
            pairs.append((words(hyp_tokens), words(ref_tokens)))
        for start in range(0, 60, 10):
            chunk = pairs[start:start + 10]
            assert bleu_corpus(chunk) == pytest.approx(
                oracles.bleu_corpus(chunk), abs=1e-9)
        for hyp, ref in pairs:
            assert bleu_sentence(hyp, ref) == pytest.approx(
                oracles.bleu_sentence(hyp, ref), abs=1e-9)


def paragraphs_from(sentences_by_system, k, lang_pair="en-de"):
    """sentences_by_system: {system: [(hyp_sentence, ref_sentence), ...]}"""
    records = []
    for system_id, sentence_pairs in sentences_by_system.items():
        for i, (hyp, ref) in enumerate(sentence_pairs):
            records.append(make_rating(
                sent_index=i, rater_id="A", score=0.1 * i, system_id=system_id,
                lang_pair=lang_pair, hypothesis_text=hyp, reference_text=ref))
    return records, build_paragraphs(records, k)


class TestScoreDirect:
    def test_table_shape_and_mode(self):
        _, paragraphs = paragraphs_from(
            {"sysA": [("a b", "a b"), ("c d", "c d")]}, k=2)
        table = score_direct(paragraphs)
        assert table.metric_name == "bleu"
        assert set(table.entries) == {("sysA", ("doc1", 0, 2))}

    def test_identical_paragraph_scores_100(self):
        _, paragraphs = paragraphs_from({"sysA": [("x y z", "x y z")]}, k=1)
        table = score_direct(paragraphs)
        assert table.entries[("sysA", ("doc1", 0, 1))] == 100.0

    def test_k1_direct_equals_unsmoothed_sentence_scoring(self):
        pairs = [("a b c d e f", "a b c d e e"), ("p q r s", "p q r s t")]
        _, paragraphs = paragraphs_from({"sysA": [pairs[0]], }, k=1)
        table = score_direct(paragraphs)
        assert table.entries[("sysA", ("doc1", 0, 1))] == pytest.approx(
            oracles.bleu_corpus([pairs[0]]), abs=1e-9)

    def test_direct_differs_from_sentence_mean(self):
        # Sentence 1 scores 100, sentence 2 scores 0; the pooled direct
        # score must land strictly between.
        sentence_pairs = [("a b c d e", "a b c d e"),
                          ("p q r s t", "k l m n o")]
        _, paragraphs = paragraphs_from({"sysA": sentence_pairs}, k=2)
        direct = score_direct(paragraphs)
        score = direct.entries[("sysA", ("doc1", 0, 2))]
        assert 0.0 < score < 100.0
        joined_hyp = "a b c d e p q r s t"
        joined_ref = "a b c d e k l m n o"
        assert score == pytest.approx(
            oracles.bleu_corpus([(joined_hyp, joined_ref)]), abs=1e-9)

    def test_direct_pooling_identity_over_k1_paragraphs(self):
        sentence_pairs = [("a b c d e f", "a b c d e e"),
                          ("g h i j k", "g h i j k l"),
                          ("m n o p q r", "m n o q p r")]
        _, paragraphs = paragraphs_from({"sysA": sentence_pairs}, k=1)
        pooled_paragraph_texts = bleu_corpus(
            [(p.hypothesis_text, p.reference_text) for p in paragraphs])
        assert pooled_paragraph_texts == pytest.approx(
            oracles.bleu_corpus(sentence_pairs), abs=1e-9)

    def test_mixed_units_rejected(self):
        _, first = paragraphs_from({"sysA": [("a", "a")]}, k=1)
        _, second = paragraphs_from({"sysA": [("b", "b")]}, k=1,
                                    lang_pair="en-ru")
        with pytest.raises(ValueError, match="multiple"):
            score_direct(first + second)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no paragraphs"):
            score_direct([])


class TestScoreAlignedAvg:
    def test_k1_equals_direct_up_to_smoothing_free_cases(self):
        _, paragraphs = paragraphs_from(
            {"sysA": [("a b c d e", "a b c d f")]}, k=1)
        records, _ = paragraphs_from({"sysA": [("a b c d e", "a b c d f")]}, k=1)
        aligned = score_aligned_avg(paragraphs, records)
        key = ("sysA", ("doc1", 0, 1))
        assert aligned.entries[key] == pytest.approx(
            bleu_sentence("a b c d e", "a b c d f"), abs=1e-12)

    def test_mean_of_100_and_0_is_50(self):
        sentence_pairs = [("a b c d e", "a b c d e"),
                          ("p q r s t", "k l m n o")]
        records, paragraphs = paragraphs_from({"sysA": sentence_pairs}, k=2)
        aligned = score_aligned_avg(paragraphs, records)
        score = aligned.entries[("sysA", ("doc1", 0, 2))]
        smoothed_zero = bleu_sentence("p q r s t", "k l m n o")
        assert score == pytest.approx((100.0 + smoothed_zero) / 2, abs=1e-12)

    def test_mean_is_invariant_to_sentence_permutation(self):
        sentence_pairs = [("a b c", "a b d"), ("e f g", "e f h"),
                          ("i j k", "i j l")]
        records, paragraphs = paragraphs_from({"sysA": sentence_pairs}, k=3)
        forward = score_aligned_avg(paragraphs, records)
        reversed_records, reversed_paragraphs = paragraphs_from(
            {"sysA": sentence_pairs[::-1]}, k=3)
        backward = score_aligned_avg(reversed_paragraphs,
                                     reversed_records)
        assert list(forward.entries.values()) == list(backward.entries.values())

    def test_missing_record_rejected(self):
        records, paragraphs = paragraphs_from(
            {"sysA": [("a b", "a b"), ("c d", "c d")]}, k=2)
        with pytest.raises(ValueError, match="missing rating record"):
            score_aligned_avg(paragraphs, records[:1])

    @pytest.mark.parametrize("field", ["hypothesis_text", "reference_text"])
    def test_records_with_other_texts_rejected(self, field):
        records, paragraphs = paragraphs_from(
            {"sysA": [("a b", "a b"), ("c d", "c d")],
             "sysB": [("a c", "a b"), ("c e", "c d")]}, k=2)
        records[3] = replace(records[3], **{field: "x y"})
        with pytest.raises(ValueError, match=f"paragraph dataset=wmt lang_pair=en-de "
                           f"system=sysB doc=doc1 start_index=0 k=2 do not join to its {field}"):
            score_aligned_avg(paragraphs, records)


class TestTokenCounters:
    def test_whitespace_counter(self):
        assert whitespace_token_count("a b  c") == 3
        assert whitespace_token_count("") == 0

    def test_char_counter(self):
        assert char_token_count("abc d") == 5


class TestLengthPercentiles:
    def test_constant_distribution(self):
        _, paragraphs = paragraphs_from(
            {"sysA": [("a b c", "x"), ("d e f", "y")]}, k=1)
        table = length_percentiles(paragraphs, whitespace_token_count,
                                   [25, 50, 75])
        assert table == {1: {25: 3, 50: 3, 75: 3}}

    def test_nearest_rank_hand_case(self):
        assert nearest_rank_percentile([10, 20, 30, 40], 50) == 20
        assert nearest_rank_percentile([40, 10, 30, 20], 50) == 20
        assert nearest_rank_percentile([10, 20, 30, 40], 75) == 30
        assert nearest_rank_percentile([10, 20, 30, 40], 76) == 40

    @pytest.mark.parametrize("values, percentile, message", [
        ([], 50, "no values"),
        ([1, 2], 0, "percentile must be in (0, 100), got 0"),
        ([1, 2], 100, "percentile must be in (0, 100), got 100"),
    ])
    def test_nearest_rank_input_guards(self, values, percentile, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nearest_rank_percentile(values, percentile)

    def test_groups_by_k(self):
        hyp = [("a b", "r"), ("c d", "r"), ("e f", "r"), ("g h", "r")]
        records, _ = paragraphs_from({"sysA": hyp}, k=1)
        pool = build_paragraphs(records, 1) + build_paragraphs(records, 2)
        table = length_percentiles(pool, whitespace_token_count, [50])
        assert table == {1: {50: 2}, 2: {50: 4}}

    def test_precomputed_counts_take_precedence(self):
        records = [make_rating(sent_index=0, rater_id="A",
                               hypothesis_text="one two three",
                               token_count_hyp=99)]
        paragraphs = build_paragraphs(records, 1)
        table = length_percentiles(paragraphs, whitespace_token_count, [50])
        assert table == {1: {50: 99}}

    def test_percentile_bounds_validated(self):
        _, paragraphs = paragraphs_from({"sysA": [("a", "b")]}, k=1)
        with pytest.raises(ValueError, match="percentile"):
            length_percentiles(paragraphs, whitespace_token_count, [0])
        with pytest.raises(ValueError, match="percentile"):
            length_percentiles(paragraphs, whitespace_token_count, [100])


class TestTruncationStats:
    def test_unbounded_budget_counts_nothing(self):
        _, paragraphs = paragraphs_from(
            {"sysA": [("a b", "c d"), ("e f", "g h")]}, k=1)
        assert truncation_stats(paragraphs, whitespace_token_count, 10 ** 9) \
            == {1: (0, 0.0)}

    def test_hand_fixture_half_truncated(self):
        records = [
            make_rating(sent_index=0, rater_id="A", doc_id="short",
                        token_count_ref=250, token_count_hyp=250),
            make_rating(sent_index=0, rater_id="A", doc_id="long",
                        token_count_ref=700, token_count_hyp=800),
        ]
        paragraphs = build_paragraphs(records, 1)
        assert truncation_stats(paragraphs, whitespace_token_count, 1024) \
            == {1: (1, 0.5)}

    def test_counter_fallback_used_when_counts_missing(self):
        _, paragraphs = paragraphs_from(
            {"sysA": [("a b c", "d e")]}, k=1)  # 3 + 2 tokens
        assert truncation_stats(paragraphs, whitespace_token_count, 4) \
            == {1: (1, 1.0)}
        assert truncation_stats(paragraphs, whitespace_token_count, 5) \
            == {1: (0, 0.0)}

    def test_budget_validated(self):
        _, paragraphs = paragraphs_from({"sysA": [("a", "b")]}, k=1)
        with pytest.raises(ValueError, match="budget"):
            truncation_stats(paragraphs, whitespace_token_count, 0)
