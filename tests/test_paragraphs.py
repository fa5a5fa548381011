import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import make_rating
from paraeval.model import ParagraphInstance, ScoreType
from paraeval.paragraphs import build_eval_items, build_paragraphs


class TestAggregateScore:
    def test_da_z_averages(self):
        assert ScoreType.DA_Z.aggregate([0.5, -0.5]) == 0.0

    def test_mqm_sums(self):
        assert ScoreType.MQM.aggregate([-5.0, -1.0, 0.0]) == -6.0

    def test_singleton_is_identity_for_both_types(self):
        assert ScoreType.DA_Z.aggregate([0.73]) == 0.73
        assert ScoreType.MQM.aggregate([0.73]) == 0.73

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScoreType.DA_Z.aggregate([])

    def test_mqm_sum_is_the_exact_sum_rounded_once(self):
        # Left to right these sum to 0.20000000000000007.
        values = [0.1, 0.2, 0.3, -0.4, 1e-17]
        assert ScoreType.MQM.aggregate(values) == float(sum(map(Fraction, values))) \
            == 0.19999999999999998


# Every finite float: subnormals, values near the largest float, both signs.
FINITE_SCORES = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=8)
# Fixed examples: a tier-1 gate must not pass on one run and fail on the next.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def plain_sum(scores):
    total = 0.0
    for s in scores:
        total += s
    return total


@PROPERTY
@given(FINITE_SCORES)
def test_a_da_mean_keeps_a_finite_plain_sum_and_an_mqm_sum_is_exact(scores):
    total = plain_sum(scores)
    if math.isfinite(total):
        assert ScoreType.DA_Z.aggregate(scores) == total / len(scores)
    assert ScoreType.MQM.aggregate(scores) == oracles.paragraph_score("MQM", scores)


@PROPERTY
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([-0.1, -1.0, -5.0, -0.0])), min_size=1, max_size=6))
@example([1.7976931348623157e308] * 2 + [-1.7976931348623157e308])  # fsum overflows
def test_no_order_of_the_sentence_scores_changes_an_mqm_score(scores):
    assert len({repr(ScoreType.MQM.aggregate(order))
                for order in set(itertools.permutations(scores))}) == 1


@PROPERTY
@given(FINITE_SCORES)
def test_the_mean_of_finite_scores_is_finite_and_within_the_summation_bound(scores):
    mean = ScoreType.DA_Z.aggregate(scores)
    assert math.isfinite(mean)
    # Recursive summation of n terms errs by at most gamma_(n-1) * sum |x|;
    # gamma_(n+1) also covers the division's rounding and the terms that
    # scaling pushes below the smallest subnormal.
    n, unit = len(scores), Fraction(1, 2 ** 53)
    gamma = (n + 1) * unit / (1 - (n + 1) * unit)
    bound = gamma * sum(abs(Fraction(s)) for s in scores) / n + Fraction(1, 2 ** 1074)
    assert abs(Fraction(mean) - oracles.mean_exact(scores)) <= bound


def test_a_da_window_whose_sum_overflows_has_its_mean():
    assert ScoreType.DA_Z.aggregate([8.98846567431158e+307] * 2) == \
        8.98846567431158e+307
    assert ScoreType.DA_Z.aggregate([1.7976931348623157e308] * 3) == \
        1.7976931348623157e308
    assert ScoreType.MQM.aggregate([1.7e308, 1.7e308]) == math.inf

def doc_records(raters, rated=None, **overrides):
    """One document's records: one per rated position, rater per position."""
    rated = [True] * len(raters) if rated is None else rated
    return [make_rating(sent_index=i, rater_id=raters[i], score=float(i + 1),
                        **overrides)
            for i in range(len(raters)) if rated[i]]


class TestBuildParagraphs:
    def test_k1_is_one_paragraph_per_rated_sentence(self):
        records = doc_records(["a", "b", "a"])
        paragraphs = build_paragraphs(records, 1)
        assert [p.start_index for p in paragraphs] == [0, 1, 2]
        assert [p.human_score for p in paragraphs] == [1.0, 2.0, 3.0]
        assert [p.sentence_scores for p in paragraphs] == \
            [(1.0,), (2.0,), (3.0,)]

    def test_rater_change_forces_shift_then_reemit(self):
        # Raters A A B A A with k=2: emit [0,2), reject [2,4) at the B,
        # reject [2,4)->[3,5)? no: after rejecting start 2, start 3 wins.
        records = doc_records(["A", "A", "B", "A", "A"])
        paragraphs = build_paragraphs(records, 2)
        assert [p.start_index for p in paragraphs] == [0, 3]
        assert [p.rater_id for p in paragraphs] == ["A", "A"]

    def test_sentences_joined_by_single_space(self):
        records = doc_records(["A", "A"])
        (paragraph,) = build_paragraphs(records, 2)
        assert paragraph.hypothesis_text == "hypothesis 0 hypothesis 1"
        assert paragraph.reference_text == "reference 0 reference 1"
        assert paragraph.source_text == "source 0 source 1"

    def test_unrated_position_blocks_windows(self):
        # Positions 0..4 all rater A but position 2 unrated.
        records = doc_records(["A"] * 5, rated=[True, True, False, True, True])
        paragraphs = build_paragraphs(records, 2)
        assert [p.start_index for p in paragraphs] == [0, 3]
        assert build_paragraphs(records, 3) == []

    def test_two_ratings_far_apart_are_two_runs(self):
        # Only the rated positions are read, never the unrated ones between.
        records = [make_rating(sent_index=10**12, rater_id="A"),
                   make_rating(sent_index=0, rater_id="A")]
        assert [p.start_index for p in build_paragraphs(records, 1)] == [0, 10**12]
        assert build_paragraphs(records, 2) == []

    def test_document_shorter_than_k_emits_nothing(self):
        assert build_paragraphs(doc_records(["A", "A"]), 3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            build_paragraphs(doc_records(["A"]), 0)

    def test_duplicate_position_rejected(self):
        records = doc_records(["A", "A"]) + doc_records(["B"])
        with pytest.raises(ValueError, match="^rating dataset=wmt lang_pair=en-de "
                           "system=sysA doc=doc1 sent_index=0: duplicate sent_index; "
                           "validate the collection$"):
            build_paragraphs(records, 1)

    def test_da_paragraph_score_is_mean(self):
        (paragraph,) = build_paragraphs(doc_records(["A", "A"]), 2)
        assert paragraph.human_score == 1.5
        assert paragraph.score_type is ScoreType.DA_Z

    def test_mqm_paragraph_score_is_sum(self):
        records = doc_records(["A", "A"], score_type=ScoreType.MQM)
        (paragraph,) = build_paragraphs(records, 2)
        assert paragraph.human_score == 3.0

    def test_non_finite_paragraph_score_rejected_naming_the_window(self):
        # Each MQM score is finite, but their sum overflows to inf.
        records = [make_rating(sent_index=i, rater_id="A", score=8.98846567431158e+307,
                               score_type=ScoreType.MQM, doc_id="d7") for i in range(3)]
        with pytest.raises(ValueError) as excinfo:
            build_paragraphs(records, 2)
        assert str(excinfo.value) == (
            "window dataset=wmt lang_pair=en-de system=sysA doc=d7 start_index=0 "
            "k=2: human_score aggregates to non-finite inf")

    def test_da_paragraph_score_whose_sum_overflows_is_the_mean(self):
        records = [make_rating(sent_index=i, rater_id="A", score=8.98846567431158e+307,
                               doc_id="d7") for i in range(3)]
        assert [p.human_score for p in build_paragraphs(records, 2)] == \
            [8.98846567431158e+307]

    def test_token_counts_summed_when_all_present(self):
        records = [make_rating(sent_index=i, rater_id="A",
                               token_count_ref=10 + i, token_count_hyp=20 + i)
                   for i in range(2)]
        (paragraph,) = build_paragraphs(records, 2)
        assert paragraph.token_count_ref == 21
        assert paragraph.token_count_hyp == 41

    def test_token_counts_none_when_any_missing(self):
        records = [make_rating(sent_index=0, rater_id="A", token_count_ref=10),
                   make_rating(sent_index=1, rater_id="A")]
        (paragraph,) = build_paragraphs(records, 2)
        assert paragraph.token_count_ref is None

    def test_groups_are_independent(self):
        records = (doc_records(["A", "A"]) +
                   doc_records(["B", "B", "B"], doc_id="doc2") +
                   doc_records(["C"], system_id="sysB"))
        paragraphs = build_paragraphs(records, 2)
        assert {(p.system_id, p.doc_id, p.start_index) for p in paragraphs} == \
            {("sysA", "doc1", 0), ("sysA", "doc2", 0)}

    def test_output_order_is_canonical(self):
        records = (doc_records(["A", "A"], doc_id="z") +
                   doc_records(["A", "A"], doc_id="a") +
                   doc_records(["A", "A"], system_id="sys0", doc_id="m"))
        random.Random(3).shuffle(records)
        paragraphs = build_paragraphs(records, 2)
        keys = [p.sort_key() for p in paragraphs]
        assert keys == sorted(keys)


def random_layout(rng):
    length = rng.randint(1, 30)
    raters = [f"r{rng.randint(0, 3)}" for _ in range(length)]
    rated_probability = rng.choice([0.3, 0.6, 0.9, 1.0])
    rated = [rng.random() < rated_probability for _ in range(length)]
    return rated, raters


class TestOracleAgreement:
    def test_random_layouts_match_greedy_scan_oracle(self):
        rng = random.Random(20240811)
        for trial in range(150):
            rated, raters = random_layout(rng)
            records = doc_records(raters, rated)
            for k in range(1, 11):
                paragraphs = build_paragraphs(records, k)
                starts = [p.start_index for p in paragraphs]
                assert starts == oracles.window_starts(rated, raters, k), \
                    (trial, k, rated, raters)
                assert len(starts) == oracles.run_window_count(rated, raters, k)

    def test_windows_never_overlap_and_qualify(self):
        rng = random.Random(99)
        for _ in range(60):
            rated, raters = random_layout(rng)
            records = doc_records(raters, rated)
            by_index = {r.sent_index: r for r in records}
            for k in (1, 2, 3, 5):
                previous_end = -1
                for p in build_paragraphs(records, k):
                    assert p.start_index > previous_end
                    previous_end = p.start_index + k - 1
                    window = [by_index[j]
                              for j in range(p.start_index, p.start_index + k)]
                    assert {r.rater_id for r in window} == {p.rater_id}
                    assert p.sentence_scores == tuple(r.score for r in window)

    def test_paragraph_count_never_increases_with_k(self):
        rng = random.Random(5)
        for _ in range(40):
            rated, raters = random_layout(rng)
            records = doc_records(raters, rated)
            counts = [len(build_paragraphs(records, k)) for k in range(1, 11)]
            assert counts == sorted(counts, reverse=True)


class TestBuildEvalItems:
    @staticmethod
    def paragraphs_for(system_docs, k=2):
        records = []
        for system_id, docs in system_docs.items():
            for doc_id, raters in docs.items():
                records.extend(doc_records(raters, system_id=system_id,
                                           doc_id=doc_id))
        return build_paragraphs(records, k)

    def test_three_systems_sharing_a_slot(self):
        paragraphs = self.paragraphs_for({
            "sys1": {"docA": ["A", "A"]},
            "sys2": {"docA": ["B", "B"]},
            "sys3": {"docA": ["A", "A"]},
        })
        (item,) = build_eval_items(paragraphs, 2)
        assert item.item_key == ("docA", 0, 2)
        assert sorted(item.per_system) == ["sys1", "sys2", "sys3"]

    def test_disjoint_slots_produce_no_items(self):
        # sys1 emits (docA, 0, 2); sys2's rater flip shifts it to (docA, 1, 2).
        paragraphs = self.paragraphs_for({
            "sys1": {"docA": ["A", "A", "C"]},
            "sys2": {"docA": ["B", "A", "A"]},
        })
        assert {(p.system_id, p.start_index) for p in paragraphs} == \
            {("sys1", 0), ("sys2", 1)}
        assert build_eval_items(paragraphs, 2) == []

    def test_item_retained_only_with_two_systems(self):
        paragraphs = self.paragraphs_for({
            "sys1": {"docA": ["A", "A"], "docB": ["A", "A"]},
            "sys2": {"docA": ["B", "B"]},
        })
        (item,) = build_eval_items(paragraphs, 2)
        assert item.item_key == ("docA", 0, 2)
        assert sorted(item.per_system) == ["sys1", "sys2"]

    def test_human_scores_carried_into_items(self):
        paragraphs = self.paragraphs_for({
            "sys1": {"docA": ["A", "A"]},
            "sys2": {"docA": ["B", "B"]},
        })
        (item,) = build_eval_items(paragraphs, 2)
        assert item.per_system["sys1"].human_score == 1.5
        assert item.per_system["sys1"].metric_score is None

    def test_scores_the_reader_refuses_never_reach_an_item(self):
        # Built by hand, these three paragraphs of one item once went through
        # build_eval_items, attach_metric_scores and pair_table and gave human
        # signs [0, 0, 1]: a NaN difference reads as a tie.
        def paragraph(system_id, human_score, score):
            return ParagraphInstance(
                dataset_id="wmt", lang_pair="en-de", system_id=system_id, doc_id="docA",
                start_index=0, k=1, score_type=ScoreType.DA_Z, rater_id="A",
                human_score=human_score, sentence_scores=(score,), source_text="s",
                reference_text="r", hypothesis_text="h")

        name = "paragraph dataset=wmt lang_pair=en-de system={} doc=docA start_index=0 k=1"
        for system_id, human_score, score, problem in [
                ("sys1", math.nan, 1.0, "field human_score must be finite, got nan"),
                ("sys3", 0.5, 2.0, "human_score 0.5 does not aggregate its "
                                   "sentence_scores (expected 2.0)")]:
            with pytest.raises(ValueError) as excinfo:
                build_eval_items([paragraph(system_id, human_score, score),
                                  paragraph("sys2", 1.0, 1.0)], 1)
            assert str(excinfo.value) == f"{name.format(system_id)}: {problem}"
            assert excinfo.traceback[-1].name == "__post_init__"

    def test_mixed_units_rejected(self):
        paragraphs = (self.paragraphs_for({"sys1": {"docA": ["A", "A"]}}) +
                      [p for p in build_paragraphs(
                          doc_records(["A", "A"], lang_pair="en-ru"), 2)])
        with pytest.raises(ValueError, match="multiple .dataset, lang_pair."):
            build_eval_items(paragraphs, 2)

    def test_k_mismatch_rejected(self):
        paragraphs = self.paragraphs_for({"sys1": {"docA": ["A", "A"]}})
        with pytest.raises(ValueError, match="has k=2, expected 3"):
            build_eval_items(paragraphs, 3)
