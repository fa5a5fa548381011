import dataclasses
import math
import random

import pytest

from helpers import make_item, make_rating
from paraeval import model
from paraeval.model import (ParagraphInstance, ScoreTable, ScoreType,
                            SimConfig, SystemEntry, TauCalibration,
                            ValidationReport, validate_ratings)


class TestRatingRecord:
    def test_key_property(self):
        record = make_rating(sent_index=3, system_id="sysB", doc_id="d9")
        assert record.key == ("wmt", "en-de", "sysB", "d9", 3)

    def test_name_spells_the_key(self):
        assert make_rating(sent_index=3, doc_id="d9").name == (
            "rating dataset=wmt lang_pair=en-de system=sysA doc=d9 sent_index=3")

    def test_negative_sent_index_rejected(self):
        with pytest.raises(ValueError, match="sent_index"):
            make_rating(sent_index=-1)

    def test_negative_token_count_rejected(self):
        with pytest.raises(ValueError, match="token_count_hyp"):
            make_rating(token_count_hyp=-2)

    def test_score_type_must_be_enum(self):
        with pytest.raises(ValueError, match="score_type"):
            make_rating(score_type="DA_Z")

    def test_records_are_immutable(self):
        record = make_rating()
        with pytest.raises(AttributeError):
            record.score = 1.0


class TestValidateRatings:
    def test_well_formed_collection_passes(self):
        records = [make_rating(sent_index=i) for i in range(3)]
        report = validate_ratings(records)
        assert report.errors == ()
        assert report.ok

    def test_duplicate_key_reported_with_coordinates(self):
        records = [make_rating(sent_index=0, score=1.0),
                   make_rating(sent_index=0, score=2.0, rater_id="r2")]
        report = validate_ratings(records)
        assert len(report.errors) == 1
        assert "duplicate rating key" in report.errors[0]
        assert "doc=doc1 sent_index=0" in report.errors[0]

    def test_mixed_score_types_reported(self):
        records = [make_rating(sent_index=0, score_type=ScoreType.DA_Z),
                   make_rating(sent_index=1, score_type=ScoreType.MQM)]
        report = validate_ratings(records)
        assert len(report.errors) == 1
        assert "mixed score types" in report.errors[0]

    def test_nan_score_reported(self):
        report = validate_ratings([make_rating(score=float("nan"))])
        assert len(report.errors) == 1
        assert "non-finite score" in report.errors[0]

    def test_infinite_score_reported(self):
        report = validate_ratings([make_rating(score=math.inf)])
        assert not report.ok

    def test_unrated_gap_is_a_warning_not_an_error(self):
        records = [make_rating(sent_index=0), make_rating(sent_index=2)]
        report = validate_ratings(records)
        assert report.ok
        assert len(report.warnings) == 1
        assert "unrated positions" in report.warnings[0]
        assert ": 1" in report.warnings[0]

    @pytest.mark.parametrize("indices, shown", [
        ([0, 12], "1,2,3,4,5,6,7,8,9,10,..."),
        ([0, 11], "1,2,3,4,5,6,7,8,9,10"),
        ([3, 9, 13], "0,1,2,4,5,6,7,8,10,11,..."),
        ([3, 9, 12], "0,1,2,4,5,6,7,8,10,11"),
        ([0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22], "1,3,5,7,9,11,13,15,17,19,..."),
        ([0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20], "1,3,5,7,9,11,13,15,17,19"),
    ], ids=["11-in-one-gap", "10-in-one-gap", "11-in-three-gaps", "10-in-three-gaps",
            "11-in-eleven-gaps", "10-in-ten-gaps"])
    def test_more_than_ten_unrated_positions_are_shown_cut_short(self, indices, shown):
        records = [make_rating(sent_index=i) for i in indices]
        random.Random(len(indices)).shuffle(records)
        assert validate_ratings(records).warnings == (
            "unrated positions in dataset=wmt lang_pair=en-de system=sysA doc=doc1: "
            + shown,)

    def test_unrated_positions_below_a_huge_index_are_listed_cut_short(self):
        # The gaps are walked, never enumerated up to the largest index.
        records = [make_rating(sent_index=10**12), make_rating(sent_index=0)]
        assert validate_ratings(records).warnings == (
            "unrated positions in dataset=wmt lang_pair=en-de system=sysA doc=doc1: "
            "1,2,3,4,5,6,7,8,9,10,...",)

    def test_report_is_order_independent(self):
        records = [make_rating(sent_index=i, score=float(i)) for i in range(6)]
        records.append(make_rating(sent_index=2, score=9.9))  # duplicate
        records.append(make_rating(sent_index=5, score_type=ScoreType.MQM,
                                   doc_id="other"))
        baseline = validate_ratings(records)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert validate_ratings(shuffled) == baseline


class TestParagraphInstance:
    @staticmethod
    def make(k=2, scores=(0.5, -0.5), **overrides):
        fields = dict(
            dataset_id="wmt", lang_pair="en-de", system_id="sysA",
            doc_id="doc1", start_index=0, k=k, score_type=ScoreType.DA_Z,
            rater_id="r1", human_score=0.0, sentence_scores=scores,
            source_text="a b", reference_text="c d", hypothesis_text="e f")
        fields.update(overrides)
        return ParagraphInstance(**fields)

    def test_item_key(self):
        assert self.make(start_index=4).item_key == ("doc1", 4, 2)

    def test_score_count_must_match_k(self):
        with pytest.raises(ValueError, match="expected k=3"):
            self.make(k=3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            self.make(k=0, scores=())

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_index"):
            self.make(start_index=-1)

    @pytest.mark.parametrize("name", ["token_count_ref", "token_count_hyp"])
    def test_negative_token_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"^paragraph dataset=wmt lang_pair=en-de "
                           f"system=sysA doc=doc1 start_index=0 k=2: {name} must be >= 0, "
                           f"got -5$"):
            self.make(**{name: -5})

    def test_sentence_scores_coerced_to_tuple(self):
        paragraph = self.make(scores=[1.0, 2.0], human_score=1.5)
        assert paragraph.sentence_scores == (1.0, 2.0)
        assert isinstance(paragraph.sentence_scores, tuple)


class TestScoreTable:
    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreTable(metric_name="bleu",
                       entries={("sysA", ("d", 0, 1)): math.nan})


def test_tau_calibration_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        TauCalibration(epsilon=-0.1, accuracy_at_epsilon=0.5)


class TestSimConfig:
    @staticmethod
    def make(**overrides):
        fields = dict(n_items=10, n_systems=2, max_k=3, sigma_quality=1.0,
                      sigma_human=1.0, sigma_metric=1.0,
                      system_mean_spread=0.5, seed=1)
        fields.update(overrides)
        return SimConfig(**fields)

    def test_valid_config(self):
        assert self.make().n_systems == 2

    def test_needs_two_systems(self):
        with pytest.raises(ValueError, match="n_systems"):
            self.make(n_systems=1)

    @pytest.mark.parametrize("name", ["n_items", "max_k"])
    def test_needs_one_item_and_one_sentence(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            self.make(**{name: 0})

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_metric"):
            self.make(sigma_metric=-0.5)

    @pytest.mark.parametrize("name", ["sigma_quality", "sigma_human", "sigma_metric",
                                      "system_mean_spread"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_rejects_non_finite_spread(self, name, text):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            self.make(**{name: float(text)})

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="seed"):
            self.make(seed=2 ** 64)
        with pytest.raises(ValueError, match="seed"):
            self.make(seed=-1)


def test_system_entry_defaults_to_no_metric_score():
    entry = SystemEntry(human_score=1.5)
    assert entry.metric_score is None


def test_no_record_has_an_instance_dict():
    """Every record type is slotted: a reader's many records hold only their fields."""
    records = [make_rating(), TestParagraphInstance.make(),
               ScoreTable(metric_name="bleu", entries={}), SystemEntry(human_score=1.5),
               make_item({"a": 1.0}), TauCalibration(epsilon=0.0, accuracy_at_epsilon=1.0),
               TestSimConfig.make(), ValidationReport()]
    assert {type(record) for record in records} == {
        value for value in vars(model).values()
        if dataclasses.is_dataclass(value) and value.__module__ == model.__name__}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
