import math
import random

import pytest

from helpers import make_rating
from paraeval.model import (ParagraphInstance, ScoreTable, ScoreType,
                            SimConfig, SystemEntry, TauCalibration,
                            validate_ratings)


class TestRatingRecord:
    def test_key_property(self):
        record = make_rating(sent_index=3, system_id="sysB", doc_id="d9")
        assert record.key == ("wmt", "en-de", "sysB", "d9", 3)

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

    def test_sentence_scores_coerced_to_tuple(self):
        paragraph = self.make(scores=[1.0, 2.0])
        assert paragraph.sentence_scores == (1.0, 2.0)
        assert isinstance(paragraph.sentence_scores, tuple)


class TestScoreTable:
    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreTable(metric_name="bleu", k=1,
                       entries={("sysA", ("d", 0, 1)): math.nan})

    def test_len_counts_entries(self):
        table = ScoreTable(metric_name="bleu", k=1,
                           entries={("sysA", ("d", 0, 1)): 1.0,
                                    ("sysB", ("d", 0, 1)): 2.0})
        assert len(table) == 2


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

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_metric"):
            self.make(sigma_metric=-0.5)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="seed"):
            self.make(seed=2 ** 64)
        with pytest.raises(ValueError, match="seed"):
            self.make(seed=-1)


def test_system_entry_defaults_to_no_metric_score():
    entry = SystemEntry(human_score=1.5)
    assert entry.metric_score is None
