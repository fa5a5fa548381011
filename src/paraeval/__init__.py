"""Paragraph-level MT evaluation data, scoring, and metric meta-evaluation."""

from .fileio import (ParseError, ValidationError, load_external_scores,
                     load_paragraphs, load_ratings, parse_external_scores,
                     parse_ratings, read_paragraphs, read_rating_lines,
                     write_paragraphs, write_ratings, write_scores)
from .metaeval import (HUMAN, METRIC, attach_metric_scores, mode_correlation,
                       pearson_no_grouping, segment_accuracy,
                       system_pairwise_accuracy, system_scores, tau_optimize,
                       tie_rates)
from .metrics import (BUILTIN_METRICS, BleuMetric, bleu_corpus, bleu_sentence,
                      char_token_count, length_percentiles, score_aligned_avg,
                      score_direct, tokenize, truncation_stats,
                      whitespace_token_count)
from .model import (EvalItem, ParagraphInstance, RatingRecord, ScoreTable,
                    ScoreType, SimConfig, SystemEntry, TauCalibration,
                    ValidationReport, validate_ratings)
from .noise import NoiseCurvePoint, noise_curve, simulate
from .paragraphs import aggregate_score, build_eval_items, build_paragraphs
from .sampling import sample_stratified, sample_uniform

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_METRICS", "BleuMetric", "EvalItem", "HUMAN", "METRIC",
    "NoiseCurvePoint", "ParagraphInstance", "ParseError", "RatingRecord",
    "ScoreTable", "ScoreType", "SimConfig", "SystemEntry", "TauCalibration",
    "ValidationError", "ValidationReport", "aggregate_score",
    "attach_metric_scores", "bleu_corpus", "bleu_sentence", "build_eval_items",
    "build_paragraphs", "char_token_count", "length_percentiles",
    "load_external_scores", "load_paragraphs", "load_ratings",
    "mode_correlation", "noise_curve", "parse_external_scores",
    "parse_ratings", "pearson_no_grouping", "read_paragraphs",
    "read_rating_lines", "sample_stratified", "sample_uniform",
    "score_aligned_avg", "score_direct", "segment_accuracy", "simulate",
    "system_pairwise_accuracy", "system_scores", "tau_optimize", "tie_rates",
    "tokenize", "truncation_stats", "validate_ratings",
    "whitespace_token_count", "write_paragraphs", "write_ratings",
    "write_scores",
]
