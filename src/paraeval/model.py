"""Domain types for paragraph-level MT evaluation data.

All types are immutable after construction. Collection-level invariants
(key uniqueness, score finiteness, a single score type per collection)
are checked by ``validate_ratings``, which reports problems instead of
raising so that callers can surface every issue at once.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple

# (dataset_id, lang_pair, system_id, doc_id, sent_index)
RatingKey = Tuple[str, str, str, str, int]

# (doc_id, start_index, k)
ItemKey = Tuple[str, int, int]


class ScoreType(enum.Enum):
    """How sentence scores were produced and how they aggregate."""

    DA_Z = "DA_Z"  # per-rater z-normalized direct assessment; aggregates by mean
    MQM = "MQM"    # summed weighted error scores; aggregates by sum


@dataclass(frozen=True)
class RatingRecord:
    """One sentence-level human rating of a system translation."""

    dataset_id: str
    lang_pair: str
    system_id: str
    doc_id: str
    sent_index: int
    rater_id: str
    score: float
    score_type: ScoreType
    source_text: str
    reference_text: str
    hypothesis_text: str
    token_count_ref: Optional[int] = None
    token_count_hyp: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sent_index < 0:
            raise ValueError(f"sent_index must be >= 0, got {self.sent_index}")
        if not isinstance(self.score_type, ScoreType):
            raise ValueError(f"score_type must be a ScoreType, got {self.score_type!r}")
        for name in ("token_count_ref", "token_count_hyp"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def key(self) -> RatingKey:
        return (self.dataset_id, self.lang_pair, self.system_id,
                self.doc_id, self.sent_index)


@dataclass(frozen=True)
class ParagraphInstance:
    """A window of k same-rater sentences concatenated into one paragraph.

    ``human_score`` is the mean of ``sentence_scores`` for DA_Z data and
    their sum for MQM data; the list order follows ascending sentence
    position. Token counts are the sums of the per-sentence counts when
    every underlying record carried one, else None.
    """

    dataset_id: str
    lang_pair: str
    system_id: str
    doc_id: str
    start_index: int
    k: int
    score_type: ScoreType
    rater_id: str
    human_score: float
    sentence_scores: Tuple[float, ...]
    source_text: str
    reference_text: str
    hypothesis_text: str
    token_count_ref: Optional[int] = None
    token_count_hyp: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentence_scores", tuple(self.sentence_scores))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        if len(self.sentence_scores) != self.k:
            raise ValueError(
                f"paragraph {self.sort_key()} has {len(self.sentence_scores)} "
                f"sentence_scores, expected k={self.k}")
        if not isinstance(self.score_type, ScoreType):
            raise ValueError(f"score_type must be a ScoreType, got {self.score_type!r}")

    @property
    def item_key(self) -> ItemKey:
        return (self.doc_id, self.start_index, self.k)

    def sort_key(self) -> tuple:
        return (self.dataset_id, self.lang_pair, self.system_id,
                self.doc_id, self.start_index, self.k)


@dataclass(frozen=True)
class ScoreTable:
    """Metric scores for one evaluation unit, keyed by (system, item)."""

    metric_name: str
    k: int
    entries: Mapping[Tuple[str, ItemKey], float]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for key, score in self.entries.items():
            if not math.isfinite(score):
                raise ValueError(f"non-finite score for {key}: {score!r}")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SystemEntry:
    """Human (and optionally metric) score of one system on one item."""

    human_score: float
    metric_score: Optional[float] = None


@dataclass(frozen=True)
class EvalItem:
    """All competing systems' paragraphs for one (doc, start, k) slot."""

    item_key: ItemKey
    per_system: Mapping[str, SystemEntry]

    def scored_systems(self) -> list[str]:
        """System ids with both a human and a metric score, sorted."""
        return sorted(s for s, e in self.per_system.items()
                      if e.metric_score is not None)


@dataclass(frozen=True)
class TauCalibration:
    """Tie-introduction threshold chosen by the calibration sweep."""

    epsilon: float
    accuracy_at_epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the synthetic rater/metric noise generator."""

    n_items: int
    n_systems: int
    max_k: int
    sigma_quality: float
    sigma_human: float
    sigma_metric: float
    system_mean_spread: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {self.n_items}")
        if self.n_systems < 2:
            raise ValueError(f"n_systems must be >= 2, got {self.n_systems}")
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        for name in ("sigma_quality", "sigma_human", "sigma_metric",
                     "system_mean_spread"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a rating collection."""

    errors: Tuple[str, ...] = field(default=())
    warnings: Tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.errors


def _format_key(key: RatingKey) -> str:
    dataset_id, lang_pair, system_id, doc_id, sent_index = key
    return (f"dataset={dataset_id} lang_pair={lang_pair} system={system_id} "
            f"doc={doc_id} sent_index={sent_index}")


def validate_ratings(records: Iterable[RatingRecord]) -> ValidationReport:
    """Check a rating collection against its invariants.

    Reports every duplicate (dataset, lang_pair, system, doc, sent_index)
    key, every non-finite score, and any mix of score types, each with the
    offending record's coordinates. Unrated positions inside a document
    (which block sliding windows) are reported as warnings. The report is
    identical for any permutation of the input.
    """
    records = list(records)
    errors: list[str] = []
    warnings: list[str] = []

    key_counts = Counter(r.key for r in records)
    for key, count in key_counts.items():
        if count > 1:
            errors.append(f"duplicate rating key: {_format_key(key)} ({count} records)")

    for record in records:
        if not math.isfinite(record.score):
            errors.append(f"non-finite score at {_format_key(record.key)}: {record.score!r}")

    type_counts = Counter(r.score_type for r in records)
    if len(type_counts) > 1:
        summary = ", ".join(f"{t.value}={type_counts[t]}"
                            for t in sorted(type_counts, key=lambda t: t.value))
        errors.append(f"mixed score types in one collection: {summary}")

    doc_indices: dict[tuple, set[int]] = defaultdict(set)
    for record in records:
        doc_indices[record.key[:4]].add(record.sent_index)
    for doc_key, indices in doc_indices.items():
        missing = sorted(set(range(max(indices) + 1)) - indices)
        if missing:
            dataset_id, lang_pair, system_id, doc_id = doc_key
            shown = ",".join(str(i) for i in missing[:10])
            if len(missing) > 10:
                shown += ",..."
            warnings.append(
                f"unrated positions in dataset={dataset_id} lang_pair={lang_pair} "
                f"system={system_id} doc={doc_id}: {shown}")

    return ValidationReport(errors=tuple(sorted(errors)),
                            warnings=tuple(sorted(warnings)))
