"""Domain types for paragraph-level MT evaluation data.

All types are immutable after construction and slotted (no ``__dict__``).
A rating or a paragraph checks its own values (an index or count below 0,
k, the number of scores; a paragraph's scores, finite and aggregating by
``ScoreType.aggregate``: a DA_Z mean, or an MQM sum that no order of the
sentences changes), however it is made, and names itself, as ``name`` spells
it, in each error; the readers' getters check JSON types only. ``DOC_KEY``
spells a document's coordinates, and ``RATING_KEY`` and ``PARAGRAPH_KEY``
extend it.
Collection-level invariants (key uniqueness, score finiteness, a single
score type per collection) are checked by ``validate_ratings``, which
reports problems instead of raising so that callers can surface every issue
at once.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Tuple

# (dataset_id, lang_pair, system_id, doc_id, sent_index)
RatingKey = Tuple[str, str, str, str, int]

# (doc_id, start_index, k)
ItemKey = Tuple[str, int, int]

# How errors spell a document's coordinates; a rating's, filled from its key,
# and a paragraph's, filled from its sort_key(), extend it.
DOC_KEY = "dataset={} lang_pair={} system={} doc={}"
RATING_KEY = DOC_KEY + " sent_index={}"
PARAGRAPH_KEY = DOC_KEY + " start_index={} k={}"


class ScoreType(enum.Enum):
    """How sentence scores were produced and how they aggregate."""

    DA_Z = "DA_Z"  # per-rater z-normalized direct assessment; aggregates by mean
    MQM = "MQM"    # summed weighted error scores; aggregates by sum

    def aggregate(self, sentence_scores: Sequence[float]) -> float:
        """Combine per-sentence scores into one paragraph score.

        DA z-scores average; MQM scores sum (a sentence's MQM score is already
        a sum of error weights). An MQM sum is the exact sum of the scores
        rounded once (``math.fsum``, or ``_exact_sum`` where fsum's partial sums
        leave the float range), so no order of the scores changes it and equal
        penalties in any order tie. A DA sum runs in list order, so a mean is
        bit-reproducible for a fixed input order; where it overflows, the mean
        is that of the ``_scaled`` scores, scaled back, so finite scores have a
        finite mean.
        """
        scores = list(sentence_scores)
        if not scores:
            raise ValueError("sentence_scores must be non-empty")
        if self is ScoreType.MQM:
            try:
                return math.fsum(scores)
            except (OverflowError, ValueError):  # a partial sum overflows, or inf meets -inf
                return _exact_sum(scores)
        total = reduce(add, scores, 0.0)
        if math.isinf(total):
            scaled, exponent = _scaled(scores)
            return math.ldexp(reduce(add, scaled, 0.0) / len(scores), exponent)
        return total / len(scores)


@dataclass(frozen=True, slots=True)
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
            raise ValueError(f"{self.name}: sent_index must be >= 0, got {self.sent_index}")
        self._check_score_type_and_counts()

    def _check_score_type_and_counts(self) -> None:
        if not isinstance(self.score_type, ScoreType):
            raise ValueError(f"score_type must be a ScoreType, got {self.score_type!r}")
        for name in ("token_count_ref", "token_count_hyp"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{self.name}: {name} must be >= 0, got {value}")

    @property
    def key(self) -> RatingKey:
        return (self.dataset_id, self.lang_pair, self.system_id,
                self.doc_id, self.sent_index)

    @property
    def name(self) -> str:  # as every error names the rating
        return "rating " + RATING_KEY.format(*self.key)


@dataclass(frozen=True, slots=True)
class ParagraphInstance:
    """A window of k same-rater sentences concatenated into one paragraph.

    ``human_score`` is the mean of ``sentence_scores`` for DA_Z data and
    their sum for MQM data (``ScoreType.aggregate``, to 1e-9), and both are
    finite; the list order follows ascending sentence position. Token counts
    are the sums of the per-sentence counts when every underlying record
    carried one, else None. The three texts are None only in paragraphs read
    with ``texts=False``.
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
    source_text: Optional[str]
    reference_text: Optional[str]
    hypothesis_text: Optional[str]
    token_count_ref: Optional[int] = None
    token_count_hyp: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentence_scores", tuple(self.sentence_scores))
        if self.k < 1:
            raise ValueError(f"{self.name}: k must be >= 1, got {self.k}")
        if self.start_index < 0:
            raise ValueError(f"{self.name}: start_index must be >= 0, "
                             f"got {self.start_index}")
        if len(self.sentence_scores) != self.k:
            raise ValueError(f"{self.name}: {len(self.sentence_scores)} sentence_scores, "
                             f"expected k={self.k}")
        RatingRecord._check_score_type_and_counts(self)
        # JSON's NaN, Infinity and 1e400 parse as floats; a non-finite score
        # would read as a human tie. Only finite terms have a finite sum, so a
        # finite human_score close to the aggregate has finite sentence scores.
        human, scores = self.human_score, self.sentence_scores
        if not math.isfinite(human):
            raise ValueError(f"{self.name}: field human_score must be finite, got {human!r}")
        expected = self.score_type.aggregate(scores)
        if math.isclose(human, expected, rel_tol=1e-9, abs_tol=1e-9):
            return
        if not all(map(math.isfinite, scores)):
            raise ValueError(f"{self.name}: field sentence_scores must be finite, "
                             f"got {list(scores)!r}")
        raise ValueError(f"{self.name}: human_score {human!r} does not aggregate its "
                         f"sentence_scores (expected {expected!r})")

    @property
    def item_key(self) -> ItemKey:
        return (self.doc_id, self.start_index, self.k)

    def sort_key(self) -> tuple:
        return (self.dataset_id, self.lang_pair, self.system_id,
                self.doc_id, self.start_index, self.k)

    @property
    def name(self) -> str:  # as every error names the paragraph
        return "paragraph " + PARAGRAPH_KEY.format(*self.sort_key())


@dataclass(frozen=True, slots=True)
class ScoreTable:
    """Metric scores for one evaluation unit, keyed by (system, item)."""

    metric_name: str
    entries: Mapping[Tuple[str, ItemKey], float]

    def __post_init__(self) -> None:
        for key, score in self.entries.items():
            if not math.isfinite(score):
                raise ValueError(f"non-finite score for {key}: {score!r}")


@dataclass(frozen=True, slots=True)
class SystemEntry:
    """Human (and optionally metric) score of one system on one item."""

    human_score: float
    metric_score: Optional[float] = None


@dataclass(frozen=True, slots=True)
class EvalItem:
    """All competing systems' paragraphs for one (doc, start, k) slot."""

    item_key: ItemKey
    per_system: Mapping[str, SystemEntry]


@dataclass(frozen=True, slots=True)
class TauCalibration:
    """Tie-introduction threshold chosen by the calibration sweep."""

    epsilon: float
    accuracy_at_epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True, slots=True)
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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of validating a rating collection."""

    errors: Tuple[str, ...] = field(default=())
    warnings: Tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.errors


def _scaled(values: Sequence[float]) -> tuple[list[float], int]:
    """The values times 2**-e, e the ``frexp`` exponent of the largest magnitude."""
    exponent = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -exponent) for v in values], exponent


def _exact_sum(values: Sequence[float]) -> float:
    """The exact sum of finite values rounded once, inf or -inf past the float
    range; with a term that is not finite, the list-order sum, not finite either."""
    if not all(map(math.isfinite, values)):
        return reduce(add, values, 0.0)
    exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def validate_ratings(records: Iterable[RatingRecord]) -> ValidationReport:
    """Check a rating collection against its invariants.

    Reports every duplicate (dataset, lang_pair, system, doc, sent_index)
    key, every non-finite score, and any mix of score types, each with the
    offending record's coordinates. Unrated positions inside a document
    (no paragraph spans one) are reported as warnings. The report is
    identical for any permutation of the input.
    """
    records = list(records)
    errors: list[str] = []
    warnings: list[str] = []

    key_counts = Counter(r.key for r in records)
    for key, count in key_counts.items():
        if count > 1:
            errors.append(f"duplicate rating key: {RATING_KEY.format(*key)} ({count} records)")

    for record in records:
        if not math.isfinite(record.score):
            errors.append(f"non-finite score at {RATING_KEY.format(*record.key)}: "
                          f"{record.score!r}")

    type_counts = Counter(r.score_type for r in records)
    if len(type_counts) > 1:
        summary = ", ".join(f"{t.value}={type_counts[t]}"
                            for t in sorted(type_counts, key=lambda t: t.value))
        errors.append(f"mixed score types in one collection: {summary}")

    doc_indices: dict[tuple, set[int]] = defaultdict(set)
    for record in records:
        doc_indices[record.key[:4]].add(record.sent_index)
    for doc_key, indices in doc_indices.items():
        ordered = sorted(indices)  # walked gap by gap to 11 unrated positions
        missing = list(islice((i for a, b in zip([-1, *ordered], ordered)
                               for i in range(a + 1, b)), 11))
        if missing:
            shown = ",".join(map(str, missing[:10])) + (",..." if len(missing) > 10 else "")
            warnings.append(f"unrated positions in {DOC_KEY.format(*doc_key)}: {shown}")

    return ValidationReport(errors=tuple(sorted(errors)),
                            warnings=tuple(sorted(warnings)))
