"""Sliding-window construction of paragraph instances from sentence ratings.

For every (dataset, lang_pair, system, doc) group, ``rater_runs`` reads the
ratings in sent_index order as runs of consecutive positions rated by one
rater (an unrated position or a change of rater ends a run), and ``windows``
cuts each run into paragraphs of k sentences from its start; a remainder
shorter than k is dropped. This equals the greedy slide that
``tests/oracles.py`` keeps as the reference. ``build_paragraphs`` takes these
two steps for one k; ``build-paragraphs`` finds the runs once per command and
cuts every k from them. ``window_score`` aggregates a window's sentence
scores by ``ScoreType.aggregate``; the paragraph checks its own scores.
``group_items`` checks one unit's rules and groups its paragraphs by item;
the CLI's units, the BLEU scorers and ``build_eval_items`` read it.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .model import (
    PARAGRAPH_KEY,
    EvalItem,
    ParagraphInstance,
    RatingRecord,
    SystemEntry,
)


def sum_counts(counts: list[Optional[int]]) -> Optional[int]:
    """A window's token count: the sum, or None if any sentence has none."""
    if any(c is None for c in counts):
        return None
    return sum(counts)


def rater_runs(records: Iterable[RatingRecord]) -> list[list[RatingRecord]]:
    """The runs of one rater's consecutive sentences, in (dataset, lang_pair,
    system, doc, sent_index) order.

    Each (dataset, lang_pair, system, doc) group is read in sent_index order;
    an unrated position or a change of rater ends a run. A sent_index that
    occurs twice in one group is an error.
    """
    groups: dict[tuple, dict[int, RatingRecord]] = defaultdict(dict)
    for record in records:
        by_index = groups[record.key[:4]]
        if record.sent_index in by_index:
            raise ValueError(f"{record.name}: duplicate sent_index; validate the collection")
        by_index[record.sent_index] = record

    runs = []
    for group_key in sorted(groups):
        run: list[RatingRecord] = []
        for i, record in sorted(groups[group_key].items()):
            if run and (run[-1].sent_index != i - 1
                        or run[-1].rater_id != record.rater_id):
                runs.append(run)
                run = []
            run.append(record)
        runs.append(run)
    return runs


def windows(runs: Iterable[list[RatingRecord]], k: int) -> Iterator[list[RatingRecord]]:
    """Each run cut into windows of k sentences from its start, in run order:
    ``run[a:a + k]`` for a = 0, k, 2k, ... while a + k <= len(run)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (run[a:a + k] for run in runs for a in range(0, len(run) - k + 1, k))


def window_score(window: Sequence[RatingRecord]) -> float:
    """The window's human_score; a score that aggregates to a non-finite value
    (as any non-finite sentence score does) is an error naming the window."""
    first = window[0]
    human_score = first.score_type.aggregate([r.score for r in window])
    if not math.isfinite(human_score):
        raise ValueError(f"window {PARAGRAPH_KEY.format(*first.key, len(window))}: "
                         f"human_score aggregates to non-finite {human_score!r}")
    return human_score


def build_paragraphs(records: Iterable[RatingRecord], k: int) -> list[ParagraphInstance]:
    """Cut each run of one rater's consecutive sentences into paragraphs of k.

    Args:
        records: a validated rating collection (one score type, unique keys).
        k: sentences per paragraph, >= 1.

    Returns:
        The ``windows`` of ``rater_runs(records)`` as paragraphs, in (dataset,
        lang_pair, system, doc, start) order: the windows that the greedy slide
        of ``tests/oracles.py`` emits. A run's remainder shorter than k
        contributes nothing. Sentence texts are joined with a single space. A
        window whose scores aggregate to a non-finite human_score is an error.
    """
    paragraphs = []
    for window in windows(rater_runs(records), k):
        first = window[0]
        human_score = window_score(window)
        paragraphs.append(ParagraphInstance(
            dataset_id=first.dataset_id,
            lang_pair=first.lang_pair,
            system_id=first.system_id,
            doc_id=first.doc_id,
            start_index=first.sent_index,
            k=k,
            score_type=first.score_type,
            rater_id=first.rater_id,
            human_score=human_score,
            sentence_scores=tuple(r.score for r in window),
            source_text=" ".join(r.source_text for r in window),
            reference_text=" ".join(r.reference_text for r in window),
            hypothesis_text=" ".join(r.hypothesis_text for r in window),
            token_count_ref=sum_counts([r.token_count_ref for r in window]),
            token_count_hyp=sum_counts([r.token_count_hyp for r in window]),
        ))
    return paragraphs


def group_items(paragraphs: Iterable[ParagraphInstance]) -> list[list[ParagraphInstance]]:
    """One unit's paragraphs grouped by item, in (doc, start, system) order.

    The paragraphs must form one (dataset, lang_pair, k) unit of one score type
    (MQM sums and DA z-scores do not compare), at most one paragraph per (system, item).
    """
    units, items = set(), {}
    for p in paragraphs:
        units.add((p.dataset_id, p.lang_pair, p.k, p.score_type))
        items.setdefault((p.doc_id, p.start_index), []).append(p)
    if len({unit[:3] for unit in units}) > 1:
        raise ValueError(f"paragraphs span multiple (dataset, lang_pair, k) "
                         f"units: {sorted({unit[:3] for unit in units})}")
    if len(units) > 1:
        types = Counter(p.score_type.value for item in items.values() for p in item)
        raise ValueError("mixed score types in one unit: "
                         + ", ".join(f"{t}={n}" for t, n in sorted(types.items())))
    grouped = [sorted(items[key], key=attrgetter("system_id")) for key in sorted(items)]
    for item in grouped:
        for before, p in zip(item, item[1:]):
            if before.system_id == p.system_id:
                raise ValueError(f"system {p.system_id} has two paragraphs for "
                                 f"item {p.item_key}")
    return grouped


def build_eval_items(paragraphs: Iterable[ParagraphInstance], k: int) -> list[EvalItem]:
    """The ``group_items`` items of one unit of the given k, as evaluation items.

    Items covered by fewer than two systems are dropped; the surviving items
    may have different system sets.
    """
    items = group_items(paragraphs)
    if items and items[0][0].k != k:
        p = items[0][0]
        raise ValueError(f"{p.name} has k={p.k}, expected {k}")
    return [EvalItem(item_key=item[0].item_key,
                     per_system={p.system_id: SystemEntry(human_score=p.human_score)
                                 for p in item})
            for item in items if len(item) >= 2]
