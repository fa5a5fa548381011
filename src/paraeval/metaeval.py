"""Agreement statistics between metric scores and human ratings.

Two granularities are supported. System-level accuracy compares
per-system mean scores over all unordered system pairs, excluding pairs
whose human means are exactly tied (a metric difference of exactly zero
on a non-tied pair counts as a disagreement). Segment-level accuracy
groups comparisons by item: within each item every unordered system
pair is classified as a tie or an ordering on both sides, pair-level
agreement is averaged per item, and the item accuracies are averaged
unweighted.

A human tie is exact floating-point equality. On the metric side, a
pair is predicted tied when the absolute score difference is at most
``epsilon``; ``tau_optimize`` sweeps all thresholds that can change a
prediction and returns the smallest one maximizing segment accuracy.

Every pairwise statistic is a view of one ``PairTable``, the score
differences of every within-item pair, built once per unit. An item with
P pairs weighs L / P in an integer numerator over n_items * L (L the lcm
of the items' pair counts), and one correctly rounded division gives the
float, so equal ratios compare equal and positive rescaling of scores
cannot perturb them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .model import EvalItem, ItemKey, ScoreTable, SystemEntry, TauCalibration

# Sentinel for tie_rates: score the human side of the items.
HUMAN = "human"
# Sentinel for tie_rates: score the attached metric side of the items.
METRIC = "metric"


def attach_metric_scores(items: Iterable[EvalItem],
                         table: ScoreTable) -> list[EvalItem]:
    """Fill in each system entry's metric score from a score table.

    Every (system, item) present in the items must be covered by the
    table; entries the table has beyond the items are ignored.
    """
    attached = []
    for item in items:
        per_system = {}
        for system, entry in item.per_system.items():
            score = table.entries.get((system, item.item_key))
            if score is None:
                raise ValueError(
                    f"score table {table.metric_name!r} has no entry for "
                    f"system {system!r} on item {item.item_key}")
            per_system[system] = SystemEntry(human_score=entry.human_score,
                                             metric_score=score)
        attached.append(EvalItem(item_key=item.item_key, per_system=per_system))
    return attached


def system_scores(entries: Mapping[tuple[str, ItemKey], float]) -> dict[str, float]:
    """Per-system arithmetic mean of (system, item) -> score entries."""
    if not entries:
        raise ValueError("empty score table")
    totals: dict[str, list[float]] = {}
    for (system, _), score in entries.items():
        totals.setdefault(system, []).append(score)
    return {system: math.fsum(scores) / len(scores)
            for system, scores in sorted(totals.items())}


def system_pairwise_accuracy(metric_sys: Mapping[str, float],
                             human_sys: Mapping[str, float]) -> float:
    """Fraction of non-human-tied system pairs ordered the same way.

    Pairs with exactly equal human scores are excluded; a metric
    difference of exactly zero on a counted pair is a disagreement.
    """
    if set(metric_sys) != set(human_sys):
        raise ValueError(f"system key sets differ: "
                         f"{sorted(set(metric_sys) ^ set(human_sys))}")
    systems = sorted(metric_sys)
    if len(systems) < 2:
        raise ValueError(f"need at least 2 systems, got {len(systems)}")
    table = PairTable.from_blocks([(np.array([[human_sys[s] for s in systems]]),
                                    np.array([[metric_sys[s] for s in systems]]))])
    counted = table.human != 0
    if not counted.any():
        raise ValueError("all system pairs are human-tied; accuracy undefined")
    agreeing = counted & (table.human == np.sign(table.metric))
    return int(np.count_nonzero(agreeing)) / int(np.count_nonzero(counted))


@dataclass(frozen=True)
class PairTable:
    """Every within-item system pair of one unit, as flat arrays."""

    human: np.ndarray  # sign of each pair's human score difference
    metric: np.ndarray  # each pair's metric score difference
    # L / P for a pair of an item with P pairs. Partial sums of weights lie
    # within +-denominator, so int64 serves unless that needs more bits.
    weight: np.ndarray
    denominator: int  # n_items * L, L the lcm of the items' pair counts

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[np.ndarray, ...]]) -> PairTable:
        """Build from (human, metric) score matrices of shape (items, systems)."""
        humans, metrics, shapes = [np.empty(0)], [np.empty(0)], []
        for human, metric in blocks:
            first, second = np.triu_indices(human.shape[1], 1)
            humans.append(np.sign(human[:, first] - human[:, second]).ravel())
            metrics.append((metric[:, first] - metric[:, second]).ravel())
            shapes.append((human.shape[0], len(first)))
        common = math.lcm(*(pairs for _, pairs in shapes))
        denominator = sum(n for n, _ in shapes) * common
        weights = np.array([common // pairs for _, pairs in shapes],
                           dtype=np.int64 if denominator < 2 ** 63 else object)
        return cls(human=np.concatenate(humans), metric=np.concatenate(metrics),
                   weight=np.repeat(weights, [n * pairs for n, pairs in shapes]),
                   denominator=denominator)


def _table(items: Iterable[EvalItem],
           systems_of: Callable[[EvalItem], list[str]]) -> PairTable:
    rows: dict[int, tuple[list, list]] = {}
    for item in items:
        systems = systems_of(item)
        if len(systems) >= 2:
            entries = [item.per_system[s] for s in systems]
            human, metric = rows.setdefault(len(systems), ([], []))
            human.append([e.human_score for e in entries])
            metric.append([e.metric_score for e in entries])
    return PairTable.from_blocks((np.array(human, dtype=float),
                                  np.array(metric, dtype=float))
                                 for human, metric in rows.values())


def pair_table(items: Iterable[EvalItem]) -> PairTable:
    """Pairs of metric-scored systems; items with fewer than 2 are dropped."""
    table = _table(items, EvalItem.scored_systems)
    if not table.denominator:
        raise ValueError("no item has 2 or more systems with metric scores")
    return table


Items = Union[Iterable[EvalItem], PairTable]


def segment_accuracy(items: Items, epsilon: float) -> float:
    """Tie-aware pairwise accuracy, averaged unweighted across items.

    Within each item, a pair's predicted relation is a tie when the
    absolute metric difference is <= epsilon and the sign otherwise;
    the human relation is a tie only on exact equality. Items with
    fewer than two metric-scored systems are dropped. ``items`` may also
    be a ``pair_table`` built from them.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    table = items if isinstance(items, PairTable) else pair_table(items)
    correct = np.where(np.abs(table.metric) <= epsilon, table.human == 0,
                       table.human == np.sign(table.metric))
    return int(table.weight[correct].sum()) / table.denominator


def tau_optimize(items: Items) -> TauCalibration:
    """Smallest epsilon maximizing tie-aware segment accuracy.

    Accuracy changes only at observed within-item absolute metric
    differences. The pairs whose correctness flips when predicted tied
    are sorted by that difference and their signed weights summed; the
    first maximum at the end of a run of equal differences wins if it
    beats epsilon 0, so ties in accuracy resolve to the smallest epsilon.
    """
    table = items if isinstance(items, PairTable) else pair_table(items)
    sign_correct = table.human == np.sign(table.metric)
    flips = np.flatnonzero((table.human == 0) != sign_correct)
    epsilon, gain = 0.0, 0
    if len(flips):
        delta = np.abs(table.metric[flips])
        order = np.argsort(delta, kind="stable")
        flips, delta = flips[order], delta[order]
        weights = table.weight[flips]
        gains = np.cumsum(np.where(sign_correct[flips], -weights, weights))
        ends = np.flatnonzero(np.append(delta[1:] != delta[:-1], True))
        best = ends[np.argmax(gains[ends])]
        if gains[best] > 0:
            epsilon, gain = float(delta[best]), int(gains[best])
    accuracy = (int(table.weight[sign_correct].sum()) + gain) / table.denominator
    return TauCalibration(epsilon=epsilon, accuracy_at_epsilon=accuracy)


def pearson_no_grouping(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation over the flattened score pairs."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 points, got {len(xs)}")
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0 or var_y == 0:
        raise ValueError("correlation undefined: at least one side has zero variance")
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


def tie_rates(items: Items, source: str) -> float:
    """Fraction of within-item unordered pairs with exactly equal scores.

    ``source`` is HUMAN for the human scores (of every system of an item,
    or of a ``pair_table``'s pairs) or METRIC for the attached metric
    scores.
    """
    if source not in (HUMAN, METRIC):
        raise ValueError(f"unknown score source: {source!r}")
    if not isinstance(items, PairTable):
        items = _table(items, EvalItem.scored_systems if source == METRIC
                       else lambda item: sorted(item.per_system))
    tied = (items.human if source == HUMAN else items.metric) == 0
    if not tied.size:
        raise ValueError("no within-item system pairs")
    return int(np.count_nonzero(tied)) / tied.size


def mode_correlation(direct: ScoreTable, aligned: ScoreTable) -> float:
    """Pearson correlation between two score tables over shared keys."""
    missing = sorted(set(direct.entries) ^ set(aligned.entries))
    if missing:
        raise ValueError(f"score tables cover different (system, item) keys; "
                         f"mismatched: {missing[:5]}"
                         + ("..." if len(missing) > 5 else ""))
    keys = sorted(direct.entries)
    return pearson_no_grouping([direct.entries[k] for k in keys],
                               [aligned.entries[k] for k in keys])
