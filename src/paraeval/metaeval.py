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
differences of every within-item pair, which ``pair_table`` builds once per
unit from ``build_eval_items`` and then ``attach_metric_scores``. An item
with P pairs weighs L / P in an integer numerator over n_items * L (L the
lcm of the items' pair counts). Both are Python ints, exact at any size,
and one correctly rounded division gives the float, so equal ratios compare
equal and positive rescaling of scores cannot perturb them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Mapping, Sequence

from .model import EvalItem, ItemKey, ScoreTable, SystemEntry, TauCalibration


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
    table = PairTable.from_blocks([([[human_sys[s] for s in systems]],
                                    [[metric_sys[s] for s in systems]])])
    counted = [(h, d) for h, d in zip(table.human, table.metric) if h]
    if not counted:
        raise ValueError("all system pairs are human-tied; accuracy undefined")
    return sum(h == (d > 0) - (d < 0) for h, d in counted) / len(counted)


@dataclass(frozen=True)
class PairTable:
    """Every within-item system pair of one unit, as flat lists."""

    human: list[int]  # sign of each pair's human score difference
    metric: list[float]  # each pair's metric score difference
    weight: list[int]  # L / P for a pair of an item with P pairs
    denominator: int  # n_items * L, L the lcm of the items' pair counts

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[Sequence, Sequence]]) -> PairTable:
        """Build from (human rows, metric rows) blocks: one row of scores per
        item, every row of a block one score per system, in the same order.
        Each row's pairs are its (i, j) positions with i < j, in order."""
        human, metric, shapes = [], [], []
        for human_rows, metric_rows in blocks:
            for row in human_rows:
                human += [(a > b) - (a < b) for a, b in combinations(row, 2)]
            for row in metric_rows:
                metric += [a - b for a, b in combinations(row, 2)]
            shapes.append((len(human_rows), math.comb(len(human_rows[0]), 2)))
        common = math.lcm(*(pairs for _, pairs in shapes))
        weight = []
        for n, pairs in shapes:
            weight += [common // pairs] * (n * pairs)
        return cls(human=human, metric=metric, weight=weight,
                   denominator=sum(n for n, _ in shapes) * common)


def pair_table(items: Iterable[EvalItem]) -> PairTable:
    """Pairs of every system of every item; items with fewer than 2 are dropped.

    A system without a metric score gives its pairs a NaN metric
    difference, which the metric statistics reject.
    """
    rows: dict[int, tuple[list, list]] = {}
    for item in items:
        if len(item.per_system) >= 2:
            human, metric = rows.setdefault(len(item.per_system), ([], []))
            human.append([e.human_score for e in item.per_system.values()])
            metric.append([math.nan if e.metric_score is None else e.metric_score
                           for e in item.per_system.values()])
    return PairTable.from_blocks(rows.values())


def _scored(differences: list[float]) -> list[float]:
    """Metric differences that exist and all come from metric scores."""
    if not differences or any(map(math.isnan, differences)):
        raise ValueError("no item has 2 or more systems with metric scores")
    return differences


def segment_accuracy(table: PairTable, epsilon: float) -> float:
    """Tie-aware pairwise accuracy, averaged unweighted across items.

    Within each item, a pair's predicted relation is a tie when the
    absolute metric difference is <= epsilon and the sign otherwise;
    the human relation is a tie only on exact equality.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    metric = _scored(table.metric)
    return sum(w for h, d, w in zip(table.human, metric, table.weight)
               if h == (0 if abs(d) <= epsilon else (d > 0) - (d < 0))) / table.denominator


def tau_optimize(table: PairTable) -> TauCalibration:
    """Smallest epsilon maximizing tie-aware segment accuracy.

    Accuracy changes only at observed within-item absolute metric
    differences. The pairs whose correctness flips when predicted tied
    are sorted by that difference and their signed weights summed; the
    first maximum at the end of a run of equal differences wins if it
    beats epsilon 0, so ties in accuracy resolve to the smallest epsilon.
    """
    metric = _scored(table.metric)
    correct = [h == (d > 0) - (d < 0) for h, d in zip(table.human, metric)]
    flips = sorted((i for i, (h, c) in enumerate(zip(table.human, correct))
                    if (h == 0) != c), key=lambda i: abs(metric[i]))
    # NaN equals no difference, so the last flip ends a run.
    delta = [abs(metric[i]) for i in flips] + [math.nan]
    gains = accumulate(-table.weight[i] if correct[i] else table.weight[i]
                       for i in flips)
    epsilon, gain = 0.0, 0
    for j, running in enumerate(gains):
        if running > gain and delta[j] != delta[j + 1]:
            epsilon, gain = float(delta[j]), running
    if not math.isfinite(epsilon):
        raise ValueError("the optimal epsilon is beyond the float range: "
                         "metric score differences overflow")
    accuracy = sum(w for w, c in zip(table.weight, correct) if c) + gain
    return TauCalibration(epsilon=epsilon,
                          accuracy_at_epsilon=accuracy / table.denominator)


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
    if not 0 < var_x * var_y < math.inf:
        # The squares overflow or underflow: scale each side by the exact
        # power of two that brings its largest deviation below 1, which
        # leaves r unchanged.
        dx, dy = _scaled(dx), _scaled(dy)
        var_x = math.fsum(d * d for d in dx)
        var_y = math.fsum(d * d for d in dy)
    if var_x == 0 or var_y == 0:
        raise ValueError("correlation undefined: at least one side has zero variance")
    if math.isinf(var_x * var_y):
        raise ValueError("correlation undefined: score deviations overflow")
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


def _scaled(deviations: list[float]) -> list[float]:
    exponent = math.frexp(max(map(abs, deviations)))[1]
    return [math.ldexp(d, -exponent) for d in deviations]


def tie_rates(differences: list[float]) -> float:
    """Fraction of a table's pairs whose two scores are exactly equal.

    ``differences`` is one side of a ``PairTable``: ``human`` or ``metric``.
    """
    if not differences:
        raise ValueError("no within-item system pairs")
    return _scored(differences).count(0) / len(differences)


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
