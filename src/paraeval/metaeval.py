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
unit, item by item, from ``build_eval_items`` and ``attach_metric_scores``;
no statistic depends on the pairs' order. An item with P pairs weighs L / P
in an integer numerator over n_items * L (L the lcm of the items' pair
counts). Both are Python ints, exact at any size, and one correctly rounded
division gives the float, so equal ratios compare equal and positive
rescaling of scores cannot perturb them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .model import EvalItem, ItemKey, ScoreTable, SystemEntry, TauCalibration, _scaled


def _metric_scores(table: ScoreTable, keys: list[tuple[str, ItemKey]]) -> list[float]:
    """The table's score of each (system, item) key; the first without one is named."""
    try:
        return [table.entries[key] for key in keys]
    except KeyError as missing:
        system, item = missing.args[0]
        raise ValueError(f"score table {table.metric_name!r} has no entry for "
                         f"system {system!r} on item {item}") from None


def attach_metric_scores(items: Iterable[EvalItem],
                         table: ScoreTable) -> list[EvalItem]:
    """Fill in each system entry's metric score from a score table.

    The table must cover every (system, item) of the items; ``_metric_scores``
    names the first it lacks, in item order. Other entries are ignored.
    """
    attached = []
    for item in items:
        scores = _metric_scores(table, [(system, item.item_key) for system in item.per_system])
        attached.append(EvalItem(item_key=item.item_key, per_system={
            system: SystemEntry(human_score=entry.human_score, metric_score=score)
            for (system, entry), score in zip(item.per_system.items(), scores)}))
    return attached


def system_scores(entries: Mapping[tuple[str, ItemKey], float]) -> dict[str, float]:
    """Per-system arithmetic mean of (system, item) -> score entries."""
    if not entries:
        raise ValueError("empty score table")
    totals: dict[str, list[float]] = {}
    for (system, _), score in entries.items():
        totals.setdefault(system, []).append(score)
    return {system: _mean(scores) for system, scores in sorted(totals.items())}


def _mean(values: Sequence[float]) -> float:
    """fsum / n, or where the sum overflows, that of the ``_scaled`` values
    scaled back, so finite values have a finite mean."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        scaled, exponent = _scaled(values)
        return math.ldexp(math.fsum(scaled) / len(values), exponent)


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
    signs = [((human_sys[a] > human_sys[b]) - (human_sys[a] < human_sys[b]),
              metric_sys[a] - metric_sys[b]) for a, b in combinations(systems, 2)]
    counted = [(h, d) for h, d in signs if h]
    if not counted:
        raise ValueError("all system pairs are human-tied; accuracy undefined")
    return sum(h == (d > 0) - (d < 0) for h, d in counted) / len(counted)


@dataclass(frozen=True)
class PairTable:
    """Every within-item system pair of one unit, as flat typed arrays and a list."""

    human: Sequence[int]  # array('b'): sign of each pair's human score difference
    metric: Sequence[float]  # array('d'): each pair's metric score difference
    weight: list[int]  # L / P for a pair of an item with P pairs, unbounded
    denominator: int  # n_items * L, L the lcm of the items' pair counts


def pair_table(items: Iterable[EvalItem]) -> PairTable:
    """Pairs of every system of every item; items with fewer than 2 are dropped.

    An item's pairs are its (i, j) systems with i < j in ``per_system`` order.
    A system without a metric score gives its pairs a NaN metric difference,
    which the metric statistics reject.
    """
    from array import array  # only the pairwise statistics load it
    human, metric, counts = array("b"), array("d"), []
    for item in items:
        if len(item.per_system) >= 2:
            entries = item.per_system.values()
            human.extend([(a > b) - (a < b) for a, b in
                          combinations([e.human_score for e in entries], 2)])
            metric.extend([a - b for a, b in combinations(
                [math.nan if e.metric_score is None else e.metric_score
                 for e in entries], 2)])
            counts.append(math.comb(len(entries), 2))
    common = math.lcm(*counts)
    weight = []
    for pairs in counts:
        weight += [common // pairs] * pairs
    return PairTable(human=human, metric=metric, weight=weight,
                     denominator=len(counts) * common)


def _scored(differences: Sequence[float]) -> Sequence[float]:
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
    differences. The signed weights of the pairs whose correctness flips
    when predicted tied are summed per distinct absolute difference and
    accumulated in its ascending order; the first maximum wins if it beats
    epsilon 0, so ties in accuracy resolve to the smallest epsilon.
    """
    metric = _scored(table.metric)
    accuracy, gains = 0, {}  # at epsilon 0; the flips' weight per |difference|
    for h, d, w in zip(table.human, metric, table.weight):
        correct = h == (d > 0) - (d < 0)
        accuracy += w if correct else 0
        if (h == 0) != correct:
            gains[abs(d)] = gains.get(abs(d), 0) + (-w if correct else w)
    epsilon, gain, running = 0.0, 0, 0
    for delta in sorted(gains):
        running += gains[delta]
        if running > gain:
            epsilon, gain = delta, running
    if not math.isfinite(epsilon):
        raise ValueError("the optimal epsilon is beyond the float range: "
                         "metric score differences overflow")
    accuracy += gain
    return TauCalibration(epsilon=epsilon,
                          accuracy_at_epsilon=accuracy / table.denominator)


def pearson_no_grouping(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation over the flattened score pairs."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 points, got {len(xs)}")
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("correlation undefined: at least one side has zero variance")
    try:
        dx, dy, var_x, var_y = _centred(xs, ys)
    except OverflowError:  # finite squares whose sum overflows
        var_x = var_y = math.inf
    if not all(sys.float_info.min <= v < math.inf
               for v in (var_x, var_y, var_x * var_y)):
        # A deviation, a square or a sum over- or underflows: redo the sums on
        # each side ``_scaled`` below 1, which leaves r unchanged.
        dx, dy, var_x, var_y = _centred(_scaled(xs)[0], _scaled(ys)[0])
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


def _centred(xs: Sequence[float], ys: Sequence[float]
             ) -> tuple[list[float], list[float], float, float]:
    """Both sides' deviations from their means, and their sums of squares."""
    mean_x, mean_y = _mean(xs), _mean(ys)
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    return dx, dy, math.fsum(d * d for d in dx), math.fsum(d * d for d in dy)


def tie_rates(differences: Sequence[float]) -> float:
    """Fraction of a table's pairs whose two scores are exactly equal.

    ``differences`` is one side of a ``PairTable``: ``human`` or ``metric``.
    """
    if not differences:
        raise ValueError("no within-item system pairs")
    return _scored(differences).count(0) / len(differences)


def mode_correlation(direct: ScoreTable, aligned: ScoreTable) -> float:
    """Pearson correlation between two score tables over shared keys, in any order."""
    missing = sorted(set(direct.entries) ^ set(aligned.entries))
    if missing:
        raise ValueError(f"score tables cover different (system, item) keys; "
                         f"mismatched: {missing[:5]}"
                         + ("..." if len(missing) > 5 else ""))
    return pearson_no_grouping(list(direct.entries.values()),
                               [aligned.entries[k] for k in direct.entries])
