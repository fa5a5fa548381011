"""Synthetic rater/metric noise model for aggregation experiments.

The generative story: each system s has a latent mean quality mu_s drawn
from N(0, system_mean_spread). Every (item, system, sentence) triple has
a true quality q = mu_s + N(0, sigma_quality); the human rating of that
sentence is q + N(0, sigma_human) and the metric score is
q + N(0, sigma_metric), with all noise terms independent. A paragraph of
window size k is scored, on both sides, as the mean of its first k
per-sentence values, so larger windows average away more of the
independent per-sentence noise while the shared quality signal remains.

All draws come from one PCG64 generator in a fixed order (system means,
quality noise, human noise, metric noise), making every output
bit-identical for a given config. ``noise_curve`` scores each k's score
matrices with the pairwise core of ``metaeval``, never building items.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from statistics import fmean, pstdev
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .metaeval import PairTable, segment_accuracy
from .model import EvalItem, SimConfig, SystemEntry


@dataclass(frozen=True)
class NoiseCurvePoint:
    """Accuracy of the simulated metric at one window size."""

    k: int
    mean_accuracy: float
    std_accuracy: float
    per_seed: Tuple[float, ...]


class SimulatedItems(Sequence[EvalItem]):
    """The items of one window size, built on first access from the
    (items, systems) human and metric score matrices."""

    def __init__(self, k: int, human: np.ndarray, metric: np.ndarray):
        self.k, self.human, self.metric = k, human, metric

    @cached_property
    def _items(self) -> List[EvalItem]:
        systems = [f"sys{s:02d}" for s in range(self.human.shape[1])]
        rows = zip(self.human.tolist(), self.metric.tolist())
        return [EvalItem(item_key=(f"item{i:04d}", 0, self.k), per_system={
                    system: SystemEntry(human_score=human, metric_score=metric)
                    for system, human, metric in zip(systems, humans, metrics)})
                for i, (humans, metrics) in enumerate(rows)]

    def __len__(self) -> int:
        return len(self.human)

    def __getitem__(self, index):
        return self._items[index]

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def simulate(config: SimConfig) -> Dict[int, SimulatedItems]:
    """Generate evaluation items for every k in 1..max_k.

    Returns a mapping from window size to items; each item holds every
    system's simulated human and metric paragraph scores.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    shape = (config.n_items, config.n_systems, config.max_k)
    system_means = rng.normal(0.0, config.system_mean_spread, config.n_systems)
    quality = system_means[None, :, None] + rng.normal(0.0, config.sigma_quality,
                                                       shape)
    human = quality + rng.normal(0.0, config.sigma_human, shape)
    metric = quality + rng.normal(0.0, config.sigma_metric, shape)
    # Prefix means over sentences: cumulative left-to-right sums keep the
    # accumulation order fixed regardless of which ks are consumed later.
    denominators = np.arange(1, config.max_k + 1, dtype=np.float64)
    human_means = np.cumsum(human, axis=2) / denominators
    metric_means = np.cumsum(metric, axis=2) / denominators
    return {k: SimulatedItems(k, human_means[:, :, k - 1], metric_means[:, :, k - 1])
            for k in range(1, config.max_k + 1)}


def noise_curve(config: SimConfig, ks: Sequence[int],
                n_seeds: int) -> List[NoiseCurvePoint]:
    """Mean and spread of segment accuracy per window size across seeds.

    Seed i of the run uses config.seed + i (mod 2**64); each seed's
    items share their sentence draws across all window sizes, so the
    per-seed accuracies are paired between ks.
    """
    ks = list(ks)
    if len(set(ks)) < 2:
        raise ValueError(f"need at least 2 distinct k values, got {ks}")
    if any(k < 1 or k > config.max_k for k in ks):
        raise ValueError(f"every k must lie in 1..{config.max_k}, got {ks}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    accuracies: Dict[int, List[float]] = {k: [] for k in ks}
    for i in range(n_seeds):
        seeded = replace(config, seed=(config.seed + i) % 2 ** 64)
        items_by_k = simulate(seeded)
        for k in ks:
            items = items_by_k[k]
            pairs = PairTable.from_blocks([(items.human, items.metric)])
            accuracies[k].append(segment_accuracy(pairs, epsilon=0.0))
    return [NoiseCurvePoint(k=k,
                            mean_accuracy=fmean(accuracies[k]),
                            std_accuracy=pstdev(accuracies[k]),
                            per_seed=tuple(accuracies[k]))
            for k in sorted(set(ks))]
