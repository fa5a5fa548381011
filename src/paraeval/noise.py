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
matrices itself, never building items: every item of a matrix has every
system, so every pair weighs the same and segment accuracy at epsilon 0 is
the share of pairs whose signs agree, the same int / int that the pairwise
core of ``metaeval`` computes. A test pins the two to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean, pstdev
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .model import SimConfig

if TYPE_CHECKING:
    import numpy as np

# The most bytes of float64 arrays that ``simulate`` may hold at once. Its peak is
# six arrays of n_items x n_systems x max_k values: quality, human, metric, the
# human prefix means, and the metric's cumulative sums and prefix means. Scoring
# holds two of them and a few arrays of at most n_items x n_systems values.
SIMULATE_MAX_BYTES = 2 ** 30


@dataclass(frozen=True)
class NoiseCurvePoint:
    """Accuracy of the simulated metric at one window size."""

    k: int
    mean_accuracy: float
    std_accuracy: float
    per_seed: Tuple[float, ...]


def simulate(config: SimConfig) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Simulate paragraph scores for every k in 1..max_k.

    Returns a mapping from window size to the (human, metric) score
    matrices, each with one row per item and one column per system. A config
    whose arrays would pass ``SIMULATE_MAX_BYTES`` is an error, before any draw,
    and so is one whose scores or their sums overflow float64.
    """
    needed = 6 * 8 * config.n_items * config.n_systems * config.max_k
    if needed > SIMULATE_MAX_BYTES:
        raise ValueError(f"simulate would hold {needed} bytes of arrays at once for "
                         f"n_items={config.n_items} n_systems={config.n_systems} "
                         f"max_k={config.max_k}, above its limit of {SIMULATE_MAX_BYTES}")
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(config.seed))
    shape = (config.n_items, config.n_systems, config.max_k)
    system_means = rng.normal(0.0, config.system_mean_spread, config.n_systems)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        quality = system_means[None, :, None] + rng.normal(0.0, config.sigma_quality,
                                                           shape)
        human = quality + rng.normal(0.0, config.sigma_human, shape)
        metric = quality + rng.normal(0.0, config.sigma_metric, shape)
        # Prefix means over sentences: cumulative left-to-right sums keep the
        # accumulation order fixed regardless of which ks are consumed later.
        denominators = np.arange(1, config.max_k + 1, dtype=np.float64)
        human_means = np.cumsum(human, axis=2) / denominators
        metric_means = np.cumsum(metric, axis=2) / denominators
    # A value or a sum that is not finite leaves every later prefix sum so.
    if not all(np.isfinite(means[:, :, -1]).all() for means in (human_means, metric_means)):
        raise ValueError("simulated scores overflow float64; lower sigma_quality, "
                         "sigma_human, sigma_metric or system_mean_spread")
    return {k: (human_means[:, :, k - 1], metric_means[:, :, k - 1])
            for k in range(1, config.max_k + 1)}


def _agreement(human: np.ndarray, metric: np.ndarray) -> float:
    """Share of within-row column pairs whose two differences agree in sign.
    Each column is compared with the later ones at a time, so no array is
    larger than the matrices. A difference past float64 is an infinity of its sign."""
    import numpy as np
    n_items, n = human.shape
    with np.errstate(over="ignore"):
        agree = sum(int(np.count_nonzero(np.sign(human[:, a, None] - human[:, a + 1:])
                                         == np.sign(metric[:, a, None] - metric[:, a + 1:])))
                    for a in range(n - 1))
    return agree / (n_items * n * (n - 1) // 2)


def noise_curve(config: SimConfig, ks: Sequence[int],
                n_seeds: int) -> List[NoiseCurvePoint]:
    """Mean and spread of segment accuracy per window size across seeds.

    Seed i of the run uses config.seed + i (mod 2**64); each seed's
    matrices share their sentence draws across all window sizes, so the
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
        matrices = simulate(seeded)
        for k in ks:
            accuracies[k].append(_agreement(*matrices[k]))
        del matrices  # before the next seed's arrays are made
    return [NoiseCurvePoint(k=k,
                            mean_accuracy=fmean(accuracies[k]),
                            std_accuracy=pstdev(accuracies[k]),
                            per_seed=tuple(accuracies[k]))
            for k in sorted(set(ks))]
