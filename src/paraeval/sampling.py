"""Training-set export: uniform and k-stratified sampling of paragraphs.

Selections are drawn without replacement with a seeded PCG64 generator
(numpy's named, portable algorithm), after canonically sorting the pool,
so a given (pool, n, seed) always yields the same paragraphs regardless
of input order or platform. Undersized strata fail hard; there is no
silent replacement fallback.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import ParagraphInstance

if TYPE_CHECKING:
    import numpy as np


def _canonical(pool: Iterable[ParagraphInstance]) -> list[ParagraphInstance]:
    return sorted(pool, key=ParagraphInstance.sort_key)


def _draw(pool: list[ParagraphInstance], n: int,
          rng: np.random.Generator) -> list[ParagraphInstance]:
    order = rng.permutation(len(pool))
    return [pool[i] for i in order[:n]]


def sample_uniform(pool: Iterable[ParagraphInstance], n: int,
                   seed: int) -> list[ParagraphInstance]:
    """Draw n distinct paragraphs uniformly at random, without replacement."""
    import numpy as np
    pool = _canonical(pool)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if n > len(pool):
        raise ValueError(f"sample size {n} exceeds pool size {len(pool)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _canonical(_draw(pool, n, rng))


def sample_stratified(pool: Iterable[ParagraphInstance], n: int,
                      ks: Sequence[int], seed: int) -> list[ParagraphInstance]:
    """Draw n paragraphs with an equal count for every k in ks.

    n must be divisible by len(ks), and each stratum must hold at least
    n / len(ks) paragraphs; paragraphs whose k is not listed are ignored.
    """
    import numpy as np
    ks = list(ks)
    if not ks:
        raise ValueError("ks must be non-empty")
    if len(set(ks)) != len(ks):
        raise ValueError(f"ks contains duplicates: {ks}")
    if any(k < 1 for k in ks):
        raise ValueError(f"ks must be positive integers: {ks}")
    if n < 1 or n % len(ks) != 0:
        raise ValueError(f"sample size {n} is not divisible by the "
                         f"{len(ks)} strata")
    quota = n // len(ks)

    strata: dict[int, list[ParagraphInstance]] = defaultdict(list)
    for p in _canonical(pool):
        strata[p.k].append(p)

    rng = np.random.Generator(np.random.PCG64(seed))
    selected: list[ParagraphInstance] = []
    for k in sorted(ks):
        stratum = strata.get(k, [])
        if len(stratum) < quota:
            raise ValueError(f"stratum k={k} holds {len(stratum)} paragraphs, "
                             f"need {quota}")
        selected.extend(_draw(stratum, quota, rng))
    return _canonical(selected)
