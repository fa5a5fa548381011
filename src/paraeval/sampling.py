"""Training-set export: uniform and k-stratified sampling of paragraphs.

Selections are drawn without replacement with a seeded PCG64 generator,
after canonically sorting the pool, so a given (pool, n, seed) always
yields the same paragraphs regardless of input order or platform.
Undersized strata fail hard; there is no silent replacement fallback.

``PCG64(seed).permutation(n)`` is numpy's ``Generator(PCG64(seed))
.permutation(n)`` in plain Python: SeedSequence seeding, the PCG64 XSL-RR
128/64 generator, 32-bit draws made from the halves of each 64-bit draw,
and a Fisher-Yates shuffle with masked rejection; ``tests/test_pcg64.py``
checks it against the installed numpy. A sample thus follows this fixed
algorithm, not the installed numpy, whose ``Generator`` streams may change
between versions (NEP 19), and the export never imports numpy.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Iterable, Sequence

from .model import ParagraphInstance

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    if isinstance(seed, bool):
        raise TypeError("seed must be an int, got bool")
    try:
        seed = operator.index(seed)  # an int, or a numpy integer
    except TypeError:
        raise TypeError(f"seed must be an int, got {type(seed).__name__}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The permutations of numpy's ``Generator(PCG64(seed))``. The seed is a
    non-negative int; None, which numpy fills from the OS, is refused."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_words(seed)
        self._state = 0
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._next64()
        self._state = (self._state + (w0 << 64 | w1)) & _MASK128
        self._next64()
        self._half = None  # the high half of the last 64-bit draw, not yet used

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rotation = state >> 122
        value = (state >> 64 ^ state) & _MASK64
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def _interval(self, bound: int) -> int:
        """A draw from 0..bound by masked rejection (numpy's random_interval)."""
        mask = (1 << bound.bit_length()) - 1
        draw = self._next32 if bound <= _MASK32 else self._next64
        value = draw() & mask
        while value > bound:
            value = draw() & mask
        return value

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return order


def _canonical(pool: Iterable[ParagraphInstance]) -> list[ParagraphInstance]:
    return sorted(pool, key=ParagraphInstance.sort_key)


def _draw(pool: list[ParagraphInstance], n: int, rng: PCG64) -> list[ParagraphInstance]:
    order = rng.permutation(len(pool))
    return [pool[i] for i in order[:n]]


def sample_uniform(pool: Iterable[ParagraphInstance], n: int,
                   seed: int) -> list[ParagraphInstance]:
    """Draw n distinct paragraphs uniformly at random, without replacement."""
    pool = _canonical(pool)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if n > len(pool):
        raise ValueError(f"sample size {n} exceeds pool size {len(pool)}")
    return _canonical(_draw(pool, n, PCG64(seed)))


def sample_stratified(pool: Iterable[ParagraphInstance], n: int,
                      ks: Sequence[int], seed: int) -> list[ParagraphInstance]:
    """Draw n paragraphs with an equal count for every k in ks.

    n must be divisible by len(ks), and each stratum must hold at least
    n / len(ks) paragraphs; paragraphs whose k is not listed are ignored.
    One generator draws every stratum's permutation in ascending k.
    """
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

    rng = PCG64(seed)
    selected: list[ParagraphInstance] = []
    for k in sorted(ks):
        stratum = strata.get(k, [])
        if len(stratum) < quota:
            raise ValueError(f"stratum k={k} holds {len(stratum)} paragraphs, "
                             f"need {quota}")
        selected.extend(_draw(stratum, quota, rng))
    return _canonical(selected)
