"""Built-in BLEU scoring, paragraph scoring modes, and length statistics.

Tokenization for BLEU is the toolkit's canonical scheme: a space is
inserted around every Unicode punctuation character, then the text is
split on whitespace. It is documented and reproducible, but makes no
claim of parity with any particular reference tokenizer signature. The
padding is one ``str.translate`` through a table that classifies each
code point the first time some text contains it, so the table holds
only code points that have been seen (bounded by the alphabet of the
input, at most every code point once) and a process pays nothing for
scripts it never reads.

Orders for which the hypothesis has no n-grams at all are dropped from
the geometric mean in every mode. Sentence BLEU applies exponential
smoothing to the remaining zero precisions (each is replaced by
1 / (2^z * total_n), z counting the zero orders seen so far); corpus
and direct-mode scoring are unsmoothed, with any zero pooled precision
collapsing the score to 0.

The paragraph scorers visit one item (a window position in a document)
at a time and tokenize and count each distinct reference text of the item
once, since every system of an item usually shares one reference. Those
counts live in a dict local to the item, so the memory they take is
bounded by one item's references, not by the input.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter, defaultdict
from itertools import groupby, repeat
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from .model import ItemKey, ParagraphInstance, RatingRecord, ScoreTable

MAX_NGRAM_ORDER = 4

TokenCounter = Callable[[str], int]

# A text's token count and its n-gram Counters for orders 1..MAX_NGRAM_ORDER.
NgramCounts = Tuple[int, List[Counter]]


class _Padding(dict):
    """``str.translate`` table: punctuation padded with spaces, else itself."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        padded = f" {ch} " if unicodedata.category(ch).startswith("P") else ch
        self[code] = padded
        return padded


_PAD = _Padding()


def tokenize(text: str) -> list[str]:
    """Split on whitespace after padding Unicode punctuation with spaces."""
    return text.translate(_PAD).split()


def whitespace_token_count(text: str) -> int:
    """Default fallback counter: number of whitespace-separated tokens."""
    return len(text.split())


def char_token_count(text: str) -> int:
    """Alternative counter: number of characters."""
    return len(text)


def _count_ngrams(text: str) -> NgramCounts:
    tokens = tokenize(text)
    return len(tokens), [Counter(zip(*(tokens[i:] for i in range(n))))
                         for n in range(1, MAX_NGRAM_ORDER + 1)]


def _clip(hyp: NgramCounts, ref: NgramCounts) -> tuple[list[int], list[int]]:
    """Clipped match and total counts for n-gram orders 1..4."""
    hyp_len, hyp_ngrams = hyp
    correct = [sum(map(min, h.values(), map(r.get, h, repeat(0))))
               for h, r in zip(hyp_ngrams, ref[1])]
    total = [max(hyp_len - n, 0) for n in range(MAX_NGRAM_ORDER)]
    return correct, total


def _bleu_from_counts(correct: Sequence[int], total: Sequence[int],
                      hyp_len: int, ref_len: int, smooth: bool) -> float:
    if hyp_len == 0:
        return 0.0
    # Orders the hypothesis is too short to produce are dropped from the
    # geometric mean in both modes; at least order 1 always remains.
    orders = [n for n in range(MAX_NGRAM_ORDER) if total[n] > 0]
    log_sum = 0.0
    if smooth:
        smooth_factor = 1.0
        for n in orders:
            if correct[n] == 0:
                smooth_factor *= 2.0
                precision = 1.0 / (smooth_factor * total[n])
            else:
                precision = correct[n] / total[n]
            log_sum += math.log(precision)
    else:
        if any(correct[n] == 0 for n in orders):
            return 0.0
        for n in orders:
            log_sum += math.log(correct[n] / total[n])
    log_sum /= len(orders)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum)


def _bleu(hyp: NgramCounts, ref: NgramCounts, smooth: bool) -> float:
    correct, total = _clip(hyp, ref)
    return _bleu_from_counts(correct, total, hyp[0], ref[0], smooth)


def bleu_sentence(hypothesis: str, reference: str) -> float:
    """Smoothed sentence-level BLEU in [0, 100]; 0 for an empty hypothesis."""
    return _bleu(_count_ngrams(hypothesis), _count_ngrams(reference), smooth=True)


def bleu_corpus(pairs: Iterable[Tuple[str, str]]) -> float:
    """Unsmoothed corpus BLEU over pooled clipped counts and lengths."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("corpus BLEU needs at least one (hypothesis, reference) pair")
    pooled_correct = [0] * MAX_NGRAM_ORDER
    pooled_total = [0] * MAX_NGRAM_ORDER
    hyp_len = 0
    ref_len = 0
    for hypothesis, reference in pairs:
        hyp = _count_ngrams(hypothesis)
        ref = _count_ngrams(reference)
        correct, total = _clip(hyp, ref)
        for n in range(MAX_NGRAM_ORDER):
            pooled_correct[n] += correct[n]
            pooled_total[n] += total[n]
        hyp_len += hyp[0]
        ref_len += ref[0]
    return _bleu_from_counts(pooled_correct, pooled_total, hyp_len, ref_len,
                             smooth=False)


class BleuMetric:
    """Built-in lexical overlap metric with sentence and direct variants.

    The paragraph scorers call ``count`` once per distinct text and score
    the counts with ``direct`` or ``sentence``; ``direct_score`` and
    ``sentence_score`` do the same for one (hypothesis, reference) pair.
    """

    name = "bleu"

    def count(self, text: str) -> NgramCounts:
        """Token count and n-gram counts of a text, reusable across pairs."""
        return _count_ngrams(text)

    def sentence(self, hyp: NgramCounts, ref: NgramCounts) -> float:
        """Smoothed sentence BLEU of counted texts."""
        return _bleu(hyp, ref, smooth=True)

    def direct(self, hyp: NgramCounts, ref: NgramCounts) -> float:
        """One long segment, counted the corpus way (no smoothing)."""
        return _bleu(hyp, ref, smooth=False)

    def sentence_score(self, hypothesis: str, reference: str) -> float:
        return bleu_sentence(hypothesis, reference)

    def direct_score(self, hypothesis: str, reference: str) -> float:
        return self.direct(self.count(hypothesis), self.count(reference))


BUILTIN_METRICS = {BleuMetric.name: BleuMetric()}


def _check_unit(paragraphs: list[ParagraphInstance]) -> int:
    if not paragraphs:
        raise ValueError("no paragraphs to score")
    units = {(p.dataset_id, p.lang_pair, p.k) for p in paragraphs}
    if len(units) > 1:
        raise ValueError(f"paragraphs span multiple (dataset, lang_pair, k) "
                         f"units: {sorted(units)}")
    return paragraphs[0].k


def _items(paragraphs: list[ParagraphInstance]) -> Iterator[Iterator[ParagraphInstance]]:
    """One unit's paragraphs grouped by item, in (doc_id, start_index, system_id) order."""
    ordered = sorted(paragraphs, key=lambda p: (p.doc_id, p.start_index, p.system_id))
    return (item for _, item in groupby(ordered, key=lambda p: (p.doc_id, p.start_index)))


class _Counted(dict):
    """Text -> the metric's counts of it, each text counted on first use."""

    def __init__(self, metric):
        super().__init__()
        self.metric = metric

    def __missing__(self, text: str) -> NgramCounts:
        counts = self[text] = self.metric.count(text)
        return counts


def score_direct(metric, paragraphs: Iterable[ParagraphInstance]) -> ScoreTable:
    """Score each paragraph as one long segment."""
    paragraphs = list(paragraphs)
    k = _check_unit(paragraphs)
    entries: dict[tuple[str, ItemKey], float] = {}
    for item in _items(paragraphs):
        references = _Counted(metric)
        for p in item:
            key = (p.system_id, p.item_key)
            if key in entries:
                raise ValueError(f"duplicate paragraph for {key}")
            entries[key] = metric.direct(metric.count(p.hypothesis_text),
                                         references[p.reference_text])
    return ScoreTable(metric_name=metric.name, k=k, entries=dict(sorted(entries.items())))


def score_aligned_avg(metric, paragraphs: Iterable[ParagraphInstance],
                      records: Iterable[RatingRecord]) -> ScoreTable:
    """Score each paragraph as the mean of its k aligned sentence scores.

    The k (hypothesis, reference) sentence pairs are reconstructed from
    the rating records the paragraph was built from, so this mode is only
    available for built-in metrics; externally scored metrics have no
    sentence alignment to average over.
    """
    if not hasattr(metric, "sentence"):
        raise ValueError(f"aligned-average mode is unsupported for "
                         f"{getattr(metric, 'name', metric)!r}: no sentence-level "
                         f"scores are available")
    paragraphs = list(paragraphs)
    k = _check_unit(paragraphs)
    by_key = {r.key: r for r in records}
    entries: dict[tuple[str, ItemKey], float] = {}
    for item in _items(paragraphs):
        references = _Counted(metric)
        for p in item:
            sentence_scores = []
            for i in range(p.start_index, p.start_index + p.k):
                record = by_key.get((p.dataset_id, p.lang_pair, p.system_id, p.doc_id, i))
                if record is None:
                    raise ValueError(f"missing rating record for sentence {i} of "
                                     f"paragraph {p.sort_key()}")
                sentence_scores.append(metric.sentence(
                    metric.count(record.hypothesis_text),
                    references[record.reference_text]))
            key = (p.system_id, p.item_key)
            if key in entries:
                raise ValueError(f"duplicate paragraph for {key}")
            entries[key] = math.fsum(sentence_scores) / len(sentence_scores)
    return ScoreTable(metric_name=metric.name, k=k, entries=dict(sorted(entries.items())))


def _hyp_count(p: ParagraphInstance, counter: TokenCounter) -> int:
    return p.token_count_hyp if p.token_count_hyp is not None \
        else counter(p.hypothesis_text)


def _ref_count(p: ParagraphInstance, counter: TokenCounter) -> int:
    return p.token_count_ref if p.token_count_ref is not None \
        else counter(p.reference_text)


def nearest_rank_percentile(values: Sequence[int], percentile: float) -> int:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value."""
    if not values:
        raise ValueError("no values")
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def length_percentiles(paragraphs: Iterable[ParagraphInstance],
                       counter: TokenCounter,
                       percentiles: Sequence[float]) -> dict[int, dict[float, int]]:
    """Hypothesis token-length percentiles per k (nearest-rank method).

    Precomputed token counts on the paragraphs take precedence over the
    fallback counter.
    """
    for p_value in percentiles:
        if not 0 < p_value < 100:
            raise ValueError(f"percentile must be in (0, 100), got {p_value}")
    by_k: dict[int, list[int]] = defaultdict(list)
    for p in paragraphs:
        by_k[p.k].append(_hyp_count(p, counter))
    return {k: {p_value: nearest_rank_percentile(counts, p_value)
                for p_value in percentiles}
            for k, counts in sorted(by_k.items())}


def truncation_stats(paragraphs: Iterable[ParagraphInstance],
                     counter: TokenCounter,
                     budget: int) -> dict[int, tuple[int, float]]:
    """Count paragraphs whose reference + hypothesis tokens exceed budget.

    Returns, per k, the count and the fraction of that k's paragraphs.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    over: dict[int, int] = defaultdict(int)
    totals: dict[int, int] = defaultdict(int)
    for p in paragraphs:
        totals[p.k] += 1
        if _ref_count(p, counter) + _hyp_count(p, counter) > budget:
            over[p.k] += 1
    return {k: (over[k], over[k] / totals[k]) for k in sorted(totals)}
