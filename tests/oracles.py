"""Independent reference implementations used to check the library.

Everything here trades speed for obviousness: plain list scans, explicit
pair enumeration, product-form BLEU, and exact rational arithmetic where
the library promises exactness. None of it shares code with the package.
"""

import unicodedata
from fractions import Fraction
from itertools import combinations

MAX_ORDER = 4


# --- sliding-window construction -------------------------------------------

def window_starts(rated, raters, k):
    """Greedy left-to-right scan over one document's positions.

    rated[j] says whether position j carries a rating; raters[j] is the
    rater at position j (only meaningful where rated). Returns the start
    indices of emitted windows.
    """
    starts = []
    i = 0
    while i + k <= len(rated):
        positions = range(i, i + k)
        if (all(rated[j] for j in positions)
                and len({raters[j] for j in positions}) == 1):
            starts.append(i)
            i += k
        else:
            i += 1
    return starts


def run_window_count(rated, raters, k):
    """Closed form: sum of floor(run_length / k) over maximal same-rater runs."""
    total = 0
    run = 0
    prev_rater = None
    for j in range(len(rated) + 1):
        inside = j < len(rated) and rated[j]
        if inside and (run == 0 or raters[j] == prev_rater):
            run += 1
            prev_rater = raters[j]
        else:
            total += run // k
            run = 1 if inside else 0
            prev_rater = raters[j] if inside else None
    return total


# --- BLEU -------------------------------------------------------------------

def tokenize(text):
    """Pad each Unicode punctuation character (category P*) with spaces,
    one character at a time, then split on whitespace."""
    parts = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            parts.append(f" {ch} ")
        else:
            parts.append(ch)
    return "".join(parts).split()


def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _clipped(hyp_tokens, ref_tokens, n):
    """Clipped match count by physically consuming reference n-grams."""
    pool = _ngrams(ref_tokens, n)
    matches = 0
    for gram in _ngrams(hyp_tokens, n):
        if gram in pool:
            pool.remove(gram)
            matches += 1
    return matches


def _brevity(hyp_len, ref_len):
    import math
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu_corpus(pairs):
    """Unsmoothed pooled BLEU in product form.

    Orders with no pooled hypothesis n-grams are dropped; any zero
    precision among the surviving orders collapses the score to 0.
    """
    correct = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in pairs:
        hyp_tokens = hyp.split()
        ref_tokens = ref.split()
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, MAX_ORDER + 1):
            correct[n - 1] += _clipped(hyp_tokens, ref_tokens, n)
            total[n - 1] += len(_ngrams(hyp_tokens, n))
    if hyp_len == 0:
        return 0.0
    alive = [(c, t) for c, t in zip(correct, total) if t > 0]
    if any(c == 0 for c, _ in alive):
        return 0.0
    product = 1.0
    for c, t in alive:
        product *= c / t
    return 100.0 * _brevity(hyp_len, ref_len) * product ** (1.0 / len(alive))


def bleu_sentence(hyp, ref):
    """Smoothed sentence BLEU in product form.

    Orders with no hypothesis n-grams are dropped from the geometric
    mean; a zero precision at a surviving order n becomes
    1 / (2^z * total_n) where z counts the zero orders seen so far.
    """
    hyp_tokens = hyp.split()
    ref_tokens = ref.split()
    if not hyp_tokens:
        return 0.0
    product = 1.0
    orders = 0
    zeros = 0
    for n in range(1, MAX_ORDER + 1):
        total = len(_ngrams(hyp_tokens, n))
        if total == 0:
            continue
        orders += 1
        matches = _clipped(hyp_tokens, ref_tokens, n)
        if matches == 0:
            zeros += 1
            product *= 1.0 / (2 ** zeros * total)
        else:
            product *= matches / total
    return (100.0 * _brevity(len(hyp_tokens), len(ref_tokens))
            * product ** (1.0 / orders))


# --- segment-level accuracy -------------------------------------------------

def _relation(a, b, epsilon):
    if abs(a - b) <= epsilon:
        return "tie"
    return "gt" if a > b else "lt"


def segment_accuracy_exact(items, epsilon):
    """Group-by-item tie-aware accuracy as an exact Fraction."""
    per_item = []
    for item in items:
        systems = sorted(s for s, e in item.per_system.items()
                         if e.metric_score is not None)
        if len(systems) < 2:
            continue
        good = 0
        count = 0
        for a, b in combinations(systems, 2):
            ea = item.per_system[a]
            eb = item.per_system[b]
            human = _relation(ea.human_score, eb.human_score, 0.0)
            predicted = _relation(ea.metric_score, eb.metric_score, epsilon)
            count += 1
            good += human == predicted
        per_item.append(Fraction(good, count))
    if not per_item:
        raise ValueError("no usable items")
    return sum(per_item, Fraction(0)) / len(per_item)


def tau_sweep_exact(items):
    """Brute-force tie-threshold sweep: re-evaluate every candidate.

    Returns (epsilon, accuracy as Fraction); ties in accuracy resolve to
    the smallest epsilon because candidates are visited in ascending
    order and only strict improvements are kept.
    """
    candidates = {0.0}
    for item in items:
        systems = sorted(s for s, e in item.per_system.items()
                         if e.metric_score is not None)
        for a, b in combinations(systems, 2):
            candidates.add(abs(item.per_system[a].metric_score
                               - item.per_system[b].metric_score))
    best_eps = None
    best_acc = None
    for eps in sorted(candidates):
        acc = segment_accuracy_exact(items, eps)
        if best_acc is None or acc > best_acc:
            best_eps, best_acc = eps, acc
    return best_eps, best_acc


def tie_rate_exact(items, side):
    """Share of within-item pairs with equal scores, as an exact Fraction.

    ``side`` is "human" (every system of an item) or "metric" (only the
    systems that carry a metric score).
    """
    tied = 0
    count = 0
    for item in items:
        scores = [getattr(e, f"{side}_score") for e in item.per_system.values()]
        for a, b in combinations([s for s in scores if s is not None], 2):
            count += 1
            tied += a == b
    if count == 0:
        raise ValueError("no pairs")
    return Fraction(tied, count)
