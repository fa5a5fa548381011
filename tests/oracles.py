"""Independent reference implementations used to check the library.

Everything here trades speed for obviousness: plain list scans, explicit
pair enumeration, product-form BLEU, and exact rational arithmetic where
the library promises exactness. None of it shares code with the package,
except that the record readers at the end build the package's own record
types and errors, so that their results can be compared directly.
"""

import json
import math
import unicodedata
from fractions import Fraction
from itertools import combinations

MAX_ORDER = 4


# --- the noise model's closed form ------------------------------------------

def expected_segment_accuracy(k, sigma_quality, sigma_human, sigma_metric, spread):
    """The expected epsilon-0 segment accuracy of ``noise.py``'s model at
    window k, over system means drawn with standard deviation ``spread``.

    One system pair's human and metric differences at window k are jointly
    normal with mean 0 and correlation rho_k = (s^2 + sq^2/k) /
    sqrt((s^2 + (sq^2 + sh^2)/k) (s^2 + (sq^2 + sm^2)/k)); ties have
    probability 0, so the signs agree with Sheppard's orthant probability
    1/2 + asin(rho_k)/pi.
    """
    s2, q2 = spread ** 2, sigma_quality ** 2
    rho = (s2 + q2 / k) / math.sqrt((s2 + (q2 + sigma_human ** 2) / k)
                                    * (s2 + (q2 + sigma_metric ** 2) / k))
    return 0.5 + math.asin(rho) / math.pi


# --- sliding-window construction -------------------------------------------

def paragraph_score(score_type, scores):
    """A window's human score from its sentence scores: for "MQM" their exact
    sum rounded once (inf or -inf past the float range), whatever their order;
    for "DA_Z" their float sum in list order, which must stay finite, over
    their number."""
    if score_type == "MQM":
        exact = sum(map(Fraction, scores))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf
    total = 0.0
    for score in scores:
        total += score
    return total / len(scores)


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


def mean_exact(values):
    """Arithmetic mean of floats as an exact Fraction."""
    return sum(map(Fraction, values), Fraction(0)) / len(values)


def system_mean(values):
    """The system mean the library documents: the exact sum rounded to a
    float, then divided by n and rounded once."""
    return float(Fraction(float(mean_exact(values) * len(values))) / len(values))


def system_accuracy_exact(metric_scores, human_scores):
    """System pairwise accuracy as an exact Fraction.

    Both arguments map each system to its list of scores. Pairs whose human
    means are equal are left out; a metric tie on a counted pair disagrees.
    """
    metric = {system: system_mean(values) for system, values in metric_scores.items()}
    human = {system: system_mean(values) for system, values in human_scores.items()}
    if len(human) < 2:
        raise ValueError("fewer than 2 systems")
    good = counted = 0
    for a, b in combinations(sorted(human), 2):
        if human[a] == human[b]:
            continue
        counted += 1
        good += metric[a] != metric[b] and (metric[a] > metric[b]) == (human[a] > human[b])
    if counted == 0:
        raise ValueError("all system pairs are human-tied")
    return Fraction(good, counted)


def pearson_sums_exact(xs, ys):
    """Pearson's covariance sum and the two variance sums, as exact Fractions."""
    mean_x, mean_y = mean_exact(xs), mean_exact(ys)
    dx = [Fraction(x) - mean_x for x in xs]
    dy = [Fraction(y) - mean_y for y in ys]
    return (sum((a * b for a, b in zip(dx, dy)), Fraction(0)),
            sum((d * d for d in dx), Fraction(0)), sum((d * d for d in dy), Fraction(0)))


# --- JSONL record readers ---------------------------------------------------
# The package's ratings and paragraphs readers as they were before their
# one-pass record check: each field goes through its own getter. They build
# the package's record types and raise its ParseError, so the readers can
# be compared record for record and message for message; paraeval is
# imported when they run, not when this module loads.

RATING_FIELDS = (
    "dataset_id", "lang_pair", "system_id", "doc_id", "sent_index",
    "rater_id", "score", "score_type", "source_text", "reference_text",
    "hypothesis_text", "token_count_ref", "token_count_hyp",
)
_RATING_REQUIRED = frozenset(RATING_FIELDS) - {"token_count_ref", "token_count_hyp"}

PARAGRAPH_FIELDS = (
    "dataset_id", "lang_pair", "system_id", "doc_id", "start_index", "k",
    "score_type", "rater_id", "human_score", "sentence_scores",
    "source_text", "reference_text", "hypothesis_text",
    "token_count_ref", "token_count_hyp",
)
_PARAGRAPH_REQUIRED = frozenset(PARAGRAPH_FIELDS) - {"token_count_ref", "token_count_hyp"}


def _parse_error(lineno, reason):
    from paraeval.fileio import ParseError
    return ParseError(lineno, reason)


def _check_fields(obj, required, known, lineno):
    for name in sorted(required):
        if name not in obj:
            raise _parse_error(lineno, f"missing field {name}")
    for name in sorted(obj):
        if name not in known:
            raise _parse_error(lineno, f"unknown field {name}")


def _get_str(obj, name, lineno):
    value = obj[name]
    if not isinstance(value, str):
        raise _parse_error(lineno, f"field {name} must be a string, got {value!r}")
    return value


def _get_int(obj, name, lineno):
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _parse_error(lineno, f"field {name} must be an integer, got {value!r}")
    return value


def _get_float(obj, name, lineno):
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _parse_error(lineno, f"field {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise _parse_error(lineno, f"field {name} is out of float range") from None


def _get_opt_count(obj, name, lineno):
    value = obj.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _parse_error(lineno, f"field {name} must be an integer or null, got {value!r}")
    return value


def _get_score_type(obj, lineno):
    from paraeval.model import ScoreType

    value = _get_str(obj, "score_type", lineno)
    try:
        return ScoreType(value)
    except ValueError:
        raise _parse_error(lineno, f"unknown score_type {value!r}") from None


def _parse_lines(stream):
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _parse_error(lineno, f"invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise _parse_error(lineno, "expected a JSON object")
        yield lineno, obj


def read_rating_lines(stream):
    """Parse a ratings stream without collection-level validation."""
    from paraeval.fileio import ParseError
    from paraeval.model import RatingRecord

    records = []
    for lineno, obj in _parse_lines(stream):
        _check_fields(obj, _RATING_REQUIRED, RATING_FIELDS, lineno)
        try:
            records.append(RatingRecord(
                dataset_id=_get_str(obj, "dataset_id", lineno),
                lang_pair=_get_str(obj, "lang_pair", lineno),
                system_id=_get_str(obj, "system_id", lineno),
                doc_id=_get_str(obj, "doc_id", lineno),
                sent_index=_get_int(obj, "sent_index", lineno),
                rater_id=_get_str(obj, "rater_id", lineno),
                score=_get_float(obj, "score", lineno),
                score_type=_get_score_type(obj, lineno),
                source_text=_get_str(obj, "source_text", lineno),
                reference_text=_get_str(obj, "reference_text", lineno),
                hypothesis_text=_get_str(obj, "hypothesis_text", lineno),
                token_count_ref=_get_opt_count(obj, "token_count_ref", lineno),
                token_count_hyp=_get_opt_count(obj, "token_count_hyp", lineno),
            ))
        except ParseError:  # a field getter's own report, already complete
            raise
        except ValueError as exc:  # the rating's own checks, which name it
            raise ParseError(lineno, str(exc)) from None
    return records


def read_paragraphs(stream):
    """Parse a paragraph stream, checking per-paragraph invariants."""
    from paraeval.fileio import ParseError
    from paraeval.model import ParagraphInstance

    paragraphs = []
    for lineno, obj in _parse_lines(stream):
        _check_fields(obj, _PARAGRAPH_REQUIRED, PARAGRAPH_FIELDS, lineno)
        scores = obj["sentence_scores"]
        if (not isinstance(scores, list)
                or any(isinstance(s, bool) or not isinstance(s, (int, float))
                       for s in scores)):
            raise ParseError(lineno, "field sentence_scores must be a list of numbers")
        key = (f"dataset={obj.get('dataset_id')} lang_pair={obj.get('lang_pair')} "
               f"system={obj.get('system_id')} doc={obj.get('doc_id')} "
               f"start_index={obj.get('start_index')} k={obj.get('k')}")
        try:
            paragraph = ParagraphInstance(
                dataset_id=_get_str(obj, "dataset_id", lineno),
                lang_pair=_get_str(obj, "lang_pair", lineno),
                system_id=_get_str(obj, "system_id", lineno),
                doc_id=_get_str(obj, "doc_id", lineno),
                start_index=_get_int(obj, "start_index", lineno),
                k=_get_int(obj, "k", lineno),
                score_type=_get_score_type(obj, lineno),
                rater_id=_get_str(obj, "rater_id", lineno),
                human_score=_get_float(obj, "human_score", lineno),
                sentence_scores=tuple(float(s) for s in scores),
                source_text=_get_str(obj, "source_text", lineno),
                reference_text=_get_str(obj, "reference_text", lineno),
                hypothesis_text=_get_str(obj, "hypothesis_text", lineno),
                token_count_ref=_get_opt_count(obj, "token_count_ref", lineno),
                token_count_hyp=_get_opt_count(obj, "token_count_hyp", lineno),
            )
        except OverflowError:  # an integer literal beyond the float range
            raise ParseError(lineno, "field sentence_scores is out of float range") from None
        except ParseError:  # a field getter's own report, already complete
            raise
        except ValueError as exc:  # the paragraph's own checks, which name it
            raise ParseError(lineno, str(exc)) from None
        # JSON's Infinity and NaN (and overflowing literals such as 1e400)
        # parse as floats; a non-finite score would read as a human tie.
        if not math.isfinite(paragraph.human_score):
            raise ParseError(lineno, f"paragraph {key}: field human_score must be "
                             f"finite, got {paragraph.human_score!r}")
        if not all(map(math.isfinite, paragraph.sentence_scores)):
            raise ParseError(lineno, f"paragraph {key}: field sentence_scores must be "
                             f"finite, got {list(paragraph.sentence_scores)!r}")
        expected = paragraph_score(paragraph.score_type.value, paragraph.sentence_scores)
        if not math.isclose(paragraph.human_score, expected,
                            rel_tol=1e-9, abs_tol=1e-9):
            raise ParseError(
                lineno, f"paragraph {key}: human_score "
                f"{paragraph.human_score!r} does not aggregate its "
                f"sentence_scores (expected {expected!r})")
        paragraphs.append(paragraph)
    return paragraphs
