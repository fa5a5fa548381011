"""Seeded synthetic WMT-style inputs for the paraeval benchmark.

The generator writes sentence-level rating files in paraeval's JSONL
format and a tab-separated external metric score file. Each file is drawn
from its own ``random.Random(seed)`` in a fixed order, so the same
shape and seed give byte-identical files.

Shape of a corpus (defaults reproduce the ROADMAP baseline):

- per lang pair: a number of documents and competing systems;
- 5-20 sentences per document, 10-40 tokens per sentence;
- about 5% of (system, document, position) slots unrated;
- 6 raters, one per (system, document), with a rare mid-document switch.

A reference sentence is shared by every system; each system's hypothesis
substitutes reference tokens at a system-specific error rate, so BLEU and
the human scores both track system quality. Words carry punctuation and
non-ASCII letters so that BLEU's tokenizer has real work to do.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "sch", "st", "tr", "ch", "ž", "ł", "ç", "ñ")
_VOWELS = ("a", "e", "i", "o", "u", "ä", "ö", "ü", "é", "è", "ø", "å", "y")
_CODAS = ("", "", "n", "r", "s", "t", "ß", "ng", "ck", "l")
# Unicode punctuation (category P*) that the BLEU tokenizer splits off.
_TRAILING = (",", ".", ";", ":", "!", "?", "…", "»", "“", ")")
_LEADING = ("«", "„", "(", "¿", "¡", "—")

RATING_FIELDS = (
    "dataset_id", "lang_pair", "system_id", "doc_id", "sent_index",
    "rater_id", "score", "score_type", "source_text", "reference_text",
    "hypothesis_text", "token_count_ref", "token_count_hyp",
)
SCORES_HEADER = ("metric", "lang_pair", "system", "doc_id", "start_index",
                 "k", "score")

# MQM error weights and how often each severity is marked.
_MQM_WEIGHTS = ((-1.0, 0.60), (-5.0, 0.28), (-0.1, 0.10), (-25.0, 0.02))
DATASET_ID = "synth"
# The synthetic external metric: its name, and the spread of its noise at k=1.
METRIC_NAME = "synthmetric"
METRIC_SIGMA = 4.0


@dataclass(frozen=True)
class CorpusShape:
    """Knobs of the synthetic ratings corpus.

    ``lang_pairs`` holds (lang_pair, documents, systems) triples.
    ``switch_rate`` is the chance that a (system, document) changes rater
    once, at a random position. Lang pairs named in ``gapless`` are rated
    in full by one rater per (system, document), so every system has every
    window and no evaluation unit is left without items.
    """

    score_type: str = "MQM"
    lang_pairs: tuple = (("en-de", 150, 15),)
    sentences: tuple = (5, 20)
    tokens: tuple = (10, 40)
    gap_rate: float = 0.05
    raters: int = 6
    switch_rate: float = 0.02
    gapless: tuple = ()

    def __post_init__(self) -> None:
        if self.score_type not in ("MQM", "DA_Z"):
            raise ValueError(f"score_type must be MQM or DA_Z, got {self.score_type!r}")


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words = set()
    while len(words) < size:
        syllables = rng.randint(1, 3)
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                          + rng.choice(_CODAS) for _ in range(syllables)))
    return sorted(words)


def _sentence(rng: random.Random, vocab: list[str], n_tokens: int) -> list[str]:
    tokens = []
    for _ in range(n_tokens):
        word = rng.choice(vocab)
        roll = rng.random()
        if roll < 0.08:
            word = rng.choice(_LEADING) + word
        elif roll < 0.22:
            word += rng.choice(_TRAILING)
        tokens.append(word)
    return tokens


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly spaced over [lo, hi], in seeded random order.

    Sizes drawn this way sum to the same total for every seed, so the
    work a corpus makes does not move with the seed.
    """
    values = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _mqm_score(rng: random.Random, errors: int) -> float:
    score = 0.0
    for _ in range(errors):
        if rng.random() < 0.15:  # raters mark only some substitutions
            roll = rng.random()
            for weight, share in _MQM_WEIGHTS:
                roll -= share
                if roll < 0:
                    break
            score += weight
    return score


def generate_ratings(shape: CorpusShape, seed: int):
    """Draw rating dicts and the rated/rater layout of every document.

    Returns ``(records, layout)``: records in file order, and a mapping
    from (lang_pair, system, doc) to ``(rated, raters)`` position lists
    that the window oracle consumes.
    """
    rng = random.Random(seed)
    target_vocab = _vocabulary(rng, 3000)
    source_vocab = _vocabulary(rng, 3000)
    raters = [f"rater{r}" for r in range(1, shape.raters + 1)]
    rater_bias = {r: rng.gauss(0.0, 0.3) for r in raters}
    records = []
    layout = {}
    for lang_pair, n_docs, n_systems in shape.lang_pairs:
        systems = [f"sys{s:02d}" for s in range(n_systems)]
        error_rate = {s: 0.05 + 0.4 * p / 100
                      for s, p in zip(systems, _spread(rng, 0, 100, n_systems))}
        gap_rate, switch_rate = ((0.0, 0.0) if lang_pair in shape.gapless
                                 else (shape.gap_rate, shape.switch_rate))
        doc_lengths = _spread(rng, *shape.sentences, n_docs)
        sentence_lengths = iter(_spread(rng, *shape.tokens, sum(doc_lengths)))
        for d, n_sents in enumerate(doc_lengths):
            doc_id = f"doc{d:04d}"
            refs, srcs, difficulty = [], [], []
            for _ in range(n_sents):
                n_tokens = next(sentence_lengths)
                refs.append(_sentence(rng, target_vocab, n_tokens))
                srcs.append(" ".join(_sentence(rng, source_vocab, n_tokens)))
                difficulty.append(rng.uniform(0.5, 1.5))
            for system in systems:
                rater = rng.choice(raters)
                switch_at = (rng.randint(1, n_sents - 1)
                             if rng.random() < switch_rate else n_sents)
                second = rng.choice([r for r in raters if r != rater])
                rated_flags, rater_ids = [], []
                for i in range(n_sents):
                    sent_rater = rater if i < switch_at else second
                    rated = rng.random() >= gap_rate
                    rated_flags.append(rated)
                    rater_ids.append(sent_rater)
                    rate = min(0.95, error_rate[system] * difficulty[i])
                    hyp, errors = [], 0
                    for token in refs[i]:
                        if rng.random() < rate:
                            errors += 1
                            if rng.random() < 0.15:
                                continue  # dropped word
                            token = rng.choice(target_vocab)
                        hyp.append(token)
                    if not hyp:
                        hyp.append(rng.choice(target_vocab))
                    if shape.score_type == "MQM":
                        score = _mqm_score(rng, errors)
                    else:
                        raw = (1.0 - 2.5 * errors / len(refs[i])
                               + rng.gauss(0.0, 0.4) + rater_bias[sent_rater])
                        score = round(raw, 6)
                    if not rated:
                        continue
                    records.append({
                        "dataset_id": DATASET_ID,
                        "lang_pair": lang_pair,
                        "system_id": system,
                        "doc_id": doc_id,
                        "sent_index": i,
                        "rater_id": sent_rater,
                        "score": score,
                        "score_type": shape.score_type,
                        "source_text": srcs[i],
                        "reference_text": " ".join(refs[i]),
                        "hypothesis_text": " ".join(hyp),
                        "token_count_ref": None,
                        "token_count_hyp": None,
                    })
                layout[(lang_pair, system, doc_id)] = (rated_flags, rater_ids)
    return records, layout


def write_ratings(path, records) -> None:
    """Write rating dicts as JSONL in paraeval's field order."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        for record in records:
            stream.write(json.dumps({name: record[name] for name in RATING_FIELDS},
                                    ensure_ascii=False, separators=(",", ":")) + "\n")


def write_external_scores(paragraph_path, out_path, seed: int) -> None:
    """Write a synthetic metric score for every paragraph in a JSONL file.

    The score is the human paragraph score plus Gaussian noise whose
    spread grows with sqrt(k), rounded to a whole number so that some
    within-item metric pairs tie exactly.
    """
    rng = random.Random(seed)
    with open(paragraph_path, encoding="utf-8") as paragraphs, \
            open(out_path, "w", encoding="utf-8", newline="") as out:
        out.write("\t".join(SCORES_HEADER) + "\n")
        for line in paragraphs:
            p = json.loads(line)
            value = round(p["human_score"]
                          + rng.gauss(0.0, METRIC_SIGMA * math.sqrt(p["k"]))) + 0.0
            out.write(f"{METRIC_NAME}\t{p['lang_pair']}\t{p['system_id']}"
                      f"\t{p['doc_id']}\t{p['start_index']}\t{p['k']}"
                      f"\t{value!r}\n")
