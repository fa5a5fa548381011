"""Property tests: the BLEU tokenizer and paragraph scorers against oracles.

The tokenizer is checked against the per-character loop in
``oracles.tokenize`` on arbitrary Unicode text. The paragraph scorers
count each reference of an item once, so they are checked paragraph by
paragraph against scoring that paragraph alone, on units whose systems
share references, use their own, or mix both, given in shuffled order.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import make_rating
from paraeval.metrics import (BleuMetric, bleu_sentence, score_aligned_avg,
                              score_direct, tokenize)
from paraeval.paragraphs import build_paragraphs

# Fixed examples: a tier-1 gate must not pass on one run and fail on the next.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(st.text(st.characters(exclude_categories=["Cs"])))
def test_tokenize_matches_the_per_character_oracle(text):
    assert tokenize(text) == oracles.tokenize(text)


# One character of each punctuation category, Pc Pd Ps Pe Pi Pf Po, and a
# non-BMP one (AEGEAN WORD SEPARATOR LINE).
@pytest.mark.parametrize("ch", ["_", "-", "(", ")", "«", "»", "!", "\U00010100"])
def test_punctuation_is_split_off(ch):
    assert tokenize(f"a{ch}b") == oracles.tokenize(f"a{ch}b") == ["a", ch, "b"]


@pytest.mark.parametrize("ch", ["$", "+", "^"])
def test_symbols_stay_inside_the_token(ch):
    assert tokenize(f"a{ch}b") == oracles.tokenize(f"a{ch}b") == [f"a{ch}b"]


@pytest.mark.parametrize("ch", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                                "\u2028", "\u3000"])
def test_unicode_whitespace_separates_tokens(ch):
    assert tokenize(f"a{ch}b") == oracles.tokenize(f"a{ch}b") == ["a", "b"]


VOCABULARY = ["a", "b", "c", "der", "ä", "ß", ",", ".", "«", "»", "don't", "x-y"]
REFERENCES = ("shared", "per-system", "mixed")


@st.composite
def scored_unit(draw):
    """Rating records of one unit, its k, and its paragraphs in shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_systems = draw(st.integers(2, 15))
    references = draw(st.sampled_from(REFERENCES))
    k = draw(st.integers(1, 3))

    def sentence():
        return " ".join(rng.choices(VOCABULARY, k=rng.randint(0, 8)))

    records = []
    for doc in range(draw(st.integers(1, 4))):
        for index in range(rng.randint(k, 6)):
            variants = [sentence(), sentence()]
            for system in range(n_systems):
                if references == "shared":
                    reference = variants[0]
                elif references == "per-system":
                    reference = f"{variants[0]} s{system}"
                else:
                    reference = rng.choice(variants)
                records.append(make_rating(
                    sent_index=index, doc_id=f"doc{doc}", system_id=f"sys{system:02d}",
                    hypothesis_text=sentence(), reference_text=reference))
    paragraphs = build_paragraphs(records, k)
    rng.shuffle(paragraphs)
    return records, k, paragraphs


def oracle_direct(hypothesis, reference):
    return oracles.bleu_corpus([(" ".join(oracles.tokenize(hypothesis)),
                                 " ".join(oracles.tokenize(reference)))])


@PROPERTY
@given(scored_unit())
def test_scorers_match_scoring_each_paragraph_alone(unit):
    records, k, paragraphs = unit
    metric = BleuMetric()
    by_key = {r.key: r for r in records}
    direct = score_direct(metric, paragraphs)
    aligned = score_aligned_avg(metric, paragraphs, records)
    assert len(direct.entries) == len(aligned.entries) == len(paragraphs)
    assert list(direct.entries) == sorted(direct.entries)
    assert list(aligned.entries) == sorted(aligned.entries)
    for p in paragraphs:
        key = (p.system_id, p.item_key)
        score = direct.entries[key]
        assert score == metric.direct_score(p.hypothesis_text, p.reference_text)
        assert math.isclose(score, oracle_direct(p.hypothesis_text, p.reference_text),
                            rel_tol=1e-9, abs_tol=1e-9)
        sentences = [by_key[(p.dataset_id, p.lang_pair, p.system_id, p.doc_id, i)]
                     for i in range(p.start_index, p.start_index + k)]
        assert aligned.entries[key] == math.fsum(
            bleu_sentence(r.hypothesis_text, r.reference_text) for r in sentences) / k


@PROPERTY
@given(scored_unit(), st.data())
def test_a_duplicated_paragraph_is_rejected(unit, data):
    records, _, paragraphs = unit
    twice = data.draw(st.sampled_from(paragraphs))
    position = data.draw(st.integers(0, len(paragraphs)))
    paragraphs = paragraphs[:position] + [twice] + paragraphs[position:]
    with pytest.raises(ValueError, match="duplicate paragraph for"):
        score_direct(BleuMetric(), paragraphs)
    with pytest.raises(ValueError, match="duplicate paragraph for"):
        score_aligned_avg(BleuMetric(), paragraphs, records)
