"""Property tests: the one-pass readers against the oracles.

``oracles.read_rating_lines`` and ``oracles.read_paragraphs`` check every
field through its own getter. Each example is a few random valid records,
one per line with blank lines mixed in, and at most one of them mutated
in one field: a value of the wrong JSON type, a missing or unknown field,
an integer where a float is expected, a non-finite or out-of-range
number, an inconsistent k, a negative index or count, an unknown score
type (also an unhashable one), or a human score that does not aggregate
its sentence scores. The readers must return the records the oracles
return, or raise the same error with the same message. The paragraph
reader without texts must accept and refuse the same lines, and return the
oracle's records with their three texts set to None.

Valid records written, read and written again give the same bytes; so do
valid score rows, through the scores parser and ``score_rows``.

The paragraph writer of ``build-paragraphs`` writes the bytes of
``write_paragraphs(build_paragraphs(records, k))`` for random ratings and
k = 1..4, or raises its error.

The line splitter, which scans most lines in place, is checked against
``json.loads(line.strip())``, and the scores parser's strict numbers
against a regular grammar.
"""

import dataclasses
import io
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from paraeval import fileio
from paraeval.model import RatingRecord, ScoreType
from paraeval.paragraphs import build_paragraphs, rater_runs

# Fixed examples: a tier-1 gate must not pass on one run and fail on the next.
PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)

# A JSON string that no drawn text serializes to; it marks where a raw
# literal (NaN, 1e400, ...) goes into the serialized line.
PLACEHOLDER = "\x00literal"
TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00"),
               max_size=6)
SCORE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 1.0, -25.0, 0.5, 1e-12]))
WRONG_TYPES = [True, False, None, [], [1.0], {}, {"MQM": 1}, 1, 1.5, "x"]
LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
            "-7", "0"]
BAD_SCORE_TYPES = ["da_z", "", "MQM ", "DA", ["MQM"], {"MQM": 1}]
# str.strip removes all of these, so each line reads as blank.
BLANKS = ["", " ", "\t", "\u00a0", "\u2028"]
COUNTS = ("token_count_ref", "token_count_hyp")


def rating_record(draw):
    record = {"dataset_id": draw(TEXT), "lang_pair": draw(TEXT),
              "system_id": draw(TEXT), "doc_id": draw(TEXT),
              "sent_index": draw(st.integers(0, 30)), "rater_id": draw(TEXT),
              "score": draw(SCORE), "score_type": draw(st.sampled_from(["DA_Z", "MQM"])),
              "source_text": draw(TEXT), "reference_text": draw(TEXT),
              "hypothesis_text": draw(TEXT)}
    for name in COUNTS:
        if draw(st.booleans()):
            record[name] = draw(st.one_of(st.none(), st.integers(0, 50)))
    return record


def _total(scores):
    total = 0.0
    for score in scores:
        total += score
    return total


def paragraph_record(draw):
    # Valid records only: scores whose sum overflows to inf make a record
    # every reader refuses, and build_paragraphs never writes one.
    k = draw(st.integers(1, 4))
    score_type = draw(st.sampled_from(["DA_Z", "MQM"]))
    scores = draw(st.lists(SCORE, min_size=k, max_size=k).filter(
        lambda scores: math.isfinite(_total(scores))))
    total = _total(scores)
    record = {"dataset_id": draw(TEXT), "lang_pair": draw(TEXT),
              "system_id": draw(TEXT), "doc_id": draw(TEXT),
              "start_index": draw(st.integers(0, 30)), "k": k,
              "score_type": score_type, "rater_id": draw(TEXT),
              "human_score": total / k if score_type == "DA_Z" else total,
              "sentence_scores": scores, "source_text": draw(TEXT),
              "reference_text": draw(TEXT), "hypothesis_text": draw(TEXT)}
    for name in COUNTS:
        if draw(st.booleans()):
            record[name] = draw(st.one_of(st.none(), st.integers(0, 50)))
    return record


def _as_int(value):
    try:
        return int(value)
    except (OverflowError, ValueError):
        return 0


def mutate(draw, record, fields, index_field, float_field):
    """Change one field of record in place; return a literal for PLACEHOLDER."""
    kind = draw(st.sampled_from([
        "none", "wrong_type", "missing", "unknown", "int_for_float", "literal",
        "negative_index", "negative_count", "score_type", "k", "aggregate"]))
    if kind == "wrong_type":
        record[draw(st.sampled_from(fields))] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "unknown":
        record[draw(TEXT.filter(lambda name: name not in fields))] = 0
    elif kind == "int_for_float":
        record[float_field] = _as_int(record[float_field])
        if "sentence_scores" in record and draw(st.booleans()):
            scores = record["sentence_scores"]
            position = draw(st.integers(0, len(scores) - 1))
            scores[position] = _as_int(scores[position])
    elif kind == "literal":
        # In a sentence score, in the float field, or in both.
        where = draw(st.integers(0, 2)) if "sentence_scores" in record else 1
        if where != 1:
            scores = record["sentence_scores"]
            scores[draw(st.integers(0, len(scores) - 1))] = PLACEHOLDER
        if where != 0:
            record[float_field] = PLACEHOLDER
        return draw(st.sampled_from(LITERALS))
    elif kind == "negative_index":
        record[index_field] = -draw(st.integers(1, 5))
    elif kind == "negative_count":
        record[draw(st.sampled_from(COUNTS))] = -draw(st.integers(1, 5))
    elif kind == "score_type":
        record["score_type"] = draw(st.sampled_from(BAD_SCORE_TYPES))
    elif kind == "k" and "k" in record:
        if draw(st.booleans()):
            record["k"] = draw(st.sampled_from([0, record["k"] - 1, record["k"] + 1]))
        else:
            record["sentence_scores"] = record["sentence_scores"][1:]
    elif kind == "aggregate" and "human_score" in record:
        record["human_score"] += draw(st.sampled_from([1e-12, 1e-3, 1.0, -0.5]))
    return None


def serialize(draw, records, mutated, literal):
    lines = []
    for index, record in enumerate(records):
        line = json.dumps(record, ensure_ascii=False)
        if index == mutated and literal is not None:
            line = line.replace(json.dumps(PLACEHOLDER), literal)
        lines.extend(draw(st.lists(st.sampled_from(BLANKS), max_size=2)))
        lines.append(line)
    lines.extend(draw(st.lists(st.sampled_from(BLANKS), max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def stream_text(draw, make_record, fields, index_field, float_field):
    records = [make_record(draw) for _ in range(draw(st.integers(1, 4)))]
    mutated = draw(st.integers(0, len(records) - 1))
    literal = mutate(draw, records[mutated], fields, index_field, float_field)
    return serialize(draw, records, mutated, literal)


def read_without_texts(stream):
    return fileio.read_paragraphs(stream, texts=False)


def oracle_without_texts(stream):
    return [dataclasses.replace(p, source_text=None, reference_text=None,
                                hypothesis_text=None)
            for p in oracles.read_paragraphs(stream)]


def outcome(read, text):
    try:
        return [repr(record) for record in read(io.StringIO(text))]
    except ValueError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(stream_text(rating_record, oracles.RATING_FIELDS, "sent_index", "score"))
def test_rating_reader_matches_the_field_by_field_oracle(text):
    assert outcome(fileio.read_rating_lines, text) == \
        outcome(oracles.read_rating_lines, text)


@PROPERTY
@given(stream_text(paragraph_record, oracles.PARAGRAPH_FIELDS, "start_index",
                   "human_score"))
def test_paragraph_reader_matches_the_field_by_field_oracle(text):
    assert outcome(fileio.read_paragraphs, text) == \
        outcome(oracles.read_paragraphs, text)
    assert outcome(read_without_texts, text) == outcome(oracle_without_texts, text)


ROUND_TRIPS = {"ratings": (rating_record, fileio.read_rating_lines, fileio.write_ratings),
               "paragraphs": (paragraph_record, fileio.read_paragraphs,
                              fileio.write_paragraphs)}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
@PROPERTY
@given(data=st.data())
def test_write_read_write_is_byte_identical(kind, data):
    make_record, read, write = ROUND_TRIPS[kind]
    count = data.draw(st.integers(1, 4), label="records")
    records = read(io.StringIO("".join(json.dumps(make_record(data.draw)) + "\n"
                                       for _ in range(count))))
    first, second = io.StringIO(), io.StringIO()
    write(records, first)
    again = read(io.StringIO(first.getvalue()))
    write(again, second)
    assert again == records
    assert second.getvalue() == first.getvalue()


# Any text a TSV field can hold: no tab, CR or LF.
TSV_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\r\n"),
                   max_size=4)
SCORE_KEY = st.tuples(TSV_TEXT, TSV_TEXT, TSV_TEXT, TSV_TEXT, st.integers(0, 30),
                      st.integers(1, 10))


@PROPERTY
@given(st.dictionaries(SCORE_KEY, SCORE, min_size=1, max_size=8))
def test_score_rows_write_read_write_is_byte_identical(scores):
    # (metric, lang_pair, system, doc_id, start_index, k) -> score
    rows = sorted((*key, score) for key, score in scores.items())
    first, second = io.StringIO(), io.StringIO()
    fileio.write_scores(rows, first)
    # Read as open_input reads a file: UTF-8, universal newlines.
    tables = fileio.parse_external_scores(
        io.TextIOWrapper(io.BytesIO(first.getvalue().encode("utf-8")), encoding="utf-8"))
    again = sorted(row for (metric, lang_pair, _), table in tables.items()
                   for row in fileio.score_rows(metric, lang_pair, table.entries))
    fileio.write_scores(again, second)
    assert again == rows
    assert second.getvalue() == first.getvalue()


VALID_RATING = {
    "dataset_id": "wmt", "lang_pair": "en-de", "system_id": "sysA", "doc_id": "d1",
    "sent_index": 0, "rater_id": "r1", "score": -1.0, "score_type": "MQM",
    "source_text": "s", "reference_text": "r", "hypothesis_text": "h"}
VALID_PARAGRAPH = {
    "dataset_id": "wmt", "lang_pair": "en-de", "system_id": "sysA", "doc_id": "d1",
    "start_index": 0, "k": 2, "score_type": "MQM", "rater_id": "r1",
    "human_score": -3.0, "sentence_scores": [-1.0, -2.0], "source_text": "s",
    "reference_text": "r", "hypothesis_text": "h"}
READERS = {"rating": (VALID_RATING, fileio.read_rating_lines, oracles.read_rating_lines),
           "paragraph": (VALID_PARAGRAPH, fileio.read_paragraphs, oracles.read_paragraphs)}


# Every character but a lone surrogate, which UTF-8 cannot encode, with what
# JSON escapes or could be escaped wrongly drawn often.
LINE_TEXT = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00\x08\n\x1f\x7f", "\u2028\u2029", "\U0001f600",
                     "a b"]),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=6))
# Subnormals and windows whose sum overflows; in one example of four, also
# non-finite scores, which make every window that holds one an error.
RATING_SCORE = st.one_of(SCORE, st.sampled_from([-0.0, 5e-324, 1e308, 1.7e308, -1.7e308]))
RATING_SCORES = st.sampled_from(
    [RATING_SCORE] * 3 + [st.one_of(RATING_SCORE, st.sampled_from([math.inf, math.nan]))])


@st.composite
def rated_documents(draw):
    """Ratings of one score type, for 1-2 datasets and lang_pairs, 1-4 systems
    and 1-2 documents, with unrated positions and rater switches; the texts
    repeat across records, as a corpus's sources and references do."""
    names = st.lists(LINE_TEXT, min_size=1, max_size=2, unique=True)
    texts = draw(st.lists(LINE_TEXT, min_size=1, max_size=4))
    score_type, scores = draw(st.sampled_from(ScoreType)), draw(RATING_SCORES)
    count = st.one_of(st.integers(0, 50), st.integers(0, 50), st.none())
    records = []
    for dataset in draw(names):
        for lang_pair in draw(names):
            for system in draw(st.lists(LINE_TEXT, min_size=1, max_size=4, unique=True)):
                for doc in draw(names):
                    for i in range(draw(st.integers(0, 6))):
                        if draw(st.integers(0, 5)):  # else unrated
                            records.append(RatingRecord(
                                dataset, lang_pair, system, doc, i,
                                draw(st.sampled_from(["A", "A", "B"])),
                                draw(scores), score_type,
                                *(draw(st.sampled_from(texts)) for _ in range(3)),
                                draw(count), draw(count)))
    return records


@PROPERTY
@given(rated_documents())
def test_paragraph_writer_writes_the_bytes_of_write_paragraphs(records):
    writer = fileio.ParagraphWriter(rater_runs(records))  # one for every k, as the CLI's
    for k in range(1, 5):
        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        try:
            built = build_paragraphs(records, k)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                writer.write(k, stream)
            assert str(excinfo.value) == str(exc)
            continue
        expected = io.StringIO()
        fileio.write_paragraphs(built, expected)
        counts = writer.write(k, stream)
        assert stream.buffer.getvalue() == expected.getvalue().encode("utf-8")
        assert counts == Counter((p.dataset_id, p.lang_pair) for p in built)


@pytest.mark.parametrize("reader, field, value", [
    ("rating", "score_type", ["MQM"]), ("rating", "score_type", {"MQM": 1}),
    ("rating", "sent_index", True), ("rating", "sent_index", -1),
    ("rating", "score", True), ("rating", "score", -1), ("rating", "rater_id", 3),
    ("rating", "token_count_ref", 1.0), ("rating", "token_count_hyp", 0),
    ("paragraph", "score_type", ["MQM"]), ("paragraph", "score_type", {"MQM": 1}),
    ("paragraph", "k", True), ("paragraph", "start_index", False),
    ("paragraph", "human_score", True), ("paragraph", "human_score", -3),
    ("paragraph", "sentence_scores", [True, 1.0]), ("paragraph", "sentence_scores", [-1, -2]),
    ("paragraph", "sentence_scores", "-1.0"), ("paragraph", "token_count_ref", True),
    ("paragraph", "token_count_hyp", 1.0), ("paragraph", "token_count_ref", 0),
    ("paragraph", "hypothesis_text", 3), ("paragraph", "source_text", None),
])
def test_a_field_of_another_type_is_read_as_the_oracle_reads_it(reader, field, value):
    valid, read, oracle = READERS[reader]
    text = json.dumps({**valid, field: value})
    assert outcome(read, text) == outcome(oracle, text)
    if reader == "paragraph":
        assert outcome(read_without_texts, text) == outcome(oracle_without_texts, text)


# str.isspace() is true for each of these, so strip() removes them.
SPACES = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028",
          "\u2029", "\u3000"]
JSON_TEXT = st.text(st.sampled_from(["a", "\u00e9", "\u2028", "\u2029", '"', "\\", "\t",
                                     "\r", "\x85", "{", "}"]), max_size=4)
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), SCORE, JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(JSON_TEXT, inner, max_size=3)),
    max_leaves=6)


@st.composite
def json_line(draw):
    value = draw(st.one_of(st.dictionaries(JSON_TEXT, JSON_VALUE, max_size=3), JSON_VALUE))
    body = json.dumps(value, ensure_ascii=draw(st.booleans()))
    form = draw(st.sampled_from(["plain", "plain", "truncated", "doubled", "trailing",
                                 "bom", "blank"]))
    if form == "truncated":
        body = body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    elif form == "doubled":
        body += draw(st.sampled_from(["", " "])) + body
    elif form == "trailing":
        body += draw(st.sampled_from([" x", "x", ",", " \x00", "\ufeff"]))
    elif form == "bom":
        body = "\ufeff" + body
    elif form == "blank":
        body = ""
    spaces = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
    return draw(spaces) + body + draw(spaces)


@PROPERTY
@given(st.lists(json_line(), min_size=1, max_size=3),
       st.lists(st.sampled_from(["\n", "\r\n"]), min_size=3, max_size=3),
       st.sampled_from(["", "\n", "\r\n"]))
def test_line_splitter_matches_json_loads_of_the_stripped_line(lines, ends, last):
    text = "".join(line + end for line, end in zip(lines, ends[:len(lines) - 1]))
    text += lines[-1] + last

    def parsed(parse_lines):
        try:
            return [(lineno, repr(obj)) for lineno, obj in parse_lines(io.StringIO(text))]
        except ValueError as exc:
            return type(exc), str(exc)

    assert parsed(fileio._parse_lines) == parsed(oracles._parse_lines)


UNSIGNED = re.compile(r"[0-9]+")
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
NEAR_NUMBER = st.text(st.sampled_from("0123456789+-._eE infaINF\u0663\u00b2\u00a0\r"),
                      max_size=6)


@PROPERTY
@given(st.one_of(st.from_regex(UNSIGNED, fullmatch=True), NEAR_NUMBER),
       st.one_of(st.from_regex(UNSIGNED, fullmatch=True), NEAR_NUMBER),
       st.one_of(st.from_regex(DECIMAL, fullmatch=True), NEAR_NUMBER))
def test_score_numbers_follow_the_strict_grammar(start, k, score):
    text = "\t".join(fileio.SCORES_HEADER) + f"\next\ten-de\tsysA\tdoc1\t{start}\t{k}\t{score}\n"
    if (UNSIGNED.fullmatch(start) and UNSIGNED.fullmatch(k) and int(k) >= 1
            and DECIMAL.fullmatch(score) and math.isfinite(float(score))):
        tables = fileio.parse_external_scores(io.StringIO(text))
        assert tables[("ext", "en-de", int(k))].entries == \
            {("sysA", ("doc1", int(start), int(k))): float(score)}
    else:
        with pytest.raises(fileio.ParseError, match="^line 2: "):
            fileio.parse_external_scores(io.StringIO(text))
