import dataclasses
import gzip
import io
import json
import math
import re
from dataclasses import replace
from functools import partial

import pytest

import oracles
from helpers import feeding_pipe, make_rating, record_fields
from paraeval import fileio
from paraeval.fileio import ParseError, ValidationError
from paraeval.model import ParagraphInstance, RatingRecord, ScoreType
from paraeval.paragraphs import build_paragraphs, rater_runs


def roundtrip_ratings(records):
    buffer = io.StringIO()
    fileio.write_ratings(records, buffer)
    return fileio.parse_ratings(io.StringIO(buffer.getvalue()))


def roundtrip_paragraphs(paragraphs):
    buffer = io.StringIO()
    fileio.write_paragraphs(paragraphs, buffer)
    return fileio.read_paragraphs(io.StringIO(buffer.getvalue()))


class TestRatingsFile:
    def test_two_valid_lines_parse_in_order(self):
        records = [make_rating(sent_index=1, score=0.25),
                   make_rating(sent_index=0, score=-1.5)]
        assert roundtrip_ratings(records) == records

    def test_empty_file_is_empty_collection(self):
        assert fileio.parse_ratings(io.StringIO("")) == []

    def test_blank_lines_are_skipped(self):
        buffer = io.StringIO()
        fileio.write_ratings([make_rating()], buffer)
        text = "\n" + buffer.getvalue() + "\n\n"
        assert len(fileio.parse_ratings(io.StringIO(text))) == 1

    def test_roundtrip_preserves_floats_bit_exactly(self):
        scores = [0.1 + 0.2, -0.0, 1e-300, 123456.789012345, -2.5000000000000004]
        records = [make_rating(sent_index=i, score=s)
                   for i, s in enumerate(scores)]
        back = roundtrip_ratings(records)
        for original, parsed in zip(records, back):
            assert math.copysign(1.0, parsed.score) == \
                math.copysign(1.0, original.score)
            assert parsed.score == original.score
        assert back == records

    def test_roundtrip_preserves_optional_token_counts(self):
        records = [make_rating(token_count_ref=17, token_count_hyp=0),
                   make_rating(sent_index=1)]
        assert roundtrip_ratings(records) == records

    def test_roundtrip_preserves_awkward_text(self):
        record = make_rating(hypothesis_text='tabs\tand "quotes" and \\ slós\n',
                             source_text="emoji ☃ und Umlaute äöü")
        assert roundtrip_ratings([record]) == [record]

    def test_missing_field_names_line_and_field(self):
        good = io.StringIO()
        fileio.write_ratings([make_rating(sent_index=i) for i in range(3)], good)
        lines = good.getvalue().splitlines()
        broken = json.loads(lines[2])
        del broken["rater_id"]
        lines[2] = json.dumps(broken)
        with pytest.raises(ParseError, match="line 3: missing field rater_id"):
            fileio.parse_ratings(iter(line + "\n" for line in lines))

    def test_unknown_field_rejected(self):
        obj = json.loads(next(iter(self._one_line())))
        obj["mystery"] = 1
        with pytest.raises(ParseError, match="unknown field mystery"):
            fileio.parse_ratings(io.StringIO(json.dumps(obj)))

    def test_malformed_json_carries_line_number(self):
        text = self._one_line()[0] + "{not json\n"
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            fileio.parse_ratings(io.StringIO(text))

    def test_wrong_type_rejected(self):
        obj = json.loads(self._one_line()[0])
        obj["sent_index"] = "zero"
        with pytest.raises(ParseError, match="sent_index must be an integer"):
            fileio.parse_ratings(io.StringIO(json.dumps(obj)))

    def test_integer_score_beyond_float_range_rejected(self):
        obj = json.loads(self._one_line()[0])
        obj["score"] = "@"
        text = json.dumps(obj).replace('"@"', "1" + "0" * 400)
        with pytest.raises(ParseError, match="line 1: field score is out of float range"):
            fileio.parse_ratings(io.StringIO(text))

    def test_validation_failure_carries_report(self):
        buffer = io.StringIO()
        fileio.write_ratings([make_rating(), make_rating()], buffer)
        with pytest.raises(ValidationError) as excinfo:
            fileio.parse_ratings(io.StringIO(buffer.getvalue()))
        assert "duplicate rating key" in str(excinfo.value)
        assert len(excinfo.value.report.errors) == 1

    def test_validation_failure_of_a_file_names_it_and_carries_report(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            fileio.write_ratings([make_rating(), make_rating()], stream)
        with pytest.raises(ValidationError) as excinfo:
            fileio.load_ratings(path)
        assert str(excinfo.value).startswith(f"{path}: 1 validation error(s):\n"
                                             "duplicate rating key: ")
        assert len(excinfo.value.report.errors) == 1

    @staticmethod
    def _one_line():
        buffer = io.StringIO()
        fileio.write_ratings([make_rating()], buffer)
        return buffer.getvalue().splitlines(keepends=True)


def written_lines(records, write):
    buffer = io.StringIO()
    write(records, buffer)
    return buffer.getvalue().splitlines()


# The second record's name in the files below, up to its sent_index or start_index.
RATING = "rating dataset=wmt lang_pair=en-de system=sysA doc=doc1 sent_index="
PARAGRAPH = "paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 start_index="


@pytest.mark.parametrize("kind, change, rule", [
    ("rating", {"sent_index": -1}, f"{RATING}-1: sent_index must be >= 0, got -1"),
    ("rating", {"token_count_ref": -1}, f"{RATING}1: token_count_ref must be >= 0, got -1"),
    ("rating", {"token_count_hyp": -1}, f"{RATING}1: token_count_hyp must be >= 0, got -1"),
    ("paragraph", {"start_index": -1},
     f"{PARAGRAPH}-1 k=2: start_index must be >= 0, got -1"),
    ("paragraph", {"k": 0, "sentence_scores": []}, f"{PARAGRAPH}2 k=0: k must be >= 1, got 0"),
    ("paragraph", {"sentence_scores": [0.5]},
     f"{PARAGRAPH}2 k=2: 1 sentence_scores, expected k=2"),
    ("paragraph", {"human_score": "@"},
     f"{PARAGRAPH}2 k=2: field human_score must be finite, got inf"),
], ids=["sent_index", "token_count_ref", "token_count_hyp", "start_index", "k",
        "score-count", "infinite-human"])
def test_a_value_the_record_refuses_names_its_line_and_the_record(kind, change, rule):
    records = [make_rating(sent_index=i, score=i / 4, token_count_ref=3, token_count_hyp=2)
               for i in range(4)]
    if kind == "rating":
        lines = written_lines(records[:2], fileio.write_ratings)
        reads = [fileio.read_rating_lines, oracles.read_rating_lines]
    else:
        lines = written_lines(build_paragraphs(records, 2), fileio.write_paragraphs)
        reads = [fileio.read_paragraphs, partial(fileio.read_paragraphs, texts=False),
                 oracles.read_paragraphs]
    lines[1] = json.dumps(dict(json.loads(lines[1]), **change)).replace('"@"', "Infinity")
    for read in reads:
        with pytest.raises(ParseError) as excinfo:
            read(lines)
        assert str(excinfo.value) == f"line 2: {rule}"
        assert excinfo.value.line == 2


def test_integer_and_float_sentence_scores_read_to_equal_paragraphs(monkeypatch):
    (paragraph,) = build_paragraphs([make_rating(sent_index=i, score=i - 1.0)
                                     for i in range(2)], 2)
    floats = fileio.dump_json(record_fields(paragraph))
    integers = floats.replace('"sentence_scores":[-1.0,0.0]', '"sentence_scores":[-1,0]')
    assert integers != floats
    checked, getters = [], fileio._checked_values
    monkeypatch.setattr(fileio, "_checked_values",
                        lambda obj, *rest: checked.append(obj) or getters(obj, *rest))
    from_floats, from_integers = (fileio.read_paragraphs([line]) for line in (floats, integers))
    assert from_floats == from_integers == [paragraph]
    assert repr(from_floats) == repr(from_integers)
    # Only the line of integer scores went through the getters.
    assert checked == [json.loads(integers)]


class TestParagraphsFile:
    @staticmethod
    def build(k=2, n=6, score_type=ScoreType.DA_Z):
        records = [make_rating(sent_index=i, score=float(i) / 4,
                               score_type=score_type,
                               token_count_ref=i + 3, token_count_hyp=i + 2)
                   for i in range(n)]
        return build_paragraphs(records, k)

    def test_single_paragraph_roundtrip(self):
        paragraphs = self.build(k=2, n=2)
        assert len(paragraphs) == 1
        assert roundtrip_paragraphs(paragraphs) == paragraphs

    def test_k10_roundtrip_preserves_score_order(self):
        paragraphs = self.build(k=10, n=10)
        (paragraph,) = roundtrip_paragraphs(paragraphs)
        assert paragraph.sentence_scores == tuple(i / 4 for i in range(10))

    def test_mqm_sum_roundtrip(self):
        paragraphs = self.build(k=3, n=3, score_type=ScoreType.MQM)
        assert roundtrip_paragraphs(paragraphs) == paragraphs

    def test_inconsistent_human_score_rejected(self):
        buffer = io.StringIO()
        fileio.write_paragraphs(self.build(k=2, n=2), buffer)
        obj = json.loads(buffer.getvalue())
        obj["human_score"] = obj["human_score"] + 0.5
        with pytest.raises(ParseError, match="does not aggregate"):
            fileio.read_paragraphs(io.StringIO(json.dumps(obj)))

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400",
                                         "1" + "0" * 400])
    @pytest.mark.parametrize("field", ["human_score", "sentence_scores", "both"])
    def test_non_finite_score_rejected_with_line_number(self, field, literal):
        lines = []
        for paragraph in self.build(k=1, n=2):
            buffer = io.StringIO()
            fileio.write_paragraphs([paragraph], buffer)
            lines.append(buffer.getvalue())
        obj = json.loads(lines[1])
        if field in ("human_score", "both"):
            obj["human_score"] = "@"
        if field in ("sentence_scores", "both"):
            obj["sentence_scores"] = ["@"]
        lines[1] = json.dumps(obj).replace('"@"', literal) + "\n"
        reported = "sentence_scores" if field == "sentence_scores" else "human_score"
        # A getter refuses a literal beyond the float range; the paragraph that
        # parses refuses a non-finite score, naming itself.
        with pytest.raises(ParseError, match=rf"^line 2: (field {reported} is out of "
                                             rf"float range|paragraph dataset=wmt .* k=1: "
                                             rf"field {reported} must be finite)"):
            fileio.read_paragraphs(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("field, literal, message", [
        ("rater_id", "3", "field rater_id must be a string, got 3"),
        ("start_index", '"0"', "field start_index must be an integer, got '0'"),
        ("human_score", "1" + "0" * 400, "field human_score is out of float range"),
    ])
    def test_bad_field_reports_its_line_once(self, field, literal, message):
        buffer = io.StringIO()
        fileio.write_paragraphs(self.build(k=1, n=1), buffer)
        obj = json.loads(buffer.getvalue())
        obj[field] = "@"
        text = json.dumps(obj).replace('"@"', literal)
        with pytest.raises(ParseError) as excinfo:
            fileio.read_paragraphs(io.StringIO(text + "\n"))
        assert str(excinfo.value) == f"line 1: {message}"
        assert excinfo.value.line == 1

    def test_non_finite_score_exits_2_from_the_cli(self, tmp_path, capsys):
        from paraeval.cli import main

        buffer = io.StringIO()
        fileio.write_paragraphs(self.build(k=1, n=1), buffer)
        obj = json.loads(buffer.getvalue())
        obj["human_score"], obj["sentence_scores"] = "@", ["@"]
        text = json.dumps(obj).replace('"@"', "Infinity")
        path = tmp_path / "paragraphs.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["stats", "--paragraphs", str(path), "--out",
                     str(tmp_path / "stats")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: paragraph dataset=wmt lang_pair=en-de system=sysA "
            f"doc=doc1 start_index=0 k=1: field human_score must be finite, got inf\n")

    def test_write_paragraphs_names_a_string_utf8_cannot_encode(self):
        good, bad = self.build(k=1, n=2)
        bad = replace(bad, source_text="a \udc80 b")
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(
                "paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 start_index=1 "
                "k=1: field source_text holds '\\udc80', which UTF-8 cannot encode")):
            fileio.write_paragraphs([good, bad], buffer)
        assert buffer.getvalue() == fileio.dump_json(record_fields(good)) + "\n"

    @pytest.mark.parametrize("change, problem", [
        ({"human_score": math.inf}, "field human_score must be finite, got inf"),
        ({"sentence_scores": (math.nan, 0.25)},
         "field sentence_scores must be finite, got [nan, 0.25]"),
        ({"human_score": 1.125},
         "human_score 1.125 does not aggregate its sentence_scores (expected 0.125)"),
    ], ids=["infinite-human", "nan-sentence", "not-the-aggregate"])
    def test_a_paragraph_refuses_the_scores_read_paragraphs_refuses(self, change, problem):
        good = self.build(k=2, n=2)[0]
        message = ("paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 "
                   f"start_index=0 k=2: {problem}")
        bad = dict(record_fields(good), **change)
        for make in (lambda: ParagraphInstance(**bad), lambda: replace(good, **change)):
            with pytest.raises(ValueError) as excinfo:
                make()
            assert str(excinfo.value) == message
        if all(map(math.isfinite, (bad["human_score"], *bad["sentence_scores"]))):
            # A line that JSON can hold, and which the reader refuses alike.
            with pytest.raises(ParseError) as excinfo:
                fileio.read_paragraphs([fileio.dump_json(bad)])
            assert str(excinfo.value) == f"line 1: {message}"

    def test_write_paragraphs_refuses_a_paragraph_read_without_its_texts(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            fileio.write_paragraphs(self.build(k=1, n=1), stream)
        # read_paragraphs refuses the null texts such a line would hold.
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(
                "paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 start_index=0 "
                "k=1: field source_text is None, not a string")):
            fileio.write_paragraphs(fileio.load_paragraphs(path, texts=False), buffer)
        assert buffer.getvalue() == ""

    def test_paragraph_writer_refuses_a_rating_whose_text_is_none(self):
        records = [make_rating(sent_index=0), replace(make_rating(sent_index=1),
                                                      reference_text=None)]
        with pytest.raises(ValueError, match=re.escape(
                "rating dataset=wmt lang_pair=en-de system=sysA doc=doc1 sent_index=1: "
                "field reference_text is None, not a string")):
            fileio.ParagraphWriter(rater_runs(records))


class TestScoresFile:
    HEADER = "\t".join(fileio.SCORES_HEADER)

    def test_two_rows_one_table(self):
        text = (f"{self.HEADER}\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t2\t41.5\n"
                "bleu\ten-de\tsysB\tdoc1\t0\t2\t39.25\n")
        tables = fileio.parse_external_scores(io.StringIO(text))
        assert set(tables) == {("bleu", "en-de", 2)}
        table = tables[("bleu", "en-de", 2)]
        assert table.entries[("sysA", ("doc1", 0, 2))] == 41.5
        assert len(table.entries) == 2

    def test_rows_with_different_k_split_into_tables(self):
        text = (f"{self.HEADER}\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t1\t10.0\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t2\t20.0\n")
        tables = fileio.parse_external_scores(io.StringIO(text))
        assert set(tables) == {("bleu", "en-de", 1), ("bleu", "en-de", 2)}

    def test_duplicate_key_rejected(self):
        text = (f"{self.HEADER}\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t1\t10.0\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t1\t11.0\n")
        with pytest.raises(ParseError, match="line 3: duplicate score key"):
            fileio.parse_external_scores(io.StringIO(text))

    def test_non_finite_score_rejected(self):
        text = f"{self.HEADER}\nbleu\ten-de\tsysA\tdoc1\t0\t1\tnan\n"
        with pytest.raises(ParseError, match="non-finite"):
            fileio.parse_external_scores(io.StringIO(text))

    def test_empty_file_has_no_header(self):
        with pytest.raises(ParseError, match=r"^line 1: missing header row$"):
            fileio.parse_external_scores(io.StringIO(""))

    def test_blank_lines_are_skipped(self):
        text = (f"{self.HEADER}\n\n"
                "bleu\ten-de\tsysA\tdoc1\t0\t1\t10.0\n\n\n"
                "bleu\ten-de\tsysB\tdoc1\t0\t1\t11.0\n\n")
        table = fileio.parse_external_scores(io.StringIO(text))[("bleu", "en-de", 1)]
        assert table.entries == {("sysA", ("doc1", 0, 1)): 10.0,
                                 ("sysB", ("doc1", 0, 1)): 11.0}

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            fileio.parse_external_scores(io.StringIO("metric\tscore\n"))

    def test_wrong_column_count_rejected(self):
        text = f"{self.HEADER}\nbleu\ten-de\tsysA\tdoc1\t0\t1\n"
        with pytest.raises(ParseError, match="expected 7 columns"):
            fileio.parse_external_scores(io.StringIO(text))

    @pytest.mark.parametrize("start, k, score", [
        ("0", "1", "0.5"), ("17", "10", "-1.25"), ("3", "2", "1e-05"),
        ("0", "1", "1.5e+20"), ("0", "1", "-0.0"), ("0", "1", "3"),
        ("0", "1", "+1.5"), ("0", "1", ".5"), ("0", "1", "5."), ("0", "1", "2E3"),
        ("007", "01", "1.0"),
    ])
    def test_decimal_numbers_are_read(self, start, k, score):
        text = f"{self.HEADER}\nbleu\ten-de\tsysA\tdoc1\t{start}\t{k}\t{score}\n"
        table = fileio.parse_external_scores(io.StringIO(text))[("bleu", "en-de", int(k))]
        assert table.entries == {("sysA", ("doc1", int(start), int(k))): float(score)}

    @pytest.mark.parametrize("start, k, score, message", [
        (" 0_1", "1", "1.0", "start_index and k must be unsigned decimal integers, "
                             "got ' 0_1' and '1'"),
        ("0_1", "1", "1.0", "start_index and k must be"),
        ("+1", "1", "1.0", "start_index and k must be"),
        ("-1", "1", "1.0", "start_index and k must be"),
        ("0", "+1", "1.0", "start_index and k must be"),
        ("0", "1 ", "1.0", "start_index and k must be"),
        ("1.0", "1", "1.0", "start_index and k must be"),
        ("\u0663", "1", "1.0", "start_index and k must be"),
        ("\u00b2", "1", "1.0", "start_index and k must be"),
        ("", "1", "1.0", "start_index and k must be"),
        ("0", "0", "1.0", "k must be >= 1"),
        ("0", "1", "1_0", "score is not a decimal number: '1_0'"),
        ("0", "1", " 1.0", "score is not a decimal number"),
        ("0", "1", "1.0\r", "score is not a decimal number"),
        ("0", "1", "\u0661.5", "score is not a decimal number"),
        ("0", "1", "0x1p3", "score is not a decimal number"),
        ("0", "1", "", "score is not a decimal number"),
        ("0", "1", "inf", "non-finite score"),
        ("0", "1", "-NaN", "non-finite score"),
    ])
    def test_other_numbers_are_rejected_with_the_line(self, start, k, score, message):
        text = (f"{self.HEADER}\nbleu\ten-de\tsysA\tdoc1\t0\t1\t2.0\n"
                f"bleu\ten-de\tsysB\tdoc1\t{start}\t{k}\t{score}\n")
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(message)}"):
            fileio.parse_external_scores(io.StringIO(text))

    def test_write_then_parse_roundtrips_scores(self):
        entries = {("sysA", ("doc1", 0, 2)): 0.1 + 0.2,
                   ("sysB", ("doc1", 4, 2)): -17.25}
        rows = fileio.score_rows("toy", "en-de", entries)
        buffer = io.StringIO()
        fileio.write_scores(rows, buffer)
        tables = fileio.parse_external_scores(io.StringIO(buffer.getvalue()))
        assert tables[("toy", "en-de", 2)].entries == entries

    @pytest.mark.parametrize("doc_id", ["doc\t1", "doc\n1", "doc\r1"])
    def test_a_value_with_a_tab_or_line_break_is_refused_naming_the_row(self, doc_id):
        rows = fileio.score_rows("m", "en-de", {("sysA", ("a", 0, 1)): 1.0,
                                                ("sysA", (doc_id, 0, 1)): 2.0})
        with pytest.raises(ValueError, match=re.escape(
                f"row 2: doc_id {doc_id!r} holds a tab or line break")):
            fileio.write_scores(rows, io.StringIO())

    def test_tsv_writes_none_as_dash_and_floats_round_trip(self):
        buffer = io.StringIO()
        fileio.write_tsv(("a", "b", "c"), [("x", None, 0.1 + 0.2), (1, 2.5, "-")],
                         buffer)
        assert buffer.getvalue() == "a\tb\tc\nx\t-\t0.30000000000000004\n1\t2.5\t-\n"

    def test_tsv_refuses_a_value_utf8_cannot_encode_naming_the_row_and_column(self):
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(
                "row 2: b 'x\\ud800y' holds '\\ud800', which UTF-8 cannot encode")):
            fileio.write_tsv(("a", "b"), [("\u00e9", 1), ("\u00e9", "x\ud800y")], buffer)
        assert buffer.getvalue() == "a\tb\n\u00e9\t1\n"

    @pytest.mark.parametrize("row, count", [(("x", 1), 2), (("x", 1, 2, 3), 4)])
    def test_tsv_refuses_a_row_of_the_wrong_length(self, row, count):
        with pytest.raises(ValueError, match=f"^row 2: {count} values for 3 columns$"):
            fileio.write_tsv(("a", "b", "c"), [("x", 1, 2), row], io.StringIO())

    def test_score_rows_are_canonically_sorted(self):
        entries = {("sysB", ("doc1", 0, 1)): 1.0,
                   ("sysA", ("doc2", 0, 1)): 2.0,
                   ("sysA", ("doc1", 3, 1)): 3.0}
        rows = fileio.score_rows("m", "en-de", entries)
        assert [(r[2], r[3], r[4]) for r in rows] == \
            [("sysA", "doc1", 3), ("sysA", "doc2", 0), ("sysB", "doc1", 0)]


def _paragraph_with_list_scores():
    built = TestParagraphsFile.build(k=2, n=2)[0]
    return ParagraphInstance(**dict(record_fields(built),
                                    sentence_scores=list(built.sentence_scores)))


@pytest.mark.parametrize("record_type, fields, write, make", [
    (RatingRecord, oracles.RATING_FIELDS, fileio.write_ratings, make_rating),
    (RatingRecord, oracles.RATING_FIELDS, fileio.write_ratings,
     lambda: replace(make_rating(), token_count_ref=3, rater_id="B", dataset_id="d")),
    (ParagraphInstance, oracles.PARAGRAPH_FIELDS, fileio.write_paragraphs,
     lambda: TestParagraphsFile.build(k=1, n=1)[0]),
    (ParagraphInstance, oracles.PARAGRAPH_FIELDS, fileio.write_paragraphs,
     _paragraph_with_list_scores),
    (ParagraphInstance, oracles.PARAGRAPH_FIELDS, fileio.write_paragraphs,
     lambda: replace(TestParagraphsFile.build(k=1, n=1)[0], sentence_scores=[0.5],
                     human_score=0.5, dataset_id="d")),
])
def test_writer_table_and_record_type_share_one_field_order(record_type, fields, write,
                                                             make):
    # The writers write a record's fields in their declaration order, which
    # must be the file format's; the readers build records positionally in
    # the order of their table, so a record read back must be the same.
    record = make()
    buffer = io.StringIO()
    write([record], buffer)
    assert tuple(json.loads(buffer.getvalue())) == fields == \
        tuple(field.name for field in dataclasses.fields(record_type))
    read = fileio.read_rating_lines if record_type is RatingRecord else fileio.read_paragraphs
    assert read(io.StringIO(buffer.getvalue())) == [record]


def test_dump_json_refuses_other_types():
    assert fileio.dump_json({"t": ScoreType.MQM}) == '{"t":"MQM"}'
    with pytest.raises(TypeError, match="not JSON serializable"):
        fileio.dump_json(object())
    with pytest.raises(TypeError, match="not JSON serializable"):
        fileio.dump_json({"x": {1, 2}})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_dump_json_refuses_non_finite_floats(value):
    # json.dumps would write Infinity or NaN, which strict JSON readers refuse.
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.dump_json({"value": value})


class TestGzipInput:
    def test_gzip_detected_by_magic_bytes(self, tmp_path):
        records = [make_rating(sent_index=i) for i in range(4)]
        buffer = io.StringIO()
        fileio.write_ratings(records, buffer)
        path = tmp_path / "ratings.jsonl.gz"
        path.write_bytes(gzip.compress(buffer.getvalue().encode("utf-8")))
        assert fileio.load_ratings(path) == records

    def test_plain_file_still_reads(self, tmp_path):
        records = [make_rating()]
        path = tmp_path / "ratings.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            fileio.write_ratings(records, stream)
        assert fileio.load_ratings(path) == records

    def test_closing_the_stream_closes_the_file(self, tmp_path):
        path = tmp_path / "ratings.jsonl.gz"
        path.write_bytes(gzip.compress(b"{}\n"))
        stream = fileio.open_input(path)
        raw = stream.buffer.fileobj
        assert stream.read() == "{}\n"
        stream.close()
        assert raw.closed

    @pytest.mark.parametrize("compress", [False, True])
    def test_reads_a_pipe_and_closing_closes_it(self, compress, tmp_path):
        records = [make_rating(sent_index=i) for i in range(4)]
        buffer = io.StringIO()
        fileio.write_ratings(records, buffer)
        data = buffer.getvalue().encode("utf-8")
        with feeding_pipe(tmp_path / "ratings.pipe",
                          gzip.compress(data) if compress else data) as path:
            stream = fileio.open_input(path)
            raw = stream.buffer.fileobj if compress else stream.buffer
            with stream:
                assert fileio.read_rating_lines(stream) == records
        assert raw.closed

    def test_gzip_paragraphs(self, tmp_path):
        paragraphs = TestParagraphsFile.build(k=2, n=4)
        buffer = io.StringIO()
        fileio.write_paragraphs(paragraphs, buffer)
        path = tmp_path / "paragraphs.jsonl.gz"
        path.write_bytes(gzip.compress(buffer.getvalue().encode("utf-8")))
        assert fileio.load_paragraphs(path) == paragraphs


class TestSharedStrings:
    """Every system translates the same documents, so ids and the source and
    reference texts repeat across lines; a reader keeps one object for each
    distinct value and still returns the records the oracles return. With
    integral scores written as JSON integers, lines take the per-field path."""

    SYSTEMS = ("sysA", "sysB", "sysC")

    def ratings(self):
        return [make_rating(sent_index=i, rater_id=f"r{i % 2}", score=float(i) - 1,
                            system_id=system, doc_id=doc,
                            source_text=f"source {doc} {i}",
                            reference_text=f"reference {doc} {i}",
                            hypothesis_text=f"{system} says {doc} {i}")
                for system in self.SYSTEMS for doc in ("d1", "d2") for i in range(4)]

    @staticmethod
    def assert_one_object_per_value(values):
        values = list(values)
        assert len({id(value) for value in values}) == len(set(values)) > 0

    @staticmethod
    def assert_one_object_per_repr(values):
        """One object per float or tuple, where 0.0 and -0.0 are two."""
        values = list(values)
        assert len({id(value) for value in values}) == len(set(map(repr, values))) > 1

    @pytest.mark.parametrize("integral", [False, True])
    def test_rating_fields(self, integral):
        buffer = io.StringIO()
        fileio.write_ratings(self.ratings(), buffer)
        text = buffer.getvalue()
        if integral:
            text = re.sub(r'"score":(-?[0-9]+)\.0,', r'"score":\1,', text)
        records = fileio.read_rating_lines(io.StringIO(text))
        assert records == oracles.read_rating_lines(io.StringIO(text)) == self.ratings()
        for name in ("dataset_id", "lang_pair", "system_id", "doc_id", "rater_id",
                     "source_text", "reference_text"):
            self.assert_one_object_per_value(getattr(r, name) for r in records)
        self.assert_one_object_per_repr(r.score for r in records)

    @pytest.mark.parametrize("integral", [False, True])
    def test_paragraph_fields(self, integral):
        # One rater throughout, so that windows of two sentences form.
        paragraphs = [p for k in (1, 2) for p in build_paragraphs(
            [replace(r, rater_id="r1") for r in self.ratings()], k)]
        buffer = io.StringIO()
        fileio.write_paragraphs(paragraphs, buffer)
        text = buffer.getvalue()
        if integral:
            text = re.sub(r'"human_score":(-?[0-9]+)\.0,', r'"human_score":\1,', text)
        read = fileio.read_paragraphs(io.StringIO(text))
        assert read == oracles.read_paragraphs(io.StringIO(text)) == paragraphs
        for name in ("dataset_id", "lang_pair", "system_id", "doc_id", "rater_id",
                     "source_text", "reference_text"):
            self.assert_one_object_per_value(getattr(p, name) for p in read)
        self.assert_one_object_per_repr(score for p in read
                                        for score in (p.human_score, *p.sentence_scores))
        self.assert_one_object_per_repr(p.sentence_scores for p in read)

    def test_score_fields(self):
        written = {("ext", "en-de", k): {
            (system, (doc, start, k)): float(start) - len(system)
            for system in self.SYSTEMS for doc in ("d1", "d2") for start in range(0, 4, k)}
            for k in (1, 2)}
        buffer = io.StringIO()
        fileio.write_scores([row for (metric, lang_pair, _), entries in written.items()
                             for row in fileio.score_rows(metric, lang_pair, entries)],
                            buffer)
        tables = fileio.parse_external_scores(io.StringIO(buffer.getvalue()))
        assert {key: table.entries for key, table in tables.items()} == written
        keys = [key for table in tables.values() for key in table.entries]
        self.assert_one_object_per_value(system for system, _ in keys)
        self.assert_one_object_per_value(doc for _, (doc, _, _) in keys)
        self.assert_one_object_per_value(item for _, item in keys)
        self.assert_one_object_per_repr(score for table in tables.values()
                                        for score in table.entries.values())
        self.assert_one_object_per_value(metric for metric, _, _ in tables)
        self.assert_one_object_per_value(lang_pair for _, lang_pair, _ in tables)

    def test_signed_zeros_read_and_write_back(self):
        # MQM sums 0.0 and -0.0 to 0.0, which a human_score of -0.0 equals.
        paragraphs = [ParagraphInstance(
            dataset_id="wmt", lang_pair="en-de", system_id=system, doc_id="d1",
            start_index=0, k=2, score_type=ScoreType.MQM, rater_id="r1",
            human_score=human, sentence_scores=scores, source_text="s",
            reference_text="r", hypothesis_text="h")
            for system, human, scores in [("sysA", -0.0, (0.0, -0.0)),
                                          ("sysB", 0.0, (-0.0, 0.0)),
                                          ("sysC", -0.0, (-0.0, -0.0))]]
        buffer = io.StringIO()
        fileio.write_paragraphs(paragraphs, buffer)
        text = buffer.getvalue()
        read = fileio.read_paragraphs(io.StringIO(text))
        assert [repr((p.human_score, p.sentence_scores)) for p in read] == \
            ["(-0.0, (0.0, -0.0))", "(0.0, (-0.0, 0.0))", "(-0.0, (-0.0, -0.0))"]
        rewritten = io.StringIO()
        fileio.write_paragraphs(read, rewritten)
        assert rewritten.getvalue() == text

    def test_equal_score_tuples_are_one_object_and_signed_zeros_two(self):
        paragraphs = [ParagraphInstance(
            dataset_id="wmt", lang_pair="en-de", system_id=system, doc_id=doc,
            start_index=0, k=1, score_type=ScoreType.MQM, rater_id="r1",
            human_score=score, sentence_scores=(score,), source_text="s",
            reference_text="r", hypothesis_text="h")
            for doc in ("d1", "d2") for system, score in [("sysA", 0.0), ("sysB", -0.0),
                                                          ("sysC", -2.5)]]
        buffer = io.StringIO()
        fileio.write_paragraphs(paragraphs, buffer)
        text = buffer.getvalue()
        read = fileio.read_paragraphs(io.StringIO(text))
        assert read == paragraphs
        assert [repr(p.sentence_scores) for p in read[:3]] == ["(0.0,)", "(-0.0,)", "(-2.5,)"]
        for first, second in zip(read[:3], read[3:]):  # one tuple per doc's system
            assert first.sentence_scores is second.sentence_scores
        assert read[0].sentence_scores is not read[1].sentence_scores
        rewritten = io.StringIO()
        fileio.write_paragraphs(read, rewritten)
        assert rewritten.getvalue() == text

    def test_a_negative_zero_score_row_reads_as_negative_zero(self):
        text = "\t".join(fileio.SCORES_HEADER) + "\n" + "".join(
            f"m\ten-de\t{system}\td1\t0\t1\t{score}\n"
            for system, score in [("sysA", "0.0"), ("sysB", "-0.0"), ("sysC", "0.0")])
        (table,) = fileio.parse_external_scores(io.StringIO(text)).values()
        assert [repr(score) for score in table.entries.values()] == ["0.0", "-0.0", "0.0"]
        buffer = io.StringIO()
        fileio.write_scores(fileio.score_rows("m", "en-de", table.entries), buffer)
        assert buffer.getvalue() == text
