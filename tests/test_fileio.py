import gzip
import io
import json
import math

import pytest

from helpers import make_rating
from paraeval import fileio
from paraeval.fileio import ParseError, ValidationError
from paraeval.model import ScoreType
from paraeval.paragraphs import build_paragraphs


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

    @staticmethod
    def _one_line():
        buffer = io.StringIO()
        fileio.write_ratings([make_rating()], buffer)
        return buffer.getvalue().splitlines(keepends=True)


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

    def test_score_count_mismatch_names_the_key(self):
        buffer = io.StringIO()
        fileio.write_paragraphs(self.build(k=3, n=3), buffer)
        obj = json.loads(buffer.getvalue())
        obj["sentence_scores"] = obj["sentence_scores"][:2]
        with pytest.raises(ParseError) as excinfo:
            fileio.read_paragraphs(io.StringIO(json.dumps(obj)))
        message = str(excinfo.value)
        assert "line 1" in message
        assert "doc=doc1" in message and "k=3" in message

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
        with pytest.raises(ParseError, match=rf"line 2: field {reported} (must be "
                                             rf"finite|is out of float range)"):
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
        assert "line 1: field human_score must be finite" in capsys.readouterr().err


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
        assert len(table) == 2

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

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            fileio.parse_external_scores(io.StringIO("metric\tscore\n"))

    def test_wrong_column_count_rejected(self):
        text = f"{self.HEADER}\nbleu\ten-de\tsysA\tdoc1\t0\t1\n"
        with pytest.raises(ParseError, match="expected 7 columns"):
            fileio.parse_external_scores(io.StringIO(text))

    def test_write_then_parse_roundtrips_scores(self):
        entries = {("sysA", ("doc1", 0, 2)): 0.1 + 0.2,
                   ("sysB", ("doc1", 4, 2)): -17.25}
        rows = fileio.score_rows("toy", "en-de", entries)
        buffer = io.StringIO()
        fileio.write_scores(rows, buffer)
        tables = fileio.parse_external_scores(io.StringIO(buffer.getvalue()))
        assert tables[("toy", "en-de", 2)].entries == entries

    def test_score_rows_are_canonically_sorted(self):
        entries = {("sysB", ("doc1", 0, 1)): 1.0,
                   ("sysA", ("doc2", 0, 1)): 2.0,
                   ("sysA", ("doc1", 3, 1)): 3.0}
        rows = fileio.score_rows("m", "en-de", entries)
        assert [(r[2], r[3], r[4]) for r in rows] == \
            [("sysA", "doc1", 3), ("sysA", "doc2", 0), ("sysB", "doc1", 0)]


class TestGzipInput(object):
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

    def test_gzip_paragraphs(self, tmp_path):
        paragraphs = TestParagraphsFile.build(k=2, n=4)
        buffer = io.StringIO()
        fileio.write_paragraphs(paragraphs, buffer)
        path = tmp_path / "paragraphs.jsonl.gz"
        path.write_bytes(gzip.compress(buffer.getvalue().encode("utf-8")))
        assert fileio.load_paragraphs(path) == paragraphs
