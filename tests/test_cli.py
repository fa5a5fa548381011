import argparse
import gzip
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from helpers import feeding_pipe, make_rating, record_fields
import paraeval
from paraeval import fileio, metaeval, noise
from paraeval.cli import REPORT_HEADER, build_parser, main, parse_k_spec
from paraeval.metrics import bleu_sentence
from paraeval.model import ScoreType, SimConfig
from paraeval.paragraphs import build_paragraphs

EXPECTED_TAU_EPSILON = 1.1 - 1.0


def mqm(sent_index, score, system_id, doc_id, **overrides):
    return make_rating(sent_index=sent_index, rater_id="A", score=score,
                       system_id=system_id, doc_id=doc_id,
                       score_type=ScoreType.MQM, **overrides)


def tau_fixture_records():
    """2 one-sentence docs, 3 systems; doc d1 reproduces the human ties."""
    human = {("sysA", "d1"): 0.0, ("sysB", "d1"): 0.0, ("sysC", "d1"): -5.0,
             ("sysA", "d2"): -1.0, ("sysB", "d2"): -2.0, ("sysC", "d2"): -3.0}
    return [mqm(0, score, system, doc)
            for (system, doc), score in sorted(human.items())]


TAU_METRIC_SCORES = {("sysA", "d1"): 1.0, ("sysB", "d1"): 1.1,
                     ("sysC", "d1"): 0.2, ("sysA", "d2"): 0.9,
                     ("sysB", "d2"): 0.5, ("sysC", "d2"): 0.1}


REFERENCES = ["the quick brown fox jumps over the lazy dog",
              "a stitch in time saves nine every single day"]
HYPOTHESES = {
    "sysA": list(REFERENCES),
    "sysB": ["the quick brown fox jumps over a lazy dog",
             "a stitch in time saves ten every single day"],
    "sysC": ["the quick brown fox jumps over the lazy cat",
             "a stitch in time saves nine every single night"],
}
RICH_HUMAN = {"sysA": (0.0, -1.0), "sysB": (-2.0, -3.0), "sysC": (-5.0, -6.0)}


def rich_records():
    """2 two-sentence docs, 3 systems, with real texts for BLEU."""
    records = []
    for doc in ("d1", "d2"):
        for system, hyps in HYPOTHESES.items():
            for i in range(2):
                records.append(mqm(i, RICH_HUMAN[system][i], system, doc,
                                   reference_text=REFERENCES[i],
                                   hypothesis_text=hyps[i]))
    return records


def write_ratings(path, records):
    with open(path, "w", encoding="utf-8") as stream:
        fileio.write_ratings(records, stream)
    return str(path)


def write_paragraph_file(path, records, ks):
    paragraphs = [p for k in ks for p in build_paragraphs(records, k)]
    with open(path, "w", encoding="utf-8") as stream:
        fileio.write_paragraphs(paragraphs, stream)
    return str(path)


def write_escaped_paragraph_file(path, records, ks=(1,)):
    """Paragraphs in ASCII JSON, whose escape \\ud800 reads as a lone surrogate."""
    path.write_text("".join(json.dumps(dict(record_fields(p), score_type=p.score_type.value))
                            + "\n" for k in ks for p in build_paragraphs(records, k)),
                    encoding="ascii")
    return str(path)


@pytest.fixture
def tau_ratings(tmp_path):
    return write_ratings(tmp_path / "ratings.jsonl", tau_fixture_records())


@pytest.fixture
def tau_paragraphs(tmp_path):
    return write_paragraph_file(tmp_path / "paragraphs.jsonl",
                                tau_fixture_records(), [1])


def write_scores_file(path, tables):
    """(metric, lang_pair, k, {(system, doc): score}) tables, in file order."""
    rows = [(metric, lang_pair, system, doc, 0, k, score)
            for metric, lang_pair, k, scores in tables
            for (system, doc), score in scores.items()]
    with open(path, "w", encoding="utf-8") as stream:
        fileio.write_scores(rows, stream)
    return str(path)


REVERSED_SCORES = {key: -score for key, score in TAU_METRIC_SCORES.items()}
# Two metrics for the tau fixture's unit, the later one in metric order
# first, and two tables for (lang_pair, k) units that have no paragraphs.
TWO_METRIC_TABLES = [("zz", "en-de", 1, REVERSED_SCORES),
                     ("aa", "en-de", 1, TAU_METRIC_SCORES),
                     ("aa", "en-de", 2, TAU_METRIC_SCORES),
                     ("aa", "fr-en", 1, TAU_METRIC_SCORES)]


def one_system_item_paragraphs(tmp_path):
    """The tau fixture plus doc d3, which only sysA translated."""
    return write_paragraph_file(tmp_path / "one-system-item.jsonl",
                                tau_fixture_records() + [mqm(0, -1.0, "sysA", "d3")], [1])


@pytest.fixture
def tau_scores(tmp_path):
    entries = {(system, (doc, 0, 1)): score
               for (system, doc), score in TAU_METRIC_SCORES.items()}
    rows = fileio.score_rows("ext", "en-de", entries)
    path = tmp_path / "scores.tsv"
    with open(path, "w", encoding="utf-8") as stream:
        fileio.write_scores(rows, stream)
    return str(path)


@pytest.fixture
def two_dataset_paragraphs(tmp_path):
    """The tau fixture twice, as datasets wmtA and wmtB of one lang pair."""
    records = [replace(r, dataset_id=dataset, score=r.score - shift)
               for dataset, shift in (("wmtA", 0.0), ("wmtB", 1.0))
               for r in tau_fixture_records()]
    return write_paragraph_file(tmp_path / "two-datasets.jsonl", records, [1])


@pytest.fixture
def one_system_k2_paragraphs(tmp_path):
    """en-ru k=1 and k=2 units; only sysA's doc is long enough for k=2."""
    records = [mqm(0, -1.0, "sysA", "d1", lang_pair="en-ru"),
               mqm(1, -2.0, "sysA", "d1", lang_pair="en-ru"),
               mqm(0, -3.0, "sysB", "d1", lang_pair="en-ru")]
    return write_paragraph_file(tmp_path / "one-system-k2.jsonl", records, [1, 2])


@pytest.fixture
def mixed_type_paragraphs(tmp_path):
    """The tau fixture (MQM) plus a DA_Z doc d3 in the same unit."""
    records = tau_fixture_records() + [
        make_rating(0, "B", score, system_id=system, doc_id="d3")
        for system, score in (("sysA", 0.5), ("sysB", -0.5), ("sysC", 0.0))]
    path = tmp_path / "mixed.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        for score_type in ScoreType:
            fileio.write_paragraphs(build_paragraphs(
                [r for r in records if r.score_type is score_type], 1), stream)
    return str(path)


@pytest.fixture
def rich_ratings(tmp_path):
    return write_ratings(tmp_path / "rich-ratings.jsonl", rich_records())


@pytest.fixture
def rich_paragraphs(tmp_path):
    return write_paragraph_file(tmp_path / "rich-paragraphs.jsonl",
                                rich_records(), [1, 2])


def read_report(base):
    """Parse BASE.tsv and BASE.jsonl; check agreement; return jsonl rows."""
    with open(f"{base}.tsv", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n").split("\t")
        assert header == list(REPORT_HEADER)
        tsv_rows = [line.rstrip("\n").split("\t") for line in stream]
    with open(f"{base}.jsonl", encoding="utf-8") as stream:
        jsonl_rows = [json.loads(line) for line in stream]
    assert len(tsv_rows) == len(jsonl_rows)
    for tsv, row in zip(tsv_rows, jsonl_rows):
        assert len(tsv) == len(REPORT_HEADER)
        assert tsv[:2] == [row["dataset"], row["lang_pair"]]
        assert int(tsv[2]) == row["k"]
        assert tsv[3:6] == [row["metric"], row["mode"], row["statistic"]]
        assert float(tsv[6]) == row["value"]
        if row["epsilon"] is None:
            assert tsv[7] == "-"
        else:
            assert float(tsv[7]) == row["epsilon"]
    return jsonl_rows


def by_statistic(rows):
    index = {}
    for row in rows:
        assert row["statistic"] not in index
        index[row["statistic"]] = row
    return index


def usage_error(capsys, argv) -> str:
    """The stderr of ``main(argv)``, which must exit 1 as argparse exits."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    return capsys.readouterr().err


class TestValidate:
    def test_clean_file_exits_0(self, tau_ratings, capsys):
        assert main(["validate", "--ratings", tau_ratings]) == 0
        out = capsys.readouterr().out
        assert "6 records, 0 errors, 0 warnings" in out

    def test_duplicate_record_exits_2(self, tmp_path, capsys):
        records = tau_fixture_records()
        path = write_ratings(tmp_path / "dup.jsonl", records + records[:1])
        assert main(["validate", "--ratings", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "1 errors" in captured.out

    def test_gzip_input(self, tmp_path, capsys):
        plain = tmp_path / "r.jsonl"
        write_ratings(plain, tau_fixture_records())
        gz = tmp_path / "r.jsonl.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert main(["validate", "--ratings", str(gz)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_ratings_from_a_pipe(self, tau_ratings, tmp_path, capsys):
        data = Path(tau_ratings).read_bytes()
        with feeding_pipe(tmp_path / "ratings.pipe", data) as path:
            assert main(["validate", "--ratings", path]) == 0
        assert "6 records, 0 errors, 0 warnings" in capsys.readouterr().out

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["validate", "--ratings", missing]) == 2
        assert f"missing input file: {missing}" in capsys.readouterr().err

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a rating"}\n', encoding="utf-8")
        assert main(["validate", "--ratings", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_negative_sent_index_exits_2_naming_the_line(self, tau_ratings, tmp_path,
                                                          capsys):
        lines = Path(tau_ratings).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["sent_index"] = -1
        lines[1] = json.dumps(record)
        path = tmp_path / "negative.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--ratings", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: line 2: rating dataset={record['dataset_id']} "
            f"lang_pair={record['lang_pair']} system={record['system_id']} "
            f"doc={record['doc_id']} sent_index=-1: sent_index must be >= 0, got -1\n")
        assert captured.out == ""


class TestBuildParagraphs:
    def test_writes_one_file_per_k(self, tau_ratings, tmp_path, capsys):
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", tau_ratings,
                     "--k", "1,2", "--out", str(out_dir)]) == 0
        k1 = fileio.load_paragraphs(out_dir / "paragraphs-k1.jsonl")
        assert len(k1) == 6 and all(p.k == 1 for p in k1)
        # No document has two sentences: the k=2 file is empty.
        assert (out_dir / "paragraphs-k2.jsonl").read_bytes() == b""
        assert capsys.readouterr().out == (
            f"wmt/en-de k=1: 6 paragraphs -> {out_dir / 'paragraphs-k1.jsonl'}\n"
            f"k=2: 0 paragraphs -> {out_dir / 'paragraphs-k2.jsonl'}\n")

    def test_two_sentence_docs_produce_k2_windows(self, rich_ratings,
                                                  tmp_path):
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", rich_ratings,
                     "--k", "2", "--out", str(out_dir)]) == 0
        k2 = fileio.load_paragraphs(out_dir / "paragraphs-k2.jsonl")
        assert len(k2) == 6
        # MQM paragraph scores are sums over the window.
        by_system = {(p.system_id, p.doc_id): p.human_score for p in k2}
        assert by_system[("sysC", "d1")] == -11.0

    def test_window_with_a_non_finite_score_exits_2(self, tmp_path, capsys):
        # Two MQM scores whose sum really overflows.
        records = [make_rating(sent_index=i, rater_id="A", score=1.7e308,
                               score_type=ScoreType.MQM) for i in range(2)]
        ratings = write_ratings(tmp_path / "huge.jsonl", records)
        assert main(["validate", "--ratings", ratings]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", ratings,
                     "--k", "1,2", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: window dataset=wmt lang_pair=en-de system=sysA doc=doc1 "
            "start_index=0 k=2: human_score aggregates to non-finite inf\n")
        # The k=1 file was written, but a run that fails commits no output,
        # and its temp files are gone.
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []

    def test_a_negative_token_count_exits_2_naming_the_line_and_the_rating(self, tmp_path,
                                                                          capsys):
        records = [make_rating(sent_index=i, rater_id="A", token_count_ref=4)
                   for i in range(2)]
        ratings = Path(write_ratings(tmp_path / "r.jsonl", records))
        ratings.write_text(ratings.read_text(encoding="utf-8").replace(
            '"token_count_ref":4', '"token_count_ref":-4'), encoding="utf-8")
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", str(ratings), "--k", "1,2",
                     "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {ratings}: line 1: rating dataset=wmt lang_pair=en-de system=sysA "
            f"doc=doc1 sent_index=0: token_count_ref must be >= 0, got -4\n")
        assert captured.out == ""
        assert not out_dir.exists()
        assert [path.name for path in tmp_path.iterdir()] == ["r.jsonl"]

    def test_a_text_that_utf8_cannot_encode_exits_2_naming_the_rating(self, tmp_path,
                                                                      capsys):
        records = [make_rating(sent_index=i, rater_id="A") for i in range(3)]
        records[2] = replace(records[2], hypothesis_text="lone \ud800")
        ratings = tmp_path / "surrogate.jsonl"
        # JSON's \ud800 escape reads as a lone surrogate.
        ratings.write_text("".join(
            json.dumps(dict(record_fields(r), score_type=r.score_type.value)) + "\n"
            for r in records), encoding="ascii")
        out_dir = tmp_path / "built"
        # Every rating is checked before any k is cut, so k=2 fails too,
        # though no k=2 window holds the third sentence.
        for k in ("2", "2,1"):
            assert main(["build-paragraphs", "--ratings", str(ratings),
                         "--k", k, "--out", str(out_dir)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: rating dataset=wmt lang_pair=en-de system=sysA doc=doc1 sent_index=2: "
                "field hypothesis_text holds '\\ud800', which UTF-8 cannot encode\n")
            assert captured.out == ""
            assert not out_dir.exists()

    def test_da_window_whose_sum_overflows_has_a_finite_mean(self, tmp_path, capsys):
        records = [make_rating(sent_index=i, rater_id="A", score=8.98846567431158e+307)
                   for i in range(2)]
        ratings = write_ratings(tmp_path / "huge.jsonl", records)
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", ratings,
                     "--k", "2", "--out", str(out_dir)]) == 0
        [paragraph] = fileio.load_paragraphs(out_dir / "paragraphs-k2.jsonl")
        assert paragraph.human_score == 8.98846567431158e+307

    def test_duplicated_rating_exits_2_naming_the_file(self, tmp_path, capsys):
        records = tau_fixture_records()
        ratings = write_ratings(tmp_path / "dup.jsonl", records + records[:1])
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", ratings,
                     "--k", "1", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {ratings}: 1 validation error(s):\n"
                                       "duplicate rating key: dataset=")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_bad_k_spec_exits_1(self, tau_ratings, tmp_path, capsys):
        for spec in ("0", "5-2", "x"):
            with pytest.raises(SystemExit) as excinfo:
                main(["build-paragraphs", "--ratings", tau_ratings,
                      "--k", spec, "--out", str(tmp_path)])
            assert excinfo.value.code == 1


class TestExportTraining:
    def test_uniform_sample_is_subset_of_pool(self, tau_paragraphs, tmp_path,
                                              capsys):
        out = tmp_path / "sample.jsonl"
        assert main(["export-training", "--paragraphs", tau_paragraphs,
                     "--strategy", "uniform", "--size", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        sample = fileio.load_paragraphs(out)
        pool = fileio.load_paragraphs(tau_paragraphs)
        assert len(sample) == 3
        assert set(p.item_key + (p.system_id,) for p in sample) <= \
            set(p.item_key + (p.system_id,) for p in pool)
        assert "sampled 3 of 6 paragraphs" in capsys.readouterr().out

    def test_stratified_defaults_to_pool_ks(self, rich_paragraphs, tmp_path):
        out = tmp_path / "sample.jsonl"
        assert main(["export-training", "--paragraphs", rich_paragraphs,
                     "--strategy", "stratified", "--size", "4",
                     "--seed", "1", "--out", str(out)]) == 0
        sample = fileio.load_paragraphs(out)
        assert sorted(p.k for p in sample) == [1, 1, 2, 2]

    def test_explicit_ks_restrict_strata(self, rich_paragraphs, tmp_path):
        out = tmp_path / "sample.jsonl"
        assert main(["export-training", "--paragraphs", rich_paragraphs,
                     "--strategy", "stratified", "--size", "4", "--ks", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        assert all(p.k == 2 for p in fileio.load_paragraphs(out))

    def test_oversized_request_exits_2(self, tau_paragraphs, tmp_path, capsys):
        assert main(["export-training", "--paragraphs", tau_paragraphs,
                     "--strategy", "uniform", "--size", "99",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "exceeds pool size" in capsys.readouterr().err

    def test_ks_with_uniform_strategy_exits_1(self, rich_paragraphs, tmp_path,
                                              capsys):
        assert "--ks applies only to --strategy stratified" in usage_error(capsys, [
            "export-training", "--paragraphs", rich_paragraphs, "--strategy", "uniform",
            "--size", "2", "--ks", "7", "--out", str(tmp_path / "t.jsonl")])

    def test_explicit_ks_that_do_not_divide_the_size_exit_1(self, rich_paragraphs,
                                                            tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        assert ("paraeval export-training: error: sample size 4 is not divisible by "
                "the 3 strata\n") in usage_error(capsys, [
                    "export-training", "--paragraphs", rich_paragraphs, "--strategy",
                    "stratified", "--ks", "1-3", "--size", "4", "--out", out])
        # Without --ks the strata are the pool's ks (1 and 2), so the data decide.
        assert main(["export-training", "--paragraphs", rich_paragraphs,
                     "--strategy", "stratified", "--size", "3", "--out", out]) == 2
        assert "error: sample size 3 is not divisible by the 2 strata\n" in \
            capsys.readouterr().err

    def test_nonpositive_size_exits_1(self, tau_paragraphs, tmp_path, capsys):
        assert "--size" in usage_error(capsys, [
            "export-training", "--paragraphs", tau_paragraphs, "--strategy", "uniform",
            "--size", "0", "--out", str(tmp_path / "s.jsonl")])

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_negative_seed_exits_1(self, tau_paragraphs, strategy, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert "paraeval export-training: error: --seed must be >= 0, got -1\n" in \
            usage_error(capsys, ["export-training", "--paragraphs", tau_paragraphs,
                                 "--strategy", strategy, "--size", "2", "--seed", "-1",
                                 "--out", str(out)])
        assert not out.exists()

    def test_a_text_that_utf8_cannot_encode_exits_2_naming_the_paragraph(self, tmp_path,
                                                                         capsys):
        path = write_escaped_paragraph_file(tmp_path / "surrogate.jsonl", [
            make_rating(rater_id="A", hypothesis_text="lone \ud800")])
        out = tmp_path / "s.jsonl"
        assert main(["export-training", "--paragraphs", path, "--strategy", "uniform",
                     "--size", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 "
            "start_index=0 k=1: field hypothesis_text holds '\\ud800', which UTF-8 "
            "cannot encode\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("s.jsonl*"))


class TestScore:
    def test_direct_bleu_scores(self, rich_paragraphs, tmp_path, capsys):
        out = tmp_path / "scores.tsv"
        assert main(["score", "--paragraphs", rich_paragraphs,
                     "--metric", "bleu", "--out", str(out)]) == 0
        tables = fileio.load_external_scores(out)
        assert set(tables) == {("bleu-direct", "en-de", 1),
                               ("bleu-direct", "en-de", 2)}
        k2 = tables[("bleu-direct", "en-de", 2)]
        assert k2.entries[("sysA", ("d1", 0, 2))] == 100.0
        assert all(0.0 <= v <= 100.0 for v in k2.entries.values())
        assert "scored 6 paragraphs" in capsys.readouterr().out

    def test_aligned_mode_requires_ratings(self, rich_paragraphs, tmp_path,
                                           capsys):
        assert "--ratings" in usage_error(capsys, [
            "score", "--paragraphs", rich_paragraphs, "--metric", "bleu",
            "--mode", "aligned", "--out", str(tmp_path / "s.tsv")])

    def test_aligned_mode_averages_sentence_scores(self, rich_paragraphs,
                                                   rich_ratings, tmp_path):
        out = tmp_path / "aligned.tsv"
        assert main(["score", "--paragraphs", rich_paragraphs,
                     "--metric", "bleu", "--mode", "aligned",
                     "--ratings", rich_ratings, "--out", str(out)]) == 0
        tables = fileio.load_external_scores(out)
        k2 = tables[("bleu-aligned", "en-de", 2)]
        expected = (bleu_sentence(HYPOTHESES["sysB"][0], REFERENCES[0])
                    + bleu_sentence(HYPOTHESES["sysB"][1], REFERENCES[1])) / 2
        assert k2.entries[("sysB", ("d1", 0, 2))] == pytest.approx(expected)

    @pytest.mark.parametrize("doc, argv, field, value", [
        ("d\t1", [], "doc_id", "d\t1"),
        ("d1", ["--label", "a\nb"], "metric", "a\nb"),
        ("d1", ["--label", "a\rb"], "metric", "a\rb"),
    ])
    def test_a_value_the_tsv_cannot_hold_exits_2_and_writes_nothing(
            self, doc, argv, field, value, tmp_path, capsys):
        # Such a file would be refused by metaeval --scores ("expected 7
        # columns"), so score refuses to write it.
        records = [replace(r, doc_id=doc) if r.doc_id == "d1" else r
                   for r in tau_fixture_records()]
        paragraphs = write_paragraph_file(tmp_path / "p.jsonl", records, [1])
        out = tmp_path / "scores.tsv"
        assert main(["score", "--paragraphs", paragraphs, *argv,
                     "--out", str(out)]) == 2
        assert f"error: row 1: {field} {value!r} holds a tab or line break" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl"]

    def test_a_line_that_stdout_cannot_encode_exits_2_and_writes_nothing(self, tmp_path,
                                                                          capsys):
        # The scores file has no dataset column, so only the unit's line holds it.
        records = [replace(r, dataset_id="d\ud800") for r in tau_fixture_records()]
        paragraphs = write_escaped_paragraph_file(tmp_path / "p.jsonl", records)
        assert main(["score", "--paragraphs", paragraphs,
                     "--out", str(tmp_path / "S.tsv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: stdout cannot encode 'd\\ud800/en-de k=1: scored 6 "
                                "paragraphs (bleu-direct)': surrogates not allowed\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["p.jsonl"]

    def test_label_overrides_metric_column(self, rich_paragraphs, tmp_path):
        out = tmp_path / "scores.tsv"
        assert main(["score", "--paragraphs", rich_paragraphs,
                     "--metric", "bleu", "--label", "bleu-main",
                     "--out", str(out)]) == 0
        assert {key[0] for key in fileio.load_external_scores(out)} == \
            {"bleu-main"}


class TestMetaeval:
    def test_segment_report_on_tau_fixture(self, tau_paragraphs, tau_scores,
                                           tmp_path):
        base = tmp_path / "report"
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--tau-opt", "--pearson",
                     "--ties", "--out", str(base)]) == 0
        rows = by_statistic(read_report(base))
        for row in rows.values():
            assert (row["dataset"], row["lang_pair"], row["k"]) == \
                ("wmt", "en-de", 1)
            assert (row["metric"], row["mode"]) == ("ext", "external")

        segment = rows["segment_accuracy"]
        assert segment["value"] == float(Fraction(5, 6))
        assert segment["epsilon"] == 0.0

        tau = rows["segment_accuracy_tau_opt"]
        assert tau["value"] == 1.0
        assert tau["epsilon"] == EXPECTED_TAU_EPSILON
        assert tau["epsilon"] == pytest.approx(0.1, abs=1e-12)

        human = [0.0, 0.0, -5.0, -1.0, -2.0, -3.0]
        metric = [TAU_METRIC_SCORES[(s, d)] for d in ("d1", "d2")
                  for s in ("sysA", "sysB", "sysC")]
        assert rows["pearson_no_grouping"]["value"] == pytest.approx(
            metaeval.pearson_no_grouping(metric, human), abs=1e-12)

        assert rows["human_tie_rate"]["value"] == pytest.approx(1 / 6)
        assert rows["metric_tie_rate"]["value"] == 0.0

    def test_epsilon_flag_changes_segment_accuracy(self, tau_paragraphs,
                                                   tau_scores, tmp_path):
        base = tmp_path / "report"
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--epsilon", "0.15",
                     "--out", str(base)]) == 0
        rows = by_statistic(read_report(base))
        assert rows["segment_accuracy"]["value"] == 1.0
        assert rows["segment_accuracy"]["epsilon"] == 0.15

    def test_system_level(self, tau_paragraphs, tau_scores, tmp_path):
        base = tmp_path / "report"
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--level", "system",
                     "--out", str(base)]) == 0
        rows = by_statistic(read_report(base))
        assert rows["system_pairwise_accuracy"]["value"] == 1.0
        assert rows["system_pairwise_accuracy"]["epsilon"] is None

    def test_system_level_ignores_score_rows_outside_the_unit(self, tmp_path):
        # The metric equals the human score on every paragraph, so both rank
        # the systems alike; rows for a doc the paragraphs file lacks rank
        # them the other way round and must not enter the metric means.
        human = {"sysA": -1.0, "sysB": -2.0, "sysC": -3.0}
        records = [mqm(0, score - i, system, f"d{i}")
                   for i in range(3) for system, score in human.items()]
        paragraphs = write_paragraph_file(tmp_path / "p.jsonl", records, [1])
        entries = {(r.system_id, (r.doc_id, 0, 1)): r.score for r in records}
        entries.update({(system, ("other", start, 1)): -100.0 * score
                        for system, score in human.items() for start in range(20)})
        scores = tmp_path / "scores.tsv"
        with open(scores, "w", encoding="utf-8") as stream:
            fileio.write_scores(fileio.score_rows("ext", "en-de", entries), stream)
        for level in ("system", "segment"):
            base = tmp_path / level
            assert main(["metaeval", "--paragraphs", paragraphs, "--scores",
                         str(scores), "--level", level, "--out", str(base)]) == 0
            [row] = read_report(base)
            assert row["value"] == 1.0

    def test_builtin_metric_source(self, rich_paragraphs, rich_ratings,
                                   tmp_path):
        base = tmp_path / "report"
        assert main(["metaeval", "--paragraphs", rich_paragraphs,
                     "--metric", "bleu", "--out", str(base)]) == 0
        rows = read_report(base)
        assert {(r["k"], r["statistic"]) for r in rows} == \
            {(1, "segment_accuracy"), (2, "segment_accuracy")}
        assert all(0.0 <= r["value"] <= 1.0 for r in rows)
        assert all(r["metric"] == "bleu" and r["mode"] == "direct"
                   for r in rows)

    def test_exactly_one_source_required(self, tau_paragraphs, tau_scores,
                                         tmp_path, capsys):
        base = str(tmp_path / "report")
        assert "one of the arguments --scores --metric is required" in usage_error(
            capsys, ["metaeval", "--paragraphs", tau_paragraphs, "--out", base])
        assert "argument --metric: not allowed with argument --scores" in usage_error(
            capsys, ["metaeval", "--paragraphs", tau_paragraphs, "--scores", tau_scores,
                     "--metric", "bleu", "--out", base])

    def test_negative_epsilon_exits_1(self, tau_paragraphs, tau_scores,
                                      tmp_path, capsys):
        assert "--epsilon" in usage_error(capsys, [
            "metaeval", "--paragraphs", tau_paragraphs, "--scores", tau_scores,
            "--epsilon", "-0.5", "--out", str(tmp_path / "r")])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_1(self, value, tau_paragraphs, tau_scores,
                                        tmp_path, capsys):
        # A NaN epsilon would be written as "epsilon":NaN, which is not JSON.
        assert "--epsilon must be a finite number >= 0" in usage_error(capsys, [
            "metaeval", "--paragraphs", tau_paragraphs, "--scores", tau_scores,
            "--epsilon", value, "--out", str(tmp_path / "r")])
        assert not (tmp_path / "r.jsonl").exists()

    def test_report_value_with_a_tab_exits_2_and_writes_neither_file(
            self, tau_scores, tmp_path, capsys):
        records = [replace(r, dataset_id="wmt\tA") for r in tau_fixture_records()]
        paragraphs = write_paragraph_file(tmp_path / "p.jsonl", records, [1])
        base = tmp_path / "r"
        assert main(["metaeval", "--paragraphs", paragraphs, "--scores", tau_scores,
                     "--out", str(base)]) == 2
        assert "error: row 1: dataset 'wmt\\tA' holds a tab or line break" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl", "scores.tsv"]

    @pytest.mark.parametrize("argv", [["--tau-opt", "--pearson", "--ties"],
                                      ["--level", "system", "--pearson"]],
                             ids=["segment", "system"])
    def test_two_metrics_report_in_metric_order_and_other_units_are_ignored(
            self, argv, tau_paragraphs, tmp_path):
        expected = []
        for metric, scores in (("aa", TAU_METRIC_SCORES), ("zz", REVERSED_SCORES)):
            # Each report's .tsv is named apart from the scores file it reads.
            one = write_scores_file(tmp_path / f"{metric}-scores.tsv",
                                    [(metric, "en-de", 1, scores)])
            assert main(["metaeval", "--paragraphs", tau_paragraphs, "--scores", one,
                         *argv, "--out", str(tmp_path / metric)]) == 0
            expected += read_report(tmp_path / metric)
        both = write_scores_file(tmp_path / "both-scores.tsv", TWO_METRIC_TABLES)
        assert main(["metaeval", "--paragraphs", tau_paragraphs, "--scores", both,
                     *argv, "--out", str(tmp_path / "both")]) == 0
        assert read_report(tmp_path / "both") == expected
        assert [row["metric"] for row in expected] == \
            ["aa"] * (len(expected) // 2) + ["zz"] * (len(expected) // 2)

    def test_a_missing_row_of_a_one_system_item_is_read_only_where_needed(
            self, tmp_path, capsys):
        # Segment statistics never read the rows of an item with one system;
        # Pearson and the system means read every paragraph's row.
        paragraphs = one_system_item_paragraphs(tmp_path)
        full = write_scores_file(tmp_path / "full.tsv", [(
            "ext", "en-de", 1, {**TAU_METRIC_SCORES, ("sysA", "d3"): 0.4})])
        missing = write_scores_file(tmp_path / "missing.tsv",
                                    [("ext", "en-de", 1, TAU_METRIC_SCORES)])
        segment = ["metaeval", "--paragraphs", paragraphs, "--tau-opt", "--ties"]
        for scores in (full, missing):
            assert main([*segment, "--scores", scores,
                         "--out", str(tmp_path / f"report-{Path(scores).stem}")]) == 0
        assert read_report(tmp_path / "report-missing") == \
            read_report(tmp_path / "report-full")
        capsys.readouterr()
        for argv in ([*segment, "--pearson"],
                     ["metaeval", "--paragraphs", paragraphs, "--level", "system"]):
            assert main([*argv, "--scores", missing, "--out", str(tmp_path / "r")]) == 2
            assert capsys.readouterr().err == (
                "error: wmt/en-de k=1: score table 'ext' has no entry for system "
                "'sysA' on item ('d3', 0, 1)\n")

    def test_scores_missing_unit_exits_2(self, tau_scores, tmp_path, capsys):
        # The external file only covers k=1; a k=2 unit has no scores.
        k2_only = write_paragraph_file(tmp_path / "k2.jsonl",
                                       rich_records(), [2])
        assert main(["metaeval", "--paragraphs", k2_only,
                     "--scores", tau_scores,
                     "--out", str(tmp_path / "r")]) == 2
        assert "no external scores for unit" in capsys.readouterr().err

    def test_scores_missing_item_entry_exits_2(self, rich_paragraphs,
                                               tau_scores, tmp_path, capsys):
        # The unit is covered but the table lacks the (d1, 1, 1) item.
        assert main(["metaeval", "--paragraphs", rich_paragraphs,
                     "--scores", tau_scores,
                     "--out", str(tmp_path / "r")]) == 2
        assert "has no entry for system" in capsys.readouterr().err

    def test_scores_with_a_lax_number_exit_2(self, tau_paragraphs, tau_scores,
                                             tmp_path, capsys):
        # float() would read "1_0" as 10.0.
        lines = Path(tau_scores).read_text(encoding="utf-8").splitlines()
        fields = lines[3].split("\t")
        lines[3] = "\t".join([*fields[:-1], "1_0"])
        path = tmp_path / "lax.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["metaeval", "--paragraphs", tau_paragraphs, "--scores", str(path),
                     "--out", str(tmp_path / "r")]) == 2
        assert f"error: {path}: line 4: score is not a decimal number: '1_0'" in \
            capsys.readouterr().err

    def test_scores_for_a_lang_pair_spanning_two_datasets_exit_2(
            self, two_dataset_paragraphs, tau_scores, tmp_path, capsys):
        assert main(["metaeval", "--paragraphs", two_dataset_paragraphs,
                     "--scores", tau_scores, "--out", str(tmp_path / "r")]) == 2
        assert "lang_pair en-de spans datasets wmtA, wmtB" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("level, message", [
        ("segment", "no item has 2 or more systems with metric scores"),
        ("system", "need at least 2 systems, got 1"),
    ])
    def test_unit_that_cannot_be_evaluated_is_named(self, one_system_k2_paragraphs,
                                                    level, message, tmp_path, capsys):
        assert main(["metaeval", "--paragraphs", one_system_k2_paragraphs,
                     "--metric", "bleu", "--level", level,
                     "--out", str(tmp_path / "r")]) == 2
        assert f"error: wmt/en-ru k=2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("flags", [["--level", "segment"],
                                       ["--level", "system"],
                                       ["--level", "system", "--pearson"]])
    def test_two_paragraphs_for_one_system_and_item_exit_2(
            self, tau_paragraphs, tau_scores, flags, tmp_path, capsys):
        lines = Path(tau_paragraphs).read_text(encoding="utf-8").splitlines()
        path = tmp_path / "duplicated.jsonl"
        path.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        assert main(["metaeval", "--paragraphs", str(path), "--scores", tau_scores,
                     *flags, "--out", str(tmp_path / "r")]) == 2
        assert "error: wmt/en-de k=1: system sysA has two paragraphs for item " \
            "('d1', 0, 1)\n" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    # Of (sysB, d1) and (sysA, d2), the (doc, start, system) order of a unit's
    # items comes to sysB on d1 first, the (system, doc, start) order to sysA.
    TWO_OF_A_UNIT = {("sysB", "d1"), ("sysA", "d2")}

    @pytest.mark.parametrize("argv", [[], ["--pearson"], ["--level", "system"]],
                             ids=["segment", "pearson", "system"])
    def test_of_two_missing_rows_every_level_names_the_first_in_item_order(
            self, argv, tau_paragraphs, tmp_path, capsys):
        scores = write_scores_file(tmp_path / "missing.tsv", [("ext", "en-de", 1, {
            key: score for key, score in TAU_METRIC_SCORES.items()
            if key not in self.TWO_OF_A_UNIT})])
        assert main(["metaeval", "--paragraphs", tau_paragraphs, "--scores", scores,
                     *argv, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "error: wmt/en-de k=1: score table 'ext' has no entry for system "
            "'sysB' on item ('d1', 0, 1)\n")
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("command", ["score", "metaeval", "ties"])
    def test_of_two_duplicated_paragraphs_every_command_names_the_first_in_item_order(
            self, command, tau_paragraphs, tau_scores, tmp_path, capsys):
        lines = Path(tau_paragraphs).read_text(encoding="utf-8").splitlines()
        twice = [line for line in lines
                 if (json.loads(line)["system_id"], json.loads(line)["doc_id"])
                 in self.TWO_OF_A_UNIT]
        assert len(twice) == 2
        path = tmp_path / "duplicated.jsonl"
        path.write_text("\n".join(lines + twice) + "\n", encoding="utf-8")
        out = str(tmp_path / "r")
        argv = {"score": ["--out", f"{out}.tsv"], "ties": ["--out", out],
                "metaeval": ["--scores", tau_scores, "--out", out]}[command]
        assert main([command, "--paragraphs", str(path), *argv]) == 2
        assert capsys.readouterr().err == \
            "error: wmt/en-de k=1: system sysB has two paragraphs for item ('d1', 0, 1)\n"
        assert not list(tmp_path.glob("r*"))

    def test_unit_with_two_score_types_exits_2(self, mixed_type_paragraphs,
                                               tau_scores, tmp_path, capsys):
        assert main(["metaeval", "--paragraphs", mixed_type_paragraphs,
                     "--scores", tau_scores, "--out", str(tmp_path / "r")]) == 2
        assert "error: wmt/en-de k=1: mixed score types in one unit: DA_Z=3, MQM=6\n" \
            in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @staticmethod
    def huge_score_unit(tmp_path, metric):
        """3 systems x 2 one-sentence MQM docs; d2 is human-tied."""
        human = {"sysA": -1.0, "sysB": -2.0, "sysC": -3.0}
        records = [mqm(0, score if doc == "d1" else 0.0, system, doc)
                   for doc in ("d1", "d2") for system, score in human.items()]
        entries = {(system, (doc, 0, 1)): score
                   for (system, doc), score in metric.items()}
        scores = tmp_path / "scores.tsv"
        with open(scores, "w", encoding="utf-8") as stream:
            fileio.write_scores(fileio.score_rows("ext", "en-de", entries), stream)
        return write_paragraph_file(tmp_path / "p.jsonl", records, [1]), str(scores)

    def test_tau_opt_epsilon_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # d2's metric differences overflow to +-inf on human-tied pairs, so
        # predicting them tied pays off only at epsilon = inf, not JSON.
        paragraphs, scores = self.huge_score_unit(tmp_path, {
            ("sysA", "d1"): -1.0, ("sysB", "d1"): 0.0, ("sysC", "d1"): 1.0,
            ("sysA", "d2"): 1.7e308, ("sysB", "d2"): -1.7e308,
            ("sysC", "d2"): 1.7e308})
        assert main(["metaeval", "--paragraphs", paragraphs, "--scores", scores,
                     "--tau-opt", "--out", str(tmp_path / "r")]) == 2
        assert "error: wmt/en-de k=1: the optimal epsilon is beyond the float " \
            "range" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_system_means_of_scores_whose_sum_overflows(self, tmp_path):
        # sysA's two scores of 1e308 sum past the float range; their mean is 1e308.
        paragraphs, scores = self.huge_score_unit(tmp_path, {
            (system, doc): score for doc in ("d1", "d2")
            for system, score in (("sysA", 1e308), ("sysB", 1.0), ("sysC", -1e308))})
        base = tmp_path / "r"
        assert main(["metaeval", "--paragraphs", paragraphs, "--scores", scores,
                     "--level", "system", "--out", str(base)]) == 0
        (row,) = read_report(base)
        assert (row["statistic"], row["value"]) == ("system_pairwise_accuracy", 1.0)

    def test_pearson_of_scores_whose_sum_overflows(self, tmp_path):
        metric = {"sysA": 1.7e308, "sysB": 1.7e308, "sysC": 1.6e308}
        paragraphs, scores = self.huge_score_unit(tmp_path, {
            (system, doc): score for doc in ("d1", "d2")
            for system, score in metric.items()})
        base = tmp_path / "r"
        assert main(["metaeval", "--paragraphs", paragraphs, "--scores", scores,
                     "--pearson", "--out", str(base)]) == 0
        rows = {row["statistic"]: row["value"] for row in read_report(base)}
        # r does not depend on the scale: the same scores divided by 1e308.
        # The lists go in (system, doc) order, which r does not depend on; d2 is
        # human-tied at 0.
        assert rows["pearson_no_grouping"] == pytest.approx(metaeval.pearson_no_grouping(
            [1.7, 1.7, 1.7, 1.7, 1.6, 1.6], [-1.0, 0.0, -2.0, 0.0, -3.0, 0.0]))

    def test_no_leftover_temp_files(self, tau_paragraphs, tau_scores,
                                    tmp_path):
        base = tmp_path / "report"
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--out", str(base)]) == 0
        leftovers = [p.name for p in tmp_path.iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


class TestTies:
    def test_human_rate_alone(self, tau_paragraphs, tmp_path):
        base = tmp_path / "ties"
        assert main(["ties", "--paragraphs", tau_paragraphs,
                     "--out", str(base)]) == 0
        rows = read_report(base)
        assert len(rows) == 1
        assert rows[0]["statistic"] == "human_tie_rate"
        assert rows[0]["metric"] == "-"
        assert rows[0]["value"] == pytest.approx(1 / 6)

    def test_metric_rate_from_external_scores(self, tau_paragraphs,
                                              tau_scores, tmp_path):
        base = tmp_path / "ties"
        assert main(["ties", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--out", str(base)]) == 0
        rows = by_statistic(read_report(base))
        assert rows["human_tie_rate"]["value"] == pytest.approx(1 / 6)
        assert rows["metric_tie_rate"]["value"] == 0.0
        assert rows["metric_tie_rate"]["metric"] == "ext"

    def test_human_row_does_not_depend_on_a_score_source(self, tau_paragraphs,
                                                         tau_scores, tmp_path):
        alone, scored = tmp_path / "alone", tmp_path / "scored"
        assert main(["ties", "--paragraphs", tau_paragraphs,
                     "--out", str(alone)]) == 0
        assert main(["ties", "--paragraphs", tau_paragraphs, "--scores", tau_scores,
                     "--out", str(scored)]) == 0
        human = read_report(alone)
        assert [row["statistic"] for row in human] == ["human_tie_rate"]
        assert read_report(scored)[0] == human[0]

    def test_two_metrics_report_in_metric_order_and_other_units_are_ignored(
            self, tau_paragraphs, tmp_path):
        base = tmp_path / "ties"
        both = write_scores_file(tmp_path / "both.tsv", TWO_METRIC_TABLES)
        assert main(["ties", "--paragraphs", tau_paragraphs, "--scores", both,
                     "--out", str(base)]) == 0
        rows = read_report(base)
        assert [(row["metric"], row["statistic"]) for row in rows] == [
            ("-", "human_tie_rate"), ("aa", "metric_tie_rate"),
            ("zz", "metric_tie_rate")]
        assert [row["value"] for row in rows] == pytest.approx([1 / 6, 0.0, 0.0])

    def test_a_missing_row_of_a_one_system_item_is_not_read(self, tmp_path):
        # Tie rates read only the rows of items with two or more systems.
        paragraphs = one_system_item_paragraphs(tmp_path)
        full = write_scores_file(tmp_path / "full.tsv", [(
            "ext", "en-de", 1, {**TAU_METRIC_SCORES, ("sysA", "d3"): 0.4})])
        missing = write_scores_file(tmp_path / "missing.tsv",
                                    [("ext", "en-de", 1, TAU_METRIC_SCORES)])
        for scores in (full, missing):
            assert main(["ties", "--paragraphs", paragraphs, "--scores", scores,
                         "--out", str(tmp_path / f"ties-{Path(scores).stem}")]) == 0
        assert read_report(tmp_path / "ties-missing") == read_report(tmp_path / "ties-full")

    def test_mqm_penalties_in_another_order_are_a_human_tie(self, tmp_path, capsys):
        # Summed left to right, the first paragraph scores -1.2 and the second
        # -1.2000000000000002: one ulp apart, an ordering of two equal sums.
        records = [mqm(i, score, system, "d1") for system, scores in (
            ("sysA", [-0.1, -0.1, -1.0]), ("sysB", [-1.0, -0.1, -0.1]))
            for i, score in enumerate(scores)]
        ratings, built = write_ratings(tmp_path / "r.jsonl", records), tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", ratings, "--k", "3",
                     "--out", str(built)]) == 0
        capsys.readouterr()
        assert main(["ties", "--paragraphs", str(built / "paragraphs-k3.jsonl"),
                     "--out", str(tmp_path / "ties")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == \
            "wmt/en-de k=3: human_tie_rate(-)=1.0000"

    def test_scores_for_a_lang_pair_spanning_two_datasets_exit_2(
            self, two_dataset_paragraphs, tau_scores, tmp_path, capsys):
        assert main(["ties", "--paragraphs", two_dataset_paragraphs,
                     "--scores", tau_scores, "--out", str(tmp_path / "r")]) == 2
        assert "lang_pair en-de spans datasets wmtA, wmtB" in \
            capsys.readouterr().err

    def test_unit_without_pairs_is_named(self, one_system_k2_paragraphs, tmp_path,
                                         capsys):
        assert main(["ties", "--paragraphs", one_system_k2_paragraphs,
                     "--out", str(tmp_path / "r")]) == 2
        assert "error: wmt/en-ru k=2: no within-item system pairs" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("scores", [False, True])
    def test_unit_with_two_score_types_exits_2(self, mixed_type_paragraphs,
                                               tau_scores, scores, tmp_path, capsys):
        source = ["--scores", tau_scores] if scores else []
        assert main(["ties", "--paragraphs", mixed_type_paragraphs, *source,
                     "--out", str(tmp_path / "r")]) == 2
        assert "error: wmt/en-de k=1: mixed score types in one unit: DA_Z=3, MQM=6\n" \
            in capsys.readouterr().err

    def test_two_score_sources_exit_1(self, tau_paragraphs, tau_scores,
                                      tmp_path, capsys):
        assert "argument --metric: not allowed with argument --scores" in usage_error(
            capsys, ["ties", "--paragraphs", tau_paragraphs, "--scores", tau_scores,
                     "--metric", "bleu", "--out", str(tmp_path / "r")])


class TestCompareModes:
    def test_reports_mode_pearson_per_unit(self, rich_paragraphs,
                                           rich_ratings, tmp_path):
        base = tmp_path / "modes"
        assert main(["compare-modes", "--paragraphs", rich_paragraphs,
                     "--ratings", rich_ratings, "--metric", "bleu",
                     "--out", str(base)]) == 0
        rows = read_report(base)
        assert [(r["k"], r["statistic"], r["mode"]) for r in rows] == \
            [(1, "mode_pearson", "direct_vs_aligned"),
             (2, "mode_pearson", "direct_vs_aligned")]
        assert all(-1.0 <= r["value"] <= 1.0 for r in rows)


class TestStats:
    def test_length_percentiles_default(self, rich_paragraphs, tmp_path):
        base = tmp_path / "stats"
        assert main(["stats", "--paragraphs", rich_paragraphs,
                     "--out", str(base)]) == 0
        rows = read_report(base)
        # Every hypothesis sentence has 9 tokens, so each percentile is
        # 9 at k=1 and 18 at k=2.
        expected = {(1, "hyp_tokens_p25"): 9.0, (1, "hyp_tokens_p50"): 9.0,
                    (1, "hyp_tokens_p75"): 9.0, (2, "hyp_tokens_p25"): 18.0,
                    (2, "hyp_tokens_p50"): 18.0, (2, "hyp_tokens_p75"): 18.0}
        assert {(r["k"], r["statistic"]): r["value"] for r in rows} == expected

    def test_truncation_rows(self, rich_paragraphs, tmp_path):
        base = tmp_path / "stats"
        assert main(["stats", "--paragraphs", rich_paragraphs, "--truncation",
                     "--budget", "17", "--out", str(base)]) == 0
        rows = {(r["k"], r["statistic"]): r["value"]
                for r in read_report(base)}
        # k=1: ref+hyp = 18 tokens > 17 for all 12 paragraphs; k=2: 36 > 17.
        assert rows == {(1, "truncated_count@17"): 12.0,
                        (1, "truncated_fraction@17"): 1.0,
                        (2, "truncated_count@17"): 6.0,
                        (2, "truncated_fraction@17"): 1.0}

    def test_lengths_and_truncation_together(self, rich_paragraphs, tmp_path):
        base = tmp_path / "stats"
        assert main(["stats", "--paragraphs", rich_paragraphs, "--lengths",
                     "--truncation", "--percentiles", "50",
                     "--out", str(base)]) == 0
        statistics = {r["statistic"] for r in read_report(base)}
        assert statistics == {"hyp_tokens_p50", "truncated_count@1024",
                              "truncated_fraction@1024"}

    def test_char_counter(self, rich_paragraphs, tmp_path):
        base = tmp_path / "stats"
        assert main(["stats", "--paragraphs", rich_paragraphs,
                     "--counter", "char", "--percentiles", "50",
                     "--out", str(base)]) == 0
        rows = {(r["k"], r["statistic"]): r["value"]
                for r in read_report(base)}
        assert rows[(1, "hyp_tokens_p50")] == \
            float(len("the quick brown fox jumps over the lazy dog"))

    @pytest.mark.parametrize("spec, message", [
        ("25,x", "bad percentile list '25,x'"),
        ("0", "percentiles must lie in (0, 100), got '0'"),
        ("50,100", "percentiles must lie in (0, 100), got '50,100'"),
    ])
    def test_bad_percentiles_exit_1(self, spec, message, rich_paragraphs, tmp_path,
                                    capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--paragraphs", rich_paragraphs, "--percentiles", spec,
                  "--out", str(tmp_path / "s")])
        assert excinfo.value.code == 1
        assert f"argument --percentiles: {message}\n" in capsys.readouterr().err

    def test_a_token_count_beyond_float_range_exits_2_naming_the_group(self, tmp_path,
                                                                       capsys):
        # read_paragraphs takes any non-negative integer count.
        records = [make_rating(sent_index=0, rater_id="A", token_count_hyp=10 ** 400)]
        paragraphs = write_escaped_paragraph_file(tmp_path / "p.jsonl", records)
        assert main(["stats", "--paragraphs", paragraphs,
                     "--out", str(tmp_path / "stats")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: wmt/en-de: paragraph dataset=wmt lang_pair=en-de system=sysA doc=doc1 "
            "start_index=0 k=1: field token_count_hyp is out of float range\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["p.jsonl"]

    def test_bad_budget_exits_1(self, rich_paragraphs, tmp_path, capsys):
        assert "--budget" in usage_error(capsys, [
            "stats", "--paragraphs", rich_paragraphs, "--truncation", "--budget", "0",
            "--out", str(tmp_path / "s")])


# Every command that reads a paragraphs file, with its other arguments.
PARAGRAPH_COMMANDS = {
    "score": ["--metric", "bleu", "--out", "{out}.tsv"],
    "metaeval": ["--metric", "bleu", "--out", "{out}"],
    "ties": ["--out", "{out}"],
    "stats": ["--out", "{out}"],
    "compare-modes": ["--ratings", "{ratings}", "--out", "{out}"],
    "export-training": ["--size", "1", "--out", "{out}.jsonl"],
}


@pytest.mark.parametrize("command", sorted(PARAGRAPH_COMMANDS))
def test_empty_paragraphs_file_exits_2(command, tau_ratings, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    argv = [arg.format(out=tmp_path / "out", ratings=tau_ratings)
            for arg in PARAGRAPH_COMMANDS[command]]
    assert main([command, "--paragraphs", str(empty), *argv]) == 2
    assert f"error: no paragraphs in {empty}" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


# Every command that reads a ratings file, with its other arguments.
RATINGS_COMMANDS = {
    "validate": ["validate"],
    "build-paragraphs": ["build-paragraphs", "--k", "1,2", "--out", "{out}"],
    "compare-modes": ["compare-modes", "--paragraphs", "{paragraphs}", "--out", "{out}"],
    "score-aligned": ["score", "--paragraphs", "{paragraphs}", "--mode", "aligned",
                      "--out", "{out}.tsv"],
    "metaeval-aligned": ["metaeval", "--paragraphs", "{paragraphs}", "--metric", "bleu",
                         "--mode", "aligned", "--out", "{out}"],
    "ties-aligned": ["ties", "--paragraphs", "{paragraphs}", "--metric", "bleu",
                     "--mode", "aligned", "--out", "{out}"],
}


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("command", sorted(RATINGS_COMMANDS))
def test_a_ratings_file_without_ratings_exits_2(command, content, tau_paragraphs, tmp_path,
                                                capsys):
    ratings = tmp_path / "none.jsonl"
    ratings.write_text(content, encoding="utf-8")
    name, *argv = [arg.format(out=tmp_path / "out", paragraphs=tau_paragraphs)
                   for arg in RATINGS_COMMANDS[command]]
    assert main([name, "--ratings", str(ratings), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no ratings in {ratings}\n"
    assert captured.out == ""
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("load, kind", [
    (fileio.load_ratings, "ratings"),
    (partial(fileio.load_ratings, validate=False), "ratings"),
    (fileio.load_paragraphs, "paragraphs"),
], ids=["ratings", "unvalidated-ratings", "paragraphs"])
def test_a_loader_refuses_a_file_without_records(load, kind, content, tmp_path):
    path = tmp_path / "none.jsonl"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value) == f"no {kind} in {path}"


def test_load_ratings_validates_unless_told_not_to(tmp_path):
    path = tmp_path / "ratings.jsonl"
    records = [make_rating(score=0.5), make_rating(score=-0.5)]  # one key, twice
    with open(path, "w", encoding="utf-8") as stream:
        fileio.write_ratings(records, stream)
    assert fileio.load_ratings(path, validate=False) == records
    with pytest.raises(fileio.ValidationError) as raised:
        fileio.load_ratings(path)
    assert str(raised.value).startswith(
        f"{path}: 1 validation error(s):\nduplicate rating key: dataset=wmt")


def test_load_sim_config_reads_every_field_and_names_the_path(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(SIM_CONFIG, encoding="utf-8")
    assert fileio.load_sim_config(path) == SimConfig(
        n_items=30, n_systems=3, max_k=4, sigma_quality=1.0, sigma_human=0.5,
        sigma_metric=0.5, system_mean_spread=0.5, seed=11)
    path.write_text(SIM_CONFIG.replace("max_k = 4", "max_k = 0"), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: max_k must be >= 1"):
        fileio.load_sim_config(path)


# Commands that read no paragraph text, and score, which reads them all.
TEXT_FREE_COMMANDS = {
    "metaeval-segment": ["metaeval", "--scores", "{scores}", "--out", "{out}"],
    "metaeval-system": ["metaeval", "--scores", "{scores}", "--level", "system",
                        "--out", "{out}"],
    "ties": ["ties", "--scores", "{scores}", "--out", "{out}"],
    "score": ["score", "--metric", "bleu", "--out", "{out}.tsv"],
}


@pytest.mark.parametrize("argv, dataset, doc, message", [
    (["ties"], "d\ud800", "d1", "row 1: dataset 'd\\ud800' holds '\\ud800'"),
    (["stats"], "d\ud800", "d1", "row 1: dataset 'd\\ud800' holds '\\ud800'"),
    (["score"], "wmt", "d\ud800", "row 2: doc_id 'd\\ud800' holds '\\ud800'"),
    # A --label from argv bytes that are not UTF-8 decodes to lone surrogates.
    (["score", "--label", "b\udcff"], "wmt", "d1",
     "row 1: metric 'b\\udcff' holds '\\udcff'"),
], ids=["ties-dataset", "stats-dataset", "score-doc", "score-label"])
def test_a_value_utf8_cannot_encode_exits_2_naming_the_row_and_column(
        argv, dataset, doc, message, tmp_path, capsys):
    records = [replace(r, dataset_id=dataset, doc_id=doc if r.doc_id == "d1" else r.doc_id)
               for r in tau_fixture_records()]
    paragraphs = write_escaped_paragraph_file(tmp_path / "p.jsonl", records)
    assert main([*argv, "--paragraphs", paragraphs, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}, which UTF-8 cannot encode\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["p.jsonl"]


@pytest.mark.parametrize("command", sorted(TEXT_FREE_COMMANDS))
def test_a_text_of_the_wrong_type_exits_2_without_a_report(
        command, tau_paragraphs, tau_scores, tmp_path, capsys):
    lines = Path(tau_paragraphs).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "hypothesis_text": 3}) + "\n"
    path = tmp_path / "bad-text.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    argv = [arg.format(out=tmp_path / "out", scores=tau_scores)
            for arg in TEXT_FREE_COMMANDS[command]]
    assert main([argv[0], "--paragraphs", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: line 2: field hypothesis_text must be a string, got 3\n"
    assert not list(tmp_path.glob("out*"))


# Every command that scores paragraphs in aligned mode, with its other arguments.
ALIGNED_COMMANDS = {
    "score": ["--metric", "bleu", "--mode", "aligned", "--out", "{out}.tsv"],
    "metaeval": ["--metric", "bleu", "--mode", "aligned", "--out", "{out}"],
    "compare-modes": ["--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(ALIGNED_COMMANDS))
def test_ratings_with_other_texts_exit_2_in_aligned_mode(command, tmp_path, capsys):
    # Same keys as the ratings the paragraphs were built from, other texts.
    records = [r for r in rich_records() if r.system_id != "sysC"]
    paragraphs = write_paragraph_file(tmp_path / "p.jsonl", records, [2])
    ratings = write_ratings(tmp_path / "other.jsonl", [
        replace(r, hypothesis_text=f"other {r.hypothesis_text}",
                reference_text=f"other {r.reference_text}") for r in records])
    argv = [arg.format(out=tmp_path / "out") for arg in ALIGNED_COMMANDS[command]]
    assert main([command, "--paragraphs", paragraphs, "--ratings", ratings,
                 *argv]) == 2
    assert capsys.readouterr().err == (
        "error: wmt/en-de k=2: the rating records of paragraph dataset=wmt "
        "lang_pair=en-de system=sysA doc=d1 start_index=0 k=2 do not join to its "
        "hypothesis_text\n")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv, out, output", [
    # The k=1 file comes first and is not written either.
    (["build-paragraphs", "--ratings", "paragraphs-k2.jsonl", "--k", "1,2"], ".",
     "paragraphs-k2.jsonl"),
    # Another spelling of the input's path names the same file.
    (["export-training", "--paragraphs", "p.jsonl", "--size", "1"], "./p.jsonl", "./p.jsonl"),
    (["stats", "--paragraphs", "p.jsonl"], "p", "p.jsonl"),  # p.tsv, then p.jsonl
], ids=["build-paragraphs", "export-training", "stats"])
def test_an_output_that_is_an_input_exits_2_and_leaves_the_input(argv, out, output, tmp_path,
                                                                 capsys):
    source = tmp_path / argv[2]
    if argv[1] == "--ratings":
        write_ratings(source, rich_records())
    else:
        write_paragraph_file(source, rich_records(), [1, 2])
    before = source.read_bytes()
    assert main([*argv[:2], str(source), *argv[3:], "--out", f"{tmp_path}/{out}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: output {tmp_path}/{output} is the input {source}; "
                            "choose another --out\n")
    assert captured.out == ""
    assert source.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [source.name]


def test_a_missing_ratings_file_exits_2_in_aligned_mode(tau_paragraphs, tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["metaeval", "--paragraphs", tau_paragraphs, "--metric", "bleu",
                 "--mode", "aligned", "--ratings", missing,
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: missing input file: {missing}\n"


# An input the reader cannot decode: a gzip stream cut after its magic bytes
# or before its trailer (every line complete), or a byte that is not UTF-8.
UNDECODABLE = {
    "gzip-magic-only": (lambda data: b"\x1f\x8b",
                        "Compressed file ended before the end-of-stream marker was reached"),
    "gzip-without-trailer": (lambda data: gzip.compress(data)[:-8],
                             "Compressed file ended before the end-of-stream marker was reached"),
    "not-utf-8": (lambda data: data.replace(b"sysA", b"sys\xff", 1),
                  "'utf-8' codec can't decode byte 0xff in position "),
}
# A command that reads each kind of input last.
READERS = {
    "ratings": ["validate", "--ratings", "{ratings}"],
    "paragraphs": ["stats", "--paragraphs", "{paragraphs}", "--out", "{out}"],
    "scores": ["metaeval", "--paragraphs", "{paragraphs}", "--scores", "{scores}",
               "--out", "{out}"],
}


@pytest.mark.parametrize("cut", sorted(UNDECODABLE))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_an_undecodable_input_exits_2_naming_the_file(kind, cut, tau_ratings,
                                                      tau_paragraphs, tau_scores,
                                                      tmp_path, capsys):
    inputs = {"ratings": tau_ratings, "paragraphs": tau_paragraphs, "scores": tau_scores}
    damage, message = UNDECODABLE[cut]
    path = tmp_path / f"{kind}.gz"
    path.write_bytes(damage(Path(inputs[kind]).read_bytes()))
    inputs[kind] = str(path)
    assert main([arg.format(out=tmp_path / "out", **inputs) for arg in READERS[kind]]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not list(tmp_path.glob("out*"))


# 100,000 levels of nesting: deeper than the JSON parser can recurse.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line", [DEEP, '{"a": ' + DEEP + "}"],
                         ids=["array", "in-object"])
@pytest.mark.parametrize("argv", [["validate", "--ratings"],
                                  ["stats", "--out", "{out}", "--paragraphs"]],
                         ids=["validate", "stats"])
def test_deeply_nested_line_exits_2_naming_the_line(argv, line, tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    assert main([*argv, str(path)]) == 2
    assert f"error: {path}: line 2: invalid JSON (nested too deeply)" in \
        capsys.readouterr().err


SIM_CONFIG = """\
# toy simulator configuration
n_items = 30
n_systems = 3
max_k = 4
sigma_quality = 1.0
sigma_human = 0.5
sigma_metric = 0.5
system_mean_spread = 0.5
seed = 11
"""


class TestSimulate:
    def test_rows_match_library_curve(self, tmp_path):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG, encoding="utf-8")
        base = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--ks", "1,4", "--seeds", "3", "--out", str(base)]) == 0
        rows = {(r["k"], r["statistic"]): r["value"]
                for r in read_report(base)}
        config = SimConfig(n_items=30, n_systems=3, max_k=4,
                           sigma_quality=1.0, sigma_human=0.5,
                           sigma_metric=0.5, system_mean_spread=0.5, seed=11)
        for point in noise.noise_curve(config, [1, 4], 3):
            assert rows[(point.k, "mean_segment_accuracy")] == \
                point.mean_accuracy
            assert rows[(point.k, "std_segment_accuracy")] == \
                point.std_accuracy

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG + "bogus = 3\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 2
        assert "line 10" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("n_items = 30", "n_items 30", "line 2: expected 'key = value'"),
        ("n_items = 30", "= 30", "line 2: expected 'key = value'"),
        ("n_items = 30", "n_items = thirty", "line 2: bad value for n_items: 'thirty'"),
        ("seed = 11", "seed = 11\nseed = 12", "line 10: duplicate config key 'seed'"),
    ], ids=["no-equals", "no-key", "bad-value", "duplicate-key"])
    def test_malformed_config_line_exits_2_naming_the_line(self, old, new, message,
                                                           tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG.replace(old, new), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["sim.cfg"]

    def test_missing_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text("n_items = 5\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 2
        assert "missing keys" in capsys.readouterr().err

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"),
                                              ("1e400", "inf")])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, value, shown):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG.replace("sigma_human = 0.5",
                                                  f"sigma_human = {value}"),
                               encoding="utf-8")
        base = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(base)]) == 2
        assert capsys.readouterr().err == \
            f"error: {config_path}: sigma_human must be finite, got {shown}\n"
        assert not base.with_suffix(".tsv").exists()

    def test_fewer_than_two_systems_exits_2_naming_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG.replace("n_systems = 3", "n_systems = 1"),
                               encoding="utf-8")
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == \
            f"error: {config_path}: n_systems must be >= 2, got 1\n"
        assert [path.name for path in tmp_path.iterdir()] == ["sim.cfg"]

    @pytest.mark.parametrize("ks", ["1", "3,3"])
    def test_fewer_than_two_distinct_ks_exits_1(self, ks, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG, encoding="utf-8")
        assert usage_error(capsys, ["simulate", "--config", str(config_path),
                                    "--ks", ks, "--out", str(tmp_path / "sim")]).endswith(
            f"\nparaeval simulate: error: --ks needs at least 2 distinct k values, "
            f"got [{ks[0]}]\n")

    def test_a_k_above_the_configured_max_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG, encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--ks", "1,5",
                     "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == \
            "error: every k must lie in 1..4, got [1, 5]\n"

    def test_a_config_that_cannot_be_allocated_exits_2(self, tmp_path, capsys,
                                                        monkeypatch):
        message = ("Unable to allocate 8.73 TiB for an array with shape "
                   "(100000000000, 3, 4) and data type float64")

        def unallocatable(config):  # numpy's refusal, without allocating
            raise MemoryError(message)
        monkeypatch.setattr(noise, "simulate", unallocatable)
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG.replace("n_items = 30", "n_items = 100000000000"),
                               encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--ks", "1,4",
                     "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["sim.cfg"]

    def test_a_config_above_the_memory_limit_exits_2_before_any_draw(self, tmp_path,
                                                                      capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG.replace("n_items = 30", "n_items = 1000000000"),
                               encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--ks", "1,4",
                     "--out", str(tmp_path / "sim")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: simulate would hold {6 * 8 * 10 ** 9 * 3 * 4} bytes of arrays at once "
            f"for n_items=1000000000 n_systems=3 max_k=4, above its limit of "
            f"{noise.SIMULATE_MAX_BYTES}\n")
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["sim.cfg"]

    def test_nonpositive_seeds_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG, encoding="utf-8")
        assert "--seeds" in usage_error(capsys, [
            "simulate", "--config", str(config_path), "--seeds", "0",
            "--out", str(tmp_path / "sim")])


class TestParsing:
    def test_parse_k_spec_forms(self):
        assert parse_k_spec("1-4") == [1, 2, 3, 4]
        assert parse_k_spec("2,5,7") == [2, 5, 7]
        assert parse_k_spec("1-3,7,2") == [1, 2, 3, 7]

    @pytest.mark.parametrize("spec", ["1-10001", "10001", "2,5-10001"])
    def test_parse_k_spec_refuses_a_k_above_the_bound(self, spec):
        assert parse_k_spec("9999-10000") == [9999, 10000]
        with pytest.raises(argparse.ArgumentTypeError,
                           match=f"^k values must be <= 10000, got '{spec}'$"):
            parse_k_spec(spec)

    def test_unknown_flag_exits_1_with_suggestion(self, tau_paragraphs,
                                                  tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metaeval", "--paragraphs", tau_paragraphs,
                  "--metric", "bleu", "--out", str(tmp_path / "r"),
                  "--pearsn"])
        assert excinfo.value.code == 1
        assert "did you mean --pearson?" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("argv, typo, other", [
        (["score", "--paragraphs", "p.jsonl", "--out", "s.tsv"], ["--tau-op"], "--tau-opt"),
        (["validate", "--ratings", "r.jsonl"], ["--sed", "3"], "--seed"),
    ], ids=["score", "validate"])
    def test_a_suggestion_names_only_a_flag_of_the_command(self, argv, typo, other,
                                                           capsys):
        # `other` is a flag of another command; this one rejects it.
        err = usage_error(capsys, [*argv, *typo])
        command = argv[0]
        assert err.startswith(f"usage: paraeval {command} ")
        assert f"\nparaeval {command}: error: unrecognized arguments: {' '.join(typo)}" \
            in err
        assert other not in err
        assert set(re.findall(r"did you mean (\S+)\?", err)) <= \
            CLI_SURFACE[command] | {"-h", "--help"}


# Every usage rule that a command's parser or its body checks: the command and
# its arguments, and the message.
USAGE_RULES = {
    "aligned-without-ratings": (["score", "--paragraphs", "{paragraphs}", "--mode",
                                 "aligned", "--out", "{out}"],
                                "aligned mode needs --ratings to recover the sentence pairs"),
    "export-size": (["export-training", "--paragraphs", "{paragraphs}", "--size", "0",
                     "--out", "{out}"], "--size must be >= 1, got 0"),
    "export-seed": (["export-training", "--paragraphs", "{paragraphs}", "--size", "1",
                     "--seed", "-1", "--out", "{out}"], "--seed must be >= 0, got -1"),
    "export-ks-without-stratified": (["export-training", "--paragraphs", "{paragraphs}",
                                      "--size", "2", "--ks", "1", "--out", "{out}"],
                                     "--ks applies only to --strategy stratified"),
    "export-ks-not-dividing-size": (["export-training", "--paragraphs", "{paragraphs}",
                                     "--strategy", "stratified", "--size", "3", "--ks", "1,2",
                                     "--out", "{out}"],
                                    "sample size 3 is not divisible by the 2 strata"),
    "metaeval-epsilon": (["metaeval", "--paragraphs", "{paragraphs}", "--scores", "{scores}",
                          "--epsilon", "-1", "--out", "{out}"],
                         "--epsilon must be a finite number >= 0, got -1.0"),
    "metaeval-without-a-source": (["metaeval", "--paragraphs", "{paragraphs}",
                                   "--out", "{out}"],
                                  "one of the arguments --scores --metric is required"),
    "ties-with-two-sources": (["ties", "--paragraphs", "{paragraphs}", "--scores", "{scores}",
                               "--metric", "bleu", "--out", "{out}"],
                              "argument --metric: not allowed with argument --scores"),
    "stats-budget": (["stats", "--paragraphs", "{paragraphs}", "--truncation",
                      "--budget", "0", "--out", "{out}"], "--budget must be >= 1, got 0"),
    # An option the run would not read; no --ratings file exists.
    **{f"{command}-scores-with-ratings": (
        [command, "--paragraphs", "{paragraphs}", "--scores", "{scores}", "--ratings",
         "{out}-missing.jsonl", "--out", "{out}"],
        "--ratings applies only to a built-in --metric") for command in ("metaeval", "ties")},
    **{f"{command}-scores-aligned": (
        [command, "--paragraphs", "{paragraphs}", "--scores", "{scores}", "--mode",
         "aligned", "--out", "{out}"],
        "--mode aligned applies only to a built-in --metric") for command in ("metaeval", "ties")},
    **{f"{command}-direct-with-ratings": (
        [command, "--paragraphs", "{paragraphs}", "--metric", "bleu", "--ratings",
         "{out}-missing.jsonl", "--out", "{out}"],
        "--ratings applies only to --mode aligned") for command in ("score", "metaeval", "ties")},
    "ties-human-with-ratings": (["ties", "--paragraphs", "{paragraphs}", "--ratings",
                                 "{out}-missing.jsonl", "--out", "{out}"],
                                "--ratings applies only to a built-in --metric"),
    "ties-human-aligned": (["ties", "--paragraphs", "{paragraphs}", "--mode", "aligned",
                            "--out", "{out}"],
                           "--mode aligned applies only to a built-in --metric"),
    "stats-budget-without-truncation": (["stats", "--paragraphs", "{paragraphs}", "--budget",
                                         "12", "--out", "{out}"],
                                        "--budget applies only to --truncation"),
    "stats-percentiles-without-lengths": (["stats", "--paragraphs", "{paragraphs}",
                                           "--truncation", "--percentiles", "50",
                                           "--out", "{out}"],
                                          "--percentiles applies only to --lengths"),
    "metaeval-system-epsilon": (["metaeval", "--paragraphs", "{paragraphs}", "--scores",
                                 "{scores}", "--level", "system", "--epsilon", "0",
                                 "--out", "{out}"], "--epsilon applies only to --level segment"),
    **{f"{command}-scores-direct": (
        [command, "--paragraphs", "{paragraphs}", "--scores", "{scores}", "--mode",
         "direct", "--out", "{out}"],
        "--mode direct applies only to a built-in --metric") for command in ("metaeval", "ties")},
    "ties-human-direct": (["ties", "--paragraphs", "{paragraphs}", "--mode", "direct",
                           "--out", "{out}"], "--mode direct applies only to a built-in --metric"),
    "build-paragraphs-k-above-the-bound": (
        ["build-paragraphs", "--ratings", "{out}-missing.jsonl", "--k", "1-10001",
         "--out", "{out}"], "argument --k: k values must be <= 10000, got '1-10001'"),
    "simulate-ks-above-the-bound": (
        ["simulate", "--config", "{config}", "--ks", "1,10001", "--out", "{out}"],
        "argument --ks: k values must be <= 10000, got '1,10001'"),
    "simulate-seeds": (["simulate", "--config", "{config}", "--seeds", "0", "--out", "{out}"],
                       "--seeds must be >= 1, got 0"),
    "simulate-one-k": (["simulate", "--config", "{config}", "--ks", "2", "--out", "{out}"],
                       "--ks needs at least 2 distinct k values, got [2]"),
}


@pytest.mark.parametrize("rule", sorted(USAGE_RULES))
def test_a_usage_error_prints_its_command_s_usage_and_name(rule, tau_paragraphs, tau_scores,
                                                           tmp_path, capsys):
    argv, message = USAGE_RULES[rule]
    config = tmp_path / "sim.cfg"
    config.write_text(SIM_CONFIG, encoding="utf-8")
    err = usage_error(capsys, [arg.format(paragraphs=tau_paragraphs, scores=tau_scores,
                                          config=config, out=tmp_path / "out")
                               for arg in argv])
    assert err.startswith(f"usage: paraeval {argv[0]} ")
    assert err.endswith(f"\nparaeval {argv[0]}: error: {message}\n")
    assert not list(tmp_path.glob("out*"))


# The option strings of every subcommand. A new or removed option shows up
# here as a diff.
CLI_SURFACE = {
    "validate": {"--ratings"},
    "build-paragraphs": {"--ratings", "--k", "--out"},
    "export-training": {"--paragraphs", "--strategy", "--size", "--ks", "--seed",
                        "--out"},
    "score": {"--paragraphs", "--metric", "--mode", "--ratings", "--label",
              "--out"},
    "metaeval": {"--paragraphs", "--scores", "--metric", "--mode", "--ratings",
                 "--level", "--epsilon", "--tau-opt", "--pearson", "--ties",
                 "--out"},
    "ties": {"--paragraphs", "--scores", "--metric", "--mode", "--ratings",
             "--out"},
    "compare-modes": {"--paragraphs", "--ratings", "--metric", "--out"},
    "stats": {"--paragraphs", "--lengths", "--percentiles", "--counter",
              "--truncation", "--budget", "--out"},
    "simulate": {"--config", "--ks", "--seeds", "--out"},
}


class TestSurface:
    @staticmethod
    def subcommands():
        parser = build_parser()
        action, = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_subcommand_names(self):
        assert set(self.subcommands()) == set(CLI_SURFACE)

    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_option_strings(self, command):
        options = set(self.subcommands()[command]._option_string_actions)
        assert options - {"-h", "--help"} == CLI_SURFACE[command]


class TestEntryPoint:
    def test_module_invocation(self):
        # The child imports the same package the tests import, whether it
        # is installed or found through pytest's pythonpath setting.
        source = str(Path(paraeval.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "paraeval", "--help"],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert "COMMAND" in result.stdout

    def test_console_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("build-paragraphs", "export-training", "score",
                     "metaeval", "stats", "ties", "compare-modes",
                     "simulate", "validate"):
            assert name in out


# Runs the CLI as `python -m paraeval` does, then reports its exit code and
# whether numpy was imported.
IMPORT_PROBE = """
import runpy, sys
sys.argv[0] = "paraeval"
try:
    runpy.run_module("paraeval", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""

SCORES = ["--paragraphs", "{paragraphs}", "--scores", "{scores}", "--out", "{out}"]
IMPORT_CASES = {
    "validate": (["--ratings", "{ratings}"], False),
    "build-paragraphs": (["--ratings", "{ratings}", "--k", "1,2", "--out", "{out}"], False),
    "score": (["--paragraphs", "{paragraphs}", "--out", "{out}.tsv"], False),
    "compare-modes": (["--paragraphs", "{paragraphs}", "--ratings", "{ratings}",
                       "--out", "{out}"], False),
    "stats": (["--paragraphs", "{paragraphs}", "--out", "{out}"], False),
    "metaeval": (["--paragraphs", "{paragraphs}", "--metric", "bleu", "--out", "{out}"],
                 False),
    "metaeval --scores --level system": (SCORES + ["--level", "system"], False),
    "metaeval --scores --tau-opt --pearson --ties": (
        SCORES + ["--tau-opt", "--pearson", "--ties"], False),
    "ties --scores": (SCORES, False),
    "export-training": (["--paragraphs", "{paragraphs}", "--size", "2",
                         "--strategy", "stratified", "--out", "{out}.jsonl"], False),
    "simulate": (["--config", "{config}", "--ks", "1,4", "--seeds", "2", "--out", "{out}"],
                 True),
}


@pytest.mark.parametrize("case", list(IMPORT_CASES))
def test_only_the_statistics_commands_import_numpy(
        case, rich_ratings, rich_paragraphs, tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text(SIM_CONFIG, encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    assert main(["score", "--paragraphs", rich_paragraphs, "--out", str(scores)]) == 0
    args, loads_numpy = IMPORT_CASES[case]
    argv = [arg.format(ratings=rich_ratings, paragraphs=rich_paragraphs, config=config,
                       scores=scores, out=tmp_path / "out") for arg in args]
    source = str(Path(paraeval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, case.split()[0], *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"0 {loads_numpy}"
