import argparse
import gzip
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import make_rating
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


@pytest.fixture
def tau_ratings(tmp_path):
    return write_ratings(tmp_path / "ratings.jsonl", tau_fixture_records())


@pytest.fixture
def tau_paragraphs(tmp_path):
    return write_paragraph_file(tmp_path / "paragraphs.jsonl",
                                tau_fixture_records(), [1])


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

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["validate", "--ratings", missing]) == 2
        assert f"missing input file: {missing}" in capsys.readouterr().err

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a rating"}\n', encoding="utf-8")
        assert main(["validate", "--ratings", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestBuildParagraphs:
    def test_writes_one_file_per_k(self, tau_ratings, tmp_path, capsys):
        out_dir = tmp_path / "built"
        assert main(["build-paragraphs", "--ratings", tau_ratings,
                     "--k", "1,2", "--out", str(out_dir)]) == 0
        k1 = fileio.load_paragraphs(out_dir / "paragraphs-k1.jsonl")
        k2 = fileio.load_paragraphs(out_dir / "paragraphs-k2.jsonl")
        assert len(k1) == 6 and all(p.k == 1 for p in k1)
        assert k2 == []
        out = capsys.readouterr().out
        assert "wmt/en-de k=1: 6 paragraphs" in out
        assert "k=2: 0 paragraphs" in out

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
        assert main(["export-training", "--paragraphs", rich_paragraphs,
                     "--strategy", "uniform", "--size", "2", "--ks", "7",
                     "--out", str(tmp_path / "t.jsonl")]) == 1
        assert "--ks applies only to --strategy stratified" in \
            capsys.readouterr().err

    def test_nonpositive_size_exits_1(self, tau_paragraphs, tmp_path, capsys):
        assert main(["export-training", "--paragraphs", tau_paragraphs,
                     "--strategy", "uniform", "--size", "0",
                     "--out", str(tmp_path / "s.jsonl")]) == 1
        assert "--size" in capsys.readouterr().err


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
        assert main(["score", "--paragraphs", rich_paragraphs,
                     "--metric", "bleu", "--mode", "aligned",
                     "--out", str(tmp_path / "s.tsv")]) == 1
        assert "--ratings" in capsys.readouterr().err

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
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--out", base]) == 1
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--metric", "bleu",
                     "--out", base]) == 1
        assert "exactly one score source" in capsys.readouterr().err

    def test_negative_epsilon_exits_1(self, tau_paragraphs, tau_scores,
                                      tmp_path, capsys):
        assert main(["metaeval", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--epsilon", "-0.5",
                     "--out", str(tmp_path / "r")]) == 1
        assert "--epsilon" in capsys.readouterr().err

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

    def test_scores_for_a_lang_pair_spanning_two_datasets_exit_2(
            self, two_dataset_paragraphs, tau_scores, tmp_path, capsys):
        assert main(["metaeval", "--paragraphs", two_dataset_paragraphs,
                     "--scores", tau_scores, "--out", str(tmp_path / "r")]) == 2
        assert "lang_pair en-de spans datasets wmtA, wmtB" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

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

    def test_scores_for_a_lang_pair_spanning_two_datasets_exit_2(
            self, two_dataset_paragraphs, tau_scores, tmp_path, capsys):
        assert main(["ties", "--paragraphs", two_dataset_paragraphs,
                     "--scores", tau_scores, "--out", str(tmp_path / "r")]) == 2
        assert "lang_pair en-de spans datasets wmtA, wmtB" in \
            capsys.readouterr().err

    def test_two_score_sources_exit_1(self, tau_paragraphs, tau_scores,
                                      tmp_path, capsys):
        assert main(["ties", "--paragraphs", tau_paragraphs,
                     "--scores", tau_scores, "--metric", "bleu",
                     "--out", str(tmp_path / "r")]) == 1
        assert "at most one score source" in capsys.readouterr().err


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

    def test_bad_budget_exits_1(self, rich_paragraphs, tmp_path, capsys):
        assert main(["stats", "--paragraphs", rich_paragraphs, "--truncation",
                     "--budget", "0", "--out", str(tmp_path / "s")]) == 1
        assert "--budget" in capsys.readouterr().err


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

    def test_missing_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text("n_items = 5\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_nonpositive_seeds_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(SIM_CONFIG, encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--seeds", "0",
                     "--out", str(tmp_path / "sim")]) == 1
        assert "--seeds" in capsys.readouterr().err


class TestParsing:
    def test_parse_k_spec_forms(self):
        assert parse_k_spec("1-4") == [1, 2, 3, 4]
        assert parse_k_spec("2,5,7") == [2, 5, 7]
        assert parse_k_spec("1-3,7,2") == [1, 2, 3, 7]

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
