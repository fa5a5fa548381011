"""Mutants of paraeval that the tests must kill, and a runner that checks it.

Each mutant names a file under ``src/paraeval``, an exact snippet of that
file, the snippet's replacement, and the test ids expected to fail once the
replacement is made. For each mutant the runner copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, applies the mutant there,
runs only its tests, and prints ``killed`` or ``survived``::

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py NAME ...   # the named ones

A run that fails a test, or outlasts TIMEOUT_S, kills the mutant. The
runner exits 0 when every mutant is killed, 1 when one survives, and 2 when
a snippet does not occur exactly once or pytest stops with an error other
than a failed test (such as an unknown test id). It uses the standard
library only. ``tests/test_mutants.py`` checks, in the normal test
run, that every snippet still occurs exactly once.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "paraeval"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/paraeval
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CLI = "tests/test_cli.py"
WRITER = ("tests/test_fileio_properties.py::"
          "test_paragraph_writer_writes_the_bytes_of_write_paragraphs")
PCG = "tests/test_pcg64.py"
# cli._commit's print of the stdout lines, which comes before its renames.
PRINT = ('        text = "".join(f"{line}\\n" for line in lines)\n'
         "        try:\n            sys.stdout.write(text)\n"
         "        except UnicodeEncodeError as exc:\n"
         '            line = text[text.rfind("\\n", 0, exc.start) + 1:'
         'text.find("\\n", exc.start)]\n'
         '            raise ValueError(f"stdout cannot encode {line!r}: {exc.reason}") '
         "from None\n        sys.stdout.flush()\n")

MUTANTS = [
    Mutant("group-items-without-duplicate-check", "paragraphs.py",
           "            if before.system_id == p.system_id:\n",
           "            if False:\n",
           (f"{CLI}::TestMetaeval::test_two_paragraphs_for_one_system_and_item_exit_2",
            "tests/test_metrics_properties.py::test_a_duplicated_paragraph_is_rejected")),
    Mutant("group-items-without-score-type-check", "paragraphs.py",
           "    if len(units) > 1:\n        types = Counter(",
           "    if False:\n        types = Counter(",
           (f"{CLI}::TestMetaeval::test_unit_with_two_score_types_exits_2",
            f"{CLI}::TestTies::test_unit_with_two_score_types_exits_2",
            "tests/test_metrics_properties.py::test_a_unit_of_two_score_types_is_rejected")),
    Mutant("group-units-without-group-items", "cli.py",
           "lambda key, group: [\n        p for item in group_items(group) for p in item])\n",
           "lambda key, group: group)\n",
           (f"{CLI}::TestMetaeval::test_two_paragraphs_for_one_system_and_item_exit_2",
            f"{CLI}::TestMetaeval::test_of_two_missing_rows_every_level_names_the_first_"
            "in_item_order")),
    Mutant("missing-row-read-as-zero", "metaeval.py",
           "        return [table.entries[key] for key in keys]\n",
           "        return [table.entries.get(key, 0.0) for key in keys]\n",
           (f"{CLI}::TestMetaeval::test_scores_missing_item_entry_exits_2",
            "tests/test_metaeval.py::TestAttachMetricScores::"
            "test_missing_entry_names_system_and_item")),
    Mutant("segment-level-joins-every-row", "cli.py",
           "            if paired:\n                pairs = metaeval.pair_table(\n",
           "            metaeval._metric_scores(table, [(p.system_id, p.item_key) "
           "for p in unit_paragraphs])\n"
           "            if paired:\n                pairs = metaeval.pair_table(\n",
           (f"{CLI}::TestMetaeval::"
            "test_a_missing_row_of_a_one_system_item_is_read_only_where_needed",)),
    Mutant("ties-joins-every-row", "cli.py",
           "        for mode, table in tables(key, unit_paragraphs):\n"
           "            pairs = ",
           "        for mode, table in tables(key, unit_paragraphs):\n"
           "            metaeval._metric_scores(table, [(p.system_id, p.item_key) "
           "for p in unit_paragraphs])\n"
           "            pairs = ",
           (f"{CLI}::TestTies::test_a_missing_row_of_a_one_system_item_is_not_read",)),
    Mutant("no-dataset-span-check", "cli.py",
           "        if len(names) > 1:\n",
           "        if False:\n",
           (f"{CLI}::TestMetaeval::test_scores_for_a_lang_pair_spanning_two_datasets_exit_2",
            f"{CLI}::TestTies::test_scores_for_a_lang_pair_spanning_two_datasets_exit_2")),
    Mutant("units-in-input-order", "cli.py",
           "    return _per_unit(dict(sorted(units.items())), lambda",
           "    return _per_unit(units, lambda",
           ("tests/test_acceptance.py::"
            "test_cli_reports_are_byte_identical_across_runs_and_input_order",)),
    Mutant("reversed-metric-order", "cli.py",
           "        external.setdefault((lang_pair, k), []).append(",
           "        external.setdefault((lang_pair, k), []).insert(0, ",
           (f"{CLI}::TestMetaeval::"
            "test_two_metrics_report_in_metric_order_and_other_units_are_ignored",
            f"{CLI}::TestTies::"
            "test_two_metrics_report_in_metric_order_and_other_units_are_ignored")),
    Mutant("window-steps-one-after-a-paragraph", "paragraphs.py",
           "for a in range(0, len(run) - k + 1, k))",
           "for a in range(0, len(run) - k + 1))",
           ("tests/test_paragraphs.py::TestOracleAgreement::"
            "test_random_layouts_match_greedy_scan_oracle",
            "tests/test_paragraphs.py::TestOracleAgreement::"
            "test_windows_never_overlap_and_qualify")),
    Mutant("window-ignores-a-rater-switch", "paragraphs.py",
           "\n                        or run[-1].rater_id != record.rater_id):\n",
           "):\n",
           ("tests/test_paragraphs.py::TestBuildParagraphs::"
            "test_rater_change_forces_shift_then_reemit",)),
    Mutant("window-ignores-a-gap", "paragraphs.py",
           "(run[-1].sent_index != i - 1\n                        or ",
           "(",
           ("tests/test_paragraphs.py::TestBuildParagraphs::"
            "test_unrated_position_blocks_windows",
            "tests/test_paragraphs.py::TestOracleAgreement::"
            "test_random_layouts_match_greedy_scan_oracle")),
    Mutant("writer-joins-sentences-without-a-space", "fileio.py",
           "b\" \".join(sources),",
           "b\"\".join(sources),",
           (WRITER,)),
    Mutant("writer-sums-a-window-with-a-missing-count", "fileio.py",
           "_json_count(sum_counts(refs)),",
           "_json_count(sum(c or 0 for c in refs)),",
           (WRITER,)),
    Mutant("writer-skips-the-escape", "fileio.py",
           "cache(lambda text: _escape(text)[1:-1].encode())",
           "cache(lambda text: text.encode())",
           (WRITER,)),
    Mutant("gap-listing-cut-at-ten", "model.py",
           "for i in range(a + 1, b)), 11))\n",
           "for i in range(a + 1, b)), 10))\n",
           ("tests/test_model.py::TestValidateRatings::"
            "test_more_than_ten_unrated_positions_are_shown_cut_short",)),
    Mutant("aggregate-score-without-scaling", "model.py",
           "            return math.ldexp(reduce(add, scaled, 0.0) / len(scores), exponent)\n",
           "            return total / len(scores)\n",
           ("tests/test_paragraphs.py::test_a_da_window_whose_sum_overflows_has_its_mean",)),
    Mutant("aggregate-score-scales-back-one-power-too-far", "model.py",
           "            return math.ldexp(reduce(add, scaled, 0.0) / len(scores), exponent)\n",
           "            return math.ldexp(reduce(add, scaled, 0.0) / len(scores), "
           "exponent + 1)\n",
           ("tests/test_paragraphs.py::test_a_da_window_whose_sum_overflows_has_its_mean",)),
    Mutant("mqm-sums-in-list-order", "model.py",
           "                return math.fsum(scores)\n",
           "                return reduce(add, scores, 0.0)\n",
           ("tests/test_paragraphs.py::TestAggregateScore::"
            "test_mqm_sum_is_the_exact_sum_rounded_once",
            "tests/test_paragraphs.py::"
            "test_no_order_of_the_sentence_scores_changes_an_mqm_score",
            f"{CLI}::TestTies::test_mqm_penalties_in_another_order_are_a_human_tie")),
    Mutant("mqm-sum-past-fsum-s-range-in-list-order", "model.py",
           "                return _exact_sum(scores)\n",
           "                return reduce(add, scores, 0.0)\n",
           ("tests/test_paragraphs.py::"
            "test_no_order_of_the_sentence_scores_changes_an_mqm_score",
            "tests/test_paragraphs.py::"
            "test_a_da_mean_keeps_a_finite_plain_sum_and_an_mqm_sum_is_exact")),
    Mutant("paragraph-accepts-a-score-that-does-not-aggregate", "model.py",
           "        if math.isclose(human, expected, rel_tol=1e-9, abs_tol=1e-9):\n",
           "        if all(map(math.isfinite, scores)):\n",
           ("tests/test_fileio.py::TestParagraphsFile::test_inconsistent_human_score_rejected",
            "tests/test_fileio.py::TestParagraphsFile::"
            "test_a_paragraph_refuses_the_scores_read_paragraphs_refuses",
            "tests/test_paragraphs.py::TestBuildEvalItems::"
            "test_scores_the_reader_refuses_never_reach_an_item")),
    # A NaN or infinite human_score then reads as one that does not aggregate.
    Mutant("paragraph-accepts-a-non-finite-human-score", "model.py",
           "        if not math.isfinite(human):\n",
           "        if False:\n",
           ("tests/test_fileio.py::test_a_value_the_record_refuses_names_its_line_and_the_record",
            "tests/test_fileio.py::TestParagraphsFile::"
            "test_a_paragraph_refuses_the_scores_read_paragraphs_refuses",
            "tests/test_paragraphs.py::TestBuildEvalItems::"
            "test_scores_the_reader_refuses_never_reach_an_item")),
    Mutant("tau-sweep-takes-equal-gains", "metaeval.py",
           "        if running > gain:\n",
           "        if running >= gain:\n",
           ("tests/test_metaeval.py::TestTauOptimize",)),
    # Of the pairs at one difference, the sweep counts only the last.
    Mutant("tau-sweep-stops-inside-a-run-of-equal-differences", "metaeval.py",
           "gains[abs(d)] = gains.get(abs(d), 0) + (-w if correct else w)",
           "gains[abs(d)] = -w if correct else w",
           ("tests/test_metaeval.py::TestTauOptimize",
            "tests/test_metaeval_properties.py::"
            "test_core_matches_oracles_on_small_tied_units")),
    Mutant("segment-tie-only-below-epsilon", "metaeval.py",
           "if h == (0 if abs(d) <= epsilon else",
           "if h == (0 if abs(d) < epsilon else",
           ("tests/test_metaeval.py::TestSegmentAccuracy",)),
    Mutant("segment-agreement-ignores-the-sign", "metaeval.py",
           "if h == (0 if abs(d) <= epsilon else (d > 0) - (d < 0)))",
           "if abs(h) == (0 if abs(d) <= epsilon else 1))",
           ("tests/test_metaeval.py::TestSegmentAccuracy",)),
    Mutant("tau-correctness-ignores-the-sign", "metaeval.py",
           "        correct = h == (d > 0) - (d < 0)\n",
           "        correct = abs(h) == (d != 0)\n",
           ("tests/test_metaeval.py::TestTauOptimize",)),
    Mutant("tau-flips-only-wrong-pairs", "metaeval.py",
           "        if (h == 0) != correct:\n",
           "        if not correct:\n",
           ("tests/test_metaeval.py::TestTauOptimize",)),
    Mutant("signed-zeros-share-one-float", "fileio.py",
           "        return number(score or repr(score), score)\n",
           "        return number(score, score)\n",
           ("tests/test_fileio.py::TestSharedStrings::test_signed_zeros_read_and_write_back",)),
    Mutant("text-free-read-skips-the-text-checks", "fileio.py",
           "    for lineno, obj in _parse_lines(stream):\n",
           "    for lineno, obj in _parse_lines(stream):\n"
           "        if not texts:\n"
           "            obj.update(dict.fromkeys(_TEXTS, \"\"))\n",
           ("tests/test_cli.py::test_a_text_of_the_wrong_type_exits_2_without_a_report",
            "tests/test_fileio_properties.py::"
            "test_paragraph_reader_matches_the_field_by_field_oracle")),
    Mutant("system-metric-tie-counts-as-agreement", "metaeval.py",
           "    return sum(h == (d > 0) - (d < 0) for h, d in counted) / len(counted)\n",
           "    return sum(h == (d > 0) - (d < 0) or not d "
           "for h, d in counted) / len(counted)\n",
           ("tests/test_metaeval.py::TestSystemPairwiseAccuracy",)),
    Mutant("system-counts-human-tied-pairs", "metaeval.py",
           "    counted = [(h, d) for h, d in signs if h]\n",
           "    counted = signs\n",
           ("tests/test_metaeval.py::TestSystemPairwiseAccuracy",)),
    Mutant("uint32-takes-the-high-half-first", "sampling.py",
           "        self._half = value >> 32\n        return value & _MASK32\n",
           "        self._half = value & _MASK32\n        return value >> 32\n",
           (f"{PCG}::test_edge_cases_match_numpy",)),
    Mutant("half-word-dropped-at-each-permutation", "sampling.py",
           "        order = list(range(n))\n",
           "        order = list(range(n))\n        self._half = None\n",
           (f"{PCG}::test_sequences_from_one_generator_match_numpy",)),
    Mutant("rejection-refuses-the-bound", "sampling.py",
           "        while value > bound:\n",
           "        while value >= bound:\n",
           (f"{PCG}::test_edge_cases_match_numpy",)),
    Mutant("wide-bounds-take-32-bit-draws", "sampling.py",
           "        draw = self._next32 if bound <= _MASK32 else self._next64\n",
           "        draw = self._next32\n",
           (f"{PCG}::test_bounds_beyond_32_bits_take_64_bit_draws",)),
    Mutant("commit-prints-after-the-renames", "cli.py",
           PRINT + "        for tmp, path in temps:\n            os.replace(tmp, path)\n",
           "        for tmp, path in temps:\n            os.replace(tmp, path)\n" + PRINT,
           (f"{CLI}::TestScore::"
            "test_a_line_that_stdout_cannot_encode_exits_2_and_writes_nothing",)),
    Mutant("paragraph-writer-without-the-utf8-check", "fileio.py",
           "_write_jsonl(map(_encodable, paragraphs), _PARAGRAPH_FIELDS, stream)",
           "_write_jsonl(paragraphs, _PARAGRAPH_FIELDS, stream)",
           ("tests/test_fileio.py::TestParagraphsFile::"
            "test_write_paragraphs_names_a_string_utf8_cannot_encode",
            f"{CLI}::TestExportTraining::"
            "test_a_text_that_utf8_cannot_encode_exits_2_naming_the_paragraph")),
    Mutant("rating-writer-without-the-utf8-check", "fileio.py",
           "for r in map(_encodable, run)] for run in runs]",
           "for r in run] for run in runs]",
           (f"{CLI}::TestBuildParagraphs::"
            "test_a_text_that_utf8_cannot_encode_exits_2_naming_the_rating",
            "tests/test_fileio.py::TestParagraphsFile::"
            "test_paragraph_writer_refuses_a_rating_whose_text_is_none")),
    Mutant("commit-writes-over-an-input", "cli.py",
           "            if os.path.exists(path) and os.path.exists(source) and ",
           "            if False and ",
           (f"{CLI}::test_an_output_that_is_an_input_exits_2_and_leaves_the_input",)),
    Mutant("unknown-args-via-top-parser", "cli.py",
           "        args.error(f\"unrecognized arguments: {' '.join(unknown)}\")\n",
           "        build_parser().error(f\"unrecognized arguments: {' '.join(unknown)}\")\n",
           (f"{CLI}::TestParsing::test_unknown_flag_exits_1_with_suggestion",
            f"{CLI}::TestParsing::test_a_suggestion_names_only_a_flag_of_the_command")),
    Mutant("metaeval-source-not-required", "cli.py",
           "add_mutually_exclusive_group(required=_SOURCES[name] is _REQUIRED)",
           "add_mutually_exclusive_group(required=False)",
           (f"{CLI}::test_a_usage_error_prints_its_command_s_usage_and_name",
            f"{CLI}::TestMetaeval::test_exactly_one_source_required")),
    Mutant("check-skips-the-usage-rules", "cli.py",
           "    for commands, broken, message in _RULES:\n",
           "    for commands, broken, message in []:\n",
           ("tests/test_unread_options.py::"
            "test_an_option_the_form_does_not_give_is_read_or_refused",)),
    Mutant("k-list-without-its-bound", "cli.py",
           "            if hi > MAX_K:\n",
           "            if False:\n",
           (f"{CLI}::TestParsing::test_parse_k_spec_refuses_a_k_above_the_bound",)),
    Mutant("stats-without-the-counter-note", "cli.py",
           "    if \"counter\" in args.given and not counter.cache_info().misses:\n",
           "    if False:\n",
           ("tests/test_unread_options.py::test_a_counter_the_run_never_calls_prints_one_note",)),
    Mutant("reader-drops-the-line-number", "fileio.py",
           "            raise ParseError(lineno, str(exc)) from None\n"
           "        yield lineno, record\n",
           "            raise\n        yield lineno, record\n",
           ("tests/test_fileio.py::test_a_value_the_record_refuses_names_its_line_and_the_record",
            f"{CLI}::TestBuildParagraphs::"
            "test_a_negative_token_count_exits_2_naming_the_line_and_the_rating")),
    Mutant("model-accepts-a-negative-count", "model.py",
           "            if value is not None and value < 0:\n",
           "            if False:\n",
           ("tests/test_fileio.py::test_a_value_the_record_refuses_names_its_line_and_the_record",
            "tests/test_model.py::TestParagraphInstance::test_negative_token_count_rejected",
            f"{CLI}::TestBuildParagraphs::"
            "test_a_negative_token_count_exits_2_naming_the_line_and_the_rating")),
    Mutant("main-without-its-value-error-branch", "cli.py",
           "    except (OSError, ValueError, MemoryError) as exc:\n",
           "    except (OSError, MemoryError) as exc:\n",
           (f"{CLI}::TestValidate::test_negative_sent_index_exits_2_naming_the_line",
            f"{CLI}::TestSimulate::"
            "test_a_config_above_the_memory_limit_exits_2_before_any_draw")),
    Mutant("commit-without-its-temp-file-clean-up", "cli.py",
           "    finally:\n        for tmp, _ in temps:\n            tmp.unlink(missing_ok=True)\n",
           "    finally:\n        pass\n",
           (f"{CLI}::TestBuildParagraphs::test_window_with_a_non_finite_score_exits_2",
            f"{CLI}::TestScore::"
            "test_a_line_that_stdout_cannot_encode_exits_2_and_writes_nothing")),
    Mutant("validate-accepts-no-ratings", "fileio.py",
           "    if not records:\n        raise ValueError(f\"no ratings in {path}\")\n",
           "    if not records and validate:\n"
           "        raise ValueError(f\"no ratings in {path}\")\n",
           (f"{CLI}::test_a_ratings_file_without_ratings_exits_2",
            f"{CLI}::test_a_loader_refuses_a_file_without_records")),
    Mutant("paragraph-loader-accepts-an-empty-file", "fileio.py",
           "    if not paragraphs:\n        raise ValueError(f\"no paragraphs in {path}\")\n",
           "",
           (f"{CLI}::test_empty_paragraphs_file_exits_2",
            f"{CLI}::test_a_loader_refuses_a_file_without_records")),
    Mutant("agreement-skips-the-last-system", "noise.py",
           "                    for a in range(n - 1))\n",
           "                    for a in range(n - 2))\n",
           ("tests/test_noise.py::test_agreement_counts_every_pair_of_systems",)),
]


def mutated(mutant: Mutant, source: str) -> str:
    """The source with the mutant's snippet replaced; the snippet must occur once."""
    count = source.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {count} times in "
                         f"{mutant.file}, expected once")
    return source.replace(mutant.snippet, mutant.replacement)


def outcome(mutant: Mutant) -> str:
    """``killed`` or ``survived``, from a run of the mutant's tests on a copy."""
    with tempfile.TemporaryDirectory(prefix="paraeval-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "paraeval" / mutant.file
        path.write_text(mutated(mutant, path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        try:
            # pyproject.toml puts the copy's src/ first on the import path.
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=copy, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if result.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}:\n"
                           f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return "survived" if result.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        print(f"error: unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] if names else MUTANTS
    start = time.perf_counter()
    killed = 0
    try:
        for mutant in chosen:
            result = outcome(mutant)
            killed += result == "killed"
            print(f"{result}\t{mutant.name}", flush=True)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"killed {killed} of {len(chosen)} in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
