"""Command-line front end for batch dataset builds, scoring, and reports.

Exit codes: 0 on success, 1 on usage errors (bad flags, bad ranges), 2 on
data errors (missing or malformed inputs, invariant violations). The
subcommand's parser prints every usage error, argparse's or a command's own
(``args.error``): its usage line, then ``paraeval CMD: error: ...``.

Report-producing subcommands take ``--out BASE`` and write ``BASE.tsv``
and ``BASE.jsonl`` with identical rows; every row carries the full
evaluation-unit key (dataset, lang_pair, k, metric, mode) plus the
statistic name, its value, and the epsilon it was computed at (``-`` /
null when not applicable). Each file goes to a temp file beside its target;
stdout is printed after every file is written and before any is renamed,
so a run that fails anywhere, even on a stdout line, leaves no output file.
Evaluation units are processed one at a time in canonical (dataset,
lang_pair, k) order, each in (doc, start, system) order, so a report, or
the row an error names, does not depend on the input's order.

Each input option (``_INPUTS``) is read by its loader in ``fileio``.
``score``, ``metaeval`` and ``ties`` take each unit's score tables from
``_load_units``: the built-in ``--metric`` scores the unit's paragraphs
whole (direct mode) or as the mean of their aligned sentences, or the
``--scores`` file gives the tables of the unit's lang_pair and k, one per
metric in metric order. Tables for units without paragraphs go unused.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import fileio, metaeval, metrics, noise, sampling
from .model import ParagraphInstance, ScoreTable, validate_ratings
from .paragraphs import build_eval_items, group_items, rater_runs

UnitKey = tuple  # (dataset_id, lang_pair, k)
_INPUTS = ("ratings", "paragraphs", "scores", "config")  # the options that name input files


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 on usage errors, suggesting from its own flags."""

    def error(self, message):
        if "unrecognized arguments" in message:
            known = sorted(self._option_string_actions)
            for token in re.findall(r"--?[\w-]+", message):
                close = difflib.get_close_matches(token, known, n=1)
                if close:
                    message += f" (did you mean {close[0]}?)"
                    break
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_k_spec(spec: str) -> list[int]:
    """Parse '1-10', '2,5,7', or a mix into a sorted list of distinct ks."""
    ks = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if "-" in part[1:]:
                lo, _, hi = part.partition("-")
                lo, hi = int(lo), int(hi)
                if lo > hi:
                    raise argparse.ArgumentTypeError(
                        f"empty range {lo}-{hi} in {spec!r}")
                ks.extend(range(lo, hi + 1))
            else:
                ks.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {spec!r}; "
                                         f"expected forms like '1-10' or '2,5,7'")
    if not ks or min(ks) < 1:
        raise argparse.ArgumentTypeError(f"k values must be >= 1, got {spec!r}")
    return sorted(set(ks))


def _parse_percentiles(spec: str) -> list[float]:
    try:
        values = [float(part) for part in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad percentile list {spec!r}")
    if not values or any(not 0 < p < 100 for p in values):
        raise argparse.ArgumentTypeError(
            f"percentiles must lie in (0, 100), got {spec!r}")
    return values


def _commit(args, outputs: list[tuple], lines: Iterable[str]) -> int:
    """Write each (path, write) output to a temp file beside it, print the lines
    (which the writes may add to), then rename the files; if any step fails,
    every temp file is deleted. An output that is one of the command's input
    files is refused before anything is written, and a line stdout cannot
    encode is an error quoting it."""
    inputs = [vars(args)[name] for name in _INPUTS if vars(args).get(name)]
    for path, _ in outputs:
        for source in inputs:
            if os.path.exists(path) and os.path.exists(source) and os.path.samefile(path, source):
                raise ValueError(f"output {path} is the input {source}; choose another --out")
    temps = []
    try:
        for path, write in outputs:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            temps.append((path.with_name(f"{path.name}.tmp{os.getpid()}"), path))
            with open(temps[-1][0], "w", encoding="utf-8", newline="") as stream:
                write(stream)
        text = "".join(f"{line}\n" for line in lines)
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            line = text[text.rfind("\n", 0, exc.start) + 1:text.find("\n", exc.start)]
            raise ValueError(f"stdout cannot encode {line!r}: {exc.reason}") from None
        sys.stdout.flush()
        for tmp, path in temps:
            os.replace(tmp, path)
        return 0
    finally:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    lang_pair: str
    k: int
    metric: str
    mode: str
    statistic: str
    value: float
    epsilon: Optional[float] = None


REPORT_HEADER = tuple(field.name for field in fields(ReportRow))


def _report(per_unit: dict, line: Callable[[tuple, list], str], args) -> int:
    """Write all units' rows to ``--out``.tsv and .jsonl; print a line per unit and the total."""
    rows = [row for unit_rows in per_unit.values() for row in unit_rows]
    tsv, jsonl = f"{args.out}.tsv", f"{args.out}.jsonl"
    return _commit(args, [(tsv, partial(fileio.write_tsv, REPORT_HEADER,
                                        (vars(row).values() for row in rows))),
                          (jsonl, partial(fileio._write_jsonl, rows, REPORT_HEADER))],
                   [*(line(key, unit_rows) for key, unit_rows in per_unit.items()),
                    f"wrote {len(rows)} rows -> {tsv}, {jsonl}"])


def _unit_name(key: tuple) -> str:
    """'dataset/lang_pair k=K' for a unit, 'dataset/lang_pair' for a stats group."""
    return f"{key[0]}/{key[1]}" + (f" k={key[2]}" if key[2:] else "")


def _per_unit(units: dict, unit_rows: Callable[[UnitKey, list], list]) -> dict:
    """Each unit's rows; a unit that cannot be evaluated is named in the error,
    as is one whose scores overflow a float sum (exit 2, not a traceback)."""
    per_unit = {}
    for key, unit_paragraphs in units.items():
        try:
            per_unit[key] = unit_rows(key, unit_paragraphs)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"{_unit_name(key)}: {exc}") from None
    return per_unit


def _group_units(paragraphs: Iterable[ParagraphInstance]
                 ) -> dict[UnitKey, list[ParagraphInstance]]:
    """Split paragraphs into canonically ordered (dataset, lang_pair, k) units.

    ``group_items`` checks each unit's rules and gives its (doc, start, system)
    order; ``_per_unit`` names a unit that breaks one.
    """
    units: dict[UnitKey, list[ParagraphInstance]] = {}
    for p in paragraphs:
        units.setdefault((p.dataset_id, p.lang_pair, p.k), []).append(p)
    return _per_unit(dict(sorted(units.items())), lambda key, group: [
        p for item in group_items(group) for p in item])


def _load_units(args) -> tuple[dict[UnitKey, list[ParagraphInstance]], Callable]:
    """The paragraphs grouped into units, and a function giving a unit's
    (mode label, table) pairs, each table named by its metric: the built-in
    --metric's scores, else the --scores tables of the unit's lang_pair and k
    in metric order, else none. The paragraphs keep their texts only if a
    built-in metric scores them; --ratings and --mode aligned go only with a
    built-in metric, and --ratings only with aligned mode, which needs it.

    The scores file has no dataset column, so a lang_pair that spans two
    datasets would have one dataset's scores applied to the other's units.
    """
    if args.metric is None and (args.ratings is not None or args.mode == "aligned"):
        args.error(f"{'--mode aligned' if args.ratings is None else '--ratings'} "
                   "applies only to a built-in --metric")
    if args.ratings is not None and args.mode == "direct":
        args.error("--ratings applies only to --mode aligned")
    if args.metric is not None and args.mode == "aligned" and args.ratings is None:
        args.error("aligned mode needs --ratings to recover the sentence pairs")
    units = _group_units(fileio.load_paragraphs(args.paragraphs, texts=args.metric is not None))
    if args.metric is not None:
        score = (metrics.score_direct if args.mode == "direct" else partial(
            metrics.score_aligned_avg, records=fileio.load_ratings(args.ratings)))
        return units, lambda key, unit_paragraphs: [(args.mode, score(unit_paragraphs))]
    if args.scores is None:  # ties rates the human scores alone
        return units, lambda key, unit_paragraphs: []
    for lang_pair in sorted({lang_pair for _, lang_pair, _ in units}):
        names = sorted({dataset for dataset, lp, _ in units if lp == lang_pair})
        if len(names) > 1:
            raise ValueError(f"lang_pair {lang_pair} spans datasets {', '.join(names)}, "
                             f"but the scores file has no dataset column to tell them apart")
    external: dict[tuple[str, int], list] = {}
    for (_, lang_pair, k), table in fileio.load_external_scores(args.scores).items():
        external.setdefault((lang_pair, k), []).append(("external", table))

    def external_tables(key, unit_paragraphs):
        if key[1:] not in external:
            raise ValueError("no external scores for unit")
        return external[key[1:]]
    return units, external_tables


def _paired_scores(table: ScoreTable,
                   unit_paragraphs: list[ParagraphInstance]
                   ) -> tuple[list, list[float], list[float]]:
    """The unit's (system, item) keys, and metric and human scores aligned with them."""
    keys = [(p.system_id, p.item_key) for p in unit_paragraphs]
    return keys, metaeval._metric_scores(table, keys), [p.human_score for p in unit_paragraphs]


# --- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    records = fileio.load_ratings(args.ratings, validate=False)
    report = validate_ratings(records)
    for line in report.errors:
        print(f"error: {line}", file=sys.stderr)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"{args.ratings}: {len(records)} records, "
          f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return 0 if report.ok else 2


def cmd_build_paragraphs(args) -> int:
    records = fileio.load_ratings(args.ratings)
    # The runs are found once and every k is cut from them. The writer checks
    # every rating and makes its row of escaped bytes once, before the first k,
    # and each line as it is written: the runs and the rows are in memory.
    writer = fileio.ParagraphWriter(rater_runs(records))
    lines = []

    def write(k, path, stream):
        counts = writer.write(k, stream)
        if not counts:
            lines.append(f"k={k}: 0 paragraphs -> {path}")
        for (dataset, lang_pair), n in sorted(counts.items()):
            lines.append(f"{dataset}/{lang_pair} k={k}: {n} paragraphs -> {path}")

    paths = {k: Path(args.out) / f"paragraphs-k{k}.jsonl" for k in args.k}
    return _commit(args, [(p, partial(write, k, p)) for k, p in paths.items()], lines)


def cmd_export_training(args) -> int:
    if args.size < 1:
        args.error(f"--size must be >= 1, got {args.size}")
    if args.seed < 0:
        args.error(f"--seed must be >= 0, got {args.seed}")
    if args.ks is not None and args.strategy != "stratified":
        args.error("--ks applies only to --strategy stratified")
    if args.ks is not None and args.size % len(args.ks):
        args.error(f"sample size {args.size} is not divisible by the {len(args.ks)} strata")
    pool = fileio.load_paragraphs(args.paragraphs)
    if args.strategy == "stratified":
        ks = args.ks if args.ks is not None else sorted({p.k for p in pool})
        sample = sampling.sample_stratified(pool, args.size, ks, args.seed)
    else:
        sample = sampling.sample_uniform(pool, args.size, args.seed)
    return _commit(args, [(args.out, partial(fileio.write_paragraphs, sample))],
                   [f"sampled {len(sample)} of {len(pool)} paragraphs -> {args.out}"])


def cmd_score(args) -> int:
    units, tables = _load_units(args)
    label = args.label or f"{args.metric}-{args.mode}"
    per_unit = _per_unit(units, lambda key, unit_paragraphs: [
        row for _, table in tables(key, unit_paragraphs)
        for row in fileio.score_rows(label, key[1], table.entries)])
    rows = [row for unit_rows in per_unit.values() for row in unit_rows]
    return _commit(args, [(args.out, partial(fileio.write_scores, rows))], [
        *(f"{_unit_name(key)}: scored {len(unit_rows)} paragraphs ({label})"
          for key, unit_rows in per_unit.items()), f"wrote {len(rows)} scores -> {args.out}"])


def cmd_metaeval(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon >= 0):
        args.error(f"--epsilon must be a finite number >= 0, got {args.epsilon}")
    units, tables = _load_units(args)
    paired = args.level == "segment" or args.tau_opt or args.ties

    def unit_rows(key, unit_paragraphs):
        dataset, lang_pair, k = key
        rows = []
        items = build_eval_items(unit_paragraphs, k) if paired else None
        for mode, table in tables(key, unit_paragraphs):
            def row(statistic, value, epsilon=None):
                rows.append(ReportRow(dataset, lang_pair, k, table.metric_name, mode,
                                      statistic, value, epsilon))
            if paired:
                pairs = metaeval.pair_table(
                    metaeval.attach_metric_scores(items, table))
            if args.level == "system":
                # Both means run over exactly the unit's (system, item) keys.
                keys, xs, ys = _paired_scores(table, unit_paragraphs)
                accuracy = metaeval.system_pairwise_accuracy(
                    metaeval.system_scores(dict(zip(keys, xs))),
                    metaeval.system_scores(dict(zip(keys, ys))))
                row("system_pairwise_accuracy", accuracy)
            else:
                row("segment_accuracy",
                    metaeval.segment_accuracy(pairs, args.epsilon),
                    args.epsilon)
            if args.tau_opt:
                calibration = metaeval.tau_optimize(pairs)
                row("segment_accuracy_tau_opt", calibration.accuracy_at_epsilon,
                    calibration.epsilon)
            if args.pearson:
                if args.level == "segment":  # the system level joined them above
                    _, xs, ys = _paired_scores(table, unit_paragraphs)
                row("pearson_no_grouping", metaeval.pearson_no_grouping(xs, ys))
            if args.ties:
                row("human_tie_rate", metaeval.tie_rates(pairs.human))
                row("metric_tie_rate", metaeval.tie_rates(pairs.metric))
        return rows

    return _report(_per_unit(units, unit_rows), lambda key, rows: f"{_unit_name(key)}: "
                   + ", ".join(f"{r.statistic}={r.value:.4f}" for r in rows), args)


def cmd_ties(args) -> int:
    units, tables = _load_units(args)

    def unit_rows(key, unit_paragraphs):
        dataset, lang_pair, k = key
        items = build_eval_items(unit_paragraphs, k)
        rows = [ReportRow(dataset, lang_pair, k, "-", "-", "human_tie_rate",
                          metaeval.tie_rates(metaeval.pair_table(items).human))]
        for mode, table in tables(key, unit_paragraphs):
            pairs = metaeval.pair_table(metaeval.attach_metric_scores(items, table))
            rows.append(ReportRow(dataset, lang_pair, k, table.metric_name, mode,
                                  "metric_tie_rate", metaeval.tie_rates(pairs.metric)))
        return rows

    return _report(_per_unit(units, unit_rows), lambda key, rows: "\n".join(
        f"{_unit_name(key)}: {r.statistic}({r.metric})={r.value:.4f}" for r in rows),
        args)


def cmd_compare_modes(args) -> int:
    units = _group_units(fileio.load_paragraphs(args.paragraphs))
    records = fileio.load_ratings(args.ratings)

    def unit_rows(key, unit_paragraphs):
        direct = metrics.score_direct(unit_paragraphs)
        aligned = metrics.score_aligned_avg(unit_paragraphs, records)
        return [ReportRow(*key, args.metric, "direct_vs_aligned", "mode_pearson",
                          metaeval.mode_correlation(direct, aligned))]

    return _report(_per_unit(units, unit_rows), lambda key, rows:
                   f"{_unit_name(key)}: mode_pearson={rows[0].value:.4f}", args)


def cmd_stats(args) -> int:
    want_lengths = args.lengths or not args.truncation
    if args.budget is not None and not args.truncation:
        args.error("--budget applies only to --truncation")
    if args.percentiles is not None and not want_lengths:
        args.error("--percentiles applies only to --lengths")
    budget = 1024 if args.budget is None else args.budget
    percentiles = args.percentiles or [25.0, 50.0, 75.0]
    if budget < 1:
        args.error(f"--budget must be >= 1, got {budget}")
    paragraphs = fileio.load_paragraphs(args.paragraphs)
    counter = (metrics.char_token_count if args.counter == "char"
               else metrics.whitespace_token_count)
    groups: dict[tuple[str, str], list[ParagraphInstance]] = {}
    for p in paragraphs:
        groups.setdefault((p.dataset_id, p.lang_pair), []).append(p)

    def group_rows(key, group):
        rows = []
        if want_lengths:
            for k, per_percentile in metrics.length_percentiles(
                    group, counter, percentiles).items():
                for percentile, count in per_percentile.items():
                    try:
                        value = float(count)
                    except OverflowError:  # only a count read from the file is this large
                        p = next(p for p in group if p.k == k and p.token_count_hyp == count)
                        raise ValueError(f"{p.name}: field token_count_hyp "
                                         f"is out of float range") from None
                    rows.append(ReportRow(*key, k, "-", "-", f"hyp_tokens_p{percentile:g}",
                                          value))
        if args.truncation:
            for k, (count, fraction) in metrics.truncation_stats(
                    group, counter, budget).items():
                rows.append(ReportRow(*key, k, "-", "-", f"truncated_count@{budget}",
                                      float(count)))
                rows.append(ReportRow(*key, k, "-", "-", f"truncated_fraction@{budget}",
                                      fraction))
        return rows

    return _report(_per_unit(dict(sorted(groups.items())), group_rows), lambda _, rows:
                   "\n".join(f"{r.dataset}/{r.lang_pair} k={r.k}: {r.statistic}={r.value:g}"
                              for r in rows), args)


def cmd_simulate(args) -> int:
    if args.seeds < 1:
        args.error(f"--seeds must be >= 1, got {args.seeds}")
    if len(args.ks) < 2:
        args.error(f"--ks needs at least 2 distinct k values, got {args.ks}")
    config = fileio.load_sim_config(args.config)
    per_k = {}
    for point in noise.noise_curve(config, args.ks, args.seeds):
        row = partial(ReportRow, "sim", "-", point.k, "simulated", "-")
        per_k[point.k] = [row("mean_segment_accuracy", point.mean_accuracy, 0.0),
                          row("std_segment_accuracy", point.std_accuracy, 0.0)]
    return _report(per_k, lambda k, rows: f"k={k}: mean segment accuracy "
                   f"{rows[0].value:.4f} (std {rows[1].value:.4f}, {args.seeds} seeds)",
                   args)


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="paraeval",
                     description="Build paragraph-level MT evaluation data, "
                                 "score it, and meta-evaluate metrics.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="COMMAND")

    def add(name, func, help_text):
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(func=func, error=sub.error)
        return sub

    sub = add("validate", cmd_validate, "Check a ratings file's invariants.")
    sub.add_argument("--ratings", required=True, help="ratings .jsonl[.gz]")

    sub = add("build-paragraphs", cmd_build_paragraphs,
              "Build sliding-window paragraphs from sentence ratings.")
    sub.add_argument("--ratings", required=True, help="ratings .jsonl[.gz]")
    sub.add_argument("--k", type=parse_k_spec, default=list(range(1, 11)),
                     help="window sizes, e.g. '1-10' or '2,5' (default 1-10)")
    sub.add_argument("--out", required=True,
                     help="output directory for paragraphs-k<k>.jsonl files")

    sub = add("export-training", cmd_export_training,
              "Sample a reproducible training subset of paragraphs.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--strategy", choices=("uniform", "stratified"),
                     default="uniform")
    sub.add_argument("--size", type=int, required=True, help="sample size")
    sub.add_argument("--ks", type=parse_k_spec, default=None,
                     help="strata for the stratified strategy "
                          "(default: ks present in the pool)")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--out", required=True, help="output .jsonl path")

    sub = add("score", cmd_score, "Score paragraphs with a built-in metric.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--metric", choices=metrics.BUILTIN_METRICS,
                     default="bleu")
    sub.add_argument("--mode", choices=("direct", "aligned"), default="direct",
                     help="whole-paragraph scoring or mean over aligned "
                          "sentence pairs")
    sub.add_argument("--ratings", help="ratings file (required for aligned mode)")
    sub.add_argument("--label", help="metric column value "
                                     "(default '<metric>-<mode>')")
    sub.add_argument("--out", required=True, help="output scores .tsv path")

    sub = add("metaeval", cmd_metaeval,
              "Measure metric-human agreement per evaluation unit.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--scores", help="external scores .tsv[.gz]")
    source.add_argument("--metric", choices=metrics.BUILTIN_METRICS,
                        help="score with a built-in metric instead of --scores")
    sub.add_argument("--mode", choices=("direct", "aligned"), default="direct")
    sub.add_argument("--ratings", help="ratings file (for aligned mode)")
    sub.add_argument("--level", choices=("system", "segment"), default="segment")
    sub.add_argument("--epsilon", type=float, default=0.0,
                     help="metric tie threshold for segment accuracy")
    sub.add_argument("--tau-opt", action="store_true",
                     help="also report the optimal tie threshold")
    sub.add_argument("--pearson", action="store_true",
                     help="also report no-grouping Pearson")
    sub.add_argument("--ties", action="store_true",
                     help="also report human and metric tie rates")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("ties", cmd_ties, "Report exact-tie rates per evaluation unit.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--scores", help="external scores .tsv[.gz]")
    source.add_argument("--metric", choices=metrics.BUILTIN_METRICS,
                        help="also rate ties of a built-in metric")
    sub.add_argument("--mode", choices=("direct", "aligned"), default="direct")
    sub.add_argument("--ratings", help="ratings file (for aligned mode)")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("compare-modes", cmd_compare_modes,
              "Correlate direct vs aligned-average scoring of one metric.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--ratings", required=True, help="ratings .jsonl[.gz]")
    sub.add_argument("--metric", choices=metrics.BUILTIN_METRICS,
                     default="bleu")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("stats", cmd_stats, "Report paragraph length statistics per k.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--lengths", action="store_true",
                     help="report token-length percentiles (default when no "
                          "other statistic is selected)")
    sub.add_argument("--percentiles", type=_parse_percentiles,
                     help="comma list for --lengths (default 25,50,75)")
    sub.add_argument("--counter", choices=("whitespace", "char"),
                     default="whitespace",
                     help="token counter when counts are not precomputed")
    sub.add_argument("--truncation", action="store_true",
                     help="report how many paragraphs exceed the token budget")
    sub.add_argument("--budget", type=int,
                     help="ref+hyp token budget for --truncation (default 1024)")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("simulate", cmd_simulate,
              "Run the rater/metric noise model across window sizes.")
    sub.add_argument("--config", required=True,
                     help="flat key=value file with the noise model fields")
    sub.add_argument("--ks", type=parse_k_spec, default=[1, 2, 5, 10],
                     help="window sizes to evaluate (default 1,2,5,10)")
    sub.add_argument("--seeds", type=int, default=50,
                     help="number of seeds (default 50)")
    sub.add_argument("--out", required=True, help="report base path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # named by the command's parser, which suggests from its own flags
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: missing input file: {name}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
