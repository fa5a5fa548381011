"""Command-line front end for batch dataset builds, scoring, and reports.

Exit codes: 0 on success, 1 on usage errors (bad flags, bad ranges), 2 on
data errors (missing or malformed inputs, invariant violations).

Report-producing subcommands take ``--out BASE`` and write ``BASE.tsv``
and ``BASE.jsonl`` with identical rows; every row carries the full
evaluation-unit key (dataset, lang_pair, k, metric, mode) plus the
statistic name, its value, and the epsilon it was computed at (``-`` /
null when not applicable). All files are written atomically (temp file
in the target directory, then rename), so a crashed run never leaves a
half-written output. Evaluation units are processed one at a time in
canonical (dataset, lang_pair, k) order, so a report does not depend on
the order of the input lines.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import fileio, metaeval, metrics, noise, sampling
from .model import (ParagraphInstance, ScoreTable, SimConfig, validate_ratings)
from .paragraphs import build_eval_items, build_paragraphs

REPORT_HEADER = ("dataset", "lang_pair", "k", "metric", "mode", "statistic",
                 "value", "epsilon")

UnitKey = tuple  # (dataset_id, lang_pair, k)


class UsageError(Exception):
    """An invalid flag combination or value, detected after parsing."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 on usage errors, with a suggestion."""

    def error(self, message):
        if "unrecognized arguments" in message:
            known = sorted(getattr(self, "all_options", None)
                           or self._option_string_actions)
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


def _atomic_write(path: Path, write: Callable) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            write(stream)
        os.replace(tmp, path)
    finally:
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


def _write_report(rows: Sequence[ReportRow], out_base: str) -> str:
    tsv_path = Path(f"{out_base}.tsv")
    jsonl_path = Path(f"{out_base}.jsonl")

    def write_tsv(stream):
        stream.write("\t".join(REPORT_HEADER) + "\n")
        for row in rows:
            epsilon = "-" if row.epsilon is None else repr(row.epsilon)
            stream.write(f"{row.dataset}\t{row.lang_pair}\t{row.k}\t{row.metric}"
                         f"\t{row.mode}\t{row.statistic}\t{row.value!r}"
                         f"\t{epsilon}\n")

    def write_jsonl(stream):
        for row in rows:
            stream.write(json.dumps(
                {"dataset": row.dataset, "lang_pair": row.lang_pair, "k": row.k,
                 "metric": row.metric, "mode": row.mode,
                 "statistic": row.statistic, "value": row.value,
                 "epsilon": row.epsilon},
                ensure_ascii=False, separators=(",", ":")) + "\n")

    _atomic_write(tsv_path, write_tsv)
    _atomic_write(jsonl_path, write_jsonl)
    return f"{tsv_path}, {jsonl_path}"


def _write_scores(rows: Sequence[tuple], path: str) -> str:
    _atomic_write(Path(path), lambda stream: fileio.write_scores(rows, stream))
    return path


def _report(per_unit: dict, line: Callable[[tuple, list], str], out: str,
            write: Callable = _write_report, noun: str = "rows") -> int:
    """Write all units' rows to ``out``, then print a line per unit and the total."""
    rows = [row for unit_rows in per_unit.values() for row in unit_rows]
    written = write(rows, out)
    for key, unit_rows in per_unit.items():
        print(line(key, unit_rows))
    print(f"wrote {len(rows)} {noun} -> {written}")
    return 0


def _unit_name(key: UnitKey) -> str:
    dataset, lang_pair, k = key
    return f"{dataset}/{lang_pair} k={k}"


def _group_units(paragraphs: Iterable[ParagraphInstance]
                 ) -> dict[UnitKey, list[ParagraphInstance]]:
    """Split paragraphs into canonically ordered (dataset, lang_pair, k) units."""
    units: dict[UnitKey, list[ParagraphInstance]] = {}
    for p in paragraphs:
        units.setdefault((p.dataset_id, p.lang_pair, p.k), []).append(p)
    return {key: sorted(group, key=lambda p: p.sort_key())
            for key, group in sorted(units.items())}


def _load_units(args) -> tuple[dict[UnitKey, list[ParagraphInstance]], Optional[list]]:
    """The paragraphs grouped into units, and the ratings if --ratings is given."""
    if args.metric is not None and args.mode == "aligned" and args.ratings is None:
        raise UsageError("aligned mode needs --ratings to recover the "
                         "sentence pairs")
    units = _group_units(fileio.load_paragraphs(args.paragraphs))
    return units, (fileio.load_ratings(args.ratings) if args.ratings else None)


def _load_external(path: Optional[str], units: Iterable[UnitKey]):
    """External score tables keyed by (metric, lang_pair, k), or None.

    The scores file has no dataset column, so a lang_pair that spans two
    datasets would have one dataset's scores applied to the other's units.
    """
    if path is None:
        return None
    datasets: dict[str, set[str]] = {}
    for dataset, lang_pair, _ in units:
        datasets.setdefault(lang_pair, set()).add(dataset)
    for lang_pair, names in sorted(datasets.items()):
        if len(names) > 1:
            raise ValueError(f"lang_pair {lang_pair} spans datasets "
                             f"{', '.join(sorted(names))}, but the scores file "
                             f"has no dataset column to tell them apart")
    return fileio.load_external_scores(path)


def _builtin_table(args, unit_paragraphs: list[ParagraphInstance],
                   records) -> ScoreTable:
    metric = metrics.BUILTIN_METRICS[args.metric]
    if args.mode == "direct":
        return metrics.score_direct(metric, unit_paragraphs)
    return metrics.score_aligned_avg(metric, unit_paragraphs, records)


def _unit_tables(args, key: UnitKey, unit_paragraphs: list[ParagraphInstance],
                 records, external) -> list[tuple[str, str, ScoreTable]]:
    """(metric label, mode label, table) triples that apply to one unit."""
    _, lang_pair, k = key
    if external is not None:
        found = [(metric, "external", table)
                 for (metric, lp, table_k), table in sorted(external.items())
                 if lp == lang_pair and table_k == k]
        if not found:
            raise ValueError(f"no external scores for unit {_unit_name(key)}")
        return found
    table = _builtin_table(args, unit_paragraphs, records)
    return [(table.metric_name, args.mode, table)]


def _paired_scores(table: ScoreTable,
                   unit_paragraphs: list[ParagraphInstance]
                   ) -> tuple[list[float], list[float]]:
    """Metric and human score lists aligned over the unit's paragraphs."""
    xs, ys = [], []
    for p in sorted(unit_paragraphs, key=lambda p: p.sort_key()):
        score = table.entries.get((p.system_id, p.item_key))
        if score is None:
            raise ValueError(f"score table {table.metric_name!r} has no entry "
                             f"for system {p.system_id!r} on item {p.item_key}")
        xs.append(score)
        ys.append(p.human_score)
    return xs, ys


# --- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    with fileio.open_input(args.ratings) as stream:
        records = fileio.read_rating_lines(stream)
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
    out_dir = Path(args.out)
    for k in args.k:
        built = build_paragraphs(records, k)
        path = out_dir / f"paragraphs-k{k}.jsonl"
        _atomic_write(path, lambda stream: fileio.write_paragraphs(built, stream))
        counts = Counter((p.dataset_id, p.lang_pair) for p in built)
        if not counts:
            print(f"k={k}: 0 paragraphs -> {path}")
        for (dataset, lang_pair), n in sorted(counts.items()):
            print(f"{dataset}/{lang_pair} k={k}: {n} paragraphs -> {path}")
    return 0


def cmd_export_training(args) -> int:
    if args.size < 1:
        raise UsageError(f"--size must be >= 1, got {args.size}")
    if args.ks is not None and args.strategy != "stratified":
        raise UsageError("--ks applies only to --strategy stratified")
    pool = fileio.load_paragraphs(args.paragraphs)
    if args.strategy == "stratified":
        ks = args.ks if args.ks is not None else sorted({p.k for p in pool})
        sample = sampling.sample_stratified(pool, args.size, ks, args.seed)
    else:
        sample = sampling.sample_uniform(pool, args.size, args.seed)
    _atomic_write(Path(args.out),
                  lambda stream: fileio.write_paragraphs(sample, stream))
    print(f"sampled {len(sample)} of {len(pool)} paragraphs -> {args.out}")
    return 0


def cmd_score(args) -> int:
    units, records = _load_units(args)
    label = args.label or f"{args.metric}-{args.mode}"
    per_unit = {}
    for key, unit_paragraphs in units.items():
        table = _builtin_table(args, unit_paragraphs, records)
        per_unit[key] = fileio.score_rows(label, key[1], table.entries)
    return _report(per_unit, lambda key, rows: f"{_unit_name(key)}: scored "
                   f"{len(rows)} paragraphs ({label})",
                   args.out, _write_scores, "scores")


def cmd_metaeval(args) -> int:
    if (args.scores is None) == (args.metric is None):
        raise UsageError("exactly one score source is required: "
                         "--scores FILE or --metric NAME")
    if args.epsilon < 0:
        raise UsageError(f"--epsilon must be >= 0, got {args.epsilon}")
    units, records = _load_units(args)
    external = _load_external(args.scores, units)

    def unit_rows(key, unit_paragraphs):
        dataset, lang_pair, k = key
        rows = []
        items = build_eval_items(unit_paragraphs, k)
        for label, mode, table in _unit_tables(args, key, unit_paragraphs,
                                               records, external):
            def row(statistic, value, epsilon=None):
                rows.append(ReportRow(dataset, lang_pair, k, label, mode,
                                      statistic, value, epsilon))
            attached = metaeval.attach_metric_scores(items, table)
            # Every system of an attached item is scored, so the pairs
            # also serve the human tie rate.
            pairs = (metaeval.pair_table(attached)
                     if args.level == "segment" or args.tau_opt or args.ties
                     else None)
            if args.level == "system":
                accuracy = metaeval.system_pairwise_accuracy(
                    metaeval.system_scores(table.entries),
                    metaeval.system_scores({(p.system_id, p.item_key): p.human_score
                                            for p in unit_paragraphs}))
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
                xs, ys = _paired_scores(table, unit_paragraphs)
                row("pearson_no_grouping", metaeval.pearson_no_grouping(xs, ys))
            if args.ties:
                row("human_tie_rate", metaeval.tie_rates(pairs, metaeval.HUMAN))
                row("metric_tie_rate", metaeval.tie_rates(pairs, metaeval.METRIC))
        return rows

    per_unit = {key: unit_rows(key, unit) for key, unit in units.items()}
    return _report(per_unit, lambda key, rows: f"{_unit_name(key)}: " + ", ".join(
        f"{r.statistic}={r.value:.4f}" for r in rows), args.out)


def cmd_ties(args) -> int:
    if args.scores is not None and args.metric is not None:
        raise UsageError("at most one score source is allowed: "
                         "--scores FILE or --metric NAME")
    units, records = _load_units(args)
    external = _load_external(args.scores, units)

    def unit_rows(key, unit_paragraphs):
        dataset, lang_pair, k = key
        items = build_eval_items(unit_paragraphs, k)
        rows = [ReportRow(dataset, lang_pair, k, "-", "-", "human_tie_rate",
                          metaeval.tie_rates(items, metaeval.HUMAN))]
        if external is not None or args.metric is not None:
            for label, mode, table in _unit_tables(args, key, unit_paragraphs,
                                                   records, external):
                attached = metaeval.attach_metric_scores(items, table)
                rows.append(ReportRow(dataset, lang_pair, k, label, mode,
                                      "metric_tie_rate",
                                      metaeval.tie_rates(attached, metaeval.METRIC)))
        return rows

    per_unit = {key: unit_rows(key, unit) for key, unit in units.items()}
    return _report(per_unit, lambda key, rows: "\n".join(
        f"{_unit_name(key)}: {r.statistic}({r.metric})={r.value:.4f}" for r in rows),
        args.out)


def cmd_compare_modes(args) -> int:
    paragraphs = fileio.load_paragraphs(args.paragraphs)
    records = fileio.load_ratings(args.ratings)
    metric = metrics.BUILTIN_METRICS[args.metric]
    per_unit = {}
    for key, unit_paragraphs in _group_units(paragraphs).items():
        direct = metrics.score_direct(metric, unit_paragraphs)
        aligned = metrics.score_aligned_avg(metric, unit_paragraphs, records)
        per_unit[key] = [ReportRow(*key, args.metric, "direct_vs_aligned",
                                   "mode_pearson",
                                   metaeval.mode_correlation(direct, aligned))]
    return _report(per_unit, lambda key, rows:
                   f"{_unit_name(key)}: mode_pearson={rows[0].value:.4f}", args.out)


def cmd_stats(args) -> int:
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    paragraphs = fileio.load_paragraphs(args.paragraphs)
    counter = (metrics.char_token_count if args.counter == "char"
               else metrics.whitespace_token_count)
    want_lengths = args.lengths or not args.truncation
    groups: dict[tuple[str, str], list[ParagraphInstance]] = {}
    for p in paragraphs:
        groups.setdefault((p.dataset_id, p.lang_pair), []).append(p)
    per_group = {}
    for (dataset, lang_pair), group in sorted(groups.items()):
        rows = per_group[(dataset, lang_pair)] = []
        if want_lengths:
            for k, per_percentile in metrics.length_percentiles(
                    group, counter, args.percentiles).items():
                for percentile, count in per_percentile.items():
                    rows.append(ReportRow(dataset, lang_pair, k, "-", "-",
                                          f"hyp_tokens_p{percentile:g}",
                                          float(count)))
        if args.truncation:
            for k, (count, fraction) in metrics.truncation_stats(
                    group, counter, args.budget).items():
                rows.append(ReportRow(dataset, lang_pair, k, "-", "-",
                                      f"truncated_count@{args.budget}",
                                      float(count)))
                rows.append(ReportRow(dataset, lang_pair, k, "-", "-",
                                      f"truncated_fraction@{args.budget}",
                                      fraction))
    return _report(per_group, lambda _, rows: "\n".join(
        f"{r.dataset}/{r.lang_pair} k={r.k}: {r.statistic}={r.value:g}" for r in rows),
        args.out)


_SIM_FIELDS = {
    "n_items": int, "n_systems": int, "max_k": int, "seed": int,
    "sigma_quality": float, "sigma_human": float, "sigma_metric": float,
    "system_mean_spread": float,
}


def _parse_sim_config(path: str) -> SimConfig:
    """Read a flat `key = value` config file into a SimConfig."""
    data = {}
    with fileio.open_input(path) as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise fileio.ParseError(lineno, "expected 'key = value'")
            if key not in _SIM_FIELDS:
                raise fileio.ParseError(lineno, f"unknown config key {key!r}")
            if key in data:
                raise fileio.ParseError(lineno, f"duplicate config key {key!r}")
            try:
                data[key] = _SIM_FIELDS[key](value)
            except ValueError:
                raise fileio.ParseError(lineno,
                                        f"bad value for {key}: {value!r}")
    missing = sorted(set(_SIM_FIELDS) - set(data))
    if missing:
        raise ValueError(f"{path}: config is missing keys: {', '.join(missing)}")
    return SimConfig(**data)


def cmd_simulate(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    config = _parse_sim_config(args.config)
    per_k = {}
    for point in noise.noise_curve(config, args.ks, args.seeds):
        row = partial(ReportRow, "sim", "-", point.k, "simulated", "-")
        per_k[point.k] = [row("mean_segment_accuracy", point.mean_accuracy, 0.0),
                          row("std_segment_accuracy", point.std_accuracy, 0.0)]
    return _report(per_k, lambda k, rows: f"k={k}: mean segment accuracy "
                   f"{rows[0].value:.4f} (std {rows[1].value:.4f}, {args.seeds} seeds)",
                   args.out)


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="paraeval",
                     description="Build paragraph-level MT evaluation data, "
                                 "score it, and meta-evaluate metrics.")
    all_options: set = set()
    parser.all_options = all_options
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="COMMAND")

    def add(name, func, help_text):
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.all_options = all_options
        sub.set_defaults(func=func)
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
    sub.add_argument("--metric", choices=sorted(metrics.BUILTIN_METRICS),
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
    sub.add_argument("--scores", help="external scores .tsv[.gz]")
    sub.add_argument("--metric", choices=sorted(metrics.BUILTIN_METRICS),
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
    sub.add_argument("--scores", help="external scores .tsv[.gz]")
    sub.add_argument("--metric", choices=sorted(metrics.BUILTIN_METRICS),
                     help="also rate ties of a built-in metric")
    sub.add_argument("--mode", choices=("direct", "aligned"), default="direct")
    sub.add_argument("--ratings", help="ratings file (for aligned mode)")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("compare-modes", cmd_compare_modes,
              "Correlate direct vs aligned-average scoring of one metric.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--ratings", required=True, help="ratings .jsonl[.gz]")
    sub.add_argument("--metric", choices=sorted(metrics.BUILTIN_METRICS),
                     default="bleu")
    sub.add_argument("--out", required=True, help="report base path")

    sub = add("stats", cmd_stats, "Report paragraph length statistics per k.")
    sub.add_argument("--paragraphs", required=True, help="paragraphs .jsonl[.gz]")
    sub.add_argument("--lengths", action="store_true",
                     help="report token-length percentiles (default when no "
                          "other statistic is selected)")
    sub.add_argument("--percentiles", type=_parse_percentiles,
                     default=[25.0, 50.0, 75.0],
                     help="comma list, e.g. '25,50,75'")
    sub.add_argument("--counter", choices=("whitespace", "char"),
                     default="whitespace",
                     help="token counter when counts are not precomputed")
    sub.add_argument("--truncation", action="store_true",
                     help="report how many paragraphs exceed the token budget")
    sub.add_argument("--budget", type=int, default=1024,
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

    for action in subparsers.choices.values():
        all_options.update(action._option_string_actions)
    all_options.update(parser._option_string_actions)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: missing input file: {name}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
