"""Command-line front end for batch dataset builds, scoring, and reports.

Exit codes: 0 on success, 1 on usage errors (bad flags, bad ranges), 2 on
data errors (missing or malformed inputs, invariant violations). ``OPTIONS``
declares each option once; before a command runs, ``_check`` fills in its
defaults and applies every usage rule (``_RULES``). The subcommand's parser
prints every usage error, argparse's or a rule's: its usage line, then
``paraeval CMD: error: ...``.

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
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import fileio, metaeval, metrics, noise, sampling
from .model import ParagraphInstance, validate_ratings
from .paragraphs import build_eval_items, group_items, rater_runs

UnitKey = tuple  # (dataset_id, lang_pair, k)
_INPUTS = ("ratings", "paragraphs", "scores", "config")  # the options that name input files
MAX_K = 10_000  # the largest window size a k list may name


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
    """Parse '1-10', '2,5,7', or a mix into a sorted list of distinct ks, each
    at most MAX_K; a range is bounded before it is expanded."""
    ks: set[int] = set()
    try:
        for part in spec.split(","):
            part = part.strip()
            lo, _, hi = part.partition("-") if "-" in part[1:] else (part, "", part)
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise argparse.ArgumentTypeError(
                    f"empty range {lo}-{hi} in {spec!r}")
            if hi > MAX_K:
                raise argparse.ArgumentTypeError(f"k values must be <= {MAX_K}, got {spec!r}")
            ks.update(range(lo, hi + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {spec!r}; "
                                         f"expected forms like '1-10' or '2,5,7'")
    if not ks or min(ks) < 1:
        raise argparse.ArgumentTypeError(f"k values must be >= 1, got {spec!r}")
    return sorted(ks)


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
    built-in metric scores them; ``_RULES`` refuse --mode and --ratings
    without one, and --ratings without aligned mode, which needs it.

    The scores file has no dataset column, so a lang_pair that spans two
    datasets would have one dataset's scores applied to the other's units.
    """
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
    units, tables = _load_units(args)
    paired = args.level == "segment" or args.tau_opt or args.ties

    def unit_rows(key, unit_paragraphs):
        dataset, lang_pair, k = key
        rows = []
        items = build_eval_items(unit_paragraphs, k) if paired else None
        # The unit's (system, item) keys, and the human scores aligned with them.
        keys = [(p.system_id, p.item_key) for p in unit_paragraphs]
        human = [p.human_score for p in unit_paragraphs]
        for mode, table in tables(key, unit_paragraphs):
            def row(statistic, value, epsilon=None):
                rows.append(ReportRow(dataset, lang_pair, k, table.metric_name, mode,
                                      statistic, value, epsilon))
            if paired:
                pairs = metaeval.pair_table(
                    metaeval.attach_metric_scores(items, table))
            if args.level == "system":
                # Both means run over exactly the unit's (system, item) keys.
                metric = metaeval._metric_scores(table, keys)
                accuracy = metaeval.system_pairwise_accuracy(
                    metaeval.system_scores(dict(zip(keys, metric))),
                    metaeval.system_scores(dict(zip(keys, human))))
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
                    metric = metaeval._metric_scores(table, keys)
                row("pearson_no_grouping", metaeval.pearson_no_grouping(metric, human))
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
    paragraphs = fileio.load_paragraphs(args.paragraphs)
    # Each distinct text is counted once; a counter that is never called was not read.
    counter = cache(metrics.char_token_count if args.counter == "char"
                    else metrics.whitespace_token_count)
    groups: dict[tuple[str, str], list[ParagraphInstance]] = {}
    for p in paragraphs:
        groups.setdefault((p.dataset_id, p.lang_pair), []).append(p)

    def group_rows(key, group):
        rows = []
        if args.lengths or not args.truncation:
            for k, per_percentile in metrics.length_percentiles(
                    group, counter, args.percentiles).items():
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
                    group, counter, args.budget).items():
                rows.append(ReportRow(*key, k, "-", "-", f"truncated_count@{args.budget}",
                                      float(count)))
                rows.append(ReportRow(*key, k, "-", "-", f"truncated_fraction@{args.budget}",
                                      fraction))
        return rows

    code = _report(_per_unit(dict(sorted(groups.items())), group_rows), lambda _, rows:
                   "\n".join(f"{r.dataset}/{r.lang_pair} k={r.k}: {r.statistic}={r.value:g}"
                              for r in rows), args)
    if "counter" in args.given and not counter.cache_info().misses:
        print("note: --counter was not read: every count is in the file", file=sys.stderr)
    return code


def cmd_simulate(args) -> int:
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


COMMANDS = {  # each command's function and help
    "validate": (cmd_validate, "Check a ratings file's invariants."),
    "build-paragraphs": (cmd_build_paragraphs, "Build sliding-window paragraphs from ratings."),
    "export-training": (cmd_export_training, "Sample a reproducible training subset."),
    "score": (cmd_score, "Score paragraphs with a built-in metric."),
    "metaeval": (cmd_metaeval, "Measure metric-human agreement per evaluation unit."),
    "ties": (cmd_ties, "Report exact-tie rates per evaluation unit."),
    "compare-modes": (cmd_compare_modes, "Correlate direct and aligned scores of one metric."),
    "stats": (cmd_stats, "Report paragraph length statistics per k."),
    "simulate": (cmd_simulate, "Run the rater/metric noise model across window sizes."),
}
_REQUIRED = object()  # the default of an option that a command requires
_SCORING = ("score", "metaeval", "ties")  # the commands that can score with a built-in metric
_SOURCES = {"metaeval": _REQUIRED, "ties": None}  # one score source, or at most one

# Each option once: its flag, each command that takes it with its default there
# as on the command line (False makes a switch), its help, and its type or
# choices. A source option is in the command's group of score sources.
_Option = namedtuple("_Option", "flag defaults help type choices source",
                     defaults=(str, None, False))
OPTIONS = [
    _Option("--ratings", dict.fromkeys(("validate", "build-paragraphs", "compare-modes"),
                                       _REQUIRED), "ratings .jsonl[.gz]"),
    _Option("--paragraphs", dict.fromkeys(("export-training", *_SCORING, "compare-modes",
                                           "stats"), _REQUIRED), "paragraphs .jsonl[.gz]"),
    _Option("--config", {"simulate": _REQUIRED}, "flat key=value file of noise model fields"),
    _Option("--scores", _SOURCES, "external scores .tsv[.gz]", source=True),
    _Option("--metric", _SOURCES, "built-in metric", choices=metrics.BUILTIN_METRICS, source=True),
    _Option("--metric", dict.fromkeys(("score", "compare-modes"), "bleu"), "a built-in metric",
            choices=metrics.BUILTIN_METRICS),
    _Option("--mode", dict.fromkeys(_SCORING, "direct"), "score each paragraph whole or as "
            "the mean of its aligned sentences", choices=("direct", "aligned")),
    _Option("--ratings", dict.fromkeys(_SCORING), "ratings .jsonl[.gz] for aligned mode"),
    _Option("--k", {"build-paragraphs": "1-10"}, "window sizes, e.g. 1-10 or 2,5", parse_k_spec),
    _Option("--strategy", {"export-training": "uniform"}, "sampling strategy",
            choices=("uniform", "stratified")),
    _Option("--size", {"export-training": _REQUIRED}, "sample size", int),
    _Option("--ks", {"export-training": None, "simulate": "1,2,5,10"}, "window sizes; "
            "export-training's strata, by default the pool's ks", parse_k_spec),
    _Option("--seed", {"export-training": "0"}, "sampling seed", int),
    _Option("--label", {"score": None}, "metric column value (default '<metric>-<mode>')"),
    _Option("--level", {"metaeval": "segment"}, "agreement level", choices=("system", "segment")),
    _Option("--epsilon", {"metaeval": "0"}, "metric tie threshold for segment accuracy", float),
    _Option("--tau-opt", {"metaeval": False}, "also report the optimal tie threshold"),
    _Option("--pearson", {"metaeval": False}, "also report no-grouping Pearson"),
    _Option("--ties", {"metaeval": False}, "also report human and metric tie rates"),
    _Option("--lengths", {"stats": False}, "report token-length percentiles (the default)"),
    _Option("--percentiles", {"stats": "25,50,75"}, "--lengths percentiles", _parse_percentiles),
    _Option("--counter", {"stats": "whitespace"}, "token counter for a count not in the file",
            choices=("whitespace", "char")),
    _Option("--truncation", {"stats": False}, "report how many paragraphs exceed --budget"),
    _Option("--budget", {"stats": "1024"}, "ref+hyp token budget for --truncation", int),
    _Option("--seeds", {"simulate": "50"}, "number of seeds", int),
    _Option("--out", dict.fromkeys(list(COMMANDS)[1:], _REQUIRED), "output: build-paragraphs' "
            "directory, export-training's .jsonl, score's .tsv, else a report's base path"),
]

# Each usage rule: its commands, whether the options break it (``a.given``
# names those given), and its message: a format string of the options'
# values, or a function making it.
_RULES = [
    (("export-training",), lambda a: a.size < 1, "--size must be >= 1, got {size}"),
    (("export-training",), lambda a: a.seed < 0, "--seed must be >= 0, got {seed}"),
    (("export-training",), lambda a: "ks" in a.given and a.strategy != "stratified",
     "--ks applies only to --strategy stratified"),
    (("export-training",), lambda a: "ks" in a.given and a.size % len(a.ks),
     lambda a: f"sample size {a.size} is not divisible by the {len(a.ks)} strata"),
    (("metaeval",), lambda a: not 0 <= a.epsilon < math.inf,
     "--epsilon must be a finite number >= 0, got {epsilon}"),
    (("metaeval",), lambda a: "epsilon" in a.given and a.level == "system",
     "--epsilon applies only to --level segment"),
    (_SOURCES, lambda a: a.metric is None and "ratings" in a.given,
     "--ratings applies only to a built-in --metric"),
    (_SOURCES, lambda a: a.metric is None and "mode" in a.given,
     "--mode {mode} applies only to a built-in --metric"),
    (_SCORING, lambda a: "ratings" in a.given and a.mode != "aligned",
     "--ratings applies only to --mode aligned"),
    (_SCORING, lambda a: a.mode == "aligned" and a.ratings is None,
     "aligned mode needs --ratings to recover the sentence pairs"),
    (("stats",), lambda a: "budget" in a.given and not a.truncation,
     "--budget applies only to --truncation"),
    (("stats",), lambda a: "percentiles" in a.given and a.truncation and not a.lengths,
     "--percentiles applies only to --lengths"),
    (("stats",), lambda a: a.budget < 1, "--budget must be >= 1, got {budget}"),
    (("simulate",), lambda a: a.seeds < 1, "--seeds must be >= 1, got {seeds}"),
    (("simulate",), lambda a: len(a.ks) < 2, "--ks needs at least 2 distinct k values, got {ks}"),
]


def build_parser() -> _Parser:
    parser = _Parser(prog="paraeval", description="Build paragraph-level MT evaluation "
                     "data, score it, and meta-evaluate metrics.")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text) in COMMANDS.items():
        command = subparsers.add_parser(name, help=help_text, description=help_text)
        command.set_defaults(func=func, error=command.error)
        if name in _SOURCES:
            sources = command.add_mutually_exclusive_group(required=_SOURCES[name] is _REQUIRED)
        for option in (option for option in OPTIONS if name in option.defaults):
            default = option.defaults[name]
            kwargs = ({"action": "store_true"} if default is False
                      else {"type": option.type, "choices": option.choices})
            (sources if option.source else command).add_argument(
                option.flag, default=None, required=default is _REQUIRED and not option.source,
                help=option.help + (f" (default {default})" if isinstance(default, str) else ""),
                **kwargs)
    return parser


def _check(args) -> None:
    """Fill in the defaults of the options not given, then exit 1 on the first
    usage rule that the options break. Every optional flag parses to None, so
    ``args.given`` names each argument given, even at its default value."""
    args.given = {dest for dest, value in vars(args).items() if value is not None}
    for option in OPTIONS:
        dest = option.flag[2:].replace("-", "_")
        default = option.defaults.get(args.command, _REQUIRED)
        if dest not in args.given and default is not _REQUIRED:
            setattr(args, dest, option.type(default) if isinstance(default, str) else default)
    for commands, broken, message in _RULES:
        if args.command in commands and broken(args):
            args.error(message(args) if callable(message) else message.format_map(vars(args)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # named by the command's parser, which suggests from its own flags
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    _check(args)
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
