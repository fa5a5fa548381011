"""Reading and writing rating, paragraph, and metric score files.

Ratings and paragraphs are stored as line-delimited JSON (one object per
line, UTF-8, fixed field order, unknown fields rejected) so that free
text with tabs or newlines survives round-trips. Metric scores are
stored as a tab-separated table. All path-based loaders transparently
accept gzip-compressed files, detected by magic bytes.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from .model import (
    ItemKey,
    ParagraphInstance,
    RatingRecord,
    ScoreTable,
    ScoreType,
    validate_ratings,
)

RATING_FIELDS = (
    "dataset_id", "lang_pair", "system_id", "doc_id", "sent_index",
    "rater_id", "score", "score_type", "source_text", "reference_text",
    "hypothesis_text", "token_count_ref", "token_count_hyp",
)
_RATING_REQUIRED = frozenset(RATING_FIELDS) - {"token_count_ref", "token_count_hyp"}

PARAGRAPH_FIELDS = (
    "dataset_id", "lang_pair", "system_id", "doc_id", "start_index", "k",
    "score_type", "rater_id", "human_score", "sentence_scores",
    "source_text", "reference_text", "hypothesis_text",
    "token_count_ref", "token_count_hyp",
)
_PARAGRAPH_REQUIRED = frozenset(PARAGRAPH_FIELDS) - {"token_count_ref", "token_count_hyp"}

SCORES_HEADER = ("metric", "lang_pair", "system", "doc_id", "start_index", "k", "score")


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ValueError):
    """A rating collection violated its invariants; carries the report."""

    def __init__(self, report):
        lines = "\n".join(report.errors)
        super().__init__(f"{len(report.errors)} validation error(s):\n{lines}")
        self.report = report


Lines = Union[IO[str], Iterable[str]]


def _check_fields(obj: dict, required: frozenset, known: tuple, lineno: int) -> None:
    for name in sorted(required):
        if name not in obj:
            raise ParseError(lineno, f"missing field {name}")
    for name in sorted(obj):
        if name not in known:
            raise ParseError(lineno, f"unknown field {name}")


def _get_str(obj: dict, name: str, lineno: int) -> str:
    value = obj[name]
    if not isinstance(value, str):
        raise ParseError(lineno, f"field {name} must be a string, got {value!r}")
    return value


def _get_int(obj: dict, name: str, lineno: int) -> int:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(lineno, f"field {name} must be an integer, got {value!r}")
    return value


def _get_float(obj: dict, name: str, lineno: int) -> float:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(lineno, f"field {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(lineno, f"field {name} is out of float range") from None


def _get_opt_count(obj: dict, name: str, lineno: int):
    value = obj.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(lineno, f"field {name} must be a non-negative integer or null")
    return value


def _get_score_type(obj: dict, lineno: int) -> ScoreType:
    value = _get_str(obj, "score_type", lineno)
    try:
        return ScoreType(value)
    except ValueError:
        raise ParseError(lineno, f"unknown score_type {value!r}") from None


def _parse_lines(stream: Lines) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise ParseError(lineno, "expected a JSON object")
        yield lineno, obj


def read_rating_lines(stream: Lines) -> list[RatingRecord]:
    """Parse a ratings stream without collection-level validation."""
    records = []
    for lineno, obj in _parse_lines(stream):
        _check_fields(obj, _RATING_REQUIRED, RATING_FIELDS, lineno)
        records.append(RatingRecord(
            dataset_id=_get_str(obj, "dataset_id", lineno),
            lang_pair=_get_str(obj, "lang_pair", lineno),
            system_id=_get_str(obj, "system_id", lineno),
            doc_id=_get_str(obj, "doc_id", lineno),
            sent_index=_get_int(obj, "sent_index", lineno),
            rater_id=_get_str(obj, "rater_id", lineno),
            score=_get_float(obj, "score", lineno),
            score_type=_get_score_type(obj, lineno),
            source_text=_get_str(obj, "source_text", lineno),
            reference_text=_get_str(obj, "reference_text", lineno),
            hypothesis_text=_get_str(obj, "hypothesis_text", lineno),
            token_count_ref=_get_opt_count(obj, "token_count_ref", lineno),
            token_count_hyp=_get_opt_count(obj, "token_count_hyp", lineno),
        ))
    return records


def parse_ratings(stream: Lines) -> list[RatingRecord]:
    """Parse and validate a ratings stream.

    Returns records in input order. Raises ParseError on the first
    malformed line and ValidationError (with the full report) if the
    parsed collection violates any invariant.
    """
    records = read_rating_lines(stream)
    report = validate_ratings(records)
    if not report.ok:
        raise ValidationError(report)
    return records


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_ratings(records: Iterable[RatingRecord], stream: IO[str]) -> None:
    """Serialize records one per line, fields in fixed order."""
    for r in records:
        stream.write(_dump({
            "dataset_id": r.dataset_id,
            "lang_pair": r.lang_pair,
            "system_id": r.system_id,
            "doc_id": r.doc_id,
            "sent_index": r.sent_index,
            "rater_id": r.rater_id,
            "score": r.score,
            "score_type": r.score_type.value,
            "source_text": r.source_text,
            "reference_text": r.reference_text,
            "hypothesis_text": r.hypothesis_text,
            "token_count_ref": r.token_count_ref,
            "token_count_hyp": r.token_count_hyp,
        }))
        stream.write("\n")


def write_paragraphs(paragraphs: Iterable[ParagraphInstance], stream: IO[str]) -> None:
    """Serialize paragraphs one per line, fields in fixed order."""
    for p in paragraphs:
        stream.write(_dump({
            "dataset_id": p.dataset_id,
            "lang_pair": p.lang_pair,
            "system_id": p.system_id,
            "doc_id": p.doc_id,
            "start_index": p.start_index,
            "k": p.k,
            "score_type": p.score_type.value,
            "rater_id": p.rater_id,
            "human_score": p.human_score,
            "sentence_scores": list(p.sentence_scores),
            "source_text": p.source_text,
            "reference_text": p.reference_text,
            "hypothesis_text": p.hypothesis_text,
            "token_count_ref": p.token_count_ref,
            "token_count_hyp": p.token_count_hyp,
        }))
        stream.write("\n")


def read_paragraphs(stream: Lines) -> list[ParagraphInstance]:
    """Parse a paragraph stream, checking per-paragraph invariants."""
    from .paragraphs import aggregate_score  # cycle: paragraphs imports model only

    paragraphs = []
    for lineno, obj in _parse_lines(stream):
        _check_fields(obj, _PARAGRAPH_REQUIRED, PARAGRAPH_FIELDS, lineno)
        scores = obj["sentence_scores"]
        if (not isinstance(scores, list)
                or any(isinstance(s, bool) or not isinstance(s, (int, float))
                       for s in scores)):
            raise ParseError(lineno, "field sentence_scores must be a list of numbers")
        key = (f"dataset={obj.get('dataset_id')} lang_pair={obj.get('lang_pair')} "
               f"system={obj.get('system_id')} doc={obj.get('doc_id')} "
               f"start_index={obj.get('start_index')} k={obj.get('k')}")
        try:
            paragraph = ParagraphInstance(
                dataset_id=_get_str(obj, "dataset_id", lineno),
                lang_pair=_get_str(obj, "lang_pair", lineno),
                system_id=_get_str(obj, "system_id", lineno),
                doc_id=_get_str(obj, "doc_id", lineno),
                start_index=_get_int(obj, "start_index", lineno),
                k=_get_int(obj, "k", lineno),
                score_type=_get_score_type(obj, lineno),
                rater_id=_get_str(obj, "rater_id", lineno),
                human_score=_get_float(obj, "human_score", lineno),
                sentence_scores=tuple(float(s) for s in scores),
                source_text=_get_str(obj, "source_text", lineno),
                reference_text=_get_str(obj, "reference_text", lineno),
                hypothesis_text=_get_str(obj, "hypothesis_text", lineno),
                token_count_ref=_get_opt_count(obj, "token_count_ref", lineno),
                token_count_hyp=_get_opt_count(obj, "token_count_hyp", lineno),
            )
        except OverflowError:  # an integer literal beyond the float range
            raise ParseError(lineno, "field sentence_scores is out of float range") from None
        except ParseError:  # a field getter's own report, already complete
            raise
        except ValueError as exc:  # the paragraph's own invariant checks
            raise ParseError(lineno, f"invariant violation for {key}: {exc}") from None
        # JSON's Infinity and NaN (and overflowing literals such as 1e400)
        # parse as floats; a non-finite score would read as a human tie.
        if not math.isfinite(paragraph.human_score):
            raise ParseError(lineno, f"field human_score must be finite, "
                             f"got {paragraph.human_score!r}")
        if not all(map(math.isfinite, paragraph.sentence_scores)):
            raise ParseError(lineno, f"field sentence_scores must be finite, "
                             f"got {list(paragraph.sentence_scores)!r}")
        expected = aggregate_score(paragraph.sentence_scores, paragraph.score_type)
        if not math.isclose(paragraph.human_score, expected,
                            rel_tol=1e-9, abs_tol=1e-9):
            raise ParseError(
                lineno, f"invariant violation for {key}: human_score "
                f"{paragraph.human_score!r} does not aggregate its "
                f"sentence_scores (expected {expected!r})")
        paragraphs.append(paragraph)
    return paragraphs


def parse_external_scores(stream: Lines) -> dict[tuple[str, str, int], ScoreTable]:
    """Parse a tab-separated score file into one table per (metric, lang_pair, k).

    All tables are tagged mode EXTERNAL; duplicate (system, item) keys and
    non-finite scores are rejected with their line number.
    """
    lines = iter(enumerate(stream, start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header row") from None
    columns = tuple(header.rstrip("\n").split("\t"))
    if columns != SCORES_HEADER:
        raise ParseError(1, f"header must be {list(SCORES_HEADER)}, got {list(columns)}")

    groups: dict[tuple[str, str, int], dict] = {}
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(SCORES_HEADER):
            raise ParseError(lineno, f"expected {len(SCORES_HEADER)} columns, "
                                     f"got {len(fields)}")
        metric, lang_pair, system, doc_id, start_raw, k_raw, score_raw = fields
        try:
            start_index = int(start_raw)
            k = int(k_raw)
        except ValueError:
            raise ParseError(lineno, "start_index and k must be integers") from None
        try:
            score = float(score_raw)
        except ValueError:
            raise ParseError(lineno, f"score does not parse as a number: {score_raw!r}") from None
        if not math.isfinite(score):
            raise ParseError(lineno, f"non-finite score: {score_raw!r}")
        if k < 1 or start_index < 0:
            raise ParseError(lineno, "start_index must be >= 0 and k >= 1")

        entries = groups.setdefault((metric, lang_pair, k), {})
        entry_key = (system, (doc_id, start_index, k))
        if entry_key in entries:
            raise ParseError(
                lineno, f"duplicate score key: metric={metric} lang_pair={lang_pair} "
                f"system={system} doc={doc_id} start_index={start_index} k={k}")
        entries[entry_key] = score

    return {
        group_key: ScoreTable(metric_name=group_key[0], k=group_key[2],
                              entries=entries)
        for group_key, entries in sorted(groups.items())
    }


def score_rows(metric_name: str, lang_pair: str,
               entries: dict[tuple[str, ItemKey], float]) -> list[tuple]:
    """Canonically ordered (metric, lp, system, doc, start, k, score) rows."""
    rows = []
    for (system, (doc_id, start_index, k)), score in entries.items():
        rows.append((metric_name, lang_pair, system, doc_id, start_index, k, score))
    rows.sort()
    return rows


def write_scores(rows: Iterable[tuple], stream: IO[str]) -> None:
    """Write score rows as the tab-separated ScoresFile format."""
    stream.write("\t".join(SCORES_HEADER) + "\n")
    for metric, lang_pair, system, doc_id, start_index, k, score in rows:
        stream.write(f"{metric}\t{lang_pair}\t{system}\t{doc_id}"
                     f"\t{start_index}\t{k}\t{score!r}\n")


def open_input(path: Union[str, Path]) -> IO[str]:
    """Open a text input file, decompressing gzip detected by magic bytes."""
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    return io.TextIOWrapper(raw, encoding="utf-8")


def load_ratings(path: Union[str, Path]) -> list[RatingRecord]:
    with open_input(path) as stream:
        return parse_ratings(stream)


def load_paragraphs(path: Union[str, Path]) -> list[ParagraphInstance]:
    with open_input(path) as stream:
        return read_paragraphs(stream)


def load_external_scores(path: Union[str, Path]) -> dict[tuple[str, str, int], ScoreTable]:
    with open_input(path) as stream:
        return parse_external_scores(stream)
