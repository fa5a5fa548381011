"""Reading and writing the files paraeval reads: ratings, paragraphs, metric
scores and the simulator config. The CLI loads each input through this module.

Ratings and paragraphs are stored as line-delimited JSON (one object per
line, UTF-8, fixed field order, unknown fields rejected) so that free
text with tabs or newlines survives round-trips. Each format's fields are
its record type's, in declaration order, each read by its getter in
``_GETTERS`` or, for a repeated string, by ``_get_str``: a record whose values
have their exact JSON types passes one test, any other goes through the
getters, which check JSON types only and name the first bad field. The record
type checks the values, a paragraph's scores included, naming the record;
every error names the line. The writers write each record's fields in the
same order. ``build-paragraphs`` writes through ``ParagraphWriter``, which
makes each rating's escaped UTF-8 bytes once and every k's lines from them:
the bytes of ``write_paragraphs``, as a property test checks. Both writers
refuse a string that UTF-8 cannot encode by one check. Metric scores are a
tab-separated table whose start_index and k are unsigned ASCII decimal
integers and whose score is an ASCII decimal number, optionally signed and
with an exponent; one TSV writer, shared with the CLI's reports, refuses a
value holding a tab, a line break or a lone surrogate. The simulator config is flat ``key = value`` lines, one per
SimConfig field. Path-based loaders accept gzip-compressed files, detected by
magic bytes, and name the path in every error about the input: a bad line,
cut-off gzip, failed validation; a ratings or paragraphs file with no records
is an error.

Every system translates the same documents, so ids, source and reference
texts and scores repeat. Each reader call keeps one copy of each string,
float, sentence_scores tuple (``0.0`` and ``-0.0`` apart) and score file
item tuple, in dicts of its own. ``read_paragraphs(stream, texts=False)``
checks the three texts of every paragraph but keeps none (they read as None):
``metaeval`` and ``ties`` with ``--scores`` read no text.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import operator
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from functools import cache
from pathlib import Path
from struct import pack
from typing import IO, Iterable, Iterator, Sequence, Union, get_type_hints

from .model import (
    ItemKey,
    ParagraphInstance,
    RatingRecord,
    ScoreTable,
    ScoreType,
    SimConfig,
    validate_ratings,
)
from .paragraphs import sum_counts, window_score, windows

_SCORE_TYPES = {t.value: t for t in ScoreType}
# Parses one JSON value at an index of a string, without copying the string.
_scan_json = json.JSONDecoder().scan_once
_TOO_DEEP = "invalid JSON (nested too deeply)"

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


# Field getters: a field's value as the record type takes it, or a ParseError.

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


def _get_floats(obj: dict, name: str, lineno: int) -> tuple[float, ...]:
    value = obj[name]
    if (not isinstance(value, list)
            or any(isinstance(s, bool) or not isinstance(s, (int, float)) for s in value)):
        raise ParseError(lineno, f"field {name} must be a list of numbers")
    try:
        return tuple(map(float, value))
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(lineno, f"field {name} is out of float range") from None


def _get_score_type(obj: dict, name: str, lineno: int) -> ScoreType:
    value = _get_str(obj, name, lineno)
    if value not in _SCORE_TYPES:
        raise ParseError(lineno, f"unknown {name} {value!r}")
    return _SCORE_TYPES[value]


def _get_count(obj: dict, name: str, lineno: int):
    """An optional token count: absent and null both read as None."""
    value = obj.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(lineno, f"field {name} must be an integer or null, got {value!r}")
    return value


# The getter of every field but a repeated string, read by _get_str and kept once.
_GETTERS = {"sent_index": _get_int, "start_index": _get_int, "k": _get_int,
            "score": _get_float, "human_score": _get_float, "sentence_scores": _get_floats,
            "score_type": _get_score_type, "hypothesis_text": _get_str,
            "token_count_ref": _get_count, "token_count_hyp": _get_count}
# Each record format once: its record type's fields, in order, with getters.
_RATING_TABLE, _PARAGRAPH_TABLE = (
    tuple((f.name, _GETTERS.get(f.name, _get_str)) for f in fields(record_type))
    for record_type in (RatingRecord, ParagraphInstance))
_RATING_FIELDS, _PARAGRAPH_FIELDS = ([name for name, _ in table]
                                     for table in (_RATING_TABLE, _PARAGRAPH_TABLE))
_TEXTS = ("source_text", "reference_text", "hypothesis_text")
# The exact JSON type of each getter's field in a record that passes one test.
_JSON_TYPES = {_get_str: str, _get_int: int,
               _get_float: float, _get_floats: list, _get_score_type: str}


def _checked_values(obj: dict, table: tuple, required: frozenset, known: frozenset,
                    lineno: int) -> list:
    """A record's values in file order, each through its field's getter."""
    for problem, names in ("missing", required - obj.keys()), ("unknown", obj.keys() - known):
        if names:
            raise ParseError(lineno, f"{problem} field {min(names)}")
    return [get(obj, name, lineno) for name, get in table]


def _parse_lines(stream: Lines) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(stream, start=1):
        # An object followed by nothing but whitespace is scanned in place.
        # Any other line takes strip() and json.loads, which word the error;
        # both paths accept the same lines.
        if line[:1] == "{":
            try:
                obj, end = _scan_json(line, 0)
            except RecursionError:
                raise ParseError(lineno, _TOO_DEEP) from None
            except (ValueError, StopIteration):
                pass
            else:
                if end == len(line) or line[end:].isspace():
                    yield lineno, obj
                    continue
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise ParseError(lineno, _TOO_DEEP) from None
        if not isinstance(obj, dict):
            raise ParseError(lineno, "expected a JSON object")
        yield lineno, obj


def _record_values(stream: Lines, table: tuple, texts: bool = True) -> Iterator[tuple[int, list]]:
    """Each record's line number and values, in the record type's field order;
    with texts=False the checked texts are replaced by None."""
    fields = [name for name, _ in table]
    names = [name for name, get in table if get is not _get_count]  # the required ones
    ref, hyp = fields[len(names):]  # the two token counts, optional and last
    values_of = operator.itemgetter(*names)
    types = [_JSON_TYPES[get] for _, get in table[:len(names)]]
    required, known, kind = frozenset(names), frozenset(fields), fields.index("score_type")
    shared = [i for i, name in enumerate(fields) if name not in _GETTERS]
    floats, lists = ([i for i, (_, get) in enumerate(table) if get is getter]
                     for getter in (_get_float, _get_floats))
    dropped = () if texts else [fields.index(name) for name in _TEXTS]
    share, number, tuples = {}.setdefault, {}.setdefault, {}  # one copy of each repeated value
    def one(score: float) -> float:  # 0.0 == -0.0, so a zero is keyed by its repr
        return number(score or repr(score), score)
    for lineno, obj in _parse_lines(stream):
        # A record whose required values have exactly their JSON types (a list of
        # floats only) is taken as it is; any other goes through the getters.
        values = list(values_of(obj)) if required <= obj.keys() <= known else []
        counts = obj.get(ref), obj.get(hyp)
        if (list(map(type, values)) == types and values[kind] in _SCORE_TYPES
                and all(c is None or type(c) is int for c in counts)
                and all({float}.issuperset(map(type, values[i])) for i in lists)):
            values[kind] = _SCORE_TYPES[values[kind]]
            values += counts
        else:
            values = _checked_values(obj, table, required, known, lineno)
        for i in dropped:
            values[i] = None
        for i in shared:
            values[i] = share(values[i], values[i])
        for i in floats:
            values[i] = one(values[i])
        for i in lists:  # one tuple per sequence, keyed by its bits: 0.0 and -0.0 apart
            key = pack("%dd" % len(values[i]), *values[i])
            values[i] = tuples.get(key) or tuples.setdefault(key, tuple(map(one, values[i])))
        yield lineno, values


def _records(stream: Lines, record_type: type, table: tuple, texts: bool = True) -> Iterator:
    """Each line number and record; a value the record type refuses is a ParseError."""
    for lineno, values in _record_values(stream, table, texts):
        try:
            record = record_type(*values)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        yield lineno, record


def read_rating_lines(stream: Lines) -> list[RatingRecord]:
    """Parse a ratings stream without collection-level validation."""
    return [record for _, record in _records(stream, RatingRecord, _RATING_TABLE)]


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


def _score_type_value(value):
    if isinstance(value, ScoreType):
        return value.value
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every record; json.dumps would build one per call. NaN and
# Infinity are not JSON, so a record holding one fails instead of being written.
dump_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"),
                             allow_nan=False, default=_score_type_value).encode


def _write_jsonl(records: Iterable, names: Sequence[str], stream: IO[str]) -> None:
    """One line per record: an object of the named fields, in that order."""
    for record in records:
        stream.write(dump_json({name: getattr(record, name) for name in names}))
        stream.write("\n")


def write_ratings(records: Iterable[RatingRecord], stream: IO[str]) -> None:
    """Serialize records one per line, fields in fixed order."""
    _write_jsonl(records, _RATING_FIELDS, stream)


def _unencodable(owner: str, value: str, exc: UnicodeEncodeError) -> ValueError:
    return ValueError(f"{owner}: {value} holds {exc.object[exc.start:exc.end]!r}, "
                      f"which UTF-8 cannot encode")


def _encodable(record):
    """The paragraph or rating, once each string a paragraph line takes from it
    is known to encode to UTF-8; a text that is None or a string UTF-8 cannot
    encode (a lone surrogate) is an error naming the record and the field."""
    for name in _LINE_STRINGS:
        text = getattr(record, name)
        if text is None or not text.isascii():
            if text is None:  # as a paragraph read without its texts holds
                raise ValueError(f"{record.name}: field {name} is None, not a string")
            try:
                text.encode()
            except UnicodeEncodeError as exc:
                raise _unencodable(record.name, f"field {name}", exc) from None
    return record


def write_paragraphs(paragraphs: Iterable[ParagraphInstance], stream: IO[str]) -> None:
    """Serialize paragraphs one per line, fields in fixed order. A string that
    UTF-8 cannot encode (a lone surrogate) or a text that is None is an error
    naming the paragraph and the field, raised before the paragraph is written."""
    _write_jsonl(map(_encodable, paragraphs), _PARAGRAPH_FIELDS, stream)


# What dump_json does to each str it writes (ensure_ascii=False): it maps every
# character on its own and keeps the space, so the escape of texts joined by a
# space is the escapes of the texts joined by a space.
_escape = json.encoder.encode_basestring
# A paragraph line as dump_json writes it, with a %-slot per field in table order.
_JSON_SLOTS = {_get_str: b'"%b"', _get_score_type: b'"%b"',
               _get_int: b"%d", _get_float: b"%b", _get_floats: b"[%b]", _get_count: b"%b"}
_PARAGRAPH_LINE = b"{%b}\n" % b",".join(b'"%b":%b' % (name.encode(), _JSON_SLOTS[get])
                                        for name, get in _PARAGRAPH_TABLE)
# The string fields of a paragraph line, each taken from its first or every rating.
_LINE_STRINGS = [name for name, get in _PARAGRAPH_TABLE if get is _get_str]


def _json_count(count) -> bytes:
    return b"null" if count is None else b"%d" % count


class ParagraphWriter:
    """Writes the paragraphs that ``build_paragraphs`` builds, one k at a time,
    from runs that ``paragraphs.rater_runs`` found once: each file holds the
    bytes that ``write_paragraphs`` writes for those paragraphs.

    The constructor checks every rating as ``write_paragraphs`` checks a
    paragraph, so a rating that UTF-8 cannot encode fails every k, and makes one
    row per rating, parallel to the runs: its score and three texts as escaped
    UTF-8 bytes, each distinct string escaped once, and its two token counts.
    """

    def __init__(self, runs: list[list[RatingRecord]]):
        self.runs = runs
        self._escaped = escaped = cache(lambda text: _escape(text)[1:-1].encode())
        self._rows = [[(repr(r.score).encode(),  # as dump_json writes an int or a float
                        escaped(r.source_text), escaped(r.reference_text),
                        escaped(r.hypothesis_text), r.token_count_ref, r.token_count_hyp)
                       for r in map(_encodable, run)] for run in runs]

    def write(self, k: int, stream: IO[str]) -> Counter:
        """Write the paragraphs of k to the text stream's binary buffer and
        return their number per (dataset, lang_pair). A window whose score
        ``window_score`` refuses is an error, raised before its line is written."""
        escaped, counts = self._escaped, Counter()
        stream.flush()
        write = stream.buffer.write
        for window, rows in zip(windows(self.runs, k), windows(self._rows, k)):
            human_score = window_score(window)  # finite, so JSON, or an error
            scores, sources, references, hypotheses, refs, hyps = zip(*rows)
            first = window[0]
            write(_PARAGRAPH_LINE % (
                escaped(first.dataset_id), escaped(first.lang_pair),
                escaped(first.system_id), escaped(first.doc_id), first.sent_index, k,
                first.score_type.value.encode(), escaped(first.rater_id),
                repr(human_score).encode(), b",".join(scores), b" ".join(sources),
                b" ".join(references), b" ".join(hypotheses),
                _json_count(sum_counts(refs)), _json_count(sum_counts(hyps))))
            counts[first.dataset_id, first.lang_pair] += 1
        return counts


def read_paragraphs(stream: Lines, texts: bool = True) -> list[ParagraphInstance]:
    """Parse a paragraph stream, checking per-paragraph invariants. With
    texts=False every text is checked but none is kept: each reads as None."""
    return [p for _, p in _records(stream, ParagraphInstance, _PARAGRAPH_TABLE, texts)]


def parse_external_scores(stream: Lines) -> dict[tuple[str, str, int], ScoreTable]:
    """Parse a tab-separated score file into one table per (metric, lang_pair, k).

    Duplicate (system, item) keys, numbers outside the strict grammar (see
    the module docstring) and non-finite scores are rejected with their line
    number.
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
    share = {}.setdefault  # one copy of each repeated string and item tuple
    # Each distinct start_index, k and score text, checked and converted once.
    integers, numbers = {}, {}
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(SCORES_HEADER):
            raise ParseError(lineno, f"expected {len(SCORES_HEADER)} columns, "
                                     f"got {len(fields)}")
        metric, lang_pair, system, doc_id, start_raw, k_raw, score_raw = fields
        # int() and float() also take surrounding whitespace, "_" between
        # digits, a sign on an integer and non-ASCII digits; none is allowed.
        start_index, k = integers.get(start_raw), integers.get(k_raw)
        if start_index is None or k is None:
            if not (start_raw.isdigit() and k_raw.isdigit()
                    and start_raw.isascii() and k_raw.isascii()):
                raise ParseError(lineno, f"start_index and k must be unsigned decimal "
                                 f"integers, got {start_raw!r} and {k_raw!r}")
            start_index = integers[start_raw] = int(start_raw)
            k = integers[k_raw] = int(k_raw)
        score = numbers.get(score_raw)
        if score is None:
            try:
                score = float(score_raw)
            except ValueError:
                score = None
            if (score is None or not score_raw.isascii() or "_" in score_raw
                    or score_raw != score_raw.strip()):
                raise ParseError(lineno, f"score is not a decimal number: {score_raw!r}")
            if not math.isfinite(score):
                raise ParseError(lineno, f"non-finite score: {score_raw!r}")
            numbers[score_raw] = score
        if k < 1:
            raise ParseError(lineno, "k must be >= 1")

        entries = groups.get((metric, lang_pair, k))
        if entries is None:
            entries = groups[share(metric, metric), share(lang_pair, lang_pair), k] = {}
        item = (share(doc_id, doc_id), start_index, k)
        entry_key = (share(system, system), share(item, item))
        if entry_key in entries:
            raise ParseError(
                lineno, f"duplicate score key: metric={metric} lang_pair={lang_pair} "
                f"system={system} doc={doc_id} start_index={start_index} k={k}")
        entries[entry_key] = score

    return {
        group_key: ScoreTable(metric_name=group_key[0], entries=entries)
        for group_key, entries in sorted(groups.items())
    }


def score_rows(metric_name: str, lang_pair: str,
               entries: dict[tuple[str, ItemKey], float]) -> list[tuple]:
    """Canonically ordered (metric, lp, system, doc, start, k, score) rows."""
    return sorted((metric_name, lang_pair, system, *item, score)
                  for (system, item), score in entries.items())


def write_tsv(header: Sequence[str], rows: Iterable[Iterable], stream: IO[str]) -> None:
    """Write a header and rows as tab-separated lines: None as ``-``, any other
    value as ``str`` (the shortest round-trip form for a float). A value that
    holds a tab, CR or LF (which would shift the columns) or a character UTF-8
    cannot encode is refused, naming the row and the column."""
    stream.write("\t".join(header) + "\n")
    for rowno, row in enumerate(rows, start=1):
        values = ["-" if v is None else str(v) for v in row]
        line = "\t".join(values)
        if line.count("\t") != len(header) - 1 or "\n" in line or "\r" in line:
            for name, value in zip(header, values):
                if "\t" in value or "\n" in value or "\r" in value:
                    raise ValueError(f"row {rowno}: {name} {value!r} holds a tab or "
                                     f"line break, which a TSV field cannot hold")
            raise ValueError(f"row {rowno}: {len(values)} values for {len(header)} columns")
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError as exc:
                column = line.count("\t", 0, exc.start)
                raise _unencodable(f"row {rowno}", f"{header[column]} {values[column]!r}",
                                   exc) from None
        stream.write(line + "\n")


def write_scores(rows: Iterable[tuple], stream: IO[str]) -> None:
    """Write score rows as the tab-separated ScoresFile format."""
    write_tsv(SCORES_HEADER, rows, stream)


def open_input(path: Union[str, Path]) -> IO[str]:
    """Open a text input file, decompressing gzip detected by magic bytes."""
    raw = open(path, "rb")
    # peek, not seek: the input may be a pipe.
    if raw.peek(2)[:2] != b"\x1f\x8b":
        return io.TextIOWrapper(raw, encoding="utf-8")
    unzipped = gzip.GzipFile(fileobj=raw)
    unzipped.myfileobj = raw  # so that closing the GzipFile closes the file
    return io.TextIOWrapper(unzipped, encoding="utf-8")


@contextmanager
def _reading(path: Union[str, Path]) -> Iterator[IO[str]]:
    """``open_input(path)``, with the path named in front of every error about
    the input: text that is not UTF-8 or a cut-off or corrupt gzip stream (as a
    ValueError), or a ValueError raised while it is open, such as a ParseError
    or a ValidationError, which keeps its class and fields."""
    with open_input(path) as stream:
        try:
            yield stream
        except (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ValueError(f"{path}: {exc}") from None
        except ValueError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def load_ratings(path: Union[str, Path], validate: bool = True) -> list[RatingRecord]:
    """The file's ratings, validated unless validate=False; none is an error."""
    with _reading(path) as stream:
        records = (parse_ratings if validate else read_rating_lines)(stream)
    if not records:
        raise ValueError(f"no ratings in {path}")
    return records


def load_paragraphs(path: Union[str, Path], texts: bool = True) -> list[ParagraphInstance]:
    """The file's paragraphs, as ``read_paragraphs`` reads them; none is an error."""
    with _reading(path) as stream:
        paragraphs = read_paragraphs(stream, texts)
    if not paragraphs:
        raise ValueError(f"no paragraphs in {path}")
    return paragraphs


def load_external_scores(path: Union[str, Path]) -> dict[tuple[str, str, int], ScoreTable]:
    with _reading(path) as stream:
        return parse_external_scores(stream)


_SIM_FIELDS = get_type_hints(SimConfig)


def load_sim_config(path: Union[str, Path]) -> SimConfig:
    """Read a flat `key = value` config file, `#` starting a comment, into a SimConfig."""
    data = {}
    with _reading(path) as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = map(str.strip, line.partition("="))
            if not sep or not key:
                raise ParseError(lineno, "expected 'key = value'")
            if key not in _SIM_FIELDS:
                raise ParseError(lineno, f"unknown config key {key!r}")
            if key in data:
                raise ParseError(lineno, f"duplicate config key {key!r}")
            try:
                data[key] = _SIM_FIELDS[key](value)
            except ValueError:
                raise ParseError(lineno, f"bad value for {key}: {value!r}") from None
        missing = sorted(set(_SIM_FIELDS) - set(data))
        if missing:
            raise ValueError(f"config is missing keys: {', '.join(missing)}")
        return SimConfig(**data)
