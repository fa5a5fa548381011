"""The bad-input gate: seeded mutations of a small corpus, run through every
command form in process.

Each input (ratings, paragraphs, scores and the simulator config) is mutated
in two ways, from a ``random.Random`` seeded by the input, the kind and the
run's number:

- bytes: a lone-surrogate escape, ``1e400`` or ``NaN`` for a number, a gzip
  magic, U+2028, a tab, a deleted span, a duplicated line or a cut;
- fields: an edge value in one JSON field, TSV cell or config value (10**20,
  1e308, 5e-324, -0.0, "", a lone surrogate, another record's value), or a
  deleted field.

Every command form that reads the input then runs on it through ``cli.main``.
Whatever the input:

- the run returns, or raises ``SystemExit``, with 0, 1 or 2, and nothing else
  escapes;
- a failing run says why on stderr and leaves no output file, no temp file
  and no stdout (``validate`` prints its summary, which is its report);
- every output of an exit-0 run reads back through the package's readers,
  and every report is rectangular when split on ``\\n`` only: U+2028 is a
  legal value, which ``str.splitlines`` would split on.

``PARAEVAL_BAD_INPUT_RUNS`` sets the number of mutations of each input and
kind (default 40) for a longer run outside the normal test run::

    PARAEVAL_BAD_INPUT_RUNS=300 pytest tests/test_bad_input.py
"""

import gzip
import io
import json
import os
import random
import re
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from helpers import make_rating
from paraeval import fileio, metrics
from paraeval.cli import REPORT_HEADER, main
from paraeval.paragraphs import build_paragraphs

RUNS = int(os.environ.get("PARAEVAL_BAD_INPUT_RUNS", "40"))

# Each command form: its arguments, and the outputs of a run that exits 0.
P, R, S, C = "{paragraphs}", "{ratings}", "{scores}", "{config}"
FORMS = {
    "validate": (["validate", "--ratings", R], []),
    "build-paragraphs": (["build-paragraphs", "--ratings", R, "--k", "1-3",
                          "--out", "{out}"],
                         ["paragraphs-k1.jsonl", "paragraphs-k2.jsonl",
                          "paragraphs-k3.jsonl"]),
    "export-uniform": (["export-training", "--paragraphs", P, "--size", "5",
                        "--out", "{out}/sample.jsonl"], ["sample.jsonl"]),
    "export-stratified": (["export-training", "--paragraphs", P, "--strategy",
                           "stratified", "--ks", "1,2", "--size", "4", "--seed", "3",
                           "--out", "{out}/sample.jsonl"], ["sample.jsonl"]),
    "score-direct": (["score", "--paragraphs", P, "--out", "{out}/scores.tsv"],
                     ["scores.tsv"]),
    "score-aligned": (["score", "--paragraphs", P, "--mode", "aligned", "--ratings", R,
                       "--out", "{out}/scores.tsv"], ["scores.tsv"]),
    "metaeval-segment": (["metaeval", "--paragraphs", P, "--scores", S, "--tau-opt",
                          "--pearson", "--ties", "--epsilon", "0.01", "--out", "{out}/r"],
                         ["r.tsv", "r.jsonl"]),
    "metaeval-system": (["metaeval", "--paragraphs", P, "--scores", S, "--level",
                         "system", "--pearson", "--out", "{out}/r"], ["r.tsv", "r.jsonl"]),
    "metaeval-aligned": (["metaeval", "--paragraphs", P, "--metric", "bleu", "--mode",
                          "aligned", "--ratings", R, "--tau-opt", "--out", "{out}/r"],
                         ["r.tsv", "r.jsonl"]),
    "ties-scores": (["ties", "--paragraphs", P, "--scores", S, "--out", "{out}/r"],
                    ["r.tsv", "r.jsonl"]),
    "ties-human": (["ties", "--paragraphs", P, "--out", "{out}/r"], ["r.tsv", "r.jsonl"]),
    "compare-modes": (["compare-modes", "--paragraphs", P, "--ratings", R,
                       "--out", "{out}/r"], ["r.tsv", "r.jsonl"]),
    "stats": (["stats", "--paragraphs", P, "--lengths", "--truncation", "--budget", "12",
               "--out", "{out}/r"], ["r.tsv", "r.jsonl"]),
    "simulate": (["simulate", "--config", C, "--ks", "1,2", "--seeds", "2",
                  "--out", "{out}/r"], ["r.tsv", "r.jsonl"]),
}
INPUTS = {"ratings": R, "paragraphs": P, "scores": S, "config": C}

CONFIG = """\
# a small simulator configuration
n_items = 6
n_systems = 3
max_k = 2
sigma_quality = 1.0
sigma_human = 0.5
sigma_metric = 0.5
system_mean_spread = 0.5
seed = 20210731
"""
WORDS = "the a cat dog sat lay on under mat rug".split()


def corpus_records():
    """Two documents of four sentences by four systems and two raters; sysD
    leaves a gap, and the first document carries token counts."""
    rng = random.Random(0)
    records = []
    for d, doc in enumerate(("doc1", "doc2")):
        for i in range(4):
            reference = " ".join(rng.choice(WORDS) for _ in range(6))
            for system in ("sysA", "sysB", "sysC", "sysD"):
                if (system, doc, i) == ("sysD", "doc2", 1):
                    continue
                words = reference.split()
                words[rng.randrange(6)] = rng.choice(WORDS)
                records.append(make_rating(
                    i, rater_id="r1" if i < 2 else "r2", score=round(rng.gauss(0, 1), 1),
                    system_id=system, doc_id=doc, source_text=f"source {d} {i}",
                    reference_text=reference, hypothesis_text=" ".join(words),
                    token_count_ref=6 if d == 0 else None,
                    token_count_hyp=6 if d == 0 else None))
    return records


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Each input's path and its bytes."""
    root = tmp_path_factory.mktemp("corpus")
    records = corpus_records()
    paragraphs = [p for k in (1, 2) for p in build_paragraphs(records, k)]
    rows = []
    for k in (1, 2):
        table = metrics.score_direct([p for p in paragraphs if p.k == k])
        rows += fileio.score_rows("bleu", "en-de", table.entries)
        rows += fileio.score_rows("rounded", "en-de", {
            key: round(score, 1) for key, score in table.entries.items()})
    paths = {name: root / name for name in INPUTS}
    with open(paths["ratings"], "w", encoding="utf-8") as stream:
        fileio.write_ratings(records, stream)
    with open(paths["paragraphs"], "w", encoding="utf-8") as stream:
        fileio.write_paragraphs(paragraphs, stream)
    with open(paths["scores"], "w", encoding="utf-8") as stream:
        fileio.write_scores(sorted(rows), stream)
    paths["config"].write_text(CONFIG, encoding="utf-8")
    return {name: (path, path.read_bytes()) for name, path in paths.items()}


# --- mutations ---------------------------------------------------------------

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _position(rng, data):
    """Just inside a random string half the time, else anywhere."""
    quotes = [m.end() for m in re.finditer(rb'"', data)]
    if quotes and rng.random() < 0.5:
        return rng.choice(quotes)
    return rng.randrange(len(data) + 1)


def _insert(insertion):
    def mutate(rng, data):
        at = _position(rng, data)
        return data[:at] + insertion + data[at:]
    return mutate


def _number(replacement):
    def mutate(rng, data):
        found = list(NUMBER.finditer(data))
        if not found:
            return data
        match = rng.choice(found)
        return data[:match.start()] + replacement + data[match.end():]
    return mutate


def _delete(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + data[at + rng.randint(1, 24):]


def _duplicate_line(rng, data):
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at + 1] + lines[at:])


def _cut(rng, data):
    return data[:rng.randrange(len(data))]


def _gzip_magic(rng, data):
    return b"\x1f\x8b" + data


def _gzipped_cut(rng, data):
    packed = gzip.compress(data, mtime=0)
    return packed[:rng.randrange(len(packed) + 1)]  # the whole stream is legal too


BYTE_MUTATIONS = [_insert(rb"\ud800"), _number(b"1e400"), _number(b"NaN"), _gzip_magic,
                  _gzipped_cut, _insert("\u2028".encode()), _insert(b"\t"), _delete,
                  _duplicate_line, _cut]

# Edge values for one JSON field; "other" takes another record's value.
JSON_VALUES = [10 ** 20, 1e308, 5e-324, -0.0, "", "\ud800", "a\u2028b", None, [], True,
               "other", "other"]
TEXT_VALUES = ["100000000000000000000", "1e308", "5e-324", "-0.0", "", "1e400", "nan",
               "\u2028", "0x10", "\ud800", "other", "other"]


def _mutate_jsonl(rng, data):
    lines = data.decode().split("\n")[:-1]
    objects = [json.loads(line) for line in lines]
    at = rng.randrange(len(objects))
    obj = objects[at]
    name = rng.choice(sorted(obj))
    value = rng.choice(JSON_VALUES + ["delete"])
    if value == "delete":
        del obj[name]
    else:
        obj[name] = rng.choice(objects)[name] if value == "other" else value
    lines[at] = json.dumps(obj)  # ASCII, with a lone surrogate as its escape
    return "".join(line + "\n" for line in lines).encode()


def _mutate_scores(rng, data):
    rows = [line.split("\t") for line in data.decode().split("\n")[:-1]]
    at = rng.randrange(len(rows)) if rng.random() < 0.95 else 0  # the header now and then
    column = rng.randrange(len(rows[at]))
    value = rng.choice(TEXT_VALUES + ["delete"])
    if value == "delete":
        del rows[at][column]
    else:
        rows[at][column] = (rng.choice(rows[1:])[column] if value == "other" else value)
    return "".join("\t".join(row) + "\n" for row in rows).encode("utf-8", "surrogatepass")


def _mutate_config(rng, data):
    lines = data.decode().split("\n")[:-1]
    at = rng.randrange(1, len(lines))  # past the comment
    value = rng.choice(TEXT_VALUES + ["delete"])
    if value == "delete":
        del lines[at]
    else:
        if value == "other":
            value = rng.choice(lines[1:]).partition("=")[2].strip()
        lines[at] = f"{lines[at].partition('=')[0]}= {value}"
    return "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")


FIELD_MUTATIONS = {"ratings": _mutate_jsonl, "paragraphs": _mutate_jsonl,
                   "scores": _mutate_scores, "config": _mutate_config}


def mutations(name, kind, data):
    """The input's mutated bytes, one per run, each from its own seed."""
    for run in range(RUNS):
        rng = random.Random(f"{name}-{kind}-{run}")
        if kind == "bytes":
            yield run, rng.choice(BYTE_MUTATIONS)(rng, data)
        else:
            yield run, FIELD_MUTATIONS[name](rng, data)


# --- checks --------------------------------------------------------------------

def run(argv):
    """main's exit code, stdout and stderr; nothing but SystemExit may escape.
    The streams are a command-line run's in a UTF-8 locale: stdout is strict,
    and stderr writes a lone surrogate as its escape."""
    stdout, stderr = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)
                      for errors in ("strict", "backslashreplace"))
    # Warnings print as in a command-line run; RuntimeWarning is not a failure.
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("default")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, *(stream.detach().getvalue() for stream in (stdout, stderr))


def check_output(path):
    """The output reads back through the package's readers."""
    data = path.read_bytes()
    if path.suffix == ".tsv" and data.startswith(b"metric\t"):
        fileio.load_external_scores(path)
    elif path.name.startswith(("paragraphs-", "sample")):
        with fileio.open_input(path) as stream:
            fileio.read_paragraphs(stream)
    elif path.suffix == ".tsv":
        header, *rows = [line.split("\t") for line in data.decode().split("\n")[:-1]]
        assert header == list(REPORT_HEADER)
        assert all(len(row) == len(header) for row in rows), data
        jsonl = path.with_suffix(".jsonl").read_bytes().decode().split("\n")[:-1]
        assert len(jsonl) == len(rows)
    else:
        for line in data.decode().split("\n")[:-1]:
            assert list(json.loads(line)) == list(REPORT_HEADER)


@pytest.mark.parametrize("kind", ["bytes", "fields"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_mutated_input_exits_0_1_or_2_and_leaves_only_readable_outputs(
        name, kind, corpus, tmp_path):
    paths = {other: str(path) for other, (path, _) in corpus.items()}
    mutated = tmp_path / name
    paths[name] = str(mutated)
    out = tmp_path / "out"
    forms = {form: spec for form, spec in FORMS.items() if INPUTS[name] in spec[0]}
    for number, data in mutations(name, kind, corpus[name][1]):
        mutated.write_bytes(data)
        for form, (argv, outputs) in forms.items():
            where = f"{form} on {name} {kind} run {number}: {data[:3000]!r}"
            out.mkdir()
            code, stdout, stderr = run([arg.format(out=out, **paths) for arg in argv])
            assert code in (0, 1, 2), where
            written = sorted(p.name for p in out.rglob("*") if p.is_file())
            if code == 0:
                assert written == sorted(outputs), where
                for output in outputs:
                    check_output(out / output)
            else:
                assert written == [], where
                assert stderr, where
                if form != "validate":
                    assert stdout == b"", where
            shutil.rmtree(out)
