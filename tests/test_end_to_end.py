"""End to end: random small corpora through ``cli.main``, every report row
recomputed from the ratings file by ``tests/oracles.py``.

Each example draws a ratings corpus of 1-2 datasets and 1-2 lang_pairs,
2-5 systems, gaps and rater switches, DA_Z or MQM scores on a small grid
(so humans tie) and hypotheses that repeat across systems (so BLEU ties).
It runs validate, build-paragraphs --k 1-3, score in direct and aligned
mode, metaeval at segment level (--tau-opt --pearson --ties) and at system
level, and ties, with three score files: two metrics the test draws on a
grid (plus a table for a k without paragraphs, which must be ignored) and
the two files score wrote; metaeval and ties also score with --metric.

Metric-side statistics are recomputed from those score values, never from
the oracle's own BLEU, because a one-ulp difference can flip an exact tie;
the BLEU values are checked against the oracle BLEU within a tolerance.
A unit that cannot be evaluated fails the whole command, naming the first
such unit in (dataset, lang_pair, k) order.

Then the inputs are mutated: shuffled lines give the same bytes, a
duplicated line exits 2, a lang_pair that spans two datasets exits 2 with
a scores file, and a scores file missing one row exits 2 naming the row,
except in a run that never reads it: the pairwise statistics of metaeval
and ties read only the rows of items with two or more systems, Pearson
and the system level read every row.
"""

import contextlib
import io
import json
import math
import random
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from paraeval import cli

# Fixed examples: a tier-1 gate must not pass on one run and fail on the next.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SYSTEMS = ["sysA", "sysB", "sysC", "sysD", "sysE"]
RATERS = ["r1", "r2"]
WORDS = ["the", "a", "cat", "dog", "sat", "on", "mat", "ran", "über", ",", ".",
         "«", "»", "don't"]
HUMAN_GRID = {"DA_Z": [-1.2, -0.3, 0.0, 0.3, 0.7, 1.0],
              "MQM": [0.0, -0.1, -1.0, -5.0, -25.0]}
METRIC_GRID = [0.0, 0.25, 0.5, 0.7, 1.0, 1.3]
DRAWN_METRICS = ["m2", "m1"]  # in file order; reports list metrics sorted
KS = [1, 2, 3]
REPORT_FIELDS = ["dataset", "lang_pair", "k", "metric", "mode", "statistic",
                 "value", "epsilon"]
SCORES_HEADER = "metric\tlang_pair\tsystem\tdoc_id\tstart_index\tk\tscore"


def sentence(rng):
    return " ".join(rng.choices(WORDS, k=rng.randint(2, 7)))


def variant(rng, text):
    words = text.split()
    for _ in range(rng.randint(1, 2)):
        words[rng.randrange(len(words))] = rng.choice(WORDS)
    return " ".join(words)


@st.composite
def corpora(draw):
    """Rating records as JSON objects, in shuffled order, and their score type."""
    score_type = draw(st.sampled_from(sorted(HUMAN_GRID)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lang_pairs = ["en-de", "en-ru"][:draw(st.integers(1, 2))]
    records = []
    for dataset in ["wmtA", "wmtB"][:draw(st.integers(1, 2))]:
        for lang_pair in sorted(draw(st.sets(st.sampled_from(lang_pairs), min_size=1))):
            systems = SYSTEMS[:draw(st.integers(2, 5))]
            for doc in range(draw(st.integers(1, 3))):
                references = [sentence(rng) for _ in range(draw(st.integers(1, 5)))]
                # Systems share hypotheses, so metric scores tie.
                variants = [[ref, variant(rng, ref), variant(rng, ref)]
                            for ref in references]
                for system in systems:
                    rater = rng.choice(RATERS)
                    for index, reference in enumerate(references):
                        if rng.random() < 0.1:
                            rater = rng.choice(RATERS)
                        if rng.random() < 0.15:
                            continue
                        records.append({
                            "dataset_id": dataset, "lang_pair": lang_pair,
                            "system_id": system, "doc_id": f"doc{doc}",
                            "sent_index": index, "rater_id": rater,
                            "score": rng.choice(HUMAN_GRID[score_type]),
                            "score_type": score_type,
                            "source_text": f"source {doc} {index}",
                            "reference_text": reference,
                            "hypothesis_text": rng.choice(variants[index])})
    rng.shuffle(records)
    return records, rng


# --- running the CLI ----------------------------------------------------------


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    """Every run builds the same parser; building it once per module halves
    the time each example takes."""
    build = cli.build_parser
    parser = build()
    cli.build_parser = lambda: parser
    yield
    cli.build_parser = build


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def unit_name(unit):
    dataset, lang_pair, k = unit
    return f"{dataset}/{lang_pair} k={k}"


# --- oracles over the drawn corpus --------------------------------------------


def expected_paragraphs(records, k):
    """The windows of every document, as build-paragraphs writes them."""
    documents = defaultdict(dict)
    for r in records:
        documents[r["dataset_id"], r["lang_pair"], r["system_id"],
                  r["doc_id"]][r["sent_index"]] = r
    paragraphs = []
    for key in sorted(documents):
        by_index = documents[key]
        positions = range(max(by_index) + 1)
        rated = [i in by_index for i in positions]
        raters = [by_index[i]["rater_id"] if i in by_index else None for i in positions]
        for start in oracles.window_starts(rated, raters, k):
            window = [by_index[i] for i in range(start, start + k)]
            first = window[0]
            paragraphs.append({
                "dataset_id": first["dataset_id"], "lang_pair": first["lang_pair"],
                "system_id": first["system_id"], "doc_id": first["doc_id"],
                "start_index": start, "k": k, "score_type": first["score_type"],
                "rater_id": first["rater_id"],
                "human_score": oracles.paragraph_score(
                    first["score_type"], [r["score"] for r in window]),
                "sentence_scores": [r["score"] for r in window],
                **{field: " ".join(r[field] for r in window) for field in
                   ("source_text", "reference_text", "hypothesis_text")},
                "token_count_ref": None, "token_count_hyp": None})
    return paragraphs


def full_key(p):
    return (p["dataset_id"], p["lang_pair"], p["system_id"], p["doc_id"],
            p["start_index"], p["k"])


def group_units(paragraphs):
    units = defaultdict(list)
    for p in paragraphs:
        units[p["dataset_id"], p["lang_pair"], p["k"]].append(p)
    return {key: sorted(units[key], key=full_key) for key in sorted(units)}


def tokenized(text):
    return " ".join(oracles.tokenize(text))


def oracle_bleu(p, mode, ratings):
    if mode == "direct":
        return oracles.bleu_corpus([(tokenized(p["hypothesis_text"]),
                                     tokenized(p["reference_text"]))])
    sentences = [ratings[p["dataset_id"], p["lang_pair"], p["system_id"],
                         p["doc_id"], i] for i in range(p["start_index"],
                                                        p["start_index"] + p["k"])]
    return math.fsum(oracles.bleu_sentence(tokenized(r["hypothesis_text"]),
                                           tokenized(r["reference_text"]))
                     for r in sentences) / p["k"]


def oracle_items(paragraphs, values):
    """The unit's items of two or more systems, shaped as the oracles read them."""
    items = defaultdict(dict)
    for p in paragraphs:
        items[p["doc_id"], p["start_index"]][p["system_id"]] = SimpleNamespace(
            human_score=p["human_score"], metric_score=values[full_key(p)])
    return [SimpleNamespace(per_system=per_system)
            for _, per_system in sorted(items.items()) if len(per_system) >= 2]


def report_row(unit, metric, mode, statistic, value, epsilon=None):
    return dict(zip(REPORT_FIELDS, (*unit, metric, mode, statistic, value, epsilon)))


def segment_rows(unit, paragraphs, metric, mode, values):
    """metaeval --tau-opt --pearson --ties rows of one table; ValueError where
    the unit cannot be evaluated."""
    items = oracle_items(paragraphs, values)
    accuracy = oracles.segment_accuracy_exact(items, 0.0)
    epsilon, best = oracles.tau_sweep_exact(items)
    covariance, var_x, var_y = oracles.pearson_sums_exact(
        [values[full_key(p)] for p in paragraphs], [p["human_score"] for p in paragraphs])
    if var_x * var_y == 0:
        raise ValueError("zero variance")
    pearson = math.copysign(math.sqrt(covariance ** 2 / (var_x * var_y)), covariance)

    def row(*fields):
        return report_row(unit, metric, mode, *fields)
    return [row("segment_accuracy", float(accuracy), 0.0),
            row("segment_accuracy_tau_opt", float(best), epsilon),
            row("pearson_no_grouping", pearson),
            row("human_tie_rate", float(oracles.tie_rate_exact(items, "human"))),
            row("metric_tie_rate", float(oracles.tie_rate_exact(items, "metric")))]


def system_rows(unit, paragraphs, metric, mode, values):
    metric_scores, human_scores = defaultdict(list), defaultdict(list)
    for p in paragraphs:
        metric_scores[p["system_id"]].append(values[full_key(p)])
        human_scores[p["system_id"]].append(p["human_score"])
    accuracy = oracles.system_accuracy_exact(metric_scores, human_scores)
    return [report_row(unit, metric, mode, "system_pairwise_accuracy", float(accuracy))]


def ties_rows(unit, paragraphs, sources):
    items = oracle_items(paragraphs, defaultdict(float))
    rows = [report_row(unit, "-", "-", "human_tie_rate",
                       float(oracles.tie_rate_exact(items, "human")))]
    for metric, mode, values in sources:
        rows.append(report_row(unit, metric, mode, "metric_tie_rate", float(
            oracles.tie_rate_exact(oracle_items(paragraphs, values), "metric"))))
    return rows


def expected_outcome(units, unit_rows):
    """(None, every row), or (the first unit that cannot be evaluated, None)."""
    rows = []
    for unit, paragraphs in units.items():
        try:
            rows += unit_rows(unit, paragraphs)
        except ValueError:
            return unit, None
    return None, rows


# --- checking what the CLI wrote ------------------------------------------------


def check_report(result, base, expected):
    failed_unit, rows = expected
    code, out, err = result
    if failed_unit is not None:
        assert (code, out) == (2, ""), err
        assert err.startswith(f"error: {unit_name(failed_unit)}: "), err
        assert not Path(f"{base}.tsv").exists() and not Path(f"{base}.jsonl").exists()
        return
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote {len(rows)} rows -> {base}.tsv, {base}.jsonl\n")
    written = [json.loads(line) for line in read_lines(Path(f"{base}.jsonl"))]
    tsv = [line.split("\t") for line in read_lines(Path(f"{base}.tsv"))]
    assert tsv == [REPORT_FIELDS] + [["-" if value is None else str(value)
                                      for value in row.values()] for row in written]
    assert len(written) == len(rows)
    for got, want in zip(written, rows):
        if want["statistic"] == "pearson_no_grouping":
            assert math.isclose(got.pop("value"), want.pop("value"),
                                rel_tol=1e-9, abs_tol=1e-9)
        assert got == want


def check_scores(path, label, units, oracle):
    """The score file's rows, in unit order then row order, each within a
    tolerance of the oracle BLEU; returns the written values by paragraph."""
    lines = read_lines(path)
    assert lines[0] == SCORES_HEADER
    ordered = [p for paragraphs in units.values() for p in sorted(
        paragraphs, key=lambda p: (p["system_id"], p["doc_id"], p["start_index"]))]
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[:6] for row in rows] == [
        [label, p["lang_pair"], p["system_id"], p["doc_id"], str(p["start_index"]),
         str(p["k"])] for p in ordered]
    values = {}
    for p, row in zip(ordered, rows):
        values[full_key(p)] = float(row[6])
        assert math.isclose(values[full_key(p)], oracle(p), rel_tol=1e-9, abs_tol=1e-9)
    return values


def spanning_lang_pair(units):
    """The span error a scores file meets, or None."""
    datasets = defaultdict(set)
    for dataset, lang_pair, _ in units:
        datasets[lang_pair].add(dataset)
    for lang_pair, names in sorted(datasets.items()):
        if len(names) > 1:
            return (f"error: lang_pair {lang_pair} spans datasets "
                    f"{', '.join(sorted(names))}, but the scores file has no "
                    f"dataset column to tell them apart\n")
    return None


# --- the property ---------------------------------------------------------------


@PROPERTY
@given(corpora())
def test_every_report_row_matches_the_oracles(tmp_path_factory, corpus):
    records, rng = corpus
    tmp = tmp_path_factory.mktemp("e2e")
    rating_lines = [json.dumps(r, ensure_ascii=False) for r in records]
    ratings = write_lines(tmp / "ratings.jsonl", rating_lines)

    code, out, err = run("validate", "--ratings", ratings)
    documents = defaultdict(set)
    for r in records:
        documents[r["dataset_id"], r["lang_pair"], r["system_id"],
                  r["doc_id"]].add(r["sent_index"])
    gaps = sum(len(indices) != max(indices) + 1 for indices in documents.values())
    assert code == 0
    assert out == f"{ratings}: {len(records)} records, 0 errors, {gaps} warnings\n"
    assert len(err.splitlines()) == gaps

    built = tmp / "built"
    code, out, err = run("build-paragraphs", "--ratings", ratings, "--k", "1-3",
                         "--out", built)
    if not records:
        assert (code, out, err) == (2, "", f"error: no ratings in {ratings}\n")
        return
    assert (code, err) == (0, "")
    lines = []
    for k in KS:
        expected = expected_paragraphs(records, k)
        path = built / f"paragraphs-k{k}.jsonl"
        assert [json.loads(line) for line in read_lines(path)] == expected
        counts = defaultdict(int)
        for p in expected:
            counts[p["dataset_id"], p["lang_pair"]] += 1
        lines += [f"{d}/{lp} k={k}: {n} paragraphs -> {path}"
                  for (d, lp), n in sorted(counts.items())] or [
            f"k={k}: 0 paragraphs -> {path}"]
    assert out == "\n".join(lines) + "\n"

    paragraph_lines = [line for k in KS
                       for line in read_lines(built / f"paragraphs-k{k}.jsonl")]
    paragraphs = write_lines(tmp / "paragraphs.jsonl", paragraph_lines)
    units = group_units([json.loads(line) for line in paragraph_lines])
    by_rating = {(r["dataset_id"], r["lang_pair"], r["system_id"], r["doc_id"],
                  r["sent_index"]): r for r in records}

    # score in both modes; the files it writes are score sources below.
    scored = {}
    for mode in ("direct", "aligned"):
        path = tmp / f"{mode}.tsv"
        code, out, err = run("score", "--paragraphs", paragraphs, "--mode", mode,
                             *(["--ratings", ratings] if mode == "aligned" else []),
                             "--out", path)
        assert (code, err) == (0, "")
        assert out.endswith(f"wrote {sum(map(len, units.values()))} scores -> {path}\n")
        scored[mode] = (path, check_scores(
            path, f"bleu-{mode}", units, lambda p: oracle_bleu(p, mode, by_rating)))

    # Drawn scores, keyed without the dataset as the file is, two metrics,
    # and a table for k=4, for which no paragraph exists.
    drawn = {metric: {} for metric in DRAWN_METRICS}
    score_lines = [SCORES_HEADER]
    for metric in DRAWN_METRICS:
        by_row = {}
        for p in (p for unit in units.values() for p in unit):
            row = (metric, p["lang_pair"], p["system_id"], p["doc_id"],
                   str(p["start_index"]), str(p["k"]))
            by_row.setdefault(row, rng.choice(METRIC_GRID))
            drawn[metric][full_key(p)] = by_row[row]
        score_lines += ["\t".join(row + (str(value),)) for row, value in by_row.items()]
        score_lines.append(f"{metric}\ten-de\tsysA\tdoc9\t0\t4\t0.5")
    drawn_path = write_lines(tmp / "drawn.tsv", score_lines)

    sources = {"drawn": (drawn_path, [(m, "external", drawn[m]) for m in sorted(drawn)])}
    for mode, (path, values) in scored.items():
        sources[mode] = (path, [(f"bleu-{mode}", "external", values)])
    span_error = spanning_lang_pair(units)
    outcomes = {}

    def check_source(source_args, tables, name, spans):
        if spans is not None:
            for command in ("segment", "system", "ties"):
                argv = (["metaeval", "--level", command] if command != "ties"
                        else ["ties"])
                assert run(*argv, "--paragraphs", paragraphs, *source_args,
                           "--out", tmp / f"{name}-{command}") == (2, "", spans)
            return

        def each_table(rows_of):
            return lambda unit, ps: [row for metric, mode, values in tables
                                     for row in rows_of(unit, ps, metric, mode, values)]
        for command, argv, unit_rows in (
                ("segment", ["metaeval", "--tau-opt", "--pearson", "--ties"],
                 each_table(segment_rows)),
                ("system", ["metaeval", "--level", "system"], each_table(system_rows)),
                ("ties", ["ties"], lambda unit, ps: ties_rows(unit, ps, tables))):
            base = tmp / f"{name}-{command}"
            outcomes[name, command] = expected_outcome(units, unit_rows)
            check_report(run(*argv, "--paragraphs", paragraphs, *source_args,
                             "--out", base), base, outcomes[name, command])

    for name, (path, tables) in sources.items():
        check_source(["--scores", path], tables, name, span_error)
    # The built-in metric gives the values score wrote.
    for mode in ("direct", "aligned"):
        check_source(["--metric", "bleu", "--mode", mode,
                      *(["--ratings", ratings] if mode == "aligned" else [])],
                     [("bleu", mode, scored[mode][1])], f"builtin-{mode}", None)
    base = tmp / "human-ties"
    check_report(run("ties", "--paragraphs", paragraphs, "--out", base), base,
                 expected_outcome(units, lambda unit, ps: ties_rows(unit, ps, [])))

    # Shuffled lines: the same bytes.
    shuffled_ratings = write_lines(tmp / "shuffled-ratings.jsonl",
                                   rng.sample(rating_lines, len(rating_lines)))
    assert run("build-paragraphs", "--ratings", shuffled_ratings, "--k", "1-3",
               "--out", tmp / "rebuilt")[0] == 0
    for k in KS:
        assert (tmp / "rebuilt" / f"paragraphs-k{k}.jsonl").read_bytes() == \
            (built / f"paragraphs-k{k}.jsonl").read_bytes()
    shuffled = write_lines(tmp / "shuffled.jsonl",
                           rng.sample(paragraph_lines, len(paragraph_lines)))
    path = tmp / "shuffled-aligned.tsv"
    assert run("score", "--paragraphs", shuffled, "--mode", "aligned", "--ratings",
               shuffled_ratings, "--out", path)[0] == 0
    assert path.read_bytes() == scored["aligned"][0].read_bytes()
    result = run("metaeval", "--tau-opt", "--pearson", "--ties", "--paragraphs",
                 shuffled, "--metric", "bleu", "--out", tmp / "shuffled-segment")
    assert result == run("metaeval", "--tau-opt", "--pearson", "--ties", "--paragraphs",
                         paragraphs, "--metric", "bleu", "--out", tmp / "shuffled-segment")
    if result[0] == 0:
        assert Path(f"{tmp}/shuffled-segment.tsv").read_bytes() == \
            Path(f"{tmp}/builtin-direct-segment.tsv").read_bytes()

    # A duplicated line: exit 2.
    twice = rng.randrange(len(rating_lines))
    duplicated = write_lines(tmp / "duplicated-ratings.jsonl",
                             rating_lines + [rating_lines[twice]])
    code, out, err = run("validate", "--ratings", duplicated)
    assert code == 2 and out.endswith(f"{len(records) + 1} records, 1 errors, "
                                      f"{gaps} warnings\n")
    code, out, err = run("build-paragraphs", "--ratings", duplicated, "--k", "1",
                         "--out", tmp / "not-built")
    assert (code, out) == (2, "") and "duplicate rating key" in err
    twice = json.loads(rng.choice(paragraph_lines))
    duplicated = write_lines(tmp / "duplicated.jsonl", paragraph_lines + [json.dumps(twice)])
    unit = (twice["dataset_id"], twice["lang_pair"], twice["k"])
    item = (twice["doc_id"], twice["start_index"], twice["k"])
    assert run("metaeval", "--paragraphs", duplicated, "--scores", drawn_path,
               "--out", tmp / "not-written") == (
        2, "", f"error: {unit_name(unit)}: system {twice['system_id']} has two "
               f"paragraphs for item {item}\n")

    # A lang_pair that spans two datasets: exit 2 with a scores file.
    first = next(iter(units))[0]
    other = [json.dumps(dict(p, dataset_id="wmtZ")) for p in map(json.loads, paragraph_lines)
             if p["dataset_id"] == first]
    spanning = write_lines(tmp / "spanning.jsonl", paragraph_lines + other)
    expected = spanning_lang_pair(group_units(map(json.loads, paragraph_lines + other)))
    assert run("metaeval", "--paragraphs", spanning, "--scores", drawn_path,
               "--out", tmp / "not-written") == (2, "", expected)

    # A scores file missing one row: exit 2 naming it where the row is read.
    if span_error is not None or any(outcomes["drawn", command][0] is not None
                                     for command in ("segment", "system", "ties")):
        return
    # Each paragraph's score row, with its unit and whether its item is paired;
    # half the time the row of an item with one system, where there is one.
    rows = []
    for unit, unit_paragraphs in units.items():
        systems = defaultdict(int)
        for p in unit_paragraphs:
            systems[p["doc_id"], p["start_index"]] += 1
        rows += [(unit, p, systems[p["doc_id"], p["start_index"]] >= 2, metric)
                 for p in unit_paragraphs for metric in DRAWN_METRICS]
    unpaired = [row for row in rows if not row[2]]
    unit, p, paired, metric = rng.choice(unpaired if unpaired and rng.random() < 0.5
                                         else rows)
    dropped = "\t".join([metric, p["lang_pair"], p["system_id"], p["doc_id"],
                         str(p["start_index"]), str(p["k"]), ""])
    missing = write_lines(tmp / "missing.tsv",
                          [line for line in score_lines if not line.startswith(dropped)])
    system, item = p["system_id"], (p["doc_id"], p["start_index"], p["k"])
    message = (f"error: {unit_name(unit)}: score table {metric!r} has no entry for "
               f"system {system!r} on item {item}\n")
    for argv in (["metaeval", "--tau-opt", "--pearson", "--ties"],
                 ["metaeval", "--level", "system"]):
        assert run(*argv, "--paragraphs", paragraphs, "--scores", missing,
                   "--out", tmp / "not-written") == (2, "", message)
    # Pairwise statistics read only the rows of items with two or more systems.
    segment = run("metaeval", "--tau-opt", "--ties", "--paragraphs", paragraphs,
                  "--scores", missing, "--out", tmp / "missing-segment")
    ties = run("ties", "--paragraphs", paragraphs, "--scores", missing,
               "--out", tmp / "missing-ties")
    if paired:
        assert segment == ties == (2, "", message)
    else:
        assert segment[0] == ties[0] == 0
        assert (tmp / "missing-ties.tsv").read_bytes() == \
            (tmp / "drawn-ties.tsv").read_bytes()
