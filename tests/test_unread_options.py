"""The unread-option gate: an option that a run would not read exits 1.

For each command form of the bad-input gate (``tests/test_bad_input.py``),
on its clean corpus, each optional flag of the command that the form does not
give runs with two values that would both be legal if the flag were read; a
switch runs absent and present. The flag passes when one of these holds:

- every run that gives it exits 1 with its "applies only to" message;
- both runs exit 0, and their outputs or stdout bytes differ;
- a run prints the flag's note (``note: FLAG ...`` on stderr).

A (form, flag) pair that cannot take two legal values is listed in
``SINGLE_VALUED`` with its reason.
"""

import argparse
import shutil

import pytest

from paraeval import fileio
from paraeval.cli import build_parser
from paraeval.paragraphs import build_paragraphs
from test_bad_input import FORMS, corpus, corpus_records, run  # noqa: F401  (a fixture)

# Two values of each optional flag that takes one; "{ratings2}" and "{scores2}"
# are legal inputs that differ from the corpus's.
VALUES = {
    "--ratings": ("{ratings}", "{ratings2}"),
    "--scores": ("{scores}", "{scores2}"),
    "--mode": ("direct", "aligned"),
    "--strategy": ("uniform", "stratified"),
    "--ks": ("1", "1,2"),
    "--seed": ("1", "2"),
    "--label": ("a", "b"),
    "--level": ("segment", "system"),
    "--epsilon": ("0", "0.5"),
    "--percentiles": ("50", "90"),
    "--counter": ("whitespace", "char"),
}
SINGLE_VALUED = {
    **{(form, "--metric"): "its one choice, bleu, is its default"
       for form in ("score-direct", "score-aligned", "compare-modes")},
    **{(form, "--metric"): "the form's --scores is its one score source"
       for form in ("metaeval-segment", "metaeval-system", "ties-scores")},
    ("ties-human", "--metric"): "it has one choice, bleu",
    ("metaeval-aligned", "--scores"): "the form's --metric is its one score source",
    ("score-direct", "--mode"): "aligned mode needs --ratings, which the form does not give",
    ("metaeval-segment", "--level"): "--level system refuses the form's --epsilon",
    ("export-uniform", "--strategy"): "the stratified strategy cannot split the form's "
                                      "--size 5 between the pool's two ks",
}


def optional_flags(command):
    """Each optional flag of the command, and whether it is a switch."""
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {action.option_strings[0]: action.nargs == 0
            for action in subparsers.choices[command]._actions
            if action.option_strings and not action.required and action.dest != "help"}


PAIRS = [(form, flag, switch) for form, (argv, _) in FORMS.items()
         for flag, switch in optional_flags(argv[0]).items() if flag not in argv]
GATED = [pair for pair in PAIRS if pair[:2] not in SINGLE_VALUED]


@pytest.fixture(scope="module")
def inputs(corpus, tmp_path_factory):  # noqa: F811
    """The corpus's input paths, and a second ratings and scores file: the
    ratings without system sysD, and the scores of one metric."""
    root = tmp_path_factory.mktemp("second")
    paths = {name: str(path) for name, (path, _) in corpus.items()}
    for name, keep in (("ratings", lambda line: b'"sysD"' not in line),
                       ("scores", lambda line: not line.startswith(b"bleu\t"))):
        path = root / f"{name}2"
        path.write_bytes(b"".join(filter(keep, corpus[name][1].splitlines(keepends=True))))
        paths[f"{name}2"] = str(path)
    return paths


def test_every_single_valued_pair_is_a_pair_of_the_gate():
    assert set(SINGLE_VALUED) <= {(form, flag) for form, flag, _ in PAIRS}


@pytest.mark.parametrize("form, flag, switch", GATED,
                         ids=[f"{form} {flag}" for form, flag, _ in GATED])
def test_an_option_the_form_does_not_give_is_read_or_refused(form, flag, switch, inputs,
                                                             tmp_path):
    argv, _ = FORMS[form]
    out = tmp_path / "out"
    runs = []
    for given in ([], [flag]) if switch else ([flag, value] for value in VALUES[flag]):
        out.mkdir()
        code, stdout, stderr = run([arg.format(out=out, **inputs) for arg in argv + given])
        runs.append((given, code, stdout, stderr,
                     {path.name: path.read_bytes() for path in out.rglob("*") if path.is_file()}))
        shutil.rmtree(out)
    refused = all(code == 1 and f"error: {flag} ".encode() in stderr
                  and b" applies only to " in stderr
                  for given, code, _, stderr, _ in runs if given)
    (_, code0, stdout0, _, outputs0), (_, code1, stdout1, _, outputs1) = runs
    read = code0 == code1 == 0 and (stdout0, outputs0) != (stdout1, outputs1)
    noted = any(f"note: {flag} ".encode() in stderr for _, _, _, stderr, _ in runs)
    assert refused or read or noted, [result[:4] for result in runs]


@pytest.mark.parametrize("docs, notes", [(("doc1",), 1), (("doc1", "doc2"), 0)],
                         ids=["every-count-in-the-file", "counts-missing"])
def test_a_counter_the_run_never_calls_prints_one_note(docs, notes, tmp_path):
    """doc1's ratings carry both token counts and doc2's none, so a counter
    given for doc1 alone is never called; the report is the same either way."""
    paragraphs = tmp_path / "paragraphs.jsonl"
    with open(paragraphs, "w", encoding="utf-8") as stream:
        fileio.write_paragraphs([p for k in (1, 2) for p in build_paragraphs(
            [r for r in corpus_records() if r.doc_id in docs], k)], stream)
    reports = set()
    for counter in ([], ["--counter", "whitespace"], ["--counter", "char"]):
        code, _, stderr = run(["stats", "--paragraphs", str(paragraphs), "--lengths",
                               "--truncation", *counter, "--out", str(tmp_path / "r")])
        assert code == 0
        assert stderr == (b"note: --counter was not read: every count is in the file\n"
                          * notes if counter else b"")
        reports.add((tmp_path / "r.tsv").read_bytes())
    assert len(reports) == (1 if notes else 2)
