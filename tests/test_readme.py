"""The README's Library snippets run, in order, as one program."""

import re
from pathlib import Path

from helpers import make_rating
from paraeval import fileio

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_snippets_run_in_order(tmp_path, monkeypatch):
    hypotheses = {"sysA": ["the cat sat on the mat", "it was a sunny day"],
                  "sysB": ["the cat sat on a mat", "it was a rainy day"],
                  "sysC": ["a dog sat on the mat", "it is a sunny day"]}
    references = ["the cat sat on the mat", "it was a sunny day"]
    records = [make_rating(sent_index=i, rater_id="A", score=-0.5 * s - 0.1 * d - 0.01 * i,
                           system_id=system, doc_id=f"doc{d}",
                           hypothesis_text=hypotheses[system][i],
                           reference_text=references[i])
               for d in range(2) for s, system in enumerate(sorted(hypotheses))
               for i in range(2)]
    with open(tmp_path / "ratings.jsonl", "w", encoding="utf-8") as stream:
        fileio.write_ratings(records, stream)
    monkeypatch.chdir(tmp_path)

    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["table"].metric_name == "bleu"
    assert len(namespace["table"].entries) == len(namespace["paragraphs"]) == 6
    assert len(namespace["pairs"].human) == 6
