"""Small factories shared across test modules."""

import os
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from paraeval.model import EvalItem, RatingRecord, ScoreType, SystemEntry


def make_rating(sent_index=0, rater_id="r1", score=0.0, *, dataset_id="wmt",
                lang_pair="en-de", system_id="sysA", doc_id="doc1",
                score_type=ScoreType.DA_Z, source_text=None,
                reference_text=None, hypothesis_text=None,
                token_count_ref=None, token_count_hyp=None):
    return RatingRecord(
        dataset_id=dataset_id,
        lang_pair=lang_pair,
        system_id=system_id,
        doc_id=doc_id,
        sent_index=sent_index,
        rater_id=rater_id,
        score=score,
        score_type=score_type,
        source_text=(source_text if source_text is not None
                     else f"source {sent_index}"),
        reference_text=(reference_text if reference_text is not None
                        else f"reference {sent_index}"),
        hypothesis_text=(hypothesis_text if hypothesis_text is not None
                         else f"hypothesis {sent_index}"),
        token_count_ref=token_count_ref,
        token_count_hyp=token_count_hyp,
    )


def record_fields(record):
    """A record's fields by name, in declaration order; slotted records have no
    ``__dict__`` for ``vars``."""
    return {field.name: getattr(record, field.name) for field in fields(record)}


def make_item(human, metric=None, doc_id="doc1", start_index=0, k=1):
    """Build an EvalItem from per-system score dicts keyed by system id."""
    per_system = {}
    for system, human_score in human.items():
        metric_score = None if metric is None else metric[system]
        per_system[system] = SystemEntry(human_score=human_score,
                                         metric_score=metric_score)
    return EvalItem(item_key=(doc_id, start_index, k), per_system=per_system)


@contextmanager
def feeding_pipe(path, data):
    """A named pipe at path; a thread writes data to it once a reader opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=Path(path).write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive(), f"the writer to {path} did not finish"
