"""The whole pipeline against the noise model's closed form.

Ratings drawn from ``noise.py``'s generative model (system means, then per
sentence a true quality, a human rating and a metric score) go through the
real CLI: ``build-paragraphs``, then ``metaeval --scores --tau-opt`` on a
scores file that gives each paragraph the mean of its sentences' metric
draws. Over fixed seeds, each k's mean segment accuracy must land on the
model's exact expectation, ``oracles.expected_segment_accuracy``. The draws
come from a seeded ``random.Random``, so no numpy release can move them.
"""

import math
import random
from statistics import fmean, stdev

import pytest

import oracles
from helpers import make_rating
from paraeval import fileio
from paraeval.cli import main
from paraeval.model import ScoreType

SYSTEMS, DOCS, SENTENCES = 6, 30, 20
SIGMA, SPREAD = 1.0, 0.5  # sigma_quality = sigma_human = sigma_metric, system_mean_spread
KS = (1, 2, 5, 10)
SEEDS = range(10)


def draws(seed):
    """Each (system, doc) document's human and metric scores, sentence by sentence."""
    rng = random.Random(seed)
    means = [rng.gauss(0.0, SPREAD) for _ in range(SYSTEMS)]
    documents = {}
    for doc in range(DOCS):
        for system, mean in enumerate(means):
            human, metric = [], []
            for _ in range(SENTENCES):
                quality = mean + rng.gauss(0.0, SIGMA)
                human.append(quality + rng.gauss(0.0, SIGMA))
                metric.append(quality + rng.gauss(0.0, SIGMA))
            documents[f"sys{system}", f"d{doc:02d}"] = human, metric
    return documents


def accuracies(documents, score_type, tmp_path):
    """The run's segment accuracy at epsilon 0 and its tau-opt accuracy, per k."""
    tmp_path.mkdir()
    ratings, built = tmp_path / "ratings.jsonl", tmp_path / "built"
    with open(ratings, "w", encoding="utf-8") as stream:
        fileio.write_ratings([
            make_rating(i, f"rater-{doc}", score, dataset_id="sim", system_id=system,
                        doc_id=doc, score_type=score_type, source_text="",
                        reference_text="", hypothesis_text="")
            for (system, doc), (human, _) in documents.items()
            for i, score in enumerate(human)], stream)
    assert main(["build-paragraphs", "--ratings", str(ratings), "--k",
                 ",".join(map(str, KS)), "--out", str(built)]) == 0
    paragraphs = tmp_path / "paragraphs.jsonl"
    paragraphs.write_text("".join((built / f"paragraphs-k{k}.jsonl").read_text(encoding="utf-8")
                                  for k in KS), encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    with open(scores, "w", encoding="utf-8") as stream:
        fileio.write_scores([
            ("sim", "en-de", system, doc, start, k, fmean(metric[start:start + k]))
            for (system, doc), (_, metric) in documents.items()
            for k in KS for start in range(0, SENTENCES, k)], stream)
    base = tmp_path / "report"
    assert main(["metaeval", "--paragraphs", str(paragraphs), "--scores", str(scores),
                 "--tau-opt", "--out", str(base)]) == 0
    with open(f"{base}.tsv", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n").split("\t")
        report = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in stream]
    by_k = {}
    for row in report:
        by_k.setdefault(int(row["k"]), {})[row["statistic"]] = float(row["value"])
    assert sorted(by_k) == list(KS)
    return by_k


def test_the_closed_form_reads_the_noise_model_s_published_values():
    assert [round(oracles.expected_segment_accuracy(k, SIGMA, SIGMA, SIGMA, SPREAD), 4)
            for k in KS] == [0.6875, 0.7048, 0.7434, 0.7837]


@pytest.mark.parametrize("score_type", list(ScoreType), ids=lambda t: t.value)
def test_segment_accuracy_lands_on_the_closed_form(score_type, tmp_path):
    per_k = {k: [] for k in KS}
    for seed in SEEDS:
        run = accuracies(draws(seed), score_type, tmp_path / f"seed{seed}")
        for k in KS:
            accuracy, tau_opt = (run[k][name] for name in
                                 ("segment_accuracy", "segment_accuracy_tau_opt"))
            assert tau_opt >= accuracy
            per_k[k].append(accuracy)
    for k, values in per_k.items():
        expected = oracles.expected_segment_accuracy(k, SIGMA, SIGMA, SIGMA, SPREAD)
        standard_error = stdev(values) / math.sqrt(len(values))
        assert abs(fmean(values) - expected) <= 4 * standard_error, (k, values)
