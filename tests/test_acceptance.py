"""End-to-end acceptance checks, one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion. The real-data reproduction test is skipped unless
PARAEVAL_WMT_RATINGS points at a prepared ratings file (see README).
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest
import scipy.stats

import oracles
from helpers import make_item, make_rating
from paraeval import fileio, metaeval
from paraeval.cli import main
from paraeval.metaeval import (pair_table, pearson_no_grouping,
                               segment_accuracy, system_pairwise_accuracy,
                               system_scores, tau_optimize, tie_rates)
from paraeval.metrics import (bleu_corpus, bleu_sentence, truncation_stats,
                              whitespace_token_count)
from paraeval.model import EvalItem, ScoreTable, SimConfig, SystemEntry
from paraeval.noise import noise_curve
from paraeval.paragraphs import build_paragraphs


def test_paragraph_builder_matches_greedy_scan_oracle_on_1000_layouts():
    rng = random.Random(20250815)
    started = time.perf_counter()
    for layout in range(1000):
        length = rng.randint(1, 30)
        rater_pool = [f"r{j}" for j in range(rng.randint(1, 4))]
        density = rng.choice([0.3, 0.6, 0.9])
        rated = [rng.random() < density for _ in range(length)]
        raters = [rng.choice(rater_pool) for _ in range(length)]
        records = [make_rating(sent_index=j, rater_id=raters[j],
                               score=float(j % 7), doc_id=f"doc{layout}")
                   for j in range(length) if rated[j]]
        for k in range(1, 11):
            built = build_paragraphs(records, k)
            starts = [p.start_index for p in built]
            assert starts == oracles.window_starts(rated, raters, k), \
                f"layout {layout}, k={k}"
            assert len(built) == oracles.run_window_count(rated, raters, k)
            for p in built:
                window = range(p.start_index, p.start_index + k)
                assert all(rated[j] for j in window)
                assert {raters[j] for j in window} == {p.rater_id}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_bleu_matches_naive_counting_oracle_on_200_random_pairs():
    rng = random.Random(977)
    vocabulary = [f"w{i}" for i in range(20)]
    started = time.perf_counter()
    pairs = []
    for _ in range(200):
        ref_tokens = rng.choices(vocabulary, k=rng.randint(1, 40))
        if rng.random() < 0.4:
            keep = rng.randint(1, len(ref_tokens))
            hyp_tokens = ref_tokens[:keep] + rng.choices(
                vocabulary, k=rng.randint(0, 12))
        else:
            hyp_tokens = rng.choices(vocabulary, k=rng.randint(1, 40))
        pairs.append((" ".join(hyp_tokens), " ".join(ref_tokens)))
    for hyp, ref in pairs:
        assert abs(bleu_sentence(hyp, ref) - oracles.bleu_sentence(hyp, ref)) \
            <= 1e-9
    assert abs(bleu_corpus(pairs) - oracles.bleu_corpus(pairs)) <= 1e-9
    for start in range(0, 200, 10):
        chunk = pairs[start:start + 10]
        assert abs(bleu_corpus(chunk) - oracles.bleu_corpus(chunk)) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget is 5s"


def _random_table(rng):
    """Items with integer human scores whose per-system sums are distinct."""
    n_systems = rng.randint(3, 10)
    n_items = rng.randint(5, 50)
    systems = [f"s{j:02d}" for j in range(n_systems)]
    while True:
        human = {s: [float(rng.randint(-10, 10)) for _ in range(n_items)]
                 for s in systems}
        sums = [sum(scores) for scores in human.values()]
        if len(set(sums)) == len(sums):
            break
    grid = [round(rng.uniform(-1, 1), 1) for _ in range(6)]
    metric = {s: [rng.choice(grid) if rng.random() < 0.5
                  else rng.uniform(-1, 1) for _ in range(n_items)]
              for s in systems}
    items = [make_item({s: human[s][i] for s in systems},
                       {s: metric[s][i] for s in systems},
                       doc_id=f"d{i:03d}")
             for i in range(n_items)]
    return items


def _human_entries(items, factor=1.0):
    """(system, item) -> human score, scaled by factor."""
    return {(system, item.item_key): entry.human_score * factor
            for item in items for system, entry in item.per_system.items()}


def _scaled(items, human_factor):
    rescaled = []
    for item in items:
        per_system = {
            s: SystemEntry(human_score=entry.human_score * human_factor,
                           metric_score=entry.metric_score)
            for s, entry in item.per_system.items()}
        rescaled.append(EvalItem(item_key=item.item_key,
                                 per_system=per_system))
    return rescaled


def test_metaeval_invariance_suite_on_100_random_tables():
    rng = random.Random(60221023)
    started = time.perf_counter()
    brute_force_checked = 0
    for trial in range(100):
        items = _random_table(rng)
        pairs = pair_table(items)
        scaled = pair_table(_scaled(items, 2.7))

        # (a) scaling human scores by 2.7 is bit-equal everywhere
        for epsilon in (0.0, 0.25):
            assert segment_accuracy(scaled, epsilon) == \
                segment_accuracy(pairs, epsilon)
        original_tau = tau_optimize(pairs)
        scaled_tau = tau_optimize(scaled)
        assert scaled_tau.epsilon == original_tau.epsilon
        assert scaled_tau.accuracy_at_epsilon == original_tau.accuracy_at_epsilon
        assert tie_rates(scaled.human) == tie_rates(pairs.human)
        assert tie_rates(scaled.metric) == tie_rates(pairs.metric)
        table = ScoreTable(
            metric_name="m",
            entries={(s, item.item_key): item.per_system[s].metric_score
                     for item in items for s in item.per_system})
        metric_sys = system_scores(table.entries)
        assert system_pairwise_accuracy(
            metric_sys, system_scores(_human_entries(items))) == \
            system_pairwise_accuracy(
                metric_sys, system_scores(_human_entries(items, 2.7)))

        # (b) the tuned threshold never loses to epsilon = 0
        assert original_tau.accuracy_at_epsilon >= segment_accuracy(pairs, 0.0)

        # (c) brute-force pair enumeration agrees on small tables
        if len(items[0].per_system) <= 5:
            brute_force_checked += 1
            for epsilon in (0.0, 0.3):
                assert segment_accuracy(pairs, epsilon) == \
                    float(oracles.segment_accuracy_exact(items, epsilon))
    assert brute_force_checked >= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_hand_computed_fixtures_match_pinned_values():
    human_sys = {"a": 3.0, "b": 2.0, "c": 1.0}
    metric_sys = {"a": 3.0, "b": 1.0, "c": 2.0}
    assert system_pairwise_accuracy(metric_sys, human_sys) == \
        float(Fraction(2, 3))

    pairs = pair_table([make_item({"a": 0.0, "b": 0.0, "c": -5.0},
                                  {"a": 1.0, "b": 1.1, "c": 0.2})])
    assert segment_accuracy(pairs, 0.0) == float(Fraction(2, 3))
    calibration = tau_optimize(pairs)
    assert calibration.epsilon == pytest.approx(0.1, abs=1e-12)
    assert calibration.accuracy_at_epsilon == 1.0
    assert segment_accuracy(pairs, calibration.epsilon) == 1.0

    assert pearson_no_grouping([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == \
        pytest.approx(0.5, abs=1e-12)


def test_noise_curve_mean_accuracy_increases_with_k():
    config = SimConfig(n_items=200, n_systems=8, max_k=10,
                       sigma_quality=1.0, sigma_human=1.0, sigma_metric=1.0,
                       system_mean_spread=0.5, seed=20210731)
    started = time.perf_counter()
    points = noise_curve(config, ks=[1, 2, 5, 10], n_seeds=50)
    elapsed = time.perf_counter() - started
    means = [p.mean_accuracy for p in points]
    assert [p.k for p in points] == [1, 2, 5, 10]
    assert means == sorted(means) and len(set(means)) == 4, \
        f"means not strictly increasing: {means}"
    acc1 = points[0].per_seed
    acc10 = points[-1].per_seed
    result = scipy.stats.ttest_rel(acc10, acc1, alternative="greater")
    assert result.pvalue < 0.05, f"paired test p={result.pvalue}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


WMT_ENV = "PARAEVAL_WMT_RATINGS"
WMT_EXPECTED_COUNTS = [7905, 3825, 2460, 1800, 1395, 1140, 870, 765, 660, 585]


@pytest.mark.skipif(not os.environ.get(WMT_ENV),
                    reason=f"set {WMT_ENV} to a prepared WMT'21 MQM en-de "
                           f"ratings file to run the real-data reproduction")
def test_wmt21_mqm_ende_paragraph_counts_and_truncation():
    records = [r for r in fileio.load_ratings(os.environ[WMT_ENV])
               if r.lang_pair == "en-de"]
    counts = [len(build_paragraphs(records, k)) for k in range(1, 11)]
    assert counts == WMT_EXPECTED_COUNTS
    k10 = build_paragraphs(records, 10)
    truncated, fraction = truncation_stats(k10, whitespace_token_count,
                                           1024)[10]
    assert truncated == 488
    assert fraction == pytest.approx(0.27, abs=0.005)


def _determinism_corpus(rng):
    """Two lang pairs, 4 systems, multi-sentence docs with real overlap."""
    vocabulary = [f"tok{i}" for i in range(30)]
    substitutions = {"sysA": 0, "sysB": 1, "sysC": 2, "sysD": 3}
    records = []
    for lang_pair in ("en-de", "en-ru"):
        for d in range(6):
            doc_id = f"{lang_pair}-doc{d}"
            n_sentences = rng.randint(2, 5)
            references = [rng.choices(vocabulary, k=rng.randint(8, 12))
                          for _ in range(n_sentences)]
            for system, n_subs in substitutions.items():
                for i, reference in enumerate(references):
                    hypothesis = list(reference)
                    for position in rng.sample(range(len(hypothesis)),
                                               k=n_subs):
                        hypothesis[position] = rng.choice(vocabulary)
                    records.append(make_rating(
                        sent_index=i, rater_id="r1",
                        score=rng.uniform(-2, 2), lang_pair=lang_pair,
                        system_id=system, doc_id=doc_id,
                        reference_text=" ".join(reference),
                        hypothesis_text=" ".join(hypothesis)))
    return records


def test_cli_reports_are_byte_identical_across_runs_and_input_order(tmp_path):
    rng = random.Random(73)
    records = _determinism_corpus(rng)
    ratings = tmp_path / "ratings.jsonl"
    with open(ratings, "w", encoding="utf-8") as stream:
        fileio.write_ratings(records, stream)
    paragraphs = [p for k in (1, 2, 3) for p in build_paragraphs(records, k)]
    paragraphs_path = tmp_path / "paragraphs.jsonl"
    with open(paragraphs_path, "w", encoding="utf-8") as stream:
        fileio.write_paragraphs(paragraphs, stream)
    lines = paragraphs_path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(74).shuffle(lines)
    shuffled_path = tmp_path / "shuffled.jsonl"
    shuffled_path.write_text("".join(lines), encoding="utf-8")
    config_path = tmp_path / "sim.cfg"
    config_path.write_text(
        "n_items = 20\nn_systems = 3\nmax_k = 5\nsigma_quality = 1.0\n"
        "sigma_human = 0.5\nsigma_metric = 0.5\nsystem_mean_spread = 0.5\n"
        "seed = 99\n", encoding="utf-8")

    def commands(paragraphs):
        return {
            "score": ["score", "--paragraphs", paragraphs, "--metric", "bleu",
                      "--mode", "aligned", "--ratings", str(ratings)],
            "metaeval-segment": ["metaeval", "--paragraphs", paragraphs,
                                 "--metric", "bleu", "--tau-opt", "--pearson",
                                 "--ties"],
            "metaeval-system": ["metaeval", "--paragraphs", paragraphs,
                                "--metric", "bleu", "--level", "system"],
            "ties": ["ties", "--paragraphs", paragraphs, "--metric", "bleu"],
            "compare-modes": ["compare-modes", "--paragraphs", paragraphs,
                              "--ratings", str(ratings), "--metric", "bleu"],
            "stats": ["stats", "--paragraphs", paragraphs, "--lengths",
                      "--truncation"],
        }

    def outputs(name, argv, run_id):
        base = tmp_path / f"{name}-{run_id}"
        out = str(base) if name != "score" else str(base) + ".tsv"
        assert main(argv + ["--out", out]) == 0
        produced = sorted(tmp_path.glob(f"{name}-{run_id}*"))
        assert produced, f"{name} wrote no outputs"
        return [path.read_bytes() for path in produced]

    shuffled = commands(str(shuffled_path))
    for name, argv in commands(str(paragraphs_path)).items():
        first = outputs(name, argv, "run1")
        assert outputs(name, argv, "run2") == first, \
            f"{name} differs between identical runs"
        assert outputs(name, shuffled[name], "shuffled") == first, \
            f"{name} differs on shuffled input lines"
    simulate = ["simulate", "--config", str(config_path), "--ks", "1,3,5",
                "--seeds", "5"]
    assert outputs("simulate", simulate, "run1") == \
        outputs("simulate", simulate, "run2"), \
        "simulate differs between identical runs"
