"""Correctness checks on the outputs of one benchmark pass.

Nothing here imports paraeval. BLEU, segment accuracy and tau-opt rows are
recomputed with the reference implementations in ``tests/oracles.py``
(loaded read-only from the checkout); everything else is recomputed from
the input files with plain loops. Each check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import unicodedata
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

# Paragraph windows and BLEU rows recomputed per pass, drawn with the seed.
PARAGRAPH_SAMPLES = 20
BLEU_SAMPLES = 25
# The token budget of paraeval's default `stats --truncation` report.
TRUNCATION_BUDGET = 1024


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("paraeval_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tokenize(text: str) -> list[str]:
    """BLEU tokenization as documented: pad Unicode punctuation, split."""
    return "".join(f" {ch} " if unicodedata.category(ch).startswith("P") else ch
                   for ch in text).split()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def read_report(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t")))
                for line in stream if line.strip()]


def read_scores(path: Path) -> dict[tuple, float]:
    """(lang_pair, system, doc, start, k) -> external metric score."""
    scores = {}
    for row in read_report(path):
        key = (row["lang_pair"], row["system"], row["doc_id"],
               int(row["start_index"]), int(row["k"]))
        scores[key] = float(row["score"])
    return scores


# --- paragraph construction -------------------------------------------------

def expected_window_counts(oracles, layout, ks) -> dict[tuple, int]:
    """(lang_pair, k) -> number of windows build_paragraphs must emit."""
    counts: dict[tuple, int] = defaultdict(int)
    for (lang_pair, _, _), (rated, raters) in layout.items():
        for k in ks:
            counts[(lang_pair, k)] += oracles.run_window_count(rated, raters, k)
    return dict(counts)


def check_paragraph_files(paragraph_dir: Path, expected: dict[tuple, int],
                          records: list[dict], rng: random.Random) -> list[str]:
    """Window counts per (lang_pair, k) and a sample of window contents."""
    failures = []
    by_key = {(r["lang_pair"], r["system_id"], r["doc_id"], r["sent_index"]): r
              for r in records}
    for k in sorted({k for _, k in expected}):
        path = paragraph_dir / f"paragraphs-k{k}.jsonl"
        if not path.exists():
            failures.append(f"missing {path.name}")
            continue
        paragraphs = read_jsonl(path)
        got = Counter(p["lang_pair"] for p in paragraphs)
        for (lang_pair, want_k), want in sorted(expected.items()):
            if want_k == k and got.get(lang_pair, 0) != want:
                failures.append(f"{path.name}: {got.get(lang_pair, 0)} "
                                f"{lang_pair} paragraphs, oracle says {want}")
        for p in rng.sample(paragraphs, min(PARAGRAPH_SAMPLES, len(paragraphs))):
            window = [by_key.get((p["lang_pair"], p["system_id"], p["doc_id"], i))
                      for i in range(p["start_index"], p["start_index"] + k)]
            if any(r is None for r in window):
                failures.append(f"{path.name}: window {p['doc_id']}@{p['start_index']} "
                                f"covers an unrated position")
                continue
            scores = [r["score"] for r in window]
            total = 0.0
            for s in scores:
                total += s
            human = total / k if p["score_type"] == "DA_Z" else total
            if (p["sentence_scores"] != scores
                    or not math.isclose(p["human_score"], human,
                                        rel_tol=1e-9, abs_tol=1e-9)
                    or p["hypothesis_text"] != " ".join(r["hypothesis_text"]
                                                        for r in window)
                    or p["reference_text"] != " ".join(r["reference_text"]
                                                       for r in window)
                    or len({r["rater_id"] for r in window}) != 1):
                failures.append(f"{path.name}: window {p['system_id']}/"
                                f"{p['doc_id']}@{p['start_index']} does not match "
                                f"its sentence ratings")
    return failures


# --- bleu-da ----------------------------------------------------------------

def check_validate(stdout: str, n_records: int) -> list[str]:
    lines = stdout.strip().splitlines()
    want = f": {n_records} records, 0 errors,"
    if not lines or want not in lines[-1]:
        return [f"validate summary {lines[-1:]!r} lacks {want!r}"]
    return []


def check_bleu_scores(oracles, scores_path: Path, paragraph_path: Path,
                      rng: random.Random) -> list[str]:
    """Every paragraph scored once; a seeded sample matches oracle BLEU."""
    paragraphs = {(p["lang_pair"], p["system_id"], p["doc_id"], p["start_index"],
                   p["k"]): p for p in read_jsonl(paragraph_path)}
    scores = read_scores(scores_path)
    if set(scores) != set(paragraphs):
        return [f"{scores_path.name}: {len(scores)} score rows for "
                f"{len(paragraphs)} paragraphs, or mismatched keys"]
    failures = []
    for key in rng.sample(sorted(scores), min(BLEU_SAMPLES, len(scores))):
        p = paragraphs[key]
        want = oracles.bleu_corpus([(" ".join(tokenize(p["hypothesis_text"])),
                                     " ".join(tokenize(p["reference_text"])))])
        if not math.isclose(scores[key], want, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"{scores_path.name}: BLEU {scores[key]!r} for {key}, "
                            f"oracle says {want!r}")
    return failures


def check_compare_modes(report_path: Path, lang_pairs: list[str]) -> list[str]:
    rows = read_report(report_path)
    if sorted(r["lang_pair"] for r in rows) != sorted(lang_pairs):
        return [f"{report_path.name}: rows for {[r['lang_pair'] for r in rows]}, "
                f"want one per {lang_pairs}"]
    failures = []
    for row in rows:
        value = float(row["value"])
        if row["statistic"] != "mode_pearson" or not -1.0 <= value <= 1.0:
            failures.append(f"{report_path.name}: bad row {row}")
    return failures


def _nearest_rank(values: list[int], percentile: float) -> int:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)), 1) - 1]


def check_stats(report_path: Path, paragraph_path: Path) -> list[str]:
    """Length percentiles and truncation counts, recomputed from the text."""
    hyp_lengths: dict[tuple, list[int]] = defaultdict(list)
    over: Counter = Counter()
    for p in read_jsonl(paragraph_path):
        key = (p["lang_pair"], p["k"])
        hyp = len(p["hypothesis_text"].split())
        hyp_lengths[key].append(hyp)
        over[key] += len(p["reference_text"].split()) + hyp > TRUNCATION_BUDGET
    want = {}
    for (lang_pair, k), lengths in hyp_lengths.items():
        for percentile in (25, 50, 75):
            want[(lang_pair, k, f"hyp_tokens_p{percentile}")] = \
                float(_nearest_rank(lengths, percentile))
        want[(lang_pair, k, f"truncated_count@{TRUNCATION_BUDGET}")] = \
            float(over[(lang_pair, k)])
        want[(lang_pair, k, f"truncated_fraction@{TRUNCATION_BUDGET}")] = \
            over[(lang_pair, k)] / len(lengths)
    got = {(r["lang_pair"], int(r["k"]), r["statistic"]): float(r["value"])
           for r in read_report(report_path)}
    if got != want:
        wrong = sorted(key for key in set(got) | set(want)
                       if got.get(key) != want.get(key))
        return [f"{report_path.name}: {len(wrong)} rows differ from the "
                f"recount, first {wrong[:3]}"]
    return []


def check_export(sample_path: Path, pool_path: Path, quota: int,
                 ks: range) -> list[str]:
    with open(pool_path, encoding="utf-8") as stream:
        pool = set(stream)
    with open(sample_path, encoding="utf-8") as stream:
        sample = list(stream)
    per_k = Counter(json.loads(line)["k"] for line in sample)
    failures = []
    if per_k != Counter({k: quota for k in ks}):
        failures.append(f"{sample_path.name}: per-k counts {dict(per_k)}, "
                        f"want {quota} each")
    if len(set(sample)) != len(sample) or not set(sample) <= pool:
        failures.append(f"{sample_path.name}: sample has duplicates or lines "
                        f"not in the pool")
    return failures


# --- metaeval-mqm -----------------------------------------------------------

def eval_items(paragraphs: list[dict], scores: dict[tuple, float]) -> dict[tuple, list]:
    """(lang_pair, k) -> items shaped like the oracle expects (>= 2 systems)."""
    slots: dict[tuple, dict] = defaultdict(dict)
    for p in paragraphs:
        key = (p["lang_pair"], p["k"], p["doc_id"], p["start_index"])
        metric = scores[(p["lang_pair"], p["system_id"], p["doc_id"],
                         p["start_index"], p["k"])]
        slots[key][p["system_id"]] = SimpleNamespace(human_score=p["human_score"],
                                                     metric_score=metric)
    units: dict[tuple, list] = defaultdict(list)
    for (lang_pair, k, _, _), per_system in sorted(slots.items()):
        if len(per_system) >= 2:
            units[(lang_pair, k)].append(SimpleNamespace(per_system=per_system))
    return dict(units)


def tie_counts(items, side: str) -> tuple[int, int]:
    """(tied pairs, pairs) over every within-item system pair.

    ``side`` names the score attribute of the per-system entries; works on
    paraeval's own evaluation items as well as on those of ``eval_items``.
    """
    tied = pairs = 0
    for item in items:
        n = len(item.per_system)
        pairs += n * (n - 1) // 2
        counts = Counter(getattr(entry, side) for entry in item.per_system.values())
        tied += sum(c * (c - 1) // 2 for c in counts.values())
    return tied, pairs


def _pearson(xs: list[float], ys: list[float]) -> float:
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def check_metaeval(oracles, paragraphs: list[dict], scores: dict[tuple, float],
                   segment_path: Path, system_path: Path, ties_path: Path,
                   units: list[tuple]) -> dict[str, list[str]]:
    """Recompute the rows of the given small units; returns failures per op."""
    failures: dict[str, list[str]] = {"metaeval-segment": [],
                                      "metaeval-system": [], "ties": []}
    items_by_unit = eval_items(paragraphs, scores)
    reports = {name: read_report(path) for name, path in
               (("metaeval-segment", segment_path),
                ("metaeval-system", system_path), ("ties", ties_path))}
    all_units = sorted(items_by_unit)
    want_rows = {"metaeval-segment": 5, "metaeval-system": 1, "ties": 2}
    for name, rows in reports.items():
        got_units = Counter((r["lang_pair"], int(r["k"])) for r in rows)
        if got_units != Counter({u: want_rows[name] for u in all_units}):
            failures[name].append(f"{name}: rows per unit {dict(got_units)}")

    def row(name, unit, statistic):
        for r in reports[name]:
            if (r["lang_pair"], int(r["k"]), r["statistic"]) == (*unit, statistic):
                return r
        failures[name].append(f"{name}: no {statistic} row for {unit}")
        return None

    def expect(name, unit, statistic, value, epsilon=None, exact=True):
        r = row(name, unit, statistic)
        if r is None:
            return
        got = float(r["value"])
        ok = got == value if exact else math.isclose(got, value, rel_tol=1e-9,
                                                     abs_tol=1e-12)
        if epsilon is not None and float(r["epsilon"]) != epsilon:
            ok = False
        if not ok:
            failures[name].append(f"{name}: {statistic} for {unit} is "
                                  f"{r['value']} (eps {r['epsilon']}), oracle "
                                  f"says {value!r} (eps {epsilon!r})")

    for unit in units:
        items = items_by_unit[unit]
        accuracy = oracles.segment_accuracy_exact(items, 0.0)
        expect("metaeval-segment", unit, "segment_accuracy", float(accuracy), 0.0)
        best_eps, best_acc = oracles.tau_sweep_exact(items)
        expect("metaeval-segment", unit, "segment_accuracy_tau_opt",
               float(best_acc), best_eps)
        unit_paragraphs = [p for p in paragraphs
                           if (p["lang_pair"], p["k"]) == unit]
        xs = [scores[(p["lang_pair"], p["system_id"], p["doc_id"],
                      p["start_index"], p["k"])] for p in unit_paragraphs]
        ys = [p["human_score"] for p in unit_paragraphs]
        expect("metaeval-segment", unit, "pearson_no_grouping", _pearson(xs, ys),
               exact=False)
        for side, statistic in (("human_score", "human_tie_rate"),
                                ("metric_score", "metric_tie_rate")):
            tied, pairs = tie_counts(items, side)
            value = float(Fraction(tied, pairs))
            expect("metaeval-segment", unit, statistic, value)
            expect("ties", unit, statistic, value)
        metric_sys = defaultdict(list)
        human_sys = defaultdict(list)
        for p, x in zip(unit_paragraphs, xs):
            metric_sys[p["system_id"]].append(x)
            human_sys[p["system_id"]].append(p["human_score"])
        metric_mean = {s: math.fsum(v) / len(v) for s, v in metric_sys.items()}
        human_mean = {s: math.fsum(v) / len(v) for s, v in human_sys.items()}
        good = counted = 0
        for a, b in combinations(sorted(metric_mean), 2):
            if human_mean[a] == human_mean[b]:
                continue
            counted += 1
            good += ((metric_mean[a] > metric_mean[b])
                     == (human_mean[a] > human_mean[b])
                     and metric_mean[a] != metric_mean[b])
        expect("metaeval-system", unit, "system_pairwise_accuracy",
               float(Fraction(good, counted)))
    return failures


# --- simulate ---------------------------------------------------------------

def check_noise_curve(report_path: Path, ks: list[int]) -> list[str]:
    """Mean segment accuracy rises strictly with k; values are in range."""
    rows = read_report(report_path)
    means = {int(r["k"]): float(r["value"]) for r in rows
             if r["statistic"] == "mean_segment_accuracy"}
    stds = {int(r["k"]): float(r["value"]) for r in rows
            if r["statistic"] == "std_segment_accuracy"}
    failures = []
    if sorted(means) != ks or sorted(stds) != ks:
        return [f"{report_path.name}: ks {sorted(means)}, want {ks}"]
    curve = [means[k] for k in ks]
    if any(a >= b for a, b in zip(curve, curve[1:])):
        failures.append(f"{report_path.name}: mean accuracy is not strictly "
                        f"increasing in k: {curve}")
    if not all(0.0 <= m <= 1.0 for m in curve) or any(s < 0 for s in stds.values()):
        failures.append(f"{report_path.name}: accuracy out of range")
    return failures
