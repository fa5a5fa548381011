"""The benchmark's workloads: inputs, command sequence and output checks.

Each workload generates its inputs under ``<work>/in`` from the seed, runs
a fixed sequence of paraeval CLI commands whose outputs land under
``<work>/out``, and checks those outputs independently. Paths are relative
to the work directory, which is the commands' working directory, so the
printed output of a command is the same on every run and every commit.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Optional

import checks
import corpus

KS = range(1, 11)


@dataclass
class Op:
    """One CLI invocation of a pass, with the files it writes."""

    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    after: Optional[Callable[[Path], None]] = None


def _concat(sources: list[Path], target: Path) -> None:
    with open(target, "wb") as out:
        for source in sources:
            with open(source, "rb") as stream:
                shutil.copyfileobj(stream, out)


def _report(base: str) -> list[str]:
    return [f"{base}.tsv", f"{base}.jsonl"]


def _item_sizes(paragraphs: list[dict], scores: Optional[dict] = None) -> dict:
    """Items, within-item pairs and exact-tie shares of an all-k file."""
    keys = ((p["lang_pair"], p["system_id"], p["doc_id"], p["start_index"], p["k"])
            for p in paragraphs)
    units = checks.eval_items(paragraphs, scores or dict.fromkeys(keys, 0.0))
    items = [item for unit in units.values() for item in unit]
    human_tied, pairs = checks.tie_counts(items, "human_score")
    sizes = {"units": len(units), "items": len(items), "pairs": pairs,
             "human_tie_share": human_tied / pairs}
    if scores is not None:
        metric_tied, _ = checks.tie_counts(items, "metric_score")
        sizes["metric_tie_share"] = metric_tied / pairs
    return sizes


def _per_k(expected: dict[tuple, int]) -> list[int]:
    return [sum(n for (_, k), n in expected.items() if k == want) for want in KS]


class Workload:
    """Defaults for the optional steps of a workload."""

    def prepare(self, oracles) -> None:
        """Derive check expectations from the generated inputs."""

    def check_setup(self, work: Path) -> list[str]:
        return []

    def corpus_tokens(self) -> int:
        """Tokens in the distinct rated sentences BLEU could score."""
        return 0


class BleuDA(Workload):
    """DA_Z corpus through validate, build, score, compare, stats, export,
    then the noise simulator.

    The simulator reads no corpus. It rides in this pass rather than in a
    workload of its own: alone, its one-command pass gave a median wall
    that spread past the benchmark's bound from run to run, and two
    workloads leave time for longer runs than three. It sits here, not
    with metaeval-mqm, so that a pairwise change that speeds up tau-opt
    there and slows plain segment accuracy here shows on both.
    """

    name = "bleu-da"
    simulate_ks = [1, 2, 5, 10]

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shape = corpus.CorpusShape(
            score_type="DA_Z",
            lang_pairs=(("en-de", 4, 4),) if tiny else (("en-de", 20, 15),),
            sentences=(10, 16) if tiny else (5, 20))
        self.quota = 0
        # The ROADMAP baseline configuration of the simulator.
        self.n_items, self.n_systems, self.max_k = (20, 4, 10) if tiny else (200, 8, 10)
        self.simulate_seeds = 3 if tiny else 50

    def setup(self, work: Path, run_cli) -> None:
        self.records, self.layout = corpus.generate_ratings(self.shape, self.seed)
        corpus.write_ratings(work / "in" / "ratings.jsonl", self.records)
        config = {"n_items": self.n_items, "n_systems": self.n_systems,
                  "max_k": self.max_k, "seed": self.seed, "sigma_quality": 1.0,
                  "sigma_human": 1.0, "sigma_metric": 1.0, "system_mean_spread": 0.5}
        with open(work / "in" / "sim.cfg", "w", encoding="utf-8") as stream:
            stream.writelines(f"{key} = {value}\n" for key, value in config.items())

    def prepare(self, oracles) -> None:
        self.expected = checks.expected_window_counts(oracles, self.layout, KS)
        self.quota = min(50, min(self.expected.values()))
        if self.quota < 1:
            raise ValueError("corpus too small: some k has no paragraphs")

    def ops(self) -> list[Op]:
        def glue(work: Path) -> None:
            built = work / "out" / "paragraphs"
            _concat([built / f"paragraphs-k{k}.jsonl" for k in range(1, 5)],
                    work / "out" / "paragraphs-k1-4.jsonl")
            _concat([built / f"paragraphs-k{k}.jsonl" for k in KS],
                    work / "out" / "paragraphs-all.jsonl")

        return [
            Op("validate", ["validate", "--ratings", "in/ratings.jsonl"]),
            Op("build-paragraphs",
               ["build-paragraphs", "--ratings", "in/ratings.jsonl", "--k", "1-10",
                "--out", "out/paragraphs"],
               [f"out/paragraphs/paragraphs-k{k}.jsonl" for k in KS], after=glue),
            Op("score", ["score", "--paragraphs", "out/paragraphs-k1-4.jsonl",
                         "--metric", "bleu", "--mode", "direct",
                         "--out", "out/bleu-direct-k1-4.tsv"],
               ["out/bleu-direct-k1-4.tsv"]),
            Op("compare-modes",
               ["compare-modes", "--paragraphs", "out/paragraphs/paragraphs-k2.jsonl",
                "--ratings", "in/ratings.jsonl", "--out", "out/compare-k2"],
               _report("out/compare-k2")),
            Op("stats", ["stats", "--paragraphs", "out/paragraphs-all.jsonl",
                         "--lengths", "--truncation", "--out", "out/stats"],
               _report("out/stats")),
            Op("export-training",
               ["export-training", "--paragraphs", "out/paragraphs-all.jsonl",
                "--strategy", "stratified", "--size", str(self.quota * len(KS)),
                "--seed", str(self.seed), "--out", "out/train.jsonl"],
               ["out/train.jsonl"]),
            Op("simulate", ["simulate", "--config", "in/sim.cfg",
                            "--ks", ",".join(map(str, self.simulate_ks)),
                            "--seeds", str(self.simulate_seeds), "--out", "out/simulate"],
               _report("out/simulate")),
        ]

    def check(self, work: Path, stdout: dict[str, str], oracles) -> dict[str, list[str]]:
        rng = random.Random(self.seed)
        out = work / "out"
        return {
            "validate": checks.check_validate(stdout["validate"], len(self.records)),
            "build-paragraphs": checks.check_paragraph_files(
                out / "paragraphs", self.expected, self.records, rng),
            "score": checks.check_bleu_scores(
                oracles, out / "bleu-direct-k1-4.tsv",
                out / "paragraphs-k1-4.jsonl", rng),
            "compare-modes": checks.check_compare_modes(
                out / "compare-k2.tsv", [lp for lp, _, _ in self.shape.lang_pairs]),
            "stats": checks.check_stats(out / "stats.tsv",
                                        out / "paragraphs-all.jsonl"),
            "export-training": checks.check_export(
                out / "train.jsonl", out / "paragraphs-all.jsonl", self.quota, KS),
            "simulate": checks.check_noise_curve(out / "simulate.tsv", self.simulate_ks),
        }

    def sizes(self, work: Path) -> dict:
        paragraphs = checks.read_jsonl(work / "out" / "paragraphs-all.jsonl")
        return {"ratings": len(self.records), "paragraphs_per_k": _per_k(self.expected),
                **_item_sizes(paragraphs),
                "simulate": {"seeds": self.simulate_seeds, "items_per_k": self.n_items,
                             "systems": self.n_systems, "max_k": self.max_k,
                             "entries_per_seed": self.n_items * self.n_systems * self.max_k,
                             "pairs_per_k": self.n_items * comb(self.n_systems, 2)}}

    def corpus_tokens(self) -> int:
        # A reference is shared by every system; count each rated one once.
        references = {(r["lang_pair"], r["doc_id"], r["sent_index"]): r["reference_text"]
                      for r in self.records}
        return (sum(len(checks.tokenize(r["hypothesis_text"])) for r in self.records)
                + sum(len(checks.tokenize(text)) for text in references.values()))


class MetaevalMQM(Workload):
    """MQM corpus with an external metric: segment, system and tie reports."""

    name = "metaeval-mqm"
    # A small, gapless lang pair: its units are small enough for the
    # brute-force oracles, and none of them can end up without items.
    checked_lang_pair = "en-ru"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shape = corpus.CorpusShape(
            score_type="MQM",
            lang_pairs=((("en-de", 4, 5), ("en-ru", 2, 3)) if tiny
                        else (("en-de", 40, 15), ("en-ru", 3, 6))),
            gapless=(self.checked_lang_pair,))

    def setup(self, work: Path, run_cli) -> None:
        self.records, self.layout = corpus.generate_ratings(self.shape, self.seed)
        inputs = work / "in"
        corpus.write_ratings(inputs / "ratings.jsonl", self.records)
        run_cli(["build-paragraphs", "--ratings", "in/ratings.jsonl", "--k", "1-10",
                 "--out", "in/paragraphs"])
        _concat([inputs / "paragraphs" / f"paragraphs-k{k}.jsonl" for k in KS],
                inputs / "paragraphs-all.jsonl")
        corpus.write_external_scores(inputs / "paragraphs-all.jsonl",
                                     inputs / "scores.tsv", self.seed)

    def prepare(self, oracles) -> None:
        self.expected = checks.expected_window_counts(oracles, self.layout, KS)

    def check_setup(self, work: Path) -> list[str]:
        return checks.check_paragraph_files(work / "in" / "paragraphs", self.expected,
                                            self.records, random.Random(self.seed))

    def ops(self) -> list[Op]:
        source = ["--paragraphs", "in/paragraphs-all.jsonl", "--scores", "in/scores.tsv"]
        return [
            Op("metaeval-segment",
               ["metaeval", *source, "--level", "segment", "--tau-opt", "--pearson",
                "--ties", "--out", "out/segment"], _report("out/segment")),
            Op("metaeval-system",
               ["metaeval", *source, "--level", "system", "--out", "out/system"],
               _report("out/system")),
            Op("ties", ["ties", *source, "--out", "out/ties"], _report("out/ties")),
        ]

    def _inputs(self, work: Path):
        return (checks.read_jsonl(work / "in" / "paragraphs-all.jsonl"),
                checks.read_scores(work / "in" / "scores.tsv"))

    def check(self, work: Path, stdout: dict[str, str], oracles) -> dict[str, list[str]]:
        paragraphs, scores = self._inputs(work)
        units = sorted({(p["lang_pair"], p["k"]) for p in paragraphs
                        if p["lang_pair"] == self.checked_lang_pair})
        out = work / "out"
        return checks.check_metaeval(oracles, paragraphs, scores,
                                     out / "segment.tsv", out / "system.tsv",
                                     out / "ties.tsv", units)

    def sizes(self, work: Path) -> dict:
        paragraphs, scores = self._inputs(work)
        return {"ratings": len(self.records), "paragraphs_per_k": _per_k(self.expected),
                "score_rows": len(scores), **_item_sizes(paragraphs, scores)}


WORKLOADS = {cls.name: cls for cls in (BleuDA, MetaevalMQM)}
