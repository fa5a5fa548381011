"""Smoke tests of the benchmark on tiny inputs.

Every workload runs end to end, its outputs pass the checks, and the result
names exactly the metrics BENCHMARK.json lists. Run with:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()


def quiet(*args):
    pass


# Counters only one workload drives; the other workload leaves them at 0.
BUSY = {"bleu-da": ["metrics.tokenize.calls", "noise.simulate.calls"],
        "metaeval-mqm": ["metaeval.tau_optimize.calls"]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_workload_runs_and_checks_on_tiny_inputs(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                               tiny=True, log=quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    else:
        assert values["trace.missing"] == 0
        assert values["trace.traced_pass_s"] > 0
        for busy_workload, counters in BUSY.items():
            for counter in counters:
                assert (values[counter] > 0) == (busy_workload == workload), counter
    assert not run.WORK_ROOT.exists()


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    shape = corpus.CorpusShape(score_type="MQM", lang_pairs=(("en-de", 3, 4),))
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        records, _ = corpus.generate_ratings(shape, seed)
        corpus.write_ratings(tmp_path / f"{name}.jsonl", records)
    first = (tmp_path / "a.jsonl").read_bytes()
    assert first == (tmp_path / "b.jsonl").read_bytes()
    assert first != (tmp_path / "c.jsonl").read_bytes()


def test_noise_curve_check_rejects_a_falling_curve(tmp_path):
    report = tmp_path / "simulate.tsv"
    rows = ["dataset\tlang_pair\tk\tmetric\tmode\tstatistic\tvalue\tepsilon"]
    for k, mean in ((1, 0.7), (2, 0.69)):
        rows.append(f"sim\t-\t{k}\tsimulated\t-\tmean_segment_accuracy\t{mean}\t0.0")
        rows.append(f"sim\t-\t{k}\tsimulated\t-\tstd_segment_accuracy\t0.01\t0.0")
    report.write_text("\n".join(rows) + "\n")
    assert checks.check_noise_curve(report, [1, 2])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bleu-da", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
