"""paraeval benchmark: end-to-end CLI passes and a traced per-layer run.

Usage, from the root of a paraeval checkout:

    python3 perfbench/run.py --workload bleu-da --seed 1 --seconds 35 --trace 0

Workload sizes, the load model, the predictions the per-layer metrics are
meant to test and measured spreads are recorded in manifest.json.

The workload's inputs are generated from ``--seed`` into a temporary
directory under ``.perfbench-work/`` (set-up, timed several times; the
median is ``setup_s``). Then passes over the workload's command sequence
run for about ``--seconds`` seconds, in a closed loop with one client:
each command is a fresh ``python -m paraeval`` process, started by a
small launcher process (launcher.py) only after the previous one has
exited, with ``PYTHONPATH=<checkout>/src``, the CLI's default worker
count and ``PARAEVAL_THREADS`` removed.

``--trace 0`` reports the end-to-end metrics in BENCHMARK.json: median
pass wall, median of each pass's largest child max-RSS, and set-up time.
``--trace 1`` alternates an untraced subprocess pass, an untraced
in-process pass (``cli.main`` called directly) and a traced in-process
pass, and reports the per-layer metrics: self time and calls of each
layer function, layer counters, per-command wall, start-up cost and the
tracer's own overhead.

Every command invocation is an attempted operation. It fails when it
exits non-zero, when its output fails a check (see checks.py), or when
any output file or its standard output differs in bytes from the first
pass. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the input sizes, per-command walls and the sha256 of every
output, so two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
COMMAND_TIMEOUT_S = 120.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


@dataclass
class Pass:
    """Walls, max-RSS, exit status and output digests of one pass."""

    walls: dict[str, float] = field(default_factory=dict)
    rss_kb: dict[str, int] = field(default_factory=dict)
    status: dict[str, object] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Launcher:
    """The small process that starts every CLI command (see launcher.py)."""

    def __init__(self):
        env = {key: value for key, value in os.environ.items()
               if key != "PARAEVAL_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, stdout: Path,
            stderr: Path) -> tuple[float, int, int]:
        """Run one command to completion: (wall seconds, exit code, max-RSS KiB)."""
        request = {"argv": [sys.executable, "-m", "paraeval", *argv], "cwd": str(cwd),
                   "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["maxrss_kb"]

    def close(self) -> None:
        """End the launcher once its current command, if any, has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs the CLI against one work directory, in and out of process."""

    def __init__(self, work: Path, launcher: Launcher):
        self.work = work
        self.launcher = launcher
        self.stdout_path = work / "stdout.txt"
        self.stderr_path = work / "stderr.txt"

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """Run one command to completion: (wall seconds, exit code, max-RSS KiB)."""
        return self.launcher.run(argv, self.work, self.stdout_path, self.stderr_path)

    def setup_cli(self, argv: list[str]) -> None:
        _, code, _ = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv} exited {code}: "
                               f"{self.stderr_path.read_text(errors='replace')[-2000:]}")

    def call(self, argv: list[str], tracer=None) -> tuple[float, object]:
        """Run cli.main in this process: (wall seconds, exit code or error)."""
        from paraeval import cli

        gc.collect()
        cwd = os.getcwd()
        threads = os.environ.pop("PARAEVAL_THREADS", None)
        try:
            with open(self.stdout_path, "w", encoding="utf-8") as out, \
                    open(self.stderr_path, "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                os.chdir(self.work)
                start = time.perf_counter()
                try:
                    code = (tracer.root("cli.main", cli.main, argv) if tracer
                            else cli.main(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a traceback is a failed operation, not a crash
                    code = "exception"
                    traceback.print_exc()
                wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
            if threads is not None:
                os.environ["PARAEVAL_THREADS"] = threads
        return wall, code

    def run_pass(self, ops: list[workloads.Op], mode: str, tracer=None) -> Pass:
        """One pass over ops: mode is 'spawn' or 'call' (in-process)."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        result = Pass()
        for op in ops:
            if mode == "spawn":
                wall, code, rss = self.spawn(op.argv)
                result.rss_kb[op.name] = rss
            else:
                wall, code = self.call(op.argv, tracer)
            result.walls[op.name] = wall
            result.status[op.name] = code
            if code != 0:
                sys.stderr.write(f"{op.name} exited {code}:\n"
                                 f"{self.stderr_path.read_text(errors='replace')[-2000:]}\n")
            if op.after is not None and code == 0:
                op.after(self.work)
            result.stdout[op.name] = self.stdout_path.read_text(encoding="utf-8",
                                                                errors="replace")
            digests = {"stdout": _sha256(self.stdout_path)}
            for name in op.outputs:
                path = self.work / name
                digests[name] = _sha256(path) if path.exists() else "missing"
            result.digests[op.name] = digests
        return result


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _fits(passes_wall: list[float], budget: float) -> bool:
    """Whether one more pass of median length fits the measuring budget."""
    return sum(passes_wall) + _median(passes_wall) <= budget


class Tally:
    """Attempted and failed operations, against the first pass's outputs."""

    def __init__(self, reference: Pass, check_failures: dict[str, list[str]]):
        self.reference = reference
        self.check_failures = check_failures
        self.attempted = 0
        self.failed = 0

    def add(self, result: Pass, label: str) -> None:
        for op, code in result.status.items():
            self.attempted += 1
            reasons = []
            if code != 0:
                reasons.append(f"exit {code}")
            if result.digests[op] != self.reference.digests[op]:
                changed = sorted(name for name, digest in result.digests[op].items()
                                 if self.reference.digests[op].get(name) != digest)
                reasons.append(f"output differs from the first pass: {changed}")
            if self.check_failures.get(op):
                reasons.append("check failed")
            if reasons:
                self.failed += 1
                sys.stderr.write(f"failed: {op} ({label}): {'; '.join(reasons)}\n")


def _count_hook(key: str):
    def hook(tracer, args, result):
        tracer.counters[key] += len(result)
    return hook


def _bytes_read_hook(tracer, args, result):
    tracer.counters["bytes_read"] += os.path.getsize(args[0])


def _items_hook(tracer, args, result):
    tied, pairs = checks.tie_counts(result, "human_score")
    first = next(iter(args[0]))
    # Keyed by unit: every command of a pass builds the same unit's items.
    tracer.units[(first.dataset_id, first.lang_pair, args[1])] = (len(result), pairs)
    tracer.counters["human_pairs"] += pairs
    tracer.counters["human_tied"] += tied


def _attached_hook(tracer, args, result):
    tied, pairs = checks.tie_counts(result, "metric_score")
    tracer.counters["metric_pairs"] += pairs
    tracer.counters["metric_tied"] += tied


def _bytes_written_hook(tracer, args, result):
    # paraeval hands write_paragraphs a freshly opened UTF-8 file, so the
    # position after the call is the number of bytes the call wrote.
    tracer.counters["bytes_written"] += args[1].tell()


def _entries_hook(tracer, args, result):
    config = args[0]
    tracer.counters["entries"] += config.n_items * config.n_systems * config.max_k


HOOKS = {
    "fileio.read_rating_lines": _count_hook("records_read"),
    "fileio.read_paragraphs": _count_hook("paragraphs_read"),
    "fileio.open_input": _bytes_read_hook,
    "paragraphs.build_paragraphs": _count_hook("windows_emitted"),
    "fileio.write_paragraphs": _bytes_written_hook,
    "metrics.tokenize": _count_hook("tokens"),
    "paragraphs.build_eval_items": _items_hook,
    "metaeval.attach_metric_scores": _attached_hook,
    "noise.simulate": _entries_hook,
}


@dataclass
class TracedRun:
    """Rounds of a spawned, an in-process and a traced in-process pass."""

    tracer: tracing.Tracer
    plain: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    self_times: list[tuple[dict, Counter]] = field(default_factory=list)


def _run_traced(runner: Runner, ops, tally: Tally, spawned: list[Pass],
                seconds: float) -> TracedRun:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import paraeval.cli  # noqa: F401  (loads every layer before wrapping)

    run = TracedRun(tracing.Tracer(HOOKS))
    while True:
        if run.plain:  # the first round reuses the first spawned pass
            spawned.append(runner.run_pass(ops, "spawn"))
            tally.add(spawned[-1], f"pass {len(spawned)}")
        run.plain.append(runner.run_pass(ops, "call"))
        tally.add(run.plain[-1], "in-process pass")
        run.tracer.reset()
        run.tracer.install()
        try:
            run.traced.append(runner.run_pass(ops, "call", run.tracer))
        finally:
            run.tracer.uninstall()
        tally.add(run.traced[-1], "traced pass")
        run.self_times.append(tracing.self_times(run.tracer.spans))
        rounds = [s.wall + p.wall + t.wall
                  for s, p, t in zip(spawned, run.plain, run.traced)]
        if len(rounds) >= MIN_TRACED_ROUNDS and not _fits(rounds, seconds):
            return run


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(spec: dict, workload, run: TracedRun,
                   spawned: list[Pass]) -> tuple[dict, list[str]]:
    """Values of every per-layer metric in the spec, and the missing names."""
    tracer = run.tracer
    counters = tracer.counters
    values: dict[str, float] = {}
    for layer in ("cli", "trace", *tracing.LAYERS):
        values[f"{layer}.self_s"] = _median(
            sum(s for name, s in totals.items() if name.split(".", 1)[0] == layer)
            for totals, _ in run.self_times)
    # The tracer's own spans are its counter hooks.
    values["trace.hook_s"] = values.pop("trace.self_s")
    untraced = _median(p.wall for p in run.plain)
    values["cli.startup_s"] = _median(p.wall for p in spawned) - untraced
    values["trace.untraced_pass_s"] = untraced
    values["trace.traced_pass_s"] = _median(p.wall for p in run.traced)
    # Paired by round, so that drift between rounds cancels out.
    values["trace.overhead_s"] = _median(t.wall - p.wall
                                         for t, p in zip(run.traced, run.plain))
    values["fileio.bytes_written"] = counters["bytes_written"]
    values["fileio.records_read"] = counters["records_read"]
    values["fileio.paragraphs_read"] = counters["paragraphs_read"]
    values["fileio.bytes_read"] = counters["bytes_read"]
    values["paragraphs.windows_emitted"] = counters["windows_emitted"]
    values["noise.entries"] = counters["entries"]
    values["metrics.tokens_per_corpus_token"] = _ratio(counters["tokens"],
                                                       workload.corpus_tokens())
    values["metaeval.units"] = len(tracer.units)
    values["metaeval.items"] = sum(n for n, _ in tracer.units.values())
    values["metaeval.pairs"] = sum(n for _, n in tracer.units.values())
    values["metaeval.human_tie_share"] = _ratio(counters["human_tied"],
                                                counters["human_pairs"])
    values["metaeval.metric_tie_share"] = _ratio(counters["metric_tied"],
                                                 counters["metric_pairs"])

    missing = set(tracer.hook_errors)
    for metric in spec["per_layer"]:
        name = metric["name"]
        head, _, rest = name.partition(".")
        if head == "cli" and rest.endswith(".wall_s"):
            op = rest[:-len(".wall_s")]
            values[name] = _median(p.walls[op] for p in spawned if op in p.walls)
            continue
        function, _, kind = name.rpartition(".")
        if name in values or kind not in ("s", "calls"):
            continue
        if function not in tracer.found:
            missing.add(function)
            values[name] = 0
        elif kind == "s":
            values[name] = _median(totals.get(function, 0.0)
                                   for totals, _ in run.self_times)
        else:
            values[name] = run.self_times[-1][1].get(function, 0)
    values["trace.missing"] = len(missing)
    return values, sorted(missing)


def _set_up(workload, runner: Runner) -> list[float]:
    """Generate the inputs several times; return seconds per set-up.

    Every set-up starts from an empty input directory. Set-ups repeat
    until there are SETUP_REPEATS of them and they took SETUP_MIN_S in all.
    """
    runner.setup_cli(["--help"])  # fills the bytecode and page caches, untimed
    samples: list[float] = []
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_MIN_S:
        shutil.rmtree(runner.work / "in", ignore_errors=True)
        (runner.work / "in").mkdir()
        start = time.perf_counter()
        workload.setup(runner.work, runner.setup_cli)
        samples.append(time.perf_counter() - start)
    return samples


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, log=print) -> dict:
    """Set up, measure and check one workload; return the result object."""
    # Started first, while this process is small; see launcher.py.
    launcher = Launcher()
    try:
        return _run_workload(launcher, name, seed, seconds, trace, tiny, log)
    finally:
        launcher.close()


def _run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                  trace: bool, tiny: bool, log) -> dict:
    spec = load_spec()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        oracles = checks.load_oracles(ROOT)
        workload = workloads.WORKLOADS[name](seed, tiny)
        runner = Runner(work, launcher)
        setup_s = _set_up(workload, runner)
        workload.prepare(oracles)
        setup_failures = workload.check_setup(work)
        for reason in setup_failures[:5]:
            sys.stderr.write(f"set-up check failed: {reason}\n")
        ops = workload.ops()

        first = runner.run_pass(ops, "spawn")
        check_failures = workload.check(work, first.stdout, oracles)
        for op, reasons in check_failures.items():
            for reason in reasons[:5]:
                sys.stderr.write(f"check failed: {op}: {reason}\n")
        sizes = workload.sizes(work)
        tally = Tally(first, check_failures)
        tally.add(first, "pass 1")
        spawned = [first]
        if trace:
            traced_run = _run_traced(runner, ops, tally, spawned, seconds)
        else:
            while len(spawned) < MIN_PASSES or _fits([p.wall for p in spawned], seconds):
                spawned.append(runner.run_pass(ops, "spawn"))
                tally.add(spawned[-1], f"pass {len(spawned)}")

        # The set-up, with its own commands, counts as one operation.
        attempted = tally.attempted + 1
        failed = tally.failed + bool(setup_failures)
        log(f"workload {name} seed {seed}: sizes {json.dumps(sizes, sort_keys=True)}")
        log(f"machine: nproc {os.cpu_count()}, cpu {_cpu_model()}, python "
            f"{platform.python_version()}, numpy {_version('numpy')}")
        log(f"set-up median {_median(setup_s):.6f} s over {len(setup_s)} samples; "
            f"{len(spawned)} CLI passes")
        for op in ops:
            walls = [p.walls[op.name] for p in spawned]
            rss = [p.rss_kb[op.name] / 1024.0 for p in spawned]
            log(f"  {op.name}: median {_median(walls):.4f} s, max-RSS {_median(rss):.1f} MB "
                f"over {len(walls)} runs")
        for op, digests in first.digests.items():
            for output, digest in sorted(digests.items()):
                log(f"  sha256 {op} {output} {digest}")

        if trace:
            values, missing = _layer_metrics(spec, workload, traced_run, spawned)
            names = spec["per_layer"]
            accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
            log(f"traced pass {values['trace.traced_pass_s']:.4f} s; layer and cli "
                f"self times plus hooks {accounted + values['trace.hook_s']:.4f} s; "
                f"untraced in-process {values['trace.untraced_pass_s']:.4f} s; "
                f"missing {missing or 'none'}")
        else:
            values = {"setup_s": _median(setup_s),
                      "wall_s": _median(p.wall for p in spawned),
                      "peak_rss_mb": _median(max(p.rss_kb.values()) / 1024.0
                                             for p in spawned)}
            names = spec["end_to_end"]
            log("end-to-end: " + ", ".join(
                f"{m['name']} {values[m['name']]:.4f} {m['unit']}" for m in names))
        log(f"fail_rate {failed / attempted:.4f} ({failed} of {attempted} operations)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in names}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in ("src/paraeval/__init__.py", "tests/oracles.py",
                                 "BENCHMARK.json") if not (ROOT / path).is_file()]
    if missing:
        print(f"error: {ROOT} is not a paraeval checkout; missing {missing}",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
