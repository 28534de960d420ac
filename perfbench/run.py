"""Benchmark of ``bugaug pipeline``: one workload, one seed, one run.

    python3 perfbench/run.py --workload augment-f10 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run generates the workload's ingest
inputs from the seed, times a fresh interpreter importing ``bugaug.cli`` and
loading the bundled dictionaries (``setup_s``), then runs the unmodified
pipeline, one process at a time, each into a fresh output directory, until
the next run would end after ``--seconds``. Every run's outputs are checked.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics, plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--smoke`` swaps in tiny corpora for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
# every run ends well inside the 180 s a benchmark run may take
HARD_LIMIT_S = 170.0
SETUP_CODE = (
    "import bugaug.cli as c; c.PatternDictionary.default(); c.SubstituteDictionary.default()"
)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    traced: bool
    ok: bool = False
    samples: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Bench:
    """The runs of one workload and seed, in one work directory."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.inputs = work / "inputs"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.runs: list[Run] = []

    def _spawn(self, cmd: list[str], log_path: Path):
        """Run cmd to completion; returns (exit code, wall s, peak RSS MB)."""
        with open(log_path, "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(max(1, int(self.deadline - perf_counter())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_times(self) -> list[float]:
        cmd = [sys.executable, "-c", SETUP_CODE]
        log = self.work / "setup.log"
        if self._spawn(cmd, log)[0] != 0:  # also fills the bytecode cache before timing
            raise RuntimeError(f"importing bugaug failed:\n{log.read_text()}")
        return [self._spawn(cmd, log)[1] for _ in range(SETUP_REPEATS)]

    def pipeline(self, traced: bool) -> Run:
        w = self.workload
        out = self.work / f"run{len(self.runs)}"
        trace_path = self.work / f"trace{len(self.runs)}.json"
        args = [
            "pipeline",
            "--bugs", str(self.inputs / "bugs.jsonl"),
            "--diffs", str(self.inputs / "diffs"),
            "--links", str(self.inputs / "links.jsonl"),
            "--out", str(out),
            *w.pipeline_args(self.seed),
        ]
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "bugaug.cli", *args]
        log_path = self.work / f"run{len(self.runs)}.log"
        code, wall, rss = self._spawn(cmd, log_path)
        run = Run(wall_s=wall, rss_mb=rss, traced=traced)
        self.runs.append(run)
        if code != 0:
            run.checks = [("exit_code", False, f"exit {code}: {log_path.read_text()[-400:]}")]
            return run
        try:
            run.checks, run.samples = checks.check_run(
                out, log_path.read_text("utf-8"), w.factor, w.alpha, w.omega)
            run.digest = checks.stage_digest(out)
            if traced:
                run.layers = layer_metrics(json.loads(trace_path.read_text("utf-8")))
        except (OSError, ValueError, KeyError) as exc:
            run.checks.append(("outputs_readable", False, repr(exc)))
        first = next((r.digest for r in self.runs if r.digest), run.digest)
        run.checks.append(("digest_stable", run.digest == first,
                           "same stage digests as the first run" if run.digest == first
                           else f"{run.digest[:12]} != {first[:12]}"))
        run.ok = all(ok for _, ok, _ in run.checks)
        shutil.rmtree(out, ignore_errors=True)
        trace_path.unlink(missing_ok=True)
        return run

    def measure(self, seconds: float, trace: bool) -> None:
        """Closed loop: start the next run (or untraced+traced pair) only while
        it is expected to end within `seconds`."""
        start = perf_counter()
        steps: list[float] = []
        while True:
            step_start = perf_counter()
            self.pipeline(traced=False)
            if trace:
                self.pipeline(traced=True)
            steps.append(perf_counter() - step_start)
            elapsed = perf_counter() - start
            if elapsed + statistics.median(steps) > seconds:
                break
            if perf_counter() + 2 * max(steps) > self.deadline:
                break


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f} n=1"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def _report(bench: Bench, setup: list[float], trace: bool, spec: dict) -> dict:
    untraced = [r for r in bench.runs if not r.traced]
    traced = [r for r in bench.runs if r.traced]
    failed = sum(not r.ok for r in bench.runs)
    name = bench.workload.name
    print(f"workload {name} seed {bench.seed}: {len(bench.runs)} pipeline runs "
          f"({len(untraced)} untraced, {len(traced)} traced)")
    for check in sorted({c[0] for r in bench.runs for c in r.checks}):
        results = [ok for r in bench.runs for c, ok, _ in r.checks if c == check]
        details = [d for r in bench.runs for c, ok, d in r.checks if c == check and not ok]
        status = "ok" if all(results) else f"FAILED ({details[0]})"
        print(f"check {check}: {status} in {sum(results)}/{len(results)} runs")
    digests = sorted({r.digest for r in bench.runs if r.digest})
    print(f"digest {name} seed={bench.seed} {' '.join(digests) or 'none'}")
    print(f"failed_ratio {failed}/{len(bench.runs)} = {failed / len(bench.runs):.4f}")

    walls = [r.wall_s for r in untraced]
    values = {
        "pipeline_s": statistics.median(walls),
        "samples_per_s": statistics.median(r.samples / r.wall_s for r in untraced),
        "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
        "setup_s": statistics.median(setup),
    }
    print(f"pipeline_s {_spread(walls)} s; runs: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s {_spread(setup)} s")
    key = "end_to_end"
    if trace:
        key = "per_layer"
        layered = [r for r in traced if r.layers]
        values = {m: statistics.median(r.layers[m] for r in layered) for m in layered[0].layers}
        traced_wall = statistics.median(r.wall_s for r in traced)
        values["trace.pipeline_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        print(f"tracing overhead {values['trace.overhead_s']:.4f} s "
              f"(traced {traced_wall:.4f} s - untraced {statistics.median(walls):.4f} s)")
        for layer in ("code_ops.topk_s", "retrieval.rank_s"):
            print(f"design {layer} / trace.pipeline_s = {values[layer] / traced_wall:.3f}")
        stages = {s: values[f"cli.{s}_s"] for s in checks.STAGES}
        print(f"design largest stage = {max(stages, key=stages.get)}")
    metrics = {}
    for m in spec[key]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(bench.runs), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bugaug" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no bugaug sources at {SRC} (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SMOKE_WORKLOADS, WORKLOADS, generate_inputs

    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    spec = json.loads(spec_path.read_text("utf-8"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(table[args.workload], args.seed, work, started + HARD_LIMIT_S)
        generate_inputs(bench.workload, args.seed, bench.inputs)
        setup = bench.setup_times()
        bench.measure(args.seconds, bool(args.trace))
        result = _report(bench, setup, bool(args.trace), spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
