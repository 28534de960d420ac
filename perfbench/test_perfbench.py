"""Smoke tests of the benchmark itself, on tiny corpora (``--smoke``).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import SMOKE_WORKLOADS, generate_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seconds: int = 1, seed: int = 3) -> tuple[str, dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert set(WORKLOAD_NAMES) == set(SMOKE_WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric_and_runs_every_check(workload):
    stdout, result = smoke(workload, trace=0, seconds=2)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    for check in checks.CHECKS:
        assert f"check {check}: ok in {result['attempted']}/{result['attempted']} runs" in stdout
    assert f"failed_ratio 0/{result['attempted']} = 0.0000" in stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric_and_the_overhead(workload):
    stdout, result = smoke(workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["attempted"] == 2  # one untraced and one traced run
    assert "tracing overhead" in stdout
    assert "check digest_stable: ok in 2/2 runs" in stdout  # tracing changes no output
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for stage in checks.STAGES:
        assert values[f"cli.{stage}_s"] > 0
    assert values["cli.hunks_loads"] > 0 and values["builder.reports_built"] > 0
    assert values["code_ops.topk_calls"] >= values["code_ops.topk_distinct_keys"] > 0


def _digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


def test_digest_depends_only_on_code_and_seed():
    first, _ = smoke("augment-f10", trace=0, seed=5)
    again, _ = smoke("augment-f10", trace=0, seed=5)
    other, _ = smoke("augment-f10", trace=0, seed=6)
    assert _digest_line(first) == _digest_line(again)
    assert _digest_line(first).split()[-1] != _digest_line(other).split()[-1]


def test_checks_fail_on_wrong_outputs(tmp_path):
    from bugaug import cli

    w = SMOKE_WORKLOADS["balance-shuffle"]
    inputs = generate_inputs(w, 4, tmp_path / "inputs")
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--bugs", str(inputs / "bugs.jsonl"), "--diffs",
                     str(inputs / "diffs"), "--links", str(inputs / "links.jsonl"),
                     "--out", str(out), *w.pipeline_args(4)]) == 0

    def failed(log_text: str = "") -> set[str]:
        results, _ = checks.check_run(out, log_text, w.factor, w.alpha, w.omega)
        return {name for name, ok, _ in results if not ok}

    assert failed() == set()
    assert failed("INFO bugaug: stage ingest: outputs exist, skipping") == {"stages_ran"}

    d_aug = (out / "d_aug.jsonl").read_text("utf-8").splitlines(keepends=True)
    (out / "d_aug.jsonl").write_text("".join(d_aug[:-2]), "utf-8")
    assert failed() == {"d_aug_size"}
    (out / "d_aug.jsonl").write_text("".join(d_aug), "utf-8")

    d_bl = (out / "d_bl.jsonl").read_text("utf-8").splitlines(keepends=True)
    (out / "d_bl.jsonl").write_text("".join(d_bl + d_bl[-2:] * 40), "utf-8")
    assert failed() == {"d_bl_caps"}
    (out / "d_bl.jsonl").write_text("".join(d_bl), "utf-8")

    payload = json.loads((out / "metrics.json").read_text("utf-8"))
    payload["metrics"]["mrr"] = 1.5
    (out / "metrics.json").write_text(json.dumps(payload), "utf-8")
    assert failed() == {"metrics_range"}


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
