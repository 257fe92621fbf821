"""Tests of the benchmark itself, on small generated inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.02"  # 800 rows for calibrate, 4000 for ingest and study
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND_METRICS = {
    "calibrate": ("fit_s", "eval_s"),
    "ingest": ("fit_s", "eval_s", "study_s", "load_rows_per_s", "write_rows_per_s"),
    "study": ("study_s",),
}
_traced: dict[str, dict] = {}


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def _traced_result(workload: str) -> dict:
    if workload not in _traced:
        _traced[workload] = _result(_bench(workload, trace=1))
    return _traced[workload]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _bench(workload, trace=0)
    metrics = _result(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    for name in COMMAND_METRICS[workload] + ("ops_failed",):
        assert re.search(rf"^metric {re.escape(name)} = \S+ \S+$", proc.stdout, re.M), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    metrics = _traced_result(workload)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["cli.start_ms"]["value"] > 0
    for name in COMMAND_METRICS[workload]:
        assert metrics[name]["value"] > 0
    trace = json.loads((ROOT / ".perfbench" / f"trace_{workload}_seed3.json").read_text(encoding="utf-8"))
    assert set(trace["meta"]) >= {"nproc", "python", "numpy", "click", "git_commit", "seed", "src_lines"}
    assert trace["spans"] and set(trace["spans"][0]) == {"id", "name", "start_us", "end_us", "parent", "cmd"}


@pytest.mark.parametrize(
    "workload, counts",
    [
        ("calibrate", ("adjust.objective.calls", "rocmetrics.select_threshold.calls")),
        ("study", ("data.subsample.calls", "rocmetrics.select_threshold.calls")),
    ],
)
def test_layer_counts_repeat_exactly(workload, counts):
    again = _result(_bench(workload, trace=1))["metrics"]
    first = _traced_result(workload)["metrics"]
    for name in counts:
        assert first[name]["value"] > 0
        assert again[name]["value"] == first[name]["value"], name


def test_corrupted_outputs_count_as_failed(tmp_path):
    run = workloads.Run(workloads.WORKLOADS["calibrate"], seed=3, scale=float(SCALE), work=tmp_path)
    run.setup()
    first = workloads.run_inprocess_pass(run, tmp_path / "pass0", tracing.Tracer())
    assert workloads.check_passes(run, [first]) == []

    # A later pass must write the same bytes as the first.
    shutil.copytree(first.directory, tmp_path / "pass1")
    second = workloads.PassResult(tmp_path / "pass1", first.wall_s, first.steps)
    evaluation = second.directory / "eval_g+l_0.01" / "evaluation.csv"
    evaluation.write_text(evaluation.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    failures = workloads.check_passes(run, [first, second])
    assert len(failures) == 1 and failures[0].startswith("pass 1 eval ")

    # The first pass must agree with the library.
    calibration = first.directory / "fit" / "calibration_g+l_0.01.json"
    doc = json.loads(calibration.read_text(encoding="utf-8"))
    assert math.isfinite(doc["threshold"])
    doc["threshold"] = math.nextafter(doc["threshold"], 1.0)
    calibration.write_text(json.dumps(doc), encoding="utf-8")
    failures = workloads.check_passes(run, [first])
    assert len(failures) == 1 and failures[0].startswith("pass 0 fit ") and "threshold" in failures[0]


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("study", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_child_spans():
    S = tracing.Span
    spans = [
        S(1, "root", 0, 100, None, "c"),
        S(2, "a", 10, 50, 1, "c"),
        S(3, "b", 30, 70, 1, "c"),  # overlaps a, as spans from two threads do
        S(4, "a", 80, 90, 1, "c"),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["root"] == tracing.LayerStats(1, 100, 100 - 60 - 10)
    assert stats["a"] == tracing.LayerStats(2, 50, 50)


def test_instrument_wraps_and_restores():
    from lowfpr import adjust, rocmetrics

    original = rocmetrics.select_threshold
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert adjust.select_threshold is not original
        adjust.brent_minimize(lambda x: (x - 0.25) ** 2, (0.0, 1.0))
        adjust.brent_minimize(lambda x: -x, (0.0, 1.0))
    assert adjust.select_threshold is original and rocmetrics.select_threshold is original
    stats = tracing.layer_stats(tracer.spans)
    assert stats["adjust.brent_minimize"].calls == 2
    assert stats["adjust.objective"].calls > 2
    assert tracer.counters["adjust.brent.edge"] == 1
