"""Benchmark of the lowfpr command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {calibrate,ingest,study} --seed N --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the `src/` tree next to this directory and
keeps its files under `.perfbench/` there. Set-up synthesizes the workload's
input from --seed, then the workload's `python -m lowfpr` commands run one
after another, each its own process from a temporary working directory.

--trace 0 repeats set-up, then whole command sequences until --seconds have
passed (at least one), and reports the end-to-end metrics as medians.
--trace 1 runs the sequence once as processes, then three times in-process
through `lowfpr.cli.main`: plain, with a span around every public lowfpr
function, and plain again.
It reports the per-layer metrics; spans go to
`.perfbench/trace_<workload>_seed<N>.json`. All passes of one invocation must
write byte-identical files.

Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 0 means
the benchmark ran, even when commands failed (they are counted in "failed");
2 means there is nothing to benchmark.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

SETUP_ROUND_SECONDS = 3.0
HELP_REPEATS = 5
COMMAND_KINDS = ("synth", "validate", "fit", "eval", "study")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("calibrate", "ingest", "study"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="minimum measuring time with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="input size factor; the benchmark's tests use a small one")
    return p.parse_args(argv)


def command_metrics(passes, rows: int) -> dict[str, tuple[float, str]]:
    """Metrics of the `python -m lowfpr` processes.

    Each command's wall time is its median over the passes; a sequence's time
    is the sum of those medians. A command kind the workload does not run
    reads 0.
    """
    steps = [r.step for r in passes[0].steps]
    walls = [statistics.median(p.steps[i].wall_s for p in passes) for i in range(len(steps))]

    def wall(kind: str) -> float:
        return sum((w for w, s in zip(walls, steps) if s.kind == kind), 0.0)

    def rows_per_s(kind: str) -> float:
        t = wall(kind)
        return rows * sum(1 for s in steps if s.kind == kind) / t if t else 0.0

    return {
        "pipeline_s": (sum(walls), "s"),
        "fit_s": (wall("fit"), "s"),
        "eval_s": (wall("eval"), "s"),
        "study_s": (wall("study"), "s"),
        "load_rows_per_s": (rows_per_s("validate"), "rows/s"),
        "write_rows_per_s": (rows_per_s("synth"), "rows/s"),
        "peak_rss_mb": (max(r.maxrss_kb for p in passes for r in p.steps) / 1024, "MB"),
    }


def layer_metrics(tracer, stats, sub, plain_s: float, traced, start_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced in-process pass (and its set-up), the
    process pass `sub` and `plain_s`, the mean untraced in-process pass time."""

    def ms(name: str) -> float:
        return stats[name].total_ns / 1e6 if name in stats else 0.0

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    objective = stats.get("adjust.objective")
    m = {
        "rocmetrics.select_threshold.ms": (ms("rocmetrics.select_threshold"), "ms"),
        "rocmetrics.select_threshold.calls": (calls("rocmetrics.select_threshold"), "count"),
        "adjust.objective.calls": (calls("adjust.objective"), "count"),
        "adjust.objective.us": (ratio(objective.total_ns, objective.calls) / 1e3 if objective else 0.0, "us"),
        "adjust.objective.self_us": (ratio(objective.self_ns, objective.calls) / 1e3 if objective else 0.0, "us"),
        "adjust.brent_minimize.calls": (calls("adjust.brent_minimize"), "count"),
    }
    for v in ("lv1", "lv2", "lv3"):
        m[f"adjust.fit_local.{v}.ms"] = (ms(f"adjust.fit_local.{v}"), "ms")
    m["adjust.fit_local.sweeps"] = (c["adjust.fit_local.sweeps"], "count")
    m["adjust.brent.edge_frac"] = (ratio(c["adjust.brent.edge"], calls("adjust.brent_minimize")), "ratio")
    for name in (
        "adjust.fit_global",
        "adjust.evaluate_calibration",
        "data.load_dataset",
        "data.save_dataset",
        "data.filter_split",
        "data.subsample",
        "data.PredictionDataset.__post_init__",
        "protocol.subsampling_study",
        "protocol.relative_error_curve",
        "uncertainty.compute_uncertainties",
        "analysis.ensemble_vs_members",
        "analysis.uncertainty_by_correctness",
        "adjust.save_calibration",
        "protocol.write_study_csv",
        "analysis.GroupSplit.write_csv",
        "synth.generate",
    ):
        m[f"{name}.ms"] = (ms(name), "ms")
    m["data.load_dataset.us_per_row"] = (ratio(ms("data.load_dataset") * 1e3, c["data.load_dataset.rows"]), "us")
    m["data.subsample.calls"] = (calls("data.subsample"), "count")
    m["uncertainty.compute_uncertainties.calls"] = (calls("uncertainty.compute_uncertainties"), "count")
    m["protocol.attainable_frac"] = (ratio(c["protocol.attainable"], c["protocol.cells"]), "ratio")

    m["cli.start_ms"] = (start_s * 1e3, "ms")
    for kind in COMMAND_KINDS:
        runs = [r for r in sub.steps if r.step.kind == kind]
        cpu_per_wall = ratio(sum(r.cpu_s for r in runs), sum(r.wall_s for r in runs))
        m[f"cli.{kind}.cpu_per_wall"] = (cpu_per_wall, "ratio")
    m["trace.overhead_frac"] = (ratio(traced.wall_s, plain_s) - 1.0, "ratio")
    roots = [s for s in stats if s.startswith("cli.")]
    unaccounted = ratio(sum(stats[s].self_ns for s in roots), sum(stats[s].total_ns for s in roots))
    m["trace.unaccounted_frac"] = (unaccounted, "ratio")
    return m


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _report(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")


def measure(run, seconds: float) -> tuple[dict, list[str], int]:
    import workloads

    # Set-up runs in rounds spread over the run (before the first pass and
    # after every half of --seconds), so that its median sees the same
    # machine as the passes rather than one short window.
    setups, passes = [], []

    def setup_round() -> None:
        t0 = time.perf_counter()
        setups.append(run.setup())
        while time.perf_counter() - t0 < SETUP_ROUND_SECONDS:
            setups.append(run.setup())

    setup_round()
    measured = last_round = 0.0
    while not passes or measured < seconds:
        passes.append(workloads.run_subprocess_pass(run, run.work / f"pass{len(passes)}"))
        measured += passes[-1].wall_s
        if measured - last_round >= seconds / 2:
            setup_round()
            last_round = measured
    failures = workloads.check_passes(run, passes)
    attempted = sum(len(p.steps) for p in passes)
    kinds = {r.step.kind for r in passes[0].steps}
    per_command = command_metrics(passes, len(run.dataset))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_s": per_command["pipeline_s"],
        "peak_rss_mb": per_command["peak_rss_mb"],
    }
    shown = {"fit_s": "fit", "eval_s": "eval", "study_s": "study"}
    shown.update(load_rows_per_s="validate", write_rows_per_s="synth")
    print(f"set-ups (s): {[round(t, 3) for t in setups]}")
    print(f"passes (s): {[round(p.wall_s, 3) for p in passes]}, {len(passes[0].steps)} commands each")
    _report(metrics)
    _report({name: per_command[name] for name, kind in shown.items() if kind in kinds})
    _report({"ops_failed": (len(failures) / attempted, "ratio")})
    return metrics, failures, attempted


def trace(run, args: argparse.Namespace, meta: dict) -> tuple[dict, list[str], int]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.cmd = "setup"
        with tracer.span("setup"):
            run.setup()
        tracer.cmd = None
    sub = workloads.run_subprocess_pass(run, run.work / "pass0")
    cwd, env = Path(tempfile.mkdtemp(prefix="cwd-", dir=run.work)), workloads.command_env()
    start_s = statistics.median(workloads.run_command(["--help"], cwd, env).wall_s for _ in range(HELP_REPEATS))
    # Untraced passes before and after the traced one, so that warm-up and
    # drift do not count as tracing overhead.
    before = workloads.run_inprocess_pass(run, run.work / "pass1", tracing.Tracer())
    with tracing.instrument(tracer):
        inproc = workloads.run_inprocess_pass(run, run.work / "pass2", tracer)
    after = workloads.run_inprocess_pass(run, run.work / "pass3", tracing.Tracer())
    passes = [sub, before, inproc, after]
    failures = workloads.check_passes(run, passes)
    attempted = sum(len(p.steps) for p in passes)

    stats = tracing.layer_stats(tracer.spans)
    plain_s = (before.wall_s + after.wall_s) / 2
    metrics = layer_metrics(tracer, stats, sub, plain_s, inproc, start_s)
    per_command = command_metrics([sub], len(run.dataset))
    for name in ("fit_s", "eval_s", "study_s", "load_rows_per_s", "write_rows_per_s"):
        metrics[name] = per_command[name]
    metrics["ops_failed"] = (len(failures) / attempted, "ratio")

    print(f"{'layer':48} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        print(f"{name:48} {s.calls:8d} {s.total_ns / 1e6:12.3f} {s.self_ns / 1e6:12.3f}")
    _report(metrics)

    origin = min(s.start_ns for s in tracer.spans)
    commands = {"setup": ["setup"]}
    commands.update({workloads.command_id(i): [r.step.kind, *r.step.args] for i, r in enumerate(inproc.steps)})
    doc = {
        "meta": meta,
        "commands": commands,
        "counters": dict(tracer.counters),
        "spans": [
            {
                "id": s.id,
                "name": s.name,
                "start_us": (s.start_ns - origin) / 1e3,
                "end_us": (s.end_ns - origin) / 1e3,
                "parent": s.parent,
                "cmd": s.cmd,
            }
            for s in tracer.spans
        ],
    }
    path = WORK_ROOT / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, failures, attempted


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "lowfpr" / "__init__.py").is_file():
        print(f"error: no lowfpr package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    meta = run_metadata(args)
    print("meta " + json.dumps(meta))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.scale, work)
        if args.trace:
            metrics, failures, attempted = trace(run, args, meta)
        else:
            metrics, failures, attempted = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
