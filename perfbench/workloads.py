"""The benchmark's workloads: set-up, the CLI command sequence, output checks.

Every workload synthesizes its input from the workload seed during set-up,
then runs a fixed sequence of `lowfpr` commands. A command counts as failed
when it exits non-zero or its output disagrees with the library computed
in-process on the same data. Checks compare values, not file digests, so a
later version may add fields; only the subsample study is compared byte for
byte, against the library's own writer at one thread.

Importing this module imports lowfpr, so `src` must be on `sys.path` first.
"""

from __future__ import annotations

import csv
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from lowfpr import adjust, analysis, cli, data, protocol, synth
from lowfpr.data import PredictionDataset, filter_split, load_dataset

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GRID = cli.DEFAULT_TARGET_GRID
STUDY_FRACTIONS = (1.0, 0.1, 0.01)  # the CLI's --fractions default
STUDY_SEEDS = tuple(range(20))  # the CLI's --study-seeds and --seed defaults
STUDY_THREADS = 2


@dataclass(frozen=True)
class Step:
    """One `python -m lowfpr <kind> <args>` command of a workload."""

    kind: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files it writes, relative to the pass directory
    check: Callable[["Run", Path, str], list[str]]  # (run, pass_dir, stdout) -> problems


@dataclass(frozen=True)
class StepResult:
    step: Step
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    cpu_s: float = 0.0
    maxrss_kb: int = 0


@dataclass(frozen=True)
class PassResult:
    """One run of a workload's whole command sequence."""

    directory: Path
    wall_s: float
    steps: list[StepResult]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], synth.SynthConfig]
    rows: int  # half benign, half malicious
    steps: Callable[["Run", Path], list[Step]]


class Run:
    """Inputs and library reference results for one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, scale: float, work: Path) -> None:
        half = max(1, round(workload.rows * scale / 2))
        config = replace(workload.scenario(seed), n_benign=half, n_malicious=half)
        self.workload = workload
        self.config = config
        self.work = work
        self.input = work / "input.csv"
        self.config_path = work / "config.json"
        self.dataset: PredictionDataset | None = None
        self._memo: dict = {}

    def setup(self) -> float:
        """Synthesize and write the input; returns the seconds it took."""
        t0 = time.perf_counter()
        self.config_path.write_text(json.dumps(self.config.to_dict()), encoding="utf-8")
        # Module attributes, so that the traced run's wrappers see these calls.
        self.dataset = synth.generate(self.config)
        data.save_dataset(self.dataset, self.input, "csv")
        return time.perf_counter() - t0

    @cached_property
    def val(self) -> PredictionDataset:
        return filter_split(self.dataset, "validation")

    @cached_property
    def test(self) -> PredictionDataset:
        return filter_split(self.dataset, "test")

    def memo(self, key, compute: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def fitted(self, variant: str, target: float) -> adjust.CalibrationResult:
        def compute():
            v = cli.VARIANT_LABELS[variant]
            if v is adjust.Variant.GLOBAL_ONLY:
                return adjust.fit_global(self.val, target)
            return adjust.fit_local(self.val, target, v)

        return self.memo(("fit", variant, target), compute)


# ---------------------------------------------------------------- checks


def _same(actual: str, want) -> bool:
    if want is None:
        return actual == ""
    if isinstance(want, (bool, np.bool_)):
        return actual == ("true" if want else "false")
    if isinstance(want, (int, float, np.integer, np.floating)):
        return float(actual) == float(want)
    return actual == str(want)


def _match_csv(path: Path, expected: list[dict]) -> list[str]:
    """Compare the named columns of a CSV with expected values, row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"]
    for i, (row, want) in enumerate(zip(rows, expected)):
        for key, value in want.items():
            if key not in row:
                return [f"{path.name}: no column '{key}'"]
            if not _same(row[key], value):
                return [f"{path.name}: row {i} {key}={row[key]!r}, library gives {value!r}"]
    return []


def check_fit(run: Run, d: Path, stdout: str, variant: str, target: float, path: str) -> list[str]:
    ref = run.fitted(variant, target)
    data = json.loads((d / path).read_text(encoding="utf-8"))
    want = {
        "threshold": ref.global_threshold,
        "validation_tpr": ref.achieved_val.tpr,
        "validation_fpr": ref.achieved_val.fpr,
    }
    problems = [f"{path}: {k}={data[k]!r}, library gives {v!r}" for k, v in want.items() if float(data[k]) != v]
    if [float(x) for x in data["alpha"]] != list(ref.params.alpha):
        problems.append(f"{path}: alpha={data['alpha']!r}, library gives {list(ref.params.alpha)!r}")
    return problems


def check_eval(run: Run, d: Path, stdout: str, variant: str, target: float, path: str) -> list[str]:
    outcome = adjust.evaluate_calibration(run.test, run.fitted(variant, target))
    row = {
        "target_fpr": target,
        "tpr": outcome.tpr,
        "actualized_fpr": outcome.actualized_fpr,
        "combined": outcome.combined,
    }
    return _match_csv(d / path, [row])


def check_validate(run: Run, d: Path, stdout: str) -> list[str]:
    ds = run.dataset
    head = re.search(r"ok: (\d+) records, (\d+) members", stdout)
    if head is None or (int(head[1]), int(head[2])) != (len(ds), ds.member_count):
        return [f"validate summary {stdout.splitlines()[:1]!r} does not match {len(ds)} records"]
    for split in ("train", "validation", "test"):
        m = re.search(rf"{split}: (\d+) records \((\d+) malicious", stdout)
        mask = ds.splits == split
        if m is None or (int(m[1]), int(m[2])) != (int(mask.sum()), int(ds.labels[mask].sum())):
            return [f"validate line for split '{split}' is missing or wrong"]
    return []


def check_synth(run: Run, d: Path, stdout: str, path: str, fmt: str) -> list[str]:
    """The written file loads back to the set-up dataset, so the CSV and JSONL loads are equal."""
    got = load_dataset(d / path, fmt)
    ref = run.dataset
    cols = ("sample_ids", "labels", "splits", "families", "scores")
    differ = [c for c in cols if not np.array_equal(getattr(got, c), getattr(ref, c))]
    return [f"{path}: column {c} differs from the library dataset" for c in differ]


def check_protocol(run: Run, d: Path, stdout: str) -> list[str]:
    points = protocol.relative_error_curve(run.val, run.test, GRID)
    rows = [
        {
            "target_fpr": p.target_fpr,
            "valid_tpr": p.valid_tpr,
            "valid_fpr": p.valid_actualized_fpr,
            "invalid_tpr": p.invalid_tpr,
            "rel_error": p.rel_error,
        }
        for p in points
    ]
    return _match_csv(d / "protocol.csv", rows)


def check_table1(run: Run, d: Path, stdout: str) -> list[str]:
    rows = [
        {
            "model": r.model_name,
            "accuracy": r.accuracy,
            "auc": r.auc,
            "partial_auc": r.partial_auc,
            "is_ensemble": r.is_ensemble,
        }
        for r in analysis.ensemble_vs_members(run.test, fpr_max=1e-3)
    ]
    return _match_csv(d / "table1.csv", rows)


def check_errors(run: Run, d: Path, stdout: str) -> list[str]:
    split = analysis.uncertainty_by_correctness(run.test, 0.5, "epistemic")
    rows = [
        {"sample_id": sid, "group": label, "value": float(v)}
        for label, ids, vals in zip(split.labels, split.sample_ids, split.values)
        for sid, v in zip(ids, vals)
    ]
    return _match_csv(d / "errors.csv", rows)


def check_subsample(run: Run, d: Path, stdout: str) -> list[str]:
    def reference() -> Path:
        rows = protocol.subsampling_study(run.val, run.test, STUDY_FRACTIONS, GRID, seeds=STUDY_SEEDS, threads=1)
        path = run.work / "reference_subsample.csv"
        protocol.write_study_csv(rows, path)
        return path

    if filecmp.cmp(d / "subsample.csv", run.memo("subsample", reference), shallow=False):
        return []
    return ["subsample.csv differs from write_study_csv(subsampling_study(..., threads=1))"]


# ------------------------------------------------------------- workloads


def _calibrate_steps(run: Run, out: Path) -> list[Step]:
    steps = []
    for variant in ("g", "g+l", "g+lv2", "g+lv3"):
        for target in (1e-2, 1e-3):
            cal = f"fit/calibration_{variant}_{target:g}.json"
            ev = f"eval_{variant}_{target:g}/evaluation.csv"
            inp = ("--input", str(run.input))
            fit_args = inp + ("--variant", variant, "--target-fpr", f"{target:g}", "--output-dir", str(out / "fit"))
            eval_args = inp + ("--calibration", str(out / cal), "--output-dir", str(out / Path(ev).parent))
            steps.append(Step("fit", fit_args, (cal,), partial(check_fit, variant=variant, target=target, path=cal)))
            steps.append(Step("eval", eval_args, (ev,), partial(check_eval, variant=variant, target=target, path=ev)))
    return steps


def _ingest_steps(run: Run, out: Path) -> list[Step]:
    inp, cfg, o = str(run.input), str(run.config_path), str(out)
    study = ("--input", inp, "--output-dir", o, "--study")
    return [
        Step(
            "synth",
            ("--config", cfg, "--output", str(out / "data.csv")),
            ("data.csv",),
            partial(check_synth, path="data.csv", fmt="csv"),
        ),
        Step(
            "synth",
            ("--config", cfg, "--format", "jsonl", "--output", str(out / "data.jsonl")),
            ("data.jsonl",),
            partial(check_synth, path="data.jsonl", fmt="jsonl"),
        ),
        Step("validate", ("--input", str(out / "data.csv")), (), check_validate),
        Step("validate", ("--input", str(out / "data.jsonl"), "--format", "jsonl"), (), check_validate),
        Step(
            "fit",
            ("--input", inp, "--variant", "g", "--target-fpr", "0.001", "--output-dir", o),
            ("calibration_g_0.001.json",),
            partial(check_fit, variant="g", target=1e-3, path="calibration_g_0.001.json"),
        ),
        Step(
            "eval",
            ("--input", inp, "--calibration", str(out / "calibration_g_0.001.json"), "--output-dir", o),
            ("evaluation.csv",),
            partial(check_eval, variant="g", target=1e-3, path="evaluation.csv"),
        ),
        Step("study", study + ("protocol",), ("protocol.csv",), check_protocol),
        Step("study", study + ("table1",), ("table1.csv",), check_table1),
        Step("study", study + ("errors",), ("errors.csv",), check_errors),
    ]


def _study_steps(run: Run, out: Path) -> list[Step]:
    args = ("--input", str(run.input), "--output-dir", str(out), "--study", "subsample")
    return [Step("study", args + ("--threads", str(STUDY_THREADS)), ("subsample.csv",), check_subsample)]


# Sizes are half the scenarios' defaults so that a run fits several passes;
# on a 2-core machine one pass takes about 12 s, 15 s and 4 s.
WORKLOADS = {
    w.name: w
    for w in (
        # 16 short commands: the Brent fit objective (a full sort per call in
        # select_threshold) and per-process start dominate.
        Workload("calibrate", synth.heteroscedastic_scenario, 20_000, _calibrate_steps),
        # Row-by-row parse, validation and writing in `data` dominate; the
        # threshold kernel runs a handful of times.
        Workload("ingest", synth.default_scenario, 100_000, _ingest_steps),
        # In-memory row selection: every subset is re-validated, and
        # select_threshold runs outside any fit.
        Workload("study", synth.default_scenario, 100_000, _study_steps),
    )
}


# ---------------------------------------------------------------- passes


def command_env() -> dict[str, str]:
    """The environment for `python -m lowfpr`, with an absolute path to `src`."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def run_subprocess_pass(run: Run, pass_dir: Path) -> PassResult:
    """Each command is its own `python -m lowfpr` process, run from a fresh temporary directory."""
    pass_dir.mkdir(parents=True)
    cwd = Path(tempfile.mkdtemp(prefix="cwd-", dir=run.work))
    env = command_env()
    results = []
    t_pass = time.perf_counter()
    for step in run.workload.steps(run, pass_dir):
        results.append(run_command([step.kind, *step.args], cwd, env, step))
    wall = time.perf_counter() - t_pass
    return PassResult(pass_dir, wall, results)


def run_command(argv: list[str], cwd: Path, env: dict[str, str], step: Step | None = None) -> StepResult:
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lowfpr", *argv], cwd=cwd, env=env, stdout=so, stderr=se)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StepResult(
        step=step,
        wall_s=wall,
        exit_code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def command_id(i: int) -> str:
    return f"cmd{i:02d}"


def run_inprocess_pass(run: Run, pass_dir: Path, tracer) -> PassResult:
    """The same commands through `lowfpr.cli.main`, one root span `cli.<kind>` each."""
    pass_dir.mkdir(parents=True)
    results = []
    t_pass = time.perf_counter()
    for i, step in enumerate(run.workload.steps(run, pass_dir)):
        tracer.cmd = command_id(i)
        out, err = io.StringIO(), io.StringIO()
        code = 0
        t0 = time.perf_counter()
        with tracer.span(f"cli.{step.kind}"), redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main([step.kind, *step.args])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # a crash counts as a failed command, not a failed benchmark
                traceback.print_exc()
                code = 1
        results.append(StepResult(step, time.perf_counter() - t0, code, out.getvalue(), err.getvalue()))
    tracer.cmd = None
    return PassResult(pass_dir, time.perf_counter() - t_pass, results)


def _identical(a: Path, b: Path) -> bool:
    try:
        return filecmp.cmp(a, b, shallow=False)
    except OSError:
        return False


def check_passes(run: Run, passes: list[PassResult]) -> list[str]:
    """One line per failed command. The first pass is checked against the
    library; later passes must write byte-identical files."""
    failures = []
    first = passes[0]
    for k, p in enumerate(passes):
        for r in p.steps:
            step = r.step
            if r.exit_code != 0:
                last = r.stderr.strip().splitlines()[-1:] or [""]
                problems = [f"exit {r.exit_code}: {last[0]}"]
            elif k > 0 and step.outputs:
                problems = [
                    f"{name} differs from pass 0"
                    for name in step.outputs
                    if not _identical(first.directory / name, p.directory / name)
                ]
            else:
                try:
                    problems = step.check(run, p.directory, r.stdout)
                except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                failures.append(f"pass {k} {step.kind} {' '.join(step.args)}: {problems[0]}")
    return failures
