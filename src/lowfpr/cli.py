"""Batch command-line surface over datasets on disk.

Commands: validate, fit, eval, study, synth. Outputs are deterministic for a
fixed seed; reruns and different --threads values produce byte-identical
files. Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numeric or fit failure.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import adjust, analysis, protocol, synth
from .data import _FORMATS, SPLIT_NAMES, DatasetError, _write_csv, filter_split, load_dataset, save_dataset
from .rocmetrics import _budget_count
from .uncertainty import MEASURES

DEFAULT_TARGET_GRID = (1e-2, 1e-3, 1e-4, 1e-5)

VARIANT_LABELS = {
    "g": adjust.Variant.GLOBAL_ONLY,
    "g+l": adjust.Variant.LV1,
    "g+lv2": adjust.Variant.LV2,
    "g+lv3": adjust.Variant.LV3,
}

_input_option = click.option("--input", "input_path", required=True, help="Dataset file to read.")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(_FORMATS), default="csv", show_default=True, help="Dataset file format."
)
_output_dir_option = click.option(
    "--output-dir", default=".", show_default=True, help="Directory for output files (created if missing)."
)


def _split_or_die(ds, split: str):
    part = filter_split(ds, split)
    if len(part) == 0:
        raise DatasetError(f"input has no records in the '{split}' split")
    return part


def _warn_if_unresolvable(target_fpr: float, part, split: str, multiplier: float | None = None) -> None:
    """Warn on stderr when the budget (the target, or fit's multiplier * target) admits no false positive on this split.

    _budget_count decides, and raises on a NaN budget, so call this after the target is validated.
    """
    n_neg = len(part) - int(part.labels.sum())
    what, budget = f"target FPR {target_fpr:g}", target_fpr
    if multiplier is not None:
        budget = multiplier * target_fpr
        what = f"fit budget {multiplier:g} x {what} = {budget:g}"
    if _budget_count(n_neg, budget) == 0:
        msg = f"{what} is below 1/{n_neg}, one false positive among the {n_neg} {split} negatives"
        click.echo(f"warning: {msg}; no nonzero FPR on this split fits the budget", err=True)


def _echo_summary(ds, head: str, novel: np.ndarray | None = None) -> None:
    """Print the dataset's size after ``head``, then one line per split; a row mask ``novel`` adds its count."""
    click.echo(f"{head}: {len(ds)} records, {ds.member_count} members")
    for split in SPLIT_NAMES:
        mask = ds.splits == split
        n = int(mask.sum())
        pos = int(ds.labels[mask].sum())
        extra = "" if novel is None else f", {int((mask & novel).sum())} novel-family"
        click.echo(f"  {split}: {n} records ({pos} malicious, {n - pos} benign{extra})")


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
def cli() -> None:
    """Threshold calibration and evaluation under low false-positive budgets."""


@cli.command("validate")
@_input_option
@_format_option
def cmd_validate(input_path: str, fmt: str) -> None:
    """Check a dataset file against the schema and print a summary."""
    _echo_summary(load_dataset(input_path, fmt), "ok")


@cli.command("fit")
@_input_option
@_format_option
@_output_dir_option
@click.option(
    "--variant",
    type=click.Choice(sorted(VARIANT_LABELS)),
    default="g",
    show_default=True,
    help="g: global threshold only; g+l, g+lv2, g+lv3: with a local adjustment.",
)
@click.option("--target-fpr", type=float, required=True, help="False-positive-rate budget for the fit.")
@click.option("--multiplier", type=float, default=0.9, show_default=True, help="Fit-time fraction of the FPR budget.")
@click.option("--seed", type=click.IntRange(0, 2**128 - 1), default=0, show_default=True)
@click.option("--sweep-tol", type=float, default=1e-6, show_default=True, help="Per-sweep TPR improvement cutoff.")
@click.option("--max-sweeps", type=int, default=50, show_default=True)
def cmd_fit(
    input_path: str,
    fmt: str,
    output_dir: str,
    variant: str,
    target_fpr: float,
    multiplier: float,
    seed: int,
    sweep_tol: float,
    max_sweeps: int,
) -> None:
    """Fit a calibration on the validation split and write it as JSON."""
    ds = load_dataset(input_path, fmt)
    val = _split_or_die(ds, "validation")
    v = VARIANT_LABELS[variant]
    result = adjust.fit_local(
        val, target_fpr, v, seed=seed, multiplier=multiplier, sweep_tol=sweep_tol, max_sweeps=max_sweeps
    )
    _warn_if_unresolvable(target_fpr, val, "validation", multiplier)
    out = _outdir(output_dir) / f"calibration_{variant}_{target_fpr:g}.json"
    adjust.save_calibration(result, out)
    op = result.achieved_val
    click.echo(f"fitted {variant} @ target_fpr={target_fpr:g}: threshold={op.threshold!r} tpr={op.tpr!r} fpr={op.fpr!r}")
    click.echo(f"wrote {out}")


@cli.command("eval")
@_input_option
@_format_option
@_output_dir_option
@click.option("--calibration", "calibration_path", required=True, help="Calibration JSON produced by fit.")
@click.option("--target-fpr", type=float, default=None, help="Override the calibration's target FPR.")
def cmd_eval(input_path: str, fmt: str, output_dir: str, calibration_path: str, target_fpr: float | None) -> None:
    """Evaluate a fitted calibration on the test split."""
    ds = load_dataset(input_path, fmt)
    test = _split_or_die(ds, "test")
    result = adjust.load_calibration(calibration_path)
    outcome = adjust.evaluate_calibration(test, result, target_fpr)
    target = result.target_fpr if target_fpr is None else target_fpr
    _warn_if_unresolvable(target, test, "test")
    out = _outdir(output_dir) / "evaluation.csv"
    columns = [[value] for value in (target, *outcome)]
    _write_csv(out, ("target_fpr", "tpr", "actualized_fpr", "combined"), columns, lineterminator="\n")
    click.echo(f"tpr={outcome.tpr!r} actualized_fpr={outcome.actualized_fpr!r} combined={outcome.combined!r}")
    click.echo(f"wrote {out}")


@cli.command("study")
@_input_option
@_format_option
@_output_dir_option
@click.option(
    "--study",
    "study_name",
    type=click.Choice(["protocol", "subsample", "table1", "errors", "novelty"]),
    required=True,
    help="Which analysis to run.",
)
@click.option(
    "--target-fpr",
    "target_fprs",
    type=float,
    multiple=True,
    help="Target FPR (repeatable). Default grid: 1e-2 1e-3 1e-4 1e-5.",
)
@click.option("--fractions", default="1,0.1,0.01", show_default=True, help="Subsample fractions, comma separated.")
@click.option("--study-seeds", type=click.IntRange(min=1), default=20, show_default=True, help="Subsample study seeds.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Subsample study base seed.")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True, help="Subsample study threads.")
@click.option("--fpr-max", type=float, default=1e-3, show_default=True, help="Partial-AUC cut for the table1 study.")
@click.option("--threshold", type=float, default=0.5, show_default=True, help="Decision threshold for the errors study.")
@click.option(
    "--measure",
    type=click.Choice(MEASURES),
    default="epistemic",
    show_default=True,
    help="Uncertainty measure for the errors/novelty studies.",
)
def cmd_study(
    input_path: str,
    fmt: str,
    output_dir: str,
    study_name: str,
    target_fprs: tuple[float, ...],
    fractions: str,
    study_seeds: int,
    seed: int,
    threads: int,
    fpr_max: float,
    threshold: float,
    measure: str,
) -> None:
    """Run one of the bundled studies and write its CSV."""
    targets = list(target_fprs) if target_fprs else list(DEFAULT_TARGET_GRID)
    ds = load_dataset(input_path, fmt)
    out = _outdir(output_dir) / f"{study_name}.csv"
    if study_name in ("protocol", "subsample"):
        val = _split_or_die(ds, "validation")
    test = _split_or_die(ds, "test")
    if study_name == "protocol":
        points = protocol.relative_error_curve(val, test, targets)
        for t in targets:
            _warn_if_unresolvable(t, val, "validation")
        protocol.write_protocol_csv(points, out)
    elif study_name == "subsample":
        try:
            fraction_list = [float(f) for f in fractions.split(",") if f.strip() != ""]
        except ValueError:
            fraction_list = []
        if not fraction_list:
            raise click.UsageError(f"--fractions must be comma-separated numbers, got {fractions!r}")
        rows = protocol.subsampling_study(
            val, test, fraction_list, targets, seeds=[seed + k for k in range(study_seeds)], threads=threads
        )
        protocol.write_study_csv(rows, out)
    elif study_name == "table1":
        rows = analysis.ensemble_vs_members(test, fpr_max=fpr_max)
        analysis.write_comparison_csv(rows, out)
    elif study_name == "errors":
        split_result = analysis.uncertainty_by_correctness(test, threshold, measure)
        split_result.write_csv(out)
        if split_result.has_empty_group:
            click.echo("warning: one correctness group is empty", err=True)
    else:  # novelty
        known = set(ds.families[ds.splits != "test"].tolist()) - {None}
        split_result = analysis.uncertainty_by_novelty(test, known, measure)
        split_result.write_csv(out)
        if split_result.has_empty_group:
            click.echo("warning: one novelty group is empty", err=True)
    click.echo(f"wrote {out}")


@cli.command("synth")
@_format_option
@click.option("--config", "config_path", default=None, help="Generator config JSON; defaults to the default scenario.")
@click.option("--output", "output_path", required=True, help="Dataset file to write.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the config's seed.")
def cmd_synth(fmt: str, config_path: str | None, output_path: str, seed: int | None) -> None:
    """Generate a synthetic dataset and write it to disk."""
    if config_path is None:
        config = synth.default_scenario()
    else:
        config = synth.load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    ds = synth.generate(config)
    save_dataset(ds, output_path, fmt)
    _echo_summary(ds, f"wrote {output_path}", np.isin(ds.families, synth._NOVEL_FAMILIES))


def main(argv: list[str] | None = None) -> int:
    """Entry point translating failures into the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except DatasetError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    return 0


__all__ = ["cli", "main", "DEFAULT_TARGET_GRID", "VARIANT_LABELS"]
