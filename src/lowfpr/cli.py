"""Batch command-line surface over datasets on disk, parsed with the standard library's argparse.

Commands: validate, fit, eval, study, synth. Outputs are deterministic for a
fixed seed; reruns and different --threads values produce byte-identical
files. Exit codes: 0 success or --help, 1 usage error (one stderr line,
``Error: …``; no option may be abbreviated) or interrupt, 2 data validation
error, 3 numeric or fit failure. `study` and `synth` import their modules in
their own bodies, so a `fit` or `eval` process never loads them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import adjust
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


class _UsageError(Exception):
    """A malformed command line; ``main`` prints it as one ``Error: …`` line and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _int_range(lo: int, hi: int | None = None) -> type[argparse.Action]:
    """An argparse action that stores an int option within [lo, hi] (no upper bound when ``hi`` is None)."""
    bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    class InRange(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if value < lo or (hi is not None and value > hi):
                parser.error(f"Invalid value for {option_string!r}: {value} is not in the range {bounds}.")
            setattr(namespace, self.dest, value)

    return InRange


def _attach_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each ``--option`` joined to a following token that float() reads, as ``--option=token``.

    argparse takes a token such as ``-1e-3`` or ``-inf`` for an option name, where this makes it the
    option's value. Every long option but ``--help`` takes a value.
    """
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if option.startswith("--") and "=" not in option and option not in ("--", "--help") and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{option}={token}"
                continue
        out.append(token)
    return out


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
        print(f"warning: {msg}; no nonzero FPR on this split fits the budget", file=sys.stderr)


def _echo_summary(ds, head: str, novel: np.ndarray | None = None) -> None:
    """Print the dataset's size after ``head``, then one line per split; a row mask ``novel`` adds its count."""
    print(f"{head}: {len(ds)} records, {ds.member_count} members")
    for split in SPLIT_NAMES:
        mask = ds.splits == split
        n = int(mask.sum())
        pos = int(ds.labels[mask].sum())
        extra = "" if novel is None else f", {int((mask & novel).sum())} novel-family"
        print(f"  {split}: {n} records ({pos} malicious, {n - pos} benign{extra})")


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args: argparse.Namespace) -> None:
    """Check a dataset file against the schema and print a summary."""
    _echo_summary(load_dataset(args.input, args.format), "ok")


def cmd_fit(args: argparse.Namespace) -> None:
    """Fit a calibration on the validation split and write it as JSON."""
    val = _split_or_die(load_dataset(args.input, args.format), "validation")
    v, target, multiplier = VARIANT_LABELS[args.variant], args.target_fpr, args.multiplier
    result = adjust.fit_local(
        val, target, v, seed=args.seed, multiplier=multiplier, sweep_tol=args.sweep_tol, max_sweeps=args.max_sweeps
    )
    _warn_if_unresolvable(target, val, "validation", multiplier)
    out = _outdir(args.output_dir) / f"calibration_{args.variant}_{target:g}.json"
    adjust.save_calibration(result, out)
    op = result.achieved_val
    print(f"fitted {args.variant} @ target_fpr={target:g}: threshold={op.threshold!r} tpr={op.tpr!r} fpr={op.fpr!r}")
    print(f"wrote {out}")


def cmd_eval(args: argparse.Namespace) -> None:
    """Evaluate a fitted calibration on the test split."""
    test = _split_or_die(load_dataset(args.input, args.format), "test")
    result = adjust.load_calibration(args.calibration)
    outcome = adjust.evaluate_calibration(test, result, args.target_fpr)
    target = result.target_fpr if args.target_fpr is None else args.target_fpr
    _warn_if_unresolvable(target, test, "test")
    out = _outdir(args.output_dir) / "evaluation.csv"
    columns = [[value] for value in (target, *outcome)]
    _write_csv(out, ("target_fpr", "tpr", "actualized_fpr", "combined"), columns, lineterminator="\n")
    print(f"tpr={outcome.tpr!r} actualized_fpr={outcome.actualized_fpr!r} combined={outcome.combined!r}")
    print(f"wrote {out}")


def cmd_study(args: argparse.Namespace) -> None:
    """Run one of the bundled studies and write its CSV."""
    from . import analysis, protocol

    study = args.study
    targets = args.target_fpr or list(DEFAULT_TARGET_GRID)
    ds = load_dataset(args.input, args.format)
    out = _outdir(args.output_dir) / f"{study}.csv"
    if study in ("protocol", "subsample"):
        val = _split_or_die(ds, "validation")
    test = _split_or_die(ds, "test")
    if study == "novelty":
        known = set(ds.families[ds.splits != "test"].tolist()) - {None}
    del ds
    if study == "protocol":
        points = protocol.relative_error_curve(val, test, targets)
        for t in targets:
            _warn_if_unresolvable(t, val, "validation")
        protocol.write_protocol_csv(points, out)
    elif study == "subsample":
        try:
            fractions = [float(f) for f in args.fractions.split(",") if f.strip() != ""]
        except ValueError:
            fractions = []
        if not fractions:
            raise _UsageError(f"--fractions must be comma-separated numbers, got {args.fractions!r}")
        seeds = [args.seed + k for k in range(args.study_seeds)]
        rows = protocol.subsampling_study(val, test, fractions, targets, seeds=seeds, threads=args.threads)
        protocol.write_study_csv(rows, out)
    elif study == "table1":
        rows = analysis.ensemble_vs_members(test, fpr_max=args.fpr_max)
        analysis.write_comparison_csv(rows, out)
    elif study == "errors":
        split_result = analysis.uncertainty_by_correctness(test, args.threshold, args.measure)
        split_result.write_csv(out)
        if split_result.has_empty_group:
            print("warning: one correctness group is empty", file=sys.stderr)
    else:  # novelty
        split_result = analysis.uncertainty_by_novelty(test, known, args.measure)
        split_result.write_csv(out)
        if split_result.has_empty_group:
            print("warning: one novelty group is empty", file=sys.stderr)
    print(f"wrote {out}")


def cmd_synth(args: argparse.Namespace) -> None:
    """Generate a synthetic dataset and write it to disk."""
    from . import synth

    config = synth.default_scenario() if args.config is None else synth.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    ds = synth.generate(config)
    save_dataset(ds, args.output, args.format)
    _echo_summary(ds, f"wrote {args.output}", np.isin(ds.families, synth._NOVEL_FAMILIES))


def _parser() -> argparse.ArgumentParser:
    """The command line: one subparser per command, one ``add_argument`` per option."""
    parser = _Parser(prog="lowfpr", description="Threshold calibration and evaluation at low FPR.", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, *, reads: bool = True, writes_dir: bool = True):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        if reads:
            sub.add_argument("--input", required=True, help="Dataset file to read.")
        sub.add_argument("--format", choices=_FORMATS, default="csv", help="Dataset format (default: %(default)s).")
        if writes_dir:
            sub.add_argument("--output-dir", default=".", help="Directory for output files, created if missing.")
        return sub.add_argument

    command("validate", cmd_validate, writes_dir=False)

    add = command("fit", cmd_fit)
    add("--variant", choices=VARIANT_LABELS, default="g", help="g: global, g+l*: plus local (default: %(default)s).")
    add("--target-fpr", type=float, required=True, help="False-positive-rate budget for the fit.")
    add("--multiplier", type=float, default=0.9, help="Fit-time fraction of the FPR budget (default: %(default)s).")
    add("--seed", type=int, action=_int_range(0, 2**128 - 1), default=0, help="Fit seed (default: %(default)s).")
    add("--sweep-tol", type=float, default=1e-6, help="Per-sweep TPR improvement cutoff (default: %(default)s).")
    add("--max-sweeps", type=int, default=50, help="Coordinate sweep cap (default: %(default)s).")

    add = command("eval", cmd_eval)
    add("--calibration", required=True, help="Calibration JSON produced by fit.")
    add("--target-fpr", type=float, help="Override the calibration's target FPR.")

    add = command("study", cmd_study)
    add("--study", choices=("protocol", "subsample", "table1", "errors", "novelty"), required=True, help="The study.")
    add("--target-fpr", type=float, action="append", help="Target FPR (repeatable). Default grid: 1e-2 1e-3 1e-4 1e-5.")
    add("--fractions", default="1,0.1,0.01", help="Subsample fractions, comma separated (default: %(default)s).")
    add("--study-seeds", type=int, action=_int_range(1), default=20, help="Subsample seeds (default: %(default)s).")
    add("--seed", type=int, action=_int_range(0), default=0, help="Subsample study base seed (default: %(default)s).")
    add("--threads", type=int, action=_int_range(1), default=1, help="Subsample study threads (default: %(default)s).")
    add("--fpr-max", type=float, default=1e-3, help="Partial-AUC cut for the table1 study (default: %(default)s).")
    add("--threshold", type=float, default=0.5, help="Decision threshold of the errors study (default: %(default)s).")
    add("--measure", choices=MEASURES, default="epistemic", help="Errors/novelty study measure (default: %(default)s).")

    add = command("synth", cmd_synth, reads=False, writes_dir=False)
    add("--config", help="Generator config JSON; defaults to the default scenario.")
    add("--output", required=True, help="Dataset file to write.")
    add("--seed", type=int, action=_int_range(0), help="Override the config's seed.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Returns 0 on success and after --help; each failure prints one stderr line and exits."""
    try:
        try:
            args = _parser().parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
        except SystemExit:  # after --help; a malformed command line raises _UsageError instead
            return 0
        args.run(args)
    except _UsageError as exc:
        code, line = 1, f"Error: {exc}"
    except KeyboardInterrupt:
        code, line = 1, "\naborted"
    except DatasetError as exc:
        code, line = 2, f"data error: {exc}"
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        code, line = 3, f"error: {exc}"
    else:
        return 0
    print(line, file=sys.stderr)
    sys.exit(code)


__all__ = ["main", "DEFAULT_TARGET_GRID", "VARIANT_LABELS"]
