"""Valid versus invalid threshold-selection protocols and the subsampling study.

The invalid protocol picks a threshold on the test set itself and reports test
metrics at it: an optimistic estimate that leaks the evaluation data. The
valid protocol picks the threshold on the validation split and carries it to
the test split. The relative error between the two quantifies the optimism.

The subsampling study repeats the valid/invalid comparison with the validation
set shrunk to a fraction of its size, showing how threshold estimates degrade,
and at which point low FPR targets stop being estimable at all.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import PredictionDataset, _field_columns, _subsample_rows, _write_csv
from .rocmetrics import OperatingPoint, _budget_count, _select, evaluate_at_threshold, select_threshold


@dataclass(frozen=True)
class ProtocolCurvePoint:
    """Valid/invalid comparison at one target FPR.

    rel_error is |invalid_tpr - valid_tpr| / valid_tpr, or None when the valid
    TPR is zero and the ratio is undefined.
    """

    target_fpr: float
    valid_tpr: float
    valid_actualized_fpr: float
    invalid_tpr: float
    rel_error: float | None


@dataclass(frozen=True)
class StudyRow:
    """One (fraction, seed, target) cell of the subsampling study."""

    fraction: float
    seed: int
    target_fpr: float
    valid_tpr: float
    valid_fpr: float
    invalid_tpr: float
    rel_error: float | None
    attainable: bool


def _mean_scores(ds: PredictionDataset) -> tuple[np.ndarray, np.ndarray]:
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    labels = ds.labels
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(ds):
        raise ValueError("protocol evaluation needs both classes present")
    return ds.scores.mean(axis=1), labels


def _check_targets(target_fprs) -> list[float]:
    targets = [float(t) for t in target_fprs]
    if not targets:
        raise ValueError("target_fprs is empty")
    return targets


def invalid_protocol_eval(test: PredictionDataset, target_fprs) -> list[OperatingPoint]:
    """Select thresholds on the test set itself (data leakage, upper bound)."""
    scores, labels = _mean_scores(test)
    return [select_threshold(scores, labels, t) for t in _check_targets(target_fprs)]


def valid_protocol_eval(val: PredictionDataset, test: PredictionDataset, target_fprs) -> list[OperatingPoint]:
    """Select thresholds on validation, report test rates at those thresholds."""
    val_scores, val_labels = _mean_scores(val)
    test_scores, test_labels = _mean_scores(test)
    out = []
    for t in _check_targets(target_fprs):
        selected = select_threshold(val_scores, val_labels, t)
        op = evaluate_at_threshold(test_scores, test_labels, selected.threshold)
        out.append(op)
    return out


def _rel_error(invalid_tpr: float, valid_tpr: float) -> float | None:
    if valid_tpr == 0.0:
        return None
    return abs(invalid_tpr - valid_tpr) / valid_tpr


def relative_error_curve(val: PredictionDataset, test: PredictionDataset, target_fprs) -> list[ProtocolCurvePoint]:
    """Pair the two protocols per target FPR and compute their relative error."""
    targets = _check_targets(target_fprs)
    valid_ops = valid_protocol_eval(val, test, targets)
    invalid_ops = invalid_protocol_eval(test, targets)
    return [
        ProtocolCurvePoint(
            target_fpr=t,
            valid_tpr=v.tpr,
            valid_actualized_fpr=v.fpr,
            invalid_tpr=inv.tpr,
            rel_error=_rel_error(inv.tpr, v.tpr),
        )
        for t, v, inv in zip(targets, valid_ops, invalid_ops)
    ]


def min_estimable_fpr(n_negatives: int, min_fp_count: int = 100) -> float:
    """Smallest FPR measurable with at least min_fp_count false positives."""
    if n_negatives < 1:
        raise ValueError("n_negatives must be at least 1")
    if min_fp_count < 1:
        raise ValueError("min_fp_count must be at least 1")
    return min_fp_count / n_negatives


def _cell_seed(seed: int, fraction_index: int) -> int:
    # Stable mix of (seed, fraction index) so cells stay independent and
    # reproducible no matter how the grid is executed.
    ss = np.random.SeedSequence([int(seed), int(fraction_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def subsampling_study(
    val: PredictionDataset,
    test: PredictionDataset,
    fractions,
    target_fprs,
    seeds,
    threads: int = 1,
) -> list[StudyRow]:
    """Valid/invalid comparison over a (fraction, seed, target) grid.

    Each cell subsamples the validation split (uniformly, so class balance
    drifts at small fractions), reselects thresholds and evaluates on the full
    test split. The validation mean-score vector is computed once: a cell
    indexes it with the rows ``subsample`` would keep (both draw them through
    ``_subsample_rows``) and splits them by class once for all its targets.
    A target is attainable in a cell when the selected threshold is finite and
    the target is not below 1/n_negatives of the reduced set (below that no
    positive false-positive count can sit inside the budget).
    Cells are independent; results are ordered by (fraction, seed, target) and
    do not depend on the thread count.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions is empty")
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {f!r}")
    targets = _check_targets(target_fprs)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("seeds is empty")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    test_scores, test_labels = _mean_scores(test)
    invalid_ops = invalid_protocol_eval(test, targets)
    val_scores, val_labels = _mean_scores(val)

    def run_cell(cell: tuple[int, float, int]) -> list[StudyRow]:
        fraction_index, fraction, seed = cell
        kept = _subsample_rows(val_scores.size, fraction, _cell_seed(seed, fraction_index))
        scores, malicious = val_scores[kept], val_labels[kept] == 1
        pos, neg = scores[malicious], scores[~malicious]
        if pos.size == 0 or neg.size == 0:
            raise ValueError("protocol evaluation needs both classes present")
        rows = []
        for t, inv in zip(targets, invalid_ops):
            selected = _select(pos, neg, _budget_count(neg.size, t))
            op = evaluate_at_threshold(test_scores, test_labels, selected.threshold)
            attainable = bool(np.isfinite(selected.threshold)) and t >= 1.0 / neg.size
            rows.append(
                StudyRow(
                    fraction=fraction,
                    seed=seed,
                    target_fpr=t,
                    valid_tpr=op.tpr,
                    valid_fpr=op.fpr,
                    invalid_tpr=inv.tpr,
                    rel_error=_rel_error(inv.tpr, op.tpr),
                    attainable=attainable,
                )
            )
        return rows

    cells = [(fi, f, s) for fi, f in enumerate(fractions) for s in seeds]
    if threads == 1:
        per_cell = [run_cell(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_cell = list(pool.map(run_cell, cells))
    return [row for rows in per_cell for row in rows]


def write_protocol_csv(points: list[ProtocolCurvePoint], path: str | Path) -> None:
    header = ("target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error")
    _write_csv(path, header, _field_columns(points, ProtocolCurvePoint))


def write_study_csv(rows: list[StudyRow], path: str | Path) -> None:
    header = ("fraction", "seed", "target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error", "attainable")
    _write_csv(path, header, _field_columns(rows, StudyRow))
