"""Valid versus invalid threshold-selection protocols and the subsampling study.

The invalid protocol picks a threshold on the test set itself and reports test
metrics at it: an optimistic estimate that leaks the evaluation data. The
valid protocol picks the threshold on the validation split and carries it to
the test split. The relative error between the two quantifies the optimism.

Both are one cell, ``_carry``, run on class-split ``_ensemble_scores``: the
invalid protocol is the valid one with the test split on both sides.

The subsampling study repeats the valid/invalid comparison with the validation
set shrunk to a fraction of its size, showing how threshold estimates degrade,
and at which point low FPR targets stop being estimable at all: where the
budget admits no false positive (``rocmetrics._budget_count`` is 0). One draw,
``_cell_rows``, decides which validation rows each cell keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import PredictionDataset, _field_columns, _integer, _write_csv
from .rocmetrics import OperatingPoint, _budget_count, _check_target_fpr, _rates, _select
from .uncertainty import _ensemble_scores


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


def _class_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split scores into (malicious, benign); both classes must be present."""
    malicious = labels == 1
    pos, neg = scores[malicious], scores[~malicious]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("protocol evaluation needs both classes present")
    return pos, neg


def _check_targets(target_fprs) -> list[float]:
    targets = [_check_target_fpr(float(t)) for t in target_fprs]
    if not targets:
        raise ValueError("target_fprs is empty")
    return targets


def _carry(select_on, evaluate_on, targets: list[float]) -> list[tuple[OperatingPoint, bool]]:
    """Per target, pick the threshold on one class-split pair and read the other pair's rates at it.

    Returns the rates on ``evaluate_on`` and whether the target is attainable on
    ``select_on``: its budget admits a false positive and the threshold is finite.
    """
    pos, neg = select_on
    out = []
    for t in targets:
        k = _budget_count(neg.size, t)
        threshold = _select(pos, neg, k).threshold
        out.append((_rates(*evaluate_on, threshold), k > 0 and math.isfinite(threshold)))
    return out


def _rel_error(invalid_tpr: float, valid_tpr: float) -> float | None:
    if valid_tpr == 0.0:
        return None
    return abs(invalid_tpr - valid_tpr) / valid_tpr


def relative_error_curve(val: PredictionDataset, test: PredictionDataset, target_fprs) -> list[ProtocolCurvePoint]:
    """Select thresholds on validation and on test itself; report test rates at each and their relative error."""
    targets = _check_targets(target_fprs)
    val_classes = _class_scores(_ensemble_scores(val), val.labels)
    test_classes = _class_scores(_ensemble_scores(test), test.labels)
    valid = _carry(val_classes, test_classes, targets)
    invalid = _carry(test_classes, test_classes, targets)
    return [
        ProtocolCurvePoint(t, v.tpr, v.fpr, inv.tpr, _rel_error(inv.tpr, v.tpr))
        for t, (v, _), (inv, _) in zip(targets, valid, invalid)
    ]


def _cell_rows(n: int, fraction: float, seed: int, fraction_index: int) -> np.ndarray:
    """The positions, in order, that the (fraction, seed) cell keeps of n validation rows.

    round(fraction * n) of them under round-half-to-even, at least 1 when n > 0,
    drawn by Philox keyed on a mix of (seed, fraction index).
    """
    key = np.random.SeedSequence([seed, fraction_index]).generate_state(1, np.uint64)[0]
    k = max(1, round(fraction * n))
    return np.random.Generator(np.random.Philox(key=int(key))).permutation(n)[:k]


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
    test split. The validation ensemble-score vector is computed once: a cell
    indexes it with the rows ``_cell_rows`` draws, splits them by class and
    runs ``_carry``, the cell ``relative_error_curve`` runs on the whole
    split. A target is attainable in a cell when its budget admits a false
    positive among the reduced set's negatives (``_budget_count`` is not 0,
    i.e. target >= 1/n_negatives) and the selected threshold is finite.
    Cells are independent and run on a pool of ``threads`` workers; results
    are ordered by (fraction, seed, target) and do not depend on the thread count.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions is empty")
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {f!r}")
    targets = _check_targets(target_fprs)
    seeds = [_integer("seed", s) for s in seeds]
    if not seeds:
        raise ValueError("seeds is empty")
    threads = _integer("threads", threads, minimum=1)
    test_classes = _class_scores(_ensemble_scores(test), test.labels)
    invalid = [op for op, _ in _carry(test_classes, test_classes, targets)]
    val_scores = _ensemble_scores(val)

    def run_cell(cell: tuple[int, float, int]) -> list[StudyRow]:
        fraction_index, fraction, seed = cell
        kept = _cell_rows(val_scores.size, fraction, seed, fraction_index)
        valid = _carry(_class_scores(val_scores[kept], val.labels[kept]), test_classes, targets)
        return [
            StudyRow(fraction, seed, t, op.tpr, op.fpr, inv.tpr, _rel_error(inv.tpr, op.tpr), attainable)
            for t, (op, attainable), inv in zip(targets, valid, invalid)
        ]

    from concurrent.futures import ThreadPoolExecutor  # here, so that importing protocol stays cheap

    cells = [(fi, f, s) for fi, f in enumerate(fractions) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_cell = list(pool.map(run_cell, cells))
    return [row for rows in per_cell for row in rows]


def write_protocol_csv(points: list[ProtocolCurvePoint], path: str | Path) -> None:
    header = ("target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error")
    _write_csv(path, header, _field_columns(points, ProtocolCurvePoint))


def write_study_csv(rows: list[StudyRow], path: str | Path) -> None:
    header = ("fraction", "seed", "target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error", "attainable")
    _write_csv(path, header, _field_columns(rows, StudyRow))
