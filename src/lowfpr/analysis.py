"""Comparative analyses: ensemble versus members, uncertainty splits and
a self-contained Wilcoxon signed-rank test.

An uncertainty split is a ``GroupSplit``: two labeled groups of sample ids,
each with its values of one measure named in ``uncertainty.MEASURES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import PredictionDataset, _field_columns, _write_csv
from .rocmetrics import accuracy, auc, partial_auc, roc_curve
from .uncertainty import _ensemble_scores, compute_uncertainties


@dataclass(frozen=True)
class ComparisonRow:
    model_name: str
    accuracy: float
    auc: float
    partial_auc: float
    is_ensemble: bool


def ensemble_vs_members(ds: PredictionDataset, fpr_max: float) -> tuple[ComparisonRow, ComparisonRow]:
    """Score the ensemble mean against the average individual member.

    Returns (ensemble_row, member_row) where the member row holds each metric
    averaged over the T members; accuracy is taken at the threshold 0.5.
    Requires T >= 2; with one member there is nothing to ensemble.
    """
    if ds.member_count < 2:
        raise ValueError("ensemble comparison needs at least 2 members")
    labels = ds.labels

    def metrics(scores: np.ndarray) -> tuple[float, float, float]:
        curve = roc_curve(scores, labels)
        return accuracy(scores, labels, 0.5), auc(curve), partial_auc(curve, fpr_max)

    ens = metrics(_ensemble_scores(ds))
    per_member = np.array([metrics(ds.scores[:, j]) for j in range(ds.member_count)])
    avg = per_member.mean(axis=0)
    return (
        ComparisonRow("ensemble", ens[0], ens[1], ens[2], True),
        ComparisonRow("member_mean", float(avg[0]), float(avg[1]), float(avg[2]), False),
    )


def write_comparison_csv(rows: tuple[ComparisonRow, ...], path: str | Path) -> None:
    _write_csv(path, ("model", "accuracy", "auc", "partial_auc", "is_ensemble"), _field_columns(rows, ComparisonRow))


@dataclass(frozen=True)
class GroupSplit:
    """Uncertainty values split into two labeled groups of samples."""

    labels: tuple[str, str]
    sample_ids: tuple[np.ndarray, np.ndarray]
    values: tuple[np.ndarray, np.ndarray]

    @property
    def has_empty_group(self) -> bool:
        """Warning flag: one side of the split has no samples."""
        return any(v.size == 0 for v in self.values)

    def mean(self, group: str) -> float:
        i = self.labels.index(group)
        return float(self.values[i].mean())

    def write_csv(self, path: str | Path) -> None:
        groups = np.repeat(np.array(self.labels, dtype=object), [v.size for v in self.values])
        columns = [np.concatenate(self.sample_ids), groups, np.concatenate(self.values)]
        _write_csv(path, ("sample_id", "group", "value"), columns)


def _group_split(ds: PredictionDataset, values: np.ndarray, labels: tuple[str, str], masks) -> GroupSplit:
    """The two groups of samples that two boolean masks pick, with their uncertainty values."""
    return GroupSplit(labels, tuple(ds.sample_ids[m] for m in masks), tuple(values[m] for m in masks))


def uncertainty_by_correctness(ds: PredictionDataset, threshold: float, measure: str = "epistemic") -> GroupSplit:
    """Split one uncertainty measure by whether ``yhat >= threshold`` is correct.

    An empty group is not an error (check has_empty_group); a NaN threshold raises.
    """
    if math.isnan(threshold):
        raise ValueError(f"threshold must not be NaN, got {threshold!r}")
    table = compute_uncertainties(ds)
    values = table.measure(measure)
    predicted = (table.yhat >= threshold).astype(np.int64)
    correct = predicted == ds.labels
    return _group_split(ds, values, ("correct", "incorrect"), (correct, ~correct))


def uncertainty_by_novelty(ds: PredictionDataset, known_families, measure: str = "epistemic") -> GroupSplit:
    """Split malicious samples by family membership in a known set.

    Benign samples are excluded. Raises when no sample carries a family tag.
    """
    known = set(known_families)
    table = compute_uncertainties(ds)
    values = table.measure(measure)
    malicious = (ds.labels == 1) & (ds.families != None)  # noqa: E711  (elementwise)
    if not malicious.any():
        raise ValueError("no family-tagged malicious samples to split")
    seen = malicious & np.isin(ds.families, list(known))
    return _group_split(ds, values, ("seen", "unseen"), (seen, malicious & ~seen))


@dataclass(frozen=True)
class WilcoxonResult:
    """Signed-rank statistic W+ and its two-sided p-value.

    n counts the nonzero differences. degenerate marks the all-zero input,
    which is reported as p = 1.
    """

    statistic: float
    p_value: float
    n: int
    degenerate: bool


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    start = np.cumsum(counts) - counts
    avg = start + (counts + 1) / 2.0
    return avg[inverse]


def _exact_two_sided(ranks: np.ndarray, w_plus: float) -> float:
    # Ranks are multiples of 1/2; double them and walk the integer subset-sum
    # distribution. Counts stay below 2^n <= 2^20, exact in float64.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    for r in doubled:
        dist[r:] += dist[: total + 1 - r].copy()
    w2 = int(round(2.0 * w_plus))
    denom = 2.0 ** len(ranks)
    p_le = float(dist[: w2 + 1].sum()) / denom
    p_ge = float(dist[w2:].sum()) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_two_sided(ranks: np.ndarray, w_plus: float, n: int) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float((counts.astype(np.float64) ** 3 - counts).sum()) / 48.0
    z = (abs(w_plus - mu) - 0.5) / math.sqrt(var)  # continuity correction
    # For z < 0, erfc exceeds 1 and the min gives 1.0, as z = 0 would.
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(paired_diffs) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; tied magnitudes get average ranks. The null
    distribution is enumerated exactly for n <= 20 nonzero differences and
    approximated by the continuity-corrected normal beyond that.
    """
    d = np.asarray(paired_diffs, dtype=np.float64).ravel()
    if d.size == 0:
        raise ValueError("paired_diffs is empty")
    if not np.all(np.isfinite(d)):
        raise ValueError("paired_diffs must be finite")
    nonzero = d[d != 0.0]
    if nonzero.size == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n=0, degenerate=True)
    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0.0].sum())
    n = int(nonzero.size)
    if n <= 20:
        p = _exact_two_sided(ranks, w_plus)
    else:
        p = _normal_two_sided(ranks, w_plus, n)
    return WilcoxonResult(statistic=w_plus, p_value=p, n=n, degenerate=False)
