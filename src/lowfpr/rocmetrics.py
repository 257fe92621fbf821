"""ROC construction, (partial) AUC, threshold selection and the combined metric.

The decision rule everywhere is ``score >= threshold  =>  predict positive``.
ROC curves carry one operating point per distinct score value plus the two
boundary sentinels (+inf scoring nothing positive, -inf scoring everything).
Partial AUC is unnormalized: the raw integral of TPR over FPR in [0, fpr_max],
so its value lies in [0, fpr_max]. Threshold selection at an FPR budget finds
the budget's cut among the negative scores with one O(n) partition, not a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OperatingPoint:
    """One thresholded operating point. threshold may be +inf (reject all)."""

    threshold: float
    tpr: float
    fpr: float


@dataclass(frozen=True)
class RocCurve:
    """Operating points sorted by descending threshold (ascending FPR); ``thresholds.size`` counts them."""

    thresholds: np.ndarray
    tprs: np.ndarray
    fprs: np.ndarray


def _score_label_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError(f"scores and labels differ in length: {s.shape[0]} vs {y.shape[0]}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if y.dtype.kind not in "biuf" or not np.isin(y, (0, 1)).all():  # checked before the cast, which truncates 0.5 to 0
        raise ValueError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def _distinct_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative TP/FP counts at each distinct score, descending."""
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    yy = y[order]
    last = np.ones(ss.size, dtype=bool)
    last[:-1] = ss[1:] != ss[:-1]
    tp = np.cumsum(yy)[last]
    fp = np.cumsum(1 - yy)[last]
    return ss[last], tp, fp


def roc_curve(scores, labels) -> RocCurve:
    """Build the empirical ROC curve. Requires both classes present."""
    s, y = _score_label_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve needs at least one positive and one negative sample")
    thr, tp, fp = _distinct_counts(s, y)
    thresholds = np.concatenate(([np.inf], thr, [-np.inf]))
    tprs = np.concatenate(([0.0], tp / n_pos, [1.0]))
    fprs = np.concatenate(([0.0], fp / n_neg, [1.0]))
    for col in (thresholds, tprs, fprs):
        col.setflags(write=False)
    return RocCurve(thresholds=thresholds, tprs=tprs, fprs=fprs)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve; equals the tie-corrected rank statistic."""
    return float(np.trapezoid(curve.tprs, curve.fprs))


def partial_auc(curve: RocCurve, fpr_max: float) -> float:
    """Unnormalized area under TPR over FPR in [0, fpr_max].

    The curve is linearly interpolated at fpr_max, so the result is in
    [0, fpr_max] and partial_auc(curve, 1.0) == auc(curve).
    """
    if not (0.0 < fpr_max <= 1.0):
        raise ValueError(f"fpr_max must be in (0, 1], got {fpr_max!r}")
    f, t = curve.fprs, curve.tprs
    k = int(np.searchsorted(f, fpr_max, side="right"))
    ff, tt = f[:k], t[:k]
    if ff[-1] < fpr_max:
        f0, f1 = f[k - 1], f[k]
        t0, t1 = t[k - 1], t[k]
        ti = t0 + (t1 - t0) * (fpr_max - f0) / (f1 - f0)
        ff = np.concatenate((ff, [fpr_max]))
        tt = np.concatenate((tt, [ti]))
    return float(np.trapezoid(tt, ff))


def _check_target_fpr(target_fpr: float) -> float:
    """The one range check on an FPR budget: it must lie in (0, 1), which also rejects NaN."""
    if not (0.0 < target_fpr < 1.0):
        raise ValueError(f"target_fpr must be in (0, 1), got {target_fpr!r}")
    return target_fpr


def _budget_count(n_neg: int, target_fpr: float) -> int:
    """Largest k <= n_neg with k / n_neg <= target_fpr, in the float arithmetic of the FPR.

    The one FPR-budget rule: 0 exactly when the budget admits no false positive, target_fpr < 1 / n_neg.
    """
    k = min(int(target_fpr * n_neg), n_neg)
    while k < n_neg and (k + 1) / n_neg <= target_fpr:
        k += 1
    while k > 0 and k / n_neg > target_fpr:
        k -= 1
    return k


def _select(pos: np.ndarray, neg: np.ndarray, k: int) -> OperatingPoint:
    """select_threshold on class-split scores, allowing at most k false positives."""
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise ValueError("scores must be finite")
    n_neg = neg.size
    # A threshold admits at most k negatives iff it lies above v, the (k+1)-th largest.
    v = -np.inf if k == n_neg else np.partition(neg, n_neg - k - 1)[n_neg - k - 1]
    above = pos[pos > v]
    return _rates(pos, neg, float(above.min()) if above.size else np.inf)


def _rates(pos: np.ndarray, neg: np.ndarray, threshold: float) -> OperatingPoint:
    """TPR and FPR of ``score >= threshold`` on class-split scores; an empty class has rate 0.0."""
    tpr = int(np.count_nonzero(pos >= threshold)) / pos.size if pos.size else 0.0
    fpr = int(np.count_nonzero(neg >= threshold)) / neg.size if neg.size else 0.0
    return OperatingPoint(float(threshold), tpr, fpr)


def select_threshold(scores, labels, target_fpr: float) -> OperatingPoint:
    """Pick the threshold maximizing TPR subject to FPR <= target_fpr.

    Candidates are the observed score values plus +inf. TPR ties break toward
    the larger (more conservative) threshold. When no candidate with positive
    TPR fits the budget the +inf sentinel (TPR 0, FPR 0) is returned.
    """
    _check_target_fpr(target_fpr)
    s, y = _score_label_arrays(scores, labels)
    neg = s[y == 0]
    if neg.size == 0:
        raise ValueError("select_threshold needs at least one negative sample")
    return _select(s[y == 1], neg, _budget_count(neg.size, target_fpr))


def evaluate_at_threshold(scores, labels, threshold: float) -> OperatingPoint:
    """TPR and FPR of ``score >= threshold`` on the given samples.

    A class with no samples contributes a rate of 0.0.
    """
    s, y = _score_label_arrays(scores, labels)
    malicious = y == 1
    return _rates(s[malicious], s[~malicious], threshold)


def combined_metric(tpr: float, actualized_fpr: float, target_fpr: float) -> float:
    """TPR penalized by relative FPR overshoot.

    C = TPR - max(actualized_fpr - target_fpr, 0) / target_fpr. Equal to TPR
    when the budget is met; decreases without bound as FPR overshoots. The
    target must lie in (0, 1).
    """
    _check_target_fpr(target_fpr)
    return float(tpr - max(actualized_fpr - target_fpr, 0.0) / target_fpr)


def accuracy(scores, labels, threshold: float) -> float:
    """Fraction of correct ``score >= threshold`` decisions."""
    s, y = _score_label_arrays(scores, labels)
    if s.size == 0:
        raise ValueError("accuracy of an empty sample set is undefined")
    return float(np.mean((s >= threshold).astype(np.int64) == y))
