import math
import re

import numpy as np
import pytest

from lowfpr.rocmetrics import (
    OperatingPoint,
    _budget_count,
    _select,
    accuracy,
    auc,
    combined_metric,
    evaluate_at_threshold,
    partial_auc,
    roc_curve,
    select_threshold,
)


def brute_force_points(scores, labels):
    """Operating points by direct counting at every candidate threshold.

    Candidates are +inf plus each distinct observed score, descending. This
    is the reference the fast implementation must reproduce.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    points = [(math.inf, 0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        hit = scores >= t
        tpr = float((hit & (labels == 1)).sum()) / n_pos if n_pos else 0.0
        fpr = float((hit & (labels == 0)).sum()) / n_neg if n_neg else 0.0
        points.append((t, tpr, fpr))
    return points


def brute_force_select(scores, labels, target):
    feasible = [(t, tpr, fpr) for t, tpr, fpr in brute_force_points(scores, labels) if fpr <= target]
    best_tpr = max(tpr for _, tpr, _ in feasible)
    # ties break toward the larger threshold; the list is descending already
    for t, tpr, fpr in feasible:
        if tpr == best_tpr:
            return t, tpr, fpr
    raise AssertionError


def brute_force_auc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    pos = s[np.asarray(labels) == 1]
    neg = s[np.asarray(labels) == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def random_dataset(rng):
    n = int(rng.integers(2, 1000))
    kind = rng.integers(0, 4)
    if kind == 0:
        scores = rng.uniform(0, 1, n)
    elif kind == 1:
        scores = rng.integers(0, 10, n) / 10.0  # heavy ties
    elif kind == 2:
        scores = rng.integers(0, 3, n) / 2.0  # very few candidates
    else:
        scores = np.full(n, 0.5)  # single candidate
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


class TestRocCurve:
    def test_tied_pairs_give_diagonal(self):
        curve = roc_curve([0.8, 0.8, 0.3, 0.3], [1, 0, 1, 0])
        geometric = sorted(set(zip(curve.fprs.tolist(), curve.tprs.tolist())))
        assert geometric == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
        assert auc(curve) == pytest.approx(0.5, abs=1e-15)

    def test_boundaries_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores, labels = random_dataset(rng)
            curve = roc_curve(scores, labels)
            assert curve.thresholds[0] == math.inf and curve.thresholds[-1] == -math.inf
            assert curve.fprs[0] == 0.0 and curve.tprs[0] == 0.0
            assert curve.fprs[-1] == 1.0 and curve.tprs[-1] == 1.0
            assert np.all(np.diff(curve.thresholds) <= 0)
            assert np.all(np.diff(curve.tprs) >= 0) and np.all(np.diff(curve.fprs) >= 0)
            assert curve.thresholds.size == len(set(scores.tolist())) + 2

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores, labels = random_dataset(rng)
            curve = roc_curve(scores, labels)
            expect = brute_force_points(scores, labels)
            got = [(t, tp, fp) for t, tp, fp in zip(curve.thresholds, curve.tprs, curve.fprs)][:-1]
            assert got == expect

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1], "scores and labels differ in length: 2 vs 1"),
            ([0, 2], "labels must be 0 or 1"),
            ([0.5, 1], "labels must be 0 or 1"),
            ([1.7, 0], "labels must be 0 or 1"),
            ([1 + 0j, 0], "labels must be 0 or 1"),
            (["0", "1"], "labels must be 0 or 1"),
            ([None, 1], "labels must be 0 or 1"),
        ],
        ids=["length", "label value", "fraction", "fraction above 1", "complex", "text", "None"],
    )
    def test_bad_labels_rejected(self, labels, message):
        # Checked before the int64 cast, which would read 0.5 as 0 and 1.7 as 1.
        with pytest.raises(ValueError) as exc:
            roc_curve([0.1, 0.2], labels)
        assert str(exc.value) == message

    def test_bad_labels_rejected_by_every_entry_point(self):
        for call in (
            lambda: select_threshold([0.1, 0.9], [0.5, 1], 0.5),
            lambda: evaluate_at_threshold([0.1, 0.9], [0.5, 1], 0.5),
            lambda: accuracy([0.1, 0.9], [0.5, 1], 0.5),
        ):
            with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
                call()

    def test_bool_and_float_labels_accepted(self):
        expect = evaluate_at_threshold([0.1, 0.9], [0, 1], 0.5)
        assert evaluate_at_threshold([0.1, 0.9], [False, True], 0.5) == expect
        assert evaluate_at_threshold([0.1, 0.9], [0.0, 1.0], 0.5) == expect


class TestAuc:
    def test_interleaved_example(self):
        assert auc(roc_curve([0.1, 0.2, 0.3, 0.4], [0, 1, 0, 1])) == pytest.approx(0.75, abs=1e-15)

    def test_equals_rank_statistic(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores, labels = random_dataset(rng)
            assert auc(roc_curve(scores, labels)) == pytest.approx(brute_force_auc(scores, labels), abs=1e-10)

    def test_separable_is_one(self):
        assert auc(roc_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0


class TestPartialAuc:
    def test_unnormalized_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, labels = random_dataset(rng)
            curve = roc_curve(scores, labels)
            for fmax in (0.001, 0.05, 0.5, 1.0):
                p = partial_auc(curve, fmax)
                assert 0.0 <= p <= fmax + 1e-15

    def test_full_range_equals_auc(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, labels = random_dataset(rng)
            curve = roc_curve(scores, labels)
            assert partial_auc(curve, 1.0) == auc(curve)

    def test_step_curve_interpolation(self):
        # TPR 0 until FPR 0.0005, then 1: the integral over [0, 0.001] is the
        # rectangle from 0.0005 to 0.001.
        scores = np.concatenate([np.full(5, 0.9), np.full(1000, 0.5), np.full(9995, 0.1)])
        labels = np.concatenate([np.zeros(5), np.ones(1000), np.zeros(9995)])
        curve = roc_curve(scores, labels)
        assert partial_auc(curve, 0.001) == pytest.approx(0.0005, abs=1e-12)

    def test_monotone_in_fpr_max(self):
        curve = roc_curve(*random_dataset(np.random.default_rng(5)))
        cuts = np.linspace(0.01, 1.0, 25)
        vals = [partial_auc(curve, c) for c in cuts]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_rejects_bad_cut(self):
        curve = roc_curve([0.1, 0.9], [0, 1])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                partial_auc(curve, bad)


class TestBudgetCount:
    def test_zero_exactly_below_one_over_n(self):
        # the one FPR-budget rule: no false positive fits exactly when target < 1/n,
        # checked at 1/n, one ulp below and one ulp above, for every n up to 2,000
        for n in range(1, 2001):
            exact = 1 / n
            for t in (exact, float(np.nextafter(exact, 0.0)), float(np.nextafter(exact, 1.0))):
                assert (_budget_count(n, t) == 0) == (t < 1 / n), (n, t)
            assert _budget_count(n, exact) == 1 and _budget_count(n, float(np.nextafter(exact, 0.0))) == 0

    def test_product_form_disagrees_at_one_over_n(self):
        # target * n < 1 is not the same test: (1/49) * 49 rounds below 1, yet 1/49 admits one false positive
        assert (1 / 49) * 49 < 1
        assert _budget_count(49, 1 / 49) == 1


class TestSelectThreshold:
    def test_worked_example(self):
        scores = [0.1, 0.2, 0.3, 0.9, 0.15, 0.8, 0.85, 0.95]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        op = select_threshold(scores, labels, 0.25)
        assert op == OperatingPoint(0.8, 0.75, 0.25)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            scores, labels = random_dataset(rng)
            target = float(rng.uniform(0.001, 0.999))
            op = select_threshold(scores, labels, target)
            t, tpr, fpr = brute_force_select(scores, labels, target)
            assert (op.threshold, op.tpr, op.fpr) == (t, tpr, fpr)

    def test_constraint_always_met(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores, labels = random_dataset(rng)
            target = float(rng.uniform(0.001, 0.999))
            assert select_threshold(scores, labels, target).fpr <= target

    def test_sentinel_when_nothing_fits(self):
        # the only positive scores below every negative: no finite threshold
        # earns any TPR inside a tight budget
        op = select_threshold([0.9, 0.8, 0.1], [0, 0, 1], 0.25)
        assert op == OperatingPoint(math.inf, 0.0, 0.0)

    def test_matches_brute_force_at_budget_boundaries(self):
        # targets exactly at an attainable FPR k / n_neg and one ulp either
        # side, where the budget's false-positive count changes
        rng = np.random.default_rng(10)
        for _ in range(100):
            scores, labels = random_dataset(rng)
            n_neg = int((labels == 0).sum())
            for k in {0, 1, n_neg // 2, n_neg - 1, int(rng.integers(0, n_neg + 1))}:
                exact = k / n_neg
                for target in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)):
                    if not 0.0 < target < 1.0:
                        continue
                    op = select_threshold(scores, labels, float(target))
                    assert (op.threshold, op.tpr, op.fpr) == brute_force_select(scores, labels, target)

    def test_sentinel_without_positives(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            scores, _ = random_dataset(rng)
            labels = np.zeros(scores.size, dtype=np.int64)
            target = float(rng.uniform(0.001, 0.999))
            op = select_threshold(scores, labels, target)
            assert op == OperatingPoint(math.inf, 0.0, 0.0)
            assert (op.threshold, op.tpr, op.fpr) == brute_force_select(scores, labels, target)

    def test_nonfinite_scores_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                select_threshold([0.2, bad, 0.7], [0, 1, 0], 0.5)
            with pytest.raises(ValueError, match="finite"):
                _select(np.array([0.2, bad]), np.array([0.1, 0.7]), 1)
            with pytest.raises(ValueError, match="finite"):
                _select(np.array([0.2]), np.array([bad, 0.7]), 1)

    def test_tpr_nonincreasing_in_target_strictness(self):
        rng = np.random.default_rng(8)
        scores, labels = random_dataset(rng)
        targets = np.linspace(0.01, 0.99, 20)
        tprs = [select_threshold(scores, labels, t).tpr for t in targets]
        assert np.all(np.diff(tprs) >= 0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            select_threshold([0.5], [1], 0.1)  # no negatives
        with pytest.raises(ValueError):
            select_threshold([0.5, 0.6], [0, 1], 0.0)


class TestEvaluateAtThreshold:
    def test_worked_example(self):
        op = evaluate_at_threshold([0.85, 0.1, 0.9, 0.5], [0, 0, 1, 1], 0.8)
        assert op == OperatingPoint(0.8, 0.5, 0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            scores, labels = random_dataset(rng)
            t = float(rng.choice(scores))
            op = evaluate_at_threshold(scores, labels, t)
            hit = scores >= t
            assert op.tpr == float((hit & (labels == 1)).sum()) / (labels == 1).sum()
            assert op.fpr == float((hit & (labels == 0)).sum()) / (labels == 0).sum()

    def test_infinite_threshold_rejects_all(self):
        assert evaluate_at_threshold([0.2, 0.9], [0, 1], math.inf) == OperatingPoint(math.inf, 0.0, 0.0)

    def test_empty_class_rate_is_zero(self):
        op = evaluate_at_threshold([0.2, 0.9], [0, 0], 0.5)
        assert op.tpr == 0.0 and op.fpr == 0.5


class TestCombinedMetric:
    def test_no_overshoot_returns_tpr(self):
        assert combined_metric(0.7, 0.0005, 0.001) == 0.7
        assert combined_metric(0.7, 0.001, 0.001) == 0.7

    def test_overshoot_penalties(self):
        assert combined_metric(0.9, 0.0011, 0.001) == pytest.approx(0.8, abs=1e-9)
        assert combined_metric(0.9, 0.0011, 0.0001) == pytest.approx(-9.1, abs=1e-9)

    def test_unbounded_below(self):
        assert combined_metric(1.0, 0.5, 1e-6) < -1000

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            combined_metric(0.5, 0.1, 0.0)

    def test_rejects_target_outside_unit_interval(self):
        for bad in (1.0, 2.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(f"target_fpr must be in (0, 1), got {bad!r}")):
                combined_metric(0.5, 0.1, bad)


class TestAccuracy:
    def test_counts(self):
        assert accuracy([0.9, 0.2, 0.7, 0.4], [1, 0, 0, 1], 0.5) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [], 0.5)
