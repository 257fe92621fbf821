"""ROC curves, partial AUC and threshold selection under an FPR budget."""

from lowfpr.data import filter_split
from lowfpr.rocmetrics import (
    auc,
    combined_metric,
    evaluate_at_threshold,
    partial_auc,
    roc_curve,
    select_threshold,
)
from lowfpr.synth import default_scenario, generate
from dataclasses import replace

config = replace(default_scenario(seed=1), n_benign=20_000, n_malicious=20_000)
test = filter_split(generate(config), "test")
scores = test.scores.mean(axis=1)
labels = test.labels

curve = roc_curve(scores, labels)
print(f"roc curve: {curve.thresholds.size} operating points")
print("auc              ", round(auc(curve), 4))

# Overall AUC hides what happens at deployable FPRs. The partial AUC
# integrates TPR only over [0, fpr_max].
for fmax in (1e-1, 1e-2, 1e-3):
    p = partial_auc(curve, fmax)
    print(f"partial auc to {fmax:g}: {p:.6f}  (normalized {p / fmax:.3f})")

# Budgeted threshold selection: the best TPR whose FPR stays inside budget.
print()
for target in (1e-1, 1e-2, 1e-3):
    op = select_threshold(scores, labels, target)
    print(f"target fpr {target:g}: threshold={op.threshold:.4f} tpr={op.tpr:.4f} fpr={op.fpr:.5f}")

# The combined score penalizes overshoot proportionally. Holding the
# operating point fixed while tightening the declared budget shows the
# penalty kicking in.
op = select_threshold(scores, labels, 1e-2)
applied = evaluate_at_threshold(scores, labels, op.threshold)
print()
for target in (2e-2, 1e-2, applied.fpr * 0.5):
    c = combined_metric(applied.tpr, applied.fpr, target)
    print(f"combined @ declared target {target:g}: {c:.4f}")
