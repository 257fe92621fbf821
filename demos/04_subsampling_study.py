"""How many negatives does a trustworthy threshold need?

Shrinking the validation split degrades threshold estimates, and below
1/n_negatives a target FPR stops being estimable at all.
"""

from collections import defaultdict

import numpy as np

from lowfpr.data import filter_split
from lowfpr.protocol import subsampling_study
from lowfpr.synth import default_scenario, generate

data = generate(default_scenario(seed=0))
val = filter_split(data, "validation")
test = filter_split(data, "test")
n_neg = int((val.labels == 0).sum())
print(f"full validation split: {n_neg} negatives")
for count in (100, 10):
    print(f"  smallest fpr with >= {count} false positives: {count / n_neg:g}")
print()

fractions = [1.0, 0.1, 0.01]
targets = [1e-2, 1e-3]
rows = subsampling_study(val, test, fractions, targets, seeds=range(10), threads=8)

cells = defaultdict(list)
for r in rows:
    cells[(r.target_fpr, r.fraction)].append(r)

print(f"{'target':>8} {'fraction':>9} {'attainable':>11} {'mean rel err':>13}")
for t in targets:
    for f in fractions:
        got = cells[(t, f)]
        n_att = sum(r.attainable for r in got)
        errs = [r.rel_error for r in got if r.rel_error is not None]
        err = f"{np.mean(errs):.4f}" if errs else "n/a"
        print(f"{t:>8g} {f:>9g} {n_att:>8}/10 {err:>13}")
print()
print("estimates degrade monotonically with less validation data, and the")
print("1e-3 target is flagged unattainable once only ~500 negatives remain")
