# Decomposing ensemble disagreement into aleatoric and epistemic parts.

import math

import numpy as np

from lowfpr.data import PredictionDataset, filter_split
from lowfpr.synth import SynthConfig, generate
from lowfpr.uncertainty import compute_uncertainties

# ## Single samples

# Each case is one row of a small dataset; compute_uncertainties decomposes
# every row on its own.
cases = {
    # Four members that all agree: the prediction is uncertain (p near 0.5)
    # but the members are unanimous, so everything is aleatoric.
    "unanimous members": [0.55, 0.55, 0.55, 0.55],
    # Total disagreement: the mean is 0.5 but every member is confident.
    # All of the entropy is epistemic.
    "opposed members": [1.0, 0.0, 1.0, 0.0],
    "mixed members": [0.9, 0.6, 0.8, 0.3],
}
singles = compute_uncertainties(
    PredictionDataset(
        sample_ids=list(cases),
        labels=[0] * len(cases),
        splits=["test"] * len(cases),
        families=[None] * len(cases),
        scores=list(cases.values()),
    )
)
print(f"{'':20}{'predictive':>12}{'aleatoric':>12}{'epistemic':>12}")
for i, name in enumerate(cases):
    print(f"{name:20}{singles.predictive_entropy[i]:12.4f}{singles.aleatoric[i]:12.4f}{singles.epistemic[i]:12.4f}")
gap = np.abs(singles.epistemic - (singles.predictive_entropy - singles.aleatoric))
print("identity holds:", bool(np.all(gap < 1e-12)))
print("entropy ceiling  ln 2 =", math.log(2))

# ## A whole dataset

# High member noise inflates disagreement, so epistemic uncertainty
# separates the noisy cluster from the quiet one.
config = SynthConfig(
    n_benign=5000,
    n_malicious=5000,
    member_noise_sd_base=0.3,
    member_noise_sd_novel=2.0,
    ambiguous_malicious_fraction=0.3,
    seed=7,
)
table = compute_uncertainties(filter_split(generate(config), "test"))
print()
print(f"{table.yhat.size} test samples")
print("mean predictive entropy", round(float(table.predictive_entropy.mean()), 4))
print("mean aleatoric         ", round(float(table.aleatoric.mean()), 4))
print("mean epistemic         ", round(float(table.epistemic.mean()), 4))

# The epistemic histogram is bimodal: quiet core, noisy subpopulation.
counts, edges = np.histogram(table.epistemic, bins=10, range=(0, math.log(2)))
print()
print("epistemic histogram over [0, ln 2]")
for k, count in enumerate(counts):
    lo, hi = edges[k], edges[k + 1]
    print(f"  [{lo:.3f}, {hi:.3f})  {'#' * int(np.ceil(50 * count / counts.max()))} {count}")
