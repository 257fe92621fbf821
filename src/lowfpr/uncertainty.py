"""Ensemble-mean scores and entropy-based uncertainty decomposition.

All entropies are natural-log (nats). For member probabilities p_1..p_T of the
malicious class:

* predictive entropy  H(mean_i p_i)          total uncertainty
* aleatoric           mean_i H(p_i)          irreducible data noise
* epistemic           predictive - aleatoric mutual information between the
                                             prediction and the member choice

Both components are bounded by ln 2, and 0 <= aleatoric <= predictive holds up
to floating-point cancellation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import PredictionDataset

# Negative epistemic values above this magnitude are cancellation noise and are
# clamped to zero; anything below it means the identity was violated.
_EPISTEMIC_FLOOR = -1e-9


def _entropy_unchecked(p: np.ndarray) -> np.ndarray:
    interior = (p > 0.0) & (p < 1.0)
    safe = np.where(interior, p, 0.5)
    h = -(safe * np.log(safe) + (1.0 - safe) * np.log1p(-safe))
    return np.where(interior, h, 0.0)


def binary_entropy(p):
    """Entropy of Bernoulli(p) in nats, with ``0 log 0`` taken as 0.

    Accepts a scalar or an array; raises ValueError outside [0, 1].
    """
    arr = np.asarray(p, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        bad = ~((arr >= 0.0) & (arr <= 1.0))
    if np.any(bad):
        offender = arr[bad].ravel()[0] if arr.ndim else arr
        raise ValueError(f"probability {offender!r} outside [0, 1]")
    out = _entropy_unchecked(arr)
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class UncertaintyTriple:
    predictive_entropy: float
    aleatoric: float
    epistemic: float


def _decompose(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared core over a (n, T) score matrix. Returns yhat and the triple."""
    yhat = scores.mean(axis=1)
    predictive = _entropy_unchecked(yhat)
    aleatoric = _entropy_unchecked(scores).mean(axis=1)
    # identical members carry zero disagreement; row-mean rounding must not
    # leak ULP-level noise into the decomposition
    constant = scores.min(axis=1) == scores.max(axis=1)
    aleatoric[constant] = predictive[constant]
    epistemic = predictive - aleatoric
    return yhat, predictive, aleatoric, epistemic


def uncertainty_triple(member_scores) -> UncertaintyTriple:
    """Decompose one sample's member scores into the three uncertainty terms."""
    arr = np.asarray(member_scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("member_scores is empty")
    with np.errstate(invalid="ignore"):
        bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise ValueError(f"member score {arr[bad][0]!r} outside [0, 1]")
    _, predictive, aleatoric, epistemic = _decompose(arr.reshape(1, -1))
    epi = float(epistemic[0])
    if epi < _EPISTEMIC_FLOOR:
        raise RuntimeError(f"epistemic uncertainty {epi!r} below the cancellation floor; decomposition is inconsistent")
    if epi < 0.0:
        # cancellation noise: restore aleatoric <= predictive, which holds
        # mathematically by Jensen's inequality
        return UncertaintyTriple(float(predictive[0]), float(predictive[0]), 0.0)
    return UncertaintyTriple(float(predictive[0]), float(aleatoric[0]), epi)


@dataclass(frozen=True)
class UncertaintyTable:
    """Per-sample ensemble score and uncertainty decomposition."""

    sample_ids: np.ndarray
    yhat: np.ndarray
    predictive_entropy: np.ndarray
    aleatoric: np.ndarray
    epistemic: np.ndarray

    def __len__(self) -> int:
        return int(self.yhat.shape[0])

    def measure(self, name: str) -> np.ndarray:
        """Select one uncertainty column: predictive, aleatoric or epistemic."""
        columns = {
            "predictive": self.predictive_entropy,
            "aleatoric": self.aleatoric,
            "epistemic": self.epistemic,
        }
        if name not in columns:
            raise ValueError(f"unknown measure {name!r}, expected one of {tuple(columns)}")
        return columns[name]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "yhat", "pred_entropy", "aleatoric", "epistemic"])
            for i in range(len(self)):
                writer.writerow(
                    [
                        self.sample_ids[i],
                        repr(float(self.yhat[i])),
                        repr(float(self.predictive_entropy[i])),
                        repr(float(self.aleatoric[i])),
                        repr(float(self.epistemic[i])),
                    ]
                )


def compute_uncertainties(ds: PredictionDataset) -> UncertaintyTable:
    """Decompose every sample of a dataset. The dataset must be nonempty."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    yhat, predictive, aleatoric, epistemic = _decompose(ds.scores)
    bad = epistemic < _EPISTEMIC_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"epistemic uncertainty {epistemic[i]!r} below the cancellation floor "
            f"for sample '{ds.sample_ids[i]}'; decomposition is inconsistent"
        )
    clipped = epistemic < 0.0
    aleatoric[clipped] = predictive[clipped]
    np.maximum(epistemic, 0.0, out=epistemic)
    for col in (yhat, predictive, aleatoric, epistemic):
        col.setflags(write=False)
    return UncertaintyTable(
        sample_ids=ds.sample_ids,
        yhat=yhat,
        predictive_entropy=predictive,
        aleatoric=aleatoric,
        epistemic=epistemic,
    )
