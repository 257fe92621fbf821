"""Ensemble-mean scores and entropy-based uncertainty decomposition.

All entropies are natural-log (nats). For member probabilities p_1..p_T of the
malicious class:

* predictive entropy  H(mean_i p_i)          total uncertainty
* aleatoric           mean_i H(p_i)          irreducible data noise
* epistemic           predictive - aleatoric mutual information between the
                                             prediction and the member choice

Both components are bounded by ln 2, and 0 <= aleatoric <= predictive holds up
to floating-point cancellation. ``UncertaintyTable.measure`` and the CLI's
``--measure`` select a column by its name in ``MEASURES``.

``compute_uncertainties`` is the one decomposition call: it takes a
``PredictionDataset``, whose constructor has already checked that every score
lies in [0, 1], and returns one ``UncertaintyTable`` row per sample. Its
``yhat`` is ``_ensemble_scores``, the one ensemble score every module takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PredictionDataset

# Negative epistemic values above this magnitude are cancellation noise and are
# clamped to zero; anything below it means the identity was violated.
_EPISTEMIC_FLOOR = -1e-9

MEASURES = ("predictive", "aleatoric", "epistemic")


def _entropy_unchecked(p: np.ndarray) -> np.ndarray:
    interior = (p > 0.0) & (p < 1.0)
    safe = np.where(interior, p, 0.5)
    h = -(safe * np.log(safe) + (1.0 - safe) * np.log1p(-safe))
    return np.where(interior, h, 0.0)


def _ensemble_scores(ds: PredictionDataset) -> np.ndarray:
    """The ensemble's score for each sample: the mean of its member scores."""
    return ds.scores.mean(axis=1)


@dataclass(frozen=True)
class UncertaintyTable:
    """Per-sample ensemble score and uncertainty decomposition."""

    yhat: np.ndarray
    predictive_entropy: np.ndarray
    aleatoric: np.ndarray
    epistemic: np.ndarray

    def measure(self, name: str) -> np.ndarray:
        """Select one uncertainty column by its name in MEASURES."""
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}, expected one of {MEASURES}")
        return (self.predictive_entropy, self.aleatoric, self.epistemic)[MEASURES.index(name)]


def compute_uncertainties(ds: PredictionDataset) -> UncertaintyTable:
    """Decompose every sample of a dataset. The dataset must be nonempty.

    Negative epistemic values within the cancellation floor are clamped to
    zero (with aleatoric set to predictive); one below it raises, naming the
    sample.
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    scores = ds.scores
    yhat = _ensemble_scores(ds)
    predictive = _entropy_unchecked(yhat)
    aleatoric = _entropy_unchecked(scores).mean(axis=1)
    # identical members carry zero disagreement; row-mean rounding must not
    # leak ULP-level noise into the decomposition
    constant = scores.min(axis=1) == scores.max(axis=1)
    aleatoric[constant] = predictive[constant]
    epistemic = predictive - aleatoric
    bad = epistemic < _EPISTEMIC_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"epistemic uncertainty {float(epistemic[i])!r} below the cancellation floor "
            f"for sample '{ds.sample_ids[i]}'; decomposition is inconsistent"
        )
    # cancellation noise: restore aleatoric <= predictive, which holds
    # mathematically by Jensen's inequality
    clipped = epistemic < 0.0
    aleatoric[clipped] = predictive[clipped]
    np.maximum(epistemic, 0.0, out=epistemic)
    for col in (yhat, predictive, aleatoric, epistemic):
        col.setflags(write=False)
    return UncertaintyTable(yhat=yhat, predictive_entropy=predictive, aleatoric=aleatoric, epistemic=epistemic)
