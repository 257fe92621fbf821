"""Synthetic ensemble-score datasets with controllable difficulty.

Each sample gets a latent logit drawn from its cluster's normal distribution;
each ensemble member then sees the latent plus its own normal noise, squashed
through the logistic function. Clusters:

* benign core            N(benign_logit_mean, logit_sd)
* malicious core         N(malicious_logit_mean, logit_sd)
* ambiguous benign,      optional subpopulations near the decision boundary
  ambiguous malicious    that get the elevated "novel/ambiguous" member noise
* novel malicious        out-of-distribution families, test split only

All randomness comes from the counter-based Philox generator keyed by
(config.seed, stream constant), so output is bit-reproducible for a fixed
seed regardless of platform or worker count. Draw order is fixed: latents,
member noise, split assignment, family assignment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (
    _ID_DTYPE, SPLIT_NAMES, DatasetError, PredictionDataset, _column_fault, _integer, _is_number, _read_json,
)

# Stream constant of the data stream. Arbitrary but frozen; changing it
# changes every dataset. Other streams of the same seed are independent of it.
_DATA_STREAM = 0x64617461  # "data"

_SEEN_FAMILIES = np.array([f"fam_s{k}" for k in range(8)], dtype=object)
_NOVEL_FAMILIES = np.array([f"fam_n{k}" for k in range(4)], dtype=object)
# Rows that _sigmoid and the id column take at a time, so that their temporaries stay this size.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs. Defaults give a moderately separable two-class problem."""

    n_benign: int = 10_000
    n_malicious: int = 10_000
    member_count: int = 5
    novel_fraction: float = 0.0
    benign_logit_mean: float = -2.0
    malicious_logit_mean: float = 2.0
    novel_logit_mean: float = 0.5
    logit_sd: float = 1.0
    member_noise_sd_base: float = 0.5
    member_noise_sd_novel: float = 0.5
    ambiguous_benign_fraction: float = 0.0
    ambiguous_benign_logit_mean: float = 0.0
    ambiguous_malicious_fraction: float = 0.0
    ambiguous_malicious_logit_mean: float = 0.0
    split_fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            default = getattr(SynthConfig, name)  # its type is the field's: int, float or a tuple of three floats
            if isinstance(default, int):
                object.__setattr__(self, name, _integer(name, value, minimum=1 if name == "member_count" else 0))
                continue
            if isinstance(default, tuple):
                sized = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
                ok, kind, values = sized and len(value) == 3, "a list of three numbers", value
            else:
                ok, kind, values = True, "a number", (value,)
            # One number rule from Python and JSON alike: a Python or numpy real, not a bool or a string.
            if not (ok and all(_is_number(v, numbers.Real) for v in values)):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            try:
                floats = tuple(map(float, values))
            except OverflowError:
                raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
            for v in floats:
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, floats if isinstance(default, tuple) else floats[0])
        for name in ("novel_fraction", "ambiguous_benign_fraction", "ambiguous_malicious_fraction"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.novel_fraction + self.ambiguous_malicious_fraction > 1.0:
            raise ValueError("novel_fraction + ambiguous_malicious_fraction must not exceed 1")
        if self.logit_sd <= 0.0:
            raise ValueError("logit_sd must be positive")
        if self.member_noise_sd_base < 0.0:
            raise ValueError("member_noise_sd_base must be nonnegative")
        if self.member_noise_sd_novel < self.member_noise_sd_base:
            raise ValueError("member_noise_sd_novel must be at least member_noise_sd_base")
        if any(f < 0.0 for f in self.split_fractions):
            raise ValueError("split_fractions must be three nonnegative numbers")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError(f"split_fractions must sum to 1, got {sum(self.split_fractions)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """A config from JSON values; an unknown key or a value of the wrong type raises ValueError."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def load_config(path: str | Path) -> SynthConfig:
    """Read a config written by SynthConfig.to_dict.

    A file that is missing, unreadable, not JSON text or not a JSON object
    raises DatasetError naming it; bad values raise ValueError.
    """
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: config must be a JSON object")
    return SynthConfig.from_dict(raw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic map of ``x``, written over ``x`` and returned; exp sees only -|x|, so it cannot overflow.

    It runs ``_BLOCK_ROWS`` rows (first-axis entries) at a time, so its mask and denominator are block-sized.
    """
    for lo in range(0, len(x), _BLOCK_ROWS):
        block = x[lo : lo + _BLOCK_ROWS]
        pos = block >= 0
        np.negative(block, out=block, where=pos)
        np.exp(block, out=block)
        den = np.add(1.0, block)
        np.divide(1.0, den, out=block, where=pos)
        np.divide(block, den, out=block, where=np.logical_not(pos, out=pos))
    return x


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([int(seed), stream])))


def _round_count(fraction: float, n: int) -> int:
    return min(n, round(fraction * n))


def _generate_with(config: SynthConfig, rng: np.random.Generator) -> PredictionDataset:
    """The dataset of ``config`` drawn from ``rng``.

    Each column is built in its own array, in place or ``_BLOCK_ROWS`` rows
    at a time: a cluster's logit mean is added to its segment of the latents
    and its noise sd multiplies its segment of the member noise, so no column
    of means or sds exists, and the logistic map and the ids run in blocks.
    """
    nb, nm, t = config.n_benign, config.n_malicious, config.member_count
    n = nb + nm
    n_novel = _round_count(config.novel_fraction, nm)
    n_amb_mal = min(nm - n_novel, _round_count(config.ambiguous_malicious_fraction, nm))
    n_core_mal = nm - n_novel - n_amb_mal
    n_amb_ben = _round_count(config.ambiguous_benign_fraction, nb)
    n_core_ben = nb - n_amb_ben
    base_sd, elevated_sd = config.member_noise_sd_base, config.member_noise_sd_novel

    # Canonical row order: benign core, ambiguous benign, malicious core,
    # ambiguous malicious, novel malicious; (rows, logit mean, member noise sd).
    clusters = (
        (n_core_ben, config.benign_logit_mean, base_sd),
        (n_amb_ben, config.ambiguous_benign_logit_mean, elevated_sd),
        (n_core_mal, config.malicious_logit_mean, base_sd),
        (n_amb_mal, config.ambiguous_malicious_logit_mean, elevated_sd),
        (n_novel, config.novel_logit_mean, elevated_sd),
    )
    latents = rng.normal(0.0, config.logit_sd, size=n)
    # The member noise is drawn into the array that becomes the scores. The logistic
    # map may round extreme logits to 0 or 1, which the dataset schema allows.
    scores = rng.normal(0.0, 1.0, size=(n, t))
    lo = 0
    for rows, mean, sd in clusters:
        segment = slice(lo, lo + rows)
        np.add(mean, latents[segment], out=latents[segment])
        scores[segment] *= sd
        lo += rows
    scores += latents[:, None]
    del latents
    _sigmoid(scores)

    splits = rng.choice(np.array(SPLIT_NAMES, dtype=object), size=n, p=config.split_fractions)
    splits[n - n_novel :] = "test"

    families = np.full(n, None, dtype=object)
    n_seen_mal = n_core_mal + n_amb_mal
    families[nb : nb + n_seen_mal] = _SEEN_FAMILIES[rng.integers(0, _SEEN_FAMILIES.size, size=n_seen_mal)]
    families[n - n_novel :] = _NOVEL_FAMILIES[rng.integers(0, _NOVEL_FAMILIES.size, size=n_novel)]

    labels = np.zeros(n, dtype=np.int64)
    labels[nb:] = 1
    ids = np.empty(n, dtype=_ID_DTYPE)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        ids[lo:hi] = np.strings.add("syn-", np.arange(lo, hi).astype(_ID_DTYPE))
    # The columns already have the constructor's types, so they are checked and wrapped, not copied.
    if (fault := _column_fault(ids, labels, splits, families, scores)) is not None:
        raise DatasetError(fault)
    return PredictionDataset._trusted(ids, labels, splits, families, scores)


def generate(config: SynthConfig) -> PredictionDataset:
    """Generate a dataset. Bit-identical output for identical configs."""
    return _generate_with(config, _rng(config.seed, _DATA_STREAM))


# Named scenarios used by the studies and the test suite. Sizes are chosen so
# each effect is decisive at desk scale.


def default_scenario(seed: int = 0) -> SynthConfig:
    """Overlapping classes with homoscedastic member noise; 100k val / 100k test."""
    return SynthConfig(
        n_benign=100_000,
        n_malicious=100_000,
        member_count=5,
        benign_logit_mean=-2.0,
        malicious_logit_mean=1.5,
        logit_sd=1.6,
        member_noise_sd_base=0.8,
        member_noise_sd_novel=0.8,
        split_fractions=(0.0, 0.5, 0.5),
        seed=seed,
    )


def heteroscedastic_scenario(seed: int = 0) -> SynthConfig:
    """A mid-scoring malicious subpopulation carries high member disagreement.

    Promoting uncertain samples lifts those hard detections over the budgeted
    threshold, so the local adjustments beat the plain global threshold.
    """
    return SynthConfig(
        n_benign=20_000,
        n_malicious=20_000,
        member_count=5,
        benign_logit_mean=-3.5,
        malicious_logit_mean=3.0,
        logit_sd=1.0,
        member_noise_sd_base=0.2,
        member_noise_sd_novel=2.5,
        ambiguous_malicious_fraction=0.35,
        ambiguous_malicious_logit_mean=0.0,
        split_fractions=(0.0, 0.5, 0.5),
        seed=seed,
    )


def noisy_fp_scenario(seed: int = 0) -> SynthConfig:
    """A high-scoring benign subpopulation is unreliable (high disagreement).

    Penalizing epistemic uncertainty demotes those would-be false positives,
    so fitting lv1 drives its epistemic weight negative.
    """
    return SynthConfig(
        n_benign=20_000,
        n_malicious=20_000,
        member_count=5,
        benign_logit_mean=-3.5,
        malicious_logit_mean=2.0,
        logit_sd=1.0,
        member_noise_sd_base=0.2,
        member_noise_sd_novel=2.5,
        ambiguous_benign_fraction=0.08,
        ambiguous_benign_logit_mean=1.0,
        split_fractions=(0.0, 0.5, 0.5),
        seed=seed,
    )


def novelty_scenario(seed: int = 0) -> SynthConfig:
    """Out-of-distribution malicious families with elevated member noise in test."""
    return SynthConfig(
        n_benign=20_000,
        n_malicious=20_000,
        member_count=5,
        novel_fraction=0.3,
        benign_logit_mean=-2.5,
        malicious_logit_mean=2.5,
        novel_logit_mean=0.5,
        logit_sd=1.0,
        member_noise_sd_base=0.4,
        member_noise_sd_novel=2.0,
        split_fractions=(0.4, 0.3, 0.3),
        seed=seed,
    )
