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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import SPLIT_NAMES, DatasetError, PredictionDataset, _column_fault, _is_number, _read_json

# Stream constant of the data stream. Arbitrary but frozen; changing it
# changes every dataset. Other streams of the same seed are independent of it.
_DATA_STREAM = 0x64617461  # "data"

_SEEN_FAMILIES = np.array([f"fam_s{k}" for k in range(8)], dtype=object)
_NOVEL_FAMILIES = np.array([f"fam_n{k}" for k in range(4)], dtype=object)


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
            default = getattr(SynthConfig, name)  # its type is the field's, as in from_dict
            if not isinstance(default, int):
                try:
                    floats = tuple(map(float, value if isinstance(default, tuple) else (value,)))
                except OverflowError:
                    raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
                for v in floats:
                    if not math.isfinite(v):
                        raise ValueError(f"{name} must be finite, got {v!r}")
                object.__setattr__(self, name, floats if isinstance(default, tuple) else floats[0])
        if self.n_benign < 0 or self.n_malicious < 0:
            raise ValueError("sample counts must be nonnegative")
        if self.member_count < 1:
            raise ValueError("member_count must be at least 1")
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
        if len(self.split_fractions) != 3 or any(f < 0.0 for f in self.split_fractions):
            raise ValueError("split_fractions must be three nonnegative numbers")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError(f"split_fractions must sum to 1, got {sum(self.split_fractions)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """A config from JSON values; an unknown key or a value of the wrong type raises ValueError."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            default = getattr(cls, key)  # its type is the field's: int, float or a tuple of three floats
            if isinstance(default, tuple):
                ok = isinstance(value, (list, tuple)) and len(value) == 3 and all(map(_is_number, value))
                kind = "a list of three numbers"
            elif isinstance(default, int):
                ok, kind = _is_number(value, int), "an integer"
            else:
                ok, kind = _is_number(value), "a number"
            if not ok:
                raise ValueError(f"{key} must be {kind}, got {value!r}")
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
    """The logistic map of ``x``, written over ``x`` and returned; exp sees only -|x|, so it cannot overflow."""
    pos = x >= 0
    np.negative(x, out=x, where=pos)
    np.exp(x, out=x)
    den = np.add(1.0, x)
    np.divide(1.0, den, out=x, where=pos)
    np.divide(x, den, out=x, where=np.logical_not(pos, out=pos))
    return x


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([int(seed), stream])))


def _round_count(fraction: float, n: int) -> int:
    return min(n, round(fraction * n))


def _generate_with(config: SynthConfig, rng: np.random.Generator) -> PredictionDataset:
    nb, nm, t = config.n_benign, config.n_malicious, config.member_count
    n = nb + nm
    n_novel = _round_count(config.novel_fraction, nm)
    n_amb_mal = min(nm - n_novel, _round_count(config.ambiguous_malicious_fraction, nm))
    n_core_mal = nm - n_novel - n_amb_mal
    n_amb_ben = _round_count(config.ambiguous_benign_fraction, nb)
    n_core_ben = nb - n_amb_ben

    # Canonical row order: benign core, ambiguous benign, malicious core,
    # ambiguous malicious, novel malicious.
    means = np.concatenate(
        [
            np.full(n_core_ben, config.benign_logit_mean),
            np.full(n_amb_ben, config.ambiguous_benign_logit_mean),
            np.full(n_core_mal, config.malicious_logit_mean),
            np.full(n_amb_mal, config.ambiguous_malicious_logit_mean),
            np.full(n_novel, config.novel_logit_mean),
        ]
    )
    elevated = np.zeros(n, dtype=bool)
    elevated[n_core_ben : n_core_ben + n_amb_ben] = True
    elevated[nb + n_core_mal :] = True
    noise_sd = np.where(elevated, config.member_noise_sd_novel, config.member_noise_sd_base)

    latents = means + rng.normal(0.0, config.logit_sd, size=n)
    del means
    # The member noise is drawn into the array that becomes the scores. The logistic
    # map may round extreme logits to 0 or 1, which the dataset schema allows.
    scores = rng.normal(0.0, 1.0, size=(n, t))
    scores *= noise_sd[:, None]
    scores += latents[:, None]
    del latents, noise_sd
    _sigmoid(scores)

    splits = rng.choice(np.array(SPLIT_NAMES, dtype=object), size=n, p=config.split_fractions)
    is_novel = np.zeros(n, dtype=bool)
    is_novel[n - n_novel :] = True
    splits[is_novel] = "test"

    families = np.full(n, None, dtype=object)
    n_seen_mal = n_core_mal + n_amb_mal
    families[nb : nb + n_seen_mal] = _SEEN_FAMILIES[rng.integers(0, _SEEN_FAMILIES.size, size=n_seen_mal)]
    families[n - n_novel :] = _NOVEL_FAMILIES[rng.integers(0, _NOVEL_FAMILIES.size, size=n_novel)]

    labels = np.concatenate([np.zeros(nb, dtype=np.int64), np.ones(nm, dtype=np.int64)])
    ids = np.fromiter(map("syn-{}".format, range(n)), dtype=object, count=n)
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
