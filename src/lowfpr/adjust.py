"""Uncertainty-aware score adjustments and threshold calibration.

Four variants rescore a sample from its ensemble mean y and uncertainties
(epistemic e, aleatoric a):

* global_only:  y                      (zero coordinates)
* lv1:  y + a1*e + a2*a
* lv2:  y + a1*exp(a3*e) + a2*exp(a4*a)
* lv3:  y + [y >  a0](a1*e + a2*a)
          + [y <= a0](a3*e + a4*a)

Every variant goes through the same fit: coordinate descent on the validation
split, which for global_only runs no sweep and only selects the threshold. Each
coordinate is minimized over its bracket with Brent's method, where the inner
objective rescores all samples, re-selects the global threshold at
multiplier * target_fpr (one partition of the negative scores), and returns
the negated TPR. The multiplier (default 0.9) backs the fit off the budget so
that test-time FPR overshoots stay rare. Evaluation rescores the same per-class
columns as the fit (``_classes``; ``_apply`` is elementwise) at the true target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import DatasetError, PredictionDataset, _integer, _is_number, _read_json
from .rocmetrics import OperatingPoint, _budget_count, _check_target_fpr, _rates, _select, combined_metric
from .rocmetrics import select_threshold  # noqa: F401  (kept as adjust.select_threshold: perfbench's tracer test wraps it)
from .uncertainty import compute_uncertainties


class Variant(str, Enum):
    GLOBAL_ONLY = "global_only"
    LV1 = "lv1"
    LV2 = "lv2"
    LV3 = "lv3"


# Search bracket per coordinate; its length is the variant's arity. lv3's first
# coordinate is the score split point, the remaining four are the per-branch weights.
COORDINATE_BRACKETS = {
    Variant.GLOBAL_ONLY: (),
    Variant.LV1: ((-100.0, 100.0),) * 2,
    Variant.LV2: ((-10.0, 10.0),) * 4,
    Variant.LV3: ((-0.1, 0.1),) + ((0.0, 1.0),) * 4,
}


@dataclass(frozen=True)
class AdjustmentParams:
    """A variant tag plus its coefficient vector, validated on construction."""

    variant: Variant
    alpha: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        alpha = tuple(float(x) for x in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        brackets = COORDINATE_BRACKETS[variant]
        if len(alpha) != len(brackets):
            raise ValueError(f"variant {variant.value} takes {len(brackets)} coefficients, got {len(alpha)}")
        for k, (x, (lo, hi)) in enumerate(zip(alpha, brackets)):
            if not (lo <= x <= hi):
                raise ValueError(f"alpha[{k}]={x!r} outside bracket [{lo}, {hi}] for variant {variant.value}")


def _apply(variant: Variant, y: np.ndarray, e: np.ndarray, a: np.ndarray, alpha) -> np.ndarray:
    if variant is Variant.GLOBAL_ONLY:
        return y + 0.0
    if variant is Variant.LV1:
        a1, a2 = alpha
        return y + a1 * e + a2 * a
    if variant is Variant.LV2:
        a1, a2, a3, a4 = alpha
        return y + a1 * np.exp(a3 * e) + a2 * np.exp(a4 * a)
    a0, a1, a2, a3, a4 = alpha
    return y + np.where(y > a0, a1 * e + a2 * a, a3 * e + a4 * a)


_GOLDEN = 0.3819660112501051  # 2 - golden ratio
_SEED_LIMIT = 2**128  # numpy's Philox key bound; lv2 and lv3 draw from it, and every variant keeps it


def brent_minimize(
    objective: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-8,
    max_iters: int = 200,
) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi] without derivatives.

    Brent's scheme: a parabolic step through the three best points, falling
    back to golden-section when the parabola is not trustworthy. Never
    evaluates outside the bracket. Returns (x, f(x)) for the best point seen.
    A non-finite objective value aborts with ArithmeticError carrying the x
    that produced it.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo!r}, {hi!r})")
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol!r}")
    max_iters = _integer("max_iters", max_iters, minimum=1)

    def f(point: float) -> float:
        value = float(objective(point))
        if not math.isfinite(value):
            raise ArithmeticError(f"objective returned non-finite value {value!r} at x={point!r}")
        return value

    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(max_iters):
        m = 0.5 * (a + b)
        tol1 = tol * abs(x) + tol
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        use_golden = True
        if abs(e) > tol1:
            # Fit a parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                # Acceptable step: inside the interval and shrinking fast enough.
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted adjustment plus its global threshold and fit provenance."""

    params: AdjustmentParams
    global_threshold: float
    target_fpr: float
    fit_fpr_multiplier: float
    achieved_val: OperatingPoint
    sweeps_used: int
    seed: int
    member_count: int

    def to_dict(self) -> dict:
        threshold = self.global_threshold
        return {
            "variant": self.params.variant.value,
            "alpha": list(self.params.alpha),
            "threshold": "inf" if math.isinf(threshold) and threshold > 0 else threshold,
            "target_fpr": self.target_fpr,
            "multiplier": self.fit_fpr_multiplier,
            "seed": self.seed,
            "sweeps_used": self.sweeps_used,
            "member_count": self.member_count,
            "validation_tpr": self.achieved_val.tpr,
            "validation_fpr": self.achieved_val.fpr,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        """Rebuild a saved calibration; a malformed or out-of-range value raises DatasetError naming its key."""
        if not isinstance(d, dict):
            raise DatasetError(f"calibration must be a JSON object, got {type(d).__name__}")

        def number(value) -> float:
            if not _is_number(value):
                raise ValueError(f"must be a number, got {value!r}")
            return float(value)

        def numbers(value) -> tuple[float, ...]:
            if not isinstance(value, list):
                raise ValueError(f"must be a list of numbers, got {value!r}")
            return tuple(map(number, value))

        def field(key: str, convert: Callable = number):
            if key not in d:
                raise DatasetError(f"calibration is missing key {key!r}")
            try:
                value = convert(d[key])
            except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
                raise DatasetError(f"calibration key {key!r}: {exc}") from None
            if isinstance(value, float) and math.isnan(value):
                raise DatasetError(f"calibration key {key!r} is NaN")
            return value

        variant = field("variant", Variant)
        threshold = field("threshold", lambda value: math.inf if value == "inf" else number(value))
        multiplier = field("multiplier")
        if multiplier <= 0.0:
            raise DatasetError(f"calibration key 'multiplier' must be positive, got {multiplier!r}")
        return cls(
            params=field("alpha", lambda alpha: AdjustmentParams(variant, numbers(alpha))),
            global_threshold=threshold,
            target_fpr=field("target_fpr", lambda value: _check_target_fpr(number(value))),
            fit_fpr_multiplier=multiplier,
            achieved_val=OperatingPoint(threshold, field("validation_tpr"), field("validation_fpr")),
            sweeps_used=field("sweeps_used", lambda value: _integer("sweeps_used", value)),
            seed=field("seed", lambda value: _integer("seed", value)),
            member_count=field("member_count", lambda value: _integer("member_count", value, minimum=1)),
        )


def save_calibration(result: CalibrationResult, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")


def load_calibration(path: str | Path) -> CalibrationResult:
    """Read a calibration written by save_calibration; any fault in the file raises DatasetError naming it."""
    raw = _read_json(path)
    try:
        return CalibrationResult.from_dict(raw)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _classes(ds: PredictionDataset, needs: str) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(yhat, epistemic, aleatoric) of the malicious rows, then of the benign rows; ValueError(needs) unless both occur."""
    is_pos = ds.labels == 1
    if is_pos.all() or not is_pos.any():  # an empty split too
        raise ValueError(needs)
    table = compute_uncertainties(ds)
    return [(table.yhat[m], table.epistemic[m], table.aleatoric[m]) for m in (is_pos, ~is_pos)]


class CalibrationEvaluation(NamedTuple):
    tpr: float
    actualized_fpr: float
    combined: float


def fit_global(
    val: PredictionDataset, target_fpr: float, multiplier: float = 0.9, seed: int = 0
) -> CalibrationResult:
    """Select a global threshold on ensemble-mean scores, no rescoring."""
    return fit_local(val, target_fpr, Variant.GLOBAL_ONLY, seed=seed, multiplier=multiplier)


def fit_local(
    val: PredictionDataset,
    target_fpr: float,
    variant: Variant | str,
    seed: int = 0,
    multiplier: float = 0.9,
    sweep_tol: float = 1e-6,
    max_sweeps: int = 50,
) -> CalibrationResult:
    """Fit one variant by coordinate descent with Brent line searches.

    Coefficients start at zero (the identity rescoring); global_only has none,
    so its fit runs no sweep and only selects the threshold. lv1 visits its two
    coordinates in strict alternation; lv2 and lv3 visit theirs in a fresh
    seeded random order each sweep. A coordinate move that degrades validation
    TPR is discarded, so the incumbent never regresses; equal-TPR moves are
    accepted, which lets lv2 leave the all-zero point where each coordinate is
    individually inert. Sweeping stops when one full sweep improves TPR by
    less than sweep_tol.
    """
    variant = Variant(variant)
    _check_target_fpr(target_fpr)
    seed = _integer("seed", seed)
    if seed >= _SEED_LIMIT:
        raise ValueError(f"seed must be below 2**128, got {seed!r}")
    if not (0.0 < multiplier and multiplier * target_fpr < 1.0):
        raise ValueError(f"multiplier {multiplier!r} puts the fit budget outside (0, 1)")
    max_sweeps = _integer("max_sweeps", max_sweeps)
    if math.isnan(sweep_tol):
        raise ValueError(f"sweep_tol must not be NaN, got {sweep_tol!r}")
    classes = _classes(val, "fitting needs at least one positive and one negative validation sample")
    k = _budget_count(classes[1][0].size, multiplier * target_fpr)
    brackets = COORDINATE_BRACKETS[variant]

    def operating_point(alpha_vec: np.ndarray) -> OperatingPoint:
        pos, neg = (_apply(variant, y, e, a, alpha_vec) for y, e, a in classes)
        return _select(pos, neg, k)

    alpha = np.zeros(len(brackets), dtype=np.float64)
    best_tpr = operating_point(alpha).tpr
    # Only lv2 and lv3 draw their order, so only their fits import numpy.random.
    rng = None if variant in (Variant.GLOBAL_ONLY, Variant.LV1) else np.random.Generator(np.random.Philox(key=seed))
    sweeps_used = 0
    # A variant without coordinates (global_only) has nothing to sweep.
    for _ in range(max_sweeps if brackets else 0):
        tpr_at_sweep_start = best_tpr
        order = np.arange(len(brackets)) if rng is None else rng.permutation(len(brackets))
        for i in order:
            def coordinate_objective(x: float, i: int = int(i)) -> float:
                trial = alpha.copy()
                trial[i] = x
                return -operating_point(trial).tpr

            x_star, f_star = brent_minimize(coordinate_objective, brackets[i])
            if -f_star >= best_tpr:
                alpha[int(i)] = x_star
                best_tpr = -f_star
        sweeps_used += 1
        if best_tpr - tpr_at_sweep_start < sweep_tol:
            break
    final_op = operating_point(alpha)
    return CalibrationResult(
        params=AdjustmentParams(variant, alpha),
        global_threshold=final_op.threshold,
        target_fpr=target_fpr,
        fit_fpr_multiplier=multiplier,
        achieved_val=final_op,
        sweeps_used=sweeps_used,
        seed=seed,
        member_count=val.member_count,
    )


def evaluate_calibration(
    test: PredictionDataset, result: CalibrationResult, target_fpr: float | None = None
) -> CalibrationEvaluation:
    """Apply a fitted calibration to a test set and score it against the true target."""
    if test.member_count != result.member_count:
        raise ValueError(
            f"member count mismatch: calibration was fit on {result.member_count} members, "
            f"test data has {test.member_count}"
        )
    target = result.target_fpr if target_fpr is None else _check_target_fpr(target_fpr)
    classes = _classes(test, "evaluation needs at least one positive and one negative test sample")
    pos, neg = (_apply(result.params.variant, y, e, a, result.params.alpha) for y, e, a in classes)
    op = _rates(pos, neg, result.global_threshold)
    return CalibrationEvaluation(op.tpr, op.fpr, combined_metric(op.tpr, op.fpr, target))
