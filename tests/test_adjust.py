import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from lowfpr.adjust import (
    COORDINATE_BRACKETS,
    AdjustmentParams,
    CalibrationResult,
    Variant,
    _apply,
    brent_minimize,
    evaluate_calibration,
    fit_global,
    fit_local,
    load_calibration,
    save_calibration,
)
from lowfpr.data import DatasetError, filter_split
from lowfpr.protocol import subsampling_study
from lowfpr.rocmetrics import OperatingPoint, select_threshold
from lowfpr.synth import generate, heteroscedastic_scenario, noisy_fp_scenario
from lowfpr.uncertainty import compute_uncertainties


def golden_section(objective, bracket, tol=1e-8, max_iters=500):
    """Independent reference minimizer: pure golden-section, no parabolas."""
    a, b = float(bracket[0]), float(bracket[1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(max_iters):
        if abs(b - a) <= tol * (abs(c) + abs(d)) + tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return (c, fc) if fc < fd else (d, fd)


def small_config(factory, seed, n=4000):
    return dataclasses.replace(factory(), n_benign=n, n_malicious=n, seed=seed)


class TestApplyAdjustment:
    def test_lv1_zero_is_identity(self):
        y = np.array([0.1, 0.5, 0.9])
        out = _apply(Variant.LV1, y, np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.4, 0.1]), (0.0, 0.0))
        np.testing.assert_array_equal(out, y)

    def test_lv1_weighted_sum(self):
        got = _apply(Variant.LV1, 0.4, 0.1, 0.2, (0.3, 0.1))
        assert got == pytest.approx(0.45, abs=1e-15)

    def test_lv2_exponential_weights(self):
        # exp(0) = 1, so zero rate coefficients reduce to a constant shift
        got = _apply(Variant.LV2, 0.4, 0.7, 0.3, (0.1, 0.1, 0.0, 0.0))
        assert got == pytest.approx(0.6, abs=1e-15)
        got = _apply(Variant.LV2, 0.4, 0.5, 0.25, (0.2, -0.1, 2.0, 4.0))
        assert got == pytest.approx(0.4 + 0.2 * math.exp(1.0) - 0.1 * math.exp(1.0), abs=1e-12)

    def test_lv3_branches_on_score(self):
        alpha = (0.05, 0.5, 0.25, 1.0, 0.75)
        hi = _apply(Variant.LV3, 0.2, 0.1, 0.2, alpha)   # 0.2 > 0.05: first branch
        lo = _apply(Variant.LV3, 0.05, 0.1, 0.2, alpha)  # 0.05 <= 0.05: second branch
        assert hi == pytest.approx(0.2 + 0.5 * 0.1 + 0.25 * 0.2, abs=1e-15)
        assert lo == pytest.approx(0.05 + 1.0 * 0.1 + 0.75 * 0.2, abs=1e-15)

    def test_global_only_copies(self):
        y = np.array([0.2, 0.8])
        out = _apply(Variant.GLOBAL_ONLY, y, y, y, ())
        np.testing.assert_array_equal(out, y)
        assert out is not y

    @pytest.mark.parametrize("variant", list(Variant))
    def test_finite_at_every_bracket_corner(self, variant):
        # The threshold kernel does not check finiteness; fit_local relies on the rescored
        # scores of y in [0, 1] and e, a in [0, ln 2] staying finite over the whole brackets.
        grid = np.array(list(itertools.product((0.0, 1.0), (0.0, math.log(2)), (0.0, math.log(2)))))
        y, e, a = grid.T
        for alpha in itertools.product(*COORDINATE_BRACKETS[variant]):
            assert np.isfinite(_apply(variant, y, e, a, alpha)).all(), alpha


class TestAdjustmentParams:
    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="takes 2"):
            AdjustmentParams(Variant.LV1, (0.1,))
        with pytest.raises(ValueError, match="takes 4"):
            AdjustmentParams(Variant.LV2, (0.1, 0.2, 0.3, 0.4, 0.5))
        with pytest.raises(ValueError, match="takes 5"):
            AdjustmentParams(Variant.LV3, ())
        with pytest.raises(ValueError, match="takes 0"):
            AdjustmentParams(Variant.GLOBAL_ONLY, (1.0,))

    def test_bracket_enforced(self):
        with pytest.raises(ValueError, match="outside bracket"):
            AdjustmentParams(Variant.LV1, (150.0, 0.0))
        with pytest.raises(ValueError, match="outside bracket"):
            AdjustmentParams(Variant.LV3, (0.5, 0.1, 0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="outside bracket"):
            AdjustmentParams(Variant.LV3, (0.0, -0.2, 0.1, 0.1, 0.1))

    def test_string_variant_coerced(self):
        p = AdjustmentParams("lv1", (1.0, -1.0))
        assert p.variant is Variant.LV1


class TestBrentMinimize:
    def test_quadratic(self):
        x, fx = brent_minimize(lambda x: (x - 2.0) ** 2, (0.0, 5.0))
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_kink_forces_golden_fallback(self):
        x, fx = brent_minimize(lambda x: abs(x - 0.3), (0.0, 1.0))
        assert x == pytest.approx(0.3, abs=1e-6)

    def test_cosine(self):
        x, fx = brent_minimize(math.cos, (2.0, 4.0))
        assert x == pytest.approx(math.pi, abs=1e-6)
        assert fx == pytest.approx(-1.0, abs=1e-12)

    def test_never_leaves_bracket(self):
        seen = []

        def guard(x):
            assert 1.5 <= x <= 4.0, f"evaluated outside bracket: {x}"
            seen.append(x)
            return math.sin(3.0 * x) + 0.1 * x

        brent_minimize(guard, (1.5, 4.0))
        assert seen

    def test_boundary_minimum(self):
        # monotone decreasing: the minimum sits at the right edge
        x, fx = brent_minimize(lambda x: -x, (0.0, 1.0))
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_golden_section(self):
        cases = [
            (lambda x: (x - 0.7) ** 2 + 0.3 * x, (-2.0, 2.0)),
            (lambda x: math.exp(x) - 2.0 * x, (-1.0, 3.0)),
            (lambda x: (x + 1.0) ** 4 - x, (-3.0, 2.0)),
            (lambda x: math.cosh(x - 0.25), (-5.0, 5.0)),
        ]
        for objective, bracket in cases:
            xb, fb = brent_minimize(objective, bracket, tol=1e-8)
            xg, fg = golden_section(objective, bracket, tol=1e-8)
            assert xb == pytest.approx(xg, abs=1e-7)
            assert fb <= fg + 1e-12

    def test_nonfinite_objective_reports_point(self):
        with pytest.raises(ArithmeticError, match="x="):
            brent_minimize(lambda x: math.nan, (0.0, 1.0))

    def test_iteration_cap_respected(self):
        calls = []
        brent_minimize(lambda x: calls.append(x) or (x - 0.5) ** 2, (0.0, 1.0), max_iters=3)
        assert len(calls) <= 4  # initial point plus one per iteration

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            brent_minimize(lambda x: x, (1.0, 1.0))
        with pytest.raises(ValueError):
            brent_minimize(lambda x: x, (2.0, 1.0))
        with pytest.raises(ValueError):
            brent_minimize(lambda x: x, (0.0, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            brent_minimize(lambda x: x, (0.0, 1.0), max_iters=0)

    def test_nan_tol_rejected_before_any_evaluation(self):
        calls = []
        with pytest.raises(ValueError, match=r"^tol must be positive, got nan$"):
            brent_minimize(lambda x: calls.append(x) or x, (0.0, 1.0), tol=math.nan)
        assert calls == []


@pytest.fixture(scope="module")
def hetero_val():
    data = generate(small_config(heteroscedastic_scenario, seed=11))
    return filter_split(data, "validation"), filter_split(data, "test")


class TestFitGlobal:
    def test_reduces_to_threshold_selection(self, hetero_val):
        val, _ = hetero_val
        result = fit_global(val, 1e-2, multiplier=0.9, seed=3)
        op = select_threshold(val.scores.mean(axis=1), val.labels, 0.9 * 1e-2)
        assert result.global_threshold == op.threshold
        assert result.achieved_val == op
        assert result.params == AdjustmentParams(Variant.GLOBAL_ONLY)
        assert result.sweeps_used == 0
        assert result.member_count == val.member_count

    def test_argument_validation(self, hetero_val):
        val, _ = hetero_val
        with pytest.raises(ValueError):
            fit_global(val, 0.0)
        with pytest.raises(ValueError):
            fit_global(val, 0.5, multiplier=3.0)


class TestFitSeed:
    """The fit seed is a nonnegative integer, checked before the fit and stored as an int."""

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"], ids=["float", "negative", "bool", "string"])
    @pytest.mark.parametrize("fit", ["global", "lv1"])
    def test_bad_seed_rejected(self, hetero_val, fit, seed):
        val, _ = hetero_val
        message = f"seed must be nonnegative, got {seed!r}" if seed == -1 else f"seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError) as exc:
            fit_global(val, 1e-2, seed=seed) if fit == "global" else fit_local(val, 1e-2, Variant.LV1, seed=seed)
        assert str(exc.value) == message

    def test_numpy_seed_stored_as_int(self, tmp_path, hetero_val):
        val, _ = hetero_val
        assert type(fit_global(val, 1e-2, seed=np.int64(3)).seed) is int
        result = fit_local(val, 1e-2, Variant.LV2, seed=np.int64(3), max_sweeps=1)
        assert type(result.seed) is int and result == fit_local(val, 1e-2, Variant.LV2, seed=3, max_sweeps=1)
        path = tmp_path / "cal.json"
        save_calibration(result, path)  # json cannot write a numpy integer
        assert load_calibration(path) == result

    @pytest.mark.parametrize("variant", [Variant.GLOBAL_ONLY, Variant.LV1, Variant.LV2])
    def test_seed_below_2_pow_128_for_every_variant(self, hetero_val, variant):
        val, _ = hetero_val
        with pytest.raises(ValueError) as exc:
            fit_local(val, 1e-2, variant, seed=2**128, max_sweeps=0)
        assert str(exc.value) == f"seed must be below 2**128, got {2**128}"

    def test_largest_seed_accepted(self, hetero_val):
        val, _ = hetero_val
        assert fit_local(val, 1e-2, Variant.LV2, seed=2**128 - 1, max_sweeps=1).seed == 2**128 - 1


class TestFitLocal:
    def test_zero_sweeps_matches_global(self, hetero_val):
        val, _ = hetero_val
        g = fit_global(val, 1e-2)
        for variant in Variant:
            local = fit_local(val, 1e-2, variant, max_sweeps=0)
            assert local.params.alpha == (0.0,) * len(local.params.alpha)
            assert local.global_threshold == g.global_threshold
            assert local.achieved_val == g.achieved_val
            assert local.sweeps_used == 0

    def test_sweep_tol_nan_rejected(self, hetero_val):
        val, _ = hetero_val
        with pytest.raises(ValueError) as exc:
            fit_local(val, 1e-2, Variant.LV1, sweep_tol=math.nan)
        assert str(exc.value) == "sweep_tol must not be NaN, got nan"
        # zero or a negative tolerance never stops the sweeps: the fit runs max_sweeps of them
        for tol in (0.0, -1.0):
            assert fit_local(val, 1e-2, Variant.LV1, sweep_tol=tol, max_sweeps=4).sweeps_used == 4

    def test_improves_validation_tpr(self, hetero_val):
        val, _ = hetero_val
        base = fit_global(val, 1e-2).achieved_val.tpr
        for variant in (Variant.LV1, Variant.LV2, Variant.LV3):
            fitted = fit_local(val, 1e-2, variant, seed=1)
            assert fitted.achieved_val.tpr >= base
            assert fitted.achieved_val.fpr <= 0.9 * 1e-2
        assert fit_local(val, 1e-2, Variant.LV1, seed=1).achieved_val.tpr > base

    def test_lv2_escapes_all_zero_start(self, hetero_val):
        # every lv2 coordinate is inert on its own at alpha = 0 (a lone scale
        # coefficient shifts every score equally; a lone rate coefficient
        # multiplies zero), so progress requires accepting equal-TPR moves
        val, _ = hetero_val
        fitted = fit_local(val, 1e-2, Variant.LV2, seed=1)
        assert any(x != 0.0 for x in fitted.params.alpha)
        assert fitted.achieved_val.tpr > fit_global(val, 1e-2).achieved_val.tpr

    def test_operating_point_matches_public_selection(self, hetero_val):
        # the fit selects on class-split rescored arrays; the public function
        # on the whole validation split must give the same operating point
        val, _ = hetero_val
        table = compute_uncertainties(val)
        for variant in Variant:
            fitted = fit_local(val, 1e-2, variant, seed=4, multiplier=0.8)
            rescored = _apply(fitted.params.variant, table.yhat, table.epistemic, table.aleatoric, fitted.params.alpha)
            op = select_threshold(rescored, val.labels, 0.8 * 1e-2)
            assert fitted.achieved_val == op
            assert fitted.global_threshold == op.threshold

    def test_seed_determinism(self, hetero_val):
        val, _ = hetero_val
        a = fit_local(val, 1e-2, Variant.LV3, seed=7)
        b = fit_local(val, 1e-2, Variant.LV3, seed=7)
        assert a.params.alpha == b.params.alpha
        assert a.global_threshold == b.global_threshold
        assert a.sweeps_used == b.sweeps_used

    def test_demotes_noisy_false_positives(self):
        # benign subpopulation with high scores and high disagreement: the
        # profitable direction weights epistemic uncertainty negatively
        wins = 0
        for seed in (0, 1, 2):
            data = generate(small_config(noisy_fp_scenario, seed=seed))
            val = filter_split(data, "validation")
            fitted = fit_local(val, 1e-2, Variant.LV1, seed=seed)
            assert fitted.params.alpha[0] < 0.0
            if fitted.achieved_val.tpr > fit_global(val, 1e-2).achieved_val.tpr:
                wins += 1
        assert wins >= 2

    def test_global_variant_is_fit_global(self, hetero_val):
        # global_only has no coordinates: the fit runs no sweep, only selects
        val, _ = hetero_val
        for target in (1e-2, 1e-3):
            fitted = fit_local(val, target, Variant.GLOBAL_ONLY)
            assert fitted == fit_global(val, target)
            assert fitted.params.alpha == ()
            assert fitted.sweeps_used == 0

    def test_rejects_single_class_validation(self, hetero_val):
        val, _ = hetero_val
        positives = val.scores[val.labels == 1]
        from lowfpr.data import PredictionDataset

        only_pos = PredictionDataset(
            sample_ids=val.sample_ids[val.labels == 1],
            labels=val.labels[val.labels == 1],
            splits=val.splits[val.labels == 1],
            families=val.families[val.labels == 1],
            scores=positives,
        )
        with pytest.raises(ValueError):
            fit_local(only_pos, 1e-2, Variant.LV1)

    def test_rejects_empty_validation(self, hetero_val):
        val, _ = hetero_val
        empty = filter_split(val, "train")
        assert len(empty) == 0
        with pytest.raises(ValueError, match="^fitting needs at least one positive and one negative validation sample$"):
            fit_local(empty, 1e-2, Variant.LV1)


def _calibration_with(val, key, value):
    return CalibrationResult.from_dict(dict(fit_global(val, 1e-2).to_dict(), **{key: value}))


# Every integer argument and calibration key: (call with the value, name in the message, minimum, message prefix).
INTEGER_INPUTS = {
    "fit_local-seed": (lambda val, test, v: fit_local(val, 1e-2, Variant.LV1, seed=v, max_sweeps=0), "seed", 0, ""),
    "fit_local-max_sweeps": (lambda val, test, v: fit_local(val, 1e-2, Variant.LV1, max_sweeps=v), "max_sweeps", 0, ""),
    "fit_global-seed": (lambda val, test, v: fit_global(val, 1e-2, seed=v), "seed", 0, ""),
    "study-seeds": (lambda val, test, v: subsampling_study(val, test, [0.5], [1e-2], seeds=[v]), "seed", 0, ""),
    "study-threads": (lambda val, test, v: subsampling_study(val, test, [0.5], [1e-2], [0], threads=v), "threads", 1, ""),
    "brent-max_iters": (lambda val, test, v: brent_minimize(lambda x: x * x, (-1.0, 1.0), max_iters=v), "max_iters", 1, ""),
    "calibration-sweeps_used": (
        lambda val, test, v: _calibration_with(val, "sweeps_used", v), "sweeps_used", 0, "calibration key 'sweeps_used': "
    ),
    "calibration-seed": (lambda val, test, v: _calibration_with(val, "seed", v), "seed", 0, "calibration key 'seed': "),
    "calibration-member_count": (
        lambda val, test, v: _calibration_with(val, "member_count", v), "member_count", 1, "calibration key 'member_count': "
    ),
}


class TestIntegerRule:
    """Every integer the package reads follows data._integer: a Python or numpy integer, not a bool, at its minimum."""

    @pytest.mark.parametrize("value", [True, 2.0, "2", None], ids=["bool", "float", "string", "below-minimum"])
    @pytest.mark.parametrize("case", INTEGER_INPUTS, ids=list(INTEGER_INPUTS))
    def test_rejected_with_one_message(self, hetero_val, case, value):
        call, name, minimum, prefix = INTEGER_INPUTS[case]
        if value is None:
            value = minimum - 1
            bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
            message = f"{name} must be {bound}, got {value!r}"
        else:
            message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError) as exc:
            call(*hetero_val, value)
        assert str(exc.value) == prefix + message

    @pytest.mark.parametrize("case", INTEGER_INPUTS, ids=list(INTEGER_INPUTS))
    def test_numpy_integer_accepted(self, hetero_val, case):
        call, _, minimum, _ = INTEGER_INPUTS[case]
        call(*hetero_val, np.int64(max(minimum, 1)))


class TestCheckOrder:
    """A bad argument is rejected before the uncertainty decomposition runs."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda val, cal: fit_local(val, 1e-2, Variant.LV1, max_sweeps=-1), "max_sweeps must be nonnegative, got -1"),
            (lambda val, cal: fit_local(val, 1e-2, Variant.LV1, sweep_tol=math.nan), "sweep_tol must not be NaN, got nan"),
            (lambda val, cal: evaluate_calibration(val, cal, target_fpr=2.0), "target_fpr must be in (0, 1), got 2.0"),
        ],
        ids=["max-sweeps", "sweep-tol", "eval-target"],
    )
    def test_rejected_before_decomposition(self, hetero_val, monkeypatch, call, message):
        val, _ = hetero_val
        calibration = fit_global(val, 1e-2)

        def decomposition(ds):
            raise AssertionError("the decomposition ran before the argument check")

        monkeypatch.setattr("lowfpr.adjust.compute_uncertainties", decomposition)
        with pytest.raises(ValueError) as exc:
            call(val, calibration)
        assert str(exc.value) == message


class TestEvaluateCalibration:
    def test_global_matches_direct_evaluation(self, hetero_val):
        # Every variant, against a reference that rescores the whole split and evaluates it in one call.
        val, test = hetero_val
        from lowfpr.rocmetrics import combined_metric, evaluate_at_threshold

        t = compute_uncertainties(test)
        np.testing.assert_array_equal(t.yhat, test.scores.mean(axis=1))
        for variant in Variant:
            result = fit_local(val, 1e-2, variant, seed=3)
            assert variant is Variant.GLOBAL_ONLY or any(result.params.alpha)
            ev = evaluate_calibration(test, result)
            adjusted = _apply(variant, t.yhat, t.epistemic, t.aleatoric, result.params.alpha)
            op = evaluate_at_threshold(adjusted, test.labels, result.global_threshold)
            assert ev.tpr == op.tpr
            assert ev.actualized_fpr == op.fpr
            assert ev.combined == combined_metric(op.tpr, op.fpr, 1e-2)

    def test_empty_split_rejected(self, hetero_val):
        val, test = hetero_val
        empty = filter_split(test, "train")
        assert len(empty) == 0
        with pytest.raises(ValueError, match="^evaluation needs at least one positive and one negative test sample$"):
            evaluate_calibration(empty, fit_global(val, 1e-2))

    def test_sentinel_threshold_scores_zero(self, hetero_val):
        val, test = hetero_val
        result = fit_global(val, 1e-2)
        frozen = dataclasses.replace(result, global_threshold=math.inf,
                                     achieved_val=OperatingPoint(math.inf, 0.0, 0.0))
        ev = evaluate_calibration(test, frozen)
        assert ev == (0.0, 0.0, 0.0)

    def test_target_override_changes_penalty_only(self, hetero_val):
        val, test = hetero_val
        result = fit_local(val, 1e-2, Variant.LV1, seed=2)
        loose = evaluate_calibration(test, result, target_fpr=0.5)
        tight = evaluate_calibration(test, result, target_fpr=1e-6)
        assert loose.tpr == tight.tpr
        assert loose.actualized_fpr == tight.actualized_fpr
        assert loose.combined >= tight.combined

    def test_member_count_mismatch_rejected(self, hetero_val):
        val, test = hetero_val
        result = fit_global(val, 1e-2)
        bad = dataclasses.replace(result, member_count=result.member_count + 1)
        with pytest.raises(ValueError, match="member count"):
            evaluate_calibration(test, bad)


class TestCalibrationSerialization:
    def test_round_trip(self, tmp_path, hetero_val):
        val, _ = hetero_val
        result = fit_local(val, 1e-2, Variant.LV3, seed=5)
        path = tmp_path / "cal.json"
        save_calibration(result, path)
        back = load_calibration(path)
        assert back == result

    def test_infinite_threshold_round_trip(self, tmp_path):
        result = CalibrationResult(
            params=AdjustmentParams(Variant.GLOBAL_ONLY),
            global_threshold=math.inf,
            target_fpr=1e-4,
            fit_fpr_multiplier=0.9,
            achieved_val=OperatingPoint(math.inf, 0.0, 0.0),
            sweeps_used=0,
            seed=0,
            member_count=5,
        )
        path = tmp_path / "cal.json"
        save_calibration(result, path)
        assert '"inf"' in path.read_text()
        assert load_calibration(path) == result

    def test_rerun_writes_identical_bytes(self, tmp_path, hetero_val):
        val, _ = hetero_val
        result = fit_local(val, 1e-2, Variant.LV2, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_calibration(result, p1)
        save_calibration(fit_local(val, 1e-2, Variant.LV2, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: [d], None),
            (lambda d: {k: v for k, v in d.items() if k != "threshold"}, "'threshold'"),
            (lambda d: dict(d, target_fpr="abc"), "'target_fpr'"),
            (lambda d: dict(d, threshold="nan"), "'threshold'"),
            (lambda d: dict(d, alpha=None), "'alpha': must be a list of numbers, got None"),
            (lambda d: dict(d, alpha="0.5"), "'alpha': must be a list of numbers, got '0.5'"),
            (lambda d: dict(d, alpha={"a": 1}), "'alpha': must be a list of numbers, got {'a': 1}"),
            (lambda d: dict(d, alpha=0.5), "'alpha': must be a list of numbers, got 0.5"),
            (lambda d: dict(d, variant="lv9"), "'variant'"),
            (lambda d: dict(d, seed=[1]), "'seed'"),
            (lambda d: dict(d, member_count=5.9), "'member_count': member_count must be an integer, got 5.9"),
            (lambda d: dict(d, member_count=0), "'member_count': member_count must be at least 1, got 0"),
            (lambda d: dict(d, sweeps_used=True), "'sweeps_used': sweeps_used must be an integer, got True"),
            (lambda d: dict(d, sweeps_used=-1), "'sweeps_used': sweeps_used must be nonnegative, got -1"),
            (lambda d: dict(d, seed=-3), "'seed': seed must be nonnegative, got -3"),
            (lambda d: dict(d, seed=7.0), "'seed': seed must be an integer, got 7.0"),
            (lambda d: dict(d, threshold=math.nan), "'threshold' is NaN"),
            (lambda d: dict(d, threshold=False), "'threshold': must be a number, got False"),
            (lambda d: dict(d, threshold=10**400), "'threshold': int too large to convert to float"),
            (lambda d: dict(d, multiplier=True), "'multiplier': must be a number, got True"),
            (lambda d: dict(d, target_fpr="0.01"), "'target_fpr': must be a number, got '0.01'"),
            (lambda d: dict(d, validation_tpr=True), "'validation_tpr': must be a number, got True"),
            (lambda d: dict(d, validation_fpr="0"), "'validation_fpr': must be a number, got '0'"),
            (lambda d: dict(d, alpha=[0.0, False]), "'alpha': must be a number, got False"),
        ],
        ids=["not-an-object", "missing-key", "non-numeric", "nan-threshold", "alpha-not-list", "alpha-string", "alpha-object",
             "alpha-number", "unknown-variant", "int-not-number",
             "member-count-fractional", "member-count-zero", "sweeps-bool", "sweeps-negative", "seed-negative", "seed-float",
             "nan-literal-threshold", "threshold-bool", "threshold-huge-int", "multiplier-bool", "target-string",
             "validation-tpr-bool", "validation-fpr-string", "alpha-entry-bool"],
    )
    def test_malformed_file_names_file_and_key(self, tmp_path, hetero_val, edit, key):
        val, _ = hetero_val
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(edit(fit_local(val, 1e-2, Variant.LV1, seed=5, max_sweeps=0).to_dict())))
        with pytest.raises(DatasetError) as info:
            load_calibration(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message
        assert key is None or key in message
