import dataclasses
import json
import math

import numpy as np
import pytest

from lowfpr.adjust import (
    AdjustmentParams,
    CalibrationResult,
    Variant,
    apply_adjustment,
    brent_minimize,
    evaluate_calibration,
    fit_global,
    fit_local,
    load_calibration,
    save_calibration,
)
from lowfpr.data import DatasetError, filter_split
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
        out = apply_adjustment(y, np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.4, 0.1]),
                               AdjustmentParams(Variant.LV1, (0.0, 0.0)))
        np.testing.assert_array_equal(out, y)

    def test_lv1_weighted_sum(self):
        got = apply_adjustment(0.4, 0.1, 0.2, AdjustmentParams(Variant.LV1, (0.3, 0.1)))
        assert got == pytest.approx(0.45, abs=1e-15)
        assert isinstance(got, float)

    def test_lv2_exponential_weights(self):
        # exp(0) = 1, so zero rate coefficients reduce to a constant shift
        got = apply_adjustment(0.4, 0.7, 0.3, AdjustmentParams(Variant.LV2, (0.1, 0.1, 0.0, 0.0)))
        assert got == pytest.approx(0.6, abs=1e-15)
        got = apply_adjustment(0.4, 0.5, 0.25, AdjustmentParams(Variant.LV2, (0.2, -0.1, 2.0, 4.0)))
        assert got == pytest.approx(0.4 + 0.2 * math.exp(1.0) - 0.1 * math.exp(1.0), abs=1e-12)

    def test_lv3_branches_on_score(self):
        params = AdjustmentParams(Variant.LV3, (0.05, 0.5, 0.25, 1.0, 0.75))
        hi = apply_adjustment(0.2, 0.1, 0.2, params)   # 0.2 > 0.05: first branch
        lo = apply_adjustment(0.05, 0.1, 0.2, params)  # 0.05 <= 0.05: second branch
        assert hi == pytest.approx(0.2 + 0.5 * 0.1 + 0.25 * 0.2, abs=1e-15)
        assert lo == pytest.approx(0.05 + 1.0 * 0.1 + 0.75 * 0.2, abs=1e-15)

    def test_global_only_copies(self):
        y = np.array([0.2, 0.8])
        out = apply_adjustment(y, y, y, AdjustmentParams(Variant.GLOBAL_ONLY))
        np.testing.assert_array_equal(out, y)
        assert out is not y


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
            rescored = apply_adjustment(table.yhat, table.epistemic, table.aleatoric, fitted.params)
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


class TestEvaluateCalibration:
    def test_global_matches_direct_evaluation(self, hetero_val):
        val, test = hetero_val
        result = fit_global(val, 1e-2)
        ev = evaluate_calibration(test, result)
        from lowfpr.rocmetrics import combined_metric, evaluate_at_threshold

        op = evaluate_at_threshold(test.scores.mean(axis=1), test.labels, result.global_threshold)
        assert ev.tpr == op.tpr
        assert ev.actualized_fpr == op.fpr
        assert ev.combined == combined_metric(op.tpr, op.fpr, 1e-2)

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
            (lambda d: dict(d, alpha=None), "'alpha'"),
            (lambda d: dict(d, variant="lv9"), "'variant'"),
            (lambda d: dict(d, seed=[1]), "'seed'"),
        ],
        ids=["not-an-object", "missing-key", "non-numeric", "nan-threshold", "alpha-not-list", "unknown-variant", "int-not-number"],
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
