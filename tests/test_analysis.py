import dataclasses
import itertools
import math

import numpy as np
import pytest

from lowfpr.analysis import (
    WilcoxonResult,
    ensemble_vs_members,
    uncertainty_by_correctness,
    uncertainty_by_novelty,
    wilcoxon_signed_rank,
    write_comparison_csv,
)
from lowfpr.data import PredictionDataset, filter_split
from lowfpr.synth import generate, novelty_scenario


def make_dataset(scores, labels, families=None):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
    n = scores.shape[0]
    return PredictionDataset(
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        labels=np.array(labels, dtype=np.int64),
        splits=np.array(["test"] * n, dtype=object),
        families=np.array(families if families is not None else [None] * n, dtype=object),
        scores=scores,
    )


def enumerate_wilcoxon_p(diffs):
    """Exact two-sided p by enumerating all 2^n sign assignments."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    mags = np.abs(d)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    sorted_mags = mags[order]
    # average ranks over tied magnitudes
    i = 0
    while i < n:
        j = i
        while j < n and sorted_mags[j] == sorted_mags[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    w_obs = ranks[d > 0].sum()
    totals = [sum(signs[k] * ranks[k] for k in range(n)) for signs in itertools.product((0, 1), repeat=n)]
    le = sum(1 for t in totals if t <= w_obs + 1e-9)
    ge = sum(1 for t in totals if t >= w_obs - 1e-9)
    return min(1.0, 2.0 * min(le, ge) / 2**n)


class TestWilcoxon:
    def test_all_positive_small_sample(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert res.statistic == 15.0
        assert res.p_value == 0.0625
        assert res.n == 5 and not res.degenerate

    def test_all_zero_is_degenerate(self):
        res = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert res.degenerate
        assert res.p_value == 1.0 and res.statistic == 0.0 and res.n == 0

    def test_symmetric_sample_not_significant(self):
        res = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0])
        assert res.p_value == 1.0

    def test_zeros_dropped_before_ranking(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, 2.0, 0.0, 3.0])
        without = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert with_zeros.statistic == without.statistic
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n == 3

    def test_matches_sign_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            d = np.round(rng.normal(0.3, 1.0, n), 1)  # rounding forces ties
            if np.all(d == 0.0):
                continue
            got = wilcoxon_signed_rank(d)
            assert got.p_value == pytest.approx(enumerate_wilcoxon_p(d), abs=1e-9)

    def test_exact_and_approx_agree_at_crossover(self):
        # at n = 20 both routes are available: force the normal approximation
        # onto inputs the exact enumeration handles and compare
        rng = np.random.default_rng(32)
        for _ in range(20):
            d = rng.normal(0.4, 1.0, 20)
            exact = wilcoxon_signed_rank(d)
            assert not exact.degenerate and exact.n == 20
            assert _approx_p(d) == pytest.approx(exact.p_value, abs=0.02)

    def test_strong_one_sided_shift_is_significant(self):
        rng = np.random.default_rng(33)
        d = np.abs(rng.normal(2.0, 0.5, 50)) + 0.1
        assert wilcoxon_signed_rank(d).p_value < 1e-6

    @pytest.mark.parametrize("n", [21, 25, 60])
    def test_all_tied_normal_approximation(self, n):
        # The tie correction is largest when all n ranks tie, and the variance
        # stays positive: n(n+1)(2n+1)/24 - (n^3-n)/48 = 3n(n+1)^2/48.
        res = wilcoxon_signed_rank([1.0] * n)
        z = (n * (n + 1) / 4.0 - 0.5) / math.sqrt(3 * n * (n + 1) ** 2 / 48.0)
        assert res.n == n and res.statistic == n * (n + 1) / 2.0
        assert res.p_value == pytest.approx(math.erfc(z / math.sqrt(2.0)), rel=1e-12)
        assert 0.0 < res.p_value < 1e-5

    def test_statistic_at_the_null_mean_has_p_one(self):
        # W+ = mu = 126.5 puts the continuity-corrected z below 0, where erfc exceeds 1.
        res = wilcoxon_signed_rank([1.0] * 11 + [-1.0] * 11)
        assert res == WilcoxonResult(statistic=126.5, p_value=1.0, n=22, degenerate=False)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, math.nan])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([math.inf, 1.0])


def _approx_p(diffs):
    """Route a small sample through the large-sample normal path."""
    from lowfpr.analysis import _average_ranks, _normal_two_sided

    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    return _normal_two_sided(ranks, w_plus, d.size)


class TestEnsembleVsMembers:
    def test_identical_members_tie(self):
        rng = np.random.default_rng(35)
        col = rng.uniform(0, 1, 400)
        labels = (col + rng.normal(0, 0.3, 400) > 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        ds = make_dataset(np.repeat(col[:, None], 3, axis=1), labels)
        ens, mem = ensemble_vs_members(ds, fpr_max=0.1)
        assert ens.accuracy == pytest.approx(mem.accuracy, abs=1e-12)
        assert ens.auc == pytest.approx(mem.auc, abs=1e-12)
        assert ens.partial_auc == pytest.approx(mem.partial_auc, abs=1e-12)
        assert ens.is_ensemble and not mem.is_ensemble

    def test_noise_averaging_helps(self):
        rng = np.random.default_rng(36)
        n, t = 3000, 7
        latent = np.concatenate([rng.normal(-1, 1, n // 2), rng.normal(1, 1, n // 2)])
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        scores = 1.0 / (1.0 + np.exp(-(latent[:, None] + rng.normal(0, 1.5, (n, t)))))
        ens, mem = ensemble_vs_members(make_dataset(scores, labels), fpr_max=0.1)
        assert ens.auc > mem.auc
        assert ens.partial_auc > mem.partial_auc

    def test_single_member_rejected(self):
        ds = make_dataset([[0.2], [0.8]], [0, 1])
        with pytest.raises(ValueError, match="at least 2"):
            ensemble_vs_members(ds, fpr_max=0.1)

    def test_csv_schema(self, tmp_path):
        ds = make_dataset([[0.2, 0.3], [0.8, 0.7], [0.4, 0.5], [0.9, 0.6]], [0, 1, 0, 1])
        rows = ensemble_vs_members(ds, fpr_max=0.5)
        out = tmp_path / "cmp.csv"
        write_comparison_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,accuracy,auc,partial_auc,is_ensemble"
        assert lines[1].startswith("ensemble,") and lines[1].endswith(",true")
        assert lines[2].startswith("member_mean,") and lines[2].endswith(",false")


class TestGroupSplits:
    def test_correctness_split_partitions(self):
        ds = make_dataset(
            [[0.9, 0.8], [0.2, 0.1], [0.7, 0.6], [0.3, 0.4]],
            [1, 0, 0, 1],
        )
        split = uncertainty_by_correctness(ds, threshold=0.5, measure="epistemic")
        assert split.labels == ("correct", "incorrect")
        got = sorted(np.concatenate(split.sample_ids).tolist())
        assert got == sorted(ds.sample_ids.tolist())
        # rows 0 and 1 classify correctly at 0.5; rows 2 and 3 do not
        assert split.sample_ids[0].tolist() == ["s0", "s1"]
        assert split.sample_ids[1].tolist() == ["s2", "s3"]

    def test_nan_threshold_rejected(self):
        ds = make_dataset([[0.9, 0.8], [0.2, 0.1], [0.7, 0.6], [0.3, 0.4]], [1, 0, 0, 1])
        with pytest.raises(ValueError) as exc:
            uncertainty_by_correctness(ds, threshold=math.nan)
        assert str(exc.value) == "threshold must not be NaN, got nan"
        # a threshold outside [0, 1] still predicts every sample malicious (below) or benign (above)
        for threshold in (-0.5, -math.inf):
            assert uncertainty_by_correctness(ds, threshold).sample_ids[0].tolist() == ["s0", "s3"]
        for threshold in (1.5, math.inf):
            assert uncertainty_by_correctness(ds, threshold).sample_ids[0].tolist() == ["s1", "s2"]

    def test_empty_group_flagged_not_raised(self):
        ds = make_dataset([[0.9], [0.1]], [1, 0])
        split = uncertainty_by_correctness(ds, threshold=0.5)
        assert split.has_empty_group
        assert split.mean("correct") >= 0.0

    def test_novelty_split_ignores_benign(self):
        ds = make_dataset(
            [[0.9, 0.7], [0.8, 0.2], [0.6, 0.5], [0.1, 0.2]],
            [1, 1, 1, 0],
            families=["known_a", "new_b", "known_a", None],
        )
        split = uncertainty_by_novelty(ds, known_families={"known_a"})
        assert split.labels == ("seen", "unseen")
        assert split.sample_ids[0].tolist() == ["s0", "s2"]
        assert split.sample_ids[1].tolist() == ["s1"]

    def test_novelty_requires_tags(self):
        ds = make_dataset([[0.9], [0.1]], [1, 0])
        with pytest.raises(ValueError, match="family-tagged"):
            uncertainty_by_novelty(ds, known_families={"x"})

    def test_novel_families_carry_more_epistemic(self):
        config = dataclasses.replace(novelty_scenario(seed=37), n_benign=4000, n_malicious=4000)
        data = generate(config)
        test = filter_split(data, "test")
        known = {f for f in filter_split(data, "train").families if f is not None}
        split = uncertainty_by_novelty(test, known, measure="epistemic")
        assert split.mean("unseen") > split.mean("seen")

    def test_split_csv(self, tmp_path):
        ds = make_dataset([[0.9, 0.8], [0.2, 0.3]], [1, 0])
        split = uncertainty_by_correctness(ds, threshold=0.5)
        out = tmp_path / "split.csv"
        split.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,group,value"
        assert len(lines) == 3

    def test_unknown_measure_rejected(self):
        ds = make_dataset([[0.9], [0.2]], [1, 0])
        with pytest.raises(ValueError):
            uncertainty_by_correctness(ds, threshold=0.5, measure="entropyy")
