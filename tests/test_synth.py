import dataclasses
import json
import math

import numpy as np
import pytest

from lowfpr.data import filter_split
from lowfpr.rocmetrics import auc, roc_curve, select_threshold
from lowfpr.synth import (
    SynthConfig,
    _generate_with,
    _rng,
    default_scenario,
    generate,
    heteroscedastic_scenario,
    load_config,
    novelty_scenario,
    noisy_fp_scenario,
)
from lowfpr.uncertainty import compute_uncertainties


# A stream of the same seed independent of generate()'s data stream.
_ORACLE_STREAM = 0x6F7263  # "orc"


@dataclasses.dataclass(frozen=True)
class OracleMetrics:
    """Reference metric estimates from a large independent draw."""

    auc: float
    tpr_at: dict[float, float]
    n_oracle: int


def oracle_metrics(config: SynthConfig, n_oracle: int, fprs=(1e-2, 1e-3)) -> OracleMetrics:
    """Estimate population AUC and TPR-at-FPR by direct counting.

    Regenerates the scenario at n_oracle samples on a stream independent of
    generate()'s, then counts on sorted ensemble means.
    """
    if n_oracle < 2:
        raise ValueError("n_oracle must be at least 2")
    total = config.n_benign + config.n_malicious
    if total == 0:
        raise ValueError("config generates no samples")
    scale = n_oracle / total
    scaled = dataclasses.replace(
        config,
        n_benign=max(1, round(config.n_benign * scale)),
        n_malicious=max(1, round(config.n_malicious * scale)),
    )
    ds = _generate_with(scaled, _rng(config.seed, _ORACLE_STREAM))
    means = ds.scores.mean(axis=1)
    benign = np.sort(means[ds.labels == 0])
    malicious = means[ds.labels == 1]
    lo = np.searchsorted(benign, malicious, side="left")
    hi = np.searchsorted(benign, malicious, side="right")
    score_auc = float((lo + 0.5 * (hi - lo)).sum() / (benign.size * malicious.size))
    tpr_at = {}
    for f in fprs:
        if not (0.0 < f < 1.0):
            raise ValueError(f"fpr {f!r} outside (0, 1)")
        threshold = np.quantile(benign, 1.0 - f)
        tpr_at[float(f)] = float((malicious >= threshold).mean())
    return OracleMetrics(auc=score_auc, tpr_at=tpr_at, n_oracle=len(ds))


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_benign=-1)
        with pytest.raises(ValueError):
            SynthConfig(member_count=0)
        with pytest.raises(ValueError):
            SynthConfig(novel_fraction=1.5)
        with pytest.raises(ValueError):
            SynthConfig(novel_fraction=0.7, ambiguous_malicious_fraction=0.4)
        with pytest.raises(ValueError):
            SynthConfig(logit_sd=0.0)
        with pytest.raises(ValueError):
            SynthConfig(member_noise_sd_base=0.5, member_noise_sd_novel=0.1)
        with pytest.raises(ValueError):
            SynthConfig(split_fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            SynthConfig(split_fractions=(0.5, 0.6, -0.1))
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            SynthConfig(seed=-1)
        with pytest.raises(ValueError, match="^member_noise_sd_base must be nonnegative$"):
            SynthConfig(member_noise_sd_base=-1.0)
        # Wrongly typed JSON values name their key instead of failing later with a TypeError.
        bad_types = {
            "n_benign": ("x", "n_benign must be an integer, got 'x'"),
            "seed": ("7", "seed must be an integer, got '7'"),
            "member_count": (2.5, "member_count must be an integer, got 2.5"),
            "split_fractions": (3, "split_fractions must be a list of three numbers, got 3"),
            "n_malicious": (True, "n_malicious must be an integer, got True"),
            "logit_sd": ("1", "logit_sd must be a number, got '1'"),
        }
        for key, (value, message) in bad_types.items():
            with pytest.raises(ValueError) as exc:
                SynthConfig.from_dict({key: value})
            assert str(exc.value) == message
        with pytest.raises(ValueError, match="^split_fractions must be a list of three numbers"):
            SynthConfig.from_dict({"split_fractions": [0.5, "0.25", 0.25]})
        assert SynthConfig.from_dict({"logit_sd": 2, "split_fractions": [1, 0, 0]}).logit_sd == 2

    def test_dict_round_trip(self):
        config = heteroscedastic_scenario(seed=3)
        assert SynthConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SynthConfig.from_dict({"n_benign": 10, "typo_field": 1})

    def test_load_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(default_scenario(seed=2).to_dict()))
        assert load_config(path) == default_scenario(seed=2)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(arr)


class TestGenerate:
    def test_bit_identical_reruns(self):
        config = novelty_scenario(seed=5)
        config = dataclasses.replace(config, n_benign=3000, n_malicious=3000)
        a, b = generate(config), generate(config)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.sample_ids.tolist() == b.sample_ids.tolist()
        assert a.splits.tolist() == b.splits.tolist()
        assert a.families.tolist() == b.families.tolist()

    def test_seed_changes_output(self):
        base = dataclasses.replace(default_scenario(), n_benign=500, n_malicious=500)
        a = generate(dataclasses.replace(base, seed=1))
        b = generate(dataclasses.replace(base, seed=2))
        assert not np.array_equal(a.scores, b.scores)

    def test_layout_and_shapes(self):
        config = SynthConfig(n_benign=300, n_malicious=200, member_count=7, seed=4)
        ds = generate(config)
        assert len(ds) == 500
        assert ds.member_count == 7
        assert ds.labels.tolist() == [0] * 300 + [1] * 200
        assert ds.sample_ids[0] == "syn-0" and ds.sample_ids[-1] == "syn-499"
        assert np.all(ds.scores >= 0.0) and np.all(ds.scores <= 1.0)
        assert all(f is None for f in ds.families[:300])
        assert all(f is not None for f in ds.families[300:])

    def test_novel_rows_are_test_only_with_fresh_families(self):
        config = SynthConfig(n_benign=1000, n_malicious=1000, novel_fraction=0.25, seed=6)
        ds = generate(config)
        novel = np.array([f is not None and f.startswith("fam_n") for f in ds.families])
        assert novel.sum() == 250
        assert all(s == "test" for s in ds.splits[novel])
        seen = {f for f in ds.families[~novel] if f is not None}
        fresh = set(ds.families[novel])
        assert seen and fresh and not (seen & fresh)

    def test_split_fractions_roughly_honored(self):
        config = SynthConfig(n_benign=20_000, n_malicious=20_000, seed=7,
                             split_fractions=(0.6, 0.2, 0.2))
        ds = generate(config)
        for name, frac in zip(("train", "validation", "test"), (0.6, 0.2, 0.2)):
            got = (ds.splits == name).mean()
            assert abs(got - frac) < 4.0 * math.sqrt(frac * (1 - frac) / len(ds))

    def test_zero_member_noise_gives_zero_epistemic(self):
        config = SynthConfig(n_benign=500, n_malicious=500, member_noise_sd_base=0.0,
                             member_noise_sd_novel=0.0, seed=8)
        ds = generate(config)
        table = compute_uncertainties(ds)
        assert float(np.max(table.epistemic)) == 0.0
        np.testing.assert_array_equal(table.predictive_entropy, table.aleatoric)

    def test_elevated_noise_raises_epistemic(self):
        quiet = SynthConfig(n_benign=2000, n_malicious=2000, member_noise_sd_base=0.1,
                            member_noise_sd_novel=0.1, seed=9)
        loud = dataclasses.replace(quiet, member_noise_sd_base=2.0, member_noise_sd_novel=2.0)
        e_quiet = compute_uncertainties(generate(quiet)).epistemic.mean()
        e_loud = compute_uncertainties(generate(loud)).epistemic.mean()
        assert e_loud > 5.0 * e_quiet

    def test_empty_class_allowed_at_generation(self):
        ds = generate(SynthConfig(n_benign=10, n_malicious=0, seed=1))
        assert len(ds) == 10 and ds.labels.sum() == 0


class TestClosedFormSeparability:
    def test_noise_free_auc_matches_gaussian_overlap(self):
        # with zero member noise the score is a monotone map of the latent,
        # so AUC = P(latent_mal > latent_ben) for two normals
        delta, sd = 3.0, 1.2
        config = SynthConfig(
            n_benign=30_000, n_malicious=30_000,
            benign_logit_mean=-delta / 2, malicious_logit_mean=delta / 2,
            logit_sd=sd, member_noise_sd_base=0.0, member_noise_sd_novel=0.0, seed=10,
        )
        ds = generate(config)
        expected = normal_cdf(delta / (sd * math.sqrt(2.0)))
        got = auc(roc_curve(ds.scores.mean(axis=1), ds.labels))
        assert got == pytest.approx(expected, abs=0.01)

    def test_wide_separation_is_near_perfect(self):
        config = SynthConfig(n_benign=2000, n_malicious=2000, benign_logit_mean=-8.0,
                             malicious_logit_mean=8.0, logit_sd=0.5, seed=11)
        ds = generate(config)
        assert auc(roc_curve(ds.scores.mean(axis=1), ds.labels)) > 0.9999


class TestOracleMetrics:
    def test_independent_stream(self):
        config = SynthConfig(n_benign=1000, n_malicious=1000, seed=12)
        before = generate(config).scores.copy()
        oracle = oracle_metrics(config, n_oracle=2000)
        np.testing.assert_array_equal(generate(config).scores, before)
        # same sizes, different stream: the draws must differ
        assert oracle.n_oracle == 2000
        assert 0.5 < oracle.auc <= 1.0

    def test_agrees_with_empirical_counting(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            delta = float(rng.uniform(1.5, 5.0))
            config = SynthConfig(
                n_benign=15_000, n_malicious=15_000,
                benign_logit_mean=-delta / 2, malicious_logit_mean=delta / 2,
                logit_sd=float(rng.uniform(0.8, 1.6)),
                member_noise_sd_base=float(rng.uniform(0.0, 1.0)),
                member_noise_sd_novel=2.0,
                seed=100 + trial,
            )
            oracle = oracle_metrics(config, n_oracle=30_000, fprs=(1e-2,))
            ds = generate(config)
            means = ds.scores.mean(axis=1)
            got_auc = auc(roc_curve(means, ds.labels))
            got_tpr = select_threshold(means, ds.labels, 1e-2).tpr
            assert got_auc == pytest.approx(oracle.auc, abs=0.02)
            # TPR sits on a steep ROC segment, so threshold sampling noise
            # moves it more than the AUC; a stream or mapping bug moves it far
            assert got_tpr == pytest.approx(oracle.tpr_at[1e-2], abs=0.08)

    def test_argument_validation(self):
        config = SynthConfig(n_benign=10, n_malicious=10)
        with pytest.raises(ValueError):
            oracle_metrics(config, n_oracle=1)
        with pytest.raises(ValueError):
            oracle_metrics(config, n_oracle=100, fprs=(0.0,))
        with pytest.raises(ValueError):
            oracle_metrics(SynthConfig(n_benign=0, n_malicious=0), n_oracle=100)


class TestScenarios:
    def test_all_factories_generate_valid_data(self):
        for factory in (default_scenario, heteroscedastic_scenario, noisy_fp_scenario, novelty_scenario):
            config = dataclasses.replace(factory(seed=1), n_benign=800, n_malicious=800)
            ds = generate(config)
            assert len(ds) == 1600

    def test_novelty_scenario_has_novel_test_families(self):
        config = dataclasses.replace(novelty_scenario(seed=2), n_benign=2000, n_malicious=2000)
        test = filter_split(generate(config), "test")
        assert any(f is not None and f.startswith("fam_n") for f in test.families)

    def test_protocol_scenarios_hold_out_no_training_data(self):
        for factory in (default_scenario, heteroscedastic_scenario, noisy_fp_scenario):
            assert factory().split_fractions[0] == 0.0
