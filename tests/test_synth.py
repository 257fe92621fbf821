import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lowfpr.data import PredictionDataset, filter_split, load_dataset, save_dataset
from lowfpr.rocmetrics import auc, roc_curve, select_threshold
from lowfpr.synth import (
    _BLOCK_ROWS,
    SynthConfig,
    _generate_with,
    _rng,
    _sigmoid,
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
        with pytest.raises(ValueError, match=r"^member_noise_sd_base must be in \[0, 1e\+300\], got -1.0$"):
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
        with pytest.raises(ValueError, match=r"^split_fractions\[1\] must be a number, got '0.25'$"):
            SynthConfig.from_dict({"split_fractions": [0.5, "0.25", 0.25]})
        assert SynthConfig.from_dict({"logit_sd": 2, "split_fractions": [1, 0, 0]}).logit_sd == 2

    @pytest.mark.parametrize("field", ["n_benign", "n_malicious", "member_count", "seed"])
    @pytest.mark.parametrize("value", [1.5, 10.0, True, "7"], ids=["fraction", "whole-float", "bool", "string"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError) as exc:
            SynthConfig(**{field: value})
        assert str(exc.value) == f"{field} must be an integer, got {value!r}"

    def test_integer_fields_take_numpy_integers_as_int(self):
        config = SynthConfig(n_benign=np.int64(30), n_malicious=np.int32(20), member_count=np.uint8(3), seed=np.int64(4))
        assert [type(getattr(config, f)) for f in ("n_benign", "n_malicious", "member_count", "seed")] == [int] * 4
        assert SynthConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
        assert generate(config).scores.tobytes() == generate(SynthConfig(30, 20, 3, seed=4)).scores.tobytes()

    def test_numpy_floats_and_fraction_array_accepted(self):
        config = SynthConfig(logit_sd=np.float32(1.5), split_fractions=np.array([0.5, 0.25, 0.25]), seed=2)
        assert (config.logit_sd, config.split_fractions) == (1.5, (0.5, 0.25, 0.25))
        assert type(config.logit_sd) is float
        config = SynthConfig(logit_sd=np.int64(2), split_fractions=[np.int32(1), 0, np.float16(0)])
        assert (config.logit_sd, config.split_fractions) == (2.0, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("logit_sd", "2", "logit_sd must be a number, got '2'"),
            ("logit_sd", True, "logit_sd must be a number, got True"),
            ("benign_logit_mean", np.bool_(False), "benign_logit_mean must be a number, got np.False_"),
            ("split_fractions", ("0.5", 0.25, 0.25), "split_fractions[0] must be a number, got '0.5'"),
            ("split_fractions", 3, "split_fractions must be a list of three numbers, got 3"),
            ("split_fractions", [1.0, 0.0], "split_fractions must be a list of three numbers, got [1.0, 0.0]"),
        ],
        ids=["string", "bool", "numpy-bool", "string-fraction", "scalar-fractions", "two-fractions"],
    )
    def test_python_values_follow_the_json_number_rule(self, field, value, message):
        # SynthConfig(...) and from_dict share one rule: a Python or numpy real, not a bool or a string
        for make in (lambda: SynthConfig(**{field: value}), lambda: SynthConfig.from_dict({field: value})):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message

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

    @pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (-1, 1)], ids=["positive", "negative", "mixed"])
    def test_float_fields_at_the_bound_give_scores_in_the_unit_interval(self, signs):
        # generate does not check the dataset it builds: the config's +-1e300 bound alone must keep
        # every logit finite, with no overflow warning and no NaN score.
        benign, malicious = (sign * 1e300 for sign in signs)
        config = SynthConfig(
            n_benign=3000, n_malicious=3000, novel_fraction=0.3, ambiguous_benign_fraction=0.3,
            ambiguous_malicious_fraction=0.3, benign_logit_mean=benign, ambiguous_benign_logit_mean=benign,
            malicious_logit_mean=malicious, ambiguous_malicious_logit_mean=malicious, novel_logit_mean=malicious,
            logit_sd=1e300, member_noise_sd_base=1e300, member_noise_sd_novel=1e300, seed=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = generate(config)
        assert np.all(ds.scores >= 0.0) and np.all(ds.scores <= 1.0)


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
        # generate wraps its columns unchecked; the public constructor runs the full schema check.
        n = _BLOCK_ROWS // 2 + 1
        for factory in (default_scenario, heteroscedastic_scenario, noisy_fp_scenario, novelty_scenario):
            ds = generate(dataclasses.replace(factory(seed=1), n_benign=n, n_malicious=n))
            assert len(ds) == 2 * n > _BLOCK_ROWS
            PredictionDataset(ds.sample_ids, ds.labels, ds.splits, ds.families, ds.scores)

    def test_novelty_scenario_has_novel_test_families(self):
        config = dataclasses.replace(novelty_scenario(seed=2), n_benign=2000, n_malicious=2000)
        test = filter_split(generate(config), "test")
        assert any(f is not None and f.startswith("fam_n") for f in test.families)

    def test_protocol_scenarios_hold_out_no_training_data(self):
        for factory in (default_scenario, heteroscedastic_scenario, noisy_fp_scenario):
            assert factory().split_fractions[0] == 0.0


# sha256 of dataset_digest(generate(...)) for each named scenario at seed 3
# with 1,500 rows per class. Recorded with Python 3.11 and numpy 2.4 on x86-64.
GENERATED_DIGESTS = {
    "default_scenario": "5455765c158e53212a71eac17103dfb7c2f04f6adf4b6a7819da1f6dd6221c22",
    "heteroscedastic_scenario": "b9ec7a94150d50ef4553a5ca09135f4b0c0bfd745ddfee74ac8f2a993955947a",
    "noisy_fp_scenario": "09a1fa59699981fbe3b4dddb85499127839ee6631079e43ba5b39d4da12490b3",
    "novelty_scenario": "bfbcc3941fc4c4147b8110feeed5b67e723f440c9d8a5c7c68f95908a4afe704",
}

# The same at 10,000 benign and 9,001 malicious rows, recorded before generate built its columns in row
# blocks: 19,001 rows span two full blocks and end on a partial one, and every scenario leaves at least
# one of the five clusters empty.
BLOCKED_ROWS = (10_000, 9_001)
BLOCKED_DIGESTS = {
    "default_scenario": "eaf0e0cd45fe7301e7a4a4b4285572e721e5688d34263e805922bcc7233af635",
    "heteroscedastic_scenario": "2a9ef08a0c9ca1cf821b8d5912e2e600985b1fd04a11e614d8441c3a034e3ae1",
    "noisy_fp_scenario": "eb29d190bbc2560156e541cb13877f0d7fff06ba5fb6346cb6107930fb3d8cfe",
    "novelty_scenario": "74def991c7b41490f9c706b5dfaee84381c687f64014eff0db35d0fd1aff11bc",
}


def dataset_digest(ds) -> str:
    """sha256 over the shapes and dtypes, the score and label bytes, then ids, splits and families as text."""
    h = hashlib.sha256(repr((ds.scores.shape, ds.scores.dtype.str, ds.labels.dtype.str)).encode())
    h.update(ds.scores.tobytes())
    h.update(ds.labels.tobytes())
    for col in (ds.sample_ids, ds.splits, ds.families):
        h.update(repr(col.tolist()).encode())
    return h.hexdigest()


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The out-of-place logistic map that ``_sigmoid`` must match bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def traced_peak(call) -> int:
    """tracemalloc's peak during ``call()`` in bytes above the start, its result held until it is read."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()  # held while the peak is read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


class TestGeneratedBytes:
    @pytest.mark.parametrize(
        "factory", [default_scenario, heteroscedastic_scenario, noisy_fp_scenario, novelty_scenario],
        ids=lambda f: f.__name__,
    )
    def test_named_scenarios_keep_their_bytes(self, factory):
        ds = generate(dataclasses.replace(factory(seed=3), n_benign=1500, n_malicious=1500))
        assert dataset_digest(ds) == GENERATED_DIGESTS[factory.__name__]

    @pytest.mark.parametrize(
        "factory", [default_scenario, heteroscedastic_scenario, noisy_fp_scenario, novelty_scenario],
        ids=lambda f: f.__name__,
    )
    def test_named_scenarios_keep_their_bytes_over_several_blocks(self, factory):
        nb, nm = BLOCKED_ROWS
        assert nb + nm > 2 * _BLOCK_ROWS and (nb + nm) % _BLOCK_ROWS
        ds = generate(dataclasses.replace(factory(seed=3), n_benign=nb, n_malicious=nm))
        assert dataset_digest(ds) == BLOCKED_DIGESTS[factory.__name__]

    def test_in_place_logistic_map_matches_the_reference_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300,
                          36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0])
        rng = np.random.default_rng(4)
        normals = rng.normal(size=10**5) * rng.uniform(0.0, 10.0, size=10**5)
        for x in (edges, normals, normals.reshape(-1, 5)):
            work = x.copy()
            assert _sigmoid(work) is work
            assert work.tobytes() == reference_sigmoid(x).tobytes()


class TestMemoryPeak:
    """generate, PredictionDataset(...) and the bulk CSV load each peak under a bound in bytes per row.

    At 20k rows of 5 members, generate peaks at 93 bytes a row (99 when it
    ran the full column check over the dataset it had just built), the
    constructor at 91 and the CSV load at 230. With ids in an object array
    of ``str`` and a load that parsed a decoded, split copy of the file, they
    read 151, 83 and 348: the constructor's StringDType copy of the ids costs
    16 bytes a row, where an object array shared the caller's strings at 8.
    A bound per row does not punish a result that keeps less, as a bound on
    the peak over the kept memory would. tracemalloc sees numpy's buffers as
    well as Python objects, and its counts repeat exactly.

    ``_sigmoid`` and ``save_dataset`` work a block of rows at a time, so their
    bounds are fixed byte counts. On 100k x 5 scores the logistic map peaks at
    0.70 MB (4.50 MB with full-size mask and denominator); writing 20k rows
    peaks at 0.52 MB as CSV and 0.83 MB as JSON Lines (2.00 and 3.25 MB with
    4,096-row blocks).
    """

    GENERATE_BOUND = 96
    CONSTRUCTOR_BOUND = 100
    LOAD_BOUND = 300
    SIGMOID_BOUND = 1 << 20
    SAVE_BOUND = 1 << 20

    CONFIG = dataclasses.replace(heteroscedastic_scenario(seed=3), n_benign=10_000, n_malicious=10_000)
    ROWS = 20_000

    def test_generate_and_bulk_load_peaks(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(generate(dataclasses.replace(self.CONFIG, n_benign=10, n_malicious=10)), path)
        load_dataset(path)  # the first calls import what later calls would otherwise count
        assert traced_peak(lambda: generate(self.CONFIG)) <= self.GENERATE_BOUND * self.ROWS
        save_dataset(generate(self.CONFIG), path)
        assert traced_peak(lambda: load_dataset(path)) <= self.LOAD_BOUND * self.ROWS

    def test_constructor_peak(self):
        small, ds = (generate(dataclasses.replace(self.CONFIG, n_benign=n, n_malicious=n)) for n in (10, 10_000))
        columns = [ds.sample_ids, ds.labels, ds.splits, ds.families, ds.scores]
        PredictionDataset(small.sample_ids, small.labels, small.splits, small.families, small.scores)  # imports, uncounted
        assert traced_peak(lambda: PredictionDataset(*columns)) <= self.CONSTRUCTOR_BOUND * self.ROWS

    def test_logistic_map_peak(self):
        x = np.random.default_rng(1).normal(size=(100_000, 5))
        _sigmoid(x[:10].copy())  # imports, uncounted
        assert traced_peak(lambda: _sigmoid(x)) <= self.SIGMOID_BOUND

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_save_peak(self, tmp_path, fmt):
        path = tmp_path / f"data.{fmt}"
        save_dataset(generate(dataclasses.replace(self.CONFIG, n_benign=10, n_malicious=10)), path, fmt)  # imports
        ds = generate(self.CONFIG)
        assert traced_peak(lambda: save_dataset(ds, path, fmt)) <= self.SAVE_BOUND
