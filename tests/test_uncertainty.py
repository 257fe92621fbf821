import math

import numpy as np
import pytest

from lowfpr import uncertainty
from lowfpr.data import DatasetError, PredictionDataset
from lowfpr.uncertainty import compute_uncertainties

LN2 = math.log(2.0)


def dataset_from_scores(scores):
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    return PredictionDataset(
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        labels=np.zeros(n, dtype=np.int64),
        splits=np.array(["test"] * n, dtype=object),
        families=np.array([None] * n, dtype=object),
        scores=scores,
    )


def entropy(p):
    """H(p) in nats: the predictive entropy of a one-member dataset scoring p."""
    return compute_uncertainties(dataset_from_scores(np.asarray(p, dtype=np.float64)[:, None])).predictive_entropy


class TestBinaryEntropy:
    """Binary entropy as the decomposition computes it, one member per row."""

    def test_known_values(self):
        h = entropy([0.5, 0.0, 1.0, 0.25])
        assert h[0] == pytest.approx(LN2, abs=1e-15)
        assert h[1] == 0.0
        assert h[2] == 0.0
        # -0.25 ln 0.25 - 0.75 ln 0.75
        assert h[3] == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(0, 1, size=10_000)
        h = entropy(p)
        np.testing.assert_allclose(h, entropy(1.0 - p), atol=1e-15)
        assert np.all(h >= 0.0) and np.all(h <= LN2 + 1e-15)

    def test_maximum_at_half(self):
        p = np.linspace(0.001, 0.999, 999)
        h = entropy(p)
        assert np.argmax(h) == np.argmin(np.abs(p - 0.5))

    def test_rejects_out_of_range(self):
        # the dataset constructor guards the entropy's domain, so no score
        # outside [0, 1] reaches the decomposition
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DatasetError, match=rf"^score m0={bad!r} outside \[0, 1\] for sample 's1'$"):
                entropy([0.5, bad])

    def test_high_precision_oracle(self):
        # Compare float64 against the same formula in extended precision.
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, size=5_000)
        pl = p.astype(np.longdouble)
        expect = -(pl * np.log(pl) + (1 - pl) * np.log1p(-pl))
        np.testing.assert_allclose(entropy(p), expect.astype(np.float64), atol=1e-12)


class TestUncertaintyTriple:
    """Invariants of each row's (predictive, aleatoric, epistemic) triple."""

    def test_identical_members_have_zero_epistemic(self):
        table = compute_uncertainties(dataset_from_scores([[0.3, 0.3, 0.3]]))
        assert table.predictive_entropy[0] == pytest.approx(0.6108643020548935, abs=1e-12)
        assert table.aleatoric[0] == pytest.approx(table.predictive_entropy[0], abs=1e-15)
        assert table.epistemic[0] == 0.0

    def test_total_disagreement_is_pure_epistemic(self):
        table = compute_uncertainties(dataset_from_scores([[1.0, 0.0]]))
        assert table.predictive_entropy[0] == pytest.approx(LN2, abs=1e-15)
        assert table.aleatoric[0] == 0.0
        assert table.epistemic[0] == pytest.approx(LN2, abs=1e-15)

    def test_single_member_has_zero_epistemic(self):
        rng = np.random.default_rng(0)
        table = compute_uncertainties(dataset_from_scores(rng.uniform(0, 1, size=(50, 1))))
        assert np.all(table.epistemic == 0.0)
        np.testing.assert_array_equal(table.predictive_entropy, table.aleatoric)

    def test_constant_vectors_decompose_exactly(self):
        # odd member counts make the row mean round away from the member
        # value; the decomposition must still report zero disagreement
        rng = np.random.default_rng(11)
        for t in range(1, 9):
            p = rng.uniform(0, 1, size=20)
            table = compute_uncertainties(dataset_from_scores(np.repeat(p[:, None], t, axis=1)))
            assert np.all(table.epistemic == 0.0)
            np.testing.assert_array_equal(table.aleatoric, table.predictive_entropy)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for t in range(2, 9):
            v = rng.uniform(0, 1, size=(100, t))
            shuffled = rng.permuted(v, axis=1)
            a = compute_uncertainties(dataset_from_scores(v))
            b = compute_uncertainties(dataset_from_scores(shuffled))
            np.testing.assert_allclose(a.predictive_entropy, b.predictive_entropy, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.aleatoric, b.aleatoric, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.epistemic, b.epistemic, rtol=0, atol=1e-12)

    def test_swap_symmetry(self):
        # Swapping the class (s -> 1-s for every member) preserves all three.
        rng = np.random.default_rng(4)
        for t in range(1, 9):
            v = rng.uniform(0, 1, size=(100, t))
            a = compute_uncertainties(dataset_from_scores(v))
            b = compute_uncertainties(dataset_from_scores(1.0 - v))
            np.testing.assert_allclose(a.predictive_entropy, b.predictive_entropy, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.aleatoric, b.aleatoric, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.epistemic, b.epistemic, rtol=0, atol=1e-12)

    def test_bounds_and_jensen_gap(self):
        rng = np.random.default_rng(5)
        for t in range(1, 9):
            table = compute_uncertainties(dataset_from_scores(rng.uniform(0, 1, size=(500, t))))
            assert np.all(table.aleatoric >= 0.0)
            assert np.all(table.aleatoric <= table.predictive_entropy + 1e-12)
            assert np.all(table.predictive_entropy <= LN2 + 1e-15)
            assert np.all(table.epistemic >= 0.0)
            np.testing.assert_allclose(
                table.epistemic, table.predictive_entropy - table.aleatoric, rtol=0, atol=1e-12
            )

    def test_cancellation_noise_is_clamped(self):
        # members one ULP apart: rounding can make predictive - aleatoric
        # slightly negative, which the decomposition clamps to an exact zero gap
        p = np.random.default_rng(6).uniform(0.01, 0.99, size=(2000, 1))
        table = compute_uncertainties(dataset_from_scores(np.concatenate([p, np.nextafter(p, 1.0), p], axis=1)))
        assert np.all(table.aleatoric <= table.predictive_entropy)
        assert np.all(table.epistemic >= 0.0)
        np.testing.assert_array_equal(table.epistemic, np.maximum(table.predictive_entropy - table.aleatoric, 0.0))

    def test_rejects_bad_input(self):
        # the dataset constructor refuses a sample with no members or an
        # out-of-range member score before any decomposition runs
        with pytest.raises(DatasetError, match="^member count must be at least 1$"):
            dataset_from_scores(np.empty((1, 0)))
        with pytest.raises(DatasetError, match=r"^score m1=1\.5 outside \[0, 1\] for sample 's0'$"):
            dataset_from_scores([[0.5, 1.5]])


class TestComputeUncertainties:
    def test_matches_per_sample_triples(self):
        # each row's values equal those of a one-row dataset holding that row
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, size=(200, 4))
        table = compute_uncertainties(dataset_from_scores(scores))
        for i in range(200):
            row = compute_uncertainties(dataset_from_scores(scores[i : i + 1]))
            assert table.yhat[i] == pytest.approx(scores[i].mean(), abs=1e-15)
            assert table.yhat[i] == pytest.approx(row.yhat[0], abs=1e-15)
            assert table.predictive_entropy[i] == pytest.approx(row.predictive_entropy[0], abs=1e-14)
            assert table.aleatoric[i] == pytest.approx(row.aleatoric[0], abs=1e-14)
            assert table.epistemic[i] == pytest.approx(row.epistemic[0], abs=1e-14)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            compute_uncertainties(_empty())

    def test_cancellation_floor_is_one_check(self, monkeypatch):
        monkeypatch.setattr(uncertainty, "_EPISTEMIC_FLOOR", 1.0)  # every real epistemic value is below it
        floor = r"epistemic uncertainty 0\.\d+ below the cancellation floor"
        with pytest.raises(RuntimeError, match=rf"^{floor} for sample 's0'; decomposition is inconsistent$"):
            compute_uncertainties(dataset_from_scores([[0.2, 0.8]]))

    def test_measure_selector(self):
        table = compute_uncertainties(dataset_from_scores([[0.2, 0.8], [0.5, 0.5]]))
        np.testing.assert_array_equal(table.measure("epistemic"), table.epistemic)
        with pytest.raises(ValueError, match="measure"):
            table.measure("total")


def _empty():
    return PredictionDataset(
        sample_ids=np.array([], dtype=object),
        labels=np.array([], dtype=np.int64),
        splits=np.array([], dtype=object),
        families=np.array([], dtype=object),
        scores=np.zeros((0, 3)),
    )
