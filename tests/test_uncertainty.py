import math

import numpy as np
import pytest

from lowfpr.data import PredictionDataset
from lowfpr.uncertainty import (
    binary_entropy,
    compute_uncertainties,
    uncertainty_triple,
)

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


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # -0.25 ln 0.25 - 0.75 ln 0.75
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(0, 1, size=10_000)
        h = binary_entropy(p)
        np.testing.assert_allclose(h, binary_entropy(1.0 - p), atol=1e-15)
        assert np.all(h >= 0.0) and np.all(h <= LN2 + 1e-15)

    def test_maximum_at_half(self):
        p = np.linspace(0.001, 0.999, 999)
        h = binary_entropy(p)
        assert np.argmax(h) == np.argmin(np.abs(p - 0.5))

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                binary_entropy(bad)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.5, 1.2]))

    def test_high_precision_oracle(self):
        # Compare float64 against the same formula in extended precision.
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, size=5_000)
        pl = p.astype(np.longdouble)
        expect = -(pl * np.log(pl) + (1 - pl) * np.log1p(-pl))
        np.testing.assert_allclose(binary_entropy(p), expect.astype(np.float64), atol=1e-12)


class TestUncertaintyTriple:
    def test_identical_members_have_zero_epistemic(self):
        tri = uncertainty_triple([0.3, 0.3, 0.3])
        assert tri.predictive_entropy == pytest.approx(0.6108643020548935, abs=1e-12)
        assert tri.aleatoric == pytest.approx(tri.predictive_entropy, abs=1e-15)
        assert tri.epistemic == 0.0

    def test_total_disagreement_is_pure_epistemic(self):
        tri = uncertainty_triple([1.0, 0.0])
        assert tri.predictive_entropy == pytest.approx(LN2, abs=1e-15)
        assert tri.aleatoric == 0.0
        assert tri.epistemic == pytest.approx(LN2, abs=1e-15)

    def test_single_member_has_zero_epistemic(self):
        rng = np.random.default_rng(0)
        for p in rng.uniform(0, 1, size=50):
            tri = uncertainty_triple([p])
            assert tri.epistemic == 0.0
            assert tri.predictive_entropy == tri.aleatoric

    def test_constant_vectors_decompose_exactly(self):
        # odd member counts make the row mean round away from the member
        # value; the decomposition must still report zero disagreement
        rng = np.random.default_rng(11)
        for t in range(1, 9):
            for p in rng.uniform(0, 1, size=20):
                tri = uncertainty_triple([p] * t)
                assert tri.epistemic == 0.0
                assert tri.aleatoric == tri.predictive_entropy

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.uniform(0, 1, size=rng.integers(2, 9))
            a = uncertainty_triple(v)
            b = uncertainty_triple(v[rng.permutation(v.size)])
            assert a.predictive_entropy == pytest.approx(b.predictive_entropy, abs=1e-12)
            assert a.aleatoric == pytest.approx(b.aleatoric, abs=1e-12)
            assert a.epistemic == pytest.approx(b.epistemic, abs=1e-12)

    def test_swap_symmetry(self):
        # Swapping the class (s -> 1-s for every member) preserves all three.
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.uniform(0, 1, size=rng.integers(1, 9))
            a = uncertainty_triple(v)
            b = uncertainty_triple(1.0 - v)
            assert a.predictive_entropy == pytest.approx(b.predictive_entropy, abs=1e-12)
            assert a.aleatoric == pytest.approx(b.aleatoric, abs=1e-12)
            assert a.epistemic == pytest.approx(b.epistemic, abs=1e-12)

    def test_bounds_and_jensen_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            v = rng.uniform(0, 1, size=rng.integers(1, 9))
            tri = uncertainty_triple(v)
            assert 0.0 <= tri.aleatoric <= tri.predictive_entropy + 1e-12
            assert tri.predictive_entropy <= LN2 + 1e-15
            assert tri.epistemic >= 0.0
            assert tri.epistemic == pytest.approx(tri.predictive_entropy - tri.aleatoric, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            uncertainty_triple([])
        with pytest.raises(ValueError):
            uncertainty_triple([0.5, 1.5])


class TestComputeUncertainties:
    def test_matches_per_sample_triples(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, size=(200, 4))
        table = compute_uncertainties(dataset_from_scores(scores))
        for i in range(0, 200, 17):
            tri = uncertainty_triple(scores[i])
            assert table.yhat[i] == pytest.approx(scores[i].mean(), abs=1e-15)
            assert table.predictive_entropy[i] == pytest.approx(tri.predictive_entropy, abs=1e-14)
            assert table.aleatoric[i] == pytest.approx(tri.aleatoric, abs=1e-14)
            assert table.epistemic[i] == pytest.approx(tri.epistemic, abs=1e-14)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            compute_uncertainties(_empty())

    def test_measure_selector(self):
        table = compute_uncertainties(dataset_from_scores([[0.2, 0.8], [0.5, 0.5]]))
        np.testing.assert_array_equal(table.measure("epistemic"), table.epistemic)
        with pytest.raises(ValueError, match="measure"):
            table.measure("total")

    def test_csv_columns(self, tmp_path):
        table = compute_uncertainties(dataset_from_scores([[0.2, 0.8]]))
        out = tmp_path / "u.csv"
        table.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,yhat,pred_entropy,aleatoric,epistemic"
        fields = lines[1].split(",")
        assert fields[0] == "s0" and float(fields[1]) == 0.5


def _empty():
    return PredictionDataset(
        sample_ids=np.array([], dtype=object),
        labels=np.array([], dtype=np.int64),
        splits=np.array([], dtype=object),
        families=np.array([], dtype=object),
        scores=np.zeros((0, 3)),
    )
