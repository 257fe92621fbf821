import numpy as np
import pytest

from lowfpr.data import (
    DatasetError,
    PredictionDataset,
    filter_split,
    load_dataset,
    save_dataset,
    subsample,
)


def make_dataset(n=12, t=3, seed=0, split="validation"):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    return PredictionDataset(
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        labels=labels,
        splits=np.array([split] * n, dtype=object),
        families=np.array([f"fam{i % 2}" if lab == 1 else None for i, lab in enumerate(labels)], dtype=object),
        scores=rng.uniform(0, 1, size=(n, t)),
    )


class TestRoundTrip:
    """Loading a saved dataset reproduces it bit for bit."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip(self, fmt, tmp_path):
        ds = make_dataset(seed=3)
        path = tmp_path / f"data.{fmt}"
        save_dataset(ds, path, fmt)
        back = load_dataset(path, fmt)
        assert list(back.sample_ids) == list(ds.sample_ids)
        assert list(back.labels) == list(ds.labels)
        assert list(back.splits) == list(ds.splits)
        assert list(back.families) == list(ds.families)
        np.testing.assert_array_equal(back.scores, ds.scores)

    def test_save_is_deterministic(self, tmp_path):
        ds = make_dataset(seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, a)
        save_dataset(ds, b)
        assert a.read_bytes() == b.read_bytes()


class TestCsvValidation:
    HEADER = "sample_id,label,split,family,m0,m1\n"

    def load(self, tmp_path, body, fmt="csv"):
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + body)
        return load_dataset(path, fmt)

    def test_minimal_valid(self, tmp_path):
        ds = self.load(tmp_path, "a,0,train,,0.1,0.2\nb,1,test,famX,0.9,0.8\n")
        assert len(ds) == 2 and ds.member_count == 2
        assert ds.families[0] is None and ds.families[1] == "famX"

    def test_score_out_of_range_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 3.*m1.*1.2"):
            self.load(tmp_path, "a,0,train,,0.1,0.2\nb,1,test,famX,0.9,1.2\n")

    def test_malformed_number_cites_line_and_field(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2.*m0"):
            self.load(tmp_path, "a,0,train,,abc,0.2\n")

    def test_wrong_field_count_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2: expected 6 fields, got 5"):
            self.load(tmp_path, "a,0,train,,0.1\n")

    def test_missing_header_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,family,m0\nx,0,,0.5\n")
        with pytest.raises(DatasetError, match="split"):
            load_dataset(path)

    def test_bad_label(self, tmp_path):
        with pytest.raises(DatasetError, match="label"):
            self.load(tmp_path, "a,2,train,,0.1,0.2\n")

    def test_bad_split(self, tmp_path):
        with pytest.raises(DatasetError, match="split"):
            self.load(tmp_path, "a,0,dev,,0.1,0.2\n")

    def test_family_on_benign_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="benign.*'a'.*famX"):
            self.load(tmp_path, "a,0,train,famX,0.1,0.2\n")

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate sample_id 'a'"):
            self.load(tmp_path, "a,0,train,,0.1,0.2\na,0,train,,0.3,0.4\n")

    def test_boundary_scores_accepted(self, tmp_path):
        ds = self.load(tmp_path, "a,0,train,,0.0,1.0\n")
        assert ds.scores[0, 0] == 0.0 and ds.scores[0, 1] == 1.0


class TestJsonlValidation:
    def load_lines(self, tmp_path, lines):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return load_dataset(path, "jsonl")

    def test_member_count_mismatch_names_sample(self, tmp_path):
        lines = [
            '{"id": "a", "label": 1, "split": "test", "family": "f1", "scores": [0.1, 0.2, 0.3, 0.4, 0.5]}',
            '{"id": "b", "label": 0, "split": "test", "family": null, "scores": [0.1, 0.2, 0.3, 0.4]}',
        ]
        with pytest.raises(DatasetError, match="sample 'b'.*expected 5, got 4"):
            self.load_lines(tmp_path, lines)

    def test_missing_key_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 1.*'split'"):
            self.load_lines(tmp_path, ['{"id": "a", "label": 0, "family": null, "scores": [0.5]}'])

    def test_invalid_json_cites_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2"):
            self.load_lines(
                tmp_path,
                ['{"id": "a", "label": 0, "split": "train", "family": null, "scores": [0.5]}', "{not json"],
            )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path, "jsonl")


class TestFilterSplit:
    def test_partition(self):
        rng = np.random.default_rng(7)
        n = 60
        splits = rng.choice(["train", "validation", "test"], size=n)
        ds = PredictionDataset(
            sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
            labels=np.zeros(n, dtype=np.int64),
            splits=splits,
            families=np.array([None] * n, dtype=object),
            scores=rng.uniform(0, 1, (n, 2)),
        )
        parts = [filter_split(ds, s) for s in ("train", "validation", "test")]
        assert sum(len(p) for p in parts) == n
        collected = sorted(sid for p in parts for sid in p.sample_ids)
        assert collected == sorted(ds.sample_ids)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="unknown split"):
            filter_split(make_dataset(), "dev")

    def test_empty_result_allowed(self):
        assert len(filter_split(make_dataset(split="test"), "train")) == 0


class TestSubsample:
    """Subsampling is seeded, size-exact under round-half-to-even, uniform."""

    def test_round_half_to_even(self):
        ds = make_dataset(n=10)
        assert len(subsample(ds, 0.25, seed=0)) == 2  # 2.5 rounds to 2
        assert len(subsample(ds, 0.35, seed=0)) == 4  # 3.5 rounds to 4
        assert len(subsample(ds, 0.5, seed=0)) == 5

    def test_at_least_one_record(self):
        ds = make_dataset(n=9)
        assert len(subsample(ds, 0.01, seed=1)) == 1

    def test_same_seed_same_subset(self):
        ds = make_dataset(n=50, seed=2)
        a = subsample(ds, 0.3, seed=11)
        b = subsample(ds, 0.3, seed=11)
        assert list(a.sample_ids) == list(b.sample_ids)
        c = subsample(ds, 0.3, seed=12)
        assert list(a.sample_ids) != list(c.sample_ids)

    def test_fraction_one_keeps_every_record(self):
        ds = make_dataset(n=23, seed=4)
        out = subsample(ds, 1.0, seed=9)
        assert sorted(out.sample_ids) == sorted(ds.sample_ids)
        out2 = subsample(ds, 1.0, seed=9)
        assert list(out.sample_ids) == list(out2.sample_ids)

    def test_fraction_bounds(self):
        ds = make_dataset()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                subsample(ds, bad, seed=0)

    def test_rows_stay_aligned(self):
        ds = make_dataset(n=40, seed=8)
        out = subsample(ds, 0.5, seed=3)
        lookup = {sid: i for i, sid in enumerate(ds.sample_ids)}
        for j, sid in enumerate(out.sample_ids):
            i = lookup[sid]
            assert out.labels[j] == ds.labels[i]
            np.testing.assert_array_equal(out.scores[j], ds.scores[i])


class TestImmutability:
    def test_columns_are_read_only(self):
        ds = make_dataset()
        for col in (ds.scores, ds.labels, ds.splits, ds.families, ds.sample_ids):
            with pytest.raises(ValueError):
                col[0] = col[0]
