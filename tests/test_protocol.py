import dataclasses
import re

import numpy as np
import pytest

from lowfpr.data import PredictionDataset, filter_split
from lowfpr.protocol import (
    ProtocolCurvePoint,
    StudyRow,
    _cell_rows,
    _class_scores,
    _rel_error,
    relative_error_curve,
    subsampling_study,
    write_protocol_csv,
    write_study_csv,
)
from lowfpr.rocmetrics import evaluate_at_threshold, select_threshold
from lowfpr.synth import SynthConfig, default_scenario, generate


@pytest.fixture(scope="module")
def splits():
    config = dataclasses.replace(default_scenario(seed=21), n_benign=8000, n_malicious=8000)
    data = generate(config)
    return filter_split(data, "validation"), filter_split(data, "test")


def _tiny(scores, labels, split="test"):
    n = len(scores)
    return PredictionDataset(
        sample_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        labels=np.array(labels, dtype=np.int64),
        splits=np.array([split] * n, dtype=object),
        families=np.full(n, None, dtype=object),
        scores=np.array(scores, dtype=np.float64).reshape(n, 1),
    )


class TestProtocolEvals:
    """relative_error_curve against the public pieces: select on validation, evaluate on test; invalid selects on test."""

    def test_invalid_is_threshold_selection_on_test(self, splits):
        val, test = splits
        targets = [1e-1, 1e-2]
        means = test.scores.mean(axis=1)
        for t, point in zip(targets, relative_error_curve(val, test, targets)):
            selected = select_threshold(means, test.labels, t)
            assert point.invalid_tpr == selected.tpr
            assert selected.fpr <= t

    def test_valid_equals_invalid_when_same_split(self, splits):
        _, test = splits
        targets = [1e-1, 1e-2, 1e-3]
        means = test.scores.mean(axis=1)
        for t, point in zip(targets, relative_error_curve(test, test, targets)):
            selected = select_threshold(means, test.labels, t)
            assert (point.valid_tpr, point.valid_actualized_fpr) == (selected.tpr, selected.fpr)
            assert point.invalid_tpr == point.valid_tpr
            assert point.rel_error == 0.0

    def test_valid_carries_threshold_not_rates(self, splits):
        val, test = splits
        n_neg = int((val.labels == 0).sum())
        # 1/n_neg admits one validation false positive, its lower neighbour none
        targets = [1e-1, 1e-2, 1e-3, 1 / n_neg, float(np.nextafter(1 / n_neg, 0.0)), 1e-5]
        val_means, test_means = val.scores.mean(axis=1), test.scores.mean(axis=1)
        for t, point in zip(targets, relative_error_curve(val, test, targets)):
            selected = select_threshold(val_means, val.labels, t)
            # test-split FPR is whatever the carried threshold actualizes; it is
            # not constrained to sit inside the target budget
            op = evaluate_at_threshold(test_means, test.labels, selected.threshold)
            invalid = select_threshold(test_means, test.labels, t)
            assert point == ProtocolCurvePoint(t, op.tpr, op.fpr, invalid.tpr, _rel_error(invalid.tpr, op.tpr))

    def test_rejects_empty_or_single_class(self, splits):
        val, test = splits
        with pytest.raises(ValueError, match="^target_fprs is empty$"):
            relative_error_curve(val, test, [])
        empty = filter_split(test, "train")  # empty under this scenario
        for a, b in ((empty, test), (val, empty)):
            with pytest.raises(ValueError, match="^protocol evaluation needs both classes present$"):
                relative_error_curve(a, b, [1e-2])
        one_class = _tiny([0.2, 0.3], [0, 0])
        for a, b in ((one_class, test), (val, one_class)):
            with pytest.raises(ValueError, match="^protocol evaluation needs both classes present$"):
                relative_error_curve(a, b, [1e-2])
        for bad in (0.0, 1.0, 1.5, -1e-3, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"target_fpr must be in (0, 1), got {bad!r}")):
                relative_error_curve(val, test, [1e-2, bad])


class TestRelativeErrorCurve:
    def test_separable_scores_agree_everywhere(self):
        config = SynthConfig(
            n_benign=4000, n_malicious=4000,
            benign_logit_mean=-9.0, malicious_logit_mean=9.0,
            logit_sd=0.4, member_noise_sd_base=0.05, member_noise_sd_novel=0.05,
            split_fractions=(0.0, 0.5, 0.5), seed=22,
        )
        data = generate(config)
        points = relative_error_curve(
            filter_split(data, "validation"), filter_split(data, "test"), [1e-1, 1e-2]
        )
        for p in points:
            assert p.rel_error == pytest.approx(0.0, abs=1e-9)
            assert p.valid_tpr == pytest.approx(1.0, abs=1e-3)

    def test_error_grows_as_target_shrinks(self, splits):
        val, test = splits
        points = relative_error_curve(val, test, [1e-1, 1e-3])
        assert points[0].rel_error is not None and points[1].rel_error is not None
        assert points[1].rel_error > points[0].rel_error

    def test_zero_valid_tpr_gives_none(self):
        # every validation positive scores below every negative, so the only
        # feasible threshold is the sentinel and the carried TPR is zero
        val = _tiny([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1])
        test = _tiny([0.5, 0.6, 0.7, 0.4], [0, 1, 1, 0])
        point = relative_error_curve(val, test, [0.25])[0]
        assert point.valid_tpr == 0.0
        assert point.rel_error is None

    def test_invalid_never_below_valid_at_matching_budget(self, splits):
        # the leaking protocol optimizes TPR on the very data it reports on
        val, test = splits
        for p in relative_error_curve(val, test, [1e-1, 1e-2, 1e-3]):
            if p.valid_actualized_fpr <= p.target_fpr:
                assert p.invalid_tpr >= p.valid_tpr - 1e-12

    def test_csv_schema(self, splits, tmp_path):
        val, test = splits
        points = relative_error_curve(val, test, [1e-2, 1e-4])
        out = tmp_path / "protocol.csv"
        write_protocol_csv(points, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "target_fpr,valid_tpr,valid_fpr,invalid_tpr,rel_error"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1e-2


class TestSubsamplingStudy:
    def test_grid_shape_and_order(self, splits):
        val, test = splits
        rows = subsampling_study(val, test, [1.0, 0.1], [1e-1, 1e-2], seeds=[0, 1, 2])
        assert len(rows) == 2 * 3 * 2
        key = [(r.fraction, r.seed, r.target_fpr) for r in rows]
        expect = [(f, s, t) for f in (1.0, 0.1) for s in (0, 1, 2) for t in (1e-1, 1e-2)]
        assert key == expect

    def test_full_fraction_matches_curve(self, splits):
        val, test = splits
        rows = subsampling_study(val, test, [1.0], [1e-1, 1e-2], seeds=[0])
        points = relative_error_curve(val, test, [1e-1, 1e-2])
        for row, point in zip(rows, points):
            assert row.valid_tpr == point.valid_tpr
            assert row.valid_fpr == point.valid_actualized_fpr
            assert row.invalid_tpr == point.invalid_tpr
            assert row.rel_error == point.rel_error
            assert row.attainable

    def test_unattainable_flagged_at_small_fractions(self, splits):
        val, test = splits
        # 1% of validation keeps ~40 negatives; a 1e-3 budget admits no
        # nonzero false-positive count there
        rows = subsampling_study(val, test, [0.01], [1e-3], seeds=[0, 1, 2, 3])
        assert all(not r.attainable for r in rows)

    def test_seed_determinism(self, splits):
        val, test = splits
        a = subsampling_study(val, test, [0.25], [1e-2], seeds=[5, 6])
        b = subsampling_study(val, test, [0.25], [1e-2], seeds=[5, 6])
        assert a == b

    def test_thread_count_does_not_change_results(self, splits):
        val, test = splits
        grid = ([1.0, 0.2, 0.05], [1e-1, 1e-2], [0, 1, 2])
        serial = subsampling_study(val, test, *grid, threads=1)
        threaded = subsampling_study(val, test, *grid, threads=8)
        assert serial == threaded

    def test_cells_match_public_composition(self, splits):
        """Each cell equals the drawn rows' mean scores -> select_threshold -> evaluate_at_threshold."""
        val, test = splits
        one_row = 1e-9
        # 1/n_neg: at fraction 1.0 the budget admits exactly one false positive, the attainable boundary
        fractions, targets, seeds = [1.0, 0.5, 0.01], [1e-1, 1e-2, 1e-3, 1 / int((val.labels == 0).sum())], [0, 7]
        test_scores, test_labels = test.scores.mean(axis=1), test.labels
        invalid_ops = [select_threshold(test_scores, test_labels, t) for t in targets]
        expected = []
        for fi, f in enumerate(fractions):
            for s in seeds:
                rows = _cell_rows(len(val), f, s, fi)
                scores, labels = val.scores[rows].mean(axis=1), val.labels[rows]
                n_neg = int((labels == 0).sum())
                for t, inv in zip(targets, invalid_ops):
                    selected = select_threshold(scores, labels, t)
                    op = evaluate_at_threshold(test_scores, test_labels, selected.threshold)
                    attainable = bool(np.isfinite(selected.threshold)) and t >= 1.0 / n_neg
                    expected.append(StudyRow(f, s, t, op.tpr, op.fpr, inv.tpr, _rel_error(inv.tpr, op.tpr), attainable))
        assert any(r.attainable for r in expected) and not all(r.attainable for r in expected)
        with pytest.raises(ValueError) as public:
            rows = _cell_rows(len(val), one_row, seeds[0], 1)
            _class_scores(val.scores[rows].mean(axis=1), val.labels[rows])
        for threads in (1, 3):
            assert subsampling_study(val, test, fractions, targets, seeds, threads=threads) == expected
            with pytest.raises(ValueError) as exc:
                subsampling_study(val, test, [1.0, one_row], targets, seeds, threads=threads)
            assert str(exc.value) == str(public.value) == "protocol evaluation needs both classes present"
        assert len(_cell_rows(len(val), one_row, seeds[0], 1)) == 1

    def test_argument_validation(self, splits):
        val, test = splits
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match=re.escape(f"fraction must be in (0, 1], got {bad!r}")):
                subsampling_study(val, test, [0.5, bad], [1e-2], seeds=[0])
        with pytest.raises(ValueError):
            subsampling_study(val, test, [0.5], [1e-2], seeds=[])
        with pytest.raises(ValueError):
            subsampling_study(val, test, [0.5], [1e-2], seeds=[0], threads=0)
        with pytest.raises(ValueError, match="^fractions is empty$"):
            subsampling_study(val, test, [], [1e-2], seeds=[0])
        with pytest.raises(ValueError, match=re.escape("target_fpr must be in (0, 1), got 1.0")):
            subsampling_study(val, test, [0.5], [1e-2, 1.0], seeds=[0])

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.5, "seed must be an integer, got 1.5"),
            ("3", "seed must be an integer, got '3'"),
            (True, "seed must be an integer, got True"),
            (-1, "seed must be nonnegative, got -1"),
        ],
        ids=["float", "string", "bool", "negative"],
    )
    def test_bad_seed_rejected(self, splits, seed, message):
        val, test = splits
        with pytest.raises(ValueError) as exc:
            subsampling_study(val, test, [0.5], [1e-2], seeds=[0, seed])
        assert str(exc.value) == message

    def test_numpy_seeds_accepted(self, splits):
        val, test = splits
        rows = subsampling_study(val, test, [0.5], [1e-2], seeds=np.array([4, 5]))
        assert rows == subsampling_study(val, test, [0.5], [1e-2], seeds=[4, 5])
        assert [type(r.seed) for r in rows] == [int, int]

    def test_csv_schema(self, splits, tmp_path):
        val, test = splits
        rows = subsampling_study(val, test, [1.0, 0.01], [1e-1, 1e-3], seeds=[0])
        out = tmp_path / "study.csv"
        write_study_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "fraction,seed,target_fpr,valid_tpr,valid_fpr,invalid_tpr,rel_error,attainable"
        assert len(lines) == 5
        assert lines[1].endswith(",true")
        assert any(line.endswith(",false") for line in lines[2:])
