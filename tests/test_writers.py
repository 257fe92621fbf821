"""Every CSV table goes through data._write_csv; each writer must give the bytes
csv.writer gives row by row: a float as its repr, None as an empty field, a
bool as true/false, csv quoting, "\r\n" line ends
(evaluation.csv ends its lines with "\n"). save_dataset's CSV and JSON Lines
are checked the same way in test_data.TestWriters."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lowfpr import adjust, data
from lowfpr.analysis import ComparisonRow, GroupSplit, write_comparison_csv
from lowfpr.cli import main
from lowfpr.data import load_dataset, save_dataset
from lowfpr.protocol import (
    ProtocolCurvePoint,
    StudyRow,
    relative_error_curve,
    subsampling_study,
    write_protocol_csv,
    write_study_csv,
)
from lowfpr.synth import default_scenario, generate

ODD_FLOATS = [0.1, 1e-300, 5e-324, 1.0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1 / 3]


def rows_to_csv(header, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def reference_protocol_csv(points) -> bytes:
    return rows_to_csv(
        ["target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error"],
        (
            [
                repr(p.target_fpr),
                repr(p.valid_tpr),
                repr(p.valid_actualized_fpr),
                repr(p.invalid_tpr),
                "" if p.rel_error is None else repr(p.rel_error),
            ]
            for p in points
        ),
    )


def reference_study_csv(rows) -> bytes:
    return rows_to_csv(
        ["fraction", "seed", "target_fpr", "valid_tpr", "valid_fpr", "invalid_tpr", "rel_error", "attainable"],
        (
            [
                repr(r.fraction),
                r.seed,
                repr(r.target_fpr),
                repr(r.valid_tpr),
                repr(r.valid_fpr),
                repr(r.invalid_tpr),
                "" if r.rel_error is None else repr(r.rel_error),
                "true" if r.attainable else "false",
            ]
            for r in rows
        ),
    )


def reference_comparison_csv(rows) -> bytes:
    return rows_to_csv(
        ["model", "accuracy", "auc", "partial_auc", "is_ensemble"],
        (
            [r.model_name, repr(r.accuracy), repr(r.auc), repr(r.partial_auc), "true" if r.is_ensemble else "false"]
            for r in rows
        ),
    )


def reference_group_csv(split) -> bytes:
    return rows_to_csv(
        ["sample_id", "group", "value"],
        (
            [sid, label, repr(float(v))]
            for label, ids, vals in zip(split.labels, split.sample_ids, split.values)
            for sid, v in zip(ids, vals)
        ),
    )


@pytest.fixture(scope="module")
def splits():
    ds = generate(replace(default_scenario(seed=8), n_benign=1500, n_malicious=1500))
    return data.filter_split(ds, "validation"), data.filter_split(ds, "test")


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(data, "_WRITE_BLOCK", 3)  # several blocks, the last one partial


def test_protocol_csv(splits, tmp_path, small_blocks):
    val, test = splits
    points = relative_error_curve(val, test, [1e-1, 1e-2, 1e-3, 1e-5])
    points += [
        ProtocolCurvePoint(1e-5, 0.0, 0.0, 0.25, None),
        ProtocolCurvePoint(*ODD_FLOATS[:4], ODD_FLOATS[4]),
        ProtocolCurvePoint(*ODD_FLOATS[5:9], ODD_FLOATS[9]),
    ]
    path = tmp_path / "protocol.csv"
    write_protocol_csv(points, path)
    assert path.read_bytes() == reference_protocol_csv(points)


def test_study_csv(splits, tmp_path, small_blocks):
    val, test = splits
    # 2% of validation keeps ~30 negatives: 1e-3 is unattainable there, 1e-1 is not
    rows = subsampling_study(val, test, [1.0, 0.02], [1e-1, 1e-3], seeds=[0, 1])
    rows += [
        StudyRow(0.5, 7, math.inf, math.nan, -math.inf, 0.0, None, True),
        StudyRow(1e-300, -3, 0.1, 1 / 3, 5e-324, 1.0, math.nan, False),
    ]
    assert {r.attainable for r in rows} == {True, False}
    assert any(r.rel_error is None for r in rows)
    path = tmp_path / "subsample.csv"
    write_study_csv(rows, path)
    assert path.read_bytes() == reference_study_csv(rows)


def test_study_csv_without_rows(tmp_path):
    path = tmp_path / "subsample.csv"
    write_study_csv([], path)
    assert path.read_bytes() == reference_study_csv([])


def test_comparison_csv(tmp_path):
    rows = (
        ComparisonRow("ensemble", 0.9, 0.99, 1e-3, True),
        ComparisonRow("member, mean", math.nan, math.inf, 5e-324, False),
    )
    path = tmp_path / "table1.csv"
    write_comparison_csv(rows, path)
    assert path.read_bytes() == reference_comparison_csv(rows)


@pytest.mark.parametrize("sizes", [(5, 4), (7, 0), (0, 0)], ids=["both", "one-empty", "both-empty"])
def test_group_split_csv(tmp_path, small_blocks, sizes):
    ids = np.array(["plain", "com,ma", 'quo"te', "new\nline", "ünï", "", " pad "] * 2, dtype=object)
    values = np.array(ODD_FLOATS + [0.5] * 4)
    n, m = sizes
    split = GroupSplit(
        labels=("correct", "incorrect"),
        sample_ids=(ids[:n], ids[n : n + m]),
        values=(values[:n], values[n : n + m]),
    )
    path = tmp_path / "errors.csv"
    split.write_csv(path)
    assert path.read_bytes() == reference_group_csv(split)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("eval") / "data.csv"
    save_dataset(generate(replace(default_scenario(seed=9), n_benign=1000, n_malicious=1000)), path)
    return path


@pytest.mark.parametrize("threshold", [0.5, 1e-9, "inf"], ids=["finite", "overshoot", "inf-threshold"])
def test_evaluation_csv(dataset_csv, tmp_path, threshold):
    test = data.filter_split(load_dataset(dataset_csv), "test")
    calibration = tmp_path / "calibration.json"
    payload = {
        "variant": "global_only",
        "alpha": [],
        "threshold": threshold,
        "target_fpr": 1e-3,
        "multiplier": 0.9,
        "seed": 0,
        "sweeps_used": 0,
        "member_count": test.member_count,
        "validation_tpr": 0.5,
        "validation_fpr": 0.0,
    }
    calibration.write_text(json.dumps(payload))
    assert main(["eval", "--input", str(dataset_csv), "--output-dir", str(tmp_path), "--calibration", str(calibration)]) == 0
    outcome = adjust.evaluate_calibration(test, adjust.load_calibration(calibration))
    target = 1e-3
    expected = (
        "target_fpr,tpr,actualized_fpr,combined\n"
        f"{target!r},{outcome.tpr!r},{outcome.actualized_fpr!r},{outcome.combined!r}\n"
    )
    assert (tmp_path / "evaluation.csv").read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("lineterminator", ["\r\n", "\n"], ids=["crlf", "lf"])
def test_line_breaks_in_text(tmp_path, small_blocks, lineterminator):
    # a field holding "\r" or "\n" is quoted whatever the line terminator; in
    # blocks of 3, the first holds only a lone "\r" and the third nothing to quote
    texts = ["cr\r", "plain", "a", "lf\n", "crlf\r\n", "b", "c", "d", "e", "\r", "f", "\n"]
    written = ['"cr\r"', "plain", "a", '"lf\n"', '"crlf\r\n"', "b", "c", "d", "e", '"\r"', "f", '"\n"']
    path = tmp_path / "t.csv"
    data._write_csv(path, ("text", "n"), [np.array(texts, dtype=object), list(range(len(texts)))], lineterminator)
    lines = ["text,n", *(f"{field},{k}" for k, field in enumerate(written))]
    assert path.read_bytes() == "".join(line + lineterminator for line in lines).encode("utf-8")


def test_header_only_table(tmp_path):
    path = tmp_path / "t.csv"
    data._write_csv(path, ("a", "b,c"), [np.array([], dtype=object), np.array([])])
    assert path.read_bytes() == rows_to_csv(("a", "b,c"), [])
