import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowfpr.analysis import uncertainty_by_novelty
from lowfpr.cli import main
from lowfpr.data import filter_split, load_dataset
from lowfpr.protocol import relative_error_curve, write_protocol_csv
from lowfpr.synth import SynthConfig


def run_cli(args):
    try:
        result = main(list(args))
        return 0 if result is None else int(result)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)


def small_config(**overrides):
    base = dict(
        n_benign=2000,
        n_malicious=2000,
        member_count=5,
        benign_logit_mean=-2.0,
        malicious_logit_mean=1.5,
        logit_sd=1.2,
        member_noise_sd_base=0.6,
        member_noise_sd_novel=0.6,
        split_fractions=[0.0, 0.5, 0.5],
        seed=0,
    )
    base.update(overrides)
    return base


@pytest.fixture()
def dataset_csv(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config()))
    data_path = tmp_path / "data.csv"
    assert run_cli(["synth", "--config", str(config_path), "--output", str(data_path)]) == 0
    return data_path


class TestValidate:
    def test_valid_file(self, dataset_csv, capsys):
        assert run_cli(["validate", "--input", str(dataset_csv)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 4000 records, 5 members")
        assert "validation:" in out and "test:" in out

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,label,split,family,m0\na,7,test,,0.5\n")
        assert run_cli(["validate", "--input", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"absent.{fmt}"
            assert run_cli(["validate", "--input", str(path), "--format", fmt]) == 2
            assert capsys.readouterr().err == f"data error: {path}: No such file or directory\n"

    def test_header_without_member_columns_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("sample_id,label,split,family\n")
        assert run_cli(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"data error: {path}: header column 4 must be 'm0', got '<missing>'\n"

    @pytest.mark.parametrize(
        "fmt, content",
        [("csv", b"sample_id,label,split,family,m0\n\xff,0,test,,0.5\n"), ("jsonl", b'{"id": "\xff"}\n'), ("csv", None)],
        ids=["csv-not-utf8", "jsonl-not-utf8", "directory"],
    )
    def test_unreadable_dataset_exits_2(self, tmp_path, capsys, fmt, content):
        path = tmp_path / f"data.{fmt}"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run_cli(["validate", "--input", str(path), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1

    def test_score_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        path = tmp_path / "data.jsonl"
        path.write_text(f'{{"id": "a", "label": 0, "split": "test", "family": null, "scores": [{huge}]}}\n')
        assert run_cli(["validate", "--input", str(path), "--format", "jsonl"]) == 2
        assert capsys.readouterr().err == f"data error: {path}: line 1: field scores[0]={huge} outside [0, 1]\n"

    def test_id_that_is_not_unicode_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"  # \ud800, a lone surrogate, is valid JSON but no Unicode text
        path.write_text('{"id": "a\\ud800", "label": 0, "split": "test", "family": null, "scores": [0.5]}\n')
        assert run_cli(["validate", "--input", str(path), "--format", "jsonl"]) == 2
        assert capsys.readouterr().err == f"data error: {path}: line 1: sample_id 'a\\ud800' is not valid Unicode\n"

    def test_family_tag_that_is_not_unicode_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "label": 1, "split": "test", "family": "f\\ud800", "scores": [0.5]}\n')
        assert run_cli(["validate", "--input", str(path), "--format", "jsonl"]) == 2
        assert capsys.readouterr().err == f"data error: {path}: line 1: family 'f\\ud800' is not valid Unicode\n"

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_size_limit_exits_2(self, tmp_path, capsys, line):
        lines = ["sample_id,label,split,family,m0", "a,0,train,,0.1", "b,0,train,,0.1", "c,0,train,,0.1"]
        lines[line - 1] = "x" * 140_000 + lines[line - 1]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["validate", "--input", str(path)]) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == f"data error: {path}: line {line}: field larger than field limit ({limit})\n"

    def test_usage_error_exits_1(self):
        assert run_cli(["validate"]) == 1
        assert run_cli(["no-such-command"]) == 1
        assert run_cli(["validate", "--input", "x", "--format", "xml"]) == 1

    @pytest.mark.parametrize(
        "args, line",
        [
            (["validate"], "the following arguments are required: --input"),
            (
                ["no-such-command"],
                "argument command: invalid choice: 'no-such-command' "
                "(choose from 'validate', 'fit', 'eval', 'study', 'synth')",
            ),
            ([], "the following arguments are required: command"),
            (
                ["validate", "--input", "x", "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'csv', 'jsonl')",
            ),
            (
                ["fit", "--input", "x", "--target-fpr", "0.01", "--variant", "l"],
                "argument --variant: invalid choice: 'l' (choose from 'g', 'g+l', 'g+lv2', 'g+lv3')",
            ),
            (["eval", "--input", "x", "--calibration", "c", "--target", "1"], "unrecognized arguments: --target 1"),
            (["synth", "--output", "x", "--seed", "-1"], "Invalid value for '--seed': -1 is not in the range x>=0."),
        ],
        ids=["missing-option", "unknown-command", "no-command", "format", "variant", "abbreviation", "seed"],
    )
    def test_usage_error_is_one_line(self, tmp_path, monkeypatch, capsys, args, line):
        monkeypatch.chdir(tmp_path)
        assert run_cli(args) == 1
        assert capsys.readouterr() == ("", f"Error: {line}\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_number_is_an_option_value(self, dataset_csv, tmp_path, capsys):
        # argparse alone reads -1e-3 and -inf as option names and reports the option as missing its value.
        out = tmp_path / "out"
        for target in (["--target-fpr", "-1e-3"], ["--target-fpr=-1e-3"]):
            assert run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(out), *target]) == 3
            assert capsys.readouterr().err == "error: target_fpr must be in (0, 1), got -0.001\n"
        args = ["study", "--input", str(dataset_csv), "--output-dir", str(out), "--study", "errors", "--threshold", "-inf"]
        assert run_cli(args) == 0
        assert (out / "errors.csv").read_text().startswith("sample_id,group,value\n")

    def test_command_help_returns_0(self, capsys):
        assert main(["fit", "--help"]) == 0
        assert "--target-fpr" in capsys.readouterr().out

    def test_interrupt_aborts_with_exit_1(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("lowfpr.cli.load_dataset", interrupted)
        assert run_cli(["validate", "--input", "x"]) == 1
        assert capsys.readouterr().err == "\naborted\n"


def config_bound_message(key: str, shown: str) -> str:
    """The message for a synth config float outside its bounds (+-1e300 unless synth._FLOAT_BOUNDS narrows them)."""
    name = f"{key}[0]" if key == "split_fractions" else key
    span = {"logit_sd": "(0, 1e+300]", "split_fractions[0]": "[0, 1]"}.get(name, "[-1e+300, 1e+300]")
    return f"{name} must be in {span}, got {shown}"


class TestSynth:
    def test_reruns_are_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(seed=5)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(a)]) == 0
        assert run_cli(["synth", "--config", str(config_path), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(seed=5)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(a), "--seed", "9"]) == 0
        assert run_cli(["synth", "--config", str(config_path), "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_jsonl_output_round_trips(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(n_benign=200, n_malicious=200)))
        out = tmp_path / "data.jsonl"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(out), "--format", "jsonl"]) == 0
        assert run_cli(["validate", "--input", str(out), "--format", "jsonl"]) == 0

    def test_default_scenario_without_config(self, tmp_path, monkeypatch):
        config = SynthConfig(**small_config(n_benign=30, n_malicious=20, seed=4))
        monkeypatch.setattr("lowfpr.synth.default_scenario", lambda: config)
        out = tmp_path / "data.csv"
        assert run_cli(["synth", "--output", str(out)]) == 0
        ds = load_dataset(out)
        assert (len(ds), int(ds.labels.sum()), ds.member_count) == (50, 20, 5)

    def test_bad_config_exits_3(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"logit_sd": -1.0}))
        assert run_cli(["synth", "--config", str(config_path), "--output", str(tmp_path / "x.csv")]) == 3

    def test_negative_config_seed_exits_3(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(seed=-2)))
        assert run_cli(["synth", "--config", str(config_path), "--output", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -2\n"

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("n_benign", "x", "an integer"),
            ("seed", "7", "an integer"),
            ("member_count", 2.5, "an integer"),
            ("split_fractions", 3, "a list of three numbers"),
        ],
    )
    def test_wrongly_typed_config_exits_3(self, tmp_path, capsys, key, value, kind):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(**{key: value})))
        out = tmp_path / "x.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, shown",
        [
            ("benign_logit_mean", math.nan, "nan"),
            ("malicious_logit_mean", -math.inf, "-inf"),
            ("logit_sd", math.inf, "inf"),
            ("member_noise_sd_novel", math.inf, "inf"),
            ("split_fractions", [math.nan, 0.5, 0.5], "nan"),
            # an integer too large for a float counts as infinite
            pytest.param("logit_sd", 10**400, "inf", id="logit_sd-huge-int"),
            pytest.param("benign_logit_mean", -(10**400), "-inf", id="benign_logit_mean-huge-int"),
            pytest.param("split_fractions", [10**400, 0.5, 0.5], "inf", id="split_fractions-huge-int"),
        ],
    )
    def test_nonfinite_config_value_exits_3(self, tmp_path, capsys, key, value, shown):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(**{key: value})))  # json writes NaN and Infinity
        out = tmp_path / "x.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {config_bound_message(key, shown)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("logit_sd", 1e308),
            ("benign_logit_mean", -1e301),
            ("member_noise_sd_novel", 1e308),
            pytest.param("malicious_logit_mean", math.nextafter(1e300, math.inf), id="just-past-the-bound"),
        ],
    )
    def test_config_value_beyond_the_float_bound_exits_3(self, tmp_path, capsys, key, value):
        # Values this large once overflowed the logits: numpy warnings, then a NaN score or a written file.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(n_benign=5000, n_malicious=5000, **{key: value})))
        out = tmp_path / "x.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {config_bound_message(key, repr(value))}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content", [None, b'{"seed": ', b"\xff\xfe", b"[1, 2]"], ids=["missing", "not-json", "not-text", "not-object"]
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        config_path = tmp_path / "config.json"
        if content is not None:
            config_path.write_bytes(content)
        out = tmp_path / "x.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {config_path}: ") and err.count("\n") == 1
        assert not out.exists()


class TestFit:
    def test_global_writes_expected_json(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        code = run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.01"])
        assert code == 0
        path = outdir / "calibration_g_0.01.json"
        payload = json.loads(path.read_text())
        assert payload["variant"] == "global_only"
        assert payload["alpha"] == []
        assert payload["target_fpr"] == 0.01
        assert payload["validation_fpr"] <= 0.9 * 0.01

    def test_local_variant_fits_coefficients(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        code = run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g+l", "--target-fpr", "0.01", "--seed", "3"])
        assert code == 0
        payload = json.loads((outdir / "calibration_g+l_0.01.json").read_text())
        assert payload["variant"] == "lv1"
        assert len(payload["alpha"]) == 2

    def test_rerun_byte_identical(self, dataset_csv, tmp_path):
        args = ["fit", "--input", str(dataset_csv), "--variant", "g+lv3", "--target-fpr", "0.01", "--seed", "7"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(args + ["--output-dir", str(d1)]) == 0
        assert run_cli(args + ["--output-dir", str(d2)]) == 0
        name = "calibration_g+lv3_0.01.json"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_impossible_budget_exits_3(self, dataset_csv, tmp_path):
        code = run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(tmp_path),
                        "--variant", "g", "--target-fpr", "2.0"])
        assert code == 3

    def test_nan_sweep_tol_exits_3(self, dataset_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g+l", "--target-fpr", "0.01", "--sweep-tol", "nan"]) == 3
        assert capsys.readouterr().err == "error: sweep_tol must not be NaN, got nan\n"
        assert not (outdir / "calibration_g+l_0.01.json").exists()

    def test_missing_target_is_usage_error(self, dataset_csv):
        assert run_cli(["fit", "--input", str(dataset_csv), "--variant", "g"]) == 1

    def test_no_validation_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("sample_id,label,split,family,m0,m1\nb0,0,test,,0.1,0.2\nm0,1,test,,0.8,0.9\n")
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(path), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.01"]) == 2
        assert capsys.readouterr().err == "data error: input has no records in the 'validation' split\n"
        assert not outdir.exists()

    def test_single_class_validation_split_exits_3(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("sample_id,label,split,family,m0,m1\nb0,0,validation,,0.1,0.2\nm0,1,test,,0.8,0.9\n")
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(path), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.01"]) == 3
        assert capsys.readouterr().err == "error: fitting needs at least one positive and one negative validation sample\n"
        assert not (outdir / "calibration_g_0.01.json").exists()

    def test_negative_max_sweeps_exits_3(self, dataset_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g+l", "--target-fpr", "0.01", "--max-sweeps", "-1"]) == 3
        assert capsys.readouterr().err == "error: max_sweeps must be nonnegative, got -1\n"
        assert not (outdir / "calibration_g+l_0.01.json").exists()


class TestUnresolvableTarget:
    """fit, eval and the protocol study warn, on stderr only, when the budget admits no false positive on their split.

    fit's budget is multiplier * target; eval's and the study's is the target.
    """

    @pytest.fixture(scope="class")
    def data_path(self, tmp_path_factory):
        # about 2,000 negatives in each of validation and test
        d = tmp_path_factory.mktemp("unresolvable")
        (d / "config.json").write_text(json.dumps(small_config(n_benign=4000, n_malicious=4000)))
        assert run_cli(["synth", "--config", str(d / "config.json"), "--output", str(d / "data.csv")]) == 0
        return d / "data.csv"

    @pytest.mark.parametrize("target, warns", [("1e-05", True), ("0.001", False)])
    def test_fit_and_eval_warn_below_one_negative(self, data_path, tmp_path, capsys, target, warns):
        ds = load_dataset(data_path)
        n_neg = {s: int(((ds.splits == s) & (ds.labels == 0)).sum()) for s in ("validation", "test")}
        assert min(n_neg.values()) >= 1000
        capsys.readouterr()
        assert run_cli(["fit", "--input", str(data_path), "--output-dir", str(tmp_path), "--target-fpr", target]) == 0
        fit = capsys.readouterr()
        calibration = tmp_path / f"calibration_g_{float(target):g}.json"
        written = calibration.read_bytes()
        assert run_cli(["eval", "--input", str(data_path), "--output-dir", str(tmp_path),
                        "--calibration", str(calibration)]) == 0
        evaluation = capsys.readouterr()
        assert fit.out.startswith(f"fitted g @ target_fpr={float(target):g}: ")
        assert evaluation.out.startswith("tpr=")
        for captured, split in ((fit, "validation"), (evaluation, "test")):
            if warns:
                assert captured.err.count("\n") == 1 and captured.err.startswith("warning: ")
                assert f"target FPR {float(target):g} " in captured.err
                assert f"{n_neg[split]} {split} negatives" in captured.err
            else:
                assert captured.err == ""
        assert calibration.read_bytes() == written

    @pytest.mark.parametrize("multiplier, warns", [("0.9", True), ("1.0", False)])
    def test_fit_warns_on_the_budget_it_fits(self, data_path, tmp_path, capsys, multiplier, warns):
        # 0.9 * 0.00052 * n_neg < 1 <= 0.00052 * n_neg: only the backed-off budget admits no false positive
        ds = load_dataset(data_path)
        n_neg = int(((ds.splits == "validation") & (ds.labels == 0)).sum())
        assert 0.9 * 0.00052 * n_neg < 1 <= 0.00052 * n_neg
        capsys.readouterr()
        assert run_cli(["fit", "--input", str(data_path), "--output-dir", str(tmp_path),
                        "--target-fpr", "0.00052", "--multiplier", multiplier]) == 0
        fit = capsys.readouterr()
        assert fit.out.startswith("fitted g @ target_fpr=0.00052: ")
        if warns:
            assert fit.err.count("\n") == 1
            assert fit.err.startswith(f"warning: fit budget 0.9 x target FPR 0.00052 = {0.9 * 0.00052:g} is below ")
            assert f"{n_neg} validation negatives" in fit.err
        else:
            assert fit.err == ""

    def test_protocol_study_warns_per_target(self, data_path, tmp_path, capsys):
        ds = load_dataset(data_path)
        val, test = filter_split(ds, "validation"), filter_split(ds, "test")
        n_neg = int((val.labels == 0).sum())
        capsys.readouterr()
        assert run_cli(["study", "--input", str(data_path), "--output-dir", str(tmp_path), "--study", "protocol"]) == 0
        study = capsys.readouterr()
        assert study.out == f"wrote {tmp_path / 'protocol.csv'}\n"
        warned = [t for t in (1e-2, 1e-3, 1e-4, 1e-5) if t < 1 / n_neg]
        assert warned == [1e-4, 1e-5]
        lines = study.err.splitlines()
        assert len(lines) == len(warned)
        for line, t in zip(lines, warned):
            assert line.startswith(f"warning: target FPR {t:g} is below 1/{n_neg}, ")
            assert f"{n_neg} validation negatives" in line
        reference = tmp_path / "reference.csv"
        write_protocol_csv(relative_error_curve(val, test, [1e-2, 1e-3, 1e-4, 1e-5]), reference)
        assert (tmp_path / "protocol.csv").read_bytes() == reference.read_bytes()


class TestBudgetBoundary:
    """Every command's FPR-budget test switches between target = 1/n_neg and the float just below it.

    Validation and test each hold 49 negatives, below every positive; (1/49) * 49 rounds below 1, so a
    product-form test (target * n_neg < 1) would also flag 1/49, which admits exactly one false positive.
    """

    n_neg = 49
    resolvable = 1 / 49
    unresolvable = float(np.nextafter(1 / 49, 0.0))

    @pytest.fixture(scope="class")
    def data_path(self, tmp_path_factory):
        rows = ["sample_id,label,split,family,m0,m1"]
        for split in ("validation", "test"):
            for i in range(self.n_neg):
                rows.append(f"{split}-b{i},0,{split},,{0.01 * (i + 1)!r},{0.01 * (i + 1) + 0.005!r}")
            for i in range(10):
                rows.append(f"{split}-m{i},1,{split},,0.9,{0.9 + 0.005 * i!r}")
        path = tmp_path_factory.mktemp("boundary") / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def run(self, args, capsys):
        capsys.readouterr()
        assert run_cli(args) == 0
        return capsys.readouterr().err

    @pytest.mark.parametrize("which", ["resolvable", "unresolvable"])
    def test_warnings_and_attainable_switch_together(self, data_path, tmp_path, capsys, which):
        assert (1 / 49) * 49 < 1 and self.unresolvable < self.resolvable
        target = getattr(self, which)
        t = repr(target)
        io = ["--input", str(data_path), "--output-dir", str(tmp_path)]
        errs = {
            "fit": self.run(["fit", *io, "--target-fpr", t, "--multiplier", "1"], capsys),
            "eval": self.run(["eval", *io, "--calibration", str(tmp_path / f"calibration_g_{target:g}.json")], capsys),
            "protocol": self.run(["study", *io, "--study", "protocol", "--target-fpr", t], capsys),
        }
        assert self.run(["study", *io, "--study", "subsample", "--fractions", "1", "--study-seeds", "1",
                         "--target-fpr", t], capsys) == ""
        rows = (tmp_path / "subsample.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].endswith(",true" if which == "resolvable" else ",false")
        for command, err in errs.items():
            if which == "resolvable":
                assert err == "", command
            else:
                split = "test" if command == "eval" else "validation"
                assert err.count("\n") == 1 and err.startswith("warning: "), command
                assert f" is below 1/{self.n_neg}, one false positive among the {self.n_neg} {split} negatives" in err


class TestEval:
    def test_writes_evaluation_csv(self, dataset_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.01"]) == 0
        code = run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(outdir / "calibration_g_0.01.json")])
        assert code == 0
        lines = (outdir / "evaluation.csv").read_text().strip().splitlines()
        assert lines[0] == "target_fpr,tpr,actualized_fpr,combined"
        target, tpr, fpr, combined = (float(x) for x in lines[1].split(","))
        assert target == 0.01
        assert 0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0

    def test_target_override_recorded(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                 "--variant", "g", "--target-fpr", "0.01"])
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(outdir / "calibration_g_0.01.json"),
                        "--target-fpr", "0.001"]) == 0
        first_row = (outdir / "evaluation.csv").read_text().strip().splitlines()[1]
        assert float(first_row.split(",")[0]) == 0.001

    def test_single_class_test_split_exits_3(self, tmp_path, capsys):
        rows = ["sample_id,label,split,family,m0,m1"]
        for i in range(20):
            rows += [f"vb{i},0,validation,,{0.01 * i:.2f},0.1", f"vm{i},1,validation,,0.9,0.7", f"tb{i},0,test,,0.2,0.3"]
        path, outdir = tmp_path / "data.csv", tmp_path / "out"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli(["fit", "--input", str(path), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.1"]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--input", str(path), "--output-dir", str(outdir),
                        "--calibration", str(outdir / "calibration_g_0.1.json")]) == 3
        assert capsys.readouterr().err == "error: evaluation needs at least one positive and one negative test sample\n"
        assert not (outdir / "evaluation.csv").exists()

    def test_member_count_mismatch_exits_3(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                 "--variant", "g", "--target-fpr", "0.01"])
        path = outdir / "calibration_g_0.01.json"
        payload = json.loads(path.read_text())
        payload["member_count"] = 9
        path.write_text(json.dumps(payload))
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(path)]) == 3


    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: list(d.items()), None),
            (lambda d: {k: v for k, v in d.items() if k != "member_count"}, "'member_count'"),
            (lambda d: dict(d, multiplier="high"), "'multiplier'"),
            (lambda d: dict(d, threshold="nan"), "'threshold'"),
            (lambda d: dict(d, target_fpr=1.5), "'target_fpr': target_fpr must be in (0, 1), got 1.5"),
            (lambda d: dict(d, target_fpr=0), "'target_fpr': target_fpr must be in (0, 1), got 0.0"),
            (lambda d: dict(d, multiplier=0), "'multiplier': multiplier must be in (0, inf), got 0.0"),
            (lambda d: dict(d, multiplier=-0.9), "'multiplier': multiplier must be in (0, inf), got -0.9"),
            (lambda d: dict(d, member_count=5.9), "'member_count': member_count must be an integer, got 5.9"),
            (lambda d: dict(d, sweeps_used=True), "'sweeps_used': sweeps_used must be an integer, got True"),
            (lambda d: dict(d, seed=-3), "'seed': seed must be nonnegative, got -3"),
            (lambda d: dict(d, threshold=False), "'threshold': threshold must be a number, got False"),
            (lambda d: dict(d, multiplier=True), "'multiplier': multiplier must be a number, got True"),
            (lambda d: dict(d, threshold="0.5"), "'threshold': threshold must be a number, got '0.5'"),
            (lambda d: dict(d, target_fpr="0.01"), "'target_fpr': target_fpr must be a number, got '0.01'"),
            (lambda d: dict(d, alpha="0.5"), "'alpha': must be a list of numbers, got '0.5'"),
            (lambda d: dict(d, alpha={"a": 1}), "'alpha': must be a list of numbers, got {'a': 1}"),
            (lambda d: dict(d, alpha=0.5), "'alpha': must be a list of numbers, got 0.5"),
            (lambda d: dict(d, alpha=None), "'alpha': must be a list of numbers, got None"),
            # json.dumps writes these floats as Infinity, -Infinity and NaN, which Python's json reads back
            (lambda d: dict(d, multiplier=math.inf), "'multiplier': multiplier must be in (0, inf), got inf"),
            (lambda d: dict(d, validation_tpr=7.0), "'validation_tpr': validation_tpr must be in [0, 1], got 7.0"),
            (lambda d: dict(d, threshold=-math.inf), "'threshold': threshold must be finite, got -inf"),
            (lambda d: dict(d, target_fpr=math.nan), "'target_fpr': target_fpr must be in (0, 1), got nan"),
            (lambda d: dict(d, variant="lv1", alpha=[math.nan, 0]),
             "'alpha': lv1 alpha[0] must be in [-100, 100], got nan"),
        ],
        ids=["not-an-object", "missing-key", "non-numeric", "nan-threshold", "target-above-one", "target-zero",
             "multiplier-zero", "multiplier-negative", "member-count-fractional", "sweeps-bool", "seed-negative",
             "threshold-bool", "multiplier-bool", "threshold-string", "target-string", "alpha-string", "alpha-object",
             "alpha-number", "alpha-null", "multiplier-infinity", "validation-tpr-seven", "threshold-minus-infinity",
             "target-nan", "alpha-nan"],
    )
    def test_malformed_calibration_exits_2(self, dataset_csv, tmp_path, capsys, edit, key):
        outdir = tmp_path / "out"
        run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                 "--variant", "g", "--target-fpr", "0.01"])
        path = outdir / "calibration_g_0.01.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
        assert key is None or key in err
        assert not (outdir / "evaluation.csv").exists()

    @pytest.mark.parametrize("content", [None, b'{"variant": ', b"\xff\xfe"], ids=["missing", "not-json", "not-text"])
    def test_unreadable_calibration_exits_2(self, dataset_csv, tmp_path, capsys, content):
        outdir = tmp_path / "out"
        path = tmp_path / "calibration.json"
        if content is not None:
            path.write_bytes(content)
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
        assert not (outdir / "evaluation.csv").exists()

    @pytest.mark.parametrize("target", ["nan", "2", "1", "0", "-0.01", "inf"])
    def test_target_override_outside_unit_interval_exits_3(self, dataset_csv, tmp_path, capsys, target):
        outdir = tmp_path / "out"
        assert run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--variant", "g", "--target-fpr", "0.01"]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(outdir / "calibration_g_0.01.json"), "--target-fpr", target]) == 3
        err = capsys.readouterr().err
        assert err == f"error: target_fpr must be in (0, 1), got {float(target)!r}\n"
        assert not (outdir / "evaluation.csv").exists()

    def test_infinite_threshold_still_loads(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        run_cli(["fit", "--input", str(dataset_csv), "--output-dir", str(outdir),
                 "--variant", "g", "--target-fpr", "0.01"])
        path = outdir / "calibration_g_0.01.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), threshold="inf")))
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--calibration", str(path)]) == 0
        assert (outdir / "evaluation.csv").read_text().splitlines()[1] == "0.01,0.0,0.0,0.0"


class TestStudy:
    def test_protocol_rows(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--study", "protocol", "--target-fpr", "0.1", "--target-fpr", "0.01"]) == 0
        lines = (outdir / "protocol.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_protocol_default_grid(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--study", "protocol"]) == 0
        lines = (outdir / "protocol.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-2, 1e-3, 1e-4, 1e-5]

    def test_subsample_grid_and_thread_invariance(self, dataset_csv, tmp_path):
        base = ["study", "--input", str(dataset_csv), "--study", "subsample",
                "--fractions", "1,0.25", "--study-seeds", "3",
                "--target-fpr", "0.1", "--target-fpr", "0.01"]
        d1, d8 = tmp_path / "t1", tmp_path / "t8"
        assert run_cli(base + ["--output-dir", str(d1), "--threads", "1"]) == 0
        assert run_cli(base + ["--output-dir", str(d8), "--threads", "8"]) == 0
        lines = (d1 / "subsample.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3 * 2
        assert (d1 / "subsample.csv").read_bytes() == (d8 / "subsample.csv").read_bytes()

    def test_bad_fractions_usage_error(self, dataset_csv, tmp_path):
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(tmp_path),
                        "--study", "subsample", "--fractions", "1,abc"]) == 1

    @pytest.mark.parametrize("fractions", ["", ",", " , "])
    def test_empty_fractions_usage_error(self, dataset_csv, tmp_path, capsys, fractions):
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(tmp_path),
                        "--study", "subsample", "--fractions", fractions]) == 1
        assert capsys.readouterr().err == f"Error: --fractions must be comma-separated numbers, got {fractions!r}\n"
        assert not (tmp_path / "subsample.csv").exists()

    @pytest.mark.parametrize("option", ["--threads", "--study-seeds"])
    def test_count_option_below_one_is_usage_error(self, dataset_csv, tmp_path, capsys, option):
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(tmp_path),
                        "--study", "subsample", option, "0"]) == 1
        err = capsys.readouterr().err
        assert f"Invalid value for '{option}': 0 is not in the range x>=1." in err
        assert not (tmp_path / "subsample.csv").exists()

    @pytest.mark.parametrize(
        "args, value",
        [
            (["fit", "--variant", "g", "--target-fpr", "0.01"], "-1"),
            (["fit", "--variant", "g+l", "--target-fpr", "0.01"], "-1"),
            (["study", "--study", "subsample"], "-3"),
            (["synth"], "-2"),
        ],
        ids=["fit-g", "fit-g+l", "study-subsample", "synth"],
    )
    def test_negative_seed_is_usage_error(self, dataset_csv, tmp_path, capsys, args, value):
        if args[0] == "synth":
            io = ["--output", str(tmp_path / "x.csv")]
        else:
            io = ["--input", str(dataset_csv), "--output-dir", str(tmp_path)]
        assert run_cli(args + io + ["--seed", value]) == 1
        err = capsys.readouterr().err
        bounds = f"0<=x<={2**128 - 1}" if args[0] == "fit" else "x>=0"
        assert f"Invalid value for '--seed': {value} is not in the range {bounds}." in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", "data.csv"])

    def test_fit_seed_past_philox_key_is_usage_error(self, dataset_csv, tmp_path, capsys):
        # the fit seeds a Philox key, which must be below 2**128
        args = ["fit", "--input", str(dataset_csv), "--variant", "g+lv2", "--target-fpr", "0.01", "--max-sweeps", "1"]
        assert run_cli(args + ["--output-dir", str(tmp_path / "past"), "--seed", str(2**128)]) == 1
        err = capsys.readouterr().err
        assert f"Invalid value for '--seed': {2**128} is not in the range 0<=x<={2**128 - 1}." in err
        assert not (tmp_path / "past").exists()
        assert run_cli(args + ["--output-dir", str(tmp_path / "max"), "--seed", str(2**128 - 1)]) == 0
        path = tmp_path / "max" / "calibration_g+lv2_0.01.json"
        assert json.loads(path.read_text())["seed"] == 2**128 - 1
        assert run_cli(["eval", "--input", str(dataset_csv), "--output-dir", str(tmp_path / "max"),
                        "--calibration", str(path)]) == 0

    def test_table1_compares_models(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--study", "table1", "--fpr-max", "0.01"]) == 0
        lines = (outdir / "table1.csv").read_text().strip().splitlines()
        assert lines[0] == "model,accuracy,auc,partial_auc,is_ensemble"
        assert len(lines) == 3

    def test_table1_single_member_exits_3(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(n_benign=300, n_malicious=300, member_count=1)))
        data = tmp_path / "one.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(data)]) == 0
        assert run_cli(["study", "--input", str(data), "--output-dir", str(tmp_path),
                        "--study", "table1"]) == 3

    def test_errors_study_writes_groups(self, dataset_csv, tmp_path):
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--study", "errors", "--threshold", "0.5", "--measure", "epistemic"]) == 0
        lines = (outdir / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "sample_id,group,value"
        groups = {line.split(",")[1] for line in lines[1:]}
        assert groups == {"correct", "incorrect"}

    def test_errors_study_warns_on_an_empty_group(self, tmp_path, capsys):
        path = tmp_path / "benign.csv"
        path.write_text("sample_id,label,split,family,m0,m1\nb0,0,test,,0.1,0.2\nb1,0,test,,0.3,0.2\n")
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(path), "--output-dir", str(outdir),
                        "--study", "errors", "--threshold", "2"]) == 0
        assert capsys.readouterr().err == "warning: one correctness group is empty\n"
        lines = (outdir / "errors.csv").read_text().strip().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["b0", "correct"], ["b1", "correct"]]

    def test_errors_study_nan_threshold_exits_3(self, dataset_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(dataset_csv), "--output-dir", str(outdir),
                        "--study", "errors", "--threshold", "nan"]) == 3
        assert capsys.readouterr().err == "error: threshold must not be NaN, got nan\n"
        assert not (outdir / "errors.csv").exists()

    def test_novelty_study(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(
            n_benign=1500, n_malicious=1500, novel_fraction=0.3,
            member_noise_sd_novel=2.0, split_fractions=[0.3, 0.3, 0.4])))
        data = tmp_path / "nov.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(data)]) == 0
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(data), "--output-dir", str(outdir),
                        "--study", "novelty"]) == 0
        lines = (outdir / "novelty.csv").read_text().strip().splitlines()
        groups = {line.split(",")[1] for line in lines[1:]}
        assert groups == {"seen", "unseen"}

    def test_novel_counts_and_known_families_match_row_loops(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(
            n_benign=800, n_malicious=800, novel_fraction=0.3, split_fractions=[0.3, 0.3, 0.4])))
        data = tmp_path / "nov.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(data)]) == 0
        summary = capsys.readouterr().out.splitlines()
        ds = load_dataset(data)
        for split, line in zip(("train", "validation", "test"), summary[1:]):
            novel = sum(1 for f, s in zip(ds.families, ds.splits) if s == split and f is not None and f.startswith("fam_n"))
            assert line.startswith(f"  {split}: ") and line.endswith(f", {novel} novel-family)")
        assert novel > 0
        known = {f for f, s in zip(ds.families, ds.splits) if f is not None and s in ("train", "validation")}
        expected = tmp_path / "expected.csv"
        uncertainty_by_novelty(filter_split(ds, "test"), known).write_csv(expected)
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(data), "--output-dir", str(outdir), "--study", "novelty"]) == 0
        assert (outdir / "novelty.csv").read_bytes() == expected.read_bytes()

    def test_novelty_study_warns_on_an_empty_group(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_benign": 200, "n_malicious": 200, "seed": 3}))
        data = tmp_path / "nov.csv"
        assert run_cli(["synth", "--config", str(config_path), "--output", str(data)]) == 0
        capsys.readouterr()
        outdir = tmp_path / "out"
        assert run_cli(["study", "--input", str(data), "--output-dir", str(outdir), "--study", "novelty"]) == 0
        assert capsys.readouterr().err == "warning: one novelty group is empty\n"
        assert (outdir / "novelty.csv").exists()

    def test_novelty_without_tags_exits_3(self, tmp_path):
        rows = ["sample_id,label,split,family,m0,m1"]
        for i in range(4):
            rows.append(f"b{i},0,test,,0.1,0.2")
            rows.append(f"m{i},1,test,,0.8,0.9")
        data = tmp_path / "untagged.csv"
        data.write_text("\n".join(rows) + "\n")
        assert run_cli(["study", "--input", str(data), "--output-dir", str(tmp_path),
                        "--study", "novelty"]) == 3


class TestModuleInvocation:
    def test_python_dash_m_entry(self, cli_env):
        proc = subprocess.run([sys.executable, "-m", "lowfpr", "--help"],
                              capture_output=True, text=True, env=cli_env)
        assert proc.returncode == 0
        for command in ("validate", "fit", "eval", "study", "synth"):
            assert command in proc.stdout

    def test_exit_code_surfaces_through_process(self, tmp_path, cli_env):
        proc = subprocess.run([sys.executable, "-m", "lowfpr", "validate", "--input",
                               str(tmp_path / "missing.csv")], capture_output=True, text=True,
                              env=cli_env)
        assert proc.returncode == 2
        assert "data error" in proc.stderr


def test_readme_cli_synopsis_names_every_option(capsys):
    """Each command's lines of the README's CLI block name every one of the --options its --help lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis, name = {}, None
    for line in block.splitlines():
        if line.startswith("lowfpr "):
            name = line.split()[1]
        synopsis[name] = synopsis.get(name, "") + line + "\n"
    assert main(["--help"]) == 0
    commands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert set(synopsis) == set(commands)
    for name in commands:
        assert main([name, "--help"]) == 0
        options = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}
        assert options
        missing = [o for o in sorted(options) if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", synopsis[name])]
        assert not missing, (name, missing)
