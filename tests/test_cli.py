import json
import subprocess
import sys

import pytest

from lowfpr.cli import main
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

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert run_cli(["validate", "--input", str(tmp_path / "absent.csv")]) == 2

    def test_usage_error_exits_1(self):
        assert run_cli(["validate"]) == 1
        assert run_cli(["no-such-command"]) == 1
        assert run_cli(["validate", "--input", "x", "--format", "xml"]) == 1


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

    def test_bad_config_exits_3(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"logit_sd": -1.0}))
        assert run_cli(["synth", "--config", str(config_path), "--output", str(tmp_path / "x.csv")]) == 3


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

    def test_missing_target_is_usage_error(self, dataset_csv):
        assert run_cli(["fit", "--input", str(dataset_csv), "--variant", "g"]) == 1


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
        ],
        ids=["not-an-object", "missing-key", "non-numeric", "nan-threshold"],
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
