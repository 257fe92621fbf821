"""The package surface and what each process imports and freezes.

`lowfpr` loads an exported name's module on first use, `cli` imports the
study and synth modules only inside the commands that run them, and the
process entry in `lowfpr.__main__` freezes the import-time heap before it runs
`cli.main`, which itself never freezes. The process entry also caps OpenBLAS at
one thread, which can change no output because the package calls no BLAS routine.
"""

import ast
import gc
import hashlib
import importlib
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lowfpr
from lowfpr.synth import novelty_scenario
from test_output_digests import EXPECTED

ROOT = Path(__file__).resolve().parent.parent

# The package's exports, by module, as they stood when every module was imported eagerly.
EXPORTS = {
    "adjust": [
        "COORDINATE_BRACKETS", "AdjustmentParams", "CalibrationEvaluation", "CalibrationResult", "Variant",
        "brent_minimize", "evaluate_calibration", "fit_global", "fit_local", "load_calibration", "save_calibration",
    ],
    "analysis": [
        "ComparisonRow", "GroupSplit", "WilcoxonResult", "ensemble_vs_members", "uncertainty_by_correctness",
        "uncertainty_by_novelty", "wilcoxon_signed_rank",
    ],
    "data": ["DatasetError", "PredictionDataset", "filter_split", "load_dataset", "save_dataset"],
    "protocol": ["ProtocolCurvePoint", "StudyRow", "relative_error_curve", "subsampling_study"],
    "rocmetrics": [
        "OperatingPoint", "RocCurve", "accuracy", "auc", "combined_metric", "evaluate_at_threshold", "partial_auc",
        "roc_curve", "select_threshold",
    ],
    "synth": [
        "SynthConfig", "default_scenario", "generate", "heteroscedastic_scenario", "noisy_fp_scenario",
        "novelty_scenario",
    ],
    "uncertainty": ["UncertaintyTable", "compute_uncertainties"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


def loaded_after(statement, cli_env, modules):
    """Which of ``modules`` are in sys.modules after ``statement`` runs in a fresh interpreter."""
    code = f"import sys\n{statement}\nprint(' '.join(m for m in {list(modules)!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, check=True)
    return proc.stdout.split()


def digest_config(work):
    """Write the seeded 2k-row config of tests/test_output_digests.py into ``work`` and return its path."""
    config = replace(novelty_scenario(seed=21), n_benign=1000, n_malicious=1000)
    path = work / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


class TestSurface:
    def test_all_is_the_export_list(self):
        assert len(ALL_NAMES) == 44
        assert sorted(lowfpr.__all__) == ALL_NAMES

    def test_dir_lists_every_export_and_the_version(self):
        assert set(ALL_NAMES) | {"__version__"} <= set(dir(lowfpr))
        assert lowfpr.__version__ == "0.1.0"

    def test_each_export_is_its_module_attribute(self):
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(lowfpr, name) is getattr(importlib.import_module(f"lowfpr.{module}"), name), name

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lowfpr.no_such_name  # noqa: B018

    def test_submodules_import_by_name(self):
        from lowfpr import adjust, cli

        assert adjust.__name__ == "lowfpr.adjust" and cli.__name__ == "lowfpr.cli"

    def test_readme_import_block_is_exported(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("from lowfpr import (", 1)[1].split(")", 1)[0]
        names = [n.strip() for n in block.replace("\n", " ").split(",") if n.strip()]
        assert names and set(names) <= set(lowfpr.__all__)


class TestImportFootprint:
    def test_package_loads_a_module_on_first_use(self, cli_env):
        modules = [f"lowfpr.{m}" for m in EXPORTS]
        assert loaded_after("import lowfpr", cli_env, modules) == []
        assert "lowfpr.analysis" not in loaded_after("import lowfpr; lowfpr.fit_local", cli_env, modules)
        assert loaded_after("import lowfpr; lowfpr.synth", cli_env, ["lowfpr.synth"]) == ["lowfpr.synth"]

    def test_cli_leaves_study_and_synth_modules_unloaded(self, cli_env):
        unused = ("lowfpr.analysis", "lowfpr.protocol", "lowfpr.synth", "concurrent.futures")
        assert loaded_after("import lowfpr.cli", cli_env, unused) == []

    def test_cli_loads_no_click(self, cli_env):
        assert loaded_after("import lowfpr.cli", cli_env, ["click"]) == []

    def test_protocol_leaves_thread_pool_unloaded(self, cli_env):
        assert loaded_after("import lowfpr.protocol", cli_env, ["concurrent.futures"]) == []

    def test_fits_that_draw_no_order_leave_numpy_random_unloaded(self, cli_env):
        fit = (
            "import numpy as np\n"
            "from lowfpr.adjust import fit_local\n"
            "from lowfpr.data import PredictionDataset\n"
            "ds = PredictionDataset(sample_ids=[str(i) for i in range(20)], labels=[i % 2 for i in range(20)],\n"
            "                       splits=['validation'] * 20, families=[None] * 20,\n"
            "                       scores=np.linspace(0.01, 0.99, 40).reshape(20, 2))\n"
            "fit_local(ds, 0.1, {!r})"
        )
        for variant in ("global_only", "lv1"):  # the g and g+l fits
            assert loaded_after(fit.format(variant), cli_env, ["numpy.random"]) == []
        assert loaded_after(fit.format("lv2"), cli_env, ["numpy.random"]) == ["numpy.random"]


class TestProcessEntry:
    def test_script_target_is_the_process_entry(self):
        target = re.search(r'^lowfpr = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
        assert target.group(1) == "lowfpr.__main__:main"

    def test_module_run_freezes(self, cli_env):
        code = (
            "import gc, runpy, sys\n"
            "sys.argv = ['lowfpr', '--help']\n"
            "runpy.run_module('lowfpr', run_name='__main__')\n"
            "print('frozen', gc.get_freeze_count() > 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, check=True)
        assert proc.stdout.splitlines()[-1] == "frozen True"

    def test_process_entry_freezes_then_runs_the_cli(self, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # restored afterwards: the import may set it
        import lowfpr.__main__ as entry

        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        assert entry.main(["validate", "--help"]) == 0
        assert frozen == [True]
        assert "--input" in capsys.readouterr().out

    def test_cli_main_does_not_freeze(self, tmp_path):
        from lowfpr.cli import main

        before = gc.get_freeze_count()
        assert main(["synth", "--config", digest_config(tmp_path), "--output", str(tmp_path / "d.csv")]) == 0
        assert main(["validate", "--input", str(tmp_path / "d.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_process_path_writes_the_recorded_bytes(self, tmp_path, cli_env):
        """synth -> fit -> eval -> subsample study as `python -m lowfpr` processes, against the in-process digests."""
        data = str(tmp_path / "data.csv")
        commands = [
            ["synth", "--config", digest_config(tmp_path), "--output", data],
            ["fit", "--input", data, "--output-dir", str(tmp_path / "fit"), "--variant", "g+lv2",
             "--target-fpr", "0.01", "--seed", "3"],
            ["eval", "--input", data, "--output-dir", str(tmp_path / "eval_g+lv2"),
             "--calibration", str(tmp_path / "fit" / "calibration_g+lv2_0.01.json")],
            ["study", "--input", data, "--output-dir", str(tmp_path / "study"), "--study", "subsample",
             "--fractions", "1,0.5", "--study-seeds", "2", "--threads", "2"],
        ]
        for args in commands:
            proc = subprocess.run([sys.executable, "-m", "lowfpr", *args], capture_output=True, env=cli_env)
            assert proc.returncode == 0, proc.stderr
        files = ["data.csv", "fit/calibration_g+lv2_0.01.json", "eval_g+lv2/evaluation.csv", "study/subsample.csv"]
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files}
        assert digests == {f: EXPECTED[f] for f in files}


# numpy names whose call would reach BLAS; the process entry's one-thread cap relies on the package making none.
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "linalg"}


def blas_uses(source: str) -> list[str]:
    """Each ``@`` in ``source`` and each call through one of BLAS_NAMES, such as ``np.linalg.norm(x)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Call):
            names = {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node.func)
                     if isinstance(n, (ast.Attribute, ast.Name))}
            found.extend(sorted(names & BLAS_NAMES))
    return found


class TestBlasThreads:
    @staticmethod
    def blas_threads_after(statement, cli_env, preset=None):
        """OPENBLAS_NUM_THREADS after ``statement`` in a fresh interpreter that starts it unset or at ``preset``."""
        env = {k: v for k, v in cli_env.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = f"import os\n{statement}\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        return proc.stdout.strip()

    def test_process_entry_sets_one_thread(self, cli_env):
        assert self.blas_threads_after("import lowfpr.__main__", cli_env) == "1"

    def test_process_entry_keeps_a_preset_value(self, cli_env):
        assert self.blas_threads_after("import lowfpr.__main__", cli_env, preset="3") == "3"

    def test_cli_import_leaves_it_unset(self, cli_env):
        assert self.blas_threads_after("import lowfpr.cli", cli_env) == "None"

    def test_package_calls_no_blas_routine(self):
        for path in sorted((ROOT / "src" / "lowfpr").glob("*.py")):
            assert blas_uses(path.read_text(encoding="utf-8")) == [], path.name

    def test_walk_finds_each_blas_use(self):
        source = "c = a @ b\nc @= b\nnp.dot(a, b)\nnp.linalg.norm(a)\nx.inner(y)\neinsum('i,i', a, b)\nnp.add(a, b)"
        assert sorted(blas_uses(source)) == ["@", "@", "dot", "einsum", "inner", "linalg"]
