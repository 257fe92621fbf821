"""Smoke test: every demo, the Python ones and the shell walkthrough, runs to completion against the imported package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0[1-7]_*.py"))


def test_demos_found():
    assert [d.name[:2] for d in DEMOS] == [f"0{k}" for k in range(1, 8)]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path, cli_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=cli_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_cli_walkthrough_exits_0(tmp_path, cli_env):
    # The walkthrough works in a mktemp -d directory under TMPDIR and removes it on exit.
    env = dict(cli_env, TMPDIR=str(tmp_path))
    walkthrough = DEMO_DIR / "08_cli_walkthrough.sh"
    proc = subprocess.run(["sh", str(walkthrough)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "table1.csv:" in proc.stdout
    assert list(tmp_path.iterdir()) == []
