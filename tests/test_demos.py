"""Every demo script, and every Python block of README.md, runs to completion
against the library in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert DEMOS


# the files a demo writes when it is given their names
DEMO_OUTPUTS = {"05_prediction_error_sweep": ["sweep.csv", "sweep.svg"]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    outputs = DEMO_OUTPUTS.get(demo.stem, [])
    completed = _run([str(demo), *outputs], tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert all((tmp_path / name).stat().st_size > 0 for name in outputs)


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    for block in README_BLOCKS:
        completed = _run(["-c", block], tmp_path)
        assert completed.returncode == 0, f"{completed.stderr}\nin README block:\n{block}"
