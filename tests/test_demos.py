"""Run every demo script and every Python block of the README end to end,
so an example that uses a removed name or breaks at runtime fails the suite."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # Run a copy: demos may write files next to themselves.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    done = _run([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS, "README.md has no python block"
    for block in README_BLOCKS:
        done = _run(["-c", block], tmp_path)
        assert done.returncode == 0, f"{block}\n{done.stderr}"
