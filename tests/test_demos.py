"""Smoke test: every demo script and the README quickstart run to completion."""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # run a copy, so that scripts writing next to themselves write into tmp_path
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(copy)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S)
    assert block is not None
    script = tmp_path / "readme" / "quickstart.py"
    script.parent.mkdir()
    script.write_text(block[1], encoding="utf-8")
    test_demo_runs(script, tmp_path)
