"""Smoke test: every script in demos/ runs in a fresh interpreter and prints."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run_and_print(tmp_path):
    assert DEMOS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # started together, since run one after another they take about 3 s
    procs = {demo.name: subprocess.Popen([sys.executable, str(demo)], cwd=tmp_path, env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True)
             for demo in DEMOS}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{err}"
        assert out.strip(), f"{name} printed nothing"
