"""The README's example scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlkpp

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--n", "32", "--t-end", "0.5"]),
    ("theorem_demo.py", ["--n", "32", "--t-end", "1"]),
    ("turing_onset.py", ["--n", "64"]),
], ids=["convergence_study", "theorem_demo", "turing_onset"])
def test_example_script_runs(tmp_path, script, args):
    src = str(Path(nlkpp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, cwd=tmp_path, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
