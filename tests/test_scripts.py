"""The README's example scripts run to completion, and its Python API example
prints what its comments say."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlkpp

ROOT = Path(__file__).parents[1]


def run_python(args, cwd):
    src = str(Path(nlkpp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--n", "32", "--t-end", "0.5"]),
    ("theorem_demo.py", ["--n", "32", "--t-end", "1"]),
    ("turing_onset.py", ["--n", "64"]),
], ids=["convergence_study", "theorem_demo", "turing_onset"])
def test_example_script_runs(tmp_path, script, args):
    out = run_python([str(ROOT / "scripts" / script), *args], tmp_path)
    assert out.returncode == 0, out.stderr


def test_turing_onset_prints_the_readme_onset(tmp_path):
    onset = r"onset mu\* = ([\d.]+)"
    stated = re.findall(f"`{onset}`", (ROOT / "README.md").read_text())
    assert len(stated) == 1
    out = run_python([str(ROOT / "scripts" / "turing_onset.py")], tmp_path)
    assert out.returncode == 0, out.stderr
    assert re.findall(onset, out.stdout) == stated, out.stdout


def test_turing_onset_prints_a6s_onset(tmp_path):
    # the README quotes the onset on A6's grid as `mu* = ...`
    stated = re.findall(r"`mu\* = ([\d.]+)`", (ROOT / "README.md").read_text())
    assert stated == ["2341.89"]
    out = run_python([str(ROOT / "scripts" / "turing_onset.py"), "--sigma", "0.2",
                      "--hi", "1", "--n", "128"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert re.findall(r"onset mu\* = ([\d.]+)", out.stdout) == stated, out.stdout


def test_readme_python_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.DOTALL)
    assert len(blocks) == 1
    out = run_python(["-c", blocks[0]], tmp_path)
    assert out.returncode == 0, out.stderr
    # each print is commented with its output: a quoted string, or ~1e-k
    expected = re.findall(r"^print\(.*#\s*(.+?)\s*$", blocks[0], re.MULTILINE)
    printed = out.stdout.splitlines()
    assert len(printed) == len(expected), out.stdout
    for line, comment in zip(printed, expected):
        magnitude = re.fullmatch(r"~1e(-?\d+)", comment)
        if magnitude:
            # within half a decade of 10^k
            assert abs(math.log10(abs(float(line))) - int(magnitude[1])) <= 0.5, \
                (line, comment)
        else:
            assert line == comment.strip('"'), (line, comment)
