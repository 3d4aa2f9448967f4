import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlkpp
from nlkpp import (KernelProfile, build_uniform_grid, sample_convolution_kernel,
                   symmetrize_and_normalize)
from nlkpp._openblas import _thread_functions


def stencil_apply(kern, f):
    """K[f] of a balanced convolution kernel through its stencil, the FFT
    path, at any size: ``apply_kernel`` takes that path from 512 nodes on,
    and the eigen certificate's Lanczos at every size."""
    return kern.scale * kern._stencil.convolve(
        kern.scale * (kern.grid.weights * f.values))


def dense_laplacian(grid):
    """L = -W^-1 G, G the graph Laplacian of ``grid.edges``, as a dense array
    built entry by entry: a reference for the program's own Laplacian,
    ``linearization_matrix(grid, None, 0.0)``, and for the solvers."""
    w = grid.weights
    L = np.zeros((grid.n_nodes, grid.n_nodes))
    i = np.arange(grid.n_nodes)
    degree = np.zeros(grid.n_nodes)
    for stride, c in grid.edges:
        L[i[:-stride], i[stride:]] = c[stride:] / w[:-stride]
        L[i[stride:], i[:-stride]] = c[stride:] / w[stride:]
        degree += c + np.roll(c, -stride)
    L[i, i] = -degree / w
    return L


@pytest.fixture(autouse=True)
def openblas_threads_restored():
    """Fail a test that leaves numpy's OpenBLAS thread count changed: every
    later test would run at the wrong count."""
    functions = _thread_functions()
    before = functions and functions[0]()
    yield
    after = functions and functions[0]()
    if after != before:
        pytest.fail(f"OpenBLAS thread count {before} became {after}")


def _fresh_env() -> dict:
    """This process's environment, with this nlkpp first on the path."""
    src = str(Path(nlkpp.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a new interpreter that imports this nlkpp, and
    return its standard output: what a module import loads shows only there,
    since this process has loaded what earlier tests imported."""
    env = _fresh_env()

    def run(code: str, cwd=None) -> str:
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env, cwd=cwd).stdout
    return run


@pytest.fixture(scope="session")
def nlkpp_process():
    """Run ``python -W error -m nlkpp.cli`` with the given arguments in a new
    process and return the completed process, its output as text: a warning
    ends it with a traceback. The process's standard output is
    block-buffered, as it is by default into a pipe."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)

    def run(args: list, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-W", "error", "-m", "nlkpp.cli", *args],
                              capture_output=True, text=True, env=env, cwd=cwd)
    return run


@pytest.fixture(scope="session")
def unit_grid():
    """[0, 1] with 128 nodes, the workhorse grid of the suite."""
    return build_uniform_grid((0.0, 1.0), 128)


@pytest.fixture(scope="session")
def balanced_gaussian(unit_grid):
    profile = KernelProfile("gaussian", 0.2)
    return symmetrize_and_normalize(sample_convolution_kernel(profile, unit_grid))


@pytest.fixture(scope="session")
def balanced_tophat(unit_grid):
    profile = KernelProfile("tophat", 0.2)
    return symmetrize_and_normalize(sample_convolution_kernel(profile, unit_grid))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
