"""Reference figures for single layers, cold and warm, at the default BLAS
threading and on one thread.

    python3 perfbench/reference.py > reference.md

Each problem size runs in a fresh process (one with the default OpenBLAS
threading, one with ``OPENBLAS_NUM_THREADS=1``). "cold" is the first call in
that process, in the order of the table; "warm" is the median of up to five
further calls (fewer when one call takes over a second). Prints a markdown
table. The benchmark's checks use no stored reference output; this table only
documents the machine the README's figures were taken on.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ("1d:128", "1d:1024", "1d:4096", "2d:32", "2d:64")
ABSCISSA_MAX_NODES = 1024  # the program skips the abscissa above this too


def measure(size: str) -> dict:
    start = time.perf_counter()
    import numpy as np
    import nlkpp as k
    out = {"import nlkpp": (time.perf_counter() - start, None)}

    dim, n = size.split(":")
    n = int(n)
    extents, counts = ((0.0, 1.0), n) if dim == "1d" else (((0.0, 1.0), (0.0, 1.0)), (n, n))

    def timed(name, func, *args, **kwargs):
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        cold = time.perf_counter() - t0
        warm = []
        while len(warm) < 5 and sum(warm) + cold < 1.0:
            t0 = time.perf_counter()
            func(*args, **kwargs)
            warm.append(time.perf_counter() - t0)
        out[name] = (cold, statistics.median(warm) if warm else None)
        return result

    grid = timed("build_uniform_grid", k.build_uniform_grid, extents, counts)
    profile = k.KernelProfile("gaussian", 0.2)
    raw = timed("sample_convolution_kernel", k.sample_convolution_kernel, profile, grid)
    kernel = timed("symmetrize_and_normalize", k.symmetrize_and_normalize, raw)
    timed("certify_positivity_eigen", k.certify_positivity_eigen, kernel)
    timed("certify_positivity_bochner", k.certify_positivity_bochner, profile,
          dim=grid.dim)
    u = k.Field(grid, np.random.default_rng(0).uniform(0.5, 1.5, grid.n_nodes))
    timed("apply_kernel dense", k.apply_kernel, kernel, u, method="dense")
    timed("apply_kernel fft", k.apply_kernel, kernel, u, method="fft")
    config = k.SimConfig(mu=1.0, dt=2e-3, t_end=1.0)
    solver = k.DiffusionSolver(grid, config.solver_2d)
    state = k.SimState(t=0.0, u=u, step=0, dt_next=config.dt)
    timed("step_imex", k.step_imex, state, grid, kernel, config, solver=solver)
    if grid.n_nodes <= ABSCISSA_MAX_NODES:
        jac = timed("linearization_matrix", k.linearization_matrix, grid, kernel, 1.0)
        timed("spectral_abscissa", k.spectral_abscissa, jac)
    return out


def fmt(seconds) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.3g} ms" if seconds < 1.0 else f"{seconds:.3g} s"


def main() -> int:
    results = {}
    for threads in ("default", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if threads == "1":
            env["OPENBLAS_NUM_THREADS"] = "1"
        for size in SIZES:
            proc = subprocess.run([sys.executable, __file__, "--size", size], env=env,
                                  capture_output=True, text=True, check=True)
            results[threads, size] = json.loads(proc.stdout)
    layers = list(results["default", SIZES[-1]])
    for extra in results["default", SIZES[0]]:
        if extra not in layers:
            layers.append(extra)
    print("| layer | threads | " + " | ".join(SIZES) + " |")
    print("| --- | --- |" + " --- |" * len(SIZES))
    for layer in layers:
        for threads in ("default", "1"):
            cells = []
            for size in SIZES:
                cold, warm = results[threads, size].get(layer, (None, None))
                cells.append("skipped" if cold is None else f"{fmt(cold)} / {fmt(warm)}")
            print(f"| {layer} | {threads} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--size":
        print(json.dumps(measure(sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
