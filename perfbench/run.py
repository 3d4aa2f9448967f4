"""Benchmark for nlkpp: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload ensemble_1d --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and drives ``src/nlkpp`` through its
command line in fresh processes, as a user would. Set-up (``nlkpp certify`` of
the workload's kernel in a fresh process) is timed three times; then whole
rounds of the workload start until ``--seconds`` have passed (at least one).
With ``--trace 1`` each round is a pair of passes, a set-up certify plus the
round's operations, untraced and then traced through ``perfbench/trace_cli.py``;
the two must write byte-identical traces. Earlier lines of standard output
describe the machine; the last line is the JSON result. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS, both, certificate_verdicts, read_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


class Runner:
    """Starts nlkpp command lines in fresh processes and measures each one."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "NLKPP_OUT"}
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")

    def call(self, args: list, span_dir: Path | None = None) -> tuple[int, float, int]:
        """Run ``nlkpp <args>``; returns exit status, wall seconds, peak RSS in KiB
        (the largest of the process and every child it waited for)."""
        if span_dir is None:
            argv = [sys.executable, "-m", "nlkpp.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(span_dir), *args]
        with open(self.work / "stderr.log", "a") as err:
            err.write(f"$ {' '.join(argv)}\n")
            err.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, raw_status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(raw_status)
            err.write(f"# exit {proc.returncode} wall {wall:.3f}s "
                      f"cpu {usage.ru_utime + usage.ru_stime:.3f}s "
                      f"maxrss {usage.ru_maxrss} KiB\n")
        return proc.returncode, wall, usage.ru_maxrss


class Round:
    """One pass over a workload's operations, with their timings and checks."""

    def __init__(self, runner: Runner, inputs: Path, out: Path,
                 span_dir: Path | None = None):
        self.runner, self.inputs, self.out, self.span_dir = runner, inputs, out, span_dir
        self.wall_s = 0.0
        self.steps = 0
        self.peak_kib = 0
        self.scenario_runs = 0  # run_scenario calls the traced run must have seen
        self.checks: list[tuple[str, bool, bool]] = []

    def run(self, command: str, name: str, *extra: str) -> tuple[int, Path]:
        """Run ``nlkpp simulate|sweep`` on input ``name``; returns exit status and
        output directory."""
        out = self.out / name
        status, wall, peak = self.runner.call(
            [command, str(self.inputs / f"{name}.json"), "--out", str(out),
             "--quiet", *extra], self.span_dir)
        self.wall_s += wall
        self.peak_kib = max(self.peak_kib, peak)
        self.steps += self._accepted_steps(command, out)
        return status, out

    def _accepted_steps(self, command: str, out: Path) -> int:
        try:
            if command == "sweep":
                rows = read_rows(out / "sweep_summary.csv")
                self.scenario_runs += len(rows)
                return sum(int(r["steps"]) for r in rows if r["status"] == "ok")
            self.scenario_runs += 1
            return len(read_rows(out / "trace.csv")) - 1
        except (OSError, KeyError, ValueError):
            return 0

    def check(self, name: str, predicate, known_fault: bool = False) -> None:
        try:
            passed = bool(predicate())
        except (OSError, KeyError, ValueError, IndexError):
            passed = False
        self.checks.append((name, passed, known_fault))

    @property
    def failed(self) -> list[tuple[str, bool, bool]]:
        return [c for c in self.checks if not c[1]]


def machine_record() -> dict:
    """Core count, library versions and BLAS thread count of this interpreter."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    record = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__, "openblas": []}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        entry = {"library": os.path.basename(lib)}
        for suffix in ("64_", ""):  # numpy bundles the 64-bit-integer build
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
        record["openblas"].append(entry)
    return record


def set_up(runner: Runner, workload, inputs: Path, out: Path,
           span_dir: Path | None = None) -> tuple[float, bool]:
    """``nlkpp certify`` of the workload's kernel in a fresh process; returns the
    wall time and whether it exited 0 with the expected verdicts."""
    status, wall, _ = runner.call(["certify", str(inputs / "setup.json"),
                                   "--out", str(out), "--quiet"], span_dir)
    try:
        verdicts = certificate_verdicts(out / "certificate.csv")
    except OSError:
        verdicts = {}
    ok = status == 0 and both(verdicts, workload.SETUP_VERDICT)
    if not ok:
        print(f"error: set-up certify exited {status} with verdicts {verdicts}, "
              f"expected {workload.SETUP_VERDICT}; see {runner.work / 'stderr.log'}",
              file=sys.stderr)
    return wall, ok


def identical_outputs(plain: Path, traced: Path) -> list[str]:
    """Relative paths of trace.csv / sweep_summary.csv files that differ or are missing."""
    names = ("trace.csv", "sweep_summary.csv")
    found = {p.relative_to(plain) for p in plain.rglob("*") if p.name in names}
    found |= {p.relative_to(traced) for p in traced.rglob("*") if p.name in names}
    return sorted(str(rel) for rel in found
                  if not ((plain / rel).is_file() and (traced / rel).is_file()
                          and (plain / rel).read_bytes() == (traced / rel).read_bytes()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nlkpp" / "cli.py").is_file():
        print(f"error: no nlkpp source tree at {ROOT / 'src' / 'nlkpp'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, doc in workload.inputs().items():
        (inputs / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    runner = Runner(work)
    print(json.dumps({"machine": machine_record()}), flush=True)

    # the traced run reports no setup_s; its rounds each start with a set-up
    setup = []
    correct = True
    for i in range(0 if args.trace else SETUP_REPEATS):
        wall, ok = set_up(runner, workload, inputs, work / f"setup_{i}")
        setup.append(wall)
        correct &= ok

    rounds, traced_rounds, layers = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not rounds:
        k = len(rounds)
        plain = Round(runner, inputs, work / f"round_{k}" / "plain")
        if args.trace:
            plain.wall_s, ok = set_up(runner, workload, inputs, plain.out / "setup")
            correct &= ok
        workload.play(plain)
        rounds.append(plain)
        if args.trace:
            span_dir = work / f"round_{k}" / "spans"
            span_dir.mkdir()
            traced = Round(runner, inputs, work / f"round_{k}" / "traced", span_dir)
            traced.wall_s, ok = set_up(runner, workload, inputs, traced.out / "setup",
                                       span_dir)
            correct &= ok
            workload.play(traced)
            traced_rounds.append(traced)
            differing = identical_outputs(plain.out, traced.out)
            if differing:
                correct = False
                print(f"error: traced run changed {differing}", file=sys.stderr)
            metrics = layer_metrics(str(span_dir))
            seen = sum(1 for f in span_dir.iterdir()
                       for s in json.loads(f.read_text())["spans"]
                       if s[0] == "scenario.run_scenario")
            if seen != traced.scenario_runs:
                correct = False
                print(f"error: spans cover {seen} of {traced.scenario_runs} scenario runs",
                      file=sys.stderr)
            metrics["scenario.points"] = (
                sum(1 for p in traced.out.rglob("sweep_summary.csv")
                    for r in read_rows(p) if r["status"] == "ok"), "count")
            metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
            layers.append(metrics)

    every = rounds + traced_rounds
    for rnd in every:
        for name, _, known in rnd.failed:
            if not known:
                correct = False
                print(f"error: check failed: {name}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median_low(m[name][0] for m in layers),
                          "unit": unit}
                   for name, (_, unit) in layers[0].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
            "steps_per_s": {"value": statistics.median(r.steps / r.wall_s
                                                       for r in rounds),
                            "unit": "steps/s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_kib / 1024 for r in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct,
                      "attempted": sum(len(r.checks) for r in every),
                      "failed": sum(len(r.failed) for r in every),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
