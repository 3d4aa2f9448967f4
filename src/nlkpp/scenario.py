"""Scenario files, batch execution, and parameter sweeps.

A scenario is a strict JSON document (unknown keys are errors) that pins
everything a run needs: grid, kernel, initial datum, integrator settings,
and which artifacts to write. Identical scenarios produce bit-identical
trace files, which makes the scenario the unit of reproducibility. The
``kernel`` section is required: a scenario always runs the nonlocal
equation, and the local one (``kernel=None``) is reached through the Python
API only.

Artifacts written by :func:`run_scenario` into the output directory:

* ``trace.csv``        per-step diagnostics (columns in ``TRACE_COLUMNS`` order)
* ``certificate.csv``  one row per positivity certificate
* ``final_field.bin``  binary field (see :mod:`nlkpp.fieldio`)
* ``snapshots/``       periodic binary fields, ``snap_<step>.bin``
* ``summary.csv``      one row of headline numbers
* ``run_meta.json``    scenario echo plus run metadata (solver, stability,
                       ``steps_rejected`` and ``dt_min`` of the step loop)

The output directory is resolved as: explicit argument, then the
``NLKPP_OUT`` environment variable, then the scenario's own setting. It is
created before the kernel is built, and one that cannot be created is a
``ValidationError``; so is an artifact that cannot be written there.
"""

import contextlib
import copy
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fieldio
from ._openblas import _one_blas_thread
from .diagnostics import cosine_modes, most_unstable_cosine_mode, spectral_abscissa
from .dynamics import SimConfig, run
from .errors import NumericalError, ValidationError
from .grid import Field, Grid, build_uniform_grid
from .kernels import (FAMILIES, Kernel, KernelProfile, PositivityCertificate,
                      certify_positivity_bochner, certify_positivity_eigen,
                      sample_convolution_kernel, symmetrize_and_normalize)

OUTPUT_DIR_ENV = "NLKPP_OUT"

# the largest grid for the dense eigensolve of spectral_abscissa: J is 8 MiB
_STABILITY_MAX_NODES = 1024

ARTIFACTS = ("trace", "certificate", "final_field", "snapshots", "summary", "meta")

SUMMARY_COLUMNS = ("name", "status", "t_end", "steps", "final_sup_dist_one",
                   "final_V", "final_mass", "min_u", "eigen_verdict",
                   "eigen_witness", "bochner_verdict", "bochner_witness",
                   "spectral_abscissa", "wall_time_s")

CERTIFICATE_COLUMNS = ("method", "verdict", "witness", "tolerance",
                       "grid_n", "kernel_family", "sigma")

_REQUIRED = object()


class _Section:
    """Dict reader that consumes keys and rejects leftovers (strict schema)."""

    def __init__(self, raw, name: str):
        if not isinstance(raw, dict):
            raise ValidationError(f"'{name}' must be a JSON object")
        self._raw = dict(raw)
        self._name = name

    def take(self, key: str, default=_REQUIRED):
        if key in self._raw:
            return self._raw.pop(key)
        if default is _REQUIRED:
            raise ValidationError(f"missing required key '{key}' in '{self._name}'")
        return default

    def finish(self) -> None:
        if self._raw:
            key = sorted(self._raw)[0]
            raise ValidationError(f"unknown key '{key}' in '{self._name}'")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"'{where}' must be a number, got {value!r}")
    # json.loads reads NaN, Infinity and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"'{where}' must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"'{where}' must be an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"'{where}' must be true or false, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"'{where}' must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: float
    normalization: str  # "balanced", the only accepted value
    certify: bool


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # constant | random_uniform | cosine | file
    value: float | None = None  # None where the kind does not read it
    low: float | None = None
    high: float | None = None
    seed: int | None = None
    amplitude: float | None = None
    mode: int | str | None = None  # 1 <= int <= n0 - 1, or "most_unstable"
    path: str | None = None


@dataclass(frozen=True)
class OutputSpec:
    directory: str
    artifacts: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    """A validated scenario."""

    name: str
    grid: Grid
    kernel: KernelSpec
    initial: InitialSpec
    sim: SimConfig
    output: OutputSpec
    raw: dict
    base_dir: str = "."


def _parse_grid(raw) -> Grid:
    """JSON types only; build_uniform_grid checks shapes, counts and extents."""
    sec = _Section(raw, "grid")
    extents = sec.take("extents")
    counts = sec.take("counts")
    sec.finish()
    if not isinstance(extents, list):
        raise ValidationError("grid.extents must be [lo, hi] or a list of such pairs")
    extents = [[_as_number(v, "grid.extents") for v in pair] if isinstance(pair, list)
               else _as_number(pair, "grid.extents") for pair in extents]
    counts = [_as_int(c, "grid.counts")
              for c in (counts if isinstance(counts, list) else [counts])]
    try:
        return build_uniform_grid(extents, counts)
    except ValidationError as exc:
        raise ValidationError(f"grid: {exc}") from exc


def _parse_kernel(raw) -> KernelSpec:
    sec = _Section(raw, "kernel")
    family = sec.take("family")
    families = [f for f in FAMILIES if f != "custom"]  # a custom profile is code
    if family not in families:
        raise ValidationError(
            f"kernel.family must be one of {'/'.join(families)}, got {family!r}")
    spec = KernelSpec(  # KernelProfile checks sigma when build_kernel makes it
        family=family,
        sigma=_as_number(sec.take("sigma"), "kernel.sigma"),
        normalization=sec.take("normalization", "balanced"),
        certify=_as_bool(sec.take("certify", True), "kernel.certify"),
    )
    sec.finish()
    return spec


def _parse_initial(raw, grid: Grid) -> InitialSpec:
    sec = _Section(raw, "initial")
    kind = sec.take("kind")
    if kind == "constant":
        spec = InitialSpec(kind=kind,
                           value=_as_number(sec.take("value"), "initial.value"))
        if not spec.value >= 0:
            raise ValidationError("initial.value must be >= 0")
    elif kind == "random_uniform":
        low = _as_number(sec.take("low"), "initial.low")
        high = _as_number(sec.take("high"), "initial.high")
        seed = _as_int(sec.take("seed", 0), "initial.seed")
        if not 0 <= low <= high:
            raise ValidationError("initial.low/high must satisfy 0 <= low <= high")
        if seed < 0:
            raise ValidationError("initial.seed must be >= 0")
        spec = InitialSpec(kind=kind, low=low, high=high, seed=seed)
    elif kind == "cosine":
        amplitude = _as_number(sec.take("amplitude", 0.01), "initial.amplitude")
        mode = sec.take("mode", "most_unstable")
        if mode != "most_unstable":
            mode = _as_int(mode, "initial.mode")
            if mode < 1:
                raise ValidationError("initial.mode must be >= 1")
            _as_number(mode, "initial.mode")  # cosine_modes takes it as a float
            # cos(k pi j / (n0 - 1)) has period 2 (n0 - 1) in k: a higher k aliases
            if mode > grid.counts[0] - 1:
                raise ValidationError(
                    f"initial.mode {mode} exceeds {grid.counts[0] - 1}, the highest "
                    f"cosine mode of {grid.counts[0]} nodes along axis 0")
        if not 0 <= amplitude < 1:
            raise ValidationError("initial.amplitude must lie in [0, 1)")
        spec = InitialSpec(kind=kind, amplitude=amplitude, mode=mode)
    elif kind == "file":
        spec = InitialSpec(kind=kind, path=_as_str(sec.take("path"), "initial.path"))
    else:
        raise ValidationError(
            f"initial.kind must be constant/random_uniform/cosine/file, got {kind!r}")
    sec.finish()
    return spec


def _parse_sim(raw) -> SimConfig:
    sec = _Section(raw, "sim")
    config = SimConfig(  # validates mu, dt, t_end and the rest
        mu=_as_number(sec.take("mu"), "sim.mu"),
        dt=_as_number(sec.take("dt"), "sim.dt"),
        t_end=_as_number(sec.take("t_end"), "sim.t_end"),
        snapshot_every=_as_int(sec.take("snapshot_every", SimConfig.snapshot_every),
                               "sim.snapshot_every"),
    )
    sec.finish()
    return config


def _parse_output(raw) -> OutputSpec:
    sec = _Section(raw, "output")
    directory = _as_str(sec.take("directory", "out"), "output.directory")
    artifacts = sec.take("artifacts", list(ARTIFACTS))
    sec.finish()
    if not isinstance(artifacts, list):
        raise ValidationError("output.artifacts must be a list")
    for art in artifacts:
        if art not in ARTIFACTS:
            raise ValidationError(
                f"unknown artifact {art!r}; choose from {ARTIFACTS}")
    return OutputSpec(directory, tuple(artifacts))


def parse_scenario_dict(raw: dict, name: str = "scenario",
                        base_dir: str = ".") -> Scenario:
    """Validate a scenario document already loaded as a dict."""
    top = _Section(raw, "scenario")
    name = _as_str(top.take("name", name), "name")
    grid = _parse_grid(top.take("grid"))
    sim = _parse_sim(top.take("sim"))
    kernel = _parse_kernel(top.take("kernel"))
    initial = _parse_initial(top.take("initial"), grid)
    output = _parse_output(top.take("output", {}))
    top.finish()
    return Scenario(name=name, grid=grid, kernel=kernel, initial=initial,
                    sim=sim, output=output, raw=copy.deepcopy(raw),
                    base_dir=base_dir)


def _load_json(path) -> dict:
    path = Path(path)

    def unique_keys(pairs):  # json.loads alone keeps the last copy of a key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj
    try:
        return json.loads(path.read_text(), object_pairs_hook=unique_keys)
    except OSError as exc:  # missing, a directory, no permission
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValidationError:  # a duplicate key; a ValueError, so caught first
        raise
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ValidationError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{path}: nested too deeply") from None


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    raw = _load_json(path)
    return parse_scenario_dict(raw, name=path.stem, base_dir=str(path.parent))


def build_kernel(spec: KernelSpec, grid: Grid) -> tuple[Kernel, list[PositivityCertificate]]:
    """Sample, normalize, and (optionally) certify the scenario kernel."""
    # Temporary, belongs in _parse_kernel: perfbench/run.py counts a simulate
    # that exits while parsing as a run until ROADMAP item 4 fixes it.
    if spec.normalization != "balanced":
        raise ValidationError(
            f"kernel.normalization must be 'balanced', got {spec.normalization!r}: "
            "u = 1 is a steady state only when the weighted row sums K[1] are "
            "one, which column normalization does not give")
    profile = KernelProfile(spec.family, spec.sigma)
    kernel = symmetrize_and_normalize(sample_convolution_kernel(profile, grid))
    certificates: list[PositivityCertificate] = []
    if spec.certify:
        certificates.append(certify_positivity_eigen(kernel))
        certificates.append(certify_positivity_bochner(profile, dim=grid.dim))
    return kernel, certificates


def _build_initial(scenario: Scenario, grid: Grid, kernel: Kernel) -> tuple[Field, dict]:
    spec = scenario.initial
    info: dict = {"kind": spec.kind}
    if spec.kind == "constant":
        return Field.constant(grid, spec.value), info
    if spec.kind == "random_uniform":
        rng = np.random.default_rng(spec.seed)
        info["seed"] = spec.seed
        return Field(grid, rng.uniform(spec.low, spec.high, grid.n_nodes)), info
    if spec.kind == "cosine":
        mode = (most_unstable_cosine_mode(grid, kernel, scenario.sim.mu)
                if spec.mode == "most_unstable" else spec.mode)
        info["mode"] = int(mode)
        return Field(grid, 1.0 + spec.amplitude * cosine_modes(grid, mode)), info
    path = Path(spec.path)  # kind "file", the last one _parse_initial admits
    if not path.is_absolute():
        path = Path(scenario.base_dir) / path
    field = fieldio.read_field(path)
    if not field.grid.same_layout(grid):
        raise ValidationError(
            f"initial field file {path} has layout "
            f"{field.grid.counts}/{field.grid.extents}, scenario grid is "
            f"{grid.counts}/{grid.extents}")
    info["path"] = str(path)
    return Field(grid, field.values), info


def _output_dir(out_dir, fallback) -> Path:
    """Create and return ``out_dir`` if given, else ``NLKPP_OUT`` if set, else
    ``fallback``; a directory that cannot be created is a ValidationError."""
    path = Path(out_dir if out_dir is not None
                else os.environ.get(OUTPUT_DIR_ENV) or fallback)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
        raise ValidationError(f"cannot create output directory '{path}': "
                              f"{getattr(exc, 'strerror', None) or exc}") from None
    return path


@contextlib.contextmanager
def _writing_into(out: Path):
    """Turn an ``OSError`` raised while writing artifacts into ``out`` (a
    directory where a file goes, a full disk) into a ValidationError that
    names the path."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(
            f"cannot write '{exc.filename or out}': {exc.strerror or exc}") from None


def _write_csv(path, columns, rows) -> None:
    with fieldio._open_fresh(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def read_csv_rows(path) -> list[dict]:
    """Loader for the tool's own CSV artifacts (strings left unconverted)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _certificate_rows(certs, grid: Grid, spec: KernelSpec) -> list[dict]:
    grid_n = "x".join(str(n) for n in grid.counts)
    return [{"method": c.method, "verdict": c.verdict, "witness": c.witness,
             "tolerance": c.tolerance, "grid_n": grid_n,
             "kernel_family": spec.family, "sigma": spec.sigma}
            for c in certs]


def run_scenario(scenario: Scenario, out_dir=None, quiet: bool = False) -> dict:
    """Execute one scenario end to end; returns the summary row as a dict."""
    start = time.perf_counter()
    try:
        return _run_scenario_inner(scenario, out_dir, quiet, start)
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"scenario '{scenario.name}': {exc}") from exc


def _run_scenario_inner(scenario: Scenario, out_dir, quiet: bool,
                        start: float) -> dict:
    out = _output_dir(out_dir, scenario.output.directory)
    grid = scenario.grid
    kernel, certificates = build_kernel(scenario.kernel, grid)

    if grid.n_nodes > _STABILITY_MAX_NODES:
        stability = {"stability_skipped":
                     f"{grid.n_nodes} nodes > {_STABILITY_MAX_NODES}"}
    else:
        stability = {"spectral_abscissa":
                     spectral_abscissa(grid, kernel, scenario.sim.mu)}

    u0, initial_info = _build_initial(scenario, grid, kernel)

    meta = {"scenario": scenario.name, "initial": initial_info, **stability}
    for cert in certificates:
        meta[f"{cert.method}_verdict"] = cert.verdict
        # an inconclusive verdict has a NaN witness; run_meta.json has no NaN
        meta[f"{cert.method}_witness"] = (None if math.isnan(cert.witness)
                                          else cert.witness)
        if cert.solver is not None:
            meta[f"{cert.method}_solver"] = cert.solver
    meta["kernel_strictly_positive"] = kernel.strictly_positive
    if not kernel.strictly_positive and any(
            c.verdict == "positive" for c in certificates):
        # positive quadratic form but zeros in K: convergence to 1 is not
        # guaranteed by the theory, only suggested; record it
        meta["positivity_caveat"] = ("kernel has zero entries; certified "
                                     "positivity alone does not pin the limit")

    state, trace = run(u0, grid, kernel, scenario.sim, metadata=meta)

    final_v = trace.column("V")[-1]
    final_sup = trace.column("sup_dist_one")[-1]
    wall = time.perf_counter() - start
    certified = {c.method: c for c in certificates}  # empty when certify is off
    summary = {
        "name": scenario.name,
        "status": "ok",
        "t_end": state.t,
        "steps": state.step,
        "final_sup_dist_one": float(final_sup),
        "final_V": float(final_v),
        "final_mass": float(trace.column("mass")[-1]),
        "min_u": float(trace.column("min_u").min()),
        "eigen_verdict": certified["eigen"].verdict if certified else "",
        "eigen_witness": certified["eigen"].witness if certified else "",
        "bochner_verdict": certified["bochner"].verdict if certified else "",
        "bochner_witness": certified["bochner"].witness if certified else "",
        "spectral_abscissa": stability.get("spectral_abscissa", math.nan),
        "wall_time_s": wall,
    }

    arts = scenario.output.artifacts
    with _writing_into(out):
        if "trace" in arts:
            trace.to_csv(out / "trace.csv")
        if "certificate" in arts and certificates:
            _write_csv(out / "certificate.csv", CERTIFICATE_COLUMNS,
                       _certificate_rows(certificates, grid, scenario.kernel))
        if "final_field" in arts:
            fieldio.write_field(out / "final_field.bin", state.u)
        if "snapshots" in arts:
            snap_dir = _output_dir(out / "snapshots", None)
            for snap in trace.snapshots:
                fieldio.write_field(snap_dir / f"snap_{snap.step:08d}.bin",
                                    snap.field)
        if "summary" in arts:
            _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [summary])
        if "meta" in arts:
            with fieldio._open_fresh(out / "run_meta.json") as fh:
                fh.write(json.dumps({"scenario": scenario.raw,
                                     "metadata": trace.metadata},
                                    indent=2, default=str, allow_nan=False) + "\n")

    if not quiet:
        print(f"[{scenario.name}] steps={state.step} "
              f"sup|u-1|={final_sup:.3e} V={final_v:.3e} "
              f"abscissa={summary['spectral_abscissa']:.3g} wall={wall:.2f}s")
    return summary


def certify_scenario(scenario: Scenario, out_dir=None, quiet: bool = False) -> list:
    """Kernel-only path: build, normalize, certify, emit certificate.csv."""
    out = _output_dir(out_dir, scenario.output.directory)
    grid = scenario.grid
    spec = replace(scenario.kernel, certify=True)
    _, certificates = build_kernel(spec, grid)
    with _writing_into(out):
        _write_csv(out / "certificate.csv", CERTIFICATE_COLUMNS,
                   _certificate_rows(certificates, grid, scenario.kernel))
    if not quiet:
        for cert in certificates:
            print(f"[{scenario.name}] {cert.method}: {cert.verdict} "
                  f"(witness {cert.witness:.6g}, tolerance {cert.tolerance:.3g})")
    return certificates


@dataclass(frozen=True)
class SweepParameter:
    path: str  # dotted scenario path, e.g. "sim.mu" or "kernel.sigma"
    values: tuple


@dataclass(frozen=True)
class SweepSpec:
    base: dict
    parameters: tuple[SweepParameter, ...]
    directory: str = "sweep_out"
    base_dir: str = "."


def parse_sweep_dict(raw: dict, base_dir: str = ".") -> SweepSpec:
    top = _Section(raw, "sweep")
    base = top.take("base")
    params_raw = top.take("parameters")
    directory = _as_str(top.take("directory", "sweep_out"), "directory")
    top.finish()
    if not isinstance(base, dict):
        raise ValidationError("'base' must be a scenario object")
    if not isinstance(params_raw, list) or not 1 <= len(params_raw) <= 2:
        raise ValidationError("'parameters' must list one or two swept parameters")
    params = []
    for i, praw in enumerate(params_raw):
        sec = _Section(praw, f"parameters[{i}]")
        path = _as_str(sec.take("path"), f"parameters[{i}].path")
        values = sec.take("values")
        sec.finish()
        if any(p.path == path for p in params):
            raise ValidationError(f"parameter '{path}' is swept twice")
        if len(path.split(".")) != 2:
            raise ValidationError(
                f"parameter path must look like 'section.key', got {path!r}")
        section = path.split(".")[0]
        if not isinstance(base.get(section, {}), dict):
            raise ValidationError(
                f"parameter '{path}': base section '{section}' is not an object")
        if not isinstance(values, list) or not values:
            raise ValidationError(f"parameter '{path}' needs a non-empty value list")
        for v in values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"parameter '{path}' has non-finite value")
        params.append(SweepParameter(path, tuple(values)))
    return SweepSpec(base=base, parameters=tuple(params), directory=directory,
                     base_dir=base_dir)


def parse_sweep(path) -> SweepSpec:
    path = Path(path)
    return parse_sweep_dict(_load_json(path), base_dir=str(path.parent))


def _set_path(raw: dict, dotted: str, value) -> None:
    section, key = dotted.split(".", 1)
    raw.setdefault(section, {})[key] = value


def _sweep_points(sweep: SweepSpec) -> list[dict]:
    """Cartesian product of swept values, the first parameter outermost."""
    paths = [p.path for p in sweep.parameters]
    return [dict(zip(paths, values))
            for values in itertools.product(*(p.values for p in sweep.parameters))]


def _run_sweep_point(args) -> dict:
    index, base_raw, assignment, out_dir, base_dir = args
    row = {"point": index}
    row.update({path: value for path, value in assignment.items()})
    raw = copy.deepcopy(base_raw)
    for path, value in assignment.items():
        _set_path(raw, path, value)
    try:
        scenario = parse_scenario_dict(raw, name=f"point_{index:03d}",
                                       base_dir=base_dir)
        summary = run_scenario(scenario, out_dir=out_dir, quiet=True)
        row.update({k: v for k, v in summary.items() if k != "name"})
    except ValidationError as exc:
        row["status"] = "validation_error"
        row["error"] = str(exc)
    except NumericalError as exc:
        row["status"] = "numerical_error"
        row["error"] = str(exc)
    return row


def sweep_columns(sweep: SweepSpec) -> tuple[str, ...]:
    param_cols = tuple(p.path for p in sweep.parameters)
    result_cols = tuple(c for c in SUMMARY_COLUMNS
                        if c not in ("name", "wall_time_s"))
    return ("point",) + param_cols + result_cols + ("error",)


def run_sweep(sweep: SweepSpec, jobs: int | None = None, out_dir=None,
              quiet: bool = False) -> list[dict]:
    """Run every sweep point, tolerating per-point failures.

    ``jobs`` is the number of worker processes; ``None`` means one per CPU
    this process may run on (``os.sched_getaffinity`` where the platform has
    it, else ``os.cpu_count()``). A sweep starts no more workers than it has
    points, and with one worker the points run in the calling process. Rows
    land in ``sweep_summary.csv`` ordered by point index whatever the worker
    count; wall times are deliberately left out of that file so its bytes
    are reproducible. The points run with numpy's OpenBLAS, the one BLAS
    nlkpp calls, at one thread (see ``_openblas._one_blas_thread``), so
    ``jobs`` is the number of cores a sweep uses.
    """
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    root = _output_dir(out_dir, sweep.directory)
    points = _sweep_points(sweep)
    tasks = [(i, sweep.base, assignment, str(root / f"point_{i:03d}"),
              sweep.base_dir)
             for i, assignment in enumerate(points)]
    # the fork start method starts every worker up front, so ask for no more
    # than there are points; forked workers inherit the one BLAS thread
    workers = min(jobs, len(tasks))
    with _one_blas_thread():
        if workers > 1:
            # loaded here, so that a process without a pool does not pay for
            # them; None is the platform's default, where there is no fork
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            fork = (multiprocessing.get_context("fork")
                    if "fork" in multiprocessing.get_all_start_methods() else None)
            with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
                rows = list(pool.map(_run_sweep_point, tasks))
        else:
            rows = [_run_sweep_point(task) for task in tasks]
    with _writing_into(root):
        _write_csv(root / "sweep_summary.csv", sweep_columns(sweep), rows)
    if not quiet:
        ok = sum(1 for r in rows if r.get("status") == "ok")
        print(f"sweep: {ok}/{len(rows)} points ok -> {root / 'sweep_summary.csv'}")
    return rows
