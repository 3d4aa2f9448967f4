"""Spans around calls into nlkpp's modules, and the per-layer metrics made from them.

A :class:`Recorder` wraps the public functions listed in ``TARGETS``. Each
wrapper is installed at every name an ``nlkpp`` module looks the function up
by (``nlkpp.dynamics.apply_kernel`` and ``nlkpp.diagnostics.apply_kernel`` get
the same wrapper), so calls the program makes between its own modules are
seen. Nothing inside ``src/nlkpp`` changes. Spans stay in memory and are
written to ``<out_dir>/<pid>.json`` when the process ends; pool workers forked
by ``nlkpp sweep --jobs N`` start with an empty span list and write their own
file when the pool shuts them down.
"""

import functools
import json
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util

import numpy as np

# span name -> (defining module, attribute path)
TARGETS = {
    "grid.build_uniform_grid": ("nlkpp.grid", "build_uniform_grid"),
    "kernels.sample_convolution_kernel": ("nlkpp.kernels", "sample_convolution_kernel"),
    "kernels.symmetrize_and_normalize": ("nlkpp.kernels", "symmetrize_and_normalize"),
    "kernels.normalize_columns": ("nlkpp.kernels", "normalize_columns"),
    "kernels.certify_positivity_eigen": ("nlkpp.kernels", "certify_positivity_eigen"),
    "kernels.certify_positivity_bochner": ("nlkpp.kernels", "certify_positivity_bochner"),
    "kernels.apply_kernel": ("nlkpp.kernels", "apply_kernel"),
    "dynamics.run": ("nlkpp.dynamics", "run"),
    "dynamics.step_imex": ("nlkpp.dynamics", "step_imex"),
    "dynamics.reaction_term": ("nlkpp.dynamics", "reaction_term"),
    "dynamics.DiffusionSolver.solve": ("nlkpp.dynamics", "DiffusionSolver.solve"),
    "diagnostics.dissipation": ("nlkpp.diagnostics", "dissipation"),
    "diagnostics.lyapunov_value": ("nlkpp.diagnostics", "lyapunov_value"),
    "diagnostics.linearization_matrix": ("nlkpp.diagnostics", "linearization_matrix"),
    "diagnostics.spectral_abscissa": ("nlkpp.diagnostics", "spectral_abscissa"),
    "diagnostics.cosine_mode_rates": ("nlkpp.diagnostics", "cosine_mode_rates"),
    "diagnostics.Trace.to_csv": ("nlkpp.diagnostics", "Trace.to_csv"),
    "fieldio.write_field": ("nlkpp.fieldio", "write_field"),
    "scenario.parse_scenario": ("nlkpp.scenario", "parse_scenario"),
    "scenario.parse_scenario_dict": ("nlkpp.scenario", "parse_scenario_dict"),
    "scenario.parse_sweep": ("nlkpp.scenario", "parse_sweep"),
    "scenario.run_scenario": ("nlkpp.scenario", "run_scenario"),
    "scenario.certify_scenario": ("nlkpp.scenario", "certify_scenario"),
}

_KERNEL_MAKERS = ("kernels.sample_convolution_kernel",
                  "kernels.symmetrize_and_normalize", "kernels.normalize_columns")
_PARSERS = ("scenario.parse_scenario", "scenario.parse_scenario_dict",
            "scenario.parse_sweep")


def _dense_bytes(args, result) -> int:
    """8 * N^2 for a returned kernel that stores its matrix as a dense array."""
    matrix = getattr(result, "__dict__", {}).get("matrix")
    n = result.grid.n_nodes
    return 8 * n * n if isinstance(matrix, np.ndarray) and matrix.size == n * n else 0


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


_NOTES = {name: _dense_bytes for name in _KERNEL_MAKERS}
_NOTES["fieldio.write_field"] = _file_bytes


class Recorder:
    """In-memory spans ``[name, parent index, start, end, ok, value]`` of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = True
            if note is not None:
                span[5] = note(args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target at each nlkpp name bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "nlkpp" or key.startswith("nlkpp.")]
        for name, (module, attr) in TARGETS.items():
            owner = sys.modules[module]
            cls_name, _, func_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, func_name, self.wrap(name, cls.__dict__[func_name]))
                continue
            original = getattr(owner, func_name)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def follow_forks(self) -> None:
        """Give each forked pool worker its own span list, written out at its exit."""
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        self._stack.clear()
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self, **extra) -> None:
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def layer_metrics(span_dir: str) -> dict:
    """Per-layer totals over every span file in ``span_dir`` (one traced operation
    or many; call once per round on a directory holding all of them)."""
    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    ok_calls: dict[str, int] = {}
    values: dict[str, int] = {}
    parse_s = 0.0
    import_s = []
    for entry in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, entry)) as fh:
            doc = json.load(fh)
        if "import_s" in doc:
            import_s.append(doc["import_s"])
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, parent, start, end, ok, value in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, ok, value) in enumerate(spans):
            took = end - start
            incl[name] = incl.get(name, 0.0) + took
            self_time[name] = self_time.get(name, 0.0) + took - child[i]
            calls[name] = calls.get(name, 0) + 1
            ok_calls[name] = ok_calls.get(name, 0) + int(ok)
            values[name] = values.get(name, 0) + value
            if name in _PARSERS and (parent < 0 or spans[parent][0] not in _PARSERS):
                parse_s += took

    def total(*names, table=incl):
        return sum(table.get(n, 0.0) for n in names)

    steps = ok_calls.get("dynamics.step_imex", 0)
    solves = calls.get("dynamics.DiffusionSolver.solve", 0)
    return {
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "grid.build_s": (total("grid.build_uniform_grid"), "s"),
        "kernels.sample_s": (total("kernels.sample_convolution_kernel"), "s"),
        "kernels.balance_s": (total("kernels.symmetrize_and_normalize",
                                    "kernels.normalize_columns"), "s"),
        "kernels.certify_eigen_s": (total("kernels.certify_positivity_eigen"), "s"),
        "kernels.certify_bochner_s": (total("kernels.certify_positivity_bochner"), "s"),
        "kernels.apply_s": (total("kernels.apply_kernel"), "s"),
        "kernels.apply_calls": (calls.get("kernels.apply_kernel", 0), "count"),
        "kernels.dense_bytes": (sum(values.get(n, 0) for n in _KERNEL_MAKERS),
                                "B_computed"),
        "dynamics.step_self_s": (total("dynamics.step_imex", table=self_time), "s"),
        "dynamics.run_self_s": (total("dynamics.run", table=self_time), "s"),
        "dynamics.reaction_s": (total("dynamics.reaction_term", table=self_time), "s"),
        "dynamics.solve_s": (total("dynamics.DiffusionSolver.solve"), "s"),
        "dynamics.solve_calls": (solves, "count"),
        "dynamics.steps_accepted": (steps, "count"),
        "dynamics.solve_yield": (steps / solves if solves else 0.0, "ratio"),
        "diagnostics.dissipation_s": (total("diagnostics.dissipation"), "s"),
        "diagnostics.lyapunov_s": (total("diagnostics.lyapunov_value"), "s"),
        "diagnostics.linearization_s": (total("diagnostics.linearization_matrix"), "s"),
        "diagnostics.abscissa_s": (total("diagnostics.spectral_abscissa"), "s"),
        "diagnostics.mode_rates_s": (total("diagnostics.cosine_mode_rates"), "s"),
        "diagnostics.trace_csv_s": (total("diagnostics.Trace.to_csv"), "s"),
        "fieldio.write_s": (total("fieldio.write_field"), "s"),
        "fieldio.bytes": (values.get("fieldio.write_field", 0), "B"),
        "scenario.parse_s": (parse_s, "s"),
        "scenario.self_s": (total("scenario.run_scenario", "scenario.certify_scenario",
                                  table=self_time), "s"),
    }
