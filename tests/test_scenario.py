import copy
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from nlkpp import (Field, Kernel, ValidationError, build_kernel,
                   build_uniform_grid, certify_scenario, cosine_mode_rates,
                   cosine_modes, parse_scenario,
                   parse_scenario_dict, parse_sweep, parse_sweep_dict,
                   read_csv_rows, read_field, run_scenario, run_sweep,
                   write_field)
from nlkpp._openblas import _thread_functions
from nlkpp.cli import main
from nlkpp.diagnostics import Trace

SCENARIOS = sorted((Path(__file__).parents[1] / "scenarios").glob("*.json"))


def minimal_doc(**overrides):
    doc = {
        "grid": {"extents": [0.0, 1.0], "counts": 48},
        "kernel": {"family": "gaussian", "sigma": 0.2},
        "initial": {"kind": "constant", "value": 0.2},
        "sim": {"mu": 1.0, "dt": 1e-3, "t_end": 0.05},
    }
    doc.update(overrides)
    return doc


def _blas_threads_point(task):
    """A sweep point that reports the OpenBLAS thread count it runs at; at
    module level so that a pool can pickle it."""
    return {"point": task[0], "status": "ok", "blas_threads": _thread_functions()[0]()}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool by one that runs the points inline and
    starts no process; returns the list of worker counts asked for."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, **options):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_sweep imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return asked


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def refuse_non_json(constant):
    """A ``parse_constant`` for ``json.loads``: RFC 8259 has no NaN or
    Infinity, which Python's json reads and writes by default."""
    raise AssertionError(f"{constant} is not JSON")


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_committed_scenario_parses(path):
    if "parameters" not in json.loads(path.read_text()):
        parse_scenario(path)
        return
    spec = parse_sweep(path)
    for values in itertools.product(*(p.values for p in spec.parameters)):
        raw = copy.deepcopy(spec.base)
        for param, value in zip(spec.parameters, values):
            section, key = param.path.split(".")
            raw[section][key] = value
        parse_scenario_dict(raw, base_dir=spec.base_dir)


# both verdicts (eigen, bochner) of each committed scenario's kernel: the
# gaussian certifies, the tophat does not
COMMITTED_VERDICTS = {"convergence.json": "positive", "logistic.json": "positive",
                      "pattern.json": "not_positive",
                      "onset_sweep.json": "not_positive"}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_committed_scenario_certifies(tmp_path, path):
    verdict = COMMITTED_VERDICTS[path.name]
    doc = json.loads(path.read_text())
    if "parameters" in doc:  # a sweep: certify its base scenario
        path = write_doc(tmp_path, doc["base"])
    assert main(["certify", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    rows = read_csv_rows(tmp_path / "o" / "certificate.csv")
    assert [(r["method"], r["verdict"]) for r in rows] == [
        ("eigen", verdict), ("bochner", verdict)]


class TestParsing:
    def test_minimal_defaults(self, tmp_path):
        sc = parse_scenario(write_doc(tmp_path, minimal_doc()))
        assert sc.sim.snapshot_every == 100
        assert sc.kernel.normalization == "balanced"
        assert sc.kernel.certify is True
        assert sc.output.directory == "out"

    @pytest.mark.parametrize("initial,defaults", [
        ({"kind": "random_uniform", "low": 0.5, "high": 1.5}, {"seed": 0}),
        ({"kind": "cosine"}, {"amplitude": 0.01, "mode": "most_unstable"}),
    ], ids=["random_uniform", "cosine"])
    def test_initial_defaults(self, initial, defaults):
        spec = parse_scenario_dict(minimal_doc(initial=initial)).initial
        assert {key: getattr(spec, key) for key in defaults} == defaults

    @pytest.mark.parametrize("section,value,message", [
        ("sim", [1.0, 1e-3, 0.05], "'sim' must be a JSON object"),
        ("kernel", {"family": "gaussian", "sigma": "0.2"},
         "'kernel.sigma' must be a number, got '0.2'"),
        ("kernel", {"family": "gaussian", "sigma": 0.2, "certify": 1},
         "'kernel.certify' must be true or false"),
        ("grid", {"extents": "0 1", "counts": 48}, "grid.extents must be"),
        ("grid", {"extents": [0.0, 1.0], "counts": 2},
         "grid: axis 0: need at least 3 nodes"),
        ("initial", {"kind": "constant", "value": -0.5}, "initial.value must be >= 0"),
        ("initial", {"kind": "random_uniform", "low": 1.5, "high": 0.5},
         "initial.low/high must satisfy"),
        ("initial", {"kind": "cosine", "amplitude": 1.0},
         r"initial.amplitude must lie in \[0, 1\)"),
        ("output", {"artifacts": "trace"}, "output.artifacts must be a list"),
    ], ids=["section", "number", "bool", "extents", "counts", "value", "low_high",
            "amplitude", "artifacts"])
    def test_malformed_section_is_refused(self, section, value, message):
        with pytest.raises(ValidationError, match=message):
            parse_scenario_dict(minimal_doc(**{section: value}))

    def test_negative_mu_names_field(self, tmp_path):
        doc = minimal_doc()
        doc["sim"]["mu"] = -1.0
        with pytest.raises(ValidationError, match="mu"):
            parse_scenario(write_doc(tmp_path, doc))

    def test_unknown_key_strict(self, tmp_path):
        doc = minimal_doc()
        doc["sim"]["mu_rate"] = 2.0
        with pytest.raises(ValidationError, match="mu_rate"):
            parse_scenario(write_doc(tmp_path, doc))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario_dict(minimal_doc(extra={"a": 1}))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {,}')
        with pytest.raises(ValidationError, match=r"line 1, column"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="No such file"):
            parse_scenario(tmp_path / "absent.json")

    def test_kernel_required(self):
        doc = minimal_doc()
        del doc["kernel"]
        with pytest.raises(ValidationError,
                           match="missing required key 'kernel' in 'scenario'"):
            parse_scenario_dict(doc)

    @pytest.mark.parametrize("mode,message", [
        (0, "initial.mode must be >= 1"), (-2, "initial.mode must be >= 1"),
        (2.0, "'initial.mode' must be an integer"),
        (True, "'initial.mode' must be an integer"),
        (10**400, "'initial.mode' must be finite")],
        ids=["zero", "negative", "float", "bool", "beyond-float"])
    def test_cosine_mode_must_be_a_positive_integer(self, mode, message):
        doc = minimal_doc(initial={"kind": "cosine", "mode": mode})
        with pytest.raises(ValidationError, match=message):
            parse_scenario_dict(doc)

    def test_cosine_mode_must_be_resolved(self):
        # on 48 nodes mode 94 - k repeats mode k, and mode 94 is the constant
        doc = minimal_doc(initial={"kind": "cosine", "mode": 48})
        with pytest.raises(ValidationError, match="exceeds 47, the highest cosine"):
            parse_scenario_dict(doc)
        doc["initial"]["mode"] = 47
        assert parse_scenario_dict(doc).initial.mode == 47

    def test_solver_2d_is_unknown(self):
        doc = minimal_doc()
        doc["sim"]["solver_2d"] = "adi"
        with pytest.raises(ValidationError, match="unknown key 'solver_2d'"):
            parse_scenario_dict(doc)

    def test_bad_initial_kind(self):
        doc = minimal_doc(initial={"kind": "sine"})
        with pytest.raises(ValidationError, match="initial.kind"):
            parse_scenario_dict(doc)

    def test_bad_artifact_name(self):
        doc = minimal_doc(output={"artifacts": ["trace", "movie"]})
        with pytest.raises(ValidationError, match="movie"):
            parse_scenario_dict(doc)


class TestRunScenario:
    def test_writes_all_artifacts(self, tmp_path):
        sc = parse_scenario_dict(minimal_doc(), name="demo")
        out = tmp_path / "run"
        summary = run_scenario(sc, out_dir=out, quiet=True)
        assert summary["status"] == "ok"
        assert (out / "trace.csv").exists()
        assert (out / "certificate.csv").exists()
        assert (out / "final_field.bin").exists()
        assert (out / "summary.csv").exists()
        assert (out / "run_meta.json").exists()
        assert list((out / "snapshots").glob("snap_*.bin"))

    def test_artifacts_reload_with_own_loaders(self, tmp_path):
        sc = parse_scenario_dict(minimal_doc())
        out = tmp_path / "run"
        summary = run_scenario(sc, out_dir=out, quiet=True)
        trace = Trace.from_csv(out / "trace.csv")
        assert len(trace) == summary["steps"] + 1
        certs = read_csv_rows(out / "certificate.csv")
        assert {c["method"] for c in certs} == {"eigen", "bochner"}
        assert all(c["verdict"] == "positive" for c in certs)
        srows = read_csv_rows(out / "summary.csv")
        assert float(srows[0]["final_V"]) == summary["final_V"]
        field = read_field(out / "final_field.bin")
        assert field.values.size == 48

    def test_trace_is_bit_deterministic(self, tmp_path):
        doc = minimal_doc(initial={"kind": "random_uniform", "low": 0.5,
                                   "high": 1.5, "seed": 11})
        sc = parse_scenario_dict(doc)
        run_scenario(sc, out_dir=tmp_path / "a", quiet=True)
        run_scenario(sc, out_dir=tmp_path / "b", quiet=True)
        assert (tmp_path / "a/trace.csv").read_bytes() == \
            (tmp_path / "b/trace.csv").read_bytes()

    def test_mass_constant_in_heat_limit(self, tmp_path):
        doc = minimal_doc(initial={"kind": "random_uniform", "low": 0.5,
                                   "high": 1.5, "seed": 3})
        doc["sim"]["mu"] = 0.0
        sc = parse_scenario_dict(doc)
        run_scenario(sc, out_dir=tmp_path / "m", quiet=True)
        mass = Trace.from_csv(tmp_path / "m/trace.csv").column("mass")
        assert np.max(np.abs(np.diff(mass))) < 1e-10

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("NLKPP_OUT", str(target))
        sc = parse_scenario_dict(minimal_doc())
        run_scenario(sc, quiet=True)
        assert (target / "trace.csv").exists()
        monkeypatch.setenv("NLKPP_OUT", str(tmp_path / "certify"))
        certify_scenario(sc, quiet=True)
        assert (tmp_path / "certify/certificate.csv").exists()

    def test_file_initial_round_trip(self, tmp_path):
        grid = build_uniform_grid((0, 1), 48)
        u0 = Field(grid, np.linspace(0.5, 1.5, 48))
        write_field(tmp_path / "u0.bin", u0)
        doc = minimal_doc(initial={"kind": "file", "path": "u0.bin"})
        sc = parse_scenario_dict(doc, base_dir=str(tmp_path))
        summary = run_scenario(sc, out_dir=tmp_path / "o", quiet=True)
        assert summary["status"] == "ok"

    def test_file_initial_layout_mismatch(self, tmp_path):
        grid = build_uniform_grid((0, 1), 32)
        write_field(tmp_path / "u0.bin", Field.constant(grid, 1.0))
        doc = minimal_doc(initial={"kind": "file", "path": "u0.bin"})
        sc = parse_scenario_dict(doc, base_dir=str(tmp_path))
        with pytest.raises(ValidationError, match="layout"):
            run_scenario(sc, out_dir=tmp_path / "o", quiet=True)

    def test_cosine_most_unstable_resolves(self, tmp_path):
        doc = minimal_doc(initial={"kind": "cosine", "amplitude": 0.02,
                                   "mode": "most_unstable"})
        sc = parse_scenario_dict(doc)
        summary = run_scenario(sc, out_dir=tmp_path / "c", quiet=True)
        meta = json.loads((tmp_path / "c/run_meta.json").read_text())
        assert meta["metadata"]["initial"]["mode"] >= 1
        assert summary["status"] == "ok"

    def test_cosine_datum_keeps_its_bytes(self, tmp_path):
        doc = {"grid": {"extents": [0.5, 5.5], "counts": 64},
               "kernel": {"family": "tophat", "sigma": 1.0},
               "initial": {"kind": "cosine", "amplitude": 0.013,
                           "mode": "most_unstable"},
               "sim": {"mu": 150.0, "dt": 1e-4, "t_end": 1e-4},
               "output": {"artifacts": ["meta", "snapshots"]}}
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "c", quiet=True)
        k = json.loads((tmp_path / "c/run_meta.json").read_text())[
            "metadata"]["initial"]["mode"]
        assert k > 1
        u0 = read_field(tmp_path / "c/snapshots/snap_00000000.bin")
        xhat = (u0.grid.nodes[:, 0] - 0.5) / (5.5 - 0.5)
        assert np.array_equal(u0.values, 1.0 + 0.013 * np.cos((k * np.pi) * xhat))

    @pytest.mark.parametrize("normalization", ["columns", "rows"])
    def test_only_balanced_normalization_runs(self, tmp_path, normalization):
        doc = minimal_doc()
        doc["kernel"]["normalization"] = normalization
        sc = parse_scenario_dict(doc)
        with pytest.raises(ValidationError, match="row sums"):
            run_scenario(sc, out_dir=tmp_path / "n", quiet=True)
        with pytest.raises(ValidationError, match="row sums"):
            certify_scenario(sc, out_dir=tmp_path / "c", quiet=True)

    def test_stability_skip_is_recorded(self, tmp_path):
        doc = minimal_doc(grid={"extents": [[0, 1], [0, 1]], "counts": [33, 33]})
        doc["kernel"]["certify"] = False
        doc["sim"]["t_end"] = 2e-3
        doc["output"] = {"artifacts": ["meta"]}
        summary = run_scenario(parse_scenario_dict(doc),
                               out_dir=tmp_path / "big", quiet=True)
        meta = json.loads((tmp_path / "big/run_meta.json").read_text(),
                          parse_constant=refuse_non_json)
        assert meta["metadata"]["stability_skipped"] == "1089 nodes > 1024"
        assert "spectral_abscissa" not in meta["metadata"]
        assert np.isnan(summary["spectral_abscissa"])
        doc["initial"] = {"kind": "cosine", "mode": "most_unstable"}
        doc["output"] = {"artifacts": ["meta", "snapshots"]}
        scenario = parse_scenario_dict(doc)
        run_scenario(scenario, out_dir=tmp_path / "mu", quiet=True)
        meta = json.loads((tmp_path / "mu/run_meta.json").read_text())["metadata"]
        assert meta["stability_skipped"] == "1089 nodes > 1024"
        grid, mu = scenario.grid, scenario.sim.mu
        kern, _ = build_kernel(scenario.kernel, grid)
        k = int(np.argmax(cosine_mode_rates(grid, kern, mu))) + 1
        assert meta["initial"] == {"kind": "cosine", "mode": k}
        u0 = read_field(tmp_path / "mu/snapshots/snap_00000000.bin")
        assert np.array_equal(u0.values, 1.0 + 0.01 * cosine_modes(grid, k))

    def test_rejected_steps_are_recorded(self, tmp_path):
        doc = {"grid": {"extents": [0.0, 5.0], "counts": 256},
               "kernel": {"family": "tophat", "sigma": 1.0},
               "initial": {"kind": "cosine", "amplitude": 0.01,
                           "mode": "most_unstable"},
               "sim": {"mu": 400.0, "dt": 5e-3, "t_end": 1.0},
               "output": {"artifacts": ["meta"]}}
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "stiff",
                     quiet=True)
        meta = json.loads((tmp_path / "stiff/run_meta.json").read_text())
        assert meta["metadata"]["steps_rejected"] > 0
        assert meta["metadata"]["dt_min"] < 5e-3

    def test_relaxation_records_no_rejections(self, tmp_path):
        doc = minimal_doc(initial={"kind": "random_uniform", "low": 0.5,
                                   "high": 1.5, "seed": 3},
                          output={"artifacts": ["meta"]})
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "relax",
                     quiet=True)
        meta = json.loads((tmp_path / "relax/run_meta.json").read_text())
        assert meta["metadata"]["steps_rejected"] == 0
        assert meta["metadata"]["dt_min"] == 1e-3
        assert meta["metadata"]["solver"] == "banded_cholesky"

    @pytest.mark.parametrize("counts,apply", [(48, "dense"), ([48, 48], "fft")],
                             ids=["1d", "2d"])
    def test_kernel_path_and_balancing_are_recorded(self, tmp_path, counts, apply):
        extents = [0, 1] if apply == "dense" else [[0, 1], [0, 1]]
        doc = minimal_doc(grid={"extents": extents, "counts": counts},
                          output={"artifacts": ["meta"]})
        doc["kernel"]["certify"] = False
        doc["sim"]["t_end"] = 2e-3
        sc = parse_scenario_dict(doc)
        kernel, _ = build_kernel(sc.kernel, sc.grid)
        run_scenario(sc, out_dir=tmp_path / "k", quiet=True)
        meta = json.loads((tmp_path / "k/run_meta.json").read_text())["metadata"]
        assert meta["kernel_apply"] == apply
        assert meta["balance_iterations"] == kernel.balance_iterations > 0
        assert meta["balance_deviation"] == kernel.balance_deviation <= 1e-12

    @pytest.mark.parametrize("family,verdict,solver", [
        ("gaussian", "positive", "circulant_symbol"),
        ("tophat", "not_positive", "lanczos"),
    ])
    def test_eigen_solver_is_recorded(self, tmp_path, family, verdict, solver):
        doc = minimal_doc(output={"artifacts": ["meta", "certificate"]})
        doc["kernel"]["family"] = family
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "e", quiet=True)
        meta = json.loads((tmp_path / "e/run_meta.json").read_text())["metadata"]
        assert (meta["eigen_verdict"], meta["eigen_solver"]) == (verdict, solver)
        assert "bochner_solver" not in meta
        rows = read_csv_rows(tmp_path / "e/certificate.csv")
        assert list(rows[0]) == ["method", "verdict", "witness", "tolerance",
                                 "grid_n", "kernel_family", "sigma"]

    def test_inconclusive_witness_is_null_in_run_meta(self, tmp_path, monkeypatch):
        # run_meta.json is strict JSON; the CSV files keep the witness's nan
        def unconverged(apply, n):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr("nlkpp.kernels._lanczos_smallest", unconverged)
        doc = minimal_doc(output={"artifacts": ["meta", "certificate", "summary"]})
        doc["kernel"]["family"] = "tophat"
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "i", quiet=True)
        meta = json.loads((tmp_path / "i/run_meta.json").read_text(),
                          parse_constant=refuse_non_json)["metadata"]
        assert (meta["eigen_verdict"], meta["eigen_witness"]) == ("inconclusive", None)
        cert = {r["method"]: r for r in read_csv_rows(tmp_path / "i/certificate.csv")}
        assert cert["eigen"]["witness"] == "nan"
        assert read_csv_rows(tmp_path / "i/summary.csv")[0]["eigen_witness"] == "nan"

    def test_matrix_free_run_builds_no_matrix(self, tmp_path, monkeypatch):
        # at 48 x 48 = 2304 nodes the kernel applies by FFT; with certify and
        # stability off nothing needs the dense matrix, so none may be built
        monkeypatch.setattr(Kernel, "matrix", property(
            lambda self: pytest.fail("dense kernel matrix built")))
        doc = minimal_doc(grid={"extents": [[0, 1], [0, 1]], "counts": [48, 48]},
                          initial={"kind": "random_uniform", "low": 0.5,
                                   "high": 1.5, "seed": 2},
                          output={"artifacts": ["meta", "trace"]})
        doc["kernel"]["certify"] = False
        doc["sim"]["t_end"] = 1e-2
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "mf", quiet=True)
        meta = json.loads((tmp_path / "mf/run_meta.json").read_text())["metadata"]
        assert meta["kernel_strictly_positive"] is True
        V = Trace.from_csv(tmp_path / "mf/trace.csv").column("V")
        assert len(V) == 11 and np.all(np.diff(V) <= 0)

    @pytest.mark.parametrize("grid", [
        {"extents": [0, 20], "counts": 4096},
        {"extents": [[0, 1], [0, 1]], "counts": [33, 33]},
    ], ids=["4096", "33x33"])
    def test_most_unstable_runs_past_the_abscissa_limit(self, tmp_path, grid):
        doc = minimal_doc(grid=grid, output={"artifacts": ["meta"]},
                          initial={"kind": "cosine", "mode": "most_unstable"})
        doc["kernel"]["certify"] = False
        doc["sim"]["t_end"] = 1e-3
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())["metadata"]
        assert "stability_skipped" in meta and meta["initial"]["mode"] >= 1

    def test_unresolved_mode_is_a_sweep_row(self, tmp_path):
        base = minimal_doc(initial={"kind": "cosine", "mode": 1},
                           output={"artifacts": []})
        sweep = parse_sweep_dict({"base": base, "parameters": [
            {"path": "initial.mode", "values": [47, 48]}]})
        # 47, the alternating mode, is the highest one 48 nodes resolve
        rows = run_sweep(sweep, jobs=1, out_dir=tmp_path / "s", quiet=True)
        assert [row["status"] for row in rows] == ["ok", "validation_error"]
        assert "exceeds 47, the highest cosine mode" in rows[1]["error"]

    def test_integer_cosine_mode_runs_without_the_stability_analysis(self, tmp_path):
        # 1089 nodes skip the spectral abscissa; an integer mode needs no scan
        doc = minimal_doc(grid={"extents": [[0, 1], [0, 1]], "counts": [33, 33]},
                          initial={"kind": "cosine", "amplitude": 0.02, "mode": 3},
                          output={"artifacts": ["meta", "snapshots"]})
        doc["kernel"]["certify"] = False
        doc["sim"]["t_end"] = 2e-3
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "c", quiet=True)
        meta = json.loads((tmp_path / "c/run_meta.json").read_text())["metadata"]
        assert meta["initial"] == {"kind": "cosine", "mode": 3}
        assert meta["stability_skipped"] == "1089 nodes > 1024"
        u0 = read_field(tmp_path / "c/snapshots/snap_00000000.bin")
        assert np.array_equal(u0.values,
                              1.0 + 0.02 * np.cos((3 * np.pi) * u0.grid.nodes[:, 0]))

    def test_zeros_in_a_certified_kernel_are_recorded(self, tmp_path):
        # sigma 0.02 on 128 nodes: the far entries underflow to 0, and both
        # certificates still find the form positive
        doc = minimal_doc(grid={"extents": [0, 1], "counts": 128},
                          output={"artifacts": ["meta"]})
        doc["kernel"]["sigma"] = 0.02
        doc["sim"]["t_end"] = 2e-3
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "z", quiet=True)
        meta = json.loads((tmp_path / "z/run_meta.json").read_text())["metadata"]
        assert (meta["eigen_verdict"], meta["bochner_verdict"]) == \
            ("positive", "positive")
        assert meta["kernel_strictly_positive"] is False
        assert meta["positivity_caveat"].startswith("kernel has zero entries")
        doc["kernel"]["sigma"] = 0.2
        run_scenario(parse_scenario_dict(doc), out_dir=tmp_path / "p", quiet=True)
        meta = json.loads((tmp_path / "p/run_meta.json").read_text())["metadata"]
        assert meta["kernel_strictly_positive"] is True
        assert "positivity_caveat" not in meta

    def test_2d_scenario_runs(self, tmp_path):
        doc = minimal_doc(grid={"extents": [[0, 1], [0, 1]],
                                "counts": [10, 10]})
        doc["kernel"]["sigma"] = 0.3
        sc = parse_scenario_dict(doc)
        summary = run_scenario(sc, out_dir=tmp_path / "d2", quiet=True)
        assert summary["status"] == "ok"
        field = read_field(tmp_path / "d2/final_field.bin")
        assert field.grid.counts == (10, 10)


class TestSweep:
    def base_sweep(self, values=(0.5, 1.0)):
        return {
            "base": minimal_doc(initial={"kind": "random_uniform", "low": 0.5,
                                         "high": 1.5, "seed": 5}),
            "parameters": [{"path": "sim.mu", "values": list(values)}],
        }

    def test_single_point_matches_scenario_run(self, tmp_path):
        sweep = parse_sweep_dict(self.base_sweep(values=(1.0,)))
        rows = run_sweep(sweep, out_dir=tmp_path / "s", quiet=True)
        assert len(rows) == 1
        doc = self.base_sweep()["base"]
        sc = parse_scenario_dict(doc)
        solo = run_scenario(sc, out_dir=tmp_path / "solo", quiet=True)
        assert rows[0]["final_V"] == solo["final_V"]
        assert rows[0]["final_sup_dist_one"] == solo["final_sup_dist_one"]

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLKPP_OUT", str(tmp_path / "from_env"))
        run_sweep(parse_sweep_dict(self.base_sweep(values=(1.0,))), quiet=True)
        assert (tmp_path / "from_env/sweep_summary.csv").exists()
        assert (tmp_path / "from_env/point_000/trace.csv").exists()

    def test_point_directory_failure_is_a_validation_error_row(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s/point_000").write_text("")  # a file where the point writes
        sweep = parse_sweep_dict(self.base_sweep(values=(0.5, 1.0)))
        rows = run_sweep(sweep, out_dir=tmp_path / "s", quiet=True)
        assert rows[0]["status"] == "validation_error"
        assert "point_000" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_unwritable_artifact_fails_its_point_only(self, tmp_path):
        (tmp_path / "s/point_001/trace.csv").mkdir(parents=True)
        sweep = parse_sweep_dict(self.base_sweep(values=(0.5, 1.0, 2.0)))
        rows = run_sweep(sweep, out_dir=tmp_path / "s", quiet=True)
        assert [r["status"] for r in rows] == ["ok", "validation_error", "ok"]
        assert str(tmp_path / "s/point_001/trace.csv") in rows[1]["error"]
        summary = read_csv_rows(tmp_path / "s/sweep_summary.csv")
        assert [r["status"] for r in summary] == ["ok", "validation_error", "ok"]
        assert (tmp_path / "s/point_002/trace.csv").is_file()

    def test_numerical_failure_fails_its_point_only(self, tmp_path):
        spec = self.base_sweep(values=(1.0, 1e15))
        spec["base"]["initial"] = {"kind": "constant", "value": 4.0}
        spec["base"]["sim"].update(dt=1.0, t_end=1.0)
        rows = run_sweep(parse_sweep_dict(spec), out_dir=tmp_path / "s", quiet=True)
        assert [r["status"] for r in rows] == ["ok", "numerical_error"]
        assert "step rejected" in rows[1]["error"]
        summary = read_csv_rows(tmp_path / "s/sweep_summary.csv")
        assert [(r["status"], r["error"]) for r in summary] == \
            [("ok", ""), ("numerical_error", rows[1]["error"])]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, tmp_path, jobs):
        with pytest.raises(ValidationError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(parse_sweep_dict(self.base_sweep()), jobs=jobs,
                      out_dir=tmp_path / "s", quiet=True)
        assert not (tmp_path / "s").exists()

    def test_point_failures_recorded_and_sweep_continues(self, tmp_path):
        sweep = parse_sweep_dict(self.base_sweep(values=(-1.0, 1.0)))
        rows = run_sweep(sweep, out_dir=tmp_path / "s", quiet=True)
        assert rows[0]["status"] == "validation_error"
        assert "mu" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_negative_seed_fails_its_point_only(self, tmp_path):
        spec = self.base_sweep()
        spec["parameters"] = [{"path": "initial.seed", "values": [1, -2]}]
        rows = run_sweep(parse_sweep_dict(spec), out_dir=tmp_path / "s", quiet=True)
        assert [r["status"] for r in rows] == ["ok", "validation_error"]
        assert "initial.seed" in rows[1]["error"]
        summary = read_csv_rows(tmp_path / "s/sweep_summary.csv")
        assert [(r["point"], r["status"]) for r in summary] == \
            [("0", "ok"), ("1", "validation_error")]

    def test_a_null_value_writes_an_empty_cell(self, tmp_path):
        spec = self.base_sweep()
        spec["parameters"] = [{"path": "initial.seed", "values": [None, 1]}]
        run_sweep(parse_sweep_dict(spec), out_dir=tmp_path / "s", quiet=True)
        lines = (tmp_path / "s/sweep_summary.csv").read_text().splitlines()
        assert lines[1].startswith("0,,validation_error,")
        assert lines[2].startswith("1,1,ok,")

    def test_unreadable_initial_file_fails_its_point_only(self, tmp_path):
        grid = build_uniform_grid((0.0, 1.0), 48)
        write_field(tmp_path / "good.bin", Field.constant(grid, 0.5))
        spec = self.base_sweep()
        spec["base"]["initial"] = {"kind": "file", "path": "good.bin"}
        spec["parameters"] = [{"path": "initial.path",
                               "values": ["nope.bin", ".", "good.bin"]}]
        run_sweep(parse_sweep_dict(spec, base_dir=str(tmp_path)),
                  out_dir=tmp_path / "s", quiet=True)
        summary = read_csv_rows(tmp_path / "s/sweep_summary.csv")
        assert [(r["point"], r["status"]) for r in summary] == \
            [("0", "validation_error"), ("1", "validation_error"), ("2", "ok")]
        assert "nope.bin" in summary[0]["error"]

    def test_pool_is_no_larger_than_the_sweep(self, tmp_path, pool_sizes):
        rows = run_sweep(parse_sweep_dict(self.base_sweep()), jobs=64,
                         out_dir=tmp_path / "two", quiet=True)
        assert pool_sizes == [2]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        run_sweep(parse_sweep_dict(self.base_sweep(values=(1.0,))), jobs=64,
                  out_dir=tmp_path / "one", quiet=True)
        assert pool_sizes == [2]  # one point runs inline

    # usable CPUs by affinity (None: the platform has no sched_getaffinity),
    # os.cpu_count(), and the pool sizes a two-point sweep asks for
    @pytest.mark.parametrize("affinity,cpu_count,asked", [
        (1, 64, []), (4, 64, [2]), (None, 4, [2]), (None, 1, []), (None, None, []),
    ])
    def test_default_jobs_are_the_usable_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                              affinity, cpu_count, asked):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(affinity)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        rows = run_sweep(parse_sweep_dict(self.base_sweep()),
                         out_dir=tmp_path / "s", quiet=True)
        assert pool_sizes == asked  # no pool: the points run inline
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_rerun_leaves_hard_links_to_old_artifacts(self, tmp_path):
        # a rerun writes each artifact as a new file instead of truncating
        # the old one in place, so a hard link keeps the old bytes
        spec = self.base_sweep(values=(0.5, 1.0))
        spec["base"]["output"] = {"artifacts": ["trace", "certificate",
                                                "final_field", "snapshots",
                                                "summary", "meta"]}
        spec["base"]["sim"]["snapshot_every"] = 10
        out = tmp_path / "s"
        run_sweep(parse_sweep_dict(spec), out_dir=out, quiet=True)
        names = ["point_000/trace.csv", "point_000/certificate.csv",
                 "point_000/final_field.bin", "point_000/snapshots/snap_00000010.bin",
                 "point_000/summary.csv", "point_000/run_meta.json",
                 "sweep_summary.csv"]
        old = {name: (out / name).read_bytes() for name in names}
        for i, name in enumerate(names):
            os.link(out / name, tmp_path / f"link_{i}")
        spec["parameters"][0]["values"] = [2.0, 1.0]
        run_sweep(parse_sweep_dict(spec), out_dir=out, quiet=True)
        assert (out / names[0]).read_bytes() != old[names[0]]
        for i, name in enumerate(names):
            assert (tmp_path / f"link_{i}").read_bytes() == old[name], name
            assert not os.path.samefile(tmp_path / f"link_{i}", out / name), name

    def test_parallel_output_independent_of_jobs(self, tmp_path):
        # the 256-node tophat fails its symbol bound, so its eigen witness and
        # abscissa come from dense LAPACK calls whose last bits follow the
        # BLAS thread count: equal bytes need one count for both job counts
        tophat = {
            "base": {"grid": {"extents": [0.0, 5.0], "counts": 256},
                     "kernel": {"family": "tophat", "sigma": 1.0},
                     "initial": {"kind": "cosine", "amplitude": 0.01},
                     "sim": {"mu": 10.0, "dt": 5e-4, "t_end": 0.01},
                     "output": {"artifacts": ["summary"]}},
            "parameters": [{"path": "sim.mu", "values": [10.0, 100.0, 250.0]}],
        }
        for name, spec in (("gaussian", self.base_sweep(values=(0.5, 1.0, 2.0))),
                           ("tophat", tophat)):
            rows_serial = run_sweep(parse_sweep_dict(spec), jobs=1,
                                    out_dir=tmp_path / name / "s1", quiet=True)
            rows_par = run_sweep(parse_sweep_dict(spec), jobs=2,
                                 out_dir=tmp_path / name / "s2", quiet=True)
            rows_default = run_sweep(parse_sweep_dict(spec),
                                     out_dir=tmp_path / name / "s0", quiet=True)
            serial = (tmp_path / name / "s1/sweep_summary.csv").read_bytes()
            assert (tmp_path / name / "s2/sweep_summary.csv").read_bytes() == serial
            assert (tmp_path / name / "s0/sweep_summary.csv").read_bytes() == serial
            assert ([r["point"] for r in rows_serial] == [r["point"] for r in rows_par]
                    == [r["point"] for r in rows_default])
            assert [r["status"] for r in rows_par] == ["ok"] * 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_points_run_at_one_blas_thread(self, tmp_path, monkeypatch, jobs):
        functions = _thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = functions
        saved = get()
        try:
            set_(2)
            caller = get()
            monkeypatch.setattr("nlkpp.scenario._run_sweep_point", _blas_threads_point)
            rows = run_sweep(parse_sweep_dict(self.base_sweep()), jobs=jobs,
                             out_dir=tmp_path / "s", quiet=True)
            assert [r["blas_threads"] for r in rows] == [1, 1]
            assert get() == caller
        finally:
            set_(saved)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fresh_process_points_run_at_one_blas_thread(self, tmp_path,
                                                        fresh_python, jobs):
        # only a fresh process shows what a point's own run loads, and that
        # numpy's OpenBLAS runs it at one thread
        code = (
            "import json, sys\n"
            "from nlkpp import _openblas, scenario\n"
            "run_point = scenario._run_sweep_point\n"
            "def report(task):\n"
            "    row = run_point(task)\n"
            "    row['scipy'] = 'scipy' in sys.modules\n"
            "    row['blas_threads'] = _openblas._thread_functions()[0]()\n"
            "    return row\n"
            "scenario._run_sweep_point = report\n"
            f"sweep = scenario.parse_sweep_dict({self.base_sweep()!r})\n"
            f"rows = scenario.run_sweep(sweep, jobs={jobs}, out_dir='s', quiet=True)\n"
            "print(json.dumps([[r['status'], r['scipy'], r['blas_threads']]\n"
            "                  for r in rows]))\n")
        points = json.loads(fresh_python(code, cwd=tmp_path))
        assert len(points) == 2
        assert all(status == "ok" and scipy is False and count == 1
                   for status, scipy, count in points), points

    def test_two_parameter_grid(self, tmp_path):
        spec = self.base_sweep(values=(0.5, 1.0))
        spec["parameters"].append({"path": "kernel.sigma",
                                   "values": [0.15, 0.25]})
        rows = run_sweep(parse_sweep_dict(spec), out_dir=tmp_path / "s",
                         quiet=True)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)

    def test_sigma_sweep_all_positive_and_converging(self, tmp_path):
        base = minimal_doc(initial={"kind": "random_uniform", "low": 0.5,
                                    "high": 1.5, "seed": 9})
        base["grid"]["counts"] = 96
        base["sim"] = {"mu": 2.0, "dt": 2e-3, "t_end": 15.0}
        spec = {"base": base,
                "parameters": [{"path": "kernel.sigma", "values": [0.1, 0.3]}]}
        rows = run_sweep(parse_sweep_dict(spec), out_dir=tmp_path / "s",
                         quiet=True)
        for row in rows:
            assert row["status"] == "ok"
            assert row["eigen_verdict"] == "positive"
            assert row["bochner_verdict"] == "positive"
            assert row["final_sup_dist_one"] < 1e-2

    def test_requires_one_or_two_parameters(self):
        spec = self.base_sweep()
        spec["parameters"] = []
        with pytest.raises(ValidationError, match="one or two"):
            parse_sweep_dict(spec)

    def test_repeated_parameter_path_rejected(self):
        spec = self.base_sweep()
        spec["parameters"].append({"path": "sim.mu", "values": [3.0, 4.0]})
        with pytest.raises(ValidationError, match="'sim.mu' is swept twice"):
            parse_sweep_dict(spec)

    @pytest.mark.parametrize("change,message", [
        (lambda spec: spec.update(base=[]), "'base' must be a scenario object"),
        (lambda spec: spec["parameters"][0].update(path="mu"),
         "must look like 'section.key', got 'mu'"),
        (lambda spec: spec["parameters"][0].update(path="sim.mu.x"),
         "must look like 'section.key', got 'sim.mu.x'"),
        (lambda spec: spec["parameters"][0].update(values=[1.0, float("nan")]),
         "'sim.mu' has non-finite value"),
    ], ids=["base", "no_dot", "two_dots", "nan"])
    def test_malformed_sweep_is_refused(self, change, message):
        spec = self.base_sweep()
        change(spec)
        with pytest.raises(ValidationError, match=message):
            parse_sweep_dict(spec)

    def test_empty_values_rejected(self):
        spec = self.base_sweep()
        spec["parameters"][0]["values"] = []
        with pytest.raises(ValidationError, match="non-empty"):
            parse_sweep_dict(spec)
