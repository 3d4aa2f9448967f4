import json
import os
import re
import warnings
from pathlib import Path

import pytest

from nlkpp import __version__, read_csv_rows
from nlkpp.cli import build_parser, main


def scenario_doc():
    return {
        "grid": {"extents": [0.0, 1.0], "counts": 48},
        "kernel": {"family": "gaussian", "sigma": 0.2},
        "initial": {"kind": "constant", "value": 0.2},
        "sim": {"mu": 1.0, "dt": 1e-3, "t_end": 0.02},
    }


def write(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_simulate_success(tmp_path, capsys):
    path = write(tmp_path, scenario_doc(), "sc.json")
    code = main(["simulate", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out/trace.csv").exists()
    assert "sup|u-1|" in capsys.readouterr().out


def test_simulate_quiet(tmp_path, capsys):
    path = write(tmp_path, scenario_doc(), "sc.json")
    assert main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_scenario_is_validation_error(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nope.bin", "no\0pe.bin"], ids=["missing", "nul"])
def test_missing_initial_field_file_is_exit_2(tmp_path, capsys, monkeypatch, name):
    doc = scenario_doc()
    doc["initial"] = {"kind": "file", "path": name}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["simulate", write(tmp_path, doc, "sc.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err
    assert not any(cwd.iterdir())  # the run writes under --out only


@pytest.mark.parametrize("kind", ["directory", "binary", "nested"])
def test_unreadable_scenario_is_exit_2(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "binary":
        path = tmp_path / "sc.json"
        path.write_bytes(b"\x80\x81 not text")
    if kind == "nested":  # deeper than json.loads recurses
        path = tmp_path / "sc.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["simulate", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_invalid_scenario_field(tmp_path, capsys):
    doc = scenario_doc()
    doc["sim"]["mu"] = -2.0
    code = main(["simulate", write(tmp_path, doc, "bad.json")])
    assert code == 2
    assert "mu" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("sim", "t_end", float("inf")),
    ("kernel", "sigma", float("inf")),
    ("grid", "extents", [0.0, float("inf")]),
    ("grid", "counts", 3.5),
    ("sim", "mu", 10 ** 400),
    ("grid", "extents", [0.0, 1e-320]),  # 1/h^2 overflows
    ("grid", "extents", [[0.0, 1e200], [0.0, 1e200]]),  # the cell area overflows
], ids=["t_end", "sigma", "extents", "counts", "huge_int", "tiny_extents",
        "huge_cell"])
def test_non_finite_or_fractional_input_is_exit_2(tmp_path, capsys, section,
                                                   key, value):
    doc = scenario_doc()
    doc[section][key] = value  # json.dumps writes inf as Infinity
    if isinstance(doc["grid"]["extents"][0], list):
        doc["grid"]["counts"] = [8, 8]
    code = main(["simulate", write(tmp_path, doc, "bad.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# keys the scenario schema once read; the Python API keeps each as an
# argument, local mode as a run without a kernel (kernel=None)
REMOVED_KEYS = [("kernel", "inhibition_ratio", 0.8), ("kernel", "eigen_tol", 1e-9),
                ("kernel", "bochner_tol", 1e-9), ("kernel", "bochner_half_width", 50.0),
                ("kernel", "bochner_samples", 2048), ("kernel", "balance_tol", 1e-12),
                ("kernel", "balance_max_iterations", 5000),
                ("sim", "positivity_floor", 1e-14), ("sim", "max_dt_halvings", 40),
                ("sim", "local_mode", False), ("output", "stability", True)]


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS,
                         ids=[key for _, key, _ in REMOVED_KEYS])
def test_removed_key_is_unknown(tmp_path, capsys, section, key, value):
    doc = scenario_doc()
    doc.setdefault(section, {})[key] = value
    code = main(["simulate", write(tmp_path, doc, "removed.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"unknown key '{key}' in '{section}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_base_path_is_unknown(tmp_path, capsys):
    write(tmp_path, scenario_doc(), "base.json")
    sweep = {"base": scenario_doc(), "base_path": "base.json",
             "parameters": [{"path": "sim.mu", "values": [1.0]}]}
    code = main(["sweep", write(tmp_path, sweep, "sw.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key 'base_path' in 'sweep'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_missing_kernel_section_is_exit_2(tmp_path, capsys, command):
    doc = scenario_doc()
    del doc["kernel"]
    code = main([command, write(tmp_path, doc, "local.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "missing required key 'kernel' in 'scenario'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_mexican_hat_is_refused_while_parsing(tmp_path, capsys, command):
    doc = scenario_doc()
    doc["kernel"]["family"] = "mexican_hat"
    code = main([command, write(tmp_path, doc, "hat.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "kernel.family" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_is_exit_2(tmp_path, capsys):
    doc = scenario_doc()
    doc["initial"] = {"kind": "random_uniform", "low": 0.5, "high": 1.5, "seed": -1}
    code = main(["simulate", write(tmp_path, doc, "seed.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "initial.seed" in capsys.readouterr().err


def test_column_normalization_is_exit_2(tmp_path, capsys):
    doc = scenario_doc()
    doc["kernel"]["normalization"] = "columns"
    code = main(["simulate", write(tmp_path, doc, "columns.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "row sums" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["gaussian", "tophat"])
def test_a_kernel_wider_than_any_window_is_exit_2(tmp_path, capsys, family):
    # its half-width overflows: the eigen certificate leaves it to Lanczos,
    # and the Bochner check refuses the window
    doc = scenario_doc()
    doc["grid"]["counts"] = 16
    doc["kernel"] = {"family": family, "sigma": 1e308}
    assert main(["simulate", write(tmp_path, doc, "wide.json"),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "half_width must be positive and finite" in capsys.readouterr().err
    doc["kernel"]["certify"] = False
    assert main(["simulate", write(tmp_path, doc, "wide.json"),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_step_failure_maps_to_exit_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["sim"] = {"mu": 1e15, "dt": 1.0, "t_end": 1.0}
    doc["initial"] = {"kind": "constant", "value": 4.0}
    code = main(["simulate", write(tmp_path, doc, "explode.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_step_is_exit_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["grid"]["counts"] = 64
    doc["initial"] = {"kind": "constant", "value": 1e300}
    doc["sim"] = {"mu": 1e10, "dt": 1.0, "t_end": 3.0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", write(tmp_path, doc, "overflow.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite" in err
    # numpy's overflow warnings would print ahead of the error message
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_certify_writes_certificates(tmp_path, capsys):
    path = write(tmp_path, scenario_doc(), "sc.json")
    code = main(["certify", path, "--out", str(tmp_path / "cert")])
    assert code == 0
    out = capsys.readouterr().out
    assert "eigen: positive" in out
    assert "bochner: positive" in out
    assert (tmp_path / "cert/certificate.csv").exists()
    assert not (tmp_path / "cert/trace.csv").exists()


def test_sweep_cli(tmp_path):
    sweep = {
        "base": scenario_doc(),
        "parameters": [{"path": "sim.mu", "values": [0.5, 1.0]}],
    }
    code = main(["sweep", write(tmp_path, sweep, "sw.json"),
                 "--out", str(tmp_path / "sw"), "--jobs", "2", "--quiet"])
    assert code == 0
    text = (tmp_path / "sw/sweep_summary.csv").read_text()
    assert text.count("ok") == 2


def test_simulate_and_a_one_point_sweep_write_one_abscissa(tmp_path):
    # 256 nodes: there numpy's eigvalsh splits its work over the BLAS threads
    doc = {"grid": {"extents": [0.0, 5.0], "counts": 256},
           "kernel": {"family": "tophat", "sigma": 1.0, "certify": False},
           "initial": {"kind": "constant", "value": 0.5},
           "sim": {"mu": 150.0, "dt": 1e-4, "t_end": 2e-4}}
    sweep = {"base": doc, "parameters": [{"path": "sim.mu", "values": [150.0]}]}
    assert main(["simulate", write(tmp_path, doc, "sc.json"),
                 "--out", str(tmp_path / "sim"), "--quiet"]) == 0
    assert main(["sweep", write(tmp_path, sweep, "sw.json"), "--jobs", "1",
                 "--out", str(tmp_path / "sw"), "--quiet"]) == 0
    simulated = read_csv_rows(tmp_path / "sim/summary.csv")[0]["spectral_abscissa"]
    swept = read_csv_rows(tmp_path / "sw/sweep_summary.csv")[0]["spectral_abscissa"]
    assert simulated == swept


def test_sweep_into_a_non_object_section_is_exit_2(tmp_path, capsys):
    sweep = {"base": dict(scenario_doc(), name="base"),
             "parameters": [{"path": "name.tag", "values": ["a", "b"]}]}
    code = main(["sweep", write(tmp_path, sweep, "sw.json"),
                 "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "name.tag" in capsys.readouterr().err


SWEPT_MU = [{"path": "sim.mu", "values": [1.0]}]
# a non-string value for each key the schema reads as a string
NON_STRINGS = [
    ("simulate", dict(scenario_doc(), name=5), "name"),
    ("simulate", dict(scenario_doc(), output={"directory": True}), "output.directory"),
    ("simulate", dict(scenario_doc(), initial={"kind": "file", "path": None}),
     "initial.path"),
    ("sweep", {"base": scenario_doc(), "directory": 1.5, "parameters": SWEPT_MU},
     "directory"),
    ("sweep", {"base": scenario_doc(),
               "parameters": [{"path": ["sim", "mu"], "values": [1.0]}]},
     "parameters[0].path"),
]


@pytest.mark.parametrize("command,doc,where", NON_STRINGS,
                         ids=[where for _, _, where in NON_STRINGS])
def test_non_string_value_is_exit_2(tmp_path, capsys, command, doc, where):
    code = main([command, write(tmp_path, doc, "bad.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"'{where}' must be a string" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,doc,out", [
    ("simulate", scenario_doc(), "file/sub"),
    ("certify", scenario_doc(), "file"),
    ("sweep", {"base": scenario_doc(), "parameters": SWEPT_MU}, "file"),
    # a NUL byte in the document's own directory, with no --out
    ("simulate", dict(scenario_doc(), output={"directory": "o\0"}), None),
    ("sweep", {"base": scenario_doc(), "directory": "o\0", "parameters": SWEPT_MU},
     None),
], ids=["simulate", "certify", "sweep", "simulate-nul", "sweep-nul"])
def test_uncreatable_output_directory_is_exit_2(tmp_path, capsys, monkeypatch,
                                                command, doc, out):
    # refused before any kernel is built, not after the run
    def no_kernel(*args):
        raise AssertionError("the kernel was built")
    monkeypatch.setattr("nlkpp.scenario.build_kernel", no_kernel)
    monkeypatch.delenv("NLKPP_OUT", raising=False)
    (tmp_path / "file").write_text("")
    directory = "o\0" if out is None else str(tmp_path / out)
    code = main([command, write(tmp_path, doc, "doc.json")]
                + ([] if out is None else ["--out", directory]))
    assert code == 2
    assert f"cannot create output directory '{directory}'" in \
        capsys.readouterr().err


BLOCKED_ARTIFACTS = [
    ("simulate", "trace.csv"), ("simulate", "certificate.csv"),
    ("simulate", "final_field.bin"), ("simulate", "snapshots/snap_00000000.bin"),
    ("simulate", "summary.csv"), ("simulate", "run_meta.json"),
    ("certify", "certificate.csv"), ("sweep", "sweep_summary.csv"),
]


@pytest.mark.parametrize("command,blocked", BLOCKED_ARTIFACTS,
                         ids=[f"{c}-{Path(b).name}" for c, b in BLOCKED_ARTIFACTS])
def test_unwritable_artifact_is_exit_2(tmp_path, capsys, command, blocked):
    doc = ({"base": scenario_doc(), "parameters": SWEPT_MU} if command == "sweep"
           else scenario_doc())
    (tmp_path / "o" / blocked).mkdir(parents=True)  # a directory where a file goes
    code = main([command, write(tmp_path, doc, "doc.json"),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert f"cannot write '{tmp_path / 'o' / blocked}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_duplicate_key_is_exit_2(tmp_path, capsys, command):
    # json.loads alone would keep the last copy and run a gaussian at mu = 5
    doc = scenario_doc()
    doc["kernel"]["family"] = "tophat"
    if command == "sweep":
        doc = {"base": doc, "parameters": [{"path": "sim.t_end", "values": [0.01]}]}
    text = (json.dumps(doc)
            .replace('"sigma": 0.2', '"sigma": 0.2, "family": "gaussian"')
            .replace('"mu": 1.0', '"mu": 1.0, "mu": 5.0'))
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{path}: duplicate key 'family'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overlong_integer_literal_is_exit_2(tmp_path, capsys):
    # json.loads raises a plain ValueError past Python's integer digit limit;
    # json.dumps cannot write such a literal, so it goes into the text
    doc = scenario_doc()
    doc["initial"] = {"kind": "cosine", "mode": 7}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"mode": 7', '"mode": 1' + "0" * 5000))
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "digits" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_jobs_default_to_none():
    # run_sweep resolves None to the usable CPUs
    assert build_parser().parse_args(["sweep", "s.json"]).jobs is None


def test_sweep_bad_jobs(tmp_path, capsys):
    sweep = {"base": scenario_doc(),
             "parameters": [{"path": "sim.mu", "values": [1.0]}]}
    assert main(["sweep", write(tmp_path, sweep, "sw.json"), "--jobs", "0"]) == 2


def test_import_leaves_scipy_signal_unloaded(fresh_python):
    # the FFT kernel path runs numpy.fft, so its apply loads no scipy module
    code = ("import sys, nlkpp.cli\n"
            "from nlkpp import *\n"
            "g = build_uniform_grid(((0, 1), (0, 1)), (48, 48))\n"
            "k = sample_convolution_kernel(KernelProfile('gaussian', 0.2), g)\n"
            "assert k.apply_method == 'fft'\n"
            "apply_kernel(k, Field.constant(g, 1.0))\n"
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    assert fresh_python(code).strip() == "False"


def test_certify_loads_only_numpy_fft(tmp_path, fresh_python):
    # a certify process is mostly start-up: past `import nlkpp.cli`, which
    # loads no pool, random generator or scipy, and the parser (argparse's
    # gettext loads locale), a 1D and a 2D certify load numpy.fft alone
    doc = scenario_doc()
    write(tmp_path, doc, "gaussian.json")
    doc["grid"] = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [32, 32]}
    write(tmp_path, doc, "gaussian_2d.json")
    code = ("import sys, nlkpp.cli\n"
            "nlkpp.cli.build_parser()\n"
            "imported = set(sys.modules)\n"
            "for name in ('gaussian', 'gaussian_2d'):\n"
            "    assert nlkpp.cli.main(['certify', name + '.json', '--quiet',\n"
            "                           '--out', name]) == 0\n"
            "print(*sorted(imported))\n"
            "print(*sorted(set(sys.modules) - imported))")
    imported, certify = (line.split() for line in
                         fresh_python(code, cwd=tmp_path).split("\n")[-3:-1])
    assert not [m for m in imported if m.partition(".")[0] in (
        "multiprocessing", "concurrent", "scipy") or m.startswith("numpy.random")]
    assert certify and all(m.startswith("numpy.fft") for m in certify)


# the pool's modules
POOL = ("multiprocessing", "concurrent.futures")
# a sweep without --jobs starts a pool exactly when more than one CPU is usable
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@pytest.mark.parametrize("args,status,modules,loaded", [
    ([], None, ("scipy",), False),
    (["certify", "gaussian.json"], 0, ("scipy",), False),  # decided by the circulant symbol
    (["simulate", "columns.json"], 2, ("scipy",), False),
    # the diffusion solve calls numpy's LAPACK
    (["simulate", "gaussian.json"], 0, ("scipy",), False),
    # 1024 nodes: balancing applies the kernel by FFT
    (["certify", "gaussian_2d.json"], 0, ("scipy",), False),
    (["certify", "gaussian_1024.json"], 0, ("scipy",), False),
    (["simulate", "gaussian_2d.json"], 0, ("scipy",), False),
    # not_positive: decided by Lanczos, matrix-free at 32 x 32
    (["certify", "tophat.json"], 0, ("scipy",), False),
    (["certify", "tophat_2d.json"], 0, ("scipy",), False),
    # the linearization builds its Laplacian dense, from the grid's edges
    (["simulate", "gaussian.json"], 0, ("scipy.sparse",) + POOL, False),
    # the process pool is imported only by a sweep that starts one
    (["certify", "gaussian.json"], 0, POOL, False),
    (["simulate", "columns.json"], 2, POOL, False),
    (["sweep", "sweep.json", "--jobs", "1"], 0, POOL, False),
    (["sweep", "sweep.json", "--jobs", "2"], 0, POOL, True),
    (["sweep", "sweep.json"], 0, POOL, USABLE_CPUS > 1),
], ids=["import", "certify", "refusal", "simulate", "certify_2d", "certify_1024",
        "simulate_2d", "certify_tophat", "certify_tophat_2d", "simulate_sparse_pool",
        "certify_pool", "refusal_pool", "sweep_jobs_1", "sweep_jobs_2",
        "sweep_default"])
def test_scipy_loads_only_where_it_runs(tmp_path, fresh_python, args, status,
                                        modules, loaded):
    doc = scenario_doc()
    write(tmp_path, {"base": doc, "parameters": [{"path": "sim.mu",
                                                  "values": [0.5, 1.0]}]},
          "sweep.json")
    doc["grid"]["counts"] = 1024
    write(tmp_path, doc, "gaussian_1024.json")
    doc["grid"]["counts"] = 128
    write(tmp_path, doc, "gaussian.json")
    doc["kernel"]["normalization"] = "columns"
    write(tmp_path, doc, "columns.json")
    doc = scenario_doc()
    doc["grid"] = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [32, 32]}
    write(tmp_path, doc, "gaussian_2d.json")
    doc["kernel"]["family"] = "tophat"
    write(tmp_path, doc, "tophat_2d.json")
    doc = scenario_doc()  # past the Turing onset: 256 nodes on [0, 5], sigma 1
    doc["grid"] = {"extents": [0.0, 5.0], "counts": 256}
    doc["kernel"] = {"family": "tophat", "sigma": 1.0}
    write(tmp_path, doc, "tophat.json")
    code = "import sys, nlkpp, nlkpp.cli\n"
    if args:
        code += f"assert nlkpp.cli.main({args + ['--out', 'o']!r}) == {status}\n"
    code += ("def any_loaded(*names):\n"
             "    return any(m == x or m.startswith(x + '.') for x in names\n"
             "               for m in sys.modules)\n"
             f"print(any_loaded(*{modules!r}), any_loaded('scipy'))")
    found, scipy = fresh_python(code, cwd=tmp_path).splitlines()[-1].split()
    assert found == str(loaded)
    if args[:1] == ["sweep"]:  # with or without a pool, no scipy and the same rows
        assert scipy == "False"
        assert main(["sweep", str(tmp_path / "sweep.json"), "--quiet", "--jobs", "1",
                     "--out", str(tmp_path / "serial")]) == 0
        assert ((tmp_path / "o/sweep_summary.csv").read_bytes()
                == (tmp_path / "serial/sweep_summary.csv").read_bytes())


def test_runs_without_scipy(tmp_path, fresh_python):
    # scipy is a test dependency only: with its import blocked, every command
    # runs and the public Laplacian and linearization build
    doc = scenario_doc()
    write(tmp_path, doc, "gaussian.json")
    write(tmp_path, {"base": doc, "parameters": [{"path": "sim.mu",
                                                  "values": [0.5, 1.0]}]},
          "sweep.json")
    doc = scenario_doc()
    doc["grid"] = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [32, 32]}
    write(tmp_path, doc, "gaussian_2d.json")
    doc = scenario_doc()  # not_positive, decided by Lanczos
    doc["grid"] = {"extents": [0.0, 5.0], "counts": 256}
    doc["kernel"] = {"family": "tophat", "sigma": 1.0}
    write(tmp_path, doc, "tophat.json")
    runs = [["certify", "gaussian.json"], ["certify", "tophat.json"],
            ["certify", "gaussian_2d.json"], ["simulate", "gaussian.json"],
            ["simulate", "gaussian_2d.json"], ["sweep", "sweep.json", "--jobs", "1"],
            ["sweep", "sweep.json", "--jobs", "2"]]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from nlkpp import *\n"
            "from nlkpp.cli import main\n"
            f"for i, args in enumerate({runs!r}):\n"
            "    assert main(args + ['--quiet', '--out', f'o{i}']) == 0, args\n"
            "g = build_uniform_grid((0, 1), 32)\n"
            "k = symmetrize_and_normalize(sample_convolution_kernel(\n"
            "    KernelProfile('gaussian', 0.2), g))\n"
            "print(linearization_matrix(g, None, 0.0).shape,\n"
            "      linearization_matrix(g, k, 1.0).shape)")
    assert fresh_python(code, cwd=tmp_path).splitlines()[-1] == "(32, 32) (32, 32)"
    assert "eigen,not_positive," in (tmp_path / "o1/certificate.csv").read_text()
    assert all(row["status"] == "ok" for i in (5, 6)
               for row in read_csv_rows(tmp_path / f"o{i}/sweep_summary.csv"))


def test_console_script_is_console_main():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert 'nlkpp = "nlkpp.cli:console_main"' in pyproject.read_text()


@pytest.mark.parametrize("change,status", [
    ({}, 0),
    ({"sim": {"mu": -2.0, "dt": 1e-3, "t_end": 0.02}}, 2),
    ({"sim": {"mu": 1e15, "dt": 1.0, "t_end": 1.0},
      "initial": {"kind": "constant", "value": 4.0}}, 3),
    # far offsets overflow the profile's exponent, which samples to 0
    ({"grid": {"extents": [0.0, 1e300], "counts": 16}}, 0),
    ({"grid": {"extents": [0.0, 1e10], "counts": 16},
      "kernel": {"family": "exponential", "sigma": 1e-300}}, 0),
    # 2 sigma^2 underflows to 0: the kernel is the identity on the grid
    ({"grid": {"extents": [0.0, 1.0], "counts": 16},
      "kernel": {"family": "gaussian", "sigma": 1e-200}}, 0),
], ids=["ok", "validation", "numerical", "far_gaussian", "far_exponential",
        "tiny_gaussian"])
def test_process_exit_keeps_output(tmp_path, nlkpp_process, change, status):
    # python -W error -m nlkpp.cli ends by os._exit: what main printed and
    # wrote must still arrive whole, with no warning, and the artifacts match
    # an in-process run's bytes
    path = write(tmp_path, dict(scenario_doc(), **change), "sc.json")
    proc = nlkpp_process(["simulate", path, "--out", str(tmp_path / "sub")])
    assert proc.returncode == status
    if status == 0:
        assert re.fullmatch(r"\[sc\] steps=20 sup\|u-1\|=\S+ V=\S+ "
                            r"abscissa=\S+ wall=\d+\.\d\ds\n", proc.stdout)
        assert proc.stderr == ""
        assert main(["simulate", path, "--out", str(tmp_path / "in"), "--quiet"]) == 0
        for name in ("trace.csv", "certificate.csv", "final_field.bin"):
            assert ((tmp_path / "sub" / name).read_bytes()
                    == (tmp_path / "in" / name).read_bytes()), name
    else:
        prefix = "error: " if status == 2 else "numerical failure: "
        assert proc.stdout == ""
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith("\n")
