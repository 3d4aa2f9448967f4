"""The benchmark's workloads: inputs generated from the seed, the operations of
one round, and the checks on the program's outputs.

A workload object writes its scenario files once per run (``inputs``) and then
plays rounds: each round drives ``nlkpp`` through its command line and records
one check per property, so every round attempts the same number of checks
whatever the seed. The oracles (closed-form logistic curve, the Turing onset
from the continuum dispersion relation, the field file layout) are computed
here, not by the program.
"""

import csv
import math
import random
import struct

LN4 = math.log(4.0)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows, name) -> list[float]:
    return [float(r[name]) for r in rows]


def v_nonincreasing(rows) -> bool:
    """V never rises by more than 1e-8 (1 + V0) from one step to the next."""
    v = column(rows, "V")
    tol = 1e-8 * (1.0 + v[0])
    return len(v) > 1 and all(b - a <= tol for a, b in zip(v, v[1:]))


def min_u_positive(rows) -> bool:
    return bool(rows) and all(u > 0.0 for u in column(rows, "min_u"))


def mass_conserved(rows) -> bool:
    m = column(rows, "mass")
    return len(m) > 1 and all(abs(b - a) <= 1e-10 for a, b in zip(m, m[1:]))


def reaches(rows, t_end: float) -> bool:
    return abs(float(rows[-1]["t"]) - t_end) <= 1e-9 * max(1.0, t_end)


def certificate_verdicts(path) -> dict:
    return {r["method"]: r["verdict"] for r in read_rows(path)}


def both(verdicts: dict, verdict: str) -> bool:
    return verdicts.get("eigen") == verdict and verdicts.get("bochner") == verdict


def abscissa_tolerance(spacing: float, dim: int, mu: float) -> float:
    """Round-off allowance on the abscissa: 1e-12 of the bound 4 dim / h^2 + 2 mu
    on the linearization's norm (at mu = 0 the exact abscissa is 0)."""
    return 1e-12 * (4.0 * dim / spacing ** 2 + 2.0 * mu)


def field_sup_dist_one(path) -> float:
    """max |u - 1| of a field file, decoded from the documented binary layout."""
    raw = open(path, "rb").read()
    magic, version, _ = struct.unpack_from("<8sII", raw, 0)
    if magic != b"NLKPPFLD" or version != 1:
        raise ValueError(f"{path}: not a version-1 field file")
    (dim,) = struct.unpack_from("<I", raw, 16)
    counts = struct.unpack_from(f"<{dim}I", raw, 20)
    offset = 20 + 4 * dim + 16 * dim
    n = math.prod(counts)
    if len(raw) != offset + 8 * n:
        raise ValueError(f"{path}: {len(raw)} bytes for {n} values")
    values = struct.unpack_from(f"<{n}d", raw, offset)
    return max(abs(u - 1.0) for u in values)


def tophat_onset(sigma: float, length: float, n_modes: int) -> float:
    """Smallest mu at which a cosine mode k = m pi / L grows under
    lambda(k) = -k^2 - mu sin(k sigma) / (k sigma) (continuum dispersion relation)."""
    onset = math.inf
    for m in range(1, n_modes + 1):
        k = m * math.pi / length
        s = math.sin(k * sigma)
        if s < 0.0:
            onset = min(onset, k ** 3 * sigma / -s)
    return onset


def _grid1d(lo, hi, n):
    return {"extents": [lo, hi], "counts": n}


class Ensemble1D:
    """Many short relaxation runs on one certified gaussian kernel (N = 128)."""

    name = "ensemble_1d"
    SETUP_VERDICT = "positive"
    SEEDS = 3
    MUS = (0.0, 0.5, 1.0, 2.0)
    KERNEL = {"family": "gaussian", "sigma": 0.2, "normalization": "balanced"}
    GRID = _grid1d(0.0, 1.0, 128)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(self.SEEDS)]
        self.conv_amplitude = round(rng.uniform(0.3, 0.9), 6)

    def inputs(self) -> dict:
        relax = {"kind": "random_uniform", "low": 0.5, "high": 1.5}
        return {
            "setup": {"name": "setup", "grid": self.GRID, "kernel": self.KERNEL,
                      "initial": {"kind": "constant", "value": 1.0},
                      "sim": {"mu": 1.0, "dt": 0.002, "t_end": 1.0}},
            "sweep": {
                "base": {"grid": self.GRID, "kernel": self.KERNEL,
                         "initial": dict(relax, seed=0),
                         "sim": {"mu": 1.0, "dt": 0.002, "t_end": 2.0,
                                 "snapshot_every": 0},
                         "output": {"artifacts": ["trace", "certificate", "summary"]}},
                "parameters": [{"path": "initial.seed", "values": self.seeds},
                               {"path": "sim.mu", "values": list(self.MUS)}]},
            "logistic": {"name": "logistic", "grid": self.GRID, "kernel": self.KERNEL,
                         "initial": {"kind": "constant", "value": 0.2},
                         "sim": {"mu": 1.0, "dt": 0.001, "t_end": LN4}},
            "convergence": {"name": "convergence", "grid": self.GRID,
                            "kernel": self.KERNEL,
                            "initial": {"kind": "cosine", "mode": "most_unstable",
                                        "amplitude": self.conv_amplitude},
                            "sim": {"mu": 1.0, "dt": 0.002, "t_end": 10.0,
                                    "snapshot_every": 1000}},
            # known fault: column normalization does not make K[1] = 1
            "columns_steady": {"name": "columns_steady", "grid": self.GRID,
                               "kernel": dict(self.KERNEL, normalization="columns"),
                               "initial": {"kind": "constant", "value": 1.0},
                               "sim": {"mu": 1.0, "dt": 0.01, "t_end": 20.0,
                                       "snapshot_every": 0},
                               "output": {"artifacts": ["trace", "summary"]}},
        }

    def play(self, rnd) -> None:
        h = 1.0 / (self.GRID["counts"] - 1)
        status, out = rnd.run("sweep", "sweep")
        rnd.check("sweep.exit", lambda: status == 0)
        rows = {}
        try:
            rows = {int(r["point"]): r for r in read_rows(out / "sweep_summary.csv")}
        except OSError:
            pass
        for i in range(len(self.seeds) * len(self.MUS)):
            point = out / f"point_{i:03d}"
            mu = self.MUS[i % len(self.MUS)]
            row = rows.get(i, {})
            rnd.check("sweep.certificates_positive",
                      lambda: row["status"] == "ok"
                      and both(certificate_verdicts(point / "certificate.csv"), "positive"))
            rnd.check("sweep.V_nonincreasing",
                      lambda: v_nonincreasing(read_rows(point / "trace.csv")))
            rnd.check("sweep.min_u_positive",
                      lambda: min_u_positive(read_rows(point / "trace.csv")))
            rnd.check("sweep.abscissa_nonpositive",
                      lambda: float(row["spectral_abscissa"])
                      <= abscissa_tolerance(h, 1, mu))
            if mu == 0.0:
                rnd.check("sweep.mass_conserved_mu0",
                          lambda: mass_conserved(read_rows(point / "trace.csv")))

        status, out = rnd.run("simulate", "logistic")
        rnd.check("logistic.exit", lambda: status == 0)

        def logistic_oracle():
            trace = read_rows(out / "trace.csv")
            for r in trace:
                g = math.exp(float(r["t"]))
                exact = 0.2 * g / (0.8 + 0.2 * g)
                if abs(float(r["min_u"]) - exact) > 1e-3:
                    return False
            return len(trace) > 1
        rnd.check("logistic.oracle", logistic_oracle)

        def logistic_half():
            last = read_rows(out / "trace.csv")[-1]
            return (abs(float(last["t"]) - LN4) <= 1e-12
                    and abs(float(last["min_u"]) - 0.5) <= 1e-3)
        rnd.check("logistic.u_ln4_half", logistic_half)
        rnd.check("logistic.min_u_positive",
                  lambda: min_u_positive(read_rows(out / "trace.csv")))
        rnd.check("logistic.certificates_positive",
                  lambda: both(certificate_verdicts(out / "certificate.csv"), "positive"))

        status, out = rnd.run("simulate", "convergence")
        rnd.check("convergence.exit", lambda: status == 0)
        rnd.check("convergence.sup_dist_below_1e-2",
                  lambda: float(read_rows(out / "trace.csv")[-1]["sup_dist_one"]) < 1e-2)
        rnd.check("convergence.V_nonincreasing",
                  lambda: v_nonincreasing(read_rows(out / "trace.csv")))
        rnd.check("convergence.min_u_positive",
                  lambda: min_u_positive(read_rows(out / "trace.csv")))
        rnd.check("convergence.certificates_positive",
                  lambda: both(certificate_verdicts(out / "certificate.csv"), "positive"))
        rnd.check("convergence.final_field_matches_trace",
                  lambda: field_sup_dist_one(out / "final_field.bin")
                  == float(read_rows(out / "trace.csv")[-1]["sup_dist_one"]))

        status, out = rnd.run("simulate", "columns_steady")

        def steady_state_kept():
            if status == 2:  # scenario refused: also a fix
                return True
            sup = column(read_rows(out / "trace.csv"), "sup_dist_one")
            return status == 0 and max(sup) <= 1e-12
        rnd.check("known_fault.columns_normalization_drifts_from_1",
                  steady_state_kept, known_fault=True)


class Field2D:
    """A 64 x 64 gaussian kernel: certified in the set-up, then about 1000 steps
    from random data with ``certify: false``."""

    name = "field_2d"
    SETUP_VERDICT = "positive"
    N = 64
    GRID = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [N, N]}
    KERNEL = {"family": "gaussian", "sigma": 0.2, "normalization": "balanced"}
    MU, T_END = 1.0, 2.0

    def __init__(self, seed: int):
        self.init_seed = random.Random(seed).randrange(2 ** 31)

    def inputs(self) -> dict:
        run = {"name": "field", "grid": self.GRID,
               "initial": {"kind": "random_uniform", "low": 0.5, "high": 1.5,
                           "seed": self.init_seed},
               "sim": {"mu": self.MU, "dt": 0.002, "t_end": self.T_END,
                       "snapshot_every": 0}}
        return {"setup": dict(run, kernel=self.KERNEL),
                "field": dict(run, kernel=dict(self.KERNEL, certify=False))}

    def play(self, rnd) -> None:
        status, out = rnd.run("simulate", "field")
        rnd.check("simulate.exit", lambda: status == 0)
        rnd.check("simulate.reaches_t_end",
                  lambda: reaches(read_rows(out / "trace.csv"), self.T_END))
        rnd.check("simulate.V_nonincreasing",
                  lambda: v_nonincreasing(read_rows(out / "trace.csv")))
        rnd.check("simulate.min_u_positive",
                  lambda: min_u_positive(read_rows(out / "trace.csv")))

        def abscissa_reported():
            a = float(read_rows(out / "summary.csv")[0]["spectral_abscissa"])
            return math.isfinite(a) and a <= abscissa_tolerance(1.0 / (self.N - 1), 2,
                                                                self.MU)
        # known fault: above 1024 nodes the abscissa is skipped and reported as NaN
        rnd.check("known_fault.abscissa_nan_above_1024_nodes", abscissa_reported,
                  known_fault=True)


class Turing1D:
    """Tophat kernel past its Turing onset: a mu sweep with two pool workers and
    one stiff run that rejects and halves steps."""

    name = "turing_1d"
    SETUP_VERDICT = "not_positive"
    LENGTH, N, SIGMA = 5.0, 256, 1.0
    GRID = _grid1d(0.0, LENGTH, N)
    KERNEL = {"family": "tophat", "sigma": SIGMA, "normalization": "balanced"}
    # each band lies wholly within or wholly beyond 15% of the onset (89.5),
    # so the number of sign checks does not depend on the seed
    MU_BANDS = ((20.0, 40.0), (50.0, 70.0), (80.0, 86.0), (96.0, 100.0),
                (110.0, 130.0), (150.0, 200.0), (220.0, 280.0), (300.0, 350.0))
    STIFF_T_END = 3.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.mus = [round(rng.uniform(lo, hi), 3) for lo, hi in self.MU_BANDS]
        self.amplitude = round(rng.uniform(0.005, 0.015), 6)
        self.onset = tophat_onset(self.SIGMA, self.LENGTH, self.N - 2)

    def inputs(self) -> dict:
        cosine = {"kind": "cosine", "amplitude": self.amplitude,
                  "mode": "most_unstable"}
        return {
            "setup": {"name": "setup", "grid": self.GRID, "kernel": self.KERNEL,
                      "initial": cosine, "sim": {"mu": 100.0, "dt": 5e-4, "t_end": 1.0}},
            "sweep": {
                "base": {"grid": self.GRID, "kernel": self.KERNEL, "initial": cosine,
                         "sim": {"mu": 10.0, "dt": 5e-4, "t_end": 2.0,
                                 "snapshot_every": 0},
                         "output": {"artifacts": ["trace", "summary"]}},
                "parameters": [{"path": "sim.mu", "values": self.mus}]},
            "stiff": {"name": "stiff", "grid": self.GRID, "kernel": self.KERNEL,
                      "initial": cosine,
                      "sim": {"mu": 400.0, "dt": 5e-3, "t_end": self.STIFF_T_END}},
        }

    def play(self, rnd) -> None:
        status, out = rnd.run("sweep", "sweep", "--jobs", "2")
        rnd.check("sweep.exit", lambda: status == 0)
        rows = {}
        try:
            rows = {int(r["point"]): r for r in read_rows(out / "sweep_summary.csv")}
        except OSError:
            pass
        for i, mu in enumerate(self.mus):
            row = rows.get(i, {})
            rnd.check("sweep.certificates_not_positive",
                      lambda: row["status"] == "ok"
                      and row["eigen_verdict"] == row["bochner_verdict"] == "not_positive")
            rnd.check("sweep.abscissa_sign_matches_growth",
                      lambda: (float(row["spectral_abscissa"]) > 0)
                      == (float(row["final_sup_dist_one"]) > self.amplitude))
            if abs(mu - self.onset) > 0.15 * self.onset:
                rnd.check("sweep.abscissa_sign_matches_onset",
                          lambda: (float(row["spectral_abscissa"]) > 0) == (mu > self.onset))

        status, out = rnd.run("simulate", "stiff")
        rnd.check("stiff.exit", lambda: status == 0)
        rnd.check("stiff.reaches_t_end",
                  lambda: reaches(read_rows(out / "trace.csv"), self.STIFF_T_END))
        rnd.check("stiff.min_u_positive",
                  lambda: min_u_positive(read_rows(out / "trace.csv")))
        rnd.check("stiff.certificates_not_positive",
                  lambda: both(certificate_verdicts(out / "certificate.csv"),
                               "not_positive"))


WORKLOADS = {w.name: w for w in (Ensemble1D, Field2D, Turing1D)}
