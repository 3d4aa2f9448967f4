"""Acceptance contract: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines for passing criteria too).
"""

import time

import numpy as np

from nlkpp import (Field, SimConfig, apply_kernel, certify_positivity_bochner,
                   certify_positivity_eigen, decay_identity_residual,
                   most_unstable_cosine_mode, run, parse_sweep_dict,
                   run_sweep, spectral_abscissa, turing_onset)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def logistic(t, u0=0.2, mu=1.0):
    e = np.exp(mu * t)
    return u0 * e / (1 - u0 + u0 * e)


def test_a1_logistic_oracle(unit_grid, balanced_gaussian):
    """Constant initial data under a doubly balanced kernel follows the
    closed-form logistic solution; at t = ln 4 the value is 1/2."""
    start = time.perf_counter()
    cfg = SimConfig(mu=1.0, dt=1e-3, t_end=10.0)
    _, trace = run(Field.constant(unit_grid, 0.2), unit_grid,
                   balanced_gaussian, cfg)
    t = trace.column("t")
    sim = trace.column("mass")  # |domain| = 1 and u stays constant in space
    err = float(np.max(np.abs(sim - logistic(t))))
    k_ln4 = int(np.argmin(np.abs(t - np.log(4.0))))
    at_ln4 = sim[k_ln4]
    wall = time.perf_counter() - start
    ok = err < 1e-3 and abs(at_ln4 - 0.5) < 1e-3 and wall < 10.0
    assert _report("A1", ok,
                   f"max|u_sim-u_logistic|={err:.3e} u(ln4)={at_ln4:.6f} "
                   f"wall={wall:.1f}s")


def test_a2_lyapunov_monotonicity(unit_grid, balanced_gaussian):
    """V never increases along trajectories of a certified-positive kernel,
    up to 1e-8 (1 + V0) per step. 20 seeded random initial data, three mu."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(20):
        u0 = Field(unit_grid, rng.uniform(0.5, 1.5, unit_grid.n_nodes))
        for mu in (0.5, 1.0, 5.0):
            cfg = SimConfig(mu=mu, dt=1e-3, t_end=2.0)
            _, trace = run(u0, unit_grid, balanced_gaussian, cfg)
            v = trace.column("V")
            slack = 1e-8 * (1.0 + v[0])
            worst = max(worst, float(np.max(np.diff(v) - slack)))
    wall = time.perf_counter() - start
    ok = worst <= 0.0 and wall < 120.0
    assert _report("A2", ok,
                   f"worst (V_k+1 - V_k - slack)={worst:.3e} over 60 runs "
                   f"wall={wall:.1f}s")


def test_a3_global_convergence_to_one(unit_grid, balanced_gaussian):
    """Long runs from random positive data end uniformly close to 1."""
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    worst_sup, worst_v = 0.0, 0.0
    for mu in (0.5, 1.0, 5.0):
        u0 = Field(unit_grid, rng.uniform(0.5, 1.5, unit_grid.n_nodes))
        cfg = SimConfig(mu=mu, dt=2e-3, t_end=50.0)
        _, trace = run(u0, unit_grid, balanced_gaussian, cfg)
        worst_sup = max(worst_sup, trace.column("sup_dist_one")[-1])
        worst_v = max(worst_v, trace.column("V")[-1])
    wall = time.perf_counter() - start
    ok = worst_sup < 1e-2 and worst_v < 1e-4
    assert _report("A3", ok,
                   f"final sup|u-1|={worst_sup:.3e} final V={worst_v:.3e} "
                   f"(t_end=50, dt=2e-3) wall={wall:.1f}s")


def test_a4_decay_identity_order(unit_grid, balanced_gaussian):
    """|dV/dt + D| at the half step shrinks at first order in dt."""
    start = time.perf_counter()
    max_res = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimConfig(mu=1.0, dt=dt, t_end=4.0, snapshot_every=1)
        _, trace = run(Field.constant(unit_grid, 0.2), unit_grid,
                       balanced_gaussian, cfg)
        res = [decay_identity_residual(trace, k) for k in range(len(trace) - 1)]
        max_res.append(max(res))
    orders = [float(np.log2(max_res[i] / max_res[i + 1])) for i in range(2)]
    wall = time.perf_counter() - start
    ok = min(orders) >= 0.9
    assert _report("A4", ok,
                   f"residuals={['%.3e' % r for r in max_res]} "
                   f"orders={['%.2f' % o for o in orders]} wall={wall:.1f}s")


def test_a5_certification(unit_grid, balanced_gaussian, balanced_tophat):
    """Gaussian certifies positive both ways; tophat fails both ways with the
    transform's negative lobe near omega = 4.49 / sigma."""
    start = time.perf_counter()
    sigma = 0.2
    ge = certify_positivity_eigen(balanced_gaussian, tol=1e-10)
    gb = certify_positivity_bochner(balanced_gaussian.profile, tol=1e-10)
    te = certify_positivity_eigen(balanced_tophat, tol=1e-10)
    tb = certify_positivity_bochner(balanced_tophat.profile, tol=1e-10,
                                    n_samples=8192, half_width=5.0)
    lobe = tb.violating_frequency * sigma if tb.violating_frequency else np.nan
    wall = time.perf_counter() - start
    ok = (ge.verdict == "positive" and gb.verdict == "positive"
          and te.verdict == "not_positive" and te.witness < 0
          and tb.verdict == "not_positive" and tb.witness < 0
          and abs(lobe - 4.4934) < 0.3
          and wall < 10.0)
    assert _report("A5", ok,
                   f"gaussian=({ge.verdict},{gb.verdict}) "
                   f"tophat=({te.verdict} w={te.witness:.3e}, "
                   f"{tb.verdict} w={tb.witness:.3e} lobe*sigma={lobe:.3f}) "
                   f"wall={wall:.1f}s")


def test_a6_pattern_regime(unit_grid, balanced_tophat):
    """Tophat sigma=0.2 at mu=50: requires a positive abscissa and tenfold
    perturbation growth within t_end=20.

    Linear analysis puts the Turing onset for a width-sigma tophat near
    mu * sigma^2 ~ 84 (the negative transform lobe sits at frequencies of
    order 4.49 / sigma, where diffusion damps at rate (4.49 / sigma)^2);
    these parameters have mu * sigma^2 = 2. The assertion is kept as the
    contract states it. scripts/turing_onset.py maps the actual onset.
    """
    start = time.perf_counter()
    mu = 50.0
    abscissa = spectral_abscissa(unit_grid, balanced_tophat, mu)
    k = most_unstable_cosine_mode(unit_grid, balanced_tophat, mu)
    x = unit_grid.nodes[:, 0]
    u0 = Field(unit_grid, 1.0 + 0.01 * np.cos(k * np.pi * x))
    cfg = SimConfig(mu=mu, dt=1e-3, t_end=20.0)
    _, trace = run(u0, unit_grid, balanced_tophat, cfg)
    sup = trace.column("sup_dist_one")
    growth = float(sup.max() / sup[0])
    final_sup = float(sup[-1])
    wall = time.perf_counter() - start
    ok = (abscissa > 0 and growth >= 10.0 and final_sup > 0.1 and wall < 60.0)
    assert _report("A6", ok,
                   f"abscissa={abscissa:.4g} mode k={k} growth={growth:.3g} "
                   f"final sup|u-1|={final_sup:.3g} wall={wall:.1f}s")


def test_a7_stability_consistency_sweep(tmp_path, unit_grid, balanced_tophat):
    """Across mu = 1..50 for the tophat kernel, the abscissa sign and the
    simulated grow/decay verdict agree at every sweep point, and with the
    side of the kernel's Turing onset the point lies on."""
    start = time.perf_counter()
    amplitude = 0.01
    spec = {
        "base": {
            "grid": {"extents": [0.0, 1.0], "counts": 128},
            "kernel": {"family": "tophat", "sigma": 0.2},
            "initial": {"kind": "cosine", "amplitude": amplitude,
                        "mode": "most_unstable"},
            "sim": {"mu": 1.0, "dt": 2e-3, "t_end": 5.0},
            "output": {"artifacts": ["summary"]},
        },
        "parameters": [{"path": "sim.mu",
                        "values": [float(m) for m in range(1, 51)]}],
    }
    rows = run_sweep(parse_sweep_dict(spec), jobs=2,
                     out_dir=tmp_path / "sweep", quiet=True)
    onset = turing_onset(unit_grid, balanced_tophat)
    disagreements = []
    for row in rows:
        assert row["status"] == "ok", row.get("error", "")
        grew = row["final_sup_dist_one"] > amplitude
        unstable = row["spectral_abscissa"] > 0
        if not (grew == unstable == (row["sim.mu"] > onset)):
            disagreements.append(row["sim.mu"])
    wall = time.perf_counter() - start
    ok = not disagreements and max(row["sim.mu"] for row in rows) < onset
    assert _report("A7", ok,
                   f"50 points, all below the onset mu*={onset:.2f}, "
                   f"disagreements at mu={disagreements} wall={wall:.1f}s")


def test_a8_conservation_and_steady_state(unit_grid, balanced_gaussian, rng):
    """mu = 0 conserves mass to 1e-10 per step; u0 = 1 drifts below 1e-12
    per step in sup norm."""
    start = time.perf_counter()
    u0 = Field(unit_grid, rng.uniform(0.25, 2.0, unit_grid.n_nodes))
    cfg = SimConfig(mu=0.0, dt=1e-2, t_end=1.0)
    _, trace = run(u0, unit_grid, balanced_gaussian, cfg)
    mass_dev = float(np.max(np.abs(np.diff(trace.column("mass")))))

    cfg = SimConfig(mu=1.0, dt=1e-2, t_end=1.0, snapshot_every=1)
    _, trace1 = run(Field.constant(unit_grid, 1.0), unit_grid,
                    balanced_gaussian, cfg)
    steps = [s.field.values for s in trace1.snapshots]
    drift = max(float(np.max(np.abs(b - a)))
                for a, b in zip(steps, steps[1:]))
    wall = time.perf_counter() - start
    ok = mass_dev < 1e-10 and drift < 1e-12
    assert _report("A8", ok,
                   f"mass dev/step={mass_dev:.3e} steady drift/step={drift:.3e} "
                   f"wall={wall:.1f}s")


def test_a9_fast_path_equivalence(rng):
    """Zero-padded FFT application agrees with the dense path to 1e-10."""
    from conftest import stencil_apply
    from nlkpp import (KernelProfile, build_uniform_grid,
                       sample_convolution_kernel, symmetrize_and_normalize)
    start = time.perf_counter()
    grid = build_uniform_grid((0.0, 1.0), 256)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("gaussian", 0.2), grid))
    worst = 0.0
    for _ in range(50):
        f = Field(grid, rng.uniform(-1.0, 2.0, 256))
        dense = apply_kernel(kern, f).values
        fast = stencil_apply(kern, f)
        worst = max(worst, float(np.max(np.abs(dense - fast))
                                 / np.max(np.abs(dense))))
    wall = time.perf_counter() - start
    ok = worst < 1e-10
    assert _report("A9", ok, f"max rel diff={worst:.3e} over 50 fields "
                             f"wall={wall:.1f}s")
