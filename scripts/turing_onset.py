#!/usr/bin/env python3
"""Locate the Turing onset for a positivity-violating tophat kernel.

``turing_onset`` gives mu*, the smallest mu at which u = 1 loses linear
stability, from one symmetric pencil of the linearization at u = 1. A cosine
mode's rate is affine in mu, lambda_k - mu q_k, so the smallest
lambda_k / q_k over the modes with q_k < 0 is the onset in the cosine basis,
an upper bound on mu*, which the script prints as well. Linear analysis
predicts mu* ~ 84 / sigma^2 for a width-sigma tophat whenever the domain is
wide enough to host the unstable wavelength (~1.4 sigma); kernels wider than
the domain degenerate to a positive rank-one-like form and never destabilize.
With --simulate, runs the dynamics just above onset and writes artifacts
showing the pattern grow and saturate.
"""

import argparse
from pathlib import Path

import numpy as np

from nlkpp import (Field, KernelProfile, SimConfig, build_uniform_grid,
                   certify_positivity_eigen, cosine_mode_rates, cosine_modes,
                   most_unstable_cosine_mode, run, sample_convolution_kernel,
                   symmetrize_and_normalize, turing_onset, write_field)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--lo", type=float, default=0.0)
    ap.add_argument("--hi", type=float, default=5.0)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--simulate", action="store_true",
                    help="run the dynamics at 1.5x the located onset")
    ap.add_argument("--out", default="out_pattern")
    args = ap.parse_args()

    grid = build_uniform_grid((args.lo, args.hi), args.n)
    profile = KernelProfile("tophat", args.sigma)
    kernel = symmetrize_and_normalize(sample_convolution_kernel(profile, grid))
    cert = certify_positivity_eigen(kernel)
    print(f"eigen certificate: {cert.verdict} (witness {cert.witness:.3e})")
    if cert.verdict == "positive":
        print("kernel certifies positive on this domain; no onset to find")
        return

    onset = turing_onset(grid, kernel)
    print(f"\nonset mu* = {onset:.2f}   (mu* sigma^2 = {onset * args.sigma**2:.1f})")
    lam = cosine_mode_rates(grid, kernel, 0.0)
    q = lam - cosine_mode_rates(grid, kernel, 1.0)
    modes = np.flatnonzero(q < 0)  # the modes that a large enough mu destabilizes
    if modes.size:
        i = modes[np.argmin(lam[modes] / q[modes])]
        print(f"cosine-basis bound: mu* <= {lam[i] / q[i]:.2f} (mode k={i + 1})")

    if args.simulate:
        mu = 1.5 * onset
        k = most_unstable_cosine_mode(grid, kernel, mu)
        rate = cosine_mode_rates(grid, kernel, mu)[k - 1]
        print(f"simulating at mu = {mu:.1f}: seeding cosine mode k={k} "
              f"(growth rate {rate:.3f})")
        u0 = Field(grid, 1.0 + 0.01 * cosine_modes(grid, k))
        cfg = SimConfig(mu=mu, dt=2e-4, t_end=max(3.0, 8.0 / max(rate, 0.5)))
        state, trace = run(u0, grid, kernel, cfg)
        sup = trace.column("sup_dist_one")
        print(f"perturbation amplitude: start {sup[0]:.3g}, "
              f"max {sup.max():.3g} (x{sup.max() / sup[0]:.0f}), "
              f"final {sup[-1]:.3g}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace.to_csv(out / "trace.csv")
        write_field(out / "final_field.bin", state.u)
        print(f"wrote {out}/trace.csv and {out}/final_field.bin")


if __name__ == "__main__":
    main()
