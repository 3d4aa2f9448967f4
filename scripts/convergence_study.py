#!/usr/bin/env python3
"""Empirical orders under dt refinement.

Two studies on the constant-data (logistic) family with a balanced gaussian
kernel: the time-stepping error against the closed-form logistic solution,
and the decay-identity residual |dV/dt + D|, with D the trapezoid of the
recorded dissipation over each step. Both should shrink at first order.
"""

import argparse

import numpy as np

from nlkpp import (Field, KernelProfile, SimConfig, build_uniform_grid,
                   decay_identity_residual, run, sample_convolution_kernel,
                   symmetrize_and_normalize)


def logistic(t, u0, mu):
    e = np.exp(mu * t)
    return u0 * e / (1 - u0 + u0 * e)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--sigma", type=float, default=0.2)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--u0", type=float, default=0.2)
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--dts", type=float, nargs="+",
                    default=[8e-3, 4e-3, 2e-3, 1e-3])
    args = ap.parse_args()

    grid = build_uniform_grid((0.0, 1.0), args.n)
    kernel = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("gaussian", args.sigma), grid))

    errors, residuals = [], []
    for dt in args.dts:
        cfg = SimConfig(mu=args.mu, dt=dt, t_end=args.t_end)
        _, trace = run(Field.constant(grid, args.u0), grid, kernel, cfg)
        t = trace.column("t")
        errors.append(np.max(np.abs(trace.column("mass")
                                    - logistic(t, args.u0, args.mu))))
        residuals.append(max(decay_identity_residual(trace, k)
                             for k in range(len(trace) - 1)))

    print(f"{'dt':>10} {'logistic err':>14} {'order':>7} "
          f"{'identity res':>14} {'order':>7}")
    for i, dt in enumerate(args.dts):
        eo = (f"{np.log(errors[i-1] / errors[i]) / np.log(args.dts[i-1] / dt):7.2f}"
              if i else "      -")
        ro = (f"{np.log(residuals[i-1] / residuals[i]) / np.log(args.dts[i-1] / dt):7.2f}"
              if i else "      -")
        print(f"{dt:10.1e} {errors[i]:14.4e} {eo} {residuals[i]:14.4e} {ro}")


if __name__ == "__main__":
    main()
