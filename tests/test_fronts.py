"""Travelling fronts: an invasion of 0 by 1 spreads at the KPP speed 2 sqrt(mu)
less Bramson's logarithmic delay, with a positive kernel as in local mode."""

import math

import numpy as np
import pytest

from nlkpp import (Field, KernelProfile, SimConfig, build_uniform_grid, run,
                   sample_convolution_kernel, symmetrize_and_normalize)

MU, T1, T2 = 1.0, 10.0, 30.0
# the mean speed over [T1, T2] of a front at 2 sqrt(mu) t - 3/(2 sqrt(mu)) ln t
BRAMSON_SPEED = (2.0 * math.sqrt(MU)
                 - 1.5 / math.sqrt(MU) * math.log(T2 / T1) / (T2 - T1))


def _crossing(x: np.ndarray, u: np.ndarray) -> float:
    """The first x where u falls through 1/2, interpolated linearly."""
    i = int(np.argmax(u < 0.5))
    return x[i - 1] + (u[i - 1] - 0.5) / (u[i - 1] - u[i]) * (x[i] - x[i - 1])


@pytest.mark.parametrize("kernel_of", [
    lambda g: None,
    lambda g: symmetrize_and_normalize(
        sample_convolution_kernel(KernelProfile("gaussian", 0.2), g)),
], ids=["local", "gaussian"])
def test_front_moves_at_the_bramson_speed(kernel_of):
    grid = build_uniform_grid((0.0, 80.0), 801)
    x = grid.nodes[:, 0]
    u0 = Field(grid, np.where(x < 2.0, 1.0, 0.0))
    # with the default floor 1e-14 the nodes ahead of the front would grow
    # as 1e-14 e^(mu t) and reach order one on their own near t = 32
    config = SimConfig(mu=MU, dt=0.02, t_end=T2, snapshot_every=25,
                       positivity_floor=1e-300)
    _, trace = run(u0, grid, kernel_of(grid), config)
    snaps = [s for s in trace.snapshots if s.t >= T1 - 1e-9]
    times = np.array([s.t for s in snaps])
    fronts = np.array([_crossing(x, s.field.values) for s in snaps])
    speed = np.polyfit(times, fronts, 1)[0]
    assert speed == pytest.approx(BRAMSON_SPEED, rel=0.01)
