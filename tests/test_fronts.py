"""Travelling fronts: an invasion of 0 by 1 spreads at the KPP speed 2 sqrt(mu)
less Bramson's logarithmic delay, with a positive kernel as in local mode, and
leaves 1 behind it under a positive kernel but a pattern past the Turing onset.
Ahead of a front the nodes sit on a 1e-300 floor, so the trace's edge terms
meet neighbours whose product underflows."""

import math

import numpy as np
import pytest

from nlkpp import (Field, KernelProfile, SimConfig, build_uniform_grid, run,
                   sample_convolution_kernel, symmetrize_and_normalize, turing_onset)

MU, T1, T2 = 1.0, 10.0, 30.0
# the mean speed over [T1, T2] of a front at 2 sqrt(mu) t - 3/(2 sqrt(mu)) ln t
BRAMSON_SPEED = (2.0 * math.sqrt(MU)
                 - 1.5 / math.sqrt(MU) * math.log(T2 / T1) / (T2 - T1))


def _crossing(x: np.ndarray, u: np.ndarray) -> float:
    """The first x where u falls through 1/2, interpolated linearly."""
    i = int(np.argmax(u < 0.5))
    return x[i - 1] + (u[i - 1] - 0.5) / (u[i - 1] - u[i]) * (x[i] - x[i - 1])


def _balanced(family: str, sigma: float):
    return lambda g: symmetrize_and_normalize(
        sample_convolution_kernel(KernelProfile(family, sigma), g))


def _step_datum(grid) -> Field:
    return Field(grid, np.where(grid.nodes[:, 0] < 2.0, 1.0, 0.0))


FRONT_KERNELS = pytest.mark.parametrize("kernel_of", [
    lambda g: None, _balanced("gaussian", 0.2)], ids=["local", "gaussian"])


@FRONT_KERNELS
def test_front_moves_at_the_bramson_speed(kernel_of):
    grid = build_uniform_grid((0.0, 80.0), 801)
    x = grid.nodes[:, 0]
    u0 = _step_datum(grid)
    # with the default floor 1e-14 the nodes ahead of the front would grow
    # as 1e-14 e^(mu t) and reach order one on their own near t = 32
    config = SimConfig(mu=MU, dt=0.02, t_end=T2, snapshot_every=25,
                       positivity_floor=1e-300)
    _, trace = run(u0, kernel_of(grid), config)
    snaps = [s for s in trace.snapshots if s.t >= T1 - 1e-9]
    times = np.array([s.t for s in snaps])
    fronts = np.array([_crossing(x, s.field.values) for s in snaps])
    speed = np.polyfit(times, fronts, 1)[0]
    assert speed == pytest.approx(BRAMSON_SPEED, rel=0.01)


@FRONT_KERNELS
def test_dissipation_is_finite_ahead_of_the_front(kernel_of):
    # two neighbours on the floor made D_grad 0 / 0 in 73 of these 101 rows
    grid = build_uniform_grid((0.0, 80.0), 801)
    config = SimConfig(mu=MU, dt=0.02, t_end=2.0, positivity_floor=1e-300)
    _, trace = run(_step_datum(grid), kernel_of(grid), config)
    assert len(trace) == 101
    assert np.isfinite(trace.column("D_grad")).all()
    assert np.isfinite(trace.column("D_total")).all()


@pytest.mark.parametrize("family, sigma", [
    ("gaussian", 0.2), ("exponential", 0.2), ("tophat", 1.0)])
def test_the_wake_is_one_exactly_below_the_turing_onset(family, sigma):
    # a fast front (mu = 150, about 20 units in t = 0.8) into vacuum; the
    # onset on a domain half as long says which kernels pattern at this mu
    mu, kernel_of = 150.0, _balanced(family, sigma)
    small = build_uniform_grid((0.0, 20.0), 401)
    patterns = turing_onset(small, kernel_of(small)) < mu
    assert patterns == (family == "tophat")
    grid = build_uniform_grid((0.0, 40.0), 801)
    x = grid.nodes[:, 0]
    config = SimConfig(mu=mu, dt=2e-3, t_end=0.8, positivity_floor=1e-300)
    state, trace = run(_step_datum(grid), kernel_of(grid), config)
    assert np.isfinite(trace.column("D_total")).all()
    u = state.u.values
    front = x[np.flatnonzero(u >= 0.5)[-1]]
    assert 18.0 < front < 23.0
    wake = u[(x >= 3.0) & (x <= front - 3.0)]
    # 5e-7 (gaussian) and 2e-5 (exponential) against 1.6 (tophat)
    if patterns:
        assert abs(wake - 1.0).max() > 0.5
    else:
        assert abs(wake - 1.0).max() < 1e-3
