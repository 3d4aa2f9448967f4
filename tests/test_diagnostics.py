import csv
import functools
import io
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkpp import (DomainError, Field, KernelProfile, ShapeError, SimConfig,
                   ValidationError, build_kernel, build_uniform_grid, integrate,
                   certify_positivity_eigen, cosine_mode_rates, cosine_modes,
                   decay_identity_residual, dissipation, linearization_matrix,
                   lyapunov_value, most_unstable_cosine_mode, parse_scenario,
                   reaction_term, run, sample_convolution_kernel,
                   spectral_abscissa, sup_distance_to_one,
                   symmetrize_and_normalize, turing_onset)
from nlkpp._openblas import _one_blas_thread
from nlkpp.diagnostics import (TRACE_COLUMNS, Trace, kernel_action,
                               steady_state_residual)

from conftest import dense_laplacian

SCENARIOS = Path(__file__).parents[1] / "scenarios"


class TestLyapunovValue:
    def test_vanishes_at_one(self, unit_grid):
        assert lyapunov_value(Field.constant(unit_grid, 1.0)) == 0.0

    def test_constant_two(self, unit_grid):
        expected = 2.0 - 1.0 - math.log(2.0)  # H(2) on |domain| = 1
        assert lyapunov_value(Field.constant(unit_grid, 2.0)) == pytest.approx(
            expected, abs=1e-12)

    def test_constant_half(self, unit_grid):
        expected = 0.5 - 1.0 - math.log(0.5)
        assert lyapunov_value(Field.constant(unit_grid, 0.5)) == pytest.approx(
            expected, abs=1e-12)

    def test_rejects_nonpositive(self, unit_grid):
        vals = np.ones(unit_grid.n_nodes)
        vals[3] = 0.0
        with pytest.raises(DomainError):
            lyapunov_value(Field(unit_grid, vals))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_nonnegative_on_positive_fields(self, seed, unit_grid):
        u = np.random.default_rng(seed).uniform(0.05, 5.0, unit_grid.n_nodes)
        v = lyapunov_value(Field(unit_grid, u))
        assert v >= 0.0
        if np.max(np.abs(u - 1)) > 1e-3:
            assert v > 0.0


class TestDissipation:
    def test_zero_at_equilibrium(self, unit_grid, balanced_gaussian):
        d = dissipation(Field.constant(unit_grid, 1.0), balanced_gaussian, 1.0)
        assert d == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("c", [0.3, 1.7])
    def test_constant_field_collapses_double_sum(self, unit_grid,
                                                 balanced_gaussian, c):
        # doubly balanced on |domain| = 1: sum_ij w_i w_j K_ij = 1
        mu = 2.5
        d = dissipation(Field.constant(unit_grid, c), balanced_gaussian, mu)
        assert d.grad == 0.0
        assert d.kernel_part == pytest.approx(mu * (1 - c) ** 2, rel=1e-10)

    def test_eigen_witness_direction_goes_negative(self, unit_grid,
                                                   balanced_tophat):
        cert = certify_positivity_eigen(balanced_tophat)
        assert cert.verdict == "not_positive"
        eps = 1e-3
        u = Field(unit_grid, 1.0 + eps * cert.violating_direction)
        mu = 4.0
        d = dissipation(u, balanced_tophat, mu)
        assert d.kernel_part == pytest.approx(mu * eps**2 * cert.witness,
                                              rel=1e-8)
        assert d.kernel_part < 0

    def test_nonnegative_for_certified_kernels(self, unit_grid,
                                               balanced_gaussian, rng):
        for _ in range(10):
            u = Field(unit_grid, rng.uniform(0.1, 3.0, unit_grid.n_nodes))
            d = dissipation(u, balanced_gaussian, 1.5)
            assert d.kernel_part >= -1e-9
            assert d.grad >= 0.0

    def test_local_mode(self, unit_grid):
        d = dissipation(Field.constant(unit_grid, 0.5), None, 3.0)
        assert d.kernel_part == pytest.approx(3.0 * 0.25, rel=1e-12)


class TestDecayIdentity:
    def test_steady_residual_is_zero(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.05, snapshot_every=1)
        _, trace = run(Field.constant(unit_grid, 1.0), unit_grid,
                       balanced_gaussian, cfg)
        assert decay_identity_residual(trace, 0) < 1e-12

    def test_residual_halves_with_dt(self, unit_grid, balanced_gaussian):
        maxres = []
        for dt in (4e-3, 2e-3):
            cfg = SimConfig(mu=1.0, dt=dt, t_end=2.0, snapshot_every=1)
            _, trace = run(Field.constant(unit_grid, 0.2), unit_grid,
                           balanced_gaussian, cfg)
            res = [decay_identity_residual(trace, k)
                   for k in range(len(trace) - 1)]
            maxres.append(max(res))
        ratio = maxres[0] / maxres[1]
        assert 1.7 <= ratio <= 2.3

    def test_residual_halves_with_dt_2d(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (20, 20))
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 0.3), grid))
        u0 = Field.from_function(
            grid, lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        maxres = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SimConfig(mu=1.0, dt=dt, t_end=0.5, snapshot_every=1)
            _, trace = run(u0, grid, kern, cfg)
            maxres.append(max(decay_identity_residual(trace, k)
                              for k in range(len(trace) - 1)))
        for coarse, fine in zip(maxres, maxres[1:]):
            assert 1.7 <= coarse / fine <= 2.3

    def test_first_order_on_a_rough_state(self):
        # pattern.json's final state (min u 0.16, max 2.48, jumps at the
        # tophat's edges): D_total is the exact derivative of V, so one step's
        # residual falls with dt; with the edge-midpoint form of D_grad it
        # stayed at 0.169 at every dt
        scenario = parse_scenario(SCENARIOS / "pattern.json")
        grid, mu = scenario.grid, scenario.sim.mu
        kern, _ = build_kernel(replace(scenario.kernel, certify=False), grid)
        mode = most_unstable_cosine_mode(grid, kern, mu)
        u0 = Field(grid, 1.0 + scenario.initial.amplitude * cosine_modes(grid, mode))
        state, _ = run(u0, grid, kern, replace(scenario.sim, snapshot_every=0))
        residuals = []
        for dt in (1e-4, 1e-5, 1e-6):
            _, trace = run(state.u, grid, kern,
                           SimConfig(mu=mu, dt=dt, t_end=dt, snapshot_every=0))
            residuals.append(decay_identity_residual(trace, 0))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert coarse >= 5.0 * fine

    def test_reads_trace_csv(self, tmp_path, unit_grid, balanced_gaussian, rng):
        # no snapshots kept: the residual needs the trace rows only, and the
        # CSV round trip is exact
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.5, snapshot_every=0)
        u0 = Field(unit_grid, rng.uniform(0.5, 1.5, unit_grid.n_nodes))
        _, trace = run(u0, unit_grid, balanced_gaussian, cfg)
        trace.to_csv(tmp_path / "trace.csv")
        loaded = Trace.from_csv(tmp_path / "trace.csv")
        for k in range(len(trace) - 1):
            assert (decay_identity_residual(loaded, k)
                    == decay_identity_residual(trace, k))

    def test_index_out_of_range(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.03, snapshot_every=1)
        _, trace = run(Field.constant(unit_grid, 0.5), unit_grid,
                       balanced_gaussian, cfg)
        with pytest.raises(IndexError):
            decay_identity_residual(trace, len(trace) - 1)


class TestNormalizedKernelRule:
    """One rule refuses a kernel whose K[1] is not one, with one message,
    wherever the dynamics or the diagnostics would use it."""

    @pytest.mark.parametrize("call", [
        lambda g, k: reaction_term(Field.constant(g, 1.0), k, 1.0),
        lambda g, k: dissipation(Field.constant(g, 1.0), k, 1.0),
        lambda g, k: linearization_matrix(g, k, 1.0),
        lambda g, k: spectral_abscissa(g, k, 1.0),
        lambda g, k: cosine_mode_rates(g, k, 1.0),
        lambda g, k: most_unstable_cosine_mode(g, k, 1.0),
        turing_onset,
        lambda g, k: run(Field.constant(g, 1.0), g, k,
                         SimConfig(mu=1.0, dt=1e-2, t_end=0.1)),
    ], ids=["reaction_term", "dissipation", "linearization_matrix",
            "spectral_abscissa", "cosine_mode_rates", "most_unstable_cosine_mode",
            "turing_onset", "run"])
    def test_raw_kernel_refused_with_one_message(self, unit_grid, call):
        raw = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        field = Field.constant(unit_grid, 1.0)
        with pytest.raises(ValidationError, match="normalized") as rule:
            kernel_action(field, raw)
        with pytest.raises(ValidationError) as info:
            call(unit_grid, raw)
        assert str(info.value) == str(rule.value)

    def test_local_mode_is_the_field_itself(self, unit_grid):
        field = Field.constant(unit_grid, 0.5)
        assert kernel_action(field, None) is field.values


class TestLinearization:
    @pytest.mark.parametrize("extents,counts", [
        ((0, 1), 256), (((0, 1), (0, 1.5)), (14, 17)),
    ], ids=["1d", "2d"])
    def test_equals_the_sparse_laplacian_form(self, extents, counts):
        # the dense Laplacian and the kernel term, entry for entry
        grid = build_uniform_grid(extents, counts)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("gaussian", 0.2), grid))
        L, mu = dense_laplacian(grid), 2.5
        assert np.array_equal(linearization_matrix(grid, kern, mu),
                              L - mu * (kern.matrix * grid.weights[None, :]))
        assert np.array_equal(linearization_matrix(grid, None, mu),
                              L - mu * np.eye(grid.n_nodes))
        assert np.array_equal(linearization_matrix(grid, None, 0.0), L)

    def test_constant_mode_decays_at_mu(self, unit_grid, balanced_gaussian):
        mu = 1.7
        J = linearization_matrix(unit_grid, balanced_gaussian, mu)
        ones = np.ones(unit_grid.n_nodes)
        np.testing.assert_allclose(J @ ones, -mu * ones, atol=1e-9)

    def test_mu_zero_gives_heat_abscissa(self, unit_grid, balanced_gaussian):
        assert abs(spectral_abscissa(unit_grid, balanced_gaussian, 0.0)) < 1e-10

    def test_local_analogue_shifts_spectrum(self, unit_grid):
        mu = 2.2
        assert spectral_abscissa(unit_grid, None, mu) == pytest.approx(-mu, abs=1e-9)

    def test_gaussian_kernel_is_stable(self):
        grid = build_uniform_grid((0, 1), 64)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("gaussian", 0.2), grid))
        assert spectral_abscissa(grid, kern, 1.0) < 0

    @pytest.mark.parametrize("mu", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("family,sigma,ratio", [
        ("gaussian", 0.2, 0.0), ("exponential", 0.15, 0.0),
    ])
    def test_stability_consistency(self, mu, family, sigma, ratio):
        # certified positive + balanced symmetric kernel => u = 1 linearly stable
        grid = build_uniform_grid((0, 1), 96)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile(family, sigma), grid))
        assert certify_positivity_eigen(kern).verdict == "positive"
        assert spectral_abscissa(grid, kern, mu) <= 1e-8

    @pytest.mark.parametrize("extents,counts,family,sigma,mu", [
        ((0, 1), 128, "gaussian", 0.2, 0.0),
        ((0, 1), 128, "gaussian", 0.2, 1.0),
        ((0, 5), 256, "tophat", 1.0, 150.0),
        (((0, 1), (0, 1)), (32, 32), "gaussian", 0.2, 1.0),
        (((0, 1), (0, 1.5)), (20, 30), "tophat", 0.3, 200.0),
        ((0, 1), 128, None, None, 2.2),
    ], ids=["gaussian-mu0", "gaussian-mu1", "tophat-mu150", "2d-gaussian",
            "2d-tophat-mu200", "local"])
    def test_abscissa_matches_the_general_eigensolver(self, extents, counts,
                                                      family, sigma, mu):
        grid = build_uniform_grid(extents, counts)
        kern = None if family is None else symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile(family, sigma), grid))
        J = linearization_matrix(grid, kern, mu)
        reference = float(np.linalg.eigvals(J).real.max())
        norm = float(np.abs(J).sum(axis=1).max())
        assert abs(spectral_abscissa(grid, kern, mu) - reference) <= 1e-14 * norm

    @pytest.mark.parametrize("counts", [128, 64])
    @pytest.mark.parametrize("call", [
        linearization_matrix, spectral_abscissa, cosine_mode_rates,
        most_unstable_cosine_mode, lambda g, k, mu: turing_onset(g, k),
    ], ids=["linearization_matrix", "spectral_abscissa", "cosine_mode_rates",
            "most_unstable_cosine_mode", "turing_onset"])
    def test_refuses_a_kernel_from_another_grid(self, unit_grid, call, counts):
        # balanced on [0, 5]: with 128 nodes its matrix has unit_grid's shape
        other = build_uniform_grid((0, 5), counts)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("tophat", 1.0), other))
        with pytest.raises(ShapeError, match="kernel lies on"):
            call(unit_grid, kern, 150.0)

    @pytest.mark.parametrize("family,sigma,hi,n,mu", [
        ("tophat", 1.0, 5.0, 256, 150.0), ("gaussian", 0.2, 1.0, 128, 1.0),
    ], ids=["tophat", "gaussian"])
    def test_cosine_mode_rates_are_rayleigh_quotients(self, family, sigma, hi,
                                                      n, mu):
        grid = build_uniform_grid((0, hi), n)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile(family, sigma), grid))
        J = linearization_matrix(grid, kern, mu)
        x, w = grid.nodes[:, 0] / hi, grid.weights
        expected = []
        for k in range(1, n - 1):
            v = np.cos(k * np.pi * x)
            expected.append((w * v) @ (J @ v) / ((w * v) @ v))
        np.testing.assert_allclose(cosine_mode_rates(grid, kern, mu), expected,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mu", [0.0, 1.0, 150.0, 3000.0])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "tophat"])
    def test_no_mode_outgrows_the_abscissa(self, family, dim, mu):
        # a Rayleigh quotient of the W-self-adjoint J is at most its top
        # eigenvalue; tophat 0.5 is past its onset at mu = 3000
        grid, kern = _scan_setup(family, dim)
        bound = spectral_abscissa(grid, kern, mu) + _scan_tolerance(grid, mu)
        assert cosine_mode_rates(grid, kern, mu).max() <= bound

    @pytest.mark.parametrize("extents,counts", [
        ((0, 5), 1024), ((0, 5), 1100), (((0, 2), (0, 3)), (20, 30)),
    ], ids=["1024", "1100-stencil", "20x30"])
    def test_cosine_mode_rates_match_the_jacobian(self, extents, counts):
        grid = build_uniform_grid(extents, counts)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("tophat", 1.0), grid))
        mu = 150.0
        V = cosine_modes(grid, np.arange(1, grid.counts[0] - 1))
        WV = grid.weights[:, None] * V
        expected = (np.einsum("ij,ij->j", WV, linearization_matrix(grid, kern, mu) @ V)
                    / np.einsum("ij,ij->j", WV, V))
        assert (np.abs(cosine_mode_rates(grid, kern, mu) - expected).max()
                <= _scan_tolerance(grid, mu))

    def test_cosine_mode_scan_builds_no_matrix(self, monkeypatch):
        import nlkpp.diagnostics

        def refused(*args):
            raise AssertionError("the scan built an N x N matrix")
        monkeypatch.setattr(nlkpp.diagnostics, "linearization_matrix", refused)
        for dim in (1, 2):
            grid, kern = _scan_setup("tophat", dim)
            assert cosine_mode_rates(grid, kern, 150.0).shape == (grid.counts[0] - 2,)
            assert cosine_mode_rates(grid, None, 150.0).shape == (grid.counts[0] - 2,)

    def test_abscissa_memory(self):
        # J, with S formed in its array, and the buffer of S += S.T: 16 MiB
        grid = build_uniform_grid((0, 5), 1024)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("tophat", 1.0), grid))
        kern.matrix  # gathered once per kernel, before the trace starts
        tracemalloc.start()
        try:
            assert spectral_abscissa(grid, kern, 150.0) > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20

    def test_cosine_mode_scan_memory(self):
        # J, L and the modes with J applied would be 32 MiB each here
        grid = build_uniform_grid((0, 5), 2048)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("tophat", 1.0), grid))
        tracemalloc.start()
        try:
            assert most_unstable_cosine_mode(grid, kern, 150.0) >= 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


@functools.cache
def _scan_setup(family, dim):
    grid = (build_uniform_grid((0, 5), 96) if dim == 1
            else build_uniform_grid(((0, 2), (0, 3)), (14, 17)))
    return grid, symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile(family, 0.5), grid))


def _scan_tolerance(grid, mu):
    return 1e-12 * (4 * grid.dim / min(grid.spacing) ** 2 + 2 * mu)


def test_steady_state_residual_matches_the_dense_laplacian(rng):
    grid = build_uniform_grid(((0, 1), (0, 2)), (7, 9))
    u, ku = rng.uniform(0.5, 1.5, (2, grid.n_nodes))
    r = dense_laplacian(grid) @ u + 2.0 * u * (1.0 - ku)
    assert steady_state_residual(grid, u, ku, 2.0) == pytest.approx(
        math.sqrt(r * r @ grid.weights), rel=1e-12)


@pytest.fixture(scope="module")
def unstable_setup():
    grid = build_uniform_grid((0, 5), 256)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("tophat", 1.0), grid))
    return grid, kern


@pytest.mark.parametrize("extents,counts,family,sigma,onset", [
    ((0, 5), 256, "tophat", 1.0, 92.349142),
    ((0, 1), 128, "tophat", 0.2, 2341.892262),
    (((0, 2), (0, 3)), (20, 30), "tophat", 0.3, 905.9621),
    ((0, 1), 128, "gaussian", 0.2, math.inf),
    ((0, 1), 128, "exponential", 0.15, math.inf),
], ids=["pattern.json", "A6", "2d-tophat", "gaussian", "exponential"])
def test_the_eigen_verdict_and_the_turing_onset_are_one_fact(extents, counts,
                                                             family, sigma,
                                                             onset):
    # the abscissa crosses zero at the onset exactly when the kernel fails
    # the positivity hypothesis on the grid
    grid = build_uniform_grid(extents, counts)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile(family, sigma), grid))
    verdict = certify_positivity_eigen(kern).verdict
    assert verdict == ("positive" if onset == math.inf else "not_positive")
    assert turing_onset(grid, kern) == pytest.approx(onset, rel=1e-6)
    if verdict == "not_positive":
        assert (spectral_abscissa(grid, kern, 0.999 * onset) < 0
                < spectral_abscissa(grid, kern, 1.001 * onset))


@pytest.mark.parametrize("extents,counts", [
    ((0, 1), 64), ((0, 5), 128), (((0, 1), (0, 1.5)), (10, 14)),
], ids=["1d-unit", "1d-wide", "2d"])
@pytest.mark.parametrize("sigma", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("family", ["gaussian", "exponential", "tophat"])
def test_an_onset_exists_exactly_when_the_certificate_fails(extents, counts,
                                                            sigma, family):
    grid = build_uniform_grid(extents, counts)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile(family, sigma), grid))
    verdict = certify_positivity_eigen(kern).verdict
    assert math.isfinite(turing_onset(grid, kern)) == (verdict == "not_positive")


def test_local_mode_has_no_onset(unit_grid):
    assert turing_onset(unit_grid, None) == math.inf


def test_onset_memory():
    # S at mu = 0 and mu = 1, the two pencil blocks and their transients
    grid = build_uniform_grid((0, 5), 1024)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("tophat", 1.0), grid))
    kern.matrix  # gathered once per kernel, before the trace starts
    tracemalloc.start()
    try:
        assert turing_onset(grid, kern) < 150.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_onset_approaches_the_whole_line_onset():
    # a width-1 tophat on the whole line destabilizes at min_xi xi^3/(-sin xi)
    # = 84.200; at 256 nodes per 5 units the onset falls as the domain grows
    # and on [0, 20] lies within 1% of it (84.84 at half the spacing)
    onsets = []
    for hi in (5, 10, 20):
        grid = build_uniform_grid((0, hi), 256 * hi // 5)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("tophat", 1.0), grid))
        onsets.append(turing_onset(grid, kern))
    assert onsets[0] > onsets[1] > onsets[2]
    assert onsets[2] == pytest.approx(84.200, rel=0.01)


class TestPatternRegime:
    """A positivity-violating kernel really does destabilize u = 1 once mu is
    large enough; tophat kernels need mu * sigma^2 of roughly 85 or more."""

    def test_abscissa_positive_above_onset(self, unstable_setup):
        grid, kern = unstable_setup
        assert spectral_abscissa(grid, kern, 150.0) > 1.0

    def test_abscissa_bits_do_not_follow_the_blas_threads(self, unstable_setup):
        grid, kern = unstable_setup
        default = spectral_abscissa(grid, kern, 150.0)
        with _one_blas_thread():
            one = spectral_abscissa(grid, kern, 150.0)
        assert default.hex() == one.hex()

    def test_perturbation_grows_and_saturates(self, unstable_setup):
        grid, kern = unstable_setup
        mu = 150.0
        k = most_unstable_cosine_mode(grid, kern, mu)
        assert cosine_mode_rates(grid, kern, mu)[k - 1] > 0
        x = grid.nodes[:, 0]
        u0 = Field(grid, 1.0 + 0.01 * np.cos(k * np.pi * x / 5.0))
        cfg = SimConfig(mu=mu, dt=2e-4, t_end=1.5)
        _, trace = run(u0, grid, kern, cfg)
        sup = trace.column("sup_dist_one")
        assert sup.max() / sup[0] >= 10.0
        assert sup[-1] > 0.1
        assert trace.column("min_u").min() > 0


class TestTrace:
    def test_rows_monotone_and_v_nonnegative(self, unit_grid,
                                             balanced_gaussian, rng):
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=0.2)
        u0 = Field(unit_grid, rng.uniform(0.5, 1.5, unit_grid.n_nodes))
        _, trace = run(u0, unit_grid, balanced_gaussian, cfg)
        t = trace.column("t")
        assert np.all(np.diff(t) > 0)
        assert np.all(trace.column("V") >= 0)

    def test_csv_round_trip(self, tmp_path, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=0.05)
        _, trace = run(Field.constant(unit_grid, 0.4), unit_grid,
                       balanced_gaussian, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert len(loaded) == len(trace)
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(loaded.column(name), trace.column(name))

    def test_csv_bytes_are_the_csv_writer_bytes(self, tmp_path):
        values = [0.0, -0.0, 5e-324, 1e16, math.inf, -math.inf, 0.1, -2.5e-300]
        trace = Trace()
        trace.append_rows(**{c: np.roll(values, i) for i, c in enumerate(TRACE_COLUMNS)})
        trace.to_csv(tmp_path / "trace.csv")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(TRACE_COLUMNS)
        for k in range(len(trace)):
            writer.writerow([repr(v) for v in trace.row(k).values()])
        assert (tmp_path / "trace.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("row,problem", [
        ("0.0,1.0,2.0,3.0,4.0", "5 fields, expected 9"),
        ("0.0,1.0,2.0,3.0,4.0,5.0,6.0,abc,0.1", "could not convert string to float: 'abc'"),
    ], ids=["short_row", "not_a_number"])
    def test_csv_malformed_row_is_refused(self, tmp_path, row, problem):
        good = ",".join(["0.0"] * len(TRACE_COLUMNS))
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([",".join(TRACE_COLUMNS), good, row]) + "\n")
        with pytest.raises(ValidationError, match=f"trace.csv, line 3: {problem}"):
            Trace.from_csv(path)

    def test_csv_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="unexpected trace header"):
            Trace.from_csv(path)


class TestBlockRows:
    """run() computes its rows a block of max(1, 8192 // n) states at a time;
    each row must be what the public one-field functions give for its state."""

    @pytest.mark.parametrize("counts,steps,local", [
        (128, 100, False), ((64, 64), 5, False), (128, 100, True),
    ], ids=["1d_128", "2d_64x64", "1d_128_local"])
    def test_rows_match_the_public_functions(self, counts, steps, local, rng):
        # a block holds 64 rows at 128 nodes, so 101 and 102 rows end on a
        # partial block after a full one; it holds 2 at 64 x 64, so 6 rows
        # end on a full block and 7 on a partial one
        extents = (0.0, 1.0) if isinstance(counts, int) else ((0.0, 1.0),) * 2
        grid = build_uniform_grid(extents, counts)
        kernel = None if local else symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 0.2), grid))
        u0 = Field(grid, rng.uniform(0.5, 1.5, grid.n_nodes))
        mu, dt = 2.0, 1e-3
        for n_steps in (steps, steps + 1):
            cfg = SimConfig(mu=mu, dt=dt, t_end=n_steps * dt, snapshot_every=1)
            state, trace = run(u0, grid, kernel, cfg)
            assert state.step == n_steps and len(trace) == n_steps + 1
            for k, snap in enumerate(trace.snapshots):
                assert snap.step == k
                row, u = trace.row(k), snap.field
                d = dissipation(u, kernel, mu)
                assert row["V"] == pytest.approx(lyapunov_value(u), rel=1e-12, abs=1e-18)
                for name, value in (("D_total", d.total), ("D_grad", d.grad),
                                    ("D_kernel", d.kernel_part)):
                    assert row[name] == pytest.approx(value, rel=1e-12, abs=1e-15)
                assert row["mass"] == pytest.approx(integrate(u), rel=1e-14)
                assert row["sup_dist_one"] == sup_distance_to_one(u)
                assert row["min_u"] == u.values.min()


class TestSupDistance:
    def test_trivial_values(self, unit_grid):
        assert sup_distance_to_one(Field.constant(unit_grid, 1.0)) == 0.0
        assert sup_distance_to_one(Field.constant(unit_grid, 1.25)) == 0.25
        vals = np.ones(unit_grid.n_nodes)
        vals[5] = 0.9
        assert sup_distance_to_one(Field(unit_grid, vals)) == pytest.approx(0.1)


class TestNonFiniteFields:
    """A NaN node fails every comparison, so it must not pass a positivity check."""

    @pytest.fixture
    def nan_field(self, unit_grid):
        vals = np.ones(unit_grid.n_nodes)
        vals[5] = np.nan
        return Field(unit_grid, vals)

    def test_lyapunov_value_rejects_nan(self, nan_field):
        with pytest.raises(DomainError, match="node 5"):
            lyapunov_value(nan_field)

    def test_dissipation_rejects_nan(self, nan_field, balanced_gaussian):
        with pytest.raises(DomainError, match="node 5"):
            dissipation(nan_field, balanced_gaussian, 1.0)

    def test_sup_distance_rejects_nan(self, nan_field):
        with pytest.raises(DomainError, match="node 5"):
            sup_distance_to_one(nan_field)

    @pytest.fixture
    def inf_field(self, unit_grid):
        vals = np.ones(unit_grid.n_nodes)
        vals[5] = np.inf
        return Field(unit_grid, vals)

    def test_lyapunov_value_rejects_inf(self, inf_field):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="node 5"):
            lyapunov_value(inf_field)

    def test_dissipation_rejects_inf(self, inf_field, balanced_gaussian):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="node 5"):
            dissipation(inf_field, balanced_gaussian, 1.0)

    def test_sup_distance_rejects_inf(self, inf_field):
        with pytest.raises(DomainError, match="node 5"):
            sup_distance_to_one(inf_field)

    def test_overflow_on_finite_nodes_is_returned(self, unit_grid, balanced_gaussian):
        # a huge but finite field is in the domain; its dissipation overflows
        # and the step that follows is what fails (StepFailure)
        with np.errstate(over="ignore"):
            d = dissipation(Field.constant(unit_grid, 1e300), balanced_gaussian, 1.0)
        assert d.total == math.inf
