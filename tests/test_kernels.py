import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkpp import (BalancingError, Field, Kernel, KernelError, KernelProfile,
                   ValidationError, apply_kernel, build_uniform_grid,
                   certify_positivity_bochner, certify_positivity_eigen,
                   default_half_width, normalize_columns, sample_convolution_kernel,
                   sample_general_kernel, symmetrize_and_normalize)
from nlkpp.kernels import (_fast_len, _one_blas_thread, _periodic_offsets,
                           _sample_profile)

from conftest import stencil_apply


def difference_of_gaussians(sigma, ratio):
    """A signed custom profile: a gaussian less ``ratio`` times one twice as
    wide. Its transform dips negative exactly when ``ratio >= 1/2``, at
    frequency zero."""
    def func(z):
        return (np.exp(-z * z / (2 * sigma**2))
                - ratio * np.exp(-z * z / (8 * sigma**2)))
    return KernelProfile("custom", sigma, func=func)


def dog_half_width(sigma):
    """Where the wider gaussian has decayed below 1e-9, times 1.5."""
    return 3 * sigma * math.sqrt(2 * math.log(1e9))


class TestProfiles:
    def test_families_at_zero(self):
        for family in ("gaussian", "tophat", "exponential"):
            assert KernelProfile(family, 0.3)(0.0) == pytest.approx(1.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError):
            KernelProfile("gaussian", 0.0)
        # an infinite sigma overflowed the eigen certificate's circulant window
        with pytest.raises(ValidationError, match="finite and positive"):
            KernelProfile("gaussian", math.inf)

    @pytest.mark.parametrize("family", ["sombrero", "mexican_hat"])
    def test_unknown_family(self, family):
        with pytest.raises(ValidationError, match="unknown kernel family"):
            KernelProfile(family, 1.0)

    def test_custom_profile_needs_a_function(self):
        with pytest.raises(ValidationError, match="evaluation function"):
            KernelProfile("custom", 1.0)

    def test_difference_of_gaussians_is_signed(self):
        prof = difference_of_gaussians(0.5, 0.8)
        z = np.linspace(0, 5, 200)
        vals = prof(z)
        assert vals[0] == pytest.approx(0.2)
        assert vals.min() < 0


class TestSampling:
    def test_constant_general_kernel(self):
        grid = build_uniform_grid((0, 1), 3)
        kern = sample_general_kernel(lambda x, y: 1.0 + 0.0 * x * y, grid)
        np.testing.assert_allclose(kern.matrix, 1.0)
        assert kern.profile is None

    def test_general_kernel_pointwise(self):
        grid = build_uniform_grid((0, 1), 3)
        kern = sample_general_kernel(lambda x, y: np.exp(-((x - y) ** 2)), grid)
        assert kern.matrix[0, 2] == pytest.approx(np.exp(-1.0))

    def test_symmetric_input_gives_symmetric_matrix(self, rng):
        grid = build_uniform_grid((0, 1), 17)
        kern = sample_general_kernel(lambda x, y: np.cos(x - y) + x * y, grid)
        np.testing.assert_array_equal(kern.matrix, kern.matrix.T)

    def test_non_broadcasting_function_rejected(self):
        grid = build_uniform_grid((0, 1), 5)
        with pytest.raises(KernelError, match="broadcast"):
            sample_general_kernel(lambda x, y: 1.0, grid)

    def test_scalar_only_function_errors_propagate(self):
        grid = build_uniform_grid((0, 1), 5)
        with pytest.raises(TypeError):
            sample_general_kernel(lambda x, y: math.exp(-(x - y) ** 2), grid)

    @pytest.mark.parametrize("make,pair", [
        (lambda g: sample_general_kernel(lambda x, y: 1.0 / (x - y), g), r"\(0, 0\)"),
        # built directly: refused before any apply, balancing or certificate
        (lambda g: Kernel(g, np.where(np.arange(25).reshape(5, 5) == 7, np.inf, 1.0)),
         r"\(1, 2\)"),
    ], ids=["sampled", "built"])
    def test_non_finite_rejected(self, make, pair):
        grid = build_uniform_grid((0, 1), 5)
        with np.errstate(divide="ignore"), pytest.raises(
                KernelError, match=f"node pair {pair} is not finite"):
            make(grid)

    def test_convolution_diagonal_is_peak(self):
        grid = build_uniform_grid((0, 1), 9)
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.1), grid)
        np.testing.assert_allclose(np.diag(kern.matrix), 1.0)

    def test_tophat_indicator_entries(self):
        grid = build_uniform_grid((0, 1), 5)  # nodes at 0, .25, .5, .75, 1
        kern = sample_convolution_kernel(KernelProfile("tophat", 0.3), grid)
        assert kern.matrix[0, 1] == 1.0  # offset 0.25 <= 0.3
        assert kern.matrix[0, 2] == 0.0  # offset 0.5 > 0.3

    def test_convolution_is_toeplitz_in_1d(self, rng):
        # the tophat's edge falls on the offset 51 h of this grid: the dense
        # matrix, the FFT path and the offset table must all agree there
        grid = build_uniform_grid((0, 5), 256)
        profile = KernelProfile("tophat", 1.0)
        kern = sample_convolution_kernel(profile, grid)
        for k in range(-255, 256):
            diagonal = np.diag(kern.matrix, k)
            np.testing.assert_array_equal(diagonal, diagonal[0])
        i = np.arange(256)
        assert np.array_equal(kern.matrix, kern._stencil.table[255 + i[:, None] - i])
        balanced = symmetrize_and_normalize(kern)
        u = Field(grid, rng.uniform(0.5, 1.5, grid.n_nodes))
        assert balanced.apply_method == "dense"
        np.testing.assert_allclose(apply_kernel(balanced, u).values,
                                   stencil_apply(balanced, u), rtol=0, atol=1e-12)

    def test_2d_uses_euclidean_offset(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (3, 3))
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.5), grid)
        # nodes 0 and 4 are (0,0) and (.5,.5): offset norm sqrt(0.5)
        assert kern.matrix[0, 4] == pytest.approx(np.exp(-0.5 / (2 * 0.25)))


class TestNormalization:
    def test_all_ones_kernel_unchanged_on_unit_interval(self):
        grid = build_uniform_grid((0, 1), 7)
        kern = normalize_columns(sample_general_kernel(
            lambda x, y: 1.0 + 0.0 * x * y, grid))
        np.testing.assert_allclose(kern.matrix, 1.0, atol=1e-14)

    def test_column_sums_are_one(self, unit_grid):
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.15), unit_grid)
        kern = normalize_columns(kern)
        assert not kern.normalized  # K[1] = 1 is not implied
        sums = unit_grid.weights @ kern.matrix
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_unresolved_tophat_is_degenerate(self):
        grid = build_uniform_grid((0, 1), 5)  # spacing 0.25
        kern = sample_convolution_kernel(KernelProfile("tophat", 0.05), grid)
        with pytest.raises(KernelError, match="degenerate"):
            normalize_columns(kern)

    def test_balancing_fixed_point(self):
        grid = build_uniform_grid((0, 1), 9)
        kern = sample_general_kernel(lambda x, y: 1.0 + 0.0 * x * y, grid)
        balanced = symmetrize_and_normalize(kern)
        np.testing.assert_allclose(balanced.matrix, 1.0, atol=1e-12)

    def test_balancing_reaches_tolerance(self, unit_grid):
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        balanced = symmetrize_and_normalize(kern, tol=1e-12)
        w = unit_grid.weights
        assert np.max(np.abs(w @ balanced.matrix - 1)) < 1e-12 * 1.01
        assert np.max(np.abs(balanced.matrix @ w - 1)) < 1e-12 * 1.01

    def test_balancing_preserves_symmetry(self, unit_grid):
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        balanced = symmetrize_and_normalize(kern, tol=1e-12)
        assert np.max(np.abs(balanced.matrix - balanced.matrix.T)) < 1e-12

    def test_balancing_rejects_signed_kernels(self, unit_grid):
        kern = sample_convolution_kernel(difference_of_gaussians(0.2, 0.8), unit_grid)
        with pytest.raises(KernelError, match="nonnegative"):
            symmetrize_and_normalize(kern)

    def test_balancing_rejects_a_zero_row(self):
        grid = build_uniform_grid((0, 1), 9)
        # node 0 interacts with no node, itself included
        kern = sample_general_kernel(lambda x, y: 1.0 * (x > 0) * (y > 0), grid)
        with pytest.raises(KernelError, match="no zero row"):
            symmetrize_and_normalize(kern)

    def test_only_balancing_makes_a_kernel_normalized(self, unit_grid):
        raw = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        balanced = symmetrize_and_normalize(raw)
        assert balanced.normalized and not raw.normalized
        # a matrix that is balanced, or claims to be, is a plain dense kernel
        doubled = Kernel(unit_grid, 2 * balanced.matrix)
        assert not Kernel(unit_grid, balanced.matrix).normalized
        assert not doubled.normalized and symmetrize_and_normalize(doubled).normalized

    def test_balancing_iteration_cap(self, unit_grid):
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        with pytest.raises(BalancingError):
            symmetrize_and_normalize(kern, max_iterations=1, tol=1e-15)

    def test_balancing_nonsymmetric_input(self):
        # one scaling balances only a symmetric kernel: the nonsymmetric one is
        # refused, and its symmetric part is balanced, rows and columns alike
        grid = build_uniform_grid((0, 1), 24)

        def func(x, y):
            return 1.0 + 0.5 * np.sin(3 * x) * np.cos(2 * y) + 0.2 * x
        with pytest.raises(KernelError, match="symmetric"):
            symmetrize_and_normalize(sample_general_kernel(func, grid))
        kern = sample_general_kernel(lambda x, y: func(x, y) + func(y, x), grid)
        balanced = symmetrize_and_normalize(kern, tol=1e-12)
        w = grid.weights
        assert np.array_equal(balanced.matrix, balanced.matrix.T)
        assert np.max(np.abs(w @ balanced.matrix - 1)) < 1e-11
        assert np.max(np.abs(balanced.matrix @ w - 1)) < 1e-11


def _table_sample(profile, grid):
    """K_ij = phi at the offset (i - j) h of each axis, the Toeplitz / BTTB
    matrix of the offset table (Euclidean offset in 2D)."""
    index = np.indices(grid.counts).reshape(grid.dim, -1)
    offsets = [np.subtract.outer(i, i) * h for i, h in zip(index, grid.spacing)]
    z = offsets[0] if grid.dim == 1 else np.hypot(*offsets)
    return np.asarray(profile(z), dtype=float)


def _old_balance(K, w, tol=1e-12):
    """The dense symmetric Sinkhorn scaling d, with d_i K_ij d_j balanced."""
    d = 1.0 / np.sqrt(K @ w)
    for _ in range(5000):
        s = d * (K @ (w * d))
        if float(np.max(np.abs(s - 1.0))) <= tol:
            return d
        d = d / np.sqrt(s)
    raise AssertionError("reference balancing did not converge")


class TestMatrixFree:
    @pytest.mark.parametrize("family", ["gaussian", "tophat"])
    def test_dense_path_is_the_old_formula_1d(self, unit_grid, rng, family):
        # below the FFT threshold every byte stays what the dense code gave
        profile = KernelProfile(family, 0.2)
        kern = symmetrize_and_normalize(sample_convolution_kernel(profile, unit_grid))
        w = unit_grid.weights
        K = _table_sample(profile, unit_grid)
        d = _old_balance(K, w)
        np.testing.assert_array_equal(kern.scale, d)
        np.testing.assert_array_equal(kern.matrix, np.outer(d, d) * K)
        u = rng.uniform(0.5, 1.5, unit_grid.n_nodes)
        np.testing.assert_array_equal(apply_kernel(kern, Field(unit_grid, u)).values,
                                      np.outer(d, d) * K @ (w * u))

    def test_fft_balancing_matches_dense(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (48, 48))  # 2304 nodes
        profile = KernelProfile("gaussian", 0.15)
        kern = symmetrize_and_normalize(sample_convolution_kernel(profile, grid))
        assert kern.apply_method == "fft"
        assert "matrix" not in vars(kern)
        assert kern.strictly_positive and "matrix" not in vars(kern)
        w = grid.weights
        ones = apply_kernel(kern, Field.constant(grid, 1.0)).values
        assert np.max(np.abs(ones - 1.0)) < 1e-12
        K = _table_sample(profile, grid)
        d = _old_balance(K, w)
        assert np.max(np.abs(kern.scale - d)) < 1e-13 * np.max(d)
        # the view is built on demand, by the dense formula, and then kept
        np.testing.assert_array_equal(kern.matrix, np.outer(kern.scale, kern.scale) * K)
        assert "matrix" in vars(kern)
        assert np.max(np.abs(kern.matrix @ w - 1.0)) < 1e-12

    @pytest.mark.parametrize("extents,counts", [((0, 1), 128),
                                                (((0, 1), (0, 2)), (16, 20))],
                             ids=["128", "16x20"])
    def test_balanced_matrix_is_gathered_on_first_dense_use(self, rng, extents,
                                                            counts):
        grid = build_uniform_grid(extents, counts)
        profile = KernelProfile("gaussian", 0.3)
        kern = symmetrize_and_normalize(sample_convolution_kernel(profile, grid))
        assert kern.apply_method == "dense"
        assert "matrix" not in vars(kern)
        apply_kernel(kern, Field(grid, rng.uniform(0.5, 1.5, grid.n_nodes)))
        assert "matrix" in vars(kern)
        K = _table_sample(profile, grid)
        assert np.array_equal(kern.matrix, np.outer(kern.scale, kern.scale) * K)

    def test_balancing_records_iterations_and_deviation(self, unit_grid):
        kern = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        balanced = symmetrize_and_normalize(kern)
        n = balanced.balance_iterations
        assert symmetrize_and_normalize(kern, max_iterations=n).balance_iterations == n
        with pytest.raises(BalancingError):
            symmetrize_and_normalize(kern, max_iterations=n - 1)
        row_sums = balanced.matrix @ unit_grid.weights
        assert balanced.balance_deviation <= 1e-12
        assert balanced.balance_deviation == pytest.approx(
            np.max(np.abs(row_sums - 1.0)), abs=1e-15)

    @pytest.mark.parametrize("use", [
        lambda prof, g: sample_convolution_kernel(prof, g),
        # built directly, the table is sampled, and refused, on first use
        lambda prof, g: apply_kernel(Kernel(g, profile=prof), Field.constant(g, 1.0)),
        lambda prof, g: symmetrize_and_normalize(Kernel(g, profile=prof)),
        lambda prof, g: certify_positivity_eigen(Kernel(g, profile=prof)),
        lambda prof, g: Kernel(g, profile=prof).strictly_positive,
    ], ids=["sampling", "apply", "balancing", "certificate", "strictly_positive"])
    def test_non_finite_profile_rejected(self, use):
        grid = build_uniform_grid(((0, 1), (0, 1)), (4, 5))
        prof = KernelProfile("custom", 1.0, func=lambda z: 1.0 / z)
        with np.errstate(divide="ignore"), pytest.raises(KernelError,
                                                         match=r"offset \(0, 0\)"):
            use(prof, grid)

    @pytest.mark.parametrize("check,shapes", [
        (lambda g: sample_convolution_kernel(
            KernelProfile("custom", 0.1, func=lambda z: 1.0), g), ("()", "(255,)")),
        # elementwise on the 255 node offsets only, not on the offsets 0 .. 256
        # of the certificate's 512-offset periodic window
        (lambda g: certify_positivity_eigen(sample_convolution_kernel(
            KernelProfile("custom", 0.1, func=lambda z: np.exp(-z[:255] ** 2)), g)),
         ("(255,)", "(257,)")),
        (lambda g: certify_positivity_bochner(
            KernelProfile("custom", 0.1, func=lambda z: 1.0), half_width=1.0),
         ("()", "(2048,)")),
    ], ids=["sampling", "circulant", "bochner"])
    def test_profile_must_act_elementwise(self, unit_grid, check, shapes):
        with pytest.raises(KernelError, match="elementwise") as info:
            check(unit_grid)
        assert all(f"shape {shape}" in str(info.value) for shape in shapes)

    def test_needs_a_matrix_or_a_profile(self, unit_grid):
        with pytest.raises(ValidationError, match="matrix or a convolution profile"):
            Kernel(unit_grid)
        assert Kernel(unit_grid, np.eye(128)).profile is None
        kern = Kernel(unit_grid, profile=KernelProfile("gaussian", 0.2))
        assert kern.profile is not None and np.array_equal(kern.scale, np.ones(128))

    def test_dense_only_results_have_no_profile(self, unit_grid):
        # column normalization is not diag(s) phi diag(s), so it drops the
        # profile; a shifted (asymmetric) profile cannot be balanced at all
        gaussian = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        kern = normalize_columns(gaussian)
        assert kern.profile is None
        assert kern.apply_method == "dense"
        shifted = sample_convolution_kernel(
            KernelProfile("custom", 0.2, func=lambda z: np.exp(-(z - 0.05) ** 2 / 0.08)),
            unit_grid)
        with pytest.raises(KernelError, match="symmetric"):
            symmetrize_and_normalize(shifted)

    def test_refusing_an_odd_table_builds_no_matrix(self):
        # a Toeplitz matrix is symmetric exactly when its table is even, so the
        # refusal reads the table and gathers no 1024 x 1024 matrix
        grid = build_uniform_grid((0, 1), 1024)
        shifted = sample_convolution_kernel(
            KernelProfile("custom", 0.2, func=lambda z: np.exp(-(z - 0.05) ** 2 / 0.08)),
            grid)
        with pytest.raises(KernelError, match="symmetric"):
            symmetrize_and_normalize(shifted)
        assert "matrix" not in vars(shifted)


class TestApplyKernel:
    def test_balanced_kernel_fixes_constants(self, unit_grid, balanced_gaussian):
        out = apply_kernel(balanced_gaussian, Field.constant(unit_grid, 1.0))
        np.testing.assert_allclose(out.values, 1.0, atol=1e-10)

    def test_linearity_zero(self, unit_grid, balanced_gaussian):
        out = apply_kernel(balanced_gaussian, Field.constant(unit_grid, 0.0))
        np.testing.assert_allclose(out.values, 0.0, atol=0)

    def test_fft_matches_dense(self, rng):
        grid = build_uniform_grid((0, 1), 128)
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 0.1), grid))
        f = Field(grid, rng.uniform(-1, 2, 128))
        dense = apply_kernel(kern, f).values
        fast = stencil_apply(kern, f)
        assert np.max(np.abs(dense - fast)) < 1e-10 * np.max(np.abs(dense))

    def test_fft_matches_dense_2d(self, rng):
        grid = build_uniform_grid(((0, 1), (0, 1.5)), (14, 19))
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 0.3), grid))
        f = Field(grid, rng.uniform(0.1, 2, grid.n_nodes))
        dense = apply_kernel(kern, f).values
        fast = stencil_apply(kern, f)
        assert np.max(np.abs(dense - fast)) < 1e-10 * np.max(np.abs(dense))

    @pytest.mark.parametrize("family", ["gaussian", "tophat"])
    @pytest.mark.parametrize("extents,counts", [
        ((0, 1), 700),
        (((0, 1), (0, 1.5)), (23, 37)),
        (((0, 1), (0, 1)), (48, 40)),
    ], ids=["700", "23x37", "48x40"])
    def test_fft_matches_dense_off_powers_of_two(self, rng, family, extents, counts):
        # padded lengths that are not powers of two, where FFT libraries
        # round differently
        grid = build_uniform_grid(extents, counts)
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile(family, 0.2), grid))
        assert kern.apply_method == "fft"
        f = Field(grid, rng.uniform(0.1, 2, grid.n_nodes))
        dense = kern.matrix @ (grid.weights * f.values)
        fast = apply_kernel(kern, f).values
        assert np.max(np.abs(dense - fast)) < 1e-10 * np.max(np.abs(dense))

    def test_padding_is_5_smooth(self):
        from scipy.fft import next_fast_len
        m = range(1, 10001)
        assert list(map(_fast_len, m)) == [next_fast_len(k, real=True) for k in m]

    def test_grid_mismatch(self, balanced_gaussian):
        other = build_uniform_grid((0, 2), 128)
        with pytest.raises(Exception):
            apply_kernel(balanced_gaussian, Field.constant(other, 1.0))


def _rfftn_pair(stencil, values):
    """The stencil's convolution as one numpy ``rfftn`` / ``irfftn`` pair of
    the padded shape, its valid part raveled."""
    counts = stencil.counts
    shape = tuple(_fast_len(2 * n - 1) for n in counts)
    axes = tuple(range(len(counts)))
    spectrum = np.fft.rfftn(stencil.table, shape, axes)
    full = np.fft.irfftn(
        spectrum * np.fft.rfftn(values.reshape(counts), shape, axes), shape, axes)
    return full[tuple(slice(n - 1, 2 * n - 1) for n in counts)].ravel()


def _grid_of(counts):
    if isinstance(counts, int):
        return build_uniform_grid((0, 1), counts)
    return build_uniform_grid(((0, 1), (0, 1)), counts)


class TestStencilConvolve:
    @pytest.mark.parametrize("family", ["gaussian", "tophat"])
    @pytest.mark.parametrize("counts", [
        (48, 40), (64, 64), (90, 90), (128, 128), (200, 90), 1024, 5000,
    ], ids=["48x40", "64x64", "90x90", "128x128", "200x90", "1024", "5000"])
    def test_bits_of_one_rfftn_irfftn_pair(self, rng, family, counts):
        # the half spectra lie on both sides of numpy's 256 KiB temporary
        # elision (90^2 just below, 128^2 above), past which the pair's
        # product runs in the other operand order and rounds differently
        grid = _grid_of(counts)
        stencil = sample_convolution_kernel(KernelProfile(family, 0.2), grid)._stencil
        for _ in range(2):
            v = rng.uniform(0.1, 2, grid.n_nodes)
            assert np.array_equal(stencil.convolve(v), _rfftn_pair(stencil, v))

    @pytest.mark.parametrize("counts", [(48, 40), 1024], ids=["48x40", "1024"])
    def test_results_survive_later_applies(self, rng, counts):
        # the raw and the balanced kernel share one stencil and its arrays
        grid = _grid_of(counts)
        raw = sample_convolution_kernel(KernelProfile("gaussian", 0.2), grid)
        balanced = symmetrize_and_normalize(raw)
        assert balanced._stencil is raw._stencil
        assert balanced.apply_method == "fft"
        f, g = (Field(grid, rng.uniform(0.1, 2, grid.n_nodes)) for _ in range(2))
        first = [apply_kernel(kern, f).values for kern in (raw, balanced)]
        kept = [values.copy() for values in first]
        for kern in (raw, balanced):
            apply_kernel(kern, g)
        assert all(map(np.array_equal, first, kept))
        again = [apply_kernel(kern, f).values for kern in (raw, balanced)]
        assert all(map(np.array_equal, again, kept))


class TestEigenCertificate:
    def test_balanced_gaussian_positive(self, balanced_gaussian):
        cert = certify_positivity_eigen(balanced_gaussian, tol=1e-10)
        assert cert.verdict == "positive"
        assert cert.witness >= -cert.tolerance

    def test_column_normalized_gaussian_positive(self):
        grid = build_uniform_grid((0, 1), 64)
        kern = normalize_columns(
            sample_convolution_kernel(KernelProfile("gaussian", 0.2), grid))
        cert = certify_positivity_eigen(kern)
        assert cert.verdict == "positive"

    def test_tophat_not_positive_with_witness_direction(self, balanced_tophat,
                                                        unit_grid):
        cert = certify_positivity_eigen(balanced_tophat)
        assert cert.verdict == "not_positive"
        assert cert.witness < 0
        f = cert.violating_direction
        w = unit_grid.weights
        quad = (w * f) @ (balanced_tophat.matrix @ (w * f))
        assert quad == pytest.approx(cert.witness, rel=1e-10)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_witness_is_the_smallest_eigenvalue(self, n):
        grid = build_uniform_grid((0, 1), n)
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("tophat", 0.2), grid))
        w = grid.weights
        M = (w[:, None] * kern.matrix) * w[None, :]
        smallest = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
        cert = certify_positivity_eigen(kern)
        assert (cert.verdict, cert.solver) == ("not_positive", "lanczos")
        assert cert.witness == pytest.approx(smallest, rel=1e-10)
        f = cert.violating_direction
        assert (w * f) @ (kern.matrix @ (w * f)) == pytest.approx(smallest, rel=1e-10)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_rank_one_kernels_are_positive(self, seed):
        # K(x,y) = g(x) g(y) has quadratic form (sum w g f)^2 >= 0
        grid = build_uniform_grid((0, 1), 40)
        g = np.random.default_rng(seed).normal(size=40)
        kern = sample_general_kernel(
            lambda x, y: np.interp(x, grid.nodes[:, 0], g)
            * np.interp(y, grid.nodes[:, 0], g), grid)
        assert certify_positivity_eigen(kern).verdict == "positive"

    @pytest.mark.parametrize("profile", [
        KernelProfile("tophat", 0.2),
        KernelProfile("gaussian", 0.2),
        KernelProfile("exponential", 0.2),
        difference_of_gaussians(0.1, 0.6),  # signed, and its form is not positive
        # in 1D an odd stencil: Lanczos applies its even part
        KernelProfile("custom", 0.1, func=lambda z: np.exp(-(z - 0.05)**2 / 0.02)),
    ], ids=["tophat", "gaussian", "exponential", "dog", "shifted"])
    @pytest.mark.parametrize("extents,counts", [
        ((0, 1), 96), (((0, 1), (0, 2)), (12, 14)),
    ], ids=["96", "12x14"])
    def test_lanczos_witness_is_the_smallest_eigenvalue(self, profile, extents,
                                                        counts):
        # every family, raw, balanced and column-normalized (a nonsymmetric M),
        # through the dense apply of a general kernel; the convolution kernel's
        # own witness is a Ritz value or the circulant bound below it
        grid = build_uniform_grid(extents, counts)
        raw = sample_convolution_kernel(profile, grid)
        kernels = [raw] if profile.family == "custom" else [
            raw, symmetrize_and_normalize(raw), normalize_columns(raw)]
        for kern in kernels:
            smallest, norm = _smallest_eigenvalue(kern)
            cert = certify_positivity_eigen(Kernel(grid, kern.matrix))
            assert cert.solver == "lanczos"
            assert abs(cert.witness - smallest) <= 1e-15 * norm
            own = certify_positivity_eigen(kern)
            assert own.verdict == cert.verdict
            assert own.witness <= smallest + 1e-15 * norm

    def test_low_rank_kernel_closes_its_krylov_space_early(self):
        # rank 3, one negative direction: Lanczos breaks down after at most
        # four steps and must still report the smallest eigenvalue
        grid = build_uniform_grid((0, 1), 200)
        kern = sample_general_kernel(
            lambda x, y: (1 + np.cos(np.pi * x)) * (1 + np.cos(np.pi * y))
            + 4 * x * y - 2 * np.sin(3 * x) * np.sin(3 * y), grid)
        smallest, norm = _smallest_eigenvalue(kern)
        assert smallest < -1e-4
        cert = certify_positivity_eigen(kern)
        assert (cert.verdict, cert.solver) == ("not_positive", "lanczos")
        assert abs(cert.witness - smallest) <= 1e-15 * norm
        w = grid.weights
        f = cert.violating_direction
        assert (w * f) @ (kern.matrix @ (w * f)) == pytest.approx(smallest, rel=1e-10)

    def test_witness_bits_do_not_follow_the_blas_threads(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (40, 40))
        kern = Kernel(grid, symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("tophat", 0.2), grid)).matrix)
        default = certify_positivity_eigen(kern)
        with _one_blas_thread():
            one = certify_positivity_eigen(kern)
        assert default.verdict == one.verdict == "not_positive"
        assert default.witness.hex() == one.witness.hex()
        assert default.violating_direction.tobytes() == one.violating_direction.tobytes()

    def test_pin_leaves_a_library_at_one_thread_alone(self, monkeypatch):
        # a set call in a forked sweep worker restarts OpenBLAS's thread pool
        for start, expected in ((1, []), (2, [1, 2])):
            count, calls = [start], []
            library = (lambda: count[0],
                       lambda n: (calls.append(n), count.__setitem__(0, n)))
            monkeypatch.setattr("nlkpp._openblas._thread_functions", lambda: library)
            with _one_blas_thread():
                assert count == [1]
            assert count == [start]
            assert calls == expected
        monkeypatch.setattr("nlkpp._openblas._thread_functions", lambda: None)
        with _one_blas_thread():  # a numpy without OpenBLAS has nothing to pin
            pass

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_covariance(self, balanced_tophat, c):
        base = certify_positivity_eigen(balanced_tophat)
        scaled_kernel = Kernel(balanced_tophat.grid, c * balanced_tophat.matrix)
        scaled = certify_positivity_eigen(scaled_kernel)
        assert scaled.verdict == base.verdict == "not_positive"
        assert scaled.witness == pytest.approx(c * base.witness, rel=1e-9)


def _smallest_eigenvalue(kern):
    w = kern.grid.weights
    M = (w[:, None] * kern.matrix) * w[None, :]
    S = 0.5 * (M + M.T)
    return np.linalg.eigvalsh(S)[0], np.linalg.norm(S)


def _full_window_circulant(kern):
    """The circulant bound from ``rfftn`` of the full decay window, phi at
    every signed offset; None where that window would outweigh the matrix."""
    grid, profile = kern.grid, kern.profile
    reach = 0.0 if profile.family == "custom" else default_half_width(profile)
    periods = [2 * max(2 * n, math.ceil(reach / h))
               for n, h in zip(grid.counts, grid.spacing)]
    if math.prod(periods) > grid.n_nodes ** 2:
        return None
    window = _sample_profile(profile, map(_periodic_offsets, periods, grid.spacing))
    lam = float(np.fft.rfftn(window).real.min())
    a = grid.weights * kern.scale
    return lam * float(np.min(a * a) if lam >= 0 else np.max(a * a))


CIRCULANT_PROFILES = pytest.mark.parametrize("profile", [
    KernelProfile("gaussian", 0.05),
    KernelProfile("gaussian", 0.2),
    KernelProfile("gaussian", 1.0),
    KernelProfile("exponential", 0.2),
    difference_of_gaussians(0.1, 0.2),  # signed, positive in 1D and 2D
], ids=["gaussian_0.05", "gaussian_0.2", "gaussian_1", "exponential_0.2", "dog"])
CIRCULANT_GRIDS = pytest.mark.parametrize("extents,counts", [
    ((0, 1), 32), ((0, 1), 128), ((0, 1), 512),
    (((0, 1), (0, 1)), (16, 16)),
    (((0, 1), (0, 2)), (20, 24)),  # unequal spacing
], ids=["32", "128", "512", "16x16", "20x24"])


class TestCirculantCertificate:
    """Positive verdicts for even convolution stencils come from one FFT of a
    circulant symbol, and their witness bounds the smallest eigenvalue below."""

    @CIRCULANT_PROFILES
    @CIRCULANT_GRIDS
    def test_witness_is_a_lower_bound(self, profile, extents, counts):
        grid = build_uniform_grid(extents, counts)
        raw = sample_convolution_kernel(profile, grid)
        kernels = [raw] if profile.family == "custom" else [
            raw, symmetrize_and_normalize(raw)]
        for kern in kernels:
            cert = certify_positivity_eigen(kern)
            smallest, norm = _smallest_eigenvalue(kern)
            assert cert.witness <= smallest + 1e-15 * norm
            dense = certify_positivity_eigen(Kernel(grid, kern.matrix))
            assert dense.solver == "lanczos"
            assert cert.verdict == dense.verdict == "positive"
            assert cert.tolerance == pytest.approx(dense.tolerance, rel=1e-12)

    @CIRCULANT_PROFILES
    @CIRCULANT_GRIDS
    def test_witness_has_the_full_window_bits(self, profile, extents, counts):
        # the mirrored window of an even profile is the signed one, bit for bit
        raw = sample_convolution_kernel(profile, build_uniform_grid(extents, counts))
        kernels = [raw] if profile.family == "custom" else [
            raw, symmetrize_and_normalize(raw)]
        for kern in kernels:
            cert = certify_positivity_eigen(kern)
            bound = _full_window_circulant(kern)
            if bound is None:
                assert cert.solver == "lanczos"
            else:
                assert (cert.solver, cert.witness) == ("circulant_symbol", bound)

    def test_64x64_builds_no_matrix(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (64, 64))
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 0.2), grid))
        cert = certify_positivity_eigen(kern)
        assert cert.verdict == "positive"
        assert cert.solver == "circulant_symbol"
        assert "matrix" not in vars(kern)

    def test_failing_64x64_builds_no_matrix(self, monkeypatch):
        monkeypatch.setattr(Kernel, "matrix", property(
            lambda self: pytest.fail("dense kernel matrix built")))
        grid = build_uniform_grid(((0, 1), (0, 1)), (64, 64))
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("tophat", 0.2), grid))
        cert = certify_positivity_eigen(kern)
        assert (cert.verdict, cert.solver) == ("not_positive", "lanczos")
        # the smallest eigenvalue from a dense eigh of the 4096^2 form
        assert cert.witness == pytest.approx(-3.609026180218039e-05, rel=1e-12)

    def test_window_is_sized_by_decay(self):
        # phi is still e^-2 two units out; a window reaching only 2n offsets
        # (two units) would cut it off there and the symbol would dip below
        # the tolerance
        grid = build_uniform_grid((0, 1), 128)
        kern = symmetrize_and_normalize(
            sample_convolution_kernel(KernelProfile("gaussian", 1.0), grid))
        cert = certify_positivity_eigen(kern)
        assert (cert.verdict, cert.solver) == ("positive", "circulant_symbol")

    def test_non_finite_window_takes_the_dense_path(self, unit_grid):
        # finite on the grid's offsets (at most 1 apart), infinite beyond them
        prof = KernelProfile("custom", 0.2, func=lambda z: np.where(
            np.abs(z) <= 1.0, np.exp(-z * z / 0.08), np.inf))
        cert = certify_positivity_eigen(sample_convolution_kernel(prof, unit_grid))
        assert (cert.verdict, cert.solver) == ("positive", "lanczos")
        assert np.isfinite(cert.witness)

    @pytest.mark.parametrize("kern_of", [
        lambda g: sample_convolution_kernel(KernelProfile("tophat", 0.2), g),
        lambda g: Kernel(g, np.ones((128, 128))),
        # its decay window would hold more values than the 128 x 128 matrix
        lambda g: sample_convolution_kernel(KernelProfile("gaussian", 10.0), g),
    ], ids=["tophat", "general", "window_beyond_the_matrix"])
    def test_other_kernels_take_the_dense_path(self, unit_grid, kern_of):
        assert certify_positivity_eigen(kern_of(unit_grid)).solver == "lanczos"


class TestBochnerCertificate:
    def test_gaussian_positive(self):
        cert = certify_positivity_bochner(KernelProfile("gaussian", 1.0),
                                          n_samples=1024, half_width=10.0)
        assert cert.verdict == "positive"
        assert cert.witness >= -1e-12 * max(1.0, abs(cert.witness))

    def test_narrow_gaussian_positive(self):
        cert = certify_positivity_bochner(KernelProfile("gaussian", 1e-2))
        assert cert.verdict == "positive"

    def test_exponential_positive(self):
        cert = certify_positivity_bochner(KernelProfile("exponential", 0.7))
        assert cert.verdict == "positive"

    def test_tophat_negative_lobe_location(self):
        cert = certify_positivity_bochner(KernelProfile("tophat", 1.0),
                                          n_samples=8192, half_width=25.0)
        assert cert.verdict == "not_positive"
        assert cert.witness < 0
        # the transform is 2 sin(w)/w, most negative near w = 4.4934
        assert cert.violating_frequency == pytest.approx(4.4934, abs=0.2)

    def test_difference_of_gaussians_threshold(self):
        weak = difference_of_gaussians(0.5, 0.3)
        strong = difference_of_gaussians(0.5, 0.8)
        assert certify_positivity_bochner(
            weak, half_width=dog_half_width(0.5)).verdict == "positive"
        cert = certify_positivity_bochner(strong, half_width=dog_half_width(0.5))
        assert cert.verdict == "not_positive"
        # amplitude excess of the wide gaussian hits hardest at frequency zero
        assert cert.violating_frequency == pytest.approx(0.0, abs=1e-9)

    def test_window_too_small(self):
        with pytest.raises(KernelError, match="window too small"):
            certify_positivity_bochner(KernelProfile("gaussian", 1.0),
                                       half_width=2.0)

    def test_asymmetric_profile_rejected(self):
        prof = KernelProfile("custom", 1.0,
                             func=lambda z: np.exp(-np.abs(z - 0.5)))
        with pytest.raises(KernelError, match="symmetric|asymmetric"):
            certify_positivity_bochner(prof, half_width=30.0)

    @pytest.mark.parametrize("profile,options,error,message", [
        (KernelProfile("gaussian", 1.0), {"dim": 3}, ValidationError, "dim 1 or 2"),
        (KernelProfile("gaussian", 1.0), {"half_width": 0.0}, ValidationError,
         "half_width must be positive"),
        (KernelProfile("gaussian", 1.0), {"n_samples": 15}, ValidationError,
         "at least 16 samples"),
        (KernelProfile("custom", 1.0, func=lambda z: np.where(z == 0, np.inf, 1.0)),
         {"half_width": 1.0}, KernelError, "not finite"),
        (KernelProfile("custom", 1.0, func=lambda z: 0.0 * z), {"half_width": 1.0},
         KernelError, "vanishes identically"),
    ], ids=["dim", "half_width", "n_samples", "non_finite", "vanishing"])
    def test_refuses_what_it_cannot_transform(self, profile, options, error, message):
        with pytest.raises(error, match=message):
            certify_positivity_bochner(profile, **options)

    def test_custom_profile_needs_half_width(self):
        prof = KernelProfile("custom", 1.0, func=lambda z: np.exp(-z**2))
        with pytest.raises(ValidationError, match="half_width"):
            certify_positivity_bochner(prof)

    def test_2d_radial_verdicts(self):
        assert certify_positivity_bochner(KernelProfile("gaussian", 0.5),
                                          dim=2, n_samples=256).verdict == "positive"
        cert = certify_positivity_bochner(KernelProfile("tophat", 0.5),
                                          dim=2, n_samples=512, half_width=4.0)
        assert cert.verdict == "not_positive"


def _old_bochner(profile, n, half_width, dim):
    """Witness, tolerance and violating frequency from the window sampled
    centred on [-half_width, half_width) and moved to the origin by
    ``ifftshift``."""
    delta = 2.0 * half_width / n
    z = np.fft.ifftshift((np.arange(n) - n // 2) * delta)
    window = profile(z) if dim == 1 else profile(np.hypot(z[:, None], z[None, :]))
    spectrum = np.fft.rfftn(window) * delta**dim
    re = spectrum.real
    bad = np.unravel_index(int(np.argmin(re)), re.shape)
    freqs = [np.fft.fftfreq(n, d=delta)] * (dim - 1) + [np.fft.rfftfreq(n, d=delta)]
    frequency = 2.0 * np.pi * math.hypot(*(f[k] for f, k in zip(freqs, bad)))
    return float(re.min()), 1e-9 * float(np.max(np.abs(spectrum))), frequency


class TestBochnerWindow:
    @pytest.mark.parametrize("family", ["gaussian", "tophat", "exponential"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_centred_window(self, family, dim):
        profile = KernelProfile(family, 0.5)
        half_width = 4.0 if family == "tophat" else None
        cert = certify_positivity_bochner(profile, n_samples=512,
                                          half_width=half_width, dim=dim)
        witness, tolerance, frequency = _old_bochner(
            profile, 512, half_width or default_half_width(profile), dim)
        assert (cert.witness, cert.tolerance) == (witness, tolerance)
        if family == "tophat":
            assert cert.verdict == "not_positive"
            assert cert.violating_frequency == frequency
        else:
            assert (cert.verdict, cert.violating_frequency) == ("positive", None)


def _full_window_bochner(profile, n, half_width):
    """Verdict, witness, tolerance and violating frequency of the 2D check
    from the full window: phi at every signed offset pair."""
    n += n % 2
    delta = 2.0 * half_width / n
    window = _sample_profile(profile, [_periodic_offsets(n, delta)] * 2)
    spectrum = np.fft.rfftn(window) * delta**2
    tolerance = 1e-9 * float(np.max(np.abs(spectrum)))
    re = spectrum.real
    witness = float(re.min())
    if witness >= -tolerance:
        return "positive", witness, tolerance, None
    i, j = np.unravel_index(int(np.argmin(re)), re.shape)
    frequency = 2.0 * np.pi * math.hypot(np.fft.fftfreq(n, d=delta)[i],
                                         np.fft.rfftfreq(n, d=delta)[j])
    return "not_positive", witness, tolerance, frequency


class TestMirroredBochnerWindow:
    @pytest.mark.parametrize("profile", [
        KernelProfile("gaussian", 0.5),
        KernelProfile("tophat", 0.5),
        KernelProfile("exponential", 0.5),
        difference_of_gaussians(0.5, 0.8),
    ], ids=["gaussian", "tophat", "exponential", "custom"])
    @pytest.mark.parametrize("n", [16, 101, 2048])
    def test_matches_the_full_window(self, profile, n):
        half_width = (dog_half_width(0.5) if profile.family == "custom"
                      else default_half_width(profile))
        cert = certify_positivity_bochner(profile, n_samples=n,
                                          half_width=half_width, dim=2)
        assert (cert.verdict, cert.witness, cert.tolerance,
                cert.violating_frequency) == _full_window_bochner(profile, n,
                                                                  half_width)

    def test_traced_peak_below_60_mib(self):
        # 2048^2: the window's 1025 distinct rows (16 MiB) and the 32 MiB half
        # spectrum, then the axis-0 transform in place; the full 32 MiB window
        # would bring 64 MiB
        tracemalloc.start()
        try:
            certify_positivity_bochner(KernelProfile("gaussian", 0.2), dim=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20


class TestCertificateConsistency:
    @pytest.mark.parametrize("profile", [
        KernelProfile("gaussian", 0.15),
        KernelProfile("gaussian", 0.4),
        KernelProfile("exponential", 0.2),
        difference_of_gaussians(0.2, 0.3),
    ])
    @pytest.mark.parametrize("n", [32, 96])
    def test_bochner_positive_implies_eigen_positive(self, profile, n):
        half_width = dog_half_width(profile.sigma) if profile.family == "custom" else None
        bochner = certify_positivity_bochner(profile, half_width=half_width)
        assert bochner.verdict == "positive"
        grid = build_uniform_grid((0, 1), n)
        kern = sample_convolution_kernel(profile, grid)
        assert certify_positivity_eigen(kern).verdict == "positive"
