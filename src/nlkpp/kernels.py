"""Interaction kernels: sampling, normalization, application, positivity certificates.

Two certificates decide whether the double-integral quadratic form
``sum_ij w_i w_j K_ij f_i f_j`` is nonnegative for every grid function f:

* ``certify_positivity_eigen`` works on any sampled kernel; it inspects the
  smallest eigenvalue of the symmetrized weighted form. A failing direction is
  reported when the verdict is negative. A convolution kernel with an even
  stencil is first tried through one FFT of a circulant that contains its
  Toeplitz matrix, which bounds that eigenvalue below; every kernel that bound
  does not clear gets the eigenvalue by Lanczos, which applies a convolution
  kernel's form through its stencil. Neither path builds a convolution
  kernel's N x N matrix, and neither loads scipy.
* ``certify_positivity_bochner`` works on convolution profiles; by Bochner's
  theorem positivity of the transform certifies the quadratic form on any
  bounded domain (zero-extend the test function).

The dynamics need the weighted row sums K[1] = K @ w to be one, so that the
homogeneous state 1 is a steady state. Symmetric balancing of a symmetric
kernel gives that (and the column sums too); the kernels it returns are the
only ``normalized`` ones, which the simulation accepts. ``normalize_columns``
makes the weighted *column* sums w @ K one instead; that does not pin K[1], so
its result is a plain dense kernel, which the dynamics refuse.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from ._openblas import _one_blas_thread
from .errors import BalancingError, KernelError, ShapeError, ValidationError
from .grid import Field, Grid

FAMILIES = ("gaussian", "tophat", "exponential", "custom")

# below this many nodes a dense matvec beats FFT overhead; the two cross
# near 512 nodes in 1D and 2D (dense / numpy.fft, best of 5 x 200 on 2 cores:
# 6.6 / 14 us at 1D 256, 25 / 18 us at 1D 512, 30 / 32 us at 24 x 24,
# 53 / 40 us at 32 x 32)
_FFT_AUTO_THRESHOLD = 512


@dataclass(frozen=True)
class KernelProfile:
    """Even profile phi(z) of a convolution kernel K(x, y) = phi(x - y).

    ``sigma`` is the length scale. The tophat is not Lipschitz; it is kept as
    the canonical discontinuous, positivity-violating example. A ``custom``
    profile evaluates ``func``; balancing refuses a signed or asymmetric one.
    """

    family: str
    sigma: float
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if not 0 < self.sigma < math.inf:
            raise ValidationError(
                f"kernel sigma must be finite and positive, got {self.sigma}")
        if self.family == "custom" and self.func is None:
            raise ValidationError("custom profiles need an evaluation function")

    def __call__(self, offsets) -> np.ndarray:
        z = np.asarray(offsets, dtype=float)
        s = self.sigma
        # a far offset overflows the exponent to -inf, and exp(-inf) is 0
        with np.errstate(over="ignore"):
            if self.family == "gaussian":
                if 2.0 * s * s < np.finfo(float).smallest_normal:  # 2 s^2 underflows
                    return np.exp(-0.5 * (z / s) ** 2)
                return np.exp(-(z * z) / (2.0 * s * s))
            if self.family == "tophat":
                return (np.abs(z) <= s).astype(float)
            if self.family == "exponential":
                return np.exp(-np.abs(z) / s)
        return np.asarray(self.func(z), dtype=float)


def _sample_profile(profile: KernelProfile, axes) -> np.ndarray:
    """phi on the tensor lattice of the per-axis offsets ``axes``; in 2D phi
    of the Euclidean offset."""
    z = reduce(np.hypot, np.ix_(*axes))
    values = profile(z)
    if values.shape != z.shape:
        raise KernelError(
            f"profile returned shape {values.shape} on offsets of shape {z.shape}; "
            "it must act elementwise")
    return values


def _periodic_offsets(period: int, h: float) -> np.ndarray:
    """Offsets k h of a periodic window, origin at index 0, k > period / 2 wrapped."""
    k = np.arange(period)
    return np.where(k <= period // 2, k, k - period) * h


def _fast_len(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, a length the real FFT handles fast (the
    value of ``scipy.fft.next_fast_len(m, real=True)``)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _Stencil:
    """``table``, phi at every node offset (i - j) h stored at index
    (n - 1) + i - j per axis, and its real FFT, built on first use.

    A convolution kernel and the kernel balanced from it share one. Applying
    it is the zero-padded linear convolution whose "valid" part is
    sum_j phi(x_i - x_j) v_j: with padded length at least 2n - 1 per axis the
    circular convolution does not wrap there (circulant embedding of the
    Toeplitz / block-Toeplitz matrix).

    ``convolve`` works in two arrays built with the spectrum and kept with
    it: ``_work``, a half spectrum of the padded shape, and ``_full``, the
    inverse's output (in 2D only the valid rows). Its result is a fresh
    copy, but the stencil serves one thread at a time, like
    ``DiffusionSolver``: the raw kernel, the kernel balanced from it and the
    eigen certificate's Lanczos share it. In 2D only the data rows are
    transformed along the last axis, and only the valid rows back. The result
    has the bits of ``irfftn(spectrum * rfftn(v, shape), shape)[valid]``:
    ``_operands`` multiplies in the order numpy evaluates that product in,
    which turns at numpy's 256 KiB temporary elision.
    """

    def __init__(self, table: np.ndarray, counts: tuple[int, ...]):
        self.table = table
        self.counts = counts
        self._spectrum: np.ndarray | None = None

    def _build(self) -> None:
        shape = tuple(_fast_len(2 * n - 1) for n in self.counts)
        self._spectrum = np.fft.rfftn(self.table, shape, tuple(range(len(shape))))
        self._work = np.empty_like(self._spectrum)
        self._full = np.empty(self.counts[:-1] + shape[-1:])
        # numpy evaluates spectrum * temporary as temporary * spectrum once it
        # elides the temporary (256 KiB on), and FMA rounds the orders apart
        self._operands = ((self._work, self._spectrum) if self._work.nbytes >= 1 << 18
                          else (self._spectrum, self._work))

    def convolve(self, values: np.ndarray) -> np.ndarray:
        if self._spectrum is None:
            self._build()
        work, full = self._work, self._full
        n = self.counts[0]
        if len(self.counts) == 1:
            np.fft.rfft(values.reshape(n), len(full), out=work)
            np.multiply(*self._operands, out=work)
            np.fft.irfft(work, len(full), out=full)
            # a copy: SimState.ku keeps K[u] across applies
            return full[n - 1:2 * n - 1].copy()
        m = self.counts[1]
        work[n:] = 0  # the padding rows, which the previous inverse overwrote
        np.fft.rfft(values.reshape(n, m), full.shape[1], axis=1, out=work[:n])
        np.fft.fft(work, axis=0, out=work)
        np.multiply(*self._operands, out=work)
        np.fft.ifft(work, axis=0, out=work)
        np.fft.irfft(work[n - 1:2 * n - 1], full.shape[1], axis=1, out=full)
        return full[:, m - 1:2 * m - 1].ravel()  # a copy: rows are padded

    def dense(self) -> np.ndarray:
        """The matrix ``convolve`` applies: entry (i, j) is ``table`` at offset
        i - j on each axis, Toeplitz in 1D and block-Toeplitz in 2D."""
        counts, table = self.counts, self.table
        # the flat index of a pair's offset is the centre's plus i's minus j's
        nodes = np.ravel_multi_index(np.indices(counts).reshape(len(counts), -1),
                                     table.shape)
        centre = np.ravel_multi_index([n - 1 for n in counts], table.shape)
        return table.ravel()[np.subtract.outer(nodes + centre, nodes)]


class Kernel:
    """A kernel sampled on a grid: K = diag(scale) A diag(scale), ``scale`` a
    positive vector, all ones until balancing.

    A is a convolution kernel's offset table (standing for the Toeplitz, in 2D
    block-Toeplitz, matrix of its ``profile``) or a dense matrix with no
    profile; an A with a value that is not finite is refused, a matrix here and
    a table when it is sampled. ``matrix[i, j]`` approximates K(x_i, x_j): A
    itself for an unscaled dense kernel, else gathered on first use (the dense
    apply below ``_FFT_AUTO_THRESHOLD`` nodes, the linearization,
    ``normalize_columns``) and kept, so it appears in ``vars(kernel)`` only
    once built. The kernel chooses how :func:`apply_kernel` runs, and names it
    in ``apply_method``: ``"fft"`` for convolution kernels of at least
    ``_FFT_AUTO_THRESHOLD`` nodes, where it beats the dense matvec, else
    ``"dense"``. Only the kernels :func:`symmetrize_and_normalize` returns are
    ``normalized``; it sets their ``balance_iterations`` and
    ``balance_deviation``. Treat instances as immutable; the normalization
    operations return new kernels.
    """

    def __init__(self, grid: Grid, matrix: np.ndarray | None = None,
                 profile: KernelProfile | None = None,
                 scale: np.ndarray | None = None):
        if matrix is None and profile is None:
            raise ValidationError("a kernel needs a matrix or a convolution profile")
        if matrix is not None and not np.all(np.isfinite(matrix)):
            i, j = np.argwhere(~np.isfinite(matrix))[0]
            raise KernelError(f"kernel value at node pair ({i}, {j}) is not finite")
        self.grid = grid
        self.profile = profile
        self._dense = matrix  # A, for a kernel without a profile
        self.scale = np.ones(grid.n_nodes) if scale is None else scale
        if matrix is not None and scale is None:
            self.matrix = matrix  # unscaled: A itself
        self.apply_method = ("fft" if profile is not None
                             and grid.n_nodes >= _FFT_AUTO_THRESHOLD else "dense")
        self.balance_iterations: int | None = None
        self.balance_deviation: float | None = None

    @cached_property
    def _stencil(self) -> _Stencil:
        """The profile's offset table, sampled on first use."""
        counts = self.grid.counts
        axes = [np.arange(1 - n, n) * h for n, h in zip(counts, self.grid.spacing)]
        table = _sample_profile(self.profile, axes)
        if not np.all(np.isfinite(table)):
            k = np.unravel_index(int(np.argmin(np.isfinite(table))), table.shape)
            offset = tuple(int(i) - (n - 1) for i, n in zip(k, counts))
            raise KernelError(f"kernel value at node offset {offset} is not finite")
        return _Stencil(table, counts)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense K_ij, gathered here on first use."""
        A = self._stencil.dense() if self._dense is None else self._dense
        return np.outer(self.scale, self.scale) * A

    @property
    def normalized(self) -> bool:
        """Whether K[1] = 1: true exactly for what balancing returned."""
        return self.balance_iterations is not None

    @property
    def family(self) -> str:
        return self.profile.family if self.profile is not None else "general"

    @property
    def strictly_positive(self) -> bool:
        """Whether K > 0 pointwise on the grid (assumed, not required, by the theory).

        The scaling is positive, so A decides, without building the matrix.
        """
        return float(_tables(self)[0].min()) > 0.0

    def __repr__(self) -> str:
        return (f"Kernel(family={self.family}, n={self.grid.n_nodes}, "
                f"normalized={self.normalized})")


def _tables(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """A and the A of the transposed kernel: a dense kernel's matrix and its
    transpose, or a convolution kernel's offset table and that table reversed
    on every axis, which negates each offset. A is symmetric when they are
    equal; a Toeplitz matrix is exactly when its table is even."""
    if kernel.profile is None:
        return kernel._dense, kernel._dense.T
    table = kernel._stencil.table
    return table, table[(slice(None, None, -1),) * table.ndim]


def sample_general_kernel(func: Callable, grid: Grid) -> Kernel:
    """Sample K(x, y) at all node pairs with one call of ``func``.

    ``func`` must broadcast: in 1D it gets node columns of shape (n, 1) and
    (1, n); in 2D node points of shape (n, 1, 2) and (1, n, 2). The result
    must have shape (n, n).
    """
    pts = grid.nodes
    n = grid.n_nodes
    if grid.dim == 1:
        x = pts[:, 0]
        matrix = np.asarray(func(x[:, None], x[None, :]), dtype=float)
    else:
        matrix = np.asarray(func(pts[:, None, :], pts[None, :, :]), dtype=float)
    if matrix.shape != (n, n):
        raise KernelError(
            f"kernel function returned shape {matrix.shape}, expected ({n}, {n}); "
            f"it must broadcast over its node-array arguments")
    return Kernel(grid, matrix)


def sample_convolution_kernel(profile: KernelProfile, grid: Grid) -> Kernel:
    """K_ij = phi(x_i - x_j); in 2D phi acts on the Euclidean offset.

    Only the profile over the grid's offsets is evaluated here, and checked;
    the dense matrix is gathered from it when a dense consumer first asks.
    """
    kernel = Kernel(grid, profile=profile)
    kernel._stencil  # sample now, so that a non-finite value is refused here
    return kernel


def normalize_columns(kernel: Kernel) -> Kernel:
    """Rescale each column so its weighted sum w @ K is one.

    This does not make K[1] = 1, so the result is not ``normalized`` and the
    dynamics refuse it; use :func:`symmetrize_and_normalize` for simulation.
    The result is a plain dense kernel without a profile.

    Columns whose sampled support is only the diagonal node cannot represent
    any neighbour interaction at this resolution (a tophat narrower than the
    grid spacing, say) and are rejected as degenerate, as are columns with
    nonpositive weighted sums.
    """
    w = kernel.grid.weights
    sums = w @ kernel.matrix
    support = np.count_nonzero(kernel.matrix, axis=0)
    bad = (sums <= 0) | (support < 2)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise KernelError(
            f"degenerate kernel: column {j} has weighted sum {sums[j]:.3g} and "
            f"{support[j]} nonzero entries; the profile is unresolved on this grid")
    return Kernel(kernel.grid, kernel.matrix / sums[None, :])


def symmetrize_and_normalize(kernel: Kernel, max_iterations: int = 5000,
                             tol: float = 1e-12) -> Kernel:
    """Symmetric Sinkhorn-Knopp balancing: weighted row sums, and so column
    sums, driven to one by a single scaling, K -> diag(d) K diag(d).

    The input must be symmetric (a convolution kernel with an even stencil, or
    a dense matrix equal to its transpose), entrywise nonnegative and with no
    zero row; the result is exactly symmetric, which the stability analysis
    relies on. The products K @ (w d) run through the kernel's own matvec. The
    result keeps the input's A (a convolution kernel's stencil is shared) and
    its ``scale`` absorbs d. It records ``balance_iterations`` (scalings
    computed) and ``balance_deviation`` (the final max |sum - 1|).
    """
    w = kernel.grid.weights
    # the scale is positive, so K has A's signs and is symmetric when A is,
    # and diag(d) K diag(d) keeps K^T = K
    A, transposed = _tables(kernel)
    if not np.array_equal(A, transposed):
        raise KernelError("balancing by one scaling requires a symmetric kernel")
    if A.min() < 0:
        raise KernelError("balancing requires an entrywise nonnegative kernel")
    sums = _matvec(kernel, w)
    if np.any(sums <= 0):
        raise KernelError("balancing requires no zero row or column")

    err = math.inf
    d = 1.0 / np.sqrt(sums)
    for iterations in range(1, max_iterations + 1):
        s = d * _matvec(kernel, w * d)
        err = float(np.max(np.abs(s - 1.0)))
        if err <= tol:
            break
        d = d / np.sqrt(s)
    else:
        raise BalancingError(
            f"balancing stalled at deviation {err:.3g} after "
            f"{max_iterations} iterations (tol {tol:.3g})")

    balanced = Kernel(kernel.grid, kernel._dense, kernel.profile, kernel.scale * d)
    if kernel.profile is not None:
        balanced._stencil = kernel._stencil  # share the offset table and spectrum
    balanced.balance_iterations = iterations
    balanced.balance_deviation = err
    return balanced


def _matvec(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """K @ values, by the kernel's ``apply_method``: dense or through the
    convolution stencil."""
    if kernel.apply_method == "dense":
        return kernel.matrix @ values
    return kernel.scale * kernel._stencil.convolve(kernel.scale * values)


def apply_kernel(kernel: Kernel, field: Field) -> Field:
    """Weighted application (K[u])_i = sum_j w_j K_ij u_j.

    The kernel chooses the matvec (``kernel.apply_method``): the dense
    matrix, or the zero-padded linear convolution of a convolution kernel
    when the grid is large enough for it to win.
    """
    grid = kernel.grid
    if field.grid is not grid and not field.grid.same_layout(grid):
        raise ShapeError("field does not live on the kernel's grid")
    return Field(grid, _matvec(kernel, grid.weights * field.values))


@dataclass(frozen=True, eq=False)
class PositivityCertificate:
    """Outcome of a positivity check.

    ``witness`` is the smallest eigenvalue of the symmetrized weighted form
    (eigen method, ``solver == "lanczos"``, to a few machine epsilons of the
    form's norm) or the smallest real part of the profile transform (bochner
    method). An eigen verdict that ``solver == "circulant_symbol"`` decided
    reports a lower bound on that eigenvalue instead, exact up to FFT
    round-off. ``violating_direction`` is the unit Ritz vector of a
    ``not_positive`` eigen verdict. ``tolerance`` is the absolute slack that
    was used, so ``verdict == "positive"`` iff ``witness >= -tolerance``.
    """

    method: str
    verdict: str  # positive | not_positive | inconclusive
    witness: float
    tolerance: float
    violating_direction: np.ndarray | None = None
    violating_frequency: float | None = None
    solver: str | None = None  # eigen method: which path decided

    def __repr__(self) -> str:
        return (f"PositivityCertificate({self.method}, {self.verdict}, "
                f"witness={self.witness:.6g})")


def _even_window_spectrum(profile: KernelProfile, periods: Sequence[int],
                          spacing: Sequence[float]) -> np.ndarray | None:
    """``rfftn`` of the even periodic window phi(|k h|), an even number P of
    offsets k h per axis with the origin at index 0; None when a sample is not
    finite. For an even profile this is the window sampled at signed offsets,
    bit for bit, and so is its transform.

    Only the offsets 0 .. P/2 per axis are sampled, and mirrored along the
    last axis. In 2D the window's rows past P/2 would repeat rows P/2 - 1 .. 1,
    so the half spectrum's rows there are copied from theirs, and the
    transform of axis 0 runs on it in place.
    """
    sampled = _sample_profile(profile, [np.arange(p // 2 + 1) * h
                                        for p, h in zip(periods, spacing)])
    if not np.all(np.isfinite(sampled)):
        return None
    window = np.concatenate([sampled, sampled[..., -2:0:-1]], axis=-1)
    del sampled  # in 2D only the window and the spectrum are held at once
    if len(periods) == 1:
        return np.fft.rfft(window)
    m = len(window)
    spectrum = np.empty((periods[0], periods[1] // 2 + 1), complex)
    np.fft.rfft(window, out=spectrum[:m])
    spectrum[m:] = spectrum[m - 2:0:-1]
    np.fft.fft(spectrum, axis=0, out=spectrum)
    return spectrum


def _circulant_bound(kernel: Kernel, a: np.ndarray) -> float | None:
    """A lower bound on the smallest eigenvalue of the weighted form from one
    FFT, for a convolution kernel with an even stencil and a = w * scale;
    None when the window would outweigh the dense matrix or is not finite.

    The weighted form is M = diag(a) Phi diag(a) with a = w * scale, and Phi
    (the Toeplitz / block-Toeplitz matrix of the offset table) is a principal
    submatrix of the symmetric circulant that phi builds on an even periodic
    window of P >= 2n offsets per axis. Interlacing bounds lambda_min(Phi)
    below by lambda_C, the smallest value of that circulant's symbol, and
    Sylvester's law of inertia with Ostrowski's theorem carry it to M:
    lambda_min(M) >= lambda_C * (min a^2 if lambda_C >= 0 else max a^2).
    The window reaches as far as the profile takes to decay, so the symbol
    converges to the profile's sampled transform instead of being cut off.
    """
    grid, profile = kernel.grid, kernel.profile
    reach = 0.0 if profile.family == "custom" else default_half_width(profile)
    if not all(reach / h < math.inf for h in grid.spacing):
        return None  # the profile reaches past any window: Lanczos decides
    periods = [2 * max(2 * n, math.ceil(reach / h))
               for n, h in zip(grid.counts, grid.spacing)]
    if math.prod(periods) > grid.n_nodes ** 2:
        return None  # the window would outweigh the dense matrix
    spectrum = _even_window_spectrum(profile, periods, grid.spacing)
    if spectrum is None:
        return None
    lam = float(spectrum.real.min())
    return lam * float(np.min(a * a) if lam >= 0 else np.max(a * a))


def _lanczos_smallest(apply: Callable[[np.ndarray], np.ndarray],
                      n: int) -> tuple[float, np.ndarray]:
    """The smallest eigenvalue of the symmetric operator ``apply`` on R^n and
    a unit eigenvector, by Lanczos with full reorthogonalization (Parlett,
    *The Symmetric Eigenvalue Problem*, 1998).

    The start vector is the quadratic Weyl sequence frac(phi i^2) - 1/2: not
    constant, with no symmetry of the grid, and the same in every process.
    Each new direction is orthogonalized against every earlier one twice
    (classical Gram-Schmidt, repeated). The iteration stops when the smallest
    Ritz pair's residual |beta_k s_k| is at most four machine epsilons times
    the largest Ritz value's magnitude (which tends to ||S|| from below), and
    so also on a Krylov breakdown, or after n steps.
    """
    i = np.arange(1, n + 1, dtype=float)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    q = (i * i * phi) % 1.0 - 0.5
    q /= np.linalg.norm(q)
    basis = np.empty((min(n, 32), n))
    alpha: list[float] = []
    beta: list[float] = []
    check = 1
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, n - k), n))])
        basis[k] = q
        r = apply(q)
        done = basis[:k + 1]
        coefficients = done @ r
        alpha.append(float(coefficients[k]))
        r -= coefficients @ done
        r -= (done @ r) @ done
        b = float(np.linalg.norm(r))
        if b == 0.0 or k + 1 >= check or k == n - 1:
            # T_k's dense eigensolve costs O(k^3): test every eighth of k steps
            check = k + 1 + (k + 1) // 8
            T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(T)
            norm = max(abs(theta[0]), abs(theta[-1]))
            if b * abs(s[-1, 0]) <= 4 * np.finfo(float).eps * norm or k == n - 1:
                break
        beta.append(b)
        q = r / b
    vector = s[:, 0] @ done
    return float(theta[0]), vector / np.linalg.norm(vector)


def _product(kernel: Kernel, table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> T v for a T of the kernel's kind of A: a matrix product, or a
    convolution, through the kernel's own stencil when T is its table."""
    if kernel.profile is None:
        return table.__matmul__
    if table is kernel._stencil.table:
        return kernel._stencil.convolve
    return _Stencil(table, kernel.grid.counts).convolve


def certify_positivity_eigen(kernel: Kernel, tol: float = 1e-9) -> PositivityCertificate:
    """Eigenvalue certificate for the weighted quadratic form of a sampled kernel.

    The form is M = D_w K D_w = diag(a) A diag(a), a = w * scale, with A
    symmetrized to S = (A + A^T) / 2, and its smallest eigenvalue is checked
    against ``-tol * max(1, ||M||_inf)`` so discretization noise near zero
    cannot flip the verdict. A symmetric convolution kernel is first tried
    through the circulant symbol (``_circulant_bound``); a positive verdict
    there is final, and its witness is a lower bound on the smallest
    eigenvalue, up to FFT round-off. Every other kernel, and one that bound
    does not clear, gets the smallest eigenpair by Lanczos
    (``_lanczos_smallest``) at one OpenBLAS thread, so its witness has the same
    bits whatever the machine's threading. Lanczos applies a * (S (a * v)), a
    convolution kernel's S through a stencil, not an N x N matrix. ``solver``
    on the result names the path that decided: ``"circulant_symbol"`` or
    ``"lanczos"``.
    """
    grid = kernel.grid
    a = grid.weights * kernel.scale
    A, transposed = _tables(kernel)
    symmetric = np.array_equal(A, transposed)
    rows = a * _product(kernel, A if A.min() >= 0 else np.abs(A))(a)  # |M|'s row sums
    S = _product(kernel, A if symmetric else 0.5 * (A + transposed))
    bound = (_circulant_bound(kernel, a) if symmetric and kernel.profile is not None
             else None)
    threshold = tol * max(1.0, float(np.max(rows)))
    if bound is not None and bound >= -threshold:
        return PositivityCertificate("eigen", "positive", bound, threshold,
                                     solver="circulant_symbol")
    try:
        with _one_blas_thread():
            lam, vector = _lanczos_smallest(lambda v: a * S(a * v), grid.n_nodes)
    except np.linalg.LinAlgError:
        return PositivityCertificate("eigen", "inconclusive", math.nan, threshold,
                                     solver="lanczos")
    if lam >= -threshold:
        return PositivityCertificate("eigen", "positive", lam, threshold,
                                     solver="lanczos")
    return PositivityCertificate("eigen", "not_positive", lam, threshold,
                                 violating_direction=vector, solver="lanczos")


def default_half_width(profile: KernelProfile, tol: float = 1e-9) -> float:
    """Window half-width at which the profile has decayed below ``tol``."""
    eps = min(tol, 1e-9)
    s = profile.sigma
    if profile.family == "gaussian":
        return 1.5 * s * math.sqrt(2.0 * math.log(1.0 / eps))
    if profile.family == "tophat":
        return 2.0 * s
    if profile.family == "exponential":
        return 1.5 * s * math.log(1.0 / eps)
    raise ValidationError("custom profiles need an explicit half_width")


def certify_positivity_bochner(profile: KernelProfile, n_samples: int = 2048,
                               half_width: float | None = None,
                               tol: float = 1e-9, dim: int = 1) -> PositivityCertificate:
    """Fourier certificate for convolution profiles: the smallest real part of
    the discrete Fourier transform of phi on an even periodic window of
    ``n_samples`` offsets per axis spanning (-half_width, half_width]
    (``_even_window_spectrum``). A positive verdict certifies the quadratic
    form on any bounded domain. ``dim=2`` runs the radial profile through a 2D
    transform on a square window. The peak, edge and evenness checks read phi
    along axis 0: at signed offsets in 1D, so that an asymmetric profile is
    refused, and in 2D at their size.
    """
    if dim not in (1, 2):
        raise ValidationError(f"bochner check supports dim 1 or 2, got {dim}")
    if half_width is None:
        half_width = default_half_width(profile, tol)
    if not 0 < half_width < math.inf:
        raise ValidationError(
            f"half_width must be positive and finite, got {half_width}")
    n = int(n_samples)
    if n < 16:
        raise ValidationError("need at least 16 samples for the transform")
    n += n % 2
    delta = 2.0 * half_width / n
    # phi(hypot(k delta, 0)) is phi(|k delta|): the line along axis 0 in 2D
    line = _sample_profile(profile, [_periodic_offsets(n, delta)]
                           + [np.zeros(1)] * (dim - 1)).ravel()
    peak = float(np.max(np.abs(line)))
    if not peak < math.inf:
        raise KernelError("profile is not finite on the sampling window")
    if peak == 0.0:
        raise KernelError("profile vanishes identically on the window")
    edge = abs(float(line[n // 2]))  # phi(half_width)
    if edge > max(tol, 1e-15) * peak:
        raise KernelError(
            f"window too small: |phi| at the edge is {edge:.3g} "
            f"(tolerance {max(tol, 1e-15) * peak:.3g}); enlarge half_width")
    # line[1:] reversed pairs each offset k delta with -k delta
    asym = float(np.max(np.abs(line[1:] - line[1:][::-1])))
    if asym > max(tol, 1e-13) * peak:
        raise KernelError(
            f"asymmetric profile: max |phi(z) - phi(-z)| = {asym:.3g}")

    spectrum = _even_window_spectrum(profile, [n] * dim, [delta] * dim)
    if spectrum is None:
        raise KernelError("profile is not finite on the sampling window")
    spectrum *= delta**dim
    # max |spectrum| over blocks of rows, with no temporary of the spectrum's size
    threshold = tol * float(max(np.max(np.abs(spectrum[i:i + 64]))
                                for i in range(0, len(spectrum), 64)))
    re = spectrum.real
    witness = float(re.min())
    if witness >= -threshold:
        return PositivityCertificate("bochner", "positive", witness, threshold)
    bad = np.unravel_index(int(np.argmin(re)), re.shape)
    freqs = [np.fft.fftfreq(n, d=delta)] * (dim - 1) + [np.fft.rfftfreq(n, d=delta)]
    frequency = 2.0 * np.pi * math.hypot(*(f[k] for f, k in zip(freqs, bad)))
    return PositivityCertificate("bochner", "not_positive", witness, threshold,
                                 violating_frequency=frequency)
