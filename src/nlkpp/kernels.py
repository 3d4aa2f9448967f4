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
kernel gives that (and the column sums too), and it is the only normalization
the simulation accepts. ``normalize_columns`` makes the weighted *column* sums
w @ K one instead; that does not pin K[1], so its kernels are labelled
``"columns"``, not ``normalized``, and the dynamics refuse them.
"""

import math
from collections.abc import Callable
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
        if self.family == "gaussian":
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
    """

    def __init__(self, table: np.ndarray, counts: tuple[int, ...]):
        self.table = table
        self.counts = counts
        self._shape: tuple[int, ...] = ()
        self._spectrum: np.ndarray | None = None

    def convolve(self, values: np.ndarray) -> np.ndarray:
        counts = self.counts
        axes = tuple(range(len(counts)))
        if self._spectrum is None:
            self._shape = tuple(_fast_len(2 * n - 1) for n in counts)
            self._spectrum = np.fft.rfftn(self.table, self._shape, axes)
        full = np.fft.irfftn(
            self._spectrum * np.fft.rfftn(values.reshape(counts), self._shape, axes),
            self._shape, axes)
        return full[tuple(slice(n - 1, 2 * n - 1) for n in counts)].ravel()

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
    """A kernel sampled on a grid.

    ``matrix[i, j]`` approximates K(x_i, x_j) including any normalization
    scalings applied so far. A convolution kernel is its ``profile`` plus one
    ``scale`` vector, K = diag(scale) Phi diag(scale) with Phi the Toeplitz
    (block-Toeplitz in 2D) matrix of the profile's offset table, where
    ``scale`` is None until balancing; its dense ``matrix`` is gathered on first
    use (the dense apply below ``_FFT_AUTO_THRESHOLD`` nodes, the
    linearization, ``normalize_columns``) and kept from then on, so it appears in
    ``vars(kernel)`` only once built. Every other kernel has no profile and is
    its dense ``matrix`` alone. The kernel chooses how :func:`apply_kernel`
    runs, and names it in ``apply_method``: ``"fft"`` for convolution kernels
    of at least ``_FFT_AUTO_THRESHOLD`` nodes, where it beats the dense
    matvec, else ``"dense"``. ``balance_iterations`` and
    ``balance_deviation`` are set by :func:`symmetrize_and_normalize`. Treat
    instances as immutable; the normalization operations return new kernels.
    """

    def __init__(self, grid: Grid, matrix: np.ndarray | None = None,
                 profile: KernelProfile | None = None,
                 normalization: str = "none",  # none | columns | balanced
                 scale: np.ndarray | None = None):
        if matrix is None and profile is None:
            raise ValidationError("a kernel needs a matrix or a convolution profile")
        self.grid = grid
        self.profile = profile
        self.normalization = normalization
        self.scale = scale
        self.apply_method = ("fft" if profile is not None
                             and grid.n_nodes >= _FFT_AUTO_THRESHOLD else "dense")
        self.balance_iterations: int | None = None
        self.balance_deviation: float | None = None
        if matrix is not None:
            self.matrix = matrix

    @cached_property
    def _stencil(self) -> _Stencil:
        """The profile's offset table, sampled on first use."""
        axes = [np.arange(1 - n, n) * h
                for n, h in zip(self.grid.counts, self.grid.spacing)]
        return _Stencil(_sample_profile(self.profile, axes), self.grid.counts)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense K_ij; a convolution kernel builds it here on first use."""
        raw = self._stencil.dense()
        return raw if self.scale is None else np.outer(self.scale, self.scale) * raw

    @property
    def normalized(self) -> bool:
        """Whether K[1] = 1, which only balancing guarantees."""
        return self.normalization == "balanced"

    @property
    def family(self) -> str:
        return self.profile.family if self.profile is not None else "general"

    @property
    def strictly_positive(self) -> bool:
        """Whether K > 0 pointwise on the grid (assumed, not required, by the theory).

        A convolution kernel's scaling is positive, so its profile over the
        grid's offsets decides, without building the matrix.
        """
        values = self.matrix if self.profile is None else self._stencil.table
        return float(values.min()) > 0.0

    def __repr__(self) -> str:
        return (f"Kernel(family={self.family}, n={self.grid.n_nodes}, "
                f"normalization={self.normalization})")


def _check_finite(matrix: np.ndarray) -> None:
    if not np.all(np.isfinite(matrix)):
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise KernelError(f"kernel value at node pair ({i}, {j}) is not finite")


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
    _check_finite(matrix)
    return Kernel(grid, matrix)


def sample_convolution_kernel(profile: KernelProfile, grid: Grid) -> Kernel:
    """K_ij = phi(x_i - x_j); in 2D phi acts on the Euclidean offset.

    Only the profile over the grid's offsets is evaluated here, and checked;
    the dense matrix is gathered from it when a dense consumer first asks.
    """
    kernel = Kernel(grid, profile=profile)
    table = kernel._stencil.table
    if not np.all(np.isfinite(table)):
        k = np.unravel_index(int(np.argmin(np.isfinite(table))), table.shape)
        offset = tuple(int(i) - (n - 1) for i, n in zip(k, grid.counts))
        raise KernelError(f"kernel value at node offset {offset} is not finite")
    return kernel


def normalize_columns(kernel: Kernel) -> Kernel:
    """Rescale each column so its weighted sum w @ K is one.

    This does not make K[1] = 1, so the result is not ``normalized`` and the
    dynamics refuse it; use :func:`symmetrize_and_normalize` for simulation.
    The result is a dense kernel without a profile.

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
    return Kernel(kernel.grid, kernel.matrix / sums[None, :], normalization="columns")


def _symmetric_by_construction(kernel: Kernel) -> bool:
    """A convolution kernel with an even stencil."""
    if kernel.profile is None:
        return False
    table = kernel._stencil.table
    return np.array_equal(table, table[(slice(None, None, -1),) * table.ndim])


def symmetrize_and_normalize(kernel: Kernel, max_iterations: int = 5000,
                             tol: float = 1e-12) -> Kernel:
    """Symmetric Sinkhorn-Knopp balancing: weighted row sums, and so column
    sums, driven to one by a single scaling, K -> diag(d) K diag(d).

    The input must be symmetric (a convolution kernel with an even stencil, or
    a dense matrix equal to its transpose), entrywise nonnegative and with no
    zero row; the result is exactly symmetric, which the stability analysis
    relies on. The products K @ (w d) run through the kernel's own matvec. A
    convolution kernel's result is matrix-free: its ``scale`` absorbs d and it
    shares the input's stencil. The result records ``balance_iterations``
    (scalings computed) and ``balance_deviation`` (the final max |sum - 1|).
    """
    w = kernel.grid.weights
    even = _symmetric_by_construction(kernel)
    # an even stencil's table has the matrix's signs (the scalings are positive)
    K = kernel._stencil.table if even else kernel.matrix
    if not (even or np.array_equal(K, K.T)):  # diag(d) K diag(d) keeps K^T = K
        raise KernelError("balancing by one scaling requires a symmetric kernel")
    if K.min() < 0:
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

    if kernel.profile is None:
        balanced = Kernel(kernel.grid, np.outer(d, d) * K, normalization="balanced")
    else:
        # matrix-free: diag(scale) phi diag(scale), gathered on first dense use
        scale = d if kernel.scale is None else kernel.scale * d
        balanced = Kernel(kernel.grid, None, kernel.profile, "balanced", scale)
        balanced._stencil = kernel._stencil  # share the offset table and spectrum
    balanced.balance_iterations = iterations
    balanced.balance_deviation = err
    return balanced


def _matvec(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """K @ values, by the kernel's ``apply_method``: dense or through the
    convolution stencil."""
    if kernel.apply_method == "dense":
        return kernel.matrix @ values
    if kernel.scale is None:
        return kernel._stencil.convolve(values)
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


def _circulant_bound(kernel: Kernel, a: np.ndarray) -> float | None:
    """A lower bound on the smallest eigenvalue of the weighted form from one
    FFT, for a convolution kernel with an even stencil and a = w * scale;
    None when the window would outweigh the dense matrix or is not finite.

    The weighted form is M = diag(a) Phi diag(a) with a = w * scale, and Phi
    (the Toeplitz / block-Toeplitz matrix of the offset table) is a principal
    submatrix of the symmetric circulant that phi builds on a periodic window
    of P >= 2n offsets per axis. Interlacing bounds lambda_min(Phi) below by
    lambda_C, the smallest value of that circulant's symbol, and Sylvester's
    law of inertia with Ostrowski's theorem carry it to M:
    lambda_min(M) >= lambda_C * (min a^2 if lambda_C >= 0 else max a^2).
    The window reaches as far as the profile takes to decay, so the symbol
    converges to the profile's sampled transform instead of being cut off.
    """
    grid, profile = kernel.grid, kernel.profile
    reach = 0.0 if profile.family == "custom" else default_half_width(profile)
    periods = [2 * max(2 * n, math.ceil(reach / h))
               for n, h in zip(grid.counts, grid.spacing)]
    if math.prod(periods) > grid.n_nodes ** 2:
        return None  # the window would outweigh the dense matrix
    window = _sample_profile(profile, map(_periodic_offsets, periods, grid.spacing))
    if not np.all(np.isfinite(window)):
        return None
    lam = float(np.fft.rfftn(window).real.min())
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


def certify_positivity_eigen(kernel: Kernel, tol: float = 1e-9) -> PositivityCertificate:
    """Eigenvalue certificate for the weighted quadratic form of a sampled kernel.

    The form is M = D_w K D_w, symmetrized, and its smallest eigenvalue is
    checked against ``-tol * max(1, ||M||_inf)`` so discretization noise near
    zero cannot flip the verdict. A convolution kernel with an even stencil is
    first tried through the circulant symbol (``_circulant_bound``); a
    positive verdict there is final, and its witness is a lower bound on the
    smallest eigenvalue, up to FFT round-off. Every other kernel, and one that
    bound does not clear, gets the smallest eigenpair by Lanczos
    (``_lanczos_smallest``) at one OpenBLAS thread, so its witness has the
    same bits whatever the machine's threading. A convolution kernel applies
    its form through the stencil, a * (Phi (a * v)), and builds no N x N
    matrix there. ``solver`` on the result names the path that decided:
    ``"circulant_symbol"`` or ``"lanczos"``.
    """
    grid = kernel.grid
    w = grid.weights
    if kernel.profile is None:
        M = (w[:, None] * kernel.matrix) * w[None, :]
        S = 0.5 * (M + M.T)
        rows = np.abs(M).sum(axis=1)
        apply = S.__matmul__
        bound = None
    else:
        a = w if kernel.scale is None else w * kernel.scale
        table = kernel._stencil.table
        # max_i sum_j |M_ij|, as the dense kernel computes it from the matrix
        absolute = kernel._stencil if table.min() >= 0 else _Stencil(
            np.abs(table), grid.counts)
        rows = a * absolute.convolve(a)
        even = _symmetric_by_construction(kernel)
        # (Phi + Phi^T) / 2 is the convolution with the table's even part
        stencil = kernel._stencil if even else _Stencil(
            0.5 * (table + table[(slice(None, None, -1),) * table.ndim]), grid.counts)

        def apply(v):
            return a * stencil.convolve(a * v)
        bound = _circulant_bound(kernel, a) if even else None
    threshold = tol * max(1.0, float(np.max(rows)))
    if bound is not None and bound >= -threshold:
        return PositivityCertificate("eigen", "positive", bound, threshold,
                                     solver="circulant_symbol")
    try:
        with _one_blas_thread():
            lam, vector = _lanczos_smallest(apply, grid.n_nodes)
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
    """Fourier certificate for convolution profiles.

    Samples phi on a periodic window of ``n_samples`` offsets per axis
    spanning (-half_width, half_width], takes the discrete Fourier transform,
    and reports the smallest real part. A positive verdict certifies the
    quadratic form on any bounded domain. ``dim=2`` runs the radial profile
    through a 2D transform on a square window. The peak, edge and evenness
    checks read the window's line along axis 0.
    """
    if dim not in (1, 2):
        raise ValidationError(f"bochner check supports dim 1 or 2, got {dim}")
    if half_width is None:
        half_width = default_half_width(profile, tol)
    if not half_width > 0:
        raise ValidationError("half_width must be positive")
    n = int(n_samples)
    if n < 16:
        raise ValidationError("need at least 16 samples for the transform")
    n += n % 2
    delta = 2.0 * half_width / n
    # the window with its origin at index 0; it is real, so the half spectrum
    # along the last axis holds every value of the full one
    if dim == 1:
        # signed offsets, so that an asymmetric profile shows below
        window = _sample_profile(profile, [_periodic_offsets(n, delta)])
    else:
        # phi(hypot(a, b)) has the same bits for every sign of a and b: sample
        # offsets 0 .. n/2 per axis and mirror them into the rest of the window
        m = n // 2 + 1
        window = np.empty((n, n))
        window[:m, :m] = _sample_profile(profile, [np.arange(m) * delta] * 2)
        window[m:, :m] = window[m - 2:0:-1, :m]
        window[:, m:] = window[:, m - 2:0:-1]
    if not np.all(np.isfinite(window)):
        raise KernelError("profile is not finite on the sampling window")
    line = window.reshape(n, -1)[:, 0]  # phi(k delta), the line along axis 0
    peak = float(np.max(np.abs(line)))
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

    # the transform of axis 0 runs in place on the half spectrum of the last
    # axis, once the window is freed: two arrays of the window's size at most
    spectrum = np.fft.rfft(window)
    del window, line
    if dim == 2:
        np.fft.fft(spectrum, axis=0, out=spectrum)
    spectrum *= delta**dim

    scale = float(np.max(np.abs(spectrum)))
    threshold = tol * scale
    if float(np.max(np.abs(spectrum.imag))) > max(threshold, 1e-12 * scale):
        raise KernelError("transform has a nontrivial imaginary part; "
                          "the sampled profile is not even")
    re = spectrum.real
    witness = float(re.min())
    if witness >= -threshold:
        return PositivityCertificate("bochner", "positive", witness, threshold)
    bad = np.unravel_index(int(np.argmin(re)), re.shape)
    freqs = [np.fft.fftfreq(n, d=delta)] * (dim - 1) + [np.fft.rfftfreq(n, d=delta)]
    frequency = 2.0 * np.pi * math.hypot(*(f[k] for f, k in zip(freqs, bad)))
    return PositivityCertificate("bochner", "not_positive", witness, threshold,
                                 violating_frequency=frequency)
