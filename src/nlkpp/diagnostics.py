"""Lyapunov bookkeeping and linear stability of the homogeneous state.

The functional V(u) = integral of u - 1 - ln(u) is nonnegative and vanishes
only at u = 1. Along trajectories its decay rate splits into a gradient part
and a kernel quadratic-form part; the latter is nonnegative exactly when the
kernel certifies positive, which is the mechanism behind global convergence
to 1. ``decay_identity_residual`` measures how well a discrete trajectory
honours that identity; it reads two rows of the trace, so a ``trace.csv``
loaded with ``Trace.from_csv`` can be checked as well as a run in memory. The
self-adjoint linearization locates the Turing instability when the positivity
hypothesis fails. Throughout, ``kernel=None`` is local mode: K[u] = u.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._openblas import _one_blas_thread
from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .fieldio import _open_fresh
from .grid import Field, Grid
from .kernels import Kernel, _matvec, apply_kernel

# the largest grid for the dense eigensolve of spectral_abscissa: J is 8 MiB
_STABILITY_MAX_NODES = 1024

TRACE_COLUMNS = ("t", "V", "D_total", "D_grad", "D_kernel",
                 "sup_dist_one", "mass", "min_u", "dt_used")


@dataclass(eq=False)
class Snapshot:
    step: int
    t: float
    field: Field


class Trace:
    """Per-step diagnostics rows plus periodic field snapshots.

    Appended by the running simulation, read-only afterwards. Traces loaded
    from CSV carry the rows only.
    """

    columns = TRACE_COLUMNS

    def __init__(self, metadata: dict | None = None):
        self._rows: list[tuple] = []
        self.snapshots: list[Snapshot] = []
        self.metadata: dict = dict(metadata or {})

    def __len__(self) -> int:
        return len(self._rows)

    def append_rows(self, **columns) -> None:
        """Append one row per entry of the equally long ``TRACE_COLUMNS``
        sequences given by name."""
        self._rows.extend(zip(*(np.asarray(columns[c], dtype=float).tolist()
                                for c in TRACE_COLUMNS)))

    def add_snapshot(self, step: int, t: float, field: Field) -> None:
        self.snapshots.append(Snapshot(step, t, field))

    def row(self, k: int) -> dict:
        return dict(zip(TRACE_COLUMNS, self._rows[k]))

    def column(self, name: str) -> np.ndarray:
        idx = TRACE_COLUMNS.index(name)
        return np.array([r[idx] for r in self._rows])

    def to_csv(self, path) -> None:
        # the bytes csv.writer writes for repr(v): no float's repr needs quoting
        line = ",".join(["%r"] * len(TRACE_COLUMNS)) + "\r\n"
        with _open_fresh(path, newline="") as fh:
            csv.writer(fh).writerow(TRACE_COLUMNS)
            fh.writelines(line % row for row in self._rows)

    @classmethod
    def from_csv(cls, path) -> "Trace":
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != TRACE_COLUMNS:
                raise ValidationError(
                    f"{Path(path).name}: unexpected trace header {header}")
            for row in reader:
                try:
                    if len(row) != len(TRACE_COLUMNS):
                        raise ValueError(
                            f"{len(row)} fields, expected {len(TRACE_COLUMNS)}")
                    trace._rows.append(tuple(float(v) for v in row))
                except ValueError as exc:
                    raise ValidationError(
                        f"{Path(path).name}, line {reader.line_num}: {exc}") from None
        return trace


def _finite(value: float, u: np.ndarray) -> float:
    """``value``, unless it is not finite because a node is not (a value that
    overflows on finite nodes is returned as it is)."""
    if not abs(value) < math.inf:
        finite = np.isfinite(u)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(f"finite field required; node {i} has value {u[i]}")
    return value


def sup_distance_to_one(field: Field) -> float:
    """max_i |u_i - 1|, the uniform distance to the homogeneous state."""
    return _finite(float(abs(field.values - 1.0).max()), field.values)


def _require_positive(u: np.ndarray) -> None:
    if not u.min() > 0.0:  # NaN fails too
        i = int(np.argmin(u))
        raise DomainError(
            f"strictly positive field required; node {i} has value {u[i]:.6g}")


def _require_normalized(kernel: Kernel, grid: Grid | None = None) -> None:
    """Unless K[1] = 1, u = 1 is not the steady state all of this is about;
    the linearization on ``grid``, when one is given, needs K on it too."""
    if not kernel.normalized:
        raise ValidationError("the kernel must be normalized (balanced: weighted "
                              "row sums K[1] equal to one)")
    if grid is not None and not kernel.grid.same_layout(grid):
        raise ShapeError(f"kernel lies on {kernel.grid}, the linearization on {grid}")


def kernel_action(field: Field, kernel: Kernel | None) -> np.ndarray:
    """K[u] of a normalized kernel, or u itself in local mode (no kernel)."""
    if kernel is None:
        return field.values
    _require_normalized(kernel)
    return apply_kernel(kernel, field).values


def trace_rows(grid: Grid, u: np.ndarray, ku: np.ndarray,
               mu: float) -> dict[str, np.ndarray]:
    """Every ``TRACE_COLUMNS`` column but ``t`` and ``dt_used``, one entry per
    row of ``u`` (shape (B, n_nodes)); ``ku`` holds K[u] of each row, or u
    itself in local mode.

    The rows are not checked: :func:`lyapunov_value` and :func:`dissipation`
    check one field and then read their columns from here, and a run's own
    states are positive and finite by construction. ``D_kernel`` is
    mu * sum_i w_i (1 - u_i)(1 - K[u]_i), which for a normalized kernel is the
    quadratic form mu * sum_ij w_i w_j K_ij (1 - u_i)(1 - u_j) up to the
    balancing tolerance, and exactly the form of the reaction factor the
    integrator uses; ``D_grad`` sums c du^2 / (u_i u_j) over the edges (i, j)
    of ``Grid.edges``: with W L = -G, G their graph Laplacian, summation by
    parts makes it -sum_i w_i (1 - 1/u_i) (L u)_i exactly, so dV/dt = -D_total
    along the semi-discrete system and the decay identity is first order in dt.
    """
    w = grid.weights
    d_grad = np.zeros(u.shape[0])
    for stride, c in grid.edges:
        lo, hi = u[:, :-stride], u[:, stride:]
        du = hi - lo
        d_grad += (du * du / (lo * hi)) @ c[stride:]
    d_kernel = mu * (((1.0 - u) * (1.0 - ku)) @ w)
    return {"V": (u - 1.0 - np.log(u)) @ w, "D_total": d_grad + d_kernel,
            "D_grad": d_grad, "D_kernel": d_kernel,
            "sup_dist_one": abs(u - 1.0).max(axis=1), "mass": u @ w,
            "min_u": u.min(axis=1)}


def steady_state_residual(grid: Grid, u: np.ndarray, ku: np.ndarray,
                          mu: float) -> float:
    """||L u + mu u (1 - K[u])||_W, zero exactly at a steady state; ``ku`` is
    K[u], or u itself in local mode. L u = -W^-1 G u comes from the edges of
    ``Grid.edges``, G their graph Laplacian, without an N x N array."""
    gu = np.zeros_like(u)
    for stride, c in grid.edges:
        flux = c[stride:] * (u[stride:] - u[:-stride])
        gu[stride:] += flux
        gu[:-stride] -= flux
    r = mu * u * (1.0 - ku) - gu / grid.weights
    return math.sqrt(r * r @ grid.weights)


def lyapunov_value(field: Field) -> float:
    """V(u) = sum of w * (u - 1 - ln u); nonnegative, zero only at u = 1."""
    u = field.values
    _require_positive(u)
    return _finite(float(trace_rows(field.grid, u[None], u[None], 0.0)["V"][0]), u)


class Dissipation(NamedTuple):
    total: float
    grad: float
    kernel_part: float


def dissipation(field: Field, kernel: Kernel | None, mu: float) -> Dissipation:
    """Decay rate of V: an edge-based gradient term plus the kernel quadratic
    form, as :func:`trace_rows` defines them; in local mode (no kernel) the
    kernel part collapses to mu * integral of (1 - u)^2."""
    u = field.values
    _require_positive(u)
    ku = kernel_action(field, kernel)
    row = trace_rows(field.grid, u[None], ku[None], mu)
    return Dissipation(_finite(float(row["D_total"][0]), u),
                       float(row["D_grad"][0]), float(row["D_kernel"][0]))


def decay_identity_residual(trace: Trace, step_index: int) -> float:
    """| (V_{k+1} - V_k)/(t_{k+1} - t_k) + (D_k + D_{k+1})/2 |, k = step_index.

    The trapezoid of the recorded dissipation over one step; it reads the
    trace's own ``t``, ``V`` and ``D_total`` rows and nothing else.
    """
    if not 0 <= step_index < len(trace) - 1:
        raise IndexError(
            f"need rows {step_index} and {step_index + 1}, trace has {len(trace)}")
    row0, row1 = trace.row(step_index), trace.row(step_index + 1)
    return abs((row1["V"] - row0["V"]) / (row1["t"] - row0["t"])
               + 0.5 * (row0["D_total"] + row1["D_total"]))


def linearization_matrix(grid: Grid, kernel: Kernel | None,
                         mu: float) -> np.ndarray:
    """Derivative of the dynamics at u = 1: J v = L v - mu K[v], with
    K[v] = v in local mode (no kernel), as one dense N x N array.

    The kernel must be normalized (K[1] = 1), otherwise u = 1 is not a steady
    state to linearize about, and must lie on ``grid``. L, the Neumann
    Laplacian with ghost-node reflection, is -W^-1 G, G the graph Laplacian
    of ``grid.edges``; ``linearization_matrix(grid, None, 0.0)`` is L.
    """
    n, w = grid.n_nodes, grid.weights
    if kernel is None:
        J = np.diag(np.full(n, -float(mu)))
    else:
        _require_normalized(kernel, grid)
        J = kernel.matrix * w[None, :]
        J *= -mu
    i = np.arange(n)
    for stride, c in grid.edges:
        J[i[:-stride], i[stride:]] += c[stride:] / w[:-stride]
        J[i[stride:], i[:-stride]] += c[stride:] / w[stride:]
    degree = sum(c + np.roll(c, -stride) for stride, c in grid.edges)
    J.flat[::n + 1] -= degree / w
    return J


def _symmetric_linearization(grid: Grid, kernel: Kernel | None, mu: float) -> np.ndarray:
    """sym(W^{1/2} J W^{-1/2}), J of :func:`linearization_matrix`, in J's array."""
    r = np.sqrt(grid.weights)
    S = linearization_matrix(grid, kernel, mu)
    S *= r[:, None]
    S /= r[None, :]
    S += S.T
    S *= 0.5
    return S


def spectral_abscissa(grid: Grid, kernel: Kernel | None, mu: float) -> float:
    """Largest eigenvalue of the Jacobian J of :func:`linearization_matrix`,
    negative for linear stability. W L and a balanced K are symmetric, so
    J = L - mu K W is similar to the symmetric S = W^{1/2} J W^{-1/2}. The
    eigensolve runs at one OpenBLAS thread, so that its bits do not follow
    the threading."""
    S = _symmetric_linearization(grid, kernel, mu)
    try:
        with _one_blas_thread():
            return float(np.linalg.eigvalsh(S)[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def turing_onset(grid: Grid, kernel: Kernel | None) -> float:
    """The Turing onset: the smallest mu at which u = 1 loses linear
    stability, inf where none does and in local mode (no kernel). S of
    :func:`spectral_abscissa` is -A - mu B, with A r = 0 and B r = r for
    r = W^{1/2} 1 and A definite on r-perp, so mu* = -1/nu_min, nu_min the
    smallest eigenvalue of the pencil (B, A) there; it is negative beyond the
    eigen certificate's tolerance exactly when that says ``not_positive``."""
    if kernel is None:
        return math.inf
    A = _symmetric_linearization(grid, kernel, 0.0)
    B = A - _symmetric_linearization(grid, kernel, 1.0)
    A *= -1.0
    # deflate r (A r = 0, B r = r) to the pencil eigenvalue 0, which decides nothing
    v = np.sqrt(grid.weights / grid.weights.sum())
    B -= np.outer(v, v)
    A += np.outer(v, A.trace() / grid.n_nodes * v)
    try:
        with _one_blas_thread():
            C = np.linalg.inv(np.linalg.cholesky(A))
            nu = np.linalg.eigvalsh(C @ B @ C.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return float(-1.0 / nu[0]) if nu[0] < -1e-9 * max(1.0, abs(nu[-1])) else math.inf


def cosine_modes(grid: Grid, k) -> np.ndarray:
    """The cosine modes cos(k pi xhat) at the nodes, xhat the axis-0 coordinate
    scaled to [0, 1]: a vector for one index k, one column per entry of an
    array of indices."""
    lo, hi = grid.extents[0]
    xhat = (grid.nodes[:, 0] - lo) / (hi - lo)
    return np.cos(np.multiply.outer(xhat, np.asarray(k) * np.pi))


def cosine_mode_rates(grid: Grid, kernel: Kernel | None, mu: float) -> np.ndarray:
    """Weighted Rayleigh quotients of the Jacobian J of
    :func:`linearization_matrix` on the cosine modes v, 1 <= k <= n0 - 2
    (``cosine_modes``), without J: mode k is constant along axis 1 and an
    eigenvector of the Laplacian, eigenvalue -(2/h0 sin(k pi/(2 n0 - 2)))^2,
    and (w v)^T v = |Omega|/2, so its rate is that minus 2 mu (w v)^T K[v]/|Omega|."""
    n0 = grid.counts[0]
    k = np.arange(1, n0 - 1)
    rates = -(2.0 / grid.spacing[0] * np.sin(np.pi / (2 * n0 - 2) * k)) ** 2
    if kernel is None:
        return rates - mu
    _require_normalized(kernel, grid)
    # mode k at axis-0 index j is period[k j mod 2 n0 - 2]; 4 MiB blocks of modes
    j = np.arange(grid.n_nodes) // (grid.n_nodes // n0)
    period = np.cos(np.pi / (n0 - 1) * np.arange(2 * n0 - 2))
    size = max(1, (1 << 19) // grid.n_nodes)
    for block in np.split(k, range(size, k.size, size)):
        WV = grid.weights[:, None] * period[np.multiply.outer(j, block) % (2 * n0 - 2)]
        if kernel.apply_method == "dense" or grid.n_nodes <= _STABILITY_MAX_NODES:
            # a dense K, or one of 8 MiB at most: one product beats an FFT per mode
            q = np.einsum("ij,ij->j", WV, kernel.matrix @ WV)
        else:
            q = np.array([v @ _matvec(kernel, v) for v in WV.T])
        rates[block - 1] -= 2.0 * mu / grid.weights.sum() * q
    return rates


def most_unstable_cosine_mode(grid: Grid, kernel: Kernel | None, mu: float) -> int:
    """Index k >= 1 of the fastest-growing cosine perturbation of u = 1."""
    return int(np.argmax(cosine_mode_rates(grid, kernel, mu))) + 1
