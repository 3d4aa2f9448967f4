"""Time integration: implicit diffusion, explicit nonlocal logistic reaction.

One step solves (I - dt L) u_new = u_old + dt * mu * (1 - K[u_old]) u_old.
The implicit factor is an M-matrix whose inverse preserves both positivity
and the weighted mass, so the only way a step can lose positivity is through
the explicit reaction; such steps are rejected and retried with half the
step size rather than clipped, which would silently corrupt the mass and
Lyapunov bookkeeping. The accepted step size recovers by doubling back up to
the configured dt.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._openblas import _banded_cholesky
from .diagnostics import Trace, kernel_action, steady_state_residual, trace_rows
from .errors import NumericalError, StepFailure, ValidationError
from .grid import Field, Grid
from .kernels import Kernel


@dataclass(frozen=True)
class SimConfig:
    """Run parameters."""

    mu: float
    dt: float
    t_end: float
    snapshot_every: int = 100
    positivity_floor: float = 1e-14
    max_dt_halvings: int = 40

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValidationError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ValidationError(f"t_end must be finite and >= 0, got {self.t_end}")
        for name in ("snapshot_every", "max_dt_halvings"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {count!r}")
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be >= 0 (0 disables)")
        if not 0 < self.positivity_floor < math.inf:
            raise ValidationError("positivity_floor must be finite and positive")
        if self.max_dt_halvings < 0:
            raise ValidationError("max_dt_halvings must be >= 0")


# run() computes the trace rows of max(1, _BLOCK_VALUES // n) accepted states
# in one pass: at small n that spreads numpy's per-call cost over many rows,
# and at 4096 nodes a 64-row block measured slower than one row at a time
_BLOCK_VALUES = 8192

# a solver keeps the factors of this many step sizes, dropping the oldest: a run
# visits a few (dt, its halvings, the last step's remainder), but a step that
# ends in StepFailure factors max_dt_halvings + 1 of them (41 by default), and
# a 2D band factor is 2 MB at 64 x 64 and 135 MB at 256 x 256
_MAX_FACTORS = 16


@dataclass(eq=False)
class SimState:
    """Trajectory state on ``u``'s grid after ``step`` accepted steps.
    ``dt_next`` is the step size the integrator will attempt next; ``halvings``
    counts the rejected attempts of the step that produced it. ``ku`` is K[u]
    of this state's u (u itself in local mode), which :func:`step_imex` fills
    in and its next reaction reuses. A hand-made state may leave ``ku`` and
    ``dt_next`` None: its step then computes K[u] and tries the configured dt."""

    t: float
    u: Field
    step: int = 0
    dt_next: float | None = None
    halvings: int = 0
    ku: np.ndarray | None = None


def reaction_term(u: Field, kernel: Kernel | None, mu: float) -> Field:
    """mu (1 - K[u]) u, or mu (1 - u) u in local mode (no kernel)."""
    return Field(u.grid, mu * (1.0 - kernel_action(u, kernel)) * u.values)


class DiffusionSolver:
    """Exact solver for (I - dt L) u = rhs with the ghost-node Neumann Laplacian.

    It factors the symmetric W (I - dt L), W the trapezoid weights, by banded
    Cholesky (LAPACK ``pbtrf``; bandwidth 1 in 1D, n1 in 2D) and solves for
    u - min(rhs). The LAPACK is the one numpy has loaded, called through
    ctypes. Scaled by W the matrix is a symmetric M-matrix and Cholesky
    does not pivot, so the factor's signs are exact and both substitutions add
    nonnegative terms only: min(u) >= min(rhs) holds exactly, as the maximum
    principle says, and each node is accurate relative to its own size (a
    transform solve is accurate only to eps * max|rhs| and pushes nodes at the
    positivity floor below it). Factors are cached per dt, for the
    ``_MAX_FACTORS`` most recently factored step sizes. Inputs are not
    checked for finiteness; a non-finite right-hand side gives a non-finite
    solution, which the step rejects. The solver keeps the factors, the last
    min(rhs) and the buffer it solves in as state, so it serves one thread at
    a time.
    """

    name = "banded_cholesky"

    def __init__(self, grid: Grid):
        self._weights, self._edges = grid.weights, grid.edges
        self._factors: dict[float, object] = {}
        self._rhs_min = math.nan
        self._x = np.empty(self._weights.size)
        self._pbtrf, self._pbtrs = _banded_cholesky()

    def _factor(self, dt: float):
        factor = self._factors.get(dt)
        if factor is None:
            factor, info = self._pbtrf(self._band(dt), self._x)
            if info != 0:
                raise NumericalError(
                    f"banded Cholesky of W (I - dt L) failed at dt={dt:.3g} "
                    f"(LAPACK pbtrf info {info})")
            if len(self._factors) == _MAX_FACTORS:
                del self._factors[next(iter(self._factors))]
            self._factors[dt] = factor
        return factor

    def _band(self, dt: float) -> np.ndarray:
        """The upper band of W (I - dt L) = W + dt G in LAPACK storage,
        diagonal last; G is the graph Laplacian of ``grid.edges``."""
        bw = self._edges[0][0]  # axis 0's stride, the widest coupling
        ab = np.zeros((bw + 1, self._weights.size), order="F")
        ab[bw] = self._weights
        for stride, c in self._edges:
            row = ab[bw - stride]
            row[:] = -dt * c
            # G has zero row sums, so the diagonal is w minus the row's couplings
            ab[bw] -= row + np.roll(row, -stride)
        return ab

    def solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        # step_imex reads min(rhs), the solution's lower bound, from _rhs_min
        self._rhs_min = floor = rhs.min()
        factor, x = self._factor(dt), self._x
        np.subtract(rhs, floor, x)  # a positional out: the keyword costs 0.5 us
        x *= self._weights
        info = self._pbtrs(factor)
        if info != 0:
            raise NumericalError(f"banded Cholesky solve at dt={dt:.3g} failed "
                                 f"(LAPACK pbtrs info {info})")
        return floor + x


def step_imex(state: SimState, kernel: Kernel | None, config: SimConfig,
              solver: DiffusionSolver, max_dt: float | None = None) -> SimState:
    """Advance ``state`` one accepted step on its grid, halving dt as needed
    to keep u positive.

    The reaction uses ``state.ku`` when it is set, and the new state carries
    K[u] of its own u, so consecutive steps apply the kernel once each.
    ``solver``, a :class:`DiffusionSolver` of that grid, keeps its factors
    across steps. ``max_dt`` caps the step; :func:`run` passes its remainder
    ``t_end - t`` only when that falls short of the step by more than
    round-off of the time sum.
    """
    u_old = state.u.values
    ku = kernel_action(state.u, kernel) if state.ku is None else state.ku
    r = config.mu * (1.0 - ku) * u_old
    dt = config.dt if state.dt_next is None else min(state.dt_next, config.dt)
    dt = dt if max_dt is None else min(dt, max_dt)
    floor = config.positivity_floor
    u_new = None
    for halvings in range(config.max_dt_halvings + 1):
        u_new = solver.solve(u_old + dt * r, dt)
        # min(u) >= min(rhs) exactly, so u's own minimum is taken only when
        # min(rhs) is below the floor; a NaN or +inf in u fails the max test
        if ((floor <= solver._rhs_min or floor <= u_new.min())
                and u_new.max() < math.inf):
            field = Field(state.u.grid, u_new)
            return SimState(t=state.t + dt, u=field, step=state.step + 1,
                            dt_next=min(2.0 * dt, config.dt), halvings=halvings,
                            ku=kernel_action(field, kernel))
        dt *= 0.5
    finite = np.isfinite(u_new)
    node = int(np.argmin(finite)) if not finite.all() else int(np.argmin(u_new))
    value = f"{u_new[node]:.3g}" if finite[node] else f"non-finite {u_new[node]}"
    raise StepFailure(
        f"step rejected {config.max_dt_halvings} times at t={state.t:.6g}: "
        f"node {node} reaches {value} even at dt={2 * dt:.3g}")


def run(u0: Field, kernel: Kernel | None, config: SimConfig,
        metadata: dict | None = None) -> tuple[SimState, Trace]:
    """Integrate from u0 to t_end on u0's grid, one diagnostics row per step.

    ``kernel=None`` is local mode: K[u] is replaced by u (classical
    Fisher-KPP); a kernel on another grid layout is refused (``ShapeError``)
    by its first apply, before any step. u0 must be nonnegative and not be
    identically zero; zero nodes are lifted to the positivity floor before the
    first step, mirroring the instant positivity of the continuous flow and
    keeping V finite from the start.
    The trace metadata records ``steps_rejected``, the halvings summed over
    the run, and ``dt_min``, the smallest step a halving reached (dt if none);
    ``kernel_apply`` says which matvec ran (``dense``, ``fft`` or ``none``),
    ``kernel_applications`` how often (once for the datum and once per
    accepted step; 0 in local mode), and ``balance_iterations`` /
    ``balance_deviation`` copy the kernel's balancing; ``floor_lifted_nodes``
    counts the datum's nodes lifted to the floor, and ``steady_state_residual``
    is :func:`~nlkpp.diagnostics.steady_state_residual` of the final state.
    The rows are those of :func:`~nlkpp.diagnostics.trace_rows`, computed in
    blocks of steps; a run that raises returns no trace.
    """
    vals = np.asarray(u0.values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("initial datum has non-finite values")
    if vals.min() < 0:
        raise ValidationError(
            f"initial datum has negative node value {vals.min():.3g}")
    if not np.any(vals > 0):
        raise ValidationError("initial datum is identically zero")

    grid = u0.grid
    u = Field(grid, np.maximum(vals, config.positivity_floor))
    state = SimState(t=0.0, u=u, step=0, dt_next=config.dt, ku=kernel_action(u, kernel))
    solver = DiffusionSolver(grid)
    base_meta = {
        "scheme": "imex_euler",
        "solver": solver.name,
        "mu": config.mu,
        "dt": config.dt,
        "local_mode": kernel is None,
        "kernel_normalization": "balanced" if kernel else "none",
        "kernel_apply": kernel.apply_method if kernel else "none",
    }
    if kernel is not None:
        base_meta.update(balance_iterations=kernel.balance_iterations,
                         balance_deviation=kernel.balance_deviation)
    base_meta.update(metadata or {})
    trace = Trace(metadata=base_meta)

    block = max(1, _BLOCK_VALUES // grid.n_nodes)
    us, kus = np.empty((block, grid.n_nodes)), np.empty((block, grid.n_nodes))
    times: list[float] = []
    dts: list[float] = []

    def record(st: SimState, dt_used: float) -> None:
        us[len(times)], kus[len(times)] = st.u.values, st.ku
        times.append(st.t)
        dts.append(dt_used)
        if len(times) == block:
            flush()

    def flush() -> None:
        n = len(times)
        trace.append_rows(t=times, dt_used=dts,
                          **trace_rows(grid, us[:n], kus[:n], config.mu))
        times.clear()
        dts.clear()

    trace.add_snapshot(0, 0.0, state.u)
    eps = 1e-12 * max(1.0, config.t_end)
    steps_rejected, dt_min = 0, config.dt
    # an overflowing reaction is rejected and reported by step_imex; numpy's
    # own warnings about it would only precede that message
    with np.errstate(over="ignore", invalid="ignore"):
        record(state, 0.0)
        while state.t < config.t_end - eps:
            t_prev = state.t
            # the remainder, unless it is within eps of the step: that is
            # round-off of the time sum, and would factor a band of its own
            short = config.t_end - t_prev < state.dt_next - eps
            state = step_imex(state, kernel, config, solver,
                              max_dt=config.t_end - t_prev if short else None)
            if state.halvings:
                steps_rejected += state.halvings
                # a halved step is at most dt / 2, so dt_next is exactly twice it
                dt_min = min(dt_min, 0.5 * state.dt_next)
            record(state, state.t - t_prev)
            if config.snapshot_every and state.step % config.snapshot_every == 0:
                trace.add_snapshot(state.step, state.t, state.u)
        if times:
            flush()
    if trace.snapshots[-1].step != state.step:
        trace.add_snapshot(state.step, state.t, state.u)
    # the datum and every accepted state are applied once each
    trace.metadata.update(
        steps_rejected=steps_rejected, dt_min=dt_min,
        kernel_applications=0 if kernel is None else state.step + 1,
        floor_lifted_nodes=int(np.count_nonzero(vals < config.positivity_floor)),
        steady_state_residual=steady_state_residual(grid, state.u.values, state.ku,
                                                    config.mu))
    return state, trace
