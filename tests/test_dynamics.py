import json
import math

import numpy as np
import pytest

from nlkpp import (Field, Kernel, KernelProfile, NumericalError, ShapeError,
                   SimConfig, StepFailure, ValidationError, build_uniform_grid,
                   lyapunov_value, normalize_columns, reaction_term, run,
                   sample_convolution_kernel, step_imex, symmetrize_and_normalize)
from nlkpp import _openblas, dynamics
from nlkpp.cli import main
from nlkpp.dynamics import _MAX_FACTORS, DiffusionSolver, SimState

from conftest import dense_laplacian


def logistic(t, u0=0.2, mu=1.0):
    e = np.exp(mu * t)
    return u0 * e / (1 - u0 + u0 * e)


class TestSimConfig:
    @pytest.mark.parametrize("field", ["mu", "dt", "t_end", "positivity_floor"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    def test_refuses_non_finite(self, field, value):
        # an infinite t_end used to run no step and return as if it had ended
        args = dict(mu=1.0, dt=0.1, t_end=1.0)
        args[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SimConfig(**args)

    @pytest.mark.parametrize("field", ["snapshot_every", "max_dt_halvings"])
    def test_refuses_negative_counts(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be >= 0"):
            SimConfig(mu=1.0, dt=0.1, t_end=1.0, **{field: -1})


class TestReactionTerm:
    def test_one_is_steady(self, unit_grid, balanced_gaussian):
        r = reaction_term(Field.constant(unit_grid, 1.0), balanced_gaussian, 1.0)
        np.testing.assert_allclose(r.values, 0.0, atol=1e-11)

    def test_zero_is_steady(self, unit_grid, balanced_gaussian):
        r = reaction_term(Field.constant(unit_grid, 0.0), balanced_gaussian, 1.0)
        np.testing.assert_allclose(r.values, 0.0, atol=0)

    def test_local_mode_value(self, unit_grid):
        r = reaction_term(Field.constant(unit_grid, 0.5), None, 2.0)
        np.testing.assert_allclose(r.values, 0.5)

    def test_rejects_unnormalized_kernel(self, unit_grid):
        raw = sample_convolution_kernel(KernelProfile("gaussian", 0.2), unit_grid)
        with pytest.raises(ValidationError, match="normalized"):
            reaction_term(Field.constant(unit_grid, 1.0), raw, 1.0)


class TestStepImex:
    def test_steady_state_preserved(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=1.0)
        state = SimState(t=0.0, u=Field.constant(unit_grid, 1.0))
        new = step_imex(state, unit_grid, balanced_gaussian, cfg)
        assert np.max(np.abs(new.u.values - 1.0)) < 1e-12

    def test_mass_conserved_without_reaction(self, unit_grid, balanced_gaussian,
                                             rng):
        cfg = SimConfig(mu=0.0, dt=5e-3, t_end=1.0)
        u = Field(unit_grid, rng.uniform(0.2, 3.0, unit_grid.n_nodes))
        m0 = float(unit_grid.weights @ u.values)
        state = SimState(t=0.0, u=u)
        for _ in range(20):
            state = step_imex(state, unit_grid, balanced_gaussian, cfg)
            m = float(unit_grid.weights @ state.u.values)
            assert abs(m - m0) < 1e-10
            m0 = m

    def test_logistic_oracle_at_ln4(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=float(np.log(4.0)))
        state, _ = run(Field.constant(unit_grid, 0.2), unit_grid,
                       balanced_gaussian, cfg)
        assert np.max(np.abs(state.u.values - 0.5)) < 1e-3

    def test_dt_halving_recovers(self, unit_grid):
        # reaction pushes u negative at the configured dt; the step must
        # halve, survive, and work its way back up to dt
        cfg = SimConfig(mu=30.0, dt=0.05, t_end=2.0)
        state, trace = run(Field.constant(unit_grid, 3.0), unit_grid, None, cfg)
        dts = trace.column("dt_used")[1:]
        assert dts.min() < 0.05
        assert dts.max() == pytest.approx(0.05)
        assert trace.column("min_u").min() > 0

    def test_step_failure_after_halving_budget(self, unit_grid):
        cfg = SimConfig(mu=1e15, dt=1.0, t_end=1.0, max_dt_halvings=10)
        with pytest.raises(StepFailure, match="node"):
            run(Field.constant(unit_grid, 4.0), unit_grid, None, cfg)

    def test_non_finite_step_is_step_failure(self):
        # K[u] u overflows to -inf, the solve turns it into NaN; the step
        # must be rejected, never accepted, and fail through the budget
        grid = build_uniform_grid((0, 1), 64)
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("gaussian", 0.2), grid))
        cfg = SimConfig(mu=1e10, dt=1.0, t_end=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure, match="node 0 reaches non-finite"):
                run(Field.constant(grid, 1e300), grid, kern, cfg)

    def test_right_hand_side_below_the_floor_is_lifted(self, unit_grid,
                                                       balanced_gaussian):
        # K[u] is about 3 at the node on the floor, so the reaction takes its
        # right-hand side below the floor; diffusion from its neighbours
        # lifts it, and u's own minimum accepts the step at the first try
        u = np.full(unit_grid.n_nodes, 3.0)
        u[64] = 1e-14
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=1.0)
        state = step_imex(SimState(t=0.0, u=Field(unit_grid, u)), unit_grid,
                          balanced_gaussian, cfg)
        assert state.halvings == 0
        assert state.u.values.min() > 1e-6

    @pytest.mark.parametrize("kernel", [None, "gaussian"])
    def test_solverless_steps_match_a_shared_solver(self, unit_grid,
                                                    balanced_gaussian, kernel):
        # a step without a solver builds its own; from 3 at mu = 30 and
        # dt = 0.05 the first steps halve, as in test_dt_halving_recovers
        kern = balanced_gaussian if kernel else None
        cfg = SimConfig(mu=30.0, dt=0.05, t_end=20.0)
        solver = DiffusionSolver(unit_grid)
        alone = shared = SimState(t=0.0, u=Field.constant(unit_grid, 3.0))
        halved = 0
        for _ in range(200):
            alone = step_imex(alone, unit_grid, kern, cfg)
            shared = step_imex(shared, unit_grid, kern, cfg, solver=solver)
            assert alone.t == shared.t and alone.halvings == shared.halvings
            assert np.array_equal(alone.u.values, shared.u.values)
            halved += alone.halvings
        assert alone.step == 200 and halved > 0


@pytest.fixture(scope="module")
def stiff_tophat():
    """Past the Turing onset at a step that the growing pattern cannot keep."""
    grid = build_uniform_grid((0, 5), 256)
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("tophat", 1.0), grid))
    u0 = Field.from_function(grid, lambda x: 1 + 0.01 * np.cos(7 * np.pi * x / 5))
    return grid, kern, u0, SimConfig(mu=400.0, dt=5e-3, t_end=1.0, snapshot_every=0)


class TestRunBookkeeping:
    def test_one_call_per_accepted_step(self, stiff_tophat, monkeypatch):
        # the benchmark's spans wrap these names; their counts must keep
        # meaning one step and one kernel apply per accepted step, and one
        # solve per attempt
        import sys

        import nlkpp.dynamics
        import nlkpp.kernels

        calls = dict.fromkeys(("step_imex", "apply_kernel", "solve"), 0)

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        # like the benchmark's recorder: take each original from its defining
        # module and patch every nlkpp module that binds it
        modules = [m for key, m in list(sys.modules.items())
                   if key == "nlkpp" or key.startswith("nlkpp.")]
        for owner, name in ((nlkpp.dynamics, "step_imex"),
                            (nlkpp.kernels, "apply_kernel")):
            original = getattr(owner, name)
            wrapper = counting(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
        monkeypatch.setattr(DiffusionSolver, "solve",
                            counting("solve", DiffusionSolver.solve))
        grid, kern, u0, cfg = stiff_tophat
        state, trace = run(u0, grid, kern, cfg)
        assert calls["step_imex"] == state.step
        assert len(trace) == state.step + 1
        assert calls["apply_kernel"] == trace.metadata["kernel_applications"] \
            == state.step + 1
        assert trace.metadata["steps_rejected"] > 0
        assert calls["solve"] == state.step + trace.metadata["steps_rejected"]
        assert trace.metadata["dt_min"] == pytest.approx(
            trace.column("dt_used")[1:].min())

    def test_lifted_datum_nodes_are_counted(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.02)
        values = np.full(unit_grid.n_nodes, 0.5)
        for zeros in (0, 1, 3):
            values[:zeros] = 0.0
            _, trace = run(Field(unit_grid, values), unit_grid, balanced_gaussian, cfg)
            assert trace.metadata["floor_lifted_nodes"] == zeros

    def test_steady_state_residual_of_the_final_state(self, unit_grid,
                                                      balanced_gaussian, stiff_tophat):
        one = Field.constant(unit_grid, 1.0)
        _, trace = run(one, unit_grid, balanced_gaussian,
                       SimConfig(mu=1.0, dt=1e-2, t_end=1.0))
        assert trace.metadata["steady_state_residual"] < 1e-10
        grid, kern, u0, cfg = stiff_tophat
        state, trace = run(u0, grid, kern, cfg)
        assert trace.metadata["steady_state_residual"] > 1e-2
        r = (dense_laplacian(grid) @ state.u.values
             + cfg.mu * state.u.values * (1.0 - state.ku))
        assert trace.metadata["steady_state_residual"] == pytest.approx(
            math.sqrt(r * r @ grid.weights), rel=1e-12)

    def test_local_mode_applies_no_kernel(self, unit_grid):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        _, trace = run(Field.constant(unit_grid, 0.5), unit_grid, None, cfg)
        meta = trace.metadata
        assert meta["kernel_applications"] == 0
        assert meta["local_mode"] is True
        assert (meta["kernel_apply"], meta["kernel_normalization"]) == ("none", "none")
        assert "balance_iterations" not in meta


class TestRun:
    def test_matches_hand_stepped_steps(self, stiff_tophat):
        # each hand step starts without K[u], so it recomputes what run()
        # carries forward from the step before; halvings included
        grid, kern, u0, cfg = stiff_tophat
        state, trace = run(u0, grid, kern, cfg)
        hand, times = SimState(t=0.0, u=u0, dt_next=cfg.dt), [0.0]
        while hand.t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
            hand = step_imex(SimState(hand.t, hand.u, hand.step, hand.dt_next),
                             grid, kern, cfg, max_dt=cfg.t_end - hand.t)
            times.append(hand.t)
        assert trace.metadata["steps_rejected"] > 0
        assert hand.step == state.step
        assert np.array_equal(hand.u.values, state.u.values)
        assert trace.column("t").tolist() == times

    def test_rejects_negative_initial(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        u0 = Field(unit_grid, np.linspace(-0.1, 1.0, unit_grid.n_nodes))
        with pytest.raises(ValidationError, match="negative"):
            run(u0, unit_grid, balanced_gaussian, cfg)

    def test_rejects_column_normalized_kernel(self, unit_grid):
        # w @ K = 1 does not give K[1] = 1, so u = 1 would drift
        kern = normalize_columns(sample_convolution_kernel(
            KernelProfile("gaussian", 0.2), unit_grid))
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        with pytest.raises(ValidationError, match="normalized"):
            run(Field.constant(unit_grid, 1.0), unit_grid, kern, cfg)

    def test_rejects_an_unbalanced_matrix(self, unit_grid, balanced_gaussian):
        # twice a balanced matrix would carry u = 1 away; only balancing makes
        # a kernel that run accepts
        kern = Kernel(unit_grid, 2 * balanced_gaussian.matrix)
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        with pytest.raises(ValidationError, match="normalized"):
            run(Field.constant(unit_grid, 1.0), unit_grid, kern, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_initial(self, unit_grid, balanced_gaussian, value):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        values = np.ones(unit_grid.n_nodes)
        values[3] = value
        with pytest.raises(ValidationError, match="non-finite"):
            run(Field(unit_grid, values), unit_grid, balanced_gaussian, cfg)

    def test_rejects_datum_on_another_grid(self, unit_grid, balanced_gaussian):
        # same node count, other extent: the datum must not be moved onto grid
        other = build_uniform_grid((0, 5), unit_grid.n_nodes)
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.05)
        with pytest.raises(ShapeError, match="initial datum"):
            run(Field.constant(other, 0.5), unit_grid, balanced_gaussian, cfg)

    def test_rejects_identically_zero(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=0.1)
        with pytest.raises(ValidationError, match="identically zero"):
            run(Field.constant(unit_grid, 0.0), unit_grid, balanced_gaussian, cfg)

    def test_zero_nodes_are_lifted(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=0.05)
        vals = np.ones(unit_grid.n_nodes)
        vals[::7] = 0.0
        _, trace = run(Field(unit_grid, vals), unit_grid, balanced_gaussian, cfg)
        assert np.isfinite(trace.column("V")).all()
        assert trace.column("min_u").min() > 0

    def test_steady_run_stays_put(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=10.0)
        _, trace = run(Field.constant(unit_grid, 1.0), unit_grid,
                       balanced_gaussian, cfg)
        assert trace.column("sup_dist_one")[-1] < 1e-10

    def test_zero_region_takes_full_steps_1d(self):
        # the 1D counterpart of Test2D's case: far from the step the exact
        # solution stays at the positivity floor, and no step may dip below it
        grid = build_uniform_grid((0, 50), 128)
        u0 = Field(grid, np.where(grid.nodes[:, 0] < 10, 1.0, 0.0))
        cfg = SimConfig(mu=0.0, dt=1e-2, t_end=1.0)
        state, trace = run(u0, grid, None, cfg)
        assert state.step == 100
        assert trace.metadata["steps_rejected"] == 0
        assert trace.column("min_u").min() >= cfg.positivity_floor

    def test_heat_decay_to_mean(self):
        # mu = 0: a single Neumann mode on top of a constant dies off,
        # leaving the mean value 2
        grid = build_uniform_grid((0, 1), 101)
        u0 = Field.from_function(grid, lambda x: np.cos(np.pi * x) + 2.0)
        state, _ = run(u0, grid, None, SimConfig(mu=0.0, dt=1e-2, t_end=5.0))
        assert np.max(np.abs(state.u.values - 2.0)) < 1e-3

    def test_time_grid_lands_on_t_end(self, unit_grid, balanced_gaussian):
        cfg = SimConfig(mu=1.0, dt=3e-3, t_end=0.01)  # not an integer multiple
        state, trace = run(Field.constant(unit_grid, 0.7), unit_grid,
                           balanced_gaussian, cfg)
        assert state.t == pytest.approx(0.01, rel=1e-9)
        t = trace.column("t")
        assert np.all(np.diff(t) > 0)

    def test_logistic_first_order_in_dt(self, unit_grid, balanced_gaussian):
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SimConfig(mu=1.0, dt=dt, t_end=3.0)
            _, trace = run(Field.constant(unit_grid, 0.2), unit_grid,
                           balanced_gaussian, cfg)
            t = trace.column("t")
            # constant-in-space trajectory: compare any node; use the trace
            # itself via mass on the unit interval (mass == value)
            sim = trace.column("mass")
            errs.append(np.max(np.abs(sim - logistic(t))))
        assert errs[0] / errs[1] >= 1.8

    def test_local_limit_of_narrow_kernels(self):
        grid = build_uniform_grid((0, 1), 257)
        h = grid.spacing[0]
        u0 = Field.from_function(
            grid, lambda x: 1 + 0.3 * np.cos(3 * np.pi * x) + 0.2 * np.cos(np.pi * x))
        cfg = SimConfig(mu=1.0, dt=1e-3, t_end=1.0)
        local_state, _ = run(u0, grid, None, cfg)
        diffs = []
        for mult in (8, 4):
            kern = symmetrize_and_normalize(sample_convolution_kernel(
                KernelProfile("gaussian", mult * h), grid))
            state, _ = run(u0, grid, kern, cfg)
            diffs.append(np.max(np.abs(state.u.values - local_state.u.values)))
        ratio = diffs[0] / diffs[1]  # sigma halved: O(sigma^2) means ~4
        assert 2.5 <= ratio <= 7.0


@pytest.fixture(scope="module")
def setup2d():
    grid = build_uniform_grid(((0, 1), (0, 1)), (14, 14))
    kern = symmetrize_and_normalize(sample_convolution_kernel(
        KernelProfile("gaussian", 0.25), grid))
    return grid, kern


class Test2D:
    def test_steady_state_2d(self, setup2d):
        grid, kern = setup2d
        cfg = SimConfig(mu=1.0, dt=1e-2, t_end=1.0)
        _, trace = run(Field.constant(grid, 1.0), grid, kern, cfg)
        assert trace.column("sup_dist_one")[-1] < 1e-11

    def test_mass_conservation_2d(self, setup2d, rng):
        grid, kern = setup2d
        cfg = SimConfig(mu=0.0, dt=5e-3, t_end=0.2)
        u0 = Field(grid, rng.uniform(0.5, 1.5, grid.n_nodes))
        _, trace = run(u0, grid, kern, cfg)
        mass = trace.column("mass")
        assert np.max(np.abs(np.diff(mass))) < 1e-10

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_zero_region_takes_full_steps(self, mu):
        # far from the seed the exact solution stays at the positivity floor,
        # so a solve accurate only to eps * max|rhs| would reject every step
        grid = build_uniform_grid(((0, 20), (0, 20)), (40, 40))
        kern = symmetrize_and_normalize(sample_convolution_kernel(
            KernelProfile("gaussian", 2.0), grid))
        x = grid.nodes
        u0 = Field(grid, np.where((x[:, 0] < 6) & (x[:, 1] < 8), 1.0, 0.0))
        cfg = SimConfig(mu=mu, dt=1e-2, t_end=0.1)
        state, trace = run(u0, grid, kern, cfg)
        assert state.t == pytest.approx(cfg.t_end)
        assert state.step == 10
        assert trace.column("min_u").min() >= cfg.positivity_floor
        assert np.isfinite(trace.column("V")).all()

    def test_convergence_toward_one_2d(self, setup2d, rng):
        grid, kern = setup2d
        cfg = SimConfig(mu=2.0, dt=5e-3, t_end=8.0)
        u0 = Field(grid, rng.uniform(0.5, 1.5, grid.n_nodes))
        state, trace = run(u0, grid, kern, cfg)
        assert trace.column("sup_dist_one")[-1] < 1e-3


@pytest.fixture(params=["unit_grid", "rect_2d"])
def solver_grid(request):
    if request.param == "unit_grid":
        return request.getfixturevalue("unit_grid")
    # non-square with unequal spacings, so swapped axes would show
    return build_uniform_grid(((0, 1), (0, 1.5)), (14, 17))


class TestDiffusionSolver:
    def test_solves_identity_limit(self, solver_grid, rng):
        solver = DiffusionSolver(solver_grid)
        rhs = rng.normal(size=solver_grid.n_nodes)
        for dt in (1e-300, 5e-301):
            np.testing.assert_allclose(solver.solve(rhs, dt), rhs, rtol=1e-10)

    @pytest.mark.parametrize("extents,counts", [
        ((0, 50), 128),
        (((0, 20), (0, 30)), (30, 33)),
    ], ids=["1d", "2d"])
    def test_keeps_the_minimum(self, extents, counts):
        # the discrete maximum principle, exactly: min(u) >= min(rhs)
        grid = build_uniform_grid(extents, counts)
        solver = DiffusionSolver(grid)
        x = grid.nodes
        rhs = np.where((x[:, 0] < 5) & (x[:, -1] < 9), 1.0, 1e-14)
        for dt in (1e-2, 5e-3):
            assert solver.solve(rhs, dt).min() >= 1e-14

    @pytest.mark.parametrize("extents,counts", [
        ((0, 1), 128),
        ((0, 50), 128),
        (((0, 1), (0, 1)), (16, 20)),
    ], ids=["1d_unit", "1d_wide", "2d"])
    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0, 100.0])
    def test_never_raises_v(self, extents, counts, dt, rng):
        # P = (I - dt L)^-1 is entrywise nonnegative with P1 = 1 and
        # 1^T W P = 1^T W, and V's integrand x - 1 - ln x is convex, so by
        # Jensen the diffusion substep has V(P u*) <= V(u*) for every u* > 0
        grid = build_uniform_grid(extents, counts)
        solver = DiffusionSolver(grid)
        for _ in range(50):
            u = np.exp(rng.uniform(math.log(1e-6), math.log(5.0), grid.n_nodes))
            before = lyapunov_value(Field(grid, u))
            after = lyapunov_value(Field(grid, solver.solve(u, dt)))
            assert after - before <= 1e-12 * (1.0 + before)

    def test_keeps_a_bounded_set_of_factors(self, unit_grid, rng):
        # a step that ends in StepFailure factors max_dt_halvings + 1 sizes
        solver = DiffusionSolver(unit_grid)
        rhs = rng.uniform(0.5, 2.0, unit_grid.n_nodes)
        dts = [1e-3 * (1 + k / 100) for k in range(100)]
        for dt in dts:
            solver.solve(rhs, dt)
        assert list(solver._factors) == dts[-_MAX_FACTORS:]

    def test_failed_factorization_is_numerical_error(self, solver_grid):
        # I - dt L is indefinite for dt < 0, so the Cholesky breaks down
        with pytest.raises(NumericalError, match="pbtrf"):
            DiffusionSolver(solver_grid).solve(np.ones(solver_grid.n_nodes), -1.0)

    def test_failed_solve_is_numerical_error(self, unit_grid, monkeypatch):
        solver = DiffusionSolver(unit_grid)
        monkeypatch.setattr(solver, "_pbtrs", lambda factor: -8)  # LAPACK's bad LDB
        with pytest.raises(NumericalError, match="pbtrs info -8"):
            solver.solve(np.ones(unit_grid.n_nodes), 1e-3)

    @pytest.mark.parametrize("extents,counts", [
        ((0, 1), 128),
        (((0, 1), (0, 1.5)), (14, 17)),
        (((0, 1), (0, 1)), (64, 64)),  # bandwidth 64: LAPACK's blocked factor
    ], ids=["unit_grid", "rect_2d", "64x64"])
    def test_lapack_is_scipys_bit_for_bit(self, extents, counts, rng):
        # numpy's LAPACK through ctypes, against scipy's f2py wrappers
        from scipy.linalg import get_lapack_funcs
        trf, trs = get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(1),))
        grid = build_uniform_grid(extents, counts)
        solver = DiffusionSolver(grid)
        pbtrf, _ = dynamics._banded_cholesky()
        dt = 1e-3
        for step in (dt, dt / 2, 1e4 * min(grid.spacing) ** 2):  # dt / h^2 >> 1
            expected, info = trf(solver._band(step))
            factor = solver._band(step)
            assert info == 0 and pbtrf(factor, np.empty(grid.n_nodes))[1] == 0
            assert np.array_equal(factor, expected)
            for _ in range(3):
                rhs = rng.uniform(0.5, 2.0, grid.n_nodes)
                rhs[::3] = floor = 1e-14  # nodes at the positivity floor
                x, info = trs(expected, grid.weights * (rhs - floor))
                assert info == 0
                assert np.array_equal(solver.solve(rhs, step), floor + x)

    def test_numpy_without_the_routines_is_exit_3(self, tmp_path, monkeypatch,
                                                  capsys):
        # a numpy whose library exports no dpbtrf/dpbtrs fails loudly
        monkeypatch.setattr(_openblas, "_numpy_lapack", lambda: None)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "grid": {"extents": [0.0, 1.0], "counts": 48},
            "kernel": {"family": "gaussian", "sigma": 0.2},
            "initial": {"kind": "constant", "value": 0.2},
            "sim": {"mu": 1.0, "dt": 1e-3, "t_end": 0.02}}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "dpbtrf" in err and np.linalg._umath_linalg.__file__ in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("r", [0.25, 32.0, 1e4])
    def test_1d_matches_solve_banded(self, unit_grid, rng, r):
        # r = dt / h^2 (ensemble runs sit at r = 32); every node, the ones at
        # 1e-14 included, agrees with an LU solve of I - dt L to its own size
        from scipy.linalg import solve_banded
        solver = DiffusionSolver(unit_grid)
        dt = r * unit_grid.spacing[0] ** 2
        rhs = rng.uniform(0.5, 2.0, unit_grid.n_nodes)
        rhs[::3] = 1e-14 * rng.uniform(1.0, 1.01, rhs[::3].size)
        kept = rhs.copy()
        for step in (dt, dt / 2, dt):
            a = np.eye(unit_grid.n_nodes) - step * dense_laplacian(unit_grid)
            band = np.stack([np.r_[0, a.diagonal(1)], a.diagonal(),
                             np.r_[a.diagonal(-1), 0]])
            expected = solve_banded((1, 1), band, rhs)
            u = solver.solve(rhs, step)
            assert np.all(np.abs(u - expected) <= 1e-12 * np.abs(expected))
        assert np.array_equal(rhs, kept)

    def test_matches_sparse_solve(self, solver_grid, rng):
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import spsolve
        # one solver at dt and at dt / 2, as a rejected step uses it
        solver = DiffusionSolver(solver_grid)
        rhs = rng.uniform(0.5, 2.0, solver_grid.n_nodes)
        for dt in (7e-3, 3.5e-3):
            A = np.eye(solver_grid.n_nodes) - dt * dense_laplacian(solver_grid)
            exact = spsolve(csr_matrix(A), rhs)
            assert np.max(np.abs(solver.solve(rhs, dt) - exact)) < 1e-12
