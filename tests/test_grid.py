import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkpp import (Field, ShapeError, ValidationError, build_uniform_grid,
                   integrate, linearization_matrix)


def laplacian(grid):
    """The program's own Laplacian: the linearization in local mode at mu = 0."""
    return linearization_matrix(grid, None, 0.0)


class TestBuildUniformGrid:
    def test_interval_spacing_and_weights(self):
        grid = build_uniform_grid((0, 1), 5)
        assert grid.spacing == (0.25,)
        np.testing.assert_allclose(grid.weights,
                                   [0.125, 0.25, 0.25, 0.25, 0.125], atol=0)

    def test_unit_square_weight_sum(self):
        grid = build_uniform_grid(((0, 1), (0, 1)), (3, 3))
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_interval_weight_sum_matches_length(self):
        grid = build_uniform_grid((0, 2), 9)
        assert grid.weights.sum() == pytest.approx(2.0, abs=1e-15)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValidationError, match="at least 3"):
            build_uniform_grid((0, 1), 2)

    def test_rejects_degenerate_extents(self):
        with pytest.raises(ValidationError, match="degenerate"):
            build_uniform_grid((1, 1), 5)
        with pytest.raises(ValidationError, match="degenerate"):
            build_uniform_grid((2, 1), 5)

    @pytest.mark.parametrize("counts", [3.7, 3.0, "5", (4, 4.5)],
                             ids=["3.7", "3.0", "str", "pair"])
    def test_rejects_non_integer_counts(self, counts):
        extents = (0, 1) if np.isscalar(counts) else ((0, 1), (0, 1))
        with pytest.raises(ValidationError, match="integers"):
            build_uniform_grid(extents, counts)

    @pytest.mark.parametrize("extents", [((0, 1), (0,)), ("lo", "hi"), (0, 1, 2)],
                             ids=["ragged", "text", "triple"])
    def test_rejects_malformed_extents(self, extents):
        with pytest.raises(ValidationError, match=r"one/two \(lo, hi\) pairs"):
            build_uniform_grid(extents, 5)

    def test_counts_must_match_the_dimension(self):
        with pytest.raises(ValidationError, match="2 entries for a 1-dimensional"):
            build_uniform_grid((0, 1), (5, 5))

    @pytest.mark.parametrize("extents,counts", [
        ((0, np.inf), 5), ((np.nan, 1), 5), (((0, 1), (-np.inf, 0)), (5, 5)),
    ], ids=["inf", "nan", "2d"])
    def test_rejects_non_finite_extents(self, extents, counts):
        with pytest.raises(ValidationError, match="finite"):
            build_uniform_grid(extents, counts)

    @given(n=st.integers(3, 60), lo=st.floats(-5, 5),
           width=st.floats(0.01, 10))
    def test_weights_positive_and_sum_to_measure(self, n, lo, width):
        grid = build_uniform_grid((lo, lo + width), n)
        assert np.all(grid.weights > 0)
        assert grid.weights.sum() == pytest.approx(width, rel=1e-12)

    @given(n0=st.integers(3, 12), n1=st.integers(3, 12),
           w0=st.floats(0.1, 4), w1=st.floats(0.1, 4))
    def test_2d_weights_sum_to_area(self, n0, n1, w0, w1):
        grid = build_uniform_grid(((0, w0), (-1, -1 + w1)), (n0, n1))
        assert grid.weights.sum() == pytest.approx(w0 * w1, rel=1e-12)
        assert grid.n_nodes == n0 * n1


class TestField:
    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(ShapeError):
            Field(unit_grid, np.ones(7))

    def test_from_function(self):
        grid = build_uniform_grid((0, 1), 11)
        f = Field.from_function(grid, lambda x: x**2)
        assert f.values[5] == pytest.approx(0.25)


class TestIntegrate:
    def test_constant(self):
        grid = build_uniform_grid((0, 1), 5)
        assert integrate(Field.constant(grid, 2.0)) == pytest.approx(2.0, abs=1e-15)

    def test_zero(self):
        grid = build_uniform_grid((0, 1), 5)
        assert integrate(Field.constant(grid, 0.0)) == 0.0

    def test_affine_is_exact(self):
        # trapezoid sums affine integrands exactly: integral of x on [0,1] is 1/2
        grid = build_uniform_grid((0, 1), 101)
        f = Field.from_function(grid, lambda x: x)
        assert integrate(f) == pytest.approx(0.5, abs=1e-14)


class TestNeumannLaplacian:
    def test_constant_maps_to_zero(self, unit_grid):
        lap = laplacian(unit_grid) @ np.full(unit_grid.n_nodes, 3.7)
        np.testing.assert_allclose(lap, 0.0, atol=1e-11)

    def test_quadratic_interior_exact(self):
        grid = build_uniform_grid((0, 1), 21)
        lap = laplacian(grid) @ grid.nodes[:, 0] ** 2
        np.testing.assert_allclose(lap[1:-1], 2.0, atol=1e-10)

    def test_cosine_eigenfunction(self):
        grid = build_uniform_grid((0, 1), 201)
        x = grid.nodes[:, 0]
        lap = laplacian(grid) @ np.cos(np.pi * x)
        err = np.max(np.abs(lap + np.pi**2 * np.cos(np.pi * x)))
        assert err < 1e-3

    def test_second_order_convergence(self):
        errs = []
        for n in (101, 201):
            grid = build_uniform_grid((0, 1), n)
            x = grid.nodes[:, 0]
            lap = laplacian(grid) @ np.cos(np.pi * x)
            errs.append(np.max(np.abs(lap + np.pi**2 * np.cos(np.pi * x))))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_2d_additivity(self):
        grid = build_uniform_grid(((0, 1), (0, 2)), (17, 23))
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        u = np.cos(np.pi * x) * np.cos(np.pi * y / 2)
        lap = laplacian(grid) @ u
        exact = -(np.pi**2 + (np.pi / 2) ** 2) * u
        assert np.max(np.abs(lap - exact)) < 5e-3 * np.max(np.abs(exact))


class TestLaplacianMatrix:
    def test_three_node_stencil(self):
        grid = build_uniform_grid((0, 1), 3)
        L = laplacian(grid)
        h2 = 0.5**2
        expected = np.array([[-2, 2, 0], [1, -2, 1], [0, 2, -2]]) / h2
        np.testing.assert_allclose(L, expected, atol=0)

    def test_row_sums_vanish(self, unit_grid):
        L = laplacian(unit_grid)
        np.testing.assert_allclose(L @ np.ones(unit_grid.n_nodes), 0.0, atol=1e-9)

    @given(n=st.integers(3, 40), lo=st.floats(-2, 2), width=st.floats(0.1, 5))
    @settings(max_examples=30)
    def test_weighted_symmetry(self, n, lo, width):
        grid = build_uniform_grid((lo, lo + width), n)
        L = laplacian(grid)
        WL = grid.weights[:, None] * L
        scale = np.max(np.abs(WL))
        assert np.max(np.abs(WL - WL.T)) <= 1e-13 * scale

    def test_weighted_symmetry_2d(self):
        grid = build_uniform_grid(((0, 1), (0, 0.5)), (9, 7))
        L = laplacian(grid)
        WL = grid.weights[:, None] * L
        assert np.max(np.abs(WL - WL.T)) <= 1e-13 * np.max(np.abs(WL))

    @pytest.mark.parametrize("grid", [build_uniform_grid((-1, 2), 40),
                                      build_uniform_grid(((0, 1), (0, 0.5)), (9, 7))],
                             ids=["1d", "2d"])
    def test_summation_by_parts_on_the_edges(self, grid, rng):
        f = rng.uniform(-1, 1, grid.n_nodes)
        edge_sum = sum(float(c[stride:] @ (f[stride:] - f[:-stride]) ** 2)
                       for stride, c in grid.edges)
        form = -float((grid.weights * f) @ (laplacian(grid) @ f))
        assert edge_sum == pytest.approx(form, rel=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_negative_semidefinite_and_mass_free(self, seed, unit_grid):
        f = np.random.default_rng(seed).uniform(-1, 1, unit_grid.n_nodes)
        Lf = laplacian(unit_grid) @ f
        norm2 = float(f @ f)
        assert float(unit_grid.weights @ (f * Lf)) <= 1e-10 * norm2
        assert abs(float(unit_grid.weights @ Lf)) <= 1e-10 * np.sqrt(norm2)
