"""Uniform grids on intervals and rectangles.

A :class:`Grid` carries node coordinates, spacing, and composite-trapezoid
quadrature weights; a :class:`Field` is one real value per node. The discrete
Laplacian uses ghost-node reflection at the boundary, which is the
second-order realization of a homogeneous Neumann condition and makes the
operator self-adjoint in the weighted inner product and exactly flux-free:
both properties are what the Lyapunov bookkeeping in :mod:`nlkpp.diagnostics`
relies on.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

Extents = tuple[tuple[float, float], ...]


def _normalize_extents(extents) -> Extents:
    try:
        arr = np.asarray(extents, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric: fails the shape test
        arr = np.empty(0)
    if arr.shape == (2,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] not in (1, 2):
        raise ValidationError(
            f"extents must be (lo, hi) or one/two (lo, hi) pairs, got {extents!r}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"extents must be finite, got {extents!r}")
    return tuple((float(lo), float(hi)) for lo, hi in arr)


def _normalize_counts(counts, dim: int) -> tuple[int, ...]:
    if np.isscalar(counts):
        counts = (counts,)
    try:
        counts = tuple(operator.index(n) for n in counts)
    except TypeError:
        raise ValidationError(f"counts must be integers, got {counts!r}") from None
    if len(counts) != dim:
        raise ValidationError(
            f"counts has {len(counts)} entries for a {dim}-dimensional domain")
    return counts


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor-product grid with per-node trapezoid quadrature weights.

    Nodes are stored in row-major order (the first axis varies slowest).
    Instances are immutable and safe to share across threads.
    """

    extents: Extents
    counts: tuple[int, ...]
    spacing: tuple[float, ...]
    nodes: np.ndarray  # (n_nodes, dim)
    weights: np.ndarray  # (n_nodes,)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    def axis_weights(self, axis: int) -> np.ndarray:
        return _trapezoid_weights(self.counts[axis], self.spacing[axis])

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, np.ndarray], ...]:
        """The Neumann stencil as edges between neighbours, one ``(stride,
        conductance)`` pair per axis: node j joins node j - stride with
        conductance[j] = (product of the other axes' weights) / h, 0 where j
        is first along the axis. With G their graph Laplacian, W L = -G."""
        edges = []
        for axis, h in enumerate(self.spacing):
            factors = [np.ones(n) if b == axis else self.axis_weights(b)
                       for b, n in enumerate(self.counts)]
            c = functools.reduce(np.multiply.outer, factors) / h
            np.moveaxis(c, axis, 0)[0] = 0.0
            c = c.ravel()
            c.setflags(write=False)
            edges.append((math.prod(self.counts[axis + 1:]), c))
        return tuple(edges)

    def same_layout(self, other: "Grid") -> bool:
        return self.counts == other.counts and self.extents == other.extents

    def __repr__(self) -> str:  # arrays are noise in test output
        return f"Grid(extents={self.extents}, counts={self.counts})"


def build_uniform_grid(extents, counts) -> Grid:
    """Build a uniform grid on an interval or axis-aligned rectangle.

    ``extents`` is ``(lo, hi)`` in 1D or a pair of such tuples in 2D;
    ``counts`` gives at least 3 nodes per axis.
    """
    ext = _normalize_extents(extents)
    cts = _normalize_counts(counts, len(ext))
    for ax, ((lo, hi), n) in enumerate(zip(ext, cts)):
        if n < 3:
            raise ValidationError(f"axis {ax}: need at least 3 nodes, got {n}")
        if not hi > lo:
            raise ValidationError(f"axis {ax}: degenerate extent ({lo}, {hi})")
    spacing = tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(ext, cts))
    for ax, h in enumerate(spacing):
        if not (0 < h < math.inf and (1 / h) * (1 / h) < math.inf):  # L holds 1/h^2
            raise ValidationError(
                f"grid.extents axis {ax}: {ext[ax]} over {cts[ax]} nodes gives "
                f"spacing {h:.3g}; the width and 1/spacing^2 must be finite")
    if not math.prod(spacing) < math.inf:  # an interior node's trapezoid weight
        raise ValidationError(
            f"grid.extents {ext} over {cts} nodes gives a cell area that "
            "overflows; the trapezoid weights must be finite")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(ext, cts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    weights = _trapezoid_weights(cts[0], spacing[0])
    for ax in range(1, len(cts)):
        weights = np.outer(weights, _trapezoid_weights(cts[ax], spacing[ax])).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(ext, cts, spacing, nodes, weights)


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar nodal values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = self.values
        if not (type(values) is np.ndarray and values.ndim == 1
                and values.dtype == np.float64):
            values = np.asarray(values, dtype=float).ravel()
            object.__setattr__(self, "values", values)
        if values.size != self.grid.n_nodes:
            raise ShapeError(
                f"field has {values.size} values for a grid with "
                f"{self.grid.n_nodes} nodes")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, func) -> "Field":
        """Evaluate ``func`` on node coordinates (one array argument per axis)."""
        return cls(grid, np.asarray(func(*grid.nodes.T), dtype=float))

    def __repr__(self) -> str:
        return f"Field(n={self.values.size}, min={self.values.min():.4g}, max={self.values.max():.4g})"


def integrate(field: Field) -> float:
    """Quadrature of the field over the domain: sum of weight * value."""
    return float(field.grid.weights @ field.values)

