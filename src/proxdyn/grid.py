"""Uniform 1D grids, nodal fields, and the discrete difference operators.

All unknowns live on interior nodes; homogeneous Dirichlet values are
implied at both ends.  The clamped variant additionally enforces a zero
first derivative at the boundary (ghost-node reflection), which is what
the fourth-order capillarity operator needs.

Inner products are h-weighted throughout: <u, v>_h = h * sum(u_i v_i).
With that convention the plain matrix transpose is the adjoint for every
operator mapping nodal vectors to nodal or edge vectors, since the h
factors on both sides cancel.

The stepping applies the discrete gradient as `ForwardDifference`, an
O(m) operator (`D @ u`, `D.T @ p`, and the band of D^T diag(w) D); the
dense builders below (`gradient_matrix` and the matrices made from it)
serve the model assembly only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError

BoundaryCondition = Literal["dirichlet0", "dirichlet0_clamped"]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid with spacing h and homogeneous Dirichlet ends.

    n_nodes counts all nodes including the two boundary nodes; operators
    and fields act on the n_nodes - 2 interior unknowns.
    """

    n_nodes: int
    h: float
    bc: BoundaryCondition = "dirichlet0"

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ConfigError(f"n_nodes must be >= 3, got {self.n_nodes}")
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ConfigError(f"grid spacing must be positive, got {self.h}")
        if self.bc not in ("dirichlet0", "dirichlet0_clamped"):
            raise ConfigError(f"unknown boundary condition tag {self.bc!r}")

    @property
    def n_interior(self) -> int:
        return self.n_nodes - 2

    @property
    def length(self) -> float:
        return (self.n_nodes - 1) * self.h

    @property
    def interior_x(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_nodes - 1)

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.n_nodes)


@dataclass(frozen=True)
class Field:
    """Real nodal vector over the interior nodes of a grid."""

    values: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_interior,):
            raise ConfigError(
                f"field has {v.shape} values, grid expects ({self.grid.n_interior},)"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("field contains non-finite entries")

    def padded(self) -> np.ndarray:
        """Nodal values on all nodes, boundary zeros included."""
        out = np.zeros(self.grid.n_nodes)
        out[1:-1] = self.values
        return out


def h_inner(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """h-weighted Euclidean pairing; works for nodal and edge vectors alike."""
    return float(h * np.dot(a, b))


def h_norm(a: np.ndarray, h: float) -> float:
    """|a|_h = sqrt(h * sum a_i^2), the discrete L2 norm."""
    return float(np.sqrt(h * np.dot(a, a)))


def q_norm(a: np.ndarray, h: float, q: float) -> float:
    """||a||_{q,h} = (h * sum |a_i|^q)^(1/q)."""
    return float((h * np.sum(np.abs(a) ** q)) ** (1.0 / q))


class ForwardDifference:
    """The forward-difference operator D of `gradient_matrix`, applied in
    O(m): edge e holds (u_e - u_{e-1})/h on the padded vector, so the
    implicit zero boundary values enter the first and last edge.

    `D @ u` maps m nodal values to m + 1 edge values, `D.T @ p` is the
    adjoint, (p_i - p_{i+1})/h, and `gram_band(w)` the upper band form of
    D^T diag(w) D.
    """

    def __init__(self, m: int, h: float):
        self.m = m
        self.inv_h = 1.0 / h
        # Both products are one np.correlate with the two-point stencil
        # (-1/h, 1/h): a single C call, no slower than the dense product
        # on the smallest grids.  The entries are gradient_matrix's, so a
        # power-of-two h gives its products bit for bit.
        self._stencil = np.array([-self.inv_h, self.inv_h])
        self.T = _Adjoint(self._stencil[::-1].copy())

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return np.correlate(u, self._stencil, "full")

    def gram_band(self, w) -> np.ndarray:
        """Upper band form (bandwidth 1) of the tridiagonal D^T diag(w) D:
        (w_e + w_{e+1})/h^2 on the diagonal, -w_e/h^2 beside it."""
        w = np.asarray(w, dtype=float)
        inv2 = self.inv_h**2
        band = np.empty((2, self.m))
        band[0, 0] = 0.0
        band[0, 1:] = -w[1:-1] * inv2
        band[1] = (w[:-1] + w[1:]) * inv2
        return band


class _Adjoint:
    """D.T of a `ForwardDifference` D, so that `D.T @ p` reads as for a
    matrix: (p_i - p_{i+1})/h, the reversed stencil over the m + 1 edges."""

    def __init__(self, stencil: np.ndarray):
        self._stencil = stencil

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        return np.correlate(p, self._stencil, "valid")


def gradient_matrix(grid: SpatialGrid) -> np.ndarray:
    """Forward-difference operator D from interior nodes to the m+1 edges.

    Edge e sits between nodes e and e+1 of the padded vector, so the
    boundary zeros contribute to the first and last edge.
    """
    m = grid.n_interior
    d = np.zeros((m + 1, m))
    inv = 1.0 / grid.h
    for e in range(m + 1):
        if e - 1 >= 0:
            d[e, e - 1] -= inv
        if e < m:
            d[e, e] += inv
    return d


def laplacian_matrix(grid: SpatialGrid) -> np.ndarray:
    """Discrete -d^2/dx^2 with Dirichlet ends: D^T D, the (-1, 2, -1)/h^2 stencil."""
    d = gradient_matrix(grid)
    return d.T @ d


def stiffness_matrix(grid: SpatialGrid, edge_coeff: np.ndarray) -> np.ndarray:
    """Discrete -d/dx (a(x) d/dx .) with coefficients given per edge."""
    d = gradient_matrix(grid)
    a = np.asarray(edge_coeff, dtype=float)
    if a.shape != (grid.n_interior + 1,):
        raise ConfigError("edge coefficient vector must have one entry per edge")
    return d.T @ (a[:, None] * d)


def second_diff_clamped(grid: SpatialGrid) -> np.ndarray:
    """Second-difference operator for clamped ends (u = u' = 0 at the boundary).

    Returns the (m+2) x m map from interior unknowns to second differences
    at every node; the zero boundary values and ghost reflection
    u_{-1} = u_1, u_{n} = u_{n-2} encode the clamping.
    """
    m = grid.n_interior
    n = m + 2
    d2 = np.zeros((n, m))
    inv2 = 1.0 / grid.h**2
    for i in range(n):
        for j, w in ((i - 1, 1.0), (i, -2.0), (i + 1, 1.0)):
            jj = j
            if jj == -1:
                jj = 1
            elif jj == n:
                jj = n - 2
            if 1 <= jj <= m:
                d2[i, jj - 1] += w * inv2
    return d2


def biharmonic_clamped(grid: SpatialGrid) -> np.ndarray:
    """Fourth-difference operator D2^T D2 for clamped boundary conditions."""
    d2 = second_diff_clamped(grid)
    return d2.T @ d2


def edge_average(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Interpolate interior nodal values to edge midpoints (Dirichlet padding)."""
    padded = np.zeros(grid.n_nodes)
    padded[1:-1] = values
    return 0.5 * (padded[:-1] + padded[1:])


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense; desk-scale grids)."""
    return float(np.linalg.eigvalsh(mat)[0])


def operator_norm(mat: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix."""
    w = np.linalg.eigvalsh(mat)
    return float(max(abs(w[0]), abs(w[-1])))


def first_eigenpair(mat: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and h-normalized eigenvector of a symmetric matrix."""
    w, v = np.linalg.eigh(mat)
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    vec = vec / np.sqrt(h * np.dot(vec, vec))
    return float(w[0]), vec
