"""Uniform 1D grids, nodal fields, and the discrete difference operators.

All unknowns live on interior nodes; homogeneous Dirichlet values are
implied at both ends.  The fourth-order capillarity operator,
`biharmonic_band`, also enforces a zero first derivative there
(ghost-node reflection) in its own stencil.

Inner products are h-weighted throughout: <u, v>_h = h * sum(u_i v_i).
With that convention the plain matrix transpose is the adjoint for every
operator mapping nodal vectors to nodal or edge vectors, since the h
factors on both sides cancel.

The discrete gradient is `ForwardDifference`, an O(m) operator (`D @ u`,
`D.T @ p`, and the band of D^T diag(w) D); with `biharmonic_band`, the
clamped fourth difference in closed form, it gives every operator of the
models in band form.  The lowest Dirichlet eigenpair, the p2/linear_wave
initial mode, is known in closed form (`dirichlet_mode`).  The one dense
matrix, `laplacian_matrix`, serves `ProblemSpec`'s spectral constants only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid with spacing h and homogeneous Dirichlet ends.

    n_nodes counts all nodes including the two boundary nodes; operators
    and fields act on the n_nodes - 2 interior unknowns.
    """

    n_nodes: int
    h: float

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ConfigError(f"n_nodes must be >= 3, got {self.n_nodes}")
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ConfigError(f"grid spacing must be positive, got {self.h}")

    @property
    def n_interior(self) -> int:
        return self.n_nodes - 2

    @property
    def length(self) -> float:
        return (self.n_nodes - 1) * self.h

    @property
    def interior_x(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_nodes - 1)


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
    """The forward-difference operator D from the m interior nodes to the
    m + 1 edges, applied in O(m): edge e holds (u_e - u_{e-1})/h on the
    padded vector, so the implicit zero boundary values enter the first and
    last edge.

    `D @ u` maps m nodal values to m + 1 edge values, `D.T @ p` is the
    adjoint, (p_i - p_{i+1})/h, and `gram_band(w)` the upper band form of
    D^T diag(w) D.
    """

    def __init__(self, m: int, h: float):
        self.m = m
        self.inv_h = 1.0 / h
        # Both products are one np.correlate with the two-point stencil
        # (-1/h, 1/h): a single C call, no slower than the dense product
        # on the smallest grids.  The entries are +-1/h, so a power-of-two
        # h gives the dense matrix's products bit for bit.
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


def biharmonic_band(grid: SpatialGrid) -> np.ndarray:
    """Upper band form (bandwidth 2) of the clamped fourth difference
    D2^T D2, with D2 the second difference at every node and the ghost
    reflection u_{-1} = u_1, u_n = u_{n-2} for u = u' = 0 at both ends:
    6/h^4 on the diagonal (9/h^4 at both ends, 12/h^4 for one unknown),
    -4/h^4 on the first off-diagonal and 1/h^4 on the second."""
    m = grid.n_interior
    c = (1.0 / grid.h**2) ** 2
    band = np.array([np.full(m, c), np.full(m, -4.0 * c), np.full(m, 6.0 * c)])
    band[0, :2] = band[1, 0] = 0.0
    band[2, [0, -1]] = 9.0 * c if m > 1 else 12.0 * c
    return band


def laplacian_band(grid: SpatialGrid) -> np.ndarray:
    """Upper band form of the Dirichlet -d^2/dx^2, D^T D with the
    (-1, 2, -1)/h^2 stencil."""
    m = grid.n_interior
    return ForwardDifference(m, grid.h).gram_band(np.ones(m + 1))


def laplacian_matrix(grid: SpatialGrid) -> np.ndarray:
    """D^T D as a dense matrix, for the eigensolvers of the spectral
    constants."""
    band = laplacian_band(grid)
    return np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[0, 1:], -1)


def dirichlet_mode(grid: SpatialGrid) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and h-normalized, positive eigenvector of the
    Dirichlet D^T D on a uniform grid of length L (LeVeque, *Finite
    Difference Methods for ODEs and PDEs*, SIAM 2007, sec. 2.10):
    lam1 = (4/h^2) sin^2(pi h/(2L)) and phi1_i = sqrt(2/L) sin(pi x_i/L)."""
    h, big_l = grid.h, grid.length
    lam1 = (2.0 / h * np.sin(0.5 * np.pi * h / big_l)) ** 2
    phi1 = np.sqrt(2.0 / big_l) * np.sin(np.pi * grid.interior_x / big_l)
    return float(lam1), phi1


def edge_average(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Interpolate interior nodal values to edge midpoints (Dirichlet padding)."""
    padded = np.zeros(grid.n_nodes)
    padded[1:-1] = values
    return 0.5 * (padded[:-1] + padded[1:])


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
