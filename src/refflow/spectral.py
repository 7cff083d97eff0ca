"""Dirichlet sine eigenbasis on (0,1), quadrature grids, synthesis.

Coefficient vectors are plain numpy arrays with the mode index on the last
axis, so batched points have shape (npts, n_modes). The basis is
e_j(xi) = sqrt(2) sin(j pi xi) with -e_j'' = alpha_j e_j, alpha_j = (pi j)^2,
orthonormal in L2(0,1).

A quadrature rule sized by the state: fewest_nodes picks, for the states of
one radius class, the fewest Gauss-Legendre nodes on which an integrand's
values agree with a finer rule.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import stream

# the Gauss-Legendre node counts fewest_nodes picks from: rung i is judged
# against rung i + 2, never against a fixed fine rule (building 1024 nodes
# costs 0.12 s and 14 MB), so the last rung is only a reference and the one
# before it is the cap
NODE_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024)
# a rung is accepted when each value array agrees with the rung two steps up
# to this fraction of that array's largest magnitude
NODE_RTOL = 1e-13
# unit directions of the probe states of a rule in two or more coordinates
N_PROBE_DIRECTIONS = 32


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class InvalidIndexError(ValueError):
    pass


class InvalidDataError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Quadrature rule on (0,1): nodes, weights summing to 1, a rule tag; it keeps its bases."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: str = "gauss-legendre"

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise InvalidDataError("grid nodes and weights must be 1-d and match")
        if np.any(self.weights <= 0):
            raise InvalidDataError("grid weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise InvalidDataError("grid weights must sum to the interval length 1")
        object.__setattr__(self, "_bases", {})

    @classmethod
    def gauss_legendre(cls, n):
        x, w = _leggauss(n)
        return cls(nodes=(x + 1.0) / 2.0, weights=w / 2.0, rule="gauss-legendre")

    @classmethod
    def midpoint(cls, n):
        h = 1.0 / n
        return cls(nodes=h * (np.arange(n) + 0.5), weights=np.full(n, h), rule="uniform-midpoint")

    @property
    def n_nodes(self):
        return len(self.nodes)


@lru_cache(maxsize=None)
def exact_midpoint_grid(degree):
    """The fewest midpoint nodes on (0,1) that integrate every cosine
    polynomial of degree <= degree in pi xi exactly: degree // 2 + 1.

    m midpoint nodes sum cos(k pi xi) to exactly 0 for 0 < k < 2m. The grid is
    shared by every caller, so its arrays are read-only.
    """
    grid = Grid.midpoint(degree // 2 + 1)
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def simpson_weights(n):
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on n + 1 equispaced
    nodes, n even, without the factor h/3."""
    if n < 2 or n % 2:
        raise ValueError(f"composite Simpson needs an even number of intervals, got {n}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def eigenvalue(j):
    """alpha_j = pi^2 j^2 of the Dirichlet Laplacian mode j >= 1."""
    if np.any(np.asarray(j) < 1):
        raise InvalidIndexError(f"eigenfunction index must be >= 1, got {j}")
    return (np.pi * np.asarray(j, dtype=float)) ** 2


def basis_matrix(n_modes, grid):
    """Matrix E with rows e_1..e_N evaluated on the grid nodes, shape (N, n_nodes);
    built once per grid and mode count, and kept read-only with the grid."""
    mat = grid._bases.get(n_modes)
    if mat is None:
        js = np.arange(1, n_modes + 1)
        mat = np.sqrt(2.0) * np.sin(np.outer(js, np.pi * grid.nodes))
        mat.setflags(write=False)
        grid._bases[n_modes] = mat
    return mat


def synthesize(coeffs, grid):
    """Grid values of sum_j a_j e_j; batched on leading axes."""
    coeffs = np.asarray(coeffs, dtype=float)
    E = basis_matrix(coeffs.shape[-1], grid)
    return coeffs @ E


def radius_class(sq_norms):
    """The radius class k >= 0 of states with squared norms sq_norms: the
    classes are (0, 1], (1, 2], (2, 4], ..., class k the one bounded by 2^k."""
    return np.ceil(0.5 * np.log2(np.maximum(sq_norms, 1.0))).astype(np.intp)


def probe_states(dim, radius):
    """The fixed states of norm `radius` in dim coordinates that fewest_nodes
    judges a rule at: +radius and -radius in one coordinate, else
    N_PROBE_DIRECTIONS unit directions, drawn from a stream of fixed labels
    (never a run's), scaled by radius."""
    if dim == 1:
        return np.array([[radius], [-radius]], dtype=float)
    d = stream(0, "spectral", "probe-directions", dim).normal(size=(N_PROBE_DIRECTIONS, dim))
    return radius * d / np.sqrt((d ** 2).sum(axis=1, keepdims=True))


def fewest_nodes(values, dim, radius):
    """The fewest Gauss-Legendre nodes of NODE_LADDER for an integrand at state
    radius `radius`, or the cap NODE_LADDER[-2] if no rung passes.

    values(grid, X) gives the integrand's value arrays (a sequence) on grid at
    the states X; a rung passes when, at probe_states(dim, radius), each array
    is within NODE_RTOL of its largest magnitude on the rung two steps up.
    """
    X = probe_states(dim, radius)
    got = {}

    def at(n):
        if n not in got:
            got[n] = values(Grid.gauss_legendre(n), X)
        return got[n]

    for n, finer in zip(NODE_LADDER[:-2], NODE_LADDER[2:]):
        if all(np.max(np.abs(a - b)) <= NODE_RTOL * np.max(np.abs(b)) for a, b in zip(at(n), at(finer))):
            return n
    return NODE_LADDER[-2]
