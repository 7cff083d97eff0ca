"""Print the Gauss-Legendre nodes the state-sized rule picks for the Galerkin
projection of each catalog reaction, and how far that grid is from 1024 nodes.

Usage: python scripts/quadrature_table.py [--levels 1 2 3] [--max-radius 32]

One line per (reaction, level, radius class bound R = 1, 2, 4, ..., max-radius):
the nodes fields.galerkin_nodes picks, and the largest miss of the components
and of div F against a 1024-node rule, each relative to its largest magnitude,
at 64 states of norm R and 64 of norm 3R/4, away from the rule's
own probe states. The written-out formula here is independent of the one the
field evaluates. A line marked "cap" is a class where no rung below the
largest met the rule's tolerance, so the largest is used without a check.
"""

import argparse

import numpy as np

from refflow import catalog, fields
from refflow.rng import stream
from refflow.spectral import NODE_LADDER, NODE_RTOL, Grid, basis_matrix, eigenvalue

REFERENCE_NODES = 1024


def projection(reaction, level, grid, X):
    """(components, div F) of the level-`level` projection on grid, written out."""
    E = basis_matrix(level, grid)
    inv_alpha = 1.0 / eigenvalue(np.arange(1, level + 1))
    U = X @ E
    rows = ((reaction.fn(U) * grid.weights) @ E.T) * inv_alpha
    div = ((reaction.deriv(U) * grid.weights) @ (E ** 2).T) @ inv_alpha
    return rows, div


def states(level, radius):
    """64 directions, from a stream of their own, at norms radius and 3 radius / 4."""
    d = stream(0, "quadrature-table", level).normal(size=(64, level))
    d /= np.sqrt((d ** 2).sum(axis=1, keepdims=True))
    return np.concatenate([radius * d, 0.75 * radius * d])


def miss(reaction, level, n, radius):
    X = states(level, radius)
    got = projection(reaction, level, Grid.gauss_legendre(n), X)
    want = projection(reaction, level, Grid.gauss_legendre(REFERENCE_NODES), X)
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b))) for a, b in zip(got, want))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--max-radius", type=int, default=32)
    args = ap.parse_args(argv)
    print(f"rule: fewest of {NODE_LADDER[:-1]} nodes within {NODE_RTOL:g} of the rung two steps up")
    print(f"{'reaction':<12}{'level':>6}{'R':>5}{'nodes':>7}  miss vs {REFERENCE_NODES}")
    for name, entry in catalog.SCALAR_REACTIONS.items():
        reaction = entry.build()
        for level in args.levels:
            radius = 1
            while radius <= args.max_radius:
                n = fields.galerkin_nodes(reaction, level, float(radius))
                cap = "  cap" if n == NODE_LADDER[-2] else ""
                print(f"{name:<12}{level:>6}{radius:>5}{n:>7}  {miss(reaction, level, n, float(radius)):.1e}{cap}")
                radius *= 2


if __name__ == "__main__":
    main()
