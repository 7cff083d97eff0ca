"""Test oracles built on the program's own kernels: a two-point
characteristic flow, linear fields, the product rule of D*, and the
per-component field formulas that one field evaluation must reproduce.
"""

import math
from collections import namedtuple

import numpy as np

from refflow import transport
from refflow.fields import CylindricalField, dstar
from refflow.spectral import Grid, basis_matrix, eigenvalue

# one component of a field as plain functions: its value f_i(t, X) (npts,),
# its gradient (npts, k) in the field's k coordinates, and sup |f_i|
Component = namedtuple("Component", "value grad bound", defaults=(np.inf,))


def flow(field, s, t, x, config):
    """Solution at time t of dz/du = F(u,z), z(s) = x, by transport's own
    step. Handles t < s too."""
    Z = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    squeeze = np.asarray(x).ndim == 1
    n = config.n_steps(abs(t - s))
    h = math.copysign(config.dt_ode, t - s) if n else 0.0
    u = s
    for _ in range(n):
        Z = transport._step(field, u, Z, h, field.value(u, Z))
        u += h
    return Z[0] if squeeze else Z


def linear_field(B, name="linear", bound=np.inf):
    """F(x) = Bx restricted to the first k coordinates."""
    B = np.asarray(B, dtype=float)
    k = B.shape[0]
    return oracle_field(
        (
            Component(
                value=lambda t, X, row=B[i]: X[:, :k] @ row,
                grad=lambda t, X, row=B[i]: np.broadcast_to(row, (X.shape[0], k)),
                bound=bound,
            )
            for i in range(k)
        ),
        name=name,
    )


def dstar_product_rule_check(components, phi, beta_oracle, X, t=0.0):
    """Max residual of D*(phi F) = phi D*F - <D phi, F> over the sample X,
    for the field F of the component functions `components`.

    phi is a Cylinder (value + gradient) in at least n_components coords.
    The left side is evaluated through an independently assembled product
    field so the two routes share no intermediate values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    field = oracle_field(components)
    k = field.n_components

    def product_component(comp):
        return Component(
            value=lambda t_, Y: phi.value(Y) * comp.value(t_, Y),
            grad=lambda t_, Y: phi.value(Y)[:, None] * comp.grad(t_, Y) + comp.value(t_, Y)[:, None] * phi.grad(Y)[:, :k],
        )

    lhs = dstar(oracle_field(product_component(c) for c in components), beta_oracle, t, X)
    f_vals = field.value(t, X)
    rhs = phi.value(X) * dstar(field, beta_oracle, t, X) - (phi.grad(X)[:, :k] * f_vals).sum(axis=1)
    return float(np.max(np.abs(lhs - rhs)))


def constant_components(coeffs):
    """The components f_i = c_i of a constant field, one function each."""
    k = len(coeffs)
    return tuple(
        Component(
            value=lambda t, X, c=c: np.full(X.shape[0], c),
            grad=lambda t, X: np.zeros((X.shape[0], k)),
            bound=abs(float(c)),
        )
        for c in np.asarray(coeffs, dtype=float)
    )


def swirl_components(s):
    """The components s tanh(x_2) and -s tanh(x_1) of the swirl field, one function each."""
    return (
        Component(
            value=lambda t, X: s * np.tanh(X[:, 1]),
            grad=lambda t, X: np.stack([np.zeros(X.shape[0]), s / np.cosh(X[:, 1]) ** 2], axis=-1),
            bound=abs(s),
        ),
        Component(
            value=lambda t, X: -s * np.tanh(X[:, 0]),
            grad=lambda t, X: np.stack([-s / np.cosh(X[:, 0]) ** 2, np.zeros(X.shape[0])], axis=-1),
            bound=abs(s),
        ),
    )


def galerkin_components(nem, level, grid=Grid.gauss_legendre(128)):
    """The components of the level-`level` Galerkin projection of nem on
    grid, one function each: component i synthesizes x(xi) through BLAS,
    calls the reaction, and projects onto e_i; its gradient does the same
    with f'."""
    E = basis_matrix(level, grid)
    w = grid.weights
    reaction = nem.reaction
    inv_alpha = 1.0 / eigenvalue(np.arange(1, level + 1))

    def make(i):
        def value(t, X):
            U = X[:, :level] @ E
            return ((reaction.fn(U) * w) @ E[i]) * inv_alpha[i]

        def grad(t, X):
            U = X[:, :level] @ E
            fp = reaction.deriv(U)
            return ((fp * E[i] * w) @ E.T) * inv_alpha[i]

        return Component(value=value, grad=grad)

    return tuple(make(i) for i in range(level))


def component_rows(components, t, X):
    """(rows, div F) of per-component functions: the values stacked, and div
    F summed from zeros over column i of each component's gradient."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows = np.stack([np.asarray(c.value(t, X), dtype=float) for c in components], axis=-1)
    div = np.zeros(X.shape[0])
    for i, c in enumerate(components):
        div += c.grad(t, X)[:, i]
    return rows, div


def oracle_field(components, **kwargs):
    """The CylindricalField whose evaluation is component_rows of
    `components`; kwargs are CylindricalField's time_dependent and name."""
    components = tuple(components)

    def evaluate(t, X, div):
        rows, d = component_rows(components, t, X)
        return rows, (d if div else None)

    return CylindricalField(evaluate, tuple(c.bound for c in components), **kwargs)
