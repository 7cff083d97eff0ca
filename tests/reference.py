"""Test oracles built on the program's own kernels: a two-point
characteristic flow, linear fields, the product rule of D*, and the
per-component field formulas that one field evaluation must reproduce.
"""

import math

import numpy as np

from refflow import transport
from refflow.fields import FieldComponent, NotDifferentiableError, component_field, dstar
from refflow.spectral import Grid, basis_matrix, eigenvalue


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
    comps = tuple(
        FieldComponent(
            value_fn=lambda t, X, row=B[i]: X[:, :k] @ row,
            grad_fn=lambda t, X, row=B[i]: np.broadcast_to(row, (X.shape[0], k)).copy(),
            bound=bound,
            name=f"lin_{i+1}",
        )
        for i in range(k)
    )
    return component_field(comps, smoothness=2, name=name)


def dstar_product_rule_check(components, phi, beta_oracle, X, t=0.0):
    """Max residual of D*(phi F) = phi D*F - <D phi, F> over the sample X,
    for the field F of the component functions `components`.

    phi is a Cylinder (value + gradient) in at least n_components coords.
    The left side is evaluated through an independently assembled product
    field so the two routes share no intermediate values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    field = component_field(components)
    k = field.n_components

    def product_component(i, comp):
        def value_fn(t_, Y):
            return phi.value(Y) * comp.value(t_, Y)

        def grad_fn(t_, Y):
            g_f = comp.grad(t_, Y)
            if g_f is None:
                raise NotDifferentiableError("product rule check needs analytic gradients")
            return phi.value(Y)[:, None] * g_f + comp.value(t_, Y)[:, None] * phi.grad(Y)[:, :k]

        return FieldComponent(value_fn=value_fn, grad_fn=grad_fn, bound=np.inf, name=f"phi*{comp.name}")

    product = component_field((product_component(i, c) for i, c in enumerate(components)), smoothness=1)
    lhs = dstar(product, beta_oracle, t, X)
    f_vals = field.value(t, X)
    rhs = phi.value(X) * dstar(field, beta_oracle, t, X) - (phi.grad(X)[:, :k] * f_vals).sum(axis=1)
    return float(np.max(np.abs(lhs - rhs)))


def constant_components(coeffs):
    """The components f_i = c_i of a constant field, one function each."""
    k = len(coeffs)
    return tuple(
        FieldComponent(
            value_fn=lambda t, X, c=c: np.full(X.shape[0], c),
            grad_fn=lambda t, X: np.zeros((X.shape[0], k)),
            bound=abs(float(c)),
            name=f"const_{i+1}",
        )
        for i, c in enumerate(np.asarray(coeffs, dtype=float))
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
        def value_fn(t, X):
            U = X[:, :level] @ E
            return ((reaction(t, U) * w) @ E[i]) * inv_alpha[i]

        def grad_fn(t, X):
            U = X[:, :level] @ E
            fp = reaction.d(t, U)
            return ((fp * E[i] * w) @ E.T) * inv_alpha[i]

        return FieldComponent(value_fn=value_fn, grad_fn=grad_fn, name=f"{reaction.name}_g{i+1}")

    return tuple(make(i) for i in range(level))


def component_rows(components, t, X):
    """(rows, div F) of per-component functions: the values stacked, and div
    F summed from zeros over column i of each component's gradient."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows = np.stack([c.value(t, X) for c in components], axis=-1)
    div = np.zeros(X.shape[0])
    for i, c in enumerate(components):
        div += c.grad(t, X)[:, i]
    return rows, div
