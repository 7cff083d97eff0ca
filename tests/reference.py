"""Test oracles built on the program's own kernels: a two-point
characteristic flow, linear fields, and the product rule of D*.
"""

import math

import numpy as np

from refflow import transport
from refflow.fields import CylindricalField, FieldComponent, NotDifferentiableError, dstar


def flow(field, s, t, x, config):
    """Solution at time t of dz/du = F(u,z), z(s) = x, by transport's own
    step. Handles t < s too."""
    Z = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    squeeze = np.asarray(x).ndim == 1
    n = config.n_steps(abs(t - s))
    h = math.copysign(config.dt_ode, t - s) if n else 0.0
    u = s
    for _ in range(n):
        Z = transport._step(field, u, Z, h, config.integrator, field.value(u, Z))
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
    return CylindricalField(components=comps, smoothness=2, name=name)


def dstar_product_rule_check(field, phi, beta_oracle, X, t=0.0):
    """Max residual of D*(phi F) = phi D*F - <D phi, F> over the sample X.

    phi is a Cylinder (value + gradient) in at least n_components coords.
    The left side is evaluated through an independently assembled product
    field so the two routes share no intermediate values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
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

    product = CylindricalField(
        components=tuple(product_component(i, c) for i, c in enumerate(field.components)),
        smoothness=min(field.smoothness, 1),
        horizon=field.horizon,
        time_dependent=field.time_dependent,
        name=f"phi*{field.name}",
    )
    lhs = dstar(product, beta_oracle, t, X)
    f_vals = field.value(t, X)
    rhs = phi.value(X) * dstar(field, beta_oracle, t, X) - (phi.grad(X)[:, :k] * f_vals).sum(axis=1)
    return float(np.max(np.abs(lhs - rhs)))
