"""Cylindrical scalar functions of finitely many spectral coordinates.

A Cylinder wraps vectorized value/gradient callables of the first n_active
coefficients. Inputs may carry more trailing modes; the extras are ignored,
which is exactly the cylindrical property. A direction is a coefficient
vector; its entries beyond n_active do not enter the derivative.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cylinder:
    n_active: int
    value_fn: callable  # (npts, n_active) -> (npts,)
    grad_fn: callable  # (npts, n_active) -> (npts, n_active)
    name: str = ""

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.value_fn(X[..., : self.n_active])

    def grad(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.grad_fn(X[..., : self.n_active])

    def directional(self, h, X):
        """Derivative along a coefficient vector h."""
        h = np.asarray(h, dtype=float)
        g = self.grad(X)
        k = min(self.n_active, len(h))
        return g[:, :k] @ h[:k]

