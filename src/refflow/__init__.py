"""Numerical laboratory for continuity equations relative to a Gibbs reference
measure, the Gaussian at alpha = 0, on truncated spectral coordinates.

Modules:
    spectral   sine basis and eigenvalues, quadrature grids, synthesis
    cylinders  bounded smooth cylinder functions
    rng        named seed streams and order-stable parallel mapping
    measures   the reference measure (Gaussian at alpha = 0), beta, slices, ladders
    fields     cylindrical and Nemytskii drift fields, divergence, D*F
    transport  characteristic flows and the exponential density representation
    verify     weak-form, mass, entropy-bound and uniqueness checks
    spde       spectral stochastic dynamics, gradient and commutator probes
    catalog    registered building blocks and the standard problem set
    cli        `refflow run` / `refflow list-catalog`
"""

__version__ = "0.1.0"

from . import catalog, cylinders, fields, measures, rng, spde, spectral, transport, verify

__all__ = [
    "catalog",
    "cylinders",
    "fields",
    "measures",
    "rng",
    "spde",
    "spectral",
    "transport",
    "verify",
    "__version__",
]
