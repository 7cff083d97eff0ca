"""Characteristic flows and the exponential-weight density representation.

The continuity equation on an N-dimensional slice is solved by integrating
characteristics backward and weighting the initial density by the exponential
of the time integral of D*F along the path:

    rho(t, x) = rho0(c(0)) * exp( int_0^t D*F(u, c(u)) du ),

where c solves dc/du = F(u, c), c(t) = x. Fixed-step RK4 for the flow; the
exponent uses the trapezoid rule on the same nodes so both
discretizations refine together.

One kernel, _sweep_to, takes every backward sweep:

- The field rows it evaluates for D*F at the end of a step are the next
  step's first RK stage, so a step costs one field evaluation fewer.
- The path depends on F alone; the reference, a slice or a ladder alike,
  enters only through its log-gradient reference.beta in
  D*F = -div F - sum_i f_i beta_i. Solutions that share rho0, field and
  config therefore share one sweep (feynman_kac_shared): the states, field
  rows and div F are computed once per step and only beta once per
  reference (fields.dstar_rows).
- For an autonomous field (time_dependent False) the backward path from x
  over time t is a prefix of the path from x over any later time, so one
  sweep of max(times) steps serves every time node on a point set: times run
  in increasing order and each continues the sweep of the one before. A
  time-dependent field has no prefix property and takes a fresh sweep,
  starting at that time, for every time.
- A density already computed at the same time on the solution's last point
  set is served again without a sweep.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fields as fields_mod


class FieldEvaluationError(FloatingPointError):
    pass


class StepMismatchError(ValueError):
    pass


class RepresentationOverflowError(OverflowError):
    pass


def _whole_steps(interval, dt):
    """Number of dt steps in `interval`, the rule of every time grid here: the
    interval must be nonnegative and a whole number of steps, to 1e-12 per
    step."""
    if interval < 0:
        raise ValueError("interval must be nonnegative")
    n = int(round(interval / dt))
    if abs(n * dt - interval) > 1e-12 * max(1.0, n):
        raise StepMismatchError(f"interval {interval} is not a multiple of dt={dt}")
    return n


@dataclass(frozen=True)
class FlowConfig:
    dt_ode: float = 1e-3
    T: float = 1.0

    def __post_init__(self):
        if self.dt_ode <= 0 or self.T <= 0:
            raise ValueError("dt_ode and T must be positive")

    def n_steps(self, interval):
        """Number of dt_ode steps in `interval`; the interval must divide."""
        return _whole_steps(interval, self.dt_ode)


def _velocity(vals, Z):
    """Field rows vals as the velocity of the states Z: zero beyond the
    field's components."""
    k = vals.shape[1]
    if k == Z.shape[1]:
        return vals
    if k > Z.shape[1]:
        raise ValueError(f"field has {k} components but the state is {Z.shape[1]}-dimensional")
    out = np.zeros_like(Z)
    out[:, :k] = vals
    return out


def _step(field, u, Z, h, F):
    """One RK4 step of size h from (u, Z), given the field rows F = field.value(u, Z)."""
    k1 = _velocity(F, Z)
    k2 = _velocity(field.value(u + 0.5 * h, Z + 0.5 * h * k1), Z)
    k3 = _velocity(field.value(u + 0.5 * h, Z + 0.5 * h * k2), Z)
    k4 = _velocity(field.value(u + h, Z + h * k3), Z)
    nxt = Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(nxt)):
        raise FieldEvaluationError(f"non-finite state while stepping at u={u}")
    return nxt


@dataclass(frozen=True)
class InitialDensity:
    """Nonnegative compactly supported density on the first N coordinates."""

    value_fn: object
    support_radius: float
    name: str = ""

    def value(self, X):
        return np.clip(np.asarray(self.value_fn(np.atleast_2d(X)), dtype=float), 0.0, None)


def bump_density(centers, radii, height=1.0):
    """Product of shifted 1-D bumps h * prod_i (1 - ((x_i-c_i)/r_i)^2)_+^3.

    C2, nonnegative, supported in the box prod [c_i - r_i, c_i + r_i].
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.shape != centers.shape or np.any(radii <= 0):
        raise ValueError("need one positive radius per center")
    N = len(centers)

    def value_fn(X):
        U = (X[:, :N] - centers) / radii
        return height * np.prod(np.clip(1.0 - U ** 2, 0.0, None) ** 3, axis=1)

    radius = float(np.sqrt(((np.abs(centers) + radii) ** 2).sum()))
    return InitialDensity(value_fn=value_fn, support_radius=radius, name="bump")


@dataclass
class TransportSolution:
    """The density evaluator of one problem on one disintegration slice."""

    rho0: object  # value(X) -> (npts,), attribute support_radius
    field: object
    reference: object  # SliceDensity or LadderDensity: value(X) and beta(X)
    config: FlowConfig
    N: int

    def __post_init__(self):
        self.support_radius = float(self.rho0.support_radius + self.config.T * self.field.h_bound)
        # the last backward sweep on this solution, a _Sweep: for a later time
        # to continue, and for the densities it computed to be served again.
        # Replaced whole and never mutated, so threads sharing a solution can
        # at worst repeat a sweep.
        self._sweep = None


class _Sweep(NamedTuple):
    """A solution's last backward sweep, taken from time t on the point set X.

    Z holds the states after k steps of the rows of X inside the support ball,
    and F the field rows at (t - k dt, Z), the next step's first RK stage; a
    sweep shared by several solutions shares these arrays. acc is the
    solution's trapezoid sum of D*F (step k weighted 1/2) and R the running
    sum that continues it (step k weighted 1). served maps each time of this
    and earlier sweeps on X to its read-only density.
    """

    X: np.ndarray
    k: int
    Z: np.ndarray
    F: np.ndarray
    acc: np.ndarray
    R: np.ndarray
    served: dict


def feynman_kac(solution, t, x):
    """Density at time t and points x (rows); exactly 0 outside the support ball.

    Integrates the characteristics of x backward n = t/dt_ode steps to time 0
    and returns rho0 at their foot times exp(dt_ode * trapezoid sum of D*F).
    A density the solution already computed at t on the same points is
    served again as a copy. For an autonomous field the path over t is a
    prefix of the path over any later time, so when the solution's last sweep
    ran on the same points for at most n steps this call continues it instead
    of restarting at x; the sums keep the order of a fresh sweep, so the
    result is bit-identical. A time-dependent field, an earlier time or other
    points start afresh at t.

    Exponent overflow beyond 700 raises RepresentationOverflowError naming the
    offending (t, x); points whose characteristic exits the initial support
    return exactly 0 without exponentiating.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    rho = _sweep_to((solution,), t, X)[0]
    return float(rho[0]) if np.asarray(x).ndim == 1 else rho.copy()


def _sweep_to(solutions, t, X):
    """Densities at time t on the rows of X, one read-only array per solution,
    from one backward sweep; the solutions share rho0, field and config.

    Served from the solutions' last sweeps when each holds t on X; else the
    sweep continues their last joint sweep on X when that is valid, or starts
    afresh at t, and becomes each solution's last sweep.
    """
    first = solutions[0]
    cfg, fld = first.config, first.field
    if t < 0 or t > cfg.T + 1e-12:
        raise ValueError(f"t={t} outside [0, {cfg.T}]")
    n = cfg.n_steps(t)
    out = np.zeros(X.shape[0])
    near = np.sqrt((X ** 2).sum(axis=1)) <= first.support_radius + 1e-12
    if n == 0:
        out[near] = np.clip(first.rho0.value(X[near]), 0.0, None)
    if n == 0 or not near.any():
        out.setflags(write=False)
        return [out] * len(solutions)
    lasts = [s._sweep for s in solutions]
    if not all(last is not None and np.array_equal(last.X, X) for last in lasts):
        lasts = None
    elif all(t in last.served for last in lasts):
        return [last.served[t] for last in lasts]

    dt, betas = cfg.dt_ode, [s.reference.beta for s in solutions]
    if (
        lasts is not None
        and lasts[0].k <= n
        and not fld.time_dependent
        and all(last.Z is lasts[0].Z for last in lasts)
    ):
        k, Z, F = lasts[0].k, lasts[0].Z, lasts[0].F
        accs, Rs = [last.acc for last in lasts], [last.R for last in lasts]
    else:
        k, Z = 0, X[near]
        F, gs = fields_mod.dstar_rows(fld, betas, t, Z)
        Rs = [0.5 * g for g in gs]
    for j in range(k + 1, n + 1):
        Z = _step(fld, t - (j - 1) * dt, Z, -dt, F)
        F, gs = fields_mod.dstar_rows(fld, betas, max(t - j * dt, 0.0), Z)
        accs = [R + 0.5 * g for R, g in zip(Rs, gs)]
        Rs = [R + g for R, g in zip(Rs, gs)]

    rho0v = np.clip(first.rho0.value(Z), 0.0, None)
    alive = rho0v > 0
    rhos = []
    for acc in accs:
        expnt = dt * acc
        if np.any(expnt[alive] > 700.0):
            bad = int(np.argmax(np.where(alive, expnt, -np.inf)))
            raise RepresentationOverflowError(
                f"exponent {expnt[bad]:.3g} > 700 at t={t}, x={X[near][bad]}"
            )
        vals = np.zeros(Z.shape[0])
        vals[alive] = rho0v[alive] * np.exp(expnt[alive])
        rho = out.copy()
        rho[near] = vals
        rho.setflags(write=False)
        rhos.append(rho)
    X = X.copy()
    for i, s in enumerate(solutions):
        served = {**(lasts[i].served if lasts is not None else {}), t: rhos[i]}
        s._sweep = _Sweep(X, n, Z, F, accs[i], Rs[i], served)
    return rhos


def feynman_kac_many(solution, times, x):
    """Densities at each time on one point set, shape (len(times), npts).

    Times run in increasing order, so for an autonomous field each continues
    the backward sweep of the one before and the whole set costs one sweep of
    max(times) steps; a time-dependent field takes one fresh sweep per time.
    A repeated time is served from the first. Rows follow the order of
    `times`; each time is checked as in feynman_kac.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    times = [float(t) for t in times]
    out = np.empty((len(times), X.shape[0]))
    for i in sorted(range(len(times)), key=times.__getitem__):
        out[i] = feynman_kac(solution, times[i], X)
    return out


def feynman_kac_shared(solutions, times, x):
    """Densities of several solutions at each time on one point set, shape
    (len(solutions), len(times), npts), from one backward sweep.

    The solutions must share rho0, field and config, as solutions of one
    problem under different reference measures do: the characteristics then
    coincide and only the log-gradient in D*F differs. The sweep walks the
    times in increasing order for all solutions together, leaving each
    density in its solution's last sweep; feynman_kac_many then serves them.
    Raises ValueError for solutions that do not share the three.
    """
    first = solutions[0]
    for s in solutions[1:]:
        if s.rho0 is not first.rho0 or s.field is not first.field or s.config != first.config:
            raise ValueError("solutions share a backward sweep only with the same rho0, field and config")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    for t in sorted({float(t) for t in times}):
        _sweep_to(solutions, t, X)
    return np.stack([feynman_kac_many(s, times, X) for s in solutions])


def solve(rho0, field, reference, config, N=None):
    """The TransportSolution of a problem, on the reference's N unless given."""
    return TransportSolution(rho0, field, reference, config, reference.N if N is None else N)


def pde_residual(solution, t, x, h_t=None, h_x=1e-4):
    """Central-difference residual of the pointwise equation at (t, x).

    D_t rho + <F, D_x rho> - (D*F) rho; h_t defaults to one ODE step and must
    be a multiple of it so shifted times stay on the flow grid. Times run
    t - h_t, t, t + h_t at x, so an autonomous field sweeps back once.
    """
    cfg = solution.config
    h_t = cfg.dt_ode if h_t is None else h_t
    cfg.n_steps(h_t)
    if t - h_t < 0 or t + h_t > cfg.T:
        raise ValueError(f"need [t-h_t, t+h_t] inside [0,T], got t={t}, h_t={h_t}")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    rho_minus = feynman_kac(solution, t - h_t, X)
    rho = feynman_kac(solution, t, X)
    dt_rho = (feynman_kac(solution, t + h_t, X) - rho_minus) / (2.0 * h_t)
    grad = np.zeros_like(X)
    for i in range(X.shape[1]):
        Xp = X.copy()
        Xp[:, i] += h_x
        Xm = X.copy()
        Xm[:, i] -= h_x
        grad[:, i] = (feynman_kac(solution, t, Xp) - feynman_kac(solution, t, Xm)) / (2.0 * h_x)
    f_vals, (ds,) = fields_mod.dstar_rows(solution.field, (solution.reference.beta,), t, X)
    k = f_vals.shape[1]
    advect = (f_vals * grad[:, :k]).sum(axis=1)
    res = dt_rho + advect - ds * rho
    return res if res.size > 1 else float(res[0])
