"""Characteristic flows and the exponential-weight density representation.

The continuity equation on an N-dimensional slice is solved by integrating
characteristics backward and weighting the initial density by the exponential
of the time integral of D*F along the path:

    rho(t, x) = rho0(c(0)) * exp( int_0^t D*F(u, c(u)) du ),

where c solves dc/du = F(u, c), c(t) = x. Fixed-step RK4 for the flow; the
exponent uses the trapezoid rule on the same nodes so both
discretizations refine together.

Ask once for every time: one kernel, _sweep_to, takes the backward sweep of
a request for all its times.

- For an autonomous field (time_dependent False) the backward path from x
  over time t is a prefix of the path over any later time, so one sweep of
  max(times) steps serves every time; a time-dependent field takes one fresh
  sweep per time. The field rows evaluated for D*F at a step's end are the
  next step's first RK stage.
- The path depends on F alone; the reference, a slice or a ladder alike,
  enters only through its log-gradient reference.beta in
  D*F = -div F - sum_i f_i beta_i. Solutions that share rho0, field and
  config share one sweep (feynman_kac_shared), and only beta is evaluated
  once per reference (fields.dstar_rows).
- A solution keeps the densities of its last request and serves one of them
  again, on the same points, without a sweep.
"""

from dataclasses import dataclass

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
    reference: object  # SliceDensity or LadderDensity: value(X), beta(X) and N
    config: FlowConfig

    def __post_init__(self):
        self.support_radius = float(self.rho0.support_radius + self.config.T * self.field.h_bound)
        # (X, {t: read-only density}) of the last request that swept, replaced
        # whole: threads sharing a solution can at worst repeat a sweep
        self._served = None

    @property
    def N(self):
        return self.reference.N


def feynman_kac(solution, t, x):
    """Density at time t and points x (rows); exactly 0 outside the support ball.

    Integrates the characteristics of x backward n = t/dt_ode steps to time 0
    and returns rho0 at their foot times exp(dt_ode * trapezoid sum of D*F),
    or a copy of the density of the solution's last request at t on x. A
    caller that needs several times asks feynman_kac_many once instead.

    Exponent overflow beyond 700 raises RepresentationOverflowError naming the
    offending (t, x); points whose characteristic exits the initial support
    return exactly 0 without exponentiating.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    rho = _sweep_to((solution,), [t], X)[0][t]
    return float(rho[0]) if np.asarray(x).ndim == 1 else rho.copy()


def _sweep_to(solutions, times, X):
    """{t: read-only density on the rows of X} of each solution, for every
    time in `times`; the solutions share rho0, field and config.

    Served from the solutions' last requests when each holds every time on X.
    Else every time is checked, then times of 0 steps read rho0 and the rest
    take one backward sweep of the most steps, stopping at each time on the
    way (one sweep per time for a time-dependent field).
    """
    first = solutions[0]
    cfg, fld = first.config, first.field
    steps = {}
    for t in times:
        if t < 0 or t > cfg.T + 1e-12:
            raise ValueError(f"t={t} outside [0, {cfg.T}]")
        steps[t] = cfg.n_steps(t)
    lasts = [s._served for s in solutions]
    if all(last is not None and np.array_equal(last[0], X) and steps.keys() <= last[1].keys() for last in lasts):
        return [last[1] for last in lasts]

    near = np.sqrt((X ** 2).sum(axis=1)) <= first.support_radius + 1e-12
    served = [{} for _ in solutions]

    def serve(ts, rows):
        for d, vals in zip(served, rows):
            rho = np.zeros(X.shape[0])
            rho[near] = vals
            rho.setflags(write=False)
            d.update(dict.fromkeys(ts, rho))

    Z0 = X[near]
    starts = [t for t, n in steps.items() if n == 0 or not near.any()]
    if starts:
        serve(starts, [first.rho0.value(Z0)] * len(solutions))
    pending = sorted(steps.keys() - set(starts))
    dt, betas = cfg.dt_ode, [s.reference.beta for s in solutions]
    for group in [[t] for t in pending] if fld.time_dependent else [pending] if pending else []:
        t, Z = group[-1], Z0
        F, gs = fields_mod.dstar_rows(fld, betas, t, Z)
        Rs = [0.5 * g for g in gs]
        for j in range(1, steps[t] + 1):
            Z = _step(fld, t - (j - 1) * dt, Z, -dt, F)
            F, gs = fields_mod.dstar_rows(fld, betas, max(t - j * dt, 0.0), Z)
            at = [u for u in group if steps[u] == j]
            if at:
                serve(at, _weighted(first.rho0, Z, [R + 0.5 * g for R, g in zip(Rs, gs)], dt, at[0], Z0))
            Rs = [R + g for R, g in zip(Rs, gs)]
    X = X.copy()
    for s, d in zip(solutions, served):
        s._served = (X, d)
    return served


def _weighted(rho0, Z, accs, dt, t, X):
    """Per trapezoid sum acc of D*F, rho0(Z) exp(dt acc), exactly 0 where rho0(Z) is."""
    rho0v = rho0.value(Z)
    alive = rho0v > 0
    out = []
    for acc in accs:
        expnt = dt * acc
        if np.any(expnt[alive] > 700.0):
            bad = int(np.argmax(np.where(alive, expnt, -np.inf)))
            raise RepresentationOverflowError(f"exponent {expnt[bad]:.3g} > 700 at t={t}, x={X[bad]}")
        vals = np.zeros(Z.shape[0])
        vals[alive] = rho0v[alive] * np.exp(expnt[alive])
        out.append(vals)
    return out


def feynman_kac_many(solution, times, x):
    """Densities at each time on one point set, shape (len(times), npts).

    One request for every time: an autonomous field takes one backward sweep
    of max(times) steps, a time-dependent one a fresh sweep per time. Rows
    follow the order of `times`; a repeated time is computed once, and every
    time is checked as in feynman_kac before any sweep.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    times = [float(t) for t in times]
    _sweep_to((solution,), times, X)
    out = np.empty((len(times), X.shape[0]))
    for i, t in enumerate(times):
        out[i] = feynman_kac(solution, t, X)
    return out


def feynman_kac_shared(solutions, times, x):
    """Densities of several solutions at each time on one point set, shape
    (len(solutions), len(times), npts), from one backward sweep.

    The solutions must share rho0, field and config, as solutions of one
    problem under different reference measures do: the characteristics then
    coincide and only the log-gradient in D*F differs. The one request leaves
    each solution's densities served; feynman_kac_many then reads them. Raises
    ValueError for solutions that do not share the three.
    """
    first = solutions[0]
    for s in solutions[1:]:
        if s.rho0 is not first.rho0 or s.field is not first.field or s.config != first.config:
            raise ValueError("solutions share a backward sweep only with the same rho0, field and config")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    _sweep_to(solutions, [float(t) for t in times], X)
    return np.stack([feynman_kac_many(s, times, X) for s in solutions])


def solve(rho0, field, reference, config):
    """The TransportSolution of a problem, on the reference's N."""
    return TransportSolution(rho0, field, reference, config)


def pde_residual(solution, t, x, h_t=None, h_x=1e-4):
    """Central-difference residual of the pointwise equation at (t, x).

    D_t rho + <F, D_x rho> - (D*F) rho; h_t defaults to one ODE step and must
    be a multiple of it so shifted times stay on the flow grid. t - h_t, t and
    t + h_t at x are one request, so an autonomous field sweeps back once.
    """
    cfg = solution.config
    h_t = cfg.dt_ode if h_t is None else h_t
    cfg.n_steps(h_t)
    if t - h_t < 0 or t + h_t > cfg.T:
        raise ValueError(f"need [t-h_t, t+h_t] inside [0,T], got t={t}, h_t={h_t}")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    rho_minus, rho, rho_plus = feynman_kac_many(solution, [t - h_t, t, t + h_t], X)
    dt_rho = (rho_plus - rho_minus) / (2.0 * h_t)
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
