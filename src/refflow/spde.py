"""Reaction-diffusion SPDE simulator in spectral coordinates.

dX = [AX + p(X)] dt + B dW with A the Dirichlet Laplacian (mode rates
alpha_j = pi^2 j^2), p a decreasing odd-degree polynomial reaction applied
pointwise, and B diagonal with a bounded inverse. The stepping scheme treats
the linear part exactly per mode (exponential integrator) and the reaction
and noise explicitly; the Ornstein-Uhlenbeck reduction p = 0 is therefore
sampled from its exact transition kernel.

An SpdeConfig describes the scheme alone (modes, dt, B and p); each caller
says how far its paths run. One stepper, `_steps`, applies the scheme
X <- ema X + phi p(X) + sig xi for every caller. It can carry the derivative
flow eta and the Bismut-Elworthy-Li gradient weight int <B^{-1} eta, dW>
along the same path, and it runs the blow-up check. `simulate`,
`sample_invariant`, `bel_gradient`, the commutator estimators and `v_norm`
differ only in which steps they keep; `simulate`, the commutator samples and
`v_norm` keep the states at a list of times, which `_snapshots` yields.

Also here: the Yosida regularization p_alpha of p (a device of the proof,
which the stepper does not use), derivative flows along frozen paths,
semigroup and gradient estimators (the probabilistic integration-by-parts
weight), the smoothing commutator and its decay curve, the V-norm quadratic
form, and the martingale-moment ratio check. Each Monte-Carlo mean is an
rng.Estimate (mean, stderr, n). Two functions check claims of the paper
directly: `commutator_identity_probe` the commutator formula for
D_x P_t - P_t D_x, and `v_norm` the Dirichlet form of the invariant measure;
`simulate`, `semigroup`, `bel_gradient`, `derivative_flow` and
`yosida_drift` are checked against closed forms by acceptance criterion 8.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import Estimate, as_rng, estimate, map_units
from .spectral import basis_matrix, eigenvalue, exact_midpoint_grid, simpson_weights
from .transport import _whole_steps


class BlowUpError(FloatingPointError):
    pass


class SchemeError(AssertionError):
    pass


class SolverError(RuntimeError):
    pass


class BurnInError(ValueError):
    """The burn-in is too short for the slowest mode to relax."""


def relaxation_steps(config, times):
    """Steps that cover `times` relaxation times 1/alpha_1 of the slowest mode:
    6 make the default burn-in, 1 the default thinning."""
    return int(math.ceil(times / (eigenvalue(1) * config.dt)))


@lru_cache(maxsize=64)
def _poly_pair(coeffs):
    """Read-only ascending coefficients of p and of p'."""
    c = np.array(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, len(c))
    c.setflags(write=False)
    dc.setflags(write=False)
    return c, dc


def _horner(c, x, out):
    """sum_i c[i] x^i into out: c_d x, then + c_i and * x down to c_0.

    These are the operations of np.polynomial.polynomial.polyval in its
    order, less its leading c_d + 0 x and the additions of zero coefficients,
    so for finite x the bits match it apart from the sign of zero.
    """
    if len(c) == 1:
        out[...] = c[0]
        return out
    np.multiply(x, c[-1], out=out)
    for i in range(len(c) - 2, -1, -1):
        if c[i] != 0:
            out += c[i]
        if i:
            out *= x
    return out


@dataclass(frozen=True)
class SpdeConfig:
    n_modes: int
    dt: float
    B_diag: tuple = ()
    p_coeffs: tuple = ()  # ascending powers; () or all-zero disables the reaction

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        B = np.asarray(self.B_diag if len(self.B_diag) else np.ones(self.n_modes), dtype=float)
        if B.size == 1:
            B = np.full(self.n_modes, B.item())
        if B.shape != (self.n_modes,) or np.any(B <= 0):
            raise ValueError("B_diag must be positive with one entry per mode (bounded inverse)")
        object.__setattr__(self, "B_diag", tuple(B))
        coeffs = tuple(float(c) for c in self.p_coeffs)
        if any(c != 0 for c in coeffs):
            deg = max(i for i, c in enumerate(coeffs) if c != 0)
            if deg <= 1 or deg % 2 == 0:
                raise ValueError(f"reaction degree must be odd and > 1, got {deg}")
            if coeffs[deg] >= 0:
                raise ValueError("leading reaction coefficient must be negative")
            _, dp = _poly_pair(coeffs)
            probe = np.linspace(-20.0, 20.0, 4001)
            if np.any(_horner(dp, probe, np.empty_like(probe)) > 0):
                raise ValueError("reaction must be nonincreasing (derivative positive on probe grid)")
        object.__setattr__(self, "p_coeffs", coeffs)

    # computed once per config; the arrays are read-only

    @cached_property
    def has_reaction(self):
        return any(c != 0 for c in self.p_coeffs)

    @cached_property
    def rates(self):
        a = eigenvalue(np.arange(1, self.n_modes + 1))
        a.setflags(write=False)
        return a

    @cached_property
    def b_array(self):
        b = np.array(self.B_diag, dtype=float)
        b.setflags(write=False)
        return b

    @cached_property
    def grid(self):
        """Midpoint grid of (d + 1) n_modes + 1 nodes, d = max(reaction degree, 3).

        It integrates cosine polynomials of degree 2 (d + 1) n_modes + 1 in
        pi xi exactly: the drift p(U) e_i has degree (d + 1) n_modes and the l4
        moment of sample_invariant 4 n_modes, so both are exact. The
        derivative-flow multiplier exp(dt p'(U)) is not a polynomial; for it
        the spare degree is a measured margin, not an exactness bound.
        """
        degree = max((i for i, c in enumerate(self.p_coeffs) if c != 0), default=0)
        return exact_midpoint_grid(2 * (max(degree, 3) + 1) * self.n_modes)

    @cached_property
    def projection(self):
        """(E w)^T, shape (nodes, modes): grid values @ projection are the
        quadrature's mode coefficients int v e_j dxi."""
        proj = (basis_matrix(self.n_modes, self.grid) * self.grid.weights).T
        proj.setflags(write=False)
        return proj

    def n_steps(self, interval):
        """Number of dt steps in `interval`; the interval must divide."""
        return _whole_steps(interval, self.dt)


# ---------------------------------------------------------------------------
# Yosida regularization


def yosida_resolvent(p_coeffs, alpha, r):
    """J_alpha(r): the unique y with y - alpha p(y) = r, bracketed Newton."""
    if alpha <= 0:
        raise ValueError("resolvent needs alpha > 0")
    c, dc = _poly_pair(tuple(p_coeffs))
    r = np.asarray(r, dtype=float)
    pr = _horner(c, r, np.empty(r.shape))
    lo = np.minimum(r, r + alpha * pr)
    hi = np.maximum(r, r + alpha * pr)
    y = r + 0.5 * alpha * pr
    for _ in range(100):
        g = y - alpha * _horner(c, y, np.empty(y.shape)) - r
        done = np.all(np.abs(g) <= 1e-12 * (1.0 + np.abs(r)))
        if done:
            return y if y.ndim else float(y)
        lo = np.where(g < 0, y, lo)
        hi = np.where(g > 0, y, hi)
        step = g / (1.0 - alpha * _horner(dc, y, np.empty(y.shape)))
        y_new = y - step
        outside = (y_new < lo) | (y_new > hi)
        y = np.where(outside, 0.5 * (lo + hi), y_new)
    raise SolverError("resolvent Newton did not reach 1e-12 in 100 iterations")


def yosida_drift(p_coeffs, alpha, r):
    """The Yosida drift p_alpha(r) = (J_alpha(r) - r)/alpha = p(J_alpha(r)) of
    criterion 8's resolvent identity; alpha=0 gives p."""
    r = np.asarray(r, dtype=float)
    if alpha == 0:
        out = _horner(_poly_pair(tuple(p_coeffs))[0], r, np.empty(r.shape))
    else:
        out = (yosida_resolvent(p_coeffs, alpha, r) - r) / alpha
    return out if np.ndim(out) else float(out)


def yosida_drift_prime(p_coeffs, alpha, r):
    """d/dr p_alpha(r) = p'(J_alpha(r)) / (1 - alpha p'(J_alpha(r))) <= 0."""
    r = np.asarray(r, dtype=float)
    J = yosida_resolvent(p_coeffs, alpha, r) if alpha != 0 else r
    out = _horner(_poly_pair(tuple(p_coeffs))[1], np.asarray(J), np.empty(r.shape))
    out /= 1.0 - alpha * out
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# simulation


class _Reaction:
    """The reaction terms of one stepper call, on arrays allocated once and
    overwritten in place at every step: U, P and H of (rows x quad nodes),
    and the drift D of (rows x modes).

    load(X) synthesizes U = X E for both the drift and the derivative-flow
    multiplier. drift() projects p(U) by the config's (E w)^T into D and
    returns D, which the next drift() overwrites; np.matmul with out= makes
    the product that @ makes, so the bits are the same. flow(eta) returns a
    fresh (rows x modes) array. The drift integrand and the multiplier share
    the buffer P (drift() is done with it before flow() starts), which keeps
    one (rows x nodes) array fewer in cache.
    """

    def __init__(self, config, rows):
        self.c, self.dc = _poly_pair(config.p_coeffs)
        self.dt = config.dt
        self.E = basis_matrix(config.n_modes, config.grid)
        self.proj = config.projection
        self.U, self.P, self.H = (np.empty((rows, config.grid.n_nodes)) for _ in range(3))
        self.D = np.empty((rows, config.n_modes))

    def load(self, X):
        np.matmul(X, self.E, out=self.U)

    def drift(self):
        """Mode coefficients of p(U), in the workspace D."""
        return np.matmul(_horner(self.c, self.U, self.P), self.proj, out=self.D)

    def flow(self, eta):
        """Project (eta E) exp(dt p'(U)) back onto the modes."""
        M = _horner(self.dc, self.U, self.P)
        M *= self.dt
        np.exp(M, out=M)
        H = np.matmul(eta, self.E, out=self.H)
        H *= M
        return H @ self.proj


# numpy sums fewer than 8 terms left to right, so below this many modes a
# column-by-column sum is numpy's sum(axis=1) bit for bit
PAIRWISE_MIN_TERMS = 8


def _steps(config, X, n, rng, eta=None, noise=True):
    """Step the scheme n times from X; yields (k, X, eta, w) after step k.

    Each step draws xi with the shape of X (noise=False zeroes it after the
    draw) and synthesizes U = X E once, for the reaction drift and for the
    derivative flow. Given a direction eta (one row per path), the flow and
    the gradient weight w = int_0^t <B^{-1} eta, dW>, taken left-point with
    the path's own increments, are carried along; otherwise both are None.
    The yielded X and eta are fresh arrays at every step; w is updated in
    place. Raises BlowUpError when a coefficient of X exceeds 1e6 in
    magnitude or is NaN.

    The step is X <- ema X + phi p(X) + sig xi and
    w <- w + sum_j (eta_j / B_j) xi_j sqrt(dt), with every operation of the
    written-out formulas in their order, so the bits are theirs. The per-call
    buffers, each (rows x modes) but dw (rows):
    - xi: rng.standard_normal(out=xi) draws the values a fresh draw would.
      After the state update it holds |X| for the blow-up check, whose max
      is np.max(np.abs(X)).
    - weighted: eta B^{-1} xi. When B is all ones, eta * 1.0 is eta, so the
      B^{-1} pass is skipped.
    - dw: its row sums, column by column below PAIRWISE_MIN_TERMS modes,
      which is sum(axis=1) term for term.
    ema X is the fresh state; the drift (in the reaction's workspace D) and
    xi, each used once per step, are scaled in place and added to it.
    """
    a = config.rates
    ema = np.exp(-a * config.dt)
    phi = (1.0 - ema) / a
    sig = config.b_array * np.sqrt((1.0 - ema ** 2) / (2.0 * a))
    reaction = _Reaction(config, X.shape[0]) if config.has_reaction else None
    unit_b = bool(np.all(config.b_array == 1.0))
    # one row per path: a (rows x modes) operand costs one ufunc loop, a
    # broadcast (modes,) one loop per row
    ema, phi, sig, Binv = (np.broadcast_to(v, X.shape).copy() for v in (ema, phi, sig, 1.0 / config.b_array))
    sqdt = math.sqrt(config.dt)
    w = None if eta is None else np.zeros(X.shape[0])
    xi = np.empty(X.shape)
    if eta is not None:
        weighted, dw = np.empty(X.shape), np.empty(X.shape[0])
    for k in range(1, n + 1):
        rng.standard_normal(out=xi)
        if not noise:
            xi.fill(0.0)
        if eta is not None:
            if unit_b:
                np.multiply(eta, xi, out=weighted)
            else:
                np.multiply(eta, Binv, out=weighted)
                weighted *= xi
            if X.shape[1] < PAIRWISE_MIN_TERMS:
                np.copyto(dw, weighted[:, 0])
                for j in range(1, X.shape[1]):
                    dw += weighted[:, j]
            else:
                np.sum(weighted, axis=1, out=dw)
            dw *= sqdt
            w += dw
        X_new = ema * X
        if reaction is not None:
            reaction.load(X)
            drift = reaction.drift()
            drift *= phi
            X_new += drift
        else:
            X_new += 0.0  # phi * 0, the drift without a reaction: it turns -0.0 into 0.0
        xi *= sig
        X_new += xi
        X = X_new
        if eta is not None:
            eta = _eta_step(eta, ema, reaction)
        if not np.abs(X, out=xi).max() <= 1e6:  # NaN fails this test too
            raise BlowUpError(f"state norm exceeded 1e6 at step {k} (invalid reaction?)")
        yield k, X, eta, w


def _snapshots(config, X, times, rng, eta=None, noise=True):
    """Step X to the largest of `times`; yields (i, X, w) at each times[i].

    Snapshots come in step order, and times at the same step in the order of
    `times`, so repeated times and time 0 (X itself, with a zero weight when
    eta is given) are allowed. X and w are as `_steps` yields them.
    """
    marks = [config.n_steps(t) for t in times]
    steps = _steps(config, X, max(marks, default=0), rng, eta, noise)
    k, w = 0, None if eta is None else np.zeros(X.shape[0])
    for i in sorted(range(len(times)), key=marks.__getitem__):
        while k < marks[i]:
            k, X, _, w = next(steps)
        yield i, X, w


def simulate(config, x0, times, seed, n_paths=1, disable_noise=False):
    """Forward paths of the reaction-diffusion SPDE at the given times, shape
    (n_paths, len(times), n_modes), checked against the exact OU law by
    criterion 8; same seed gives identical output.

    x0: single coefficient vector shared across paths, or (n_paths, n_modes).
    Noise per step is sigma_j xi with sigma matching the exact per-step OU
    variance; disable_noise=True zeroes the increments (deterministic probe).
    """
    rng = as_rng(seed, "spde", "simulate")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[0] == 1 and n_paths > 1:
        x0 = np.repeat(x0, n_paths, axis=0)
    states = np.empty((x0.shape[0], len(times), config.n_modes))
    for i, X, _ in _snapshots(config, x0, times, rng, noise=not disable_noise):
        states[:, i] = X
    return states


def _batch_stderr(series, n_batches=32):
    """The stderr of the mean of series from n_batches batch means, or from
    the series itself when a batch would be empty."""
    series = np.asarray(series, dtype=float)
    n = len(series) // n_batches
    if n < 1:
        return estimate(series).stderr
    return estimate(series[: n * n_batches].reshape(n_batches, n).mean(axis=1)).stderr


@dataclass(frozen=True)
class MomentReport:
    l2_moment: float
    l2_stderr: float
    l4_moment: float
    l4_stderr: float
    first_half_l2: float
    second_half_l2: float
    stationary: bool
    count: int


def sample_invariant(config, burn_in, count, thinning, seed):
    """Thinned post-burn-in states of one long path, with moment report.

    burn_in is in steps and must cover five relaxation times 1/alpha_1 of the
    slow mode (BurnInError otherwise); thinning is at least 1, and count at
    least 4, so that each half has the two draws a stderr needs. The
    stationarity diagnostic compares first and second half means of |x|_H^2
    at 3 batch-means stderr; a failure is reported as stationary=False, and
    each caller turns it into a verdict or a warning.
    """
    need = 5.0 / eigenvalue(1)
    if burn_in * config.dt < need:
        raise BurnInError(f"burn_in covers {burn_in * config.dt:.3g} time units; need >= {need:.3g}")
    if thinning < 1:
        raise ValueError(f"thinning must be at least 1, got {thinning}")
    if count < 4:
        raise ValueError(f"count must be at least 4 (two draws per half), got {count}")
    rng = as_rng(seed, "spde", "invariant")
    samples = np.empty((count, config.n_modes))
    X0 = np.zeros((1, config.n_modes))
    for k, X, _, _ in _steps(config, X0, burn_in + count * thinning, rng):
        i, r = divmod(k - burn_in, thinning)
        if i > 0 and r == 0:
            samples[i - 1] = X[0]

    l2 = (samples ** 2).sum(axis=1)
    U = samples @ basis_matrix(config.n_modes, config.grid)
    l4 = (U ** 4) @ config.grid.weights
    half = count // 2
    m1, m2 = float(l2[:half].mean()), float(l2[half:].mean())
    se1, se2 = _batch_stderr(l2[:half]), _batch_stderr(l2[half:])
    stationary = abs(m1 - m2) <= 3.0 * math.sqrt(se1 ** 2 + se2 ** 2)
    return samples, MomentReport(
        l2_moment=float(l2.mean()),
        l2_stderr=_batch_stderr(l2),
        l4_moment=float(l4.mean()),
        l4_stderr=_batch_stderr(l4),
        first_half_l2=m1,
        second_half_l2=m2,
        stationary=bool(stationary),
        count=count,
    )


# ---------------------------------------------------------------------------
# derivative flow and gradient estimators


def _eta_step(eta, ema, reaction):
    """One splitting step of the linearized flow along the frozen path, with
    the reaction (None without one) loaded from the state before the step."""
    eta = ema * eta
    if reaction is not None:
        eta = reaction.flow(eta)
    return eta


def derivative_flow(config, path_states, h):
    """The derivative flow eta = D_x X_t h, whose contraction criterion 8
    checks, along a frozen path: d eta = [A eta + Dp(X) eta] dt.

    path_states: (n_paths, n_steps+1, n_modes) at full resolution. Returns the
    same shape. The scheme is a product of contractions (exact linear decay,
    pointwise nonpositive-exponent multiplier, orthogonal projection), so
    |eta(t)| <= |h| holds up to roundoff and is asserted at 1e-8 slack; a
    NaN eta fails the assertion.
    """
    states = np.asarray(path_states, dtype=float)
    if states.ndim == 2:
        states = states[None]
    n_paths, n_times, _ = states.shape
    h = np.asarray(h, dtype=float)
    eta = np.broadcast_to(h, (n_paths, config.n_modes)).copy()
    out = np.empty_like(states)
    out[:, 0] = eta
    ema = np.exp(-config.rates * config.dt)
    reaction = _Reaction(config, n_paths) if config.has_reaction else None
    h_norm = math.sqrt(float((h ** 2).sum()))
    for k in range(1, n_times):
        if reaction is not None:
            reaction.load(states[:, k - 1])
        eta = _eta_step(eta, ema, reaction)
        worst = math.sqrt(float((eta ** 2).sum(axis=1).max()))
        if not worst <= h_norm * (1.0 + 1e-8) + 1e-300:
            raise SchemeError(f"contraction violated at step {k}: |eta|={worst} > |h|={h_norm}")
        out[:, k] = eta
    return out


def semigroup(config, phi, x, t, n_mc, seed):
    """The transition semigroup (P_t phi)(x), checked against OU decay by
    criterion 8, by Monte Carlo over independent paths from x; at t = 0 the
    exact phi(x) with stderr 0."""
    if config.n_steps(t) == 0:
        v = float(np.asarray(phi(np.atleast_2d(np.asarray(x, dtype=float)))).ravel()[0])
        return Estimate(v, 0.0, n_mc)
    return estimate(phi(simulate(config, np.asarray(x, dtype=float), [t], seed, n_paths=n_mc)[:, 0]))


def bel_gradient(config, phi, x, h, t, n_mc, seed):
    """D_x P_t phi at x along h, checked against OU decay by criterion 8, via
    the Bismut-Elworthy-Li weight.

    (1/t) E[ phi(X_t) int_0^t <B^{-1} eta(s), dW(s)> ] with the stochastic
    integral accumulated left-point on the simulation grid, sharing the same
    normal increments as the path. The Estimate's inconclusive flag says
    whether stderr exceeds 50% of |estimate|.
    """
    if t <= 0:
        raise ValueError("bel_gradient needs t > 0")
    n = config.n_steps(t)
    rng = as_rng(seed, "spde", "bel")
    X = np.repeat(np.atleast_2d(np.asarray(x, dtype=float)), n_mc, axis=0)
    eta = np.broadcast_to(np.asarray(h, dtype=float), X.shape).copy()
    w = np.zeros(n_mc)
    for _, X, _, w in _steps(config, X, n, rng, eta=eta):
        pass
    return estimate(np.asarray(phi(X), dtype=float) * w / t)


# ---------------------------------------------------------------------------
# commutator machinery


def _commutator_samples(config, u, F, eps_sorted, x, n_mc, rng):
    """Per-path difference d_i(eps) = u(X_eps) w_i / eps - <Du, F>(X_eps).

    One simulation per base point x, integrated to max(eps) and snapshotted at
    every requested eps (all multiples of dt). Returns (n_eps, n_mc).
    """
    X = np.repeat(np.atleast_2d(np.asarray(x, dtype=float)), n_mc, axis=0)
    k_field = F.n_components
    h = np.zeros(config.n_modes)
    h[:k_field] = F.value(0.0, X[:1, :k_field])[0]
    eta = np.broadcast_to(h, X.shape).copy()
    out = np.empty((len(eps_sorted), n_mc))
    for i, X, w in _snapshots(config, X, eps_sorted, rng, eta=eta):
        uval = np.asarray(u.value(X), dtype=float)
        gu = u.grad(X)
        m = min(gu.shape[1], k_field)
        out[i] = uval * w / eps_sorted[i] - (gu[:, :m] * F.value(0.0, X)[:, :m]).sum(axis=1)
    return out


def commutator(config, u, F, eps, x, n_mc, seed):
    """B_eps(u, F)(x) = <D P_eps u, F(x)> - P_eps(<Du, F>)(x), shared noise."""
    if not (0 < eps <= 1):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    rng = as_rng(seed, "spde", "commutator")
    return estimate(_commutator_samples(config, u, F, [eps], np.asarray(x, dtype=float), n_mc, rng)[0])


@dataclass(frozen=True)
class DecayCurveReport:
    estimates: tuple  # (eps, Estimate over the base points), decreasing eps
    trend_established: bool
    drop: float
    drop_stderr: float
    stationary: bool  # the base points' chain passed sample_invariant's check


def commutator_decay_curve(config, u, F, eps_grid, n_mc_per_eps, n_x_samples, seed, thinning=None, workers=1):
    """L1(gamma) commutator norm on an eps grid, outer-sampled from the
    invariant measure; the contract is a decay trend from the largest to the
    smallest eps, and an unestablished trend is reported (not raised). Each
    eps of the grid, repeated ones too, gets the Estimate of the n_x_samples
    per-point values |mean of its n_mc_per_eps path differences|.

    Each base point gets its own substream keyed by its index, so the result
    is identical for any worker count. The base points' chain burns in for
    6 relaxation times."""
    eps_grid = sorted(float(e) for e in eps_grid)
    if thinning is None:
        thinning = relaxation_steps(config, 1.0)
    burn_in = relaxation_steps(config, 6.0)
    xs, chain = sample_invariant(config, burn_in, n_x_samples, thinning, as_rng(seed, "spde", "curve-outer"))

    def one_point(ix):
        rng = as_rng(seed, "spde", "curve-inner", ix)
        d = _commutator_samples(config, u, F, eps_grid, xs[ix], n_mc_per_eps, rng)
        return np.abs(d.mean(axis=1))

    cols = map_units(one_point, range(n_x_samples), workers)
    ests = [estimate(row) for row in np.stack(cols, axis=1)]
    first = ests[-1]  # largest eps
    last = ests[0]  # smallest eps
    drop = first.estimate - last.estimate
    dse = math.sqrt(first.stderr ** 2 + last.stderr ** 2)
    return DecayCurveReport(
        estimates=tuple(zip(eps_grid, ests))[::-1],
        trend_established=bool(drop > 2.0 * dse),
        drop=float(drop),
        drop_stderr=float(dse),
        stationary=chain.stationary,
    )


def commutator_identity_probe(config, u, h, eps, n_outer, n_inner, n_simpson, seed):
    """Checks the DaDe14 commutator formula for D_x P_t - P_t D_x, for a
    constant direction F = h.

    For a constant field F = h the commutator satisfies
    B_eps(u,h) = int_0^eps P_{eps-s}[ <A h + Dp(.) h, D P_s u> ](x) ds
    (OU check: u = x_1, h = e_1 gives both sides e^{-a_1 eps} - 1). Both sides
    are estimated by nested Monte Carlo at the origin; returns
    (lhs, rhs, lhs stderr).
    """
    if n_simpson % 2 == 1:
        n_simpson += 1
    x0 = np.zeros(config.n_modes)
    h = np.asarray(h, dtype=float)
    from .fields import constant_field

    width = int(np.max(np.nonzero(h)[0])) + 1 if np.any(h) else 1
    F = constant_field(h[:width])
    lhs = commutator(config, u, F, eps, x0, n_outer * n_inner, as_rng(seed, "spde", "ident-lhs"))

    s_nodes = np.linspace(0.0, eps, n_simpson + 1)
    s_nodes = np.array([config.dt * config.n_steps(s) if s > 0 else 0.0 for s in s_nodes])
    simpson_w = simpson_weights(n_simpson) * ((eps / n_simpson) / 3.0)

    a = config.rates
    E = basis_matrix(config.n_modes, config.grid) if config.has_reaction else None

    def q_of(z, s, seed_s):
        """<A h + Dp(z) h, D_z P_s u (z)> for each row z."""
        if s == 0:
            inner_dir = np.asarray(u.grad(z), dtype=float)
        else:
            inner_dir = None
        # direction v(z) = -a*h + Dp(z) h in mode coordinates
        v = np.broadcast_to(-a * h, z.shape).copy()
        if config.has_reaction:
            U = z @ E
            mult = _horner(_poly_pair(config.p_coeffs)[1], U, np.empty(U.shape))
            v = v + ((np.broadcast_to(h, z.shape) @ E) * mult) @ config.projection
        if s == 0:
            k = inner_dir.shape[1]
            return (v[:, :k] * inner_dir).sum(axis=1)
        vals = np.empty(z.shape[0])
        for i in range(z.shape[0]):
            rep = bel_gradient(config, u.value, z[i], v[i], s, n_inner, as_rng(seed_s, "row", i))
            vals[i] = rep.estimate
        return vals

    rhs_terms = []
    for j, s in enumerate(s_nodes):
        if eps - s > 0:
            z = simulate(config, x0, [eps - s], as_rng(seed, "spde", "ident-outer", j), n_paths=n_outer)[:, 0]
        else:
            z = np.atleast_2d(x0)
        rhs_terms.append(float(np.mean(q_of(z, s, as_rng(seed, "spde", "ident-inner", j)))))
    rhs = float(simpson_w @ np.array(rhs_terms))
    return lhs.estimate, rhs, lhs.stderr


# ---------------------------------------------------------------------------
# V-norm and the martingale moment ratio


def v_norm(config, phi, eps_grid, n_mc, seed, burn_in=None, thinning=None):
    """Checks the Dirichlet form of the invariant measure gamma, the quadratic
    form of the V-norm: max over the eps grid of (1/eps) E_gamma[ phi (phi - P_eps phi) ].

    One invariant-measure draw and one path per MC sample; the path is run to
    max(eps) and snapshotted at each grid value, so every grid point uses the
    same outer randomness.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    if burn_in is None:
        burn_in = relaxation_steps(config, 6.0)
    if thinning is None:
        thinning = relaxation_steps(config, 1.0)
    xs, _ = sample_invariant(config, burn_in, n_mc, thinning, as_rng(seed, "spde", "vnorm-outer"))
    rng = as_rng(seed, "spde", "vnorm-inner")
    phi0 = np.asarray(phi(xs), dtype=float)
    vals = np.empty((len(eps_grid), n_mc))
    for i, X, _ in _snapshots(config, xs, eps_grid, rng):
        vals[i] = phi0 * (phi0 - np.asarray(phi(X), dtype=float)) / eps_grid[i]
    per_eps = [estimate(row) for row in vals]
    best = max(range(len(eps_grid)), key=lambda i: per_eps[i].estimate)
    return per_eps[best], {eps_grid[i]: per_eps[i] for i in range(len(eps_grid))}


@dataclass(frozen=True)
class BdgReport:
    ratio: float
    bound: float
    numerator: float
    numerator_stderr: float
    denominator: float
    degenerate: bool
    p: float
    n_mc: int

    @property
    def margin(self):
        return self.bound / self.ratio if self.ratio > 0 else math.inf


def bdg_check(p, phi_values, t, n_mc, seed, n_steps=512):
    """Ratio E sup_{s<=t} |int Phi dW|^p over (int ||Phi||^2 ds)^{p/2}.

    Phi is a deterministic scalar step function given by its values on the
    uniform partition of [0, t]. Zero integrand returns a degenerate report
    instead of dividing by zero.
    """
    if p < 4:
        raise ValueError(f"moment order must be >= 4, got {p}")
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_values.ndim == 0:
        phi_values = np.full(n_steps, float(phi_values))
    if len(phi_values) != n_steps:
        phi_values = np.interp(
            np.linspace(0.0, 1.0, n_steps, endpoint=False), np.linspace(0.0, 1.0, len(phi_values), endpoint=False), phi_values
        )
    dt = t / n_steps
    denom = float((phi_values ** 2).sum() * dt) ** (p / 2.0)
    bound = 12.0 ** p * p ** p
    if denom == 0.0:
        return BdgReport(ratio=0.0, bound=bound, numerator=0.0, numerator_stderr=0.0, denominator=0.0, degenerate=True, p=p, n_mc=n_mc)
    rng = as_rng(seed, "spde", "bdg")
    sup_p = np.empty(n_mc)
    chunk = max(1, 4_000_000 // n_steps)
    sq = math.sqrt(dt)
    for lo in range(0, n_mc, chunk):
        m = min(chunk, n_mc - lo)
        incr = rng.standard_normal((m, n_steps)) * (phi_values * sq)
        path = np.cumsum(incr, axis=1)
        sup_p[lo : lo + m] = np.max(np.abs(path), axis=1) ** p
    num = estimate(sup_p)
    return BdgReport(
        ratio=num.estimate / denom,
        bound=bound,
        numerator=num.estimate,
        numerator_stderr=num.stderr,
        denominator=denom,
        degenerate=False,
        p=float(p),
        n_mc=n_mc,
    )
