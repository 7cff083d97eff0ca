"""The reference measure on the truncated space: the Gibbs family, whose
alpha = 0 member is the Gaussian.

Provides samplers, logarithmic derivatives beta_h (the density log-gradient in
direction h), the finite-dimensional disintegration density Psi^2_N relative
to Lebesgue measure on the first N coordinates, and the clip/mollify ladder
Psi^2_{M,l} used by the transport and verification machinery; a slice and a
ladder both give value, beta, N, source and M.

Conventions: the Gaussian has mode precision lam_j (inverse variance),
lam_j = 2 pi^2 j^2 for the natural choice; GibbsMeasure reweights it by
exp(-(alpha/p) int_0^1 |x(xi)|^p dxi) / Z with p > 2, alpha >= 0.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .rng import Estimate, as_rng, estimate
from .spectral import Grid, _leggauss, basis_matrix, exact_midpoint_grid, synthesize

SLICE_GRID_NODES = 128
# grid values per block of the coupling kernel: a block's three 512 KB
# buffers fit in a 2 MB L2, and a slice call of verify-1d (at most 8448 rows
# x 3 nodes) is one block
COUPLING_BLOCK_VALUES = 65536
# BLAS computes a product of few rows with kernels that round differently
# from the ones a long product uses; blocks of at least this many rows, a
# multiple of 8, give every row the bits the one-shot product gives it
COUPLING_MIN_ROWS = 1024
# the Gibbs sampler's largest thinning, and its first proposals (warmup too) of which 1% must be accepted
MAX_THIN, ADAPT_WINDOW = 256, 1000


class SamplerDegenerateError(RuntimeError):
    pass


class NotThinnableError(RuntimeError):
    pass


def natural_precisions(n_modes):
    """lam_j = 2 pi^2 j^2, the inverse covariance of N(0, (1/2)(-A)^{-1})."""
    js = np.arange(1, n_modes + 1)
    return 2.0 * np.pi ** 2 * js.astype(float) ** 2


@lru_cache(maxsize=None)
def coupling_grid(p, n_modes):
    """Quadrature on (0,1) for the Gibbs coupling of n_modes-mode points.

    For even integer p, |x|^p and e_i |x|^{p-2} x are cosine polynomials of
    degree <= p * n_modes in pi xi, which p * n_modes / 2 + 1 midpoint nodes
    integrate exactly; any other p gets SLICE_GRID_NODES Gauss-Legendre nodes.
    """
    if p == int(p) and int(p) % 2 == 0:
        return exact_midpoint_grid(int(p) * n_modes)
    grid = Grid.gauss_legendre(SLICE_GRID_NODES)
    # shared by every measure and slice with this (p, n_modes)
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def coupling_block_rows(n_nodes):
    """Rows per block of the coupling kernel on a grid of n_nodes nodes."""
    return max(COUPLING_MIN_ROWS, COUPLING_BLOCK_VALUES // n_nodes // 8 * 8)


def _coupling(m, X, shift=None, potential=True, gradient=False):
    """The Gibbs coupling of coefficient rows X, for m with alpha, p and grid.

    With U = synthesize(X, m.grid) (+ shift) the grid values and e_i the
    rows of basis_matrix(X.shape[1], m.grid): the potential
    (alpha/p) int |U|^p dxi and the gradient alpha int e_i |U|^{p-2} U dxi
    per row, each None unless asked for. For even integer p the kernel works
    on S = U^2: the potential is S^{p/2} @ w and the gradient
    (S^{p/2-1} U) @ (E w)^T, with no abs and, for p = 4, no general pow (numpy
    squares for the exponent 2); any other p takes |U|^p and |U|^{p-2} U onto
    the same folded projection (E w)^T. U is synthesized one block of rows at
    a time, and worked on in reused buffers; the last block takes the rows
    left over, so a call of fewer than two blocks' rows is one block.
    """
    E = basis_matrix(X.shape[1], m.grid)
    n, n_nodes = X.shape[0], E.shape[1]
    rows = coupling_block_rows(n_nodes)
    starts = range(0, max(n // rows, 1) * rows, rows)
    pot = np.empty(n) if potential else None
    grad = np.empty((n, E.shape[0])) if gradient else None
    A = np.empty((n - starts[-1], n_nodes))
    P = np.empty_like(A) if potential and gradient else A
    w = m.grid.weights
    proj = (E * w).T if gradient else None
    # even p: a = S, S^{p/2} and S^{p/2-1} U; other p: a = |U|, |U|^p and |U|^{p-2} U
    even = m.p == int(m.p) and int(m.p) % 2 == 0
    pot_power, grad_power = (m.p / 2.0, m.p / 2.0 - 1.0) if even else (m.p, m.p - 2.0)
    for lo in starts:
        hi = lo + rows if lo != starts[-1] else n
        u = synthesize(X[lo:hi], m.grid)
        if shift is not None:
            u += shift
        a = np.multiply(u, u, out=A[: hi - lo]) if even else np.abs(u, out=A[: hi - lo])
        if potential:
            np.matmul(np.power(a, pot_power, out=P[: hi - lo]), w, out=pot[lo:hi])
        if gradient:
            if grad_power != 1.0:
                a **= grad_power
            a *= u
            np.matmul(a, proj, out=grad[lo:hi])
    if potential:
        pot *= m.alpha / m.p
    if gradient:
        grad *= m.alpha
    return pot, grad


@dataclass(frozen=True)
class GibbsMeasure:
    """The reference measure: the Gaussian with mode precisions lam reweighted
    by exp(-(alpha/p) int_0^1 |x(xi)|^p dxi) / Z; alpha = 0 is the Gaussian."""

    n_modes: int
    alpha: float = 0.0
    p: float = 4.0
    lam: np.ndarray = None  # mode precisions, natural_precisions by default

    def __post_init__(self):
        lam = np.asarray(natural_precisions(self.n_modes) if self.lam is None else self.lam, dtype=float)
        if lam.shape != (self.n_modes,) or np.any(lam <= 0):
            raise ValueError("precision vector must be positive with one entry per mode")
        if self.p <= 2:
            raise ValueError(f"Gibbs exponent must satisfy p > 2, got {self.p}")
        if self.alpha < 0:
            raise ValueError(f"Gibbs alpha must be nonnegative, got {self.alpha}")
        object.__setattr__(self, "lam", lam)

    @property
    def mode_std(self):
        return 1.0 / np.sqrt(self.lam)

    @property
    def grid(self):
        return coupling_grid(self.p, self.n_modes)


def beta_components(measure, X):
    """beta_{e_i}(x) for i = 1..n_modes, vectorized over rows of X.

    Gaussian: -lam_i x_i. Gibbs adds -alpha int e_i |x|^{p-2} x dxi.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = -measure.lam * X
    if measure.alpha > 0:
        out = out - _coupling(measure, X, potential=False, gradient=True)[1]
    return out


def beta(measure, h, x):
    """beta_h(x) for a coefficient vector h: an array with one entry per row
    of x, also for a single point."""
    h = np.asarray(h, dtype=float)
    return beta_components(measure, x)[:, : len(h)] @ h


def sample_gaussian(measure, count, seed):
    """count independent draws of the measure's alpha = 0 Gaussian; deterministic given seed."""
    rng = as_rng(seed, "measures", "gaussian")
    if count == 0:
        return np.empty((0, measure.n_modes))
    return rng.standard_normal((count, measure.n_modes)) * measure.mode_std


def lag1_autocorrelation(v):
    v = np.asarray(v, dtype=float)
    d = v - v.mean()
    denom = (d * d).sum()
    if denom == 0:
        return 0.0
    return float((d[:-1] * d[1:]).sum() / denom)


def _metropolis_walk(state_pot, pots, logu):
    """The accept decisions of an independence Metropolis chain that enters
    with potential state_pot: proposal k is accepted, and becomes the state,
    when logu[k] <= (potential of the state before k) - pots[k]. Returns
    (acc, last), last[k] the index of the state after proposal k, -1 for the
    entering state.

    The decisions are solved as a fixed point instead of walked: guess the
    state before each proposal, decide every proposal against its guess,
    rebuild the guesses from those decisions, and repeat until the decisions
    stop changing. Where the decisions before k are the walk's, the next
    round's decision at k is the walk's too, so the first position at which
    the iterate differs from the walk moves right every round: the loop ends
    within len(pots) rounds, and its one fixed point is the walk.
    """
    idx = np.arange(len(pots))
    pot_of = np.append(pots, state_pot)  # index -1 is the entering state
    prev = idx - 1  # first guess: every proposal accepted
    acc = None
    while True:
        new = logu <= pot_of[prev] - pots
        if acc is not None and np.array_equal(new, acc):
            return acc, last
        acc = new
        last = np.maximum.accumulate(np.where(acc, idx, -1))
        prev[1:] = last[:-1]


def sample_gibbs(measure, count, seed):
    """Gibbs draws via independence Metropolis from the alpha = 0 Gaussian.

    Acceptance ratio exp(-(alpha/p)(|x'|_p^p - |x|_p^p)); the chain is thinned
    (factor doubled as needed) until the lag-1 autocorrelation of |x|_H^2 is
    below 0.1, at most MAX_THIN. Deterministic given seed.
    """
    if count == 0:
        return np.empty((0, measure.n_modes))
    if measure.alpha == 0:
        return sample_gaussian(measure, count, seed)
    rng = as_rng(seed, "measures", "gibbs")

    std = measure.mode_std
    state = rng.standard_normal(measure.n_modes) * std
    state_pot = float(_coupling(measure, state[None])[0][0])
    accepted = 0
    proposed = 0

    def advance(n_steps, thin=1):
        """The chain's states after proposals thin-1, 2 thin-1, ... of
        n_steps new ones, drawn in bulk with their uniforms."""
        nonlocal state, state_pot, accepted, proposed
        props = rng.standard_normal((n_steps, measure.n_modes))
        props *= std
        pots = _coupling(measure, props)[0]
        logu = np.log(rng.random(n_steps))
        acc, last = _metropolis_walk(state_pot, pots, logu)
        if proposed < ADAPT_WINDOW <= proposed + n_steps:
            # acceptances up to and including the window's last proposal
            seen = accepted + int(np.count_nonzero(acc[: ADAPT_WINDOW - proposed]))
            if seen < 0.01 * ADAPT_WINDOW:
                raise SamplerDegenerateError(
                    f"acceptance {seen}/{ADAPT_WINDOW} below 1%: alpha*p too aggressive "
                    f"for n_modes={measure.n_modes}"
                )
        accepted += int(np.count_nonzero(acc))
        proposed += n_steps
        kept = last[thin - 1 :: thin]
        out = props[np.maximum(kept, 0)]
        out[kept < 0] = state
        if last[-1] >= 0:
            state, state_pot = props[last[-1]].copy(), float(pots[last[-1]])
        return out

    warmup = min(200, 10 * measure.n_modes)
    advance(warmup)
    chain = advance(count)
    thin = 1
    while lag1_autocorrelation((chain ** 2).sum(axis=1)) >= 0.1:
        thin *= 2
        if thin > MAX_THIN:
            raise NotThinnableError(f"lag-1 autocorrelation still >= 0.1 at thinning {MAX_THIN}")
        chain = advance(count * thin, thin)
    return chain


def normalizing_constant(measure, count=20000):
    """Z as an Estimate: the importance estimate of E exp(-(alpha/p)|x|_p^p)
    under the alpha = 0 Gaussian, or the exact 1 with stderr 0 when alpha = 0."""
    if measure.alpha == 0:
        return Estimate(1.0, 0.0, count)
    draws = sample_gaussian(measure, count, as_rng(0, "measures", "zconst"))
    return estimate(np.exp(-_coupling(measure, draws)[0]))


# ---------------------------------------------------------------------------
# disintegration density and ladder


@dataclass(frozen=True)
class SliceDensity:
    """Psi^2_N(. , y) of a measure for a fixed tail y: density of the first N
    coordinates; bind(y) gives the slice at another tail, with the same Z.

    value(X) evaluates the explicit formula (product of mode Gaussians times
    the Gibbs coupling at x + y), beta(X) its exact log-gradient, which equals
    the measure-level beta_{e_i} at the stacked point (x, y). Read as a
    ladder, a slice is its own source, with M infinite.
    """

    measure: GibbsMeasure
    N: int
    log_pref: float  # log normalization: sum log sqrt(lam/2pi) - log Z
    z_stderr: float
    y_values: np.ndarray  # tail synthesized on the measure's grid, (n_nodes,); None at tail 0

    M = math.inf

    @property
    def source(self):
        return self

    def bind(self, y):
        """The slice at tail coefficients y (length n_modes - N)."""
        n_tail = self.measure.n_modes - self.N
        y = np.asarray(y, dtype=float)
        if y.shape != (n_tail,):
            raise ValueError(f"tail must have length {n_tail}, got {y.shape}")
        y_values = synthesize(np.concatenate([np.zeros(self.N), y]), self.measure.grid)
        return replace(self, y_values=y_values)

    def _log_value_and_beta(self, X, value=True, gradient=True):
        """(log value, beta) rows of X, each None unless asked for."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = self.measure
        lam = m.lam[: self.N]
        logv = self.log_pref - 0.5 * (X ** 2 @ lam) if value else None
        b = -lam * X if gradient else None
        if m.alpha > 0:
            pot, grad = _coupling(m, X, self.y_values, value, gradient)
            if value:
                logv = logv - pot
            if gradient:
                b = b - grad
        return logv, b

    def value(self, X):
        return np.exp(self._log_value_and_beta(X, gradient=False)[0])

    def beta(self, X):
        """Log-gradient rows (d/dx_i log Psi^2)(x) = beta_{e_i}(x, y)."""
        return self._log_value_and_beta(X, value=False)[1]

    def value_and_beta(self, X):
        logv, b = self._log_value_and_beta(X)
        return np.exp(logv), b


def psi_squared(measure, N):
    """The disintegration density of the first N modes against Lebesgue dx,
    at tail 0; bind gives it at other tails.

    Explicit formula: prod_{i<=N} sqrt(lam_i/2pi) e^{-lam_i x_i^2/2} times
    exp(-(alpha/p) |x+y|_p^p) / Z; for alpha = 0 this is exactly the product
    of mode Gaussians. Z is estimated once (importance sampling) and its
    stderr is carried as z_stderr.
    """
    if N > measure.n_modes:
        raise ValueError(f"N={N} exceeds n_modes={measure.n_modes}")
    Z = normalizing_constant(measure)
    lam = measure.lam[:N]
    log_pref = float(0.5 * np.log(lam / (2.0 * np.pi)).sum() - math.log(Z.estimate))
    return SliceDensity(measure, N, log_pref, Z.stderr, None)


def mollifier_profile(v_sq):
    """Unnormalized bump (1 - |v|^2)^3 on the unit ball as a function of |v|^2."""
    return np.clip(1.0 - v_sq, 0.0, None) ** 3


def _mollifier_offsets(N, l, n_quad, mc_draws, seed):
    """Offsets u_k in the ball of radius 1/l and weights summing exactly to 1."""
    if N <= 3:
        offsets, w = tensor_grid(N, 1.0 / l, n_quad)
        w = w * mollifier_profile((offsets * l) ** 2 @ np.ones(N))
        keep = w > 0
        offsets, w = offsets[keep], w[keep]
    else:
        rng = as_rng(seed, "measures", "ladder-mc", N, l)
        # radial inverse-cdf sampling of the bump profile, direction uniform
        r_grid = np.linspace(0.0, 1.0, 2049)
        pdf = r_grid ** (N - 1) * mollifier_profile(r_grid ** 2)
        cdf = np.cumsum(pdf)
        cdf /= cdf[-1]
        r = np.interp(rng.random(mc_draws), cdf, r_grid)
        d = rng.standard_normal((mc_draws, N))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        offsets = (r[:, None] * d) / l
        w = np.ones(mc_draws)
    return offsets, w / w.sum()


@dataclass(frozen=True)
class LadderDensity:
    """Psi^2_{M,l}: source clipped into [1/M, M], then mollified in x.

    The convolution is a fixed convex combination over precomputed offsets, so
    the evaluator and its gradient are exactly consistent (term-by-term
    differentiation) and the clip bounds are preserved to machine precision.
    """

    source: SliceDensity
    M: float
    l: int
    offsets: np.ndarray = None  # (K, N)
    conv_weights: np.ndarray = None  # (K,)

    @property
    def N(self):
        return self.source.N

    def _shifted(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pts = X[:, None, :] - self.offsets[None, :, :]
        return pts.reshape(-1, self.N), X.shape[0]

    def value(self, X):
        flat, npts = self._shifted(X)
        vals = self.source.value(flat).reshape(npts, -1)
        return np.clip(vals, 1.0 / self.M, self.M) @ self.conv_weights

    def value_and_log_gradient(self, X):
        flat, npts = self._shifted(X)
        vals, betas = self.source.value_and_beta(flat)
        K = self.offsets.shape[0]
        vals = vals.reshape(npts, K)
        betas = betas.reshape(npts, K, self.N)
        inband = (vals > 1.0 / self.M) & (vals < self.M)
        clipped = np.clip(vals, 1.0 / self.M, self.M)
        total = clipped @ self.conv_weights
        grad = ((vals * inband)[:, :, None] * betas * self.conv_weights[None, :, None]).sum(axis=1)
        return total, grad / total[:, None]

    def beta(self, X):
        """Log-gradient rows of the ladder density."""
        return self.value_and_log_gradient(X)[1]


def ladder(source, M, l, n_quad=33, mc_draws=10000, seed=0):
    """Build Psi^2_{M,l} from a SliceDensity: the literal clip-and-mollify
    object, which is what the inequality checks exercise."""
    if M < 1:
        raise ValueError(f"clip level must satisfy M >= 1, got {M}")
    if l < 1:
        raise ValueError(f"mollifier scale must satisfy l >= 1, got {l}")
    offsets, w = _mollifier_offsets(source.N, int(l), n_quad, mc_draws, seed)
    return LadderDensity(source=source, M=float(M), l=int(l), offsets=offsets, conv_weights=w)


# ---------------------------------------------------------------------------
# integration-by-parts and integrability diagnostics


@dataclass(frozen=True)
class IbpReport:
    residual: float
    stderr: float
    count: int

    @property
    def passed(self):
        return abs(self.residual) <= 4.0 * self.stderr


def ibp_residual(measure, u, h, count, seed):
    """Monte-Carlo residual of int d_h u dgamma + int u beta_h dgamma.

    u is a Cylinder (value + gradient); h a coefficient vector. Returns the
    Monte-Carlo mean with its standard error; the contract is
    |residual| <= 4 stderr.
    """
    X = sample_gibbs(measure, count, seed)
    est = estimate(u.directional(h, X) + u.value(X) * beta(measure, h, X))
    return IbpReport(residual=est.estimate, stderr=est.stderr, count=count)


@dataclass(frozen=True)
class ExpIntegrabilityReport:
    estimate: float
    stderr: float
    half_estimate: float
    diverged: bool
    c: float


def exp_integrability(measure, h, c, count, seed):
    """Checks that the log-derivative beta_h, h a coefficient vector, is
    exponentially integrable: the MC mean of exp(c |beta_h|) with a
    half-sample stability diagnostic."""
    if c <= 0:
        raise ValueError(f"exponential-integrability constant must be positive, got {c}")
    X = sample_gibbs(measure, count, seed)
    v = np.exp(c * np.abs(beta(measure, h, X)))
    est = estimate(v)
    half = float(v[: count // 2].mean())
    ratio = est.estimate / half if half > 0 else np.inf
    return ExpIntegrabilityReport(
        estimate=est.estimate,
        stderr=est.stderr,
        half_estimate=half,
        diverged=bool(ratio > 2.0 or ratio < 0.5),
        c=float(c),
    )


def integrability_constants(measure, count=2000, seed=0):
    """Per-direction constants c_i with c_i |beta_{e_i}| of order one.

    Any positive c_i admits finite exponential moments for these families;
    the artifact convention pins c_i = 1/(2 sd(beta_{e_i})) from a seeded
    pilot sample so downstream recipes are deterministic.
    """
    X = sample_gibbs(measure, count, seed)
    sd = beta_components(measure, X).std(axis=0, ddof=1)
    return 1.0 / (2.0 * np.maximum(sd, 1e-12))


# ---------------------------------------------------------------------------
# the Jensen chain of exponential integrals


def tensor_grid(N, R, n_per_axis):
    """Tensor Gauss-Legendre nodes/weights over [-R, R]^N."""
    x1, w1 = _leggauss(n_per_axis)
    x1 = x1 * R
    w1 = w1 * R
    mesh = np.meshgrid(*([x1] * N), indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    w = np.ones(X.shape[0])
    for m in np.meshgrid(*([w1] * N), indexing="ij"):
        w = w * m.ravel()
    return X, w


def _ray_cuts(slice_density, U, R, levels, scan=512):
    """Per-ray radii where the density crosses each level, found by bisection.

    U: (n_rays, N) unit directions. Crossings are bracketed on a uniform scan
    of [0, R] and refined to machine width, so quadrature panels can share
    their edges with the clip discontinuities exactly.
    """
    n_rays = U.shape[0]
    rs = np.linspace(0.0, R, scan + 1)
    X = (rs[None, :, None] * U[:, None, :]).reshape(-1, slice_density.N)
    vals = slice_density.value(X).reshape(n_rays, scan + 1)
    out = [[] for _ in range(n_rays)]
    for lev in levels:
        d = vals - lev
        rows, cols = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
        if rows.size == 0:
            continue
        a = rs[cols].copy()
        b = rs[cols + 1].copy()
        da = d[rows, cols].copy()
        for _ in range(52):
            mid = 0.5 * (a + b)
            dm = slice_density.value(mid[:, None] * U[rows]) - lev
            go_left = da * dm <= 0.0
            b = np.where(go_left, mid, b)
            a = np.where(go_left, a, mid)
            da = np.where(go_left, da, dm)
        for r_i, c in zip(rows, 0.5 * (a + b)):
            out[r_i].append(float(c))
    return [sorted(c) for c in out]


def _graded_edges(a, b, scale, sharp_left, sharp_right, mid_cap=0.25):
    """Panel edges on [a, b], geometrically graded toward sharp endpoints."""
    length = b - a
    if length <= 1.5 * scale:
        return [a, b]
    half = a + 0.5 * length
    left = [a]
    if sharp_left:
        w, x = scale, a
        while x + w < half:
            x += w
            left.append(x)
            w *= 1.7
    right = [b]
    if sharp_right:
        w, x = scale, b
        while x - w > half:
            x -= w
            right.append(x)
            w *= 1.7
    lo, hi = left[-1], min(right)
    n_mid = max(1, int(math.ceil((hi - lo) / mid_cap)))
    mids = list(np.linspace(lo, hi, n_mid + 1))[1:-1]
    return left + mids + sorted(right)


def band_grid(slice_density, M, l, R=2.0, n_angle=96, n_leg=16):
    """Quadrature nodes/weights adapted to the clip band of the density.

    The clipped integrands of the exponential-integral chain jump where the
    density crosses M or 1/M and their mollified versions vary at scale 1/l
    around the same radii, so each ray gets Gauss-Legendre panels whose edges
    sit on the crossing radii, graded at the mollifier scale nearby. Supports
    N in {1, 2}; 2-D uses a midpoint rule in angle (periodic, smooth).
    """
    N = slice_density.N
    levels = [1.0 / float(M), float(M)]
    scale = max(1.0 / (2.0 * l), 1e-3)
    if N == 1:
        U = np.array([[1.0], [-1.0]])
        ang_w = np.ones(2)
    elif N == 2:
        th = (np.arange(n_angle) + 0.5) * (2.0 * np.pi / n_angle)
        U = np.stack([np.cos(th), np.sin(th)], axis=-1)
        ang_w = np.full(n_angle, 2.0 * np.pi / n_angle)
    else:
        raise ValueError(f"band grid supports N in {{1, 2}}, got N={N}")
    cuts_per_ray = _ray_cuts(slice_density, U, R, levels)
    xg, wg = _leggauss(n_leg)
    Xs, Ws = [], []
    for u, aw, cuts in zip(U, ang_w, cuts_per_ray):
        edges = [0.0] + [c for c in cuts if 1e-9 < c < R - 1e-9] + [R]
        panels = []
        for i in range(len(edges) - 1):
            seg = _graded_edges(edges[i], edges[i + 1], scale, i > 0, i < len(edges) - 2)
            panels.extend(seg if not panels else seg[1:])
        panels = np.asarray(panels)
        h = 0.5 * np.diff(panels)
        c = panels[:-1] + h
        r = (c[:, None] + h[:, None] * xg[None, :]).ravel()
        w = (h[:, None] * wg[None, :]).ravel()
        if N == 2:
            w = w * r
        Xs.append(r[:, None] * u[None, :])
        Ws.append(aw * w)
    return np.concatenate(Xs, axis=0), np.concatenate(Ws)


def jensen_chain(slice_density, M, l, eps, direction, R=2.0, n_angle=96, n_leg=16, ladder_kwargs=None, chunk=2048):
    """The three exponential integrals int (e^{eps|log-grad|} - 1) * density dx.

    Returns (I_mollified, I_clipped, I_exact); the chain contract is
    I_mollified <= I_clipped <= I_exact within quadrature tolerance. Nodes
    come from band_grid so the clip jumps sit on panel edges; the mollified
    term is evaluated in chunks to bound the (points x offsets) workspace.
    eps may be a scalar or a sequence; a sequence shares the density and
    ladder evaluations across all the exponents and yields arrays.
    """
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    lad = ladder(slice_density, M, l, **(ladder_kwargs or {}))
    X, w = band_grid(slice_density, M, l, R=R, n_angle=n_angle, n_leg=n_leg)

    i_ml = np.zeros(eps_arr.shape)
    for s in range(0, X.shape[0], chunk):
        val_ml, lg_ml = lad.value_and_log_gradient(X[s : s + chunk])
        g = np.abs(lg_ml[:, direction])
        i_ml += (np.exp(eps_arr[None, :] * g[:, None]) - 1.0).T @ (w[s : s + chunk] * val_ml)

    vals, betas = slice_density.value_and_beta(X)
    inband = (vals > 1.0 / M) & (vals < M)
    clipped = np.clip(vals, 1.0 / M, M)
    b = np.abs(betas[:, direction])
    i_m = (np.exp(eps_arr[None, :] * (b * inband)[:, None]) - 1.0).T @ (w * clipped)
    i_exact = (np.exp(eps_arr[None, :] * b[:, None]) - 1.0).T @ (w * vals)
    if np.isscalar(eps) or np.asarray(eps).ndim == 0:
        return float(i_ml[0]), float(i_m[0]), float(i_exact[0])
    return i_ml, i_m, i_exact
