"""Verification functionals for transport solutions.

Weak-formulation residual, mass conservation, entropy and its exponential
Gronwall-type bound, approximation of initial densities by smooth cylinders,
and a uniqueness probe comparing refinements of the same problem. Everything
here consumes a TransportSolution (or raw densities) and produces small
reports; the entropy bound is the one theorem-level inequality, and violating
it raises instead of returning a failed report.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import measures, transport
from .rng import as_rng
from .spectral import simpson_weights

class TheoremViolationError(AssertionError):
    pass


class InfeasibleInputError(ValueError):
    pass


@dataclass(frozen=True)
class TestFunction:
    """u(t,x) = g(t) f(x) with g(T) = 0 and f a bounded C1 cylinder."""

    __test__ = False  # not a pytest collection target

    g: object
    g_prime: object
    f: object  # Cylinder
    T: float
    name: str = ""

    def __post_init__(self):
        if abs(self.g(self.T)) > 1e-12:
            raise ValueError(f"time factor must vanish at T={self.T}, got g(T)={self.g(self.T)}")

    def value(self, t, X):
        return self.g(t) * self.f.value(X)


@dataclass
class VerificationReport:
    name: str
    residual: float
    error: float
    tolerance: float
    metadata: dict = dc_field(default_factory=dict)
    one_sided: bool = False  # pass when residual <= tolerance (signed slack)

    @property
    def passed(self):
        if self.one_sided:
            return self.residual <= self.tolerance
        return abs(self.residual) <= self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "one_sided": self.one_sided,
            "metadata": {k: _jsonable(v) for k, v in self.metadata.items()},
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def simpson_step(config, n_time):
    """(n_time rounded up to even, T / that), the Simpson step in time of
    weak_residual; a step off config's dt grid raises a StepMismatchError."""
    n_time += n_time % 2
    config.n_steps(config.T / n_time)
    return n_time, config.T / n_time


def weak_residual(solution, u, n_time=20, n_per_axis=128):
    """Quadrature residual of the weak formulation against u(t,x)=g(t)f(x).

    int_0^T int [g' f + g <grad f, F>] rho Psi^2 dx dt + g(0) int f rho0 Psi^2 dx,
    with Psi^2 the solution's reference density (exact or ladder). Composite
    Simpson in time on nodes aligned with the ODE grid; Gauss-Legendre in x.
    """
    cfg = solution.config
    n_time, h_t = simpson_step(cfg, n_time)
    X, w = measures.tensor_grid(solution.N, solution.support_radius, n_per_axis)
    psi = solution.reference.value(X)
    f_vals = u.f.value(X)
    # <grad f, F> pairs the coordinates that both f and F have
    fgrad = u.f.grad(X)
    k = min(fgrad.shape[1], solution.field.n_components)
    fgrad = fgrad[:, :k]

    def space_integral(t, rho):
        advect = (fgrad * solution.field.value(t, X)[:, :k]).sum(axis=1)
        integrand = (u.g_prime(t) * f_vals + u.g(t) * advect) * rho * psi
        return float(w @ integrand)

    t_nodes = np.linspace(0.0, cfg.T, n_time + 1)
    rhos = transport.feynman_kac_many(solution, t_nodes, X)
    vals = np.array([space_integral(t, rho) for t, rho in zip(t_nodes, rhos)])
    time_integral = (h_t / 3.0) * float(simpson_weights(n_time) @ vals)

    rho0 = solution.rho0.value(X)
    initial = u.g(0.0) * float(w @ (f_vals * rho0 * psi))
    res = time_integral + initial
    return VerificationReport(
        name=f"weak[{u.name or 'u'}]",
        residual=res,
        error=abs(res),
        tolerance=1e-4,
        metadata={"n_time": n_time, "n_per_axis": n_per_axis, "dt_ode": cfg.dt_ode},
    )


def mass_conservation(solution, t, n_per_axis=128):
    """Relative drift of int rho(t) Psi^2 dx against its t=0 value."""
    X, w = measures.tensor_grid(solution.N, solution.support_radius, n_per_axis)
    psi = solution.reference.value(X)
    m0 = float(w @ (solution.rho0.value(X) * psi))
    mt = float(w @ (transport.feynman_kac(solution, t, X) * psi))
    rel = (mt - m0) / m0 if m0 != 0 else math.inf
    return VerificationReport(
        name=f"mass[t={t:g}]",
        residual=rel,
        error=abs(rel),
        tolerance=1e-6,
        metadata={"mass_0": m0, "mass_t": mt, "n_per_axis": n_per_axis},
    )


def _entropy_terms(rho, g):
    """rho g(ln rho), and 0 where rho = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho > 0, rho * g(np.log(np.where(rho > 0, rho, 1.0))), 0.0)


def entropy(solution, t, n_per_axis=128):
    """int rho (ln rho - 1) Psi^2 dx with the integrand 0 where rho = 0."""
    X, w = measures.tensor_grid(solution.N, solution.support_radius, n_per_axis)
    psi = solution.reference.value(X)
    rho = solution.rho0.value(X) if t == 0 else transport.feynman_kac(solution, t, X)
    return float(w @ (_entropy_terms(rho, lambda L: L - 1.0) * psi))


def ball_volume(N, R):
    return math.pi ** (N / 2.0) * R ** N / math.gamma(N / 2.0 + 1.0)


def entropy_bound_check(solution, t, delta, cf_value, n_per_axis=128):
    """Exponential entropy bound at time t; violation is a hard error.

    Right side: e^{t/delta} [ int rho0 |ln rho0 - 1| Psi^2 dx + C_F(delta,y)
    + (t/delta)|ln delta| int rho0 Psi^2 dx + (t/M)|K_{R+1}| + t int Psi^2 dx ],
    the last integral over the whole space without clipping. The sharper
    support-ball variant of that term is recorded as informational metadata.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    X, w = measures.tensor_grid(solution.N, solution.support_radius, n_per_axis)
    ref = solution.reference
    psi = ref.value(X)
    rho0 = solution.rho0.value(X)
    s0 = float(w @ (_entropy_terms(rho0, lambda L: np.abs(L - 1.0)) * psi))
    mass0 = float(w @ (rho0 * psi))
    R = solution.support_radius
    vol_term = (t / ref.M) * ball_volume(solution.N, R + 1.0) if math.isfinite(ref.M) else 0.0

    # unclipped full-space integral of Psi^2_N: Gaussian-type decay, so a wide
    # box is exact to quadrature precision
    source = ref.source
    wide = max(R + 1.0, 8.0 / math.sqrt(float(np.min(source.measure.lam[: source.N]))))
    Xw, ww = measures.tensor_grid(solution.N, wide, n_per_axis)
    psi_total = float(ww @ source.value(Xw))
    psi_ball = float(w @ source.value(X))

    left = entropy(solution, t, n_per_axis=n_per_axis)
    bracket = s0 + cf_value + (t / delta) * abs(math.log(delta)) * mass0 + vol_term + t * psi_total
    right = math.exp(t / delta) * bracket
    sharper = math.exp(t / delta) * (s0 + cf_value + (t / delta) * abs(math.log(delta)) * mass0 + vol_term + t * psi_ball)
    slack = 1e-10 * max(abs(left), abs(right), 1.0)
    if left > right + slack:
        raise TheoremViolationError(
            f"entropy bound violated at t={t}: left={left:.6e} > right={right:.6e}"
        )
    return VerificationReport(
        name=f"entropy-bound[t={t:g}]",
        residual=left - right,  # nonpositive slack
        error=0.0,
        tolerance=slack,
        one_sided=True,
        metadata={
            "left": left,
            "right": right,
            "slack_factor": right / left if left > 0 else math.inf,
            "initial_term": s0,
            "cf_term": cf_value,
            "log_delta_term": (t / delta) * abs(math.log(delta)) * mass0,
            "clip_volume_term": vol_term,
            "psi_total_term": t * psi_total,
            "sharper_right_informational": sharper,
            "delta": delta,
        },
    )


# ---------------------------------------------------------------------------
# initial-density approximation by smooth cylinders


@dataclass(frozen=True)
class ApproximationReport:
    l1_distance: float
    entropy_input: float
    entropy_approx: float
    N: int
    M_clip: float
    l_smooth: int
    count: int


def approximate_initial_density(rho, measure, N, M_clip, l_smooth, count=20000, seed=0):
    """Checks that a density with finite entropy is approximated by smooth
    cylinders, the approximation step of the existence proof.

    The approximant at x (first N coordinates) averages the clipped input over
    a fixed tail sample (conditional-expectation stand-in) and then mollifies
    over offsets of scale 1/l_smooth. Returns (approximant, report); the
    entropy estimate of the input diverging raises InfeasibleInputError.
    """
    draws = measures.sample_gibbs(measure, count, as_rng(seed, "verify", "approx-main"))
    vals = np.asarray(rho(draws), dtype=float)
    if np.any(vals < 0):
        raise InfeasibleInputError("density must be nonnegative")
    ent_terms = _entropy_terms(vals, lambda L: L)
    ent_full = float(ent_terms.mean())
    ent_half = float(ent_terms[: count // 2].mean())
    if not math.isfinite(ent_full) or abs(ent_full) > 2.0 * abs(ent_half) + 1.0:
        raise InfeasibleInputError("entropy estimate unstable: input not in the L log L class")

    tail_draws, n_quad = 64, 17  # the tail sample's size, and mollifier nodes per axis
    tail_sample = measures.sample_gibbs(measure, tail_draws, as_rng(seed, "verify", "approx-tail"))[:, N:]
    offsets, conv_w = measures._mollifier_offsets(N, l_smooth, n_quad, 4096, seed)

    n_modes = measure.n_modes

    K = offsets.shape[0]
    chunk = max(1, 2_000_000 // (K * tail_draws))

    def approximant(Xn):
        Xn = np.atleast_2d(np.asarray(Xn, dtype=float))[:, :N]
        out = np.empty(Xn.shape[0])
        for lo in range(0, Xn.shape[0], chunk):
            part = Xn[lo : lo + chunk]
            shifted = (part[:, None, :] - offsets[None, :, :]).reshape(-1, N)
            full = np.zeros((shifted.shape[0] * tail_draws, n_modes))
            full[:, :N] = np.repeat(shifted, tail_draws, axis=0)
            full[:, N:] = np.tile(tail_sample, (shifted.shape[0], 1))
            v = np.clip(np.asarray(rho(full), dtype=float), 0.0, M_clip)
            v = v.reshape(shifted.shape[0], tail_draws).mean(axis=1)
            out[lo : lo + chunk] = v.reshape(part.shape[0], K) @ conv_w
        return out

    approx_at_draws = approximant(draws[:, :N])
    l1 = float(np.abs(vals - approx_at_draws).mean())
    ent_a = float(_entropy_terms(approx_at_draws, lambda L: L).mean())
    report = ApproximationReport(
        l1_distance=l1,
        entropy_input=ent_full,
        entropy_approx=ent_a,
        N=N,
        M_clip=float(M_clip),
        l_smooth=int(l_smooth),
        count=count,
    )
    return approximant, report


def uniqueness_probe(rho0, field, references, config, t_eval, tol=1e-2, seed=0):
    """Pairwise sampled-L1 distance between solutions across discretizations.

    references: two or more reference densities (exact slices or ladders) for
    the same problem; evaluation points are drawn once, uniformly over the
    common support box, and shared by every solution. The solutions differ
    only in their reference, so one backward sweep over the evaluation points
    serves them all: the characteristics are integrated once and only the
    log-gradient in D*F is evaluated per reference.
    """
    if len(references) < 2:
        raise ValueError("need at least two discretizations to compare")
    sols = [
        transport.solve(rho0, field, ref, config)
        for ref in references
    ]
    R = max(s.support_radius for s in sols)
    N = sols[0].N
    rng = as_rng(seed, "verify", "uniqueness")
    X = rng.uniform(-R, R, size=(256, N))
    rhos = transport.feynman_kac_shared(sols, np.atleast_1d(t_eval), X)
    dists = {}
    worst = 0.0
    for a in range(len(sols)):
        for b in range(a + 1, len(sols)):
            d = 0.0
            for da, db in zip(rhos[a], rhos[b]):
                d = max(d, float(np.abs(da - db).mean()))
            dists[(a, b)] = d
            worst = max(worst, d)
    return VerificationReport(
        name="uniqueness",
        residual=worst,
        error=worst,
        tolerance=tol,
        metadata={"pairs": {f"{a}-{b}": v for (a, b), v in dists.items()}, "n_eval": len(X), "t_eval": list(np.atleast_1d(t_eval))},
    )
