import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refflow import catalog, spde
from refflow.cylinders import Cylinder
from refflow.fields import constant_field
from refflow.rng import as_rng
from refflow.spectral import Grid, basis_matrix
from refflow.spde import (
    BlowUpError,
    SchemeError,
    SpdeConfig,
    bdg_check,
    bel_gradient,
    commutator,
    commutator_decay_curve,
    commutator_identity_probe,
    derivative_flow,
    sample_invariant,
    semigroup,
    simulate,
    v_norm,
    yosida_drift,
    yosida_drift_prime,
    yosida_resolvent,
)

CUBIC = (0.0, -1.0, 0.0, -1.0)  # p(r) = -r - r^3
QUINTIC = (0.0, -1.0, 0.0, 0.0, 0.0, -1.0)  # p(r) = -r - r^5
A1 = math.pi ** 2

# [DERIVED] mpmath OU values
EXP_01 = 0.37270783885343791   # e^{-pi^2 * 0.1}
EXP_025 = 0.084804972471113777  # e^{-pi^2 * 0.25}
OU4_L2 = 0.072120981412080705  # sum_{j<=4} 1/(2 pi^2 j^2)
VNORM_OU = {
    0.5: 0.10059249350810782,
    0.2: 0.21811635802802719,
    0.1: 0.31778992128464878,
    0.05: 0.39464801111097372,
    0.02: 0.4537448394706895,
}


def x1_observable():
    return Cylinder(n_active=1, value_fn=lambda X: X[:, 0], grad_fn=lambda X: np.ones_like(X), name="x1")


def ou_config(n_modes=1, dt=1e-3):
    return SpdeConfig(n_modes=n_modes, dt=dt)


def path_times(cfg, T):
    """Every step time of a path over [0, T]."""
    return cfg.dt * np.arange(cfg.n_steps(T) + 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SpdeConfig(n_modes=0, dt=1e-3)
    with pytest.raises(ValueError):
        SpdeConfig(n_modes=1, dt=0.0)
    with pytest.raises(ValueError):
        SpdeConfig(n_modes=2, dt=1e-3, B_diag=(1.0, -1.0))
    # scalar B broadcasts to every mode
    cfg = SpdeConfig(n_modes=3, dt=1e-3, B_diag=(2.0,))
    assert cfg.B_diag == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):  # even degree
        SpdeConfig(n_modes=1, dt=1e-3, p_coeffs=(0.0, 0.0, -1.0))
    with pytest.raises(ValueError):  # nonnegative leading coefficient
        SpdeConfig(n_modes=1, dt=1e-3, p_coeffs=(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):  # increasing near zero
        SpdeConfig(n_modes=1, dt=1e-3, p_coeffs=(0.0, 1.0, 0.0, -1.0))
    cfg = SpdeConfig(n_modes=1, dt=1e-3, p_coeffs=CUBIC)
    assert cfg.has_reaction
    assert cfg.rates[0] == pytest.approx(A1)
    # derived arrays are built once per config and cannot be written
    assert cfg.grid is cfg.grid and cfg.rates is cfg.rates and cfg.b_array is cfg.b_array
    assert cfg.projection is cfg.projection
    for arr in (cfg.rates, cfg.b_array, cfg.grid.nodes, cfg.grid.weights, cfg.projection):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        cfg.n_steps(0.0005)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(-50.0, 50.0), alpha=st.sampled_from([0.1, 0.5, 1.0]))
def test_resolvent_identity(r, alpha):
    J = yosida_resolvent(CUBIC, alpha, r)
    p = np.polynomial.Polynomial(CUBIC)
    assert abs(J - alpha * p(J) - r) <= 1e-12 * (1.0 + abs(r))


@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_yosida_drift_is_reaction_after_resolvent(alpha):
    r = np.linspace(-8.0, 8.0, 41)
    p = np.polynomial.Polynomial(CUBIC)
    J = yosida_resolvent(CUBIC, alpha, r)
    assert np.max(np.abs(yosida_drift(CUBIC, alpha, r) - p(J))) < 1e-10


def test_yosida_drift_prime_range():
    r = np.linspace(-10.0, 10.0, 81)
    for alpha in (0.1, 0.5):
        d = yosida_drift_prime(CUBIC, alpha, r)
        assert np.all(d <= 0.0)
        assert np.all(d > -1.0 / alpha)
    assert np.allclose(yosida_drift_prime(CUBIC, 0.0, r), np.polynomial.Polynomial(CUBIC).deriv()(r))
    assert np.allclose(yosida_drift(CUBIC, 0.0, r), np.polynomial.Polynomial(CUBIC)(r))
    # a linear p has a constant p'
    assert np.array_equal(yosida_drift_prime((0.0, -2.0), 0.0, r), np.full_like(r, -2.0))


def test_simulate_matches_stationary_variance():
    cfg = ou_config(n_modes=4)
    states = simulate(cfg, np.zeros(4), [1.0], seed=5, n_paths=4000)
    assert states.shape == (4000, 1, 4)
    v = states[:, -1, 0].var(ddof=1)
    want = (1.0 - math.exp(-2.0 * A1)) / (2.0 * A1)
    stderr = want * math.sqrt(2.0 / 3999)
    assert abs(v - want) < 4.0 * stderr


def test_simulate_without_noise_decays_exactly():
    cfg = ou_config(n_modes=3)
    x0 = np.array([1.0, -2.0, 0.5])
    states = simulate(cfg, x0, [0.5], seed=0, disable_noise=True)
    want = x0 * np.exp(-cfg.rates * 0.5)
    assert np.allclose(states[0, -1], want, rtol=1e-10, atol=0)


def test_simulate_deterministic_under_seed():
    cfg = SpdeConfig(n_modes=2, dt=1e-3, p_coeffs=CUBIC)
    times = path_times(cfg, 0.1)
    a = simulate(cfg, np.array([0.3, -0.1]), times, seed=42, n_paths=3)
    b = simulate(cfg, np.array([0.3, -0.1]), times, seed=42, n_paths=3)
    assert np.array_equal(a, b)
    c = simulate(cfg, np.array([0.3, -0.1]), times, seed=43, n_paths=3)
    assert not np.array_equal(a, c)


def test_simulate_flags_blowup():
    cfg = ou_config(n_modes=1)
    with pytest.raises(BlowUpError):
        simulate(cfg, np.array([2e6]), [0.1], seed=0, disable_noise=True)


def test_simulate_flags_nan_state_with_its_step():
    cfg = SpdeConfig(n_modes=2, dt=1e-2, p_coeffs=CUBIC)
    with pytest.raises(BlowUpError, match="at step 1 "):
        simulate(cfg, np.array([np.nan, 0.0]), [0.05], seed=1)


def test_derivative_flow_ou_is_exponential_decay():
    cfg = ou_config(n_modes=3)
    states = simulate(cfg, np.zeros(3), path_times(cfg, 0.2), seed=1, n_paths=2)
    h = np.array([1.0, 0.5, -0.25])
    etas = derivative_flow(cfg, states, h)
    want = h * np.exp(-cfg.rates * 0.2)
    assert np.allclose(etas[:, -1], want, rtol=1e-10)


def test_derivative_flow_contracts_with_reaction():
    cfg = SpdeConfig(n_modes=4, dt=1e-3, p_coeffs=CUBIC)
    states = simulate(cfg, np.full(4, 0.4), path_times(cfg, 0.2), seed=2, n_paths=4)
    h = np.array([1.0, 0.0, 0.0, 0.0])
    etas = derivative_flow(cfg, states, h)
    norms = np.sqrt((etas ** 2).sum(axis=2))
    assert np.all(norms <= 1.0 + 1e-8)
    assert np.all(np.diff(norms, axis=1) <= 1e-10)


def test_derivative_flow_flags_nan_path_with_its_step():
    cfg = SpdeConfig(n_modes=2, dt=1e-2, p_coeffs=CUBIC)
    states = simulate(cfg, np.array([0.3, -0.1]), path_times(cfg, 0.05), seed=1, n_paths=2)
    states[1, 2, 0] = np.nan
    with pytest.raises(SchemeError, match="at step 3:"):
        derivative_flow(cfg, states, np.array([1.0, 0.0]))


def test_scheme_error_is_an_assertion():
    assert issubclass(SchemeError, AssertionError)


def test_semigroup_time_zero_is_pointwise():
    cfg = ou_config()
    rep = semigroup(cfg, x1_observable().value, np.array([0.7]), 0.0, 100, seed=0)
    assert rep.estimate == 0.7
    assert rep.stderr == 0.0


def test_semigroup_matches_ou_decay():
    cfg = ou_config()
    rep = semigroup(cfg, x1_observable().value, np.array([1.0]), 0.1, 4000, seed=7)
    assert abs(rep.estimate - EXP_01) < 4.0 * rep.stderr


def test_gradient_weight_matches_ou_decay():
    cfg = ou_config()
    u = x1_observable()
    rep = bel_gradient(cfg, u.value, np.array([0.5]), np.array([1.0]), 0.25, 20000, seed=9)
    assert not rep.inconclusive
    assert abs(rep.estimate - EXP_025) < 4.0 * rep.stderr
    with pytest.raises(ValueError):
        bel_gradient(cfg, u.value, np.array([0.5]), np.array([1.0]), 0.0, 10, seed=9)


def test_commutator_ou_closed_form():
    """u = x_1, F = e_1: B_eps = e^{-a_1 eps} - 1."""
    cfg = ou_config()
    rep = commutator(cfg, x1_observable(), constant_field([1.0]), 0.1, np.zeros(1), 20000, seed=3)
    assert abs(rep.estimate - (EXP_01 - 1.0)) < 4.0 * rep.stderr
    with pytest.raises(ValueError):
        commutator(cfg, x1_observable(), constant_field([1.0]), 0.0, np.zeros(1), 10, seed=3)


def test_commutator_identity_probe_ou():
    cfg = ou_config()
    lhs, rhs, se = commutator_identity_probe(
        cfg, x1_observable(), np.array([1.0]), 0.1, n_outer=40, n_inner=200, n_simpson=4, seed=2
    )
    assert abs(lhs - rhs) < 4.0 * se + 0.01
    assert abs(lhs - (EXP_01 - 1.0)) < 5.0 * se + 0.01


def test_decay_curve_on_cubic_reaction():
    cfg = SpdeConfig(n_modes=4, dt=2e-3, p_coeffs=CUBIC)
    u = catalog.build_cylinder("mode1_soft")
    rep = commutator_decay_curve(cfg, u, constant_field([0.1]), [0.5, 0.2, 0.1, 0.05, 0.02], 200, 10, seed=12)
    eps_order = [eps for eps, _ in rep.estimates]
    assert eps_order == [0.5, 0.2, 0.1, 0.05, 0.02]
    assert all(est.n == 10 for _, est in rep.estimates)
    assert rep.trend_established
    assert rep.drop > 0
    assert rep.estimates[0][1].estimate > rep.estimates[-1][1].estimate


@pytest.mark.parametrize("name, args", [("mode1_soft", {"c": 0.5}), ("energy_soft", {"k": 3, "c": 2.0})])
def test_observable_gradients_match_central_differences(name, args):
    u = catalog.build_cylinder(name, **args)
    X = as_rng(2, "observable").normal(size=(7, 4))
    g = u.grad(X)
    assert g.shape == (7, u.n_active)
    for i in range(u.n_active):
        step = np.zeros(4)
        step[i] = 1e-6
        fd = (u.value(X + step) - u.value(X - step)) / 2e-6
        assert np.allclose(g[:, i], fd, rtol=1e-6, atol=1e-8)


def test_decay_curve_worker_count_does_not_change_results():
    cfg = SpdeConfig(n_modes=2, dt=2e-3, p_coeffs=CUBIC)
    u = catalog.build_cylinder("mode1_soft")
    a = commutator_decay_curve(cfg, u, constant_field([0.1]), [0.1, 0.02], 50, 6, seed=3, workers=1)
    b = commutator_decay_curve(cfg, u, constant_field([0.1]), [0.1, 0.02], 50, 6, seed=3, workers=4)
    assert a.estimates == b.estimates


def test_invariant_sampler_matches_ou_moment():
    cfg = ou_config(n_modes=4)
    burn = int(math.ceil(6.0 / (A1 * cfg.dt)))
    samples, rep = sample_invariant(cfg, burn, 1500, 51, seed=4)
    assert samples.shape == (1500, 4)
    assert rep.stationary
    assert abs(rep.l2_moment - OU4_L2) < 4.0 * rep.l2_stderr


def test_invariant_sampler_requires_long_burn_in():
    cfg = ou_config(n_modes=1)
    with pytest.raises(ValueError):
        sample_invariant(cfg, 100, 100, 10, seed=0)


def test_v_norm_matches_ou_curve():
    cfg = ou_config()
    best, table = v_norm(cfg, x1_observable().value, list(VNORM_OU), 3000, seed=6)
    for eps, want in VNORM_OU.items():
        rep = table[eps]
        assert abs(rep.estimate - want) < 4.0 * rep.stderr
    assert best.estimate == max(r.estimate for r in table.values())


def test_bdg_ratio_below_constant():
    rep = bdg_check(4.0, 1.0, 1.0, 20000, seed=8)
    assert rep.bound == pytest.approx(12.0 ** 4 * 4 ** 4)
    assert rep.denominator == pytest.approx(1.0)
    # [DERIVED] mpmath: E sup |W|^4 = 5.9336673...; the discrete sup sits below it
    assert rep.numerator < 5.933667310446632 + 4.0 * rep.numerator_stderr
    assert rep.numerator > 5.0
    assert rep.ratio < rep.bound
    assert rep.margin > 1e5


def test_bdg_step_integrand_denominator():
    phi = np.r_[np.ones(256), 2.0 * np.ones(256)]
    rep = bdg_check(4.0, phi, 1.0, 200, seed=8, n_steps=512)
    assert rep.denominator == pytest.approx(6.25)


def test_bdg_degenerate_and_validation():
    rep = bdg_check(4.0, 0.0, 1.0, 100, seed=0)
    assert rep.degenerate
    assert rep.ratio == 0.0
    with pytest.raises(ValueError):
        bdg_check(2.0, 1.0, 1.0, 100, seed=0)


# ---------------------------------------------------------------------------
# Reference: the per-step loop that every entry point once wrote out for
# itself, with its arithmetic: polyval, then the quadrature weights, then E^T.
# The shared stepper projects with (E w)^T in one product, so with a reaction
# it must agree to RTOL of the reference's scale; without one (OU) there is no
# quadrature and it must agree bit for bit.

RTOL = 1e-12

STEP_CONFIGS = {
    "ou": SpdeConfig(n_modes=3, dt=1e-2),
    "cubic": SpdeConfig(n_modes=3, dt=1e-2, p_coeffs=CUBIC),
    "quintic": SpdeConfig(n_modes=3, dt=1e-2, p_coeffs=QUINTIC),
    "ou-b": SpdeConfig(n_modes=3, dt=1e-2, B_diag=(0.5, 1.0, 3.0)),
}


def ref_reaction(cfg, U, prime=False):
    """p(U), or p'(U), by numpy's own polynomial."""
    p = np.polynomial.Polynomial(cfg.p_coeffs)
    return (p.deriv() if prime else p)(U)


def ref_eta_step(cfg, eta, X_before, ema, E):
    eta = ema * eta
    if cfg.has_reaction:
        mult = np.exp(cfg.dt * ref_reaction(cfg, X_before @ E, prime=True))
        eta = ((eta @ E) * mult * cfg.grid.weights) @ E.T
    return eta


def assert_matches(cfg, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if not cfg.has_reaction:
        assert np.array_equal(got, want)
        return
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def ref_path(cfg, X, n, rng, h=None, noise=True):
    """States after steps 1..n and, given a direction h, the weight after each."""
    a = cfg.rates
    ema = np.exp(-a * cfg.dt)
    phi = (1.0 - ema) / a
    sig = cfg.b_array * np.sqrt((1.0 - ema ** 2) / (2.0 * a))
    E = basis_matrix(cfg.n_modes, cfg.grid) if cfg.has_reaction else None
    eta = None if h is None else np.broadcast_to(h, X.shape).copy()
    w = np.zeros(X.shape[0])
    states, weights = [], []
    for _ in range(n):
        xi = rng.standard_normal(X.shape)
        if not noise:
            xi = np.zeros_like(xi)
        if eta is not None:
            w = w + ((eta * (1.0 / cfg.b_array)) * xi).sum(axis=1) * math.sqrt(cfg.dt)
        drift = 0.0
        if cfg.has_reaction:
            drift = (ref_reaction(cfg, X @ E) * cfg.grid.weights) @ E.T
        X_prev, X = X, ema * X + phi * drift + sig * xi
        if eta is not None:
            eta = ref_eta_step(cfg, eta, X_prev, ema, E)
        states.append(X)
        weights.append(w)
    return states, weights


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
@pytest.mark.parametrize("noise", [True, False])
def test_simulate_matches_reference_loop(name, noise):
    cfg = STEP_CONFIGS[name]
    x0 = np.array([[0.3, -0.2, 0.1], [0.0, 0.5, -0.4]])
    got = simulate(cfg, x0, [0.0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.2], seed=11, disable_noise=not noise)
    states, _ = ref_path(cfg, x0, 20, as_rng(11, "spde", "simulate"), noise=noise)
    want = np.stack([x0] + [states[k - 1] for k in (3, 6, 9, 12, 15, 18, 20)], axis=1)
    assert_matches(cfg, got, want)


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_simulate_takes_unsorted_repeated_and_zero_times(name):
    """Each time gets its state, in the order given: a repeated time twice,
    time 0 the start itself, and the path runs once to the largest time."""
    cfg = STEP_CONFIGS[name]
    x0 = np.array([[0.3, -0.2, 0.1], [0.0, 0.5, -0.4]])
    times = [0.2, 0.0, 0.05, 0.2, 0.0, 0.12]
    got = simulate(cfg, x0, times, seed=11)
    states, _ = ref_path(cfg, x0, 20, as_rng(11, "spde", "simulate"))
    want = np.stack([x0 if t == 0 else states[round(t / cfg.dt) - 1] for t in times], axis=1)
    assert_matches(cfg, got, want)
    snaps = [i for i, _, _ in spde._snapshots(cfg, x0, times, as_rng(11, "spde", "simulate"))]
    assert snaps == [1, 4, 2, 5, 0, 3]  # step order, and the order of times within a step
    assert np.array_equal(simulate(cfg, x0, [0.0, 0.0], seed=11), np.stack([x0, x0], axis=1))
    with pytest.raises(ValueError):
        simulate(cfg, x0, [0.05, 0.015], seed=11)


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_sample_invariant_matches_reference_loop(name):
    cfg = STEP_CONFIGS[name]
    burn, count, thin = 60, 64, 3
    samples, rep = sample_invariant(cfg, burn, count, thin, seed=5)
    states, _ = ref_path(cfg, np.zeros((1, 3)), burn + count * thin, as_rng(5, "spde", "invariant"))
    want = np.array([states[burn + (i + 1) * thin - 1][0] for i in range(count)])
    assert_matches(cfg, samples, want)
    assert_matches(cfg, rep.l2_moment, float((want ** 2).sum(axis=1).mean()))


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_derivative_flow_matches_reference_loop(name):
    cfg = STEP_CONFIGS[name]
    states = simulate(cfg, np.full(3, 0.4), path_times(cfg, 0.2), seed=2, n_paths=3)
    h = np.array([1.0, -0.5, 0.25])
    etas = derivative_flow(cfg, states, h)
    ema = np.exp(-cfg.rates * cfg.dt)
    E = basis_matrix(cfg.n_modes, cfg.grid) if cfg.has_reaction else None
    eta = np.broadcast_to(h, (3, 3)).copy()
    for k in range(1, states.shape[1]):
        eta = ref_eta_step(cfg, eta, states[:, k - 1], ema, E)
        assert_matches(cfg, etas[:, k], eta)


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_bel_gradient_matches_reference_loop(name):
    cfg = STEP_CONFIGS[name]
    u = x1_observable()
    x, h = np.array([0.2, 0.1, -0.1]), np.array([1.0, 0.5, 0.0])
    rep = bel_gradient(cfg, u.value, x, h, 0.1, 300, seed=9)
    states, weights = ref_path(cfg, np.repeat(x[None], 300, axis=0), 10, as_rng(9, "spde", "bel"), h=h)
    vals = u.value(states[-1]) * weights[-1] / 0.1
    assert_matches(cfg, rep.estimate, float(vals.mean()))
    assert_matches(cfg, rep.stderr, float(vals.std(ddof=1) / math.sqrt(300)))


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_commutator_matches_reference_loop(name):
    cfg = STEP_CONFIGS[name]
    u = catalog.build_cylinder("mode1_soft")
    F = constant_field([0.1, -0.05])
    x = np.array([0.2, 0.1, -0.1])
    rep = commutator(cfg, u, F, 0.08, x, 300, seed=4)
    h = np.array([0.1, -0.05, 0.0])
    states, weights = ref_path(cfg, np.repeat(x[None], 300, axis=0), 8, as_rng(4, "spde", "commutator"), h=h)
    X, gu = states[-1], u.grad(states[-1])
    m = min(gu.shape[1], 2)
    d = u.value(X) * weights[-1] / 0.08 - (gu[:, :m] * F.value(0.0, X)[:, :m]).sum(axis=1)
    assert_matches(cfg, rep.estimate, float(d.mean()))
    assert_matches(cfg, rep.stderr, float(d.std(ddof=1) / math.sqrt(300)))


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_v_norm_matches_reference_loop(name):
    cfg = STEP_CONFIGS[name]
    phi = x1_observable().value
    eps_grid = [0.05, 0.02, 0.1]
    best, table = v_norm(cfg, phi, eps_grid, 200, seed=6, burn_in=60, thinning=2)
    xs, _ = sample_invariant(cfg, 60, 200, 2, as_rng(6, "spde", "vnorm-outer"))
    states, _ = ref_path(cfg, xs, 10, as_rng(6, "spde", "vnorm-inner"))
    phi0 = phi(xs)
    for eps in eps_grid:
        vals = phi0 * (phi0 - phi(states[round(eps / cfg.dt) - 1])) / eps
        assert_matches(cfg, table[eps].estimate, float(vals.mean()))
        assert_matches(cfg, table[eps].stderr, float(vals.std(ddof=1) / math.sqrt(200)))
    assert best.estimate == max(r.estimate for r in table.values())


@pytest.mark.parametrize(
    "cfg, rows",
    [(cfg, 5) for cfg in STEP_CONFIGS.values()]
    # the commutator benchmark's shape: 4 modes, 2000 rows
    + [(SpdeConfig(n_modes=4, dt=2e-3, p_coeffs=CUBIC), 2000)],
    ids=[*STEP_CONFIGS, "benchmark-shape"],
)
def test_steps_yield_fresh_arrays_that_match_reference_loop(cfg, rows):
    """Every X and eta yielded over 20 steps with eta equals the reference
    loop's, compared after the last step, so no later step overwrote one."""
    X0 = as_rng(1, "x0").normal(scale=0.5, size=(rows, cfg.n_modes))
    h = np.linspace(0.1, -0.05, cfg.n_modes)
    steps = list(spde._steps(cfg, X0, 20, as_rng(8, "steps"), eta=np.broadcast_to(h, X0.shape).copy()))
    states, weights = ref_path(cfg, X0, 20, as_rng(8, "steps"), h=h)
    ema = np.exp(-cfg.rates * cfg.dt)
    E = basis_matrix(cfg.n_modes, cfg.grid) if cfg.has_reaction else None
    eta, X_before = np.broadcast_to(h, X0.shape).copy(), X0
    for (k, X, eta_k, _), want in zip(steps, states, strict=True):
        eta = ref_eta_step(cfg, eta, X_before, ema, E)
        X_before = want
        assert_matches(cfg, X, want)
        assert_matches(cfg, eta_k, eta)
    assert [s[0] for s in steps] == list(range(1, 21))
    assert_matches(cfg, steps[-1][3], weights[-1])


def written_out_steps(cfg, X, n, rng, eta, noise):
    """The stepper's arithmetic as formulas on fresh arrays, around the same
    _Reaction: the bits every step of spde._steps must reproduce."""
    a = cfg.rates
    ema = np.exp(-a * cfg.dt)
    phi = (1.0 - ema) / a
    sig = cfg.b_array * np.sqrt((1.0 - ema ** 2) / (2.0 * a))
    reaction = spde._Reaction(cfg, X.shape[0]) if cfg.has_reaction else None
    ema, phi, sig, Binv = (np.broadcast_to(v, X.shape).copy() for v in (ema, phi, sig, 1.0 / cfg.b_array))
    sqdt = math.sqrt(cfg.dt)
    w = np.zeros(X.shape[0])
    drift = 0.0
    for k in range(1, n + 1):
        xi = rng.standard_normal(X.shape)
        if not noise:
            xi = np.zeros_like(xi)
        w += ((eta * Binv) * xi).sum(axis=1) * sqdt
        if reaction is not None:
            reaction.load(X)
            drift = reaction.drift()
        X = ema * X + phi * drift + sig * xi
        eta = ema * eta
        if reaction is not None:
            eta = reaction.flow(eta)
        yield k, X, eta, w.copy()


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize(
    "cfg, rows",
    [
        # the commutator benchmark's shape: 4 modes, 2000 rows, 17 nodes
        (SpdeConfig(n_modes=4, dt=2e-3, p_coeffs=CUBIC), 2000),
        # at least 8 modes, where numpy's sum(axis=1) is pairwise, and B != 1
        (SpdeConfig(n_modes=9, dt=1e-2, B_diag=tuple(np.linspace(0.5, 3.0, 9)), p_coeffs=CUBIC), 40),
        (STEP_CONFIGS["quintic"], 40),
        (STEP_CONFIGS["ou-b"], 40),
    ],
    ids=["benchmark-shape", "9-modes-B", "quintic", "ou-B"],
)
def test_steps_match_written_out_step_bit_for_bit(cfg, rows, noise):
    """Every X, eta and w over 20 steps has the bits of the written-out
    formulas, a -0.0 start coefficient included."""
    X0 = as_rng(1, "x0").normal(scale=0.5, size=(rows, cfg.n_modes))
    X0[0, 0] = -0.0
    eta0 = np.broadcast_to(np.linspace(0.1, -0.05, cfg.n_modes), X0.shape).copy()
    got = [(k, X, eta, w.copy()) for k, X, eta, w in spde._steps(cfg, X0, 20, as_rng(8, "steps"), eta=eta0, noise=noise)]
    want = list(written_out_steps(cfg, X0, 20, as_rng(8, "steps"), eta0, noise))
    assert len(got) == len(want) == 20
    for (k, X, eta, w), (k_want, X_want, eta_want, w_want) in zip(got, want):
        assert k == k_want
        assert same_bits(X, X_want) and same_bits(eta, eta_want) and same_bits(w, w_want)


@pytest.mark.parametrize("deg", [3, 5, 7])
def test_horner_matches_numpy_polynomial(deg):
    rng = np.random.default_rng(deg)
    c = rng.normal(size=deg + 1)
    c[::2] = 0.0  # odd reactions, as in the catalog, next to a dense one
    x = np.concatenate([rng.uniform(-20.0, 20.0, 1978), [0.0, -0.0, 20.0, -20.0, 19.9999, -19.9999], rng.normal(size=64)])
    x = x.reshape(64, 32)
    for coeffs in (tuple(c), tuple(rng.normal(size=deg + 1))):
        p = np.polynomial.Polynomial(coeffs)
        pc, dc = spde._poly_pair(coeffs)
        assert np.array_equal(spde._horner(pc, x, np.empty_like(x)), p(x))
        assert np.array_equal(spde._horner(dc, x, np.empty_like(x)), p.deriv()(x))


def test_invariant_sampler_needs_two_draws_per_half():
    cfg = ou_config(n_modes=1)
    with pytest.raises(ValueError, match="count"):
        sample_invariant(cfg, 600, 3, 1, seed=0)


def test_bel_gradient_flags_blowup_with_its_step():
    cfg = ou_config(n_modes=1)
    u = x1_observable()
    with pytest.raises(BlowUpError, match="at step 1 "):
        bel_gradient(cfg, u.value, np.array([2e6]), np.array([1.0]), 0.1, 4, seed=0)


def test_invariant_sampler_rejects_zero_thinning():
    cfg = ou_config(n_modes=1)
    with pytest.raises(ValueError, match="thinning"):
        sample_invariant(cfg, 600, 10, 0, seed=0)


def test_repeated_eps_fills_every_row():
    cfg = STEP_CONFIGS["cubic"]
    u = catalog.build_cylinder("mode1_soft")
    F = constant_field([0.1, -0.05])
    x = np.array([0.2, 0.1, -0.1])
    d = spde._commutator_samples(cfg, u, F, [0.02, 0.02, 0.04], x, 50, as_rng(3, "t"))
    assert np.all(np.isfinite(d))
    assert np.array_equal(d[0], d[1])
    once = spde._commutator_samples(cfg, u, F, [0.02, 0.04], x, 50, as_rng(3, "t"))
    assert np.array_equal(d[1:], once)

    phi = x1_observable().value
    _, twice = v_norm(cfg, phi, [0.02, 0.02, 0.04], 100, seed=6, burn_in=60, thinning=2)
    _, single = v_norm(cfg, phi, [0.02, 0.04], 100, seed=6, burn_in=60, thinning=2)
    assert twice == single


# ---------------------------------------------------------------------------
# Exactness gate of the reaction grid: (d + 1) N + 1 midpoint nodes against a
# 1025-node Gauss-Legendre reference, which resolves every integrand here to
# rounding.

REF_GRID = Grid.gauss_legendre(1025)


def ref_projection(values, n_modes):
    E = basis_matrix(n_modes, REF_GRID)
    return (values(E) * REF_GRID.weights) @ E.T


@pytest.mark.parametrize("p_coeffs", [CUBIC, QUINTIC], ids=["cubic", "quintic"])
@pytest.mark.parametrize("n_modes", [1, 2, 4, 32])
def test_drift_is_exact_on_the_reaction_grid(n_modes, p_coeffs):
    cfg = SpdeConfig(n_modes=n_modes, dt=1e-3, p_coeffs=p_coeffs)
    d = len(p_coeffs) - 1
    assert cfg.grid.rule == "uniform-midpoint" and cfg.grid.n_nodes == (d + 1) * n_modes + 1
    p = np.polynomial.Polynomial(p_coeffs)
    X = as_rng(3, "drift").normal(scale=0.5, size=(16, n_modes))
    reaction = spde._Reaction(cfg, len(X))
    reaction.load(X)
    want = ref_projection(lambda E: p(X @ E), n_modes)
    assert np.max(np.abs(reaction.drift() - want)) <= 1e-13 * np.max(np.abs(want))
    # half the nodes, (d + 1) N / 2, miss the drift's top cosine degree
    short = Grid.midpoint((d + 1) * n_modes // 2)
    Es = basis_matrix(n_modes, short)
    aliased = (p(X @ Es) * short.weights) @ Es.T
    assert np.max(np.abs(aliased - want)) > 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("n_modes, dt", [(4, 2e-3), (32, 1e-3)], ids=["commutator-workload", "c08"])
def test_eta_projection_matches_fine_reference(n_modes, dt):
    """exp(dt p'(U)) is not a polynomial: the grid's spare degree is measured here."""
    cfg = SpdeConfig(n_modes=n_modes, dt=dt, p_coeffs=CUBIC)
    rng = as_rng(4, "eta")
    # the OU invariant scale, which bounds the cubic reaction's
    X = rng.normal(size=(64, n_modes)) * np.sqrt(0.5 / cfg.rates)
    eta = rng.normal(size=X.shape)
    reaction = spde._Reaction(cfg, len(X))
    reaction.load(X)
    dp = np.polynomial.Polynomial(CUBIC).deriv()
    want = ref_projection(lambda E: (eta @ E) * np.exp(dt * dp(X @ E)), n_modes)
    assert np.max(np.abs(reaction.flow(eta) - want)) <= 1e-12 * np.max(np.abs(want))


def test_invariant_sampler_reports_a_nonstationary_chain():
    """Seed 73 is one of 4 in 1..1000 whose base-point chain at the commutator
    workload's shape fails the 3-sigma halves test; the sampler returns the
    report instead of raising."""
    cfg = SpdeConfig(n_modes=4, dt=2e-3, p_coeffs=CUBIC)
    samples, rep = sample_invariant(cfg, 304, 20, 51, as_rng(73, "spde", "curve-outer"))
    assert samples.shape == (20, 4) and np.all(np.isfinite(samples))
    assert not rep.stationary
    assert rep.first_half_l2 != rep.second_half_l2
