import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from refflow import measures
from refflow.cylinders import Cylinder
from refflow.measures import (
    GibbsMeasure,
    LadderDensity,
    NotThinnableError,
    SamplerDegenerateError,
    beta,
    beta_components,
    exp_integrability,
    ibp_residual,
    integrability_constants,
    jensen_chain,
    ladder,
    lag1_autocorrelation,
    natural_precisions,
    psi_squared,
    sample_gaussian,
    sample_gibbs,
    tensor_grid,
)
from refflow.rng import Estimate, as_rng, stream
from refflow.spectral import Grid, basis_matrix


def gibbs4():
    return GibbsMeasure(4, alpha=1.0, p=4.0)


def test_natural_precisions():
    lam = natural_precisions(3)
    assert lam[0] == pytest.approx(2 * np.pi ** 2, rel=1e-15)
    assert lam[2] == pytest.approx(18 * np.pi ** 2, rel=1e-15)
    # oracle 1/(2 pi^2), tests/oracles/compute_oracles.py
    assert 1.0 / lam[0] == pytest.approx(0.050660591821168886, abs=1e-16)


def test_measure_validation():
    with pytest.raises(ValueError):
        GibbsMeasure(2, lam=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        GibbsMeasure(2, alpha=1.0, p=2.0)
    with pytest.raises(ValueError):
        GibbsMeasure(2, alpha=-0.5, p=4.0)


def test_gaussian_beta_is_linear():
    m = GibbsMeasure(3)
    X = np.array([[0.1, -0.2, 0.3], [1.0, 0.0, -1.0]])
    comps = beta_components(m, X)
    assert np.allclose(comps, -m.lam * X, atol=1e-15)


def test_gibbs_beta_oracle():
    # beta_{e_1} at the point x = e_1 equals -2 pi^2 - 3/2
    # (tests/oracles/compute_oracles.py)
    m = gibbs4()
    val = beta(m, np.eye(4)[0], np.array([1.0, 0.0, 0.0, 0.0]))
    assert val.shape == (1,)
    assert val[0] == pytest.approx(-21.239208802178717, abs=1e-10)


def test_beta_direction_linearity():
    m = gibbs4()
    x = np.array([[0.3, -0.1, 0.2, 0.05]])
    h1 = np.array([1.0, 0.0, 0.0, 0.0])
    h2 = np.array([0.0, 2.0, -1.0, 0.0])
    lhs = beta(m, h1 + h2, x)
    assert lhs.shape == (1,)
    np.testing.assert_allclose(lhs, beta(m, h1, x) + beta(m, h2, x), rtol=1e-12)
    # a direction shorter than n_modes has zero coefficients on the rest
    np.testing.assert_allclose(beta(m, np.eye(4)[1], x), beta(m, np.array([0.0, 1.0]), x), rtol=1e-12)


def test_sample_gaussian_distribution():
    m = GibbsMeasure(2)
    X = sample_gaussian(m, 40000, 123)
    # KS against the exact mode-1 marginal
    _, pval = stats.kstest(X[:, 0], "norm", args=(0.0, m.mode_std[0]))
    assert pval > 1e-4
    assert np.allclose(X.std(axis=0), m.mode_std, rtol=0.05)


def test_sample_gibbs_alpha_zero_is_gaussian():
    m0 = GibbsMeasure(3, alpha=0.0, p=4.0)
    a = sample_gibbs(m0, 100, 7)
    b = sample_gaussian(m0, 100, 7)
    assert np.array_equal(a, b)
    # the default measure is that Gaussian: exact Z and a linear beta
    g = GibbsMeasure(3)
    assert g.alpha == 0.0 and np.array_equal(sample_gibbs(g, 100, 7), b)
    assert measures.normalizing_constant(g, count=500) == Estimate(1.0, 0.0, 500)
    assert np.array_equal(beta_components(g, b), -g.lam * b)


def test_sample_gibbs_deterministic_and_decorrelated():
    m = gibbs4()
    a = sample_gibbs(m, 500, 42)
    b = sample_gibbs(m, 500, 42)
    assert np.array_equal(a, b)
    assert abs(lag1_autocorrelation((a ** 2).sum(axis=1))) < 0.1


def test_sample_gibbs_matches_slice_quadrature():
    # E[x_1^2] under the 1-mode Gibbs measure, MC against the slice density
    m = GibbsMeasure(1, alpha=1.0, p=4.0)
    X = sample_gibbs(m, 30000, 5)
    slc = psi_squared(m, 1)
    pts, w = tensor_grid(1, 1.5, 256)
    exact = float(w @ (pts[:, 0] ** 2 * slc.value(pts)))
    se = X[:, 0].std() ** 2 * math.sqrt(2.0 / len(X))
    assert abs(float((X[:, 0] ** 2).mean()) - exact) < 4 * se + 1e-4


def test_sampler_not_thinnable_error(monkeypatch):
    # stiff coupling makes the independence chain sticky enough to need
    # thinning; capping the factor at 1 turns that into the hard error
    m = GibbsMeasure(4, alpha=30.0, p=4.0)
    with monkeypatch.context() as patch:
        patch.setattr(measures, "MAX_THIN", 1)
        with pytest.raises(NotThinnableError):
            sample_gibbs(m, 300, 1)
    assert abs(lag1_autocorrelation((sample_gibbs(m, 300, 1) ** 2).sum(axis=1))) < 0.1


def test_sampler_degenerate_error():
    m = GibbsMeasure(32, alpha=1e6, p=4.0)
    with pytest.raises(SamplerDegenerateError, match="acceptance 4/1000 below 1%"):
        sample_gibbs(m, 2000, 1)


def ref_sample_gibbs(measure, count, seed):
    """sample_gibbs with the chain walked one numpy scalar and one row at a time."""
    max_thin, adapt_window = measures.MAX_THIN, measures.ADAPT_WINDOW
    rng = as_rng(seed, "measures", "gibbs")
    std = measure.mode_std
    state = rng.standard_normal(measure.n_modes) * std
    state_pot = float(measures._coupling(measure, state[None])[0][0])
    accepted = proposed = 0

    def advance(n_steps):
        nonlocal state, state_pot, accepted, proposed
        out = np.empty((n_steps, measure.n_modes))
        props = rng.standard_normal((n_steps, measure.n_modes)) * std
        pots = measures._coupling(measure, props)[0]
        logu = np.log(rng.random(n_steps))
        for k in range(n_steps):
            if logu[k] <= state_pot - pots[k]:
                state, state_pot = props[k], pots[k]
                accepted += 1
            proposed += 1
            if proposed == adapt_window and accepted < 0.01 * adapt_window:
                raise SamplerDegenerateError(
                    f"acceptance {accepted}/{proposed} below 1%: alpha*p too aggressive "
                    f"for n_modes={measure.n_modes}"
                )
            out[k] = state
        return out

    advance(min(200, 10 * measure.n_modes))
    chain = advance(count)
    thin = 1
    while lag1_autocorrelation((chain ** 2).sum(axis=1)) >= 0.1:
        thin *= 2
        if thin > max_thin:
            raise NotThinnableError(f"lag-1 autocorrelation still >= 0.1 at thinning {max_thin}")
        chain = advance(count * thin)[thin - 1 :: thin]
    return chain


def gibbs(n_modes, alpha, p):
    return GibbsMeasure(n_modes, alpha=alpha, p=p)


# (measure, count, seed, measures constants to set); with 4 modes the 40 warmup
# proposals put the end of the 1000-proposal adapt window at chain row 960.
# The degenerate chain (32 modes, seed 1) accepts proposals 4, 29, 59, 311
# and 1490 of its first 8000, counting its 200 warmup proposals: a window
# of 1490 ends on an acceptance, and one of 1300 ends 200 proposals before
# the next acceptance.
WALK_CASES = {
    "below-window": (gibbs(4, 1.0, 4.0), 900, 1, {}),
    "at-window": (gibbs(4, 1.0, 4.0), 960, 2, {}),
    "above-window": (gibbs(4, 1.0, 4.0), 961, 1, {}),
    "one-block": (gibbs(4, 2.0, 4.0), 1024, 1, {}),
    "block-boundary": (gibbs(4, 2.0, 4.0), 1025, 2, {}),
    "many-blocks": (gibbs(2, 5.0, 6.0), 20000, 1, {}),
    "thinning": (gibbs(4, 30.0, 4.0), 300, 1, {}),
    "not-thinnable": (gibbs(4, 30.0, 4.0), 300, 1, {"MAX_THIN": 1}),
    "gauss-legendre": (gibbs(3, 2.0, 3.0), 5000, 1, {}),
    "one-mode": (gibbs(1, 5.0, 4.0), 5000, 2, {}),
    "degenerate": (gibbs(32, 1e6, 4.0), 2000, 1, {}),
    "degenerate-window-ends-on-acceptance": (gibbs(32, 1e6, 4.0), 2000, 1, {"ADAPT_WINDOW": 1490}),
    "degenerate-window-before-acceptance": (gibbs(32, 1e6, 4.0), 2000, 1, {"ADAPT_WINDOW": 1300}),
    "degenerate-in-later-block": (gibbs(32, 1e6, 4.0), 4096, 1, {"ADAPT_WINDOW": 3372}),
    # unthinned chains whose first row after warmup, and whose row 2048,
    # repeat a state carried over from before a rejection
    "advance-starts-with-rejection": (gibbs(4, 10.0, 4.0), 1025, 14, {}),
    "block-starts-with-rejection": (gibbs(4, 5.0, 4.0), 2049, 39, {}),
    # sticky chains, thinned 64 and 128 times: 12740 proposals at 3.0%
    # acceptance and 25530 at 2.0%, where the walk's fixed point takes the
    # most rounds
    "sticky": (gibbs(4, 1e5, 4.0), 100, 1, {}),
    "sticky-gauss-legendre": (gibbs(3, 3e4, 3.0), 100, 1, {}),
}


def sampler_outcome(sampler, measure, count, seed):
    try:
        return sampler(measure, count, seed)
    except (SamplerDegenerateError, NotThinnableError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_sample_gibbs_matches_reference_walk(name, monkeypatch):
    *args, constants = WALK_CASES[name]
    for key, value in constants.items():
        monkeypatch.setattr(measures, key, value)
    want = sampler_outcome(ref_sample_gibbs, *args)
    got = sampler_outcome(sample_gibbs, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_exp_integrability_oracle():
    # E exp(0.01 |beta_{e_1}|) for the 1-mode Gaussian
    # (tests/oracles/compute_oracles.py, folded-normal MGF)
    m = GibbsMeasure(1)
    rep = exp_integrability(m, [1.0], 0.01, 200000, 11)
    assert not rep.diverged
    assert rep.estimate == pytest.approx(1.0364598584324792, abs=4 * rep.stderr)
    with pytest.raises(ValueError):
        exp_integrability(m, [1.0], -1.0, 100, 0)


def test_integrability_constants_deterministic():
    m = gibbs4()
    c1 = integrability_constants(m)
    c2 = integrability_constants(m)
    assert np.array_equal(c1, c2)
    assert np.all(c1 > 0)
    # precision grows with the mode index, so the scale constants shrink
    assert c1[3] < c1[0]


def test_ibp_residual_gaussian():
    m = GibbsMeasure(4)
    u = Cylinder(
        n_active=1,
        value_fn=lambda X: np.cos(X[:, 0]),
        grad_fn=lambda X: -np.sin(X[:, 0:1]),
        name="cos",
    )
    rep = ibp_residual(m, u, np.eye(4)[0], 50000, 3)
    assert rep.passed
    rep_vec = ibp_residual(m, u, np.array([1.0, 0.5]), 50000, 4)
    assert rep_vec.passed


def test_psi_squared_gaussian_formula():
    m = GibbsMeasure(1)
    slc = psi_squared(m, 1)
    x = np.array([[0.2], [-0.4], [0.0]])
    lam = m.lam[0]
    expected = np.sqrt(lam / (2 * np.pi)) * np.exp(-lam * x[:, 0] ** 2 / 2)
    assert np.allclose(slc.value(x), expected, rtol=1e-12)
    pts, w = tensor_grid(1, 1.5, 256)
    assert float(w @ slc.value(pts)) == pytest.approx(1.0, abs=1e-10)


def test_slice_beta_matches_log_gradient():
    m = GibbsMeasure(3, alpha=1.0, p=4.0)
    slc = psi_squared(m, 2).bind(np.array([0.1]))
    X = np.array([[0.3, -0.2], [0.0, 0.5]])
    h = 1e-6
    b = slc.beta(X)
    for i in range(2):
        Xp = X.copy()
        Xp[:, i] += h
        Xm = X.copy()
        Xm[:, i] -= h
        fd = (np.log(slc.value(Xp)) - np.log(slc.value(Xm))) / (2 * h)
        assert np.allclose(b[:, i], fd, atol=5e-6)


def test_slice_beta_equals_stacked_measure_beta():
    m = GibbsMeasure(3, alpha=1.0, p=4.0)
    y = np.array([-0.15])
    slc = psi_squared(m, 2).bind(y)
    X = np.array([[0.25, -0.3]])
    stacked = np.concatenate([X, np.repeat(y[None], 1, axis=0)], axis=1)
    assert np.allclose(slc.beta(X), beta_components(m, stacked)[:, :2], rtol=1e-12)


def _coupling_reference(alpha, p, X, n_out):
    """(alpha/p) int |x|^p and alpha int e_i |x|^{p-2} x, i < n_out, on 128
    Gauss-Legendre nodes, written out independently of the kernel."""
    g = Grid.gauss_legendre(128)
    E = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, X.shape[1] + 1), np.pi * g.nodes))
    U = X @ E
    pot = (alpha / p) * (np.abs(U) ** p @ g.weights)
    grad = alpha * ((np.abs(U) ** (p - 2.0) * U * g.weights) @ E[:n_out].T)
    return pot, grad


def _close(new, ref, rtol=1e-12):
    return np.max(np.abs(new - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [1, 2, 4])
def test_coupling_on_exact_grid_matches_gauss_legendre(N):
    m = GibbsMeasure(N + 2, alpha=1.3, p=4.0)
    assert m.grid.rule == "uniform-midpoint" and m.grid.n_nodes == 2 * (N + 2) + 1
    rng = np.random.default_rng(N)
    X = rng.standard_normal((25, N))
    y = np.array([0.4, -0.7])
    full = np.concatenate([X, np.broadcast_to(y, (25, 2))], axis=1)
    pot_ref, grad_ref = _coupling_reference(m.alpha, m.p, full, N + 2)

    pot, grad = measures._coupling(m, full, gradient=True)
    assert _close(pot, pot_ref) and _close(grad, grad_ref)
    assert _close(beta_components(m, full), -m.lam * full - grad_ref)

    slc = psi_squared(m, N).bind(y)
    assert _close(slc.beta(X), -m.lam[:N] * X - grad_ref[:, :N])
    logv = slc._log_value_and_beta(X)[0]
    assert _close(slc.log_pref - 0.5 * (X ** 2 @ m.lam[:N]) - logv, pot_ref)
    vals, b = slc.value_and_beta(X)
    assert np.array_equal(vals, np.exp(logv)) and np.array_equal(vals, slc.value(X))
    assert np.array_equal(b, slc.beta(X))


def test_coupling_grid_one_node_short_is_not_exact():
    m = GibbsMeasure(1, alpha=1.0, p=4.0)
    X = np.array([[0.9], [-1.4]])
    pot_ref, grad_ref = _coupling_reference(1.0, 4.0, X, 1)
    short = SimpleNamespace(alpha=1.0, p=4.0, grid=Grid.midpoint(m.grid.n_nodes - 1))
    pot, grad = measures._coupling(short, X, gradient=True)
    assert np.min(np.abs(pot - pot_ref) / np.abs(pot_ref)) > 1e-3
    assert np.min(np.abs(grad - grad_ref) / np.abs(grad_ref)) > 1e-3


@pytest.mark.parametrize("p", [3.0, 3.5])
def test_coupling_grid_keeps_gauss_legendre_for_other_p(p):
    m = GibbsMeasure(2, alpha=1.0, p=p)
    assert m.grid.rule == "gauss-legendre" and m.grid.n_nodes == measures.SLICE_GRID_NODES
    assert measures.coupling_grid(6.0, 3).n_nodes == 10


def _coupling_unblocked(m, X, shift):
    """The coupling kernel's formula as one product over all rows: on
    S = U^2 for even p, on |U| for other p, projected onto (E w)^T."""
    E = basis_matrix(X.shape[1], m.grid)
    U = X @ E if shift is None else X @ E + shift
    w = m.grid.weights
    if m.p % 2 == 0:
        S = U * U
        pot, grad = S ** (m.p / 2.0) @ w, (S ** (m.p / 2.0 - 1.0) * U) @ (E * w).T
    else:
        A = np.abs(U)
        pot, grad = A ** m.p @ w, (A ** (m.p - 2.0) * U) @ (E * w).T
    return (m.alpha / m.p) * pot, m.alpha * grad


# the kernel against the abs/pow formula it replaced, at three state scales:
# measured at most 5.9e-16 relative per potential and 5.7e-16 of
# alpha int |e_i| |U|^{p-1} per gradient entry
COUPLING_RTOL = 2e-15


@pytest.mark.parametrize("p, n_modes", [(4.0, 4), (6.0, 3), (3.0, 2)])
@pytest.mark.parametrize("shifted", [False, True])
def test_coupling_is_the_abs_pow_formula(p, n_modes, shifted):
    m = gibbs(n_modes, 1.3, p)
    E, w = basis_matrix(n_modes, m.grid), m.grid.weights
    rng = np.random.default_rng(n_modes)
    shift = rng.standard_normal(m.grid.n_nodes) if shifted else None
    for scale in (0.05, 0.4, 2.0):
        X = scale * rng.standard_normal((3000, n_modes))
        U = X @ E if shift is None else X @ E + shift
        pot = (m.alpha / m.p) * (np.abs(U) ** m.p @ w)
        grad = m.alpha * ((np.abs(U) ** (m.p - 2.0) * U * w) @ E.T)
        got_pot, got_grad = measures._coupling(m, X, shift, gradient=True)
        assert np.max(np.abs(got_pot - pot) / pot) <= COUPLING_RTOL
        # a gradient entry may cancel: measure its move against int |e_i| |U|^{p-1}
        size = m.alpha * ((np.abs(U) ** (m.p - 1.0) * w) @ np.abs(E).T)
        assert np.max(np.abs(got_grad - grad) / size) <= COUPLING_RTOL


@pytest.mark.parametrize("p, n_modes", [(4.0, 4), (3.0, 2)])
@pytest.mark.parametrize("shifted", [False, True])
def test_blocked_coupling_is_the_unblocked_formula(p, n_modes, shifted):
    m = gibbs(n_modes, 1.3, p)
    n_nodes = m.grid.n_nodes
    assert m.grid.rule == ("uniform-midpoint" if p == 4.0 else "gauss-legendre")
    rows = measures.coupling_block_rows(n_nodes)
    rng = np.random.default_rng(n_modes)
    shift = rng.standard_normal(n_nodes) if shifted else None
    # a call of up to 2 * rows - 1 rows is one block; the last block takes the rows left over
    for n in (1, rows - 1, rows, 2 * rows - 1, 2 * rows, 2 * rows + 1, 3 * rows + 5):
        X = 0.4 * rng.standard_normal((n, n_modes))
        pot, grad = _coupling_unblocked(m, X, shift)
        only_pot = measures._coupling(m, X, shift)
        only_grad = measures._coupling(m, X, shift, potential=False, gradient=True)
        both = measures._coupling(m, X, shift, gradient=True)
        assert only_pot[1] is None and only_grad[0] is None
        assert np.array_equal(only_pot[0], pot) and np.array_equal(both[0], pot)
        assert np.array_equal(only_grad[1], grad) and np.array_equal(both[1], grad)


def test_ladder_validation_and_first_branch():
    m = GibbsMeasure(1)
    slc = psi_squared(m, 1)
    with pytest.raises(ValueError):
        ladder(slc, 0.5, 4)
    with pytest.raises(ValueError):
        ladder(slc, 4, 0)
    lad = ladder(slc, 4, 8)
    assert isinstance(lad, LadderDensity)
    assert lad is not slc


def test_ladder_respects_clip_bounds():
    m = GibbsMeasure(1)
    slc = psi_squared(m, 1)
    M = 2.0
    lad = ladder(slc, M, 4)
    pts, _ = tensor_grid(1, 3.0, 200)
    vals = lad.value(pts)
    assert np.all(vals >= 1.0 / M - 1e-12)
    assert np.all(vals <= M + 1e-12)
    assert abs(lad.conv_weights.sum() - 1.0) < 1e-14
    assert np.all(np.sqrt((lad.offsets ** 2).sum(axis=1)) <= 1.0 / lad.l + 1e-12)


def test_ladder_log_gradient_consistency():
    m = GibbsMeasure(1, alpha=1.0, p=4.0)
    slc = psi_squared(m, 1)
    lad = ladder(slc, 4, 8)
    X = np.array([[0.15], [-0.35], [0.6]])
    vals, lg = lad.value_and_log_gradient(X)
    h = 1e-6
    fd = (np.log(lad.value(X + h)) - np.log(lad.value(X - h))) / (2 * h)
    assert np.allclose(lg[:, 0], fd, atol=5e-5)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2.0, 10.0]), st.sampled_from([4, 16]), st.sampled_from([0.01, 0.05]))
def test_jensen_chain_ordering(M, l, eps):
    m = GibbsMeasure(1, alpha=1.0, p=4.0)
    slc = psi_squared(m, 1)
    i_ml, i_m, i_exact = jensen_chain(slc, M, l, eps, 0)
    assert i_ml <= i_m + 1e-6
    assert i_m <= i_exact + 1e-6
    assert i_ml >= 0.0


def test_tensor_grid_normalizes_gaussian():
    m = GibbsMeasure(2)
    slc = psi_squared(m, 2)
    pts, w = tensor_grid(2, 1.5, 96)
    assert float(w @ slc.value(pts)) == pytest.approx(1.0, abs=1e-8)


def test_disintegration_tail_dependence():
    # moving the tail coefficient moves the Gibbs coupling, never the Gaussian part
    m = GibbsMeasure(2, alpha=1.0, p=4.0)
    dis = psi_squared(m, 1)
    x = np.array([[0.2]])
    v0 = dis.bind(np.array([0.0])).value(x)
    v1 = dis.bind(np.array([0.8])).value(x)
    assert not np.allclose(v0, v1)
    g = GibbsMeasure(2)
    dis_g = psi_squared(g, 1)
    assert np.allclose(dis_g.bind(np.array([0.0])).value(x), dis_g.bind(np.array([0.8])).value(x))
