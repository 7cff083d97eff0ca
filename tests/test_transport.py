import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refflow import catalog, cli, fields, measures, transport
from refflow.transport import (
    FlowConfig,
    RepresentationOverflowError,
    StepMismatchError,
    TransportSolution,
    bump_density,
    feynman_kac,
    feynman_kac_many,
    feynman_kac_shared,
    pde_residual,
    solve,
)
from reference import flow, linear_field


def slice_for(n_modes, lam=None):
    m = measures.GibbsMeasure(n_modes, lam=lam)
    return m, measures.psi_squared(m, n_modes)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt_ode=0.0)
    with pytest.raises(ValueError):
        FlowConfig(T=-1.0)
    cfg = FlowConfig(dt_ode=1e-3, T=1.0)
    assert cfg.n_steps(0.1) == 100
    assert cfg.n_steps(0.0) == 0
    with pytest.raises(StepMismatchError):
        cfg.n_steps(0.0005)


def test_flow_constant_field_translates():
    f = fields.constant_field([0.3, -0.1])
    cfg = FlowConfig(dt_ode=1e-3, T=1.0)
    x = np.array([[0.2, 0.4], [-1.0, 0.0]])
    z = flow(f, 0.0, 0.5, x, cfg)
    assert np.allclose(z, x + 0.5 * np.array([0.3, -0.1]), rtol=0, atol=1e-13)


def test_flow_linear_field_matches_exponentials():
    f = linear_field(np.diag([-1.0, 2.0]), bound=10.0)
    z = flow(f, 0.0, 0.5, np.array([1.0, 1.0]), FlowConfig(dt_ode=1e-3, T=0.5))
    # [DERIVED] mpmath exp values
    assert abs(z[0] - 0.60653065971263342) < 1e-12
    assert abs(z[1] - 2.7182818284590452) < 1e-11


def test_flow_pads_modes_beyond_field_components():
    f = catalog.build_field({"name": "swirl", "s": 0.2})
    x = np.array([[0.1, -0.2, 0.7, -0.4]])
    z = flow(f, 0.0, 0.1, x, FlowConfig(dt_ode=1e-3, T=0.1))
    assert np.all(z[0, 2:] == x[0, 2:])
    assert not np.allclose(z[0, :2], x[0, :2])


@settings(max_examples=15, deadline=None)
@given(
    x1=st.floats(-1.0, 1.0),
    x2=st.floats(-1.0, 1.0),
    n1=st.integers(1, 9),
)
def test_flow_semigroup_and_inversion(x1, x2, n1):
    f = catalog.build_field({"name": "swirl", "s": 0.2})
    cfg = FlowConfig(dt_ode=1e-2, T=0.2)
    x = np.array([x1, x2])
    t1 = n1 * cfg.dt_ode
    t2 = 0.2
    direct = flow(f, 0.0, t2, x, cfg)
    chained = flow(f, t1, t2, flow(f, 0.0, t1, x, cfg), cfg)
    assert np.allclose(direct, chained, rtol=0, atol=1e-12)
    back = flow(f, t2, 0.0, direct, cfg)
    assert np.allclose(back, x, rtol=0, atol=1e-10)


def test_bump_density_shape_and_support():
    rho = bump_density([0.1, -0.2], [0.4, 0.3], height=2.0)
    assert rho.value(np.array([[0.1, -0.2]]))[0] == pytest.approx(2.0)
    assert rho.value(np.array([[0.6, -0.2]]))[0] == 0.0
    assert rho.support_radius == pytest.approx(np.hypot(0.5, 0.5))
    with pytest.raises(ValueError):
        bump_density([0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        bump_density([0.0], [-0.5])


def test_initial_density_clips_negative_values():
    rho = transport.InitialDensity(value_fn=lambda X: X[:, 0], support_radius=1.0)
    assert np.all(rho.value(np.array([[-0.5], [0.5]])) == [0.0, 0.5])


def test_density_matches_constant_field_closed_form():
    """1-D constant field: rho(t,x) = rho0(x-tc) exp(lam c (xt - c t^2/2))."""
    m, slc = slice_for(1)
    lam, c = float(m.lam[0]), 0.1
    rho0 = bump_density([0.0], [0.5])
    sol = TransportSolution(
        rho0=rho0,
        field=fields.constant_field([c]),
        reference=slc,
        config=FlowConfig(dt_ode=1e-3, T=0.5),
        N=1,
    )
    xs = np.linspace(-0.6, 0.7, 27)[:, None]
    for t in (0.1, 0.5):
        got = feynman_kac(sol, t, xs)
        want = rho0.value(xs - t * c) * np.exp(lam * c * (xs[:, 0] * t - c * t * t / 2.0))
        assert np.max(np.abs(got - want)) < 1e-12


def test_density_at_time_zero_is_initial_density():
    m, slc = slice_for(1)
    rho0 = bump_density([0.0], [0.5])
    sol = TransportSolution(
        rho0=rho0, field=fields.constant_field([0.1]), reference=slc,
        config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    xs = np.linspace(-1.0, 1.0, 11)[:, None]
    assert np.all(feynman_kac(sol, 0.0, xs) == rho0.value(xs))


def test_density_vanishes_outside_transport_ball():
    m, slc = slice_for(1)
    rho0 = bump_density([0.0], [0.5])
    f = fields.constant_field([0.1])
    sol = TransportSolution(rho0=rho0, field=f, reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1)
    assert sol.support_radius == pytest.approx(0.5 + 0.5 * 0.1)
    far = np.array([sol.support_radius + 0.01])
    assert feynman_kac(sol, 0.5, far) == 0.0
    assert feynman_kac(sol, 0.5, np.array([5.0])) == 0.0


def test_density_time_domain_checked():
    m, slc = slice_for(1)
    sol = TransportSolution(
        rho0=bump_density([0.0], [0.5]), field=fields.constant_field([0.1]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    with pytest.raises(ValueError):
        feynman_kac(sol, 0.6, np.array([0.0]))
    with pytest.raises(ValueError):
        feynman_kac(sol, -0.1, np.array([0.0]))


def test_exponent_overflow_is_reported():
    m, slc = slice_for(1, lam=np.array([3000.0]))
    sol = TransportSolution(
        rho0=bump_density([0.0], [5.0]), field=fields.constant_field([1.0]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    with pytest.raises(RepresentationOverflowError):
        feynman_kac(sol, 0.5, np.array([1.0]))


def test_pointwise_equation_residual_small():
    m, slc = slice_for(1)
    sol = TransportSolution(
        rho0=bump_density([0.0], [0.5]), field=fields.constant_field([0.1]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    res = pde_residual(sol, 0.25, np.array([[0.1], [0.3], [-0.2]]))
    assert np.max(np.abs(res)) < 1e-6

    sw = catalog.build_field({"name": "swirl", "s": 0.2})
    m2, slc2 = slice_for(2)
    sol2 = TransportSolution(
        rho0=bump_density([0.1, 0.0], [0.4, 0.4]), field=sw, reference=slc2,
        config=FlowConfig(dt_ode=1e-3, T=0.25), N=2,
    )
    res2 = pde_residual(sol2, 0.125, np.array([[0.15, 0.05], [0.0, 0.1]]))
    assert np.max(np.abs(res2)) < 1e-6


def test_pde_residual_validates_time_step():
    m, slc = slice_for(1)
    sol = TransportSolution(
        rho0=bump_density([0.0], [0.5]), field=fields.constant_field([0.1]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    with pytest.raises(StepMismatchError):
        pde_residual(sol, 0.25, np.array([0.1]), h_t=0.0015)
    with pytest.raises(ValueError):
        pde_residual(sol, 0.0, np.array([0.1]))


def test_ladder_reference_uses_its_log_gradient():
    m, slc = slice_for(1)
    lad = measures.ladder(slc, M=8, l=16)
    sol = TransportSolution(
        rho0=bump_density([0.0], [0.5]), field=fields.constant_field([0.1]),
        reference=lad, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    exact = TransportSolution(
        rho0=bump_density([0.0], [0.5]), field=fields.constant_field([0.1]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    xs = np.linspace(-0.4, 0.4, 9)[:, None]
    a = feynman_kac(sol, 0.25, xs)
    b = feynman_kac(exact, 0.25, xs)
    # clipped log-gradient agrees with the exact one deep inside the band
    assert np.max(np.abs(a - b)) < 1e-2
    assert np.any(a != b)


@pytest.mark.parametrize("kind", ["slice", "ladder"])
def test_slices_and_ladders_read_alike(kind):
    m = measures.GibbsMeasure(2, alpha=1.0, p=4.0)
    slc = measures.psi_squared(m, 2)
    ref = slc if kind == "slice" else measures.ladder(slc, M=8, l=16)
    X = np.random.default_rng(5).normal(scale=0.3, size=(20, 2))
    assert ref.source is slc and ref.N == 2
    assert ref.M == (math.inf if kind == "slice" else 8.0)
    want = measures.beta_components(m, X) if kind == "slice" else ref.value_and_log_gradient(X)[1]
    assert np.allclose(ref.beta(X), want, rtol=1e-12, atol=0.0)
    # solve reads N from the reference
    rho0, fld, cfg = bump_density([0.0, 0.0], [0.5, 0.5]), fields.constant_field([0.1, -0.1]), FlowConfig(1e-2, 0.2)
    sol = solve(rho0, fld, ref, cfg)
    assert sol.N == 2
    assert np.array_equal(feynman_kac_many(sol, [0.1], X)[0], feynman_kac(TransportSolution(rho0, fld, ref, cfg, 2), 0.1, X))


def _feynman_kac_reference(solution, t, X):
    """The per-time backward sweep as written before sweeps were shared: a
    fresh integration from (t, X) on every call."""
    cfg = solution.config
    out = np.zeros(X.shape[0])
    near = np.sqrt((X ** 2).sum(axis=1)) <= solution.support_radius + 1e-12
    n = cfg.n_steps(t)
    if n == 0:
        out[near] = np.clip(solution.rho0.value(X[near]), 0.0, None)
        return out
    Z = X[near].copy()
    fld, beta = solution.field, solution.reference.beta
    acc = 0.5 * fields.dstar(fld, beta, t, Z)
    u = t
    for k in range(1, n + 1):
        Z = transport._step(fld, u, Z, -cfg.dt_ode, fld.value(u, Z))
        u = t - k * cfg.dt_ode
        g = fields.dstar(fld, beta, max(u, 0.0), Z)
        acc = acc + (0.5 * g if k == n else g)
    expnt = cfg.dt_ode * acc
    rho0v = np.clip(solution.rho0.value(Z), 0.0, None)
    alive = rho0v > 0
    vals = np.zeros(Z.shape[0])
    vals[alive] = rho0v[alive] * np.exp(expnt[alive])
    out[near] = vals
    return out


def _catalog_solution(pid, ladder=False, field=None):
    spec = {p["id"]: p for p in catalog.default_problems("all")}[pid]
    m, reference, fld, rho0, config, _u = catalog.build_problem(spec)
    if ladder:
        reference = measures.ladder(reference, 8, 16)
    # a short horizon keeps the reference sweeps cheap; dt stays the catalog's
    config = FlowConfig(dt_ode=config.dt_ode, T=0.04)
    return TransportSolution(rho0=rho0, field=field or fld, reference=reference, config=config, N=spec["N"])


def _points(sol):
    """A grid over and beyond the support ball, so some points lie outside it."""
    R = 1.3 * sol.support_radius
    axes = [np.linspace(-R, R, 9)] * sol.N
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


# unsorted, with 0 and a repeated time
SWEEP_TIMES = [0.04, 0.0, 0.017, 0.003, 0.017, 0.001]


@pytest.mark.parametrize("pid,ladder", [("g1_const", False), ("gibbs1_arctan", True), ("g2_swirl", False)])
def test_sweep_matches_per_time_integration(pid, ladder):
    sol = _catalog_solution(pid, ladder=ladder)
    X = _points(sol)
    assert not np.all(np.sqrt((X ** 2).sum(axis=1)) <= sol.support_radius)
    want = np.stack([_feynman_kac_reference(sol, t, X) for t in SWEEP_TIMES])
    assert np.any(want[0] > 0)
    assert np.array_equal(feynman_kac_many(sol, SWEEP_TIMES, X), want)
    # single-time calls continue the last sweep or start afresh, going back in
    # time or switching point sets; the values stay those of a fresh sweep
    fresh = _catalog_solution(pid, ladder=ladder)
    for t, row in zip(SWEEP_TIMES, want):
        assert np.array_equal(feynman_kac(fresh, t, X), row)
    for t, row in zip(SWEEP_TIMES, want):
        assert np.array_equal(feynman_kac(fresh, t, X[::-1]), row[::-1])
        assert np.array_equal(feynman_kac(fresh, t, X), row)


GROWING = fields.CylindricalField(
    lambda t, X, div: (np.full((X.shape[0], 1), 0.1 * (1.0 + 5.0 * t)), np.zeros(X.shape[0]) if div else None),
    (0.2,),
    time_dependent=True,
)


def test_sweep_restarts_for_time_dependent_field():
    sol = _catalog_solution("g1_const", field=GROWING)
    X = _points(sol)
    want = np.stack([_feynman_kac_reference(sol, t, X) for t in SWEEP_TIMES])
    assert np.array_equal(feynman_kac_many(sol, SWEEP_TIMES, X), want)


def test_sweep_checks_every_time():
    sol = _catalog_solution("g1_const")
    X = _points(sol)
    with pytest.raises(ValueError, match="outside"):
        feynman_kac_many(sol, [0.01, 0.05], X)
    with pytest.raises(StepMismatchError):
        feynman_kac_many(sol, [0.01, 0.0105], X)
    m, slc = slice_for(1, lam=np.array([3000.0]))
    hot = TransportSolution(
        rho0=bump_density([0.0], [5.0]), field=fields.constant_field([1.0]),
        reference=slc, config=FlowConfig(dt_ode=1e-3, T=0.5), N=1,
    )
    # exponent 3000 (t - t^2/2) at x = 1: 285 at t = 0.1, past 700 at t = 0.5
    assert feynman_kac_many(hot, [0.1], np.array([[1.0]]))[0, 0] > 0
    with pytest.raises(RepresentationOverflowError, match=r"t=0\.5, x=\[1\.\]"):
        feynman_kac_many(hot, [0.5, 0.1], np.array([[1.0]]))


def test_sweep_is_not_continued_on_points_changed_in_place():
    sol = _catalog_solution("g2_swirl")
    X = _points(sol)
    feynman_kac(sol, 0.01, X)
    X += 0.05
    assert np.array_equal(feynman_kac(sol, 0.02, X), _feynman_kac_reference(sol, 0.02, X))
    # nor is a density at the same time served for them
    X += 0.05
    assert np.array_equal(feynman_kac(sol, 0.02, X), _feynman_kac_reference(sol, 0.02, X))


def _pde_residual_old_order(solution, t, X, h_t, h_x):
    """pde_residual as written before its times were ordered: t + h_t, then
    t - h_t, the spatial differences, and t last."""
    dt_rho = (feynman_kac(solution, t + h_t, X) - feynman_kac(solution, t - h_t, X)) / (2.0 * h_t)
    grad = np.zeros_like(X)
    for i in range(X.shape[1]):
        Xp = X.copy()
        Xp[:, i] += h_x
        Xm = X.copy()
        Xm[:, i] -= h_x
        grad[:, i] = (feynman_kac(solution, t, Xp) - feynman_kac(solution, t, Xm)) / (2.0 * h_x)
    f_vals = solution.field.value(t, X)
    advect = (f_vals * grad[:, : f_vals.shape[1]]).sum(axis=1)
    ds = fields.dstar(solution.field, solution.reference.beta, t, X)
    return dt_rho + advect - ds * feynman_kac(solution, t, X)


@pytest.mark.parametrize("pid,ladder", [("gibbs1_arctan", True), ("g2_swirl", False)])
def test_pde_residual_continues_the_sweep(pid, ladder, monkeypatch):
    sol = _catalog_solution(pid, ladder=ladder)
    X = _points(sol)[::7]
    h = 2 * sol.config.dt_ode
    # every field evaluation goes through CylindricalField.value (the RK
    # stages) or CylindricalField.value_and_divergence (D*F), not dstar
    assert isinstance(sol.field, fields.CylindricalField)
    calls = []
    for name in ("value", "value_and_divergence"):
        method = getattr(fields.CylindricalField, name)
        monkeypatch.setattr(fields.CylindricalField, name, lambda *a, m=method: calls.append(1) or m(*a))
    want = _pde_residual_old_order(sol, 0.02, X, h, 1e-4)
    old_calls = len(calls)
    calls.clear()
    assert np.array_equal(pde_residual(sol, 0.02, X, h_t=h, h_x=1e-4), want)
    # t - h_t, t and t + h_t share one sweep instead of taking three. A fresh
    # RK4 sweep of n steps evaluates F 1 + 4n times and a continuation of n
    # steps 4n times; pde_residual evaluates F and D*F once, together.
    fresh = lambda t: 1 + 4 * sol.config.n_steps(t)
    per_axis = 2 * fresh(0.02)
    assert len(calls) == fresh(0.02 - h) + 2 * 4 * sol.config.n_steps(h) + X.shape[1] * per_axis + 1
    # the old order swept afresh at t - h_t and at t as well
    assert len(calls) < old_calls - 4 * sol.config.n_steps(0.02)


def _slice_and_ladder(pid, field=None):
    """Solutions of one catalog problem under its exact slice and under the
    ladder Psi^2_{8,16} of that slice."""
    exact = _catalog_solution(pid, field=field)
    ladder = measures.ladder(exact.reference, 8, 16)
    return [exact, TransportSolution(rho0=exact.rho0, field=exact.field, reference=ladder, config=exact.config, N=exact.N)]


@pytest.mark.parametrize("pid,field", [("g1_const", None), ("gibbs1_arctan", None), ("g2_swirl", None), ("g1_const", GROWING)])
def test_shared_sweep_matches_each_reference(pid, field):
    sols = _slice_and_ladder(pid, field=field)
    X = _points(sols[0])
    assert not np.all(np.sqrt((X ** 2).sum(axis=1)) <= sols[0].support_radius)
    want = np.stack([[_feynman_kac_reference(s, t, X) for t in SWEEP_TIMES] for s in sols])
    assert np.any(want[0] != want[1])
    assert np.array_equal(feynman_kac_shared(sols, SWEEP_TIMES, X), want)


def test_served_density_is_a_copy(monkeypatch):
    sol = _catalog_solution("g2_swirl")
    X = _points(sol)
    got = feynman_kac(sol, 0.02, X)
    want = got.copy()
    got[:] = -1.0
    value = fields.CylindricalField.value
    calls = []
    monkeypatch.setattr(fields.CylindricalField, "value", lambda *a: calls.append(1) or value(*a))
    assert np.array_equal(feynman_kac(sol, 0.02, X), want)
    assert np.array_equal(feynman_kac_many(sol, [0.02, 0.02], X), [want, want])
    assert calls == []


def test_shared_sweep_needs_one_rho0_field_and_config():
    sols = _slice_and_ladder("g1_const")
    X = _points(sols[0])
    exact = sols[0]
    base = dict(rho0=exact.rho0, field=exact.field, reference=sols[1].reference, config=exact.config, N=1)
    for change in (
        {"rho0": bump_density([0.0], [0.5])},
        {"field": fields.constant_field([0.1])},
        {"config": FlowConfig(dt_ode=exact.config.dt_ode, T=2.0 * exact.config.T)},
    ):
        with pytest.raises(ValueError, match="same rho0, field and config"):
            feynman_kac_shared([exact, TransportSolution(**{**base, **change})], [0.01], X)


def test_uniqueness_report_is_the_same_for_any_worker_count(tmp_path):
    problems = [
        dict(p, T=0.04, times=[0.02, 0.04], n_per_axis=32)
        for p in catalog.default_problems("all")
    ]
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"kind": "verify-suite", "seed": 3, "params": {"problems": problems, "n_time": 4, "uniqueness": True}}))
    for workers in ("1", "2"):
        assert cli.main(["run", str(path), "--output", str(tmp_path / workers), "--workers", workers]) == 0
    report = (tmp_path / "1" / "report.json").read_bytes()
    assert b"uniqueness" in report
    assert report == (tmp_path / "2" / "report.json").read_bytes()
