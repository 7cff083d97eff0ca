import json

import numpy as np
import pytest

from refflow import catalog, fields, measures, transport, verify
from refflow.verify import (
    InfeasibleInputError,
    TestFunction,
    TheoremViolationError,
    VerificationReport,
    approximate_initial_density,
    ball_volume,
    entropy_bound_check,
    mass_conservation,
    uniqueness_probe,
    weak_residual,
)


@pytest.fixture(scope="module")
def const_problem():
    spec = catalog.default_problems("1d")[0]
    m, ref, f, rho0, cfg, u = catalog.build_problem(spec)
    sol = transport.solve(rho0, f, ref, cfg)
    return m, ref, f, rho0, cfg, u, sol


def test_test_function_must_vanish_at_horizon():
    cyl = catalog.build_cylinder("cos_m1")
    tf = TestFunction(g=lambda t: 1.0 - t, g_prime=lambda t: -1.0, f=cyl, T=1.0)
    assert tf.value(0.5, np.zeros((1, 1)))[0] == pytest.approx(0.5 * cyl.value(np.zeros((1, 1)))[0])
    with pytest.raises(ValueError):
        TestFunction(g=lambda t: 1.0, g_prime=lambda t: 0.0, f=cyl, T=1.0)


def test_report_pass_semantics():
    two = VerificationReport(name="r", residual=-0.5, error=0.5, tolerance=0.1)
    assert not two.passed
    one = VerificationReport(
        name="r", residual=-0.5, error=0.5, tolerance=0.1, one_sided=True, metadata={"v": np.float64(2.0)}
    )
    assert one.passed
    d = one.to_dict()
    assert d["passed"] is True and d["one_sided"] is True
    assert json.loads(json.dumps(d))["metadata"] == {"v": 2.0}


def test_weak_residual_small_for_constant_field(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    rep = weak_residual(sol, u)
    assert rep.passed
    assert abs(rep.residual) < 1e-8
    assert rep.metadata["dt_ode"] == cfg.dt_ode


def test_mass_conserved_along_the_flow(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    for rep in mass_conservation(sol, [0.25, 0.5]):
        assert rep.passed
        assert abs(rep.residual) < 1e-8
        assert rep.metadata["mass_0"] > 0


def test_entropy_of_constant_density_matches_closed_form():
    """Constant c on [-0.3, 0.3]: entropy = c (ln c - 1) * (Psi^2 mass of the box)."""
    m = measures.GibbsMeasure(1)
    slc = measures.psi_squared(m, 1)
    # [DERIVED] mpmath: c = 1/mass so the density integrates to one
    c = 1.2233555442527152
    rho = transport.InitialDensity(value_fn=lambda X: np.full(X.shape[0], c), support_radius=0.3)
    sol = transport.TransportSolution(
        rho0=rho, field=fields.constant_field([0.0]), reference=slc,
        config=transport.FlowConfig(dt_ode=1e-3, T=0.5),
    )
    (rep,) = entropy_bound_check(sol, [0.0], delta=1.0, cf_value=0.0)
    assert abs(rep.metadata["left"] - (-0.79840247070156033)) < 1e-13


def test_entropy_zero_density_contributes_nothing():
    m = measures.GibbsMeasure(1)
    slc = measures.psi_squared(m, 1)
    rho = transport.InitialDensity(value_fn=lambda X: np.zeros(X.shape[0]), support_radius=0.3)
    sol = transport.TransportSolution(
        rho0=rho, field=fields.constant_field([0.0]), reference=slc,
        config=transport.FlowConfig(dt_ode=1e-3, T=0.5),
    )
    (rep,) = entropy_bound_check(sol, [0.0], delta=1.0, cf_value=0.0)
    assert rep.metadata["left"] == 0.0


def test_entropy_bound_holds_with_analytic_cost(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    # [DERIVED] mpmath closed form for the constant-field exponential cost
    (rep,) = entropy_bound_check(sol, [0.25], delta=0.05, cf_value=0.0089871124597119349)
    assert rep.passed
    assert rep.one_sided
    assert rep.residual < 0
    assert rep.metadata["left"] < rep.metadata["right"]
    assert rep.metadata["clip_volume_term"] == 0.0  # exact reference, M = inf
    assert rep.metadata["sharper_right_informational"] <= rep.metadata["right"] + 1e-12


def test_entropy_bound_violation_raises(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    with pytest.raises(TheoremViolationError):
        entropy_bound_check(sol, [0.25], delta=0.05, cf_value=-1e6)
    with pytest.raises(ValueError):
        entropy_bound_check(sol, [0.25], delta=0.0, cf_value=0.0)


@pytest.mark.parametrize("check", ["mass", "entropy"])
def test_checks_over_two_times_are_the_one_time_checks(check):
    spec = {p["id"]: p for p in catalog.default_problems("1d")}["gibbs1_arctan"]
    _, ref, f, rho0, cfg, _ = catalog.build_problem(spec)

    def reports(times):
        sol = transport.solve(rho0, f, ref, cfg)
        if check == "mass":
            return mass_conservation(sol, times, n_per_axis=64)
        return entropy_bound_check(sol, times, delta=0.05, cf_value=0.01, n_per_axis=64)

    # one grid, one Psi^2 and one request for both times; the same bits
    both = [r.to_dict() for r in reports([0.25, 0.5])]
    assert both == [reports([0.25])[0].to_dict(), reports([0.5])[0].to_dict()]


def test_theorem_violation_is_an_assertion():
    assert issubclass(TheoremViolationError, AssertionError)


def test_ladder_reference_adds_clip_volume_term(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    lad = measures.ladder(ref, M=4, l=8)
    sol_l = transport.solve(rho0, f, lad, cfg)
    (rep,) = entropy_bound_check(sol_l, [0.25], delta=0.05, cf_value=0.0089871124597119349)
    assert rep.passed
    want = (0.25 / 4.0) * ball_volume(1, sol_l.support_radius + 1.0)
    assert rep.metadata["clip_volume_term"] == pytest.approx(want, rel=1e-12)


def test_ball_volume_low_dimensions():
    assert ball_volume(1, 2.0) == pytest.approx(4.0)
    assert ball_volume(2, 1.0) == pytest.approx(np.pi)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * np.pi / 3.0)


def test_approximation_of_smooth_density():
    m = measures.GibbsMeasure(1)
    approx, rep = approximate_initial_density(
        lambda X: np.exp(-X[:, 0] ** 2), m, N=1, M_clip=4.0, l_smooth=8, count=8000
    )
    assert rep.l1_distance < 5e-3
    assert abs(rep.entropy_input - rep.entropy_approx) < 5e-3
    vals = approx(np.array([[0.0], [0.2]]))
    assert np.all(vals > 0) and np.all(vals <= 4.0)


def test_approximation_rejects_bad_inputs():
    m = measures.GibbsMeasure(1)
    with pytest.raises(InfeasibleInputError):
        approximate_initial_density(lambda X: X[:, 0], m, N=1, M_clip=4.0, l_smooth=8, count=2000)
    # integrand outside L log L: the sample entropy is dominated by single draws
    with pytest.raises(InfeasibleInputError):
        approximate_initial_density(
            lambda X: np.exp(40.0 * X[:, 0] ** 2), m, N=1, M_clip=4.0, l_smooth=8, count=8000, seed=1
        )


def test_uniqueness_probe_across_discretizations(const_problem):
    m, ref, f, rho0, cfg, u, sol = const_problem
    lad = measures.ladder(ref, M=8, l=16)
    rep = uniqueness_probe(rho0, f, [ref, lad], cfg, t_eval=[0.25, 0.5])
    assert rep.passed
    assert rep.residual < 1e-2
    assert "0-1" in rep.metadata["pairs"]
    with pytest.raises(ValueError):
        uniqueness_probe(rho0, f, [ref], cfg, t_eval=[0.25])
