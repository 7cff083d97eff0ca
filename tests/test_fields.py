import dataclasses

import numpy as np
import pytest

from refflow import catalog, fields, measures
from refflow.spectral import Grid, basis_matrix
from refflow.fields import (
    DeltaTooLargeError,
    NemytskiiField,
    Reaction,
    cf_delta,
    claims_probe,
    constant_field,
    delta_recipe,
    divergence,
    dstar,
    dstar_rows,
    galerkin,
)
from reference import (
    component_rows,
    constant_components,
    dstar_product_rule_check,
    galerkin_components,
    linear_field,
    swirl_components,
)


def one_reaction():
    return Reaction(fn=lambda r: np.ones_like(r), deriv=lambda r: np.zeros_like(r), bound=1.0, name="one")


def arctan_field(n_modes):
    """The catalog's -arctan Nemytskii field on n_modes modes, as data."""
    return NemytskiiField(reaction=catalog.SCALAR_REACTIONS["neg_arctan"].build(), n_modes=n_modes)


def test_constant_field_values_and_bound():
    f = constant_field([0.3, -0.2])
    X = np.random.default_rng(0).normal(size=(7, 5))
    vals = f.value(0.0, X)
    assert vals.shape == (7, 2)
    assert np.all(vals[:, 0] == 0.3)
    assert np.all(vals[:, 1] == -0.2)
    assert f.h_bound == pytest.approx(np.hypot(0.3, 0.2))
    assert np.all(divergence(f, 0.0, X) == 0.0)
    # fewer rows, then more again: each evaluation has exactly its own row count
    for n in (3, 9, 0, 7):
        rows, div = f.value_and_divergence(0.0, np.zeros((n, 5)))
        assert rows.shape == (n, 2) and div.shape == (n,)
        assert np.array_equal(rows, np.tile([0.3, -0.2], (n, 1)))


def test_constant_field_dstar_matches_gaussian_formula():
    # D*F = -div F - sum c_i beta_i = sum c_i lam_i x_i for a constant field
    m = measures.GibbsMeasure(3)
    slc = measures.psi_squared(m, 3)
    coeffs = np.array([0.1, -0.4, 0.25])
    f = constant_field(coeffs)
    X = np.random.default_rng(1).normal(scale=0.3, size=(50, 3))
    got = dstar(f, slc.beta, 0.0, X)
    want = (X * m.lam * coeffs).sum(axis=1)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_nemytskii_unit_reaction_components():
    """f = 1 gives component j equal to 2 sqrt(2) / (j pi)^3 for odd j, 0 for even."""
    gal = galerkin(NemytskiiField(reaction=one_reaction(), n_modes=4), 4)
    vals = gal.value(0.0, np.random.default_rng(2).normal(size=(5, 4)))
    # [DERIVED] mpmath: alpha_j^{-1} int_0^1 e_j
    assert np.all(np.abs(vals[:, 0] - 0.091221114805547177) < 1e-14)
    assert np.all(np.abs(vals[:, 2] - 0.0033785598076128584) < 1e-14)
    assert np.all(np.abs(vals[:, 1]) < 1e-15)
    assert np.all(np.abs(vals[:, 3]) < 1e-15)
    assert np.all(divergence(gal, 0.0, np.zeros((1, 4))) == 0.0)


@pytest.mark.parametrize(
    "level, spec",
    [
        # the catalog builds a Nemytskii field without a level as the whole field
        (4, {"name": "nemytskii:neg_arctan", "n_modes": 4}),
        (2, {"name": "nemytskii:neg_arctan", "n_modes": 4, "level": 2}),
    ],
    ids=["level4", "level2"],
)
def test_nemytskii_divergence_matches_finite_differences(level, spec):
    field = galerkin(arctan_field(4), level)
    X = np.random.default_rng(3).normal(scale=0.4, size=(30, 4))
    assert np.array_equal(catalog.build_field(spec).value(0.0, X), field.value(0.0, X))
    d = divergence(field, 0.0, X)
    assert np.all(d <= 0.0)  # f' = -1/(1+r^2) < 0 and the kernel is nonnegative
    eps = 2e-6
    d_fd = np.zeros(X.shape[0])
    for i in range(level):
        Xp = X.copy()
        Xp[:, i] += eps
        Xm = X.copy()
        Xm[:, i] -= eps
        d_fd += (field.value(0.0, Xp)[:, i] - field.value(0.0, Xm)[:, i]) / (2 * eps)
    assert np.max(np.abs(d - d_fd)) < 1e-9


def test_galerkin_matches_full_field_on_low_modes():
    """On states supported in the first `level` modes the projection changes nothing."""
    nem = arctan_field(4)
    gal = galerkin(nem, 2)
    assert gal.n_components == 2
    rng = np.random.default_rng(4)
    X = np.zeros((40, 4))
    X[:, :2] = rng.normal(scale=0.4, size=(40, 2))
    assert np.max(np.abs(gal.value(0.0, X) - galerkin(nem, 4).value(0.0, X)[:, :2])) < 1e-13


def test_galerkin_level_validation():
    nem = NemytskiiField(reaction=one_reaction(), n_modes=2)
    for level in (0, 3):
        with pytest.raises(ValueError):
            galerkin(nem, level)


def test_swirl_is_divergence_free():
    f = catalog.build_field({"name": "swirl", "s": 0.2})
    X = np.random.default_rng(6).normal(size=(40, 4))
    assert np.max(np.abs(divergence(f, 0.0, X))) < 1e-14


@pytest.mark.parametrize("field_spec", [{"name": "swirl", "s": 0.2}, {"name": "constant", "coeffs": [0.1, -0.2]}])
def test_product_rule_two_routes_agree(field_spec):
    # the catalog fields fill their rows in one evaluation; their per-component formulas stand in for them
    if field_spec["name"] == "constant":
        components = constant_components(field_spec["coeffs"])
    else:
        components = swirl_components(field_spec["s"])
    m = measures.GibbsMeasure(4)
    slc = measures.psi_squared(m, 4)
    phi = catalog.build_cylinder("rational_m12")
    X = np.random.default_rng(7).normal(scale=0.3, size=(80, 4))
    assert dstar_product_rule_check(components, phi, slc.beta, X) < 1e-12
    # the formula is the catalog field's one evaluation, bit for bit
    got_rows, got_div = catalog.build_field(field_spec).value_and_divergence(0.0, X)
    want_rows, want_div = component_rows(components, 0.0, X)
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_div, want_div)


def test_product_rule_on_gibbs_slice():
    m = measures.GibbsMeasure(4, alpha=1.0, p=4.0)
    slc = measures.psi_squared(m, 4)
    nem = arctan_field(4)
    phi = catalog.build_cylinder("gauss_m123")
    X = np.random.default_rng(8).normal(scale=0.3, size=(60, 4))
    assert dstar_product_rule_check(galerkin_components(nem, 2), phi, slc.beta, X) < 1e-12


def test_dstar_rows_is_dstar_under_each_oracle():
    m = measures.GibbsMeasure(2, alpha=1.0, p=4.0)
    slc = measures.psi_squared(m, 2)
    gal = galerkin(arctan_field(2), 1)
    oracles = (slc.beta, measures.ladder(slc, 8, 16).beta)
    X = np.random.default_rng(9).normal(scale=0.5, size=(30, 2))
    F, rows = dstar_rows(gal, oracles, 0.0, X)
    assert np.array_equal(F, gal.value(0.0, X))
    for beta, row in zip(oracles, rows):
        assert np.array_equal(row, -divergence(gal, 0.0, X) - (F * beta(X)[:, :1]).sum(axis=1))
        assert np.array_equal(row, dstar(gal, beta, 0.0, X))
    assert np.any(rows[0] != rows[1])


ROW_COUNTS = (1, 7, 256, 1000)
# a Galerkin evaluation folds the weights and 1/alpha_i into its projections,
# and a one-mode projection runs on LEVEL1_NODES nodes: against the written-out
# 128-node formula it moves by rounding (at most 8.4e-15 of the largest
# entry, measured on these states)
GALERKIN_RTOL = 2e-14


def _one_evaluation_cases():
    """(field, its per-component formula, exact) for Galerkin levels 1-3 and a
    constant field, on 3 modes; exact if the two must agree bit for bit."""
    nem = arctan_field(3)
    coeffs = [0.1, -0.4, 0.25]
    return [(galerkin(nem, level), galerkin_components(nem, level), False) for level in (1, 2, 3)] + [
        (constant_field(coeffs), constant_components(coeffs), True)
    ]


ONE_EVALUATION_IDS = ["galerkin1", "galerkin2", "galerkin3", "constant"]


def assert_formula(got, want, exact):
    """got is want: bit for bit if exact, else within GALERKIN_RTOL of want's largest entry."""
    if exact:
        assert np.array_equal(got, want)
    else:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= GALERKIN_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("case", _one_evaluation_cases(), ids=ONE_EVALUATION_IDS)
def test_one_evaluation_is_the_per_component_formula(case, rows):
    field, components, exact = case
    X = np.random.default_rng(rows).normal(scale=0.6, size=(rows, 3))
    want_rows, want_div = component_rows(components, 0.25, X)
    got_rows, got_div = field.value_and_divergence(0.25, X)
    assert_formula(got_rows, want_rows, exact)
    assert_formula(got_div, want_div, exact)
    assert np.array_equal(field.value(0.25, X), got_rows)
    assert np.array_equal(divergence(field, 0.25, X), got_div)
    if field.name == "constant":
        # the rows are one shared coefficient row, which no caller may write into
        with pytest.raises(ValueError, match="read-only"):
            got_rows[0, 0] = 1.0


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("case", _one_evaluation_cases(), ids=ONE_EVALUATION_IDS)
def test_dstar_rows_is_the_per_component_formula_under_two_oracles(case, rows):
    field, components, exact = case
    gauss = measures.GibbsMeasure(3)
    gibbs = measures.GibbsMeasure(3, alpha=1.0, p=4.0)
    oracles = tuple(measures.psi_squared(m, 3).beta for m in (gibbs, gauss))
    X = np.random.default_rng(rows + 1).normal(scale=0.6, size=(rows, 3))
    want_rows, want_div = component_rows(components, 0.0, X)
    F, got = dstar_rows(field, oracles, 0.0, X)
    assert_formula(F, want_rows, exact)
    k = want_rows.shape[1]
    for beta, row in zip(oracles, got):
        assert_formula(row, -want_div - (want_rows * beta(X)[:, :k]).sum(axis=1), exact)
    assert np.any(got[0] != got[1])


# |x_1| bound -> largest relative miss of the one-mode projection's components
# (entrywise) and div F (of its largest value) against the written-out
# 128-node formula, measured for both catalog reactions: 8.4e-15 and 8.3e-15
# to 5, 1.2e-13 and 2.7e-13 to 10, 3.1e-11 and 6.8e-11 to 20 (cubic_sat; a
# 512-node formula gives the same misses, so they are the 64-node rule's)
LEVEL1_BOUNDS = {5.0: 2e-14, 10.0: 5e-13, 20.0: 1e-10}


@pytest.mark.parametrize("reaction", ["neg_arctan", "cubic_sat"])
@pytest.mark.parametrize("radius", sorted(LEVEL1_BOUNDS))
def test_one_mode_projection_on_its_grid_is_the_128_node_formula(reaction, radius):
    nem = NemytskiiField(reaction=catalog.SCALAR_REACTIONS[reaction].build(), n_modes=2)
    field = galerkin(nem, 1)
    x = np.linspace(-radius, radius, 4001)
    X = np.stack([x, np.full_like(x, 0.3)], axis=-1)
    want_rows, want_div = component_rows(galerkin_components(nem, 1, Grid.gauss_legendre(128)), 0.0, X)
    got_rows, got_div = field.value_and_divergence(0.0, X)
    nonzero = x != 0.0
    assert np.max(np.abs(got_rows - want_rows)[nonzero] / np.abs(want_rows)[nonzero]) <= LEVEL1_BOUNDS[radius]
    assert np.max(np.abs(got_div - want_div)) <= LEVEL1_BOUNDS[radius] * np.max(np.abs(want_div))


@pytest.mark.parametrize("rows", ROW_COUNTS + (8448,))
def test_rank_one_synthesis_broadcast_is_the_blas_product(rows):
    E = basis_matrix(1, Grid.gauss_legendre(fields.LEVEL1_NODES))
    X = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 2))
    assert np.array_equal(X[:, :1] * E[0], X[:, :1] @ E)


def test_claims_probe_bounded_and_stable():
    nem = arctan_field(4)
    m = measures.GibbsMeasure(4, alpha=1.0, p=4.0)
    rep = claims_probe(nem, m, eps=0.1, count=4000, seed=11)
    assert rep.stable
    # -div part is at most sup|f'| * sum 1/alpha_i = 0.14424...
    assert 0.0 <= rep.c_div <= 0.1443
    # r arctan(r) >= 0 makes the beta part nonnegative here
    assert rep.c_beta == 0.0
    assert rep.count == 4000


def test_claims_probe_rejects_nonpositive_eps():
    nem = arctan_field(2)
    m = measures.GibbsMeasure(2)
    with pytest.raises(ValueError):
        claims_probe(nem, m, eps=0.0, count=100, seed=0)


def test_delta_recipe_positive_and_needs_finite_bounds():
    m = measures.GibbsMeasure(1)
    d = delta_recipe(constant_field([0.1]), m)
    assert 0.0 < d < 1.0
    unbounded = linear_field(np.diag([-1.0]))
    with pytest.raises(fields.UnboundedFieldError):
        delta_recipe(unbounded, m)


def test_cf_delta_constant_field_approaches_closed_form():
    """Clipping only removes positive mass, so estimates sit below the exact value."""
    m = measures.GibbsMeasure(1)
    dis = measures.psi_squared(m, 1)
    rep = cf_delta(constant_field([0.1]), dis, delta=0.05, T=1.0)
    # [DERIVED] mpmath: T (e^{s^2/2lam} Phi(s/sqrt(lam)) - 1/2), s = delta lam c
    exact = 0.0089871124597119349
    assert rep.estimate <= exact + 1e-12
    assert rep.estimate > 0.85 * exact
    for l in (2, 4, 8, 16):
        assert rep.per_pair[(1, l)] == 0.0
    assert rep.max_at_grid_edge
    assert max(rep.per_pair, key=rep.per_pair.get) == (8, 16)
    assert rep.tail_count == 1


def test_cf_delta_time_flag_only_changes_quadrature():
    m = measures.GibbsMeasure(1)
    dis = measures.psi_squared(m, 1)
    f = constant_field([0.1])
    flagged = dataclasses.replace(f, time_dependent=True)
    a = cf_delta(f, dis, delta=0.05, T=0.8)
    b = cf_delta(flagged, dis, delta=0.05, T=0.8)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)


def test_cf_delta_rejects_bad_delta_and_flags_overflow():
    m = measures.GibbsMeasure(1)
    dis = measures.psi_squared(m, 1)
    f = constant_field([0.1])
    with pytest.raises(ValueError):
        cf_delta(f, dis, delta=0.0, T=1.0)
    with pytest.raises(DeltaTooLargeError) as exc:
        cf_delta(f, dis, delta=1000.0, T=1.0)
    assert exc.value.suggested_delta is not None
    assert 0.0 < exc.value.suggested_delta < 1.0
