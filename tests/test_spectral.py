import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.spectral import (
    NODE_LADDER,
    Grid,
    InvalidDataError,
    InvalidIndexError,
    basis_matrix,
    eigenvalue,
    fewest_nodes,
    probe_states,
    radius_class,
    simpson_weights,
    synthesize,
)


def test_grid_weights_sum_to_one():
    for g in (Grid.gauss_legendre(64), Grid.gauss_legendre(513), Grid.midpoint(100)):
        assert abs(g.weights.sum() - 1.0) < 1e-12
        assert g.nodes.min() > 0 and g.nodes.max() < 1


def test_grid_rejects_bad_weights():
    with pytest.raises(InvalidDataError):
        Grid(nodes=np.array([0.25, 0.75]), weights=np.array([0.5, -0.5]))
    with pytest.raises(InvalidDataError):
        Grid(nodes=np.array([0.25, 0.75]), weights=np.array([0.5, 0.6]))
    with pytest.raises(InvalidDataError):
        Grid(nodes=np.array([[0.5]]), weights=np.array([1.0]))


def test_eigenvalue_formula():
    assert eigenvalue(1) == pytest.approx(np.pi ** 2, rel=1e-15)
    assert eigenvalue(3) == pytest.approx(9 * np.pi ** 2, rel=1e-15)
    with pytest.raises(InvalidIndexError):
        eigenvalue(0)


def test_orthonormality():
    g = Grid.gauss_legendre(512)
    E = basis_matrix(12, g)
    gram = (E * g.weights) @ E.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_eigenfunction_second_derivative():
    # -e_j'' = alpha_j e_j, checked with central differences on an interior point
    g = Grid.midpoint(2001)
    vals, alpha = basis_matrix(3, g)[2], float(eigenvalue(3))
    h = g.nodes[1] - g.nodes[0]
    i = 700
    second = (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / h ** 2
    assert -second == pytest.approx(alpha * vals[i], rel=1e-5)


def test_lp_norm_of_first_mode():
    g = Grid.gauss_legendre(512)
    e1 = basis_matrix(1, g)[0]
    # oracle: (3/2)^(1/4), tests/oracles/compute_oracles.py
    assert (e1 ** 4 @ g.weights) ** 0.25 == pytest.approx(1.1066819197003216, abs=1e-12)


def test_projection_of_parabola():
    g = Grid.gauss_legendre(512)
    vals = g.nodes * (1 - g.nodes)
    coeffs = (vals * g.weights) @ basis_matrix(8, g).T
    # oracle coefficients 4 sqrt(2)/(j pi)^3 for odd j, 0 for even j
    # (tests/oracles/compute_oracles.py)
    assert coeffs[0] == pytest.approx(0.18244222961109435, abs=1e-14)
    assert coeffs[2] == pytest.approx(0.0067571196152257168, abs=1e-14)
    assert coeffs[4] == pytest.approx(0.0014595378368887548, abs=1e-14)
    assert coeffs[6] == pytest.approx(0.00053190154405566867, abs=1e-14)
    assert np.max(np.abs(coeffs[1::2])) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
def test_project_synthesize_roundtrip(n_modes, seed):
    g = Grid.gauss_legendre(256)
    coeffs = np.random.default_rng(seed).normal(size=n_modes)
    back = (synthesize(coeffs, g) * g.weights) @ basis_matrix(n_modes, g).T
    assert np.max(np.abs(back - coeffs)) < 1e-10


def test_parseval():
    g = Grid.gauss_legendre(512)
    coeffs = np.random.default_rng(0).normal(size=(5, 10))
    vals = synthesize(coeffs, g)
    energies = (vals ** 2) @ g.weights
    assert np.allclose(energies, (coeffs ** 2).sum(axis=1), atol=1e-12)


def test_basis_matrix_batched_synthesis():
    g = Grid.gauss_legendre(128)
    coeffs = np.random.default_rng(1).normal(size=(7, 3))
    vals = synthesize(coeffs, g)
    assert vals.shape == (7, 128)
    one = synthesize(coeffs[4], g)
    assert np.allclose(vals[4], one, rtol=1e-13, atol=1e-15)


def test_basis_matrix_is_the_basis_of_the_grid_it_is_given():
    # a grid with the rule tag and node count of one built before it
    first = Grid.gauss_legendre(2)
    basis_matrix(1, first)
    grid = Grid(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    assert grid.rule == first.rule and grid.n_nodes == first.n_nodes
    E = basis_matrix(1, grid)
    assert np.array_equal(E, np.sqrt(2.0) * np.sin(np.outer([1], np.pi * grid.nodes)))
    assert np.allclose(E, [[1.0, 1.0]], rtol=1e-15, atol=0.0)
    assert np.allclose(synthesize(np.array([1.0]), grid), [1.0, 1.0], rtol=1e-15, atol=0.0)
    # kept with the grid, read-only
    assert basis_matrix(1, grid) is E and not E.flags.writeable


def test_simpson_weights_integrate_cubics_exactly():
    n = 6
    x = np.linspace(0.0, 1.5, n + 1)
    assert list(simpson_weights(n)) == [1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]
    assert (1.5 / n / 3.0) * (simpson_weights(n) @ (x ** 3 - x)) == pytest.approx(1.5 ** 4 / 4 - 1.5 ** 2 / 2, rel=1e-14)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            simpson_weights(bad)


def test_radius_classes_are_powers_of_two_closed_above():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.0000001, 4.0, 7.9, 8.0, 8.1, 32.0])
    assert radius_class(r ** 2).tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5]


def test_probe_states_have_the_radius_and_fixed_directions():
    assert probe_states(1, 4.0).tolist() == [[4.0], [-4.0]]
    for dim in (2, 3):
        X = probe_states(dim, 2.0)
        assert np.allclose(np.linalg.norm(X, axis=1), 2.0, rtol=1e-15)
        assert np.array_equal(X, 2.0 * probe_states(dim, 1.0))


def test_fewest_nodes_picks_the_first_rung_that_agrees_two_steps_up():
    def polynomial(grid, X):
        # int_0^1 xi^3 x dxi, which 8 nodes integrate exactly
        return [X[:, 0] * ((grid.nodes ** 3) @ grid.weights)]

    assert fewest_nodes(polynomial, 1, 1.0) == NODE_LADDER[0]
    asked = []

    def needs(n):
        # agrees with every finer rung from n nodes on, and differs below it
        def values(grid, X):
            asked.append(grid.n_nodes)
            return [np.full(len(X), 1.0 if grid.n_nodes >= n else 1.0 + 1.0 / grid.n_nodes)]
        return values

    assert fewest_nodes(needs(96), 2, 3.0) == 96
    assert max(asked) == 192  # never a rung beyond the one two steps up
    assert fewest_nodes(needs(2048), 1, 1.0) == NODE_LADDER[-2]  # the cap
