"""Drift fields on the truncated space and their adjoint-divergence operators.

A drift field is a CylindricalField: finitely many components, each a smooth
function of the first few coordinates, all of them, and div F with them, from
one evaluation. The field is that evaluation, the component bounds, whether
it depends on time, and a name; div F always comes from the evaluation
itself (analytic in every field the catalog builds). A NemytskiiField (a
bounded scalar reaction composed pointwise, then smoothed by (-A)^{-1})
holds only its data; it is always evaluated as its Galerkin projection
galerkin(nem, level), which at level n_modes is the whole field on the
n_modes-mode space, on a Gauss-Legendre grid sized by each row's radius.
The operators divergence and dstar implement div F and
D*F = -div F - sum_i f_i beta_{e_i}, where beta is a reference's
log-gradient: a slice's (exact) or a ladder density's; dstar_rows evaluates
D*F under several betas at once, together with the field rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .rng import as_rng
from .spectral import Grid, basis_matrix, eigenvalue, fewest_nodes, radius_class

try:
    from numpy import trapezoid as _trapezoid
except ImportError:  # older numpy
    from numpy import trapz as _trapezoid


class UnboundedFieldError(ValueError):
    """A field component declares no finite bound."""


class DeltaTooLargeError(OverflowError):
    def __init__(self, msg, suggested_delta):
        super().__init__(msg)
        self.suggested_delta = suggested_delta


@dataclass(frozen=True)
class CylindricalField:
    """F(t,x) = sum_{i<=k} f_i(t, x_1..x_k) e_i with k = len(bounds).

    One call of evaluate(t, X, div) gives every component: the rows f_i(t, X)
    as one (npts, k) array and, when div is true, div F = sum_i df_i/dx_i from
    the same evaluation (else None). bounds are the declared sup |f_i|.
    """

    evaluate: object
    bounds: tuple
    time_dependent: bool = False
    name: str = ""

    @property
    def n_components(self):
        return len(self.bounds)

    @property
    def h_bound(self):
        """Declared sup of |F(t,x)|_H from the per-component bounds."""
        return float(np.sqrt(sum(b ** 2 for b in self.bounds)))

    def value(self, t, X):
        """Component rows (npts, n_components): f_i(t, x_1..x_k)."""
        return self.evaluate(t, np.atleast_2d(np.asarray(X, dtype=float)), False)[0]

    def value_and_divergence(self, t, X):
        """The component rows and div F, from one evaluation."""
        return self.evaluate(t, np.atleast_2d(np.asarray(X, dtype=float)), True)


def constant_field(coeffs):
    """The field of fixed coefficients on the first k modes; a number is one
    coefficient.

    Its rows are the leading rows of one read-only tiled block, tiled afresh
    only for more rows than it has, so an evaluation copies nothing. A
    broadcast of the coefficient row would copy nothing either, but every
    RK4 stage reads the rows, and numpy reads a stride-0 operand more slowly
    than a contiguous one.
    """
    coeffs = np.array(coeffs, dtype=float, ndmin=1)
    tiled = np.empty((0, coeffs.size))

    def evaluate(t, X, div):
        nonlocal tiled
        n, block = X.shape[0], tiled  # a local block: another thread may retile meanwhile
        if block.shape[0] < n:
            block = np.tile(coeffs, (n, 1))
            block.setflags(write=False)
            tiled = block
        return block[:n], (np.zeros(n) if div else None)

    return CylindricalField(evaluate, tuple(abs(float(c)) for c in coeffs), name="constant")


@dataclass(frozen=True)
class Reaction:
    """Bounded autonomous scalar reaction r -> fn(r), C1, with derivative deriv(r)."""

    fn: object
    deriv: object
    bound: float
    name: str = ""


@dataclass(frozen=True)
class NemytskiiField:
    """The data of F(x) = (-A)^{-1} applied to the pointwise reaction
    f(x(xi)) on n_modes modes; galerkin evaluates it."""

    reaction: Reaction
    n_modes: int


def _operators(level, grid):
    """(E, projection, div weights) of a level-`level` projection on grid: the
    basis rows, the weights and 1/alpha_i folded into one (nodes, level)
    matrix, and the div F weights w sum_i e_i^2 / alpha_i.

    At level 1 both integrands are symmetric about xi = 1/2, as e_1 is, so the
    grid (of an even node count, as every ladder rung is) keeps the nodes
    below 1/2 with doubled weights: half the reaction calls for the same sums.
    """
    if level == 1:
        half = grid.n_nodes // 2
        grid = Grid(grid.nodes[:half], 2.0 * grid.weights[:half], rule=f"{grid.rule}-folded")
    E = basis_matrix(level, grid)
    inv_alpha = 1.0 / eigenvalue(np.arange(1, level + 1))
    return E, (E * grid.weights).T * inv_alpha, grid.weights * (inv_alpha @ E ** 2)


def _project(reaction, operators, X, div):
    """The component rows of the projection of reaction on the first
    E.shape[0] coordinates of X, and div F if div (else None).

    Every operation is one numpy loop with a fixed order per row: the grid
    values are accumulated one coordinate at a time, and the einsum products
    sum each row's nodes in order. A BLAS product picks its kernel by the row
    count, and its rows round differently for 1, 2 or 100 rows; here a row's
    value never depends on the rows evaluated with it.
    """
    E, proj, div_weights = operators
    U = X[:, :1] * E[0]
    for i in range(1, E.shape[0]):
        U += X[:, i:i + 1] * E[i]
    rows = np.einsum("rj,ji->ri", reaction.fn(U), proj)
    return rows, (np.einsum("rj,j->r", reaction.deriv(U), div_weights) if div else None)


def galerkin_nodes(reaction, level, radius):
    """The Gauss-Legendre nodes spectral.fewest_nodes picks for the
    level-`level` projection of reaction at state radius `radius`, judged on
    its components and div F."""
    return fewest_nodes(lambda grid, X: _project(reaction, _operators(level, grid), X, True), level, radius)


def galerkin(nem, level):
    """Project a NemytskiiField to its first `level` modes on both sides, the
    one evaluation of a Nemytskii field; level n_modes is the whole field.

    Component i (i <= level) is alpha_i^{-1} int e_i f((P_level x)(xi)) dxi,
    a smooth cylinder in the first `level` coordinates, and div F is
    int f'(P_level x) sum_i e_i^2 / alpha_i dxi. A row x is integrated on the
    grid of its radius class (spectral.radius_class of |P_level x|^2), with
    galerkin_nodes(reaction, level, 2^class) nodes; each class's operators
    are built on its first evaluation. A batch whose entries all satisfy
    |x_i|^2 level < 1 is all in class 0 and makes one evaluation; any other
    batch is split by class and scattered back, so a row's value depends only
    on the row.
    """
    if not 1 <= level <= nem.n_modes:
        raise ValueError(f"galerkin level {level} is not in 1..n_modes={nem.n_modes}")
    reaction = nem.reaction
    inv_alpha = 1.0 / eigenvalue(np.arange(1, level + 1))
    # |f_i| <= bound * int |e_i| / alpha_i; int_0^1 |sqrt2 sin(i pi xi)| = 2 sqrt2 / pi
    comp_bounds = reaction.bound * (2.0 * math.sqrt(2.0) / math.pi) * inv_alpha
    by_class = {}
    # below this, |x|^2 <= level max_i x_i^2 stays below 1 after rounding
    class0_top = (1.0 - 1e-9) / level

    def operators(k):
        ops = by_class.get(k)
        if ops is None:
            ops = by_class[k] = _operators(level, Grid.gauss_legendre(galerkin_nodes(reaction, level, 2.0 ** k)))
        return ops

    def evaluate(t, X, div):
        X = X[:, :level]
        top = np.abs(X).max(initial=0.0)
        if top * top <= class0_top:
            return _project(reaction, operators(0), X, div)
        classes = radius_class(np.einsum("ri,ri->r", X, X))
        rows, d = np.empty((X.shape[0], level)), (np.empty(X.shape[0]) if div else None)
        for k in np.unique(classes):
            at = np.flatnonzero(classes == k)
            rows[at], d_k = _project(reaction, operators(int(k)), X[at], div)
            if div:
                d[at] = d_k
        return rows, d

    return CylindricalField(evaluate, tuple(float(b) for b in comp_bounds), name=f"{reaction.name}_galerkin{level}")


def divergence(field, t, X):
    """div F = sum_i d f_i / d x_i, from the field's one evaluation."""
    return field.value_and_divergence(t, X)[1]


def dstar(field, beta, t, X):
    """D*F(x) = -div F(t,x) - sum_i f_i(t,x) beta_{e_i}(x).

    beta maps (npts, N) points to (npts, >= n_components) rows of the
    log-gradient: a reference's beta, SliceDensity.beta for the exact
    operator or LadderDensity.beta for the clipped/mollified variant.
    """
    return dstar_rows(field, (beta,), t, X)[1][0]


def dstar_rows(field, betas, t, X):
    """The field rows F(t, X) and D*F(t, X) under each log-gradient in betas,
    with F and div F from one evaluation of the field for all of them; dstar
    is the one-beta case."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    vals, div = field.value_and_divergence(t, X)
    k = vals.shape[1]
    neg_div = -div
    return vals, [neg_div - (vals * np.asarray(beta(X), dtype=float)[:, :k]).sum(axis=1) for beta in betas]


# ---------------------------------------------------------------------------
# probes for the standing hypotheses


@dataclass(frozen=True)
class ClaimsReport:
    c_div: float
    c_beta: float
    c_div_half: float
    c_beta_half: float

    @property
    def stable(self):
        def ok(full, half):
            scale = max(abs(full), 1e-12)
            return abs(full - half) <= 0.10 * scale + 1e-12

        return ok(self.c_div, self.c_div_half) and ok(self.c_beta, self.c_beta_half)


def claims_probe(nem, measure, eps, count, seed):
    """Checks the standing hypothesis that D*F is bounded below: the smallest
    constants C with div-part and beta-part >= -C - eps*penalty.

    penalty(x) = |x|_2^2 + alpha |x|_p^p; samples drawn from the measure.
    Records full-sample and half-sample constants so stability under sample
    doubling is observable. The field is galerkin(nem, nem.n_modes).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    X = measures.sample_gibbs(measure, count, seed)
    f_comps, div_part = galerkin(nem, nem.n_modes).value_and_divergence(0.0, X)
    beta_part = (f_comps * measures.beta_components(measure, X)[:, :nem.n_modes]).sum(axis=1)

    penalty = (X ** 2).sum(axis=1)
    if measure.alpha > 0:
        penalty = penalty + measure.p * measures._coupling(measure, X)[0]

    def smallest_c(vals, pen):
        return float(max(0.0, np.max(-vals - eps * pen)))

    half = count // 2
    return ClaimsReport(
        c_div=smallest_c(div_part, penalty),
        c_beta=smallest_c(beta_part, penalty),
        c_div_half=smallest_c(div_part[:half], penalty[:half]),
        c_beta_half=smallest_c(beta_part[:half], penalty[:half]),
    )


# ---------------------------------------------------------------------------
# the exponential cost functional C_F(delta)


def delta_recipe(field, measure, count=2000):
    """delta = min_i c_i / (N (||f_i||_inf + 1)) over the active components."""
    k = field.n_components
    bounds = np.array(field.bounds)
    if not np.all(np.isfinite(bounds)):
        raise UnboundedFieldError("delta recipe needs finite declared component bounds")
    c = measures.integrability_constants(measure, count=count, seed=0)
    return float(np.min(c[:k] / (k * (bounds + 1.0))))


@dataclass(frozen=True)
class CfDeltaReport:
    estimate: float
    per_pair: dict
    delta: float
    domain_radius: float
    tail_count: int
    max_at_grid_edge: bool


ML_GRID = ((1, 2, 4, 8), (2, 4, 8, 16))


def cf_delta(
    field,
    slice_density,
    delta,
    T,
    tail_samples=1,
    seed=0,
    domain_radius=None,
    n_per_axis=96,
    ladder_kwargs=None,
):
    """Estimate C_F(delta): the exponential cost of the positive part of D*F.

    For each tail y, sampled from the slice's measure and bound by
    slice_density.bind(y), the inner quantity is the maximum over the
    ML_GRID pairs (M,l) of
    int_0^T int (e^{delta (D*_{M,l} F)^+} - 1) Psi^2_{M,l} dx dt over the box
    of the given radius; results are averaged over tails. Time-dependent
    fields take the trapezoid rule on 9 time nodes; autonomous fields
    collapse the time integral to a single factor of T.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    N = slice_density.N
    m = slice_density.measure
    n_tail = m.n_modes - N
    if n_tail > 0 and tail_samples > 0:
        tails = measures.sample_gibbs(m, tail_samples, as_rng(seed, "fields", "cf-tails"))[:, N:]
    else:
        tails = np.zeros((1, n_tail))

    if domain_radius is None:
        domain_radius = float(6.0 / math.sqrt(np.min(m.lam[:N])) + 1.0)
    X, w = measures.tensor_grid(N, domain_radius, n_per_axis)
    t_nodes = np.linspace(0.0, T, 9)
    time_dep = field.time_dependent

    per_pair = {}
    tail_estimates = []
    for y in tails:
        slc = slice_density.bind(y)
        best = -np.inf
        for M in ML_GRID[0]:
            for l in ML_GRID[1]:
                lad = measures.ladder(slc, M, l, **(ladder_kwargs or {}))
                vals, lg = lad.value_and_log_gradient(X)

                def space_integral(t):
                    ds = dstar(field, lambda _: lg, t, X)
                    pos = np.clip(ds, 0.0, None)
                    if delta * pos.max() > 700.0:
                        try:
                            suggested = delta_recipe(field, m)
                        except UnboundedFieldError:
                            suggested = None
                        raise DeltaTooLargeError(
                            f"delta={delta} overflows exp at (M,l)=({M},{l}); suggested delta={suggested}",
                            suggested_delta=suggested,
                        )
                    return float(w @ ((np.exp(delta * pos) - 1.0) * vals))

                if time_dep:
                    vals_t = np.array([space_integral(t) for t in t_nodes])
                    est = float(_trapezoid(vals_t, t_nodes))
                else:
                    est = T * space_integral(0.0)
                key = (M, l)
                per_pair[key] = per_pair.get(key, 0.0) + est / len(tails)
                best = max(best, est)
        tail_estimates.append(best)

    grid_best = max(per_pair, key=per_pair.get)
    edge = grid_best[0] == ML_GRID[0][-1] or grid_best[1] == ML_GRID[1][-1]
    return CfDeltaReport(
        estimate=float(np.mean(tail_estimates)),
        per_pair=per_pair,
        delta=float(delta),
        domain_radius=float(domain_radius),
        tail_count=len(tails),
        max_at_grid_edge=bool(edge),
    )
