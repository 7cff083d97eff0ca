"""Registered building blocks: measures, fields, reactions, densities,
cylinders, test functions, observables, and the standard problem set.

Each section is one registry: a dict from a name to its Entry, which holds
the label and one-line mathematical description that `list-catalog` prints,
and the builder. Builders take plain dicts (parsed config blocks) and return
the corresponding domain objects.
"""

import math
from typing import NamedTuple

import numpy as np

from . import fields as fields_mod
from . import measures, transport, verify
from .cylinders import Cylinder


class ConfigError(ValueError):
    """Invalid config content; `path` is the offending field's path in the config."""

    def __init__(self, path, msg):
        super().__init__(f"{path}: {msg}")
        self.path, self.msg = path, msg


class Entry(NamedTuple):
    label: str  # the name, with every key its builder reads in parentheses
    description: str
    build: object

    @property
    def keys(self):
        return tuple(key for key in self.label.partition("(")[2].rstrip(")").split(",") if key)


def spec_block(spec):
    """spec, checked to be a parsed JSON object; anything else raises a
    TypeError, which the config readers report under the block's path."""
    if not isinstance(spec, dict):
        raise TypeError(f"must be a JSON object, got {spec!r}")
    return spec


def known_keys(spec, accepted):
    """spec, checked to hold no key outside accepted; an unknown key raises a
    ConfigError at that key, listing the accepted ones."""
    for key in spec:
        if key not in accepted:
            raise ConfigError(key, f"unknown key; accepted: {', '.join(accepted) or 'none'}")
    return spec


def _registry(*entries):
    return {e.label.split("(")[0]: e for e in entries}


def _lookup(registry, section, name):
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {section} {name!r}") from None


def _entry(registry, section, spec, default, *common):
    """The entry of the block spec, named by its "name" key or default; the
    block holds no key but "name", the keys common to the section and the
    keys the entry reads."""
    entry = _lookup(registry, section, spec_block(spec).get("name", default))
    known_keys(spec, tuple(dict.fromkeys(("name", *common, *entry.keys))))
    return entry


# ---------------------------------------------------------------------------
# measures


def _gibbs(spec, n_modes):
    return measures.GibbsMeasure(n_modes, alpha=float(spec.get("alpha", 1.0)), p=float(spec.get("p", 4.0)))


MEASURES = _registry(
    Entry(
        "gaussian(n_modes)",
        "product Gaussian, mode-j precision 2 pi^2 j^2",
        lambda spec, n_modes: measures.GibbsMeasure(n_modes),
    ),
    Entry("gibbs(alpha,p)", "Gaussian reweighted by exp(-(alpha/p) int |x(xi)|^p dxi)/Z, p > 2", _gibbs),
)


def build_measure(spec):
    entry = _entry(MEASURES, "measure", spec, "gaussian", "n_modes")
    return entry.build(spec, int(spec.get("n_modes", 1)))


# ---------------------------------------------------------------------------
# scalar reactions for Nemytskii fields


def _neg_arctan():
    return fields_mod.Reaction(
        fn=lambda t, r: -np.arctan(r),
        deriv=lambda t, r: -1.0 / (1.0 + r ** 2),
        bound=math.pi / 2.0,
        name="neg_arctan",
    )


def _cubic_sat():
    def fn(t, r):
        s = r / np.sqrt(1.0 + r ** 2)
        return -(s ** 3)

    def deriv(t, r):
        s2 = r ** 2 / (1.0 + r ** 2)
        return -3.0 * s2 / (1.0 + r ** 2) ** 1.5

    return fields_mod.Reaction(fn=fn, deriv=deriv, bound=1.0, name="cubic_sat")


SCALAR_REACTIONS = _registry(
    Entry("neg_arctan", "f(r) = -arctan(r); |f| <= pi/2", _neg_arctan),
    Entry("cubic_sat", "f(r) = -(r/sqrt(1+r^2))^3; |f| <= 1", _cubic_sat),
)


# ---------------------------------------------------------------------------
# SPDE reactions (ascending coefficients)


def _odd_reaction(name, degree):
    """p(r) = -r^degree + c1 r; c1 > 0 would make p increasing near 0."""

    def build(spec):
        c1 = float(spec.get("c1", -1.0))
        if c1 > 0:
            raise ValueError(f"{name} reaction needs c1 <= 0, got {c1}")
        return (0.0, c1) + (0.0,) * (degree - 2) + (-1.0,)

    return build


REACTIONS = _registry(
    Entry("ou", "p = 0: pure Ornstein-Uhlenbeck linear dynamics", lambda spec: ()),
    Entry("cubic(c1)", "p(r) = -r^3 + c1 r with c1 <= 0 (decreasing, odd degree 3)", _odd_reaction("cubic", 3)),
    Entry("quintic(c1)", "p(r) = -r^5 + c1 r with c1 <= 0 (decreasing, odd degree 5)", _odd_reaction("quintic", 5)),
)


def polynomial_reaction(spec):
    """SPDE reaction coefficients (ascending powers)."""
    spec = spec or {}
    return _entry(REACTIONS, "reaction", spec, "ou").build(spec)


# ---------------------------------------------------------------------------
# drift fields


def _swirl(spec, n_modes):
    s = float(spec.get("s", 0.2))
    c1 = fields_mod.FieldComponent(
        value_fn=lambda t, X: s * np.tanh(X[:, 1]),
        grad_fn=lambda t, X: np.stack([np.zeros(X.shape[0]), s / np.cosh(X[:, 1]) ** 2], axis=-1),
        bound=abs(s),
        name="swirl_1",
    )
    c2 = fields_mod.FieldComponent(
        value_fn=lambda t, X: -s * np.tanh(X[:, 0]),
        grad_fn=lambda t, X: np.stack([-s / np.cosh(X[:, 0]) ** 2, np.zeros(X.shape[0])], axis=-1),
        bound=abs(s),
        name="swirl_2",
    )
    return fields_mod.component_field((c1, c2), smoothness=2, name="swirl")


def _nemytskii(reaction):
    def build(spec, n_modes):
        nm = int(spec.get("n_modes", n_modes or 1))
        nem = fields_mod.NemytskiiField(reaction=reaction(), n_modes=nm)
        return fields_mod.galerkin(nem, int(spec.get("level", nm)))

    return build


FIELDS = _registry(
    Entry(
        "constant(coeffs)",
        "fixed coefficient vector on the first k modes",
        lambda spec, n_modes: fields_mod.constant_field(np.asarray(spec.get("coeffs", [0.1]), dtype=float)),
    ),
    Entry(
        "zero(k)",
        "zero drift in k components",
        lambda spec, n_modes: fields_mod.constant_field(np.zeros(int(spec.get("k", 1)))),
    ),
    Entry("swirl(s)", "divergence-free bounded rotation (s tanh(x2), -s tanh(x1))", _swirl),
    *(
        Entry(f"nemytskii:{name}(n_modes,level)", f"(-A)^{{-1}} composed with {r.description}", _nemytskii(r.build))
        for name, r in SCALAR_REACTIONS.items()
    ),
)


def build_field(spec, n_modes=None):
    return _entry(FIELDS, "field", spec, "constant").build(spec, n_modes)


# ---------------------------------------------------------------------------
# initial densities


DENSITIES = _registry(
    Entry(
        "bump(centers,radii,height)",
        "product of C2 bumps h prod (1-((x_i-c_i)/r_i)^2)_+^3",
        lambda spec: transport.bump_density(
            centers=np.asarray(spec.get("centers", [0.0]), dtype=float),
            radii=np.asarray(spec.get("radii", [0.5]), dtype=float),
            height=float(spec.get("height", 1.0)),
        ),
    ),
)


def build_density(spec):
    return _entry(DENSITIES, "density", spec, "bump").build(spec)


# ---------------------------------------------------------------------------
# bounded C1 cylinders (IBP integrands, spatial test factors, observables)


def _cyl_cos_m1():
    return Cylinder(
        n_active=1,
        value_fn=lambda X: np.cos(X[:, 0]),
        grad_fn=lambda X: -np.sin(X[:, 0:1]),
        name="cos_m1",
        bound=1.0,
    )


def _cyl_sin_m12():
    return Cylinder(
        n_active=2,
        value_fn=lambda X: np.sin(X[:, 0] + 2.0 * X[:, 1]),
        grad_fn=lambda X: np.stack(
            [np.cos(X[:, 0] + 2.0 * X[:, 1]), 2.0 * np.cos(X[:, 0] + 2.0 * X[:, 1])], axis=-1
        ),
        name="sin_m12",
        bound=1.0,
    )


def _cyl_gauss_m123():
    def value(X):
        return np.exp(-(X[:, :3] ** 2).sum(axis=1))

    def grad(X):
        return -2.0 * X[:, :3] * value(X)[:, None]

    return Cylinder(n_active=3, value_fn=value, grad_fn=grad, name="gauss_m123", bound=1.0)


def _cyl_tanh_m1():
    return Cylinder(
        n_active=1,
        value_fn=lambda X: np.tanh(X[:, 0]),
        grad_fn=lambda X: 1.0 / np.cosh(X[:, 0:1]) ** 2,
        name="tanh_m1",
        bound=1.0,
    )


def _cyl_rational_m12():
    def value(X):
        return 1.0 / (1.0 + X[:, 0] ** 2 + X[:, 1] ** 2)

    def grad(X):
        return -2.0 * X[:, :2] * value(X)[:, None] ** 2

    return Cylinder(n_active=2, value_fn=value, grad_fn=grad, name="rational_m12", bound=1.0)


def _cyl_cos_sin_m13():
    def value(X):
        return np.cos(X[:, 0]) * np.sin(X[:, 2])

    def grad(X):
        g = np.zeros((X.shape[0], 3))
        g[:, 0] = -np.sin(X[:, 0]) * np.sin(X[:, 2])
        g[:, 2] = np.cos(X[:, 0]) * np.cos(X[:, 2])
        return g

    return Cylinder(n_active=3, value_fn=value, grad_fn=grad, name="cos_sin_m13", bound=1.0)


def _soft_scale(c):
    """Raise a ConfigError at c unless c > 0: otherwise c tanh(./c) is no
    bounded readout (at 0 it is identically 0, so every commutator reads 0)."""
    if not c > 0:
        raise ConfigError("c", f"must be > 0, got {c!r}")


def _mode1_soft(c=1.0):
    _soft_scale(c)
    return Cylinder(
        n_active=1,
        value_fn=lambda X: c * np.tanh(X[:, 0] / c),
        grad_fn=lambda X: 1.0 / np.cosh(X[:, 0:1] / c) ** 2,
        name=f"mode1_soft({c:g})",
        bound=c,
    )


def _energy_soft(k=4, c=1.0):
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigError("k", f"must be an integer >= 1, got {k!r}")
    _soft_scale(c)

    def value(X):
        return c * np.tanh((X[:, :k] ** 2).sum(axis=1) / c)

    def grad(X):
        s = (X[:, :k] ** 2).sum(axis=1)
        return (2.0 * X[:, :k]) / np.cosh(s / c)[:, None] ** 2

    return Cylinder(n_active=k, value_fn=value, grad_fn=grad, name=f"energy_soft({k},{c:g})", bound=c)


CYLINDERS = _registry(
    Entry("cos_m1", "cos(x1)", _cyl_cos_m1),
    Entry("sin_m12", "sin(x1 + 2 x2)", _cyl_sin_m12),
    Entry("gauss_m123", "exp(-(x1^2+x2^2+x3^2))", _cyl_gauss_m123),
    Entry("tanh_m1", "tanh(x1)", _cyl_tanh_m1),
    Entry("rational_m12", "1/(1 + x1^2 + x2^2)", _cyl_rational_m12),
    Entry("cos_sin_m13", "cos(x1) sin(x3)", _cyl_cos_sin_m13),
)

OBSERVABLES = _registry(
    Entry("mode1_soft(c)", "c tanh(x1/c): smooth bounded mode-1 readout", _mode1_soft),
    Entry("energy_soft(k,c)", "c tanh(|x|_k^2/c): smooth bounded energy readout", _energy_soft),
)


def build_cylinder(name, **kw):
    """A cylinder by name; an observable takes its parameters as keywords,
    and a keyword that the entry does not read raises a ConfigError."""
    entry = _lookup({**CYLINDERS, **OBSERVABLES}, "cylinder", name)
    return entry.build(**known_keys(kw, entry.keys))


# the six (u, h) pairs exercised by the log-derivative duality check;
# h is either a basis index (0-based) or a coefficient vector
IBP_PAIRS = (
    ("cos_m1", 0),
    ("sin_m12", 1),
    ("gauss_m123", 2),
    ("tanh_m1", 0),
    ("rational_m12", (1.0, 0.5, 0.0, 0.0)),
    ("cos_sin_m13", 3),
)


# ---------------------------------------------------------------------------
# time factors and test functions


TIME_FACTORS = _registry(
    Entry("linear_ramp", "g(t) = 1 - t/T", lambda T: (lambda t: 1.0 - t / T, lambda t: -1.0 / T)),
    Entry(
        "quadratic_ramp",
        "g(t) = (1 - t/T)^2",
        lambda T: (lambda t: (1.0 - t / T) ** 2, lambda t: -2.0 * (1.0 - t / T) / T),
    ),
    Entry(
        "cos_ramp",
        "g(t) = cos(pi t / 2T)",
        lambda T: (
            lambda t: math.cos(0.5 * math.pi * t / T),
            lambda t: -0.5 * math.pi / T * math.sin(0.5 * math.pi * t / T),
        ),
    ),
)


def build_time_factor(name, T):
    """(g, g') of the named time factor on [0, T]."""
    return _lookup(TIME_FACTORS, "time factor", name).build(T)


def build_test_function(spec, T):
    known_keys(spec_block(spec), ("g", "f"))
    g, gp = build_time_factor(spec.get("g", "linear_ramp"), T)
    f = build_cylinder(spec.get("f", "cos_m1"))
    return verify.TestFunction(g=g, g_prime=gp, f=f, T=T, name=f"{spec.get('g','linear_ramp')}*{f.name}")


# the sections of list-catalog, in order
SECTIONS = (
    ("measures", MEASURES),
    ("fields", FIELDS),
    ("reactions", REACTIONS),
    ("densities", DENSITIES),
    ("cylinders", CYLINDERS),
    ("time_factors", TIME_FACTORS),
    ("observables", OBSERVABLES),
)


def columns_text(sections):
    """(name, rows) sections as list-catalog prints them: "name:", then the
    rows, with the columns before the last one padded to a common width."""
    lines = []
    for name, rows in sections:
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
        lines += [f"{name}:"] + ["  " + "".join(f"{c:<{w}}  " for c, w in zip(row, widths)) + row[-1] for row in rows]
    return "\n".join(lines)


def catalog_text():
    return columns_text([(name, [(e.label, e.description) for e in reg.values()]) for name, reg in SECTIONS])


# ---------------------------------------------------------------------------
# the standard transport problems


def default_problems(which="1d"):
    """Problem specs for the verification suite; plain dicts, built lazily."""
    one_d = [
        {
            "id": "g1_const",
            "measure": {"name": "gaussian", "n_modes": 1},
            "N": 1,
            "field": {"name": "constant", "coeffs": [0.1]},
            "rho0": {"name": "bump", "centers": [0.0], "radii": [0.5]},
            "dt": 1e-3,
            "T": 0.5,
            "times": [0.25, 0.5],
            "test_function": {"g": "linear_ramp", "f": "cos_m1"},
        },
        {
            "id": "gibbs1_arctan",
            "measure": {"name": "gibbs", "n_modes": 1, "alpha": 1.0, "p": 4.0},
            "N": 1,
            "field": {"name": "nemytskii:neg_arctan", "n_modes": 1, "level": 1},
            "rho0": {"name": "bump", "centers": [0.15], "radii": [0.45]},
            "dt": 1e-3,
            "T": 0.5,
            "times": [0.25, 0.5],
            "test_function": {"g": "cos_ramp", "f": "tanh_m1"},
        },
    ]
    two_d = [
        {
            "id": "g2_swirl",
            "measure": {"name": "gaussian", "n_modes": 2},
            "N": 2,
            "field": {"name": "swirl", "s": 0.2},
            "rho0": {"name": "bump", "centers": [0.1, 0.0], "radii": [0.4, 0.4]},
            "dt": 1e-3,
            "T": 0.25,
            "times": [0.125, 0.25],
            "test_function": {"g": "linear_ramp", "f": "rational_m12"},
        },
    ]
    if which == "1d":
        return one_d
    if which == "2d":
        return two_d
    if which == "all":
        return one_d + two_d
    raise ValueError(f"unknown problem set {which!r}")


def reference(measure, N, ladder=None):
    """The slice reference psi^2 of measure on its first N modes, or its
    (M, l) ladder; psi^2 estimates its normalizing constant Z."""
    slc = measures.psi_squared(measure, N)
    return slc if ladder is None else measures.ladder(slc, *ladder)


def build_problem(spec, ladder_spec=None):
    """Assemble (measure, slice/ladder reference, field, rho0, config, u) from
    a problem spec such as those of default_problems. The spec is not checked
    here: the CLI reads every config through its parameter tables first."""
    m = build_measure(spec["measure"])
    field = build_field(spec["field"], m.n_modes)
    rho0 = build_density(spec["rho0"])
    config = transport.FlowConfig(dt_ode=float(spec["dt"]), T=float(spec["T"]))
    u = build_test_function(spec.get("test_function", {}), config.T)
    ladder = (float(ladder_spec["M"]), int(ladder_spec["l"])) if ladder_spec else None
    return m, reference(m, int(spec["N"]), ladder), field, rho0, config, u
