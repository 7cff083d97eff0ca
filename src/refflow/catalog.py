"""Registered building blocks: measures, fields, reactions, densities,
cylinders, test functions, observables, and the standard problem set; and
the table reader through which every config value is read.

Each section is one registry: a dict from a name to its Entry, which holds
the one-line mathematical description that `list-catalog` prints, the table
of the keys a config block may give, and the builder, which takes the typed
values of those keys and returns the corresponding domain object.
"""

import json
import math
import operator
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


# ---------------------------------------------------------------------------
# tables, through which every config value is read once, before any numerics
# run. An entry is (key, (type name, coerce), bound, default): coerce(raw,
# values read so far) gives the typed value, or raises TypeError or
# ValueError, and makes the checks that need other values; bound "<op>
# <limit>[ why]" holds for the value or each of its entries, where limit is a
# number or a key read before (a NaN fails every bound); default is a raw
# value, REQUIRED or a Derived; a RETIRED key's default says why it is ignored.


class Derived(NamedTuple):
    """A default that fn works out from the values read so far, or, when fn is None, the runner."""

    text: str
    fn: object = None


REQUIRED = object()
RETIRED = ("retired", None)
COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _at(path, fn, *args, errors=(TypeError, ValueError, OverflowError), **kwargs):
    """fn(*args, **kwargs) with its errors, by default those of a bad config
    value, or the ConfigError of a nested table, raised as a ConfigError at or
    below path."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(path + ("" if exc.path.startswith("[") else ".") + exc.path, exc.msg) from exc
    except errors as exc:
        raise ConfigError(path, str(exc)) from exc


def read(table, raw, **context):
    """The typed values of the JSON object raw, read through table; coerces
    and defaults also see the values of context, such as a state's n_modes."""
    spec_block(raw)
    got = dict(context)
    for key, (_, coerce), bound, default in table:
        if key in raw:
            value = raw[key]
        elif default is REQUIRED:
            raise ConfigError(key, "required")
        else:
            value = default.fn(got) if isinstance(default, Derived) and default.fn else default
        if isinstance(value, Derived):
            got[key] = None
        elif coerce is not None:
            got[key] = _at(key, coerce, value, got)
            op, limit = bound.split()[:2] if bound else (None, None)
            if op and not all(COMPARE[op](v, got[limit] if limit in got else float(limit)) for v in np.ravel(got[key])):
                raise ConfigError(key, f"must be {bound}, got {value!r}")
    known_keys(raw, [entry[0] for entry in table])
    return {entry[0]: got[entry[0]] for entry in table if entry[0] in got}


def _expect(ok, what, value):
    """value, if ok; else a TypeError saying what it must be."""
    if not ok:
        raise TypeError(f"must be {what}, got {value!r}")
    return value


def _number(raw):
    """Whether raw is a JSON number: an int or a float, and not true or false."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _numbers(raw, size=None):
    """A number or a nonempty list of numbers, or a list of size numbers if size is given, as a float array."""
    listed = isinstance(raw, (list, tuple)) and all(map(_number, raw))
    ok = (listed and len(raw) > 0 or _number(raw)) if size is None else (listed and len(raw) == size)
    _expect(ok, "a number or a nonempty list of numbers" if size is None else f"a list of {size} numbers", raw)
    return np.asarray(raw, dtype=float)


def _steps(dt, T, raw):
    """raw as a nonempty list of floats, each a whole number of dt steps in [0, T]."""
    times = [float(t) for t in _numbers(_expect(isinstance(raw, list), "a nonempty list of numbers", raw))]
    for t in times:
        transport._whole_steps(t, dt)
        if not t <= T + 1e-12:
            raise ValueError(f"{t} is not in [0, {T}]")
    return times


INT = ("int", lambda raw, got: _expect(isinstance(raw, int) and not isinstance(raw, bool), "an integer", raw))
FLOAT = ("number", lambda raw, got: float(_expect(_number(raw), "a number", raw)))
NUMBERS = ("number | [number]", lambda raw, got: _numbers(raw))
BOOL = ("bool", lambda raw, got: _expect(isinstance(raw, bool), "true or false", raw))
STR = ("string", lambda raw, got: _expect(isinstance(raw, str), "a string", raw))
OBJECT = ("object", lambda raw, got: spec_block(raw))


def table_rows(table):
    """The rows of table as list-catalog prints them: key, type, bound, default."""
    return [(key, t[0], bound or "-", f"ignored: {d}" if t is RETIRED else "required" if d is REQUIRED
             else d.text if isinstance(d, Derived) else json.dumps(d)) for key, t, bound, d in table]


def _columns(rows):
    """rows as lines, with the columns before the last one padded to a common width."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1 if rows else 0)]
    return ["".join(f"{c:<{w}}  " for c, w in zip(row, widths)) + row[-1] for row in rows]


def columns_text(sections):
    """(name, rows) sections as list-catalog prints them: "name:", then the rows."""
    return "\n".join(line for name, rows in sections for line in [f"{name}:"] + [f"  {row}" for row in _columns(rows)])


# ---------------------------------------------------------------------------
# registries


class Entry(NamedTuple):
    name: str
    description: str
    table: tuple
    build: object


def _registry(*entries):
    return {e.name: e for e in entries}


def _lookup(registry, section, name):
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {section} {name!r}") from None


def _block(registry, section, spec, default, **context):
    """What the entry named by the block spec's "name" (default if none)
    builds from the values that its table reads from the rest of the block."""
    entry = _lookup(registry, section, spec_block(spec).get("name", default))
    values = read((("name", STR, "", default),) + entry.table, spec, **context)
    del values["name"]
    return entry.build(**values)


# ---------------------------------------------------------------------------
# measures


N_MODES = ("n_modes", INT, ">= 1", 1)

MEASURES = _registry(
    Entry("gaussian", "product Gaussian, mode-j precision 2 pi^2 j^2", (N_MODES,), measures.GibbsMeasure),
    Entry(
        "gibbs",
        "Gaussian reweighted by exp(-(alpha/p) int |x(xi)|^p dxi)/Z",
        (N_MODES, ("alpha", FLOAT, ">= 0", 1.0), ("p", FLOAT, "> 2", 4.0)),
        measures.GibbsMeasure,
    ),
)


def build_measure(spec):
    return _block(MEASURES, "measure", spec, "gaussian")


MEASURE = ("measure", lambda raw, got: build_measure(raw))


# ---------------------------------------------------------------------------
# scalar reactions for Nemytskii fields


def _neg_arctan():
    return fields_mod.Reaction(
        fn=lambda r: -np.arctan(r),
        deriv=lambda r: -1.0 / (1.0 + r ** 2),
        bound=math.pi / 2.0,
        name="neg_arctan",
    )


def _cubic_sat():
    def fn(r):
        s = r / np.sqrt(1.0 + r ** 2)
        return -(s ** 3)

    def deriv(r):
        s2 = r ** 2 / (1.0 + r ** 2)
        return -3.0 * s2 / (1.0 + r ** 2) ** 1.5

    return fields_mod.Reaction(fn=fn, deriv=deriv, bound=1.0, name="cubic_sat")


SCALAR_REACTIONS = _registry(
    Entry("neg_arctan", "f(r) = -arctan(r); |f| <= pi/2", (), _neg_arctan),
    Entry("cubic_sat", "f(r) = -(r/sqrt(1+r^2))^3; |f| <= 1", (), _cubic_sat),
)


# ---------------------------------------------------------------------------
# SPDE reactions (ascending coefficients)


C1 = (("c1", FLOAT, "<= 0 (else p increases near 0)", -1.0),)

REACTIONS = _registry(
    Entry("ou", "p = 0: pure Ornstein-Uhlenbeck linear dynamics", (), lambda: ()),
    Entry("cubic", "p(r) = -r^3 + c1 r (decreasing, odd degree 3)", C1, lambda c1: (0.0, c1, 0.0, -1.0)),
    Entry("quintic", "p(r) = -r^5 + c1 r (decreasing, odd degree 5)", C1, lambda c1: (0.0, c1, 0.0, 0.0, 0.0, -1.0)),
)


def polynomial_reaction(spec):
    """SPDE reaction coefficients (ascending powers)."""
    return _block(REACTIONS, "reaction", spec, "ou")


# ---------------------------------------------------------------------------
# drift fields


def _swirl(s):
    """(s tanh x_2, -s tanh x_1): each component is constant in its own
    coordinate, so div F is zero."""

    def evaluate(t, X, div):
        return np.stack([s * np.tanh(X[:, 1]), -s * np.tanh(X[:, 0])], axis=-1), (np.zeros(X.shape[0]) if div else None)

    return fields_mod.CylindricalField(evaluate, (abs(s), abs(s)), name="swirl")


NEMYTSKII = (
    ("n_modes", INT, ">= 1", Derived("state n_modes", lambda got: got["state_modes"])),
    ("level", INT, "<= n_modes", Derived("n_modes", lambda got: got["n_modes"])),
)

FIELDS = _registry(
    Entry("constant", "fixed coefficient vector on the first k modes", (("coeffs", NUMBERS, "", [0.1]),),
          fields_mod.constant_field),
    Entry("zero", "zero drift in k components", (("k", INT, ">= 1", 1),), lambda k: fields_mod.constant_field(np.zeros(k))),
    Entry("swirl", "divergence-free bounded rotation (s tanh(x2), -s tanh(x1))", (("s", FLOAT, "", 0.2),), _swirl),
    *(
        Entry(f"nemytskii:{name}", f"(-A)^{{-1}} composed with {r.description}", NEMYTSKII,
              lambda n_modes, level, f=r.build: fields_mod.galerkin(fields_mod.NemytskiiField(f(), n_modes), level))
        for name, r in SCALAR_REACTIONS.items()
    ),
)


def build_field(spec, n_modes=None, most=None):
    """The field of the block spec; a Nemytskii field has n_modes modes (1 if
    None) unless the block gives its own, and a field of more than `most`
    components raises a TypeError."""
    field = _block(FIELDS, "field", spec, "constant", state_modes=n_modes or 1)
    _expect(most is None or field.n_components <= most, f"a field of at most {most} components", spec)
    return field


# ---------------------------------------------------------------------------
# initial densities


DENSITIES = _registry(
    Entry(
        "bump",
        "product of C2 bumps h prod (1-((x_i-c_i)/r_i)^2)_+^3",
        (
            ("centers", ("[number], N of them", lambda raw, got: _numbers(raw, got["N"])), "", [0.0]),
            ("radii", ("[number], one per center", lambda raw, got: _numbers(raw, got["centers"].size)), "> 0", [0.5]),
            ("height", FLOAT, "> 0", 1.0),
        ),
        transport.bump_density,
    ),
)


def build_density(spec, N=None):
    """The density of the block spec; with N given, on exactly N coordinates."""
    return _block(DENSITIES, "density", spec, "bump", N=N)


# ---------------------------------------------------------------------------
# bounded C1 cylinders (IBP integrands, spatial test factors, observables)


def _cyl_cos_m1():
    return Cylinder(
        n_active=1,
        value_fn=lambda X: np.cos(X[:, 0]),
        grad_fn=lambda X: -np.sin(X[:, 0:1]),
        name="cos_m1",
    )


def _cyl_sin_m12():
    return Cylinder(
        n_active=2,
        value_fn=lambda X: np.sin(X[:, 0] + 2.0 * X[:, 1]),
        grad_fn=lambda X: np.stack(
            [np.cos(X[:, 0] + 2.0 * X[:, 1]), 2.0 * np.cos(X[:, 0] + 2.0 * X[:, 1])], axis=-1
        ),
        name="sin_m12",
    )


def _cyl_gauss_m123():
    def value(X):
        return np.exp(-(X[:, :3] ** 2).sum(axis=1))

    def grad(X):
        return -2.0 * X[:, :3] * value(X)[:, None]

    return Cylinder(n_active=3, value_fn=value, grad_fn=grad, name="gauss_m123")


def _cyl_tanh_m1():
    return Cylinder(
        n_active=1,
        value_fn=lambda X: np.tanh(X[:, 0]),
        grad_fn=lambda X: 1.0 / np.cosh(X[:, 0:1]) ** 2,
        name="tanh_m1",
    )


def _cyl_rational_m12():
    def value(X):
        return 1.0 / (1.0 + X[:, 0] ** 2 + X[:, 1] ** 2)

    def grad(X):
        return -2.0 * X[:, :2] * value(X)[:, None] ** 2

    return Cylinder(n_active=2, value_fn=value, grad_fn=grad, name="rational_m12")


def _cyl_cos_sin_m13():
    def value(X):
        return np.cos(X[:, 0]) * np.sin(X[:, 2])

    def grad(X):
        g = np.zeros((X.shape[0], 3))
        g[:, 0] = -np.sin(X[:, 0]) * np.sin(X[:, 2])
        g[:, 2] = np.cos(X[:, 0]) * np.cos(X[:, 2])
        return g

    return Cylinder(n_active=3, value_fn=value, grad_fn=grad, name="cos_sin_m13")


def _mode1_soft(c):
    return Cylinder(
        n_active=1,
        value_fn=lambda X: c * np.tanh(X[:, 0] / c),
        grad_fn=lambda X: 1.0 / np.cosh(X[:, 0:1] / c) ** 2,
        name=f"mode1_soft({c:g})",
    )


def _energy_soft(k, c):
    def value(X):
        return c * np.tanh((X[:, :k] ** 2).sum(axis=1) / c)

    def grad(X):
        s = (X[:, :k] ** 2).sum(axis=1)
        return (2.0 * X[:, :k]) / np.cosh(s / c)[:, None] ** 2

    return Cylinder(n_active=k, value_fn=value, grad_fn=grad, name=f"energy_soft({k},{c:g})")


CYLINDERS = _registry(
    Entry("cos_m1", "cos(x1)", (), _cyl_cos_m1),
    Entry("sin_m12", "sin(x1 + 2 x2)", (), _cyl_sin_m12),
    Entry("gauss_m123", "exp(-(x1^2+x2^2+x3^2))", (), _cyl_gauss_m123),
    Entry("tanh_m1", "tanh(x1)", (), _cyl_tanh_m1),
    Entry("rational_m12", "1/(1 + x1^2 + x2^2)", (), _cyl_rational_m12),
    Entry("cos_sin_m13", "cos(x1) sin(x3)", (), _cyl_cos_sin_m13),
)

# c tanh(./c) is a bounded readout only for c > 0; at 0 every commutator reads 0
SCALE = ("c", FLOAT, "> 0", 1.0)

OBSERVABLES = _registry(
    Entry("mode1_soft", "c tanh(x1/c): smooth bounded mode-1 readout", (SCALE,), _mode1_soft),
    Entry("energy_soft", "c tanh(|x|_k^2/c): smooth bounded energy readout", (("k", INT, ">= 1", 4), SCALE), _energy_soft),
)


def build_cylinder(name, **kw):
    """A cylinder by name; an observable takes its parameters as keywords,
    which its table reads."""
    entry = _lookup({**CYLINDERS, **OBSERVABLES}, "cylinder", name)
    return entry.build(**read(entry.table, kw))


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
    Entry("linear_ramp", "g(t) = 1 - t/T", (), lambda T: (lambda t: 1.0 - t / T, lambda t: -1.0 / T)),
    Entry(
        "quadratic_ramp",
        "g(t) = (1 - t/T)^2",
        (),
        lambda T: (lambda t: (1.0 - t / T) ** 2, lambda t: -2.0 * (1.0 - t / T) / T),
    ),
    Entry(
        "cos_ramp",
        "g(t) = cos(pi t / 2T)",
        (),
        lambda T: (
            lambda t: math.cos(0.5 * math.pi * t / T),
            lambda t: -0.5 * math.pi / T * math.sin(0.5 * math.pi * t / T),
        ),
    ),
)


def build_time_factor(name, T):
    """(g, g') of the named time factor on [0, T]."""
    return _lookup(TIME_FACTORS, "time factor", name).build(T)


TEST_FUNCTION = (("g", STR, "", "linear_ramp"), ("f", STR, "", "cos_m1"))


def build_test_function(spec, T):
    got = read(TEST_FUNCTION, spec)
    g, gp = build_time_factor(got["g"], T)
    f = build_cylinder(got["f"])
    return verify.TestFunction(g=g, g_prime=gp, f=f, T=T, name=f"{got['g']}*{f.name}")


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


def catalog_text():
    """The registries as list-catalog prints them: each entry's name and
    description, and below it the rows of its table."""
    lines = []
    for name, registry in SECTIONS:
        lines.append(f"{name}:")
        for entry, line in zip(registry.values(), _columns([(e.name, e.description) for e in registry.values()])):
            lines += [f"  {line}"] + [f"      {row}" for row in _columns(table_rows(entry.table))]
    return "\n".join(lines)


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


LADDER = (("M", FLOAT, ">= 1", REQUIRED), ("l", INT, ">= 1", REQUIRED))

# the fields of a transport problem
PROBLEM = (
    ("id", STR, "", "problem"),
    ("measure", MEASURE, "", REQUIRED),
    ("N", ("int <= measure n_modes", lambda raw, got: _expect(INT[1](raw, got) <= got["measure"].n_modes, "<= n_modes", raw)),
     ">= 1", REQUIRED),
    ("field", ("field of at most N components", lambda raw, got: build_field(raw, got["measure"].n_modes, got["N"])),
     "", REQUIRED),
    ("rho0", ("density on N coordinates", lambda raw, got: build_density(raw, got["N"])), "", REQUIRED),
    ("dt", FLOAT, "> 0", 1e-3),
    ("T", FLOAT, "> 0", 0.5),
    ("times", ("[number] on the dt grid in [0, T]", lambda raw, got: _steps(got["dt"], got["T"], raw)),
     "", Derived("[T/2, T]", lambda got: [got["T"] / 2.0, got["T"]])),
    ("n_per_axis", INT, ">= 1", Derived("128 if N = 1, else 96", lambda got: 128 if got["N"] == 1 else 96)),
    ("ladder", ("{M, l}", lambda raw, got: tuple(read(LADDER, raw).values())), "", Derived("none")),
    ("test_function", ("test_function", lambda raw, got: build_test_function(raw, got["T"])), "", {}),
)


def build_problem(spec):
    """(measure, slice/ladder reference, field, rho0, config, u) of a problem
    spec such as those of default_problems, read through PROBLEM."""
    got = read(PROBLEM, spec)
    config, ref = flow(got)
    return got["measure"], ref, got["field"], got["rho0"], config, got["test_function"]


def flow(problem):
    """The FlowConfig of a problem read through PROBLEM, and the slice reference
    psi^2 of its measure on its first N modes, or its (M, l) ladder; psi^2
    estimates its normalizing constant Z."""
    slc = measures.psi_squared(problem["measure"], problem["N"])
    ref = slc if problem["ladder"] is None else measures.ladder(slc, *problem["ladder"])
    return transport.FlowConfig(dt_ode=problem["dt"], T=problem["T"]), ref
