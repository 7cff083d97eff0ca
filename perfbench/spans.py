"""Span recorder for the traced benchmark run, and the per-layer aggregation.

A span is one call of a wrapped refflow function: its name, the span that
was open when it started (its parent), its start and end on the
`time.perf_counter` clock, and the work counts of `work_counters`. Spans are kept
in memory and written out once, when the traced process ends.

`install` wraps every public function of the ten refflow modules, and every
public method of the classes they define, under the name "<module>.<name>"
or "<module>.<Class>.<method>". The program's source is not touched: the
wrappers replace module and class attributes at run time, so they must be
installed before the run starts, and before any object binds a method (a
TransportSolution binds its reference's `beta` when it is built).

Runs are single threaded (workers=1, so `rng.map_units` runs inline), which
keeps the spans of one process strictly nested.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("cli", "catalog", "rng", "spectral", "cylinders", "measures", "fields", "transport", "verify", "spde")

# span fields of a span record
NAME, PARENT, START, END, WORK = range(5)


def rows(X):
    """Rows in a batch of points: the product of the leading axes; a vector is one row."""
    shape = np.shape(X)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def work_counters(modules):
    """Span name -> (count names, function of the call's arguments giving the counts).

    Each function takes the wrapped function's own parameters. Methods of the
    program that a counter needs are taken before `install` wraps them, so
    counting opens no span.
    """
    flow_steps = modules["transport"].FlowConfig.n_steps
    spde_steps = modules["spde"].SpdeConfig.n_steps

    def feynman_kac(solution, t, x):
        n = flow_steps(solution.config, t)
        return n, n * rows(x)

    def decay_curve(config, u, F, eps_grid, n_mc_per_eps, n_x_samples, *args, **kwargs):
        return (n_x_samples * n_mc_per_eps * spde_steps(config, max(eps_grid)),)

    def method_rows(self, X):
        return (rows(X),)

    return {
        "transport.feynman_kac": (("rk4_steps", "point_steps"), feynman_kac),
        "fields.CylindricalField.value": (("rows",), lambda self, t, X: (rows(X),)),
        "measures.SliceDensity.value": (("rows",), method_rows),
        "measures.SliceDensity.beta": (("rows",), method_rows),
        "measures.SliceDensity.value_and_beta": (("rows",), method_rows),
        "measures.LadderDensity.value_and_log_gradient": (("rows",), method_rows),
        "measures.beta_components": (("rows",), lambda measure, X: (rows(X),)),
        "measures.sample_gibbs": (("draws",), lambda measure, count, *args, **kwargs: (count,)),
        "spectral.synthesize": (("rows",), lambda coeffs, grid: (rows(coeffs),)),
        "spde.sample_invariant": (
            ("steps",),
            lambda config, burn_in, count, thinning, seed: (burn_in + count * thinning,),
        ),
        "spde.commutator_decay_curve": (("path_steps",), decay_curve),
    }


class Tracer:
    """Records spans of wrapped calls in memory."""

    def __init__(self):
        self.names = []
        self.work_fields = {}
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        """`fn` wrapped so that each call records a span named `name`."""
        nid = len(self.names)
        self.names.append(name)
        if counter is not None:
            self.work_fields[name] = list(counter[0])
            count = counter[1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if counter is not None:
                try:
                    work = count(*args, **kwargs)
                except Exception:  # the program raises its own error for bad arguments
                    work = None
            rec = [nid, stack[-1] if stack else -1, 0.0, 0.0, work]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "work_fields": self.work_fields, "spans": self.spans}, fh)


def _wrap_class(tracer, prefix, cls, counters):
    fields = getattr(cls, "__dataclass_fields__", {})
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") or attr in fields:
            continue
        name = f"{prefix}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, counters.get(name))))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw, counters.get(name)))


def install(tracer, package="refflow"):
    """Wrap refflow's public functions and methods, everywhere callers look them up.

    A function imported by name into another module (`measures`, `fields` and
    `spde` hold their own `basis_matrix`; `measures` its own `synthesize`;
    `cli` its own `stream`) is replaced there too, by the same wrapper.
    """
    modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    counters = work_counters(modules)
    replaced = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj):
                replaced[id(obj)] = (obj, tracer.wrap(name, obj, counters.get(name)))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, name, obj, counters)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    missing = set(counters) - set(tracer.names)
    if missing:
        raise LookupError(f"counted names not found in {package}: {sorted(missing)}")
    return modules


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    self_s = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            self_s[rec[PARENT]] -= rec[END] - rec[START]
    return self_s


def _has_ancestor(spans, i, nid):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == nid:
            return True
        p = spans[p][PARENT]
    return False


def aggregate(trace):
    """Flat metrics from a dumped trace: "<span>.calls", ".s", ".self_s", its
    counts, "<module>.self_s", and the derived counts named in the benchmark.

    Every wrapped name is present, with zeros when it was never called.
    """
    names, spans = trace["names"], trace["spans"]
    work_fields = trace["work_fields"]
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for field in work_fields.get(name, ()):
            out[f"{name}.{field}"] = 0
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
    for rec, own in zip(spans, self_times(spans)):
        name = names[rec[NAME]]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += rec[END] - rec[START]
        out[f"{name}.self_s"] += own
        out[f"{name.split('.', 1)[0]}.self_s"] += own
        if rec[WORK] is not None:
            for field, v in zip(work_fields[name], rec[WORK]):
                out[f"{name}.{field}"] += v

    gibbs = names.index("measures.sample_gibbs") if "measures.sample_gibbs" in names else None
    synth = names.index("spectral.synthesize") if "spectral.synthesize" in names else None
    proposals = sum(
        rec[WORK][0]
        for i, rec in enumerate(spans)
        if rec[NAME] == synth and rec[WORK] is not None and _has_ancestor(spans, i, gibbs)
    )
    draws = out.get("measures.sample_gibbs.draws", 0)
    out["measures.sample_gibbs.proposals"] = proposals
    out["measures.sample_gibbs.yield"] = draws / proposals if proposals else 0.0
    out["spde.path_steps"] = out.get("spde.commutator_decay_curve.path_steps", 0)
    out["cylinders.Cylinder.calls"] = out.get("cylinders.Cylinder.value.calls", 0) + out.get(
        "cylinders.Cylinder.grad.calls", 0
    )
    return out
