"""The per-layer metrics that BENCHMARK.json names belong to spans of the
program, and perfbench's work counters fit the functions they count: without
these checks, a deleted or renamed traced function would fail only in a
traced benchmark run, and a changed signature would zero its counts there
silently."""

import importlib
import importlib.util
import inspect
import json
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
# metrics of the benchmark harness itself, not of a span of the program
HARNESS_METRICS = {"trace.overhead_s", "failed_runs"}


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute(dotted):
    """refflow.<module>[.<attr>...]."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"refflow.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _resolves(dotted):
    """Whether refflow.<module>[.<attr>...] exists."""
    try:
        _attribute(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_per_layer_metric_names_a_program_attribute():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    # a metric is "<span>.<measure>": calls, s, self_s or a work count such as rows
    spans = [name.rsplit(".", 1)[0] for name in names if name not in HARNESS_METRICS]
    assert len(spans) == len(names) - len(HARNESS_METRICS)
    assert [span for span in spans if not _resolves(span)] == []


def _binds(fn, names):
    """Whether fn takes the arguments `names`, passed in order and passed by name."""
    sig = inspect.signature(fn)
    try:
        sig.bind(*names)
        sig.bind(**{name: name for name in names})
    except TypeError:
        return False
    return True


def test_every_work_counter_binds_the_parameters_of_the_function_it_counts():
    # Tracer.wrap records no counts for a counter that raises
    spans = _spans()
    modules = {m: importlib.import_module(f"refflow.{m}") for m in spans.MODULES}
    unbound = []
    for name, (_, counter) in spans.work_counters(modules).items():
        params = inspect.signature(_attribute(name)).parameters.values()
        required = [p.name for p in params if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
        if not _binds(counter, required):
            unbound.append(name)
    assert unbound == []
    # the counters call these methods unbound, as (config, interval)
    assert _binds(modules["transport"].FlowConfig.n_steps, ["self", "interval"])
    assert _binds(modules["spde"].SpdeConfig.n_steps, ["self", "interval"])
