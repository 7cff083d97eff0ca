"""The per-layer metrics that BENCHMARK.json names belong to spans of the
program: without this check, a deleted or renamed traced function would
fail only in a traced benchmark run."""

import importlib
import json
import pathlib

BENCHMARK = pathlib.Path(__file__).parents[1] / "BENCHMARK.json"
# metrics of the benchmark harness itself, not of a span of the program
HARNESS_METRICS = {"trace.overhead_s", "failed_runs"}


def _resolves(dotted):
    """Whether refflow.<module>[.<attr>...] exists."""
    module, *attrs = dotted.split(".")
    try:
        obj = importlib.import_module(f"refflow.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_per_layer_metric_names_a_program_attribute():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    # a metric is "<span>.<measure>": calls, s, self_s or a work count such as rows
    spans = [name.rsplit(".", 1)[0] for name in names if name not in HARNESS_METRICS]
    assert len(spans) == len(names) - len(HARNESS_METRICS)
    assert [span for span in spans if not _resolves(span)] == []
