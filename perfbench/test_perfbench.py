"""Tests of the benchmark itself: the traced run changes no output, self time
is inclusive time minus child time, and the derived counts match direct counts.

Traced runs happen in child processes, so the wrappers never touch the
refflow modules that the rest of the test session imports.
"""

import json
import math
import pathlib
import sys

import pytest
from refflow import catalog, measures
from refflow.rng import stream

import run
import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent

TINY_VERIFY = {
    "kind": "verify-suite",
    "seed": 5,
    "params": {
        "problems": [
            {
                "id": "tiny",
                "measure": {"name": "gibbs", "n_modes": 1, "alpha": 1.0, "p": 4.0},
                "N": 1,
                "field": {"name": "nemytskii:neg_arctan", "n_modes": 1, "level": 1},
                "rho0": {"name": "bump", "centers": [0.15], "radii": [0.45]},
                "dt": 1e-3,
                "T": 0.02,
                "times": [0.01, 0.02],
                "n_per_axis": 16,
                "test_function": {"g": "cos_ramp", "f": "tanh_m1"},
            }
        ],
        "n_time": 2,
        "uniqueness": True,
    },
}
TINY_IBP = {
    "kind": "ibp-check",
    "seed": 5,
    "params": {"measure": {"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0}, "count": 2000},
}
TINY_COMMUTATOR = {
    "kind": "commutator-curve",
    "seed": 5,
    "params": {"eps_grid": [0.02, 0.01], "n_mc": 50, "n_x": 24, "quad_nodes": 33},
}


def _run(tmp_path, cfg, traced):
    """Run cfg through the CLI, as the benchmark does; (exit code, output dir, trace)."""
    tag = "traced" if traced else "plain"
    cfg_path = tmp_path / f"{cfg['kind']}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{cfg['kind']}-{tag}"
    spans_path = tmp_path / f"{cfg['kind']}-spans.json"
    head = [sys.executable, str(run.BENCH_DIR / "traced_child.py"), str(spans_path)] if traced else [
        sys.executable, "-m", "refflow.cli"]
    cmd = head + ["run", str(cfg_path), "--output", str(out), "--workers", "1"]
    code, _, _ = run.spawn(cmd, ROOT, tmp_path / f"{cfg['kind']}-{tag}.log", timeout=120)
    trace = json.loads(spans_path.read_text()) if traced else None
    return code, out, trace


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    return {
        cfg["kind"]: (_run(tmp, cfg, traced=False), _run(tmp, cfg, traced=True))
        for cfg in (TINY_VERIFY, TINY_IBP, TINY_COMMUTATOR)
    }


@pytest.mark.parametrize("kind", ["verify-suite", "ibp-check", "commutator-curve"])
def test_traced_report_is_byte_identical(traced_runs, kind):
    (code, out, _), (tcode, tout, trace) = traced_runs[kind]
    assert code == tcode
    assert (out / "report.json").read_bytes() == (tout / "report.json").read_bytes()
    assert len(trace["spans"]) > 0


def _nested_trace():
    """Spans root [0, 10] > a [1, 4] > b [2, 3], and root > c [5, 6.5]."""
    names = ["cli.main", "transport.solve", "fields.dstar", "measures.sample_gibbs", "spectral.synthesize"]
    recs = [[0, -1, 0.0, 10.0, None], [1, 0, 1.0, 4.0, None], [2, 1, 2.0, 3.0, None], [1, 0, 5.0, 6.5, None]]
    return {"names": names, "work_fields": {}, "spans": recs}


def test_self_time_is_inclusive_minus_children():
    trace = _nested_trace()
    assert spans.self_times(trace["spans"]) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    agg = spans.aggregate(trace)
    assert agg["cli.main.self_s"] == 5.5
    assert agg["transport.solve.calls"] == 2
    assert agg["transport.solve.s"] == 4.5
    assert agg["transport.solve.self_s"] == 3.5
    assert agg["transport.self_s"] == 3.5
    assert agg["fields.dstar.self_s"] == 1.0


def test_self_time_of_wrapped_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("fields.divergence", lambda n: sum(range(n)))
    outer = tracer.wrap("fields.dstar", lambda n: inner(n) + inner(2 * n))
    assert outer(10000) == sum(range(10000)) + sum(range(20000))
    duration = [rec[spans.END] - rec[spans.START] for rec in tracer.spans]
    assert [rec[spans.PARENT] for rec in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == [duration[0] - duration[1] - duration[2], duration[1], duration[2]]


def test_derived_counts_verify(traced_runs):
    (_, _, trace) = traced_runs["verify-suite"][1]
    agg = spans.aggregate(trace)
    dt, T, times = 1e-3, 0.02, [0.01, 0.02]
    weak_times = [0.0, T / 2, T]  # n_time=2 Simpson nodes
    steps = lambda ts: sum(round(t / dt) for t in ts)
    n_grid, n_eval, n_solutions = 16, 256, 2
    assert agg["transport.feynman_kac.calls"] == len(weak_times) + len(times) + n_solutions * len(times)
    assert agg["transport.feynman_kac.rk4_steps"] == steps(weak_times) + steps(times) + n_solutions * steps(times)
    assert agg["transport.feynman_kac.point_steps"] == (
        n_grid * (steps(weak_times) + steps(times)) + n_eval * n_solutions * steps(times)
    )
    # the ladder hands every input row to its slice once per mollifier offset
    K = measures._mollifier_offsets(1, 16, 33, 10000, 0)[0].shape[0]
    assert agg["measures.SliceDensity.value_and_beta.rows"] == K * agg["measures.LadderDensity.value_and_log_gradient.rows"]
    assert agg["verify.uniqueness_probe.calls"] == 1


def test_derived_counts_gibbs(traced_runs, monkeypatch):
    counted = []
    synthesize = measures.synthesize
    monkeypatch.setattr(measures, "synthesize", lambda c, g: counted.append(spans.rows(c)) or synthesize(c, g))
    m = catalog.build_measure(TINY_IBP["params"]["measure"])
    count = TINY_IBP["params"]["count"]
    for i, (uname, _) in enumerate(catalog.IBP_PAIRS):
        measures.sample_gibbs(m, count, stream(TINY_IBP["seed"], "ibp-check", uname, i))

    agg = spans.aggregate(traced_runs["ibp-check"][1][2])
    assert agg["measures.sample_gibbs.draws"] == count * len(catalog.IBP_PAIRS)
    assert agg["measures.sample_gibbs.proposals"] == sum(counted)
    assert agg["measures.sample_gibbs.yield"] == agg["measures.sample_gibbs.draws"] / sum(counted)
    assert agg["measures.beta_components.rows"] == agg["measures.sample_gibbs.draws"]


def test_derived_counts_commutator(traced_runs):
    agg = spans.aggregate(traced_runs["commutator-curve"][1][2])
    p = TINY_COMMUTATOR["params"]
    dt = 2e-3  # the commutator-curve default
    burn_in = math.ceil(6.0 / (math.pi ** 2 * dt))
    thinning = math.ceil(1.0 / (math.pi ** 2 * dt))
    assert agg["spde.sample_invariant.steps"] == burn_in + p["n_x"] * thinning
    assert agg["spde.path_steps"] == p["n_x"] * p["n_mc"] * round(max(p["eps_grid"]) / dt)
    assert agg["transport.feynman_kac.calls"] == 0
    assert agg["measures.sample_gibbs.calls"] == 0
