import ctypes
import json
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import refflow
from refflow import catalog, cli, measures, spde, verify
from refflow import fields as fields_mod


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def ibp_config(tmp_path, seed=7):
    return write_config(
        tmp_path,
        {
            "kind": "ibp-check",
            "seed": seed,
            "params": {
                "measure": {"name": "gaussian", "n_modes": 3},
                "count": 4000,
                "pairs": [["cos_m1", 0], ["sin_m12", 1]],
            },
        },
    )


def test_list_catalog_names_building_blocks(capsys):
    assert cli.main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    for needle in ("gibbs", "nemytskii:neg_arctan", "cubic"):
        assert needle in out
    # an entry's table rows follow it, in the columns of the params tables
    assert re.search(r"^  gibbs .*\n      n_modes\s+int\s+>= 1\s+1\n      alpha\s+number\s+>= 0\s+1\.0\n"
                     r"      p\s+number\s+> 2\s+4\.0$", out, re.M)


def test_unknown_kind_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "frobnicate"})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json"), "--output", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad), "--output", str(tmp_path / "o")]) == 2


def test_param_errors_carry_field_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "transport-solve", "params": {"N": 1}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "params.measure" in capsys.readouterr().err

    cfg2 = write_config(
        tmp_path,
        {"kind": "ibp-check", "params": {"measure": {"name": "gaussian", "n_modes": 2}, "pairs": [["cos_m1", 5]]}},
        name="c2.json",
    )
    assert cli.main(["run", cfg2, "--output", str(tmp_path / "out2")]) == 2
    assert "params.pairs[0]" in capsys.readouterr().err


def test_worker_count_validated(tmp_path):
    cfg = write_config(tmp_path, {"kind": "ibp-check", "workers": 0})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2


def test_ibp_run_writes_manifest_report_and_csv(tmp_path, capsys):
    cfg = ibp_config(tmp_path)
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
    stdout = capsys.readouterr().out
    assert "ibp[cos_m1]: pass" in stdout
    assert "wrote" in stdout

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["kind"] == "ibp-check"
    assert manifest["seed"] == 7
    assert manifest["workers"] == 1
    assert manifest["exit_code"] == 0
    assert manifest["artifact_version"] == refflow.__version__
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_hash"])
    assert manifest["wall_clock_seconds"] > 0
    assert not manifest["has_warnings"]
    assert set(manifest["outputs"]) == {"ibp_residuals.csv", "report.json", "manifest.json"}
    for name in manifest["outputs"]:
        assert (outdir / name).exists()

    report = json.loads((outdir / "report.json").read_text())
    assert report["verdicts"] == {"ibp[cos_m1]": "pass", "ibp[sin_m12]": "pass"}
    lines = (outdir / "ibp_residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "u,h,residual,stderr,passed"
    assert len(lines) == 3


def test_repeat_runs_are_bit_identical(tmp_path):
    cfg = ibp_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--output", str(out1)]) == 0
    assert cli.main(["run", cfg, "--output", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "ibp_residuals.csv").read_bytes() == (out2 / "ibp_residuals.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_clock_seconds")
    m2.pop("wall_clock_seconds")
    assert m1 == m2


def test_worker_count_does_not_change_report(tmp_path):
    cfg = ibp_config(tmp_path)
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert cli.main(["run", cfg, "--output", str(out1), "--workers", "1"]) == 0
    assert cli.main(["run", cfg, "--output", str(out4), "--workers", "4"]) == 0
    assert (out1 / "report.json").read_bytes() == (out4 / "report.json").read_bytes()
    assert json.loads((out4 / "manifest.json").read_text())["workers"] == 4


def test_seed_override_changes_results(tmp_path):
    cfg = ibp_config(tmp_path)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert cli.main(["run", cfg, "--output", str(out1)]) == 0
    assert cli.main(["run", cfg, "--output", str(out2), "--seed", "8"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] == 7 and r2["seed"] == 8
    assert r1["details"] != r2["details"]


def test_transport_solve_outputs_density_table(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "transport-solve",
            "params": {
                "measure": {"name": "gaussian", "n_modes": 1},
                "N": 1,
                "field": {"name": "constant", "coeffs": [0.1]},
                "rho0": {"name": "bump", "centers": [0.0], "radii": [0.5]},
                "dt": 1e-3,
                "T": 0.25,
                "times": [0.25],
                "eval_per_axis": 9,
            },
        },
    )
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
    density = (outdir / "density.csv").read_text().strip().splitlines()
    assert density[0] == "t,x1,rho"
    assert len(density) == 1 + 2 * 9  # t=0 plus one requested time
    mass = (outdir / "mass.csv").read_text().strip().splitlines()
    assert mass[0] == "t,relative_drift,tolerance,passed"
    report = json.loads((outdir / "report.json").read_text())
    assert report["verdicts"] == {"mass[t=0.25]": "pass"}


def test_an_index_and_its_unit_vector_give_the_same_ibp_residual(tmp_path):
    # cos_sin_m13's index 3 is a direction beyond its active coordinates
    details = []
    for pairs in ([["sin_m12", 1], ["cos_sin_m13", 3]], [["sin_m12", [0, 1, 0, 0]], ["cos_sin_m13", [0, 0, 0, 1]]]):
        params = {"measure": {"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0}, "count": 4000, "pairs": pairs}
        cfg = write_config(tmp_path, {"kind": "ibp-check", "seed": 7, "params": params})
        outdir = tmp_path / f"out{len(details)}"
        assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
        details.append(json.loads((outdir / "report.json").read_text())["details"])
    index, vector = details
    for key in ("ibp[sin_m12]", "ibp[cos_sin_m13]"):
        assert (index[key]["residual"], index[key]["stderr"]) == (vector[key]["residual"], vector[key]["stderr"])
    # the report keeps h as the config gave it
    assert index["ibp[sin_m12]"]["h"] == 1 and vector["ibp[sin_m12]"]["h"] == [0, 1, 0, 0]


def test_weak_residual_pairs_the_coordinates_that_f_and_the_field_share(tmp_path):
    # cos_m1 has one active coordinate and the swirl two components: the
    # advection term is d1 f F1, not d1 f (F1 + F2), whose residual was 1.9e-4
    problem = dict(catalog.default_problems("2d")[0], test_function={"g": "linear_ramp", "f": "cos_m1"})
    cfg = write_config(tmp_path, {"kind": "verify-suite", "params": {"problems": [problem], "n_time": 10}})
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
    weak = json.loads((outdir / "report.json").read_text())["details"]["g2_swirl:weak[linear_ramp*cos_m1]"]
    assert weak["passed"] and abs(weak["residual"]) < 1e-6


def test_gibbs_sample_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "gibbs-sample",
            "params": {"measure": {"name": "gibbs", "n_modes": 2, "alpha": 1.0, "p": 4.0}, "count": 500},
        },
    )
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
    lines = (outdir / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "mode_1,mode_2"
    assert len(lines) == 501
    report = json.loads((outdir / "report.json").read_text())
    assert report["verdicts"]["sampler"] == "pass"
    assert abs(report["details"]["lag1_autocorrelation_energy"]) < 0.1


@pytest.mark.parametrize("kind", ["gibbs-sample", "ibp-check"])
def test_degenerate_sampler_is_config_error(tmp_path, capsys, kind):
    measure = {"name": "gibbs", "n_modes": 32, "alpha": 1e6, "p": 4}
    cfg = write_config(tmp_path, {"kind": kind, "seed": 1, "params": {"measure": measure, "count": 2000}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "config error: params.measure: acceptance" in capsys.readouterr().err


def test_failed_check_exits_one(tmp_path, monkeypatch):
    def fake(params, seed, workers, outdir):
        return {"verdicts": {"probe": "fail"}, "warnings": [], "details": {}, "outputs": []}

    monkeypatch.setitem(cli.KIND_RUNNERS, "bdg-check", fake)
    cfg = write_config(tmp_path, {"kind": "bdg-check"})
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 1
    assert json.loads((outdir / "manifest.json").read_text())["exit_code"] == 1


def test_theorem_violation_exits_three(tmp_path, monkeypatch):
    def boom(params, seed, workers, outdir):
        raise verify.TheoremViolationError("entropy bound violated at t=0.5")

    monkeypatch.setitem(cli.KIND_RUNNERS, "entropy-audit", boom)
    # params are read before any runner runs, so they must be valid
    cfg = write_config(tmp_path, {"kind": "entropy-audit", "params": problem_params()})
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 3
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["verdicts"] == {"theorem": "violation"}
    report = json.loads((outdir / "report.json").read_text())
    assert "entropy bound violated" in report["details"]["violation"]


def test_inconclusive_statistics_warn_but_exit_zero(tmp_path, monkeypatch, capsys):
    def wobbly(params, seed, workers, outdir):
        return {
            "verdicts": {"decay": "warn"},
            "warnings": ["decay trend not established at this sampling budget"],
            "details": {},
            "outputs": [],
        }

    monkeypatch.setitem(cli.KIND_RUNNERS, "commutator-curve", wobbly)
    cfg = write_config(tmp_path, {"kind": "commutator-curve"})
    outdir = tmp_path / "out"
    assert cli.main(["run", cfg, "--output", str(outdir)]) == 0
    assert "warning: decay trend" in capsys.readouterr().out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["has_warnings"]
    assert manifest["exit_code"] == 0


def spde_invariant_config(tmp_path, **params):
    base = {"n_modes": 2, "dt": 0.01, "count": 64, "thinning": 2, "burn_in": 60}
    base.update(params)
    return write_config(tmp_path, {"kind": "spde-invariant", "seed": 1, "params": base})


def test_spde_config_errors_name_their_field(tmp_path, capsys):
    cfg = spde_invariant_config(tmp_path, burn_in=10)
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "params.burn_in" in capsys.readouterr().err
    cfg = spde_invariant_config(tmp_path, thinning=0)
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "params.thinning" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"kind": "commutator-curve", "params": {"thinning": 0}}, name="curve.json")
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "params.thinning" in capsys.readouterr().err
    # a stderr per half of the chain needs at least two draws in each half
    cfg = spde_invariant_config(tmp_path, count=3)
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "params.count" in capsys.readouterr().err
    for n_x in (0, 1):
        cfg = write_config(tmp_path, {"kind": "commutator-curve", "params": {"n_x": n_x}}, name="curve.json")
        assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
        assert "params.n_x" in capsys.readouterr().err


def test_fault_inside_the_stepper_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("fault inside the stepper")
        yield

    monkeypatch.setattr(spde, "_steps", broken)
    cfg = spde_invariant_config(tmp_path)
    with pytest.raises(ValueError, match="fault inside the stepper"):
        cli.main(["run", cfg, "--output", str(tmp_path / "out")])


def test_quad_nodes_is_ignored_with_a_warning(tmp_path):
    # so is T where the kind sets its own run length
    cubic = {"name": "cubic", "c1": -1.0}
    plain = spde_invariant_config(tmp_path, reaction=cubic, thinning=10)
    assert cli.main(["run", plain, "--output", str(tmp_path / "plain")]) == 0
    cfg = write_config(
        tmp_path,
        {"kind": "spde-invariant", "seed": 1,
         "params": {"n_modes": 2, "dt": 0.01, "count": 64, "thinning": 10, "burn_in": 60,
                    "reaction": cubic, "quad_nodes": 33, "T": 7.0}},
        name="quad.json",
    )
    assert cli.main(["run", cfg, "--output", str(tmp_path / "quad")]) == 0
    report = json.loads((tmp_path / "quad" / "report.json").read_text())
    assert report["warnings"] == [
        "params.T is ignored: the chain runs burn_in + count * thinning steps",
        "params.quad_nodes is ignored: the grid is sized from n_modes and the reaction degree",
    ]
    assert (tmp_path / "quad" / "samples.csv").read_bytes() == (tmp_path / "plain" / "samples.csv").read_bytes()
    # a T below max(eps_grid) changes no commutator estimate
    reports = {}
    for name, extra in (("curve", {}), ("curve_T", {"T": 0.01})):
        params = {"eps_grid": [0.04, 0.02], "n_mc": 20, "n_x": 20, **extra}
        cfg = write_config(tmp_path, {"kind": "commutator-curve", "seed": 1, "params": params}, name=f"{name}.json")
        assert cli.main(["run", cfg, "--output", str(tmp_path / name)]) == 0
        reports[name] = json.loads((tmp_path / name / "report.json").read_text())
    warned = reports["curve_T"].pop("warnings")
    assert warned == ["params.T is ignored: the paths run to max(eps_grid)"] + reports["curve"].pop("warnings")
    assert reports["curve_T"] == reports["curve"]
    csv = "commutator_curve.csv"
    assert (tmp_path / "curve_T" / csv).read_bytes() == (tmp_path / "curve" / csv).read_bytes()


def test_nonstationary_chain_is_a_verdict_not_a_config_error(tmp_path, capsys):
    # seeds whose chain at n_modes 4, dt 2e-3 and 20 draws fails the 3-sigma halves test
    cfg = write_config(
        tmp_path,
        {"kind": "spde-invariant", "seed": 125, "params": {"n_modes": 4, "dt": 0.002, "count": 20, "thinning": 51}},
    )
    assert cli.main(["run", cfg, "--output", str(tmp_path / "inv")]) == 1
    manifest = json.loads((tmp_path / "inv" / "manifest.json").read_text())
    assert manifest["verdicts"]["stationary"] == "fail"
    assert "config error" not in capsys.readouterr().err
    cfg = write_config(
        tmp_path,
        {"kind": "commutator-curve", "seed": 73, "params": {"eps_grid": [0.04, 0.02], "n_mc": 20, "n_x": 20}},
        name="curve.json",
    )
    assert cli.main(["run", cfg, "--output", str(tmp_path / "curve")]) == 0
    report = json.loads((tmp_path / "curve" / "report.json").read_text())
    assert "decay" in report["verdicts"]
    assert any("stationarity check" in w for w in report["warnings"])


def test_list_catalog_lists_every_registry_entry_and_builds_every_name(capsys):
    assert cli.main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    listed, rows = {}, {}
    for line in out.splitlines():
        if line.startswith("      "):
            rows[section, entry].append(line.split()[0])
        elif line.startswith(" "):
            entry = line.split()[0]
            listed[section].append(entry)
            rows[section, entry] = []
        else:
            section = line.rstrip(":")
            listed[section] = []
    assert listed == {
        **{name: list(registry) for name, registry in catalog.SECTIONS},
        **{name: [entry[0] for entry in table] for name, table in cli.TABLES},
    }
    # under each registry entry, the keys of its table
    tables = {(name, e.name): [row[0] for row in e.table] for name, registry in catalog.SECTIONS for e in registry.values()}
    assert {key: rows[key] for key in tables} == tables
    assert {f"{kind} params" for kind in cli.KIND_RUNNERS} <= set(listed)
    # each params row gives key, type, bound and default
    for row in (r"doubling\s+bool\s+-\s+true", r"count\s+int\s+>= 2\s+100000", r"measure\s+measure\s+-\s+required",
                r"quad_nodes\s+retired\s+-\s+ignored: the grid is sized", r"times\s+\[number\].*\s+\[T/2, T\]"):
        assert re.search(rf"^  {row}", out, re.M), row
    builders = {
        "measures": lambda name: catalog.build_measure({"name": name}),
        "fields": lambda name: catalog.build_field({"name": name}),
        "reactions": lambda name: catalog.polynomial_reaction({"name": name}),
        "densities": lambda name: catalog.build_density({"name": name}),
        "cylinders": catalog.build_cylinder,
        "time_factors": lambda name: catalog.build_time_factor(name, 1.0),
        "observables": catalog.build_cylinder,
    }
    for section, names in listed.items():
        if section not in builders:
            continue
        for name in names:
            builders[section](name)
    # every field, from its defaults and, for a Nemytskii field, with and
    # without a level, is a whole drift field: components, bounds, rows with
    # div F, and a delta recipe
    specs = [{"name": name} for name in catalog.FIELDS]
    specs += [{"name": name, "n_modes": 3, **level} for name in catalog.FIELDS if name.startswith("nemytskii:")
              for level in ({}, {"level": 2})]
    gauss = catalog.build_measure({"name": "gaussian", "n_modes": 4})
    for spec in specs:
        field = catalog.build_field(spec)
        k = field.n_components
        assert len(field.bounds) == k >= 1 and field.h_bound >= 0.0, spec
        rows, div = field.value_and_divergence(0.0, np.full((3, 4), 0.3))
        assert rows.shape == (3, k) and div.shape == (3,), spec
        assert fields_mod.delta_recipe(field, gauss, count=200) > 0.0, spec


CONFIGS = pathlib.Path(__file__).parents[1] / "scripts" / "configs"
# a problem on two of three Gaussian modes
PROBLEM_2D = {"measure": {"name": "gaussian", "n_modes": 3}, "N": 2, "field": {"name": "constant", "coeffs": [0.1]},
              "rho0": {"name": "bump", "centers": [0.0, 0.0], "radii": [0.5, 0.5]}}


def problem_params():
    return json.loads((CONFIGS / "entropy_audit.json").read_text())["params"]


def _fault(*args, **kwargs):
    raise ValueError("fault inside the numerics")


@pytest.mark.parametrize(
    "kind, module, name, replacement",
    [
        ("transport-solve", measures, "normalizing_constant", _fault),
        ("verify-suite", measures, "normalizing_constant", _fault),
        ("entropy-audit", measures, "normalizing_constant", _fault),
        ("bdg-check", spde, "as_rng", lambda *args: SimpleNamespace(standard_normal=_fault)),
    ],
)
def test_fault_inside_the_numerics_is_not_a_config_error(tmp_path, monkeypatch, kind, module, name, replacement):
    monkeypatch.setattr(module, name, replacement)
    params = {} if kind in ("verify-suite", "bdg-check") else problem_params()
    cfg = write_config(tmp_path, {"kind": kind, "params": params})
    with pytest.raises(ValueError, match="fault inside the numerics"):
        cli.main(["run", cfg, "--output", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "kind, change, path",
    [
        ("transport-solve", {"N": 2}, "params.N"),
        ("verify-suite", {"problems": [dict(problem_params(), id="p", N=2)]}, "params.problems[p].N"),
        ("entropy-audit", {"ladder": {"M": 0.5, "l": 4}}, "params.ladder.M"),
        ("transport-solve", {"ladder": {"M": 2, "l": 0}}, "params.ladder.l"),
        ("bdg-check", {"p": 2}, "params.p"),
        ("spde-invariant", {"reaction": {"name": "cubic", "c1": 0.5}}, "params.reaction.c1"),
        ("spde-invariant", {"reaction": {"name": "quintic", "c1": 0.5}}, "params.reaction.c1"),
        ("transport-solve", {"measure": {"name": "cauchy"}}, "params.measure"),
        ("transport-solve", {"rho0": {"name": "bump", "radii": [-0.5]}}, "params.rho0.radii"),
        ("entropy-audit", {"dt": "fine"}, "params.dt"),
        ("verify-suite", {"problems": [dict(problem_params(), id="p", T=0.0)]}, "params.problems[p].T"),
        ("transport-solve", {"test_function": {"g": "sawtooth"}}, "params.test_function"),
        # spec blocks that are not JSON objects
        ("entropy-audit", {"field": "swirl"}, "params.field"),
        ("verify-suite", {"problems": ["g1_const"]}, "params.problems[0]"),
        ("ibp-check", {"measure": "gibbs"}, "params.measure"),
        # an observable's k is an integer, not a number that rounds to one
        ("commutator-curve", {"u": "energy_soft", "u_args": {"k": 2.5}}, "params.u_args.k"),
        ("commutator-curve", {"u": "energy_soft", "u_args": {"k": True}}, "params.u_args.k"),
    ],
)
def test_spec_errors_exit_two_with_their_field_path(tmp_path, capsys, kind, change, path):
    params = {} if kind in ("verify-suite", "bdg-check", "spde-invariant") else problem_params()
    cfg = write_config(tmp_path, {"kind": kind, "params": {**params, **change}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_delta_too_large_suggests_a_delta_from_one_pilot_sample(tmp_path, capsys, monkeypatch):
    pilot = measures.integrability_constants
    calls = []
    monkeypatch.setattr(measures, "integrability_constants", lambda *a, **kw: calls.append(a) or pilot(*a, **kw))
    cfg = write_config(tmp_path, {"kind": "entropy-audit", "seed": 1, "params": {**problem_params(), "delta": 1e4}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert re.search(r"config error: params\.delta: .*suggested delta=0\.\d+", capsys.readouterr().err)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kind, params",
    [
        ("entropy-audit", {**problem_params(), "field": {"name": "nemytskii:neg_arctan"}}),
        ("commutator-curve", {"eps_grid": [0.04, 0.02], "n_mc": 20, "n_x": 8,
                              "field": {"name": "nemytskii:neg_arctan", "n_modes": 4}}),
    ],
    ids=["entropy-audit", "commutator-curve"],
)
def test_nemytskii_field_without_level_runs_to_its_verdicts(tmp_path, kind, params):
    cfg = write_config(tmp_path, {"kind": kind, "seed": 1, "params": params})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) in (0, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"] and set(report["verdicts"].values()) <= {"pass", "fail", "warn"}


@pytest.mark.parametrize("n_modes", [None, 3])
def test_commutator_curve_field_takes_the_spde_n_modes(n_modes):
    params = {"field": {"name": "nemytskii:neg_arctan"}, **({"n_modes": n_modes} if n_modes else {})}
    got = cli._read_params("commutator-curve", params)[0]
    assert got["field"].n_components == got["n_modes"] == (n_modes or 4)


def test_build_problem_reads_its_spec_through_the_problem_table():
    spec = catalog.default_problems("1d")[0]
    assert catalog.build_problem(spec)[0].n_modes == 1
    with pytest.raises(catalog.ConfigError) as err:
        catalog.build_problem(dict(spec, N=2))
    assert (err.value.path, err.value.msg) == ("N", "must be <= n_modes, got 2")
    with pytest.raises(catalog.ConfigError) as err:
        catalog.build_problem(dict(spec, ladder={"M": 0.5, "l": 4}))
    assert err.value.path == "ladder.M"


def test_unknown_field_names_its_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "transport-solve", "params": {**problem_params(), "field": {"name": "nemytskii:tan"}}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "config error: params.field: unknown field 'nemytskii:tan'" in capsys.readouterr().err


def verify_problem(**change):
    return {"problems": [dict(problem_params(), id="p", **change)]}


@pytest.mark.parametrize(
    "kind, change, path",
    [
        ("transport-solve", {"times": [0.0105]}, "params.times"),
        ("transport-solve", {"times": [0.75]}, "params.times"),
        ("transport-solve", {"eval_radius": "wide"}, "params.eval_radius"),
        ("entropy-audit", {"domain_radius": -1.0}, "params.domain_radius"),
        ("entropy-audit", {"tail_samples": "many"}, "params.tail_samples"),
        ("entropy-audit", {"cf_per_axis": 0}, "params.cf_per_axis"),
        ("entropy-audit", {"times": ["soon"]}, "params.times"),
        ("verify-suite", verify_problem(n_per_axis="fine"), "params.problems[p].n_per_axis"),
        ("verify-suite", verify_problem(times=0.25), "params.problems[p].times"),
        ("verify-suite", {"uniqueness": True, "uniqueness_tol": "tight"}, "params.uniqueness_tol"),
        ("spde-invariant", {"n_modes": "four"}, "params.n_modes"),
        ("spde-invariant", {"dt": "x"}, "params.dt"),
        ("spde-invariant", {"B_diag": "wide"}, "params.B_diag"),
        ("commutator-curve", {"eps_grid": ["x"]}, "params.eps_grid"),
        ("commutator-curve", {"eps_grid": 0.5}, "params.eps_grid"),
        ("transport-solve", {"seed": "abc"}, "seed"),
        ("transport-solve", {"workers": "two"}, "workers"),
        ("ibp-check", {"pairs": ["cos_m1"]}, "params.pairs[0]"),
        ("ibp-check", {"pairs": [["cos_m1", [0.5, "a"]]]}, "params.pairs[0]"),
        ("bdg-check", {"doubling": "no"}, "params.doubling"),
        # unknown keys, in params and at the top level
        ("gibbs-sample", {"cuont": 10}, "params.cuont"),
        ("bdg-check", {"n_mcc": 10}, "params.n_mcc"),
        ("bdg-check", {"sede": 1}, "sede"),
        # unknown keys inside registry blocks, and parameters of a plain cylinder
        ("gibbs-sample", {"measure": {"name": "gibbs", "n_modes": 2, "alpah": 2.0}}, "params.measure.alpah"),
        ("transport-solve", {"field": {"name": "constant", "coefs": [0.1]}}, "params.field.coefs"),
        ("transport-solve", {"rho0": {"name": "bump", "centres": [0.0], "radii": [0.5]}}, "params.rho0.centres"),
        ("verify-suite", verify_problem(test_function={"g": "linear_ramp", "h": "cos_m1"}), "params.problems[p].test_function.h"),
        ("commutator-curve", {"u": "cos_m1", "u_args": {"c": 5.0}}, "params.u_args.c"),
        ("commutator-curve", {"u_args": {"k": 2}}, "params.u_args.k"),
        # values the numerics cannot use: a field wider than the SPDE, and
        # observable parameters out of range (c = 0 read every commutator as 0)
        ("commutator-curve", {"field": {"name": "constant", "coeffs": [0.1] * 5}}, "params.field"),
        ("commutator-curve", {"u": "energy_soft", "u_args": {"k": 0}}, "params.u_args.k"),
        ("commutator-curve", {"u_args": {"c": 0}}, "params.u_args.c"),
        ("commutator-curve", {"u": "energy_soft", "u_args": {"c": -1.0}}, "params.u_args.c"),
        # registry values that ended in a traceback, or were reported at the
        # block or as a failed check
        ("gibbs-sample", {"measure": {"name": "gibbs", "n_modes": 0}}, "params.measure.n_modes"),
        ("gibbs-sample", {"measure": {"name": "gibbs", "n_modes": 2, "alpha": "nan"}}, "params.measure.alpha"),
        ("spde-invariant", {"reaction": {"name": "cubic", "c1": "nan"}}, "params.reaction.c1"),
        ("commutator-curve", {"u_args": {"c": "x"}}, "params.u_args.c"),
        ("gibbs-sample", {"measure": {"name": "gibbs", "alpha": "x"}}, "params.measure.alpha"),
        ("transport-solve", {"rho0": {"name": "bump", "centers": [0.0], "radii": [0.5], "height": -1}}, "params.rho0.height"),
        # a problem field wider than N
        ("transport-solve", {"field": {"name": "constant", "coeffs": [0.1, 0.2]}}, "params.field"),
        ("entropy-audit", {"field": {"name": "constant", "coeffs": [0.1, 0.2]}}, "params.field"),
        ("transport-solve", {"field": {"name": "swirl"}}, "params.field"),
        ("entropy-audit", {**PROBLEM_2D, "N": 2, "field": {"name": "nemytskii:neg_arctan", "n_modes": 3}}, "params.field"),
        ("verify-suite", verify_problem(field={"name": "swirl"}), "params.problems[p].field"),
        # rho0 on other than N coordinates
        ("transport-solve", {**PROBLEM_2D, "rho0": {"name": "bump", "centers": [0.0], "radii": [0.5]}}, "params.rho0.centers"),
        ("transport-solve", {"rho0": {"name": "bump", "centers": [0.0, 0.0], "radii": [0.5, 0.5]}}, "params.rho0.centers"),
        # a weak-form time step off a problem's dt grid: 7 rounds up to 8, and 0.5/8 is not a multiple of 1e-3
        ("verify-suite", {"n_time": 7}, "params.n_time"),
        # the bounds of the registry tables
        ("gibbs-sample", {"measure": {"name": "gaussian", "n_modes": 0}}, "params.measure.n_modes"),
        ("gibbs-sample", {"measure": {"name": "gibbs", "alpha": -1.0}}, "params.measure.alpha"),
        ("gibbs-sample", {"measure": {"name": "gibbs", "p": 2}}, "params.measure.p"),
        ("transport-solve", {"rho0": {"name": "bump", "centers": [0.0], "radii": [0.5, 0.5]}}, "params.rho0.radii"),
        ("transport-solve", {"field": {"name": "nemytskii:neg_arctan", "level": 2}}, "params.field.level"),
        ("transport-solve", {"field": {"name": "nemytskii:neg_arctan", "n_modes": 0}}, "params.field.n_modes"),
        ("transport-solve", {"field": {"name": "zero", "k": 0}}, "params.field.k"),
        ("transport-solve", {"field": {"name": "constant", "coeffs": []}}, "params.field.coeffs"),
        ("commutator-curve", {"u_args": {"c": "nan"}}, "params.u_args.c"),
        # a null block is not a JSON object, also where the table has a default block
        ("spde-invariant", {"reaction": None}, "params.reaction"),
        ("commutator-curve", {"reaction": None}, "params.reaction"),
        # true is not a direction index
        ("ibp-check", {"pairs": [["cos_m1", True]]}, "params.pairs[0]"),
        # JSON numbers only, also where a key's type is its own
        ("ibp-check", {"pairs": [["cos_m1", [True, False]]]}, "params.pairs[0]"),
        ("transport-solve", {"N": True}, "params.N"),
        ("transport-solve", {"N": 1.5}, "params.N"),
        ("verify-suite", {"n_time": 20.0}, "params.n_time"),
        ("transport-solve", {"times": ["0.25"]}, "params.times"),
        ("commutator-curve", {"eps_grid": [True]}, "params.eps_grid"),
        ("transport-solve", {"rho0": {"name": "bump", "centers": ["0"], "radii": [0.5]}}, "params.rho0.centers"),
        ("transport-solve", {"field": {"name": "constant", "coeffs": True}}, "params.field.coeffs"),
    ],
)
def test_bad_values_exit_two_before_the_numerics_run(tmp_path, capsys, monkeypatch, kind, change, path):
    # a value checked only after the numerics start would meet this fault first
    monkeypatch.setattr(measures, "normalizing_constant", _fault)
    params = problem_params() if kind in ("transport-solve", "entropy-audit") else {}
    if path.startswith("params"):
        cfg = write_config(tmp_path, {"kind": kind, "params": {**params, **change}})
    else:
        cfg = write_config(tmp_path, {"kind": kind, "params": params, **change})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


# values that are not JSON numbers of the key's type, though int(), float()
# or np.asarray would read most of them as 1, 2, 3 or 0.01
NOT_OF_TYPE = {
    catalog.INT: [True, 2.7, 3.0, "3"],
    catalog.FLOAT: [True, "0.01", None, [0.5]],
    catalog.NUMBERS: [True, "1", [True], ["1"], [[1.0]], []],
}
# (kind, measure name or None, key) of every such key of a params table and of
# a measure table
NUMBER_KEYS = [
    (kind, None, key) for kind, table in cli.PARAMS.items() for key, t, _, _ in table if t in NOT_OF_TYPE
] + [
    ("gibbs-sample", name, key) for name, entry in catalog.MEASURES.items() for key, t, _, _ in entry.table if t in NOT_OF_TYPE
]


@pytest.mark.parametrize("kind, measure, key", NUMBER_KEYS,
                         ids=[f"{kind}.{key}" if m is None else f"measure:{m}.{key}" for kind, m, key in NUMBER_KEYS])
def test_number_keys_take_only_json_numbers_of_their_type(tmp_path, capsys, monkeypatch, kind, measure, key):
    monkeypatch.setattr(measures, "normalizing_constant", _fault)
    params = problem_params() if kind in ("transport-solve", "entropy-audit") else {}
    table = cli.PARAMS[kind] if measure is None else catalog.MEASURES[measure].table
    for bad in NOT_OF_TYPE[next(t for k, t, _, _ in table if k == key)]:
        change = {key: bad} if measure is None else {"measure": {"name": measure, key: bad}}
        cfg = write_config(tmp_path, {"kind": kind, "params": {**params, **change}})
        assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2, bad
        path = f"params.{key}" if measure is None else f"params.measure.{key}"
        assert f"config error: {path}: must be " in capsys.readouterr().err, bad


def test_number_keys_cover_every_table():
    assert {kind for kind, _, _ in NUMBER_KEYS} == set(cli.PARAMS)
    assert {m for _, m, _ in NUMBER_KEYS} == {None, *catalog.MEASURES}


@pytest.mark.parametrize("kind", ["spde-invariant", "commutator-curve"])
def test_yosida_alpha_is_an_unknown_key(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, {"kind": kind, "params": {"yosida_alpha": 0.3}})
    assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "config error: params.yosida_alpha: unknown key" in capsys.readouterr().err
    assert cli.main(["list-catalog"]) == 0
    assert "yosida" not in capsys.readouterr().out


def test_constant_field_takes_a_number_as_its_one_coefficient(tmp_path):
    reports = []
    for coeffs in (0.1, [0.1]):
        params = {**problem_params(), "field": {"name": "constant", "coeffs": coeffs}}
        cfg = write_config(tmp_path, {"kind": "entropy-audit", "seed": 1, "params": params})
        assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_every_shipped_config_passes_the_tables():
    root = pathlib.Path(__file__).parents[1]
    configs = {str(p.relative_to(root)): json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    for p in sorted((root / "perfbench" / "workloads").glob("*.json")):
        configs[str(p.relative_to(root))] = json.loads(p.read_text())["config"]
    warned = {}
    for name, cfg in configs.items():
        top = catalog.read(cli.TOP, cfg)
        _, warnings = cli._read_params(top["kind"], top["params"])
        if warnings:
            warned[name] = warnings
    assert len(configs) == 11
    assert warned == {
        "perfbench/workloads/commutator.json": [
            "params.quad_nodes is ignored: the grid is sized from n_modes and the reaction degree"
        ]
    }


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_verify_1d_runs_in_one_heap_mode(tmp_path):
    # With glibc's dynamic thresholds a verify-1d run either kept its heap
    # top (about 6k minor page faults) or trimmed and regrew it around every
    # ladder call (118k or more), depending on its allocation history down to
    # the length of its output path. cli.main fixes the thresholds.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(refflow.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    for length in (1, 20, 60):
        out = tmp_path / ("o" * length)
        cmd = [sys.executable, "-m", "refflow.cli", "run", str(CONFIGS / "verify_suite_1d.json"), "--output", str(out)]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert usage.ru_minflt < 30000, (length, usage.ru_minflt)
