"""Command-line front end.

    refflow run CONFIG.json [--workers K] [--output DIR] [--seed S]
    refflow list-catalog

A run reads a JSON config with a "kind" field and writes three kinds of
artifact into the output directory: manifest.json (config hash, package
version, wall clock, verdict per check, warning flags, list of outputs),
report.json (all computed numbers, deterministic for a fixed seed), and one
or more CSV files with the raw per-check values.

Exit codes: 0 success (inconclusive statistics downgrade to a warning flag,
not a failure), 1 at least one check failed, 2 config validation error,
3 a proved inequality was violated numerically.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__ as ARTIFACT_VERSION
from . import catalog
from . import fields as fields_mod
from . import measures, spde, transport, verify
from .catalog import (
    BOOL, FLOAT, INT, LADDER, MEASURE, NUMBERS, OBJECT, PROBLEM, REQUIRED, RETIRED, STR, ConfigError, Derived, _at, _expect,
    _numbers, _steps, read,
)
from .rng import map_units, stream
from .verify import _jsonable


# ---------------------------------------------------------------------------
# parameter tables, read through catalog.read once before any runner code runs


def _read_params(kind, params):
    """kind's typed params, and the report warnings of the retired keys among them."""
    values = _at("params", read, PARAMS[kind], params)
    return values, [f"params.{key} is ignored: {why}" for key, t, _, why in PARAMS[kind] if t is RETIRED and key in params]


def _kept(check):
    """A coerce that keeps the raw value, once check(raw, got) has passed."""
    def coerce(raw, got):
        check(raw, got)
        return raw
    return coerce


def _pair(entry, n_modes):
    """(name, cylinder, h as a coefficient vector, h as given) of a [cylinder, index | vector] entry."""
    name, h = _expect(isinstance(entry, (list, tuple)) and len(entry) == 2, "[cylinder, index | vector]", entry)
    _expect(not isinstance(h, bool), "an index or a vector, not true or false", h)
    if isinstance(h, int):
        i = _expect(0 <= h < n_modes, f"an index in 0..{n_modes - 1}", h)
        return name, catalog.build_cylinder(name), np.eye(n_modes)[i], h
    h_arg = _numbers(h)
    _expect(h_arg.ndim == 1 and h_arg.size <= n_modes, f"a vector of at most n_modes={n_modes} numbers", h)
    return name, catalog.build_cylinder(name), h_arg, h


def _problems(raw, got):
    """The problems of the named set, or of the list raw, each read through PROBLEM."""
    specs = catalog.default_problems(raw) if isinstance(raw, str) else raw
    return [_at(f"[{spec.get('id', 'problem') if isinstance(spec, dict) else i}]", read, PROBLEM, spec)
            for i, spec in enumerate(_expect(isinstance(specs, list), "a problem set name or a list of problems", specs))]


def _n_time(raw, got):
    """The integer raw, whose Simpson step in weak_residual is on each problem's
    dt grid; an n_time below 1 is left to its bound."""
    n_time = INT[1](raw, got)
    for problem in got["problems"] if n_time >= 1 else ():
        try:
            verify.simpson_step(transport.FlowConfig(problem["dt"], problem["T"]), n_time)
        except transport.StepMismatchError as exc:
            raise ValueError(f"problem {problem['id']}: {exc}") from exc
    return n_time


GIBBS_4 = {"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0}


def _spde(n_modes, dt, reaction, why_no_T):
    """The fields of an SpdeConfig, and the retired path length T, which the
    kind sets itself (why_no_T says how); an SpdeConfig of the ones read so
    far checks B_diag."""
    b_diag = lambda raw, got: spde.SpdeConfig(  # noqa: E731
        got["n_modes"], got["dt"], tuple(np.atleast_1d(_numbers(raw)))).B_diag
    return (
        ("n_modes", INT, ">= 1", n_modes),
        ("dt", FLOAT, "> 0", dt),
        ("T", RETIRED, "", why_no_T),
        ("B_diag", ("number | [number], 1 or n_modes of them", b_diag), "> 0", 1.0),
        ("reaction", ("reaction", lambda raw, got: catalog.polynomial_reaction(raw)), "", reaction),
        ("quad_nodes", RETIRED, "", "the grid is sized from n_modes and the reaction degree"),
    )


PARAMS = {
    "transport-solve": PROBLEM + (
        ("eval_per_axis", INT, ">= 1", 21),
        ("eval_radius", FLOAT, "> 0", Derived("support radius")),
    ),
    "verify-suite": (
        ("problems", ("1d | 2d | all | [problem]", _problems), "", "1d"),
        ("n_time", ("int, its Simpson step on each dt grid", _n_time), ">= 1", 20),
        ("uniqueness", BOOL, "", False),
        ("uniqueness_tol", FLOAT, "> 0", 1e-2),
    ),
    "ibp-check": (
        ("measure", MEASURE, "", GIBBS_4),
        ("count", INT, ">= 2", 100000),
        ("pairs", ("[[cylinder, index | [number]]]", lambda raw, got: [
            _at(f"[{i}]", _pair, entry, got["measure"].n_modes) for i, entry in enumerate(raw)]), "", catalog.IBP_PAIRS),
    ),
    "gibbs-sample": (
        ("measure", MEASURE, "", GIBBS_4),
        ("count", INT, ">= 2", 2000),
    ),
    "spde-invariant": _spde(32, 1e-3, {"name": "ou"}, "the chain runs burn_in + count * thinning steps") + (
        ("burn_in", INT, "", Derived("6 relaxation times")),
        ("count", INT, ">= 4 (two draws per half of the chain)", 2000),
        ("thinning", INT, ">= 1", 5),
    ),
    "commutator-curve": _spde(4, 2e-3, {"name": "cubic", "c1": -1.0}, "the paths run to max(eps_grid)") + (
        ("eps_grid", ("[number] on the dt grid in [0, 1]",
                      lambda raw, got: _steps(got["dt"], 1.0, raw)), "> 0", [0.5, 0.2, 0.1, 0.05, 0.02]),
        ("u", ("cylinder", _kept(lambda raw, got: catalog.build_cylinder(raw))), "", "mode1_soft"),
        ("u_args", ("object", _kept(lambda raw, got: catalog.build_cylinder(got["u"], **catalog.spec_block(raw)))), "", {}),
        ("field", ("field of at most n_modes components",
                   lambda raw, got: catalog.build_field(raw, got["n_modes"], got["n_modes"])), "", {"name": "constant", "coeffs": [0.1]}),
        ("n_mc", INT, ">= 1", 2000),
        ("n_x", INT, ">= 4 (two base points per half of the chain)", 200),
        ("thinning", INT, ">= 1", Derived("1 relaxation time")),
    ),
    "bdg-check": (
        ("p", FLOAT, ">= 4", 4),
        ("phi", NUMBERS, "", 1.0),
        ("t", FLOAT, "> 0", 1.0),
        ("n_mc", INT, ">= 2", 20000),
        ("n_steps", INT, ">= 1", 512),
        ("doubling", BOOL, "", True),
    ),
    "entropy-audit": PROBLEM + (
        ("domain_radius", FLOAT, "> 0", Derived("support radius + 1")),
        ("tail_samples", INT, ">= 0", 1),
        ("cf_per_axis", INT, ">= 1", 96),
        ("delta", FLOAT, "> 0", Derived("fields.delta_recipe")),
    ),
}

TOP = (
    ("kind", ("kind", lambda raw, got: _expect(raw in PARAMS, f"one of {', '.join(PARAMS)}", raw)), "", REQUIRED),
    ("params", OBJECT, "", {}),
    ("seed", INT, "", 0),
    ("workers", INT, ">= 1", 1),
    ("output", STR, "", Derived("runs/<kind>", lambda got: os.path.join("runs", got["kind"]))),
)

# the tables as list-catalog prints them
TABLES = (("config", TOP), *((f"{kind} params", table) for kind, table in PARAMS.items()),
          ("problems[]", PROBLEM), ("ladder", LADDER), ("test_function", catalog.TEST_FUNCTION))


def _fmt(v):
    return f"{float(v):.17g}"


def _write_csv(outdir, name, header, rows):
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return name


# ---------------------------------------------------------------------------
# runners; each returns dict(verdicts=..., warnings=..., details=..., outputs=...)


SAMPLER_ERRORS = (measures.SamplerDegenerateError, measures.NotThinnableError)


def _checked(reps):
    """The verdicts and details of (key, check report) pairs."""
    return {k: "pass" if r.passed else "fail" for k, r in reps}, {k: r.to_dict() for k, r in reps}


def run_ibp_check(params, seed, workers, outdir):
    m, count = params["measure"], params["count"]

    def one(item):
        i, (uname, u, h_arg, h) = item
        rng = stream(seed, "ibp-check", uname, i)
        return uname, h, _at("params.measure", measures.ibp_residual, m, u, h_arg, count, rng, errors=SAMPLER_ERRORS)

    results = map_units(one, list(enumerate(params["pairs"])), workers)
    verdicts, details, rows = {}, {}, []
    for uname, h, rep in results:
        key = f"ibp[{uname}]"
        verdicts[key] = "pass" if rep.passed else "fail"
        details[key] = {"residual": rep.residual, "stderr": rep.stderr, "count": rep.count, "h": h}
        rows.append([uname, json.dumps(h), _fmt(rep.residual), _fmt(rep.stderr), str(rep.passed)])
    out = _write_csv(outdir, "ibp_residuals.csv", ["u", "h", "residual", "stderr", "passed"], rows)
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_gibbs_sample(params, seed, workers, outdir):
    m, count = params["measure"], params["count"]
    rng = stream(seed, "gibbs-sample", "chain")
    samples = _at("params.measure", measures.sample_gibbs, m, count, rng, errors=SAMPLER_ERRORS)
    energy = (samples ** 2).sum(axis=1)
    rho1 = measures.lag1_autocorrelation(energy)
    header = [f"mode_{j + 1}" for j in range(m.n_modes)]
    out = _write_csv(outdir, "samples.csv", header, [[_fmt(v) for v in row] for row in samples])
    verdicts = {"sampler": "pass" if abs(rho1) < 0.1 else "fail"}
    details = {
        "count": count,
        "lag1_autocorrelation_energy": rho1,
        "mode_means": samples.mean(axis=0),
        "mode_stds": samples.std(axis=0, ddof=1),
    }
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_transport_solve(params, seed, workers, outdir):
    config, reference = catalog.flow(params)
    N, times = params["N"], params["times"]
    sol = transport.solve(params["rho0"], params["field"], reference, config, N=N)
    R = sol.support_radius if params["eval_radius"] is None else params["eval_radius"]
    axes = [np.linspace(-R, R, params["eval_per_axis"])] * N
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    grid = [0.0] + times
    rows = [[f"{t:.12g}"] + [f"{c:.12g}" for c in row] + [f"{v:.17g}"]
            for t, rho in zip(grid, transport.feynman_kac_many(sol, grid, pts)) for row, v in zip(pts, rho)]
    out_density = _write_csv(outdir, "density.csv", ["t"] + [f"x{i + 1}" for i in range(N)] + ["rho"], rows)
    reps = [verify.mass_conservation(sol, t, n_per_axis=params["n_per_axis"]) for t in times]
    rows = [[_fmt(t), _fmt(rep.residual), _fmt(rep.tolerance), str(rep.passed)] for t, rep in zip(times, reps)]
    out_mass = _write_csv(outdir, "mass.csv", ["t", "relative_drift", "tolerance", "passed"], rows)
    verdicts, details = _checked([(rep.name, rep) for rep in reps])
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out_density, out_mass]}


def run_verify_suite(params, seed, workers, outdir):
    def one(problem):
        config, reference = catalog.flow(problem)
        rho0, field, times, npa = (problem[k] for k in ("rho0", "field", "times", "n_per_axis"))
        sol = transport.solve(rho0, field, reference, config)
        reps = [verify.weak_residual(sol, problem["test_function"], n_time=params["n_time"], n_per_axis=npa)]
        reps += [verify.mass_conservation(sol, t, n_per_axis=npa) for t in times]
        if params["uniqueness"]:
            refs = [reference.source, measures.ladder(reference.source, 8, 16)]
            reps.append(verify.uniqueness_probe(rho0, field, refs, config, times, tol=params["uniqueness_tol"], seed=seed))
        return problem["id"], reps

    results = map_units(one, params["problems"], workers)
    verdicts, details = _checked([(f"{pid}:{rep.name}", rep) for pid, reps in results for rep in reps])
    rows = [[pid, r.name, _fmt(r.residual), _fmt(r.tolerance), str(r.passed)] for pid, reps in results for r in reps]
    out = _write_csv(outdir, "checks.csv", ["problem", "check", "residual", "tolerance", "passed"], rows)
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_entropy_audit(params, seed, workers, outdir):
    config, reference = catalog.flow(params)
    m, field, times = params["measure"], params["field"], params["times"]
    delta = params["delta"]
    if delta is None:
        delta = _at("params.field", fields_mod.delta_recipe, field, m, errors=fields_mod.UnboundedFieldError)
    sol = transport.solve(params["rho0"], field, reference, config, N=params["N"])
    radius = sol.support_radius + 1.0 if params["domain_radius"] is None else params["domain_radius"]
    cf = _at(
        "params.delta", fields_mod.cf_delta, field, reference.source, delta, config.T, errors=fields_mod.DeltaTooLargeError,
        tail_samples=params["tail_samples"], seed=seed, domain_radius=radius, n_per_axis=params["cf_per_axis"],
    )
    reps = [verify.entropy_bound_check(sol, t, delta, cf.estimate, n_per_axis=params["n_per_axis"]) for t in times]
    verdicts, details = _checked([(rep.name, rep) for rep in reps])
    details["cf"] = {k: getattr(cf, k) for k in ("estimate", "delta", "domain_radius", "tail_count", "max_at_grid_edge")}
    details["cf"]["per_pair"] = {f"M={M},l={l}": v for (M, l), v in sorted(cf.per_pair.items())}
    warnings = ["cf grid maximum attained at the edge of the (M,l) grid"] if cf.max_at_grid_edge else []
    terms = ["left", "right", "initial_term", "cf_term", "log_delta_term", "clip_volume_term", "psi_total_term"]
    rows = [[_fmt(t)] + [_fmt(rep.metadata[term]) for term in terms] for t, rep in zip(times, reps)]
    out = _write_csv(outdir, "entropy.csv", ["t"] + terms, rows)
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


def _spde_setup(params):
    """The SpdeConfig of params."""
    return spde.SpdeConfig(params["n_modes"], params["dt"], params["B_diag"], params["reaction"])


def run_spde_invariant(params, seed, workers, outdir):
    config = _spde_setup(params)
    burn_in = spde.relaxation_steps(config, 6.0) if params["burn_in"] is None else params["burn_in"]
    samples, rep = _at(
        "params.burn_in", spde.sample_invariant,
        config, burn_in, params["count"], params["thinning"], stream(seed, "spde-invariant", "chain"), errors=spde.BurnInError,
    )
    header = [f"mode_{j + 1}" for j in range(config.n_modes)]
    out = _write_csv(outdir, "samples.csv", header, [[_fmt(v) for v in row] for row in samples])
    verdicts = {"stationary": "pass" if rep.stationary else "fail"}
    details = {
        "l2_moment": rep.l2_moment, "l2_stderr": rep.l2_stderr,
        "l4_moment": rep.l4_moment, "l4_stderr": rep.l4_stderr,
        "first_half_l2": rep.first_half_l2, "second_half_l2": rep.second_half_l2,
        "count": rep.count,
    }
    if not config.has_reaction:
        expected = float((config.b_array ** 2 / (2.0 * config.rates)).sum())
        details["l2_expected_ou"] = expected
        ok = abs(rep.l2_moment - expected) <= 4.0 * rep.l2_stderr
        verdicts["ou-second-moment"] = "pass" if ok else "fail"
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_commutator_curve(params, seed, workers, outdir):
    eps_grid = params["eps_grid"]
    config = _spde_setup(params)
    rep = spde.commutator_decay_curve(
        config, catalog.build_cylinder(params["u"], **params["u_args"]), params["field"], eps_grid, params["n_mc"], params["n_x"], seed,
        thinning=params["thinning"], workers=workers,
    )
    n_samples = params["n_x"] * params["n_mc"]
    rows = [[_fmt(eps), _fmt(e.estimate), _fmt(e.stderr), str(n_samples)] for eps, e in rep.estimates]
    out = _write_csv(outdir, "commutator_curve.csv", ["eps", "value", "stderr", "n_samples"], rows)
    verdicts = {"decay": "pass" if rep.trend_established else "warn"}
    warnings = []
    if not rep.trend_established:
        warnings.append("decay trend not established at this sampling budget (inconclusive, not a failure)")
    if not rep.stationary:
        warnings.append(
            "the invariant-measure chain of the base points failed its 3-sigma stationarity check"
            " (first vs second half of |x|^2)"
        )
    details = {
        "estimates": [
            {"eps": eps, "value": e.estimate, "stderr": e.stderr, "n_samples": n_samples} for eps, e in rep.estimates
        ],
        "drop": rep.drop, "drop_stderr": rep.drop_stderr,
        "trend_established": rep.trend_established,
    }
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


def run_bdg_check(params, seed, workers, outdir):
    p, phi, t, n_mc, n_steps = (params[k] for k in ("p", "phi", "t", "n_mc", "n_steps"))
    runs = [n_mc, 2 * n_mc] if params["doubling"] else [n_mc]
    reps = [(n, spde.bdg_check(p, phi, t, n, stream(seed, "bdg-check", "mc", k), n_steps)) for k, n in enumerate(runs, 1)]
    rows = [
        [str(n), _fmt(r.ratio), _fmt(r.bound), _fmt(r.numerator), _fmt(r.numerator_stderr), _fmt(r.denominator)]
        for n, r in reps
    ]
    out = _write_csv(outdir, "bdg.csv", ["n_mc", "ratio", "bound", "numerator", "numerator_stderr", "denominator"], rows)
    verdicts, warnings = {}, []
    degenerate = any(r.degenerate for _, r in reps)
    if degenerate:
        verdicts["bdg-bound"] = "warn"
        warnings.append("integrand is identically zero; ratio undefined (degenerate case)")
    else:
        verdicts["bdg-bound"] = "pass" if all(r.ratio <= r.bound for _, r in reps) else "fail"
        if len(reps) == 2:
            r1, r2 = reps[0][1].ratio, reps[1][1].ratio
            verdicts["bdg-stable"] = "pass" if abs(r1 - r2) <= 0.5 * max(r1, r2) else "fail"
    details = {
        "p": p,
        "runs": [
            {"n_mc": n, "ratio": r.ratio, "bound": r.bound, "margin": r.margin,
             "numerator": r.numerator, "numerator_stderr": r.numerator_stderr,
             "denominator": r.denominator, "degenerate": r.degenerate}
            for n, r in reps
        ],
    }
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


# the runner of each kind of PARAMS: run_<kind with "_" for "-">
KIND_RUNNERS = {kind: globals()["run_" + kind.replace("-", "_")] for kind in PARAMS}


# ---------------------------------------------------------------------------
# orchestration


def load_config(path):
    """The JSON object of the config file at path."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("config", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    return cfg


def run_experiment(cfg, outdir, seed, workers):
    kind = cfg["kind"]
    params, warnings = _read_params(kind, cfg.get("params", {}))
    os.makedirs(outdir, exist_ok=True)
    canonical = json.dumps({**cfg, "seed": seed}, sort_keys=True, separators=(",", ":"))

    t0 = time.perf_counter()
    try:
        result = KIND_RUNNERS[kind](params, seed, workers, outdir)
        exit_code = 1 if "fail" in result["verdicts"].values() else 0
    except verify.TheoremViolationError as exc:
        result = {"verdicts": {"theorem": "violation"}, "warnings": [], "details": {"violation": str(exc)}, "outputs": []}
        exit_code = 3
    wall = time.perf_counter() - t0
    verdicts, warnings = result["verdicts"], warnings + result["warnings"]

    report = {"kind": kind, "seed": seed, "verdicts": verdicts, "warnings": warnings, "details": _jsonable(result["details"])}
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "kind": kind,
        "seed": seed,
        "workers": workers,
        "config_hash": hashlib.sha256(canonical.encode("utf8")).hexdigest(),
        "artifact_version": ARTIFACT_VERSION,
        "wall_clock_seconds": wall,
        "verdicts": verdicts,
        "warnings": warnings,
        "has_warnings": bool(warnings),
        "outputs": sorted(set(result["outputs"] + ["report.json"])) + ["manifest.json"],
        "exit_code": exit_code,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _parser():
    parser = argparse.ArgumentParser(prog="refflow", description="continuity-equation laboratory: solve, sample and check")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON experiment config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--workers", type=int, default=None, help="worker threads (default: config or 1)")
    run_p.add_argument("--output", default=None, help="output directory (default: config or runs/<kind>)")
    run_p.add_argument("--seed", type=int, default=None, help="root seed override")
    sub.add_parser("list-catalog", help="print the registered building blocks and the parameter tables")
    return parser


# glibc malloc's thresholds, fixed for the whole run. Left dynamic, the trim
# threshold follows the largest freed mmapped chunk, and a run either keeps
# its heap top or trims and regrows it around every ladder call: about 6k or
# 118k minor page faults, by the lottery of its allocation history.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_THRESHOLDS = ((M_MMAP_THRESHOLD, 1 << 20), (M_TRIM_THRESHOLD, 8 << 20))


def _fix_heap():
    """Set HEAP_THRESHOLDS through mallopt; nothing where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in HEAP_THRESHOLDS:
        mallopt(param, value)


def main(argv=None):
    _fix_heap()
    args = _parser().parse_args(argv)
    if args.command == "list-catalog":
        print(catalog.catalog_text())
        print(catalog.columns_text([(name, catalog.table_rows(table)) for name, table in TABLES]))
        return 0
    try:
        cfg = load_config(args.config)
        given = {k: v for k, v in vars(args).items() if k in ("seed", "workers", "output") and v is not None}
        top = read(TOP, {**cfg, **given})
        outdir = top["output"]
        manifest = run_experiment(cfg, outdir, top["seed"], top["workers"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name, verdict in manifest["verdicts"].items():
        print(f"{name}: {verdict}")
    for w in manifest["warnings"]:
        print(f"warning: {w}")
    print(f"wrote {os.path.join(outdir, 'manifest.json')}")
    return manifest["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
