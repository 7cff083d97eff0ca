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
from .rng import map_units, stream
from .verify import _jsonable

KINDS = (
    "transport-solve",
    "verify-suite",
    "ibp-check",
    "gibbs-sample",
    "spde-invariant",
    "commutator-curve",
    "bdg-check",
    "entropy-audit",
)


class ConfigError(ValueError):
    """Invalid config content; the message carries the offending field path."""


def _validated(path, fn, *args, **kw):
    """fn(*args, **kw), with a KeyError, TypeError or ValueError it raises
    turned into a ConfigError at path; wrap only the reading of a config
    value, never numerics, or a fault in them would exit 2."""
    try:
        return fn(*args, **kw)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _spec(path, fn, spec, **kw):
    """fn(spec, **kw) of catalog, whose spec errors (raised before any
    numerics run) become ConfigErrors under path."""
    try:
        return fn(spec, **kw)
    except catalog.SpecError as exc:
        raise ConfigError(f"{path}.{exc.field}: {exc}" if exc.field else f"{path}: {exc}") from exc


def _problem(path, spec):
    return _spec(path, catalog.build_problem, spec, ladder_spec=spec.get("ladder"))


def _times(path, raw, config):
    """The times at path as floats, each a whole number of config's ODE
    steps inside [0, T]."""
    times = _validated(path, lambda ts: [float(t) for t in ts], raw)
    for t in times:
        _validated(path, config.n_steps, t)
        if t > config.T + 1e-12:
            raise ConfigError(f"{path}: time {t} is past T={config.T}")
    return times


def _count(path, raw, low):
    """int(raw), checked to be at least low."""
    value = _validated(path, int, raw)
    if not value >= low:
        raise ConfigError(f"{path}: must be at least {low}, got {value}")
    return value


def _positive(path, raw):
    """float(raw), checked to be positive."""
    value = _validated(path, float, raw)
    if not value > 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _fmt(v):
    return f"{float(v):.17g}"


def _write_csv(outdir, name, header, rows):
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return name


# ---------------------------------------------------------------------------
# runners; each returns dict(verdicts=..., warnings=..., details=..., outputs=...)


def run_ibp_check(params, seed, workers, outdir):
    m = _validated(
        "params.measure",
        catalog.build_measure,
        params.get("measure", {"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0}),
    )
    count = _validated("params.count", int, params.get("count", 100000))
    if count < 2:
        raise ConfigError("params.count: need at least 2 samples")
    pair_specs = params.get("pairs")
    if pair_specs is None:
        pair_specs = [[name, h if isinstance(h, int) else list(h)] for name, h in catalog.IBP_PAIRS]

    def one(item):
        i, (uname, h) = item
        u = _validated(f"params.pairs[{i}]", catalog.build_cylinder, uname)
        if isinstance(h, (int, np.integer)):
            if not 0 <= int(h) < m.n_modes:
                raise ConfigError(f"params.pairs[{i}]: direction index {h} outside 0..{m.n_modes - 1}")
            h_arg = int(h)
        else:
            h_arg = np.asarray(h, dtype=float)
            if h_arg.size > m.n_modes:
                raise ConfigError(f"params.pairs[{i}]: direction vector longer than n_modes={m.n_modes}")
        try:
            rep = measures.ibp_residual(m, u, h_arg, count, stream(seed, "ibp-check", uname, i))
        except (measures.SamplerDegenerateError, measures.NotThinnableError) as exc:
            raise ConfigError(f"params.measure: {exc}") from exc
        return uname, h, rep

    results = map_units(one, list(enumerate(pair_specs)), workers)
    verdicts, details, rows = {}, {}, []
    for uname, h, rep in results:
        key = f"ibp[{uname}]"
        verdicts[key] = "pass" if rep.passed else "fail"
        details[key] = {"residual": rep.residual, "stderr": rep.stderr, "count": rep.count, "h": h}
        rows.append([uname, json.dumps(h), _fmt(rep.residual), _fmt(rep.stderr), str(rep.passed)])
    out = _write_csv(outdir, "ibp_residuals.csv", ["u", "h", "residual", "stderr", "passed"], rows)
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_gibbs_sample(params, seed, workers, outdir):
    m = _validated(
        "params.measure",
        catalog.build_measure,
        params.get("measure", {"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0}),
    )
    count = _validated("params.count", int, params.get("count", 2000))
    if count < 2:
        raise ConfigError("params.count: need at least 2 samples")
    try:
        samples = measures.sample_gibbs(m, count, stream(seed, "gibbs-sample", "chain"))
    except (measures.SamplerDegenerateError, measures.NotThinnableError) as exc:
        raise ConfigError(f"params.measure: {exc}") from exc
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


def _require(params, *keys):
    for key in keys:
        if key not in params:
            raise ConfigError(f"params.{key}: required")


def run_transport_solve(params, seed, workers, outdir):
    _require(params, "measure", "N", "field", "rho0")
    config = _spec("params", catalog.problem_config, params)
    times = _times("params.times", params.get("times", [config.T / 2.0, config.T]), config)
    n_eval = _validated("params.eval_per_axis", int, params.get("eval_per_axis", 21))
    R = _positive("params.eval_radius", params["eval_radius"]) if "eval_radius" in params else None
    npa = _count("params.n_per_axis", params["n_per_axis"], 1) if "n_per_axis" in params else None
    m, reference, field, rho0, config, _u = _problem("params", params)
    probe = transport.TransportSolution(rho0=rho0, field=field, reference=reference, config=config, N=int(params["N"]))
    R = probe.support_radius if R is None else R
    axes = [np.linspace(-R, R, n_eval)] * probe.N
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    sol = transport.solve(rho0, field, reference, config, time_grid=[0.0] + times, eval_points=pts, N=probe.N)
    out_density = "density.csv"
    sol.write_csv(os.path.join(outdir, out_density))
    npa = npa or (128 if probe.N == 1 else 96)
    verdicts, details, rows = {}, {}, []
    for t in times:
        rep = verify.mass_conservation(sol, t, n_per_axis=npa)
        verdicts[rep.name] = "pass" if rep.passed else "fail"
        details[rep.name] = rep.to_dict()
        rows.append([_fmt(t), _fmt(rep.residual), _fmt(rep.tolerance), str(rep.passed)])
    out_mass = _write_csv(outdir, "mass.csv", ["t", "relative_drift", "tolerance", "passed"], rows)
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out_density, out_mass]}


def run_verify_suite(params, seed, workers, outdir):
    pset = params.get("problems", "1d")
    specs = _validated("params.problems", catalog.default_problems if isinstance(pset, str) else list, pset)
    n_time = _validated("params.n_time", int, params.get("n_time", 20))
    tol = _validated("params.uniqueness_tol", float, params.get("uniqueness_tol", 1e-2))

    def checked(i, spec):
        """(spec, its mass-check times, its n_per_axis or None), read before any numerics run."""
        _validated(f"params.problems[{i}]", catalog.spec_block, spec)
        path = f"params.problems[{spec.get('id', 'problem')}]"
        config = _spec(path, catalog.problem_config, spec)
        times = _times(f"{path}.times", spec.get("times", [config.T]), config)
        npa = _count(f"{path}.n_per_axis", spec["n_per_axis"], 1) if "n_per_axis" in spec else None
        return spec, times, npa

    def one(unit):
        spec, times, npa = unit
        pid = spec.get("id", "problem")
        m, reference, field, rho0, config, u = _problem(f"params.problems[{pid}]", spec)
        sol = transport.solve(rho0, field, reference, config)
        npa = npa or (128 if sol.N == 1 else 96)
        reps = [verify.weak_residual(sol, u, n_time=n_time, n_per_axis=npa)]
        for t in times:
            reps.append(verify.mass_conservation(sol, t, n_per_axis=npa))
        if params.get("uniqueness"):
            slc = reference.source if isinstance(reference, measures.LadderDensity) else reference
            refs = [slc, measures.ladder(slc, 8, 16)]
            reps.append(verify.uniqueness_probe(rho0, field, refs, config, times, tol=tol, seed=seed))
        return pid, reps

    results = map_units(one, [checked(i, spec) for i, spec in enumerate(specs)], workers)
    verdicts, details, rows = {}, {}, []
    for pid, reps in results:
        for rep in reps:
            key = f"{pid}:{rep.name}"
            verdicts[key] = "pass" if rep.passed else "fail"
            details[key] = rep.to_dict()
            rows.append([pid, rep.name, _fmt(rep.residual), _fmt(rep.tolerance), str(rep.passed)])
    out = _write_csv(outdir, "checks.csv", ["problem", "check", "residual", "tolerance", "passed"], rows)
    return {"verdicts": verdicts, "warnings": [], "details": details, "outputs": [out]}


def run_entropy_audit(params, seed, workers, outdir):
    _require(params, "measure", "N", "field", "rho0")
    config = _spec("params", catalog.problem_config, params)
    times = _times("params.times", params.get("times", [config.T / 2.0, config.T]), config)
    domain_radius = _positive("params.domain_radius", params["domain_radius"]) if "domain_radius" in params else None
    tail_samples = _count("params.tail_samples", params.get("tail_samples", 1), 0)
    cf_per_axis = _count("params.cf_per_axis", params.get("cf_per_axis", 96), 1)
    npa = _count("params.n_per_axis", params["n_per_axis"], 1) if "n_per_axis" in params else None
    m, reference, field, rho0, config, _u = _problem("params", params)
    delta = params.get("delta")
    if delta is None:
        try:
            delta = fields_mod.delta_recipe(field, m)
        except fields_mod.UnboundedFieldError as exc:
            raise ConfigError(f"params.field: {exc}") from exc
    delta = _positive("params.delta", delta)
    sol = transport.solve(rho0, field, reference, config, N=int(params["N"]))
    slc = reference.source if isinstance(reference, measures.LadderDensity) else reference
    try:
        cf = fields_mod.cf_delta(
            field, slc.disintegration, delta, config.T,
            tail_samples=tail_samples,
            seed=seed, domain_radius=sol.support_radius + 1.0 if domain_radius is None else domain_radius,
            n_per_axis=cf_per_axis,
        )
    except fields_mod.DeltaTooLargeError as exc:
        raise ConfigError(f"params.delta: {exc}") from exc
    npa = npa or (128 if sol.N == 1 else 96)
    verdicts, details, rows = {}, {}, []
    for t in times:
        rep = verify.entropy_bound_check(sol, t, delta, cf.estimate, n_per_axis=npa)
        verdicts[rep.name] = "pass" if rep.passed else "fail"
        details[rep.name] = rep.to_dict()
        md = rep.metadata
        rows.append(
            [_fmt(t), _fmt(md["left"]), _fmt(md["right"]), _fmt(md["initial_term"]),
             _fmt(md["cf_term"]), _fmt(md["log_delta_term"]), _fmt(md["clip_volume_term"]),
             _fmt(md["psi_total_term"])]
        )
    details["cf"] = {
        "estimate": cf.estimate,
        "delta": cf.delta,
        "domain_radius": cf.domain_radius,
        "tail_count": cf.tail_count,
        "max_at_grid_edge": cf.max_at_grid_edge,
        "per_pair": {f"M={M},l={l}": v for (M, l), v in sorted(cf.per_pair.items())},
    }
    warnings = []
    if cf.max_at_grid_edge:
        warnings.append("cf grid maximum attained at the edge of the (M,l) grid")
    out = _write_csv(
        outdir, "entropy.csv",
        ["t", "left", "right", "initial_term", "cf_term", "log_delta_term", "clip_volume_term", "psi_total_term"],
        rows,
    )
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


def _spde_config(params, defaults):
    """The SpdeConfig of params over defaults, and the report warnings it needs."""
    merged = dict(defaults)
    merged.update({k: params[k] for k in ("n_modes", "dt", "T", "B_diag", "yosida_alpha") if k in params})
    coeffs = _validated("params.reaction", catalog.polynomial_reaction, params.get("reaction", merged.pop("reaction", None)))
    b = merged.get("B_diag", 1.0)
    b_tuple = tuple(np.atleast_1d(np.asarray(b, dtype=float)))
    config = _validated(
        "params",
        spde.SpdeConfig,
        n_modes=int(merged["n_modes"]),
        dt=float(merged["dt"]),
        T=float(merged["T"]),
        B_diag=b_tuple,
        p_coeffs=coeffs,
        yosida_alpha=float(merged.get("yosida_alpha", 0.0)),
    )
    warnings = []
    if "quad_nodes" in params:
        warnings.append("params.quad_nodes is ignored: the grid is sized from n_modes and the reaction degree")
    return config, warnings


def run_spde_invariant(params, seed, workers, outdir):
    config, warnings = _spde_config(params, {"n_modes": 32, "dt": 1e-3, "T": 1.0, "reaction": {"name": "ou"}})
    burn_in = _validated("params.burn_in", int, params.get("burn_in", spde.relaxation_steps(config, 6.0)))
    count = _validated("params.count", int, params.get("count", 2000))
    if count < 4:
        raise ConfigError("params.count: must be at least 4 (two draws per half of the chain)")
    thinning = _count("params.thinning", params.get("thinning", 5), 1)
    try:
        samples, rep = spde.sample_invariant(config, burn_in, count, thinning, stream(seed, "spde-invariant", "chain"))
    except spde.BurnInError as exc:
        raise ConfigError(f"params.burn_in: {exc}") from exc
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
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


def run_commutator_curve(params, seed, workers, outdir):
    eps_grid = [float(e) for e in params.get("eps_grid", [0.5, 0.2, 0.1, 0.05, 0.02])]
    if not eps_grid or any(not 0 < e <= 1 for e in eps_grid):
        raise ConfigError("params.eps_grid: entries must lie in (0, 1]")
    config, warnings = _spde_config(
        params,
        {"n_modes": 4, "dt": 2e-3, "T": max(eps_grid), "reaction": {"name": "cubic", "c1": -1.0}},
    )
    for e in eps_grid:
        _validated("params.eps_grid", config.n_steps, e)
    u_args = _validated("params.u_args", catalog.spec_block, params.get("u_args", {}))
    u = _validated("params.u", catalog.build_cylinder, params.get("u", "mode1_soft"), **u_args)
    F = _validated("params.field", catalog.build_field, params.get("field", {"name": "constant", "coeffs": [0.1]}))
    n_mc = _validated("params.n_mc", int, params.get("n_mc", 2000))
    n_x = _validated("params.n_x", int, params.get("n_x", 200))
    if n_x < 4:
        raise ConfigError("params.n_x: must be at least 4 (two base points per half of the chain)")
    thinning = params.get("thinning")
    if thinning is not None:
        thinning = _count("params.thinning", thinning, 1)
    rep = spde.commutator_decay_curve(config, u, F, eps_grid, n_mc, n_x, seed, thinning=thinning, workers=workers)
    rows = [[_fmt(c.eps), _fmt(c.value), _fmt(c.stderr), str(c.n_samples)] for c in rep.estimates]
    out = _write_csv(outdir, "commutator_curve.csv", ["eps", "value", "stderr", "n_samples"], rows)
    verdicts = {"decay": "pass" if rep.trend_established else "warn"}
    if not rep.trend_established:
        warnings.append("decay trend not established at this sampling budget (inconclusive, not a failure)")
    if not rep.stationary:
        warnings.append(
            "the invariant-measure chain of the base points failed its 3-sigma stationarity check"
            " (first vs second half of |x|^2)"
        )
    details = {
        "estimates": [
            {"eps": c.eps, "value": c.value, "stderr": c.stderr, "n_samples": c.n_samples}
            for c in rep.estimates
        ],
        "drop": rep.drop, "drop_stderr": rep.drop_stderr,
        "trend_established": rep.trend_established,
    }
    return {"verdicts": verdicts, "warnings": warnings, "details": details, "outputs": [out]}


def run_bdg_check(params, seed, workers, outdir):
    p = _validated("params.p", float, params.get("p", 4))
    if not p >= 4:
        raise ConfigError(f"params.p: moment order must be >= 4, got {p}")
    phi = _validated("params.phi", np.asarray, params.get("phi", 1.0), dtype=float)
    if phi.ndim > 1 or phi.size == 0:
        raise ConfigError("params.phi: must be a number or a nonempty list of numbers")
    t = _positive("params.t", params.get("t", 1.0))
    n_mc = _validated("params.n_mc", int, params.get("n_mc", 20000))
    if n_mc < 2:
        raise ConfigError("params.n_mc: need at least 2 samples")
    n_steps = _count("params.n_steps", params.get("n_steps", 512), 1)
    rep1 = spde.bdg_check(p, phi, t, n_mc, stream(seed, "bdg-check", "mc", 1), n_steps)
    reps = [(n_mc, rep1)]
    if params.get("doubling", True):
        rep2 = spde.bdg_check(p, phi, t, 2 * n_mc, stream(seed, "bdg-check", "mc", 2), n_steps)
        reps.append((2 * n_mc, rep2))
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


KIND_RUNNERS = {
    "transport-solve": run_transport_solve,
    "verify-suite": run_verify_suite,
    "ibp-check": run_ibp_check,
    "gibbs-sample": run_gibbs_sample,
    "spde-invariant": run_spde_invariant,
    "commutator-curve": run_commutator_curve,
    "bdg-check": run_bdg_check,
    "entropy-audit": run_entropy_audit,
}


# ---------------------------------------------------------------------------
# orchestration


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind: must be one of {', '.join(KINDS)}; got {kind!r}")
    if "params" in cfg and not isinstance(cfg["params"], dict):
        raise ConfigError("params: must be an object")
    return cfg


def run_experiment(cfg, outdir, seed, workers):
    kind = cfg["kind"]
    params = cfg.get("params", {})
    os.makedirs(outdir, exist_ok=True)
    effective = dict(cfg)
    effective["seed"] = seed
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("utf8")).hexdigest()

    t0 = time.perf_counter()
    violation = None
    try:
        result = KIND_RUNNERS[kind](params, seed, workers, outdir)
    except verify.TheoremViolationError as exc:
        violation = str(exc)
        result = {
            "verdicts": {"theorem": "violation"},
            "warnings": [],
            "details": {"violation": violation},
            "outputs": [],
        }
    wall = time.perf_counter() - t0

    report = {
        "kind": kind,
        "seed": seed,
        "verdicts": result["verdicts"],
        "warnings": result["warnings"],
        "details": _jsonable(result["details"]),
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    outputs = sorted(set(result["outputs"] + ["report.json"]))
    if violation is not None:
        exit_code = 3
    elif any(v == "fail" for v in result["verdicts"].values()):
        exit_code = 1
    else:
        exit_code = 0
    manifest = {
        "kind": kind,
        "seed": seed,
        "workers": workers,
        "config_hash": config_hash,
        "artifact_version": ARTIFACT_VERSION,
        "wall_clock_seconds": wall,
        "verdicts": result["verdicts"],
        "warnings": result["warnings"],
        "has_warnings": bool(result["warnings"]),
        "outputs": outputs + ["manifest.json"],
        "exit_code": exit_code,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _parser():
    parser = argparse.ArgumentParser(
        prog="refflow",
        description="continuity-equation laboratory: solve, sample and check",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON experiment config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--workers", type=int, default=None, help="worker threads (default: config or 1)")
    run_p.add_argument("--output", default=None, help="output directory (default: config or runs/<kind>)")
    run_p.add_argument("--seed", type=int, default=None, help="root seed override")
    sub.add_parser("list-catalog", help="print the registered building blocks")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "list-catalog":
        print(catalog.catalog_text())
        return 0
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        workers = args.workers if args.workers is not None else int(cfg.get("workers", 1))
        if workers < 1:
            raise ConfigError("workers: must be at least 1")
        outdir = args.output if args.output is not None else cfg.get("output", os.path.join("runs", cfg["kind"]))
        manifest = run_experiment(cfg, outdir, seed, workers)
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
