"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Budgets are wall-clock seconds on a desk machine; every numeric tolerance is
stated next to its assert.
"""

import json
import math
import time

import numpy as np
import pytest

from refflow import catalog, cli, fields, measures, spde, transport, verify
from refflow.rng import stream
from refflow.spectral import eigenvalue

BUDGETS = {1: 30, 2: 10, 3: 30, 4: 60, 5: 30, 6: 60, 7: 30, 8: 120, 9: 900, 10: 30}


class Criterion:
    def __init__(self, num):
        self.num = num
        self.t0 = time.perf_counter()
        self.checks = []

    def check(self, ok, detail):
        self.checks.append((bool(ok), detail))

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = all(c for c, _ in self.checks)
        budget = BUDGETS.get(self.num)
        if budget is not None and elapsed > budget:
            ok = False
            self.checks.append((False, f"over budget {budget}s"))
        summary = "; ".join(d for _, d in self.checks)
        print(f"criterion {self.num:2d}: {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s] {summary}")
        for passed, detail in self.checks:
            assert passed, f"criterion {self.num}: {detail}"
        if budget is not None:
            assert elapsed <= budget, f"criterion {self.num}: {elapsed:.1f}s over {budget}s budget"


def test_c01_ibp_pairs():
    c = Criterion(1)
    worst = 0.0
    for mname, m in [
        ("gaussian", catalog.build_measure({"name": "gaussian", "n_modes": 4})),
        ("gibbs", catalog.build_measure({"name": "gibbs", "n_modes": 4, "alpha": 1.0, "p": 4.0})),
    ]:
        for i, (uname, h) in enumerate(catalog.IBP_PAIRS):
            u = catalog.build_cylinder(uname)
            h_arg = np.eye(4)[h] if isinstance(h, int) else np.asarray(h, dtype=float)
            rep = measures.ibp_residual(m, u, h_arg, 100000, stream(202608, "acc-ibp", mname, uname, i))
            worst = max(worst, abs(rep.estimate) / rep.stderr)
            if not abs(rep.estimate) <= 4.0 * rep.stderr:
                c.check(False, f"{mname}/{uname} z={abs(rep.estimate) / rep.stderr:.2f}")
    c.check(worst <= 4.0, f"12 pairs, worst z={worst:.2f} <= 4")
    c.finish()


def test_c02_transport_oracle():
    c = Criterion(2)
    spec = catalog.default_problems("1d")[0]
    _, ref, field, rho0, config, _ = catalog.build_problem(spec)
    sol = transport.solve(rho0, field, ref, config)
    lam = 2.0 * np.pi ** 2
    drift = 0.1
    xs = np.linspace(-0.8, 0.8, 41)[:, None]
    t = 0.25
    closed = rho0.value(xs - t * drift) * np.exp(lam * drift * (xs[:, 0] * t - drift * t * t / 2.0))
    err = float(np.abs(transport.feynman_kac(sol, t, xs) - closed).max())
    c.check(err < 1e-6, f"closed-form err={err:.2e} < 1e-6")
    hs = [8e-3, 4e-3, 2e-3]
    res = [float(np.abs(transport.pde_residual(sol, 0.25, xs, h_t=h, h_x=h)).max()) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    c.check(1.7 <= slope <= 2.3, f"residual slope={slope:.2f} in 2 +- 0.3")
    c.finish()


def test_c03_mass_conservation():
    c = Criterion(3)
    worst = 0.0
    for which in ("1d", "2d"):
        for spec in catalog.default_problems(which):
            _, ref, field, rho0, config, _ = catalog.build_problem(spec)
            sol = transport.solve(rho0, field, ref, config)
            times = [float(t) for t in spec["times"]]
            for t, rep in zip(times, verify.mass_conservation(sol, times, n_per_axis=128 if sol.N == 1 else 96)):
                worst = max(worst, rep.error)
                if not rep.passed:
                    c.check(False, f"{spec['id']} t={t} err={rep.error:.2e}")
    c.check(worst < 1e-6, f"all catalog times, worst drift={worst:.2e} < 1e-6")
    c.finish()


def test_c04_entropy_bound():
    c = Criterion(4)
    min_slack = math.inf
    for which in ("1d", "2d"):
        for spec in catalog.default_problems(which):
            m, ref, field, rho0, config, _ = catalog.build_problem(spec)
            N = int(spec["N"])
            sol = transport.solve(rho0, field, ref, config)
            delta = fields.delta_recipe(field, m)
            dis = measures.psi_squared(m, N)
            kw = {} if N == 1 else {"ladder_kwargs": {"n_quad": 13}, "n_per_axis": 48}
            cf = fields.cf_delta(field, dis, delta, config.T, seed=202608,
                                 domain_radius=sol.support_radius + 1.0, **kw)
            times = [float(t) for t in spec["times"]]
            reps = verify.entropy_bound_check(sol, times, delta, cf.estimate, n_per_axis=128 if N == 1 else 64)
            for t, rep in zip(times, reps):
                slack = rep.metadata["right"] - rep.metadata["left"]
                min_slack = min(min_slack, slack)
                if not rep.passed:
                    c.check(False, f"{spec['id']} t={t} violated by {-slack:.2e}")
    c.check(min_slack > 0.0, f"all catalog runs, min slack={min_slack:.2e} > 0")
    c.finish()


def test_c05_jensen_ladder():
    c = Criterion(5)
    worst1 = worst2 = math.inf
    for n_modes, N, kw in [
        (2, 1, {}),
        (3, 2, {"n_angle": 64, "n_leg": 12, "ladder_kwargs": {"n_quad": 13}}),
    ]:
        m = catalog.build_measure({"name": "gibbs", "n_modes": n_modes, "alpha": 1.0, "p": 4.0})
        slc = measures.psi_squared(m, N)
        for M in (2.0, 10.0):
            for l in (4, 16):
                i_ml, i_m, i_exact = measures.jensen_chain(slc, M, l, [0.01, 0.05], 0, **kw)
                worst1 = min(worst1, float((i_m - i_ml).min()))
                worst2 = min(worst2, float((i_exact - i_m).min()))
    c.check(worst1 >= -1e-6, f"mollified <= clipped, min gap={worst1:+.2e} >= -1e-6")
    c.check(worst2 >= -1e-6, f"clipped <= exact, min gap={worst2:+.2e} >= -1e-6")
    c.finish()


def test_c06_weak_formulation():
    c = Criterion(6)
    worst = 0.0
    orders = []
    for which in ("1d", "2d"):
        for spec in catalog.default_problems(which):
            _, ref, field, rho0, config, u = catalog.build_problem(spec)
            sol = transport.solve(rho0, field, ref, config)
            if sol.N == 1:
                n_time, npa, levels = 20, 128, [(4, 12), (20, 40), (100, 128)]
            else:
                n_time, npa, levels = 10, 96, [(10, 24), (50, 96)]
            rep = verify.weak_residual(sol, u, n_time=n_time, n_per_axis=npa)
            worst = max(worst, rep.error)
            errs = [verify.weak_residual(sol, u, n_time=nt, n_per_axis=nx).error for nt, nx in levels]
            hs = [1.0 / nt for nt, _ in levels]
            order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            orders.append(order)
            if not rep.passed:
                c.check(False, f"{spec['id']} residual={rep.error:.2e}")
    c.check(worst < 1e-4, f"default residual worst={worst:.2e} < 1e-4")
    c.check(min(orders) >= 1.7, f"refinement orders={[f'{o:.2f}' for o in orders]} all >= 1.7")
    c.finish()


def test_c07_uniqueness_probe():
    c = Criterion(7)
    spec = catalog.default_problems("1d")[1]
    refs = []
    for ladder in ({"M": 8, "l": 16}, {"M": 16, "l": 32}):
        _, ref, field, rho0, config, _ = catalog.build_problem(dict(spec, ladder=ladder))
        refs.append(ref)
    rep = verify.uniqueness_probe(rho0, field, refs, config, t_eval=spec["times"])
    c.check(rep.passed, f"ladders (8,16) vs (16,32), L1 distance={rep.error:.2e} < 1e-2")
    c.finish()


def test_c08_spde_regression():
    c = Criterion(8)
    ou = spde.SpdeConfig(n_modes=32, dt=1e-3)
    cubic = spde.SpdeConfig(n_modes=32, dt=1e-3, p_coeffs=(0.0, -1.0, 0.0, -1.0))

    term = spde.simulate(ou, np.zeros(32), [1.0], stream(11, "acc", "inv"), n_paths=2000)[:, 0]
    target_var = (1.0 - np.exp(-2.0 * ou.rates * 1.0)) / (2.0 * ou.rates)
    zv = np.abs(term.var(axis=0, ddof=1) - target_var) / (target_var * math.sqrt(2.0 / (term.shape[0] - 1)))
    zm = np.abs(term.mean(axis=0)) / np.sqrt(target_var / term.shape[0])
    c.check(zm.max() <= 4.0 and zv.max() <= 4.0,
            f"OU mean/var z=({zm.max():.2f},{zv.max():.2f}) <= 4")

    x0 = np.zeros(32)
    x0[0] = 0.7
    semi = spde.semigroup(ou, lambda X: X[:, 0], x0, 0.25, 4000, stream(11, "acc", "semi"))
    z_semi = abs(semi.estimate - 0.7 * math.exp(-eigenvalue(1) * 0.25)) / semi.stderr
    c.check(z_semi <= 4.0, f"semigroup z={z_semi:.2f} <= 4")

    bel = spde.bel_gradient(ou, lambda X: X[:, 0], x0, np.eye(32)[0], 0.1, 20000, stream(11, "acc", "bel"))
    z_bel = abs(bel.estimate - math.exp(-eigenvalue(1) * 0.1)) / bel.stderr
    c.check(z_bel <= 4.0 and not bel.inconclusive, f"BEL z={z_bel:.2f} <= 4")

    path_c = spde.simulate(cubic, np.zeros(32), cubic.dt * np.arange(1001), stream(11, "acc", "contr"), n_paths=100)
    h = np.eye(32)[0]
    etas = spde.derivative_flow(cubic, path_c, h)
    worst_eta = float(np.sqrt((etas ** 2).sum(axis=2)).max())
    c.check(worst_eta <= 1.0 + 1e-8, f"contraction on 100 paths, max |eta|={worst_eta:.9f} <= 1+1e-8")

    r = np.linspace(-20.0, 20.0, 4001)
    coeffs = (0.0, -1.0, 0.0, -1.0)
    worst_yos = 0.0
    for alpha in (0.1, 0.5):
        pa = spde.yosida_drift(coeffs, alpha, r)
        pj = np.polyval(coeffs[::-1], spde.yosida_resolvent(coeffs, alpha, r))
        worst_yos = max(worst_yos, float(np.abs(pa - pj).max()))
    c.check(worst_yos <= 1e-10, f"Yosida identity err={worst_yos:.2e} <= 1e-10")
    c.finish()


def test_c09_commutator_decay():
    c = Criterion(9)
    config = spde.SpdeConfig(n_modes=4, dt=2e-3, p_coeffs=(0.0, -1.0, 0.0, -1.0))
    u = catalog.build_cylinder("mode1_soft")
    F = catalog.build_field({"name": "constant", "coeffs": [0.1]})
    rep = spde.commutator_decay_curve(config, u, F, [0.5, 0.02], 2000, 200, 77)
    for eps, est in rep.estimates:
        if not (math.isfinite(est.estimate) and math.isfinite(est.stderr)):
            c.check(False, f"eps={eps}: estimate not finite")
    if rep.trend_established:
        c.check(rep.drop.estimate >= 2.0 * rep.drop.stderr,
                f"drop={rep.drop.estimate:.4f} ({rep.drop.estimate / rep.drop.stderr:.0f} sigma) at 200x2000")
    else:
        c.check(True, "inconclusive at default budget (documented limitation, not a failure)")
    c.finish()


def test_c10_bdg_sanity():
    c = Criterion(10)
    r1 = spde.bdg_check(4.0, 1.0, 1.0, 20000, stream(11, "acc", "bdg1"))
    r2 = spde.bdg_check(4.0, 1.0, 1.0, 40000, stream(11, "acc", "bdg2"))
    c.check(r1.ratio <= r1.bound and r2.ratio <= r2.bound,
            f"ratio={r1.ratio:.2f} <= {r1.bound:.0f}")
    c.check(r1.margin > 1e4, f"margin={r1.margin:.3g} > 1e4")
    comb = math.hypot(r1.numerator.stderr / r1.denominator, r2.numerator.stderr / r2.denominator)
    c.check(abs(r1.ratio - r2.ratio) <= 4.0 * comb,
            f"doubling shift={abs(r1.ratio - r2.ratio):.3f} <= 4*stderr={4 * comb:.3f}")
    c.finish()


ACCEPTANCE_CONFIGS = {
    "ibp-check": {
        "kind": "ibp-check", "seed": 5,
        "params": {"measure": {"name": "gaussian", "n_modes": 3}, "count": 4000,
                   "pairs": [["cos_m1", 0], ["sin_m12", 1]]},
    },
    "gibbs-sample": {
        "kind": "gibbs-sample", "seed": 5,
        "params": {"measure": {"name": "gibbs", "n_modes": 2, "alpha": 1.0, "p": 4.0}, "count": 400},
    },
    "transport-solve": {
        "kind": "transport-solve", "seed": 5,
        "params": {"measure": {"name": "gaussian", "n_modes": 1}, "N": 1,
                   "field": {"name": "constant", "coeffs": [0.1]},
                   "rho0": {"name": "bump", "centers": [0.0], "radii": [0.5]},
                   "T": 0.25, "times": [0.25], "eval_per_axis": 9},
    },
    "verify-suite": {
        "kind": "verify-suite", "seed": 5,
        "params": {"problems": "1d", "n_time": 10},
    },
    "spde-invariant": {
        "kind": "spde-invariant", "seed": 5,
        "params": {"n_modes": 4, "dt": 2e-3, "count": 400, "thinning": 5},
    },
    "commutator-curve": {
        "kind": "commutator-curve", "seed": 5,
        "params": {"eps_grid": [0.5, 0.02], "n_mc": 200, "n_x": 4},
    },
    "bdg-check": {
        "kind": "bdg-check", "seed": 5,
        "params": {"n_mc": 4000},
    },
    "entropy-audit": {
        "kind": "entropy-audit", "seed": 5,
        "params": {"measure": {"name": "gaussian", "n_modes": 1}, "N": 1,
                   "field": {"name": "constant", "coeffs": [0.1]},
                   "rho0": {"name": "bump", "centers": [0.0], "radii": [0.5]},
                   "T": 0.25, "times": [0.25]},
    },
}

PARALLEL_KINDS = ("ibp-check", "verify-suite", "commutator-curve")


def _run_cli(cfg, workdir, tag, extra=()):
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    outdir = workdir / tag
    rc = cli.main(["run", str(path), "--output", str(outdir)] + list(extra))
    assert rc == 0, f"{cfg['kind']} exited {rc}"
    return outdir


def test_c11_determinism(tmp_path):
    c = Criterion(11)
    for kind, cfg in ACCEPTANCE_CONFIGS.items():
        out_a = _run_cli(cfg, tmp_path, f"{kind}-a")
        out_b = _run_cli(cfg, tmp_path, f"{kind}-b")
        manifest = json.loads((out_a / "manifest.json").read_text())
        for name in manifest["outputs"]:
            if name == "manifest.json":
                continue
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                c.check(False, f"{kind}: {name} differs between identical runs")
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        ma.pop("wall_clock_seconds")
        mb.pop("wall_clock_seconds")
        if ma != mb:
            c.check(False, f"{kind}: manifests differ beyond wall clock")
    c.check(True, "8 kinds bit-identical across repeat single-worker runs")
    for kind in PARALLEL_KINDS:
        out_1 = tmp_path / f"{kind}-a"
        out_4 = _run_cli(ACCEPTANCE_CONFIGS[kind], tmp_path, f"{kind}-w4", extra=["--workers", "4"])
        if (out_1 / "report.json").read_bytes() != (out_4 / "report.json").read_bytes():
            c.check(False, f"{kind}: 4-worker report differs from the 1-worker one")
    c.check(True, "4-worker reports byte-identical to 1-worker ones")
    c.finish()
