"""Refinement study: weak-formulation residual and pointwise residual orders.

Writes one CSV per catalog problem with residuals at a ladder of resolutions,
plus the fitted log-log order. Plot-ready (columns: h, weak_residual) for
external tools.

Usage: python scripts/refinement_study.py [--output DIR]
"""

import argparse
import csv
import pathlib

import numpy as np

from refflow import catalog, transport, verify


def study(spec, outdir):
    _, ref, field, rho0, config, u = catalog.build_problem(spec)
    sol = transport.solve(rho0, field, ref, config)
    if sol.N == 1:
        levels = [(4, 12), (10, 24), (20, 40), (50, 80), (100, 128)]
    else:
        levels = [(10, 24), (50, 96)]
    total = int(round(config.T / config.dt_ode))
    rows = []
    for nt, nx in levels:
        if nt % 2 or total % nt:
            continue
        rep = verify.weak_residual(sol, u, n_time=nt, n_per_axis=nx)
        rows.append((config.T / nt, rep.error))
    hs = np.array([r[0] for r in rows])
    errs = np.array([r[1] for r in rows])
    order = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]

    path = outdir / f"weak_refinement_{spec['id']}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["h", "weak_residual"])
        w.writerows(rows)
    print(f"{spec['id']}: weak order {order:.2f} over {len(rows)} levels -> {path}")

    if sol.N == 1:
        xs = np.linspace(-0.8, 0.8, 41)[:, None]
        hs = [8e-3, 4e-3, 2e-3]
        res = [float(np.abs(transport.pde_residual(sol, config.T / 2, xs, h_t=h, h_x=h)).max()) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        print(f"{spec['id']}: pointwise residual order {slope:.2f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--output", default="runs/refinement")
    args = ap.parse_args()
    outdir = pathlib.Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for which in ("1d", "2d"):
        for spec in catalog.default_problems(which):
            study(spec, outdir)


if __name__ == "__main__":
    main()
