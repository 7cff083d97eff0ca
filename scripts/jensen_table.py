"""Tabulate the exponential-integral chain over the clip/mollify grid.

For the 1-D and 2-D Gibbs slices prints I(mollified) <= I(clipped) <= I(exact)
for M in {2,10}, l in {4,16}, eps in {0.01,0.05}, with the two gaps. All rows
should show nonnegative gaps well above quadrature tolerance.

Usage: python scripts/jensen_table.py
"""

import time

from refflow import catalog, measures


def table(n_modes, N, **kw):
    m = catalog.build_measure({"name": "gibbs", "n_modes": n_modes, "alpha": 1.0, "p": 4.0})
    slc = measures.psi_squared(m, N)
    print(f"-- {N}-D slice of gibbs(1,4) with {n_modes} modes --")
    print(f"{'M':>4s} {'l':>3s} {'eps':>5s} {'I_ml':>12s} {'I_clip':>12s} {'I_exact':>12s} {'gap1':>10s} {'gap2':>10s}")
    for M in (2.0, 10.0):
        for l in (4, 16):
            i_ml, i_m, i_ex = measures.jensen_chain(slc, M, l, [0.01, 0.05], 0, **kw)
            for k, eps in enumerate((0.01, 0.05)):
                print(f"{M:4.0f} {l:3d} {eps:5.2f} {i_ml[k]:12.6e} {i_m[k]:12.6e} {i_ex[k]:12.6e}"
                      f" {i_m[k] - i_ml[k]:10.2e} {i_ex[k] - i_m[k]:10.2e}")


def main():
    t0 = time.time()
    table(2, 1)
    table(3, 2, n_angle=64, n_leg=12, ladder_kwargs={"n_quad": 13})
    print(f"[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
