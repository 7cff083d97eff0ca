"""Independent oracle computations for values frozen in the test suite.

Run `python tests/oracles/compute_oracles.py`. Everything here is computed with
mpmath / closed forms only, never with refflow code, so the frozen numbers are an
independent cross-check of the implementation. Each printed value is pasted into
the tests with a comment naming the oracle.
"""

import mpmath as mp

mp.mp.dps = 30


def sine_basis(j, xi):
    return mp.sqrt(2) * mp.sin(j * mp.pi * xi)


print("== basis and quadrature oracles ==")
# L4 norm of e1: (int 4 sin^4(pi xi) dxi)^(1/4) = (3/2)^(1/4)
v = (mp.quad(lambda x: sine_basis(1, x) ** 4, [0, 1])) ** mp.mpf("0.25")
print("|e1|_L4                   =", mp.nstr(v, 17), " (analytic (3/2)^(1/4) =", mp.nstr(mp.mpf(3) / 2 ** 1 ** 1, 17), ")")
print("(3/2)**0.25               =", mp.nstr((mp.mpf(3) / 2) ** mp.mpf("0.25"), 17))

# Fourier-sine coefficients of xi(1-xi) in the sqrt(2)-normalized basis:
# a_j = int_0^1 xi(1-xi) sqrt(2) sin(j pi xi) dxi = 4 sqrt(2) / (j pi)^3 for odd j.
for j in range(1, 9):
    a = mp.quad(lambda x: x * (1 - x) * sine_basis(j, x), [0, 1])
    print(f"coeff xi(1-xi) mode {j}    =", mp.nstr(a, 17))

print()
print("== measure oracles ==")
lam1 = 2 * mp.pi ** 2
print("1/(2 pi^2) mode-1 var     =", mp.nstr(1 / lam1, 17))
# Gibbs beta example: -2 pi^2 - int e1^4 = -2 pi^2 - 3/2
b = -lam1 - mp.quad(lambda x: sine_basis(1, x) ** 4, [0, 1])
print("gibbs beta(e1,e1) a=1,p=4 =", mp.nstr(b, 17))
# folded-normal MGF: E exp(c*lam1*|x1|), x1 ~ N(0, 1/lam1):
# |beta| = lam1|x1| =d sqrt(lam1)|Z|;  E e^{t|Z|} = 2 e^{t^2/2} Phi(t)
c = mp.mpf("0.01")
t = c * mp.sqrt(lam1)
Phi = lambda z: (1 + mp.erf(z / mp.sqrt(2))) / 2
mgf = 2 * mp.e ** (t ** 2 / 2) * Phi(t)
print("E exp(0.01|beta_e1|)      =", mp.nstr(mgf, 17))

print()
print("== Nemytskii f=1 components (alpha_j^{-1} * 2 sqrt(2)/(j pi), odd j) ==")
for j in range(1, 5):
    alpha_j = (mp.pi * j) ** 2
    comp = mp.quad(lambda x: sine_basis(j, x), [0, 1]) / alpha_j
    print(f"mode {j}: ", mp.nstr(comp, 17))

print()
print("== transport oracles ==")
# 2-mode linear field F(x) = diag(-1, 2) x, flow from s=0 to t=0.5
print("exp(-0.5)                 =", mp.nstr(mp.e ** mp.mpf("-0.5"), 17))
print("exp(1.0)                  =", mp.nstr(mp.e ** mp.mpf("1.0"), 17))

print()
print("== entropy closed form: constant density on [a,b], 1-D Gaussian slice ==")
# rho0 = const c on [a,b] (a=-0.3,b=0.3), Psi^2 = sqrt(lam/2pi) e^{-lam x^2/2}, lam=2pi^2
# mass m = c * (Phi(b sqrt(lam)) - Phi(a sqrt(lam))); choose c so m=1; entropy = c(ln c - 1)*m/c
a, bb = mp.mpf("-0.3"), mp.mpf("0.3")
w = Phi(bb * mp.sqrt(lam1)) - Phi(a * mp.sqrt(lam1))
c0 = 1 / w
print("Psi^2 mass of [-0.3,0.3]  =", mp.nstr(w, 17))
print("c = 1/mass                =", mp.nstr(c0, 17))
print("entropy c(ln c - 1)*w     =", mp.nstr(c0 * (mp.log(c0) - 1) * w, 17))

print()
print("== cf_delta 1-D constant-field analytic value ==")
# integral_0^T int (e^{delta(lam c x)^+} - 1) phi_lam(x) dx dt, x ~ N(0,1/lam)
# = T * (e^{s^2/(2 lam)} Phi(s/sqrt(lam)) - 1/2), s = delta*lam*c
T, delta, cf = mp.mpf(1), mp.mpf("0.05"), mp.mpf("0.1")
s = delta * lam1 * cf
val = T * (mp.e ** (s ** 2 / (2 * lam1)) * Phi(s / mp.sqrt(lam1)) - mp.mpf("0.5"))
print("cf_delta const field      =", mp.nstr(val, 17))

print()
print("== BDG oracle: E sup_{s<=1} |W(s)|^4 via the reflection-series CDF ==")
# P(sup_{[0,1]} |W| <= a) = (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2/(8a^2))
def sup_abs_cdf(a):
    if a <= 0:
        return mp.mpf(0)
    return (4 / mp.pi) * mp.nsum(
        lambda k: (-1) ** k / (2 * k + 1) * mp.e ** (-((2 * k + 1) ** 2) * mp.pi ** 2 / (8 * a ** 2)),
        [0, mp.inf],
    )

m4 = mp.quad(lambda a: 4 * a ** 3 * (1 - sup_abs_cdf(a)), [0, mp.inf])
print("E sup|W|^4 on [0,1]       =", mp.nstr(m4, 17))
print("one-sided E (sup W)^4 = E|W(1)|^4 = 3 by reflection")
print("Doob upper bound (4/3)^4 * 3 =", mp.nstr((mp.mpf(4) / 3) ** 4 * 3, 17))

print()
print("== OU analytic values for the spde regressions ==")
alpha1 = mp.pi ** 2
for tt in ("0.1", "0.25"):
    tt = mp.mpf(tt)
    print(f"exp(-pi^2 * {tt})       =", mp.nstr(mp.e ** (-alpha1 * tt), 17))
print("sum_{j<=32} 1/(2 pi^2 j^2) =", mp.nstr(mp.nsum(lambda j: 1 / (2 * mp.pi ** 2 * j ** 2), [1, 32]), 17))
print("sum_{j<=4}  1/(2 pi^2 j^2) =", mp.nstr(mp.nsum(lambda j: 1 / (2 * mp.pi ** 2 * j ** 2), [1, 4]), 17))
# V-norm OU curve values: (1 - e^{-alpha1 eps})/eps * 1/(2 alpha1)
for eps in ("0.5", "0.2", "0.1", "0.05", "0.02"):
    e = mp.mpf(eps)
    print(f"v-norm OU value eps={eps}  =", mp.nstr((1 - mp.e ** (-alpha1 * e)) / e / (2 * alpha1), 17))
