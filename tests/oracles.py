"""Independent high-precision oracles used by the tests.

Everything here deliberately avoids the package's own evaluation paths:
mpmath series/quadrature oracles for the special functions, direct
Fourier quadrature of the kernel integrals, the resolvent contour
integral for the finite-time transient, and a tight adaptive ODE solve
for tabulated barriers.
"""

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

mp.mp.dps = 30


def gamma(z):
    return complex(mp.gamma(z))


def faddeeva(z):
    z = mp.mpc(z)
    return complex(mp.exp(-z ** 2) * mp.erfc(-1j * z))


def erfc_continued_fraction(x, depth=400):
    """erfc via the Laplace continued fraction, an independent route."""
    x = mp.mpf(x)
    f = mp.mpf(0)
    for k in range(depth, 0, -1):
        f = (k / mp.mpf(2)) / (x + f)
    return mp.exp(-x * x) / ((x + f) * mp.sqrt(mp.pi))


def airy_ai(x):
    return float(mp.airyai(x))


def airy_ai_maclaurin(x, terms=120):
    """Maclaurin construction from the two canonical series solutions."""
    x = mp.mpf(x)
    c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
    c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
    f_t, g_t = mp.mpf(1), x
    f_s, g_s = f_t, g_t
    x3 = x ** 3
    for k in range(1, terms):
        f_t *= x3 / ((3 * k) * (3 * k - 1))
        g_t *= x3 / ((3 * k) * (3 * k + 1))
        f_s += f_t
        g_s += g_t
    return float(c1 * f_s - c2 * g_s)


def hyp4f3_direct(xi, lam, zeta, dps=35, max_terms=200000):
    """Plain term-by-term 4F3 summation at elevated precision."""
    with mp.workdps(dps):
        zeta = mp.mpc(zeta)
        term = mp.mpc(1)
        acc = mp.mpc(1)
        for n in range(max_terms):
            ratio = zeta / (n + 1)
            for x in xi:
                ratio *= mp.mpc(x) + n
            for l in lam:
                ratio /= mp.mpc(l) + n
            term *= ratio
            acc += term
            if abs(term) < mp.mpf(10) ** (-dps) * abs(acc):
                break
        return complex(acc)


def delta_a(v0, k):
    return 1 + 1j * mp.mpf(v0) / (2 * mp.mpc(k))


def delta_kernel_T(v0, p, r):
    """Transmission density for the delta spike by oscillatory quadrature."""
    v0, p, r = mp.mpf(v0), mp.mpf(p), mp.mpf(r)

    def g(sig):
        return (1 / (delta_a(v0, sig / 2 + p) * delta_a(v0, sig / 2 - p)) - 1) \
            * mp.e ** (-1j * sig * r)

    if r == 0:
        val = mp.quad(g, [-mp.inf, 0, mp.inf])
    else:
        val = mp.quadosc(g, [-mp.inf, mp.inf], period=2 * mp.pi / abs(r))
    return float((val / (2 * mp.pi)).real)


def pt_amplitudes(v0, s, k):
    v0, s, k = mp.mpf(v0), mp.mpf(s), mp.mpc(k)
    w = mp.sqrt(mp.mpf(1) / 4 - v0 ** 2 * s ** 2)
    x = s * k
    a = 1j * mp.gamma(1 - 1j * x) ** 2 / (
        x * mp.gamma(mp.mpf(1) / 2 + w - 1j * x) * mp.gamma(mp.mpf(1) / 2 - w - 1j * x))
    b = -1j * mp.cos(mp.pi * w) / mp.sinh(mp.pi * s * k)
    return complex(a), complex(b)


def pt_kernel_quadrature(v0, s, p, r):
    """(T density, R density) for Poschl-Teller by direct quadrature."""
    v0, s, p, r = mp.mpf(v0), mp.mpf(s), mp.mpf(p), mp.mpf(r)
    w = mp.sqrt(mp.mpf(1) / 4 - v0 ** 2 * s ** 2)

    def a(k):
        x = s * k
        return 1j * mp.gamma(1 - 1j * x) ** 2 / (
            x * mp.gamma(mp.mpf(1) / 2 + w - 1j * x)
            * mp.gamma(mp.mpf(1) / 2 - w - 1j * x))

    def b(k):
        return -1j * mp.cos(mp.pi * w) / mp.sinh(mp.pi * s * k)

    def g_t(sig):
        return (1 / (a(sig / 2 + p) * a(sig / 2 - p)) - 1) * mp.e ** (-1j * sig * r)

    def g_r(sig):
        return (b(sig / 2 + p) * b(sig / 2 - p) / (a(sig / 2 + p) * a(sig / 2 - p))
                ) * mp.e ** (-1j * sig * r)

    t_val = mp.quadosc(g_t, [-mp.inf, mp.inf], period=2 * mp.pi / abs(r)) / (2 * mp.pi)
    cut = 50 / s
    r_val = mp.quad(g_r, [-cut, -2 * p, 0, 2 * p, cut]) / (2 * mp.pi)
    return float(t_val.real), float(r_val.real)


def resolvent_transient_J(v0, k, k0, t, eta=0.7):
    """J extracted from the resolvent contour integral above the real axis."""
    v0, k, k0, t = mp.mpf(v0), mp.mpf(k), mp.mpf(k0), mp.mpf(t)

    def tau(eps):
        return (v0 / (2 * mp.pi)) / (1 + v0 / (2 * mp.sqrt(-eps)))

    def f(x):
        eps = x + 1j * mp.mpf(eta)
        return mp.e ** (-1j * t * eps) * tau(eps) / ((k ** 2 - eps) * (k0 ** 2 - eps))

    u_scat = -mp.quadosc(f, [-mp.inf, mp.inf], period=2 * mp.pi / t) / (2j * mp.pi)
    xi = (k0 ** 2 - k ** 2) / 2
    inner = u_scat / mp.e ** (-1j * t * (k ** 2 + k0 ** 2) / 2)
    # on-shell element with the upper-lip branch sqrt(-eps) = -i sqrt(eps)
    tau_up = lambda e: (v0 / (2 * mp.pi)) / (1 + 1j * v0 / (2 * mp.sqrt(e)))
    J = -(inner + (mp.e ** (1j * t * xi) / (2 * xi)) * tau_up(k ** 2)
          - (mp.e ** (-1j * t * xi) / (2 * xi)) * tau_up(k0 ** 2))
    return complex(J)


def lag_cos_integral(w, r):
    """(1/pi) integral_0^inf cos(r sigma + 2 w / sigma) dsigma."""
    w, r = mp.mpf(w), mp.mpf(r)
    sig0 = mp.sqrt(2 * w / r)
    low = lambda u: mp.cos(r / u + 2 * w * u) / u ** 2
    part_low = mp.quadosc(low, [8 / sig0, mp.inf], period=mp.pi / w)
    mid = lambda s: mp.cos(r * s + 2 * w / s)
    part_mid = mp.quad(mid, [sig0 / 8, 8 * sig0])
    part_hi = mp.quadosc(mid, [8 * sig0, mp.inf], period=2 * mp.pi / r)
    return float((part_low + part_mid + part_hi) / mp.pi)


def gaussian_overlap(lam0, lamd, Q0, Qd, dq_extra=0.0):
    """Closed-form overlap of two equal-momentum unit Gaussians (mass pi each)."""
    lam_sum = lam0 + lamd
    pref = mp.pi * mp.sqrt(lam0 * lamd) / lam_sum
    return float(pref * mp.e ** (-(Q0 - Qd + dq_extra) ** 2 / lam_sum))


def numeric_amplitudes_dop853(barrier, kappa):
    """(a, b) of a NumericBarrier by DOP853 at rtol 1e-13, one kappa at a time.

    The solve restarts at every edge of the table (support ends, knots and
    clip kinks), so no step straddles a jump in a derivative of V.
    """
    k = complex(kappa)
    qa, qb = barrier.support()

    def rhs(q, y):
        return [y[1], (barrier.potential(q) - k * k) * y[0]]

    y = np.exp(-1j * k * qa) * np.array([1.0, -1j * k])
    edges = barrier.table.edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-16).y[:, -1]
    a = (1j * k * y[0] - y[1]) * np.exp(1j * k * qb) / (2j * k)
    b = (1j * k * y[0] + y[1]) * np.exp(-1j * k * qb) / (2j * k)
    return complex(a), complex(b)
