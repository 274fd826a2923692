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


def pt_zero_slopes(v0, s, n_max, dps=40):
    """[(kappa_n, a'(kappa_n))] at the 2 (n_max + 1) zeros of the Poschl-Teller
    a, s kappa_n = -i(n + 1/2 +- w), by numerical differentiation of the
    closed form at each exact zero."""
    with mp.workdps(dps):
        v0, s = mp.mpf(v0), mp.mpf(s)
        w = mp.sqrt(mp.mpf(1) / 4 - v0 ** 2 * s ** 2)

        def a(k):
            x = s * k
            return 1j * mp.gamma(1 - 1j * x) ** 2 / (
                x * mp.gamma(mp.mpf(1) / 2 + w - 1j * x) * mp.gamma(mp.mpf(1) / 2 - w - 1j * x))

        zeros = [-1j * (n + mp.mpf(1) / 2 + sign * w) / s
                 for n in range(n_max + 1) for sign in (1, -1)]
        return [(complex(k), complex(mp.diff(a, k))) for k in zeros]


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


def hyp4f3_coefficients_loop(xi, lam, n_terms):
    """The term-by-term loop that built the 4F3 Taylor coefficients before
    they became a cumulative product of term ratios; kept as its reference."""
    xi = [complex(v) for v in xi]
    lam = [complex(v) for v in lam]
    c = np.empty(n_terms, dtype=complex)
    c[0] = 1.0
    for n in range(n_terms - 1):
        ratio = 1.0 / (n + 1.0)
        for x in xi:
            ratio *= x + n
        for l in lam:
            ratio /= l + n
        c[n + 1] = c[n] * ratio
    return c


def eikonal_action_piecewise(barrier, kappa, dps=20):
    """S(kappa) = kappa * integral [1 - sqrt(1 - V/kappa^2)] dq of a tabulated
    barrier, by mpmath quadrature on the spline's own cubics.

    V = max(spline, 0) over the knot range. Each knot interval is split at
    the real parts of the roots of its cubic (clip kinks), of its derivative
    (critical points) and of cubic - kappa^2 (turning points, or their
    neighbours for complex kappa), so tanh-sinh meets every non-smooth
    point at an end. The square root of a negative value is
    +i sqrt(|.|), the continuation from the upper half-plane.
    """
    sp = barrier.table._spline
    with mp.workdps(dps):
        k = mp.mpc(complex(kappa))
        k2 = k * k
        total = mp.mpc(0)
        for i in range(len(sp.x) - 1):
            # c0 t^3 + c1 t^2 + c2 t + c3: the fit's (y, slope, M/2, dM/6h), reversed
            c = [mp.mpf(float(v)) for v in sp.coef[0, ::-1, i]]
            width = mp.mpf(float(sp.x[i + 1])) - mp.mpf(float(sp.x[i]))
            cuts = {mp.mpf(0), width}
            for poly in (c, [3 * c[0], 2 * c[1], c[2]], c[:3] + [c[3] - k2]):
                while poly and poly[0] == 0:
                    poly = poly[1:]
                if len(poly) < 2:
                    continue
                for root in mp.polyroots(poly, maxsteps=200, extraprec=2 * dps):
                    # a cut at a smooth point costs nothing; every real part goes in
                    if 0 < mp.re(root) < width:
                        cuts.add(mp.re(root))

            def f(t, c=c):
                v = max(((c[0] * t + c[1]) * t + c[2]) * t + c[3], 0)
                return 1 - mp.sqrt(1 - v / k2)

            total += mp.quad(f, sorted(cuts))
        return complex(k * total)


def panel_fourier_direct(fun, pieces, order, r):
    """(sum_k w_k g_k e^{-i sigma_k r}, sum_k |w_k g_k|) over Gauss-Legendre
    rules of the given order on the equal panels of each piece (an array of
    its panel edges): one exponential per node and lag, the sum the Fourier
    quadrature factorises."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for edges in pieces:
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes.append((mids[:, None] + half * x[None, :]).ravel())
        weights.append(np.tile(half * w, len(mids)))
    nodes = np.concatenate(nodes)
    wg = np.concatenate(weights) * fun(nodes)
    phases = np.exp(-1j * np.outer(nodes, np.asarray(r, dtype=float)))
    return wg @ phases, float(np.sum(np.abs(wg)))


def gaussian_detection_direct(init, det, barrier, times):
    """(w_total, w_t, w_r, w_s) of ``evolution.gaussian_detection``, one array
    over ``times`` each, for a barrier with amplitudes smooth on the real axis.

    The two momentum integrals run on the finer node set of earlier releases:
    the GL-24 rule on panels spanning at most pi/2 of phase at the largest
    |t| (or sig/2), over center +- 14 sig, with one complex exponential per
    node and time. Where the range holds kappa = 0, more edges at 0 and
    +-(w/8) 2^j, w the barrier's strength, split those panels: a weak
    barrier's amplitudes vary near 0 on the scale w (a has a zero near
    -iw/2), which panels of earlier releases resolved only to about 1e-9."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    l0, ld = init.lam, det.lam
    lam_sum = l0 + ld
    sig = 1.0 / np.sqrt(lam_sum)
    x, w = np.polynomial.legendre.leggauss(24)

    def integral(amp, center, q_shift):
        rate = abs(q_shift) + 2.0 * np.max(np.abs(times)) * (abs(center) + 14.0 * sig)
        panel = min(sig / 2.0, np.pi / (2.0 * max(rate, 1e-12)))
        lo, hi = center - 14.0 * sig, center + 14.0 * sig
        edges = np.linspace(lo, hi, max(8, int(np.ceil(28.0 * sig / panel))) + 1)
        strength = barrier.integral_strength()
        if lo < 0.0 < hi and strength > 0.0:
            graded = strength / 8.0 * 2.0 ** np.arange(int(np.log2(8.0 * (hi - lo) / strength)))
            graded = np.concatenate([-graded, [0.0], graded])
            edges = np.union1d(edges, graded[(graded > lo) & (graded < hi)])
        half = 0.5 * np.diff(edges)[:, None]
        k = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        wa = (half * w).ravel() * amp(k) * np.exp(-0.5 * lam_sum * (k - center) ** 2)
        return np.array([np.sum(wa * np.exp(-1j * k * (q_shift + k * t))) for t in times])

    A = integral(lambda k: 1.0 / barrier.amplitude_a(k),
                 (l0 * init.P + ld * det.P) / lam_sum, init.Q - det.Q)
    B = integral(barrier.reflection_lr, (l0 * init.P - ld * det.P) / lam_sum, init.Q + det.Q)
    pre = 0.5 * np.sqrt(l0 * ld)
    ex = l0 * ld / lam_sum
    w_t = pre * np.exp(-ex * (init.P - det.P) ** 2) * np.abs(A) ** 2
    w_r = pre * np.exp(-ex * (init.P + det.P) ** 2) * np.abs(B) ** 2
    w_s = pre * np.exp(-ex * (init.P ** 2 + det.P ** 2)) * (A * B.conj()).real
    return w_t + w_r + 2.0 * w_s, w_t, w_r, w_s
