"""Transmission and reflection kernels over the lag distance.

The large-time phase-space propagator factorizes into a momentum-diagonal
transmission kernel T(p, r+) and a mirror reflection kernel R(p, r-),
both functions of the lag r between the free classical trajectory and the
actual position. Three independent routes are implemented:

* oscillatory Fourier quadrature of the amplitude integrals (any barrier),
* a pole expansion over the S-matrix singularities (meromorphic barriers),
* closed forms for the delta and Poschl-Teller barriers,

plus semiclassical evaluations (stationary phase, small-lag asymptotics,
and the Airy form for deep tunneling). The delta spike at r = 0 is never
discretized: KernelDensity carries its weight separately.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import barriers as _b
from .errors import (
    ConvergenceRegionError,
    KernelAccuracyError,
    MethodCompatibilityError,
)
from .specfun import airy_ai, gamma_cx, hyp4f3_coefficients
# adaptive_complex_quad and fourier_halfline have no caller here:
# perfbench/tracing.py wraps them by these names
from .quadrature import adaptive_complex_quad, fourier_symmetric
fourier_halfline = fourier_symmetric

__all__ = [
    "KernelDensity",
    "kernel_by_quadrature",
    "kernel_by_residues",
    "delta_kernels",
    "pt_kernels",
    "kernel_row",
    "total_probabilities",
    "interference_eval",
    "semiclassical_kernel",
    "SemiclassicalValue",
    "small_lag_regime",
    "classical_limit_lag",
    "ClassicalLag",
    "PT_SERIES_RMIN_FACTOR",
    "ZERO_LAG",
]

# Below this fraction of the width s the 4F3 argument is too close to the
# unit circle; _pt_row interpolates T and R across that band.
PT_SERIES_RMIN_FACTOR = 0.05

# kernel_row reads lags in [0, ZERO_LAG] as r = 0+, where T jumps by exactly -2w.
ZERO_LAG = 1e-12

# R across the band is the degree-7 polynomial through these lags, in
# units of the band half-width. PT's b/a decays like e^{-pi s kappa}, so R
# is analytic at r = 0.
_R_BAND_NODES = np.array([-3.0, -2.35, -1.7, -1.05, 1.05, 1.7, 2.35, 3.0])

# T across (0+, h] is the degree-10 polynomial through the exact jump
# T(0+) = -2w at 0 and the series at the other ten lags, in units of h. Wide
# barriers (v0 s ~ 4) need all ten: seven at spacing 0.35 miss by 5e-7 of the peak.
_T_BAND_NODES = np.concatenate([[0.0], 1.05 + 0.25 * np.arange(10)])

# 4F3 power tables are built over chunks of lags that keep each table
# at or below 2^19 float64 entries (4 MB)
_SERIES_TABLE_ENTRIES = 1 << 19
_SERIES_MAX_TERMS = 20_000

# PT's branch sums must cancel their imaginary parts to this times max(1, |.|)
_PT_IMAG_TOL = 1e-8

# the semiclassical kernel's eikonal action spline: uniform kappa nodes over
# the integrand's features, then a geometric run out to the largest kappa
# the quadrature can sample
_EIKONAL_SPLINE_NODES = 1200
_EIKONAL_TAIL_NODES = 200

# the target for the semiclassical quadrature's error estimate
_SEMICLASSICAL_TOL = 5e-6

# Gamma(2 omega) has a pole at omega = 0 that cancels between the
# +-omega terms. Below this |omega| the late-branch sum, analytic in
# omega^2, is interpolated linearly in omega^2 between +-_PT_OMEGA_MIN^2.
_PT_OMEGA_MIN = 1e-3


@dataclass(frozen=True)
class KernelDensity:
    """A kernel split as (delta weight at r = 0, smooth density over r).

    The weight plus the r-integral of the density gives the total
    transmission (or reflection) probability.
    """
    r: np.ndarray
    density: np.ndarray
    singular_weight: float
    method: str
    error_estimate: float = 0.0
    truncation_error: Optional[np.ndarray] = None

    def integrated(self):
        """singular weight + trapezoid integral of the density."""
        return self.singular_weight + float(np.trapezoid(self.density, self.r))


def _sigma_scales(barrier, p):
    """(feature, start): the sigma-scale on which the kernel integrands vary,
    and the cutoff the quadrature starts its doubling from."""
    if isinstance(barrier, _b.DeltaBarrier):
        fs = max(barrier.v0, 0.5 * p, 0.1)
    elif isinstance(barrier, _b.PoschlTellerBarrier):
        fs = max(min(2.0 / (math.pi * barrier.s), 2.0 * barrier.v0), 0.05)
    else:
        lo, hi = barrier.support()
        fs = max(min(2.0 * barrier.kappa_scale(), 4.0 * math.pi / (hi - lo)), 0.05)
    return fs, max(64.0 * fs, 16.0 * p + 32.0 * barrier.kappa_scale())


def _sigma_kinks(kinks, p):
    """The sigma at which sigma/2 + p or sigma/2 - p meets a kink in kappa."""
    return [2.0 * abs(k + sign * p) for k in kinks for sign in (1.0, -1.0)]


def kernel_by_quadrature(barrier, p, r_grid, tol=2e-7):
    """Transmission and reflection kernels by one oscillatory quadrature.

    Both integrands take a and b at sigma/2 +- p from one
    ``Barrier.amplitudes`` call per side, over one node set. The
    transmission integrand is 1/(a+ a-) - 1 so the constant part carries
    the free delta spike exactly. The reflection integrand is
    rho(sigma/2 + p) rho(sigma/2 - p) with rho = -conj(b)/a, the amplitude
    of a wave incident from the left (``Barrier.reflection_lr``), so even
    and asymmetric barriers share one route. Panels end where sigma/2 +- p
    meets a kink of a (``barriers.amplitude_kinks``). A kernel whose error
    estimate exceeds ``tol`` comes back with a RuntimeWarning naming both
    numbers.
    """
    if p <= 0:
        raise ValueError("kernel quadrature requires p > 0")
    r_grid = np.asarray(r_grid, dtype=float)
    fs, sigma0 = _sigma_scales(barrier, p)

    def g(sig):
        a_plus, b_plus = barrier.amplitudes(0.5 * sig + p)
        a_minus, b_minus = barrier.amplitudes(0.5 * sig - p)
        inv = 1.0 / (a_plus * a_minus)
        return np.stack([inv - 1.0, np.conj(b_plus * b_minus) * inv])

    # b falls off at least like 1/sigma, so R's integrand has no 1/sigma tail;
    # rho(-kappa) = conj(rho(kappa)) keeps it reflection-symmetric
    vals, errs = fourier_symmetric(g, r_grid, feature_scale=fs,
                                   c1=[-2j * barrier.integral_strength(), 0.0], tol=tol,
                                   kinks=_sigma_kinks(_b.amplitude_kinks(barrier), p),
                                   sigma0=sigma0)
    kd_t = KernelDensity(r_grid, vals[0], 1.0, "quadrature", float(errs[0]))
    kd_r = KernelDensity(r_grid, vals[1], 0.0, "quadrature", float(errs[1]))
    for name, kd in (("T", kd_t), ("R", kd_r)):
        if kd.error_estimate > tol:
            warnings.warn(f"{name} kernel error estimate {kd.error_estimate:.3g} exceeds "
                          f"tol {tol:.3g} at p = {p:.6g}", RuntimeWarning, stacklevel=2)
    return kd_t, kd_r


def kernel_by_residues(barrier, p, r_grid, n_poles):
    """Transmission kernel from the pole expansion.

    density(r) = -sum_n Re{A_n(p) exp[2 i r (p - kappa_n)]} for r >= 0 and
    exactly 0 for r < 0; A_n(p) = 4i / (a'(kappa_n) a(kappa_n - 2p)).
    ``n_poles`` is an upper bound: the sum takes the first min(n_poles,
    found) poles of one ``find_poles`` search. The returned truncation
    error is the envelope of the first omitted pole the search found; with
    none, 0 for delta (its one pole is the whole expansion) and inf at
    r >= 0 for every other barrier.
    """
    if n_poles < 1:
        raise ValueError("n_poles must be >= 1")
    kappa = _b.find_poles(barrier, n_poles + 1)
    # the summed poles and the first omitted one, if found, in one batch
    amps = _b.residue_factors(barrier, kappa, p)
    r_grid = np.asarray(r_grid, dtype=float)
    pos = r_grid >= 0.0
    density = np.zeros_like(r_grid)
    for kn, amp in zip(kappa[:n_poles], amps[:n_poles]):
        density[pos] -= (amp * np.exp(2j * r_grid[pos] * (p - kn))).real
    trunc = np.zeros_like(r_grid)
    if len(kappa) > n_poles:
        trunc[pos] = abs(amps[n_poles]) * np.exp(2.0 * kappa[n_poles].imag * r_grid[pos])
    elif not isinstance(barrier, _b.DeltaBarrier):
        trunc[pos] = np.inf
    return KernelDensity(r_grid, density, 1.0, "residues",
                         float(np.max(trunc)) if trunc.size else 0.0, trunc)


def delta_kernels(v0, p, r):
    """Closed-form kernel densities for the delta barrier.

    T(p, r) = delta(r) - theta(r) 2 v0 sqrt(1 + (v0/4p)^2) e^{-v0 r}
              cos(2 p r + gamma),  gamma = arctan(v0/4p);
    R(p, r) = theta(r) (v0^2/2p) e^{-v0 r} sin(2 p r), with the p -> 0
    limit sin(2pr)/2p -> r taken smoothly. Densities only are returned;
    the delta weight of T is 1.
    """
    if v0 <= 0 or p <= 0:
        raise ValueError("delta_kernels requires v0 > 0 and p > 0")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    pos = r >= 0.0
    gam = math.atan2(v0, 4.0 * p)
    t_dens = np.zeros_like(r)
    r_dens = np.zeros_like(r)
    rp = r[pos]
    t_dens[pos] = (-2.0 * v0 * math.sqrt(1.0 + (v0 / (4.0 * p)) ** 2)
                   * np.exp(-v0 * rp) * np.cos(2.0 * p * rp + gam))
    # sin(2pr)/(2p) = r sinc(2pr/pi)
    r_dens[pos] = v0 ** 2 * np.exp(-v0 * rp) * rp * np.sinc(2.0 * p * rp / np.pi)
    if scalar:
        return float(t_dens[0]), float(r_dens[0])
    return t_dens, r_dens


def _real_sum(name, tot):
    """Real part of a branch sum whose imaginary parts must cancel."""
    bad = np.max(np.abs(tot.imag) / np.maximum(1.0, np.abs(tot.real)))
    if bad > _PT_IMAG_TOL:
        raise KernelAccuracyError(
            f"{name} sum imaginary residue {bad:.2e} exceeds {_PT_IMAG_TOL}")
    return tot.real


def _pt_series(prefs, rate, xi, lam, z, lag):
    """For each named row of prefs, the real sum over branches b of
    pref_b exp(rate_b lag) 4F3(xi_b; lam_b; z). The branches share the real
    argument z in [0, 1), so the sums over n of c_n z^n take one (lags x terms)
    table of powers of z, built chunk by chunk over the lags.
    """
    zmax = float(np.max(z))
    # sized by z first; coefficients that grow with |omega| (wide barriers)
    # double the length until the tail bound holds
    n_terms = 2 if zmax == 0.0 else min(int(37.0 / -math.log(zmax)) + 12, _SERIES_MAX_TERMS)
    while True:
        coeff = hyp4f3_coefficients(xi, lam, n_terms)
        tail = (float(np.max(np.abs(coeff[:, -1]))) * zmax ** (n_terms - 1)
                / max(1.0 - zmax, 1e-12))
        if tail <= 1e-10:
            break
        if n_terms == _SERIES_MAX_TERMS:
            raise ConvergenceRegionError(
                f"4F3 series tail {tail:.2e} too large at |z|={zmax:.6f}")
        n_terms = min(2 * n_terms, _SERIES_MAX_TERMS)
    series = np.empty((len(coeff), len(z)), dtype=complex)
    step = max(1, _SERIES_TABLE_ENTRIES // n_terms)
    for lo in range(0, len(z), step):
        zc = z[lo:lo + step]
        powers = np.empty((len(zc), n_terms))
        powers[:, 0] = 1.0
        powers[:, 1:] = zc[:, None]
        np.cumprod(powers, axis=1, out=powers)
        # real matrix-vector products: each lag's sum then does not depend
        # on how many lags share its chunk
        for out, c in zip(series, coeff):
            out.real[lo:lo + step] = powers @ c.real
            out.imag[lo:lo + step] = powers @ c.imag
    terms = np.exp(np.outer(rate, lag)) * series
    return [_real_sum(name, np.sum(pref[:, None] * terms, axis=0))
            for name, pref in prefs.items()]


def _pt_late_args(nu, om):
    """The arguments of _pt_late's nine Gamma factors, one row per factor."""
    return np.stack([2 * om, 1j * nu, 1j * nu + 2 * om,
                     -0.5 + om, 0.5 + om, -0.5 + 1j * nu + om,
                     0.5 + 1j * nu + om, 0.5 - 1j * nu - om, 0.5 - om])


def _pt_late(s, nu, om, weight, g, r):
    """(T, R) at lags r > 0 from the weighted (nu_b, omega_b) branches, g
    the Gamma function at _pt_late_args(nu, om); the kernels share each
    branch's 4F3 series and differ only in the prefactor."""
    xi = (1.5 - om, 0.5 - om, 1.5 - 1j * nu - om, 0.5 - 1j * nu - om)
    lam = (1 - 2 * om, 1 - 1j * nu, 1 - 1j * nu - 2 * om)
    head = 2.0 * weight * g[0] * g[1] * g[2] / (s * g[3] * g[4] * g[5])
    t_pref = head / g[6]
    r_pref = head * g[7] / (g[4] * g[8])
    return _pt_series({"T": t_pref, "R": r_pref}, (1j * nu + 2 * om - 1) / s, xi, lam,
                      np.exp(-2.0 * r / s), r)


def _pt_early_args(nu, om):
    """The arguments of _pt_early's three Gamma factors, one row per factor."""
    return np.stack([1.5 + 1j * nu + om, 1.5 + 1j * nu - om, 2 + 1j * nu])


def _pt_early(v0, s, nu, om, g, r):
    """R at lags r < 0 from the (nu_b, omega_b) branches, resummed over the
    poles of b; g the Gamma function at _pt_early_args(nu, om)."""
    pref = (2j * v0 ** 2 * s * np.cos(np.pi * om) * (1 + 1j * nu) * g[0] * g[1]
            / (np.sinh(np.pi * nu) * g[2] ** 2))
    xi = (1.5 + om, 1.5 - om, 1.5 + 1j * nu + om, 1.5 + 1j * nu - om)
    lam = (2, 1 + 1j * nu, 2 + 1j * nu)
    return _pt_series({"early-reflection": pref}, (1j * nu + 2) / s, xi, lam,
                      np.exp(2.0 * r / s), r)[0]


def pt_kernels(v0, s, p, r):
    """Closed-form Poschl-Teller (T, R) kernel densities via 4F3 sums.

    The transmission density sums four hypergeometric pieces over the two
    pole families (+-omega) and the two momentum continuations (+-nu with
    nu = 2 p s). Reflection has support on both signs of the lag: a
    smooth barrier turns the packet around early, so R extends to r < 0.
    All the branches of one lag sign share one series argument, so each
    sign is one 4F3 table, and T and R share it, differing only in their
    prefactors; both always come back. Only |r| > 0.05 s is accepted
    (series argument away from the unit circle); ``kernel_row`` covers
    that band. Near v0 s = 1/2, where the two pole families merge
    (omega -> 0), the late sum is taken in that limit. Imaginary parts of
    the symmetrized sums must cancel below _PT_IMAG_TOL or
    KernelAccuracyError is raised.
    """
    if v0 <= 0 or s <= 0 or p <= 0:
        raise ValueError("pt_kernels requires v0, s, p > 0")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    r_min = PT_SERIES_RMIN_FACTOR * s
    if np.any(np.abs(r) <= r_min):
        raise ConvergenceRegionError(
            f"|r| <= {r_min:.4g} is outside the series region; use kernel_row")

    om = complex(cmath.sqrt(0.25 - (v0 * s) ** 2))
    nu = 2.0 * p * s
    t_dens = np.zeros_like(r)
    r_dens = np.zeros_like(r)
    pos = r > 0
    neg = r < 0

    oms, weight = (om,), np.ones(4)
    if abs(om) < _PT_OMEGA_MIN:
        # linear in omega^2 between the branches at +-_PT_OMEGA_MIN^2
        x = (0.25 - (v0 * s) ** 2) / _PT_OMEGA_MIN ** 2   # omega^2, in (-1, 1)
        oms = (_PT_OMEGA_MIN, 1j * _PT_OMEGA_MIN)
        weight = np.repeat([0.5 * (1.0 + x), 0.5 * (1.0 - x)], 4)
    late_om = np.array([sign * w for w in oms for sign in (1, -1, 1, -1)])
    late_nu = np.tile([nu, nu, -nu, -nu], len(oms))
    early_nu, early_om = np.array([nu, -nu]), np.array([om, -om])
    late_args = _pt_late_args(late_nu, late_om)
    early_args = _pt_early_args(early_nu, early_om)
    # every Gamma factor of both lag signs from one array call
    g = gamma_cx(np.concatenate([late_args.ravel(), early_args.ravel()]))
    g_late = g[:late_args.size].reshape(late_args.shape)
    g_early = g[late_args.size:].reshape(early_args.shape)

    if np.any(pos):
        t_dens[pos], r_dens[pos] = _pt_late(s, late_nu, late_om, weight, g_late, r[pos])
    # transmission is strictly causal: zeros of a are all below the axis
    if np.any(neg):
        r_dens[neg] = _pt_early(v0, s, early_nu, early_om, g_early, r[neg])

    if scalar:
        return float(t_dens[0]), float(r_dens[0])
    return t_dens, r_dens


def _modulus(x):
    """|x| of a number or an array; an array entry's is abs() of the Python
    complex (hypot) bit for bit, which np.abs is not."""
    return np.hypot(x.real, x.imag) if np.ndim(x) else abs(x)


def total_probabilities(barrier, p, a=None, ratio=None):
    """(T, R) at momentum p, directly from the amplitudes: T = |a|^-2, R = |b/a|^2.

    p is a number, giving floats, or an array, giving arrays equal entry by
    entry to the scalar calls. A caller that already holds a(p) or
    b(p)/a(p) passes it as ``a`` or ``ratio``.
    """
    if np.any(np.asarray(p) == 0):
        raise ZeroDivisionError("total probabilities undefined at p = 0")
    if a is None:
        a = barrier.amplitude_a(p)
    if ratio is None:
        ratio = barrier.ba_ratio(p)
    return 1.0 / _modulus(a) ** 2, _modulus(ratio) ** 2


def _band_fit(x_nodes, y_nodes, x):
    """The polynomial through the points (x_nodes, y_nodes), evaluated at x."""
    coef = np.polynomial.polynomial.polyfit(x_nodes, y_nodes, len(x_nodes) - 1)
    return np.polynomial.polynomial.polyval(x, coef)


def _pt_row(barrier, p0, r_vals):
    """Poschl-Teller (T, R) densities on a lag grid from one 4F3 series call.

    The call takes the lags |r| > h = PT_SERIES_RMIN_FACTOR * s and the band
    nodes: h * _R_BAND_NODES, and h * _T_BAND_NODES[1:] only for a row with
    T lags in (ZERO_LAG, h]. Across |r| <= h each kernel is the polynomial in
    r/h through its nodes. T is 0 at r < 0 and left unset at [0, ZERO_LAG].
    """
    h = PT_SERIES_RMIN_FACTOR * barrier.s
    band = np.abs(r_vals) <= h * 1.0000001
    t_band = band & (r_vals > ZERO_LAG)
    lags = [r_vals[~band]]
    if np.any(band):
        lags.append(h * _R_BAND_NODES)
    if np.any(t_band):
        lags.append(h * _T_BAND_NODES[1:])
    t_ser, r_ser = pt_kernels(barrier.v0, barrier.s, p0, np.concatenate(lags))
    n = len(lags[0])
    n_r = n + len(_R_BAND_NODES)
    t_dens, r_dens = np.zeros_like(r_vals), np.zeros_like(r_vals)
    t_dens[~band], r_dens[~band] = t_ser[:n], r_ser[:n]
    if np.any(band):
        r_dens[band] = _band_fit(_R_BAND_NODES, r_ser[n:n_r], r_vals[band] / h)
    if np.any(t_band):
        t_nodes = np.concatenate([[-2.0 * barrier.integral_strength()], t_ser[n_r:]])
        t_dens[t_band] = _band_fit(_T_BAND_NODES, t_nodes, r_vals[t_band] / h)
    return t_dens, r_dens


def kernel_row(barrier, p0, r_vals):
    """(T density, R density) for one momentum on an arbitrary lag grid.

    Each barrier gets its fastest exact route: the delta closed form; the
    4F3 series for Poschl-Teller, interpolated with no quadrature across the
    band |r| <= PT_SERIES_RMIN_FACTOR * s (``_pt_row``); for every other
    barrier one Fourier quadrature of both kernels over every lag. T is
    exactly 0 at r < 0 for every barrier (causality). Lags in [0, ZERO_LAG]
    stand in for r = 0+: there T is the exact jump -2w, w the integral of V
    (the 1/sigma tail -2iw/sigma of 1/(a+ a-) - 1 fixes it), and those lags
    are left out of the series call for T. Both kernels always come back.
    """
    r_vals = np.asarray(r_vals, dtype=float)
    spike = (r_vals >= 0.0) & (r_vals <= ZERO_LAG)
    if isinstance(barrier, _b.DeltaBarrier):
        t_dens, r_dens = delta_kernels(barrier.v0, p0, r_vals)
    elif isinstance(barrier, _b.PoschlTellerBarrier):
        t_dens, r_dens = _pt_row(barrier, p0, r_vals)
    else:
        t_dens, r_dens = (kd.density for kd in kernel_by_quadrature(barrier, p0, r_vals))
        t_dens[r_vals < 0.0] = 0.0
    t_dens[spike] = -2.0 * barrier.integral_strength()
    return t_dens, r_dens


def interference_eval(barrier, q, p, q0, p0, t):
    """Interference term between transmitted and reflected waves.

    (2/pi) Re[ b(p0-p) / (a(p0-p) a(p0+p)) exp(2i(q0 p - q p0) + 4 i p p0 t) ].
    Exactly at p = p0 the amplitude argument hits kappa = 0, where b is
    singular for the delta barrier; the ZeroDivisionError is propagated
    and callers exclude that measure-zero line.
    """
    kd = p0 - p
    ks = p0 + p
    val = (barrier.amplitude_b(kd) / (barrier.amplitude_a(kd) * barrier.amplitude_a(ks))
           * cmath.exp(2j * (q0 * p - q * p0) + 4j * p * p0 * t))
    return (2.0 / math.pi) * val.real


@dataclass(frozen=True)
class SemiclassicalValue:
    """A semiclassical kernel; error_estimate is 0 for the closed forms."""
    value: float
    regime_ok: bool
    violations: tuple
    error_estimate: float = 0.0


def small_lag_regime(w, p, r):
    """The small-lag asymptotic's three conditions by name, each over the
    lags r; "<<" reads as at most 0.2 w."""
    r = np.asarray(r, dtype=float)
    return {"r*p >= 1": r * p >= 1.0,
            "p << w": np.full(r.shape, p <= 0.2 * w),
            "r*p^2 << w": r * p * p <= 0.2 * w}


def _eikonal_spline(barrier, kappa_max, kappa_reach):
    """S(kappa) on (0, kappa_reach], splined, uniform up to kappa_max and
    graded past it; odd-real/even-imag continuation."""
    from scipy.interpolate import CubicSpline

    v_max = barrier.max_potential()
    k_top = math.sqrt(v_max)
    ks = np.unique(np.concatenate([
        np.linspace(1e-3 * k_top, kappa_max, _EIKONAL_SPLINE_NODES),
        np.geomspace(kappa_max, kappa_reach, _EIKONAL_TAIL_NODES + 1)[1:],
        k_top + k_top * np.linspace(-0.05, 0.05, 101),   # refine near the branch point
    ]))
    ks = ks[ks > 0]
    # the node at the branch point kappa^2 = max V moves just above it
    at_top = np.abs(ks * ks - v_max) <= 1e-12 * max(1.0, v_max)
    vals = _b.eikonal_action(barrier, np.where(at_top, ks * (1 + 1e-9), ks))
    spline = CubicSpline(ks, vals)

    def S(kappa):
        kappa = np.asarray(kappa, dtype=float)
        val = spline(np.clip(np.abs(kappa), ks[0], None))
        return val.real * np.sign(kappa) + 1j * val.imag

    return S


def semiclassical_kernel(barrier, p, r, mode="quadrature"):
    """Semiclassical transmission kernel density at lag r.

    Modes: 'quadrature' evaluates the stationary-phase integral built on
    the eikonal action (any barrier exposing a potential) as a whole-line
    Fourier transform by ``fourier_symmetric``, on panels that end at the
    action's kinks (``barriers.eikonal_kinks``); _SEMICLASSICAL_TOL is the
    target for its error estimate on the returned kernel, which comes back
    as ``error_estimate``; 'small_r' is the
    high-energy small-lag asymptotic driven by the potential area w;
    'airy' is the deep-tunneling Airy form, Poschl-Teller only. Regime
    checks are reported, never enforced: the value is computed anyway.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    scalar = np.ndim(r) == 0
    w = barrier.integral_strength()

    violations, err = (), 0.0
    if mode == "small_r":
        violations = tuple(name for name, ok in small_lag_regime(w, p, r_arr).items()
                           if not np.all(ok))
        x = 2.0 * w * r_arr
        vals = (x ** 0.25) / (r_arr * math.sqrt(math.pi)) * np.cos(
            2.0 * np.sqrt(x) + 0.25 * math.pi)
        vals = np.where(r_arr > 0, vals, 0.0)
    elif mode == "airy":
        if not isinstance(barrier, _b.PoschlTellerBarrier):
            raise MethodCompatibilityError("airy mode is the Poschl-Teller closed form")
        v0, s = barrier.v0, barrier.s
        if p >= v0:
            raise MethodCompatibilityError("airy mode needs tunneling: p < v0")
        phi3 = s * v0 ** 2 * (v0 ** 2 - 3 * p ** 2) / (12 * p ** 2 * (v0 ** 2 - p ** 2) ** 2)
        if phi3 <= 0:
            raise MethodCompatibilityError("cubic phase coefficient not positive (p too large)")
        phi1 = -s * math.log(v0 ** 2 / p ** 2 - 1.0)
        alpha = (3.0 * phi3) ** (-1.0 / 3.0)
        weight = math.exp(-2.0 * math.pi * s * (v0 - p))
        vals = weight * alpha * airy_ai(alpha * (r_arr - phi1))
        violations = () if p <= 0.5 * v0 else ("p <= v0/2",)
    elif mode == "quadrature":
        if not barrier.has_potential_function():
            raise MethodCompatibilityError("eikonal quadrature needs a pointwise potential")
        fs, sigma_hint = _sigma_scales(barrier, p)
        sigma_cap = 8.0 * sigma_hint
        # fourier_symmetric probes sigma up to 2.11 sigma_cap, so it samples S
        # at |kappa| = |sigma/2 +- p| below p + 1.06 sigma_cap
        S = _eikonal_spline(barrier, p + 2.0 * sigma_hint, p + 1.06 * sigma_cap)

        def h(sig):
            # exponent of 1/(a+ a-) with a = e^{iS}; the spline continuation
            # (odd real part, even imaginary part) keeps |1/a| <= 1 on both
            # sides below the barrier top, where the printed difference form
            # S(p + s/2) - S(p - s/2) only applies to real actions. It gives
            # h(-sigma) = conj h(sigma) and the tail -2iw/sigma - 2w^2/sigma^2 + ...
            return np.exp(-1j * (S(0.5 * sig + p) + S(0.5 * sig - p))) - 1.0

        # tol / pi: (1/pi) Re of the half-line integral is what comes back
        (vals,), (err,) = fourier_symmetric(h, r_arr, feature_scale=fs, c1=[-2j * w],
                                            tol=_SEMICLASSICAL_TOL / math.pi,
                                            kinks=_sigma_kinks(_b.eikonal_kinks(barrier), p),
                                            sigma0=sigma_hint, sigma_cap=sigma_cap)
    else:
        raise ValueError(f"unknown semiclassical mode {mode!r}")
    out = float(vals[0]) if scalar else vals
    return SemiclassicalValue(out, not violations, violations, float(err))


@dataclass(frozen=True)
class ClassicalLag:
    """Support and weight of the classical-limit transmission spike."""
    lag: float
    weight: float
    is_advance: bool   # negative lag: an artifact of the naive approximation


def classical_limit_lag(v0, s, p):
    """Classical-limit delta support for the wide Poschl-Teller barrier."""
    if not 0 < p < v0:
        raise ValueError("classical lag needs 0 < p < v0")
    lag = -s * math.log(v0 ** 2 / p ** 2 - 1.0)
    weight = math.exp(-2.0 * math.pi * s * (v0 - p))
    return ClassicalLag(lag, weight, lag < 0.0)
