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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import barriers as _b
from .errors import (
    ConvergenceRegionError,
    KernelAccuracyError,
    MethodCompatibilityError,
)
from .quadrature import adaptive_complex_quad, fourier_halfline, fourier_symmetric
from .specfun import airy_ai, gamma_cx, hyp4f3_coefficients

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
    "classical_limit_lag",
    "ClassicalLag",
    "PT_SERIES_RMIN_FACTOR",
]

# Below this fraction of the width s the 4F3 argument is too close to the
# unit circle; callers fall back to quadrature.
PT_SERIES_RMIN_FACTOR = 0.05


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


def _sigma_feature(barrier, p):
    """Sigma-scale on which the kernel integrands vary."""
    if isinstance(barrier, _b.DeltaBarrier):
        return max(barrier.v0, 0.5 * p, 0.1)
    if isinstance(barrier, _b.PoschlTellerBarrier):
        return max(min(2.0 / (math.pi * barrier.s), 2.0 * barrier.v0), 0.05)
    lo, hi = barrier.support()
    return max(min(2.0 * barrier.kappa_scale(), 4.0 * math.pi / (hi - lo)), 0.05)


def kernel_by_quadrature(barrier, p, r_grid, tol=2e-7, which="TR"):
    """Transmission and reflection kernels by oscillatory quadrature.

    The transmission integrand is taken as 1/(a+ a-) - 1 so the constant
    part carries the free delta spike exactly; for asymmetric barriers the
    reflection gains the one-sided correction integral over sigma > 2p,
    which vanishes identically for symmetric potentials. ``which`` names
    the kernels to compute ("T", "R" or "TR"); a kernel not asked for is
    returned as None.
    """
    if p <= 0:
        raise ValueError("kernel quadrature requires p > 0")
    if which not in ("T", "R", "TR"):
        raise ValueError(f"which must be 'T', 'R' or 'TR', not {which!r}")
    r_grid = np.asarray(r_grid, dtype=float)
    fs = _sigma_feature(barrier, p)
    sigma0 = max(64.0 * fs, 16.0 * p + 32.0 * barrier.kappa_scale())
    kd_t = kd_r = None

    if "T" in which:
        def g_t(sig):
            a_plus = barrier.amplitude_a(0.5 * sig + p)
            a_minus = barrier.amplitude_a(0.5 * sig - p)
            return 1.0 / (a_plus * a_minus) - 1.0

        t_vals, t_err = fourier_symmetric(g_t, r_grid, feature_scale=fs,
                                          c1=-2j * barrier.integral_strength(),
                                          tol=tol, sigma0=sigma0)
        kd_t = KernelDensity(r_grid, t_vals, 1.0, "quadrature", t_err)

    if "R" in which:
        def g_r(sig):
            return barrier.ba_ratio(0.5 * sig + p) * barrier.ba_ratio(0.5 * sig - p)

        # b falls off at least like 1/sigma, so the product has no 1/sigma tail
        r_vals, r_err = fourier_symmetric(g_r, r_grid, feature_scale=fs,
                                          c1=0.0, tol=tol, sigma0=sigma0)
        if not barrier.symmetric:
            r_vals = r_vals + _reflection_correction(barrier, p, r_grid, tol)
        kd_r = KernelDensity(r_grid, r_vals, 0.0, "quadrature", r_err)
    return kd_t, kd_r


def _reflection_correction(barrier, p, r_grid, tol):
    """One-sided b-continuation integral for asymmetric barriers.

    Uses the real-axis continuation b(-x) = conj(b(x)); the combination
    [b+ + conj(b+)] [b- e^{-i s r} + conj(b- e^{-i s r})] is real, and the
    full correction is required to keep the integrated reflection
    non-negative (violations are reported, never silently adjusted).
    """
    # the first of 20 growing cutoffs where b has decayed away, else the 21st
    sig = np.cumprod(np.r_[2.0 * p + 8.0 * barrier.kappa_scale(), np.full(20, 1.6)])
    bv = (np.abs(barrier.amplitude_b(0.5 * sig[:20] + p))
          * np.abs(barrier.amplitude_b(0.5 * sig[:20] - p)))
    sig = sig[np.argmax(np.append(bv < 1e-14, True))]
    out = np.empty_like(r_grid)
    for i, r in enumerate(r_grid):
        def f(s_arr):
            s_arr = np.asarray(s_arr)
            ap, bp = barrier.amplitudes(0.5 * s_arr + p)
            am, bm = barrier.amplitudes(0.5 * s_arr - p)
            ph = np.exp(-1j * s_arr * r)
            return (2.0 * bp.real) * 2.0 * (bm * ph).real / (ap * am)
        val = adaptive_complex_quad(f, 2.0 * p + 1e-9, sig, tol=tol)
        out[i] = val.real / (2.0 * math.pi)
    return out


def kernel_by_residues(barrier, p, r_grid, n_poles):
    """Transmission kernel from the pole expansion.

    density(r) = -sum_n Re{A_n(p) exp[2 i r (p - kappa_n)]} for r >= 0 and
    exactly 0 for r < 0; A_n(p) = 4i / (a'(kappa_n) a(kappa_n - 2p)).
    The returned truncation error is the first omitted term's envelope.
    """
    if n_poles < 1:
        raise ValueError("n_poles must be >= 1")
    # one search; with only n_poles found, the last one bounds the error
    poles = _b._poles_below_axis(barrier, n_poles + 1, n_poles)
    bound_pole = poles[-1]
    r_grid = np.asarray(r_grid, dtype=float)
    pos = r_grid >= 0.0
    density = np.zeros_like(r_grid)
    for pd in poles[:n_poles]:
        amp = pd.residue_factor(p)
        density[pos] -= (amp * np.exp(2j * r_grid[pos] * (p - pd.kappa))).real
    trunc = np.zeros_like(r_grid)
    trunc[pos] = abs(bound_pole.residue_factor(p)) * np.exp(
        2.0 * bound_pole.kappa.imag * r_grid[pos])
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


def _pt_series(pref, rate, xi, lam, z, s, lag):
    """pref * exp(rate * lag) * 4F3(xi; lam; z) vectorized over the lag grid."""
    if np.any(np.abs(z) >= 1.0):
        raise ConvergenceRegionError("4F3 argument on or outside the unit circle")
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    if zmax == 0.0:
        n_terms = 2
    else:
        n_terms = min(int(37.0 / -math.log(zmax)) + 12, 20_000)
    coeff = hyp4f3_coefficients(xi, lam, n_terms)
    tail = abs(coeff[-1]) * zmax ** (n_terms - 1) / max(1.0 - zmax, 1e-12)
    if tail > 1e-10:
        raise ConvergenceRegionError(
            f"4F3 series tail {tail:.2e} too large at |z|={zmax:.6f}")
    series = np.polynomial.polynomial.polyval(z, coeff)
    return pref * np.exp(rate * lag) * series


def _pt_f_t(v0, s, nu, om, r):
    g = gamma_cx
    pref = (2.0 * g(2 * om) * g(1j * nu) * g(1j * nu + 2 * om)
            / (s * g(-0.5 + om) * g(0.5 + om)
               * g(-0.5 + 1j * nu + om) * g(0.5 + 1j * nu + om)))
    xi = (1.5 - om, 0.5 - om, 1.5 - 1j * nu - om, 0.5 - 1j * nu - om)
    lam = (1 - 2 * om, 1 - 1j * nu, 1 - 1j * nu - 2 * om)
    return _pt_series(pref, (1j * nu + 2 * om - 1) / s, xi, lam,
                      np.exp(-2.0 * r / s), s, r)


def _pt_f_r(v0, s, nu, om, r):
    g = gamma_cx
    pref = (2.0 * g(2 * om) * g(1j * nu) * g(1j * nu + 2 * om) * g(0.5 - 1j * nu - om)
            / (s * g(0.5 + om) ** 2 * g(0.5 - om)
               * g(-0.5 + om) * g(-0.5 + 1j * nu + om)))
    xi = (1.5 - om, 0.5 - om, 1.5 - 1j * nu - om, 0.5 - 1j * nu - om)
    lam = (1 - 2 * om, 1 - 1j * nu, 1 - 1j * nu - 2 * om)
    return _pt_series(pref, (1j * nu + 2 * om - 1) / s, xi, lam,
                      np.exp(-2.0 * r / s), s, r)


def _pt_f_s(v0, s, nu, om, r):
    """Early-reflection branch (r < 0), resummed over the poles of b."""
    g = gamma_cx
    pref = (2j * v0 ** 2 * s * np.cos(np.pi * om) * (1 + 1j * nu)
            * g(1.5 + 1j * nu + om) * g(1.5 + 1j * nu - om)
            / (np.sinh(np.pi * nu) * g(2 + 1j * nu) ** 2))
    xi = (1.5 + om, 1.5 - om, 1.5 + 1j * nu + om, 1.5 + 1j * nu - om)
    lam = (2, 1 + 1j * nu, 2 + 1j * nu)
    return _pt_series(pref, (1j * nu + 2) / s, xi, lam, np.exp(2.0 * r / s), s, r)


def pt_kernels(v0, s, p, r, imag_tol=1e-8, which="TR"):
    """Closed-form Poschl-Teller kernel densities via 4F3 sums.

    The transmission density sums four hypergeometric pieces over the two
    pole families (+-omega) and the two momentum continuations (+-nu with
    nu = 2 p s). Reflection has support on both signs of the lag: a
    smooth barrier turns the packet around early, so R extends to r < 0.
    Only |r| > 0.05 s is accepted (series argument away from the unit
    circle); callers fall back to quadrature inside that band. Imaginary
    parts of the symmetrized sums must cancel below ``imag_tol`` or
    KernelAccuracyError is raised. Only the densities named in ``which``
    ("T", "R" or "TR") are summed; the other comes back as None.
    """
    if v0 <= 0 or s <= 0 or p <= 0:
        raise ValueError("pt_kernels requires v0, s, p > 0")
    if which not in ("T", "R", "TR"):
        raise ValueError(f"which must be 'T', 'R' or 'TR', not {which!r}")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    r_min = PT_SERIES_RMIN_FACTOR * s
    if np.any(np.abs(r) <= r_min):
        raise ConvergenceRegionError(
            f"|r| <= {r_min:.4g} is outside the series region; use quadrature")

    om = complex(cmath.sqrt(0.25 - (v0 * s) ** 2))
    nu = 2.0 * p * s
    dens = {name: np.zeros_like(r) for name in which}
    pos = r > 0
    neg = r < 0

    if np.any(pos):
        rp = r[pos]
        terms = {"T": _pt_f_t, "R": _pt_f_r}
        for name in dens:
            tot = np.zeros(len(rp), dtype=complex)
            for nu_s in (nu, -nu):
                for om_s in (om, -om):
                    tot += terms[name](v0, s, nu_s, om_s, rp)
            bad = np.max(np.abs(tot.imag) / np.maximum(1.0, np.abs(tot.real)))
            if bad > imag_tol:
                raise KernelAccuracyError(
                    f"{name} sum imaginary residue {bad:.2e} exceeds {imag_tol}")
            dens[name][pos] = tot.real

    # transmission is strictly causal: zeros of a are all below the axis
    if "R" in dens and np.any(neg):
        rn = r[neg]
        s_sum = _pt_f_s(v0, s, nu, om, rn) + _pt_f_s(v0, s, -nu, -om, rn)
        bad = np.max(np.abs(s_sum.imag) / np.maximum(1.0, np.abs(s_sum.real)))
        if bad > imag_tol:
            raise KernelAccuracyError(
                f"early-reflection sum imaginary residue {bad:.2e} exceeds {imag_tol}")
        dens["R"][neg] = s_sum.real

    out = tuple(dens.get(name) for name in "TR")
    if scalar:
        return tuple(None if d is None else float(d[0]) for d in out)
    return out


def total_probabilities(barrier, p, a=None, ratio=None):
    """(T, R) at momentum p, directly from the amplitudes: T = |a|^-2, R = |b/a|^2.

    A caller that already holds a(p) or b(p)/a(p) passes it as ``a`` or
    ``ratio``.
    """
    if p == 0:
        raise ZeroDivisionError("total probabilities undefined at p = 0")
    if a is None:
        a = barrier.amplitude_a(p)
    if ratio is None:
        ratio = barrier.ba_ratio(p)
    return 1.0 / abs(a) ** 2, abs(ratio) ** 2


def kernel_row(barrier, p0, r_vals, tol=2e-7, which="TR"):
    """(T density, R density) for one momentum on an arbitrary lag grid.

    Each barrier gets its fastest exact route: the delta closed form; for
    Poschl-Teller the 4F3 series, with Fourier quadrature inside the band
    |r| <= PT_SERIES_RMIN_FACTOR * s; Fourier quadrature for every other
    barrier. ``tol`` is the quadrature tolerance. Only the kernels named
    in ``which`` ("T", "R" or "TR") are returned; the other comes back as
    None and is not computed.
    """
    if isinstance(barrier, _b.DeltaBarrier):
        dens = delta_kernels(barrier.v0, p0, r_vals)
    elif isinstance(barrier, _b.PoschlTellerBarrier):
        # 4F3 series away from r = 0, quadrature inside the band
        band = np.abs(r_vals) <= PT_SERIES_RMIN_FACTOR * barrier.s * 1.0000001
        dens = (np.zeros_like(r_vals), np.zeros_like(r_vals))
        if np.any(~band):
            series = pt_kernels(barrier.v0, barrier.s, p0, r_vals[~band], which=which)
            for out, d in zip(dens, series):
                if d is not None:
                    out[~band] = d
        if np.any(band):
            quad = kernel_by_quadrature(barrier, p0, r_vals[band], tol=tol, which=which)
            for out, k in zip(dens, quad):
                if k is not None:
                    out[band] = k.density
    else:
        quad = kernel_by_quadrature(barrier, p0, r_vals, tol=tol, which=which)
        dens = [None if k is None else k.density for k in quad]
    return tuple(d if name in which else None for name, d in zip("TR", dens))


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
    value: float
    regime_ok: bool
    violations: tuple


def _eikonal_spline(barrier, kappa_max, n=1200):
    """S(kappa) on (0, kappa_max], splined; odd-real/even-imag continuation."""
    v_max = barrier.max_potential()
    k_top = math.sqrt(v_max)
    ks = np.unique(np.concatenate([
        np.linspace(1e-3 * k_top, kappa_max, n),
        k_top + k_top * np.linspace(-0.05, 0.05, 101),   # refine near the branch point
    ]))
    ks = ks[ks > 0]
    vals = np.array([_b.eikonal_action(barrier, float(k))
                     if abs(k * k - v_max) > 1e-12 * max(1.0, v_max)
                     else _b.eikonal_action(barrier, float(k) * (1 + 1e-9))
                     for k in ks])
    sp_re = CubicSpline(ks, vals.real)
    sp_im = CubicSpline(ks, vals.imag)

    def S(kappa):
        kappa = np.asarray(kappa, dtype=float)
        mag = np.clip(np.abs(kappa), ks[0], None)
        re = sp_re(mag) * np.sign(kappa)
        im = sp_im(mag)
        return re + 1j * im

    return S


def semiclassical_kernel(barrier, p, r, mode="quadrature", tol=5e-6):
    """Semiclassical transmission kernel density at lag r.

    Modes: 'quadrature' evaluates the stationary-phase integral built on
    the eikonal action (any barrier exposing a potential); 'small_r' is
    the high-energy small-lag asymptotic driven by the potential area w;
    'airy' is the deep-tunneling Airy form, Poschl-Teller only. Regime
    checks are reported, never enforced: the value is computed anyway.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    scalar = np.ndim(r) == 0
    w = barrier.integral_strength()

    if mode == "small_r":
        p_ok = bool(np.all(r_arr * p >= 1.0))
        deep = p <= 0.2 * w
        asym = bool(np.all(r_arr * p * p <= 0.2 * w))
        violations = tuple(n for n, ok in
                           [("r*p >= 1", p_ok), ("p << w", deep), ("r*p^2 << w", asym)]
                           if not ok)
        x = 2.0 * w * r_arr
        vals = (x ** 0.25) / (r_arr * math.sqrt(math.pi)) * np.cos(
            2.0 * np.sqrt(x) + 0.25 * math.pi)
        vals = np.where(r_arr > 0, vals, 0.0)
        out = float(vals[0]) if scalar else vals
        return SemiclassicalValue(out, not violations, violations)

    if mode == "airy":
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
        vals = np.array([weight * alpha * airy_ai(alpha * (rr - phi1)) for rr in r_arr])
        violations = () if p <= 0.5 * v0 else ("p <= v0/2",)
        out = float(vals[0]) if scalar else vals
        return SemiclassicalValue(out, not violations, violations)

    if mode != "quadrature":
        raise ValueError(f"unknown semiclassical mode {mode!r}")

    if not barrier.has_potential_function():
        raise MethodCompatibilityError("eikonal quadrature needs a pointwise potential")
    fs = _sigma_feature(barrier, p)
    sigma_hint = max(64.0 * fs, 16.0 * p + 32.0 * barrier.kappa_scale())
    S = _eikonal_spline(barrier, p + 2.0 * sigma_hint)

    def h(sig):
        # exponent of 1/(a+ a-) with a = e^{iS}; the spline continuation
        # (odd real part, even imaginary part) keeps |1/a| <= 1 on both
        # sides below the barrier top, where the printed difference form
        # S(p + s/2) - S(p - s/2) only applies to real actions
        phase = S(0.5 * sig + p) + S(0.5 * sig - p)
        return np.exp(-1j * phase) - 1.0

    vals_c, err = fourier_halfline(h, r_arr, feature_scale=fs, c1=-2j * w,
                                   tol=tol, sigma0=sigma_hint,
                                   sigma_cap=8.0 * sigma_hint)
    vals = vals_c.real / math.pi
    out = float(vals[0]) if scalar else vals
    return SemiclassicalValue(out, True, ())


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
