"""Oscillatory Fourier quadrature with algebraic-tail subtraction.

The kernel integrands decay only like 1/sigma times an oscillation, so a
naive adaptive rule stalls. One routine, ``fourier_symmetric``, serves the
exact and the semiclassical kernels: it subtracts rational functions
carrying the known 1/sigma and fitted 1/sigma^2 and 1/sigma^3 tails (their
Fourier transforms are closed forms), integrates the remainder over panels
of at most 2 pi of phase at the largest lag with Gauss-Legendre rules, and
bounds what is left beyond the cutoff by the measured residual decay.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["fourier_symmetric", "adaptive_complex_quad"]

_gl_cache = {}


def _gl(order):
    if order not in _gl_cache:
        _gl_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gl_cache[order]


# complex entries in one block of the panel-phase table and of its product
# with the node phases; bounds the Fourier quadrature's memory at any lag count
_PHASE_BLOCK = 4_000_000

# Gauss-Legendre orders of the Fourier quadrature's refinement
_ORDERS = (8, 16, 32)

# the most phase s r a panel spans at the largest |r|
_PANEL_PHASE = 2.0 * np.pi


def _panels(a, b, n_panels):
    """(mids, half): midpoints and half width of n_panels equal panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])


def _phases(sigma, r_grid):
    """e^{-i sigma_j r_l}, one row per sigma."""
    out = np.outer(sigma, -1j * r_grid)
    return np.exp(out, out=out)


def _refined_panels(fun, sigma_hi, r_grid, feature_scale, tol):
    """Real parts of the integrals of fun(s) e^{-i s r} over [0, sigma_hi],
    refined in GL order: one row of values and one estimate per component
    of fun (one for a 1-D fun).

    Every node is s = m_j + h x_k, with m_j the panel midpoints, h the half
    panel width and x_k the order's abscissae, so
    e^{-i s r} = e^{-i m_j r} e^{-i h x_k r}. Each order multiplies each
    component's (panels x order) block of w g by the (order x lags) table
    e^{-i h x_k r}, and reduces the (panels x lags) product against the
    panel phases e^{-i m_j r}. A block of panels holds at most _PHASE_BLOCK
    entries (or one panel, at more lags than that), so no temporary grows
    with the number of lags; when the whole panel-phase table fits in one
    block it is built once and shared by every order. A component keeps the
    first order within tol of the last, and refinement stops when all have.

    A panel spans at most _PANEL_PHASE = 2 pi of the phase s r at the
    largest |r|, and at most feature_scale / 4. On a panel of 2 pi of phase
    the 8-point rule integrates e^{i pi x} over [-1, 1] to about 1.7e-10 and
    the 16-point rule to rounding (Davis & Rabinowitz, *Methods of Numerical
    Integration*, 2nd ed., 1984, sec. 2.7). The phase bound is the narrower
    one only past |r| = 8 pi / feature_scale; on the benchmark's ``spectra``
    kernels (lags to 9.95, feature scale about 2 for delta and 1.6 for
    Poschl-Teller) feature_scale / 4 sets the width.
    """
    r_max = max(float(np.max(np.abs(r_grid))), 1e-12)
    panel_len = min(_PANEL_PHASE / r_max, feature_scale / 4.0)
    n_panels = max(8, int(np.ceil(sigma_hi / panel_len)))
    mids, half = _panels(0.0, sigma_hi, n_panels)
    step = max(1, _PHASE_BLOCK // len(r_grid))
    shared = _phases(mids, r_grid) if step >= n_panels else None
    vals = None
    for order in _ORDERS:
        x, w = _gl(order)
        wg = np.asarray(fun((mids[:, None] + half * x).ravel())).reshape(-1, n_panels, order)
        wg *= half * w
        if vals is None:
            vals, errs = np.zeros((len(wg), len(r_grid))), np.full(len(wg), np.inf)
        live = np.flatnonzero(~(errs < tol))
        local = _phases(half * x, r_grid)
        new = np.zeros((len(wg), len(r_grid)))
        for lo in range(0, n_panels, step):
            phases = shared if shared is not None else _phases(mids[lo:lo + step], r_grid)
            for c in live:
                new[c] += (wg[c, lo:lo + step] @ local * phases).sum(axis=0).real
        if order != _ORDERS[0]:
            errs[live] = np.max(np.abs(new[live] - vals[live]), axis=1)
        vals[live] = new[live]
        if np.all(errs < tol):
            break
    return vals, errs


def _grow_cutoff(probe, sigma0, tol, sigma_cap):
    """(cutoff, probe(cutoff)): from sigma0 the cutoff doubles while some
    component's tail estimate, in probe's last entry, is at least tol/2 and
    fell by 30% or more at the doubling (less is the rounding-noise floor),
    and the next step stays within sigma_cap."""
    sigma = float(sigma0)
    est = probe(sigma)
    for _ in range(24):
        if np.all(est[-1] < 0.5 * tol) or sigma * 2.0 > sigma_cap:
            break
        nxt = probe(sigma * 2.0)
        if np.all((est[-1] < 0.5 * tol) | (nxt[-1] >= 0.7 * est[-1])):
            break
        sigma, est = sigma * 2.0, nxt
    return sigma, est


def fourier_symmetric(gfun, r_grid, *, feature_scale, c1, sigma0, tol=5e-7,
                      sigma_cap=2.0e5):
    """(1/2pi) * integral over the whole line of g(sigma) e^{-i sigma r}.

    g is one integrand with a scalar ``c1``, or one row per component with
    one ``c1`` each; components share the nodes and the cutoff. Each
    requires the reflection symmetry g(-sigma) = conj(g(sigma)) (so the
    result is real) and an algebraic tail g ~ c1/sigma + c2/sigma^2 with
    the exact, purely imaginary c1 and a real c2, fitted at the cutoff,
    which doubles from ``sigma0``. Returns (values, error_estimate) aligned
    with ``r_grid``, or a row of values and an estimate per component.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    lam = float(feature_scale)
    c1s = np.asarray(c1, dtype=complex).reshape(-1, 1)

    def rows(s):
        return np.asarray(gfun(s), dtype=complex).reshape(len(c1s), -1)

    def probe(sig):
        """Fit the c1/s + c2/s^2 + c3/s^3 tail and bound what remains."""
        probes = sig * np.array([1.0, 1.27, 1.55, 1.83, 2.11])
        g1p = rows(probes) - c1s * probes / (probes ** 2 + lam ** 2)
        c2_e = np.mean((probes ** 2 * g1p).real, axis=1, keepdims=True)
        g2p = g1p - c2_e / (probes ** 2 + lam ** 2)
        c3_e = 1j * np.mean((probes ** 3 * g2p).imag, axis=1, keepdims=True)
        g3p = g2p - c3_e * probes / (probes ** 2 + lam ** 2) ** 2
        e4 = np.max(np.abs(probes ** 4 * g3p), axis=1, keepdims=True)
        return c2_e, c3_e, e4 / (3.0 * np.pi * sig ** 3)

    sigma, (c2, c3, tail_err) = _grow_cutoff(probe, sigma0, tol, sigma_cap)

    def g3(s):
        return (rows(s)
                - c1s * s / (s ** 2 + lam ** 2)
                - c2 / (s ** 2 + lam ** 2)
                - c3 * s / (s ** 2 + lam ** 2) ** 2)

    # (1/2pi) int_{-S}^{S} = (1/pi) Re int_0^S by the reflection symmetry
    # (c1, c3 purely imaginary and c2 real keep the corrected integrand
    # reflection-symmetric).
    core, core_err = _refined_panels(g3, sigma, r_grid, feature_scale, tol)
    core = core / np.pi

    decay = np.exp(-lam * np.abs(r_grid))
    closed = (0.5 * c1s.imag * np.sign(r_grid) * decay
              + 0.5 * c2 * decay / lam
              + 0.25 * c3.imag * r_grid * decay / lam)
    vals, errs = core + closed, core_err / np.pi + tail_err[:, 0]
    return (vals[0], float(errs[0])) if np.ndim(c1) == 0 else (vals, errs)


def adaptive_complex_quad(f, a, b, tol=1e-9, max_depth=40):
    """Adaptive Gauss-Legendre quadrature of a complex vectorized integrand."""
    x8, w8 = _gl(8)
    x16, w16 = _gl(16)

    def one(lo, hi, depth):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        v8 = half * np.sum(w8 * f(mid + half * x8))
        v16 = half * np.sum(w16 * f(mid + half * x16))
        if abs(v16 - v8) <= tol * max(1.0, abs(v16)):
            return v16
        if depth >= max_depth:
            raise QuadratureError("adaptive quadrature failed to converge")
        return one(lo, mid, depth + 1) + one(mid, hi, depth + 1)

    return one(float(a), float(b), 0)
