"""Oscillatory Gauss-Legendre quadrature, and the one panel rule it runs on.

Two integrals here oscillate: the kernels' Fourier transforms
(``fourier_symmetric``) and closed-form detection's Gaussian-weighted
momentum integrals (``oscillatory_gauss_quad``). Both sum Gauss-Legendre
rules over panels that ``_panel_pieces`` places: the range is cut at the
integrand's kinks, and each piece into at least 8 equal panels, none
spanning more than 2 pi of phase. On such a panel the 8-point rule
integrates e^{i pi x} over [-1, 1] to about 1.7e-10, the 12-point rule to
about 2.5e-19 and the 16-point rule to rounding (Davis & Rabinowitz,
*Methods of Numerical Integration*, 2nd ed., 1984, sec. 2.7).

The kernel integrands decay only like 1/sigma times an oscillation, so a
naive adaptive rule stalls. ``fourier_symmetric`` serves the exact and the
semiclassical kernels: it subtracts rational functions carrying the known
1/sigma and fitted 1/sigma^2 and 1/sigma^3 tails (their Fourier transforms
are closed forms), integrates the remainder, and bounds what is left
beyond the cutoff by the measured residual decay.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

__all__ = ["fourier_symmetric", "oscillatory_gauss_quad", "adaptive_complex_quad"]

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


def _panel_pieces(lo, hi, panel, kinks):
    """Edges of each piece of [lo, hi] between the kinks inside it, each
    piece cut into at least 8 equal panels no wider than ``panel``."""
    cuts = [lo] + sorted({x for x in kinks if lo < x < hi}) + [hi]
    return [np.linspace(a, b, max(8, int(math.ceil((b - a) / panel))) + 1)
            for a, b in zip(cuts[:-1], cuts[1:])]


def _panel_edges(lo, hi, panel, kinks, strength):
    """Panel edges of [lo, hi] for ``oscillatory_gauss_quad``: those of
    ``_panel_pieces``, graded toward kappa = 0 for a weak barrier.

    Near kappa = 0 the amplitudes of a weak barrier vary on the scale of
    its strength w = integral of V: the zero of a nearest the real axis
    sits near -iw/2 (exactly there for the delta barrier). So where the
    range holds 0 and 0 < w < panel, panels halve toward 0, edges at 0,
    +-w, +-2w, ... below the panel width; the panel on [0, w] keeps the
    zero at its half width, where the 24-point rule is good to about 1e-22.
    """
    edges = np.concatenate([e[:-1] for e in _panel_pieces(lo, hi, panel, kinks)] + [[hi]])
    if lo < 0.0 < hi and 0.0 < strength < panel:
        graded = strength * 2.0 ** np.arange(int(math.ceil(math.log2(panel / strength))))
        graded = np.concatenate([-graded, [0.0], graded])
        edges = np.union1d(edges[(np.abs(edges) > graded[-1]) | np.isin(edges, [lo, hi, *kinks])],
                           graded[(graded > lo) & (graded < hi)])
    return edges


def oscillatory_gauss_quad(amp, center, lam_sum, q_shift, times, kinks, strength):
    """Per time t: integral of amp(k) e^{-lam_sum (k-center)^2/2 - ik(q_shift+kt)}.

    The range is center +- 14 sig, sig = lam_sum^-1/2, on panels no wider
    than sig/2 and than 2 pi / rate, rate = |q_shift| + 2 |t| (|center| +
    14 sig) at the largest |t|, the largest phase rate on the range. So a
    panel spans at most 2 pi of phase, one node set per Gauss order (12,
    24) serves every time and amp is evaluated once on each.
    ``_panel_edges`` ends panels at amp's ``kinks`` and grades them toward
    kappa = 0 for a barrier of small ``strength``. Per order, the
    time-free factor base = (node weight) amp(k) e^{-lam_sum (k-center)^2/2
    - ik q_shift} is formed once; per time, the sum of base e^{-ik^2 t} is two real
    products of cos(t k^2) and sin(t k^2) with base's real and imaginary
    parts. A time whose two orders differ by more than 1e-6 of the
    integrand's envelope, the 24-point sum of |base|, raises: the envelope
    bounds the integral at every time, and scales with amp, so an opaque
    barrier's narrow features are held to the same relative standard.
    """
    sig = math.sqrt(1.0 / lam_sum)
    lo, hi = center - 14.0 * sig, center + 14.0 * sig
    rate = abs(q_shift) + 2.0 * float(np.max(np.abs(times))) * (abs(center) + 14.0 * sig)
    panel = min(sig / 2.0, 2.0 * math.pi / max(rate, 1e-12))
    edges = _panel_edges(lo, hi, panel, kinks, strength)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    sums = []
    for order in (12, 24):
        x, w = _gl(order)
        k = (mids + half * x).ravel()
        base = (half * w).ravel() * amp(k) * np.exp(-0.5 * lam_sum * (k - center) ** 2
                                                    - 1j * q_shift * k)
        parts = np.column_stack([base.real, base.imag])
        k2 = k * k
        val = np.empty(len(times), dtype=complex)
        for i, t in enumerate(times):
            (c_re, c_im), (s_re, s_im) = np.cos(t * k2) @ parts, np.sin(t * k2) @ parts
            val[i] = complex(c_re + s_im, c_im - s_re)
        sums.append(val)
    envelope = float(np.sum(np.abs(base)))
    coarse, val = sums
    if np.any(np.abs(val - coarse) > 1e-6 * envelope):
        raise QuadratureError("detection amplitude quadrature did not settle")
    return val


def _phases(sigma, r_grid):
    """e^{-i sigma_j r_l}, one row per sigma."""
    out = np.outer(sigma, -1j * r_grid)
    return np.exp(out, out=out)


def _refined_panels(fun, sigma_hi, r_grid, feature_scale, tol, kinks):
    """Real parts of the integrals of fun(s) e^{-i s r} over [0, sigma_hi],
    refined in GL order: one row of values and one estimate per component
    of fun.

    ``_panel_pieces`` ends pieces at the ``kinks`` of fun and cuts each into
    equal panels spanning at most _PANEL_PHASE = 2 pi of the phase s r at
    the largest |r|, and at most feature_scale / 4. The phase bound is the
    narrower one only past |r| = 8 pi / feature_scale; on the benchmark's
    ``spectra`` kernels (lags to 9.95, feature scale about 2 for delta and
    1.6 for Poschl-Teller) feature_scale / 4 sets the width.

    Every node of a piece is s = m_j + h x_k, with m_j the panel midpoints,
    h the piece's half panel width and x_k the order's abscissae, so
    e^{-i s r} = e^{-i m_j r} e^{-i h x_k r}. Each order evaluates fun once
    on every piece's nodes; per block of one piece's panels, it multiplies
    each component's (panels x order) block of w g by the (order x lags)
    table e^{-i h x_k r}, and reduces the (panels x lags) product against
    the panel phases e^{-i m_j r}. A block holds at most _PHASE_BLOCK
    entries (or one panel, at more lags than that), so no temporary grows
    with the number of lags; when all panels fit in one block, their phase
    tables are built once and shared by every order. A component keeps the
    first order within tol of the last, and refinement stops when all have.
    """
    r_max = max(float(np.max(np.abs(r_grid))), 1e-12)
    pieces = _panel_pieces(0.0, sigma_hi, min(_PANEL_PHASE / r_max, feature_scale / 4.0), kinks)
    counts = [len(e) - 1 for e in pieces]
    mids = np.concatenate([0.5 * (e[:-1] + e[1:]) for e in pieces])
    half = np.repeat([0.5 * (e[1] - e[0]) for e in pieces], counts)[:, None]
    step = max(1, _PHASE_BLOCK // len(r_grid))
    # (first, last + 1) panel of each block: at most step panels of one piece
    blocks = [(lo, min(lo + step, end)) for end, n in zip(np.cumsum(counts), counts)
              for lo in range(end - n, end, step)]
    shared = [_phases(mids[lo:hi], r_grid) for lo, hi in blocks] if step >= len(mids) else None
    vals = None
    for order in _ORDERS:
        x, w = _gl(order)
        wg = np.asarray(fun((mids[:, None] + half * x).ravel())).reshape(-1, len(mids), order)
        wg *= half * w
        if vals is None:
            vals, errs = np.zeros((len(wg), len(r_grid))), np.full(len(wg), np.inf)
        live = np.flatnonzero(~(errs < tol))
        new = np.zeros((len(wg), len(r_grid)))
        for b, (lo, hi) in enumerate(blocks):
            local = _phases(half[lo] * x, r_grid)
            phases = shared[b] if shared is not None else _phases(mids[lo:hi], r_grid)
            for c in live:
                new[c] += (wg[c, lo:hi] @ local * phases).sum(axis=0).real
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


def fourier_symmetric(gfun, r_grid, *, feature_scale, c1, sigma0, tol, kinks,
                      sigma_cap=2.0e5):
    """(1/2pi) * integral over the whole line of g(sigma) e^{-i sigma r}.

    g holds one row per component, with one ``c1`` each; components share
    the nodes and the cutoff. Each requires the reflection symmetry
    g(-sigma) = conj(g(sigma)) (so the result is real) and an algebraic
    tail g ~ c1/sigma + c2/sigma^2 with the exact, purely imaginary c1 and
    a real c2, fitted at the cutoff, which doubles from ``sigma0``. Panels
    end at the ``kinks``, the sigma > 0 at which g is not smooth. Returns
    (values, error estimates): a row of values aligned with ``r_grid`` and
    an estimate per component.
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
    core, core_err = _refined_panels(g3, sigma, r_grid, feature_scale, tol, kinks)
    core = core / np.pi

    decay = np.exp(-lam * np.abs(r_grid))
    closed = (0.5 * c1s.imag * np.sign(r_grid) * decay
              + 0.5 * c2 * decay / lam
              + 0.25 * c3.imag * r_grid * decay / lam)
    return core + closed, core_err / np.pi + tail_err[:, 0]


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
