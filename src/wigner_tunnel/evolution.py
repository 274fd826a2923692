"""Wigner-grid states, asymptotic barrier propagation, and detection.

States are sampled quasi-distributions rho(q, p) on rectangular grids.
Free motion is the exact shear q -> q + 2 p t (velocity 2p in the
hbar = 1, 2m = 1 units). Large-time barrier propagation applies the
momentum-diagonal transmission/reflection kernels as convolutions along q
over the lag distance; the optional interference term is a full
phase-space double integral and is off by default (it is negligible for
packets prepared with a narrow momentum spread).
The kernels depend on the barrier and p alone; time enters only through
the shear 2pt. So one momentum walk serves every time of a call: one pole
search for the lag ranges (``_kernel_ranges``), and per momentum p > 0,
forward or adjoint, one lag lattice and one ``kernel_row`` call for (T, R)
(``_kernel_rows``). One batched natural-spline fit per call covers every
source row (``NaturalSplines``). Per momentum and term, every time's
resampled source row is FFT-correlated with the weighted kernel row in
one call (``_lag_convolve``). The module imports no scipy: the splines
are the package's own and the FFT is numpy's.

Gaussian packets follow the unnormalized convention
rho = exp[-(q-Q)^2/lambda - lambda (p-P)^2] of mass pi; all detection
probabilities are formed in that same convention, so the closed-form and
grid pipelines are directly comparable.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import barriers as _b
from . import kernels as _k
from .errors import AxisMismatchError, GridCoverageError
from .quadrature import oscillatory_gauss_quad
from .splines import NaturalSplines

__all__ = [
    "WignerGrid",
    "GaussianState",
    "DetectionResult",
    "gaussian_to_grid",
    "free_propagate",
    "barrier_propagate",
    "detector_propagate",
    "detect",
    "gaussian_detection",
    "arrival_time_estimate",
    "purity_bound",
    "sector_masses",
]


def _check_axis(name, ax, n_min=4):
    """ValueError naming ``name`` unless ax is 1D with >= n_min uniform
    ascending points."""
    if ax.ndim != 1 or len(ax) < n_min:
        raise ValueError(f"{name}: expected a 1D axis of >= {n_min} points")
    steps = np.diff(ax)
    if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError(f"{name}: expected uniform ascending values")


def _check_incident(grid):
    """ValueError unless the grid holds a state incident from the left: not
    all zero, and its |values| at p <= 0 sum to at most 1e-9 of the total."""
    tot_mass = float(np.sum(np.abs(grid.values)))
    if tot_mass == 0:
        raise ValueError("empty state")
    if float(np.sum(np.abs(grid.values[:, grid.p <= 0]))) > 1e-9 * tot_mass:
        raise ValueError("initial support must lie on p > 0 (incident from the left)")


@dataclass(frozen=True)
class WignerGrid:
    """Sampled quasi-distribution on uniform rectangular axes.

    values[i, j] = rho(q[i], p[j]). Treated as immutable: operations
    return new grids.
    """
    q: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _check_axis("q axis", q)
        _check_axis("p axis", p)
        if v.shape != (len(q), len(p)):
            raise ValueError("values shape must be (len(q), len(p))")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", v)

    @property
    def dq(self):
        return float(self.q[1] - self.q[0])

    @property
    def dp(self):
        return float(self.p[1] - self.p[0])

    def mass(self):
        return float(np.trapezoid(np.trapezoid(self.values, self.p, axis=1), self.q))

    def momentum_marginal(self):
        """integral of rho dq, one value per p-axis point."""
        return np.trapezoid(self.values, self.q, axis=0)

    def same_axes(self, other):
        return (self.q.shape == other.q.shape and self.p.shape == other.p.shape
                and np.allclose(self.q, other.q, rtol=0, atol=1e-12)
                and np.allclose(self.p, other.p, rtol=0, atol=1e-12))


@dataclass(frozen=True)
class GaussianState:
    """Minimal-uncertainty packet: center (Q, P), coordinate dispersion lam."""
    Q: float
    P: float
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("coordinate dispersion lam must be positive")

    def wigner(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        return np.exp(-(q - self.Q) ** 2 / self.lam - self.lam * (p - self.P) ** 2)

    def mass_inside(self, q_lo, q_hi, p_lo, p_hi):
        """Analytic mass fraction inside a box (total mass is pi)."""
        rt = math.sqrt(self.lam)
        f_q = 0.5 * (math.erf((q_hi - self.Q) / rt) - math.erf((q_lo - self.Q) / rt))
        f_p = 0.5 * (math.erf(rt * (p_hi - self.P)) - math.erf(rt * (p_lo - self.P)))
        return float(f_q * f_p)


# gaussian_to_grid's largest mass share of the state off the grid
_COVERAGE_TOL = 1e-6


def gaussian_to_grid(state, q_axis, p_axis):
    """Sample a Gaussian state; errors out if it leaks off the grid."""
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    inside = state.mass_inside(q_axis[0], q_axis[-1], p_axis[0], p_axis[-1])
    if 1.0 - inside > _COVERAGE_TOL:
        sq = math.sqrt(state.lam / 2.0)
        sp = math.sqrt(0.5 / state.lam)
        raise GridCoverageError(
            f"state leaks {(1.0 - inside):.2e} of its mass off the grid",
            suggested_q=(state.Q - 6 * sq, state.Q + 6 * sq),
            suggested_p=(state.P - 6 * sp, state.P + 6 * sp))
    vals = state.wigner(q_axis[:, None], p_axis[None, :])
    return WignerGrid(q_axis, p_axis, vals)


def _resample_rows(grid, shifts):
    """Cubic resample of each momentum row at q - shift_j, zero outside."""
    fit = NaturalSplines(grid.q, grid.values)
    return np.column_stack([fit.sample(j, [grid.q[0] - shift], grid.dq, len(grid.q))[0]
                            for j, shift in enumerate(shifts)])


# free_propagate's largest relative mass change under the shear
_MASS_TOL = 1e-8


def free_propagate(grid, t):
    """Exact free shear q -> q + 2 p t, resampled onto the original axes."""
    if t < 0:
        raise ValueError("free propagation requires t >= 0")
    if t == 0:
        return WignerGrid(grid.q, grid.p, grid.values.copy())
    out = _resample_rows(grid, 2.0 * t * grid.p)
    m0, m1 = grid.mass(), float(np.trapezoid(np.trapezoid(out, grid.p, axis=1), grid.q))
    if abs(m1 - m0) > _MASS_TOL * max(abs(m0), 1e-300):
        span = 2.0 * t * float(np.max(np.abs(grid.p)))
        raise GridCoverageError(
            f"free shear lost mass {m1 - m0:.3e} (support left the grid)",
            suggested_q=(grid.q[0] - span, grid.q[-1] + span))
    return WignerGrid(grid.q, grid.p, out)


# lag step dq / _REFINE (or finer at high p)
_REFINE = 4
_UNCLEARED_SHARE = 1e-3   # criterion 09's detection tolerance


def _kernel_ranges(barrier):
    """(r_hi, r_lo): T lags on [0, r_hi], R on [r_lo, r_hi], r_hi ~12 decay lengths.

    They depend on the barrier alone, so one pole search serves every row
    and every time of a propagation call.
    """
    decay = 1.0 / (2.0 * abs(_b.find_poles(barrier, 1)[0].imag))
    r_hi = 12.0 * decay
    if isinstance(barrier, _b.PoschlTellerBarrier):
        r_lo = barrier.support()[0]   # early reflection from the smooth tail
    else:
        # no reflection comes earlier than off the front edge (0 for delta)
        r_lo = min(2.0 * barrier.support()[0], 0.0)
    return r_hi, r_lo


def barrier_propagate(grid, barrier, t, include_interference=False):
    """Apply the large-time barrier propagator to an incident-from-left state.

    The initial support must sit on p > 0 (incident convention). For each
    final momentum p > 0 the transmitted row is the freely sheared row
    (the unit delta spike of the kernel) plus the lag convolution with the
    transmission density; final p < 0 rows are built from the mirrored
    initial row at -p convolved with the reflection density. Setting
    ``include_interference`` adds the oscillatory two-sided term as a full
    double integral (validation use; it is costly).

    ``t`` is one time, giving one grid, or a sequence of times, giving a
    list of grids in the given order. Every time shares one momentum walk:
    one pole search, one kernel row per momentum and one batched spline
    fit for every source row. The lag lattice is cut where the largest time's lags stop
    reaching the grid, so at a smaller time the lags past its own cut
    sample only zeros.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < 0):
        raise ValueError("barrier propagation requires t >= 0")
    if len(times) == 0:
        return []
    _check_incident(grid)
    if barrier.integral_strength() == 0.0:
        # vanishing potential: both kernels collapse to the free spike
        outs = [free_propagate(grid, tk) for tk in times]
    else:
        _warn_if_not_cleared(grid, barrier, times)
        outs = _propagate_rows(grid, barrier, times, adjoint=False)
        if include_interference:
            for tk, out in zip(times, outs):
                out += _interference_grid(grid, barrier, tk)
        outs = [WignerGrid(grid.q, grid.p, out) for out in outs]
    return outs[0] if np.ndim(t) == 0 else outs


def _propagate_rows(grid, barrier, times, adjoint):
    """Momentum walk of the propagator (adjoint=False) or of its adjoint.

    Returns one value array per time. A first pass collects each momentum
    p > 0's terms and the distinct source rows they read, and one
    ``NaturalSplines`` call fits them all. The second pass makes one
    kernel row (T, R) per momentum and, per term, every time's row at once.
    Forward, the row at +p transmits into column +p and reflects into
    column -p; adjoint, column +p gathers the row at +p through T and the
    row at -p through R.
    """
    outs = np.zeros((len(times),) + grid.values.shape)
    # rows carrying < 1e-10 of the peak contribute below every tolerance
    # here and would push the kernels into their p -> 0 blow-up
    floor = 1e-10 * float(np.max(np.abs(grid.values)))
    p_zero = _zero_momentum(grid)
    momenta = list(grid.p[grid.p > p_zero])
    if not adjoint:   # a column -p with no node at +p reflects the row interpolated there
        momenta += [-pk for pk in grid.p[grid.p < -p_zero]
                    if _row_at_momentum(grid, -pk)[0] is None]
    walk, sources = [], []
    for p in momenta:
        col, row = _row_at_momentum(grid, p)
        mirror, mirror_row = _row_at_momentum(grid, -p)
        terms = [(row, col, True), (mirror_row, col, False) if adjoint else (row, mirror, False)]
        terms = [(src, j, transmitted) for src, j, transmitted in terms
                 if j is not None and src is not None and np.max(np.abs(src)) > floor]
        if not terms:
            continue
        walk.append((p, []))
        for src, j, transmitted in terms:
            if not sources or src is not sources[-1]:   # forward, both terms share one row
                sources.append(src)
            walk[-1][1].append((len(sources) - 1, j, transmitted))
    if not walk:
        return list(outs)
    fit = NaturalSplines(grid.q, np.column_stack(sources))
    ranges = _kernel_ranges(barrier)
    t_max = float(np.max(times))
    for p, terms in walk:
        t_w, r_w, r_start, refine, dr = _kernel_rows(grid, barrier, p, t_max, ranges)
        for k, j, transmitted in terms:
            shifts = 2.0 * abs(grid.p[j]) * times   # the column's |p|: a mirror -p is an ulp off
            if transmitted:
                outs[:, :, j] += _transmitted_rows(grid, fit, k, shifts, t_w, refine, dr, adjoint)
            else:
                outs[:, :, j] += _reflected_rows(grid, fit, k, shifts, r_start, r_w, refine, dr)
    return list(outs)


def _zero_momentum(grid):
    """|p| at or below which a node is the p = 0 node.

    linspace can round the middle node of a symmetric axis to +-2e-16;
    the kernels blow up there, so such a node gets what an exact 0.0 gets.
    """
    return 1e-9 * grid.dp


def _warn_if_not_cleared(grid, barrier, times):
    """Warn at each time at which over _UNCLEARED_SHARE of the incident mass, |rho|
    on the walk's p > 0 nodes, has a free path q + 2pt short of the barrier's far
    edge: the asymptotic propagator places that share as if it had passed."""
    pos = grid.p > _zero_momentum(grid)
    rho = np.abs(grid.values[:, pos])
    for t in times:
        behind = grid.q[:, None] + 2.0 * grid.p[pos] * t < barrier.support()[1]
        share = float(np.sum(rho, where=behind) / np.sum(rho))
        if share > _UNCLEARED_SHARE:
            warnings.warn(f"{share:.2g} of the incident mass has not classically cleared the "
                          f"barrier by t = {t:g}; the asymptotic propagator is approximate here",
                          stacklevel=3)


def _row_at_momentum(grid, p0):
    """(column, initial row) at momentum p0; between nodes (None, linear interpolant)."""
    p = grid.p
    if p0 < p[0] or p0 > p[-1]:
        return None, None
    # p[j - 1] < p0 <= p[j]; a mirror momentum -p rounds to either side of its node
    j = int(np.searchsorted(p, p0))
    near = j if j == 0 or p[j] - p0 <= p0 - p[j - 1] else j - 1
    if abs(p[near] - p0) < 1e-12 * max(1.0, abs(p0)):
        return near, grid.values[:, near]
    wgt = (p0 - p[j - 1]) / (p[j] - p[j - 1])
    return None, (1.0 - wgt) * grid.values[:, j - 1] + wgt * grid.values[:, j]


def _kernel_rows(grid, barrier, p, t, ranges):
    """(T, R, r_start, refine, dr): the Simpson-weighted kernel rows at p > 0.

    One lattice r = m dr, m = -m0 .. n-1 (m0 even, n odd, m0 dr >= -r_lo;
    lags past 2 (q span) + 2pt + dq only sample zeros, so t is the largest
    time the rows serve) and one kernel_row call: T takes m >= 0 and R
    every m, each an odd-count Simpson rule.
    dr <= pi / (24 p) resolves the kernels' oscillation; r = 0 is ZERO_LAG (0+).
    """
    r_hi, r_lo = ranges
    dr = min(grid.dq / _REFINE, math.pi / (2.0 * p) / 12.0)
    refine = max(1, int(round(grid.dq / dr)))
    dr = grid.dq / refine
    r_hi = min(r_hi, 2.0 * (grid.q[-1] - grid.q[0]) + 2.0 * p * t + grid.dq)
    m0 = 2 * int(math.ceil(-r_lo / (2.0 * dr)))
    n = 2 * (int(math.ceil(r_hi / dr)) // 2) + 1
    if n < 3:
        raise ValueError("need >= 3 kernel samples")
    r = dr * np.arange(-m0, n)
    r[m0] = _k.ZERO_LAG
    t_dens, r_dens = _k.kernel_row(barrier, p, r)
    return (_simpson(n, dr) * t_dens[m0:], _simpson(m0 + n, dr) * r_dens,
            -m0 * dr, refine, dr)


def _simpson(n, dr):
    w = np.where(np.arange(n) % 2, 4.0, 2.0)   # n is odd
    w[[0, -1]] = 1.0
    return w * (dr / 3.0)


def _next_fast_len(n):
    """Smallest 2^a 3^b 5^c >= n, the real-FFT length pocketfft transforms fastest."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def fftconvolve(in1, in2):
    """scipy.signal.fftconvolve(in1, in2, "valid"), bit for bit, on numpy's FFT.

    A 2-D in1 gives one valid convolution per row, with in2's spectrum
    computed once.
    """
    n1, n2 = np.shape(in1)[-1], len(in2)
    n = n1 + n2 - 1
    nfft = _next_fast_len(n)
    sp1, sp2 = np.fft.rfft(in1, nfft), np.fft.rfft(in2, nfft)
    # the longer factor first, as scipy orders them: the product then matches bit for bit
    spectrum = sp1 * sp2 if n1 >= n2 else sp2 * sp1
    full = np.fft.irfft(spectrum, nfft)[..., :n]
    return full[..., min(n1, n2) - 1:max(n1, n2)]


def _lag_convolve(grid, fit, col, starts, kernel, refine, dr):
    """Correlate a weighted kernel row with a fitted source row, one row per start.

    Returns (fine, smooth): the source sampled on starts[k] + m dr (zero
    off the grid) and smooth[k, i] = sum_m kernel[m] fine[k, i refine + m]
    per q node.
    """
    n_fine = (len(grid.q) - 1) * refine + len(kernel)
    fine = fit.sample(col, starts, dr, n_fine)
    smooth = fftconvolve(fine, kernel[::-1])[:, ::refine]
    return fine, smooth


def _transmitted_rows(grid, fit, col, shifts, kernel, refine, dr, adjoint):
    """Free spike plus the transmission lag integral of the fitted row at p > 0.

    kernel: the weighted T on r = m dr, m >= 0; shifts: 2pt, one per time.
    Forward: out(q) = row(q - 2pt) + int T(r) row(q - 2pt + r) dr.
    Adjoint: out(q) = row(q + 2pt) + int T(r) row(q + 2pt - r) dr.
    """
    if adjoint:
        # q_i + 2pt - r_m = (q_min + 2pt - r_max) + (i*refine + n-1-m) dr
        spike = len(kernel) - 1
        starts = grid.q[0] + shifts - dr * spike
        kernel = kernel[::-1]
    else:
        # q_i - 2pt + r_m = (q_min - 2pt) + (i*refine + m) dr
        spike = 0
        starts = grid.q[0] - shifts
    fine, smooth = _lag_convolve(grid, fit, col, starts, kernel, refine, dr)
    return fine[:, spike::refine][:, :len(grid.q)] + smooth


def _reflected_rows(grid, fit, col, shifts, r_start, kernel, refine, dr):
    """Reflection lag integral of the fitted row at +p, forward and adjoint alike.

    out(q_i) = sum_k kernel_k src(r_start + k dr - 2pt - q_i): one fine
    lattice from r_start - 2pt - q_max per time, reversed in i.
    """
    _, vals = _lag_convolve(grid, fit, col, r_start - shifts - grid.q[-1], kernel,
                            refine, dr)
    return vals[:, ::-1]


def _interference_grid(grid, barrier, t):
    """Oscillatory transmitted-reflected cross term, factorized.

    rho_I(q, p) = (2/pi) Re sum_{q0, p0} w_q w_p rho0(q0, p0)
                  (b/a)(p0-p) / a(p0+p) e^{2 i (q0 p - q p0) + 4 i p p0 t};
    the b pole at p0 = p cancels inside the regularized ratio, and the
    measure-zero line p0 + p = 0 (where a is singular) is excluded.
    """
    q, p = grid.q, grid.p
    wq = np.full(len(q), grid.dq)
    wq[0] = wq[-1] = 0.5 * grid.dq
    wp = np.full(len(p), grid.dp)
    wp[0] = wp[-1] = 0.5 * grid.dp

    src_cols = p > 0
    p0 = p[src_cols]
    rho_w = grid.values[:, src_cols] * wq[:, None]        # (i0, j0)

    pdiff = p0[:, None] - p[None, :]                      # (j0, j)
    psum = p0[:, None] + p[None, :]
    ok = np.abs(psum) > 1e-12
    C = np.zeros_like(pdiff, dtype=complex)
    C[ok] = barrier.ba_ratio(pdiff[ok]) / barrier.amplitude_a(psum[ok])
    C *= np.exp(4j * np.outer(p0, p) * t) * wp[src_cols][:, None]

    # S[j0, j] = sum_{i0} rho0(q_{i0}, p0_{j0}) w_{i0} exp(2 i q_{i0} p_j)
    S = rho_w.T @ np.exp(2j * np.outer(q, p))
    E = np.exp(-2j * np.outer(q, p0))                     # (i, j0)
    return (2.0 / math.pi) * (E @ (C * S)).real


def detect(grid, acceptance):
    """Detection probability: trapezoid inner product of state and acceptance."""
    if not grid.same_axes(acceptance):
        raise AxisMismatchError("state and acceptance grids must share axes")
    return float(np.trapezoid(np.trapezoid(grid.values * acceptance.values,
                                           grid.p, axis=1), grid.q))


@dataclass(frozen=True)
class DetectionResult:
    """Gaussian detection probability and its three components.

    w_total = w_t + w_r + 2 w_s; for pure states w_s^2 <= w_t w_r. Each
    field is a number for one time and an array over an array of times.
    """
    w_total: float
    w_t: float
    w_r: float
    w_s: float
    amplitude_t: complex
    amplitude_r: complex


def gaussian_detection(init, det, barrier, t):
    """Closed-form detection probability for Gaussian state and detector.

    The transmitted amplitude integrates 1/a against the momentum-space
    Gaussian centered at P+; the reflected amplitude integrates the
    left-incidence reflection -conj(b)/a (``Barrier.reflection_lr``) at P-.
    Components carry the Gaussian-overlap prefactors
    (1/2) sqrt(l0 ld) exp[-l0 ld (P0 -+ Pd)^2 / (l0+ld)], whose cross term
    reproduces the mass-pi Gaussian convention used by the grids.

    ``t`` is one time or an array of times. For an array, the result's
    fields are arrays over t, from one node set per amplitude and Gauss
    order, sized by the phase rate at the largest |t|: 1/a and
    -conj(b)/a are evaluated twice each whatever the number of times.
    """
    l0, ld = init.lam, det.lam
    lam_sum = l0 + ld
    P_plus = (l0 * init.P + ld * det.P) / lam_sum
    P_minus = (l0 * init.P - ld * det.P) / lam_sum
    Q_minus = init.Q - det.Q
    Q_plus = init.Q + det.Q
    _warn_if_barrier_overlap(init, det, barrier)

    times = np.atleast_1d(np.asarray(t, dtype=float))
    w = barrier.integral_strength()
    A = oscillatory_gauss_quad(lambda k: 1.0 / barrier.amplitude_a(k), P_plus,
                               lam_sum, Q_minus, times, _b.amplitude_kinks(barrier), w)
    # no kinks: an eikonal barrier's b, and so B's integrand, is 0
    B = oscillatory_gauss_quad(barrier.reflection_lr, P_minus, lam_sum, Q_plus, times, (), w)

    base = 0.5 * math.sqrt(l0 * ld)
    ex = l0 * ld / lam_sum
    w_t = base * math.exp(-ex * (init.P - det.P) ** 2) * np.abs(A) ** 2
    w_r = base * math.exp(-ex * (init.P + det.P) ** 2) * np.abs(B) ** 2
    w_s = base * math.exp(-ex * (init.P ** 2 + det.P ** 2)) * (A * B.conj()).real
    fields = (w_t + w_r + 2.0 * w_s, w_t, w_r, w_s, A, B)
    if np.ndim(t) == 0:
        fields = tuple(f[0].item() for f in fields)
    return DetectionResult(*fields)


def _warn_if_barrier_overlap(init, det, barrier):
    extent = max(map(abs, barrier.support()))
    for st, name in ((init, "initial state"), (det, "detector")):
        if abs(st.Q) < extent + 4.0 * math.sqrt(st.lam / 2.0):
            warnings.warn(f"{name} overlaps the barrier region; closed-form "
                          "detection assumes well-separated packets", stacklevel=3)


# arrival_time_estimate's phase-derivative step, relative to P+
_PHASE_STEP = 1e-5


def arrival_time_estimate(init, det, barrier):
    """Stationary-phase arrival time of the transmitted packet.

    t* = (Q_d - Q_0 - phi'(P+)) / (2 P+), phi = arg a, with the
    derivative by Richardson-extrapolated central differences.
    """
    l0, ld = init.lam, det.lam
    P_plus = (l0 * init.P + ld * det.P) / (l0 + ld)
    if P_plus == 0:
        raise ZeroDivisionError("arrival estimate undefined at P+ = 0")
    h = _PHASE_STEP * abs(P_plus)

    def phi(k):
        return cmath.phase(barrier.amplitude_a(k))

    d1 = (phi(P_plus + h) - phi(P_plus - h)) / (2.0 * h)
    d2 = (phi(P_plus + 0.5 * h) - phi(P_plus - 0.5 * h)) / h
    dphi = (4.0 * d2 - d1) / 3.0
    return (det.Q - init.Q - dphi) / (2.0 * P_plus)


def detector_propagate(grid, barrier, t):
    """Heisenberg-picture evolution of an acceptance function.

    Defined so that detect(barrier_propagate(rho, t), zeta) equals
    detect(rho, detector_propagate(zeta, t)) up to discretization; this is
    the backward-propagation side of the reciprocity identity (the kernel
    with swapped arguments and reflected momenta).
    """
    if t < 0:
        raise ValueError("detector propagation requires t >= 0")
    if barrier.integral_strength() == 0.0:
        # vanishing potential: the adjoint of the free shear q -> q + 2pt
        return WignerGrid(grid.q, grid.p, _resample_rows(grid, -2.0 * t * grid.p))
    times = np.array([t], dtype=float)
    return WignerGrid(grid.q, grid.p, _propagate_rows(grid, barrier, times, adjoint=True)[0])


def purity_bound(grid):
    """(lhs, rhs) of the pure-state bound: integral of rho^2 <= (mass)^2/(2 pi)."""
    sq = float(np.trapezoid(np.trapezoid(grid.values ** 2, grid.p, axis=1), grid.q))
    return sq, grid.mass() ** 2 / (2.0 * math.pi)


def sector_masses(grid):
    """(positive-p mass, negative-p mass) by trapezoid over each sector."""
    pos = grid.p > 0
    neg = grid.p < 0
    m_pos = float(np.trapezoid(np.trapezoid(grid.values[:, pos], grid.p[pos], axis=1),
                               grid.q)) if np.sum(pos) > 1 else 0.0
    m_neg = float(np.trapezoid(np.trapezoid(grid.values[:, neg], grid.p[neg], axis=1),
                               grid.q)) if np.sum(neg) > 1 else 0.0
    return m_pos, m_neg
