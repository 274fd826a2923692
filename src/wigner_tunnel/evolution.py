"""Wigner-grid states, asymptotic barrier propagation, and detection.

States are sampled quasi-distributions rho(q, p) on rectangular grids.
Free motion is the exact shear q -> q + 2 p t (velocity 2p in the
hbar = 1, 2m = 1 units). Large-time barrier propagation applies the
momentum-diagonal transmission/reflection kernels as convolutions along q
over the lag distance; the optional interference term is a full
phase-space double integral and is off by default (it is negligible for
packets prepared with a narrow momentum spread).
Every propagator row, forward or adjoint, transmitted or reflected,
is one primitive: a Simpson lag lattice (``_lag_lattice``) and an FFT
correlation with the spline-resampled row (``_lag_convolve``).

Gaussian packets follow the unnormalized convention
rho = exp[-(q-Q)^2/lambda - lambda (p-P)^2] of mass pi; all detection
probabilities are formed in that same convention, so the closed-form and
grid pipelines are directly comparable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.interpolate import CubicSpline
from scipy.special import erf

from . import barriers as _b
from . import kernels as _k
from .errors import AxisMismatchError, GridCoverageError, QuadratureError
from .quadrature import _panel_nodes

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
        for name, ax in (("q", q), ("p", p)):
            if ax.ndim != 1 or len(ax) < 4:
                raise ValueError(f"{name} axis must be 1D with >= 4 points")
            steps = np.diff(ax)
            if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
                raise ValueError(f"{name} axis must be uniform ascending")
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
        f_q = 0.5 * (erf((q_hi - self.Q) / rt) - erf((q_lo - self.Q) / rt))
        f_p = 0.5 * (erf(rt * (p_hi - self.P)) - erf(rt * (p_lo - self.P)))
        return float(f_q * f_p)


def gaussian_to_grid(state, q_axis, p_axis, coverage_tol=1e-6):
    """Sample a Gaussian state; errors out if it leaks off the grid."""
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    inside = state.mass_inside(q_axis[0], q_axis[-1], p_axis[0], p_axis[-1])
    if 1.0 - inside > coverage_tol:
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
    out = np.zeros_like(grid.values)
    for j in range(len(grid.p)):
        row = grid.values[:, j]
        if not np.any(row):
            continue
        spline = CubicSpline(grid.q, row, bc_type="natural")
        x = grid.q - shifts[j]
        m = (x >= grid.q[0]) & (x <= grid.q[-1])
        out[m, j] = spline(x[m])
    return out


def free_propagate(grid, t, mass_tol=1e-8):
    """Exact free shear q -> q + 2 p t, resampled onto the original axes."""
    if t < 0:
        raise ValueError("free propagation requires t >= 0")
    if t == 0:
        return WignerGrid(grid.q, grid.p, grid.values.copy())
    out = _resample_rows(grid, 2.0 * t * grid.p)
    m0, m1 = grid.mass(), float(np.trapezoid(np.trapezoid(out, grid.p, axis=1), grid.q))
    if abs(m1 - m0) > mass_tol * max(abs(m0), 1e-300):
        span = 2.0 * t * float(np.max(np.abs(grid.p)))
        raise GridCoverageError(
            f"free shear lost mass {m1 - m0:.3e} (support left the grid)",
            suggested_q=(grid.q[0] - span, grid.q[-1] + span))
    return WignerGrid(grid.q, grid.p, out)


# lag step dq / _REFINE (or finer at high p)
_REFINE = 4


def _kernel_ranges(barrier):
    """Lag supports (T: [0, R_t], R: [r_lo, R_r]) covering ~12 decay lengths.

    They depend on the barrier alone, so one pole search serves every row.
    """
    poles = _b.find_poles(barrier, 1)
    decay = 1.0 / (2.0 * abs(poles[0].kappa.imag))
    r_hi = 12.0 * decay
    if isinstance(barrier, _b.PoschlTellerBarrier):
        r_lo = -6.0 * barrier.s   # early reflection from the smooth tail
    else:
        r_lo = 0.0
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
    """
    if t < 0:
        raise ValueError("barrier propagation requires t >= 0")
    neg_mass = float(np.sum(np.abs(grid.values[:, grid.p <= 0])))
    tot_mass = float(np.sum(np.abs(grid.values)))
    if tot_mass == 0:
        raise ValueError("empty state")
    if neg_mass > 1e-9 * tot_mass:
        raise ValueError("initial support must lie on p > 0 (incident from the left)")
    if barrier.integral_strength() == 0.0:
        # vanishing potential: both kernels collapse to the free spike
        return free_propagate(grid, t)

    _warn_if_not_cleared(grid, barrier, t)
    out = _propagate_rows(grid, barrier, t, adjoint=False)
    if include_interference:
        out += _interference_grid(grid, barrier, t)
    return WignerGrid(grid.q, grid.p, out)


def _propagate_rows(grid, barrier, t, adjoint):
    """Row walk of the propagator (adjoint=False) or of its adjoint.

    Forward, p > 0 rows transmit the row at p and p < 0 rows reflect the
    row at -p; adjoint, each p > 0 row gathers both.
    """
    out = np.zeros_like(grid.values)
    # rows carrying < 1e-10 of the peak contribute below every tolerance
    # here and would push the kernels into their p -> 0 blow-up
    floor = 1e-10 * float(np.max(np.abs(grid.values)))
    p_zero = _zero_momentum(grid)
    ranges = _kernel_ranges(barrier)

    for j, pj in enumerate(grid.p):
        row = grid.values[:, j]
        if pj > p_zero and np.max(np.abs(row)) > floor:
            out[:, j] += _transmitted_row(grid, barrier, t, row, pj, ranges, adjoint)
    for j, pj in enumerate(grid.p):
        p0 = pj if adjoint else -pj
        src = _row_at_momentum(grid, -pj) if p0 > p_zero else None
        if src is not None and np.max(np.abs(src)) > floor:
            out[:, j] += _reflected_row(grid, barrier, t, src, p0, ranges)
    return out


def _zero_momentum(grid):
    """|p| at or below which a node is the p = 0 node.

    linspace can round the middle node of a symmetric axis to +-2e-16;
    the kernels blow up there, so such a node gets what an exact 0.0 gets.
    """
    return 1e-9 * grid.dp


def _warn_if_not_cleared(grid, barrier, t):
    extent = 0.0
    if isinstance(barrier, _b.PoschlTellerBarrier):
        extent = 8.0 * barrier.s
    elif barrier.has_potential_function():
        lo, hi = barrier.support()
        extent = max(abs(lo), abs(hi))
    marg_q = np.trapezoid(grid.values, grid.p, axis=1)
    marg_p = grid.momentum_marginal()
    q_bulk = grid.q[np.abs(marg_q) > 1e-6 * np.max(np.abs(marg_q))]
    p_bulk = grid.p[np.abs(marg_p) > 1e-6 * np.max(np.abs(marg_p))]
    if len(q_bulk) == 0 or len(p_bulk) == 0:
        return
    p_slow = max(float(p_bulk[p_bulk > 0].min()) if np.any(p_bulk > 0) else 0.0, 1e-12)
    rear = float(q_bulk[0]) + 2.0 * p_slow * t
    if rear < extent:
        warnings.warn("slowest support has not classically cleared the barrier "
                      f"region (rear {rear:.3g} < extent {extent:.3g}); the "
                      "asymptotic propagator is approximate here", stacklevel=3)


def _row_at_momentum(grid, p0):
    """Initial row at momentum +p0, interpolated linearly across rows."""
    p = grid.p
    if p0 < p[0] or p0 > p[-1]:
        return None
    j = int(np.searchsorted(p, p0))
    if j < len(p) and abs(p[j] - p0) < 1e-12 * max(1.0, abs(p0)):
        return grid.values[:, j]
    if j == 0 or j >= len(p):
        return None
    wgt = (p0 - p[j - 1]) / (p[j] - p[j - 1])
    return (1.0 - wgt) * grid.values[:, j - 1] + wgt * grid.values[:, j]


def _lag_lattice(grid, p, r_lo, r_hi):
    """(r, Simpson weights, refine, dr) over [r_lo, r_hi] at momentum p.

    dq = refine dr, and dr <= pi / (24 p) resolves the kernels' oscillation;
    lags within 1e-12 of 0, where the kernels are singular, become 1e-12.
    """
    dr = min(grid.dq / _REFINE, math.pi / (2.0 * p) / 12.0)
    refine = max(1, int(round(grid.dq / dr)))
    dr = grid.dq / refine
    # Simpson's rule takes an odd number of samples
    n_r = 2 * (int(math.ceil((r_hi - r_lo) / dr)) // 2) + 1
    if n_r < 3:
        raise ValueError("need >= 3 kernel samples")
    w = np.ones(n_r)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    r = r_lo + dr * np.arange(n_r)
    return np.where(np.abs(r) < 1e-12, 1e-12, r), w * (dr / 3.0), refine, dr


def fftconvolve(in1, in2, mode="valid"):
    """scipy.signal.fftconvolve(in1, in2, "valid") without importing scipy.signal."""
    if mode != "valid":
        raise ValueError(f"only mode='valid' is supported, not {mode!r}")
    if len(in2) > len(in1):   # as scipy does; the spectral product then matches bit for bit
        in1, in2 = in2, in1
    n = len(in1) + len(in2) - 1
    nfft = next_fast_len(n, True)
    full = irfft(rfft(in1, nfft) * rfft(in2, nfft), nfft)[:n]
    return full[len(in2) - 1:len(in1)]


def _lag_convolve(grid, row, start, kernel, refine, dr):
    """Correlate a weighted kernel row with the spline-resampled row.

    Returns (fine, smooth): the row sampled on start + m dr (zero off the
    grid) and smooth[i] = sum_k kernel[k] fine[i refine + k] per q node.
    """
    n_fine = (len(grid.q) - 1) * refine + len(kernel)
    spline = CubicSpline(grid.q, row, bc_type="natural")
    x = start + dr * np.arange(n_fine)
    fine = np.zeros(n_fine)
    m = (x >= grid.q[0]) & (x <= grid.q[-1])
    fine[m] = spline(x[m])
    smooth = fftconvolve(fine, kernel[::-1], mode="valid")[::refine]
    return fine, smooth


def _transmitted_row(grid, barrier, t, row, p, ranges, adjoint):
    """Free spike plus the transmission lag integral for the row at p > 0.

    Forward: out(q) = row(q - 2pt) + int T(r) row(q - 2pt + r) dr.
    Adjoint: out(q) = row(q + 2pt) + int T(r) row(q + 2pt - r) dr.
    """
    shift = 2.0 * p * t
    # lags beyond the grid's reach only ever sample zeros
    r_hi = min(ranges[0], (grid.q[-1] - grid.q[0]) + shift + grid.dq)
    r_vals, w, refine, dr = _lag_lattice(grid, p, 0.0, r_hi)
    t_dens, _ = _k.kernel_row(barrier, p, r_vals, which="T")
    kernel = w * t_dens
    if adjoint:
        # q_i + 2pt - r_k = (q_min + 2pt - r_max) + (i*refine + n_r-1-k) dr
        spike = len(r_vals) - 1
        start = grid.q[0] + shift - dr * spike
        kernel = kernel[::-1]
    else:
        # q_i - 2pt + r_k = (q_min - 2pt) + (i*refine + k) dr
        spike = 0
        start = grid.q[0] - shift
    fine, smooth = _lag_convolve(grid, row, start, kernel, refine, dr)
    return fine[spike::refine][:len(grid.q)] + smooth


def _reflected_row(grid, barrier, t, src_row, p0, ranges):
    """Reflection lag integral of the row at +p0, forward and adjoint alike.

    out(q_i) = sum_k w_k R(r_k) src(r_k - 2 p0 t - q_i): one fine lattice
    from r_lo - 2 p0 t - q_max, reversed in i.
    """
    shift = 2.0 * p0 * t
    r_hi, r_lo = ranges
    r_hi = min(r_hi, 2.0 * (grid.q[-1] - grid.q[0]) + shift + grid.dq)
    r_vals, w, refine, dr = _lag_lattice(grid, p0, r_lo, r_hi)
    _, r_dens = _k.kernel_row(barrier, p0, r_vals, which="R")
    _, vals = _lag_convolve(grid, src_row, r_lo - shift - grid.q[-1], w * r_dens,
                            refine, dr)
    return vals[::-1]


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

    w_total = w_t + w_r + 2 w_s; for pure states w_s^2 <= w_t w_r.
    """
    w_total: float
    w_t: float
    w_r: float
    w_s: float
    amplitude_t: complex
    amplitude_r: complex


def _oscillatory_gauss_quad(fun, center, sig, t, q_shift, tol=1e-10):
    """integral of fun over center +- 14 sig, panels limited by the phase rate."""
    lo, hi = center - 14.0 * sig, center + 14.0 * sig
    rate = abs(q_shift) + 2.0 * t * (abs(center) + 14.0 * sig)
    panel = min(sig / 2.0, math.pi / (2.0 * max(rate, 1e-12)))
    n_panels = max(8, int(math.ceil((hi - lo) / panel)))
    prev = None
    for order in (12, 24):
        nodes, weights = _panel_nodes(lo, hi, n_panels, order)
        val = complex(np.sum(weights * fun(nodes)))
        if prev is not None and abs(val - prev) < tol * max(1.0, abs(val)):
            return val
        prev = val
    if abs(val - prev) > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError("detection amplitude quadrature did not settle")
    return val


def gaussian_detection(init, det, barrier, t):
    """Closed-form detection probability for Gaussian state and detector.

    The transmitted amplitude integrates 1/a against the momentum-space
    Gaussian centered at P+; the reflected amplitude integrates b/a at P-.
    Components carry the Gaussian-overlap prefactors
    (1/2) sqrt(l0 ld) exp[-l0 ld (P0 -+ Pd)^2 / (l0+ld)], whose cross term
    reproduces the mass-pi Gaussian convention used by the grids.
    """
    l0, ld = init.lam, det.lam
    lam_sum = l0 + ld
    P_plus = (l0 * init.P + ld * det.P) / lam_sum
    P_minus = (l0 * init.P - ld * det.P) / lam_sum
    Q_minus = init.Q - det.Q
    Q_plus = init.Q + det.Q
    _warn_if_barrier_overlap(init, det, barrier)

    sig = math.sqrt(1.0 / lam_sum)

    def f_t(k):
        return (np.exp(-0.5 * lam_sum * (k - P_plus) ** 2 - 1j * k * (Q_minus + k * t))
                / barrier.amplitude_a(k))

    def f_r(k):
        return (barrier.ba_ratio(k)
                * np.exp(-0.5 * lam_sum * (k - P_minus) ** 2 - 1j * k * (Q_plus + k * t)))

    A = _oscillatory_gauss_quad(f_t, P_plus, sig, t, Q_minus)
    B = _oscillatory_gauss_quad(f_r, P_minus, sig, t, Q_plus)

    base = 0.5 * math.sqrt(l0 * ld)
    ex = l0 * ld / lam_sum
    w_t = base * math.exp(-ex * (init.P - det.P) ** 2) * abs(A) ** 2
    w_r = base * math.exp(-ex * (init.P + det.P) ** 2) * abs(B) ** 2
    w_s = base * math.exp(-ex * (init.P ** 2 + det.P ** 2)) * (A * B.conjugate()).real
    return DetectionResult(w_t + w_r + 2.0 * w_s, w_t, w_r, w_s, A, B)


def _warn_if_barrier_overlap(init, det, barrier):
    extent = 0.0
    if isinstance(barrier, _b.PoschlTellerBarrier):
        extent = 6.0 * barrier.s
    elif barrier.has_potential_function():
        lo, hi = barrier.support()
        extent = max(abs(lo), abs(hi))
    for st, name in ((init, "initial state"), (det, "detector")):
        if abs(st.Q) < extent + 4.0 * math.sqrt(st.lam / 2.0):
            warnings.warn(f"{name} overlaps the barrier region; closed-form "
                          "detection assumes well-separated packets", stacklevel=3)


def arrival_time_estimate(init, det, barrier, rel_step=1e-5):
    """Stationary-phase arrival time of the transmitted packet.

    t* = (Q_d - Q_0 - phi'(P+)) / (2 P+), phi = arg a, with the
    derivative by Richardson-extrapolated central differences.
    """
    l0, ld = init.lam, det.lam
    P_plus = (l0 * init.P + ld * det.P) / (l0 + ld)
    if P_plus == 0:
        raise ZeroDivisionError("arrival estimate undefined at P+ = 0")
    h = rel_step * abs(P_plus)

    def phi(k):
        return math.atan2(barrier.amplitude_a(k).imag, barrier.amplitude_a(k).real)

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
    return WignerGrid(grid.q, grid.p, _propagate_rows(grid, barrier, t, adjoint=True))


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
