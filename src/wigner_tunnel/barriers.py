"""Scattering amplitudes a(kappa), b(kappa) and S-matrix data for 1D barriers.

Conventions (hbar = 1, 2m = 1): the stationary equation is
p^2 y + V(q) y = kappa^2 y, with the left-transmitted solution behaving as
exp(-i kappa q) for q -> -inf and a exp(-i kappa q) + b exp(i kappa q) for
q -> +inf. The S-matrix is [[1, b], [-conj(b), 1]] / a, unitary on the real
axis (|a|^2 - |b|^2 = 1), and the analytic continuation satisfies
a(-conj(kappa)) = conj(a(kappa)). All zeros of a for V >= 0 lie in the
lower half-plane; they drive the exponential tails of the kernels.

Supported barriers: delta spike, modified Poschl-Teller v0^2/cosh^2(q/s),
tabulated numeric potentials (solved by a transfer-matrix product), and the
eikonal approximation exp(i S(kappa)) of a numeric potential.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (
    BranchAmbiguityError,
    NoBarrierError,
    NonMeromorphicError,
    PoleSearchError,
    SupportError,
)
from .specfun import gamma_cx, log_gamma_right


def _log_sinh(z):
    """log sinh(z) up to 2 pi i, stable for large |Re z|."""
    z = np.asarray(z, dtype=complex)
    flip = z.real < 0
    zz = np.where(flip, -z, z)
    out = zz - math.log(2.0) + np.log(-np.expm1(-2.0 * zz))
    return np.where(flip, out + 1j * np.pi, out)

__all__ = [
    "Barrier",
    "DeltaBarrier",
    "PoschlTellerBarrier",
    "NumericBarrier",
    "EikonalBarrier",
    "PoleData",
    "SMatrix",
    "delta_amplitudes",
    "pt_amplitudes",
    "numeric_amplitudes",
    "eikonal_action",
    "tunneling_integral",
    "find_poles",
    "barrier_from_dict",
]


@dataclass(frozen=True)
class PoleData:
    """A zero kappa_n of a(kappa) with its kernel residue factor.

    ``residue_factor(p)`` returns the coefficient A_n(p) multiplying
    exp[2 i r (p - kappa_n)] in the pole expansion of the transmission
    kernel; the normalization is pinned so that the single-pole delta
    barrier reproduces its closed form exactly:
    A_n(p) = 4i / (a'(kappa_n) a(kappa_n - 2p)).
    """
    kappa: complex
    index: int
    residue_factor: Callable[[float], complex]


@dataclass(frozen=True)
class SMatrix:
    transmission: complex        # 1/a
    reflection_lr: complex       # -conj(b)/a  (incident from the left)
    reflection_rl: complex       # b/a         (incident from the right)

    def as_matrix(self):
        return np.array([[self.transmission, self.reflection_rl],
                         [self.reflection_lr, self.transmission]])


class Barrier:
    """Base class: immutable after construction, evaluations are pure."""

    kind = "abstract"
    symmetric = True          # V(q) = V(-q); makes b purely imaginary
    is_meromorphic = True     # eikonal amplitudes are not
    pole_count_limit = None   # finite only when a has finitely many zeros

    def amplitude_a(self, kappa):
        raise NotImplementedError

    def amplitude_b(self, kappa):
        raise NotImplementedError

    def amplitudes(self, kappa):
        return self.amplitude_a(kappa), self.amplitude_b(kappa)

    def ba_ratio(self, kappa):
        """b/a, evaluated in a form regular at kappa = 0 where possible."""
        return self.amplitude_b(kappa) / self.amplitude_a(kappa)

    def amplitude_a_prime(self, kappa, h=None):
        """Complex derivative of a by central difference (a is analytic)."""
        scale = max(abs(complex(kappa)), self.kappa_scale())
        h = h if h is not None else 1e-6 * scale
        return (self.amplitude_a(kappa + h) - self.amplitude_a(kappa - h)) / (2.0 * h)

    def s_matrix(self, kappa):
        a, b = self.amplitudes(kappa)
        return SMatrix(1.0 / a, -np.conj(b) / a, b / a)

    def kappa_scale(self):
        """Characteristic momentum scale of the barrier."""
        raise NotImplementedError

    def integral_strength(self):
        """w = integral of V(q) dq; sets the universal 1/sigma kernel tail."""
        raise NotImplementedError

    def potential(self, q):
        raise NotImplementedError

    def has_potential_function(self):
        return True

    def descriptor(self):
        raise NotImplementedError


class DeltaBarrier(Barrier):
    """V(q) = v0 * delta(q); a = 1 + i v0/(2 kappa), b = -i v0/(2 kappa)."""

    kind = "delta"
    pole_count_limit = 1

    def __init__(self, v0):
        if v0 <= 0:
            raise ValueError("delta barrier weight v0 must be positive")
        self.v0 = float(v0)

    def amplitude_a(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        out = 1.0 + 0.5j * self.v0 / kappa
        return complex(out) if out.ndim == 0 else out

    def amplitude_b(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        out = -0.5j * self.v0 / kappa
        return complex(out) if out.ndim == 0 else out

    def ba_ratio(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        out = -1j * self.v0 / (2.0 * kappa + 1j * self.v0)
        return complex(out) if out.ndim == 0 else out

    def amplitude_a_prime(self, kappa, h=None):
        return -0.5j * self.v0 / complex(kappa) ** 2

    def kappa_scale(self):
        return 0.5 * self.v0

    def integral_strength(self):
        return self.v0

    def potential(self, q):
        raise NotImplementedError("delta potential has no pointwise values")

    def has_potential_function(self):
        return False

    def poles(self, count):
        if count < 1:
            raise ValueError("count must be >= 1")
        kap = -0.5j * self.v0

        def factor(p, kn=kap):
            return 4j / (self.amplitude_a_prime(kn) * self.amplitude_a(kn - 2.0 * p))

        return [PoleData(kap, 0, factor)][:count]

    def descriptor(self):
        return {"kind": "delta", "v0": self.v0}


class PoschlTellerBarrier(Barrier):
    """V(q) = v0^2 / cosh^2(q/s), exactly solvable through Gamma functions.

    omega = sqrt(1/4 - v0^2 s^2) on the principal branch: real and >= 0
    for a narrow barrier (v0 s < 1/2), positive imaginary for a wide one.
    """

    kind = "poschl_teller"

    def __init__(self, v0, s):
        if v0 <= 0 or s <= 0:
            raise ValueError("poschl_teller requires v0 > 0 and s > 0")
        self.v0 = float(v0)
        self.s = float(s)
        self.omega = complex(cmath.sqrt(0.25 - (v0 * s) ** 2))

    def _gamma_args(self, kappa):
        x = self.s * np.asarray(kappa, dtype=complex)
        w = self.omega
        return x, 1.0 - 1j * x, 0.5 + w - 1j * x, 0.5 - w - 1j * x

    def amplitude_a(self, kappa):
        """a(kappa) = i Gamma(1-is k)^2 / (s k Gamma(1/2+w-is k) Gamma(1/2-w-is k)).

        On the real axis the Gamma arguments stay in the right half-plane
        and the ratio is taken in log space (the factors individually
        leave double range for |s kappa| beyond ~230); elsewhere the
        direct Gamma quotient is used.
        """
        kappa = np.asarray(kappa, dtype=complex)
        scalar = kappa.ndim == 0
        kappa = np.atleast_1d(kappa)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        x, g1, g2, g3 = self._gamma_args(kappa)
        out = np.empty_like(x)
        right = ((g1.real > 0.0) & (g2.real > 0.0) & (g3.real > 0.0)
                 & (np.abs(x) > 1e-8))
        if np.any(right):
            lg = (2.0 * log_gamma_right(g1[right]) - log_gamma_right(g2[right])
                  - log_gamma_right(g3[right]) - np.log(x[right]))
            with np.errstate(over="ignore"):
                out[right] = 1j * np.exp(lg)
        rest = ~right
        if np.any(rest):
            out[rest] = (1j * gamma_cx(g1[rest]) ** 2
                         / (x[rest] * gamma_cx(g2[rest]) * gamma_cx(g3[rest])))
        return complex(out[0]) if scalar else out

    def amplitude_b(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        scalar = kappa.ndim == 0
        kappa = np.atleast_1d(kappa)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        with np.errstate(over="ignore", invalid="ignore"):
            denom = np.sinh(np.pi * self.s * kappa)
            out = -1j * np.cos(np.pi * self.omega) / denom
        # sinh overflow means b has underflowed to zero
        out = np.where(np.isfinite(out), out, 0.0)
        return complex(out[0]) if scalar else out

    def ba_ratio(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        scalar = kappa.ndim == 0
        kappa = np.atleast_1d(kappa)
        x, g1, g2, g3 = self._gamma_args(kappa)
        px = np.pi * x
        w = self.omega
        out = np.empty_like(x)
        right = ((g1.real > 0.0) & (g2.real > 0.0) & (g3.real > 0.0)
                 & (np.abs(x) > 1e-8))
        if np.any(right):
            lg = (log_gamma_right(g2[right]) + log_gamma_right(g3[right])
                  - 2.0 * log_gamma_right(g1[right])
                  + np.log(x[right]) - _log_sinh(px[right]))
            with np.errstate(over="ignore"):
                out[right] = -np.cos(np.pi * w) * np.exp(lg)
        rest = ~right
        if np.any(rest):
            xr = px[rest]
            small = np.abs(xr) < 1e-6
            sinhc = np.where(small, 1.0 + xr * xr / 6.0,
                             np.sinh(np.where(small, 1.0, xr)) / np.where(small, 1.0, xr))
            out[rest] = (-np.cos(np.pi * w) / (np.pi * sinhc)
                         * gamma_cx(g2[rest]) * gamma_cx(g3[rest])
                         / gamma_cx(g1[rest]) ** 2)
        return complex(out[0]) if scalar else out

    def kappa_scale(self):
        return max(self.v0, 1.0 / self.s)

    def integral_strength(self):
        return 2.0 * self.v0 ** 2 * self.s

    def potential(self, q):
        q = np.asarray(q, dtype=float)
        return self.v0 ** 2 / np.cosh(q / self.s) ** 2

    def max_potential(self):
        return self.v0 ** 2

    def poles(self, count):
        """Zeros s*kappa_n = -i(n + 1/2 +- omega), sorted by |Im kappa|."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if abs(self.omega) < 1e-4:
            raise PoleSearchError(
                "pole pair nearly degenerate (v0*s ~ 1/2); residues ill-conditioned")
        raw = []
        n = 0
        while len(raw) < count + 2:
            for sign in (-1.0, 1.0):
                raw.append(-1j * (n + 0.5 + sign * self.omega) / self.s)
            n += 1
        raw.sort(key=lambda z: (abs(z.imag), z.real))
        out = []
        for idx, kap in enumerate(raw[:count]):
            def factor(p, kn=kap):
                return 4j / (self.amplitude_a_prime(kn, h=1e-7 / self.s)
                             * self.amplitude_a(kn - 2.0 * p))
            out.append(PoleData(kap, idx, factor))
        return out

    def descriptor(self):
        return {"kind": "poschl_teller", "v0": self.v0, "s": self.s}


class _TabulatedPotential:
    """Piecewise-cubic potential over a finite support; exactly 0 outside."""

    def __init__(self, q, v, q_min=None, q_max=None):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        if q.ndim != 1 or q.shape != v.shape or len(q) < 4:
            raise ValueError("potential table needs matching 1D arrays, >= 4 points")
        if np.any(np.diff(q) <= 0):
            raise ValueError("potential table abscissae must be strictly increasing")
        if np.any(v < -1e-12 * max(1.0, float(np.max(np.abs(v))))):
            raise ValueError("potential must satisfy V(q) >= 0 (no bound states)")
        self.q_min = float(q[0]) if q_min is None else float(q_min)
        self.q_max = float(q[-1]) if q_max is None else float(q_max)
        if self.q_min > q[0] or self.q_max < q[-1]:
            raise SupportError("table extends outside the stated support")
        self._spline = CubicSpline(q, np.clip(v, 0.0, None), bc_type="natural")
        # V is smooth between edges: support ends, knots, and the clip's kinks at zeros
        roots = self._spline.roots()
        roots = roots[(roots > self.q_min) & (roots < self.q_max)]
        self.edges = np.unique(np.concatenate([[self.q_min, self.q_max], q, roots]))
        dense = self(np.linspace(self.q_min, self.q_max, 4001))
        self.v_max = float(np.max(dense))
        self.strength = float(np.trapezoid(dense,
                                           np.linspace(self.q_min, self.q_max, 4001)))

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        inside = (q >= self.q_min) & (q <= self.q_max)
        out = np.zeros_like(q, dtype=float)
        if np.any(inside):
            out[inside] = np.clip(self._spline(q[inside]), 0.0, None)
        return out if out.ndim else float(out)


class _TabulatedBarrier(Barrier):
    """A barrier given by a tabulated potential; ``kind`` names the model."""

    def __init__(self, q, v, q_min=None, q_max=None):
        self.table = _TabulatedPotential(q, v, q_min, q_max)

    @classmethod
    def from_callable(cls, fn, q_min, q_max, n=1201):
        q = np.linspace(q_min, q_max, n)
        return cls(q, np.asarray(fn(q), dtype=float), q_min, q_max)

    def kappa_scale(self):
        return max(math.sqrt(self.table.v_max), 1.0 / (self.table.q_max - self.table.q_min))

    def integral_strength(self):
        return self.table.strength

    def potential(self, q):
        return self.table(q)

    def max_potential(self):
        return self.table.v_max

    def support(self):
        return self.table.q_min, self.table.q_max

    def descriptor(self):
        qs = np.linspace(self.table.q_min, self.table.q_max, 257)
        return {"kind": self.kind, "table": [[float(q), float(v)]
                                             for q, v in zip(qs, self.table(qs))]}


# steps <= MAGNUS_STEP / sqrt(max(max V, 1)); 0.01 left errors of 2.5e-7 |a| on jagged tables
MAGNUS_STEP = 0.005


class NumericBarrier(_TabulatedBarrier):
    """Arbitrary tabulated barrier; amplitudes from a transfer-matrix product.

    (y, y') starts at q_min on the exp(-i kappa q) branch and is carried to
    q_max by a fourth-order Magnus product, vectorised over every kappa of a
    call: each fixed step is the closed-form exponential of a traceless 2x2
    matrix from V at two Gauss points, and the knots and clip kinks are step
    edges (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151). (a, b)
    follow from y and y' together, with no differencing noise.
    """

    kind = "numeric"
    symmetric = False   # unknown in general; detected from the table

    def __init__(self, q, v, q_min=None, q_max=None):
        super().__init__(q, v, q_min, q_max)
        qs = np.linspace(self.table.q_min, self.table.q_max, 801)
        self.symmetric = bool(np.max(np.abs(self.table(qs) - self.table(-qs)))
                              <= 1e-9 * max(self.table.v_max, 1e-300))
        lengths = np.diff(self.table.edges)
        n = np.ceil(lengths * math.sqrt(max(self.table.v_max, 1.0)) / MAGNUS_STEP).astype(int)
        h = np.repeat(lengths / n, n)
        q0 = self.table.q_min + np.concatenate([[0.0], np.cumsum(h)[:-1]])
        g = math.sqrt(3.0) / 6.0   # Gauss points at 1/2 -+ g of each step
        v1, v2 = self.table(q0 + (0.5 - g) * h), self.table(q0 + (0.5 + g) * h)
        # per step: length h, commutator term c and Gauss-mean potential
        c = 0.5 * g * h * h * (v1 - v2)
        self._steps = list(zip(h.tolist(), c.tolist(), (0.5 * (v1 + v2)).tolist()))

    def _solve(self, kappa):
        """(a, b) for a scalar kappa, or two arrays of kappa's shape."""
        shape = np.shape(kappa)
        k = np.asarray(kappa, dtype=complex).ravel()
        if np.any(k == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        qa, qb = self.table.q_min, self.table.q_max
        k2 = k * k
        y = np.exp(-1j * k * qa)
        yp = -1j * k * y
        for h, c, vbar in self._steps:
            # exp([[c, h], [w, -c]]) = cosh(th) + sinh(th)/th [[c, h], [w, -c]]
            w = h * (vbar - k2)
            th = np.sqrt(c * c + h * w)
            ch = np.cosh(th)
            sh = np.divide(np.sinh(th), th, out=np.ones_like(th), where=th != 0)
            y, yp = ch * y + sh * (c * y + h * yp), ch * yp + sh * (w * y - c * yp)
        # y = a e^{-ik q} + b e^{ik q}; solve the 2x2 system with y and y'.
        a = (1j * k * y - yp) * np.exp(1j * k * qb) / (2j * k)
        b = (1j * k * y + yp) * np.exp(-1j * k * qb) / (2j * k)
        if not shape:
            return complex(a[0]), complex(b[0])
        return a.reshape(shape), b.reshape(shape)

    def amplitude_a(self, kappa):
        return self._solve(kappa)[0]

    def amplitude_b(self, kappa):
        return self._solve(kappa)[1]

    def amplitudes(self, kappa):
        return self._solve(kappa)

    def ba_ratio(self, kappa):
        a, b = self._solve(kappa)
        return b / a

    def poles(self, count):
        return _newton_pole_search(self, count)


class EikonalBarrier(_TabulatedBarrier):
    """Semiclassical amplitude a = exp(i S(kappa)) of a numeric potential.

    The approximate a(kappa) has a branch point at kappa^2 = max V and is
    not meromorphic, so pole expansions are unavailable; b is 0 in this
    approximation.
    """

    kind = "eikonal"
    is_meromorphic = False

    def action(self, kappa):
        return eikonal_action(self, kappa)

    def amplitude_a(self, kappa):
        if np.ndim(kappa) == 0:
            return cmath.exp(1j * self.action(kappa))
        return np.array([cmath.exp(1j * self.action(k))
                         for k in np.asarray(kappa).ravel()]).reshape(np.shape(kappa))

    def amplitude_b(self, kappa):
        if np.ndim(kappa) == 0:
            return 0j
        return np.zeros(np.shape(kappa), dtype=complex)

    # b is identically 0, so b/a needs no action integral
    ba_ratio = amplitude_b

    def poles(self, count):
        raise NonMeromorphicError("eikonal amplitude has a branch point; no pole expansion")


# ---------------------------------------------------------------------------
# Free functions (the operation surface)
# ---------------------------------------------------------------------------

def delta_amplitudes(v0, kappa):
    """Closed-form (a, b) for the delta barrier."""
    bar = DeltaBarrier(v0)
    return bar.amplitude_a(kappa), bar.amplitude_b(kappa)


def pt_amplitudes(v0, s, kappa):
    """Closed-form (a, b) for the Poschl-Teller barrier."""
    bar = PoschlTellerBarrier(v0, s)
    return bar.amplitude_a(kappa), bar.amplitude_b(kappa)


def numeric_amplitudes(potential, kappa, q_min=None, q_max=None):
    """(a, b) for a tabulated potential by a transfer-matrix product.

    ``potential`` is a NumericBarrier, an (q, V) pair of arrays, or a
    list of [q, V] rows.
    """
    return _as_numeric_barrier(potential, q_min, q_max).amplitudes(kappa)


def _as_numeric_barrier(potential, q_min=None, q_max=None):
    if isinstance(potential, NumericBarrier):
        return potential
    if isinstance(potential, (tuple, list)) and len(potential) == 2 \
            and np.ndim(potential[0]) == 1:
        return NumericBarrier(potential[0], potential[1], q_min, q_max)
    rows = np.asarray(potential, dtype=float)
    if rows.ndim == 2 and rows.shape[1] == 2:
        return NumericBarrier(rows[:, 0], rows[:, 1], q_min, q_max)
    raise ValueError("cannot interpret potential table")


def _potential_info(potential):
    """Normalize a potential argument to (callable, q_min, q_max, v_max)."""
    if isinstance(potential, (PoschlTellerBarrier,)):
        # effective support: tails below 1e-14 of the peak
        half = potential.s * 17.0
        return potential.potential, -half, half, potential.max_potential()
    if isinstance(potential, _TabulatedPotential):
        return potential, potential.q_min, potential.q_max, potential.v_max
    bar = potential if isinstance(potential, _TabulatedBarrier) \
        else _as_numeric_barrier(potential)
    lo, hi = bar.support()
    return bar.potential, lo, hi, bar.max_potential()


def _turning_points(vfun, q_lo, q_hi, level):
    """All roots of V(q) = level inside the support, by scan plus brentq."""
    qs = np.linspace(q_lo, q_hi, 2001)
    f = vfun(qs) - level
    roots = []
    for i in range(len(qs) - 1):
        if f[i] == 0.0:
            roots.append(float(qs[i]))
        elif f[i] * f[i + 1] < 0:
            roots.append(brentq(lambda q: float(vfun(q) - level), qs[i], qs[i + 1],
                                xtol=1e-13))
    return sorted(set(np.round(roots, 12)))


def eikonal_action(potential, kappa):
    """Semiclassical action S(kappa) = kappa * integral [1 - sqrt(1 - V/kappa^2)] dq.

    The square-root branch is continuous from the high-energy limit
    (sqrt -> 1 as kappa -> infinity); on the real axis below the barrier
    top this puts the forbidden-region contribution at -i * integral of
    sqrt(V - kappa^2), so |exp(iS)| = exp(+I) >= 1 and the semiclassical
    transmission is exp(-2I).
    """
    vfun, q_lo, q_hi, v_max = _potential_info(potential)
    kappa = complex(kappa)
    if kappa == 0:
        raise ZeroDivisionError("eikonal action undefined at kappa = 0")
    k2 = kappa * kappa
    if kappa.imag == 0.0 and abs(k2.real - v_max) <= 1e-14 * max(1.0, v_max):
        raise BranchAmbiguityError("kappa^2 equals max V: square-root branch undefined")

    pts = []
    if kappa.imag == 0.0 and k2.real < v_max:
        pts = _turning_points(vfun, q_lo, q_hi, k2.real)

    def integrand_re(q):
        u = 1.0 - complex(vfun(q)) / k2
        # principal sqrt: negative real arguments approach from +i0, the
        # continuation from the physical (upper) half-plane
        return (1.0 - np.sqrt(complex(u))).real

    def integrand_im(q):
        u = 1.0 - complex(vfun(q)) / k2
        return (1.0 - np.sqrt(complex(u))).imag

    kw = {"limit": 400, "epsabs": 1e-12, "epsrel": 1e-11}
    if pts:
        kw["points"] = pts
    with warnings.catch_warnings():
        # tabulated potentials have integrable spline kinks at the knots
        warnings.simplefilter("ignore", IntegrationWarning)
        re_val = quad(integrand_re, q_lo, q_hi, **kw)[0]
        im_val = quad(integrand_im, q_lo, q_hi, **kw)[0]
    return kappa * complex(re_val, im_val)


def tunneling_integral(potential, p):
    """Deep-tunneling action I = integral of sqrt(V(q) - p^2) over V > p^2."""
    vfun, q_lo, q_hi, v_max = _potential_info(potential)
    p = float(p)
    if p * p >= v_max:
        raise NoBarrierError(f"p^2 = {p*p} is not below max V = {v_max}")
    pts = _turning_points(vfun, q_lo, q_hi, p * p)
    lo = pts[0] if pts else q_lo
    hi = pts[-1] if pts else q_hi

    def integrand(q):
        return math.sqrt(max(float(vfun(q)) - p * p, 0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-11,
                   points=pts if len(pts) > 2 else None)[0]
    return float(val)


def _newton_pole_search(barrier, count):
    """Zeros of a(kappa) in the lower half-plane by Newton iteration on all
    seeds at once: one ``amplitude_a`` call on [z, z + h, z - h] per step."""
    K = 4.0 * math.sqrt(max(barrier.max_potential(), 1e-12))
    width = barrier.support()[1] - barrier.support()[0]
    # conditioning of the matching degrades once |Im kappa| * width ~ 25
    depth = min(K, 22.0 / max(width, 1e-9))
    z = (np.linspace(-K, K, 9)[:, None]
         + 1j * np.linspace(-depth, -depth / 30.0, 6)[None, :]).ravel()
    running = np.arange(z.size)
    converged = np.zeros(z.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(40):
            if not running.size:
                break
            zr = z[running]
            h = 1e-7 * np.maximum(1.0, np.abs(zr))
            az, ap, am = np.split(barrier.amplitude_a(np.concatenate([zr, zr + h, zr - h])), 3)
            step = az / ((ap - am) / (2.0 * h))
            zr = zr - step
            z[running] = zr
            inside = (np.isfinite(zr) & (zr.imag <= -1e-9) & (np.abs(zr.real) <= 2.5 * K)
                      & (np.abs(zr.imag) <= 2.0 * depth))
            # noise keeps steps near a zero at 1e-10..1e-8; the test stays
            # inside the de-duplication radius and the |a| < 1e-7 acceptance
            done = inside & (np.abs(step) < 1e-7 * np.maximum(1.0, np.abs(zr)))
            converged[running[done]] = True
            running = running[inside & ~done]
        z = z[converged]
        z = z[np.abs(barrier.amplitude_a(z)) < 1e-7]
    found = []
    for zn in z:
        if not any(abs(zn - zf) < 1e-6 * max(1.0, K) for zf in found):
            found.append(complex(zn))
    if not found:
        raise PoleSearchError("no S-matrix poles located in the search window")
    found.sort(key=lambda z: (abs(z.imag), z.real))
    out = []
    for idx, kap in enumerate(found[:count]):
        def factor(p, kn=kap):
            return 4j / (barrier.amplitude_a_prime(kn) * barrier.amplitude_a(kn - 2.0 * p))
        out.append(PoleData(kap, idx, factor))
    return out


def _poles_below_axis(barrier, count, least):
    """Up to ``count`` poles from one search, at least ``least``, all below the axis."""
    if not barrier.is_meromorphic:
        raise NonMeromorphicError("eikonal amplitude is not meromorphic")
    poles = barrier.poles(count)
    if len(poles) < least:
        raise PoleSearchError(f"requested {least} poles, located {len(poles)}")
    for pd in poles:
        if pd.kappa.imag >= 0:
            raise PoleSearchError(f"pole {pd.kappa} not in the lower half-plane")
    return poles


def find_poles(barrier, count):
    """S-matrix poles (zeros of a) sorted by ascending |Im kappa|.

    The residue factors on the returned PoleData are momentum-resolved
    callables.
    """
    return _poles_below_axis(barrier, count, count)


def barrier_from_dict(d):
    """Build a Barrier from its JSON descriptor.

    Schema: {"kind": "delta"|"poschl_teller"|"numeric"|"eikonal",
             "v0": float, "s": float, "table": [[q, V], ...]}.
    """
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("barrier descriptor must be a dict with a 'kind'")
    kind = d["kind"]
    known = {"delta": {"v0"}, "poschl_teller": {"v0", "s"},
             "numeric": {"table"}, "eikonal": {"table"}}
    if kind not in known:
        raise ValueError(f"unknown barrier kind {kind!r}")
    extra = set(d) - known[kind] - {"kind"}
    if extra:
        raise ValueError(f"unknown barrier keys for kind {kind!r}: {sorted(extra)}")
    missing = known[kind] - set(d)
    if missing:
        raise ValueError(f"barrier kind {kind!r} missing keys: {sorted(missing)}")
    if kind == "delta":
        return DeltaBarrier(d["v0"])
    if kind == "poschl_teller":
        return PoschlTellerBarrier(d["v0"], d["s"])
    rows = np.asarray(d["table"], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("barrier table must be [[q, V], ...]")
    cls = NumericBarrier if kind == "numeric" else EikonalBarrier
    return cls(rows[:, 0], rows[:, 1])
