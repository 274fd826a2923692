"""Scattering amplitudes a(kappa), b(kappa) and S-matrix zeros for 1D barriers.

Conventions (hbar = 1, 2m = 1): the stationary equation is
p^2 y + V(q) y = kappa^2 y, with the left-transmitted solution behaving as
exp(-i kappa q) for q -> -inf and a exp(-i kappa q) + b exp(i kappa q) for
q -> +inf. The S-matrix is [[1, b], [-conj(b), 1]] / a, unitary on the real
axis (|a|^2 - |b|^2 = 1), and the analytic continuation satisfies
a(-conj(kappa)) = conj(a(kappa)). A wave incident from the left reflects
with -conj(b)/a (``Barrier.reflection_lr``), which is b/a for an even
barrier. All zeros of a for V >= 0 lie in the lower half-plane; they drive
the exponential tails of the kernels. Each kind lists its zeros with
``poles`` (closed forms for delta and Poschl-Teller, a Newton search for a
table), ``find_poles`` is the one path that checks them, and
``residue_factors`` gives the kernel coefficient at each, from the kind's
own ``slope_at_zeros``.

Supported barriers: delta spike, modified Poschl-Teller v0^2/cosh^2(q/s)
(one log-Gamma quotient on the whole plane), tabulated numeric potentials
(solved by a transfer-matrix product over the table's own rows), and the
eikonal approximation exp(i S(kappa)) of a numeric potential, whose action
is a fixed Gauss-Legendre sum over the pieces where V is monotone, split at
the turning points and evaluated for every kappa of a call at once.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    BranchAmbiguityError,
    GammaPoleError,
    MethodCompatibilityError,
    NoBarrierError,
    NonMeromorphicError,
    PoleSearchError,
)
# gamma_cx has no caller here: perfbench/tracing.py wraps it by this name
from .specfun import _log_sinh, gamma_cx, log_gamma_right
from .splines import NaturalSplines


def _pi_reduced(y):
    """pi y, y first reduced exactly modulo 2: keeps the zeros of sinh(u + i pi y) sharp."""
    return np.pi * (y - 2.0 * np.round(0.5 * y))

__all__ = [
    "Barrier",
    "DeltaBarrier",
    "PoschlTellerBarrier",
    "NumericBarrier",
    "EikonalBarrier",
    "eikonal_action",
    "tunneling_integral",
    "find_poles",
    "residue_factors",
    "barrier_from_dict",
]


class Barrier:
    """Base class: immutable after construction, evaluations are pure."""

    kind = "abstract"
    is_meromorphic = True     # eikonal amplitudes are not

    def amplitude_a(self, kappa):
        raise NotImplementedError

    def amplitude_b(self, kappa):
        raise NotImplementedError

    def amplitudes(self, kappa):
        return self.amplitude_a(kappa), self.amplitude_b(kappa)

    def ba_ratio(self, kappa):
        """b/a, evaluated in a form regular at kappa = 0 where possible."""
        return self.amplitude_b(kappa) / self.amplitude_a(kappa)

    def reflection_lr(self, kappa):
        """-conj(b)/a for real kappa: reflection of a wave incident from the left.

        b is purely imaginary on the real axis for the delta and
        Poschl-Teller barriers and 0 for the eikonal one, so this is b/a.
        """
        return self.ba_ratio(kappa)

    def slope_at_zeros(self, kappa):
        """a'(kappa_n) at zeros kappa_n of a, for ``residue_factors``: here a
        central difference (a is analytic), which holds at any kappa."""
        kappa = np.asarray(kappa, dtype=complex)
        h = 1e-6 * np.maximum(np.hypot(kappa.real, kappa.imag), self.kappa_scale())
        return (self.amplitude_a(kappa + h) - self.amplitude_a(kappa - h)) / (2.0 * h)

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

    def support(self):
        """(front, far): the edges a packet from the left meets and leaves
        by; V is zero or negligible outside. Every barrier reach uses it."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError


class DeltaBarrier(Barrier):
    """V(q) = v0 * delta(q); a = 1 + i v0/(2 kappa), b = -i v0/(2 kappa)."""

    kind = "delta"

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

    def slope_at_zeros(self, kappa):
        """a' = -i v0 / (2 kappa^2), which holds at any kappa."""
        kappa = np.asarray(kappa, dtype=complex)
        out = -0.5j * self.v0 / kappa ** 2
        return complex(out) if out.ndim == 0 else out

    def kappa_scale(self):
        return 0.5 * self.v0

    def integral_strength(self):
        return self.v0

    def potential(self, q):
        raise NotImplementedError("delta potential has no pointwise values")

    def has_potential_function(self):
        return False

    def support(self):
        return 0.0, 0.0

    def poles(self, count):
        """The one zero, kappa = -i v0/2."""
        return [-0.5j * self.v0]

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

    def _log_gammas(self, kappa):
        """x = s kappa, and log Gamma at 1 - ix, 1/2 + w - ix and 1/2 - w - ix
        stacked on a leading axis, from one call computed in place."""
        x = self.s * np.asarray(kappa, dtype=complex)
        lg = np.empty((3,) + x.shape, dtype=complex)
        for i, c in enumerate((1.0, 0.5 + self.omega, 0.5 - self.omega)):
            lg[i] = c - 1j * x
        return x, log_gamma_right(lg, out=lg)

    def amplitude_a(self, kappa):
        """a(kappa) = i Gamma(1-is k)^2 / (s k Gamma(1/2+w-is k) Gamma(1/2-w-is k)).

        One log-Gamma quotient on the whole plane: the factors individually
        leave double range for |s kappa| beyond ~230. At an exact zero of a
        a Gamma argument is a non-positive integer, and GammaPoleError is
        raised, as it is at the poles s kappa = -i n, n = 1, 2, ...
        """
        kappa = np.asarray(kappa, dtype=complex)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        x, (lg1, lg2, lg3) = self._log_gammas(kappa)
        lg = 2.0 * lg1 - lg2 - lg3 - np.log(x)
        with np.errstate(over="ignore"):
            out = 1j * np.exp(lg)
        return complex(out) if out.ndim == 0 else out

    def amplitude_b(self, kappa):
        """b = -i cos(pi w) / sinh(pi s k), Im(s k) reduced modulo 2 before it is
        scaled by pi. GammaPoleError at its poles s kappa = i n, n != 0 (for
        n < 0 also poles of a)."""
        kappa = np.asarray(kappa, dtype=complex)
        scalar = kappa.ndim == 0
        kappa = np.atleast_1d(kappa)
        if np.any(kappa == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        y = self.s * kappa.imag
        if np.any((kappa.real == 0.0) & (y == np.round(y))):
            raise GammaPoleError("b has a pole at s kappa = i n")
        with np.errstate(over="ignore", invalid="ignore"):
            denom = np.sinh(np.pi * self.s * kappa.real + 1j * _pi_reduced(y))
            out = -1j * np.cos(np.pi * self.omega) / denom
        # sinh overflow means b has underflowed to zero
        out = np.where(np.isfinite(out), out, 0.0)
        return complex(out[0]) if scalar else out

    def ba_ratio(self, kappa):
        """b/a = -cos(pi w) s k Gamma(1/2+w-is k) Gamma(1/2-w-is k)
        / (sinh(pi s k) Gamma(1-is k)^2), as one log-Gamma quotient; its
        limit at kappa = 0 is exactly -1. sinh is taken as in amplitude_b."""
        kappa = np.asarray(kappa, dtype=complex)
        x, (lg1, lg2, lg3) = self._log_gammas(kappa)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lg = (lg2 + lg3 - 2.0 * lg1
                  + np.log(x) - _log_sinh(np.pi * x.real + 1j * _pi_reduced(x.imag)))
            out = np.where(x == 0, -1.0, -np.cos(np.pi * self.omega) * np.exp(lg))
        return complex(out) if out.ndim == 0 else out

    def slope_at_zeros(self, kappa):
        """a'(kappa_n) at zeros s kappa_n = -i(n + 1/2 + sigma w), sigma = +-1,
        exact to rounding. 1/Gamma(1/2 + sigma w - i s kappa) vanishes there
        with slope (-1)^n n! in its argument (DLMF 5.2(i)), so
        a' = (-1)^n n! Gamma(1/2 - n - sigma w)^2 / (kappa_n Gamma(-n - 2 sigma w)),
        taken in log space. Raises ValueError at a kappa that is not a zero
        of a, and PoleSearchError near v0 s = 1/2, where each pole pair
        merges into a double zero and the residues are ill-conditioned.
        """
        if abs(self.omega) < 1e-4:
            raise PoleSearchError("pole pair nearly degenerate (v0*s ~ 1/2); "
                                  "residues ill-conditioned")
        kappa = np.asarray(kappa, dtype=complex)
        x = self.s * kappa
        # n + sigma w = i x - 1/2: the n of sigma = +1 in row 0, of -1 in row 1
        shifted = np.stack([1j * x - 0.5 - self.omega, 1j * x - 0.5 + self.omega])
        n = np.round(shifted.real)
        hit = (np.abs(shifted - n) <= 1e-9 * np.maximum(1.0, np.abs(x))) & (n >= 0.0)
        if not np.all(hit[0] | hit[1]):
            raise ValueError("slope_at_zeros: kappa is not a zero of a")
        n = np.where(hit[0], n[0], n[1])
        sw = np.where(hit[0], self.omega, -self.omega)
        lg = np.stack([0.5 - n - sw, -n - 2.0 * sw, n + 1.0])
        lg1, lg2, lg3 = log_gamma_right(lg, out=lg)
        out = (1.0 - 2.0 * (n % 2)) * np.exp(2.0 * lg1 - lg2 + lg3) / kappa
        return complex(out) if out.ndim == 0 else out

    def kappa_scale(self):
        return max(self.v0, 1.0 / self.s)

    def integral_strength(self):
        return 2.0 * self.v0 ** 2 * self.s

    def potential(self, q):
        q = np.asarray(q, dtype=float)
        return self.v0 ** 2 / np.cosh(q / self.s) ** 2

    def max_potential(self):
        return self.v0 ** 2

    def support(self):
        # beyond 6 s, V < 2.5e-5 v0^2
        return -6.0 * self.s, 6.0 * self.s

    def poles(self, count):
        """Zeros s*kappa_n = -i(n + 1/2 +- omega), sorted by |Im kappa|.

        Near v0*s = 1/2 each pair merges into a double zero. The locations
        still stand, but the residue factors then raise PoleSearchError.
        """
        raw = []
        n = 0
        while len(raw) < count + 2:
            for sign in (-1.0, 1.0):
                raw.append(-1j * (n + 0.5 + sign * self.omega) / self.s)
            n += 1
        raw.sort(key=lambda z: (abs(z.imag), z.real))
        return raw[:count]

    def descriptor(self):
        return {"kind": "poschl_teller", "v0": self.v0, "s": self.s}


class _TabulatedPotential:
    """Piecewise-cubic potential on the table's rows; exactly 0 outside.

    V is the natural spline through the table, clipped at 0, and its
    support runs from the first row to the last. ``edges`` splits the
    support where V is smooth: the knots and the clip's kinks at the
    spline's roots. ``monotone_edges`` adds the spline's critical points,
    so V is smooth and monotone between them.
    """

    def __init__(self, q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        if q.ndim != 1 or q.shape != v.shape or len(q) < 4:
            raise ValueError("potential table needs matching 1D arrays, >= 4 points")
        if np.any(np.diff(q) <= 0):
            raise ValueError("potential table abscissae must be strictly increasing")
        if np.any(v < -1e-12 * max(1.0, float(np.max(np.abs(v))))):
            raise ValueError("potential must satisfy V(q) >= 0 (no bound states)")
        self.support = lo, hi = float(q[0]), float(q[-1])
        self._spline = NaturalSplines(q, np.clip(v, 0.0, None)[:, None])
        self.edges = np.unique(np.concatenate([q, self._spline.roots()]))
        self.monotone_edges = np.union1d(self.edges, self._spline.roots(deriv=True))
        dense = self(np.linspace(lo, hi, 4001))
        self.v_max = float(np.max(dense))
        self.strength = float(np.trapezoid(dense, np.linspace(lo, hi, 4001)))

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        lo, hi = self.support
        # clamped into the support, where the end pieces' cubics stay finite
        v = np.maximum(self._spline(np.minimum(np.maximum(q, lo), hi)), 0.0)
        out = np.where((q >= lo) & (q <= hi), v, 0.0)
        return out if out.ndim else float(out)


class _TabulatedBarrier(Barrier):
    """A barrier given by a tabulated potential; ``kind`` names the model."""

    def __init__(self, q, v):
        self.table = _TabulatedPotential(q, v)

    @classmethod
    def from_callable(cls, fn, lo, hi, n=1201):
        """The barrier of fn sampled at n equally spaced rows on [lo, hi]."""
        q = np.linspace(lo, hi, n)
        return cls(q, np.asarray(fn(q), dtype=float))

    def kappa_scale(self):
        lo, hi = self.table.support
        return max(math.sqrt(self.table.v_max), 1.0 / (hi - lo))

    def integral_strength(self):
        return self.table.strength

    def potential(self, q):
        return self.table(q)

    def max_potential(self):
        return self.table.v_max

    def support(self):
        return self.table.support

    def descriptor(self):
        qs = np.linspace(*self.table.support, 257)
        return {"kind": self.kind, "table": [[float(q), float(v)]
                                             for q, v in zip(qs, self.table(qs))]}


# steps <= MAGNUS_STEP / sqrt(max(max V, 1)); 0.01 left errors of 2.5e-7 |a| on jagged tables
MAGNUS_STEP = 0.005
# kappa x step entries in one block of the real-axis product: on the 41- and
# 241-row sech^2 tables 2^14 was up to a third slower, and 2^16 no faster
_PRODUCT_ENTRIES = 1 << 15


class NumericBarrier(_TabulatedBarrier):
    """Arbitrary tabulated barrier; amplitudes from a transfer-matrix product.

    (y, y') starts at the first row on the exp(-i kappa q) branch and is
    carried to the last by a fourth-order Magnus product: each fixed step is
    the closed-form exponential of a traceless 2x2 matrix from V at two
    Gauss points, and the knots and clip kinks are step edges (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151). (a, b) follow from y and
    y' together, with no differencing noise.

    The product is formed in one of two ways, chosen for each kappa alone,
    so no kappa's result depends on the rest of the call:

    - real kappa: every step matrix is real. All of them are built at once
      for a block of kappa and multiplied pairwise, later . earlier, level
      by level, and the one product meets the incoming wave; no Python loop
      runs over the steps. Only |kappa| is solved, so a(-kappa) =
      conj a(kappa) holds bit for bit.
    - complex kappa: the steps act on (y, y') one at a time, in order. A
      product of step matrices grows like e^{|Im kappa| L} over a support of
      length L, far faster than the solution, and applying it cancels
      digits. On a 241-row sech^2 table on [-4.8, 4.8] the pairwise product
      missed an rtol-1e-13 ODE solve by 4.9e-9 at kappa = 0.5 - i and by 4.0
      at 0.1 - 2i, where the ordered steps miss by 2.5e-11 and 4.0e-7.
    """

    kind = "numeric"

    def __init__(self, q, v):
        super().__init__(q, v)
        lengths = np.diff(self.table.edges)
        n = np.ceil(lengths * math.sqrt(max(self.table.v_max, 1.0)) / MAGNUS_STEP).astype(int)
        h = np.repeat(lengths / n, n)
        q0 = self.table.support[0] + np.concatenate([[0.0], np.cumsum(h)[:-1]])
        g = math.sqrt(3.0) / 6.0   # Gauss points at 1/2 -+ g of each step
        v1, v2 = self.table(q0 + (0.5 - g) * h), self.table(q0 + (0.5 + g) * h)
        # per step: length h, commutator term c and Gauss-mean potential
        self._h = h
        self._c = 0.5 * g * h * h * (v1 - v2)
        self._vbar = 0.5 * (v1 + v2)

    def _solve(self, kappa):
        """(a, b) as two arrays of kappa's shape, 0-d for a scalar kappa."""
        shape = np.shape(kappa)
        k = np.asarray(kappa, dtype=complex).ravel()
        if np.any(k == 0):
            raise ZeroDivisionError("amplitudes undefined at kappa = 0")
        a = np.empty_like(k)
        b = np.empty_like(k)
        real = k.imag == 0
        if np.any(real):
            a[real], b[real] = self._solve_real(k.real[real])
        if not np.all(real):
            a[~real], b[~real] = self._solve_ordered(k[~real])
        return a.reshape(shape), b.reshape(shape)

    def _solve_real(self, kappa):
        """(a, b) at real kappa: per block of kappa, one pairwise product of
        the real step matrices, met by the incoming wave."""
        k = np.abs(kappa)
        n = len(self._h)
        size = min(len(k), max(1, _PRODUCT_ENTRIES // n))
        # One set of buffers serves every block: fresh arrays for each block
        # spent more time in page faults than in arithmetic. Columns [0, n)
        # of m hold the step matrices, and each level of pairwise products
        # follows the level before it.
        m = np.empty((2, 2, size, 2 * n + n.bit_length()))
        tmp = np.empty((2, 2, size, n // 2))
        prod = np.empty((2, 2, len(k)))
        for i in range(0, len(k), size):
            kb = k[i:i + size]
            j = len(kb)
            mb = m[:, :, :j]
            self._step_matrices(kb, mb[..., :n])
            lo, hi = 0, n
            while hi - lo > 1:
                # later . earlier over adjacent pairs; an odd last product waits a level
                p, odd = divmod(hi - lo, 2)
                e, l = mb[..., lo:lo + 2 * p:2], mb[..., lo + 1:lo + 2 * p:2]
                out = np.multiply(l[:, :1], e[:1], out=mb[..., hi:hi + p])
                out += np.multiply(l[:, 1:], e[1:], out=tmp[:, :, :j, :p])
                if odd:
                    mb[..., hi + p] = mb[..., hi - 1]
                lo, hi = hi, hi + p + odd
            prod[..., i:i + j] = mb[..., lo]
        (m11, m12), (m21, m22) = prod
        # (y, y') = M (1, -ik) e^{-ik qa} = a e^{-ik q} (1, -ik) + b e^{ik q} (1, ik) at qb
        qa, qb = self.table.support
        a = (0.5 * (m11 + m22) - 0.5j * (k * m12 - m21 / k)) * np.exp(1j * k * (qb - qa))
        b = (0.5 * (m11 - m22) - 0.5j * (k * m12 + m21 / k)) * np.exp(-1j * k * (qa + qb))
        # a(-kappa) = conj a(kappa) on the real axis, bit for bit
        flip = kappa < 0
        return np.where(flip, a.conj(), a), np.where(flip, b.conj(), b)

    def _step_matrices(self, k, m):
        """Write exp([[c, h], [w, -c]]) of every step at real kappa k into m
        (2, 2, kappa, step).

        The exponential is ch + sh [[c, h], [w, -c]], u = c^2 + h w, with
        ch, sh = cosh(th), sinh(th)/th where u = th^2 > 0 and cos(th),
        sin(th)/th where u = -th^2 < 0.
        """
        h, c = self._h, self._c
        w = h * (self._vbar - (k * k)[:, None])
        u = c * c + h * w
        up = u > 0
        th = np.sqrt(np.abs(u))
        ch = np.where(up, np.cosh(th), np.cos(th))
        sh = np.where(up, np.sinh(th), np.sin(th))
        sh = np.divide(sh, th, out=np.ones_like(th), where=th != 0)
        m[0, 0] = ch + sh * c
        m[0, 1] = sh * h
        m[1, 0] = sh * w
        m[1, 1] = ch - sh * c

    def _solve_ordered(self, k):
        """(a, b) at any kappa, stepping (y, y') through the steps in order."""
        qa, qb = self.table.support
        k2 = k * k
        y = np.exp(-1j * k * qa)
        yp = -1j * k * y
        for h, c, vbar in zip(self._h.tolist(), self._c.tolist(), self._vbar.tolist()):
            w = h * (vbar - k2)
            th = np.sqrt(c * c + h * w)
            ch = np.cosh(th)
            sh = np.divide(np.sinh(th), th, out=np.ones_like(th), where=th != 0)
            y, yp = ch * y + sh * (c * y + h * yp), ch * yp + sh * (w * y - c * yp)
        # y = a e^{-ik q} + b e^{ik q}; solve the 2x2 system with y and y'.
        a = (1j * k * y - yp) * np.exp(1j * k * qb) / (2j * k)
        b = (1j * k * y + yp) * np.exp(-1j * k * qb) / (2j * k)
        return a, b

    # each value is formed in numpy, a scalar kappa's too, and only then
    # becomes a Python complex: a scalar call gives an array call's bits
    def amplitude_a(self, kappa):
        return _complex_if_0d(self._solve(kappa)[0])

    def amplitude_b(self, kappa):
        return _complex_if_0d(self._solve(kappa)[1])

    def amplitudes(self, kappa):
        a, b = self._solve(kappa)
        return _complex_if_0d(a), _complex_if_0d(b)

    def ba_ratio(self, kappa):
        a, b = self._solve(kappa)
        return _complex_if_0d(b / a)

    def reflection_lr(self, kappa):
        a, b = self._solve(kappa)
        return _complex_if_0d(-b.conjugate() / a)

    def poles(self, count):
        return _newton_pole_search(self)


def _complex_if_0d(out):
    return complex(out) if out.ndim == 0 else out


class EikonalBarrier(_TabulatedBarrier):
    """Semiclassical amplitude a = exp(i S(kappa)) of a numeric potential.

    The approximate a(kappa) has a branch point at kappa^2 = max V and is
    not meromorphic, so pole expansions are unavailable; b is 0 in this
    approximation.
    """

    kind = "eikonal"
    is_meromorphic = False

    def amplitude_a(self, kappa):
        return _complex_if_0d(np.exp(1j * eikonal_action(self, kappa)))

    def amplitude_b(self, kappa):
        if np.ndim(kappa) == 0:
            return 0j
        return np.zeros(np.shape(kappa), dtype=complex)

    # b is identically 0, so b/a needs no action integral
    ba_ratio = amplitude_b


# The action sums one Gauss-Legendre rule per piece of the support where V
# is monotone, in theta on [0, pi] with q = mid - half cos(theta): dq vanishes
# at both ends, which smooths square-root behaviour there. Kappa x node tables
# hold at most 2^19 complex entries (8 MB). Poschl-Teller's +-17 s support
# (tails below 1e-14 of the peak) is cut into equal panels, one edge at q = 0.
_ACTION_ORDER = 32
_ACTION_TABLE_ENTRIES = 1 << 19
_PT_ACTION_PANELS = 34
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_ACTION_ORDER)
_ACTION_X = -np.cos(0.5 * np.pi * (1.0 + _gl_x))
_ACTION_W = 0.5 * np.pi * _gl_w * np.sin(0.5 * np.pi * (1.0 + _gl_x))


def _action_pieces(barrier):
    """(V, edges, max V) with V smooth and monotone between edges: a table's
    own edges plus its spline's critical points, or Poschl-Teller's panels."""
    if isinstance(barrier, PoschlTellerBarrier):
        half = 17.0 * barrier.s
        return (barrier.potential, np.linspace(-half, half, _PT_ACTION_PANELS + 1),
                barrier.max_potential())
    if not isinstance(barrier, _TabulatedBarrier):
        raise MethodCompatibilityError(f"no eikonal action for a {barrier.kind} barrier")
    table = barrier.table
    return table, table.monotone_edges, table.v_max


def _rule(lo, hi, anchor=None):
    """Nodes and weights on each [lo, hi]. With an anchor outside (lo, hi) the
    rule runs in u = sqrt(|q - anchor|), in which a square root that
    vanishes at the anchor is smooth, on either side of it."""
    if anchor is None:
        mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
        return mid + half * _ACTION_X, half * _ACTION_W
    side = np.where(lo + hi >= 2.0 * anchor, 1.0, -1.0)[:, None]
    u_lo, u_hi = np.sqrt(np.abs(lo - anchor)), np.sqrt(np.abs(hi - anchor))
    u, w = _rule(np.minimum(u_lo, u_hi), np.maximum(u_lo, u_hi))
    return anchor[:, None] + side * u * u, 2.0 * u * w


def _action_sums(v, weights, k2):
    """Rule sums of 1 - sqrt(1 - V/k^2) = r / (1 + sqrt(1 - r)), r = V/k^2, a
    form free of cancellation at large kappa. On the real axis 1 - r keeps a
    +0 imaginary part, so its root below the top is +i sqrt(r - 1)."""
    ratio = v * (1.0 / k2)
    return (ratio / (1.0 + np.sqrt(1.0 - ratio)) * weights).sum(axis=-1)


def eikonal_action(barrier, kappa):
    """Semiclassical action S(kappa) = kappa * integral [1 - sqrt(1 - V/kappa^2)] dq
    of a tabulated or Poschl-Teller barrier.

    The square-root branch is continuous from the high-energy limit
    (sqrt -> 1 as kappa -> infinity); on the real axis below the barrier
    top this puts the forbidden-region contribution at -i * integral of
    sqrt(V - kappa^2), so |exp(iS)| = exp(+I) >= 1 and the semiclassical
    transmission is exp(-2I). Real kappa < 0 takes -conj(S(-kappa)), so
    a = exp(iS) keeps a(-kappa) = conj(a(kappa)) as the exact amplitudes do.

    A scalar or an array of kappa is evaluated in one pass. A monotone
    piece whose end values bracket Re kappa^2 holds one turning point q_t
    (V = kappa^2 lies near it off the axis), found by bisection; rules in
    u = sqrt(|q - q_t|) replace its sum, split at q_t, and that of each
    neighbour longer than its gap to q_t.
    """
    vfun, edges, v_max = _action_pieces(barrier)
    kappa = np.asarray(kappa, dtype=complex)
    k = kappa.ravel()
    mirror = (k.imag == 0.0) & (k.real < 0.0)
    # -k.real, not -k: a -0 imaginary part would flip the square-root branch
    k = np.where(mirror, -k.real, k)
    if np.any(k == 0):
        raise ZeroDivisionError("eikonal action undefined at kappa = 0")
    k2 = k * k
    if np.any((k.imag == 0.0) & (np.abs(k2.real - v_max) <= 1e-14 * max(1.0, v_max))):
        raise BranchAmbiguityError("kappa^2 equals max V: square-root branch undefined")
    lo, hi = edges[:-1], edges[1:]
    nodes, weights = _rule(lo, hi)
    v_nodes, v_lo, v_hi = vfun(nodes), vfun(lo), vfun(hi)
    out = np.empty(k.size, dtype=complex)
    step = max(1, _ACTION_TABLE_ENTRIES // nodes.size)
    for start in range(0, k.size, step):
        kc, k2c = k[start:start + step], k2[start:start + step]
        sums = _action_sums(v_nodes, weights, k2c[:, None, None])
        level = k2c.real[:, None]
        split = (v_lo - level) * (v_hi - level) < 0.0
        ki, pj = np.nonzero(split)
        if ki.size:
            a, b, rising = lo[pj], hi[pj], v_hi[pj] > v_lo[pj]
            for _ in range(60):
                m = 0.5 * (a + b)
                below = (vfun(m) < k2c.real[ki]) == rising
                a, b = np.where(below, m, a), np.where(below, b, m)
            turn = 0.5 * (a + b)
            # turning points by piece, padded: piece j's neighbours hold j and j + 2
            turns = np.full((len(kc), len(lo) + 2), np.nan)
            turns[ki, pj + 1] = turn
            left, right = turns[:, :-2], turns[:, 2:]
            gap = np.fmin(lo - left, right - hi)
            ni, nj = np.nonzero(~split & (gap < hi - lo))
            anchor = np.where(gap == lo - left, left, right)[ni, nj]
            rows, cols = np.concatenate([ki, ki, ni]), np.concatenate([pj, pj, nj])
            q, w = _rule(np.concatenate([lo[pj], turn, lo[nj]]),
                         np.concatenate([turn, hi[pj], hi[nj]]),
                         np.concatenate([turn, turn, anchor]))
            sums[rows, cols] = 0.0
            np.add.at(sums, (rows, cols), _action_sums(vfun(q), w, k2c[rows, None]))
        out[start:start + step] = kc * sums.sum(axis=1)
    out = np.where(mirror, -out.conj(), out)
    return complex(out[0]) if kappa.ndim == 0 else out.reshape(kappa.shape)


def eikonal_kinks(barrier):
    """The real kappa at which the eikonal action is not smooth: 0, where
    Re S ~ kappa log kappa, and the barrier top, kappa = +-sqrt(max V)."""
    top = math.sqrt(barrier.max_potential())
    return (-top, 0.0, top)


def amplitude_kinks(barrier):
    """The real kappa at which a is not smooth: an eikonal barrier's
    a = e^{iS} has the action's kinks, every other kind's a has none."""
    return () if barrier.is_meromorphic else eikonal_kinks(barrier)


def tunneling_integral(barrier, p):
    """Deep-tunneling action I = integral of sqrt(V(q) - p^2) over V > p^2
    for a tabulated or Poschl-Teller barrier.

    This is -Im S(|p|) of the eikonal action, whose turning-point split
    rules it shares; like the action, it is undefined at p = 0.
    """
    v_max = _action_pieces(barrier)[2]
    p = abs(float(p))
    if p * p >= v_max:
        raise NoBarrierError(f"p^2 = {p*p} is not below max V = {v_max}")
    return -eikonal_action(barrier, p).imag


def _newton_pole_search(barrier):
    """Zeros of a(kappa) in the lower half-plane by Newton iteration on all
    seeds at once: one ``amplitude_a`` call on [z, z + h, z - h] per step.
    Returns every distinct zero found, by ascending |Im kappa|."""
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
    return sorted(found, key=lambda z: (abs(z.imag), z.real))


def residue_factors(barrier, kappa, p):
    """A_n(p) = 4i / (a'(kappa_n) a(kappa_n - 2p)) at each zero kappa_n of a
    in the sequence ``kappa``, from one ``slope_at_zeros`` call and one a
    call on all of them. A_n multiplies exp[2 i r (p - kappa_n)] in the pole
    expansion of the transmission kernel; the normalization is pinned so
    that the single-pole delta barrier reproduces its closed form exactly."""
    kappa = np.asarray(kappa, dtype=complex)
    return 4j / (barrier.slope_at_zeros(kappa) * barrier.amplitude_a(kappa - 2.0 * p))


def find_poles(barrier, count):
    """Up to ``count`` S-matrix poles (zeros of a) as a complex array, by
    ascending |Im kappa|.

    The one pole path for every kind: the kind's ``poles`` lists its zeros,
    and ``residue_factors`` gives their kernel coefficients. Fewer than
    ``count`` come back when fewer exist (delta has one) or a Newton search
    finds fewer in its window. Raises NonMeromorphicError for an eikonal
    barrier, and PoleSearchError when no zero is found or one lies on or
    above the real axis.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not barrier.is_meromorphic:
        raise NonMeromorphicError("eikonal amplitude has a branch point; no pole expansion")
    zeros = barrier.poles(count)[:count]
    if not zeros:
        raise PoleSearchError("no S-matrix poles located in the search window")
    for kn in zeros:
        if kn.imag >= 0:
            raise PoleSearchError(f"pole {kn} not in the lower half-plane")
    return np.array(zeros, dtype=complex)


def _is_real(v):
    """v is a JSON number, not a bool, and a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:       # an int past the float range
        return False


def barrier_from_dict(d):
    """Build a Barrier from its JSON descriptor.

    Schema: {"kind": "delta"|"poschl_teller"|"numeric"|"eikonal",
             "v0": float, "s": float, "table": [[q, V], ...]}.
    v0, s and every table entry must be finite reals (not bools or strings).
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
    for key in ("v0", "s"):
        if key in d and not _is_real(d[key]):
            raise ValueError(f"barrier.{key}: expected a finite number, got {d[key]!r}")
    if kind == "delta":
        return DeltaBarrier(d["v0"])
    if kind == "poschl_teller":
        return PoschlTellerBarrier(d["v0"], d["s"])
    table = d["table"]
    if not (isinstance(table, list)
            and all(isinstance(row, list) and all(map(_is_real, row)) for row in table)):
        raise ValueError("barrier.table: expected [[q, V], ...] of finite numbers")
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("barrier table must be [[q, V], ...]")
    cls = NumericBarrier if kind == "numeric" else EikonalBarrier
    return cls(rows[:, 0], rows[:, 1])
