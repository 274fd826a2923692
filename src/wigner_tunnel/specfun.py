"""Complex special functions used by the closed-form scattering formulas.

The complex log-Gamma and Gamma functions are numpy only, so the
Poschl-Teller amplitudes and kernels load no scipy: a shift, the Stirling
series and the reflection formula, chosen per entry, with the pole and
branch contracts the scattering formulas rely on. The Faddeeva function
(delta transients) and the Airy function Ai (the semiclassical Airy form)
are thin wrappers over scipy.special, imported where they are called.
scipy has no 4F3, so the generalized hypergeometric series is summed here
directly, from one vectorised table of its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GammaPoleError, SeriesConvergenceError

__all__ = [
    "gamma_cx",
    "log_gamma_right",
    "faddeeva_w",
    "big_w",
    "airy_ai",
    "hyp4f3",
    "hyp4f3_coefficients",
    "Hyp4F3Result",
]


# log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + S(w), and the Stirling
# series S(w) = sum_k c_k w^(1-2k), c_k = B_2k / (2k (2k - 1)) for k = 1..7
# (DLMF 5.11.1), highest k first. The series only ever takes Re w > -1 and
# |w| >= 10: below |w| = 12, w is shifted by _SHIFT to Re w > 9 with
# |arg w| <= 53 deg. The first omitted term bounds the remainder (DLMF
# 5.11.ii): under 1.5e-16 there and 1e-15 at |w| = 12, Re w = -1.
_STIRLING = (1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0,
             1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_SHIFT = 10
_SHIFT_BELOW = 12.0
_INV_STEPS = 1.0 / np.arange(1.0, _SHIFT)
# S(N), the i-th entry of _STIRLING being c_k for k = 8 - i
_SERIES_AT_SHIFT = sum(c * _SHIFT ** (2 * i - 15) for i, c in enumerate(_STIRLING, 1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
# entries per block of log_gamma_right: its work arrays stay in cache
_GAMMA_BLOCK = 1 << 12


def _log_sinh(z):
    """log sinh(z) up to 2 pi i, stable for large |Re z|."""
    z = np.asarray(z, dtype=complex)
    flip = z.real < 0
    zz = np.where(flip, -z, z)
    out = zz - math.log(2.0) + np.log(-np.expm1(-2.0 * zz))
    return np.where(flip, out + 1j * np.pi, out)


def _log(w):
    """log w from log|w| and arg w (numpy's complex log is 4x slower)."""
    out = np.empty_like(w)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out


def _series(w, work):
    """S(w), in one of the four arrays like w of ``work``. Complex products
    never run in place: numpy rounds an in-place product of one entry
    differently from the same entry of a longer array."""
    r, r2, acc, tmp = work
    np.reciprocal(w, out=r)
    np.multiply(r, r, out=r2)
    np.multiply(_STIRLING[0], r2, out=acc)
    for c in _STIRLING[1:-1]:
        acc += c
        np.multiply(acc, r2, out=tmp)
        acc, tmp = tmp, acc
    acc += _STIRLING[-1]
    np.multiply(acc, r, out=tmp)
    return tmp


def _log_gamma_shifted(z):
    """log Gamma(z) - S(z + N), N = _SHIFT, for Re z > -1, from terms of
    size O(|z|): log Gamma(z + N) - log prod_{k<N} (z + k) rearranged with
    log(z + N) = log N + log(1 + z/N) and (N - 1)! = Gamma(N), so that no
    term of size log Gamma(N) is formed and cancelled. Every factor 1 + z/k
    has Re > 0, and 1 + z is exact, so the pole at -1 stays sharp."""
    u = z / _SHIFT
    log1p_u = np.empty_like(z)    # log(1 + u), with |1 + u|^2 - 1 = Re(u (conj u + 2))
    np.multiply(np.log1p((u * (u.conj() + 2.0)).real), 0.5, out=log1p_u.real)
    np.arctan2(u.imag, 1.0 + u.real, out=log1p_u.imag)
    # prod_{0<k<N} (1 + z/k): the N - 1 = 9 factor columns multiplied as a
    # tree, four pairs, two, one, then the ninth column
    f = 1.0 + z[:, None] * _INV_STEPS
    f = f[:, :4] * f[:, 4:8], f[:, 8]
    f = f[0][:, :2] * f[0][:, 2:], f[1]
    prod = (f[0][:, 0] * f[0][:, 1]) * f[1]
    return (z * (math.log(_SHIFT) - 1.0) + (z + (_SHIFT - 0.5)) * log1p_u
            - _SERIES_AT_SHIFT - _log(z) - _log(prod))


def _log_gamma_block(z, out, work):
    """log Gamma of one block of z into out (see ``log_gamma_right``)."""
    w = z.copy()
    left = (z.real <= 0.0).nonzero()[0]
    if left.size:
        zl = z[left]
        on_pole = zl == np.floor(zl.real)      # a real non-positive integer
        if on_pole.any():
            raise GammaPoleError(f"gamma pole at z={zl[on_pole][0]}")
        keep = zl.real < -1.0
        left, zl = left[keep], zl[keep]
        w[left] = 1.0 - zl
    small = (np.abs(w) < _SHIFT_BELOW).nonzero()[0]
    zs = w[small]
    w[small] = zs + _SHIFT
    series = _series(w, work[:, :len(w)])
    if small.size < len(w):
        # (w - 1/2) log w - w + log(2 pi)/2 + S(w), the shifted entries included
        np.multiply(w - 0.5, _log(w), out=out)
        out -= w
        out += _HALF_LOG_2PI
        out += series
    if small.size:
        out[small] = series[small] + _log_gamma_shifted(zs)
    if left.size:
        # Gamma(z) Gamma(1 - z) = pi / sin(pi z), with sin(pi z) = (-1)^n sin(pi (z - n))
        # for n the integer nearest Re z, so the zeros of sin stay sharp at every pole
        n = np.round(zl.real)
        log_sin = (_log_sinh(-np.pi * zl.imag + 1j * (np.pi * (zl.real - n)))
                   + 1j * np.pi * (np.remainder(n, 2.0) - 0.5))
        out[left] = _LOG_PI - log_sin - out[left]


def log_gamma_right(z, out=None):
    """log Gamma(z) on the whole complex plane, up to a multiple of 2 pi i.

    The name is historical: the function is valid in both half-planes.
    Overflow-free, so amplitude ratios whose individual Gamma factors
    leave the double-precision range are taken in log space. numpy only:
    the Stirling series (``_STIRLING``) after the shift
    log Gamma(z) = log Gamma(z + N) - log prod_{k<N} (z + k) for |z| < 12,
    and the reflection formula where Re z < -1 (DLMF 5.5.3, 5.11.1; Hare,
    J. Algorithms 25 (1997) 221). Each rule is chosen per entry, so an
    entry's value does not depend on the rest of the array. Raises
    GammaPoleError if any entry is exactly a non-positive integer.

    ``out``, a C-contiguous complex array of z's shape, takes the result
    in place of a new array; it may be z itself.
    """
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    flat, res = z.reshape(-1), out.reshape(-1)
    work = np.empty((4, min(flat.size, _GAMMA_BLOCK)), dtype=complex)
    for lo in range(0, flat.size, _GAMMA_BLOCK):
        _log_gamma_block(flat[lo:lo + _GAMMA_BLOCK], res[lo:lo + _GAMMA_BLOCK], work)
    return out[()]


def gamma_cx(z):
    """Gamma function of complex argument, exp(log_gamma_right(z)).

    Accepts a complex scalar or array; inf where Gamma leaves the double
    range. Raises GammaPoleError if any entry is exactly a non-positive
    integer.
    """
    with np.errstate(over="ignore"):
        return np.exp(log_gamma_right(z))


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) of one complex argument."""
    from scipy.special import wofz

    return complex(wofz(complex(z)))


def big_w(z):
    """W(z) = z w(z), the scaled Faddeeva combination used by transients."""
    return complex(z) * faddeeva_w(z)


def airy_ai(x):
    """Airy function Ai(x) on the real line: a float for a scalar, else an array."""
    from scipy.special import airy

    out = airy(np.asarray(x, dtype=float))[0]
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Hyp4F3Result:
    """Value of a 4F3 partial sum plus an estimate of what was dropped."""
    value: complex
    truncation_error: float
    terms: int


def hyp4f3(xi, lam, zeta, tol=1e-14, max_terms=100_000):
    """Generalized hypergeometric 4F3 by direct summation.

    Parameters are the four upper entries ``xi``, three lower entries
    ``lam`` and the argument ``zeta`` with |zeta| < 1. The value is the
    polynomial in zeta of the first n ``hyp4f3_coefficients``; n doubles
    from 64, up to ``max_terms``, until the geometric tail bound
    |last term| |zeta| / (1 - |zeta|) is at most ``tol`` times the sum.
    That bound is the truncation error, and ``terms`` is n.
    """
    if len(xi) != 4 or len(lam) != 3:
        raise ValueError("hyp4f3 takes 4 upper and 3 lower parameters")
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise SeriesConvergenceError(f"|zeta| = {abs(zeta)} >= 1: outside the series disk")
    n_terms = min(64, max_terms)
    while True:
        c = hyp4f3_coefficients(xi, lam, n_terms)
        value = complex(np.polynomial.polynomial.polyval(zeta, c))
        tail = float(abs(c[-1])) * abs(zeta) ** n_terms / (1.0 - abs(zeta))
        if tail <= tol * abs(value):
            return Hyp4F3Result(value, tail, n_terms)
        if n_terms >= max_terms:
            raise SeriesConvergenceError(
                f"4F3 did not converge within {max_terms} terms (|zeta|={abs(zeta):.6f})")
        n_terms = min(2 * n_terms, max_terms)


def hyp4f3_coefficients(xi, lam, n_terms):
    """Taylor coefficients c_n of the 4F3 series, for vectorized evaluation.

    c_0 = 1 and c_{n+1}/c_n = prod(xi+n) / (prod(lam+n) (n+1)); the series
    value at argument zeta is then polyval(c, zeta). The coefficients are
    the cumulative product of those term ratios. Scalar parameters give
    one vector; parameters broadcasting to shape S give shape S + (n_terms,).
    """
    n = np.arange(n_terms - 1, dtype=float)
    ratio = 1.0 / (n + 1.0)
    for x in xi:
        ratio = ratio * (np.asarray(x, dtype=complex)[..., None] + n)
    for lm in lam:
        lm = np.asarray(lm, dtype=complex)
        bad = (lm.imag == 0.0) & (lm.real <= 0.0) & (lm.real == np.floor(lm.real))
        if np.any(bad):
            raise SeriesConvergenceError(
                f"4F3 lower parameter {lm[bad][0]} is a non-positive integer")
        ratio = ratio / (lm[..., None] + n)
    c = np.empty(ratio.shape[:-1] + (n_terms,), dtype=complex)
    c[..., 0] = 1.0
    np.cumprod(ratio, axis=-1, out=c[..., 1:])
    return c
