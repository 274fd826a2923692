"""Complex special functions used by the closed-form scattering formulas.

The complex Gamma and log-Gamma functions are thin wrappers over
scipy.special that add the pole and branch contracts the scattering
formulas rely on. The rest is self-contained double-precision numerics:
a two-regime Faddeeva function, the Airy function Ai on the real line,
and a direct summation of the generalized hypergeometric series 4F3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, loggamma

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

_ISQRT_PI = 1.0 / math.sqrt(math.pi)


def log_gamma_right(z):
    """log Gamma(z) for Re z > 0, up to an irrelevant multiple of 2 pi i.

    Overflow-free evaluation path for amplitude ratios whose individual
    Gamma factors leave the double-precision range.
    """
    return loggamma(np.asarray(z, dtype=complex))


def gamma_cx(z):
    """Gamma function of complex argument.

    Accepts a complex scalar or array. Raises GammaPoleError if any entry
    is exactly a non-positive integer.
    """
    z = np.asarray(z, dtype=complex)
    on_pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(on_pole):
        raise GammaPoleError(f"gamma pole at z={z[on_pole][0]}")
    return gamma(z)


def _faddeeva_series(z):
    """Maclaurin evaluation: w(z) = exp(-z^2) + i z * sum (-z^2)^m / Gamma(m+3/2)."""
    mz2 = -z * z
    term = 2.0j * z * _ISQRT_PI          # m = 0 term: i z / Gamma(3/2)
    acc = term
    for m in range(1, 300):
        term *= mz2 / (m + 0.5)
        acc += term
        if abs(term) <= 1e-17 * abs(acc) + 1e-300:
            break
    return cmath.exp(mz2) + acc


def _faddeeva_cf(z, depth):
    """Laplace continued fraction, backward evaluation; Im z >= 0, |z| large."""
    f = z
    for k in range(depth, 0, -1):
        f = z - (0.5 * k) / f
    return 1j * _ISQRT_PI / f


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Series for |z| < 4, continued fraction beyond; full accuracy is
    guaranteed for Im z >= 0 (the lower half-plane uses the reflection
    w(z) = 2 exp(-z^2) - w(-z), which loses digits for strongly negative
    Im z as the exponential dominates).
    """
    z = complex(z)
    if z.imag < 0.0:
        return 2.0 * cmath.exp(-z * z) - faddeeva_w(-z)
    r = abs(z)
    if r < 4.0:
        return _faddeeva_series(z)
    depth = 60 if r < 8.0 else (32 if r < 16.0 else 20)
    if z.imag == 0.0:
        # On the real axis the rational tail cannot represent exp(-x^2);
        # take the exact real part and the continued-fraction imaginary part.
        x = z.real
        return complex(math.exp(-x * x), _faddeeva_cf(z, depth).imag)
    return _faddeeva_cf(z, depth)


def big_w(z):
    """W(z) = z w(z), the scaled Faddeeva combination used by transients."""
    z = complex(z)
    return z * faddeeva_w(z)


# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3).
_AI0 = 0.3550280538878172
_AIP0 = 0.2588194037928068


def _airy_series(x):
    f_term = 1.0
    f_sum = f_term
    g_term = x
    g_sum = g_term
    x3 = x * x * x
    for k in range(1, 80):
        f_term *= x3 / ((3.0 * k) * (3.0 * k - 1.0))
        g_term *= x3 / ((3.0 * k) * (3.0 * k + 1.0))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) + abs(g_term) < 1e-18 * (abs(f_sum) + abs(g_sum)) + 1e-300:
            break
    return _AI0 * f_sum - _AIP0 * g_sum


def _airy_u_terms(zeta, nmax=40):
    """Asymptotic coefficients u_k / zeta^k, truncated before they grow."""
    terms = [1.0]
    u = 1.0
    for k in range(nmax):
        u *= (3.0 * k + 2.5) * (3.0 * k + 1.5) * (3.0 * k + 0.5) / (
            54.0 * (k + 1.0) * (k + 0.5))
        nxt = u / zeta ** (k + 1)
        if abs(nxt) >= abs(terms[-1]):
            break
        terms.append(nxt)
    return terms


def airy_ai(x):
    """Airy function Ai(x) on the real line (absolute accuracy ~1e-12 for |x| <= 20)."""
    x = float(x)
    if abs(x) <= 7.5:
        return _airy_series(x)
    if x > 0.0:
        zeta = (2.0 / 3.0) * x ** 1.5
        terms = _airy_u_terms(zeta)
        s = sum(t * (-1) ** k for k, t in enumerate(terms))
        return math.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x ** 0.25)
    ax = -x
    zeta = (2.0 / 3.0) * ax ** 1.5
    terms = _airy_u_terms(zeta)
    even = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms) if k % 2 == 0)
    odd = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms) if k % 2 == 1)
    phase = zeta + 0.25 * math.pi
    return (math.sin(phase) * even - math.cos(phase) * odd) / (
        math.sqrt(math.pi) * ax ** 0.25)


@dataclass(frozen=True)
class Hyp4F3Result:
    """Value of a 4F3 partial sum plus an estimate of what was dropped."""
    value: complex
    truncation_error: float
    terms: int


def _check_4f3_parameters(lam):
    for lm in lam:
        lm = complex(lm)
        if lm.imag == 0.0 and lm.real <= 0.0 and lm.real == math.floor(lm.real):
            raise SeriesConvergenceError(
                f"4F3 lower parameter {lm} is a non-positive integer")


def hyp4f3(xi, lam, zeta, tol=1e-14, max_terms=100_000):
    """Generalized hypergeometric 4F3 by direct summation.

    Parameters are the four upper entries ``xi``, three lower entries
    ``lam`` and the argument ``zeta`` with |zeta| < 1. Terms are updated
    multiplicatively (one complex multiply-divide per term, no Gamma
    calls). Summation stops once three consecutive terms fall below
    ``tol`` times the partial sum.
    """
    if len(xi) != 4 or len(lam) != 3:
        raise ValueError("hyp4f3 takes 4 upper and 3 lower parameters")
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise SeriesConvergenceError(f"|zeta| = {abs(zeta)} >= 1: outside the series disk")
    _check_4f3_parameters(lam)

    xi = [complex(v) for v in xi]
    lam = [complex(v) for v in lam]
    term = complex(1.0)
    acc = complex(1.0)
    small_streak = 0
    for n in range(max_terms):
        ratio = zeta / (n + 1.0)
        for x in xi:
            ratio *= x + n
        for l in lam:
            ratio /= l + n
        term = term * ratio
        acc += term
        if abs(term) <= tol * abs(acc):
            small_streak += 1
            if small_streak >= 3:
                tail = abs(term) * abs(zeta) / max(1.0 - abs(zeta), 1e-16)
                return Hyp4F3Result(acc, tail, n + 2)
        else:
            small_streak = 0
        if term == 0.0:  # a terminating (polynomial) case
            return Hyp4F3Result(acc, 0.0, n + 2)
    raise SeriesConvergenceError(
        f"4F3 did not converge within {max_terms} terms (|zeta|={abs(zeta):.6f})")


def hyp4f3_coefficients(xi, lam, n_terms):
    """Taylor coefficients c_n of the 4F3 series, for vectorized evaluation.

    c_0 = 1 and c_{n+1}/c_n = prod(xi+n) / (prod(lam+n) (n+1)); the series
    value at argument zeta is then polyval(c, zeta).
    """
    _check_4f3_parameters(lam)
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
