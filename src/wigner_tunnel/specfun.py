"""Complex special functions used by the closed-form scattering formulas.

The complex Gamma and log-Gamma functions, the Faddeeva function and
the Airy function Ai are thin wrappers over scipy.special; the Gamma
wrappers add the pole and branch contracts the scattering formulas rely
on. scipy has no 4F3, so the generalized hypergeometric series is summed
here directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import airy, gamma, loggamma, wofz

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


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) of one complex argument."""
    return complex(wofz(complex(z)))


def big_w(z):
    """W(z) = z w(z), the scaled Faddeeva combination used by transients."""
    return complex(z) * faddeeva_w(z)


def airy_ai(x):
    """Airy function Ai(x) on the real line."""
    return float(airy(float(x))[0])


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
