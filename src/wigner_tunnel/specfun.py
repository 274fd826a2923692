"""Complex special functions used by the closed-form scattering formulas.

The complex Gamma and log-Gamma functions, the Faddeeva function and
the Airy function Ai are thin wrappers over scipy.special; the Gamma
wrappers add the pole and branch contracts the scattering formulas rely
on. scipy has no 4F3, so the generalized hypergeometric series is summed
here directly, from one vectorised table of its coefficients.
"""

from __future__ import annotations

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


def _check_poles(z):
    """Raise GammaPoleError if any entry of z is exactly a non-positive integer."""
    on_pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(on_pole):
        raise GammaPoleError(f"gamma pole at z={z[on_pole][0]}")


def log_gamma_right(z):
    """log Gamma(z) on the whole complex plane, up to a multiple of 2 pi i.

    The name is historical: scipy's ``loggamma`` is valid in both half-
    planes. Overflow-free, so amplitude ratios whose individual Gamma
    factors leave the double-precision range are taken in log space.
    Raises GammaPoleError if any entry is exactly a non-positive integer,
    where ``loggamma`` would return nan.
    """
    from scipy.special import loggamma

    z = np.asarray(z, dtype=complex)
    _check_poles(z)
    return loggamma(z)


def gamma_cx(z):
    """Gamma function of complex argument.

    Accepts a complex scalar or array. Raises GammaPoleError if any entry
    is exactly a non-positive integer.
    """
    from scipy.special import gamma

    z = np.asarray(z, dtype=complex)
    _check_poles(z)
    return gamma(z)


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
