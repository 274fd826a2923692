"""Property tests: invariants over randomly drawn barriers and arguments."""

import math
import pickle

import mpmath
import numpy as np
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import numeric_amplitudes_dop853
from wigner_tunnel.barriers import NumericBarrier, PoschlTellerBarrier
from wigner_tunnel.evolution import fftconvolve
from wigner_tunnel.kernels import kernel_by_quadrature, pt_kernels
from wigner_tunnel.specfun import log_gamma_right

# derandomized, so a CI failure reproduces locally
derandomized = settings(deadline=None, derandomize=True)

# v0*s < 1/2 is a narrow barrier (omega real), > 1/2 a wide one (omega
# imaginary); near 1/2 the two S-matrix pole families merge
strength = st.one_of(st.floats(0.005, 0.49), st.floats(0.51, 5.0))
width = st.floats(0.05, 5.0)
# s*kappa from 1e-10 (the direct Gamma quotient, |s kappa| <= 1e-8) to 300
# (the log-space quotient, past where single Gamma factors leave double range)
scaled_kappa = st.builds(lambda e, sign: sign * 10.0 ** e,
                         st.floats(-10.0, math.log10(300.0)), st.sampled_from([-1.0, 1.0]))


@settings(derandomized, max_examples=300)
@given(vs=strength, s=width, sk=scaled_kappa)
def test_pt_amplitudes_unitary_schwarz_and_ratio(vs, s, sk):
    bar = PoschlTellerBarrier(vs / s, s)
    k = sk / s
    a, b = bar.amplitude_a(k), bar.amplitude_b(k)
    assert np.isfinite(a) and np.isfinite(b)
    # |a|^2 - |b|^2 = 1, relative to |a|^2 (|a| ~ 1/kappa as kappa -> 0)
    assert abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) <= 1e-10 * abs(a) ** 2
    assert abs(bar.amplitude_a(-k) - a.conjugate()) <= 1e-12 * abs(a)
    assert abs(bar.ba_ratio(k) - b / a) <= 1e-10 * abs(b / a) + 1e-300


@settings(derandomized, max_examples=300)
@given(x=st.floats(1e-3, 1e3), y=st.floats(-3e3, 3e3))
def test_log_gamma_right_matches_mpmath(x, y):
    z = complex(x, y)
    ref = complex(mpmath.loggamma(mpmath.mpc(x, y)))
    diff = complex(log_gamma_right(z)) - ref
    diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
    assert abs(diff) <= 1e-13 * max(1.0, abs(ref))


@settings(derandomized, max_examples=8)
@given(vs=strength, s=st.floats(0.2, 1.0), p=st.floats(0.3, 2.0))
def test_one_kernel_quadrature_equals_two_kernel_call(vs, s, p):
    bar = PoschlTellerBarrier(vs / s, s)
    r = np.linspace(-0.05 * s, 0.05 * s, 5)
    both_t, both_r = kernel_by_quadrature(bar, p, r)
    only_t, none_r = kernel_by_quadrature(bar, p, r, which="T")
    none_t, only_r = kernel_by_quadrature(bar, p, r, which="R")
    assert none_r is None and none_t is None
    for one, both in ((only_t, both_t), (only_r, both_r)):
        assert np.array_equal(one.density, both.density)
        assert one.error_estimate == both.error_estimate
        assert one.singular_weight == both.singular_weight
    # the closed-form 4F3 sums outside the band, on both signs of the lag
    r = np.array([-2.0, -0.3, 0.3, 2.0, 6.0]) * s
    both_t, both_r = pt_kernels(vs / s, s, p, r)
    only_t, none_r = pt_kernels(vs / s, s, p, r, which="T")
    none_t, only_r = pt_kernels(vs / s, s, p, r, which="R")
    assert none_r is None and none_t is None
    assert np.array_equal(only_t, both_t) and np.array_equal(only_r, both_r)


# small non-negative tables: 4 to 41 rows on [-L, L], heights up to 1.5
tables = st.builds(
    lambda half, v: NumericBarrier(np.linspace(-half, half, len(v)), np.array(v)),
    st.floats(0.5, 2.0),
    st.lists(st.floats(0.0, 1.5), min_size=4, max_size=41))
real_kappas = st.lists(st.floats(0.2, 4.0), min_size=1, max_size=6, unique=True)


@settings(derandomized, max_examples=30)
@given(bar=tables, ks=real_kappas)
def test_numeric_array_call_matches_scalar_calls(bar, ks):
    a, b = bar.amplitudes(np.array(ks))
    for k, ak, bk in zip(ks, a, b):
        a1, b1 = bar.amplitudes(k)
        assert isinstance(a1, complex) and isinstance(b1, complex)
        assert abs(ak - a1) <= 1e-7 * abs(a1)
        assert abs(bk - b1) <= 1e-7 * abs(a1)


@settings(derandomized, max_examples=30)
@given(bar=tables, ks=real_kappas)
def test_numeric_amplitudes_unitary_and_schwarz(bar, ks):
    ks = np.array(ks)
    a, b = bar.amplitudes(ks)
    assert np.all(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0) <= 1e-6)
    assert np.all(np.abs(bar.amplitude_a(-ks) - np.conj(a)) <= 1e-7 * np.abs(a))


# fractions of the Newton pole search's seed box: Re kappa in [-K, K],
# Im kappa in [-depth, -depth/30]
window_points = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(1.0 / 30.0, 1.0)),
                         min_size=1, max_size=3)


@settings(derandomized, max_examples=20)
@given(bar=tables, ks=real_kappas, zs=window_points)
def test_numeric_amplitudes_match_dop853_oracle(bar, ks, zs):
    # the transfer-matrix product keeps |a|^2 - |b|^2 = 1 whatever its step,
    # so accuracy is checked against an independent tight ODE solve
    lo, hi = bar.support()
    K = 4.0 * math.sqrt(max(bar.max_potential(), 1e-12))
    depth = min(K, 22.0 / (hi - lo))
    kappa = np.array(ks + [K * x - 1j * depth * y for x, y in zs])
    a, b = bar.amplitudes(kappa)
    for k, ak, bk in zip(kappa, a, b):
        a_ref, b_ref = numeric_amplitudes_dop853(bar, k)
        assert abs(ak - a_ref) <= 1e-7 * abs(a_ref)
        assert abs(bk - b_ref) <= 1e-7 * abs(a_ref)


def test_numeric_barrier_holds_no_per_call_state():
    bar = NumericBarrier.from_callable(lambda q: 1.0 / np.cosh(q / 0.4) ** 2,
                                       -2.0, 2.0, 41)
    size = len(pickle.dumps(bar))
    bar.amplitudes(np.linspace(0.2, 3.0, 99))
    bar.ba_ratio(3.5)
    assert len(pickle.dumps(bar)) == size


signals = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300)


@settings(derandomized, max_examples=200)
@given(in1=signals, in2=signals)
def test_fftconvolve_matches_scipy_signal(in1, in2):
    # bit for bit, so propagator outputs keep their bytes
    in1, in2 = np.array(in1), np.array(in2)
    assert np.array_equal(fftconvolve(in1, in2, mode="valid"),
                          scipy.signal.fftconvolve(in1, in2, mode="valid"))
