import math

import numpy as np
import pytest

import oracles
from wigner_tunnel.barriers import (
    DeltaBarrier,
    EikonalBarrier,
    NumericBarrier,
    PoschlTellerBarrier,
)
from wigner_tunnel.errors import (
    ConvergenceRegionError,
    MethodCompatibilityError,
    NonMeromorphicError,
    PoleSearchError,
)
from wigner_tunnel.kernels import (
    classical_limit_lag,
    delta_kernels,
    interference_eval,
    kernel_by_quadrature,
    kernel_by_residues,
    pt_kernels,
    semiclassical_kernel,
    total_probabilities,
)

# frozen from the 30-digit oscillatory-quadrature oracle
# (tests/oracles.py: delta_kernel_T at v0=2, p=1, r=1)
DELTA_T_AT_1 = 0.4713974495800651


class TestDeltaClosedForm:
    def test_frozen_value(self):
        t_d, _ = delta_kernels(2.0, 1.0, 1.0)
        assert t_d == pytest.approx(DELTA_T_AT_1, abs=1e-12)

    def test_live_oracle(self):
        for r in (0.3, 1.0, 3.0):
            t_d, _ = delta_kernels(2.0, 1.0, r)
            assert t_d == pytest.approx(oracles.delta_kernel_T(2.0, 1.0, r),
                                        abs=1e-12)

    def test_negative_lag_is_zero(self):
        t_d, r_d = delta_kernels(2.0, 1.0, np.array([-3.0, -0.1]))
        assert np.all(t_d == 0.0)
        assert np.all(r_d == 0.0)

    def test_integrated_probabilities(self):
        # delta weight + integral of T density = 1 - v0^2/(v0^2+4p^2) = 1/2
        r = np.linspace(0.0, 14.0, 30000)
        t_d, r_d = delta_kernels(2.0, 1.0, r)
        assert 1.0 + np.trapezoid(t_d, r) == pytest.approx(0.5, abs=2e-6)
        # closed reflection integral v0^2/2p * 2p/(v0^2+4p^2) = 1/2
        assert np.trapezoid(r_d, r) == pytest.approx(0.5, abs=2e-6)

    def test_small_momentum_limit(self):
        # sin(2pr)/2p -> r smoothly as p -> 0
        r = np.array([0.5, 1.0])
        _, r_tiny = delta_kernels(2.0, 1e-13, r)
        expect = 4.0 * np.exp(-2.0 * r) * r
        assert np.allclose(r_tiny, expect, rtol=1e-9)

    def test_momentum_parity(self):
        # the kernels depend on p only through its magnitude: the
        # kernel-level remnant of the time-reversal pairing (the full
        # forward/backward pipeline identity is tested in acceptance)
        r = np.linspace(0.1, 6.0, 23)
        t_p, r_p = delta_kernels(2.0, 0.8, r)
        t_m, r_m = delta_kernels(2.0, 0.8, r)
        assert np.array_equal(t_p, t_m)
        bar = PoschlTellerBarrier(1.0, 0.4)
        a_p = bar.amplitude_a(np.array([0.9 + 0.0j]))
        a_m = bar.amplitude_a(np.array([-0.9 + 0.0j]))
        assert abs(a_p[0] - np.conj(a_m[0])) < 1e-12   # T(p) = T(-p) follows


class TestQuadratureRoute:
    def test_delta_triangulation(self):
        r = np.linspace(-1.95, 9.95, 60)
        for v0, p in ((2.0, 1.0), (2.0, 0.3), (0.5, 1.0)):
            bar = DeltaBarrier(v0)
            kt, kr = kernel_by_quadrature(bar, p, r)
            t_c, r_c = delta_kernels(v0, p, r)
            assert np.max(np.abs(kt.density - t_c)) < 1e-6
            assert np.max(np.abs(kr.density - r_c)) < 1e-6
            assert kt.singular_weight == 1.0
            assert kr.singular_weight == 0.0

    def test_causality(self):
        bar = DeltaBarrier(2.0)
        r = np.linspace(-2.0, -0.05, 25)
        kt, kr = kernel_by_quadrature(bar, 1.0, r)
        assert np.max(np.abs(kt.density)) < 1e-6
        assert np.max(np.abs(kr.density)) < 1e-6

    def test_pt_symmetric_no_correction_term(self):
        # the b-continuation correction vanishes identically for V(q)=V(-q)
        bar = PoschlTellerBarrier(1.0, 0.4)
        assert bar.symmetric
        r = np.array([0.3, 0.8])
        ks = np.linspace(0.4, 6.0, 13)
        b = bar.amplitude_b(ks)
        assert np.max(np.abs(b.real)) < 1e-13   # purely imaginary -> B == 0

    def test_requires_positive_momentum(self):
        with pytest.raises(ValueError):
            kernel_by_quadrature(DeltaBarrier(2.0), -1.0, np.array([1.0]))


class TestResidueRoute:
    def test_delta_matches_closed_form_exactly(self):
        r = np.linspace(-2.0, 10.0, 121)
        kd = kernel_by_residues(DeltaBarrier(2.0), 1.0, r, 1)
        t_c, _ = delta_kernels(2.0, 1.0, r)
        assert np.max(np.abs(kd.density - t_c)) < 1e-12

    def test_negative_lag_exactly_zero(self):
        r = np.linspace(-3.0, -0.1, 7)
        kd = kernel_by_residues(DeltaBarrier(2.0), 1.0, r, 1)
        assert np.all(kd.density == 0.0)

    def test_pt_envelope_decay_rate(self):
        # beyond a few widths the least-damped pole dominates; sampling at
        # its phase peaks gives a log-linear envelope with slope 2 Im kappa_0
        bar = PoschlTellerBarrier(1.0, 0.4)
        p = 0.9
        poles = bar.poles(1)
        kap0 = poles[0].kappa
        phase0 = np.angle(poles[0].residue_factor(p))
        peaks = np.array([(k * np.pi - phase0) / (2 * p) for k in range(1, 16)])
        peaks = peaks[(peaks > 1.2) & (peaks < 9.0)]
        assert len(peaks) >= 4
        kd = kernel_by_residues(bar, p, peaks, 30)
        slope = np.polyfit(peaks, np.log(np.abs(kd.density)), 1)[0]
        assert slope == pytest.approx(2.0 * kap0.imag, rel=0.02)

    def test_truncation_bound(self):
        bar = PoschlTellerBarrier(1.0, 0.4)
        r = np.linspace(0.25, 3.0, 12)
        kd_lo = kernel_by_residues(bar, 0.6, r, 10)
        t_c, _ = pt_kernels(1.0, 0.4, 0.6, r)
        assert kd_lo.truncation_error is not None
        assert np.all(np.abs(kd_lo.density - t_c)
                      <= 3.0 * kd_lo.truncation_error + 1e-12)

    def test_eikonal_rejected(self):
        bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -6.8, 6.8, 801)
        with pytest.raises(NonMeromorphicError):
            kernel_by_residues(bar, 0.6, np.array([1.0]), 4)

    def test_pole_search_failure_propagates(self):
        # only "fewer poles than asked" falls back to one pole less
        class BrokenSearch(DeltaBarrier):
            def poles(self, count):
                if count > 1:
                    raise RuntimeError("pole search broke")
                return super().poles(count)

        r = np.linspace(0.0, 5.0, 11)
        with pytest.raises(RuntimeError, match="pole search broke"):
            kernel_by_residues(BrokenSearch(2.0), 1.0, r, 1)
        with pytest.raises(PoleSearchError):
            kernel_by_residues(DeltaBarrier(2.0), 1.0, r, 2)

    def test_one_pole_search_per_call(self):
        # the delta barrier has one pole, fewer than the n_poles + 1 asked for
        class CountedSearch(DeltaBarrier):
            searches = 0

            def poles(self, count):
                self.searches += 1
                return super().poles(count)

        bar = CountedSearch(2.0)
        r = np.linspace(0.0, 5.0, 11)
        kd = kernel_by_residues(bar, 1.0, r, 1)
        assert bar.searches == 1
        assert np.max(np.abs(kd.density - delta_kernels(2.0, 1.0, r)[0])) < 1e-12
        with pytest.raises(PoleSearchError):
            kernel_by_residues(bar, 1.0, r, 2)
        assert bar.searches == 2


class TestPoschlTellerClosedForm:
    def test_triangulation_positive_lag(self):
        bar = PoschlTellerBarrier(1.0, 0.4)
        r = np.linspace(0.21, 3.0, 25)
        for p in (0.3, 0.6, 0.9):
            t_c, r_c = pt_kernels(1.0, 0.4, p, r)
            kt, kr = kernel_by_quadrature(bar, p, r)
            kd = kernel_by_residues(bar, p, r, 40)
            assert np.max(np.abs(kt.density - t_c)) < 1e-6
            assert np.max(np.abs(kr.density - r_c)) < 1e-6
            assert np.max(np.abs(kd.density - t_c)) < 1e-6

    def test_early_reflection_branch(self):
        # a smooth barrier reflects from its tail: R extends to r < 0
        bar = PoschlTellerBarrier(1.0, 0.4)
        r = np.linspace(-1.6, -0.15, 14)
        t_c, r_c = pt_kernels(1.0, 0.4, 0.6, r)
        kt, kr = kernel_by_quadrature(bar, 0.6, r)
        assert np.all(t_c == 0.0)                      # transmission causal
        assert np.max(np.abs(kr.density - r_c)) < 1e-6
        assert np.max(r_c) > 1e-3                      # genuinely nonzero

    def test_frozen_oracle_values(self):
        # 30-digit quadrature of the amplitude integrals at v0=1, s=0.4, p=0.6
        t_c, r_c = pt_kernels(1.0, 0.4, 0.6, np.array([0.4, 1.0]))
        assert t_c[0] == pytest.approx(-0.9396739189819, abs=1e-10)
        assert t_c[1] == pytest.approx(-0.0151287082691, abs=1e-10)
        assert r_c[0] == pytest.approx(0.1503227707137, abs=1e-10)
        _, r_neg = pt_kernels(1.0, 0.4, 0.6, np.array([-0.4]))
        assert r_neg[0] == pytest.approx(0.0254270187627, abs=1e-10)

    def test_decay_at_large_lag(self):
        t_far, r_far = pt_kernels(1.0, 0.4, 0.6, 12.0)
        assert abs(t_far) < 1e-4
        assert abs(r_far) < 1e-4

    def test_small_lag_rejected(self):
        with pytest.raises(ConvergenceRegionError):
            pt_kernels(1.0, 0.4, 0.6, 0.01)

    def test_wide_barrier_imaginary_omega(self):
        bar = PoschlTellerBarrier(1.0, 1.0)
        r = np.array([0.8, 1.5])
        t_c, r_c = pt_kernels(1.0, 1.0, 0.6, r)
        kt, kr = kernel_by_quadrature(bar, 0.6, r)
        assert np.max(np.abs(kt.density - t_c)) < 1e-6
        assert np.max(np.abs(kr.density - r_c)) < 1e-6


class TestTotalProbabilities:
    def test_delta_half_half(self):
        t_tot, r_tot = total_probabilities(DeltaBarrier(2.0), 1.0)
        assert t_tot == pytest.approx(0.5, rel=1e-14)
        assert r_tot == pytest.approx(0.5, rel=1e-14)

    def test_sum_to_one(self):
        for bar in (DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4)):
            for p in (0.3, 0.6, 1.7):
                t_tot, r_tot = total_probabilities(bar, p)
                assert t_tot + r_tot == pytest.approx(1.0, abs=1e-12)

    def test_high_energy_transparency(self):
        t_tot, _ = total_probabilities(PoschlTellerBarrier(1.0, 0.4), 300.0)
        assert t_tot == pytest.approx(1.0, abs=1e-4)


class _PhaseOnlyBarrier(DeltaBarrier):
    """a with pure phase, b identically zero (free-like fixture)."""

    def __init__(self):
        super().__init__(1.0)

    def amplitude_b(self, kappa):
        out = np.zeros(np.shape(kappa), dtype=complex)
        return 0j if np.ndim(kappa) == 0 else out

    def ba_ratio(self, kappa):
        return self.amplitude_b(kappa)


class TestInterference:
    def test_vanishes_without_reflection(self):
        bar = _PhaseOnlyBarrier()
        assert interference_eval(bar, 1.0, 0.8, -2.0, 1.1, 5.0) == 0.0

    def test_delta_value_vs_direct_formula(self):
        import mpmath as mp
        v0, q, p, q0, p0, t = 2.0, 1.3, 0.8, -2.0, 1.1, 5.0
        val = interference_eval(DeltaBarrier(v0), q, p, q0, p0, t)
        with mp.workdps(30):
            a = lambda k: 1 + 1j * mp.mpf(v0) / (2 * mp.mpf(k))
            b = lambda k: -1j * mp.mpf(v0) / (2 * mp.mpf(k))
            ref = (2 / mp.pi) * mp.re(b(p0 - p) / (a(p0 - p) * a(p0 + p))
                                      * mp.e ** (2j * (q0 * p - q * p0)
                                                 + 4j * p * p0 * t))
        assert val == pytest.approx(float(ref), rel=1e-12)

    def test_translation_invariance(self):
        # rotating b by exp(2 i kappa c) while shifting both coordinates by
        # +c leaves the interference value unchanged (the two extra phases
        # cancel identically)
        c = 0.7
        base = DeltaBarrier(2.0)

        class _Shifted(DeltaBarrier):
            def amplitude_b(self, kappa):
                return (super().amplitude_b(kappa)
                        * np.exp(2j * np.asarray(kappa, dtype=complex) * c))

        args = (0.9, 0.75, -3.0, 1.05, 6.0)
        v_base = interference_eval(base, *args)
        q, p, q0, p0, t = args
        v_shift = interference_eval(_Shifted(2.0), q + c, p, q0 + c, p0, t)
        assert v_shift == pytest.approx(v_base, rel=1e-12)

    def test_translation_of_numeric_barrier_phases(self):
        # a physically shifted table barrier keeps a and rotates b; the
        # direction of the phase matches the mirror pairing above
        c = 0.7
        base = NumericBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -4.8, 4.8, 1201)
        shifted = NumericBarrier.from_callable(
            lambda q: 1.0 / np.cosh((q - c) / 0.4) ** 2, -4.8 + c, 4.8 + c, 1201)
        k = 0.35
        a0, b0 = base.amplitudes(k)
        a1, b1 = shifted.amplitudes(k)
        assert abs(a1 - a0) < 1e-8
        assert b1 == pytest.approx(b0 * np.exp(-2j * k * c), rel=1e-7)

    def test_pole_at_equal_momenta_signals(self):
        with pytest.raises(ZeroDivisionError):
            interference_eval(DeltaBarrier(2.0), 1.0, 0.9, -2.0, 0.9, 5.0)


class TestSemiclassical:
    def test_small_lag_asymptotic_vs_quadrature_oracle(self):
        w = 10.0
        for r, tol in ((2.0, 0.05), (4.0, 0.05)):   # w r = 20, 40
            closed = semiclassical_kernel(
                _weight_barrier(w), 0.4, r, mode="small_r").value
            direct = oracles.lag_cos_integral(w, r)
            envelope = (2 * w * r) ** 0.25 / (r * math.sqrt(math.pi))
            assert abs(direct - closed) <= tol * envelope

    def test_small_lag_regime_flags(self):
        res = semiclassical_kernel(_weight_barrier(10.0), 0.5, 4.0, mode="small_r")
        assert res.regime_ok
        res2 = semiclassical_kernel(_weight_barrier(10.0), 4.0, 4.0, mode="small_r")
        assert not res2.regime_ok
        assert len(res2.violations) >= 1

    def test_airy_mode_integrates_to_tunneling_probability(self):
        s, v0, p0 = 4.0, 1.0, 0.45
        bar = PoschlTellerBarrier(v0, s)
        lag = classical_limit_lag(v0, s, p0)
        alpha = (3 * s * v0 ** 2 * (v0 ** 2 - 3 * p0 ** 2)
                 / (12 * p0 ** 2 * (v0 ** 2 - p0 ** 2) ** 2)) ** (1.0 / 3.0)
        r = np.linspace(lag.lag - 70 * alpha, lag.lag + 40 * alpha, 3001)
        vals = semiclassical_kernel(bar, p0, r, mode="airy").value
        integral = np.trapezoid(vals, r)
        assert integral == pytest.approx(lag.weight, rel=0.05)

    def test_airy_mode_preconditions(self):
        bar = PoschlTellerBarrier(1.0, 4.0)
        with pytest.raises(MethodCompatibilityError):
            semiclassical_kernel(bar, 1.2, 1.0, mode="airy")
        with pytest.raises(MethodCompatibilityError):
            semiclassical_kernel(DeltaBarrier(2.0), 0.5, 1.0, mode="airy")

    def test_quadrature_mode_tracks_exact_kernel(self):
        # above the barrier the stationary-phase evaluation should follow
        # the exact kernel closely (the eikonal error is the only gap)
        bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -6.8, 6.8, 1201)
        r = np.array([0.1, 0.5, 0.9, 1.3])
        res = semiclassical_kernel(bar, 1.6, r, mode="quadrature")
        t_c, _ = pt_kernels(1.0, 0.4, 1.6, r)
        scale = np.max(np.abs(t_c))
        assert np.max(np.abs(res.value - t_c)) < 0.1 * scale
        # and respects causality
        r_neg = np.array([-1.0, -0.4])
        res_neg = semiclassical_kernel(bar, 1.6, r_neg, mode="quadrature")
        assert np.max(np.abs(res_neg.value)) < 0.01 * scale

    def test_above_barrier_peak_near_classical_delay(self):
        # for a wide barrier and p comfortably above it the kernel
        # concentrates near the classical lag -S'(p), within the cubic
        # (Airy) smearing width given by the stationary-phase condition
        from wigner_tunnel.barriers import eikonal_action
        s, v0, p = 3.0, 1.0, 2.5
        bar = EikonalBarrier.from_callable(
            lambda q: v0 ** 2 / np.cosh(q / s) ** 2, -17 * s, 17 * s, 2401)
        h = 0.01
        sv = lambda k: eikonal_action(bar, k).real
        sp = (sv(p + h) - sv(p - h)) / (2 * h)
        phi3 = abs(s * v0 ** 2 * (v0 ** 2 - 3 * p ** 2)
                   / (12 * p ** 2 * (v0 ** 2 - p ** 2) ** 2))
        width = (3 * phi3) ** (1.0 / 3.0)
        r = np.linspace(-1.0, 3.0, 161)
        res = semiclassical_kernel(bar, p, r, mode="quadrature")
        peak_r = r[int(np.argmax(res.value))]
        assert peak_r > 0            # a delay, never an advance
        assert abs(peak_r - (-sp)) < 1.2 * width


def _weight_barrier(w):
    """Delta spike used purely as a carrier of the potential area w."""
    return DeltaBarrier(w)


class TestClassicalLag:
    def test_zero_lag_point(self):
        lag = classical_limit_lag(1.0, 4.0, 1.0 / math.sqrt(2.0))
        assert lag.lag == pytest.approx(0.0, abs=1e-12)
        # just above the crossover momentum the support is a genuine delay
        assert not classical_limit_lag(1.0, 4.0, 0.72).is_advance

    def test_divergence_near_top(self):
        lag = classical_limit_lag(1.0, 4.0, 0.9999)
        assert lag.lag > 20.0

    def test_advance_flagged_below_crossover(self):
        lag = classical_limit_lag(1.0, 4.0, 0.5)
        assert lag.lag < 0.0
        assert lag.is_advance

    def test_airy_concentrates_on_lag_as_barrier_widens(self):
        # the Airy width (3 phi3)^(1/3) shrinks relative to s, and its
        # center stays at the classical-limit lag
        p0, v0 = 0.45, 1.0
        widths = []
        for s in (10.0, 20.0, 40.0):
            lag = classical_limit_lag(v0, s, p0)
            alpha = (3 * s * v0 ** 2 * (v0 ** 2 - 3 * p0 ** 2)
                     / (12 * p0 ** 2 * (v0 ** 2 - p0 ** 2) ** 2)) ** (1.0 / 3.0)
            widths.append(alpha / abs(lag.lag))
            bar = PoschlTellerBarrier(v0, s)
            r = np.linspace(lag.lag - 8 * alpha, lag.lag + 8 * alpha, 801)
            vals = semiclassical_kernel(bar, p0, r, mode="airy").value
            peak_r = r[int(np.argmax(vals))]
            assert abs(peak_r - lag.lag) < 3.0 * alpha
        assert widths[2] < widths[1] < widths[0]

    def test_domain(self):
        with pytest.raises(ValueError):
            classical_limit_lag(1.0, 4.0, 1.5)
