import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.interpolate

import oracles
from wigner_tunnel import kernels, quadrature
from wigner_tunnel.barriers import (
    DeltaBarrier,
    EikonalBarrier,
    NumericBarrier,
    PoschlTellerBarrier,
    find_poles,
    residue_factors,
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
    kernel_row,
    pt_kernels,
    semiclassical_kernel,
    total_probabilities,
)


def sech2_table(shift=0.0):
    """A 41-row sech^2 table on [-2, 2] sampling PT (1.0, 0.4), moved by ``shift``."""
    q = np.linspace(-2.0, 2.0, 41)
    return NumericBarrier(q + shift, 1.0 / np.cosh(q / 0.4) ** 2)


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

    def test_phase_limited_panels_match_closed_form(self):
        # at lags out to 120 a panel of 2 pi of phase is narrower than a
        # quarter of the feature scale, so the phase sets the panel width
        bar, p = DeltaBarrier(0.2), 1.0
        r = np.linspace(-0.95, 119.05, 61)
        fs, _ = kernels._sigma_scales(bar, p)
        assert 2.0 * np.pi / np.max(np.abs(r)) < fs / 4.0
        kt, kr = kernel_by_quadrature(bar, p, r)
        t_c, r_c = delta_kernels(bar.v0, p, r)
        peak = max(np.max(np.abs(t_c)), np.max(np.abs(r_c)))
        miss_t, miss_r = np.max(np.abs(kt.density - t_c)), np.max(np.abs(kr.density - r_c))
        assert max(miss_t, miss_r) < 1e-8 * peak
        assert miss_t <= kt.error_estimate and miss_r <= kr.error_estimate

    # the eikonal T on the 41-row sech^2 table at p = 1.1 and 0.6, 12 lags on
    # [0.1, 6], from panels of an eighth of the feature scale at tol 1e-10 with
    # the same edges (estimates 2.1e-8 and 9.0e-9; minutes per run)
    @pytest.mark.parametrize("p, ref", [
        (1.1, [-1.4337775940726942, 0.022773368032862784, 0.5302879894344841,
               0.10752616989682551, 0.039719377933099764, 0.10512702835023902,
               0.012620297611862341, 0.03094671977351915, 0.05029759161632086,
               -0.0008228592098742382, 0.009751829819407476, 0.013455310606703463]),
        (0.6, [-1.4593312795289402, -0.5034008848546367, 0.146372805835993,
               0.17809407938952493, -0.010496502293705134, -0.044351495037223465,
               0.018890719492945962, 0.01269715845837549, -0.030166437268250412,
               -0.021493748946868507, 0.007490057078475942, 0.00344423589980547]),
    ], ids=["p1.1", "p0.6"])
    @pytest.mark.filterwarnings("ignore:T kernel error estimate")
    def test_eikonal_panels_end_at_the_kinks(self, p, ref):
        # the eikonal a has kinks at kappa = 0 and +-sqrt(max V) = +-1, so T's
        # integrand has them at sigma = 2p, 2|1 - p| and 2(1 + p); panels
        # across them left estimates of 3.1e-5 and 2.4e-5
        q = np.linspace(-2.0, 2.0, 41)
        bar = EikonalBarrier(q, 1.0 / np.cosh(q / 0.4) ** 2)
        kt, _ = kernel_by_quadrature(bar, p, np.linspace(0.1, 6.0, 12))
        assert kt.error_estimate <= 1e-6
        assert np.max(np.abs(kt.density - ref)) <= kt.error_estimate

    def test_spectra_delta_kernel_node_count(self):
        # the benchmark's spectra delta kernel at seed 5: panels of up to 2 pi
        # of phase leave fs/4 to set the width, 1024 panels x (8 + 16) nodes
        # (80 232 on panels of pi/2 of phase), besides 5 per cutoff probe
        sizes = []

        def counting(gfun, r_grid, **kwargs):
            def g(s):
                sizes.append(np.size(s))
                return gfun(s)
            return quadrature.fourier_symmetric(g, r_grid, **kwargs)

        with mock.patch.object(kernels, "fourier_symmetric", counting):
            kernel_by_quadrature(DeltaBarrier(2.061001), 1.018476, np.linspace(-1.95, 9.95, 60))
        probes = sizes.count(5)
        assert probes >= 1 and sum(sizes) <= 24_576 + 5 * probes

    def test_memory_does_not_grow_with_lag_count(self):
        # the panel and node phases are built in bounded blocks; a phase per
        # node and lag peaks at 0.9 GB on this call (5.8 GB at 2000 lags)
        r = np.linspace(-10.0, 60.0, 300)
        tracemalloc.start()
        try:
            kt, kr = kernel_by_quadrature(DeltaBarrier(2.0), 1.0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160e6
        t_c, r_c = delta_kernels(2.0, 1.0, r)
        assert np.max(np.abs(kt.density - t_c)) <= kt.error_estimate
        assert np.max(np.abs(kr.density - r_c)) <= kr.error_estimate

    def test_unmet_tolerance_warns_with_both_numbers(self):
        # four lags in the band of a wide PT barrier: the estimate stays at
        # 1.9e-7 for every tol from 1e-9 down
        bar = PoschlTellerBarrier(4.17 / 1.2, 1.2)
        with pytest.warns(RuntimeWarning) as record:
            kt, _ = kernel_by_quadrature(bar, 1.666, [0.01, 0.02, 0.04, 0.06], tol=1e-9)
        assert kt.error_estimate > 1e-7
        message = str(record[0].message)
        assert f"{kt.error_estimate:.3g}" in message and "1e-09" in message

    def test_causality(self):
        bar = DeltaBarrier(2.0)
        r = np.linspace(-2.0, -0.05, 25)
        kt, kr = kernel_by_quadrature(bar, 1.0, r)
        assert np.max(np.abs(kt.density)) < 1e-6
        assert np.max(np.abs(kr.density)) < 1e-6

    def test_pt_symmetric_no_correction_term(self):
        # b is purely imaginary for V(q) = V(-q), so -conj(b)/a is b/a exactly
        bar = PoschlTellerBarrier(1.0, 0.4)
        r = np.array([0.3, 0.8])
        ks = np.linspace(0.4, 6.0, 13)
        assert np.array_equal(bar.reflection_lr(ks), bar.ba_ratio(ks))
        b = bar.amplitude_b(ks)
        assert np.max(np.abs(b.real)) < 1e-13   # purely imaginary -> B == 0

    def test_requires_positive_momentum(self):
        with pytest.raises(ValueError):
            kernel_by_quadrature(DeltaBarrier(2.0), -1.0, np.array([1.0]))

    def test_shifted_table_translates_reflection(self):
        # moving the barrier right by c shifts the reflection lag by 2c, and
        # its integral stays the total reflection |b/a|^2
        c, p = 0.3, 1.0
        bar, shifted = sech2_table(), sech2_table(c)
        r = np.linspace(-4.0, 10.0, 281)
        _, kr = kernel_by_quadrature(bar, p, r)
        _, ks = kernel_by_quadrature(shifted, p, r + 2.0 * c)
        assert np.max(np.abs(ks.density - kr.density)) < 1e-6
        total = abs(shifted.ba_ratio(p)) ** 2
        assert ks.integrated() == pytest.approx(total, rel=1e-4)

    @pytest.mark.parametrize("bar", [
        DeltaBarrier(0.5), DeltaBarrier(2.0),
        PoschlTellerBarrier(1.0, 0.4), PoschlTellerBarrier(1.0, 1.0),
        sech2_table(),
        NumericBarrier(np.linspace(-1.0, 1.0, 9),
                       np.array([0.0, 0.8, 0.1, 1.4, 0.0, 0.6, 1.2, 0.3, 0.0])),
    ], ids=["delta_0.5", "delta_2", "pt_s0.4", "pt_s1", "sech2_table", "jagged_table"])
    def test_transmission_jump_at_zero_lag(self, bar):
        # the exact 1/sigma tail -2 i w of the integrand fixes T(0+) = -2 w
        w = bar.integral_strength()
        for p in (0.3, 1.0, 1.9):
            kt, _ = kernel_by_quadrature(bar, p, [1e-12])
            assert abs(kt.density[0] + 2.0 * w) < 1e-6

    @pytest.mark.parametrize("bar", [
        DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4), sech2_table(),
    ], ids=["delta_2", "pt_s0.4", "sech2_table"])
    def test_kernel_row_zero_lag_is_exact_jump(self, bar):
        # every route reads lags in [0, 1e-12] as r = 0+, where T jumps by -2w
        w = bar.integral_strength()
        t_d, _ = kernel_row(bar, 1.0, [1e-12, 0.5 * 1e-12, 0.0, 0.5])
        assert t_d[:3].tolist() == [-2.0 * w] * 3
        assert t_d[3] != -2.0 * w
        t_d, _ = kernel_row(bar, 1.0, [1e-12])
        assert t_d.tolist() == [-2.0 * w]

    @pytest.mark.parametrize("bar", [
        sech2_table(),
        NumericBarrier(np.linspace(-1.0, 1.0, 9),
                       np.array([0.0, 0.8, 0.1, 1.4, 0.0, 0.6, 1.2, 0.3, 0.0])),
    ], ids=["sech2_table", "jagged_table"])
    def test_kernel_row_transmission_is_causal(self, bar):
        # T vanishes at r < 0 exactly, with no quadrature noise, while R
        # there carries the early reflection of the table
        r = np.array([-1.5, -0.6, -0.05, 1e-12])
        t_d, r_d = kernel_row(bar, 1.0, r)
        assert t_d.tolist() == [0.0, 0.0, 0.0, -2.0 * bar.integral_strength()]
        assert np.all(np.isfinite(r_d)) and np.any(r_d[:3] != 0.0)

    def test_table_row_is_one_quadrature(self):
        # T and R of a table row share one node set: one kernel_by_quadrature
        # call and one Fourier quadrature, whose T kernel_row keeps at r > 0
        bar = NumericBarrier(np.linspace(-1.0, 1.0, 9),
                             np.array([0.0, 0.8, 0.1, 1.4, 0.0, 0.6, 1.2, 0.3, 0.0]))
        r = np.linspace(-2.0, 3.0, 21)
        rows = []

        def quad(*args):
            rows.append(kernel_by_quadrature(*args))
            return rows[-1]

        with mock.patch.object(kernels, "kernel_by_quadrature", quad), \
                mock.patch.object(kernels, "fourier_symmetric",
                                  wraps=kernels.fourier_symmetric) as fourier:
            t_d, r_d = kernel_row(bar, 1.0, r)
        assert len(rows) == 1 and fourier.call_count == 1
        (kt, kr), = rows
        assert np.array_equal(r_d, kr.density)
        assert np.array_equal(t_d[r > 0.0], kt.density[r > 0.0])
        assert np.all(t_d[r < 0.0] == 0.0) and t_d[r == 0.0] == -2.0 * bar.integral_strength()


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
        poles = find_poles(bar, 1)
        kap0 = poles[0]
        phase0 = np.angle(residue_factors(bar, poles, p)[0])
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

    def test_truncation_without_omitted_pole(self):
        # with no pole found past those summed, nothing bounds the rest of a
        # table's expansion; delta's one pole is its whole expansion
        r = np.array([-0.5, 0.0, 0.05, 0.55, 3.0])
        table = kernel_by_residues(sech2_table(), 1.0, r, 40)
        assert table.truncation_error.tolist() == [0.0] + [math.inf] * 4
        assert table.error_estimate == math.inf
        delta = kernel_by_residues(DeltaBarrier(2.0), 1.0, r, 1)
        assert np.all(delta.truncation_error == 0.0) and delta.error_estimate == 0.0
        # Poschl-Teller finds the pole past those summed and bounds with it
        bar = PoschlTellerBarrier(1.0, 0.4)
        omitted = find_poles(bar, 11)[10:]
        pt = kernel_by_residues(bar, 1.0, r, 10)
        expect = np.where(r >= 0.0, abs(residue_factors(bar, omitted, 1.0)[0])
                          * np.exp(2.0 * omitted[0].imag * r), 0.0)
        assert np.array_equal(pt.truncation_error, expect)

    def test_residue_factors_from_one_batch(self):
        # a'(kappa_n) and a(kappa_n - 2p) of the 10 summed poles and the
        # omitted one come from one slope_at_zeros call and one
        # amplitude_a call (Poschl-Teller's a' is closed-form, with no a call)
        bar = PoschlTellerBarrier(1.0, 0.4)
        r = np.linspace(0.25, 3.0, 12)
        with mock.patch.object(PoschlTellerBarrier, "slope_at_zeros", autospec=True,
                               side_effect=PoschlTellerBarrier.slope_at_zeros) as a_prime, \
                mock.patch.object(PoschlTellerBarrier, "amplitude_a", autospec=True,
                                  side_effect=PoschlTellerBarrier.amplitude_a) as amp:
            kd = kernel_by_residues(bar, 0.6, r, 10)
        assert a_prime.call_count == 1 and amp.call_count == 1
        assert all(np.shape(call.args[1]) == (11,)
                   for call in a_prime.call_args_list + amp.call_args_list)
        # the same sum as one residue factor per pole
        expect = np.zeros_like(r)
        for kn in find_poles(bar, 10):
            a_n = residue_factors(bar, [kn], 0.6)[0]
            expect -= (a_n * np.exp(2j * r * (0.6 - kn))).real
        assert np.array_equal(kd.density, expect)

    def test_eikonal_rejected(self):
        bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -6.8, 6.8, 801)
        with pytest.raises(NonMeromorphicError):
            kernel_by_residues(bar, 0.6, np.array([1.0]), 4)

    def test_pole_search_failure_propagates(self):
        # a search that fails is not taken for one that found fewer poles
        class BrokenSearch(DeltaBarrier):
            def poles(self, count):
                if count > 1:
                    raise RuntimeError("pole search broke")
                return super().poles(count)

        class NoPoles(DeltaBarrier):
            def poles(self, count):
                return []

        r = np.linspace(0.0, 5.0, 11)
        with pytest.raises(RuntimeError, match="pole search broke"):
            kernel_by_residues(BrokenSearch(2.0), 1.0, r, 1)
        with pytest.raises(PoleSearchError):
            kernel_by_residues(NoPoles(2.0), 1.0, r, 2)

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
        # n_poles is an upper bound: two asked, the one found is summed
        kd_2 = kernel_by_residues(bar, 1.0, r, 2)
        assert bar.searches == 2
        assert np.array_equal(kd_2.density, kd.density)

    @pytest.mark.parametrize("make, found", [
        (lambda: DeltaBarrier(2.0), 1),
        (sech2_table, 10),
    ], ids=["delta", "numeric"])
    def test_n_poles_above_found_count(self, make, found):
        # past the poles found, n_poles changes nothing, bit for bit
        bar = make()
        r = np.linspace(-0.5, 6.0, 27)
        assert len(find_poles(bar, 41)) == found
        at_found = kernel_by_residues(bar, 0.9, r, found)
        for n_poles in (found + 1, 40):
            above = kernel_by_residues(bar, 0.9, r, n_poles)
            assert np.array_equal(above.density, at_found.density)
            assert np.array_equal(above.truncation_error, at_found.truncation_error)
            assert above.error_estimate == at_found.error_estimate


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

    @pytest.mark.parametrize("v0, s, p, r, t_ref, r_ref", [
        (1.0, 0.4, 0.6, 0.5, -0.7570209897622905, 0.16563102120157622),
        (1.0, 0.4, 0.6, -0.3, 0.0, 0.035004165930419134),
        (1.0, 1.0, 0.6, 1.5, 0.2353672483426125, 0.18890418566519843),
    ])
    def test_frozen_mpmath_quadrature_values(self, v0, s, p, r, t_ref, r_ref):
        # frozen from tests/oracles.py: pt_kernel_quadrature, about 100 s a point
        t_c, r_c = pt_kernels(v0, s, p, r)
        assert abs(t_c - t_ref) <= 1e-14
        assert abs(r_c - r_ref) <= 1e-14

    @pytest.mark.parametrize("v0", [1.0, 0.5])
    def test_one_series_per_lag_sign(self, v0):
        # all the branches of one lag sign share one coefficient build, four
        # branches or, at v0 s = 1/2, the eight of the merged-pole limit;
        # one array Gamma call serves every factor of both lag signs
        with mock.patch.object(kernels, "hyp4f3_coefficients",
                               wraps=kernels.hyp4f3_coefficients) as coeff, \
                mock.patch.object(kernels, "gamma_cx", wraps=kernels.gamma_cx) as gam:
            pt_kernels(v0, 1.0, 0.6, np.array([-1.5, -0.3, 0.3, 1.5]))
        assert coeff.call_count == 2
        assert gam.call_count == 1
        branches = 8 if v0 == 0.5 else 4
        assert np.shape(gam.call_args.args[0]) == (9 * branches + 3 * 2,)

    def test_decay_at_large_lag(self):
        t_far, r_far = pt_kernels(1.0, 0.4, 0.6, 12.0)
        assert abs(t_far) < 1e-4
        assert abs(r_far) < 1e-4

    def test_small_lag_rejected(self):
        with pytest.raises(ConvergenceRegionError):
            pt_kernels(1.0, 0.4, 0.6, 0.01)

    def test_wide_barrier_series_grows(self):
        # at v0 s = 4.38 the early coefficients grow with |omega|: the series
        # sized by z alone leaves a 1e-8 tail, and doubling it once passes
        s, p = 0.51, 0.22
        bar = PoschlTellerBarrier(4.38 / s, s)
        r = np.linspace(-6.0 * s, 12.0 * s, 61)
        _, r_row = kernel_row(bar, p, r)
        # a quadrature of R's integrand alone: T's would cost seconds here
        fs, sigma0 = kernels._sigma_scales(bar, p)
        (ref,), _ = kernels.fourier_symmetric(
            lambda sig: bar.reflection_lr(0.5 * sig + p) * bar.reflection_lr(0.5 * sig - p),
            r, feature_scale=fs, c1=[0.0], sigma0=sigma0, tol=1e-10, kinks=())
        far = np.abs(r) >= 0.21
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(r_row - ref)[far]) <= 1e-6 * peak

    def test_large_call_is_chunked(self):
        # near the band edge the series needs ~360 terms: 20 000 lags would
        # make a 58 MB power table in one piece
        s = 0.4
        r = np.tile(np.linspace(0.0525, 0.3, 100) * s, 200)
        t_few, r_few = pt_kernels(1.0, s, 0.6, r[:100])
        tracemalloc.start()
        try:
            t_all, r_all = pt_kernels(1.0, s, 0.6, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        for few, full in ((t_few, t_all), (r_few, r_all)):
            full = full.reshape(200, 100)
            assert np.max(np.abs(full - few)) <= 1e-14 * np.max(np.abs(few))

    @pytest.mark.parametrize("v0", [0.5, 0.5 + 1e-8, 0.5 - 6e-7, 0.50001])
    def test_merged_pole_pair_limit(self, v0):
        # at v0 s = 1/2 the +-omega terms each carry a Gamma(2 omega) pole
        # that cancels in their sum; the closed form is continuous there
        bar = PoschlTellerBarrier(v0, 1.0)
        r = np.concatenate([np.linspace(-3.0, -0.06, 6), np.linspace(0.06, 6.0, 9)])
        for p in (0.3, 1.0):
            t_c, r_c = pt_kernels(v0, 1.0, p, r)
            kt, kr = kernel_by_quadrature(bar, p, r, tol=1e-11)
            assert np.max(np.abs(t_c - kt.density)) < 1e-8
            assert np.max(np.abs(r_c - kr.density)) < 1e-8

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

    def test_array_call_equals_scalar_calls(self):
        ps = np.linspace(0.05, 3.0, 37)
        for bar in (DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4), sech2_table()):
            t_arr, r_arr = total_probabilities(bar, ps)
            for p, t, r in zip(ps, t_arr, r_arr):
                t_one, r_one = total_probabilities(bar, float(p))
                assert type(t_one) is float and type(r_one) is float
                assert (t_one, r_one) == (t, r)
        with pytest.raises(ZeroDivisionError):
            total_probabilities(DeltaBarrier(2.0), np.array([0.5, 0.0]))


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

    @pytest.mark.parametrize("bar, p", [
        (EikonalBarrier.from_callable(lambda q: 1.0 / np.cosh(q / 0.4) ** 2,
                                      -6.8, 6.8, 1201), 1.6),
        (PoschlTellerBarrier(1.0, 0.4), 1.0),
    ], ids=["sech2_table", "pt"])
    def test_quadrature_mode_never_extrapolates_the_action(self, bar, p, monkeypatch):
        # the Fourier cutoff's probes sample S far past the integrand's
        # features; the spline's nodes must reach every |kappa| sampled
        fits = []

        class SpySpline(scipy.interpolate.CubicSpline):
            def __call__(self, x, *args, **kwargs):
                fits.append((self.x[-1], float(np.max(x))))
                return super().__call__(x, *args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", SpySpline)
        semiclassical_kernel(bar, p, np.array([0.1, 0.5, 0.9, 1.3]), mode="quadrature")
        assert fits and all(top <= last for last, top in fits)

    @pytest.mark.parametrize("bar, p", [
        (EikonalBarrier.from_callable(lambda q: 1.0 / np.cosh(q / 0.4) ** 2,
                                      -6.8, 6.8, 1201), 1.6),
        (PoschlTellerBarrier(1.0, 0.4), 1.0),
        (PoschlTellerBarrier(1.0, 0.4), 1.3),
    ], ids=["sech2_table", "pt_p1", "pt_p1.3"])
    def test_quadrature_mode_meets_its_target(self, bar, p):
        # panels end at the action's kinks, sigma = 2p (kappa = 0) and
        # 2|sqrt(max V) -+ p|; panels across them left estimates of 8.3e-6,
        # 8.1e-6 and 4.0e-5. The estimate bounds the shift to a run on panels
        # of half the feature scale at tol 1e-10
        r = np.linspace(-1.95, 9.95, 60)
        res = semiclassical_kernel(bar, p, r, mode="quadrature")
        assert res.error_estimate < kernels._SEMICLASSICAL_TOL / math.pi
        scales = kernels._sigma_scales
        with mock.patch.object(kernels, "_sigma_scales",
                               lambda b, p: (0.5 * scales(b, p)[0], scales(b, p)[1])), \
                mock.patch.object(kernels, "_SEMICLASSICAL_TOL", 1e-10):
            ref = semiclassical_kernel(bar, p, r, mode="quadrature")
        assert np.max(np.abs(res.value - ref.value)) <= res.error_estimate

    def test_quadrature_mode_converges_on_a_wide_table(self, monkeypatch):
        # against the whole-line transform of the same spline integrand at a
        # 64 sigma0 cutoff and tol 1e-10, the spline's action extended past
        # its reach; a cutoff that models only the 1/sigma tail misses by 4e-2
        from wigner_tunnel.barriers import eikonal_action, eikonal_kinks
        from wigner_tunnel.quadrature import fourier_symmetric
        s, p = 3.0, 2.5
        bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / s) ** 2, -17 * s, 17 * s, 2401)
        spline_cls, nodes = scipy.interpolate.CubicSpline, []

        class KeepNodes(spline_cls):
            def __init__(self, x, y, *args, **kwargs):
                nodes.append((x, y))
                super().__init__(x, y, *args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", KeepNodes)
        r = np.linspace(-1.0, 3.0, 9)
        res = semiclassical_kernel(bar, p, r, mode="quadrature")
        (ks, vals), = nodes
        fs, sigma0 = kernels._sigma_scales(bar, p)
        extra = np.geomspace(ks[-1], p + 1.06 * 64 * sigma0, 101)[1:]
        spline = spline_cls(np.concatenate([ks, extra]),
                            np.concatenate([vals, eikonal_action(bar, extra)]))

        def S(kappa):
            val = spline(np.clip(np.abs(kappa), ks[0], None))
            return val.real * np.sign(kappa) + 1j * val.imag

        def h(sig):
            return np.exp(-1j * (S(0.5 * sig + p) + S(0.5 * sig - p))) - 1.0

        (ref,), _ = fourier_symmetric(h, r, feature_scale=fs, c1=[-2j * bar.integral_strength()],
                                      tol=1e-10, kinks=kernels._sigma_kinks(eikonal_kinks(bar), p),
                                      sigma0=sigma0, sigma_cap=64 * sigma0)
        assert np.max(np.abs(res.value - ref)) <= 2e-6
        assert res.error_estimate >= np.max(np.abs(res.value - ref))

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
