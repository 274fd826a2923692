import math
import warnings
from unittest import mock

import numpy as np
import pytest

import oracles
from wigner_tunnel.barriers import DeltaBarrier, EikonalBarrier, NumericBarrier, PoschlTellerBarrier
from wigner_tunnel.errors import AxisMismatchError, GridCoverageError, QuadratureError
from wigner_tunnel.evolution import (
    GaussianState,
    WignerGrid,
    _kernel_ranges,
    arrival_time_estimate,
    barrier_propagate,
    detect,
    detector_propagate,
    free_propagate,
    gaussian_detection,
    gaussian_to_grid,
    purity_bound,
    sector_masses,
)
from wigner_tunnel import barriers, evolution, kernels
from wigner_tunnel.kernels import delta_kernels, kernel_by_quadrature, total_probabilities


def _std_axes(nq=1301, np_=191):
    # 1301/191 points put the canonical packet center (-40, 1) on-grid
    return np.linspace(-150.0, 110.0, nq), np.linspace(-1.9, 1.9, np_)


def _sech2_table(shift=0.0):
    """A 41-row sech^2 table on [-2, 2] sampling PT (1.0, 0.4), moved by ``shift``."""
    q = np.linspace(-2.0, 2.0, 41)
    return NumericBarrier(q + shift, 1.0 / np.cosh(q / 0.4) ** 2)


def _incident():
    return GaussianState(-40.0, 1.0, 25.0)


class TestGrids:
    def test_gaussian_sampling(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        i = np.argmin(np.abs(q + 40.0))
        j = np.argmin(np.abs(p - 1.0))
        assert q[i] == pytest.approx(-40.0, abs=1e-9)
        assert g.values[i, j] == pytest.approx(1.0, abs=1e-12)
        assert g.mass() == pytest.approx(math.pi, rel=1e-6)

    def test_gaussian_symmetry(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        j = np.argmin(np.abs(p - 1.0))
        i = np.argmin(np.abs(q + 40.0))
        assert g.values[i + 7, j] == pytest.approx(g.values[i - 7, j], rel=1e-10)

    def test_coverage_error(self):
        q = np.linspace(-45.0, -35.0, 64)     # 1 sigma wide only
        p = np.linspace(0.5, 1.5, 32)
        with pytest.raises(GridCoverageError) as err:
            gaussian_to_grid(_incident(), q, p)
        assert err.value.suggested_q is not None

    def test_purity_bound_saturated_by_pure_gaussian(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        lhs, rhs = purity_bound(g)
        assert lhs <= rhs * (1 + 1e-6)
        assert lhs == pytest.approx(rhs, rel=1e-6)   # equality for pure states

    def test_nonuniform_axis_rejected(self):
        q = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(ValueError):
            WignerGrid(q, np.linspace(0, 1, 4), np.zeros((4, 4)))


class TestFreePropagate:
    def test_identity_at_zero_time(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        g2 = free_propagate(g, 0.0)
        assert np.array_equal(g2.values, g.values)

    def test_center_shear(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        g2 = free_propagate(g, 10.0)
        i, j = np.unravel_index(np.argmax(g2.values), g2.values.shape)
        assert q[i] == pytest.approx(-40.0 + 2.0 * 10.0, abs=2 * g.dq)
        assert p[j] == pytest.approx(1.0, abs=2 * g.dp)

    def test_mass_conservation(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        g2 = free_propagate(g, 15.0)
        assert abs(g2.mass() - g.mass()) < 1e-8

    def test_leak_raises(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        with pytest.raises(GridCoverageError):
            free_propagate(g, 200.0)

    def test_negative_time_rejected(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        with pytest.raises(ValueError):
            free_propagate(g, -1.0)


class TestBarrierPropagate:
    def test_reduces_to_free_for_vanishing_potential(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        flat = NumericBarrier.from_callable(lambda x: np.zeros_like(x), -2, 2, 101)
        out = barrier_propagate(g, flat, 12.0)
        ref = free_propagate(g, 12.0)
        assert np.max(np.abs(out.values - ref.values)) < 1e-12

    def test_transmitted_fraction_matches_momentum_average(self):
        q, p = _std_axes(1500, 241)
        g = gaussian_to_grid(_incident(), q, p)
        bar = DeltaBarrier(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = barrier_propagate(g, bar, 30.0)
        m_t, m_r = sector_masses(out)
        marg = g.momentum_marginal()
        pos = p > 0
        t_of_p = np.array([total_probabilities(bar, pp)[0] for pp in p[pos]])
        pred_t = np.trapezoid(t_of_p * marg[pos], p[pos])
        pred_r = np.trapezoid((1 - t_of_p) * marg[pos], p[pos])
        assert m_t == pytest.approx(pred_t, rel=1e-4)
        assert m_r == pytest.approx(pred_r, rel=1e-4)
        assert m_t + m_r == pytest.approx(g.mass(), rel=1e-4)

    def test_transmitted_peak_lags_free_motion(self):
        q, p = _std_axes(2000, 121)
        state = GaussianState(-40.0, 1.0, 60.0)    # narrow momentum spread
        g = gaussian_to_grid(state, q, p)
        bar = DeltaBarrier(2.0)
        t = 30.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = barrier_propagate(g, bar, t)
        j = np.argmin(np.abs(p - 1.0))
        pj = p[j]
        row = out.values[:, j]
        k = int(np.argmax(row))
        coef = np.polyfit(q[k - 1:k + 2], row[k - 1:k + 2], 2)
        peak_q = -coef[1] / (2 * coef[0])
        free_peak = -40.0 + 2.0 * pj * t
        # oracle: mean lag of the transmitted bundle = first moment of the
        # kernel density plus the unit spike, i.e. int r T dr / T(p)
        r = np.linspace(0.0, 12.0, 40000)
        t_d, _ = delta_kernels(2.0, pj, r)
        t_tot = total_probabilities(bar, pj)[0]
        mean_lag = np.trapezoid(r * t_d, r) / t_tot
        assert mean_lag > 0
        assert free_peak - peak_q == pytest.approx(mean_lag, abs=0.1)

    def test_requires_positive_momentum_support(self):
        q, p = _std_axes()
        bad = GaussianState(-40.0, -1.0, 25.0)
        g = gaussian_to_grid(bad, q, p)
        with pytest.raises(ValueError):
            barrier_propagate(g, DeltaBarrier(2.0), 10.0)

    def test_uncleared_support_warns(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        with pytest.warns(UserWarning):
            barrier_propagate(g, PoschlTellerBarrier(1.0, 0.4), 0.5)

    def test_interference_term_carries_no_mass(self):
        q = np.linspace(-120.0, 90.0, 700)
        p = np.linspace(-1.9, 1.9, 121)
        g = gaussian_to_grid(_incident(), q, p)
        bar = DeltaBarrier(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = barrier_propagate(g, bar, 25.0)
            with_int = barrier_propagate(g, bar, 25.0, include_interference=True)
        # the finite window leaves an oscillatory boundary remnant; the
        # continuum integral of the cross term is exactly zero
        assert abs(with_int.mass() - plain.mass()) < 1e-2 * plain.mass()
        assert np.max(np.abs(with_int.values - plain.values)) > 1e-6

    def test_table_reflection_lags_hold_total_reflection(self):
        # the early reflection of a smooth table lies at r < 0
        bar, p = _sech2_table(), 1.0
        r_hi, r_lo = _kernel_ranges(bar)
        _, kr = kernel_by_quadrature(bar, p, np.linspace(r_lo, r_hi, 321))
        assert kr.integrated() == pytest.approx(abs(bar.ba_ratio(p)) ** 2, rel=1e-4)

    @pytest.mark.parametrize("bar, r_lo", [
        (DeltaBarrier(2.0), 0.0),
        (PoschlTellerBarrier(1.0, 0.4), -6.0 * 0.4),
        (_sech2_table(), -4.0)], ids=["delta", "poschl_teller", "table"])
    def test_kernel_ranges_per_kind(self, bar, r_lo):
        # R lags start at 0 for delta, at the smooth tail -6 s for
        # Poschl-Teller and at twice a table's front edge
        decay = 1.0 / (2.0 * abs(barriers.find_poles(bar, 1)[0].imag))
        assert _kernel_ranges(bar) == (12.0 * decay, r_lo)

    def test_rounded_zero_momentum_node_is_zero(self):
        # linspace puts the middle node at -2.2e-16; at P = 0.958 the row
        # mirrored onto it clears the 1e-10 floor, and treated as a
        # momentum it sent the Poschl-Teller kernels to p ~ 0
        q = np.linspace(-160.0, 120.0, 800)
        p = np.linspace(-1.9, 1.9, 61)
        assert -1e-15 < p[30] < 0.0
        p_exact = p.copy()
        p_exact[30] = 0.0
        bar = PoschlTellerBarrier(1.06, 0.3866)
        g = gaussian_to_grid(GaussianState(-40.0, 0.958, 25.0), q, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rounded = barrier_propagate(g, bar, 40.0)
            exact = barrier_propagate(WignerGrid(q, p_exact, g.values), bar, 40.0)
        np.testing.assert_array_equal(rounded.values, exact.values)

    def test_one_spline_fit_per_call(self):
        # on a symmetric p axis the row at p > 0 transmits into p and
        # reflects into -p, and both resample it from one column of the
        # call's one fit; on 61 nodes most mirror momenta -p round an ulp
        # off their node
        q = np.linspace(-100.0, 80.0, 300)
        for n_p in (21, 61):
            p = np.linspace(-1.9, 1.9, n_p)
            g = gaussian_to_grid(_incident(), q, p)
            floor = 1e-10 * np.max(np.abs(g.values))
            sources = np.sum((p > 1e-9 * g.dp) & (np.max(np.abs(g.values), axis=0) > floor))
            with mock.patch.object(evolution, "NaturalSplines",
                                   wraps=evolution.NaturalSplines) as fit:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    barrier_propagate(g, DeltaBarrier(2.0), 25.0)
            assert fit.call_count == 1, n_p
            assert fit.call_args.args[1].shape == (len(q), sources), n_p

    @pytest.mark.parametrize("p_axis", [
        np.linspace(-1.9, 1.9, 21),
        np.linspace(-1.0, 1.9, 30),   # its -p columns mirror +p nodes
    ], ids=["symmetric", "asymmetric"])
    def test_one_kernel_row_per_momentum(self, p_axis):
        # a row at p > 0 that transmits into p and reflects into -p takes
        # T and R from one lattice and one kernel_row call
        q = np.linspace(-100.0, 80.0, 300)
        g = gaussian_to_grid(_incident(), q, p_axis)
        floor = 1e-10 * np.max(np.abs(g.values))
        sources = p_axis[(p_axis > 1e-9 * g.dp) & (np.max(np.abs(g.values), axis=0) > floor)]
        with mock.patch.object(kernels, "kernel_row", wraps=kernels.kernel_row) as row:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                barrier_propagate(g, DeltaBarrier(2.0), 25.0)
        assert sorted(call.args[1] for call in row.call_args_list) == sources.tolist()

    # one call over several times walks the momenta once; zero, repeated
    # and unsorted times each give what a call at that time alone gives
    TIMES = [25.0, 0.0, 40.0, 25.0, 10.0]

    @pytest.mark.parametrize("bar", [DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4)],
                             ids=["delta", "poschl_teller"])
    @pytest.mark.parametrize("p_axis", [
        np.linspace(-1.9, 1.9, 21),
        np.linspace(-1.0, 1.9, 30),   # its -p columns mirror +p nodes
    ], ids=["symmetric", "asymmetric"])
    def test_times_equal_scalar_calls_bit_for_bit(self, bar, p_axis):
        g = gaussian_to_grid(_incident(), np.linspace(-100.0, 80.0, 300), p_axis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs = barrier_propagate(g, bar, self.TIMES)
            singles = [barrier_propagate(g, bar, t) for t in self.TIMES]
        assert len(outs) == len(self.TIMES)
        for out, one in zip(outs, singles):
            np.testing.assert_array_equal(out.values, one.values)

    def test_times_with_interference_equal_scalar_calls(self):
        g = gaussian_to_grid(_incident(), np.linspace(-100.0, 80.0, 300),
                             np.linspace(-1.9, 1.9, 21))
        bar = DeltaBarrier(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs = barrier_propagate(g, bar, [40.0, 25.0], include_interference=True)
            singles = [barrier_propagate(g, bar, t, include_interference=True)
                       for t in (40.0, 25.0)]
        for out, one in zip(outs, singles):
            np.testing.assert_array_equal(out.values, one.values)

    def test_lattice_cut_at_largest_time_samples_zeros(self):
        # at v0 = 0.02 the kernels decay over 12/v0 = 600, past the cut
        # 2 (q span) + 2pt + dq of every time here, so the smaller times
        # run longer lattices than alone; the extra lags add rounding only
        g = gaussian_to_grid(_incident(), np.linspace(-100.0, 80.0, 300),
                             np.linspace(-1.9, 1.9, 21))
        bar = DeltaBarrier(0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs = barrier_propagate(g, bar, [10.0, 25.0, 40.0])
            singles = [barrier_propagate(g, bar, t) for t in (10.0, 25.0, 40.0)]
        for out, one in zip(outs, singles):
            peak = np.max(np.abs(one.values))
            assert np.max(np.abs(out.values - one.values)) <= 1e-14 * peak
        np.testing.assert_array_equal(outs[-1].values, singles[-1].values)

    def test_one_walk_serves_every_time(self):
        # one pole search, one kernel row per momentum and one spline fit,
        # a column per source row, for three times, as for one; and one
        # FFT convolution per term (each source row transmits into +p and
        # reflects into -p) over all three times
        p = np.linspace(-1.9, 1.9, 21)
        g = gaussian_to_grid(_incident(), np.linspace(-100.0, 80.0, 300), p)
        floor = 1e-10 * np.max(np.abs(g.values))
        sources = p[(p > 1e-9 * g.dp) & (np.max(np.abs(g.values), axis=0) > floor)]
        with mock.patch.object(barriers, "find_poles", wraps=barriers.find_poles) as poles, \
                mock.patch.object(kernels, "kernel_row", wraps=kernels.kernel_row) as row, \
                mock.patch.object(evolution, "NaturalSplines",
                                  wraps=evolution.NaturalSplines) as fit, \
                mock.patch.object(evolution, "fftconvolve", wraps=evolution.fftconvolve) as fft:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outs = barrier_propagate(g, DeltaBarrier(2.0), [10.0, 25.0, 40.0])
        assert len(outs) == 3
        assert poles.call_count == 1
        assert sorted(call.args[1] for call in row.call_args_list) == sources.tolist()
        assert fit.call_count == 1
        assert fit.call_args.args[1].shape == (len(g.q), len(sources))
        assert fft.call_count == 2 * len(sources)
        assert all(call.args[0].shape[0] == 3 for call in fft.call_args_list)

    @pytest.mark.parametrize("t", [-1.0, [10.0, -1.0, 25.0]], ids=["scalar", "sequence"])
    def test_negative_time_rejected(self, t):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        with pytest.raises(ValueError, match="requires t >= 0"):
            barrier_propagate(g, DeltaBarrier(2.0), t)

    def test_no_times_give_no_grids(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        with mock.patch.object(barriers, "find_poles", wraps=barriers.find_poles) as poles:
            assert barrier_propagate(g, DeltaBarrier(2.0), []) == []
        assert poles.call_count == 0

    def test_pt_rows_run_no_quadrature(self, monkeypatch):
        # T at the zero lag is exact, and T and R are interpolated across
        # the band |r| <= 0.05 s, so no row falls back to quadrature; on the
        # wide barrier the lattices put T lags inside that band
        q = np.linspace(-100.0, 80.0, 300)
        p = np.linspace(-1.9, 1.9, 21)
        g = gaussian_to_grid(_incident(), q, p)
        calls, lags = [], []
        kernel_row = kernels.kernel_row

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel_by_quadrature(*args, **kwargs)

        def row(barrier, p0, r):
            lags.append(r)
            return kernel_row(barrier, p0, r)

        monkeypatch.setattr(kernels, "kernel_by_quadrature", counted)
        monkeypatch.setattr(kernels, "kernel_row", row)
        for bar in (PoschlTellerBarrier(1.0, 0.4), PoschlTellerBarrier(0.5, 3.0)):
            lags.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = barrier_propagate(g, bar, 25.0)
            assert calls == []
            m_t, m_r = sector_masses(out)
            assert m_t + m_r == pytest.approx(g.mass(), rel=1e-4)
        band = [np.sum((r > 1e-12) & (r <= 0.05 * bar.s)) for r in lags]
        assert max(band) > 0


class TestDetect:
    def test_uniform_acceptance_gives_mass(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        ones = WignerGrid(q, p, np.ones_like(g.values))
        assert detect(g, ones) == pytest.approx(g.mass(), rel=1e-12)

    def test_disjoint_supports(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        far = gaussian_to_grid(GaussianState(80.0, 1.0, 25.0), q, p)
        assert abs(detect(g, far)) < 1e-12

    def test_offset_gaussian_overlap(self):
        q, p = _std_axes()
        lam, dq = 25.0, 4.0
        g = gaussian_to_grid(_incident(), q, p)
        d = gaussian_to_grid(GaussianState(-40.0 + dq, 1.0, lam), q, p)
        got = detect(g, d)
        expect = oracles.gaussian_overlap(lam, lam, -40.0, -40.0 + dq)
        assert got == pytest.approx(expect, rel=1e-6)
        assert expect == pytest.approx(math.pi / 2 * math.exp(-dq ** 2 / (2 * lam)),
                                       rel=1e-12)

    def test_axis_mismatch(self):
        q, p = _std_axes()
        g = gaussian_to_grid(_incident(), q, p)
        other = gaussian_to_grid(_incident(), q + 0.5, p)
        with pytest.raises(AxisMismatchError):
            detect(g, other)


class _PhaseOnly(DeltaBarrier):
    """Unit-modulus a, zero b: free-like fixture with a dispersive phase."""

    def amplitude_a(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        out = np.exp(0.25j / kappa)
        return complex(out) if out.ndim == 0 else out

    def amplitude_b(self, kappa):
        out = np.zeros(np.shape(kappa), dtype=complex)
        return 0j if np.ndim(kappa) == 0 else out

    def ba_ratio(self, kappa):
        return self.amplitude_b(kappa)


class _Bump(_PhaseOnly):
    """1/a = scale (1 - Lorentzian of half width ``width`` at kappa = 1.03), zero b."""

    def __init__(self, width, scale=1.0):
        super().__init__(1.0)
        self.width = width
        self.scale = scale

    def amplitude_a(self, kappa):
        d2 = (np.asarray(kappa, dtype=complex) - 1.03) ** 2
        out = 1.0 / (self.scale * (1.0 - 0.5 * self.width ** 2 / (d2 + self.width ** 2)))
        return complex(out) if out.ndim == 0 else out


class TestGaussianDetection:
    def test_free_motion_peaks_at_arrival_time(self):
        bar = DeltaBarrier(1e-12)    # effectively free
        init = _incident()
        det = GaussianState(40.0, 1.0, 25.0)
        t_arr = (det.Q - init.Q) / 2.0   # v = 2 P+ with P+ = 1
        ts = np.linspace(t_arr - 6, t_arr + 6, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ws = [gaussian_detection(init, det, bar, t).w_total for t in ts]
        k = int(np.argmax(ws))
        coef = np.polyfit(ts[k - 1:k + 2], ws[k - 1:k + 2], 2)
        t_peak = -coef[1] / (2 * coef[0])
        assert t_peak == pytest.approx(t_arr, rel=0.01)

    def test_zero_reflection_components(self):
        res = gaussian_detection(_incident(), GaussianState(40.0, 1.0, 25.0),
                                 _PhaseOnly(1.0), 40.0)
        assert res.w_r == 0.0
        assert res.w_s == 0.0
        assert res.w_total == res.w_t

    def test_components_sum_and_pure_state_bound(self):
        bar = DeltaBarrier(2.0)
        init = _incident()
        det = GaussianState(10.0, 0.9, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = gaussian_detection(init, det, bar, 26.0)
        assert res.w_total == pytest.approx(res.w_t + res.w_r + 2 * res.w_s,
                                            rel=1e-12)
        assert res.w_s ** 2 <= res.w_t * res.w_r * (1 + 1e-9) + 1e-30

    def test_shifted_table_reflects_from_the_left(self):
        # moving the barrier right by c moves the reflected packet right by
        # 2c; reflecting as from the mirrored table would move it left
        c = 0.3
        init = _incident()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w_shifted = gaussian_detection(init, GaussianState(-40.0, -1.0, 25.0),
                                           _sech2_table(c), 40.0).w_r
            w_moved = gaussian_detection(init, GaussianState(-40.0 - 2.0 * c, -1.0, 25.0),
                                         _sech2_table(), 40.0).w_r
        assert w_shifted == pytest.approx(w_moved, rel=1e-9)

    def test_master_consistency_delta(self):
        # closed form against the full grid pipeline
        bar = DeltaBarrier(2.0)
        init = _incident()
        det = GaussianState(40.0, 1.0, 25.0)
        t = 40.0
        q = np.linspace(-160.0, 120.0, 1600)
        p = np.linspace(-1.9, 1.9, 241)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g0 = gaussian_to_grid(init, q, p)
            gd = gaussian_to_grid(det, q, p)
            w_grid = detect(barrier_propagate(g0, bar, t), gd)
            w_closed = gaussian_detection(init, det, bar, t).w_total
        assert w_grid == pytest.approx(w_closed, rel=1e-3)


class TestDetectionOverTimes:
    # the amplitudes do not depend on t, so one call over an array of times
    # evaluates each of 1/a and -conj(b)/a on two node sets (Gauss orders 12
    # and 24) whatever the number of times; numeric ``probe`` once re-solved
    # them for every time (the numeric-probe line in CHANGES.md)
    # packets at -+d; the table's sit near it, where its node sets are 5x smaller
    @pytest.mark.parametrize("bar, d, times", [
        pytest.param(DeltaBarrier(2.0), 40.0, np.linspace(30.0, 50.0, 9), id="delta"),
        pytest.param(PoschlTellerBarrier(1.0, 0.4), 40.0, np.linspace(30.0, 50.0, 5),
                     id="poschl_teller"),
        pytest.param(_sech2_table(), 8.0, np.array([6.0, 9.0]), id="sech2_table"),
    ])
    def test_array_of_times_equals_scalar_calls(self, bar, d, times):
        init, det = GaussianState(-d, 1.0, 25.0), GaussianState(d, 1.0, 25.0)
        cls = type(bar)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with mock.patch.object(cls, "amplitude_a", autospec=True,
                                   side_effect=cls.amplitude_a) as amp, \
                    mock.patch.object(cls, "reflection_lr", autospec=True,
                                      side_effect=cls.reflection_lr) as refl:
                res = gaussian_detection(init, det, bar, times)
            assert (amp.call_count, refl.call_count) == (2, 2)
            singles = [gaussian_detection(init, det, bar, float(t)) for t in times]
        for name in ("w_total", "w_t", "w_r", "w_s", "amplitude_t", "amplitude_r"):
            got = getattr(res, name)
            assert got.shape == times.shape
            want = np.array([getattr(one, name) for one in singles])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_node_sets_span_two_pi_of_phase_per_panel(self):
        # packets at -+40 with lam 25 (sig = 50^-1/2) at t = 40: the largest
        # phase rate on center +- 14 sig is 80 + 80 (1 + 14 sig) for 1/a
        # (center 1) and 80 (14 sig) for -conj(b)/a (center 0). Panels of at
        # most 2 pi of phase: 201 and 100 of 12 + 24 nodes each, 4x below the
        # 803 and 400 panels of pi/2 of phase
        sig = 50.0 ** -0.5
        new, old = [], []
        for rate in (80.0 + 80.0 * (1.0 + 14.0 * sig), 80.0 * 14.0 * sig):
            new.append(math.ceil(28.0 * sig / min(sig / 2.0, 2.0 * math.pi / rate)))
            old.append(math.ceil(28.0 * sig / min(sig / 2.0, math.pi / (2.0 * rate))))
        assert (new, old) == ([201, 100], [803, 400])
        sizes = {"amplitude_a": [], "reflection_lr": []}

        def spy(name):
            method = getattr(DeltaBarrier, name)
            return lambda bar, k: sizes[name].append(np.size(k)) or method(bar, k)

        with mock.patch.object(DeltaBarrier, "amplitude_a", spy("amplitude_a")), \
                mock.patch.object(DeltaBarrier, "reflection_lr", spy("reflection_lr")):
            gaussian_detection(_incident(), GaussianState(40.0, 1.0, 25.0), DeltaBarrier(2.0),
                               np.array([30.0, 40.0]))
        assert sizes == {"amplitude_a": [12 * 201, 24 * 201],
                         "reflection_lr": [12 * 100, 24 * 100]}

    @pytest.mark.parametrize("width, settles", [(1e-4, False), (0.1, True)])
    def test_narrow_feature_does_not_settle(self, width, settles):
        # a dip in 1/a far narrower than a panel (about 0.02 here), away
        # from every panel end: the 12- and 24-point sums part by more than
        # 1e-6 of the integrand's envelope; the same dip 0.1 wide settles.
        # With 1/a scaled by 1e-3 (an opaque barrier) the narrow dip still
        # raises: a check against max(1, |value|) let it through
        for scale in (1.0, 1e-3):
            args = (_incident(), GaussianState(40.0, 1.0, 25.0), _Bump(width, scale), 40.0)
            if settles:
                gaussian_detection(*args)
            else:
                with pytest.raises(QuadratureError, match="did not settle"):
                    gaussian_detection(*args)

    def test_scalar_time_gives_numbers(self):
        res = gaussian_detection(_incident(), GaussianState(40.0, 1.0, 25.0),
                                 DeltaBarrier(2.0), 40.0)
        assert type(res.w_total) is float and type(res.amplitude_t) is complex

    def test_eikonal_panels_end_at_the_barrier_top(self):
        # the eikonal 1/a has kinks at kappa = 0 and +-sqrt(max V) = +-1;
        # panels across the top gave 0.712212945909 at t = 38. The pinned value
        # is what the finer node sets sized for t = 84, 336 and 1344 give at
        # t = 38, all within 8.9e-13 of it; t = 38's own node set, with panels
        # of up to 2 pi of phase, gives a value 7.2e-13 above it.
        q = np.linspace(-2.0, 2.0, 41)
        bar = EikonalBarrier(q, 1.0 / np.cosh(q / 0.4) ** 2)
        w_t = gaussian_detection(_incident(), GaussianState(40.0, 1.0, 25.0), bar, 38.0).w_t
        assert abs(w_t - 0.712212976987) <= 1e-10


class TestArrivalTime:
    def test_free_motion(self):
        t = arrival_time_estimate(_incident(), GaussianState(40.0, 1.0, 25.0),
                                  _PhaseOnly(1.0))
        # phi = 0.25/kappa: phi'(1) = -0.25, delay relative to 40.0
        assert t == pytest.approx((80.0 + 0.25) / 2.0, rel=1e-9)

    def test_delta_phase_derivative_analytic(self):
        # phi = arg a = arctan(v0 / 2 kappa): phi' = -2 v0/(4 kappa^2 + v0^2)
        v0 = 2.0
        init = _incident()
        det = GaussianState(40.0, 1.0, 25.0)
        t = arrival_time_estimate(init, det, DeltaBarrier(v0))
        dphi = -2.0 * v0 / (4.0 + v0 ** 2)
        expect = (80.0 - dphi) / 2.0
        assert t == pytest.approx(expect, rel=1e-9)
        assert t > 40.0    # the barrier delays the arrival

    @pytest.mark.parametrize("bar", [DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4)],
                             ids=["delta", "poschl_teller"])
    def test_one_amplitude_call_per_phase(self, bar):
        amplitude_a, calls = bar.amplitude_a, []

        def spy(k):
            calls.append(k)
            return amplitude_a(k)

        bar.amplitude_a = spy
        t = arrival_time_estimate(_incident(), GaussianState(40.0, 1.0, 25.0), bar)
        assert len(calls) == 4

        def phi(k):   # the two-call phase it replaced, at P+ = 1 and h = 1e-5
            return math.atan2(amplitude_a(k).imag, amplitude_a(k).real)

        d1 = (phi(1.0 + 1e-5) - phi(1.0 - 1e-5)) / 2e-5
        d2 = (phi(1.0 + 0.5e-5) - phi(1.0 - 0.5e-5)) / 1e-5
        assert t == (80.0 - (4.0 * d2 - d1) / 3.0) / 2.0

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroDivisionError):
            arrival_time_estimate(GaussianState(-40.0, 1.0, 25.0),
                                  GaussianState(40.0, -1.0, 25.0),
                                  DeltaBarrier(2.0))


def _reciprocity(bar, det, q, p, t):
    """(forward, adjoint) detection of the incident packet by det at t."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g0 = gaussian_to_grid(_incident(), q, p)
        gd = gaussian_to_grid(det, q, p)
        w_fwd = detect(barrier_propagate(g0, bar, t), gd)
        w_bwd = detect(detector_propagate(gd, bar, t), g0)
    return w_fwd, w_bwd


class TestReciprocity:
    @pytest.mark.parametrize("bar, n_q, n_p", [
        pytest.param(DeltaBarrier(2.0), 1200, 201, id="delta"),
        pytest.param(PoschlTellerBarrier(1.0, 0.4), 800, 141, id="poschl_teller"),
        # vanishing potential: both sides reduce to the free shear
        pytest.param(NumericBarrier(np.linspace(-1.0, 1.0, 11), np.zeros(11)), 1200, 201,
                     id="flat"),
    ])
    def test_forward_equals_adjoint(self, bar, n_q, n_p):
        det = GaussianState(40.0, 1.0, 25.0)
        q = np.linspace(-160.0, 120.0, n_q)
        p = np.linspace(-1.9, 1.9, n_p)
        w_fwd, w_bwd = _reciprocity(bar, det, q, p, 40.0)
        assert w_bwd == pytest.approx(w_fwd, rel=1e-4)

    @pytest.mark.parametrize("bar, n_q, n_p", [
        pytest.param(DeltaBarrier(2.0), 1300, 201, id="delta"),
        pytest.param(PoschlTellerBarrier(1.0, 0.4), 800, 141, id="poschl_teller"),
    ])
    def test_adjoint_covers_reflection(self, bar, n_q, n_p):
        det = GaussianState(-90.0, -1.0, 25.0)   # reflected-side detector
        q = np.linspace(-170.0, 120.0, n_q)
        p = np.linspace(-1.9, 1.9, n_p)
        w_fwd, w_bwd = _reciprocity(bar, det, q, p, 65.0)
        assert w_fwd > 0.01
        assert w_bwd == pytest.approx(w_fwd, rel=1e-4)


class TestTransientNeglect:
    def test_transient_bound_below_master_tolerance(self):
        # the neglected finite-time correction at the detection time must sit
        # below the 1e-3 master-consistency tolerance
        from wigner_tunnel.transients import delta_transient_J
        res = delta_transient_J(2.0, 1.0, 1.0, 40.0)
        # packet L1 norms: sqrt(2 pi)/(pi lam)^(1/4) each
        l1 = math.sqrt(2 * math.pi) / (math.pi * 25.0) ** 0.25
        amp_bound = abs(res.J) * l1 * l1
        w_scale = 0.41      # detection probability of the master scenario
        rel = 2.0 * amp_bound / math.sqrt(w_scale)
        assert rel < 1e-3
