import math
import warnings

import numpy as np
import pytest

import oracles
from wigner_tunnel.barriers import DeltaBarrier, NumericBarrier, PoschlTellerBarrier
from wigner_tunnel.errors import AxisMismatchError, GridCoverageError
from wigner_tunnel.evolution import (
    GaussianState,
    WignerGrid,
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
from wigner_tunnel.kernels import delta_kernels, total_probabilities


def _std_axes(nq=1301, np_=191):
    # 1301/191 points put the canonical packet center (-40, 1) on-grid
    return np.linspace(-150.0, 110.0, nq), np.linspace(-1.9, 1.9, np_)


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
