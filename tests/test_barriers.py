import math

import numpy as np
import pytest

import oracles
from wigner_tunnel.barriers import (
    Barrier,
    DeltaBarrier,
    EikonalBarrier,
    NumericBarrier,
    PoschlTellerBarrier,
    barrier_from_dict,
    delta_amplitudes,
    eikonal_action,
    find_poles,
    numeric_amplitudes,
    pt_amplitudes,
    tunneling_integral,
    _newton_pole_search,
)
from wigner_tunnel.errors import (
    BranchAmbiguityError,
    NoBarrierError,
    NonMeromorphicError,
)


def sech2_barrier(v0=1.0, s=0.4, half_width_factor=12.0, n=1601):
    return NumericBarrier.from_callable(
        lambda q: v0 ** 2 / np.cosh(q / s) ** 2,
        -half_width_factor * s, half_width_factor * s, n)


class TestDeltaAmplitudes:
    def test_reference_point(self):
        a, b = delta_amplitudes(2.0, 1.0)
        assert a == 1 + 1j
        assert abs(a) ** 2 == pytest.approx(2.0)
        # T(1) = 1 - v0^2/(v0^2 + 4 p^2) = 1/2
        assert 1 / abs(a) ** 2 == pytest.approx(0.5, rel=1e-14)

    def test_unitarity_any_kappa(self):
        for k in (0.1, 0.77, 3.0, 40.0):
            a, b = delta_amplitudes(2.0, k)
            assert abs(a) ** 2 - abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_high_energy_limit(self):
        a, b = delta_amplitudes(2.0, 1e6j)
        assert abs(a - 1) < 2e-6
        assert abs(b) < 2e-6

    def test_zero_kappa_raises(self):
        with pytest.raises(ZeroDivisionError):
            delta_amplitudes(2.0, 0.0)


class TestPoschlTellerAmplitudes:
    def test_unitarity_200_points(self):
        ks = np.linspace(0.1, 5.0, 200)
        a, b = pt_amplitudes(1.0, 0.4, ks)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1)) < 1e-10

    def test_b_purely_imaginary_and_odd(self):
        ks = np.linspace(0.2, 4.0, 25)
        _, b = pt_amplitudes(1.0, 0.4, ks)
        assert np.max(np.abs(b.real)) < 1e-13
        _, b_neg = pt_amplitudes(1.0, 0.4, -ks)
        assert np.max(np.abs(b + b_neg)) < 1e-13

    def test_against_ode_solver(self):
        bar = sech2_barrier()
        a_pt, b_pt = pt_amplitudes(1.0, 0.4, 0.7)
        a_num, b_num = bar.amplitudes(0.7)
        assert abs(a_num - a_pt) < 1e-6
        assert abs(b_num - b_pt) < 1e-6

    def test_schwarz_reflection(self):
        rng = np.random.default_rng(23)
        pt = PoschlTellerBarrier(1.0, 0.4)
        delta = DeltaBarrier(2.0)
        for bar in (pt, delta):
            for _ in range(20):
                k = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
                lhs = bar.amplitude_a(-k.conjugate())
                rhs = bar.amplitude_a(k).conjugate()
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
                lhs_b = bar.amplitude_b(-k.conjugate())
                rhs_b = bar.amplitude_b(k).conjugate()
                assert abs(lhs_b - rhs_b) < 1e-10 * max(1.0, abs(rhs_b))

    def test_entire_function_split(self):
        # beta(eps) = 2 i kappa b is a function of eps = kappa^2 alone for
        # every symmetric barrier; the matching alpha(eps) = 2 i kappa (1-a)
        # reduction holds exactly only for the delta spike (for smooth
        # barriers Re a != 1 on the axis, so alpha keeps a kappa-odd part)
        for bar in (PoschlTellerBarrier(1.0, 0.4), DeltaBarrier(2.0)):
            for k in (0.3, 0.9, 2.2):
                for kappa in (k, complex(k, 0.4)):
                    b_p = bar.amplitude_b(kappa)
                    b_m = bar.amplitude_b(-kappa)
                    beta_p = 2j * kappa * b_p
                    beta_m = -2j * kappa * b_m
                    assert abs(beta_p - beta_m) < 1e-8 * max(1.0, abs(beta_p))
        delta = DeltaBarrier(2.0)
        for kappa in (0.3, 0.9, complex(0.9, 0.4)):
            alpha_p = 2j * kappa * (1 - delta.amplitude_a(kappa))
            alpha_m = -2j * kappa * (1 - delta.amplitude_a(-kappa))
            assert abs(alpha_p - alpha_m) < 1e-12
            assert alpha_p == pytest.approx(2.0, abs=1e-12)

    def test_wide_barrier_omega_imaginary(self):
        bar = PoschlTellerBarrier(1.0, 1.0)
        assert bar.omega.real == pytest.approx(0.0, abs=1e-15)
        assert bar.omega.imag > 0
        ks = np.linspace(0.2, 3.0, 40)
        a, b = bar.amplitudes(ks)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1)) < 1e-10

    def test_matches_high_precision(self):
        for k in (0.3, 1.1, 2.7):
            a_ref, b_ref = oracles.pt_amplitudes(1.0, 0.4, k)
            a, b = pt_amplitudes(1.0, 0.4, k)
            assert abs(a - a_ref) < 1e-12 * abs(a_ref)
            assert abs(b - b_ref) < 1e-12 * max(abs(b_ref), 1e-3)


class TestNumericAmplitudes:
    def test_free_motion(self):
        bar = NumericBarrier.from_callable(lambda q: np.zeros_like(q), -2.0, 2.0, 101)
        a, b = bar.amplitudes(0.9)
        assert abs(a - 1) < 1e-10
        assert abs(b) < 1e-10

    def test_sech2_matches_closed_form_over_grid(self):
        bar = sech2_barrier()
        ks = np.linspace(0.1, 5.0, 25)
        a_num, b_num = bar.amplitudes(ks)
        a_pt, b_pt = pt_amplitudes(1.0, 0.4, ks)
        assert np.max(np.abs(a_num - a_pt)) < 1e-6
        assert np.max(np.abs(b_num - b_pt)) < 1e-6

    def test_narrow_gaussian_delta_limit(self):
        weight, k = 1.5, 0.8
        a_d, b_d = delta_amplitudes(weight, k)
        errs = {}
        for width in (0.2, 0.1, 0.05, 5e-4):
            fn = lambda q: weight * np.exp(-q ** 2 / (2 * width ** 2)) / (
                width * math.sqrt(2 * math.pi))
            bar = NumericBarrier.from_callable(fn, -10 * width, 10 * width,
                                               2001)
            a, b = bar.amplitudes(k)
            errs[width] = abs(a - a_d) + abs(b - b_d)
        assert errs[5e-4] < 1e-3
        # first order in width: error roughly halves per halving
        rate = math.log(errs[0.2] / errs[0.05]) / math.log(4.0)
        assert 0.7 < rate < 1.3

    def test_unitarity(self):
        bar = sech2_barrier()
        ks = np.linspace(0.1, 5.0, 40)
        a, b = bar.amplitudes(ks)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1)) < 1e-6

    def test_symmetric_barrier_b_odd(self):
        bar = sech2_barrier()
        assert bar.symmetric
        for k in (0.4, 1.1):
            b_p = bar.amplitude_b(k)
            b_m = bar.amplitude_b(-k)
            assert abs(b_p + b_m) < 1e-9

    def test_numeric_amplitudes_table_input(self):
        q = np.linspace(-4.8, 4.8, 1201)
        v = 1.0 / np.cosh(q / 0.4) ** 2
        a, b = numeric_amplitudes((q, v), 0.7)
        a_pt, b_pt = pt_amplitudes(1.0, 0.4, 0.7)
        assert abs(a - a_pt) < 1e-5


class TestEikonal:
    def setup_method(self):
        self.bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -6.8, 6.8, 1601)

    def test_above_barrier_unit_modulus(self):
        s_val = eikonal_action(self.bar, 1.5)   # kappa^2 = 2.25 > max V = 1
        assert abs(s_val.imag) < 1e-9
        assert abs(abs(self.bar.amplitude_a(1.5)) - 1.0) < 1e-8

    def test_high_energy_limit(self):
        w = self.bar.integral_strength()
        for k in (50.0, 200.0):
            s_val = eikonal_action(self.bar, k)
            assert abs(s_val - w / (2 * k)) < 2e-3 * abs(w / (2 * k)) + 1e-9

    def test_matches_closed_form_action(self):
        v0, s, k = 1.0, 0.4, 0.35
        s_val = eikonal_action(self.bar, k)
        closed = s * k * math.log(v0 ** 2 / k ** 2 - 1) \
            + s * v0 * math.log((v0 + k) / (v0 - k))
        assert abs(s_val.real - closed) < 1e-8
        assert abs(s_val.imag + math.pi * s * (v0 - k)) < 1e-8

    def test_branch_point_raises(self):
        v_max = self.bar.max_potential()
        with pytest.raises(BranchAmbiguityError):
            eikonal_action(self.bar, math.sqrt(v_max))

    def test_poles_raise(self):
        with pytest.raises(NonMeromorphicError):
            find_poles(self.bar, 1)


class TestTunnelingIntegral:
    def test_vanishes_at_barrier_top(self):
        bar = sech2_barrier()
        v_max = bar.max_potential()
        val = tunneling_integral(bar, math.sqrt(v_max) * 0.999)
        assert 0 <= val < 0.01

    def test_pt_closed_form(self):
        bar = sech2_barrier(v0=1.0, s=0.4, half_width_factor=16.0)
        for p in (0.2, 0.5, 0.8):
            exact = math.pi * 0.4 * (1.0 - p)
            assert tunneling_integral(bar, p) == pytest.approx(exact, rel=2e-4)

    def test_square_barrier(self):
        h, d = 2.0, 1.5
        edge = 0.002
        q = np.concatenate([
            np.linspace(-d / 2 - 0.5, -d / 2 - edge, 50),
            np.linspace(-d / 2 + edge, d / 2 - edge, 200),
            np.linspace(d / 2 + edge, d / 2 + 0.5, 50)])
        v = np.where(np.abs(q) < d / 2, h, 0.0)
        bar = NumericBarrier(q, v)
        p = 1e-6
        val = tunneling_integral(bar, p)
        # independent oracle: dense direct quadrature of the same table
        qq = np.linspace(q[0], q[-1], 40001)
        ref = np.trapezoid(np.sqrt(np.clip(bar.potential(qq) - p * p, 0, None)), qq)
        assert val == pytest.approx(ref, rel=1e-4)
        # and the ideal-square value up to the tabulated edge width
        assert val == pytest.approx(d * math.sqrt(h), rel=1e-2)

    def test_above_barrier_raises(self):
        bar = sech2_barrier()
        with pytest.raises(NoBarrierError):
            tunneling_integral(bar, 1.5)


class TestPoles:
    def test_delta_single_pole(self):
        poles = find_poles(DeltaBarrier(2.0), 1)
        assert poles[0].kappa == pytest.approx(-1j, abs=1e-14)
        # residue factor pinned by the closed-form kernel: v0 (4p + i v0)/(2p)
        assert poles[0].residue_factor(1.0) == pytest.approx(4 + 2j, rel=1e-9)

    def test_pt_pole_ladder(self):
        bar = PoschlTellerBarrier(1.0, 0.4)   # omega = 0.3
        poles = find_poles(bar, 6)
        expected = [-0.5j, -2.0j, -3.0j, -4.5j, -5.5j, -7.0j]
        for pd, ref in zip(poles, expected):
            assert pd.kappa == pytest.approx(ref, abs=1e-12)
        assert all(pd.kappa.imag < 0 for pd in poles)

    def test_wide_pt_pole_pairs(self):
        bar = PoschlTellerBarrier(1.0, 1.0)
        poles = find_poles(bar, 4)
        om = bar.omega.imag
        # the n = 0 pair sits at -i/2 +- omega, sorted by ascending Re
        assert poles[0].kappa == pytest.approx(-0.5j - om, abs=1e-12)
        assert poles[1].kappa == pytest.approx(-0.5j + om, abs=1e-12)

    def test_numeric_newton_search(self):
        bar = sech2_barrier()
        poles = find_poles(bar, 1)
        assert poles[0].kappa == pytest.approx(-0.5j, abs=1e-6)
        assert poles[0].kappa.imag < 0

    def test_newton_search_settles_on_a_noise_floor(self):
        # a(kappa) = kappa - kappa0 plus a 1e-9 error whose sign follows the
        # side of the zero, as ODE noise does near a zero of a numeric barrier:
        # Newton then steps by ~2e-9 for ever and must still accept the zero
        class NoisyZero(Barrier):
            kappa0 = -0.5j

            def amplitude_a(self, kappa):
                d = np.asarray(kappa, dtype=complex) - self.kappa0
                return d + np.where(d.real >= 0.0, 1e-9, -1e-9)

            def kappa_scale(self):
                return 1.0

            def max_potential(self):
                return 1.0

            def support(self):
                return -2.0, 2.0

            def poles(self, count):
                return _newton_pole_search(self, count)

        poles = find_poles(NoisyZero(), 1)
        assert poles[0].kappa == pytest.approx(-0.5j, abs=1e-8)


class TestDescriptors:
    def test_round_trip(self):
        for bar in (DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4)):
            again = barrier_from_dict(bar.descriptor())
            assert again.kind == bar.kind
            assert abs(again.amplitude_a(0.9) - bar.amplitude_a(0.9)) < 1e-13

    def test_numeric_round_trip(self):
        bar = sech2_barrier()
        again = barrier_from_dict(bar.descriptor())
        assert abs(again.amplitude_a(0.7) - bar.amplitude_a(0.7)) < 1e-4

    @pytest.mark.parametrize("bad", [
        {"kind": "delta"},
        {"kind": "delta", "v0": 2.0, "s": 1.0},
        {"kind": "nope", "v0": 1.0},
        {"v0": 1.0},
        {"kind": "numeric", "table": [[0.0, 1.0]]},
    ])
    def test_bad_descriptors(self, bad):
        with pytest.raises(ValueError):
            barrier_from_dict(bad)

    def test_s_matrix_unitary(self):
        for bar in (DeltaBarrier(2.0), PoschlTellerBarrier(1.0, 0.4)):
            sm = bar.s_matrix(0.9).as_matrix()
            ident = sm @ sm.conj().T
            assert np.max(np.abs(ident - np.eye(2))) < 1e-12
