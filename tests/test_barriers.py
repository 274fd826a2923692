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
    eikonal_action,
    find_poles,
    residue_factors,
    tunneling_integral,
    _newton_pole_search,
)
from wigner_tunnel.errors import (
    BranchAmbiguityError,
    GammaPoleError,
    MethodCompatibilityError,
    NoBarrierError,
    NonMeromorphicError,
    PoleSearchError,
)


def sech2_barrier(v0=1.0, s=0.4, half_width_factor=12.0, n=1601):
    return NumericBarrier.from_callable(
        lambda q: v0 ** 2 / np.cosh(q / s) ** 2,
        -half_width_factor * s, half_width_factor * s, n)


class TestDeltaAmplitudes:
    def test_reference_point(self):
        a, b = DeltaBarrier(2.0).amplitudes(1.0)
        assert a == 1 + 1j
        assert abs(a) ** 2 == pytest.approx(2.0)
        # T(1) = 1 - v0^2/(v0^2 + 4 p^2) = 1/2
        assert 1 / abs(a) ** 2 == pytest.approx(0.5, rel=1e-14)

    def test_unitarity_any_kappa(self):
        for k in (0.1, 0.77, 3.0, 40.0):
            a, b = DeltaBarrier(2.0).amplitudes(k)
            assert abs(a) ** 2 - abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_high_energy_limit(self):
        a, b = DeltaBarrier(2.0).amplitudes(1e6j)
        assert abs(a - 1) < 2e-6
        assert abs(b) < 2e-6

    def test_zero_kappa_raises(self):
        with pytest.raises(ZeroDivisionError):
            DeltaBarrier(2.0).amplitudes(0.0)


class TestPoschlTellerAmplitudes:
    def test_unitarity_200_points(self):
        ks = np.linspace(0.1, 5.0, 200)
        a, b = PoschlTellerBarrier(1.0, 0.4).amplitudes(ks)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1)) < 1e-10

    def test_b_purely_imaginary_and_odd(self):
        ks = np.linspace(0.2, 4.0, 25)
        _, b = PoschlTellerBarrier(1.0, 0.4).amplitudes(ks)
        assert np.max(np.abs(b.real)) < 1e-13
        _, b_neg = PoschlTellerBarrier(1.0, 0.4).amplitudes(-ks)
        assert np.max(np.abs(b + b_neg)) < 1e-13

    def test_against_ode_solver(self):
        bar = sech2_barrier()
        a_pt, b_pt = PoschlTellerBarrier(1.0, 0.4).amplitudes(0.7)
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

    def test_ratio_at_zero_kappa(self):
        for bar in (PoschlTellerBarrier(1.0, 0.4), PoschlTellerBarrier(1.0, 1.0)):
            assert bar.ba_ratio(0.0) == -1.0
            assert bar.ba_ratio(np.array([0.0, 1e-12]))[0] == -1.0

    def test_exact_zero_of_a_raises(self):
        # v0 s = 5/8 gives omega = 3i/8, so at s kappa = 3/8 - i/2 - i n the
        # Gamma argument 1/2 + omega - i s kappa is exactly -n
        bar = PoschlTellerBarrier(0.625, 1.0)
        assert bar.omega == 0.375j
        for n in (0, 1, 4):
            with pytest.raises(GammaPoleError):
                bar.amplitude_a(0.375 - (0.5 + n) * 1j)
        assert abs(bar.amplitude_a(0.375 - 0.5j + 1e-9)) < 1e-8

    def test_b_raises_at_every_zero_of_sinh(self):
        # sinh(pi s kappa) vanishes at s kappa = i n; in the upper half-plane
        # a is finite there, and Im(s kappa) reduced to 0 must not read as b = 0
        bar = PoschlTellerBarrier(0.25, 1.0)
        for n in (-3, -1, 1, 2):
            with pytest.raises(GammaPoleError):
                bar.amplitude_b(n * 1j)
        assert np.isfinite(bar.amplitude_a(2j))
        assert abs(bar.amplitude_b(2j + 1e-9)) > 1e7

    def test_matches_high_precision(self):
        for k in (0.3, 1.1, 2.7):
            a_ref, b_ref = oracles.pt_amplitudes(1.0, 0.4, k)
            a, b = PoschlTellerBarrier(1.0, 0.4).amplitudes(k)
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
        a_pt, b_pt = PoschlTellerBarrier(1.0, 0.4).amplitudes(ks)
        assert np.max(np.abs(a_num - a_pt)) < 1e-6
        assert np.max(np.abs(b_num - b_pt)) < 1e-6

    def test_narrow_gaussian_delta_limit(self):
        weight, k = 1.5, 0.8
        a_d, b_d = DeltaBarrier(weight).amplitudes(k)
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
        ks = np.array([0.4, 1.1, -0.7])
        assert np.all(np.abs(bar.reflection_lr(ks) - bar.ba_ratio(ks))
                      <= 1e-9 * np.abs(bar.ba_ratio(ks)))
        for k in (0.4, 1.1):
            b_p = bar.amplitude_b(k)
            b_m = bar.amplitude_b(-k)
            assert abs(b_p + b_m) < 1e-9


class TestEikonal:
    def setup_method(self):
        self.bar = EikonalBarrier.from_callable(
            lambda q: 1.0 / np.cosh(q / 0.4) ** 2, -6.8, 6.8, 1601)

    def test_above_barrier_unit_modulus(self):
        s_val = eikonal_action(self.bar, 1.5)   # kappa^2 = 2.25 > max V = 1
        assert abs(s_val.imag) < 1e-9
        assert abs(abs(self.bar.amplitude_a(1.5)) - 1.0) < 1e-8
        # a scalar kappa gives Python complex numbers, as every other kind does
        assert type(self.bar.amplitude_a(1.5)) is complex
        assert all(type(v) is complex for v in self.bar.amplitudes(1.5))

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

    @pytest.mark.parametrize("offset", [-1e-3, -1e-5, -1e-7, 1e-7, 1e-5, 1e-3])
    def test_turning_point_next_to_a_knot(self, offset):
        # the square root at a turning point a hair past a knot sits just
        # outside the next piece; that piece must not lose accuracy to it
        q = np.linspace(-2.0, 2.0, 21)
        bar = EikonalBarrier(q, 1.0 / np.cosh(q / 0.6) ** 2)
        k = math.sqrt(bar.potential(-1.0 + offset * (q[1] - q[0])))
        ref = oracles.eikonal_action_piecewise(bar, k)
        assert abs(eikonal_action(bar, k) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("offset", [1e-2, 1e-4, 1e-6])
    def test_complex_kappa_next_to_the_axis(self, offset):
        # V = kappa^2 then sits just off the real line, by the turning
        # points of Re kappa^2, which the rules take as their anchors
        q = np.linspace(-2.0, 2.0, 21)
        bar = EikonalBarrier(q, 1.0 / np.cosh(q / 0.6) ** 2)
        for k in (0.5 - 1j * offset, 0.83 + 1j * offset):
            ref = oracles.eikonal_action_piecewise(bar, k)
            assert abs(eikonal_action(bar, k) - ref) <= 1e-9 * abs(ref)

    def test_branch_point_raises(self):
        v_max = self.bar.max_potential()
        with pytest.raises(BranchAmbiguityError):
            eikonal_action(self.bar, math.sqrt(v_max))

    def test_poles_raise(self):
        with pytest.raises(NonMeromorphicError):
            find_poles(self.bar, 1)

    def test_delta_has_no_action(self):
        # the action integrates V; a delta spike has no pointwise values
        with pytest.raises(MethodCompatibilityError):
            eikonal_action(DeltaBarrier(2.0), 1.0)
        with pytest.raises(MethodCompatibilityError):
            tunneling_integral(DeltaBarrier(2.0), 0.5)


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
        bar = DeltaBarrier(2.0)
        poles = find_poles(bar, 1)
        assert poles[0] == pytest.approx(-1j, abs=1e-14)
        # residue factor pinned by the closed-form kernel: v0 (4p + i v0)/(2p)
        assert residue_factors(bar, poles, 1.0)[0] == pytest.approx(4 + 2j, rel=1e-9)

    def test_pt_pole_ladder(self):
        bar = PoschlTellerBarrier(1.0, 0.4)   # omega = 0.3
        poles = find_poles(bar, 6)
        expected = [-0.5j, -2.0j, -3.0j, -4.5j, -5.5j, -7.0j]
        for kn, ref in zip(poles, expected):
            assert kn == pytest.approx(ref, abs=1e-12)
        assert np.all(poles.imag < 0)

    def test_wide_pt_pole_pairs(self):
        bar = PoschlTellerBarrier(1.0, 1.0)
        poles = find_poles(bar, 4)
        om = bar.omega.imag
        # the n = 0 pair sits at -i/2 +- omega, sorted by ascending Re
        assert poles[0] == pytest.approx(-0.5j - om, abs=1e-12)
        assert poles[1] == pytest.approx(-0.5j + om, abs=1e-12)

    def test_pt_slopes_at_zeros_match_high_precision(self):
        # the closed form at the 42 zeros n <= 20 that find_poles lists for
        # a Poschl-Teller barrier with v0 s = 0.386, against a 40-digit
        # derivative of a at each exact zero
        bar = PoschlTellerBarrier(0.964416, 0.400397)
        ref = oracles.pt_zero_slopes(bar.v0, bar.s, 20)
        zeros = find_poles(bar, len(ref))
        got = bar.slope_at_zeros(zeros)
        for k, want in ref:
            i = np.argmin(np.abs(zeros - k))
            assert abs(zeros[i] - k) <= 1e-14 * abs(k)
            assert abs(got[i] - want) <= 1e-13 * abs(want)

    def test_pt_slope_raises_off_the_zeros(self):
        bar = PoschlTellerBarrier(1.0, 0.4)
        zero = find_poles(bar, 1)
        with pytest.raises(ValueError, match="not a zero"):
            bar.slope_at_zeros(np.append(zero, zero + 1e-3))
        with pytest.raises(ValueError, match="not a zero"):
            bar.slope_at_zeros(0.7)

    def test_upper_half_plane_zero_rejected(self):
        class Misplaced(DeltaBarrier):
            def poles(self, count):
                return [0.5j]

        with pytest.raises(PoleSearchError, match="lower half-plane"):
            find_poles(Misplaced(2.0), 1)

    def test_count_is_an_upper_bound(self):
        assert find_poles(DeltaBarrier(2.0), 5).tolist() == [-1j]
        assert len(find_poles(PoschlTellerBarrier(1.0, 0.4), 5)) == 5

    def test_numeric_newton_search(self):
        bar = sech2_barrier()
        poles = find_poles(bar, 1)
        assert poles[0] == pytest.approx(-0.5j, abs=1e-6)
        assert poles[0].imag < 0

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
                return _newton_pole_search(self)

        poles = find_poles(NoisyZero(), 1)
        assert poles[0] == pytest.approx(-0.5j, abs=1e-8)


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

    @pytest.mark.parametrize("bad, key", [
        ({"kind": "delta", "v0": math.nan}, "barrier.v0"),
        ({"kind": "delta", "v0": math.inf}, "barrier.v0"),
        ({"kind": "delta", "v0": 10 ** 400}, "barrier.v0"),
        ({"kind": "delta", "v0": True}, "barrier.v0"),
        ({"kind": "delta", "v0": "2"}, "barrier.v0"),
        ({"kind": "poschl_teller", "v0": 1.0, "s": True}, "barrier.s"),
        ({"kind": "numeric", "table": [[-2, 0], [-1, 0.5], [0, True], [1, 0.5], [2, 0]]},
         "barrier.table"),
        ({"kind": "eikonal", "table": [[-2, 0], [-1, 0.5], [0, "1"], [1, 0.5], [2, 0]]},
         "barrier.table"),
    ], ids=["nan", "inf", "big_int", "v0_bool", "v0_string", "s_bool", "table_bool",
            "table_string"])
    def test_numbers_must_be_finite_reals(self, bad, key):
        with pytest.raises(ValueError, match=f"^{key}: expected"):
            barrier_from_dict(bad)


class TestSupport:
    def test_each_kind_reaches(self):
        assert DeltaBarrier(2.0).support() == (0.0, 0.0)
        pt = PoschlTellerBarrier(1.2, 0.4)
        front, far = pt.support()
        assert (front, far) == (-6.0 * 0.4, 6.0 * 0.4)
        assert pt.potential(far) < 2.5e-5 * pt.v0 ** 2
        q = np.linspace(-1.0, 3.0, 9)
        assert NumericBarrier(q, np.exp(-(q - 1.0) ** 2)).support() == (-1.0, 3.0)
