import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from wigner_tunnel import specfun
from wigner_tunnel.errors import GammaPoleError, SeriesConvergenceError
from wigner_tunnel.specfun import (
    airy_ai,
    big_w,
    faddeeva_w,
    gamma_cx,
    hyp4f3,
    hyp4f3_coefficients,
    log_gamma_right,
)


class TestGamma:
    def test_factorial_case(self):
        assert gamma_cx(5.0 + 0j) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        assert gamma_cx(0.5 + 0j) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_modulus_identity_on_imaginary_shift(self):
        # |Gamma(1+iy)|^2 = pi y / sinh(pi y), evaluated at y = 1
        val = abs(gamma_cx(1 + 1j))
        exact = math.sqrt(math.pi / math.sinh(math.pi))
        assert val == pytest.approx(exact, rel=1e-12)
        assert val == pytest.approx(0.5215640468649398, rel=1e-10)

    def test_against_high_precision(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50:
                continue
            if z.imag == 0 or (abs(z.imag) < 0.05 and z.real < 0.5):
                continue
            ref = oracles.gamma(z)
            assert abs(gamma_cx(z) - ref) <= 1e-12 * abs(ref)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-20, 20, 80) + 1j * rng.uniform(0.2, 20, 80)
        for z in zs:
            lhs = gamma_cx(z + 1)
            rhs = z * gamma_cx(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_reflection(self):
        rng = np.random.default_rng(13)
        zs = rng.uniform(-8, 8, 60) + 1j * rng.uniform(0.3, 8, 60)
        for z in zs:
            val = gamma_cx(z) * gamma_cx(1 - z) * np.sin(np.pi * z) / np.pi
            assert abs(val - 1) <= 1e-10

    def test_pole_raises(self):
        for z in (0.0 + 0j, -1.0 + 0j, -7.0 + 0j):
            with pytest.raises(GammaPoleError):
                gamma_cx(z)

    def test_log_gamma_pole_raises(self):
        # scipy's loggamma returns nan there; an exact zero of a PT amplitude lands on one
        for z in (0.0 + 0j, -1.0 + 0j, -7.0 + 0j, np.array([0.5 + 1j, -3.0 + 0j])):
            with pytest.raises(GammaPoleError):
                log_gamma_right(z)
        assert np.isfinite(log_gamma_right(-7.0 + 1e-12j))

    def test_vectorized(self):
        zs = np.array([1 + 1j, 2.5 - 0.5j, -1.5 + 2j])
        vals = gamma_cx(zs)
        assert vals.shape == (3,)
        for z, v in zip(zs, vals):
            assert abs(v - oracles.gamma(z)) <= 1e-12 * abs(v)

    def test_off_each_pole_against_high_precision(self):
        # 1e-12 from each pole -1 .. -50, along the real line and across it:
        # the reflection keeps the zero of sin(pi z) sharp at odd poles too
        for n in range(1, 51):
            for eps in (1e-12, -1e-12, 1e-12j, -1e-12j):
                z = complex(-n + eps)
                ref = oracles.gamma(z)
                assert abs(gamma_cx(z) - ref) <= 1e-12 * abs(ref)

    def test_poschl_teller_band_against_high_precision(self):
        # 0 < Re z < 1/2 is where 1/2 - omega - i s kappa lies for a narrow
        # barrier; one array call, each entry against mpmath
        rng = np.random.default_rng(19)
        zs = rng.uniform(0.0, 0.5, 200) + 1j * rng.uniform(-40.0, 40.0, 200)
        for z, v in zip(zs, gamma_cx(zs)):
            ref = oracles.gamma(z)
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_array_across_blocks_gives_scalar_values(self):
        # log_gamma_right works through long arrays a block at a time; the
        # entries on each side of a block edge keep their scalar values
        rng = np.random.default_rng(23)
        n = specfun._GAMMA_BLOCK + 40
        zs = rng.uniform(-30.0, 30.0, n) + 1j * rng.uniform(-30.0, 30.0, n)
        vals = log_gamma_right(zs.reshape(2, -1)).ravel()
        for i in [0, 1, n // 2, specfun._GAMMA_BLOCK - 1, specfun._GAMMA_BLOCK, n - 1]:
            assert np.asarray(log_gamma_right(zs[i])).tobytes() == vals[i].tobytes()
        # written over its own argument, block by block, it gives the same array
        in_place = zs.copy()
        log_gamma_right(in_place, out=in_place)
        assert np.array_equal(in_place, vals)


class TestFaddeeva:
    def test_at_zero(self):
        assert faddeeva_w(0) == pytest.approx(1.0, abs=1e-15)
        assert big_w(0) == 0

    def test_at_i(self):
        # w(i) = e * erfc(1); erfc from an independent continued fraction
        ref = math.e * float(oracles.erfc_continued_fraction(1.0))
        assert faddeeva_w(1j).real == pytest.approx(ref, rel=1e-12)
        assert abs(faddeeva_w(1j).imag) < 1e-14

    def test_large_argument_asymptotic(self):
        isqrtpi = 1.0 / math.sqrt(math.pi)
        for z in (60j, 40 + 40j, -35 + 50j):
            expect = 1j * isqrtpi * (1 + 1 / (2 * z * z))
            assert abs(big_w(z) - expect) <= 1e-5 * abs(expect)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            z = complex(rng.uniform(-8, 8), rng.uniform(0, 8))
            lhs = faddeeva_w(-z.conjugate())
            rhs = faddeeva_w(z).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_against_high_precision_upper_half(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            z = complex(rng.uniform(-12, 12), rng.uniform(0, 12))
            ref = oracles.faddeeva(z)
            assert abs(faddeeva_w(z) - ref) <= 5e-9 * max(1.0, abs(ref))

    def test_transient_rays(self):
        # the rays arg z = pi/4 and 3 pi/4 carry the transient evaluations
        for ang in (math.pi / 4, 3 * math.pi / 4):
            for rr in np.linspace(0.2, 60, 25):
                z = rr * complex(math.cos(ang), math.sin(ang))
                ref = oracles.faddeeva(z)
                assert abs(faddeeva_w(z) - ref) <= 1e-11 * max(1.0, abs(ref))


class TestAiry:
    def test_at_zero(self):
        exact = 1.0 / (3 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
        assert airy_ai(0.0) == pytest.approx(exact, abs=1e-14)
        assert airy_ai(0.0) == pytest.approx(oracles.airy_ai_maclaurin(0.0), abs=1e-14)

    def test_decaying_branch(self):
        xs = np.linspace(1.0, 20.0, 25)
        vals = [airy_ai(x) for x in xs]
        assert all(isinstance(v, float) and v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # one array call gives the scalar calls' values
        assert np.array_equal(airy_ai(xs), vals)

    def test_defining_ode_residual(self):
        # stencil widths chosen against the series' cancellation noise:
        # small h where the function oscillates, wider h on the smooth
        # decaying side
        samples = [(x, 0.01) for x in (-3.0, -2.5, -2.0, -1.0, 0.0, 0.7, 1.5, 2.5)]
        samples += [(x, 0.05) for x in (4.0, 5.0, 6.5)]
        for x, h in samples:
            second = (-airy_ai(x + 2 * h) + 16 * airy_ai(x + h) - 30 * airy_ai(x)
                      + 16 * airy_ai(x - h) - airy_ai(x - 2 * h)) / (12 * h * h)
            assert abs(second - x * airy_ai(x)) <= 1e-8

    def test_against_high_precision(self):
        for x in np.linspace(-20, 20, 81):
            assert abs(airy_ai(x) - oracles.airy_ai(x)) <= 1e-10


class TestHyp4F3:
    def test_zero_argument(self):
        res = hyp4f3([0.3, 1.1, 2.2, 0.9], [1.4, 0.8, 2.0], 0.0)
        assert res.value == 1.0

    def test_telescoping_to_binomial(self):
        # upper (a, b, c, d) with lower (b, c, d) collapses to (1-z)^(-a)
        res = hyp4f3([1.0, 2.3, 0.7, 1.1], [2.3, 0.7, 1.1], 0.5)
        assert res.value == pytest.approx(2.0, rel=1e-13)

    def test_terminating_series_is_its_polynomial(self):
        # the upper parameter -3 ends the series after the cubic term; the
        # parameters are exact binary fractions, so the reference is exact
        xi, lam, z = [-3.0, 1.5, 2.0, 0.75], [1.25, 0.5, 2.5], -0.375
        term = ref = Fraction(1)
        for n in range(3):
            for x in xi:
                term *= Fraction(x) + n
            for lm in lam:
                term /= Fraction(lm) + n
            term *= Fraction(z) / (n + 1)
            ref += term
        res = hyp4f3(xi, lam, z)
        assert abs(res.value - float(ref)) <= 1e-15 * abs(float(ref))
        assert res.truncation_error == 0.0

    def test_generic_complex_vs_oracle(self):
        xi = [1.2 + 0.3j, 0.5 - 1j, 2.0, 0.9]
        lam = [1.1 + 0.2j, 1.7, 0.8 - 0.4j]
        z = 0.4 + 0.3j
        res = hyp4f3(xi, lam, z)
        ref = oracles.hyp4f3_direct(xi, lam, z)
        assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_truncation_estimate_bounds_error(self):
        rng = np.random.default_rng(17)
        hits = 0
        total = 40
        for _ in range(total):
            xi = list(rng.uniform(0.2, 2.5, 4) + 1j * rng.uniform(-1, 1, 4))
            lam = list(rng.uniform(0.5, 2.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3))
            z = rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            res = hyp4f3(xi, lam, z)
            ref = oracles.hyp4f3_direct(xi, lam, z)
            if abs(res.value - ref) <= res.truncation_error + 1e-13 * abs(ref):
                hits += 1
        assert hits >= 0.95 * total

    def test_coefficients_match_frozen_loop(self):
        # the cumulative product of term ratios rounds differently from the
        # term-by-term loop; the parameters are the late (r > 0) and early
        # (r < 0) Poschl-Teller series at v0 s = 0.4, 1/2 and 1.2
        cases = []
        for vs, nu in ((0.4, 0.8), (0.5, 1.6), (1.2, 3.0)):
            om = complex(cmath.sqrt(0.25 - vs ** 2))
            cases.append(((1.5 - om, 0.5 - om, 1.5 - 1j * nu - om, 0.5 - 1j * nu - om),
                          (1 - 2 * om, 1 - 1j * nu, 1 - 1j * nu - 2 * om)))
            cases.append(((1.5 + om, 1.5 - om, 1.5 + 1j * nu + om, 1.5 + 1j * nu - om),
                          (2, 1 + 1j * nu, 2 + 1j * nu)))
        for xi, lam in cases:
            for n_terms in (1, 2, 364, 3000):
                c = hyp4f3_coefficients(xi, lam, n_terms)
                ref = oracles.hyp4f3_coefficients_loop(xi, lam, n_terms)
                assert c.shape == ref.shape
                assert np.all(np.abs(c - ref) <= 1e-13 * np.abs(ref))
        # one call on the early parameter sets stacked as arrays, the lower
        # parameter 2 left a scalar, gives each set's own vector as a row
        xi, lam = (np.array(v).T for v in zip(*cases[1::2]))
        stacked = hyp4f3_coefficients(xi, (2, lam[1], lam[2]), 364)
        assert stacked.shape == (3, 364)
        for b, row in enumerate(stacked):
            assert np.array_equal(row, hyp4f3_coefficients(xi[:, b], lam[:, b], 364))

    def test_outside_disk_raises(self):
        with pytest.raises(SeriesConvergenceError):
            hyp4f3([1, 1, 1, 1], [2, 2, 2], 1.0)

    def test_bad_lower_parameter_raises(self):
        with pytest.raises(SeriesConvergenceError):
            hyp4f3([1, 1, 1, 1], [-2.0, 2, 2], 0.3)

    def test_term_cap_raises(self):
        with pytest.raises(SeriesConvergenceError):
            hyp4f3([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 0.999999, max_terms=50)
