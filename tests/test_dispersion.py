"""Dispersion relation, Taylor layer, and the two propagation oracles."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import eitlab as el
from eitlab.dispersion import response_polynomials
from eitlab.numerics import richardson_derivative
from eitlab.response import _response_at
from conftest import cs_config, oracle_taylor, random_nonsingular_config, undamped_pole_config


def fd_check(cfg, rtol=1e-6):
    expansion = el.taylor_coefficients(cfg)
    h = 1e-4 * max(cfg.rate_scale, cfg.gamma_char)
    kappa = lambda w: el.kappa_of_omega(cfg, w)
    fd1 = richardson_derivative(kappa, 0.0, h, order=1)
    fd2 = richardson_derivative(kappa, 0.0, h, order=2) / 2.0
    assert abs(fd1 - expansion.kappa1) <= rtol * abs(expansion.kappa1)
    assert abs(fd2 - expansion.kappa2) <= rtol * abs(expansion.kappa2)


class TestKappa:
    def test_vacuum_when_medium_off(self):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01, delta_p=0.5, eta=0.0)
        w = np.array([-2.0, 0.0, 1.3])
        assert np.allclose(el.kappa_of_omega(cfg, w), w / cfg.c_light)
        expansion = el.taylor_coefficients(cfg)
        assert expansion.kappa0 == 0 and expansion.kappa2 == 0
        assert expansion.v_g == pytest.approx(cfg.c_light)

    def test_transparency_point_has_zero_kappa(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01)
        assert el.kappa_of_omega(cfg, 0.0) == 0

    def test_reference_scale(self):
        # calibrated medium constant reproduces the quoted dispersion scale
        expansion = el.taylor_coefficients(cs_config())
        assert abs(expansion.kappa0.real) == pytest.approx(3.9, rel=0.01)
        assert expansion.kappa0.imag > 0
        assert (expansion.v_g / cs_config().c_light).real == pytest.approx(7.2e-3, rel=0.02)

    def test_polynomials_match_pointwise_context(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            cfg = random_nonsingular_config(rng)
            s1, q = response_polynomials(cfg)
            for w in rng.uniform(-3, 3, size=3):
                _drift, (s1_w, _s2, _s3, _s4, q_w), _singular = _response_at(cfg, float(w))
                assert npoly.polyval(w, s1) == pytest.approx(s1_w, rel=1e-12, abs=1e-12)
                assert npoly.polyval(w, q) == pytest.approx(q_w, rel=1e-12, abs=1e-12)

    def test_kappa_consistent_with_direct_solver(self):
        # kappa - omega/c must equal eta * rho_ba / probe from the 4x4 solve.
        # The second case pins the accuracy of the factored evaluation: over
        # these 2000 draws its worst gap is 7.6e-14, where evaluating the
        # expanded polynomial coefficients reached 5.8e-13.
        for draws, rtol in ((50, 1e-10), (2000, 2e-13)):
            rng = np.random.default_rng(21)
            for _ in range(draws):
                cfg = random_nonsingular_config(rng)
                w = float(rng.uniform(-2, 2))
                try:
                    kappa = el.kappa_of_omega(cfg, w)
                except el.SingularDenominator:
                    continue
                direct = el.solve_direct(cfg, w)
                composed = w / cfg.c_light + cfg.eta * direct.rho_ba / cfg.omega_p.value
                assert abs(kappa - composed) <= rtol * max(abs(kappa), 1e-300)

    def test_singular_denominator_raises(self, fig4b):
        # at beta = 0 on resonance q(0) = 0, but t2 cancels and kappa is
        # analytic there: it must match a fit to the 4x4 oracle away from 0
        expansion = el.taylor_coefficients(fig4b)
        fitted = oracle_taylor(fig4b, 1e-3)
        got = [expansion.kappa0, expansion.kappa1, expansion.kappa2]
        for value, oracle, rtol in zip(got, fitted, (1e-12, 1e-12, 1e-9)):
            assert abs(value - oracle) <= rtol * abs(value)
        assert el.kappa_of_omega(fig4b, 0.0) == pytest.approx(expansion.kappa0, rel=1e-14)
        fd_check(fig4b)
        # a genuine pole has no finite value
        pole = undamped_pole_config()
        with pytest.raises(el.SingularDenominator):
            el.kappa_of_omega(pole, 0.0)
        with pytest.raises(el.SingularDenominator):
            el.taylor_coefficients(pole)


class TestTaylorVsFiniteDifferences:
    def test_reference_set(self):
        fd_check(cs_config())

    def test_gamma_unit_configs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            fd_check(random_nonsingular_config(rng))

    def test_chi_and_phase_shift_split(self):
        expansion = el.taylor_coefficients(cs_config())
        assert expansion.chi == pytest.approx(2.0 * expansion.kappa0.imag)
        assert expansion.phase_shift == expansion.kappa0.real


class TestGaussianClosedForm:
    def test_identity_at_zero_distance(self, fig4a):
        pulse = el.GaussianPulseSpec(amplitude=0.3, tau0=2.0)
        t = np.linspace(-5, 5, 101)
        out = el.gaussian_closed_form(fig4a.with_delta_p(1.0), pulse, 0.0, t)
        assert np.allclose(out, pulse.envelope(t), rtol=1e-14)

    def test_pure_delay_when_curvature_absent(self):
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=1.0)
        t = np.linspace(-6, 6, 241)
        kappa0, kappa1 = 0.4 + 0.1j, 2.5 + 0j
        out = el.gaussian_field(kappa0, kappa1, 0.0j, pulse, 2.0, t)
        expected = np.exp(1j * kappa0 * 2.0) * pulse.envelope(t - 2.0 * kappa1.real)
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_spectral_oracle_on_reference_set(self):
        cfg = cs_config()
        tau0 = 100.0 / cfg.gamma_char
        pulse = el.GaussianPulseSpec(amplitude=cfg.omega_p.amplitude, tau0=tau0)
        grid = pulse.sample()
        out = el.spectral_propagate(cfg, grid, 0.2, kappa="full")
        ref = el.gaussian_closed_form(cfg, pulse, 0.2, out.times())
        rel = np.linalg.norm(out.samples - ref) / np.linalg.norm(ref)
        assert rel < 1e-6


class TestSpectralPropagate:
    def test_zero_distance_identity(self, fig4a):
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=3.0)
        grid = pulse.sample(points=1024, window=60.0)
        out = el.spectral_propagate(fig4a.with_delta_p(1.0), grid, 0.0)
        assert np.allclose(out.samples, grid.samples, atol=1e-12)

    def test_vacuum_is_pure_delay(self):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01, eta=0.0, c_light=2.0)
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=1.0)
        grid = pulse.sample(points=2048, window=80.0)
        z = 3.0
        out = el.spectral_propagate(cfg, grid, z)
        expected = pulse.envelope(grid.times() - z / cfg.c_light)
        assert np.max(np.abs(out.samples - expected)) < 1e-10

    def test_narrowband_convergence_to_closed_form(self):
        # widening the pulse shrinks the full-vs-quadratic mismatch
        cfg = cs_config()
        errors = []
        for tau0 in (20.0 / cfg.gamma_char, 100.0 / cfg.gamma_char):
            pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=tau0)
            grid = pulse.sample()
            out = el.spectral_propagate(cfg, grid, 0.5, kappa="full")
            ref = el.gaussian_closed_form(cfg, pulse, 0.5, out.times())
            errors.append(np.linalg.norm(out.samples - ref) / np.linalg.norm(ref))
        assert errors[1] < errors[0] / 10

    def test_grid_too_narrow(self):
        cfg = cs_config()
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=1.0)
        grid = pulse.sample(points=256, window=4.0)  # edges at exp(-4)
        with pytest.raises(el.GridTooNarrow):
            el.spectral_propagate(cfg, grid, 0.1)

    def test_energy_non_gain_over_absorbing_band(self):
        cfg = cs_config()
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=100.0 / cfg.gamma_char)
        grid = pulse.sample()
        omega = -2 * np.pi * np.fft.fftfreq(grid.samples.size, d=grid.dt_grid)
        assert np.all(el.kappa_of_omega(cfg, omega).imag >= 0)
        out = el.spectral_propagate(cfg, grid, 1.0, kappa="full")
        assert np.linalg.norm(out.samples) <= np.linalg.norm(grid.samples)

    def test_taylor_energy_identity_with_closed_form(self):
        # the two exact solutions of the truncated equation carry equal norms
        cfg = cs_config()
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=150.0 / cfg.gamma_char)
        grid = pulse.sample()
        out = el.spectral_propagate(cfg, grid, 1.0, kappa="taylor")
        ref = el.gaussian_closed_form(cfg, pulse, 1.0, out.times())
        assert np.linalg.norm(out.samples) == pytest.approx(
            np.linalg.norm(ref), rel=1e-6)

    def test_bad_kappa_mode(self):
        cfg = cs_config()
        grid = el.GaussianPulseSpec(amplitude=1.0, tau0=1e-6).sample(points=1024)
        with pytest.raises(ValueError):
            el.spectral_propagate(cfg, grid, 1.0, kappa="cubic")
