"""Kerr coefficient, analytic solitons, and the split-step propagator."""

import math

import numpy as np
import pytest

import eitlab as el
from eitlab import nls
from conftest import (
    cs_config,
    kerr_from_coherences,
    kerr_limit,
    random_nonsingular_config,
    undamped_pole_config,
)


def sample_envelope(soliton: el.Soliton, points: int, dt: float, zeta: float = 0.0) -> el.Envelope:
    t = (np.arange(points) - points // 2) * dt
    return el.Envelope(samples=soliton.envelope(t, zeta), dt_grid=dt, zeta=zeta)


def pde_residual_bright(soliton: el.Soliton, points: int = 4096, window: float = 60.0) -> float:
    """Numeric residual of the real-coefficient envelope equation.

    The distance derivative is a central difference over a tiny step, the
    curvature a spectral derivative; nothing reuses the analytic
    amplitude-width-phase relations under test.
    """
    dt = window / points
    t = (np.arange(points) - points // 2) * dt
    h = 1e-6 / max(abs(soliton.phase_rate), 1e-12)
    u0 = soliton.envelope(t, 0.0)
    du = (soliton.envelope(t, h) - soliton.envelope(t, -h)) / (2 * h)
    w = 2 * np.pi * np.fft.fftfreq(points, d=dt)
    d2u = np.fft.ifft(-(w**2) * np.fft.fft(u0))
    res = 1j * du - soliton.kappa2_r * d2u - soliton.theta_r * np.abs(u0) ** 2 * u0
    scale = max(abs(soliton.kappa2_r) * np.max(np.abs(d2u)),
                abs(soliton.theta_r) * np.max(np.abs(u0)) ** 3)
    return float(np.max(np.abs(res)) / scale)


def pde_residual_dark(soliton: el.Soliton, points: int = 8192, window_widths: float = 120.0) -> float:
    """Residual of the kink pair, measured away from the wrap partner."""
    dt = window_widths * soliton.spec.tau / points
    h = 1e-6 / max(abs(soliton.phase_rate), 1e-12)
    center = slice(points // 2 - points // 8, points // 2 + points // 8)

    def field(zeta):
        return el.dark_pair_envelope(soliton, points, dt, zeta=zeta).samples

    u0 = field(0.0)
    du = (field(h) - field(-h)) / (2 * h)
    w = 2 * np.pi * np.fft.fftfreq(points, d=dt)
    d2u = np.fft.ifft(-(w**2) * np.fft.fft(u0))
    res = (1j * du - soliton.kappa2_r * d2u
           - soliton.theta_r * np.abs(u0) ** 2 * u0)[center]
    scale = abs(soliton.theta_r) * np.max(np.abs(u0)) ** 3
    return float(np.max(np.abs(res)) / scale)


def strang_oracle(coeffs: el.NlsCoefficients, envelope: el.Envelope, dz: float,
                  n_steps: int, mode: str) -> np.ndarray:
    """Textbook unfused Strang loop on np.fft: half Kerr, dispersion, half Kerr.

    Every step evaluates both half substeps at its own midpoint weight
    exp(-chi*zeta); nothing is fused, buffered or shared with split_step.
    """
    if mode == "ideal":
        kappa2, theta, chi = complex(coeffs.kappa2.real), complex(coeffs.theta.real), 0.0
    else:
        kappa2, theta, chi = coeffs.kappa2, coeffs.theta, coeffs.chi
    omega = 2 * np.pi * np.fft.fftfreq(envelope.samples.size, d=envelope.dt_grid)
    dispersion = np.exp(1j * kappa2 * omega**2 * dz)

    def kerr(u, th, h):
        intensity = np.abs(u) ** 2
        if th.imag == 0:
            return u * np.exp(-1j * th.real * intensity * h)
        denom = 1 - 2 * th.imag * intensity * h
        return u / np.sqrt(denom) * np.exp(1j * th.real / (2 * th.imag) * np.log(denom))

    u = envelope.samples.copy()
    for k in range(n_steps):
        th = theta * math.exp(-chi * (envelope.zeta + (k + 0.5) * dz))
        u = kerr(u, th, dz / 2)
        u = np.fft.ifft(np.fft.fft(u) * dispersion)
        u = kerr(u, th, dz / 2)
    return u


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture
def bright_coeffs():
    return el.NlsCoefficients(kerr=0j, theta=2.0 + 0j, kappa2=1.0 + 0j, chi=0.0)


@pytest.fixture
def dark_coeffs():
    return el.NlsCoefficients(kerr=0j, theta=2.0 + 0j, kappa2=-1.0 + 0j, chi=0.0)


@pytest.fixture
def absorptive_coeffs():
    """Complex theta and kappa2 with damping-side signs, plus chi > 0."""
    return el.NlsCoefficients(kerr=0j, theta=2.0 - 0.05j, kappa2=1.0 + 0.02j, chi=0.25)


class TestKerrCoefficient:
    def test_transparency_point_has_no_kerr(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01)
        assert el.kerr_coefficient(cfg) == 0

    def test_matches_coherence_composition_randomized(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            cfg = random_nonsingular_config(rng)
            closed = el.kerr_coefficient(cfg)
            composed = kerr_from_coherences(cfg)
            assert abs(closed - composed) <= 1e-12 * max(abs(composed), 1e-300)

    def test_reference_theta_scale(self):
        coeffs = el.nls_coefficients(cs_config())
        assert abs(coeffs.theta.real) == pytest.approx(3.589e-19, rel=0.01)
        assert coeffs.theta == -cs_config().eta * coeffs.kerr
        assert coeffs.imag_ratio_theta < 0.01
        assert coeffs.imag_ratio_kappa2 < 0.01

    def test_singular_denominator(self, fig4b):
        # at beta = 0 on resonance q(0) = 0, but t2 cancels: the finite limit
        # must match the composed oracle approached through delta_p -> 0
        kerr = el.kerr_coefficient(fig4b)
        assert abs(kerr - kerr_limit(fig4b)) <= 1e-9 * abs(kerr)
        # a genuine pole has no finite value
        with pytest.raises(el.SingularDenominator):
            el.kerr_coefficient(undamped_pole_config())


class TestAnalyticSoliton:
    def test_bright_pde_residual(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        assert pde_residual_bright(soliton) < 1e-10

    def test_dark_pde_residual(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        assert pde_residual_dark(soliton) < 1e-10

    def test_bright_pde_residual_physical_scale(self):
        coeffs = el.nls_coefficients(cs_config())
        soliton = el.analytic_soliton(coeffs, tau=1e-7)
        assert pde_residual_bright(soliton, window=60.0 * 1e-7) < 1e-10

    def test_amplitude_relations(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=0.5)
        assert soliton.spec.amplitude == pytest.approx(math.sqrt(2.0 * 0.5) / 0.5)
        assert soliton.amplitude_width_product == pytest.approx(math.sqrt(2.0 * 0.5))
        assert el.reference_amplitude(bright_coeffs, 0.5) == pytest.approx(math.sqrt(0.5) / 0.5)

    def test_wrong_sign_rejected(self, bright_coeffs, dark_coeffs):
        with pytest.raises(el.WrongSign):
            el.analytic_soliton(bright_coeffs, 1.0, kind="dark")
        with pytest.raises(el.WrongSign):
            el.analytic_soliton(dark_coeffs, 1.0, kind="bright")
        degenerate = el.NlsCoefficients(kerr=0j, theta=0j, kappa2=1.0 + 0j, chi=0.0)
        with pytest.raises(el.WrongSign):
            el.analytic_soliton(degenerate, 1.0)

    def test_reference_set_sign_product(self):
        # the exact coefficients of the reference set land in the bright
        # regime (positive curvature times positive nonlinearity); see the
        # README note on the sign of the quoted curvature
        coeffs = el.nls_coefficients(cs_config())
        assert coeffs.kappa2_r * coeffs.theta_r > 0
        assert coeffs.soliton_type == "bright"
        soliton = el.analytic_soliton(coeffs, tau=1e-7)
        assert soliton.spec.kind == "bright"


class TestSplitStep:
    def test_no_coefficients_is_identity(self):
        coeffs = el.NlsCoefficients(kerr=0j, theta=0j, kappa2=0j, chi=0.0)
        rng = np.random.default_rng(31)
        profile = np.exp(-np.linspace(-8, 8, 1024) ** 2) * (1 + 0.1j)
        env = el.Envelope(samples=profile, dt_grid=0.01)
        out = el.split_step(coeffs, env, dz=0.1, n_steps=7)
        assert np.allclose(out.samples, env.samples, atol=1e-14)
        assert out.zeta == pytest.approx(0.7)

    def test_linear_mode_matches_gaussian_closed_form(self):
        # theta = 0: pure quadratic dispersion in the co-moving frame
        kappa2 = 0.35 + 0.0j
        coeffs = el.NlsCoefficients(kerr=0j, theta=0j, kappa2=kappa2, chi=0.0)
        pulse = el.GaussianPulseSpec(amplitude=1.0, tau0=1.0)
        n, window = 4096, 80.0
        dt = window / n
        t = (np.arange(n) - n // 2) * dt
        env = el.Envelope(samples=pulse.envelope(t).astype(complex), dt_grid=dt)
        out = el.split_step(coeffs, env, dz=0.01, n_steps=100)
        ref = el.gaussian_field(0.0j, 0.0j, kappa2, pulse, 1.0, t)
        assert np.linalg.norm(out.samples - ref) / np.linalg.norm(ref) < 1e-6

    def test_matched_bright_soliton_holds_shape(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        n, dt = 4096, 80.0 / 4096
        env = sample_envelope(soliton, n, dt)
        dispersion_length = 1.0  # tau^2 / |kappa2_r|
        dz = dispersion_length / 200
        out = el.split_step(bright_coeffs, env, dz, int(round(5 / dz)), mode="ideal")
        ref = sample_envelope(soliton, n, dt, zeta=out.zeta)
        rms = np.sqrt(np.mean((np.abs(out.samples) - np.abs(ref.samples)) ** 2))
        assert rms / soliton.spec.amplitude < 1e-3
        pointwise = np.max(np.abs(np.abs(out.samples) - np.abs(ref.samples)))
        assert pointwise / soliton.spec.amplitude < 1e-3
        assert el.soliton_fidelity(ref, out) > 0.999999

    def test_dark_pair_holds_dip(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        n, dt = 4096, 120.0 / 4096
        env = el.dark_pair_envelope(soliton, n, dt)
        dz = 1.0 / 200
        out = el.split_step(dark_coeffs, env, dz, int(round(5 / dz)), mode="ideal")
        depth, width = el.measure_dark_dip(out, soliton)
        assert depth == pytest.approx(soliton.spec.amplitude, rel=0.02)
        assert width == pytest.approx(soliton.spec.tau, rel=0.02)
        ref = el.dark_pair_envelope(soliton, n, dt, zeta=out.zeta)
        assert el.soliton_fidelity(ref, out) > 0.98

    def test_dark_dip_width_spans_the_nearest_level_crossings(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        n, dt = 4096, 120.0 / 4096
        clean = el.dark_pair_envelope(soliton, n, dt)
        rng = np.random.default_rng(21)
        env = el.Envelope(samples=clean.samples * (1 + 0.01 * rng.standard_normal(n)), dt_grid=dt)
        _depth, width = el.measure_dark_dip(env, soliton)

        t = env.times()
        inside = np.abs(t) <= 10.0 * soliton.spec.tau
        tw, aw = t[inside], np.abs(env.samples[inside])
        level = 0.5 * (aw[0] + aw[-1]) * math.tanh(1.0)
        low = int(np.argmin(aw))
        # first samples at or above the level on each side of the minimum
        above_left = max(k for k in range(low) if aw[k] >= level)
        above_right = min(k for k in range(low, aw.size) if aw[k] >= level)
        crossings = []
        for a, b in ((above_left, above_left + 1), (above_right, above_right - 1)):
            time = tw[b] + (level - aw[b]) * (tw[a] - tw[b]) / (aw[a] - aw[b])
            assert abs(np.interp(time, tw, aw) - level) <= 1e-12 * level
            crossings.append(time)
        assert width == pytest.approx(0.5 * (crossings[1] - crossings[0]), rel=1e-12)

    def test_one_sample_dip_crosses_between_its_neighbours(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        samples = np.ones(256, dtype=complex)
        samples[128] = 0.0  # tau_ret = 0
        depth, width = el.measure_dark_dip(el.Envelope(samples=samples, dt_grid=0.1), soliton)
        assert depth == 1.0
        assert width == pytest.approx(0.1 * math.tanh(1.0), rel=1e-12)

    def test_dark_dip_without_two_crossings_is_a_grid_mismatch(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        flat = el.Envelope(samples=np.ones(256) + 0j, dt_grid=0.1)
        with pytest.raises(el.GridMismatch, match="does not cross"):
            el.measure_dark_dip(flat, soliton)
        # |u| rises across the window: the minimum sits at its left edge
        ramp = el.Envelope(samples=np.linspace(0.0, 1.0, 256) + 0j, dt_grid=0.1)
        with pytest.raises(el.GridMismatch, match="does not cross"):
            el.measure_dark_dip(ramp, soliton)

    def test_ideal_mode_conserves_power(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        steps = 400
        out = el.split_step(bright_coeffs, env, dz=1.0 / 200, n_steps=steps, mode="ideal")
        drift = abs(np.linalg.norm(out.samples) - np.linalg.norm(env.samples))
        assert drift <= steps * 1e-10 * np.linalg.norm(env.samples)

    def test_ideal_mode_is_unitary_at_the_benchmark_shape(self):
        # the benchmark's splitstep op: cs_soliton at 2^14 points, 300 steps
        # to 0.75 dispersion lengths.  The ideal walk is a product of unitary
        # maps, so only rounding moves the norm (~7e-14 here); a rotation
        # whose modulus were biased by 4 ulp would drift it past 1e-12.
        coeffs = el.nls_coefficients(cs_config())
        tau, points = 1e-7, 2**14
        soliton = el.analytic_soliton(coeffs, tau)
        env = sample_envelope(soliton, points, 80.0 * tau / points)
        zeta = 0.75 * tau**2 / abs(coeffs.kappa2_r)
        out = el.split_step(coeffs, env, zeta / 300, 300, mode="ideal")
        power = np.sum(np.abs(env.samples) ** 2)
        assert abs(np.sum(np.abs(out.samples) ** 2) - power) <= 1e-12 * power
        # the splitting error against the exact soliton, as the unfused
        # np.fft walk with cos/sin rotations left it
        reference = sample_envelope(soliton, points, env.dt_grid, zeta=out.zeta)
        error = np.max(np.abs(out.samples - reference.samples)) / soliton.spec.amplitude
        assert error == pytest.approx(4.730837294832021e-06, abs=1e-12)

    def test_full_mode_norm_decays_with_absorptive_signs(self, bright_coeffs):
        # chi > 0 plus damping-side imaginary parts: Im kappa2 >= 0 kills
        # high frequencies, Im theta <= 0 saturates intensity
        coeffs = el.NlsCoefficients(kerr=0j, theta=2.0 - 0.05j, kappa2=1.0 + 0.02j, chi=0.25)
        soliton = el.analytic_soliton(coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        norms = [np.linalg.norm(env.samples)]
        for _ in range(8):
            env = el.split_step(coeffs, env, dz=1.0 / 200, n_steps=25, mode="full")
            norms.append(np.linalg.norm(env.samples))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_full_mode_attenuation_uses_absolute_distance(self):
        # continuing from a checkpoint must weight the nonlinearity by
        # exp(-chi * zeta), not restart the attenuation clock
        coeffs = el.NlsCoefficients(kerr=0j, theta=2.0 + 0j, kappa2=1.0 + 0j, chi=2.0)
        soliton = el.analytic_soliton(coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        once = el.split_step(coeffs, env, 1.0 / 200, 200, mode="full")
        half = el.split_step(coeffs, env, 1.0 / 200, 100, mode="full")
        twice = el.split_step(coeffs, half, 1.0 / 200, 100, mode="full")
        assert np.allclose(once.samples, twice.samples, atol=1e-12)

    def test_second_order_convergence(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        perturbed = el.Envelope(samples=env.samples * (1 + 0.05), dt_grid=env.dt_grid)

        def error_at(dz):
            steps = int(round(1.0 / dz))
            coarse = el.split_step(bright_coeffs, perturbed, dz, steps, mode="ideal")
            fine = el.split_step(bright_coeffs, perturbed, dz / 4, steps * 4, mode="ideal")
            return np.linalg.norm(coarse.samples - fine.samples)

        ratio = error_at(1.0 / 200) / error_at(1.0 / 400)
        assert 3.0 < ratio < 5.0

    # 2^11 points give split_step's multiplier a 32 x 64 view, 2^14 (the
    # benchmark's grid) a square 128 x 128 one
    @pytest.mark.parametrize("points", [2**11, 2**14])
    def test_ideal_mode_matches_the_unfused_oracle(self, bright_coeffs, points):
        # 5% over the soliton amplitude: the pulse breathes, so every
        # substep changes the field
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        env = sample_envelope(soliton, points, 80.0 / points)
        env = el.Envelope(samples=env.samples * 1.05, dt_grid=env.dt_grid)
        out = el.split_step(bright_coeffs, env, 1.0 / 200, 200, mode="ideal")
        oracle = strang_oracle(bright_coeffs, env, 1.0 / 200, 200, "ideal")
        assert max_rel_diff(out.samples, oracle) <= 1e-12

    @pytest.mark.parametrize("points", [2**11, 2**14])
    def test_full_mode_matches_the_unfused_oracle(self, absorptive_coeffs, points):
        soliton = el.analytic_soliton(absorptive_coeffs, tau=1.0)
        env = sample_envelope(soliton, points, 80.0 / points, zeta=0.3)
        out = el.split_step(absorptive_coeffs, env, 1.0 / 200, 200, mode="full")
        oracle = strang_oracle(absorptive_coeffs, env, 1.0 / 200, 200, "full")
        assert out.zeta == pytest.approx(1.3)
        assert max_rel_diff(out.samples, oracle) <= 1e-12

    def test_run_split_at_a_checkpoint_matches_the_unfused_oracle(self, absorptive_coeffs):
        soliton = el.analytic_soliton(absorptive_coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        first = el.split_step(absorptive_coeffs, env, 1.0 / 200, 70, mode="full")
        second = el.split_step(absorptive_coeffs, first, 1.0 / 200, 130, mode="full")
        oracle = strang_oracle(absorptive_coeffs, env, 1.0 / 200, 200, "full")
        assert max_rel_diff(second.samples, oracle) <= 1e-12

    @pytest.mark.parametrize("mode", ["ideal", "full"])
    def test_zero_steps_return_the_input(self, absorptive_coeffs, mode):
        soliton = el.analytic_soliton(absorptive_coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048, zeta=0.4)
        out = el.split_step(absorptive_coeffs, env, 1.0 / 200, 0, mode=mode)
        assert np.array_equal(out.samples, env.samples)
        assert out.zeta == env.zeta

    def test_gain_divergence_raises(self):
        # Im theta > 0 amplifies.  dz passes the length limit, and the
        # opening half substep survives (1 - Im(theta)*A^2*dz = 0.6), but
        # the intensity it leaves makes 1 - 2 Im(theta) |u|^2 h negative
        # in the substep joining steps 1 and 2 (h = dz).
        coeffs = el.NlsCoefficients(kerr=0j, theta=0.001 + 1.0j, kappa2=1.0 + 0j, chi=0.0)
        n, dt, dz = 2048, 40.0 / 2048, 0.01
        amplitude = math.sqrt(0.4 / (coeffs.theta.imag * dz))
        t = (np.arange(n) - n // 2) * dt
        env = el.Envelope(samples=amplitude * np.exp(-t**2) + 0j, dt_grid=dt)
        with pytest.raises(el.StepTooLarge, match="gain"):
            el.split_step(coeffs, env, dz, 2, mode="full")

    def test_kerr_substep_rotation_matches_the_complex_exponential(self):
        # phases from 1e-12 to 1e3, plus the doubles around odd multiples of
        # pi, where tan(phi/2) reaches ~1e16.  With theta = h = 1 and a real
        # field, both sides see the same double phi = u*u.
        poles = np.pi * np.array([1.0, 3.0, 5.0, 101.0, 317.0])
        near = np.concatenate([np.nextafter(poles, 0.0), poles, np.nextafter(poles, 4e3)])
        phi = np.concatenate([np.logspace(-12, 3, 2001), near])
        u = np.sqrt(phi) + 0j
        phi = u.real * u.real
        assert np.max(np.abs(np.tan(phi / 2))) > 1e15
        expected = u * np.exp(-1j * 1.0 * np.abs(u) ** 2 * 1.0)
        work = (np.empty(u.size), np.empty(u.size), np.empty(u.size, dtype=complex))
        result = u.copy()
        nls._kerr_substep(result, 1.0 + 0j, 1.0, work)
        modulus = np.abs(u)
        assert np.max(np.abs(result - expected) / modulus) <= 1e-15
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.abs(result) - modulus) / modulus) <= 4 * eps

    def test_kerr_substep_phase_keeps_its_small_log_argument(self):
        # theta nearly real: 1 - 2 Im(theta) |u|^2 h rounds near 1, so the
        # phase has to come from log1p of the small term, not log of the sum
        theta, h = 1.0 + 1e-10j, 0.5
        intensity = np.linspace(0.01, 2.0, 512)
        u = np.sqrt(intensity) + 0j
        work = (np.empty(u.size), np.empty(u.size), np.empty(u.size, dtype=complex))
        nls._kerr_substep(u, theta, h, work)
        x = -2.0 * theta.imag * intensity * h
        expected = theta.real / (2.0 * theta.imag) * np.log1p(x)
        assert np.max(np.abs(np.angle(u) - expected) / np.abs(expected)) <= 1e-12
        assert np.allclose(np.abs(u), np.sqrt(intensity / (1.0 + x)), rtol=1e-14, atol=0)

    def test_step_too_large(self, bright_coeffs):
        soliton = el.analytic_soliton(bright_coeffs, tau=1.0)
        env = sample_envelope(soliton, 2048, 80.0 / 2048)
        with pytest.raises(el.StepTooLarge):
            el.split_step(bright_coeffs, env, dz=0.5, n_steps=1)

    def test_unpaired_kink_rejected(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        n, dt = 2048, 100.0 / 2048
        t = (np.arange(n) - n // 2) * dt
        env = el.Envelope(samples=soliton.envelope(t), dt_grid=dt)
        with pytest.raises(el.GridTooNarrow):
            el.split_step(dark_coeffs, env, dz=1.0 / 200, n_steps=1)

    def test_dark_pair_needs_wide_window(self, dark_coeffs):
        soliton = el.analytic_soliton(dark_coeffs, tau=1.0)
        with pytest.raises(el.GridTooNarrow):
            el.dark_pair_envelope(soliton, 1024, 60.0 / 1024)


class TestFidelity:
    def test_identical_envelopes(self):
        env = el.Envelope(samples=np.exp(-np.linspace(-4, 4, 256) ** 2) + 0j, dt_grid=0.1)
        assert el.soliton_fidelity(env, env) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        samples = np.exp(-np.linspace(-4, 4, 256) ** 2) + 0j
        a = el.Envelope(samples=samples, dt_grid=0.1)
        b = el.Envelope(samples=samples * np.exp(0.7j), dt_grid=0.1)
        assert el.soliton_fidelity(a, b) == pytest.approx(1.0)

    def test_grid_mismatch(self):
        a = el.Envelope(samples=np.ones(256) + 0j, dt_grid=0.1)
        b = el.Envelope(samples=np.ones(128) + 0j, dt_grid=0.1)
        with pytest.raises(el.GridMismatch):
            el.soliton_fidelity(a, b)
        c = el.Envelope(samples=np.ones(256) + 0j, dt_grid=0.2)
        with pytest.raises(el.GridMismatch):
            el.soliton_fidelity(a, c)

    def test_orthogonal_profiles_score_low(self):
        t = np.linspace(-4, 4, 256)
        a = el.Envelope(samples=np.exp(-(t**2)) + 0j, dt_grid=0.1)
        b = el.Envelope(samples=t * np.exp(-(t**2)) + 0j, dt_grid=0.1)
        assert el.soliton_fidelity(a, b) < 1e-12
