"""Contracts of the shared numeric kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitlab.errors import BadLength, NumericalError, SingularMatrix, StepTooLarge
from eitlab.numerics import (
    Envelope,
    central_difference,
    fft,
    fourier_multiplier,
    ifft,
    prominent_peaks,
    richardson_derivative,
    rk4_linear,
    solve4,
)


class TestSolve4:
    def test_identity(self):
        rhs = np.array([1.0, 2.0j, -3.0, 4.0 + 1j])
        assert np.allclose(solve4(np.eye(4), rhs), rhs)

    def test_diagonal_reciprocal(self):
        diag = np.array([2.0, 3.0j, -1.0, 1.0 + 1.0j])
        x = solve4(np.diag(diag), np.ones(4))
        assert np.allclose(x, 1.0 / diag)

    def test_random_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = solve4(a, b)
            residual = np.linalg.norm(a @ x - b)
            assert residual <= 1e-12 * np.linalg.norm(a) * max(np.linalg.norm(x), 1e-30)

    def test_singular_raises(self):
        a = np.ones((4, 4), dtype=complex)
        with pytest.raises(SingularMatrix):
            solve4(a, np.ones(4))

    def test_zero_row_raises(self):
        a = np.eye(4, dtype=complex)
        a[2] = 0.0
        with pytest.raises(SingularMatrix):
            solve4(a, np.ones(4))


class TestFft:
    def test_delta_impulse_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft(x), np.ones(16))

    def test_pure_tone_single_bin(self):
        n, k = 64, 5
        x = np.exp(2j * np.pi * k * np.arange(n) / n)
        spectrum = np.abs(fft(x))
        assert spectrum[k] == pytest.approx(n)
        spectrum[k] = 0.0
        assert np.max(spectrum) < 1e-9 * n

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        back = ifft(fft(x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_parseval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(fft(x)) ** 2) / x.size
        assert rhs == pytest.approx(lhs, rel=1e-12)

    @given(st.integers(min_value=3, max_value=100).filter(lambda n: n & (n - 1)))
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(BadLength):
            fft(np.zeros(n, dtype=complex))

    @settings(max_examples=50)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_linearity(self, a, b):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        lhs = fft(a * x + b * y)
        rhs = a * fft(x) + b * fft(y)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestFourierMultiplier:
    @staticmethod
    def factors(n: int, rng: np.random.Generator) -> list[np.ndarray]:
        omega = 2 * np.pi * np.fft.fftfreq(n, d=80.0 / n)
        return [
            # unit modulus, as in ideal mode
            np.exp(1j * rng.uniform(-np.pi, np.pi, n)),
            # full mode's complex kappa2 damps high frequencies: |factor| < 1
            np.exp(1j * (1.0 + 0.02j) * omega**2 / 200),
            # arbitrary complex values
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
        ]

    @pytest.mark.parametrize("exponent", range(1, 17))
    def test_matches_the_one_dimensional_fft_triple(self, exponent):
        # odd exponents give an n1 x 2*n1 view, even ones a square view
        n = 2**exponent
        rng = np.random.default_rng(exponent)
        for factor in self.factors(n, rng):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = np.fft.ifft(factor * np.fft.fft(u))
            result = fourier_multiplier(factor)(u)
            assert result is u
            assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_applies_the_same_tables_every_call(self):
        rng = np.random.default_rng(5)
        factor = self.factors(1024, rng)[0]
        apply = fourier_multiplier(factor)
        u = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        expected = u.copy()
        for _ in range(3):
            apply(u)
            expected = np.fft.ifft(factor * np.fft.fft(expected))
        assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 1000])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(BadLength):
            fourier_multiplier(np.ones(n, dtype=complex))

    def test_non_contiguous_input_rejected(self):
        # a reshape of a strided view copies, so the result would be lost
        apply = fourier_multiplier(np.ones(64, dtype=complex))
        backing = np.zeros(128, dtype=complex)
        with pytest.raises(ValueError, match="C-contiguous"):
            apply(backing[::2])

    @pytest.mark.parametrize("u", [np.zeros(32, dtype=complex), np.zeros(64),
                                   np.zeros(64, dtype=np.complex64)])
    def test_wrong_length_or_dtype_rejected(self, u):
        apply = fourier_multiplier(np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            apply(u)


class TestRk4:
    def test_zero_generator_linear_growth(self):
        drive = np.array([1.0, -2.0j, 0.5, 0.0])
        state = rk4_linear(np.zeros((4, 4)), drive, np.zeros(4), dt=0.1, steps=30)
        assert np.allclose(state, drive * 3.0, rtol=1e-14)

    def test_scalar_exponential(self):
        g = np.array([[-1.0 + 0j]])
        state = rk4_linear(g, np.zeros(1), np.ones(1), dt=0.01, steps=100)
        assert abs(state[0] - np.exp(-1.0)) < 1e-8

    def test_damped_system_reaches_solve4_steady_state(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g = -(a @ a.conj().T) - 0.5 * np.eye(4)  # negative definite: damped
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dt = 0.19 / np.linalg.norm(g, 2)
        state = rk4_linear(g, b, np.zeros(4), dt=dt, steps=4000)
        expected = solve4(-g, b)
        assert np.linalg.norm(state - expected) < 1e-9 * np.linalg.norm(expected)

    def test_fourth_order_convergence(self):
        g = np.array([[-1.0 + 0.3j]])
        exact = np.exp(g[0, 0])
        err = []
        for dt in (0.02, 0.01):
            state = rk4_linear(g, np.zeros(1), np.ones(1), dt=dt, steps=int(round(1 / dt)))
            err.append(abs(state[0] - exact))
        ratio = err[0] / err[1]
        assert 12 < ratio < 20  # halving dt cuts the error ~16x

    def test_step_too_large(self):
        g = np.array([[-100.0 + 0j]])
        with pytest.raises(StepTooLarge):
            rk4_linear(g, np.zeros(1), np.ones(1), dt=0.01, steps=1)


class TestDerivatives:
    def test_first_derivative_of_cubic_is_exact(self):
        f = lambda x: x**3 + 2 * x
        d = richardson_derivative(f, 1.0, h=0.1, order=1)
        assert d == pytest.approx(5.0, rel=1e-12)

    def test_second_derivative_analytic(self):
        f = np.exp
        d = richardson_derivative(f, 0.3, h=1e-2, order=2)
        assert d == pytest.approx(np.exp(0.3), rel=1e-9)

    def test_central_difference_orders(self):
        with pytest.raises(ValueError):
            central_difference(np.exp, 0.0, 0.1, order=3)


class TestPeaks:
    def test_two_clean_peaks(self):
        x = np.linspace(0, 1, 501)
        y = np.exp(-((x - 0.3) ** 2) / 1e-3) + 0.8 * np.exp(-((x - 0.7) ** 2) / 1e-3)
        assert len(prominent_peaks(y, 0.01 * y.max())) == 2

    def test_low_prominence_ripple_ignored(self):
        x = np.linspace(0, 4 * np.pi, 400)
        y = np.exp(-((x - 6.0) ** 2)) + 1e-4 * np.sin(40 * x)
        assert len(prominent_peaks(y, 0.01 * y.max())) == 1

    def test_shoulder_not_counted(self):
        # peak riding on a larger one with a shallow valley: prominence rule
        x = np.linspace(-3, 3, 601)
        y = np.exp(-(x**2)) + 0.004 * np.exp(-((x - 1.0) ** 2) / 0.01)
        assert len(prominent_peaks(y, 0.01 * y.max())) == 1

    def test_plateau_is_not_strict_maximum(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert prominent_peaks(y, 0.0) == []

    def test_edges_never_count(self):
        y = np.array([5.0, 1.0, 0.5, 3.0])
        assert prominent_peaks(y, 0.0) == []

    @staticmethod
    def brute_force(y, floor):
        # walk out from each strict maximum to the first sample at least as
        # high; the lowest sample passed on the way is that side's valley
        peaks = []
        for i in range(1, len(y) - 1):
            if not y[i - 1] < y[i] > y[i + 1]:
                continue
            valleys = []
            for side in (range(i - 1, -1, -1), range(i + 1, len(y))):
                lowest = y[i]
                for j in side:
                    if y[j] >= y[i]:
                        break
                    lowest = min(lowest, y[j])
                valleys.append(lowest)
            if y[i] - max(valleys) >= floor:
                peaks.append(i)
        return peaks

    @settings(max_examples=300)
    @given(st.one_of(
        st.lists(st.integers(0, 4).map(float), max_size=40),
        st.lists(st.floats(-100, 100), max_size=40),
    ))
    def test_matches_brute_force_prominence(self, values):
        # small integers give ties, plateaus and maxima at the edges
        for floor in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 50.0):
            assert prominent_peaks(np.array(values), floor) == self.brute_force(values, floor)


class TestEnvelope:
    def test_times(self):
        env = Envelope(samples=np.zeros(4), dt_grid=0.5)
        assert np.array_equal(env.times(), [-1.0, -0.5, 0.0, 0.5])
        assert env.zeta == 0.0

    def test_frequencies_follow_the_exp_minus_i_omega_t_convention(self):
        # a sample of exp(-i w0 t) puts all its power in the bin of +w0
        n, dt = 64, 0.25
        env = Envelope(samples=np.zeros(n), dt_grid=dt)
        w0 = 2 * np.pi * 5 / (n * dt)
        k = int(np.argmax(np.abs(np.fft.fft(np.exp(-1j * w0 * env.times())))))
        assert env.frequencies()[k] == pytest.approx(w0, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_too_short(self, n):
        with pytest.raises(BadLength):
            Envelope(samples=np.zeros(n), dt_grid=1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_bad_spacing(self, dt):
        with pytest.raises(ValueError):
            Envelope(samples=np.zeros(4), dt_grid=dt)

    def test_non_finite_samples(self):
        with pytest.raises(ValueError):
            Envelope(samples=np.array([0.0, 1.0, np.inf, 0.0]), dt_grid=1.0)

    def test_advanced_names_the_distance_of_a_non_finite_field(self):
        env = Envelope(samples=np.ones(4), dt_grid=1.0, zeta=0.5)
        assert env.advanced(np.full(4, 2.0 + 0j), 1.5).zeta == 2.0
        with pytest.raises(NumericalError, match="zeta = 2 cm"):
            env.advanced(np.array([1.0, np.nan, 1.0, 1.0]), 1.5)
