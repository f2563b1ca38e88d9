"""Linear response: closed forms vs direct-solve and time-domain oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitlab as el
from eitlab.response import bloch_generator, coherences_beta0_limit
from conftest import random_config, random_nonsingular_config, undamped_pole_config

#: Largest condition number at which the 4x4 oracle is trusted to 1e-10.
ORACLE_MAX_COND = 1e-10 / np.finfo(float).eps


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


class TestFourierContext:
    def test_drift_terms(self, fig4a):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01,
            delta_p=0.3, delta_2=0.5, delta_3=-0.2, gamma_b=1.2, gamma_e=0.8)
        omega = 0.7
        ctx = el.fourier_context(cfg, omega)
        assert ctx.t1 == pytest.approx(omega + 1.2j / 2 + 0.3)
        assert ctx.t2 == pytest.approx(omega + 0.3 - 0.5)
        assert ctx.t3 == pytest.approx(omega + 0.8j / 2 + 0.3 - 0.5 - 0.2)

    def test_full_resonance_kills_numerator(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01)
        ctx = el.fourier_context(cfg, 0.0)
        assert ctx.t2 == 0
        assert ctx.s1 == 0

    def test_reference_point_is_regular(self, fig4a):
        ctx = el.fourier_context(fig4a.with_delta_p(1.0), 0.0)
        assert ctx.s1 != 0 and abs(ctx.q) > 0

    def test_phase_dependence_of_denominator(self):
        # the closed-loop cross term: q picks up -4 * product of amplitudes
        # when the loop phase goes 0 -> pi (the |beta*omega|^2 sign flip)
        amps = (0.9, 0.7, 0.4, 0.8)
        base = el.FieldConfig.in_gamma_units(
            1.0, controls=list(amps), probe=0.01, delta_p=0.6)
        flipped = el.FieldConfig.in_gamma_units(
            1.0, controls=[(amps[0], np.pi)] + list(amps[1:]), probe=0.01, delta_p=0.6)
        q0 = el.fourier_context(base, 0.0).q
        qpi = el.fourier_context(flipped, 0.0).q
        expected = -4.0 * amps[0] * amps[1] * amps[2] * amps[3]
        assert (q0 - qpi) == pytest.approx(expected, rel=1e-12)


class TestCoherencesFourier:
    def test_transparency_at_line_center_regime_a(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01)
        sol = el.coherences_fourier(cfg, 0.0)
        assert sol.rho_ba == 0

    def test_linearity_in_probe(self, fig4a):
        cfg = fig4a.with_delta_p(0.8)
        one = el.coherences_fourier(cfg, 0.0).as_array()
        three = el.coherences_fourier(
            el.FieldConfig.in_gamma_units(
                1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.03, delta_p=0.8),
            0.0).as_array()
        assert np.allclose(three, 3.0 * one, rtol=1e-12)

    def test_singular_denominator_raises(self, fig4b):
        # regime B at exact two-photon resonance: q = 0, but t2 cancels and the
        # reduced form gives the finite limit, next to the 4x4 oracle's values
        limit = el.coherences_fourier(fig4b, 0.0).as_array()
        nearby = el.solve_direct(fig4b.with_delta_p(1e-7), 0.0).as_array()
        assert rel_diff(limit, nearby) < 1e-6
        # a genuine pole has no finite value
        with pytest.raises(el.SingularDenominator):
            el.coherences_fourier(undamped_pole_config(), 0.0)

    def test_beta0_limit_matches_nearby_values(self, fig4b, fig4a):
        limit = coherences_beta0_limit(fig4b, 0.0).as_array()
        nearby = el.solve_direct(fig4b.with_delta_p(1e-7), 0.0).as_array()
        assert rel_diff(limit, nearby) < 1e-5
        with pytest.raises(el.SingularDenominator):
            coherences_beta0_limit(fig4a, 0.0)  # beta != 0: no reduced form

    def test_matches_direct_solve_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            cfg = random_nonsingular_config(rng)
            omega = float(rng.uniform(-2, 2))
            try:
                closed = el.coherences_fourier(cfg, omega).as_array()
            except el.SingularDenominator:
                continue
            direct = el.solve_direct(cfg, omega).as_array()
            assert rel_diff(closed, direct) < 1e-10


class TestSolveDirect:
    def test_bare_two_level_limit(self):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0, 0, 0, 0], probe=0.01, delta_p=0.7, gamma_b=1.0, gamma_e=1.0)
        sol = el.solve_direct(cfg, 0.0)
        t1 = 0.7 + 0.5j
        assert sol.rho_ba == pytest.approx(-0.01 / t1, rel=1e-14)
        assert sol.rho_ca == 0 and sol.rho_da == 0 and sol.rho_ea == 0

    def test_equations_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_nonsingular_config(rng)
            omega = float(rng.uniform(-2, 2))
            sol = el.solve_direct(cfg, omega)
            ctx = el.fourier_context(cfg, omega)
            o1, o2, o3, o4 = cfg.control_values
            f = sol.as_array()
            equations = np.array([
                ctx.t1 * f[0] + o1 * f[1] + o2 * f[2] + cfg.omega_p.value,
                ctx.t2 * f[1] + np.conj(o1) * f[0] + np.conj(o3) * f[3],
                ctx.t2 * f[2] + np.conj(o2) * f[0] + np.conj(o4) * f[3],
                ctx.t3 * f[3] + o3 * f[1] + o4 * f[2],
            ])
            scale = max(np.max(np.abs(f)) * cfg.rate_scale, abs(cfg.omega_p.value))
            assert np.max(np.abs(equations)) < 1e-12 * scale

    def test_singular_matrix_raises(self, fig4b):
        with pytest.raises(el.SingularMatrix):
            el.solve_direct(fig4b, 0.0)


class TestSteadyStateClosedForms:
    def test_lambda_reduction_transparent_at_line_center(self, fig4c):
        assert el.steady_state_lambda(fig4c) == 0

    def test_no_interference_absorbs_at_line_center(self, fig4b):
        value = el.steady_state_no_interference(fig4b)
        # independently derived reduced value: probe * w34 / (ge*w12/2 + gb*w34/2)
        assert value == pytest.approx(0.013243243243243243j, rel=1e-12)
        assert value.imag > 0

    def test_interference_form_matches_general_solution(self, fig4a):
        for dp in np.linspace(-5.0, 5.0, 101):
            cfg = fig4a.with_delta_p(float(dp))
            closed = el.steady_state_interference(cfg)
            general = el.coherences_fourier(cfg, 0.0).rho_ba
            assert abs(closed - general) <= 1e-10 * max(abs(general), 1e-300)

    def test_no_interference_is_beta_to_zero_limit(self, fig4b):
        for dp in np.linspace(-4.7, 4.7, 51):
            if abs(dp) < 1e-9:
                continue  # the general form has the removable 0/0 there
            cfg = fig4b.with_delta_p(float(dp))
            reduced = el.steady_state_no_interference(cfg)
            general = el.steady_state_interference(cfg)
            assert abs(reduced - general) <= 1e-10 * abs(general)

    def test_lambda_form_matches_general_solution(self, fig4c):
        for dp in np.linspace(-5.0, 5.0, 101):
            cfg = fig4c.with_delta_p(float(dp))
            closed = el.steady_state_lambda(cfg)
            general = el.coherences_fourier(cfg, 0.0).rho_ba
            assert abs(closed - general) <= 1e-10 * max(abs(general), 1e-300)

    def test_preconditions_enforced(self, fig4a, fig4b, fig4c):
        detuned = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01, delta_2=0.5)
        with pytest.raises(el.PreconditionViolated):
            el.steady_state_interference(detuned)
        with pytest.raises(el.PreconditionViolated):
            el.steady_state_no_interference(fig4a)  # beta != 0
        with pytest.raises(el.PreconditionViolated):
            el.steady_state_lambda(fig4b)  # alpha != 0
        asymmetric = el.FieldConfig.in_gamma_units(
            1.0, controls=[(0.2, np.pi), 0.2, 0.1, 0.2], probe=0.01)
        with pytest.raises(el.PreconditionViolated):
            el.steady_state_lambda(asymmetric)


    @pytest.mark.parametrize("form, controls", [
        ("interference", [0.9, 0.7, 0.4, 0.8]),  # fig4a
        ("interference", [(0.2, np.pi), 0.2, 0.1, 0.1]),  # fig4c
        ("no_interference", [0.5, 0.5, 0.7, 0.7]),  # fig4b
        ("lambda", [(0.2, np.pi), 0.2, 0.1, 0.1]),  # fig4c
    ])
    def test_closed_forms_are_unit_free(self, form, controls):
        # rho_ba is dimensionless: the same config quoted in any unit of
        # gamma gives the same value, the one coherence_point gives
        closed = getattr(el, f"steady_state_{form}")
        for unit in (1.0, 1e-3, 1e-6):
            cfg = el.FieldConfig.in_gamma_units(unit, controls=controls, probe=0.01,
                                                delta_p=0.3)
            reference = el.coherence_point(cfg, cfg.delta_p).rho_ba
            assert closed(cfg) == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("unit", [1.0, 1e-3, 1e-6])
    def test_zero_denominators_refuse_in_every_unit(self, unit):
        def config(controls, delta_p=0.0, gamma_b=1.0, gamma_e=1.0):
            return el.FieldConfig.in_gamma_units(unit, controls=controls, probe=0.01,
                                                 delta_p=delta_p, gamma_b=gamma_b,
                                                 gamma_e=gamma_e)
        # beta = 0 at line centre: |b omega|^2 is the whole denominator
        with pytest.raises(el.SingularDenominator):
            el.steady_state_interference(config([0.5, 0.5, 0.7, 0.7]))
        # no decay at line centre: every term of the cubic vanishes
        with pytest.raises(el.SingularDenominator):
            el.steady_state_no_interference(
                config([0.5, 0.5, 0.7, 0.7], gamma_b=0.0, gamma_e=0.0))
        # undamped lambda probed at delta_p = |beta|: |beta|^2 - delta_p^2 = 0
        lam = config([(0.2, np.pi), 0.2, 0.1, 0.1], gamma_b=0.0)
        beta = abs(el.derive_couplings(lam).beta)
        with pytest.raises(el.SingularDenominator):
            el.steady_state_lambda(lam.with_delta_p(beta))


class TestBlochEvolve:
    def test_reference_point_matches_closed_form(self, fig4a):
        cfg = fig4a.with_delta_p(1.0)
        evolved = el.bloch_evolve(cfg, duration=200.0)
        closed = el.steady_state_interference(cfg)
        assert abs(evolved.rho_ba - closed) < 1e-6 * abs(closed)

    def test_zero_probe_stays_zero(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.0)
        sol = el.bloch_evolve(cfg, duration=50.0)
        assert np.all(sol.as_array() == 0)

    def test_undamped_detuned_never_converges(self):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01,
            delta_p=1.0, gamma_b=0.0, gamma_e=0.0)
        with pytest.raises(el.NonConvergence):
            el.bloch_evolve(cfg, duration=50.0)

    def test_matches_fourier_randomized(self):
        from conftest import random_damped_config, slowest_relaxation_rate

        rng = np.random.default_rng(12)
        for _ in range(8):
            cfg = random_damped_config(rng)
            closed = el.coherences_fourier(cfg, 0.0).as_array()
            duration = 35.0 / slowest_relaxation_rate(cfg)
            evolved = el.bloch_evolve(cfg, duration=duration).as_array()
            assert rel_diff(evolved, closed) < 1e-6


class TestSpectrum:
    def test_peak_counts(self, fig4a, fig4b, fig4c):
        assert el.count_peaks(el.absorption_spectrum(fig4a)) == 4
        assert el.count_peaks(el.absorption_spectrum(fig4b)) == 3
        assert el.count_peaks(el.absorption_spectrum(fig4c)) == 2

    def test_grid_refinement_stability(self, fig4a, fig4b, fig4c):
        for cfg, expected in ((fig4a, 4), (fig4b, 3), (fig4c, 2)):
            assert el.count_peaks(el.absorption_spectrum(cfg, points=4001)) == expected

    def test_transparency_points(self, fig4a, fig4c):
        # exact zero at line center in the interference regimes
        for cfg in (fig4a, fig4c):
            sol = el.coherences_fourier(cfg, 0.0)
            assert sol.rho_ba == 0

    def test_regime_b_absorbs_at_line_center(self, fig4b):
        spec = el.absorption_spectrum(fig4b, grid_min=-1.0, grid_max=1.0, points=201)
        center = spec.im_rho_ba[100]
        assert center == pytest.approx(0.013243243243243243, rel=1e-10)

    def test_spectrum_invariants(self, fig4a):
        spec = el.absorption_spectrum(fig4a, points=101)
        assert spec.delta_p.size == 101
        assert np.all(np.diff(spec.delta_p) > 0)
        with pytest.raises(ValueError):
            el.Spectrum(delta_p=np.array([0.0, 1.0]), coherences=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            el.absorption_spectrum(fig4a, points=2)

    def test_singular_point_bridged_not_fatal(self, fig4b):
        # regime B hits q = 0 exactly at delta_p = 0; the spectrum must not
        # blow up there and the trace stays finite
        spec = el.absorption_spectrum(fig4b, grid_min=-0.01, grid_max=0.01, points=5)
        assert np.all(np.isfinite(spec.im_rho_ba))


class TestArrayKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), situation=st.sampled_from("ABC"),
           detuned=st.booleans(), below=st.integers(1, 40), above=st.integers(1, 40),
           exponent=st.integers(1, 5))
    def test_grid_matches_points_and_oracles(self, seed, situation, detuned, below, above,
                                             exponent):
        # spacing 2^-exponent and integer end points put delta_p = 0 exactly on
        # the grid; in regime B without detunings q vanishes there
        cfg = random_config(np.random.default_rng(seed), situation=situation, detuned=detuned)
        step = 2.0**-exponent
        spec = el.absorption_spectrum(cfg, -below * step, above * step, below + above + 1)
        assert spec.delta_p[below] == 0.0
        for dp, row in zip(spec.delta_p, spec.coherences):
            local = cfg.with_delta_p(float(dp))
            point = el.coherence_point(cfg, float(dp))
            if point is None:
                assert np.isnan(row).all()
                continue
            assert rel_diff(row, point.as_array()) <= 1e-13
            if np.linalg.cond(bloch_generator(local)[0]) <= ORACLE_MAX_COND:
                assert rel_diff(row, el.solve_direct(local, 0.0).as_array()) < 1e-10
            else:
                # the 4x4 system is (nearly) singular here; the beta = 0 limit
                # must join its neighbours
                nearby = el.solve_direct(cfg.with_delta_p(float(dp) + 1e-7), 0.0)
                assert rel_diff(row, nearby.as_array()) < 1e-5

    def test_no_finite_value_stays_nan(self):
        # undamped, resonant regime A: q has real zeros at delta_p = +-root, and
        # beta != 0 leaves no finite limit there
        pole = undamped_pole_config()
        root, cfg = pole.delta_p, pole.with_delta_p(0.0)
        spec = el.absorption_spectrum(cfg, -root, root, 3)
        assert np.isnan(spec.coherences[[0, 2]].view(float)).all()
        assert np.isfinite(spec.coherences[1]).all()
        assert el.coherence_point(cfg, root) is None
        with pytest.raises(el.SingularDenominator):
            coherences_beta0_limit(pole, 0.0)

    def test_beta_zero_test_is_unit_free(self):
        # |beta| ~ 7e-10 gamma is far above CLASSIFICATION_RTOL * control_scale,
        # so the tilted config is regime A in every unit system; its resonance
        # q = |beta*Omega|^2 is below the floor and has no finite value.  The
        # phi = 0 twin is regime B, whose N-type value scales as 1/gamma_unit
        # at a fixed absolute probe.
        def config(gamma_unit, phase):
            return el.FieldConfig.in_gamma_units(
                gamma_unit, controls=[(1e-3, phase), 1e-3, 1e-3, 1e-3], probe=0.01 / gamma_unit)

        reference = el.coherence_point(config(1.0, 0.0), 0.0).as_array()
        assert reference[0] == pytest.approx(0.01j, rel=1e-12)
        for gamma_unit in (1.0, 1e3, 1e7):
            tilted = config(gamma_unit, 1e-6)
            assert el.derive_couplings(tilted).situation is el.Situation.A
            assert el.coherence_point(tilted, 0.0) is None
            twin = el.coherence_point(config(gamma_unit, 0.0), 0.0)
            assert rel_diff(twin.as_array() * gamma_unit, reference) < 1e-12
