"""Field configuration, interference coefficients, and regime classification."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitlab as el
from eitlab.params import (
    NEGATIVE_DECAY_RATE,
    PROBE_NOT_PERTURBATIVE,
    ZERO_BRIGHT_COUPLING,
    config_from_dict,
    config_to_dict,
)
from conftest import cs_config

amplitudes = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def controls_strategy():
    return st.tuples(*(st.tuples(amplitudes, phases) for _ in range(4)))


class TestRabiField:
    def test_phase_normalized_into_half_open_interval(self):
        assert el.RabiField(1.0, 3 * np.pi).phase == pytest.approx(np.pi)
        assert el.RabiField(1.0, -np.pi).phase == pytest.approx(np.pi)
        assert el.RabiField(1.0, 0.3 - 4 * np.pi).phase == pytest.approx(0.3)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            el.RabiField(-1.0)

    def test_value_is_polar_form(self):
        f = el.RabiField(2.0, np.pi / 3)
        assert f.value == pytest.approx(2.0 * np.exp(1j * np.pi / 3))

    @given(amplitudes, phases)
    def test_value_magnitude_matches_amplitude(self, amp, phase):
        f = el.RabiField(amp, phase)
        assert abs(f.value) == pytest.approx(amp, rel=1e-12)
        assert -np.pi < f.phase <= np.pi


class TestDeriveCouplings:
    def test_regime_a_reference_values(self, fig4a):
        c = el.derive_couplings(fig4a)
        assert c.omega_total == pytest.approx(math.sqrt(0.8), rel=1e-14)
        assert abs(c.beta) == pytest.approx(0.44 / math.sqrt(0.8), rel=1e-12)
        assert abs(c.alpha) == pytest.approx(0.92 / math.sqrt(0.8), rel=1e-12)
        assert c.situation is el.Situation.A
        assert fig4a.phi == 0.0

    def test_balanced_products_kill_beta(self, fig4b):
        c = el.derive_couplings(fig4b)
        assert c.beta == 0.0
        assert c.situation is el.Situation.B

    def test_opposite_phase_symmetric_case_kills_alpha(self, fig4c):
        c = el.derive_couplings(fig4c)
        assert abs(c.alpha) <= 1e-15
        assert abs(c.beta) == pytest.approx(math.sqrt(2) * 0.2, rel=1e-12)
        assert c.situation is el.Situation.C

    def test_zero_upper_couplings_refused(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[1.0, 1.0, 0.0, 0.0], probe=0.01)
        with pytest.raises(el.ZeroBrightCoupling):
            el.derive_couplings(cfg)

    def test_degenerate_when_lower_couplings_vanish(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.0, 0.0, 0.5, 0.5], probe=0.0)
        assert el.derive_couplings(cfg).situation is el.Situation.DEGENERATE

    @settings(max_examples=300)
    @given(controls_strategy())
    def test_lagrange_identity(self, controls):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=controls)
        c = el.derive_couplings(cfg)
        lhs = abs(c.alpha) ** 2 + abs(c.beta) ** 2
        # (|o1|^2 + |o2|^2)(|o3|^2 + |o4|^2) / omega_total^2 collapses to the
        # lower-pair power because omega_total^2 is the upper-pair power.
        rhs = cfg.omega1.amplitude**2 + cfg.omega2.amplitude**2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @settings(max_examples=200)
    @given(controls_strategy(), st.floats(-6, 6))
    def test_common_lower_phase_shift_preserves_magnitudes_and_situation(self, controls, theta):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=controls)
        shifted = el.FieldConfig.in_gamma_units(1.0, controls=[
            (controls[0][0], controls[0][1] + theta),
            (controls[1][0], controls[1][1] + theta),
            controls[2], controls[3],
        ])
        a, b = el.derive_couplings(cfg), el.derive_couplings(shifted)
        assert abs(b.beta) == pytest.approx(abs(a.beta), rel=1e-9, abs=1e-12)
        assert abs(b.alpha) == pytest.approx(abs(a.alpha), rel=1e-9, abs=1e-12)
        assert b.situation is a.situation

    @settings(max_examples=200)
    @given(controls_strategy(), st.floats(-6, 6))
    def test_global_phase_preserves_magnitudes_and_situation(self, controls, theta):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=controls)
        shifted = el.FieldConfig.in_gamma_units(
            1.0, controls=[(a, p + theta) for a, p in controls])
        a, b = el.derive_couplings(cfg), el.derive_couplings(shifted)
        assert abs(b.beta) == pytest.approx(abs(a.beta), rel=1e-9, abs=1e-12)
        assert b.situation is a.situation

    @settings(max_examples=200)
    @given(controls_strategy(), st.floats(min_value=1e-3, max_value=1e3))
    def test_amplitude_scaling(self, controls, s):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=controls)
        scaled = el.FieldConfig.in_gamma_units(
            1.0, controls=[(a * s, p) for a, p in controls])
        a, b = el.derive_couplings(cfg), el.derive_couplings(scaled)
        assert abs(b.alpha) == pytest.approx(s * abs(a.alpha), rel=1e-9, abs=1e-12)
        assert abs(b.beta) == pytest.approx(s * abs(a.beta), rel=1e-9, abs=1e-12)
        assert b.situation is a.situation


class TestValidate:
    def test_reference_set_is_clean(self):
        assert el.validate(cs_config()) == []

    def test_strong_probe_flagged(self, fig4a):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=10.0 * 0.9)
        codes = [d.code for d in el.validate(cfg)]
        assert PROBE_NOT_PERTURBATIVE in codes

    def test_negative_decay_flagged(self):
        cfg = el.FieldConfig.in_gamma_units(
            1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01, gamma_b=-1.0)
        codes = [d.code for d in el.validate(cfg)]
        assert NEGATIVE_DECAY_RATE in codes

    def test_zero_upper_coupling_flagged(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[1.0, 1.0, 0.0, 0.0], probe=0.01)
        codes = [d.code for d in el.validate(cfg)]
        assert ZERO_BRIGHT_COUPLING in codes

    def test_validate_does_not_mutate(self, fig4a):
        before = config_to_dict(fig4a)
        el.validate(fig4a)
        assert config_to_dict(fig4a) == before


class TestConfigSchema:
    def test_roundtrip(self, fig4a):
        again = config_from_dict(config_to_dict(fig4a))
        assert again == fig4a

    def test_gamma_unit_scales_rates_only(self):
        data = {
            "gamma_unit": 2.0,
            "controls": [1.0, 1.0, 1.0, 1.0],
            "probe": 0.01,
            "detunings": {"p": 1.5, "two": 0.0, "three": 0.0},
            "decays": {"b": 1.0, "e": 1.0},
            "eta": 7.0,
        }
        cfg = config_from_dict(data)
        assert cfg.omega1.amplitude == 2.0
        assert cfg.delta_p == 3.0
        assert cfg.gamma_b == 2.0
        assert cfg.eta == 7.0

    def test_unknown_key_rejected(self):
        with pytest.raises(el.ConfigError):
            config_from_dict({"controls": [1, 1, 1, 1], "probe": 0, "nonsense": 1,
                              "detunings": {"p": 0, "two": 0, "three": 0},
                              "decays": {"b": 1, "e": 1}, "eta": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(el.ConfigError):
            config_from_dict({"controls": [1, 1, 1, 1]})

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(el.ConfigError):
            el.load_config(path)

    def test_presets_parse(self):
        from eitlab.cli import _resolve_config, preset_names
        from eitlab.params import load_run_config
        for name in preset_names():
            cfg, _pulse, _prop = load_run_config(_resolve_config(name))
            assert isinstance(cfg, el.FieldConfig)

    def test_load_config_rejects_non_object_run_sections(self, tmp_path):
        from eitlab.cli import _resolve_config
        data = json.loads(_resolve_config("cs_soliton").read_text(encoding="utf-8"))
        data["pulse"] = [1e-7]
        path = tmp_path / "list_pulse.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(el.ConfigError, match="must be JSON objects"):
            el.load_config(path)

    def test_load_config_skips_run_sections(self):
        from eitlab.cli import _resolve_config
        cfg = el.load_config(_resolve_config("cs_soliton"))
        assert cfg.delta_p == 5.9e9

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            cs_config(eta=-1.0)
