"""Shared fixtures and random-configuration helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import eitlab as el
from eitlab.response import _response_at

#: Cesium D2-scale decay rate used by the reference parameter set (s^-1).
GAMMA_CS = 2 * np.pi * 5.2e6

#: Calibration of the medium constant that reproduces the reference
#: dispersion scale (kappa0 ~ 3.9 cm^-1, v_g ~ 7e-3 c); the nominal quoted
#: value is 1.0e10 (see the README discussion of the eta calibration).
ETA_CALIBRATED = 5.0e10
ETA_NOMINAL = 1.0e10


def cs_config(eta: float = ETA_CALIBRATED, probe: float = 1.0e6) -> el.FieldConfig:
    """Cesium reference parameter set (detuned, interference regime A)."""
    return el.FieldConfig(
        omega1=el.RabiField(1.97e9),
        omega2=el.RabiField(1.97e9),
        omega3=el.RabiField(2.3e9),
        omega4=el.RabiField(1.64e8),
        omega_p=el.RabiField(probe),
        delta_p=5.9e9,
        delta_2=6.4e9,
        delta_3=8.2e8,
        gamma_b=GAMMA_CS,
        gamma_e=GAMMA_CS,
        eta=eta,
    )


@pytest.fixture
def fig4a() -> el.FieldConfig:
    return el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.01)


@pytest.fixture
def fig4b() -> el.FieldConfig:
    return el.FieldConfig.in_gamma_units(1.0, controls=[0.5, 0.5, 0.7, 0.7], probe=0.01)


@pytest.fixture
def fig4c() -> el.FieldConfig:
    return el.FieldConfig.in_gamma_units(
        1.0, controls=[(0.2, np.pi), 0.2, 0.1, 0.1], probe=0.01)


@pytest.fixture
def cs() -> el.FieldConfig:
    return cs_config()


def _fields_from_complex(values) -> list[el.RabiField]:
    return [el.RabiField(float(np.abs(v)), float(np.angle(v))) for v in values]


def random_config(rng: np.random.Generator, situation: str | None = None,
                  probe: float = 0.01, detuned: bool = True) -> el.FieldConfig:
    """Random gamma-unit configuration, optionally pinned to one regime.

    Regime B (beta = 0) and C (alpha = 0) are constructed exactly by solving
    for the fourth control; floating-point leftovers sit many orders below
    the classification threshold.
    """
    amps = rng.uniform(0.2, 1.5, size=4)
    phases = rng.uniform(-np.pi, np.pi, size=4)
    o = amps * np.exp(1j * phases)
    if situation == "B":
        o[3] = o[1] * o[2] / o[0]
    elif situation == "C":
        o[3] = -np.conj(o[0]) * o[2] / np.conj(o[1])
    f1, f2, f3, f4 = _fields_from_complex(o)
    if detuned:
        dp, d2, d3 = rng.uniform(-2.0, 2.0, size=3)
    else:
        dp, d2, d3 = rng.uniform(-2.0, 2.0), 0.0, 0.0
    cfg = el.FieldConfig(
        omega1=f1, omega2=f2, omega3=f3, omega4=f4,
        omega_p=el.RabiField(probe, float(rng.uniform(-np.pi, np.pi))),
        delta_p=float(dp), delta_2=float(d2), delta_3=float(d3),
        gamma_b=float(rng.uniform(0.5, 1.5)), gamma_e=float(rng.uniform(0.5, 1.5)),
        eta=1.0,
    )
    if situation is not None:
        assert el.derive_couplings(cfg).situation.value == situation
    return cfg


def random_nonsingular_config(rng: np.random.Generator, omega: float = 0.0,
                              **kwargs) -> el.FieldConfig:
    """Random config redrawn until the response denominator is comfortably
    away from the singular floor at the given sideband frequency."""
    for _ in range(100):
        cfg = random_config(rng, **kwargs)
        (t1, t2, t3), scalars, _singular = _response_at(cfg, omega)
        scale = max(abs(t1), abs(t2), abs(t3), cfg.control_scale) ** 4
        if abs(scalars[4]) > 1e-6 * scale:
            return cfg
    raise AssertionError("could not draw a nonsingular config in 100 tries")


def slowest_relaxation_rate(cfg: el.FieldConfig) -> float:
    """Smallest damping rate of the coherence generator (s^-1)."""
    from eitlab.response import bloch_generator

    generator, _drive = bloch_generator(cfg)
    return float(np.min(-np.linalg.eigvals(generator).real))


def random_damped_config(rng: np.random.Generator, min_rate: float = 0.05,
                         **kwargs) -> el.FieldConfig:
    """Random nonsingular config whose slowest relaxation is not too slow,
    so a fixed integration window reaches the steady state."""
    for _ in range(200):
        cfg = random_nonsingular_config(rng, **kwargs)
        if slowest_relaxation_rate(cfg) >= min_rate:
            return cfg
    raise AssertionError("could not draw a well-damped config in 200 tries")


def undamped_pole_config() -> el.FieldConfig:
    """A genuine pole: undamped, resonant regime A at a real zero of q.

    On resonance q = (x - w12)(x - w34) - |alpha*omega|^2 with x = delta_p^2
    has real roots; beta != 0, so no finite limit exists at the smaller one.
    """
    amps = (0.9, 0.7, 0.4, 0.8)
    w12, w34 = amps[0] ** 2 + amps[1] ** 2, amps[2] ** 2 + amps[3] ** 2
    a2 = (amps[0] * amps[2] + amps[1] * amps[3]) ** 2
    root = np.sqrt((w12 + w34 - np.sqrt((w12 - w34) ** 2 + 4.0 * a2)) / 2.0)
    return el.FieldConfig.in_gamma_units(1.0, controls=list(amps), probe=0.01,
                                         delta_p=float(root), gamma_b=0.0, gamma_e=0.0)


def oracle_taylor(cfg: el.FieldConfig, h: float) -> np.ndarray:
    """kappa0, kappa1, kappa2 of a degree-7 fit to 4x4-oracle kappa at omega = +-h..+-4h.

    omega = 0 itself is left out, so the fit reaches the carrier also where
    the 4x4 system is singular there.
    """
    w = h * np.array([-4, -3, -2, -1, 1, 2, 3, 4], dtype=float)
    kappa = [x / cfg.c_light + cfg.eta * el.solve_direct(cfg, x).rho_ba / cfg.omega_p.value
             for x in w]
    return np.polynomial.polynomial.polyfit(w, kappa, 7)[:3]


def kerr_from_coherences(cfg: el.FieldConfig) -> complex:
    """Independent composition: coherence products over the probe cube."""
    sol = el.solve_direct(cfg, 0.0)
    probe = cfg.omega_p.value
    total = float(np.sum(np.abs(sol.as_array()) ** 2))
    return sol.rho_ba * total / (probe * abs(probe) ** 2)


def kerr_limit(cfg: el.FieldConfig, d: float = 1e-6) -> complex:
    """``kerr_from_coherences`` approached through delta_p -> cfg.delta_p.

    The mean over delta_p +- d cancels the linear term, so it is off by O(d^2)
    and never asks the 4x4 oracle for the point itself.
    """
    return 0.5 * (kerr_from_coherences(cfg.with_delta_p(cfg.delta_p + d))
                  + kerr_from_coherences(cfg.with_delta_p(cfg.delta_p - d)))


def report(criterion: int, passed: bool, detail: str) -> None:
    """One pass/fail line per acceptance criterion, printed eagerly."""
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {status} - {detail}", flush=True)
