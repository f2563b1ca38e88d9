"""Physical inputs of the five-level tripod-plus-lambda medium.

Units: every angular frequency (Rabi amplitudes, detunings, decay rates) is
in s^-1, lengths in cm, the medium coupling constant ``eta`` in cm^-1 s^-1,
and the vacuum light speed in cm/s.  A convenience constructor accepts
values quoted in multiples of a single rate ``gamma``.

The four control fields couple the ground pair (|c>, |d>) to the two excited
states |b> and |e>; the weak probe drives |a> <-> |b>.  The interference
coefficients derived here (``alpha``, ``beta``) decide whether the scheme
behaves like the full five-level loop, an N-type chain, or a plain lambda
system, and every other module keys off that classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import ConfigError, ZeroBrightCoupling

#: Vacuum speed of light in cm/s; stored on each config so unit systems stay
#: consistent end to end.
C_LIGHT = 2.99792458e10

#: Relative tolerance used to call an interference coefficient "zero".
#: Relative to the control amplitude scale so classification is invariant
#: under rescaling all four controls.
CLASSIFICATION_RTOL = 1e-9


def _normalize_phase(phase: float) -> float:
    # Store phases in (-pi, pi] so equality tests are well defined.
    p = math.remainder(phase, math.tau)
    if p == -math.pi:
        p = math.pi
    return p


@dataclass(frozen=True)
class RabiField:
    """One driving field: amplitude >= 0 (s^-1) and phase in radians.

    ``value`` (amplitude * exp(i*phase)) is the single source of truth for
    every formula; amplitude and phase exist for construction and reporting.
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not (self.amplitude >= 0.0) or not math.isfinite(self.amplitude):
            raise ValueError(f"field amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.phase):
            raise ValueError(f"field phase must be finite, got {self.phase}")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "phase", _normalize_phase(float(self.phase)))

    @property
    def value(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))

    @classmethod
    def coerce(cls, spec) -> "RabiField":
        """Accept a RabiField, a bare amplitude, or an (amplitude, phase) pair."""
        if isinstance(spec, RabiField):
            return spec
        if isinstance(spec, (tuple, list)):
            amplitude, phase = spec
            return cls(float(amplitude), float(phase))
        return cls(float(spec))


class Situation(Enum):
    """Interference regime of the four control fields."""

    A = "A"  # both coefficients nonzero: full five-level loop
    B = "B"  # beta = 0: N-type chain, one ground superposition decouples
    C = "C"  # alpha = 0: lambda system decoupled from a two-level remnant
    DEGENERATE = "Degenerate"  # both coefficients zero


@dataclass(frozen=True)
class FieldConfig:
    """Complete physical input state: five fields, detunings, decays, medium.

    ``delta_p`` is the probe detuning, ``delta_2`` the shared two-photon
    detuning of the lower control pair, ``delta_3`` the shared detuning of
    the upper control pair.  ``gamma_b`` / ``gamma_e`` are the excited-state
    decay rates.  ``eta`` is the single medium constant multiplying the
    coherence in the wave equation (atomic density, probe frequency and
    dipole moment are absorbed into it).
    """

    omega1: RabiField
    omega2: RabiField
    omega3: RabiField
    omega4: RabiField
    omega_p: RabiField
    delta_p: float = 0.0
    delta_2: float = 0.0
    delta_3: float = 0.0
    gamma_b: float = 0.0
    gamma_e: float = 0.0
    eta: float = 1.0
    c_light: float = C_LIGHT

    def __post_init__(self):
        for name in ("delta_p", "delta_2", "delta_3", "gamma_b", "gamma_e", "eta", "c_light"):
            x = getattr(self, name)
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.c_light <= 0:
            raise ValueError(f"c_light must be > 0, got {self.c_light}")

    # -- derived views -------------------------------------------------

    @property
    def controls(self) -> tuple[RabiField, RabiField, RabiField, RabiField]:
        return (self.omega1, self.omega2, self.omega3, self.omega4)

    @property
    def control_values(self) -> tuple[complex, complex, complex, complex]:
        return tuple(f.value for f in self.controls)

    @property
    def omega_total(self) -> float:
        """Quadrature sum of the two couplings into the upper excited state."""
        return math.hypot(self.omega3.amplitude, self.omega4.amplitude)

    @property
    def phi(self) -> float:
        """Closed-loop relative phase (phi1 - phi2) - (phi3 - phi4)."""
        return _normalize_phase(
            (self.omega1.phase - self.omega2.phase) - (self.omega3.phase - self.omega4.phase)
        )

    @property
    def control_scale(self) -> float:
        return max(f.amplitude for f in self.controls)

    @property
    def gamma_char(self) -> float:
        """Characteristic decay rate (largest of the two)."""
        return max(self.gamma_b, self.gamma_e)

    @property
    def gamma_scale(self) -> float:
        """``gamma_char``, or the largest rate (at least 1) when nothing decays."""
        return self.gamma_char if self.gamma_char > 0 else max(self.rate_scale, 1.0)

    @property
    def rate_scale(self) -> float:
        """Largest rate in the problem; sets step sizes and tolerances."""
        rates = [f.amplitude for f in self.controls]
        rates += [self.omega_p.amplitude, abs(self.delta_p), abs(self.delta_2),
                  abs(self.delta_3), self.gamma_b, self.gamma_e]
        return max(rates)

    def with_delta_p(self, delta_p: float) -> "FieldConfig":
        return replace(self, delta_p=delta_p)

    # -- construction helpers -------------------------------------------

    @classmethod
    def in_gamma_units(
        cls,
        gamma: float,
        *,
        controls,
        probe=0.0,
        delta_p: float = 0.0,
        delta_2: float = 0.0,
        delta_3: float = 0.0,
        gamma_b: float = 1.0,
        gamma_e: float = 1.0,
        eta: float = 1.0,
        c_light: float = C_LIGHT,
    ) -> "FieldConfig":
        """Build a config whose rates are quoted as multiples of ``gamma``.

        ``controls`` is a sequence of four amplitude or (amplitude, phase)
        entries; ``probe`` likewise.  ``eta`` and ``c_light`` are absolute
        (cm^-1 s^-1 and cm/s), everything else is scaled by ``gamma``.
        """
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        fields = [RabiField.coerce(c) for c in controls]
        if len(fields) != 4:
            raise ValueError(f"need exactly 4 control fields, got {len(fields)}")
        fields = [RabiField(f.amplitude * gamma, f.phase) for f in fields]
        p = RabiField.coerce(probe)
        return cls(
            omega1=fields[0], omega2=fields[1], omega3=fields[2], omega4=fields[3],
            omega_p=RabiField(p.amplitude * gamma, p.phase),
            delta_p=delta_p * gamma, delta_2=delta_2 * gamma, delta_3=delta_3 * gamma,
            gamma_b=gamma_b * gamma, gamma_e=gamma_e * gamma,
            eta=eta, c_light=c_light,
        )


@dataclass(frozen=True)
class DerivedCoupling:
    """Interference coefficients of the transformed basis.

    ``alpha`` couples the bright ground superposition to |b>, ``beta``
    couples the dark one; both carry the 1/omega_total normalization that
    makes the transformed-basis decomposition of the coupling matrix exact.
    """

    alpha: complex
    beta: complex
    omega_total: float
    phi: float
    situation: Situation


def derive_couplings(cfg: FieldConfig) -> DerivedCoupling:
    """Compute alpha, beta, the total upper coupling, and the regime.

    Raises ZeroBrightCoupling when both upper couplings vanish (the
    normalization is undefined there).
    """
    o1, o2, o3, o4 = cfg.control_values
    omega = cfg.omega_total
    if omega == 0.0:
        raise ZeroBrightCoupling("omega3 and omega4 are both zero")
    alpha = (o1.conjugate() * o3 + o2.conjugate() * o4) / omega
    beta = (o1.conjugate() * o4.conjugate() - o2.conjugate() * o3.conjugate()) / omega
    eps = CLASSIFICATION_RTOL * cfg.control_scale
    has_alpha = abs(alpha) > eps
    has_beta = abs(beta) > eps
    if has_alpha and has_beta:
        situation = Situation.A
    elif has_alpha:
        situation = Situation.B
    elif has_beta:
        situation = Situation.C
    else:
        situation = Situation.DEGENERATE
    return DerivedCoupling(alpha=alpha, beta=beta, omega_total=omega,
                           phi=cfg.phi, situation=situation)


@dataclass(frozen=True)
class Diagnostic:
    """Machine-readable validation finding (warning, not an error)."""

    code: str
    message: str


PROBE_NOT_PERTURBATIVE = "ProbeNotPerturbative"
ZERO_BRIGHT_COUPLING = "ZeroBrightCoupling"
NEGATIVE_DECAY_RATE = "NegativeDecayRate"


def validate(cfg: FieldConfig) -> list[Diagnostic]:
    """Collect semantic warnings without mutating or rejecting the config.

    The linearized response assumes the probe is much weaker than the
    controls; violating that is flagged, not refused.
    """
    findings: list[Diagnostic] = []
    nonzero = [f.amplitude for f in cfg.controls if f.amplitude > 0]
    if nonzero and cfg.omega_p.amplitude >= min(nonzero):
        findings.append(Diagnostic(
            PROBE_NOT_PERTURBATIVE,
            f"probe amplitude {cfg.omega_p.amplitude:.3g} is not below the weakest "
            f"nonzero control {min(nonzero):.3g}; first-order response is suspect",
        ))
    if cfg.omega_total == 0.0:
        findings.append(Diagnostic(
            ZERO_BRIGHT_COUPLING,
            "omega3 and omega4 are both zero; transformed-basis operations will refuse this config",
        ))
    for name, value in (("gamma_b", cfg.gamma_b), ("gamma_e", cfg.gamma_e)):
        if value < 0:
            findings.append(Diagnostic(
                NEGATIVE_DECAY_RATE, f"{name} = {value:.3g} is negative",
            ))
    return findings


# ---------------------------------------------------------------------------
# JSON configuration schema
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"controls", "probe", "detunings", "decays", "eta", "gamma_unit", "c_light"}


def _field_from_json(node, where: str) -> RabiField:
    try:
        if isinstance(node, dict):
            extra = set(node) - {"amplitude", "phase"}
            if extra:
                raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
            return RabiField(float(node["amplitude"]), float(node.get("phase", 0.0)))
        return RabiField(float(node))
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(data: dict) -> FieldConfig:
    """Build a FieldConfig from the documented JSON schema.

    Required keys: ``controls`` (list of 4 fields), ``probe``, ``detunings``
    ({p, two, three}), ``decays`` ({b, e}), ``eta``.  Optional:
    ``gamma_unit`` (scales all rates), ``c_light``.  A field is either a
    number (amplitude) or an object {"amplitude": ..., "phase": ...}.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    missing = {"controls", "probe", "detunings", "decays", "eta"} - set(data)
    if missing:
        raise ConfigError(f"missing config keys {sorted(missing)}")

    controls = data["controls"]
    if not isinstance(controls, list) or len(controls) != 4:
        raise ConfigError("'controls' must be a list of exactly 4 fields")
    gamma = float(data.get("gamma_unit", 1.0))
    if gamma <= 0:
        raise ConfigError(f"gamma_unit must be > 0, got {gamma}")

    fields = [_field_from_json(c, f"controls[{i}]") for i, c in enumerate(controls)]
    probe = _field_from_json(data["probe"], "probe")
    try:
        detunings = data["detunings"]
        decays = data["decays"]
        return FieldConfig.in_gamma_units(
            gamma,
            controls=fields,
            probe=probe,
            delta_p=float(detunings["p"]),
            delta_2=float(detunings["two"]),
            delta_3=float(detunings["three"]),
            gamma_b=float(decays["b"]),
            gamma_e=float(decays["e"]),
            eta=float(data["eta"]),
            c_light=float(data.get("c_light", C_LIGHT)),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def config_to_dict(cfg: FieldConfig) -> dict:
    """Serialize a config in absolute units (gamma_unit folded in)."""
    def field(f: RabiField) -> dict:
        return {"amplitude": f.amplitude, "phase": f.phase}

    return {
        "controls": [field(f) for f in cfg.controls],
        "probe": field(cfg.omega_p),
        "detunings": {"p": cfg.delta_p, "two": cfg.delta_2, "three": cfg.delta_3},
        "decays": {"b": cfg.gamma_b, "e": cfg.gamma_e},
        "eta": cfg.eta,
        "c_light": cfg.c_light,
    }


_POSITIVE = (float, lambda x: 0 < x < math.inf, "a finite number > 0")

#: Run-file sections beside the physics schema (pulse and propagation setup
#: for the command line).  Each known key maps to (convert, accept, rule).
RUN_SECTIONS = {
    "pulse": {
        "tau": _POSITIVE,
        "tau0": _POSITIVE,
        "amplitude": (float, math.isfinite, "a finite number"),
        "kind": (str, ("auto", "bright", "dark").__contains__, "'auto', 'bright' or 'dark'"),
    },
    "propagation": {
        "length": _POSITIVE,
        "dz": _POSITIVE,
        "grid_points": (int, lambda n: n >= 2 and n & (n - 1) == 0, "a power of two >= 2"),
        "window_widths": _POSITIVE,
    },
}


def load_run_config(path: str | Path) -> tuple[FieldConfig, dict, dict]:
    """Read a run file: the physics config plus its ``pulse`` and ``propagation`` blocks.

    Both blocks are optional JSON objects.  Each key listed in
    ``RUN_SECTIONS`` is converted and checked; absent keys are left to the
    caller's defaults.  Raises ConfigError on read, parse, schema or value
    errors, and on any key ``RUN_SECTIONS`` does not list.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    blocks = [data.pop(section, {}) for section in RUN_SECTIONS]
    if not all(isinstance(block, dict) for block in blocks):
        raise ConfigError("'pulse' and 'propagation' must be JSON objects")
    cfg = config_from_dict(data)
    for (section, checks), block in zip(RUN_SECTIONS.items(), blocks):
        unknown = sorted(set(block) - set(checks))
        if unknown:
            raise ConfigError("unknown key " + ", ".join(f"{section}.{k}" for k in unknown))
        for key, (convert, accept, rule) in checks.items():
            if key not in block:
                continue
            try:
                value = convert(block[key])
                valid = accept(value)
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                raise ConfigError(f"{section}.{key} must be {rule}, got {block[key]!r}")
            block[key] = value
    return cfg, *blocks


def load_config(path: str | Path) -> FieldConfig:
    """The physics config of a run file (see ``load_run_config``)."""
    return load_run_config(path)[0]
