"""Linear propagation: the dispersion relation, its Taylor layer, and oracles.

The probe sideband at frequency ``omega`` accumulates phase exp(i*kappa*z)
with kappa(omega) = omega/c - eta * s1(omega)/q(omega), where s1 and q are
the response numerator and denominator (cubic and quartic polynomials in
omega; one degree lower each once t2 cancels at beta = 0).  Everything
here flows from that single function: kappa(0) carries the phase shift
(real part) and absorption (imaginary part, chi = 2 Im), the first
derivative the inverse group velocity, and half the second derivative
the group-velocity dispersion.

``kappa_of_omega`` takes s1, q and the singular mask from the response
layer's pointwise evaluator, as the spectrum grid and the Kerr coefficient
do; ``response_polynomials`` only supplies the Taylor layer's coefficients.

The Taylor coefficients are computed by exact differentiation of the
polynomial ratio and are cross-checked against Richardson finite
differences of kappa itself; a closed-form Gaussian propagator and an FFT
propagator provide mutually independent oracles for pulse evolution.  The
FFT propagator takes and returns the ``Envelope`` the split-step uses,
sampled in lab time; it transforms with ``np.fft``, not the split-step's
Fourier multiplier, so the two propagators share no transform code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import GridTooNarrow, SingularDenominator
from .numerics import Envelope, centred_times
from .params import FieldConfig
from .response import _drift, _response_at, _response_scalars

#: Relative field level required at both grid edges before FFT propagation.
EDGE_LEVEL = 1e-8

#: Default FFT grid for pulse sampling.
DEFAULT_GRID_POINTS = 2**14
DEFAULT_WINDOW_WIDTHS = 40.0


@dataclass(frozen=True)
class DispersionExpansion:
    """Taylor data of the dispersion relation at the probe carrier.

    kappa0 (cm^-1), kappa1 (cm^-1 s), kappa2 (cm^-1 s^2) follow the Taylor
    convention kappa ~ kappa0 + kappa1 w + kappa2 w^2, i.e. kappa2 includes
    the 1/2 of the second derivative.  ``v_g`` = 1/kappa1 (complex, cm/s);
    ``chi`` = 2 Im kappa0 is the intensity absorption per cm and
    ``phase_shift`` = Re kappa0 the phase per cm.
    """

    kappa0: complex
    kappa1: complex
    kappa2: complex
    v_g: complex
    chi: float
    phase_shift: float


@dataclass(frozen=True)
class GaussianPulseSpec:
    """Input probe pulse amplitude * exp(-(t/tau0)^2)."""

    amplitude: float
    tau0: float

    def __post_init__(self):
        if not (self.tau0 > 0):
            raise ValueError(f"tau0 must be > 0, got {self.tau0}")

    def envelope(self, t) -> np.ndarray:
        return self.amplitude * np.exp(-((np.asarray(t, dtype=float) / self.tau0) ** 2))

    def sample(self, points: int = DEFAULT_GRID_POINTS,
               window: float | None = None) -> Envelope:
        """The pulse at z = 0 on the centred grid of ``points`` samples over ``window`` s.

        The spacing is window/points and t = 0 is sample points//2; ``points``
        must be a power of two.
        """
        if window is None:
            window = DEFAULT_WINDOW_WIDTHS * self.tau0
        dt = window / points
        return Envelope(samples=self.envelope(centred_times(points, dt)), dt_grid=dt)


def response_polynomials(cfg: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ascending-power coefficient arrays of s1(omega) and q(omega).

    The response builder evaluated on drift terms that are polynomials in
    omega.  The Taylor layer reads its derivatives at omega = 0 from these
    coefficients; values at points come from ``kappa_of_omega`` instead.
    """
    s1, _s2, _s3, _s4, q = _response_scalars(cfg, *_drift(cfg, Polynomial([0.0, 1.0])))
    return s1.coef, q.coef


def kappa_of_omega(cfg: FieldConfig, omega):
    """Dispersion relation kappa(omega) in cm^-1; accepts scalars or arrays.

    This is the single source of truth: the Taylor layer differentiates it
    and the FFT propagator exponentiates it.  s1 and q come from the response
    evaluator in factored form, with the spectrum grid's singular floor.
    """
    w = np.asarray(omega, dtype=float)
    # frequencies far beyond the medium's scales overflow the polynomials:
    # they count as singular too
    with np.errstate(over="ignore", invalid="ignore"):
        _drift_terms, (s1, _s2, _s3, _s4, q), singular = _response_at(cfg, w)
    singular = singular | ~np.isfinite(q)
    if np.any(singular):
        bad = w[singular] if w.ndim else w.reshape(1)
        raise SingularDenominator(f"response denominator vanishes near omega = {bad[0]:.9g} "
                                  f"({bad.size} of {w.size} frequencies)")
    out = w / cfg.c_light - cfg.eta * s1 / q
    return out if w.ndim else complex(out)


def taylor_coefficients(cfg: FieldConfig) -> DispersionExpansion:
    """Exact kappa(0), kappa'(0), and kappa''(0)/2 of the dispersion relation.

    The derivatives of s1 and q at 0 are read from their coefficients, and
    those of the ratio follow by the quotient rule; they agree
    with Richardson central differences of kappa_of_omega to better than
    1e-6 relative (enforced by the test suite).  The q(0) floor test is the
    response evaluator's.
    """
    s1, q = response_polynomials(cfg)
    s10, s11, s12 = complex(s1[0]), complex(s1[1]), complex(2.0 * s1[2])
    q0, q1, q2 = complex(q[0]), complex(q[1]), complex(2.0 * q[2])
    if _response_at(cfg, 0.0)[2]:
        raise SingularDenominator(f"response denominator |q(0)| = {abs(q0):.3e} below floor")

    eta = cfg.eta
    kappa0 = -eta * s10 / q0
    kappa1 = 1.0 / cfg.c_light - eta * (s11 / q0 - s10 * q1 / q0**2)
    second = -eta * (s12 / q0 - 2.0 * s11 * q1 / q0**2 - s10 * q2 / q0**2
                     + 2.0 * s10 * q1**2 / q0**3)
    kappa2 = second / 2.0
    return DispersionExpansion(
        kappa0=kappa0,
        kappa1=kappa1,
        kappa2=kappa2,
        v_g=1.0 / kappa1,
        chi=2.0 * kappa0.imag,
        phase_shift=kappa0.real,
    )


def gaussian_field(kappa0: complex, kappa1: complex, kappa2: complex,
                   pulse: GaussianPulseSpec, z: float, t):
    """Closed-form propagated Gaussian for a quadratic dispersion relation.

    Exact solution of the sideband-domain propagation with
    kappa = kappa0 + kappa1 w + kappa2 w^2: a complex width factor
    l = 1 - 4i kappa2 z / tau0^2 rescales amplitude and width, the pulse
    center rides at t = kappa1 z, and exp(i kappa0 z) carries phase and
    absorption.  At z = 0 this is the input pulse exactly.
    """
    t = np.asarray(t, dtype=float)
    tau0 = pulse.tau0
    l = 1.0 - 4.0j * kappa2 * z / tau0**2
    shifted = t - kappa1 * z
    out = (pulse.amplitude / np.sqrt(l)) * np.exp(1j * kappa0 * z - shifted**2 / (l * tau0**2))
    return out if t.ndim else complex(out)


def gaussian_closed_form(cfg: FieldConfig, pulse: GaussianPulseSpec, z: float, t):
    """Closed-form Gaussian propagation using the config's Taylor coefficients."""
    exp = taylor_coefficients(cfg)
    return gaussian_field(exp.kappa0, exp.kappa1, exp.kappa2, pulse, z, t)


def _check_edges(values: np.ndarray) -> None:
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return
    edge = max(abs(values[0]), abs(values[-1]))
    if edge > EDGE_LEVEL * peak:
        raise GridTooNarrow(
            f"field at grid edges is {edge / peak:.3e} of peak (need <= {EDGE_LEVEL:.0e})"
        )


def spectral_propagate(cfg: FieldConfig, envelope: Envelope, z: float,
                       kappa: str = "full") -> Envelope:
    """Advance a sampled field by ``z`` cm, exponentiating the dispersion relation.

    ``kappa`` selects the phase function: "full" uses kappa_of_omega,
    "taylor" its quadratic truncation.  The samples stay on the envelope's
    lab-time grid and ``zeta`` grows by ``z``.  The sideband frequencies are
    the envelope's (exp(-i*omega*t) convention), so a positive group delay
    moves the pulse to later times.  Raises GridTooNarrow when the input is
    not small at the grid edges and NumericalError when the propagated field
    is not finite (gain overflow).
    """
    _check_edges(envelope.samples)
    omega = envelope.frequencies()
    if kappa == "full":
        phase = np.asarray(kappa_of_omega(cfg, omega), dtype=complex)
    elif kappa == "taylor":
        exp = taylor_coefficients(cfg)
        phase = exp.kappa0 + exp.kappa1 * omega + exp.kappa2 * omega**2
    else:
        raise ValueError(f"kappa must be 'full' or 'taylor', got {kappa!r}")

    with np.errstate(over="ignore", invalid="ignore"):  # advanced() reports an overflow
        propagated = np.fft.ifft(np.fft.fft(envelope.samples) * np.exp(1j * phase * z))
    return envelope.advanced(propagated, z)
