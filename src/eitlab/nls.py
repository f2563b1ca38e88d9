"""Nonlinear layer: Kerr coefficient, envelope equation, solitons, split-step.

The cubic self-interaction of the probe follows from the ground-state
population deficit: the medium response acquires a correction proportional
to the coherence times the summed coherence intensities, which in the
sideband closed form becomes a single complex coefficient built from the
same s1..s4 and q scalars as the linear response.  With ``theta`` the
resulting nonlinear strength (cm^-1 s^2) and ``kappa2`` the group-velocity
dispersion, the envelope in the co-moving frame (zeta = distance, tau_ret =
retarded time) obeys

    i d(u)/d(zeta) - kappa2 d2(u)/d(tau_ret)2 = theta * exp(-chi*zeta) |u|^2 u

whose real-coefficient limit is the standard cubic Schrodinger equation.
The split-step walks an ``Envelope`` (defined in ``numerics`` and shared
with the linear propagator), whose grid is read as tau_ret here.

Soliton conventions: substituting the sech/tanh profiles into the
real-coefficient equation fixes amplitude^2 = 2|kappa2_r/theta_r|/tau^2 and
the phase rates mu = -kappa2_r/tau^2 (bright) and mu = +2 kappa2_r/tau^2
(dark).  These residual-exact relations are what the propagator preserves;
the sqrt(|kappa2_r/theta_r|)/tau convention without the factor sqrt(2) is
reported separately as ``reference_amplitude`` for comparison against
quoted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft
from numpy.fft import ifft  # noqa: F401  (perfbench's tracer rebinds it in this module)

from .errors import (GridMismatch, GridTooNarrow, NumericalError, SingularDenominator,
                     StepTooLarge, WrongSign)
from .numerics import Envelope, centred_times, fourier_multiplier
from .params import FieldConfig
from .response import _response_at
from .dispersion import taylor_coefficients

#: Minimum number of steps per characteristic length for the split-step walk.
MIN_STEPS_PER_LENGTH = 50

#: Relative wrap mismatch allowed at the periodic boundary.
WRAP_TOL = 1e-6

#: Dark-soliton embedding needs at least this many widths of total window.
MIN_DARK_WINDOW_WIDTHS = 80.0


@dataclass(frozen=True)
class NlsCoefficients:
    """Coefficients of the envelope equation for one configuration.

    ``kerr`` is the cubic response coefficient (s^3), ``theta`` = -eta*kerr
    (cm^-1 s^2), ``kappa2`` the quadratic dispersion coefficient
    (cm^-1 s^2), and ``chi`` the linear intensity absorption (cm^-1).
    """

    kerr: complex
    theta: complex
    kappa2: complex
    chi: float

    @property
    def theta_r(self) -> float:
        return self.theta.real

    @property
    def kappa2_r(self) -> float:
        return self.kappa2.real

    @property
    def imag_ratio_theta(self) -> float:
        return abs(self.theta.imag / self.theta.real) if self.theta.real != 0 else math.inf

    @property
    def imag_ratio_kappa2(self) -> float:
        return abs(self.kappa2.imag / self.kappa2.real) if self.kappa2.real != 0 else math.inf

    @property
    def soliton_type(self) -> str | None:
        """'bright' when kappa2_r * theta_r > 0, 'dark' when < 0, else None."""
        product = self.kappa2_r * self.theta_r
        if product > 0:
            return "bright"
        if product < 0:
            return "dark"
        return None


@dataclass(frozen=True)
class SolitonSpec:
    """Kind, width (s), and residual-exact amplitude (s^-1) of a soliton."""

    kind: str
    tau: float
    amplitude: float


@dataclass(frozen=True)
class Soliton:
    """Analytic soliton of the real-coefficient envelope equation."""

    spec: SolitonSpec
    phase_rate: float  # cm^-1
    kappa2_r: float
    theta_r: float

    def envelope(self, t, zeta: float = 0.0) -> np.ndarray:
        """Field at retarded times ``t`` after distance ``zeta``."""
        x = np.asarray(t, dtype=float) / self.spec.tau
        profile = 1.0 / np.cosh(x) if self.spec.kind == "bright" else np.tanh(x)
        return self.spec.amplitude * profile * np.exp(1j * self.phase_rate * zeta)

    @property
    def amplitude_width_product(self) -> float:
        """Residual-exact |amplitude * tau| = sqrt(2 |kappa2_r / theta_r|)."""
        return self.spec.amplitude * self.spec.tau


def kerr_coefficient(cfg: FieldConfig) -> complex:
    """Cubic response coefficient at the probe carrier (s^3).

    Equals rho_ba * (sum of |rho|^2) normalized by probe * |probe|^2, so it
    can be cross-checked by composing the linear-response solver with
    itself; the closed form below avoids the probe normalization entirely.
    """
    _drift_terms, (s1, s2, s3, s4, q), singular = _response_at(cfg, 0.0)
    if singular:
        raise SingularDenominator(f"|q(0)| = {abs(q):.3e} below floor")
    total = abs(s1) ** 2 + abs(s2) ** 2 + abs(s3) ** 2 + abs(s4) ** 2
    return -s1 * total / (q * abs(q) ** 2)


def nls_coefficients(cfg: FieldConfig) -> NlsCoefficients:
    """Assemble the envelope-equation coefficients for a configuration."""
    kerr = kerr_coefficient(cfg)
    expansion = taylor_coefficients(cfg)
    return NlsCoefficients(
        kerr=kerr,
        theta=-cfg.eta * kerr,
        kappa2=expansion.kappa2,
        chi=expansion.chi,
    )


def reference_amplitude(coeffs: NlsCoefficients, tau: float) -> float:
    """Amplitude from the sqrt(|kappa2_r/theta_r|)/tau convention (no sqrt 2)."""
    if coeffs.theta_r == 0:
        raise WrongSign("theta_r = 0; no soliton balance exists")
    return math.sqrt(abs(coeffs.kappa2_r / coeffs.theta_r)) / tau


def analytic_soliton(coeffs: NlsCoefficients, tau: float, kind: str | None = None) -> Soliton:
    """Matched soliton for the coefficient signs.

    The bright (sech) solution exists for kappa2_r * theta_r > 0, the dark
    (tanh) one for < 0; requesting the other kind raises WrongSign.  The
    amplitude-width-phase relations make the profile an exact solution of
    the real-coefficient equation (checked by a residual oracle in the
    tests).
    """
    if not (tau > 0):
        raise ValueError(f"tau must be > 0, got {tau}")
    product = coeffs.kappa2_r * coeffs.theta_r
    natural = coeffs.soliton_type
    if natural is None:
        raise WrongSign("kappa2_r * theta_r = 0; no soliton regime")
    if kind is None:
        kind = natural
    elif kind not in ("bright", "dark"):
        raise ValueError(f"kind must be 'bright' or 'dark', got {kind!r}")
    elif kind != natural:
        raise WrongSign(
            f"coefficients admit a {natural} soliton (kappa2_r*theta_r = {product:.3e}), not {kind}"
        )
    amplitude = math.sqrt(2.0 * abs(coeffs.kappa2_r / coeffs.theta_r)) / tau
    if kind == "bright":
        phase_rate = -coeffs.kappa2_r / tau**2
    else:
        phase_rate = 2.0 * coeffs.kappa2_r / tau**2
    return Soliton(
        spec=SolitonSpec(kind=kind, tau=tau, amplitude=amplitude),
        phase_rate=phase_rate,
        kappa2_r=coeffs.kappa2_r,
        theta_r=coeffs.theta_r,
    )


def dark_pair_profile(soliton: Soliton, t: np.ndarray, window: float) -> np.ndarray:
    """Kink at t = 0 with the compensating antikink at the periodic wrap.

    A single tanh kink cannot live on a periodic grid; the product of the
    central kink with a partner at +/- window/2 restores periodicity while
    deviating from the ideal kink only by terms exp(-window/(2 tau)).
    """
    tau = soliton.spec.tau
    half = window / 2.0
    return (soliton.spec.amplitude
            * np.tanh(t / tau) * np.tanh((half - t) / tau) * np.tanh((half + t) / tau))


def dark_pair_envelope(soliton: Soliton, points: int, dt: float,
                       zeta: float = 0.0) -> Envelope:
    """Periodic dark-soliton initial condition (kink-antikink pair).

    Requires the window to hold at least 80 soliton widths so the pair
    separation stays above 40 widths and the kinks do not interact.
    """
    if soliton.spec.kind != "dark":
        raise WrongSign(f"dark pair embedding needs a dark soliton, got {soliton.spec.kind}")
    window = points * dt
    if window < MIN_DARK_WINDOW_WIDTHS * soliton.spec.tau:
        raise GridTooNarrow(
            f"window {window:.3e} s holds {window / soliton.spec.tau:.1f} widths; "
            f"need >= {MIN_DARK_WINDOW_WIDTHS:.0f}"
        )
    t = centred_times(points, dt)
    profile = dark_pair_profile(soliton, t, window) * np.exp(1j * soliton.phase_rate * zeta)
    return Envelope(samples=profile, dt_grid=dt, zeta=zeta)


def _check_wrap(samples: np.ndarray) -> None:
    # A periodic grid only needs smoothness across the wrap: the step from
    # the last sample back to the first must look like any interior step.
    # An unpaired kink fails this (a jump of two backgrounds), a kink pair
    # whose partner sits exactly at the wrap passes.
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return
    jump = abs(samples[0] - samples[-1])
    interior = float(np.max(np.abs(np.diff(samples)))) if samples.size > 1 else 0.0
    if jump > max(3.0 * interior, WRAP_TOL * peak):
        raise GridTooNarrow(
            f"field jumps by {jump / peak:.3e} of peak across the periodic wrap "
            f"(interior steps reach {interior / peak:.3e}); widen the window "
            f"or embed a kink pair"
        )


def _characteristic_lengths(envelope: Envelope,
                            kappa2_r: float, theta_r: float) -> tuple[float, float]:
    # Dispersion length from the rms occupied bandwidth, nonlinear length
    # from the peak intensity; both are infinite when the coefficient is off.
    spectrum = np.abs(fft(envelope.samples)) ** 2
    power = float(spectrum.sum())
    l_disp = math.inf
    if kappa2_r != 0.0 and power > 0.0:
        omega = envelope.frequencies()
        mean_w2 = float((spectrum * omega**2).sum() / power)
        if mean_w2 > 0.0:
            l_disp = 1.0 / (abs(kappa2_r) * mean_w2)
    peak2 = float(np.max(np.abs(envelope.samples)) ** 2)
    l_nl = math.inf
    if theta_r != 0.0 and peak2 > 0.0:
        l_nl = 1.0 / (abs(theta_r) * peak2)
    return l_disp, l_nl


def _kerr_substep(u: np.ndarray, theta: complex, h: float, work: tuple) -> None:
    """Exact solution of u' = -i theta |u|^2 u over step h (theta constant), in place.

    For complex theta the intensity obeys a separable equation with the
    closed-form solution below; for real theta this reduces to the familiar
    pure phase rotation.  ``u`` is overwritten with the result.  ``work``
    holds two float buffers and one complex buffer of u's length, reused by
    every call, so a substep allocates no array of the grid's size.

    The rotation exp(i phi) comes from t = tan(phi/2) alone, as
    cos phi = 2/(1+t^2) - 1 and sin phi = 2t/(1+t^2): one vectorized
    transcendental instead of a cosine and a sine.  Near an odd multiple of
    pi, t grows to ~1e16 and the two forms still hold to an ulp.
    """
    intensity, phase, rotation = work
    np.multiply(u.real, u.real, out=intensity)
    np.multiply(u.imag, u.imag, out=phase)
    intensity += phase
    if theta.imag == 0.0:
        np.multiply(intensity, -theta.real * h / 2.0, out=phase)
    else:
        # the intensity factor is 1 + x, x = -2 Im(theta) |u|^2 h; log1p keeps
        # the phase accurate where x is small against 1
        x = intensity
        x *= -2.0 * theta.imag * h
        if x.min() <= -1.0:
            raise StepTooLarge("nonlinear gain substep diverges; reduce dz")
        np.log1p(x, out=phase)
        phase *= theta.real / (4.0 * theta.imag)
        x += 1.0
        u /= np.sqrt(x, out=x)
    # phase holds phi/2; intensity is free again and takes 2/(1+t^2)
    t = np.tan(phase, out=phase)
    scale = np.multiply(t, t, out=intensity)
    scale += 1.0
    np.divide(2.0, scale, out=scale)
    np.multiply(t, scale, out=rotation.imag)
    np.subtract(scale, 1.0, out=rotation.real)
    u *= rotation


def split_step(coeffs: NlsCoefficients, envelope: Envelope, dz: float,
               n_steps: int, mode: str = "ideal") -> Envelope:
    """Advance the envelope by n_steps of symmetric (Strang) splitting.

    Each step is a half nonlinear substep in physical space, a full
    dispersion step in spectral space, and another half nonlinear substep.
    ``mode`` "ideal" keeps only the real parts of kappa2 and theta and drops
    the attenuation factor; "full" uses the complex coefficients and
    evaluates w_k = exp(-chi*(zeta + (k+1/2)*dz)) at each step midpoint
    (second-order accurate).

    The trailing half substep of step k and the leading one of step k+1 run
    as one substep of length (w_k + w_{k+1})*dz/2, so a step costs one
    application of a ``fourier_multiplier`` built from the dispersion factor
    and one Kerr substep.  This is exact, not an approximation: theta*w
    with w real is the flow of theta over the rescaled length w*h, and that
    flow is autonomous, so two consecutive substeps compose by adding their
    lengths.  The walk opens with a half substep of length w_0*dz/2 and
    closes with w_n = 0, i.e. a half substep, so a run split at a checkpoint
    composes as the unsplit run does.  The fused substep diverges (raising
    StepTooLarge) exactly when one of the two it replaces would.  A gain
    (chi < 0) whose weight or field overflows raises NumericalError.
    """
    if mode == "ideal":
        kappa2 = complex(coeffs.kappa2_r)
        theta = complex(coeffs.theta_r)
        chi = 0.0
    elif mode == "full":
        kappa2 = coeffs.kappa2
        theta = coeffs.theta
        chi = coeffs.chi
    else:
        raise ValueError(f"mode must be 'ideal' or 'full', got {mode!r}")
    if n_steps < 0 or dz <= 0:
        raise ValueError(f"need dz > 0 and n_steps >= 0, got {dz}, {n_steps}")

    u = np.array(envelope.samples, dtype=complex)
    _check_wrap(u)
    l_disp, l_nl = _characteristic_lengths(envelope, kappa2.real, theta.real)
    limit = min(l_disp, l_nl) / MIN_STEPS_PER_LENGTH
    if dz > limit:
        raise StepTooLarge(
            f"dz = {dz:.3e} cm exceeds min(dispersion, nonlinear length)/"
            f"{MIN_STEPS_PER_LENGTH} = {limit:.3e} cm"
        )

    omega = envelope.frequencies()
    disperse = fourier_multiplier(np.exp(1j * kappa2 * omega**2 * dz))

    zeta = envelope.zeta
    try:
        weights = [math.exp(-chi * (zeta + (k + 0.5) * dz)) if chi != 0.0 else 1.0
                   for k in range(n_steps)] + [0.0]
    except OverflowError:
        raise NumericalError(f"gain exp(-chi*zeta) overflows before zeta = "
                             f"{zeta + n_steps * dz:.6g} cm") from None
    work = (np.empty(u.size), np.empty(u.size), np.empty(u.size, dtype=complex))
    if n_steps:
        _kerr_substep(u, theta, weights[0] * dz / 2.0, work)
    for k in range(n_steps):
        disperse(u)
        _kerr_substep(u, theta, (weights[k] + weights[k + 1]) * dz / 2.0, work)
    return envelope.advanced(u, n_steps * dz)


def soliton_fidelity(reference: Envelope, test: Envelope) -> float:
    """Normalized overlap |<ref|test>| / (||ref|| ||test||) in [0, 1].

    The modulus performs the optimal global-phase alignment.  Raises
    GridMismatch when the two envelopes are not sampled identically.
    """
    if reference.samples.size != test.samples.size:
        raise GridMismatch(
            f"lengths differ: {reference.samples.size} vs {test.samples.size}")
    if not math.isclose(reference.dt_grid, test.dt_grid, rel_tol=1e-12):
        raise GridMismatch(f"spacings differ: {reference.dt_grid} vs {test.dt_grid}")
    norm_ref = float(np.linalg.norm(reference.samples))
    norm_test = float(np.linalg.norm(test.samples))
    if norm_ref == 0.0 or norm_test == 0.0:
        return 0.0
    overlap = abs(np.vdot(reference.samples, test.samples)) / (norm_ref * norm_test)
    return min(overlap, 1.0)


def measure_dark_dip(envelope: Envelope, soliton: Soliton,
                     half_window: float | None = None) -> tuple[float, float]:
    """Depth and half-width of the central dark dip.

    Measures |u| in a window around tau_ret = 0: depth is the background
    level minus the interpolated minimum, width the half-distance between
    the tanh(1)-level crossings (tau for an ideal kink).  The background is
    read at the window edges, away from both kinks.
    """
    tau = soliton.spec.tau
    if half_window is None:
        half_window = 10.0 * tau
    t = envelope.times()
    mask = np.abs(t) <= half_window
    if mask.sum() < 7:
        raise GridMismatch("measurement window holds too few samples")
    tw = t[mask]
    aw = np.abs(envelope.samples[mask])

    background = 0.5 * (aw[0] + aw[-1])
    i = int(np.argmin(aw))
    if 0 < i < aw.size - 1:
        # parabolic vertex through the three samples around the minimum
        y0, y1, y2 = aw[i - 1], aw[i], aw[i + 1]
        denom = y0 - 2.0 * y1 + y2
        offset = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        minimum = y1 - 0.25 * (y0 - y2) * offset
    else:
        minimum = aw[i]
    depth = background - float(minimum)

    level = background * math.tanh(1.0)
    d = aw - level
    pairs = np.flatnonzero((d[:-1] * d[1:] <= 0) & (aw[:-1] != aw[1:]))
    left, right = pairs[pairs < i], pairs[pairs >= i]
    if not (left.size and right.size):
        raise GridMismatch("dip does not cross the width-measurement level")

    def crossing(a: int, b: int) -> float:
        # sample a is the one nearer the minimum
        frac = (level - aw[a]) / (aw[b] - aw[a])
        return tw[a] + frac * (tw[b] - tw[a])

    width = 0.5 * abs(crossing(right[0], right[0] + 1) - crossing(left[-1] + 1, left[-1]))
    return depth, width
