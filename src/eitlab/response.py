"""First-order probe response: closed forms, oracles, and spectra.

The linear response of the medium is the solution of four coupled equations
for the probe-induced coherences.  Working in the sideband-frequency domain
(deviation ``omega`` from the probe carrier) the system is algebraic and has
a closed-form solution: every coherence is a ratio of polynomials in the
three complex drift terms t1, t2, t3 and the control couplings, over a
common quartic denominator ``q``.

One function, ``_response_scalars``, builds s1..s4 and q from the drift
terms.  It picks the form once per configuration: when beta classifies as
zero, q = t2*g and t2 divides every numerator, so it returns the
t2-cancelled numerators and the cubic g, finite at t2 = 0.  One evaluator,
``_response_at``, is the only pointwise path to them and to the singular
mask: the detuning grid, the sideband coherences, kappa(omega) and the Kerr
coefficient all use it.  Only the Taylor layer feeds the builder
polynomials in omega, to read their coefficients.

Two independent oracles guard the closed form: a direct partial-pivot solve
of the 4x4 system, and fixed-step time integration of the underlying
first-order equations to steady state.

Sign conventions: coherences are reported per the time convention
exp(-i*omega*t); ``Im rho_ba >= 0`` is absorption.  The common denominator
is the actual determinant of the 4x4 system, which makes the two-level
limit come out as rho_ba = -probe/t1 (absorptive, not amplifying).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, PreconditionViolated, SingularDenominator
from .numerics import prominent_peaks, rk4_linear, solve4
from .params import FieldConfig, Situation, derive_couplings

#: Relative floor (times the characteristic denominator scale) below which
#: the response denominator is treated as singular.
SINGULAR_RTOL = 1e-12

#: Required drop of the per-unit-decay-time coherence change at the end of a
#: time integration, relative to the coherence magnitude (with a floor of 1).
BLOCH_SETTLE_TOL = 1e-10

#: Probe-detuning points of a default absorption spectrum.
DEFAULT_SPECTRUM_POINTS = 2001


@dataclass(frozen=True)
class FourierContext:
    """Sideband-domain scalars of the linear response at one frequency.

    t1, t2, t3 are the drift terms of the three coherence chains (s^-1);
    s1..s4 are the numerators of the four coherences and q the common
    denominator (powers of s^-1 as dimensional analysis dictates).  When
    beta vanishes they are the numerators and cubic denominator g with t2
    cancelled (see ``_response_scalars``).
    """

    omega: float
    t1: complex
    t2: complex
    t3: complex
    s1: complex
    s2: complex
    s3: complex
    s4: complex
    q: complex


@dataclass(frozen=True)
class CoherenceSolution:
    """First-order coherences (dimensionless), linear in the probe field."""

    rho_ba: complex
    rho_ca: complex
    rho_da: complex
    rho_ea: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.rho_ba, self.rho_ca, self.rho_da, self.rho_ea])


@dataclass(frozen=True)
class Spectrum:
    """Coherences sampled on a strictly increasing probe-detuning grid."""

    delta_p: np.ndarray
    coherences: np.ndarray  # shape (n, 4): columns rho_ba, rho_ca, rho_da, rho_ea

    def __post_init__(self):
        dp = np.asarray(self.delta_p, dtype=float)
        co = np.asarray(self.coherences, dtype=complex)
        object.__setattr__(self, "delta_p", dp)
        object.__setattr__(self, "coherences", co)
        if dp.size < 3:
            raise ValueError(f"spectrum needs >= 3 points, got {dp.size}")
        if not np.all(np.diff(dp) > 0):
            raise ValueError("spectrum grid must be strictly increasing")
        if co.shape != (dp.size, 4):
            raise ValueError(f"coherence block shape {co.shape} does not match grid {dp.size}")

    @property
    def im_rho_ba(self) -> np.ndarray:
        return self.coherences[:, 0].imag


def _drift(cfg: FieldConfig, omega, delta_p=None):
    """Drift terms t1, t2, t3 of the three coherence chains (s^-1).

    ``omega`` and ``delta_p`` enter identically: numbers or ndarrays (a
    frequency or detuning grid), or for the Taylor layer a Polynomial in omega.
    """
    dp = cfg.delta_p if delta_p is None else delta_p
    t1 = omega + 1j * cfg.gamma_b / 2.0 + dp
    t2 = omega + dp - cfg.delta_2
    t3 = omega + 1j * cfg.gamma_e / 2.0 + dp - cfg.delta_2 + cfg.delta_3
    return t1, t2, t3


def _loop_terms(cfg: FieldConfig):
    o1, o2, o3, o4 = cfg.control_values
    w12 = abs(o1) ** 2 + abs(o2) ** 2
    omega_sq = abs(o3) ** 2 + abs(o4) ** 2
    a_om = np.conj(o1) * o3 + np.conj(o2) * o4  # alpha * omega_total
    b_om = np.conj(o1) * np.conj(o4) - np.conj(o2) * np.conj(o3)  # beta * omega_total
    return w12, omega_sq, a_om, b_om


def _beta_vanishes(cfg: FieldConfig) -> bool:
    """True when beta is zero by ``derive_couplings``' test, or undefined (Omega = 0)."""
    if cfg.omega_total == 0.0:
        return True
    return derive_couplings(cfg).situation in (Situation.B, Situation.DEGENERATE)


def _response_scalars(cfg: FieldConfig, t1, t2, t3):
    """Numerators s1..s4 and the common denominator q: the only place they are built.

    The drift terms may be points (through ``_response_at``) or polynomials
    in omega; the result has the same kind.  The denominator carries the full
    closed-loop interference: it contains |beta*omega_total|^2, whose
    expansion holds the cos(phi) cross term of the four control amplitudes.
    When beta vanishes, q = t2*g and t2 divides every numerator: the
    t2-cancelled numerators (s4 a constant) and g come back instead.
    """
    o1, o2, o3, o4 = cfg.control_values
    w12, omega_sq, a_om, b_om = _loop_terms(cfg)
    tt = t2 * t3 - omega_sq
    if _beta_vanishes(cfg):
        return tt, np.conj(o1) * t3, np.conj(o2) * t3, -a_om, t1 * tt - w12 * t3
    s1 = t2 * tt
    s2 = np.conj(o1) * t2 * t3 - o4 * b_om
    s3 = np.conj(o2) * t2 * t3 + o3 * b_om
    s4 = -t2 * a_om
    q = (t1 * t2 - w12) * tt - abs(a_om) ** 2
    return s1, s2, s3, s4, q


def _response_at(cfg: FieldConfig, omega, delta_p=None):
    """Drift terms, (s1, s2, s3, s4, q) and the mask |q| <= floor at points.

    The one pointwise path through the response; arguments as for ``_drift``.
    The floor is the largest drift term or control amplitude to the degree
    of the denominator (3 for the reduced g, 4 for q), times SINGULAR_RTOL.
    """
    t1, t2, t3 = drift = _drift(cfg, omega, delta_p)
    scalars = _response_scalars(cfg, *drift)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)),
                       np.maximum(np.abs(t3), cfg.control_scale))
    degree = 3 if _beta_vanishes(cfg) else 4
    return drift, scalars, np.abs(scalars[4]) <= SINGULAR_RTOL * scale**degree


def _coherence_grid(cfg: FieldConfig, omega, delta_p=None):
    """Probe-scaled coherences (n, 4) over an array of ``omega`` or ``delta_p``.

    Returns the block and the singular mask; rows whose denominator (q, or g
    when beta vanishes) is below its floor have no finite value and are NaN.
    """
    _drift_terms, (s1, s2, s3, s4, q), singular = _response_at(cfg, omega, delta_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.stack(np.broadcast_arrays(-s1, s2, s3, s4), axis=-1)
        block *= cfg.omega_p.value
        block /= q[..., None]
    block[singular] = complex(np.nan, np.nan)
    return block, singular


def fourier_context(cfg: FieldConfig, omega: float) -> FourierContext:
    """Drift terms, numerators and denominator at ``omega``; reduced (g) at beta = 0."""
    (t1, t2, t3), (s1, s2, s3, s4, q), _singular = _response_at(cfg, omega)
    return FourierContext(omega=omega, t1=t1, t2=t2, t3=t3,
                          s1=s1, s2=s2, s3=s3, s4=s4, q=q)


def coherences_fourier(cfg: FieldConfig, omega: float) -> CoherenceSolution:
    """Closed-form coherences at sideband frequency ``omega``.

    Scaled by the config's probe field.  At beta = 0 this is the finite
    limit of the reduced form, also at the two-photon resonance.  Raises
    SingularDenominator when the denominator is below its relative floor:
    a genuine pole, with no finite value.
    """
    block, singular = _coherence_grid(cfg, np.array([float(omega)]))
    if singular[0]:
        raise SingularDenominator(f"|q| at omega = {omega:.3e} is below the singular floor")
    return CoherenceSolution(*block[0].tolist())


def coherences_beta0_limit(cfg: FieldConfig, omega: float) -> CoherenceSolution:
    """Finite limit of the coherences where the denominator factorizes.

    When the interference coefficient beta vanishes, the drift term t2
    divides both numerators and denominator, so the response stays finite
    even at the two-photon resonance where the raw formulas hit 0/0; this
    is ``coherences_fourier`` there.  Other configs raise SingularDenominator.
    """
    if not _beta_vanishes(cfg):
        raise SingularDenominator(f"no finite limit at omega = {omega:.3e}: beta != 0")
    return coherences_fourier(cfg, omega)


def solve_direct(cfg: FieldConfig, omega: float) -> CoherenceSolution:
    """Oracle: solve the 4x4 sideband-domain system by partial-pivot elimination."""
    o1, o2, o3, o4 = cfg.control_values
    t1, t2, t3 = _drift(cfg, omega)
    matrix = np.array([
        [t1, o1, o2, 0.0],
        [np.conj(o1), t2, 0.0, np.conj(o3)],
        [np.conj(o2), 0.0, t2, np.conj(o4)],
        [0.0, o3, o4, t3],
    ], dtype=complex)
    rhs = np.array([-cfg.omega_p.value, 0.0, 0.0, 0.0], dtype=complex)
    f = solve4(matrix, rhs)
    return CoherenceSolution(rho_ba=f[0], rho_ca=f[1], rho_da=f[2], rho_ea=f[3])


def _require_resonance(cfg: FieldConfig) -> None:
    tol = 1e-12 * cfg.rate_scale
    if abs(cfg.delta_2) > tol or abs(cfg.delta_3) > tol:
        raise PreconditionViolated(
            f"closed form needs delta_2 = delta_3 = 0, got {cfg.delta_2:.3g}, {cfg.delta_3:.3g}"
        )


def steady_state_interference(cfg: FieldConfig) -> complex:
    """Resonant steady-state rho_ba with the full interference term.

    Valid on two-photon resonance (delta_2 = delta_3 = 0) for any regime
    where the denominator stays finite; the |beta omega|^2 term in the
    denominator is what distinguishes the full loop from the N-type chain.
    """
    _require_resonance(cfg)
    w12, omega_sq, _a_om, b_om = _loop_terms(cfg)
    dp = cfg.delta_p
    de = 1j * dp * (-cfg.gamma_e / 2.0 + 1j * dp)
    db = 1j * dp * (-cfg.gamma_b / 2.0 + 1j * dp)
    num = cfg.omega_p.value * dp * (omega_sq + de)
    den = abs(b_om) ** 2 + de * w12 + db * (omega_sq + de)
    tol = SINGULAR_RTOL * max(abs(dp), cfg.gamma_char, cfg.control_scale) ** 4
    if abs(den) <= tol:
        raise SingularDenominator(f"steady-state denominator {abs(den):.3e} below floor")
    return num / den


def steady_state_no_interference(cfg: FieldConfig) -> complex:
    """Resonant steady-state rho_ba when the interference coefficient vanishes.

    The N-type reduction: a detuning factor cancels, leaving a cubic
    denominator that stays finite at line center (where absorption is
    nonzero, unlike the transparent regimes).
    """
    _require_resonance(cfg)
    couplings = derive_couplings(cfg)
    if couplings.situation not in (Situation.B, Situation.DEGENERATE):
        raise PreconditionViolated(f"|beta| = {abs(couplings.beta):.3g} is not ~ 0")
    w12, omega_sq, _a_om, _b_om = _loop_terms(cfg)
    dp = cfg.delta_p
    ge = -cfg.gamma_e / 2.0 + 1j * dp
    num = cfg.omega_p.value * (omega_sq + 1j * dp * ge)
    den = 1j * ge * w12 + 1j * (-cfg.gamma_b / 2.0 + 1j * dp) * (omega_sq + 1j * dp * ge)
    tol = SINGULAR_RTOL * max(abs(dp), cfg.gamma_char, cfg.control_scale) ** 3
    if abs(den) <= tol:
        raise SingularDenominator(f"steady-state denominator {abs(den):.3e} below floor")
    return num / den


def steady_state_lambda(cfg: FieldConfig) -> complex:
    """Resonant steady-state rho_ba of the symmetric lambda reduction.

    Needs equal amplitudes within each control pair, alpha ~ 0, and
    two-photon resonance; the response then depends only on the
    interference coefficient, not on the upper coupling strength.
    """
    _require_resonance(cfg)
    couplings = derive_couplings(cfg)
    if couplings.situation not in (Situation.C, Situation.DEGENERATE):
        raise PreconditionViolated(f"|alpha| = {abs(couplings.alpha):.3g} is not ~ 0")
    rel = 1e-9 * cfg.control_scale
    if abs(cfg.omega1.amplitude - cfg.omega2.amplitude) > rel or \
            abs(cfg.omega3.amplitude - cfg.omega4.amplitude) > rel:
        raise PreconditionViolated("symmetric case needs |omega1| = |omega2| and |omega3| = |omega4|")
    dp = cfg.delta_p
    den = abs(couplings.beta) ** 2 + 1j * dp * (-cfg.gamma_b / 2.0 + 1j * dp)
    tol = SINGULAR_RTOL * max(abs(dp), cfg.gamma_char, cfg.control_scale) ** 2
    if abs(den) <= tol:
        raise SingularDenominator(f"steady-state denominator {abs(den):.3e} below floor")
    return cfg.omega_p.value * dp / den


def bloch_generator(cfg: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generator and drive of the first-order coherence equations.

    State ordering (rho_ba, rho_ca, rho_da, rho_ea); the steady state of
    ``x' = G x + b`` matches the sideband solution at omega = 0.
    """
    o1, o2, o3, o4 = cfg.control_values
    d1 = -cfg.gamma_b / 2.0 + 1j * cfg.delta_p
    d2 = 1j * (cfg.delta_p - cfg.delta_2)
    d3 = -cfg.gamma_e / 2.0 + 1j * (cfg.delta_p + cfg.delta_3 - cfg.delta_2)
    g = np.array([
        [d1, 1j * o1, 1j * o2, 0.0],
        [1j * np.conj(o1), d2, 0.0, 1j * np.conj(o3)],
        [1j * np.conj(o2), 0.0, d2, 1j * np.conj(o4)],
        [0.0, 1j * o3, 1j * o4, d3],
    ], dtype=complex)
    drive = np.array([1j * cfg.omega_p.value, 0.0, 0.0, 0.0], dtype=complex)
    return g, drive


def bloch_evolve(cfg: FieldConfig, duration: float, dt: float | None = None) -> CoherenceSolution:
    """Integrate the coherence equations from zero to (near) steady state.

    Classical RK4 with a fixed step; the step defaults to 0.05 over the
    largest rate in the problem.  Convergence is checked by comparing the
    state across the final characteristic decay time; if it is still moving
    faster than the tolerance the run raises NonConvergence (which is the
    expected outcome for undamped configurations).
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    g, drive = bloch_generator(cfg)
    rate = max(cfg.rate_scale, 1e-30)
    if dt is None:
        dt = 0.05 / rate
    window = 1.0 / cfg.gamma_char if cfg.gamma_char > 0 else duration / 20.0
    window = min(window, duration / 2.0)

    total_steps = max(int(math.ceil(duration / dt)), 4)
    window_steps = max(int(round(window / dt)), 1)
    head_steps = max(total_steps - window_steps, 1)

    state0 = np.zeros(4, dtype=complex)
    before = rk4_linear(g, drive, state0, dt, head_steps)
    after = rk4_linear(g, drive, before, dt, total_steps - head_steps)

    change = float(np.max(np.abs(after - before)))
    scale = max(float(np.max(np.abs(after))), 1.0)
    if change > BLOCH_SETTLE_TOL * scale:
        raise NonConvergence(
            f"coherences still changing by {change:.3e} over the last window "
            f"(tolerance {BLOCH_SETTLE_TOL * scale:.3e}); no damped steady state"
        )
    return CoherenceSolution(*after)


def coherence_point(cfg: FieldConfig, delta_p: float) -> CoherenceSolution | None:
    """Coherences at one probe detuning, the finite limit at beta = 0 included.

    Returns None when no finite value exists (genuinely singular point).
    """
    row = _coherence_grid(cfg, 0.0, np.array([float(delta_p)]))[0][0]
    return None if np.isnan(row).any() else CoherenceSolution(*row.tolist())


def absorption_spectrum(
    cfg: FieldConfig,
    grid_min: float | None = None,
    grid_max: float | None = None,
    points: int = DEFAULT_SPECTRUM_POINTS,
) -> Spectrum:
    """Sample the coherences over a probe-detuning grid.

    Default grid spans +/- 5 ``gamma_scale`` with ``DEFAULT_SPECTRUM_POINTS`` points.
    The whole grid is evaluated at once, as arrays of drift terms; a point
    gives the same value as ``coherence_point`` there.  A point with no
    finite value is a NaN row, never an exception.  Raises
    ValueError for fewer than 3 points or an empty range.
    """
    gamma = cfg.gamma_scale
    if grid_min is None:
        grid_min = -5.0 * gamma
    if grid_max is None:
        grid_max = 5.0 * gamma
    if points < 3:
        raise ValueError(f"spectrum needs >= 3 points, got {points}")
    if not grid_max > grid_min:
        raise ValueError(f"empty grid [{grid_min}, {grid_max}]")

    dps = np.linspace(grid_min, grid_max, points)
    return Spectrum(delta_p=dps, coherences=_coherence_grid(cfg, 0.0, dps)[0])


def count_peaks(spectrum: Spectrum) -> int:
    """Number of strict local maxima of the absorption trace.

    A maximum counts only if its topographic prominence is at least 1% of
    the global maximum, which keeps the count stable under grid refinement.
    Isolated NaN points are bridged by linear interpolation first.
    """
    y = np.array(spectrum.im_rho_ba, dtype=float)
    bad = ~np.isfinite(y)
    if bad.all():
        return 0
    if bad.any():
        x = np.arange(y.size)
        y[bad] = np.interp(x[bad], x[~bad], y[~bad])
    top = float(np.max(y))
    if top <= 0:
        return 0
    return len(prominent_peaks(y, 0.01 * top))
