"""Shared numeric kernels with documented contracts.

The sampled probe field (``Envelope``, the one type both propagators take
and return, with its centred time grid and sideband frequencies), small
dense complex linear solves, a four-step Fourier multiplier, fixed-step RK4
for linear systems, Richardson-extrapolated central differences, the
eigenvector phase rule, and a prominence-based peak finder.  All kernels
are stateless but the multiplier, whose tables are built once and only read
afterwards; callers own every buffer, so concurrent use is safe.

``Envelope`` owns the power-of-two length the spectral steps need; its
samples go straight to ``np.fft``, with no wrapper checking the length
again.  FFT normalization: unnormalized forward transform, 1/N inverse (the
numpy convention).  All call sites assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, NumericalError, SingularMatrix, StepTooLarge

# Pivot threshold relative to the row scale; below this the matrix is
# treated as singular rather than dividing by a denormal.
_PIVOT_FLOOR = 1e-300


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise BadLength(f"spectral kernels need a power-of-two length, got {n}")


def centred_times(n: int, dt: float) -> np.ndarray:
    """The centred time grid ``t_k = (k - n//2) * dt`` of an n-sample field."""
    return (np.arange(n) - n // 2) * dt


@dataclass(frozen=True)
class Envelope:
    """Complex probe envelope sampled on the centred time grid.

    ``samples[k]`` lives at t = (k - n//2) * dt_grid (lab time in the linear
    propagator, retarded time in the nonlinear one); ``zeta`` is the
    propagated distance in cm.  The length is a power of two >= 2, as the
    spectral steps need, and every sample is finite.
    """

    samples: np.ndarray
    dt_grid: float
    zeta: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        _require_power_of_two(samples.size)
        if not (self.dt_grid > 0):
            raise ValueError(f"dt_grid must be > 0, got {self.dt_grid}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("envelope samples must be finite")

    def times(self) -> np.ndarray:
        return centred_times(self.samples.size, self.dt_grid)

    def frequencies(self) -> np.ndarray:
        """Sideband angular frequencies of the FFT bins, exp(-i*omega*t) convention."""
        return -2.0 * math.pi * np.fft.fftfreq(self.samples.size, d=self.dt_grid)

    def advanced(self, samples: np.ndarray, distance: float) -> Envelope:
        """The envelope ``distance`` cm further on, holding ``samples``.

        Raises NumericalError, naming the distance reached, when a sample is
        not finite: the propagation overflowed.
        """
        zeta = self.zeta + distance
        if not np.all(np.isfinite(samples)):
            raise NumericalError(f"propagated field is not finite at zeta = {zeta:.6g} cm")
        return Envelope(samples=samples, dt_grid=self.dt_grid, zeta=zeta)


def fourier_multiplier(factor: np.ndarray):
    """In-place ``u <- ifft(factor * fft(u))`` for a fixed power-of-two factor.

    Builds its tables once and returns ``apply(u)``, which overwrites a
    C-contiguous complex128 ``u`` of the factor's length with the result and
    returns it.  The transform follows Bailey's four-step layout on the
    ``n1 x n2`` row-major view of ``u``, ``n1 = 2**floor(log2(n)/2)``: FFTs
    along axis 0, the twiddles ``exp(-2 pi i k1 j2 / n)``, FFTs along axis 1,
    which leaves spectral bin ``k1 + n1*k2`` at ``[k1, k2]``; there the
    factor, permuted once to that layout, multiplies it, and the inverse
    steps run in reverse order.  No transpose and no natural-order spectrum
    is formed.  The 1/n of the inverse is folded into the permuted factor,
    which is exact for a power of two.  Agrees with the one-dimensional
    ``np.fft`` triple to ~1e-15 relative.

    Raises BadLength for a factor whose length is not a power of two, and
    ValueError for a ``u`` that is not a C-contiguous complex128 array of
    that length: reshaping anything else could copy, and the result would be
    lost.
    """
    factor = np.asarray(factor, dtype=complex)
    n = factor.size
    _require_power_of_two(n)
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    twiddle = np.exp(-2j * np.pi / n * np.outer(np.arange(n1), np.arange(n2)))
    untwiddle = twiddle.conj()
    permuted = np.ascontiguousarray(factor.reshape(n2, n1).T) / n

    def apply(u: np.ndarray) -> np.ndarray:
        if not (isinstance(u, np.ndarray) and u.dtype == np.complex128
                and u.size == n and u.flags.c_contiguous):
            raise ValueError(f"need a C-contiguous complex128 array of {n} samples")
        v = u.reshape(n1, n2)
        np.fft.fft(v, axis=0, out=v)
        v *= twiddle
        np.fft.fft(v, axis=1, out=v)
        v *= permuted
        np.fft.ifft(v, axis=1, norm="forward", out=v)
        v *= untwiddle
        np.fft.ifft(v, axis=0, norm="forward", out=v)
        return u

    return apply


def solve4(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a small dense complex system by Gaussian elimination with
    scaled partial pivoting.

    Intended for the 4x4 systems of the linear response; works for any n.
    Raises SingularMatrix when the best available pivot falls below
    1e-300 times its row scale.  Backward error satisfies
    ``||A x - b|| <= ~1e-12 ||A|| ||x||`` for well-conditioned systems.
    """
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = b.size
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match rhs length {n}")

    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularMatrix("matrix has an all-zero row")

    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k]) / scale[k:]))
        if abs(a[p, k]) <= _PIVOT_FLOOR * scale[p]:
            raise SingularMatrix(f"pivot {abs(a[p, k]):.3e} below scaled floor")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= factors * b[k]

    if abs(a[n - 1, n - 1]) <= _PIVOT_FLOOR * scale[n - 1]:
        raise SingularMatrix("last pivot below scaled floor")

    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - np.dot(a[k, k + 1:], x[k + 1:])) / a[k, k]
    return x


def rk4_linear(
    generator: np.ndarray,
    drive: np.ndarray,
    state0: np.ndarray,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Classical fixed-step RK4 for ``x' = G x + b`` with constant G and b.

    For a constant-coefficient linear system the four RK4 stages collapse to
    fixed matrices, so the step operator ``x -> Phi x + Psi b`` (Phi, Psi the
    degree-4 Taylor truncations) is precomputed once and every step is a
    single mat-vec.  This is algebraically identical to running the classical
    stages and keeps the usual O(dt^4) global error.
    """
    g = np.asarray(generator, dtype=complex)
    b = np.asarray(drive, dtype=complex)
    x = np.array(state0, dtype=complex)
    n = x.size
    if g.shape != (n, n):
        raise ValueError(f"generator shape {g.shape} does not match state length {n}")

    gnorm = np.linalg.norm(g, 2)
    if dt * gnorm > 0.2:
        raise StepTooLarge(f"dt*||G|| = {dt * gnorm:.3g} exceeds 0.2")

    a = dt * g
    a2 = a @ a
    a3 = a2 @ a
    eye = np.eye(n, dtype=complex)
    phi = eye + a + a2 / 2.0 + a3 / 6.0 + (a3 @ a) / 24.0
    psi = dt * (eye + a / 2.0 + a2 / 6.0 + a3 / 24.0)
    forced = psi @ b

    for _ in range(steps):
        x = phi @ x + forced
    return x


def central_difference(f, x0: float, h: float, order: int = 1):
    """Plain central difference of first or second order derivative."""
    if order == 1:
        return (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    if order == 2:
        return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / h**2
    raise ValueError(f"order must be 1 or 2, got {order}")


def richardson_derivative(f, x0: float, h: float, order: int = 1):
    """Richardson-extrapolated central difference (steps h and h/2).

    Cancels the leading O(h^2) truncation term of the central stencil,
    leaving O(h^4).  ``f`` may return complex values.
    """
    coarse = central_difference(f, x0, h, order)
    fine = central_difference(f, x0, h / 2.0, order)
    return (4.0 * fine - coarse) / 3.0


def fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real > 0."""
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def prominent_peaks(values: np.ndarray, min_prominence: float) -> list[int]:
    """Indices of strict local maxima with topographic prominence above a floor.

    Prominence of a peak is its height minus the higher of the two valley
    minima separating it from the nearest higher-or-equal ground on each side
    (or from the array edge when no higher ground exists).  The values must
    be finite; bridge NaN points before calling.
    """
    y = np.asarray(values, dtype=float)
    peaks: list[int] = []
    for i in np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1:
        left = np.flatnonzero(y[:i] >= y[i])
        right = np.flatnonzero(y[i + 1:] >= y[i])
        start = left[-1] + 1 if left.size else 0
        stop = i + 1 + right[0] if right.size else y.size
        if y[i] - max(y[start:i + 1].min(), y[i:stop].min()) >= min_prominence:
            peaks.append(int(i))
    return peaks
