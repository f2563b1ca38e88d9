"""Coupling matrices, transformed basis states, and closed-form eigensystems.

The four-level block couples (|b>, |c>, |d>, |e>) through the four control
fields; adding the probe coupling on |a> <-> |b> gives the full five-level
matrix; both are plain complex ndarrays.  In the transformed basis the
ground pair (|c>, |d>) splits into a superposition that still talks to the
upper excited state (bright) and one that does not (dark), and the whole
coupling matrix collapses onto the two interference coefficients alpha and
beta.  That decomposition is exact and is verified elementwise by
``reconstruct_h4``.

Both decay-free eigensystems that admit closed forms (regimes A and B) are
implemented and checked against the dense Hermitian eigensolver oracle
``numeric_eigensystem``, which also serves regime C.  Eigenvalues are
reported ascending; each eigenvector is normalized with its
largest-magnitude component made real positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoDarkState, WrongSituation, ZeroBrightCoupling
from .numerics import fix_eigenvector_phases
from .params import DerivedCoupling, FieldConfig, Situation, derive_couplings

#: Basis ordering of the four-level block.
BASIS4 = ("b", "c", "d", "e")
#: Basis ordering of the full five-level matrix.
BASIS5 = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class BasisStates:
    """Dark/bright superpositions of the ground pair, one set per excited state.

    ``d_e``/``b_e`` are the dark/bright unit superpositions of (|c>, |d>)
    with respect to the upper excited state; ``d_b``/``b_b`` the analogous
    pair with respect to |b> (normalized to unit length).
    """

    d_e: np.ndarray
    b_e: np.ndarray
    d_b: np.ndarray
    b_b: np.ndarray


@dataclass(frozen=True)
class EigenSystem4:
    """Eigenvalues (ascending, real) and unit eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_h4(cfg: FieldConfig) -> np.ndarray:
    """4x4 coupling matrix over (|b>, |c>, |d>, |e>), s^-1.

    Minus each control coupling plus H.c.: Hermitian, zero diagonal.
    """
    o1, o2, o3, o4 = cfg.control_values
    m = np.zeros((4, 4), dtype=complex)
    b, c, d, e = 0, 1, 2, 3
    m[c, b] = -np.conj(o1)
    m[d, b] = -np.conj(o2)
    m[c, e] = -np.conj(o3)
    m[d, e] = -np.conj(o4)
    m[b, c] = -o1
    m[b, d] = -o2
    m[e, c] = -o3
    m[e, d] = -o4
    return m


def build_h5(cfg: FieldConfig) -> np.ndarray:
    """5x5 coupling matrix over (|a>, ..., |e>): probe block plus ``build_h4``."""
    m = np.zeros((5, 5), dtype=complex)
    op = cfg.omega_p.value
    m[0, 1] = -np.conj(op)
    m[1, 0] = -op
    m[1:, 1:] = build_h4(cfg)
    return m


def transformed_basis(cfg: FieldConfig) -> BasisStates:
    """Dark/bright superpositions of (|c>, |d>) for both excited states.

    The pair referred to the upper excited state is normalized by
    construction; the pair referred to |b> is normalized explicitly (its
    natural coefficients do not come out unit length).
    """
    o1, o2, o3, o4 = cfg.control_values
    omega = cfg.omega_total
    if omega == 0.0:
        raise ZeroBrightCoupling("omega3 and omega4 are both zero; dark/bright split undefined")
    w12 = math.hypot(cfg.omega1.amplitude, cfg.omega2.amplitude)
    if w12 == 0.0:
        raise ZeroBrightCoupling("omega1 and omega2 are both zero; |b>-referred split undefined")

    d_e = np.array([o4, -o3], dtype=complex) / omega
    b_e = np.array([np.conj(o3), np.conj(o4)], dtype=complex) / omega
    d_b = np.array([o2, -o1], dtype=complex) / w12
    b_b = np.array([np.conj(o1), np.conj(o2)], dtype=complex) / w12
    return BasisStates(d_e=d_e, b_e=b_e, d_b=d_b, b_b=b_b)


def dark_state(cfg: FieldConfig) -> np.ndarray:
    """Unnormalized global dark state annihilated by the five-level matrix.

    Exists only while the interference coefficient beta is nonzero
    (regimes A and C); raises NoDarkState otherwise.
    """
    couplings = derive_couplings(cfg)
    if couplings.situation not in (Situation.A, Situation.C):
        raise NoDarkState(f"beta vanishes in situation {couplings.situation.value}")
    o3, o4 = cfg.omega3.value, cfg.omega4.value
    # conj(beta) on |a> and -Omega_p times the dark superposition d_e on
    # (|c>, |d>).  The conjugated coefficient on |a> is what the five-level
    # matrix annihilates exactly for complex couplings; the unconjugated form
    # only works when beta is real.
    vec = np.zeros(5, dtype=complex)
    vec[0] = np.conj(couplings.beta)
    vec[2:4] = -cfg.omega_p.value * np.array([o4, -o3]) / cfg.omega_total
    return vec


def reconstruct_h4(couplings: DerivedCoupling, basis: BasisStates) -> np.ndarray:
    """Rebuild the four-level matrix from the transformed-basis data.

    Must equal ``build_h4`` elementwise; this is the key algebraic identity
    of the basis change.
    """
    # -beta |D_e><b| - alpha |B_e><b| - omega |B_e><e|, plus H.c.
    m = np.zeros((4, 4), dtype=complex)
    m[1:3, 0] = -couplings.beta * basis.d_e - couplings.alpha * basis.b_e
    m[1:3, 3] = -couplings.omega_total * basis.b_e
    return m + m.conj().T


def _eigvec_from_lambda(lam: float, alpha: complex, beta: complex, omega: float,
                        d_e: np.ndarray, b_e: np.ndarray) -> np.ndarray:
    # For a nonzero eigenvalue with alpha != 0 the eigenvector follows from
    # back-substitution with the |e> component pinned to 1.
    x_e = 1.0
    x_b = (lam**2 - omega**2) / (alpha * omega)
    x_be = -lam / omega
    x_de = -beta * x_b / lam
    vec = np.zeros(4, dtype=complex)
    vec[0] = x_b
    vec[1:3] = x_de * d_e + x_be * b_e
    vec[3] = x_e
    return vec


def _finalize(pairs: list[tuple[float, np.ndarray]]) -> EigenSystem4:
    pairs.sort(key=lambda p: p[0])
    values = np.array([p[0] for p in pairs], dtype=float)
    vectors = np.column_stack([p[1] / np.linalg.norm(p[1]) for p in pairs])
    return EigenSystem4(eigenvalues=values, eigenvectors=fix_eigenvector_phases(vectors))


def eigensystem_a(cfg: FieldConfig) -> EigenSystem4:
    """Closed-form eigensystem of the four-level block in regime A.

    The four eigenvalues are +/- sqrt((s -/+ y)/2) with
    s = |alpha|^2 + |beta|^2 + omega^2 and y = sqrt(s^2 - 4 |beta|^2 omega^2);
    all four are nonzero and distinct while both coefficients are nonzero.
    """
    couplings = derive_couplings(cfg)
    if couplings.situation is not Situation.A:
        raise WrongSituation(f"regime A closed form needs situation A, got {couplings.situation.value}")
    alpha, beta, omega = couplings.alpha, couplings.beta, couplings.omega_total
    s = abs(alpha) ** 2 + abs(beta) ** 2 + omega**2
    y = math.sqrt(max(s**2 - 4.0 * abs(beta) ** 2 * omega**2, 0.0))

    basis = transformed_basis(cfg)
    pairs = []
    for branch in (s - y, s + y):
        lam = math.sqrt(max(branch, 0.0) / 2.0)
        for sign in (+1.0, -1.0):
            vec = _eigvec_from_lambda(sign * lam, alpha, beta, omega, basis.d_e, basis.b_e)
            pairs.append((sign * lam, vec))
    return _finalize(pairs)


def eigensystem_b(cfg: FieldConfig) -> EigenSystem4:
    """Closed-form eigensystem of the four-level block in regime B.

    Eigenvalues {0, 0, +/- sqrt(|alpha|^2 + omega^2)}; one zero mode is the
    decoupled dark ground superposition, the other a |b>-|e> combination.
    """
    couplings = derive_couplings(cfg)
    if couplings.situation is not Situation.B:
        raise WrongSituation(f"regime B closed form needs situation B, got {couplings.situation.value}")
    alpha, omega = couplings.alpha, couplings.omega_total
    basis = transformed_basis(cfg)
    r = math.sqrt(abs(alpha) ** 2 + omega**2)

    null_be = np.zeros(4, dtype=complex)
    null_be[0] = -omega / alpha
    null_be[3] = 1.0
    null_dark = np.zeros(4, dtype=complex)
    null_dark[1:3] = basis.d_e

    pairs = [(0.0, null_be), (0.0, null_dark)]
    for sign in (+1.0, -1.0):
        pairs.append((sign * r, _eigvec_from_lambda(sign * r, alpha, couplings.beta,
                                                    omega, basis.d_e, basis.b_e)))
    return _finalize(pairs)


def numeric_eigensystem(matrix: np.ndarray) -> EigenSystem4:
    """Dense Hermitian eigensolver oracle (``np.linalg.eigh``, LAPACK).

    Independent of the closed forms it checks, with their conventions:
    eigenvalues ascending, unit eigenvectors with the largest-magnitude
    component real > 0.  Residuals are ~1e-14 * ||H|| for 4x4 input.
    """
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    return EigenSystem4(eigenvalues=values, eigenvectors=fix_eigenvector_phases(vectors))
