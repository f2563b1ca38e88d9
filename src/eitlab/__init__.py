"""eitlab: numerical laboratory for probe-pulse propagation in a five-level
tripod-plus-lambda atomic medium.

Closed-form linear response, dispersion and group velocity, Kerr
nonlinearity and solitons, each cross-validated against independent numeric
oracles (direct linear solves, time integration, finite differences, and
split-step spectral propagation).
"""

from .errors import (
    BadLength,
    ConfigError,
    DomainError,
    EitlabError,
    GridMismatch,
    GridTooNarrow,
    NoDarkState,
    NonConvergence,
    NumericalError,
    PreconditionViolated,
    SingularDenominator,
    SingularMatrix,
    StepTooLarge,
    UnknownField,
    WrongSign,
    WrongSituation,
    ZeroBrightCoupling,
)
from .params import (
    C_LIGHT,
    DerivedCoupling,
    Diagnostic,
    FieldConfig,
    RabiField,
    Situation,
    config_from_dict,
    config_to_dict,
    derive_couplings,
    load_config,
    validate,
)
from .spectral import (
    BasisStates,
    EigenSystem4,
    build_h4,
    build_h5,
    dark_state,
    eigensystem_a,
    eigensystem_b,
    numeric_eigensystem,
    reconstruct_h4,
    transformed_basis,
)
from .response import (
    CoherenceSolution,
    Spectrum,
    absorption_spectrum,
    bloch_evolve,
    coherence_point,
    coherences_fourier,
    count_peaks,
    solve_direct,
    steady_state_interference,
    steady_state_lambda,
    steady_state_no_interference,
)
from .dispersion import (
    DispersionExpansion,
    GaussianPulseSpec,
    gaussian_closed_form,
    gaussian_field,
    kappa_of_omega,
    spectral_propagate,
    taylor_coefficients,
)
from .nls import (
    Envelope,
    NlsCoefficients,
    Soliton,
    SolitonSpec,
    analytic_soliton,
    dark_pair_envelope,
    kerr_coefficient,
    measure_dark_dip,
    nls_coefficients,
    reference_amplitude,
    soliton_fidelity,
    split_step,
)

__version__ = "0.1.0"
