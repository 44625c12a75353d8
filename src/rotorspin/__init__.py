"""rotorspin: quasi-energy spectra, spin dynamics and nonadiabatic
geometric phases of a spin-1 defect in a uniformly rotating frame."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegeneracyError,
    DivergenceError,
    FlatTraceError,
    InvalidArgumentError,
    NoCrossingError,
    NumericFailureError,
    RegimeError,
    RotorSpinError,
    TrackingError,
)
from .spin_algebra import (
    SPIN,
    EigenSystem,
    SpinOperatorSet,
    hermitian_eigensystem,
    make_spin_operators,
    spin1_exp,
    unitarity_defect,
)
from .model import (
    DerivedScales,
    RotorParams,
    derived_scales,
    h_interaction,
    h_rotating,
)
from .floquet import (
    LABELS,
    CrossingReport,
    QuasiSpectrum,
    avoided_crossing,
    cubic_quasienergies,
    floquet_matrix,
    fold,
    physical_modes,
    quasienergies_zero_field,
    quasienergy_spectrum,
)
from .dynamics import (
    EvolutionTrace,
    evolve,
    monodromy,
    propagator_zero_field,
    rabi_fit,
)
from .geomphase import (
    GeometricPhaseSet,
    gauge_operator,
    geometric_phases_with_field,
    geometric_phases_zero_field,
    verify_gauge_sign,
)
from .sensing import (
    ResonanceSolution,
    angle_uncertainty,
    resonant_field,
    resonant_omega,
)
from .config import AxisSpec, SweepConfig, parse_config, serialize
from .runner import Dataset, emit_csv, run

__all__ = [
    "__version__",
    "RotorSpinError", "InvalidArgumentError", "RegimeError", "DivergenceError",
    "NumericFailureError", "TrackingError", "NoCrossingError", "FlatTraceError",
    "DegeneracyError", "ConfigError",
    "SPIN", "SpinOperatorSet", "EigenSystem", "make_spin_operators",
    "spin1_exp", "hermitian_eigensystem", "unitarity_defect",
    "RotorParams", "DerivedScales", "derived_scales", "h_rotating",
    "h_interaction",
    "LABELS", "QuasiSpectrum", "CrossingReport", "cubic_quasienergies",
    "quasienergies_zero_field", "floquet_matrix", "physical_modes",
    "quasienergy_spectrum", "avoided_crossing", "fold",
    "EvolutionTrace", "propagator_zero_field", "evolve", "monodromy",
    "rabi_fit",
    "GeometricPhaseSet", "gauge_operator", "geometric_phases_zero_field",
    "geometric_phases_with_field", "verify_gauge_sign",
    "ResonanceSolution", "resonant_omega", "resonant_field",
    "angle_uncertainty",
    "AxisSpec", "SweepConfig", "parse_config", "serialize",
    "Dataset", "run", "emit_csv",
]
