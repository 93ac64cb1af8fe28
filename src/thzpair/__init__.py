"""Steady states and photon-pair correlations of a biased two-level emitter.

A two-level system whose permanent dipole moments differ between ground
and excited state emits at the laser frequency, at the (shifted) transition
frequency, and at the difference frequency between them.  This package
builds the resulting five-channel relaxation model, solves for steady
states and two-time correlation functions, and cross-checks the effective
Hamiltonian coefficients on a truncated bosonic mode.
"""

from .algebra import HS_BASIS, ID, SM, SP, SZ, commutator, dagger, expectation
from .correlations import (
    ChannelDarkError,
    CorrelationReport,
    cauchy_schwarz,
    g2_tau,
    g2_zero,
)
from .dynamics import (
    AdjointGenerator,
    BlochState,
    DegenerateSteadyStateError,
    PhysicalityError,
    build_adjoint_generator,
    dual_generator,
    excited_state,
    ground_state,
    propagate,
    steady_state,
)
from .heff import HeffReport, verify_derivation
from .model import (
    ConfigError,
    EffectiveModel,
    PhysicalParams,
    from_physical,
    parse_config,
    preset,
    preset_names,
    rabi_from_field,
    rate_at,
    with_rabi,
)

__version__ = "0.1.0"

__all__ = [
    "HS_BASIS",
    "ID",
    "SM",
    "SP",
    "SZ",
    "commutator",
    "dagger",
    "expectation",
    "ChannelDarkError",
    "CorrelationReport",
    "cauchy_schwarz",
    "g2_tau",
    "g2_zero",
    "AdjointGenerator",
    "BlochState",
    "DegenerateSteadyStateError",
    "PhysicalityError",
    "build_adjoint_generator",
    "dual_generator",
    "excited_state",
    "ground_state",
    "propagate",
    "steady_state",
    "HeffReport",
    "verify_derivation",
    "ConfigError",
    "EffectiveModel",
    "PhysicalParams",
    "from_physical",
    "parse_config",
    "preset",
    "preset_names",
    "rabi_from_field",
    "rate_at",
    "with_rabi",
    "__version__",
]
