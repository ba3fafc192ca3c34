"""Binary fluid mixtures with two component temperatures.

Library for the thermodynamic structure, average-temperature/dynamical-
pressure closure, Gibbs dynamical-identity verification, and a 1-D periodic
finite-volume solver with conservation and entropy diagnostics.
"""

from .avgtemp import (AverageTempResult, average_temperature,
                      average_temperature_field, beta_split,
                      linearized_constraint_residual)
from .closure import (ClosureParams, EntropySources,
                      dynamical_pressure_from_state,
                      dynamical_pressure_perfect_gas, entropy_production_sigma,
                      entropy_sources, fick_residual, lambda_coefficient,
                      momentum_production, relaxation_length,
                      theta_constitutive)
from .fields import Grid1D, MixtureState, div, grad, material_derivative
from .solver import (Diagnostics, FieldInit, InitialConditions, Scenario,
                     SolverError, TrajectoryPoint, diagnostics, integrate,
                     max_wave_speed, rhs, step, trajectory)
from .sweep import Range, SweepSpec, run_sweep, sweep_point
from .thermo import (PAIR, GasPairModel, ThermoPoint, enthalpy,
                     entropy_from_temperature, internal_energy_volume,
                     sound_speed, temperature_from_entropy, thermo_eval)

__version__ = "0.1.0"

# Only the identity verifier uses its names, and compiling identity.py costs
# about 10 ms when no bytecode is cached (PYTHONDONTWRITEBYTECODE), so they
# are loaded on first access (PEP 562) and `import bifluid` does not pay that.
_IDENTITY_NAMES = frozenset((
    "APPENDIX_IDS", "ExtendedPotential", "IdentityReport", "LagrangianQuantities",
    "ManufacturedFields", "PotentialValidationError", "SampleWindow",
    "appendix_term_residual", "convergence_order", "gibbs_residual",
    "gibbs_terms", "lagrangian_quantities"))


def __getattr__(name):
    if name in _IDENTITY_NAMES:
        from . import identity
        value = getattr(identity, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _IDENTITY_NAMES)
