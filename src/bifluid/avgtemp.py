"""Average temperature of the mixture and the temperature-deviation split.

The average temperature T is the single temperature at which the mixture
internal energy matches the actual two-temperature energy at the same
densities:

    rho1 eps1(rho1, T) + rho2 eps2(rho2, T) = rho1 eps1(rho1, T1) + rho2 eps2(rho2, T2).

For constant specific heats the equation is linear in T, so it is solved in
closed form,

    T = T1 - beta (T2 - T1),

with the density-weighted deviation-split coefficient

    beta = - rho2 cv2 / (rho1 cv1 + rho2 cv2).

The split writes T1 = T + beta Theta and T2 = T + (1 + beta) Theta with
Theta = T2 - T1, which is the weighting consistent with the perfect-gas
dynamical-pressure formula (see the closure module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import GasPairModel


@dataclass
class AverageTempResult:
    T: float
    theta1: float          # T1 - T
    theta2: float          # T2 - T
    # Always 0 since T is computed in closed form; kept because thermo-eval
    # prints it and callers read it.
    iterations: int
    residual: float        # energy-equation residual of T [J/m^3]


def average_temperature(model: GasPairModel, rho1: float, rho2: float,
                        T1: float, T2: float) -> AverageTempResult:
    """Average temperature of a single state, with its energy residual.

    Raises ValueError on nonpositive inputs.
    """
    for name, val in (("rho1", rho1), ("rho2", rho2), ("T1", T1), ("T2", T2)):
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")

    c1, c2 = rho1 * model.cv1, rho2 * model.cv2
    T = average_temperature_field(model, rho1, rho2, T1, T2)
    return AverageTempResult(T=T, theta1=T1 - T, theta2=T2 - T, iterations=0,
                             residual=c1 * T + c2 * T - (c1 * T1 + c2 * T2))


def average_temperature_field(model: GasPairModel, rho1, rho2, T1, T2):
    """Closed-form average temperature; floats give a float, arrays broadcast.

    Inputs are not validated: this runs per snapshot, slaved step and sweep point.
    Equal component temperatures return T1 exactly.
    """
    c1, c2, gap = rho1 * model.cv1, rho2 * model.cv2, T2 - T1
    if isinstance(c1, np.ndarray) or isinstance(c2, np.ndarray):
        # the kernel works in place, so its capacities take the result's shape
        shape = np.broadcast_shapes(np.shape(c1), np.shape(c2), np.shape(T1), np.shape(gap))
        c1, c2 = (c if np.shape(c) == shape else np.broadcast_to(c, shape).copy()
                  for c in (c1, c2))
    return _average_temperature(c1, c2, T1, gap)


def _average_temperature(c1, c2, T1, gap):
    """T = T1 + c2 / (c1 + c2) gap from the heat capacities c_a = rho_a cv_a and
    the gap T2 - T1; array capacities are overwritten, c2 with T, floats not."""
    c1 += c2
    c2 /= c1
    c2 *= gap
    c2 += T1
    return c2


def linearized_constraint_residual(model: GasPairModel, rho1, rho2,
                                   result: AverageTempResult) -> float:
    """Density-weighted first-order constraint rho1 cv1 Theta1 + rho2 cv2 Theta2."""
    return rho1 * model.cv1 * result.theta1 + rho2 * model.cv2 * result.theta2


def beta_split(model: GasPairModel, rho1, rho2):
    """Deviation-split coefficient beta = -rho2 cv2 / (rho1 cv1 + rho2 cv2)."""
    if (np.fmin(rho1, rho2) <= 0).any():    # fmin skips NaN, as <= does
        raise ValueError("densities must be positive")
    return -rho2 * model.cv2 / (rho1 * model.cv1 + rho2 * model.cv2)
