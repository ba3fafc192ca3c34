"""Nonequilibrium closure: dynamical pressure, entropy sources and dissipative productions.

The dynamical pressure is the gap between the out-of-equilibrium mixture
pressure and the pressure evaluated at the common average temperature,

    pi = p(rho1, rho2, T1, T2) - p(rho1, rho2, T, T),

closed by pi = -Lambda div v with Lambda >= 0 so that the total entropy
rate (Lambda / T)(div v)^2 is nonnegative.  For a pair of perfect gases
the gap is exactly linear in Theta = T2 - T1:

    pi = rho1 rho2 (k2 cv1 - k1 cv2) Theta / (rho1 cv1 + rho2 cv2),

and the relaxation form Theta = L_T (gamma1 - gamma2) div v with
L_T = M (rho1 cv1 / rho2 cv2)(rho1 cv1 + rho2 cv2), M >= 0, yields a
guaranteed-nonnegative Lambda.

Heat-exchange sources: the specific entropy rates solve

    rho1 T1 sdot1 + rho2 T2 sdot2 = 0
    rho1 sdot1 + rho2 sdot2 = (Lambda / T) (div v)^2

whose closed form carries a 1/(T2 - T1) denominator.  The closure is
genuinely stiff at T1 = T2; the denominator is regularized to
sign(T2 - T1) * epsilon_T (sign(0) = +1) below the gap epsilon_T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields as flds
from .avgtemp import average_temperature_field
from .thermo import GasPairModel


@dataclass(frozen=True)
class ClosureParams:
    """Source-term parameters.

    mode 'fixed-lambda' uses the given Lambda directly; mode 'relaxation-M'
    derives Lambda from the perfect-gas relaxation coefficient M per cell.
    chi is the momentum-production (drag) coefficient; epsilon_T the
    temperature-gap regularization.
    """

    mode: str = "fixed-lambda"
    lam: float = 0.0
    M: float = 0.0
    chi: float = 0.0
    epsilon_T: float = 3e-6     # default 1e-8 * T_ref for T_ref = 300

    def __post_init__(self):
        if self.mode not in ("fixed-lambda", "relaxation-M"):
            raise ValueError(f"unknown closure mode {self.mode!r}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if self.chi < 0:
            raise ValueError("chi must be nonnegative")
        if not self.epsilon_T > 0:
            raise ValueError("epsilon_T must be positive")

    def exchange_lambda(self, model: GasPairModel, rho1, rho2):
        """Lambda as the heat exchange takes it: lam in fixed-lambda mode, else per cell."""
        if self.mode == "fixed-lambda":
            return self.lam
        return lambda_coefficient(model, rho1, rho2, self.M)

    @cached_property
    def drag_rows(self) -> np.ndarray:
        """(2, 1) column: times u = v2 - v1, the drags -m, m on gases 1, 2, m = -chi u."""
        return momentum_production(self.chi, np.array([[-1.0], [1.0]]))


def dynamical_pressure_from_state(model: GasPairModel, rho1, rho2, T1, T2, T=None):
    """pi = p(T1, T2) - p(T, T) with T the average temperature.

    Evaluated from the definition, not from the perfect-gas formula, so it is
    an independent check of :func:`dynamical_pressure_perfect_gas`.  T is
    average_temperature_field's value at these arguments, formed here unless
    the caller has it already.
    """
    if T is None:
        T = average_temperature_field(model, rho1, rho2, T1, T2)
    p, p0 = _pressures(model, rho1, rho2, T1, T2, T)
    return p - p0


def _pressures(model: GasPairModel, rho1, rho2, T1, T2, T):
    """p = k1 rho1 T1 + k2 rho2 T2 and p0 = (k1 rho1 + k2 rho2) T, p at the common T."""
    return (model.k1 * rho1 * T1 + model.k2 * rho2 * T2,
            (model.k1 * rho1 + model.k2 * rho2) * T)


def _amp(model: GasPairModel, rho1, rho2):
    """rho1 rho2 (k2 cv1 - k1 cv2) / (rho1 cv1 + rho2 cv2), the slope d pi / d Theta."""
    den = rho1 * model.cv1 + rho2 * model.cv2
    return rho1 * rho2 * (model.k2 * model.cv1 - model.k1 * model.cv2) / den


def dynamical_pressure_perfect_gas(model: GasPairModel, rho1, rho2, theta):
    """Closed-form pi for perfect gases, linear in Theta = T2 - T1."""
    if (np.fmin(rho1, rho2) <= 0).any():    # fmin skips NaN, as <= does
        raise ValueError("densities must be positive")
    return _amp(model, rho1, rho2) * theta


def relaxation_length(model: GasPairModel, rho1, rho2, M):
    """L_T = M (rho1 cv1 / rho2 cv2)(rho1 cv1 + rho2 cv2); M < 0 raises ValueError."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    c1 = rho1 * model.cv1
    c2 = rho2 * model.cv2
    return M * (c1 / c2) * (c1 + c2)


def theta_constitutive(model: GasPairModel, rho1, rho2, M, divv):
    """Relaxation gap Theta = L_T (gamma1 - gamma2) div v."""
    return relaxation_length(model, rho1, rho2, M) * (model.gamma1 - model.gamma2) * divv


def lambda_coefficient(model: GasPairModel, rho1, rho2, M):
    """Lambda from the relaxation coefficient M.

    Composes pi(Theta) with Theta = L_T (gamma1 - gamma2) div v and
    pi = -Lambda div v.  Always nonnegative for M >= 0 since
    k2 cv1 - k1 cv2 = cv1 cv2 (gamma2 - gamma1).
    """
    return (-_amp(model, rho1, rho2) * relaxation_length(model, rho1, rho2, M)
            * (model.gamma1 - model.gamma2))


@dataclass
class EntropySources:
    """Specific entropy rates, heat exchanges and the total production."""

    sdot1: np.ndarray           # d1 s1 / dt
    sdot2: np.ndarray
    q1: np.ndarray              # rho1 T1 sdot1; q1 + q2 = 0 to round-off
    q2: np.ndarray
    regularized: np.ndarray     # cells where the T2 - T1 denominator was clipped
    rho1: np.ndarray            # the densities the rates were solved for
    rho2: np.ndarray

    @property
    def production(self) -> np.ndarray:
        """Total production rho1 sdot1 + rho2 sdot2; the solver never reads it."""
        return self.rho1 * self.sdot1 + self.rho2 * self.sdot2


def entropy_sources(model: GasPairModel, rho1, rho2, T1, T2, T, lam, divv,
                    epsilon_T: float) -> EntropySources:
    """Solve the heat-exchange system for the entropy rates.

    The common factor g = Lambda (div v)^2 T1 T2 / (T D), with D the
    regularized temperature gap, gives q1 = g, q2 = -g exactly and
    sdot_alpha = +-g / (rho_alpha T_alpha).
    """
    if (np.fmin(np.fmin(T1, T2), T) <= 0).any():     # fmin skips NaN, as <= does
        raise ValueError("temperatures must be positive")

    gap = np.subtract(T2, T1)
    g = _exchange(lam, divv, T1, T2, T, gap, epsilon_T)
    g_n, *rhoT = np.broadcast_arrays(g, rho1 * T1, rho2 * T2)
    sdot1, sdot2 = _entropy_rates(np.array([g_n, g_n]), np.array(rhoT))
    return EntropySources(sdot1=sdot1, sdot2=sdot2, q1=g, q2=-g,
                          regularized=(np.abs(gap) < epsilon_T) & (g != 0), rho1=rho1, rho2=rho2)


def _exchange(lam, divv, T1, T2, T, gap, epsilon_T: float, out=None, tmp=None):
    """g = Lambda (div v)^2 T1 T2 / (T D), unchecked, D the gap T2 - T1 clipped to
    sign(gap) epsilon_T (+ for +0.0) below epsilon_T; in out, T D in tmp, if given."""
    D = np.copysign(np.maximum(np.abs(gap, out=tmp), epsilon_T, out=tmp), gap, out=tmp)
    D = np.multiply(T, D, out=tmp)
    g = np.multiply(lam, np.square(divv, out=out), out=out)
    g = np.multiply(np.multiply(g, T1, out=out), T2, out=out)
    return np.divide(g, D, out=out)


def _entropy_rates(sdot, rhoT):
    """The specific entropy rates sdot = (g, -g) / (rho_a T_a), in place; sdot[0] holds g."""
    np.negative(sdot[0, ...], out=sdot[1, ...])
    return np.divide(sdot, rhoT, out=sdot)


def momentum_production(chi: float, u):
    """Drag force m = -chi u, u = v2 - v1, on component 2 (and -m on component 1)."""
    if chi < 0:
        raise ValueError("chi must be nonnegative")
    return np.multiply(-chi, u)


def entropy_production_sigma(gradT, q, m, u, sigma_d1, sigma_d2, D1, D2,
                             p, p0, divv, T):
    """Pointwise dissipative production Sigma (diagnostic only).

    Sigma = (p - p0) div v + (q / T) grad T + m u - tr(sigma_d D) summed over
    components; every term is nonpositive for the constitutive signs
    pi = -Lambda div v, Fourier q = -kappa grad T, drag m = -chi u and
    Navier-type sigma_d = mu D.  The drag m acts on component 2 and -m on
    component 1, with u = v2 - v1; its term enters as +m u (the dissipated
    drag power), the sign demanded by Sigma <= 0.
    """
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise ValueError("temperature must be positive")
    return (p - p0) * divv + q / T * gradT + m * u - sigma_d1 * D1 - sigma_d2 * D2


def fick_residual(mu_field, u, rho1, rho2, chi, grid) -> float:
    """Max-norm residual of the Fick law grad(mu) = -kappa u.

    kappa = rho chi / (rho1 rho2) with rho = rho1 + rho2; the gradient is
    the periodic central difference, so the residual of a manufactured
    consistent field is O(dx^2).
    """
    kappa = (rho1 + rho2) * chi / (rho1 * rho2)
    res = flds.grad(mu_field, grid) + kappa * u
    return float(np.max(np.abs(res)))
