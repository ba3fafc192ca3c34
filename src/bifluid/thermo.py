"""Thermodynamics of a pair of calorically perfect gases with separate entropies.

The mixture internal energy per unit volume is separable,

    e(rho1, rho2, s1, s2) = rho1 cv1 T1 + rho2 cv2 T2,

with each component temperature obtained from its own entropy through the
calorically-perfect-gas entropy form

    s = s_ref + cv ln(T / T_ref) - k ln(rho / rho_ref).

Partial pressures follow the ideal-gas law p_alpha = k_alpha rho_alpha T_alpha.
Component stress pressures rho_alpha * de/drho_alpha - rho_alpha e / rho differ
from the partial pressures componentwise but sum to the same total, which is
the testable consistency of the two definitions.

All functions broadcast over numpy arrays.  A component index alpha is 1 or
2, or PAIR for both gases at once: the per-component constants then come as
(2, 1) columns, so fields stacked as (2, n) rows (gas 1 first) are evaluated
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

PAIR = (1, 2)    # component index selecting both gases as (2, 1) columns


@dataclass(frozen=True)
class GasPairModel:
    """Perfect-gas parameters for the two components.

    k1, k2:   specific gas constants [J/(kg K)]
    cv1, cv2: specific heats at constant volume [J/(kg K)]
    T_ref, rho_ref, s_ref: reference state for the entropy origin
    """

    k1: float
    k2: float
    cv1: float
    cv2: float
    T_ref: float = 300.0
    rho_ref: float = 1.0
    s_ref: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "cv1", "cv2", "T_ref", "rho_ref"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def gamma1(self) -> float:
        return 1.0 + self.k1 / self.cv1

    @property
    def gamma2(self) -> float:
        return 1.0 + self.k2 / self.cv2

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, formed once: the sweep's memo hashes
        the model at every point."""
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        """k, cv, gamma, cv + k and gamma k of both gases as read-only (2, 1) columns;
        "h, c^2" stacks the last two, so one multiply by T gives h and c^2."""
        k, cv, gamma = (np.array([[getattr(self, name + "1")], [getattr(self, name + "2")]])
                        for name in ("k", "cv", "gamma"))
        h_c2 = np.stack((cv + k, gamma * k))
        for col in (k, cv, gamma, h_c2):
            col.flags.writeable = False
        return {"k": k, "cv": cv, "gamma": gamma, "cv + k": h_c2[0], "gamma k": h_c2[1],
                "h, c^2": h_c2}

    def _constant(self, name: str, alpha) -> float | np.ndarray:
        """The constant name of gas alpha; the one check of a component index."""
        if alpha == PAIR:
            return self._columns[name]
        if alpha not in (1, 2):
            raise ValueError(f"component index must be 1, 2 or PAIR, got {alpha}")
        return self._columns[name][int(alpha) - 1].item()

    def k(self, alpha) -> float | np.ndarray:
        return self._constant("k", alpha)

    def cv(self, alpha) -> float | np.ndarray:
        return self._constant("cv", alpha)

    def gamma(self, alpha) -> float | np.ndarray:
        return self._constant("gamma", alpha)


def temperature_from_entropy(model: GasPairModel, alpha, rho, s):
    """Component temperature T_alpha(rho, s); inverse of entropy_from_temperature."""
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0).any():
        raise ValueError("density must be positive")
    return _temperature(model, alpha, rho, np.asarray(s, dtype=float))


def _temperature(model: GasPairModel, alpha, rho, s, out=None, tmp=None):
    """T_ref exp((s - s_ref + k log(rho / rho_ref)) / cv), unchecked; in out, tmp if given."""
    k, cv = model.k(alpha), model.cv(alpha)
    T = np.multiply(k, np.log(np.divide(rho, model.rho_ref, out=out), out=out), out=out)
    T = np.divide(np.add(np.subtract(s, model.s_ref, out=tmp), T, out=out), cv, out=out)
    return np.multiply(model.T_ref, np.exp(T, out=out), out=out)


def entropy_from_temperature(model: GasPairModel, alpha, rho, T):
    """Specific entropy s_alpha(rho, T) for the perfect-gas form."""
    k, cv = model.k(alpha), model.cv(alpha)
    rho = np.asarray(rho, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be positive")
    if np.any(T <= 0):
        raise ValueError("temperature must be positive")
    return model.s_ref + cv * np.log(T / model.T_ref) - k * np.log(rho / model.rho_ref)


@dataclass
class ThermoPoint:
    """All thermodynamic quantities at one state (or fieldwise)."""

    T1: np.ndarray
    T2: np.ndarray
    p_partial1: np.ndarray   # k1 rho1 T1 (Dalton form)
    p_partial2: np.ndarray
    p_stress1: np.ndarray    # rho1 de/drho1 - rho1 e / rho (stress form)
    p_stress2: np.ndarray
    h1: np.ndarray           # specific enthalpy de/drho_alpha
    h2: np.ndarray
    mu1: np.ndarray          # chemical potential h_alpha - T_alpha s_alpha
    mu2: np.ndarray
    e: np.ndarray            # internal energy per unit volume
    p: np.ndarray            # total pressure


def thermo_eval(model: GasPairModel, rho1, rho2, s1, s2) -> ThermoPoint:
    """Evaluate temperatures, pressures, enthalpies and chemical potentials."""
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)

    T1 = temperature_from_entropy(model, 1, rho1, s1)
    T2 = temperature_from_entropy(model, 2, rho2, s2)
    rho = rho1 + rho2
    e = internal_energy_volume(model, rho1, rho2, T1, T2)

    h1 = enthalpy(model, 1, T1)
    h2 = enthalpy(model, 2, T2)
    p_partial1 = model.k1 * rho1 * T1
    p_partial2 = model.k2 * rho2 * T2
    p_stress1 = rho1 * h1 - rho1 * e / rho
    p_stress2 = rho2 * h2 - rho2 * e / rho

    return ThermoPoint(
        T1=T1, T2=T2,
        p_partial1=p_partial1, p_partial2=p_partial2,
        p_stress1=p_stress1, p_stress2=p_stress2,
        h1=h1, h2=h2,
        mu1=h1 - T1 * s1, mu2=h2 - T2 * s2,
        e=e, p=p_partial1 + p_partial2,
    )


def internal_energy_volume(model: GasPairModel, rho1, rho2, T1, T2):
    """e = rho1 cv1 T1 + rho2 cv2 T2 of floats or numpy arrays (a list is not coerced)."""
    return rho1 * model.cv1 * T1 + rho2 * model.cv2 * T2


def enthalpy(model: GasPairModel, alpha, T):
    """Specific enthalpy h = (cv + k) T = de/drho_alpha of one component (or PAIR)."""
    return np.multiply(model._constant("cv + k", alpha), T)


def sound_speed(model: GasPairModel, alpha, T):
    """Isentropic sound speed sqrt(gamma k T) of one component (or PAIR)."""
    return np.sqrt(np.multiply(model._constant("gamma k", alpha), np.asarray(T, dtype=float)))


def _enthalpy_and_sound_speed(model: GasPairModel, T, out):
    """h and c of both gases from PAIR rows T into out[0], out[1]: h, c^2 in one multiply."""
    np.multiply(model._constant("h, c^2", PAIR), T, out=out)
    np.sqrt(out[1], out=out[1])
    return out
