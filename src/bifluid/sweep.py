"""Parameter sweeps over the temperature gap and composition.

Each sweep point fixes a background temperature T and a gap Theta, splits
them into component temperatures with the density-weighted beta, and tabulates
the average temperature, the dynamical pressure both from the state and from
the closed-form perfect-gas formula, and the relaxation-closure quantities at
unit coefficients.  Invalid points (nonpositive temperatures) are skipped
with a logged reason rather than aborting the sweep.

Beta, T_avg's weight c2 / (c1 + c2), the slope of pi in Theta, Lambda(M)
and Theta(M) per unit div v depend on the densities alone, so they are
evaluated once per (rho1, rho2) line and reused at every Theta of that line;
each row still equals the one a direct evaluation at its Theta gives, bit
for bit.  ``sweep_rows`` yields the rows one at a time, so ``bifluid
sweep`` keeps only their float columns.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import closure as cls
from .avgtemp import average_temperature_field, beta_split
from .thermo import GasPairModel

log = logging.getLogger(__name__)

ROW_FIELDS = ("model", "rho1", "rho2", "theta", "T_background",
              "T1", "T2", "T_avg", "beta", "pi_state", "pi_formula",
              "lambda_unit_M", "theta_unit", "skipped", "reason")


@dataclass(frozen=True)
class Range:
    """Linear range (min, max, count); count = 1 collapses to min."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if not np.isfinite([self.min, self.max]).all():
            raise ValueError(f"min and max must be finite, got {self.min}, {self.max}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.count > 1 and not self.max > self.min:
            raise ValueError("max must exceed min for count > 1")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep grid over Theta and the two densities."""

    theta_range: Range = Range(-20.0, 20.0, 5)
    rho1_range: Range = Range(0.5, 2.0, 3)
    rho2_range: Range = Range(0.5, 2.0, 3)
    T_background: float = 300.0
    divv_unit: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.T_background, self.divv_unit]).all():
            raise ValueError("T_background and divv_unit must be finite")
        if not self.T_background > 0:
            raise ValueError("T_background must be positive")
        if self.rho1_range.min <= 0 or self.rho2_range.min <= 0:
            raise ValueError("density ranges must be positive")


@functools.lru_cache(maxsize=1)
def _line_terms(model: GasPairModel, rho1: float, rho2: float) -> tuple:
    """(beta, T_avg's weight, d pi / d Theta, Lambda at M = 1, Theta at M = 1 per unit div v).

    Each is the function at Theta = 1, div v = 1 or (T1, T2) = (0, 1), so the
    point's Theta or div v times it, or T1 + weight (T2 - T1), is its value
    at the point exactly (x * 1.0 == x, x + 0.0 == x for x > 0).  sweep_rows
    varies Theta innermost, so a one-entry memo misses once per line; div v
    stays out of the key because a key cannot tell 0.0 from -0.0.
    """
    return (beta_split(model, rho1, rho2),
            average_temperature_field(model, rho1, rho2, 0.0, 1.0),
            cls.dynamical_pressure_perfect_gas(model, rho1, rho2, 1.0),
            cls.lambda_coefficient(model, rho1, rho2, 1.0),
            cls.theta_constitutive(model, rho1, rho2, 1.0, 1.0))


def sweep_point(model: GasPairModel, model_name: str, rho1: float, rho2: float,
                theta: float, T_bg: float, divv_unit: float) -> dict:
    """One sweep row, keys in ROW_FIELDS order.

    A row whose split temperatures are not both positive is marked skipped,
    with a reason, and its T_avg and closure columns are None.
    """
    beta, weight, pi_slope, lambda_unit_M, theta_slope = _line_terms(model, rho1, rho2)
    T1 = T_bg + beta * theta
    T2 = T_bg + (1.0 + beta) * theta
    skipped = T1 <= 0 or T2 <= 0
    if skipped:
        reason = f"nonpositive split temperature T1={T1:g} T2={T2:g}"
        T_avg = pi_state = pi_formula = lambda_unit_M = theta_unit = None
    else:
        reason = ""
        T_avg = T1 + weight * (T2 - T1)
        # the independent check of pi_formula, from the state's pressures
        pi_state = cls.dynamical_pressure_from_state(model, rho1, rho2, T1, T2, T_avg)
        pi_formula = pi_slope * theta
        theta_unit = theta_slope * divv_unit
    return {"model": model_name, "rho1": rho1, "rho2": rho2, "theta": theta,
            "T_background": T_bg, "T1": T1, "T2": T2, "T_avg": T_avg, "beta": beta,
            "pi_state": pi_state, "pi_formula": pi_formula,
            "lambda_unit_M": lambda_unit_M, "theta_unit": theta_unit,
            "skipped": skipped, "reason": reason}


def sweep_rows(spec: SweepSpec, models: dict[str, GasPairModel]) -> Iterator[dict]:
    """Cartesian product of the spec ranges over every named model, in the
    input ordering, one row at a time; each skipped row is logged as it is made."""
    for name, model in models.items():
        for rho1, rho2, theta in itertools.product(
                spec.rho1_range.values().tolist(), spec.rho2_range.values().tolist(),
                spec.theta_range.values().tolist()):
            row = sweep_point(model, name, rho1, rho2, theta,
                              spec.T_background, spec.divv_unit)
            if row["skipped"]:
                log.warning("skipping sweep point %s rho1=%g rho2=%g theta=%g: %s",
                            name, rho1, rho2, theta, row["reason"])
            yield row


def run_sweep(spec: SweepSpec, models: dict[str, GasPairModel]) -> list[dict]:
    """sweep_rows' rows as a list; rows are independent."""
    return list(sweep_rows(spec, models))
