"""1-D periodic method-of-lines solver for the closed two-temperature system.

The evolved state is MixtureState.packed, one (6, n) array with rows rho1,
rho2, v1, v2, s1, s2 (PRIMITIVES), stepped as is.  Each RHS pads it once with
G = 2 periodic ghost cells and evaluates both components at once, as the row
pairs (rho1, rho2), (v1, v2) and (s1, s2), with the per-component constants
as (2, 1) columns (thermo.PAIR).  Every stencil is a slice: conservative
MUSCL/local Lax-Friedrichs fluxes for density and momentum, second-order
central differences for the nonconservative momentum sources
rho_a T_a grad(s_a) - rho_a grad(h_a) and the entropy advection.  Time
integration is explicit SSP Runge-Kutta of order 3.  A step builds one
MixtureState, from its final stage, so the block is copied and validated
once per step; every stage rejects a nonpositive density or temperature,
naming the first bad cell.

The closure enters the dynamics only through the heat-exchange entropy
sources; the dynamical pressure is a diagnostic of the state, not an extra
stress.  div v in the sources uses the mass-average velocity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import closure as cls
from . import fields as flds
from . import thermo
from .avgtemp import average_temperature_field, beta_split
from .fields import PRIMITIVES, Grid1D, MixtureState
from .thermo import PAIR, GasPairModel

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Integration failure; carries the trajectory rows produced so far."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory or []


@dataclass(frozen=True)
class FieldInit:
    """Uniform background plus one Fourier mode: bg + amp sin(2 pi mode x / L + phase)."""

    bg: float
    amp: float = 0.0
    mode: int = 1
    phase: float = 0.0

    def build(self, grid: Grid1D) -> np.ndarray:
        x = grid.cell_centers()
        return self.bg + self.amp * np.sin(2 * np.pi * self.mode * x / grid.length + self.phase)


@dataclass(frozen=True)
class InitialConditions:
    rho1: FieldInit
    rho2: FieldInit
    v1: FieldInit
    v2: FieldInit
    s1: FieldInit
    s2: FieldInit

    def build(self, grid: Grid1D) -> MixtureState:
        return MixtureState(grid, *(getattr(self, n).build(grid) for n in PRIMITIVES))


def max_wave_speed(state: MixtureState, model: GasPairModel) -> float:
    u = state.packed
    T = thermo.temperature_from_entropy(model, PAIR, u[0:2], u[4:6])
    return float(np.max(np.abs(u[2:4]) + thermo.sound_speed(model, PAIR, T)))


@dataclass
class Scenario:
    grid: Grid1D
    model: GasPairModel
    closure: cls.ClosureParams
    initial: InitialConditions
    dt: float
    t_end: float
    stride: int = 10
    cfl: float = 0.4
    slaving: bool = False
    # the t = 0 state, built and CFL-checked once; integrate starts from it
    initial_state: MixtureState = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.initial_state = self.initial.build(self.grid)
        speed = max_wave_speed(self.initial_state, self.model)
        limit = self.cfl * self.grid.dx / speed
        if self.dt > limit:
            raise ValueError(
                f"CFL violation: dt={self.dt:g} exceeds {limit:g} "
                f"(cfl={self.cfl}, dx={self.grid.dx:g}, wave speed {speed:g})")


G = 2    # periodic ghost cells per side: MUSCL + LLF reach two cells
SIGN = np.array([[1.0], [-1.0]])    # exchange and drag act with + on gas 1, - on gas 2


def _minmod_slopes(u):
    """Minmod-limited slopes along the last axis of padded rows; one cell shorter at each end.

    minmod(l, r) = sign(l) min(|l|, |r|) if l r > 0, else 0, which is exactly
    the one-sided difference of smaller magnitude; built in place in r.
    """
    left, right = u[..., 1:-1] - u[..., :-2], u[..., 2:] - u[..., 1:-1]
    flat = ~(left * right > 0)
    np.copyto(right, left, where=np.abs(left) <= np.abs(right))
    right[flat] = 0.0
    return right


def _llf_flux_divergence(rho, m, speed, dx):
    """Local Lax-Friedrichs flux differences for (rho, m = rho v), row by row.

    MUSCL minmod reconstruction of the conserved pair at the faces keeps the
    flux dissipation O(dx^2) on smooth data; first-order LLF dissipation
    dominates the global energy drift otherwise.  Takes (k, n + 2G) rows
    padded with G ghost cells, one row per component; returns -dF/dx for rho
    and for m, each (k, n), on the interior cells.
    """
    q = np.concatenate((rho, m)).reshape((2,) + rho.shape)
    half = 0.5 * _minmod_slopes(q)          # cells 1 .. n+2 of the padded rows
    # face j+1/2 between padded cells j and j+1, for j = 1 .. n+1
    q_L = q[..., 1:-2] + half[..., :-1]
    q_R = q[..., 2:-1] - half[..., 1:]
    del q, half
    (rho_L, m_L), (rho_R, m_R) = q_L, q_R
    flux = np.empty_like(q_L)
    np.add(m_L, m_R, out=flux[0])
    np.add(m_L**2 / rho_L, m_R**2 / rho_R, out=flux[1])
    flux *= 0.5
    flux -= 0.5 * np.maximum(speed[..., 1:-2], speed[..., 2:-1]) * (q_R - q_L)
    return -(flux[..., 1:] - flux[..., :-1]) / dx


def _central(f, dx):
    """Second-order central difference along the last axis of padded rows, on the interior cells."""
    return (f[..., G + 1:1 - G] - f[..., G - 1:-1 - G]) / (2.0 * dx)


def rhs(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
        grid: Grid1D) -> np.ndarray:
    """Time derivatives of the packed (6, n) primitives, rows in PRIMITIVES order.

    Both components are evaluated at once, as the (2, n + 2G) row pairs
    rho = up[0:2], v = up[2:4] and s = up[4:6] of the periodically padded
    state, with the per-component constants as (2, 1) columns.  Pointwise
    quantities are evaluated once and every stencil is a slice.  A
    nonpositive density raises ValueError, a nonpositive temperature
    SolverError; both name the first offending cell.
    """
    up = np.concatenate((u[:, -G:], u, u[:, :G]), axis=1)
    rho, v, s = up[0:2], up[2:4], up[4:6]
    try:
        T = thermo.temperature_from_entropy(model, PAIR, rho, s)
    except ValueError:      # the density check failed; name the cell
        raise ValueError("nonpositive density: "
                         + flds.first_nonpositive(u[0:2], PRIMITIVES)) from None
    inner = slice(G, -G)
    rho_c, v_c, T_c = rho[:, inner], v[:, inner], T[:, inner]
    if (T_c <= 0).any():
        raise SolverError("nonpositive temperature in rhs evaluation: "
                          + flds.first_nonpositive(T_c, ("T1", "T2")))

    dx = grid.dx
    grad_s = _central(s, dx)
    m = rho * v
    divv = _central((m[0] + m[1]) / (rho[0] + rho[1]), dx)     # mass-average v
    T_avg = average_temperature_field(model, rho_c[0], rho_c[1], T_c[0], T_c[1])
    lam = closure.lambda_value(model, rho_c[0], rho_c[1])
    sources = cls.entropy_sources(model, rho_c[0], rho_c[1], T_c[0], T_c[1], T_avg, lam,
                                  divv, closure.epsilon_T)
    n_reg = int(np.count_nonzero(sources.regularized))
    if n_reg:
        log.info("entropy sources regularized in %d cells", n_reg)
    ds = np.stack((sources.sdot1, sources.sdot2)) - v_c * grad_s
    del divv, T_avg, lam, sources       # freed before the flux temporaries exist

    drho, dm = _llf_flux_divergence(rho, m, np.abs(v) + thermo.sound_speed(model, PAIR, T), dx)
    del m
    dm += rho_c * T_c * grad_s
    dm -= rho_c * _central(thermo.enthalpy(model, PAIR, T), dx)
    dm += SIGN * cls.momentum_production(closure.chi, v_c[1] - v_c[0])
    return np.concatenate((drho, (dm - v_c * drho) / rho_c, ds))


def _theta_slaving(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
                   grid: Grid1D) -> np.ndarray:
    """apply_theta_slaving on the packed (6, n) state; returns a new array."""
    rho, v = u[0:2], u[2:4]
    T = thermo.temperature_from_entropy(model, PAIR, rho, u[4:6])
    T_avg = average_temperature_field(model, rho[0], rho[1], T[0], T[1])
    divv = flds.div((rho[0] * v[0] + rho[1] * v[1]) / (rho[0] + rho[1]), grid)
    theta = cls.theta_constitutive(model, rho[0], rho[1], closure.M, divv)
    beta = beta_split(model, rho[0], rho[1])
    T = T_avg + np.stack((beta, 1.0 + beta)) * theta
    if np.any(T <= 0):
        raise SolverError("theta slaving produced nonpositive temperatures: "
                          + flds.first_nonpositive(T, ("T1", "T2")))
    return np.concatenate((u[0:4], thermo.entropy_from_temperature(model, PAIR, rho, T)))


def apply_theta_slaving(state: MixtureState, model: GasPairModel,
                        closure: cls.ClosureParams, grid: Grid1D) -> MixtureState:
    """Overwrite the temperature gap with its constitutive value.

    Re-splits T1, T2 around the (energy-preserving) average temperature using
    Theta = L_T (gamma1 - gamma2) div v and the density-weighted beta, then
    maps back to entropies.  Experimental interpretation; off by default.
    """
    return MixtureState(grid, *_theta_slaving(state.packed, model, closure, grid))


def step(state: MixtureState, scenario: Scenario) -> MixtureState:
    """One SSP-RK3 step (Shu-Osher form) on the packed state."""
    grid, model, closure, dt = scenario.grid, scenario.model, scenario.closure, scenario.dt
    u0 = state.packed
    try:
        u = u0 + dt * rhs(u0, model, closure, grid)       # one name, so each stage frees the last
        u = 0.75 * u0 + 0.25 * (u + dt * rhs(u, model, closure, grid))
        u = 1.0 / 3.0 * u0 + 2.0 / 3.0 * (u + dt * rhs(u, model, closure, grid))
        if scenario.slaving:
            u = _theta_slaving(u, model, closure, grid)
        return MixtureState(grid, *u)
    except ValueError as exc:   # positivity or finiteness violation
        raise SolverError(f"positivity violation during step: {exc}") from exc


@dataclass
class Diagnostics:
    total_mass1: float
    total_mass2: float
    total_momentum: float
    total_energy: float
    total_entropy: float
    min_temperature_gap: float
    T1: np.ndarray
    T2: np.ndarray
    T_avg: np.ndarray
    p: np.ndarray               # k1 rho1 T1 + k2 rho2 T2
    p0: np.ndarray              # (k1 rho1 + k2 rho2) T_avg
    divv_field: np.ndarray

    @property
    def pi_field(self) -> np.ndarray:
        """Dynamical pressure p - p0, as closure.dynamical_pressure_from_state."""
        return self.p - self.p0

    @property
    def theta_field(self) -> np.ndarray:
        """Temperature gap T2 - T1."""
        return self.T2 - self.T1


def diagnostics(state: MixtureState, model: GasPairModel,
                closure: cls.ClosureParams, grid: Grid1D) -> Diagnostics:
    rho1, rho2, v1, v2, s1, s2 = state.packed
    pt = thermo.thermo_eval(model, rho1, rho2, s1, s2)
    dx = grid.dx
    kinetic = 0.5 * (rho1 * v1**2 + rho2 * v2**2)
    T_avg = average_temperature_field(model, rho1, rho2, pt.T1, pt.T2)
    return Diagnostics(
        total_mass1=float(np.sum(rho1) * dx),
        total_mass2=float(np.sum(rho2) * dx),
        total_momentum=float(np.sum(rho1 * v1 + rho2 * v2) * dx),
        total_energy=float(np.sum(pt.e + kinetic) * dx),
        total_entropy=float(np.sum(rho1 * s1 + rho2 * s2) * dx),
        min_temperature_gap=float(np.min(np.abs(pt.T2 - pt.T1))),
        T1=pt.T1, T2=pt.T2, T_avg=T_avg, p=pt.p,
        p0=(model.k1 * rho1 + model.k2 * rho2) * T_avg,
        divv_field=flds.div(state.v_mean, grid),
    )


@dataclass
class TrajectoryPoint:
    t: float
    state: MixtureState
    diag: Diagnostics


def integrate(scenario: Scenario) -> list[TrajectoryPoint]:
    """Run the scenario to t_end, recording diagnostics every stride steps."""
    grid, model, closure = scenario.grid, scenario.model, scenario.closure
    state = scenario.initial_state
    rows = [TrajectoryPoint(0.0, state, diagnostics(state, model, closure, grid))]
    n_steps = int(round(scenario.t_end / scenario.dt))
    t = 0.0
    for k in range(1, n_steps + 1):
        try:
            state = step(state, scenario)
        except SolverError as exc:
            raise SolverError(f"aborted at t={t:g} (step {k}): {exc}", trajectory=rows) from exc
        t = k * scenario.dt
        if k % scenario.stride == 0 or k == n_steps:
            rows.append(TrajectoryPoint(t, state, diagnostics(state, model, closure, grid)))
    return rows
