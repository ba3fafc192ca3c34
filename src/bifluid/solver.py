"""1-D periodic method-of-lines solver for the closed two-temperature system.

The evolved state is one packed (6, n) array with rows rho1, rho2, v1, v2,
s1, s2 (PRIMITIVES).  Each RHS pads it once with G = 2 periodic ghost cells
and takes every stencil as a slice: conservative MUSCL/local Lax-Friedrichs
fluxes for density and momentum, second-order central differences for the
nonconservative momentum sources rho_a T_a grad(s_a) - rho_a grad(h_a) and
the entropy advection.  Time integration is explicit SSP Runge-Kutta of
order 3.  A step builds one MixtureState, from its final stage, so
finiteness and positivity are validated once per step; thermo_eval still
rejects a nonpositive density in every stage.

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
from .fields import Grid1D, MixtureState
from .thermo import GasPairModel

log = logging.getLogger(__name__)

PRIMITIVES = ("rho1", "rho2", "v1", "v2", "s1", "s2")


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
    pt = thermo.thermo_eval(model, state.rho1, state.rho2, state.s1, state.s2)
    a1 = np.abs(state.v1) + thermo.sound_speed(model, 1, pt.T1)
    a2 = np.abs(state.v2) + thermo.sound_speed(model, 2, pt.T2)
    return float(max(np.max(a1), np.max(a2)))


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

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        state = self.initial.build(self.grid)
        speed = max_wave_speed(state, self.model)
        limit = self.cfl * self.grid.dx / speed
        if self.dt > limit:
            raise ValueError(
                f"CFL violation: dt={self.dt:g} exceeds {limit:g} "
                f"(cfl={self.cfl}, dx={self.grid.dx:g}, wave speed {speed:g})")


G = 2    # periodic ghost cells per side: MUSCL + LLF reach two cells


def _minmod_slopes(u):
    """Minmod-limited slopes of a padded row; one cell shorter at each end."""
    left, right = u[1:-1] - u[:-2], u[2:] - u[1:-1]
    return np.where(left * right > 0,
                    np.sign(left) * np.minimum(np.abs(left), np.abs(right)),
                    0.0)


def _llf_flux_divergence(rho, v, speed, dx):
    """Local Lax-Friedrichs flux differences for (rho, rho v).

    MUSCL minmod reconstruction of the conserved pair at the faces keeps the
    flux dissipation O(dx^2) on smooth data; first-order LLF dissipation
    dominates the global energy drift otherwise.  Takes rows padded with G
    ghost cells; returns -dF/dx for (rho, rho v) on the n interior cells.
    """
    m = rho * v
    half_rho = 0.5 * _minmod_slopes(rho)     # cells 1 .. n+2 of the padded row
    half_m = 0.5 * _minmod_slopes(m)
    # face j+1/2 between padded cells j and j+1, for j = 1 .. n+1
    rho_L = rho[1:-2] + half_rho[:-1]
    rho_R = rho[2:-1] - half_rho[1:]
    m_L = m[1:-2] + half_m[:-1]
    m_R = m[2:-1] - half_m[1:]
    a_face = np.maximum(speed[1:-2], speed[2:-1])
    flux_rho = 0.5 * (m_L + m_R) - 0.5 * a_face * (rho_R - rho_L)
    flux_m = 0.5 * (m_L**2 / rho_L + m_R**2 / rho_R) - 0.5 * a_face * (m_R - m_L)
    drho = -(flux_rho[1:] - flux_rho[:-1]) / dx
    dm = -(flux_m[1:] - flux_m[:-1]) / dx
    return drho, dm


def _central(f, dx):
    """Second-order central difference of a padded row on the interior cells."""
    return (f[G + 1:1 - G] - f[G - 1:-1 - G]) / (2.0 * dx)


def rhs(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
        grid: Grid1D) -> np.ndarray:
    """Time derivatives of the packed (6, n) primitives, rows in PRIMITIVES order.

    Pointwise quantities are evaluated once on the periodically padded state
    and every stencil is a slice of it.  A nonpositive density raises
    ValueError, a nonpositive temperature SolverError.
    """
    up = np.concatenate((u[:, -G:], u, u[:, :G]), axis=1)
    rho1, rho2, v1, v2, s1, s2 = up
    pt = thermo.thermo_eval(model, rho1, rho2, s1, s2)
    if np.any(pt.T1 <= 0) or np.any(pt.T2 <= 0):
        raise SolverError("nonpositive temperature in rhs evaluation")

    dx = grid.dx
    inner = slice(G, -G)
    divv = _central((rho1 * v1 + rho2 * v2) / (rho1 + rho2), dx)     # mass-average v
    r1, r2, T1, T2 = rho1[inner], rho2[inner], pt.T1[inner], pt.T2[inner]
    T = average_temperature_field(model, r1, r2, T1, T2)
    lam = closure.lambda_value(model, r1, r2)
    sources = cls.entropy_sources(model, r1, r2, T1, T2, T, lam, divv, closure.epsilon_T)
    n_reg = int(np.count_nonzero(sources.regularized))
    if n_reg:
        log.info("entropy sources regularized in %d cells", n_reg)
    drag = cls.momentum_production(closure.chi, v2[inner] - v1[inner])

    out = np.empty_like(u)
    for a, Ta, ha, sdot, sgn in ((0, pt.T1, pt.h1, sources.sdot1, +1.0),
                                 (1, pt.T2, pt.h2, sources.sdot2, -1.0)):
        rho, v, s = up[a], up[a + 2], up[a + 4]
        speed = np.abs(v) + thermo.sound_speed(model, a + 1, Ta)
        drho, dm = _llf_flux_divergence(rho, v, speed, dx)
        rho_c, v_c, grad_s = rho[inner], v[inner], _central(s, dx)
        dm = dm + rho_c * Ta[inner] * grad_s - rho_c * _central(ha, dx) + sgn * drag
        out[a], out[a + 2], out[a + 4] = drho, (dm - v_c * drho) / rho_c, sdot - v_c * grad_s
    return out


def apply_theta_slaving(state: MixtureState, model: GasPairModel,
                        closure: cls.ClosureParams, grid: Grid1D) -> MixtureState:
    """Overwrite the temperature gap with its constitutive value.

    Re-splits T1, T2 around the (energy-preserving) average temperature using
    Theta = L_T (gamma1 - gamma2) div v and the density-weighted beta, then
    maps back to entropies.  Experimental interpretation; off by default.
    """
    pt = thermo.thermo_eval(model, state.rho1, state.rho2, state.s1, state.s2)
    T = average_temperature_field(model, state.rho1, state.rho2, pt.T1, pt.T2)
    divv = flds.div(state.v_mean, grid)
    theta = cls.theta_constitutive(model, state.rho1, state.rho2, closure.M, divv)
    beta = beta_split(model, state.rho1, state.rho2)
    T1 = T + beta * theta
    T2 = T + (1.0 + beta) * theta
    if np.any(T1 <= 0) or np.any(T2 <= 0):
        raise SolverError("theta slaving produced nonpositive temperatures")
    return MixtureState(
        grid, state.rho1, state.rho2, state.v1, state.v2,
        thermo.entropy_from_temperature(model, 1, state.rho1, T1),
        thermo.entropy_from_temperature(model, 2, state.rho2, T2),
    )


def step(state: MixtureState, scenario: Scenario) -> MixtureState:
    """One SSP-RK3 step (Shu-Osher form) on the packed state."""
    grid, model, closure, dt = scenario.grid, scenario.model, scenario.closure, scenario.dt
    u0 = np.stack([getattr(state, n) for n in PRIMITIVES])
    try:
        u1 = u0 + dt * rhs(u0, model, closure, grid)
        u2 = 0.75 * u0 + 0.25 * (u1 + dt * rhs(u1, model, closure, grid))
        u3 = 1.0 / 3.0 * u0 + 2.0 / 3.0 * (u2 + dt * rhs(u2, model, closure, grid))
        out = MixtureState(grid, *u3)
    except ValueError as exc:   # positivity or finiteness violation
        raise SolverError(f"positivity violation during step: {exc}") from exc

    if scenario.slaving:
        out = apply_theta_slaving(out, model, closure, grid)
    return out


@dataclass
class Diagnostics:
    total_mass1: float
    total_mass2: float
    total_momentum: float
    total_energy: float
    total_entropy: float
    min_temperature_gap: float
    pi_field: np.ndarray
    theta_field: np.ndarray
    divv_field: np.ndarray


def diagnostics(state: MixtureState, model: GasPairModel,
                closure: cls.ClosureParams, grid: Grid1D) -> Diagnostics:
    pt = thermo.thermo_eval(model, state.rho1, state.rho2, state.s1, state.s2)
    dx = grid.dx
    kinetic = 0.5 * (state.rho1 * state.v1**2 + state.rho2 * state.v2**2)
    pi = cls.dynamical_pressure_from_state(model, state.rho1, state.rho2, pt.T1, pt.T2)
    return Diagnostics(
        total_mass1=float(np.sum(state.rho1) * dx),
        total_mass2=float(np.sum(state.rho2) * dx),
        total_momentum=float(np.sum(state.rho1 * state.v1 + state.rho2 * state.v2) * dx),
        total_energy=float(np.sum(pt.e + kinetic) * dx),
        total_entropy=float(np.sum(state.rho1 * state.s1 + state.rho2 * state.s2) * dx),
        min_temperature_gap=float(np.min(np.abs(pt.T2 - pt.T1))),
        pi_field=pi,
        theta_field=pt.T2 - pt.T1,
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
    state = scenario.initial.build(grid)
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
