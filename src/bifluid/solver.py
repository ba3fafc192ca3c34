"""1-D periodic method-of-lines solver for the closed two-temperature system.

The evolved state is MixtureState.packed, one (6, n) array with rows rho1,
rho2, v1, v2, s1, s2 (PRIMITIVES), stepped as is.  Each RHS pads it once with
G = 2 periodic ghost cells and evaluates both components at once, as the row
pairs (rho1, rho2), (v1, v2) and (s1, s2), with the per-component constants
as (2, 1) columns (thermo.PAIR).  Every stencil is a slice: conservative
MUSCL/local Lax-Friedrichs fluxes for density and momentum, second-order
central differences for the nonconservative momentum sources
rho_a T_a grad(s_a) - rho_a grad(h_a) and the entropy advection.  Time
integration is explicit SSP Runge-Kutta of order 3.  The RHS is computed in
place in a workspace that each Scenario builds once, with the LLF flux run
over fixed tiles of TILE cells, so its scratch does not grow with n.  A step
forms its stages in the (6, n) array of the MixtureState it returns, which
takes that array over without a copy and validates it once per step; so a
step allocates little beyond that state, and no later step writes to it.
Every stage rejects a nonpositive density or temperature, naming the first
bad cell.  trajectory() yields the snapshots one at a time and keeps none;
integrate() collects them.  diagnostics() takes T, e and p from the same
PAIR thermodynamics as the RHS.

The closure enters the dynamics only through the heat-exchange entropy
sources and the drag, which pulls each gas toward the other's velocity; the
dynamical pressure is a diagnostic of the state, not an extra stress.  div v in the sources uses the mass-average velocity.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
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

    def __init__(self, message):
        super().__init__(message)
        self.trajectory = []


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
    # the arrays every step of this scenario works in, so it steps one state at a time
    _workspace: _Workspace = dc_field(init=False, repr=False, compare=False)

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
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"t_end={self.t_end:g} is not a whole number of steps "
                             f"of dt={self.dt:g} (t_end/dt = {steps:.10g})")
        self._workspace = _Workspace(self.grid.n)


G = 2    # periodic ghost cells per side: MUSCL + LLF reach two cells
SIGN = np.array([[1.0], [-1.0]])    # dm -= SIGN m: the drag m acts on gas 2, -m on gas 1
SSP_RK3_LATER_STAGES = ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))   # (a, b) of stages 2 and 3


# cells per tile of the LLF flux: its scratch arrays hold one tile, whatever
# the grid size, and stay in cache between the flux's passes
TILE = 8192


class _Workspace:
    """The arrays that rhs works in, for one grid size; reused by every call.

    Sizes in (6, n) state blocks, N = n + 2G, about 4.3 in all, plus the flux tiles:

    - padded (8, N), 1.33: the momenta m1, m2, then the padded state rho1 .. s2;
    - T and speed (2, N), 0.33 each; grad_s (2, n), 0.33;
    - three scratch buffers of 2N values, 1.0, each viewed as C-contiguous
      arrays (strided operands cost numpy a slower loop): pairs (2, N) and
      inner (2, n), the rows the RHS needs before and after the flux;
    - out (6, n), 1: the rhs result;
    - the flux tiles, of t = min(n, TILE) cells whatever n is, 0.8 MiB at
      most: three buffers of 4(t + 2G) values, viewed per tile as cells, the
      minmod slopes of the tile's padded cells 1 .. t+2G-2, and faces, the
      face states and fluxes of its faces 1 .. t+2G-3 (face j+1/2 lies
      between padded cells j and j+1); flat, the minmod mask, bool.

    step forms its SSP-RK3 stages in the array of the state it returns, so
    no stage is kept here.
    """

    def __init__(self, n: int):
        N = n + 2 * G
        self.padded = np.empty((8, N))
        self.T, self.speed = np.empty((2, 2, N))
        self.grad_s = np.empty((2, n))
        scratch = np.empty((3, 2 * N))
        self.pairs = [buf.reshape(2, N) for buf in scratch]
        self.inner = [buf[:2 * n].reshape(2, n) for buf in scratch]
        self.out = np.empty((6, n))
        # out's (d/dt m, d/dt rho) rows in the flux's (m, rho) order
        self.flux_out = self.out[0:4].reshape(2, 2, n)[::-1]

        t = min(n, TILE)
        tile_scratch = np.empty((3, 4 * (t + 2 * G)))
        tile_flat = np.empty(4 * (t + 2), dtype=bool)

        def shaped(*shape):
            return [buf[:math.prod(shape)].reshape(shape) for buf in tile_scratch]
        self.tiles = []     # (first cell, end cell, cells, faces, flat) of each tile
        for start in range(0, n, t):
            width = min(t, n - start)
            self.tiles.append((start, start + width, shaped(2, 2, width + 2),
                               shaped(2, 2, width + 1),
                               tile_flat[:4 * (width + 2)].reshape(2, 2, width + 2)))


def _llf_flux_divergence(q, speed, dx, work, out):
    """Local Lax-Friedrichs flux differences for q = (m, rho), m = rho v, row by row.

    MUSCL minmod reconstruction of the conserved pair at the faces keeps the
    flux dissipation O(dx^2) on smooth data; first-order LLF dissipation
    dominates the global energy drift otherwise.  Takes (2, k, n + 2G) rows
    padded with G ghost cells, one row per component, and the (k, n + 2G)
    wave speeds; writes -dF/dx for m and for rho, (2, k, n), on the interior
    cells into out.  Runs over work.tiles, each with its 2G ghost cells, in
    the tile's cells, faces and flat arrays; every value is elementwise in
    the padded rows, so the tiles give the same bits as one pass.
    """
    for start, stop, cells, faces, flat in work.tiles:
        q_t, speed_t = q[..., start:stop + 2 * G], speed[..., start:stop + 2 * G]
        # minmod-limited slopes: minmod(l, r) is sign(l) min(|l|, |r|) if
        # l r > 0, else 0, the one-sided difference of smaller magnitude
        left, right, prod = cells
        np.subtract(q_t[..., 1:-1], q_t[..., :-2], out=left)
        np.subtract(q_t[..., 2:], q_t[..., 1:-1], out=right)
        np.greater(np.multiply(left, right, out=prod), 0.0, out=flat)
        np.logical_not(flat, out=flat)
        half = np.minimum(np.abs(left, out=prod), np.abs(right, out=right), out=right)
        np.copysign(half, left, out=half)
        np.copyto(half, 0.0, where=flat)
        half *= 0.5
        q_L, flux, q_R = faces          # flux overwrites half, once both sides are built
        np.add(q_t[..., 1:-2], half[..., :-1], out=q_L)
        np.subtract(q_t[..., 2:-1], half[..., 1:], out=q_R)
        (m_L, rho_L), (m_R, rho_R) = q_L, q_R
        np.divide(np.square(m_L, out=flux[0]), rho_L, out=flux[0])
        flux[0] += np.divide(np.square(m_R, out=flux[1]), rho_R, out=flux[1])
        np.add(m_L, m_R, out=flux[1])
        flux *= 0.5
        jump = np.subtract(q_R, q_L, out=q_R)
        half_speed = np.maximum(speed_t[..., 1:-2], speed_t[..., 2:-1], out=q_L[0])
        half_speed *= 0.5
        flux -= np.multiply(half_speed, jump, out=jump)
        tile_out = np.subtract(flux[..., 1:], flux[..., :-1], out=out[..., start:stop])
        np.negative(tile_out, out=tile_out)
        tile_out /= dx
    return out


def _central(f, dx, out):
    """Second-order central difference along the last axis of padded rows, on the interior cells."""
    np.subtract(f[..., G + 1:1 - G], f[..., G - 1:-1 - G], out=out)
    out /= 2.0 * dx
    return out


def rhs(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
        grid: Grid1D, work: _Workspace | None = None) -> np.ndarray:
    """Time derivatives of the packed (6, n) primitives, rows in PRIMITIVES order.

    Both components are evaluated at once, as the (2, n + 2G) row pairs
    rho = up[0:2], v = up[2:4] and s = up[4:6] of the periodically padded
    state, with the per-component constants as (2, 1) columns.  Pointwise
    quantities are evaluated once and every stencil is a slice.  A
    nonpositive density raises ValueError, a nonpositive temperature
    SolverError; both name the first offending cell.

    The result is work.out, overwritten by the next call with the same
    work; without work, a new workspace is built, so the result is a new
    array.
    """
    w = _Workspace(grid.n) if work is None else work
    up = w.padded[2:]
    up[:, G:-G] = u
    up[:, :G] = u[:, -G:]
    up[:, -G:] = u[:, :G]
    rho, v, s = up[0:2], up[2:4], up[4:6]
    try:
        T = thermo.temperature_from_entropy(model, PAIR, rho, s, out=w.T)
    except ValueError:      # the density check failed; name the cell
        raise ValueError("nonpositive density: "
                         + flds.first_nonpositive(u[0:2], PRIMITIVES)) from None
    inner = slice(G, -G)
    rho_c, v_c, T_c = rho[:, inner], v[:, inner], T[:, inner]
    if (T_c <= 0).any():
        raise SolverError("nonpositive temperature in rhs evaluation: "
                          + flds.first_nonpositive(T_c, ("T1", "T2")))

    dx = grid.dx
    grad_s = _central(s, dx, w.grad_s)
    m = np.multiply(rho, v, out=w.padded[0:2])
    v_mean, rho_sum = w.pairs[0]
    np.add(m[0], m[1], out=v_mean)
    v_mean /= np.add(rho[0], rho[1], out=rho_sum)               # mass-average v
    divv = _central(v_mean, dx, w.inner[1][0])
    T_avg = average_temperature_field(model, rho_c[0], rho_c[1], T_c[0], T_c[1])
    lam = closure.lambda_value(model, rho_c[0], rho_c[1])
    sources = cls.entropy_sources(model, rho_c[0], rho_c[1], T_c[0], T_c[1], T_avg, lam,
                                  divv, closure.epsilon_T)
    n_reg = int(np.count_nonzero(sources.regularized))
    if n_reg:
        log.info("entropy sources regularized in %d cells", n_reg)
    drho, dm, ds = w.out[0:2], w.out[2:4], w.out[4:6]
    ds[0], ds[1] = sources.sdot1, sources.sdot2
    ds -= np.multiply(v_c, grad_s, out=dm)

    speed = thermo.sound_speed(model, PAIR, T, out=w.speed)
    speed += np.abs(v, out=w.pairs[0])
    _llf_flux_divergence(w.padded[0:4].reshape(2, 2, -1), speed, dx, w, w.flux_out)
    tmp = w.inner[0]
    dm += np.multiply(np.multiply(rho_c, T_c, out=tmp), grad_s, out=tmp)
    dh = _central(thermo.enthalpy(model, PAIR, T, out=w.pairs[1]), dx, w.inner[2])
    dm -= np.multiply(rho_c, dh, out=dh)
    du, drag = w.inner[0]
    cls.momentum_production(closure.chi, np.subtract(v_c[1], v_c[0], out=du), out=drag)
    dm -= np.multiply(SIGN, drag, out=w.inner[1])
    dm -= np.multiply(v_c, drho, out=w.inner[1])
    dm /= rho_c
    return w.out


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
    return MixtureState(grid, packed=_theta_slaving(state.packed, model, closure, grid))


def step(state: MixtureState, scenario: Scenario) -> MixtureState:
    """One SSP-RK3 step (Shu-Osher form) on the packed state.

    The stages are formed in place in a new (6, n) array, which the returned
    state takes over: it shares no memory with the scenario's workspace or
    with the input state, and no later step writes to it.
    """
    grid, model, closure, dt = scenario.grid, scenario.model, scenario.closure, scenario.dt
    w = scenario._workspace
    u0 = state.packed
    try:
        r = rhs(u0, model, closure, grid, work=w)
        u = np.add(u0, np.multiply(dt, r, out=r), out=np.empty_like(u0))
        for a, b in SSP_RK3_LATER_STAGES:       # u = a u0 + b (u + dt rhs(u))
            r = rhs(u, model, closure, grid, work=w)
            r *= dt
            r += u
            r *= b
            np.multiply(a, u0, out=u)
            u += r
        if scenario.slaving:
            u = _theta_slaving(u, model, closure, grid)
        return MixtureState(grid, packed=u)
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


def diagnostics(state: MixtureState, model: GasPairModel) -> Diagnostics:
    """Totals and snapshot fields of state.

    Every sum is formed in one reused pair of rows, so the fields returned
    are most of what it allocates.
    """
    rho1, rho2, v1, v2, s1, s2 = u = state.packed
    rho, v = u[0:2], u[2:4]
    T = thermo.temperature_from_entropy(model, PAIR, rho, u[4:6])
    T_avg = average_temperature_field(model, rho1, rho2, T[0], T[1])
    dx = state.grid.dx
    pair = np.empty_like(rho)

    def gas_sum(a, b):
        """a1 b1 + a2 b2 in pair[0], the products formed in pair."""
        return np.add(*np.multiply(a, b, out=pair), out=pair[0])

    energy = gas_sum(np.multiply(rho, model.cv(PAIR), out=pair), T).copy()      # e1 + e2
    kinetic = gas_sum(rho, np.square(v, out=pair))
    kinetic *= 0.5
    energy += kinetic
    total_energy = float(np.sum(energy) * dx)
    del energy      # before div's temporaries
    mass_flux = gas_sum(rho, v)
    total_momentum = float(np.sum(mass_flux) * dx)
    mass_flux /= np.add(rho1, rho2, out=pair[1])        # the mass-average velocity
    divv_field = flds.div(mass_flux, state.grid)
    total_entropy = float(np.sum(gas_sum(rho, u[4:6])) * dx)
    min_gap = float(np.min(np.abs(np.subtract(T[1], T[0], out=pair[0]), out=pair[0])))
    p = gas_sum(np.multiply(model.k(PAIR), rho, out=pair), T).copy()
    p0 = np.multiply(model.k1, rho1)
    p0 += model.k2 * rho2
    p0 *= T_avg
    return Diagnostics(
        total_mass1=float(np.sum(rho1) * dx),
        total_mass2=float(np.sum(rho2) * dx),
        total_momentum=total_momentum,
        total_energy=total_energy,
        total_entropy=total_entropy,
        min_temperature_gap=min_gap,
        T1=T[0], T2=T[1], T_avg=T_avg, p=p, p0=p0, divv_field=divv_field,
    )


@dataclass
class TrajectoryPoint:
    t: float
    state: MixtureState
    diag: Diagnostics


def trajectory(scenario: Scenario) -> Iterator[TrajectoryPoint]:
    """Run the scenario to t_end, yielding the t = 0 point and every stride-th step's.

    The last step is always yielded.  Nothing is kept: a consumer that drops
    each point holds O(n) memory however many points there are.  A failed
    step raises SolverError naming its time and step.
    """
    model, state = scenario.model, scenario.initial_state
    yield TrajectoryPoint(0.0, state, diagnostics(state, model))
    n_steps = int(round(scenario.t_end / scenario.dt))
    t = 0.0
    for k in range(1, n_steps + 1):
        try:
            state = step(state, scenario)
        except SolverError as exc:
            raise SolverError(f"aborted at t={t:g} (step {k}): {exc}") from exc
        t = k * scenario.dt
        if k % scenario.stride == 0 or k == n_steps:
            yield TrajectoryPoint(t, state, diagnostics(state, model))


def integrate(scenario: Scenario) -> list[TrajectoryPoint]:
    """All points of trajectory(scenario); a SolverError carries those before it."""
    rows = []
    try:
        for point in trajectory(scenario):
            rows.append(point)
    except SolverError as exc:
        exc.trajectory = rows
        raise
    return rows
