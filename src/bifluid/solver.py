"""1-D periodic method-of-lines solver for the closed two-temperature system.

The evolved state is MixtureState.packed, one (6, n) array with rows rho1,
rho2, v1, v2, s1, s2 (PRIMITIVES), stepped as is.  The RHS pads it with G = 2
periodic ghost cells and evaluates both components at once, as the row
pairs (rho1, rho2), (v1, v2) and (s1, s2), with the per-component constants
as (2, 1) columns (thermo.PAIR).  Every stencil is a slice: conservative
MUSCL/local Lax-Friedrichs fluxes for density and momentum, second-order
central differences for the nonconservative momentum sources
rho_a T_a grad(s_a) - rho_a grad(h_a) and the entropy advection.  Time
integration is explicit SSP Runge-Kutta of order 3.  The RHS is computed
in equal tiles of at most TILE cells, in a workspace that each Scenario
builds once: each tile copies its padded window of the state into the one
tile-sized scratch, evaluates every pass there while it stays in cache, and
writes its cells of the result, so the scratch does not grow with n.  A step
forms its stages in the (6, n) array of the MixtureState it returns, which
takes that array over without a copy and validates it once per step; so a
step allocates little beyond that state, and no later step writes to it.
Every stage rejects a nonpositive density or temperature, naming the first
bad cell; so does a Scenario, in its t = 0 state, before the CFL check.  With
slaving on, a step ends in apply_theta_slaving, which resets the packed
state's temperature gap to its constitutive value.  trajectory() yields the snapshots one at a time
and keeps none; integrate() collects them.  diagnostics() takes T, e and p
from the same PAIR thermodynamics as the RHS.

The closure enters the dynamics only through the heat-exchange entropy
sources and the drag, which pulls each gas toward the other's velocity.  The
dynamical pressure is a diagnostic of the state, not an extra stress.  div v
in the sources uses the mass-average velocity.
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
    """max |v_a| + c_a over the cells; a nonpositive temperature raises ValueError."""
    u = state.packed
    T = thermo.temperature_from_entropy(model, PAIR, u[0:2], u[4:6])
    if (T <= 0).any():      # c_a = 0 there: no wave speed for the CFL limit
        raise ValueError("nonpositive temperature: " + flds.first_nonpositive(T, ("T1", "T2")))
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
    # t_end / dt, checked to be a whole number
    n_steps: int = dc_field(init=False, repr=False, compare=False)
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
        self.n_steps = round(steps)
        self._workspace = _Workspace(self.grid.n)


G = 2    # periodic ghost cells per side: MUSCL + LLF reach two cells
SIGN = np.array([[1.0], [-1.0]])    # dm -= SIGN m: the drag m acts on gas 2, -m on gas 1
SSP_RK3_LATER_STAGES = ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))   # (a, b) of stages 2 and 3


# cells per tile at most: rhs evaluates the grid in equal tiles, in scratch
# arrays of one tile whatever the grid size, which stay in cache between the
# tile's passes
TILE = 8192


class _Workspace:
    """The arrays that rhs works in, for one grid size; reused by every call.

    rhs splits the grid into k = ceil(n / TILE) tiles of t = ceil(n / k)
    cells; the last is moved back to end at cell n, and recomputes the
    k t - n < k cells it shares with the tile before it from the same
    operands, so it writes the same bits.  out (6, n) holds the result, one
    state block; everything else is the scratch of one tile, W = t + 2G
    values per row, about 2 MiB at t = TILE whatever n is, viewed here once
    and shared by every tile:

    - padded (8, W): the momenta m1, m2, then up, the padded window
      rho1 .. s2; q is its (m, rho) rows, in the flux's order;
    - T and speed (2, W); grad_s (2, t);
    - three scratch buffers of 2W values, each viewed as C-contiguous
      arrays (strided operands cost numpy a slower loop): pairs (2, W) and
      inner (2, t), the rows the RHS needs before and after the flux;
    - the flux scratch: three buffers of 4(t + 2) values, viewed as cells,
      the minmod slopes of the window's cells 1 .. W-2, and faces, the face
      states and fluxes of its faces 1 .. W-3 (face j+1/2 lies between
      window cells j and j+1); flat, the minmod mask, bool.

    tiles holds, for each tile: its first cell; how many of its cells the
    tile before also computes; the (window columns, cells of u) copies that
    fill its window, wrapping periodically; its (drho, dm, ds) rows of out;
    its columns of flux_out, out's (d/dt m, d/dt rho) rows in the flux's
    order.  step forms its SSP-RK3 stages in the array of the state it
    returns, so no stage is kept here.
    """

    def __init__(self, n: int):
        self.out = np.empty((6, n))
        k = -(-n // TILE)
        t = -(-n // k)
        W = t + 2 * G
        padded = np.empty((8, W))
        self.m, self.q, up = padded[0:2], padded[0:4].reshape(2, 2, W), padded[2:]
        self.rho, self.v, self.s = up[0:2], up[2:4], up[4:6]
        self.rho_c, self.v_c = self.rho[:, G:-G], self.v[:, G:-G]
        T, speed, *pairs = np.empty((5, 2 * W))
        self.T, self.speed = T.reshape(2, W), speed.reshape(2, W)
        self.T_c, self.grad_s = self.T[:, G:-G], np.empty((2, t))
        self.pairs = tuple(buf.reshape(2, W) for buf in pairs)
        self.inner = tuple(buf[:2 * t].reshape(2, t) for buf in pairs)
        flux = np.empty((3, 4 * (t + 2)))
        self.cells = [buf.reshape(2, 2, t + 2) for buf in flux]
        self.faces = [buf[:4 * (t + 1)].reshape(2, 2, t + 1) for buf in flux]
        self.flat = np.empty((2, 2, t + 2), dtype=bool)
        rows, flux_out = self.out.reshape(3, 2, n), self.out[0:4].reshape(2, 2, n)[::-1]
        self.tiles = []
        for i in range(k):
            start = min(i * t, n - t)       # the last ends at n; tile i - 1 ends at cell i t
            cols = slice(start, start + t)
            copies = [(up[:, dst], src) for dst, src in _window_copies(start, start + t, n)]
            self.tiles.append((start, i * t - start, copies, list(rows[..., cols]),
                               flux_out[..., cols]))


def _window_copies(start: int, stop: int, n: int) -> list[tuple[slice, slice]]:
    """(window columns, cells) slice pairs that hold periodic cells start-G .. stop+G-1."""
    copies, col, cell = [], 0, start - G
    while cell < stop + G:
        src = cell % n
        width = min(stop + G - cell, n - src)
        copies.append((slice(col, col + width), slice(src, src + width)))
        col, cell = col + width, cell + width
    return copies


def _llf_flux_divergence(q, speed, dx, cells, faces, flat, out):
    """Local Lax-Friedrichs flux differences for q = (m, rho), m = rho v, row by row.

    MUSCL minmod reconstruction of the conserved pair at the faces keeps the
    flux dissipation O(dx^2) on smooth data; first-order LLF dissipation
    dominates the global energy drift otherwise.  Takes (2, k, W) rows
    padded with G ghost cells, one row per component, and the (k, W) wave
    speeds; writes -dF/dx for m and for rho, (2, k, W - 2G), on the interior
    cells into out, working in the cells, faces and flat scratch.
    """
    # minmod-limited slopes: minmod(l, r) is sign(l) min(|l|, |r|) if
    # l r > 0, else 0, the one-sided difference of smaller magnitude
    left, right, prod = cells
    np.subtract(q[..., 1:-1], q[..., :-2], out=left)
    np.subtract(q[..., 2:], q[..., 1:-1], out=right)
    np.greater(np.multiply(left, right, out=prod), 0.0, out=flat)
    np.logical_not(flat, out=flat)
    half = np.minimum(np.abs(left, out=prod), np.abs(right, out=right), out=right)
    np.copysign(half, left, out=half)
    np.copyto(half, 0.0, where=flat)
    half *= 0.5
    q_L, flux, q_R = faces          # flux overwrites half, once both sides are built
    np.add(q[..., 1:-2], half[..., :-1], out=q_L)
    np.subtract(q[..., 2:-1], half[..., 1:], out=q_R)
    (m_L, rho_L), (m_R, rho_R) = q_L, q_R
    np.divide(np.square(m_L, out=flux[0]), rho_L, out=flux[0])
    flux[0] += np.divide(np.square(m_R, out=flux[1]), rho_R, out=flux[1])
    np.add(m_L, m_R, out=flux[1])
    flux *= 0.5
    jump = np.subtract(q_R, q_L, out=q_R)
    half_speed = np.maximum(speed[..., 1:-2], speed[..., 2:-1], out=q_L[0])
    half_speed *= 0.5
    flux -= np.multiply(half_speed, jump, out=jump)
    np.subtract(flux[..., 1:], flux[..., :-1], out=out)
    np.negative(out, out=out)
    out /= dx
    return out


def _central(f, dx, out):
    """Second-order central difference along the last axis of padded rows, on the interior cells."""
    np.subtract(f[..., G + 1:1 - G], f[..., G - 1:-1 - G], out=out)
    out /= 2.0 * dx
    return out


def _nonpositive_density(u: np.ndarray) -> ValueError:
    return ValueError("nonpositive density: " + flds.first_nonpositive(u[0:2], PRIMITIVES))


def rhs(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
        grid: Grid1D, work: _Workspace | None = None) -> np.ndarray:
    """Time derivatives of the packed (6, n) primitives, rows in PRIMITIVES order.

    Both components are evaluated at once, as the (2, W) row pairs
    rho = up[0:2], v = up[2:4] and s = up[4:6] of the periodically padded
    state, with the per-component constants as (2, 1) columns.  Pointwise
    quantities are evaluated once and every stencil is a slice.  The grid
    is evaluated in equal tiles (_Workspace), each in its padded window;
    every value is elementwise in the same operands as one pass over the
    whole grid would use, so the tiles give the same bits.  A nonpositive
    density raises ValueError, a nonpositive temperature SolverError; both
    name the first offending cell, and a density fault anywhere wins.

    The result is work.out, overwritten by the next call with the same
    work; without work, a new workspace is built, so the result is a new
    array.
    """
    w = _Workspace(grid.n) if work is None else work
    n_reg = sum(_rhs_tile(u, w, tile, model, closure, grid.dx) for tile in w.tiles)
    if n_reg:
        log.info("entropy sources regularized in %d cells", n_reg)
    return w.out


def _rhs_tile(u, w: _Workspace, tile: tuple, model: GasPairModel,
              closure: cls.ClosureParams, dx: float) -> int:
    """rhs on one tile's cells, written to their columns of the result.

    Returns the number of cells whose entropy sources were regularized,
    not counting those shared with the tile before.
    """
    start, shared, copies, (drho, dm, ds), flux_out = tile
    for dst, src in copies:
        dst[...] = u[:, src]
    rho, v = w.rho, w.v
    try:
        T = thermo.temperature_from_entropy(model, PAIR, rho, w.s, out=w.T)
    except ValueError:      # the density check failed; name the cell
        raise _nonpositive_density(u) from None
    rho_c, v_c, T_c = w.rho_c, w.v_c, w.T_c
    if (T_c <= 0).any():
        if (u[0:2] <= 0).any():     # a later tile's density fault is reported first
            raise _nonpositive_density(u)
        raise SolverError("nonpositive temperature in rhs evaluation: "
                          + flds.first_nonpositive(T_c, ("T1", "T2"), offset=start))

    grad_s = _central(w.s, dx, w.grad_s)
    m = np.multiply(rho, v, out=w.m)
    pairs, inner = w.pairs, w.inner
    v_mean, rho_sum = pairs[0]
    np.add(m[0], m[1], out=v_mean)
    v_mean /= np.add(rho[0], rho[1], out=rho_sum)               # mass-average v
    divv = _central(v_mean, dx, inner[1][0])
    T_avg = average_temperature_field(model, rho_c[0], rho_c[1], T_c[0], T_c[1])
    lam = closure.lambda_value(model, rho_c[0], rho_c[1])
    sources = cls.entropy_sources(model, rho_c[0], rho_c[1], T_c[0], T_c[1], T_avg, lam,
                                  divv, closure.epsilon_T)
    ds[0], ds[1] = sources.sdot1, sources.sdot2
    ds -= np.multiply(v_c, grad_s, out=dm)

    speed = thermo.sound_speed(model, PAIR, T, out=w.speed)
    speed += np.abs(v, out=pairs[0])
    _llf_flux_divergence(w.q, speed, dx, w.cells, w.faces, w.flat, flux_out)
    tmp = inner[0]
    dm += np.multiply(np.multiply(rho_c, T_c, out=tmp), grad_s, out=tmp)
    dh = _central(thermo.enthalpy(model, PAIR, T, out=pairs[1]), dx, inner[2])
    dm -= np.multiply(rho_c, dh, out=dh)
    du, drag = inner[0]
    cls.momentum_production(closure.chi, np.subtract(v_c[1], v_c[0], out=du), out=drag)
    dm -= np.multiply(SIGN, drag, out=inner[1])
    dm -= np.multiply(v_c, drho, out=inner[1])
    dm /= rho_c
    return int(np.count_nonzero(sources.regularized[shared:]))


def apply_theta_slaving(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
                        grid: Grid1D) -> np.ndarray:
    """Overwrite the temperature gap of the packed (6, n) state with its constitutive value.

    Re-splits T1, T2 around the (energy-preserving) average temperature using
    Theta = L_T (gamma1 - gamma2) div v and the density-weighted beta, then
    maps back to entropies; returns a new array.  Experimental
    interpretation; off by default.
    """
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
            u = apply_theta_slaving(u, model, closure, grid)
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
    n_steps, t = scenario.n_steps, 0.0
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
