"""1-D periodic method-of-lines solver for the closed two-temperature system.

The evolved state is MixtureState.packed, one (6, n) array with rows rho1,
rho2, v1, v2, s1, s2 (PRIMITIVES), stepped as is.  The RHS pads it with G = 2
periodic ghost cells and evaluates both components at once: conservative
MUSCL/local Lax-Friedrichs fluxes for density and momentum, second-order
central differences for the nonconservative momentum sources
rho_a T_a grad(s_a) - rho_a grad(h_a) and the entropy advection.  Time
integration is explicit SSP Runge-Kutta of order 3.  The RHS runs in equal
tiles of at most TILE cells, each one fixed run of ufunc calls by a closure
over named views of a tile-sized workspace that each Scenario builds once.
A step forms its stages in the (6, n) array of the MixtureState it returns,
which takes that array over without a copy and validates it once per step;
no later step writes to it.  Every stage rejects a nonpositive density and
a temperature <= 0 or inf, naming the first bad cell; so does a Scenario,
in its t = 0 state, before the CFL check.  With slaving on, a step ends in
apply_theta_slaving, which resets the packed state's temperature gap to its
constitutive value.  trajectory() yields the snapshots one at a time and
keeps none; integrate() collects them.  diagnostics() takes T from the
same PAIR thermodynamics as the RHS, and e, p and p0 from thermo and closure.

The closure enters the dynamics only through the heat-exchange entropy
sources and the drag, which pulls each gas toward the other's velocity.  The
dynamical pressure is a diagnostic of the state, not an extra stress.  div v
in the sources uses the mass-average velocity.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import closure as cls
from . import fields as flds
from . import thermo
from .avgtemp import _average_temperature, average_temperature_field, beta_split
from .fields import PRIMITIVES, Grid1D, MixtureState
from .thermo import PAIR, GasPairModel


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


def _temperatures(u: np.ndarray, model: GasPairModel) -> np.ndarray:
    """(T1, T2) of the packed state u; a temperature <= 0 or inf raises ValueError."""
    with np.errstate(over="ignore"):    # a T that overflows is inf, named below
        T = thermo.temperature_from_entropy(model, PAIR, u[0:2], u[4:6])
    for bad, what in ((T <= 0, "nonpositive"), (np.isinf(T), "infinite")):
        if bad.any():
            raise ValueError(f"{what} temperature: " + flds.first_cell(T, ("T1", "T2"), bad))
    return T


def max_wave_speed(state: MixtureState, model: GasPairModel) -> float:
    """max |v_a| + c_a over the cells; a temperature <= 0 or inf raises ValueError."""
    u = state.packed
    return float(np.max(np.abs(u[2:4]) + thermo.sound_speed(model, PAIR, _temperatures(u, model))))


@dataclass
class Scenario:
    """One run of the solver: grid, gases, closure, initial state and time steps.

    initial is called once, as initial.build(grid), for the t = 0 state.  It
    may be any object whose build(grid) returns a MixtureState on that grid,
    such as an exact solution sampled at the cell centres; InitialConditions
    is the one the CLI builds from a config.
    """

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
SSP_RK3_LATER_STAGES = ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))   # (a, b) of stages 2 and 3


# cells per tile at most: rhs evaluates the grid in equal tiles, in scratch
# arrays of one tile whatever the grid size, which stay in cache between the
# tile's passes
TILE = 8192


class _Workspace:
    """The arrays that rhs works in, for one grid size, and run, the tile
    kernel: a closure over every view of them it takes, each named once here.

    rhs splits the grid into k = ceil(n / TILE) tiles of t = ceil(n / k) cells;
    the last is moved back to end at cell n, and recomputes the k t - n < k
    cells it shares with the tile before it from the same operands, so it
    writes the same bits.  out (6, n) holds the result; scratch is one tile's
    (win, T, work) of W = t + 2G columns, 1.7 MiB at t = TILE: win, the padded
    window m = rho v, rho, v, s, then the mass-average v, h and c (s .. h
    adjacent: one subtract and one divide take the five central differences);
    T; work, the flux's (4, W) buffers L, H, P with rows (m1, m2, rho1, rho2)
    end to end, P keeping -dF/dx, in which dm is summed.  A stencil is one flat
    slice of a block, and a pass over a pair's own cells runs over its span,
    from the first row's first own cell to the second row's last; what is
    formed across row ends is never read.  tiles holds run's arguments after
    dx, per tile: its first cell, the (window columns, cells of u) copies of
    its window, wrapping periodically, and its (drho, dm, ds) rows of out with
    ds's first row.
    """

    def __init__(self, n: int):
        self.out = np.empty((6, n))
        k = -(-n // TILE)
        t = -(-n // k)
        W, N = t + 2 * G, 4 * (t + 2 * G)
        own = slice(G, W - G)           # the tile's cells in its window
        win, T, work = self.scratch = np.zeros((13, W)), np.zeros((2, W)), np.zeros(12 * W)
        span = lambda pair: pair.reshape(-1)[G:-G]      # first row's first own cell .. last's last
        m_rhoT, rho, v, s = win[0:2], win[2:4], win[4:6], win[6:8]   # rho T once the flux ran
        (m1, m2), (rho1, rho2), (v1, v2), vbar = m_rhoT, rho, v, win[8]
        h_c, speed, rho_sum = win[9:13].reshape(2, 2, W), win[11:13], work[:W]
        pair_tmp, T_c, rho_c = work[:2 * W].reshape(2, W), T[:, own], rho[:, own]
        (T1, T2), (rho1_c, rho2_c), rhoT_c = T_c, rho_c, m_rhoT[:, own]
        block, cd = win.reshape(-1)[6 * W:11 * W], work[:5 * W].reshape(5, W)
        cd_hi, cd_lo = block[G + 1:5 * W - G + 1], block[G - 1:5 * W - G - 1]
        cd_run, divv, exch = work[G:5 * W - G], cd[2, own], win.reshape(-1)[8 * W:8 * W + 4 * t]
        gap, cap, D = exch[:t], exch[t:3 * t].reshape(2, t), exch[3 * t:]   # in win, after cd
        c1, T_avg = cap         # c2 = rho2 cv2 is overwritten with T
        tmp, du = work[5 * W:7 * W].reshape(2, W), work[7 * W:8 * W]
        rhoT, rho_span, T_span, v_span = span(m_rhoT), span(rho), span(T), span(v)
        grad_s, dh, tmp_span, tmp_c = span(cd[0:2]), span(cd[3:5]), span(tmp), tmp[:, own]
        L, H, P = work[:N], work[N:2 * N], work[2 * N:]     # the flux's (4, W) buffers, flat
        dm_span, drho_span = span(P[:2 * W]), span(P[2 * W:])
        dm_c, drho_c = P.reshape(2, 2, W)[..., own]
        # the flux's operands, flat runs of win's m, rho, c rows and of L, H, P; face j+1/2 at j
        Q, S = win.reshape(-1)[:N], win[11:13].reshape(-1)
        q, q_left, q_right = Q[1:N - 1], Q[:N - 2], Q[2:N]
        left, right, prod, mask = L[1:N - 1], H[1:N - 1], P[1:N - 1], np.zeros(N - 2, dtype=bool)
        q_L_cell, half_L, q_R_cell, half_R = Q[1:N - 2], H[1:N - 2], Q[2:N - 1], H[2:N - 1]
        q_L, q_R, flux, dflux = L[1:N - 2], P[1:N - 2], H[1:N - 2], P[2:N - 2]
        m_faces, rho_faces = slice(1, 2 * W - 2), slice(2 * W + 1, N - 2)
        m_L, rho_L, m_R, rho_R = L[m_faces], L[rho_faces], P[m_faces], P[rho_faces]
        flux_m, flux_rho, flux_hi, flux_lo = H[m_faces], H[rho_faces], H[2:N - 2], H[1:N - 3]
        speed_lo, speed_hi = S[1:2 * W - 2], S[2:2 * W - 1]
        face_speed = L.reshape(2, 2 * W)[:, 1:2 * W - 2]    # in the m and the rho faces of L

        def run(u, model, closure, dx, start, copies, drho, dm, ds, g):
            """rhs on one tile's cells into their rows of out, with the formulas of
            thermo, avgtemp and closure; a T <= 0 or inf there raises SolverError."""
            nonlocal vbar, speed, cd_run, flux_m, flux, dflux, dm_span     # updated in place
            for dst, src in copies:
                dst[...] = u[:, src]
            thermo._temperature(model, PAIR, rho, s, T, pair_tmp)
            if np.fmin.reduce(T_c, axis=None) <= 0:     # fmin skips NaN, as <= does
                raise SolverError("nonpositive temperature in rhs evaluation: "
                                  + flds.first_cell(T_c, ("T1", "T2"), offset=start))
            if np.fmax.reduce(T_c, axis=None) == np.inf:     # exp overflowed
                raise SolverError("infinite temperature in rhs evaluation: "
                                  + flds.first_cell(T_c, ("T1", "T2"), np.isinf(T_c), offset=start))

            np.multiply(rho, v, out=m_rhoT)
            np.add(m1, m2, out=vbar)
            vbar /= np.add(rho1, rho2, out=rho_sum)                     # mass-average v
            thermo._enthalpy_and_sound_speed(model, T, h_c)
            speed += np.abs(v, out=pair_tmp)
            # local Lax-Friedrichs flux differences for q = (m, rho) row by row; MUSCL
            # face states keep the flux dissipation O(dx^2) on smooth data, where
            # first-order LLF's would dominate the energy drift.  minmod-limited
            # slopes: minmod(l, r) is sign(l) min(|l|, |r|) if l r > 0, else 0
            np.subtract(q, q_left, out=left)
            np.subtract(q_right, q, out=right)
            np.greater(np.multiply(left, right, out=prod), 0.0, out=mask)
            np.logical_not(mask, out=mask)
            half = np.minimum(np.abs(left, out=prod), np.abs(right, out=right), out=right)
            np.copysign(half, left, out=half)
            np.copyto(half, 0.0, where=mask)
            half *= 0.5
            # face states, in L and P; the flux overwrites half in H once both are built
            np.add(q_L_cell, half_L, out=q_L)
            np.subtract(q_R_cell, half_R, out=q_R)
            np.divide(np.square(m_L, out=flux_m), rho_L, out=flux_m)
            flux_m += np.divide(np.square(m_R, out=flux_rho), rho_R, out=flux_rho)
            np.add(m_L, m_R, out=flux_rho)
            flux *= 0.5
            jump = np.subtract(q_R, q_L, out=q_R)
            np.maximum(speed_lo, speed_hi, out=face_speed)
            half_speed = np.multiply(q_L, 0.5, out=q_L)
            flux -= np.multiply(half_speed, jump, out=jump)
            np.subtract(flux_hi, flux_lo, out=dflux)
            dflux /= -dx                            # -(F_{j+1/2} - F_{j-1/2}) / dx
            np.copyto(drho, drho_c)
            np.subtract(cd_hi, cd_lo, out=cd_run)   # central differences of s, mass-average v and h
            cd_run /= 2.0 * dx

            np.subtract(T2, T1, out=gap)
            np.multiply(rho_c, model.cv(PAIR), out=cap)
            _average_temperature(c1, T_avg, T1, gap)
            lam = closure.exchange_lambda(model, rho1_c, rho2_c)
            cls._exchange(lam, divv, T1, T2, T_avg, gap, closure.epsilon_T, out=g, tmp=D)
            np.multiply(rho_span, T_span, out=rhoT)
            cls._entropy_rates(ds, rhoT_c)
            np.multiply(v_span, grad_s, out=tmp_span)
            ds -= tmp_c
            # dm = -dF/dx + rho T grad(s) - rho grad(h) + drag - v drho, in P's m rows
            dm_span += np.multiply(rhoT, grad_s, out=tmp_span)
            dm_span -= np.multiply(rho_span, dh, out=tmp_span)
            np.multiply(closure.drag_rows, np.subtract(v2, v1, out=du), out=tmp)
            dm_span += tmp_span
            dm_span -= np.multiply(v_span, drho_span, out=tmp_span)
            np.divide(dm_c, rho_c, out=dm)

        self.run = run
        rows = self.out.reshape(3, 2, n)
        self.tiles = []
        for i in range(k):
            start = min(i * t, n - t)       # the last ends at n; tile i - 1 ends at cell i t
            cols = slice(start, start + t)
            copies = [(win[2:8, dst], src) for dst, src in _window_copies(start, start + t, n)]
            self.tiles.append((start, copies, *rows[..., cols], rows[2, 0, cols]))


def _window_copies(start: int, stop: int, n: int) -> list[tuple[slice, slice]]:
    """(window columns, cells) slice pairs that hold periodic cells start-G .. stop+G-1."""
    copies, col, cell = [], 0, start - G
    while cell < stop + G:
        src = cell % n
        width = min(stop + G - cell, n - src)
        copies.append((slice(col, col + width), slice(src, src + width)))
        col, cell = col + width, cell + width
    return copies


def rhs(u: np.ndarray, model: GasPairModel, closure: cls.ClosureParams,
        grid: Grid1D, work: _Workspace | None = None) -> np.ndarray:
    """Time derivatives of the packed (6, n) primitives, rows in PRIMITIVES order.

    Both components are evaluated at once, in equal tiles of the periodically
    padded state (_Workspace); every value comes from the same operands in
    the same order as one pass over the whole grid would use.  The densities
    are checked once, before the first tile: a nonpositive one raises
    ValueError, so it wins over a temperature <= 0 or inf, which raises
    SolverError in the tile that owns its cell.  Both name the first bad
    cell.  The result is work.out, overwritten by the next call with the same
    work; without work, the result is a new array.
    """
    if np.fmin.reduce(u[0:2], axis=None) <= 0:      # fmin skips NaN, as <= does
        raise ValueError("nonpositive density: " + flds.first_cell(u[0:2], PRIMITIVES))
    w = _Workspace(grid.n) if work is None else work
    for tile in w.tiles:
        w.run(u, model, closure, grid.dx, *tile)
    return w.out


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
                          + flds.first_cell(T, ("T1", "T2")))
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
        with np.errstate(all="ignore"):     # rhs and MixtureState name any inf or NaN made
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

    e, p and p0 are thermo's and closure's.  A temperature <= 0 or inf, or a
    total that is not finite, raises ValueError; the error names the first
    non-finite cell of its integrand, or, if every cell is finite, the grid
    length.  So does a field of the snapshot that is not finite: p, p0 (so
    pi) and div v can overflow where every total is finite.
    """
    rho1, rho2, v1, v2, s1, s2 = u = state.packed
    T1, T2 = _temperatures(u, model)
    totals = {}

    def total(name, density, what):
        """totals[name], the integral of density; raises ValueError if it is not finite."""
        totals[name] = value = float(np.sum(density)) * state.grid.dx
        if not math.isfinite(value):
            bad = ~np.isfinite(density[None])
            raise ValueError(f"{name} = {value!r}: " + (
                "its integrand is not finite: " + flds.first_cell(density[None], (what,), bad)
                if bad.any() else
                f"its sum over the grid, of length {state.grid.length:g}, overflows"))

    # an overflow of rho cv (T_avg's weights), rho v^2, rho v or rho s makes
    # the density of the total it enters inf or nan, which total names; each
    # total a float product, which overflows to inf without a numpy warning;
    # one of k rho T or div v makes a snapshot field inf or nan, named below
    with np.errstate(over="ignore", invalid="ignore"):
        T_avg = average_temperature_field(model, rho1, rho2, T1, T2)
        total("total_mass1", rho1, "rho1")
        total("total_mass2", rho2, "rho2")
        total("total_energy", thermo.internal_energy_volume(model, rho1, rho2, T1, T2)
              + 0.5 * (rho1 * v1**2 + rho2 * v2**2), "energy density")
        momentum = rho1 * v1 + rho2 * v2
        total("total_momentum", momentum, "momentum density")
        divv_field = flds.div(momentum / (rho1 + rho2), state.grid)   # mass-average v
        total("total_entropy", rho1 * s1 + rho2 * s2, "entropy density")
        p, p0 = cls._pressures(model, rho1, rho2, T1, T2, T_avg)
    for name, field in (("p", p), ("p0", p0), ("divv", divv_field)):
        if not np.isfinite(field).all():
            raise ValueError("non-finite snapshot field: "
                             + flds.first_cell(field[None], (name,), ~np.isfinite(field[None])))
    return Diagnostics(**totals, min_temperature_gap=float(np.min(np.abs(T2 - T1))),
                       T1=T1, T2=T2, T_avg=T_avg, p=p, p0=p0, divv_field=divv_field)


@dataclass
class TrajectoryPoint:
    t: float
    state: MixtureState
    diag: Diagnostics


def trajectory(scenario: Scenario) -> Iterator[TrajectoryPoint]:
    """Run the scenario to t_end, yielding the t = 0 point and every stride-th step's.

    The last step is always yielded.  Nothing is kept: a consumer that drops
    each point holds O(n) memory however many points there are.  A failed
    step or snapshot raises SolverError naming its time and step.
    """
    model, state, dt = scenario.model, scenario.initial_state, scenario.dt
    yield TrajectoryPoint(0.0, state, diagnostics(state, model))
    for k in range(1, scenario.n_steps + 1):
        try:
            state = step(state, scenario)
            if k % scenario.stride == 0 or k == scenario.n_steps:
                yield TrajectoryPoint(k * dt, state, diagnostics(state, model))
        except (SolverError, ValueError) as exc:
            raise SolverError(f"aborted at t={(k - 1) * dt:g} (step {k}): {exc}") from exc


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
