"""An exact nonlinear oracle at Lambda = chi = 0: simple waves before they break.

With no exchange and no drag, each gas is the 1-D Euler system in
(rho, v, s).  A gas of uniform entropy whose Riemann invariant
J- = v - 2c/(gamma - 1) is uniform stays so, and each value of its sound
speed c travels on a straight C+ characteristic, x = x0 + (v + c)(x0) t
(Courant & Friedrichs, *Supersonic Flow and Shock Waves*, 1948; Whitham,
*Linear and Nonlinear Waves*, 1974, ch. 6).  From

    c(x) = c0 (1 + a sin 2 pi x),  rho = rho0 (c / c0)^(2 / (gamma - 1)),
    v = 2 (c - c0) / (gamma - 1),

the exact state at (x, t) follows from solving for x0 by Newton's method,
until the breaking time t_b = (gamma - 1) / ((gamma + 1) c0 a 2 pi).  The
tests run the solver to half the earliest t_b at CFL 0.4 and assert the L1
order of the density error at n = 64, 128 and 256.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import bifluid as bf

# gamma = 5/3 for gas 1 and 1.2 for gas 2
MODEL = bf.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
# the lowest L1 order of each gas's density error from n = 64 to 128 and from
# 128 to 256, set from the solver's minmod MUSCL scheme: gas 1's wave alone
# measured 1.81 and 1.84 (rho1); both waves 1.84 and 1.89 (rho1) and 1.79
# and 1.88 (rho2)
MIN_ORDER = {"rho1": 1.80, "rho2": 1.78}
NEWTON_TOL = 1e-13


@dataclass(frozen=True)
class Wave:
    """One gas's simple wave: rest state (rho0, T0) and relative amplitude a of c;
    a = 0 leaves the gas at rest."""

    gas: int
    rho0: float
    T0: float
    a: float = 0.0

    @property
    def gamma(self):
        return MODEL.gamma1 if self.gas == 1 else MODEL.gamma2

    @property
    def c0(self):
        return math.sqrt(self.gamma * MODEL.k(self.gas) * self.T0)

    @property
    def breaking_time(self):
        g = self.gamma
        return (g - 1.0) / ((g + 1.0) * self.c0 * self.a * 2.0 * math.pi) if self.a else math.inf

    def exact(self, x, t):
        """(rho, v) at the points x at time t, and the largest Newton residual.

        The foot x0 of the C+ characteristic through (x, t) solves
        x0 + (v + c)(x0) t = x, which increases in x0 for t < t_b.  Newton's
        method runs inside a bracket of x0, and bisects where its step leaves it.
        """
        g, c0, k = self.gamma, self.c0, 2.0 * np.pi

        def c(x0):
            return c0 * (1.0 + self.a * np.sin(k * x0))

        def residual(x0):       # (v + c)(x0) = ((g + 1) c - 2 c0) / (g - 1)
            return x0 + ((g + 1.0) * c(x0) - 2.0 * c0) / (g - 1.0) * t - x

        spread = (g + 1.0) / (g - 1.0) * c0 * self.a      # v + c lies within c0 -+ spread
        lo, hi, x0 = x - (c0 + spread) * t, x - (c0 - spread) * t, x - c0 * t
        for _ in range(100):
            r = residual(x0)
            if np.max(np.abs(r)) <= NEWTON_TOL:
                break
            lo, hi = np.where(r < 0, x0, lo), np.where(r > 0, x0, hi)
            step = x0 - r / (1.0 + (g + 1.0) / (g - 1.0) * c0 * self.a * k * t * np.cos(k * x0))
            x0 = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        cx = c(x0)
        return (self.rho0 * (cx / c0) ** (2.0 / (g - 1.0)), 2.0 * (cx - c0) / (g - 1.0),
                float(np.max(np.abs(residual(x0)))))

    def rows(self, x):
        """rho, v and s at t = 0; s is uniform."""
        rho, v, _ = self.exact(x, 0.0)
        return rho, v, np.full_like(x, bf.entropy_from_temperature(
            MODEL, self.gas, self.rho0, self.T0))


@dataclass(frozen=True)
class SimpleWaves:
    """Scenario's initial state: one Wave per gas."""

    waves: tuple

    def build(self, grid):
        x = grid.cell_centers()
        (rho1, v1, s1), (rho2, v2, s2) = (w.rows(x) for w in self.waves)
        return bf.MixtureState(grid, rho1, rho2, v1, v2, s1, s2)


def _l1_errors(waves, n):
    """The L1 errors of rho1 and rho2 at half the earliest breaking time, on n cells."""
    t_end = 0.5 * min(w.breaking_time for w in waves)
    initial = SimpleWaves(waves)
    grid = bf.Grid1D(n, 1.0)
    speed = bf.max_wave_speed(initial.build(grid), MODEL)
    steps = math.ceil(t_end / (0.4 * grid.dx / speed))
    sc = bf.Scenario(grid, MODEL, bf.ClosureParams(), initial, dt=t_end / steps, t_end=t_end)
    state = sc.initial_state
    for _ in range(sc.n_steps):
        state = bf.step(state, sc)
    errors = []
    for w, rho in zip(waves, (state.rho1, state.rho2)):
        exact, _, residual = w.exact(grid.cell_centers(), t_end)
        assert residual <= NEWTON_TOL
        errors.append(float(np.sum(np.abs(rho - exact))) * grid.dx)
    return errors


GAS1_ALONE = (Wave(1, 1.0, 300.0, 0.05), Wave(2, 2.0, 300.0))
BOTH_GASES = (Wave(1, 1.0, 300.0, 0.05), Wave(2, 2.0, 300.0, 0.05))


@pytest.mark.parametrize("waves", [GAS1_ALONE, BOTH_GASES], ids=["gas1-alone", "both-gases"])
def test_simple_wave_density_converges_at_second_order(waves):
    errors = np.array([_l1_errors(waves, n) for n in (64, 128, 256)])
    print(f"L1 errors of (rho1, rho2) at n = 64, 128, 256: {errors.tolist()}")
    for (name, min_order), wave, e in zip(MIN_ORDER.items(), waves, errors.T):
        if wave.a:
            orders = np.log2(e[:-1] / e[1:])
            assert np.all(orders >= min_order), (name, orders)
        else:   # a gas at rest stays at rest
            assert np.all(e == 0.0), (name, e)


@pytest.mark.parametrize("wave", BOTH_GASES, ids=["gamma-5/3", "gamma-1.2"])
def test_exact_state_keeps_mass_and_momentum(wave):
    # a check of the oracle itself: Newton's method converges up to just before
    # t_b, and the exact point values at t_b / 2 hold the mass and momentum of
    # t = 0 (the mean of a smooth periodic function over 256 points is exact to
    # round-off)
    x = (np.arange(256) + 0.5) / 256
    assert wave.exact(x, 0.99 * wave.breaking_time)[2] <= NEWTON_TOL
    (rho0, v0, _), (rho, v, residual) = (wave.exact(x, t) for t in (0.0, 0.5 * wave.breaking_time))
    assert residual <= NEWTON_TOL
    assert np.mean(rho) == pytest.approx(np.mean(rho0), rel=1e-13)
    assert np.mean(rho * v) == pytest.approx(np.mean(rho0 * v0), rel=1e-13)
