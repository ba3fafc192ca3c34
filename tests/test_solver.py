import re

import numpy as np
import pytest

from bifluid import (ClosureParams, FieldInit, GasPairModel, Grid1D,
                     InitialConditions, MixtureState, Scenario, SolverError,
                     diagnostics, entropy_from_temperature, integrate,
                     max_wave_speed, rhs, step, thermo_eval)
from bifluid.solver import G, PRIMITIVES, TILE, _Workspace

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
S1_300 = float(entropy_from_temperature(MODEL, 1, 1.0, 300.0))
S2_300 = float(entropy_from_temperature(MODEL, 2, 2.0, 300.0))
S2_320 = float(entropy_from_temperature(MODEL, 2, 2.0, 320.0))


def _uniform_init(v=0.0):
    return InitialConditions(
        rho1=FieldInit(1.0), rho2=FieldInit(2.0),
        v1=FieldInit(v), v2=FieldInit(v),
        s1=FieldInit(S1_300), s2=FieldInit(S2_300))


def _acoustic_init(amp=0.01, s2=S2_300):
    return InitialConditions(
        rho1=FieldInit(1.0, amp), rho2=FieldInit(2.0, 2 * amp),
        v1=FieldInit(0.0, 0.2 * amp), v2=FieldInit(0.0, 0.2 * amp),
        s1=FieldInit(S1_300), s2=FieldInit(s2))


def _scenario(n=128, dt=1e-4, t_end=0.01, closure=None, init=None, **kw):
    return Scenario(Grid1D(n, 1.0), MODEL, closure or ClosureParams(),
                    init or _acoustic_init(), dt=dt, t_end=t_end, **kw)


def _pack(state):
    return np.stack([getattr(state, n) for n in PRIMITIVES])


def test_uniform_state_has_zero_rhs():
    grid = Grid1D(32, 1.0)
    state = _uniform_init().build(grid)
    d = rhs(_pack(state), MODEL, ClosureParams(), grid)
    for row in d:
        assert np.max(np.abs(row)) == 0.0


def test_boosted_uniform_state_has_zero_rhs():
    grid = Grid1D(32, 1.0)
    state = _uniform_init(v=0.7).build(grid)
    d = rhs(_pack(state), MODEL, ClosureParams(), grid)
    for row in d:
        assert np.max(np.abs(row)) < 1e-11


def test_rhs_locality():
    grid = Grid1D(64, 1.0)
    state = _uniform_init().build(grid)
    state.rho1[30] *= 1.01
    d = rhs(_pack(state), MODEL, ClosureParams(), grid)
    # minmod reconstruction + LLF touch at most two cells either side
    affected = np.flatnonzero(np.abs(d[0]) > 0)
    assert affected.size > 0
    assert np.all(np.abs(affected - 30) <= 2)


def test_step_preserves_equilibrium():
    sc = _scenario(init=_uniform_init())
    state = sc.initial.build(sc.grid)
    out = step(state, sc)
    for name in ("rho1", "rho2", "v1", "v2", "s1", "s2"):
        assert np.allclose(getattr(out, name), getattr(state, name),
                           rtol=1e-14, atol=1e-14)


def test_rk3_temporal_order():
    # Richardson against the same spatial operator: halving dt shrinks the
    # one-interval time error by about 2^3
    grid = Grid1D(32, 1.0)

    def advance(dt, steps):
        sc = Scenario(grid, MODEL, ClosureParams(), _acoustic_init(),
                      dt=dt, t_end=dt * steps)
        state = sc.initial.build(grid)
        for _ in range(steps):
            state = step(state, sc)
        return state

    dt0 = 8e-5
    base = advance(dt0, 2)
    mid = advance(dt0 / 2, 4)
    fine = advance(dt0 / 4, 8)
    d1 = max(np.max(np.abs(getattr(base, n) - getattr(mid, n)))
             for n in ("rho1", "v1", "s2"))
    d2 = max(np.max(np.abs(getattr(mid, n) - getattr(fine, n)))
             for n in ("rho1", "v1", "s2"))
    assert 4.0 < d1 / d2 < 16.0


def test_parity_symmetry():
    grid = Grid1D(64, 1.0)
    sc = _scenario(n=64)
    state = sc.initial.build(grid)

    def mirror(st):
        flip = lambda f: f[::-1].copy()
        return MixtureState(grid, flip(st.rho1), flip(st.rho2),
                            -flip(st.v1), -flip(st.v2), flip(st.s1), flip(st.s2))

    fwd = step(state, sc)
    mirrored = step(mirror(state), sc)
    ref = mirror(fwd)
    for name in ("rho1", "rho2", "v1", "v2", "s1", "s2"):
        assert np.allclose(getattr(mirrored, name), getattr(ref, name),
                           rtol=1e-12, atol=1e-12)


def test_cfl_enforced_at_construction():
    with pytest.raises(ValueError, match="CFL"):
        _scenario(dt=1.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(dt=-1e-4)
    with pytest.raises(ValueError):
        _scenario(t_end=0.0)
    with pytest.raises(ValueError):
        _scenario(stride=0)


def test_diagnostics_uniform_totals():
    grid = Grid1D(32, 2.0)
    state = _uniform_init(v=0.3).build(grid)
    d = diagnostics(state, MODEL)
    assert d.total_mass1 == pytest.approx(1.0 * 2.0, rel=1e-14)
    assert d.total_mass2 == pytest.approx(2.0 * 2.0, rel=1e-14)
    assert d.total_momentum == pytest.approx(3.0 * 0.3 * 2.0, rel=1e-13)
    e = 1.0 * 1.5 * 300.0 + 2.0 * 2.5 * 300.0
    kin = 0.5 * 3.0 * 0.3**2
    assert d.total_energy == pytest.approx((e + kin) * 2.0, rel=1e-12)


@pytest.mark.parametrize("cell", [0, 5, 31])
def test_diagnostics_name_the_first_cell_whose_integrand_overflows(cell):
    # rho v^2 overflows in one cell, the later cells too: the error names the
    # energy density there, not the grid length
    grid = Grid1D(32, 1.0)
    state = _uniform_init().build(grid)
    u = state.packed.copy()
    u[2, cell:] = 1e300
    u[3, cell + 3:] = -1e300
    with pytest.raises(ValueError, match=rf"^total_energy = inf: its integrand is not finite: "
                                         rf"energy density = inf at cell {cell}$"):
        diagnostics(MixtureState(grid, *u), MODEL)


def test_diagnostics_rotation_invariance():
    grid = Grid1D(32, 1.0)
    state = _acoustic_init().build(grid)
    d0 = diagnostics(state, MODEL)
    rolled = MixtureState(grid, *(np.roll(getattr(state, n), 5)
                                  for n in ("rho1", "rho2", "v1", "v2", "s1", "s2")))
    d1 = diagnostics(rolled, MODEL)
    assert d1.total_energy == pytest.approx(d0.total_energy, rel=1e-14)
    assert d1.total_entropy == pytest.approx(d0.total_entropy, rel=1e-14)


def test_energy_two_routes_agree():
    grid = Grid1D(32, 1.0)
    state = _acoustic_init().build(grid)
    pt = thermo_eval(MODEL, state.rho1, state.rho2, state.s1, state.s2)
    direct = state.rho1 * MODEL.cv1 * pt.T1 + state.rho2 * MODEL.cv2 * pt.T2
    assert np.max(np.abs(direct - pt.e) / pt.e) < 1e-12


def test_integrate_zero_amplitude_constant_diagnostics():
    sc = _scenario(init=_uniform_init(), t_end=0.01, dt=1e-4, stride=10)
    rows = integrate(sc)
    d0 = rows[0].diag
    for pt in rows[1:]:
        assert pt.diag.total_energy == pytest.approx(d0.total_energy, rel=1e-13)
        assert pt.diag.total_entropy == pytest.approx(d0.total_entropy, abs=1e-13)


def test_mass_conservation_to_roundoff():
    sc = _scenario(t_end=0.02, dt=1e-4, stride=50)
    rows = integrate(sc)
    m1 = [r.diag.total_mass1 for r in rows]
    m2 = [r.diag.total_mass2 for r in rows]
    assert max(abs(m - m1[0]) for m in m1) / m1[0] < 1e-13
    assert max(abs(m - m2[0]) for m in m2) / m2[0] < 1e-13


def test_entropy_constant_without_sources():
    # Lambda = chi = 0 and uniform initial entropies: sources vanish and the
    # advected entropies stay uniform, so the total is conserved with the mass
    sc = _scenario(t_end=0.02, dt=1e-4, stride=50)
    rows = integrate(sc)
    S = [r.diag.total_entropy for r in rows]
    assert max(abs(s - S[0]) for s in S) <= 1e-12 * max(abs(S[0]), 1.0)


def test_entropy_nondecreasing_with_lambda():
    sc = _scenario(closure=ClosureParams(mode="fixed-lambda", lam=0.13),
                   init=_acoustic_init(s2=S2_320), t_end=0.02, dt=1e-4, stride=10)
    rows = integrate(sc)
    S = np.array([r.diag.total_entropy for r in rows])
    assert np.all(np.diff(S) >= -1e-12 * np.abs(S[0]))


def test_q_source_energy_neutrality():
    # the exchange sources alone must not change the internal energy
    from bifluid import average_temperature_field, entropy_sources
    grid = Grid1D(64, 1.0)
    state = _acoustic_init(s2=S2_320).build(grid)
    pt = thermo_eval(MODEL, state.rho1, state.rho2, state.s1, state.s2)
    T = average_temperature_field(MODEL, state.rho1, state.rho2, pt.T1, pt.T2)
    src = entropy_sources(MODEL, state.rho1, state.rho2, pt.T1, pt.T2, T,
                          0.13, np.full(64, 0.4), 3e-6)
    # de/dt at frozen densities = sum rho_alpha T_alpha sdot_alpha = q1 + q2
    rate = state.rho1 * pt.T1 * src.sdot1 + state.rho2 * pt.T2 * src.sdot2
    assert np.max(np.abs(rate)) <= 1e-10 * np.max(pt.e)


def test_drag_relaxes_the_relative_velocity():
    # uniform state: only the drag acts, so u = v2 - v1 decays as
    # u0 exp(-chi (1/rho1 + 1/rho2) t) while the total momentum stays put
    chi, u0, t_end = 0.5, -0.01, 2.0
    exact = u0 * np.exp(-chi * (1 / 1.0 + 1 / 2.0) * t_end)
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        init = InitialConditions(
            rho1=FieldInit(1.0), rho2=FieldInit(2.0), v1=FieldInit(-u0), v2=FieldInit(0.0),
            s1=FieldInit(S1_300), s2=FieldInit(S2_300))
        rows = integrate(_scenario(n=4, dt=dt, t_end=t_end, init=init,
                                   closure=ClosureParams(chi=chi), stride=10**6))
        end = rows[-1].state
        errors.append(np.max(np.abs(end.v2 - end.v1 - exact)))
        assert abs(rows[-1].diag.total_momentum - rows[0].diag.total_momentum) <= 1e-14
    assert errors[0] / errors[1] >= 7.0 and errors[1] / errors[2] >= 7.0


def test_galilean_shift():
    boost = 0.05
    base = _scenario(t_end=0.005, dt=5e-5, stride=10)
    shifted_init = InitialConditions(
        rho1=FieldInit(1.0, 0.01), rho2=FieldInit(2.0, 0.02),
        v1=FieldInit(boost, 0.002), v2=FieldInit(boost, 0.002),
        s1=FieldInit(S1_300), s2=FieldInit(S2_300))
    shifted = Scenario(base.grid, MODEL, ClosureParams(), shifted_init,
                       dt=5e-5, t_end=0.005, stride=10)
    rows_a = integrate(base)
    rows_b = integrate(shifted)
    mass = rows_a[0].diag.total_mass1 + rows_a[0].diag.total_mass2
    for ra, rb in zip(rows_a, rows_b):
        assert rb.diag.total_momentum == pytest.approx(
            ra.diag.total_momentum + boost * mass, abs=1e-6)


def test_integration_abort_keeps_trajectory():
    # grossly unresolved velocity spike at relaxed CFL drives a density negative
    grid = Grid1D(16, 1.0)
    init = InitialConditions(
        rho1=FieldInit(1.0, 0.999), rho2=FieldInit(2.0),
        v1=FieldInit(0.0, 200.0), v2=FieldInit(0.0),
        s1=FieldInit(S1_300), s2=FieldInit(S2_300))
    sc = Scenario(grid, MODEL, ClosureParams(), init, dt=5e-3, t_end=0.5,
                  stride=1, cfl=100.0)
    with pytest.raises(SolverError) as exc:
        integrate(sc)
    assert len(exc.value.trajectory) >= 1
    # the first bad cell is named by field, interior index and value
    assert re.search(r"\b(rho|T)[12] = \S+ at cell \d+$", str(exc.value))


def test_slaving_mode_preserves_internal_energy():
    from bifluid.solver import apply_theta_slaving
    grid = Grid1D(32, 1.0)
    init = InitialConditions(
        rho1=FieldInit(1.0, 0.01), rho2=FieldInit(2.0, 0.02),
        v1=FieldInit(0.0, 0.01), v2=FieldInit(0.0, 0.01),
        s1=FieldInit(S1_300), s2=FieldInit(S2_320))
    state = init.build(grid)
    out = apply_theta_slaving(state.packed, MODEL, ClosureParams(mode="relaxation-M", M=0.01),
                              grid)
    before = thermo_eval(MODEL, state.rho1, state.rho2, state.s1, state.s2).e
    after = thermo_eval(MODEL, out[0], out[1], out[4], out[5]).e
    assert np.max(np.abs(after - before) / before) < 1e-12


def test_max_wave_speed():
    grid = Grid1D(16, 1.0)
    state = _uniform_init(v=0.5).build(grid)
    expect = 0.5 + np.sqrt(MODEL.gamma1 * MODEL.k1 * 300.0)
    assert max_wave_speed(state, MODEL) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [4, 33])
def test_rhs_is_equivariant_under_periodic_shifts(n):
    # n = 4 makes the ghost width half the grid; n = 33 is odd
    grid = Grid1D(n, 1.0)
    rng = np.random.default_rng(n)
    u = np.stack([rng.uniform(0.9, 1.1, n), rng.uniform(1.8, 2.2, n),
                  rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n),
                  S1_300 + rng.uniform(-0.01, 0.01, n),
                  S2_320 + rng.uniform(-0.01, 0.01, n)])
    closure = ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5)
    d = rhs(u, MODEL, closure, grid)
    assert np.all(np.isfinite(d)) and np.all(d[0] != 0)
    for k in range(1, n):
        shifted = rhs(np.roll(u, k, axis=1), MODEL, closure, grid)
        assert np.array_equal(shifted, np.roll(d, k, axis=1))


def test_slaving_through_integrate_keeps_constitutive_gap():
    from bifluid import div, theta_constitutive
    M = 1.0
    sc = _scenario(n=32, closure=ClosureParams(mode="relaxation-M", M=M),
                   init=_acoustic_init(s2=S2_320), t_end=0.002, stride=5,
                   slaving=True)
    rows = integrate(sc)
    assert len(rows) == 5
    for r in rows[1:]:
        st = r.state
        pt = thermo_eval(MODEL, st.rho1, st.rho2, st.s1, st.s2)
        theta = theta_constitutive(MODEL, st.rho1, st.rho2, M, div(st.v_mean, sc.grid))
        assert np.any(theta != 0)
        assert np.max(np.abs(pt.T2 - pt.T1 - theta)) <= 1e-12 * np.max(pt.T2)


def test_step_and_integrate_call_counts(monkeypatch):
    # bench/run.py --trace 1 checks rhs = 3 * steps and diagnostics = rows
    import bifluid.solver as slv
    import bifluid.thermo
    calls = {"rhs": 0, "diagnostics": 0, "MixtureState": 0, "thermo_eval": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(slv, "rhs")
    counted(slv, "diagnostics")
    counted(slv, "MixtureState")
    counted(bifluid.thermo, "thermo_eval")
    sc = _scenario(n=16, t_end=7e-4, stride=3)
    assert calls["MixtureState"] == 1       # the initial state, built once
    slv.step(sc.initial_state, sc)
    assert calls["rhs"] == 3
    assert calls["MixtureState"] == 2 and calls["thermo_eval"] == 0
    rows = slv.integrate(sc)
    assert calls["rhs"] == 3 + 3 * 7
    assert calls["diagnostics"] == len(rows) == 4      # t = 0, steps 3, 6, 7
    assert calls["MixtureState"] == 2 + 7              # integrate reuses the initial state
    assert calls["thermo_eval"] == 0                   # diagnostics uses PAIR thermo

    # with slaving on, a step still builds one MixtureState and no ThermoPoint
    sc = _scenario(n=16, t_end=7e-4, stride=3, slaving=True,
                   closure=ClosureParams(mode="relaxation-M", M=0.01))
    calls.update(MixtureState=0, thermo_eval=0)
    slv.step(sc.initial_state, sc)
    assert calls["MixtureState"] == 1 and calls["thermo_eval"] == 0


# The per-component RHS that the batched rhs replaced, kept as a bitwise
# reference: one pass per gas over its padded rows.

def _ref_minmod_slopes(u):
    left, right = u[1:-1] - u[:-2], u[2:] - u[1:-1]
    return np.where(left * right > 0,
                    np.sign(left) * np.minimum(np.abs(left), np.abs(right)),
                    0.0)


def _ref_llf_flux_divergence(rho, v, speed, dx):
    m = rho * v
    half_rho = 0.5 * _ref_minmod_slopes(rho)
    half_m = 0.5 * _ref_minmod_slopes(m)
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


def _ref_central(f, dx):
    return (f[3:-1] - f[1:-3]) / (2.0 * dx)


def _ref_rhs(u, model, closure, grid):
    from bifluid import (average_temperature_field, entropy_sources,
                         momentum_production, sound_speed)
    G = 2
    up = np.concatenate((u[:, -G:], u, u[:, :G]), axis=1)
    rho1, rho2, v1, v2, s1, s2 = up
    pt = thermo_eval(model, rho1, rho2, s1, s2)
    dx = grid.dx
    inner = slice(G, -G)
    divv = _ref_central((rho1 * v1 + rho2 * v2) / (rho1 + rho2), dx)
    r1, r2, T1, T2 = rho1[inner], rho2[inner], pt.T1[inner], pt.T2[inner]
    T = average_temperature_field(model, r1, r2, T1, T2)
    lam = closure.exchange_lambda(model, r1, r2)
    sources = entropy_sources(model, r1, r2, T1, T2, T, lam, divv, closure.epsilon_T)
    drag = momentum_production(closure.chi, v2[inner] - v1[inner])
    out = np.empty_like(u)
    for a, Ta, ha, sdot, sgn in ((0, pt.T1, pt.h1, sources.sdot1, +1.0),
                                 (1, pt.T2, pt.h2, sources.sdot2, -1.0)):
        rho, v, s = up[a], up[a + 2], up[a + 4]
        speed = np.abs(v) + sound_speed(model, a + 1, Ta)
        drho, dm = _ref_llf_flux_divergence(rho, v, speed, dx)
        rho_c, v_c, grad_s = rho[inner], v[inner], _ref_central(s, dx)
        dm = dm + rho_c * Ta[inner] * grad_s - rho_c * _ref_central(ha, dx) - sgn * drag
        out[a], out[a + 2], out[a + 4] = drho, (dm - v_c * drho) / rho_c, sdot - v_c * grad_s
    return out


def _random_state(n, rng, equal_T_cells=False):
    rho1, rho2 = rng.uniform(0.5, 1.5, n), rng.uniform(1.5, 2.5, n)
    T1, T2 = rng.uniform(250.0, 350.0, n), rng.uniform(250.0, 350.0, n)
    if equal_T_cells:
        T2[::2] = T1[::2]
    return np.stack([rho1, rho2, rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n),
                     entropy_from_temperature(MODEL, 1, rho1, T1),
                     entropy_from_temperature(MODEL, 2, rho2, T2)])


# rhs splits the grid into ceil(n / TILE) equal tiles, the last moved back
# to end at cell n, where it recomputes the cells it shares with the tile
# before: TILE + 1 gives two tiles of TILE / 2 + 1 cells that share one,
# 2 TILE + 37 and 3 TILE + 37 three and four tiles whose last repeats 1 and
# 3 cells, and 7 TILE + 1 eight tiles of 7,169 cells whose last repeats 7
def _bits(a):
    """The bit patterns of a float64 array: unlike ==, they tell -0.0 from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


# at-rest is the uniform state at rest, where the rhs holds negative zeros
# (3n of them at the parent of the fused tile kernel); with and without drag
RHS_CLOSURES = {"fixed-lambda": ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5),
                "relaxation-M": ClosureParams(mode="relaxation-M", M=0.01),
                "equal-T": ClosureParams(mode="fixed-lambda", lam=0.13),
                "at-rest": ClosureParams(mode="fixed-lambda", lam=0.13),
                "at-rest-drag": ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5)}


@pytest.mark.parametrize("n", [4, 33, 128, TILE + 1, 2 * TILE + 37, 3 * TILE + 37,
                               7 * TILE + 1])
@pytest.mark.parametrize("case", list(RHS_CLOSURES))
def test_batched_rhs_matches_per_component_reference(n, case, caplog):
    from bifluid import average_temperature_field, entropy_sources
    closure = RHS_CLOSURES[case]
    grid = Grid1D(n, 1.0)
    if case.startswith("at-rest"):
        u = _uniform_init().build(grid).packed
    else:
        u = _random_state(n, np.random.default_rng(n), equal_T_cells=case == "equal-T")
    if case == "equal-T":      # the T2 - T1 denominator is clipped in every other cell
        pt = thermo_eval(MODEL, u[0], u[1], u[4], u[5])
        T = average_temperature_field(MODEL, u[0], u[1], pt.T1, pt.T2)
        src = entropy_sources(MODEL, u[0], u[1], pt.T1, pt.T2, T, 0.13, np.ones(n),
                              closure.epsilon_T)
        assert np.array_equal(src.regularized, np.arange(n) % 2 == 0)
    expect = _ref_rhs(u, MODEL, closure, grid)
    assert np.all(np.isfinite(expect))
    if case.startswith("at-rest"):
        assert np.count_nonzero(np.signbit(expect)) > 0
    with caplog.at_level("INFO"):
        assert np.array_equal(_bits(rhs(u, MODEL, closure, grid)), _bits(expect))
    assert caplog.records == []     # rhs logs nothing, not even the clipped cells


def test_rhs_names_the_first_bad_cell():
    grid = Grid1D(8, 1.0)
    u = _random_state(8, np.random.default_rng(3))
    u[1, 5], u[0, 6] = -0.25, -1.0
    with pytest.raises(ValueError, match=r"rho2 = -0\.25 at cell 5$"):
        rhs(u, MODEL, ClosureParams(), grid)
    u = _random_state(8, np.random.default_rng(3))
    u[5, 2] = -1e6      # T2 underflows to 0
    with pytest.raises(SolverError, match=r"T2 = 0\.0 at cell 2$"):
        rhs(u, MODEL, ClosureParams(), grid)


def test_rhs_names_an_infinite_temperature():
    # T1 overflows to inf in cell 5: the tile stops at its temperature check,
    # before any arithmetic on the inf, so exp's overflow is the one warning
    grid = Grid1D(16, 1.0)
    u = _uniform_init().build(grid).packed.copy()
    u[4, 5] = 1e4
    message = r"infinite temperature in rhs evaluation: T1 = inf at cell 5$"
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp") as record:
        with pytest.raises(SolverError, match=message):
            rhs(u, MODEL, ClosureParams(), grid)
    assert len(record) == 1
    sc = _scenario(n=16, init=_uniform_init())
    with np.errstate(over="ignore"), pytest.raises(SolverError, match=message):
        step(MixtureState(grid, packed=u), sc)


def test_tiled_rhs_names_the_first_bad_cell():
    n = 3 * TILE + 37
    grid = Grid1D(n, 1.0)

    def fails(edits, exc, message):
        u = _random_state(n, np.random.default_rng(5))
        for (row, cell), value in edits.items():
            u[row, cell] = value
        with pytest.raises(exc, match=message):
            rhs(u, MODEL, ClosureParams(mode="fixed-lambda", lam=0.13), grid)

    # T2 underflows to 0 in two cells of the last tile; the first is named
    fails({(5, n - 3): -1e6, (5, 3 * TILE + 1): -1e6}, SolverError,
          rf"T2 = 0\.0 at cell {3 * TILE + 1}$")
    # T1 at cell n - 1 is a wrapped ghost of the first tile, which evaluates
    # it without failing; the last tile names it
    fails({(4, n - 1): -1e6}, SolverError, rf"T1 = 0\.0 at cell {n - 1}$")
    # a density at cell n - 1 fails in the first tile's wrapped ghost cells
    fails({(0, n - 1): -0.5}, ValueError, rf"rho1 = -0\.5 at cell {n - 1}$")
    # a density fault in a later tile wins over a temperature fault in an earlier one
    fails({(5, 3): -1e6, (1, 2 * TILE + 7): -0.25}, ValueError,
          rf"rho2 = -0\.25 at cell {2 * TILE + 7}$")
    fails({(5, 3): -1e6, (5, TILE + 3): -1e6}, SolverError, r"T2 = 0\.0 at cell 3$")
    # a bad temperature within G cells of any tile edge, in a cell two tiles
    # share or in a window's ghost cells, is named by the tile that owns it
    starts = [start for start, *_ in _Workspace(n).tiles]
    width = n - starts[-1]
    assert len(starts) == 4 and starts[-2] + width > starts[-1]   # the last tile shares cells
    for cell in sorted({(edge + d) % n for start in starts for edge in (start, start + width)
                        for d in range(-G, G)}):
        fails({(5, cell): -1e6}, SolverError, rf"T2 = 0\.0 at cell {cell}$")


def test_tiled_rhs_names_an_infinite_temperature():
    # T1 overflows to inf within G cells of a tile edge: in a window's ghost
    # cells, in a cell two tiles share, in the wrapped ghost cells of the
    # first and the last tile; the tile that owns the cell names it.  A tile
    # that reads it as a ghost runs on, with inf - inf in its sums, hence
    # invalid="ignore".
    n = 3 * TILE + 37
    grid = Grid1D(n, 1.0)
    starts = [start for start, *_ in _Workspace(n).tiles]
    width = n - starts[-1]
    assert starts[-2] + width > starts[-1]      # the last tile shares cells
    for cell in (starts[1] - 1, starts[1], starts[-1], starts[-2] + width - 1, n - 1, G - 1):
        u = _random_state(n, np.random.default_rng(5))
        u[4, cell] = 1e4
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(SolverError, match=rf"T1 = inf at cell {cell}$")):
            rhs(u, MODEL, ClosureParams(mode="fixed-lambda", lam=0.13), grid)


def test_diagnostics_carry_the_snapshot_fields():
    from bifluid import average_temperature_field, dynamical_pressure_from_state
    grid = Grid1D(32, 1.0)
    st = _acoustic_init(s2=S2_320).build(grid)
    d = diagnostics(st, MODEL)
    pt = thermo_eval(MODEL, st.rho1, st.rho2, st.s1, st.s2)
    T = average_temperature_field(MODEL, st.rho1, st.rho2, pt.T1, pt.T2)
    assert np.array_equal(d.T1, pt.T1) and np.array_equal(d.T2, pt.T2)
    assert np.array_equal(d.T_avg, T) and np.array_equal(d.p, pt.p)
    assert np.array_equal(d.p0, (MODEL.k1 * st.rho1 + MODEL.k2 * st.rho2) * T)
    assert np.array_equal(d.pi_field, d.p - d.p0)
    assert np.array_equal(d.pi_field,
                          dynamical_pressure_from_state(MODEL, st.rho1, st.rho2, pt.T1, pt.T2))
    kinetic = 0.5 * (st.rho1 * st.v1**2 + st.rho2 * st.v2**2)
    assert d.total_energy == float(np.sum(pt.e + kinetic) * grid.dx)
    assert d.min_temperature_gap == float(np.min(np.abs(pt.T2 - pt.T1)))


# equal-T starts with T1 = T2 in every other cell, where the exchange divides
# by epsilon_T; its Lambda is small enough that the steps stay positive
CLOSURES = {"fixed-lambda": ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5),
            "relaxation-M": ClosureParams(mode="relaxation-M", M=0.01),
            "equal-T": ClosureParams(mode="fixed-lambda", lam=1e-9),
            "at-rest": ClosureParams(mode="fixed-lambda", lam=0.13),
            "at-rest-drag": ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5)}


def _random_scenario(n, case, steps=5, stride=2):
    """A scenario from a random state, or, for the at-rest cases, from the uniform state at rest."""
    grid = Grid1D(n, 1.0)
    dt = 0.1 * grid.dx / 30.0      # well inside CFL for |v| <= 0.5, T <= 350 K
    sc = Scenario(grid, MODEL, CLOSURES[case], _uniform_init(), dt=dt, t_end=steps * dt,
                  stride=stride)
    if not case.startswith("at-rest"):
        u = _random_state(n, np.random.default_rng(n), equal_T_cells=case == "equal-T")
        sc.initial_state = MixtureState(grid, *u)
    return sc


def _ref_trajectory(sc):
    """Shu-Osher SSP-RK3 stages of _ref_rhs, each a new array, at integrate's rows."""
    args, dt = (MODEL, sc.closure, sc.grid), sc.dt
    u0 = sc.initial_state.packed.copy()
    rows = [(0.0, u0)]
    n_steps = int(round(sc.t_end / dt))
    for k in range(1, n_steps + 1):
        u = u0 + dt * _ref_rhs(u0, *args)
        u = 0.75 * u0 + 0.25 * (u + dt * _ref_rhs(u, *args))
        u0 = 1.0 / 3.0 * u0 + 2.0 / 3.0 * (u + dt * _ref_rhs(u, *args))
        if k % sc.stride == 0 or k == n_steps:
            rows.append((k * dt, u0))
    return rows


@pytest.mark.parametrize("n", [4, 33, 128])
@pytest.mark.parametrize("case", list(CLOSURES))
def test_integrate_matches_reference_stepping_bitwise(n, case):
    # the workspace-backed step forms the same operands in the same order as
    # stepping the per-component reference RHS with fresh arrays
    sc = _random_scenario(n, case)
    if case == "equal-T":
        from bifluid import entropy_sources
        u = sc.initial_state.packed
        pt = thermo_eval(MODEL, *u[[0, 1, 4, 5]])
        src = entropy_sources(MODEL, u[0], u[1], pt.T1, pt.T2, pt.T1, 1e-9, np.ones(n),
                              sc.closure.epsilon_T)
        assert np.array_equal(src.regularized, np.arange(n) % 2 == 0)
    rows, expect = integrate(sc), _ref_trajectory(sc)
    assert [pt.t for pt in rows] == [t for t, _ in expect] and len(rows) == 4
    for pt, (_, u) in zip(rows, expect):
        assert np.array_equal(_bits(pt.state.packed), _bits(u))


def test_consecutive_steps_and_rhs_calls_do_not_alias():
    sc = _random_scenario(33, "fixed-lambda")
    first = step(sc.initial_state, sc)
    kept = first.packed.copy()
    second = step(first, sc)
    assert np.array_equal(first.packed, kept)
    assert not np.shares_memory(first.packed, second.packed)
    # without a workspace, rhs returns a new array each call
    r1 = rhs(first.packed, MODEL, sc.closure, sc.grid)
    kept = r1.copy()
    r2 = rhs(second.packed, MODEL, sc.closure, sc.grid)
    assert np.array_equal(r1, kept) and not np.shares_memory(r1, r2)


def test_step_result_is_never_written_again():
    # a snapshot being written by a forked child process stays as step returned it
    sc = _random_scenario(33, "fixed-lambda")
    kept = step(sc.initial_state, sc)
    before = kept.packed.tobytes()
    state = kept
    for _ in range(3):
        state = step(state, sc)
    assert kept.packed.tobytes() == before


def _arrays(obj):
    """Every ndarray in obj's attributes, and in their lists and tuples."""
    items = list(vars(obj).values())
    while items:
        item = items.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (list, tuple)):
            items.extend(item)


@pytest.mark.parametrize("slaving", [False, True])
def test_step_result_shares_no_memory_with_the_workspace(slaving):
    sc = _scenario(n=33, t_end=3e-4, slaving=slaving,
                   closure=ClosureParams(mode="relaxation-M", M=0.01))
    state = step(step(sc.initial_state, sc), sc)
    workspace = list(_arrays(sc._workspace))
    assert len(workspace) > 10
    for arr in workspace:
        assert not np.shares_memory(state.packed, arr)
        assert not np.shares_memory(sc.initial_state.packed, arr)


def test_warm_step_allocates_at_most_three_state_blocks():
    import tracemalloc
    n = 8192
    sc = _scenario(n=n, dt=1e-7, t_end=1e-6, init=_acoustic_init(s2=S2_320),
                   closure=ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5))
    state = step(sc.initial_state, sc)
    tracemalloc.start()
    try:
        step(state, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 6 * 8 * n       # one (6, n) float64 state; the result is one of them
    assert peak <= 3 * block, f"peak {peak / block:.2f} state blocks"


@pytest.mark.parametrize("n", [8192, 2 * TILE + 37])
def test_warm_rhs_allocates_less_than_one_row(n):
    # the tile kernel works only in the workspace: what a second call with
    # the same workspace allocates does not grow with the grid
    import tracemalloc
    grid = Grid1D(n, 1.0)
    u = _random_state(n, np.random.default_rng(n))
    closure = ClosureParams(mode="fixed-lambda", lam=0.13, chi=0.5)
    work = _Workspace(n)
    first = rhs(u, MODEL, closure, grid, work=work).copy()
    tracemalloc.start()
    try:
        second = rhs(u, MODEL, closure, grid, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(second), _bits(first))
    row = 8 * n
    assert peak < row, f"peak {peak / row:.2f} rows"
