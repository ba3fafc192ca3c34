"""Known defects of the solver, each as the gate of its fix, expected to fail.

Each test asserts what the fix of one ROADMAP item must achieve, and is
marked ``xfail(strict=True)``: it fails today, and its failure message
prints the measured value.  A change that makes one pass (an XPASS) fails
the suite, so the change that fixes a defect removes its marker, and one
that moves a defect by accident finds out at once.
"""

import numpy as np
import pytest

import bifluid as bf

MODEL = bf.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)


def _scenario(n, dt, t_end, closure, v_amp=0.002, rho_amp=(0.01, 0.02), stride=None):
    """Criterion 6's background: rho = (1, 2) and T1 = T2 = 300 K, with one mode
    of amplitude rho_amp in the densities and v_amp in both velocities."""
    s1 = float(bf.entropy_from_temperature(MODEL, 1, 1.0, 300.0))
    s2 = float(bf.entropy_from_temperature(MODEL, 2, 2.0, 300.0))
    init = bf.InitialConditions(
        rho1=bf.FieldInit(1.0, rho_amp[0]), rho2=bf.FieldInit(2.0, rho_amp[1]),
        v1=bf.FieldInit(0.0, v_amp), v2=bf.FieldInit(0.0, v_amp),
        s1=bf.FieldInit(s1), s2=bf.FieldInit(s2))
    return bf.Scenario(bf.Grid1D(n, 1.0), MODEL, closure, init, dt=dt, t_end=t_end,
                       stride=stride or round(t_end / dt))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the drag is explicit inside rhs, "
                                       "so a stiff chi aborts instead of relaxing")
def test_stiff_drag_runs_to_t_end():
    sc = _scenario(32, 1e-4, 0.01, bf.ClosureParams(chi=2e4))
    try:
        rows = bf.integrate(sc)
    except bf.SolverError as exc:
        pytest.fail(f"chi = 2e4 did not run to t_end: {exc}")
    assert rows[-1].t == pytest.approx(sc.t_end)


def _max_gap(dt):
    """max |Theta| over every step from T1 = T2 under fixed-lambda 0.13, n = 128."""
    sc = _scenario(128, dt, 0.02, bf.ClosureParams(mode="fixed-lambda", lam=0.13), stride=1)
    return max(float(np.max(np.abs(p.diag.theta_field))) for p in bf.trajectory(sc))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the 1/Theta exchange does not "
                                       "converge as dt halves from T1 = T2 with Lambda > 0")
def test_temperature_gap_from_equal_temperatures_converges_in_dt():
    coarse, fine = _max_gap(1e-4), _max_gap(5e-5)
    assert fine <= 2.0 * coarse, (
        f"max |Theta| = {fine:.4g} K at dt = 5e-5, more than twice {coarse:.4g} K at dt = 1e-4")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18A: a shock forms and the solver "
                                       "runs on, converging to wrong jump conditions")
def test_steepening_wave_is_refused():
    # Lambda = chi = 0, v1 = v2 = 6 sin(2 pi x): the wave breaks before t = 0.06
    n = 128
    dt = 0.3 / n / 35.0
    sc = _scenario(n, dt, 0.06, bf.ClosureParams(), v_amp=6.0, rho_amp=(0.0, 0.0))
    try:
        rows = bf.integrate(sc)
    except bf.SolverError:
        return
    e0, e1 = rows[0].diag.total_energy, rows[-1].diag.total_energy
    pytest.fail(f"ran through the shock to t = {rows[-1].t:g} with dE/E = {e1 / e0 - 1:.3e}")
