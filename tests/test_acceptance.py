"""Acceptance suite: eight numbered criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; each criterion is also a hard assertion.
"""

import numpy as np

import bifluid as bf
from bifluid.cli import main as cli_main

MODEL = bf.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_gibbs_identity_analytic():
    fields = bf.ManufacturedFields.sinusoidal()
    pot = bf.ExtendedPotential.quadratic()
    win = bf.SampleWindow()
    rep = bf.gibbs_residual(fields, pot, win, mode="analytic")
    ok = rep.residual_max <= 1e-10 * rep.term_magnitude

    pot0 = bf.ExtendedPotential(pot.e, 0, pot._e_grad, (0, 0, 0, 0))
    no_omega = bf.ManufacturedFields(**{**fields.functions, "Omega1": 0, "Omega2": 0})
    rep0 = bf.gibbs_residual(no_omega, pot0, win, mode="analytic")
    ok0 = rep0.residual_max <= 1e-10 * max(rep0.term_magnitude, 1.0)
    _report(1, "Gibbs identity analytic mode", ok and ok0,
            f"(residual {rep.residual_max:.3e} vs scale {rep.term_magnitude:.3e}; "
            f"b=0, Omega=0 residual {rep0.residual_max:.3e})")


def test_criterion_2_gibbs_identity_fd_and_sub_identities():
    fields = bf.ManufacturedFields.sinusoidal()
    pot = bf.ExtendedPotential.quadratic()
    win = bf.SampleWindow()
    norms = [bf.gibbs_residual(fields, pot, win, mode="fd",
                               h=1e-3 * 0.5**k, dt=1e-3 * 0.5**k).residual_max
             for k in range(3)]
    order = bf.convergence_order(norms)
    rep = bf.gibbs_residual(fields, pot, win, mode="analytic")
    sub_ok = all(rep.per_identity[i] <= 1e-10 * rep.term_magnitude
                 for i in bf.APPENDIX_IDS)
    ok = abs(order - 2.0) <= 0.2 and sub_ok
    _report(2, "Gibbs identity FD convergence + sub-identities a-e", ok,
            f"(order {order:.3f}; worst sub-identity "
            f"{max(rep.per_identity.values()):.3e})")


def test_criterion_3_closure_algebra_canonical():
    rho1, rho2, T1, T2 = 1.0, 2.0, 300.0, 320.0
    theta = T2 - T1
    # brute-force evaluation of the printed formulas, written out inline
    den = rho1 * MODEL.cv1 + rho2 * MODEL.cv2
    T_ref = (rho1 * MODEL.cv1 * T1 + rho2 * MODEL.cv2 * T2) / den
    beta_ref = -rho2 * MODEL.cv2 / den
    pi_ref = rho1 * rho2 * (MODEL.k2 * MODEL.cv1 - MODEL.k1 * MODEL.cv2) * theta / den
    L_T = 1.0 * (rho1 * MODEL.cv1 / (rho2 * MODEL.cv2)) * den
    lam_ref = -(pi_ref / theta) * L_T * (MODEL.gamma1 - MODEL.gamma2)
    theta_c_ref = L_T * (MODEL.gamma1 - MODEL.gamma2) * 0.5

    T = bf.average_temperature(MODEL, rho1, rho2, T1, T2).T
    beta = bf.beta_split(MODEL, rho1, rho2)
    pi = bf.dynamical_pressure_from_state(MODEL, rho1, rho2, T1, T2)
    lam = bf.lambda_coefficient(MODEL, rho1, rho2, 1.0)
    theta_c = bf.theta_constitutive(MODEL, rho1, rho2, 1.0, 0.5)

    checks = {
        "T": (T, T_ref), "beta": (beta, beta_ref), "pi": (float(pi), pi_ref),
        "lambda": (lam, lam_ref), "theta_c": (theta_c, theta_c_ref),
        "T-value": (T, 2050.0 / 6.5), "lambda-value": (lam, 0.49),
        "theta-value": (theta_c, 0.455), "pi-value": (float(pi), -70.0 / 6.5),
        "beta-value": (beta, -5.0 / 6.5),
    }
    worst = max(abs(a - b) / abs(b) for a, b in checks.values())
    pi_of_theta = bf.dynamical_pressure_perfect_gas(MODEL, rho1, rho2, theta_c)
    tri = abs(pi_of_theta - (-lam * 0.5)) / abs(lam * 0.5)
    ok = worst <= 1e-9 and tri <= 1e-12
    _report(3, "closure algebra canonical case", ok,
            f"(worst rel err {worst:.3e}; triangle {tri:.3e})")


def test_criterion_4_closure_properties_random():
    rng = np.random.default_rng(42)
    n = 10_000
    rho1 = rng.uniform(0.1, 5.0, n)
    rho2 = rng.uniform(0.1, 5.0, n)
    T1 = rng.uniform(50.0, 900.0, n)
    T2 = rng.uniform(50.0, 900.0, n)
    T = (rho1 * MODEL.cv1 * T1 + rho2 * MODEL.cv2 * T2) / (rho1 * MODEL.cv1 + rho2 * MODEL.cv2)
    lam = rng.uniform(0.0, 3.0, n)
    divv = rng.uniform(-3.0, 3.0, n)
    src = bf.entropy_sources(MODEL, rho1, rho2, T1, T2, T, lam, divv, 3e-6)
    q_scale = np.max(np.abs(src.q1)) or 1.0
    q_ok = np.max(np.abs(src.q1 + src.q2)) <= 1e-12 * q_scale
    prod_ok = np.all(src.production >= 0.0)

    lam_ok = True
    for _ in range(10_000 // 25):
        m = bf.GasPairModel(*rng.uniform(0.1, 5.0, 4))
        vals = bf.lambda_coefficient(m, rng.uniform(0.1, 5.0, 25),
                                     rng.uniform(0.1, 5.0, 25),
                                     float(rng.uniform(0.0, 3.0)))
        lam_ok = lam_ok and np.all(vals >= 0.0)

    Teq = rng.uniform(50.0, 900.0, 1000)
    req1 = rng.uniform(0.1, 5.0, 1000)
    req2 = rng.uniform(0.1, 5.0, 1000)
    pi = bf.dynamical_pressure_from_state(MODEL, req1, req2, Teq, Teq)
    p_scale = (MODEL.k1 * req1 + MODEL.k2 * req2) * Teq
    pi_ok = np.max(np.abs(pi) / p_scale) <= 1e-12
    ok = q_ok and prod_ok and lam_ok and pi_ok
    _report(4, "closure properties on random states", ok,
            f"(Q-cancel {q_ok}, production sign {prod_ok}, "
            f"Lambda>=0 {lam_ok}, pi(T1=T2)=0 {pi_ok})")


def test_criterion_5_thermodynamic_consistency():
    rng = np.random.default_rng(1001)
    n = 1000
    rho1 = rng.uniform(0.2, 4.0, n)
    rho2 = rng.uniform(0.2, 4.0, n)
    s1 = rng.uniform(-0.8, 1.6, n)
    s2 = rng.uniform(-0.8, 1.6, n)
    pt = bf.thermo_eval(MODEL, rho1, rho2, s1, s2)

    def e_of(r1, r2, a, b):
        return bf.thermo_eval(MODEL, r1, r2, a, b).e

    h = 1e-6
    worst = 0.0
    for ds, target in (((h, 0.0), rho1 * pt.T1), ((0.0, h), rho2 * pt.T2)):
        fd = (e_of(rho1, rho2, s1 + ds[0], s2 + ds[1])
              - e_of(rho1, rho2, s1 - ds[0], s2 - ds[1])) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - target) / np.abs(target))))
    for dr, target in ((1, pt.h1), (2, pt.h2)):
        step = 1e-6 * (rho1 if dr == 1 else rho2)
        up = (rho1 + step, rho2) if dr == 1 else (rho1, rho2 + step)
        dn = (rho1 - step, rho2) if dr == 1 else (rho1, rho2 - step)
        fd = (e_of(*up, s1, s2) - e_of(*dn, s1, s2)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(fd - target) / np.abs(target))))
    p_gap = float(np.max(np.abs(pt.p_stress1 + pt.p_stress2 - pt.p) / np.abs(pt.p)))
    ok = worst <= 1e-6 and p_gap <= 1e-10
    _report(5, "thermodynamic derivative consistency", ok,
            f"(worst FD rel err {worst:.3e}; pressure-route gap {p_gap:.3e})")


def _acoustic_scenario(n, dt, lam=0.0, s2_T=300.0, t_end=None, stride=100):
    s1 = float(bf.entropy_from_temperature(MODEL, 1, 1.0, 300.0))
    s2 = float(bf.entropy_from_temperature(MODEL, 2, 2.0, s2_T))
    init = bf.InitialConditions(
        rho1=bf.FieldInit(1.0, 0.01), rho2=bf.FieldInit(2.0, 0.02),
        v1=bf.FieldInit(0.0, 0.002), v2=bf.FieldInit(0.0, 0.002),
        s1=bf.FieldInit(s1), s2=bf.FieldInit(s2))
    closure = bf.ClosureParams(mode="fixed-lambda", lam=lam)
    return bf.Scenario(bf.Grid1D(n, 1.0), MODEL, closure, init, dt=dt,
                       t_end=t_end if t_end is not None else 1000 * dt,
                       stride=stride)


def test_criterion_6_solver_conservation():
    rows = bf.integrate(_acoustic_scenario(128, 1e-4))   # 1000 steps
    d0, dN = rows[0].diag, rows[-1].diag
    mass_drift = max(abs(dN.total_mass1 - d0.total_mass1) / d0.total_mass1,
                     abs(dN.total_mass2 - d0.total_mass2) / d0.total_mass2)
    mass_ok = mass_drift <= 1e-13

    S = np.array([r.diag.total_entropy for r in rows])
    ent_const_ok = np.max(np.abs(S - S[0])) <= 1e-12 * max(abs(S[0]), 1.0)

    def drifts(n, dt):
        rr = bf.integrate(_acoustic_scenario(n, dt, t_end=0.05, stride=1000))
        a, b = rr[0].diag, rr[-1].diag
        return (abs(b.total_momentum - a.total_momentum) + 1e-300,
                abs(b.total_energy - a.total_energy) / a.total_energy)

    mom_c, en_c = drifts(128, 1e-4)
    mom_f, en_f = drifts(256, 5e-5)
    mom_order = np.log2(mom_c / mom_f)
    en_order = np.log2(en_c / en_f)
    order_ok = mom_order >= 1.0 and en_order >= 1.0

    rows_l = bf.integrate(_acoustic_scenario(128, 1e-4, lam=0.13, s2_T=320.0,
                                             stride=10))
    SL = np.array([r.diag.total_entropy for r in rows_l])
    mono_ok = np.all(np.diff(SL) >= -1e-12 * abs(SL[0]))
    ok = mass_ok and ent_const_ok and order_ok and mono_ok
    _report(6, "solver conservation and entropy", ok,
            f"(mass drift {mass_drift:.2e}; momentum order {mom_order:.2f}; "
            f"energy order {en_order:.2f}; entropy const {ent_const_ok}; "
            f"monotone {mono_ok})")


def test_criterion_7_fick_and_production_diagnostics():
    chi = 0.8
    errs = []
    for n in (32, 64, 128, 256):
        grid = bf.Grid1D(n, 1.0)
        x = grid.cell_centers()
        rho1 = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        rho2 = 2.0 + 0.3 * np.cos(2 * np.pi * x)
        mu = 0.5 * np.sin(2 * np.pi * x)
        kappa = (rho1 + rho2) * chi / (rho1 * rho2)
        u = -(np.pi * np.cos(2 * np.pi * x)) / kappa
        errs.append(bf.fick_residual(mu, u, rho1, rho2, chi, grid))
    order = bf.convergence_order(errs)
    rng = np.random.default_rng(7)
    u = rng.uniform(-5.0, 5.0, 10_000)
    chis = rng.uniform(0.0, 4.0, 10_000)
    mu_ok = np.all((-chis * u) * u <= 0.0)
    ok = abs(order - 2.0) <= 0.2 and mu_ok
    _report(7, "Fick residual convergence and drag-power sign", ok,
            f"(order {order:.3f}; m*u<=0 {mu_ok})")


def test_criterion_8_end_to_end_determinism(tmp_path):
    cfg_text = """\
[grid]
n = 48
length = 1.0
[gas1]
k = 1.0
cv = 1.5
[gas2]
k = 0.5
cv = 2.5
[closure]
mode = fixed-lambda
lambda = 0.13
[time]
dt = 1e-4
t_end = 0.005
[init]
rho1_bg = 1.0
rho1_amp = 0.01
rho2_bg = 2.0
rho2_amp = 0.02
v1_bg = 0.0
v2_bg = 0.0
s1_bg = 0.0
s2_bg = 0.1
[output]
stride = 10
[sweep]
theta_min = -20
theta_max = 20
theta_count = 5
rho1_min = 0.5
rho1_max = 2.0
rho1_count = 2
rho2_min = 0.5
rho2_max = 2.0
rho2_count = 2
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s1")]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s2")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w1.csv")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w2.csv")]) == 0
    sim_ok = all((tmp_path / "s1" / f).read_bytes() == (tmp_path / "s2" / f).read_bytes()
                 for f in ("snapshots.csv", "diagnostics.csv"))
    sweep_ok = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    ok = sim_ok and sweep_ok
    _report(8, "end-to-end determinism (byte-identical reruns)", ok,
            f"(simulate {sim_ok}, sweep {sweep_ok})")
