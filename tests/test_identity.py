import numpy as np
import pytest

from bifluid import (APPENDIX_IDS, ExtendedPotential, ManufacturedFields,
                     PotentialValidationError, SampleWindow,
                     appendix_term_residual, convergence_order, gibbs_residual,
                     gibbs_terms, lagrangian_quantities)

POT = ExtendedPotential.quadratic()
SIN = ManufacturedFields.sinusoidal()
WIN = SampleWindow()


def _gas_pair():
    """Perfect-gas pair e = sum rho_a cv_a 300 exp(s_a/cv_a) rho_a^(k_a/cv_a), b = 0."""
    (k1, cv1), (k2, cv2) = (1, 3 / 2), (1 / 2, 5 / 2)

    def g(r, s, k, cv):         # e_a / (rho_a cv_a) = 300 exp(s/cv) rho^(k/cv)
        return 300 * np.exp(s / cv) * r**(k / cv)

    return ExtendedPotential(
        lambda r1, r2, s1, s2: r1 * cv1 * g(r1, s1, k1, cv1) + r2 * cv2 * g(r2, s2, k2, cv2),
        0,
        (lambda r1, r2, s1, s2: (cv1 + k1) * g(r1, s1, k1, cv1),
         lambda r1, r2, s1, s2: (cv2 + k2) * g(r2, s2, k2, cv2),
         lambda r1, r2, s1, s2: r1 * g(r1, s1, k1, cv1),
         lambda r1, r2, s1, s2: r2 * g(r2, s2, k2, cv2)),
        (0, 0, 0, 0))


def _cubic():
    return ExtendedPotential(
        lambda r1, r2, s1, s2: r1**3 + r2 * s1 + np.exp(s2 / 10),
        lambda r1, r2, s1, s2: r1 * r2 / 10,
        (lambda r1, r2, s1, s2: 3 * r1**2,
         lambda r1, r2, s1, s2: s1,
         lambda r1, r2, s1, s2: r2,
         lambda r1, r2, s1, s2: np.exp(s2 / 10) / 10),
        (lambda r1, r2, s1, s2: r2 / 10, lambda r1, r2, s1, s2: r1 / 10, 0, 0))


def test_potential_partials_validate():
    POT.validate_partials()   # no raise
    _cubic().validate_partials()


def test_manufactured_periodicity():
    t = 0.3
    left = SIN.values(t, 0.125)
    right = SIN.values(t, 1.125)
    for k in left:
        assert left[k] == pytest.approx(right[k], abs=1e-12)


def test_manufactured_densities_positive():
    T, X = WIN.points()
    v = SIN.values(T, X)
    assert np.all(v["rho1"] > 0) and np.all(v["rho2"] > 0)


def test_missing_field_expression_rejected():
    with pytest.raises(ValueError):
        ManufacturedFields(rho1=1.0)


def test_non_holomorphic_field_rejected():
    # each is real on real input, but the complex step differentiates it
    # wrongly: abs and real drop the imaginary part, conj flips it, and the
    # sign of a complex z is z / |z|
    for bad in (np.abs, np.real, np.conj, np.sign):
        with pytest.raises(ValueError, match="field v1: complex-step and "
                                             "finite-difference d/dt disagree"):
            ManufacturedFields(**{**SIN.functions,
                                  "v1": lambda t, x: bad(np.sin(2 * np.pi * x - t))})
    # np.floor raises TypeError on complex input: reported as a validation error
    with pytest.raises(ValueError, match="field v1 cannot be evaluated at complex t"):
        ManufacturedFields(**{**SIN.functions,
                              "v1": lambda t, x: np.floor(t) + np.sin(2 * np.pi * x)})


def test_non_holomorphic_potential_rejected():
    # each abs below is the identity on the real sample points, so the
    # supplied partials are right there and only the complex step exposes it
    e, e_grad = POT.e, POT._e_grad
    b_grad = (lambda r1, r2, s1, s2: r2, lambda r1, r2, s1, s2: r1, 0, 0)
    with pytest.raises(PotentialValidationError, match="potential e: complex-step and "
                                                       "finite-difference d/drho1"):
        ExtendedPotential(lambda r1, r2, s1, s2: np.abs(e(r1, r2, s1, s2) + 10),
                          1.0, e_grad, (0, 0, 0, 0))
    with pytest.raises(PotentialValidationError, match="potential b: complex-step and "
                                                       "finite-difference d/drho1"):
        ExtendedPotential(e, lambda r1, r2, s1, s2: np.abs(r1 * r2), e_grad, b_grad)
    with pytest.raises(PotentialValidationError, match="partial de/ds1: complex-step and "
                                                       "finite-difference d/drho1"):
        ExtendedPotential(e, 1.0, [*e_grad[:2], lambda r1, r2, s1, s2: np.abs(r1),
                                   e_grad[3]], (0, 0, 0, 0))
    with pytest.raises(PotentialValidationError, match="potential b cannot be evaluated "
                                                       "at complex rho1"):
        ExtendedPotential(e, lambda r1, r2, s1, s2: np.floor(r1 / 10) + 1, e_grad, (0, 0, 0, 0))


def test_constant_fields_residual_exactly_zero():
    rep = gibbs_residual(ManufacturedFields.constant(), POT, WIN)
    assert rep.residual_max == 0.0


@pytest.mark.parametrize("make_potential", [ExtendedPotential.quadratic, _cubic, _gas_pair],
                         ids=["quadratic", "cubic", "gas_pair"])
def test_analytic_residual_tiny_on_sinusoidal(make_potential):
    rep = gibbs_residual(SIN, make_potential(), WIN, mode="analytic")
    assert rep.term_magnitude > 1.0
    assert rep.residual_max <= 1e-10 * rep.term_magnitude
    for name in APPENDIX_IDS:
        assert rep.per_identity[name] <= 1e-10 * rep.term_magnitude


def test_analytic_terms_match_finite_differences():
    # Every term of the identity is linear in the derivatives, so a residual
    # check alone cannot see a derivative that is off by a common factor.
    exact = gibbs_terms(SIN, POT, WIN, mode="analytic")
    fd = gibbs_terms(SIN, POT, WIN, mode="fd", h=1e-4, dt=1e-4)
    for key in ("E", "Mv", "Bterm", "S"):
        scale = np.max(np.abs(exact[key]))
        assert scale > 1.0
        assert np.max(np.abs(fd[key] - exact[key])) <= 1e-6 * scale


def test_analytic_residual_without_drift_potential():
    pot0 = ExtendedPotential(POT.e, 0, POT._e_grad, (0, 0, 0, 0))
    no_omega = ManufacturedFields(**{**SIN.functions, "Omega1": 0, "Omega2": 0})
    rep = gibbs_residual(no_omega, pot0, WIN, mode="analytic")
    assert rep.residual_max <= 1e-10 * max(rep.term_magnitude, 1.0)


def test_fd_mode_second_order():
    norms = []
    for k in range(3):
        rep = gibbs_residual(SIN, POT, WIN, mode="fd",
                             h=1e-3 * 0.5**k, dt=1e-3 * 0.5**k)
        norms.append(rep.residual_max)
    order = convergence_order(norms)
    assert abs(order - 2.0) < 0.2


def test_identity_e_reading_matters():
    res_u = appendix_term_residual("e", SIN, POT, WIN, e_time_term="u")
    res_eta = appendix_term_residual("e", SIN, POT, WIN, e_time_term="eta")
    assert res_u <= 1e-10
    # the other reading of the time term does not cancel
    assert res_eta > 1e-3


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        appendix_term_residual("z", SIN, POT, WIN)


def test_gibbs_terms_shapes():
    terms = gibbs_terms(SIN, POT, WIN)
    shape = WIN.points()[0].shape
    for key in ("E", "Mv", "Bterm", "S", "residual"):
        assert terms[key].shape == shape


def test_lagrangian_quantities_consistency():
    q = lagrangian_quantities(POT, 1.5, 2.0, 0.4, -0.3, 0.2, -0.1)
    # for the quadratic potential: eta = e - b u^2, rho_alpha T_alpha = d eta/d s_alpha
    u = -0.1 - 0.2
    assert q.f == pytest.approx(
        0.5 * (1.5**2 + 2.0**2) + 1.5 * 0.4 + 2.0 * (-0.3) + 1.0 * u**2, rel=1e-12)
    assert q.T1 == pytest.approx(1.5 / 1.5, rel=1e-12)     # d eta/d s1 / rho1
    assert q.T2 == pytest.approx(2.0 / 2.0, rel=1e-12)
    assert q.i == pytest.approx(2.0 * 1.0 * u, rel=1e-12)
    # k1 = v1 - i/rho1, k2 = v2 + i/rho2
    assert q.k1 == pytest.approx(0.2 - q.i / 1.5, rel=1e-12)
    assert q.k2 == pytest.approx(-0.1 + q.i / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        lagrangian_quantities(POT, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0)


# the largest relative difference allowed between the identity's T_a, -R_a
# and thermo's, a few ulp: the two evaluate exp(s/cv) rho^(k/cv) by
# different formulas
THERMO_RTOL = 2e-15


def test_gas_pair_potential_matches_the_solver_thermodynamics():
    # at v = Omega = 0 the identity's T_a = (d eta/d s_a) / rho_a and
    # R_a = -d eta/d rho_a are the solver's temperature and minus its enthalpy
    from bifluid import GasPairModel, enthalpy, temperature_from_entropy
    model = GasPairModel(k1=1, k2=0.5, cv1=1.5, cv2=2.5)
    pot = _gas_pair()
    rng = np.random.default_rng(7)
    lo, hi = (0.6, 0.6, -0.8, -0.8), (2.0, 2.0, 0.8, 0.8)     # validate_partials' box
    worst_T = worst_h = 0.0
    for rho1, rho2, s1, s2 in rng.uniform(lo, hi, (200, 4)):
        q = lagrangian_quantities(pot, rho1, rho2, s1, s2, 0.0, 0.0)
        for alpha, rho, s, T_id, R in ((1, rho1, s1, q.T1, q.R1), (2, rho2, s2, q.T2, q.R2)):
            T = temperature_from_entropy(model, alpha, rho, s)
            worst_T = max(worst_T, abs(T_id / T - 1.0))
            worst_h = max(worst_h, abs(-R / enthalpy(model, alpha, T) - 1.0))
    assert worst_T <= THERMO_RTOL and worst_h <= THERMO_RTOL, (worst_T, worst_h)


def test_large_valued_inputs_are_accepted():
    # an added constant changes no derivative, but makes the central
    # difference's round-off (about eps |f| / h) larger than PARTIALS_RTOL |f'|
    ManufacturedFields(**{**SIN.functions,
                          "rho1": lambda t, x: 1e4 + np.sin(2 * np.pi * x - t)})
    e, e_grad = POT.e, POT._e_grad
    ExtendedPotential(lambda r1, r2, s1, s2: e(r1, r2, s1, s2) + 1e4, 1.0, e_grad, (0, 0, 0, 0))
    # the complex step against a supplied partial gets no round-off allowance
    off = [lambda r1, r2, s1, s2: (1 + 1e-5) * e_grad[0](r1, r2, s1, s2), *e_grad[1:]]
    with pytest.raises(PotentialValidationError, match="potential e: complex-step and "
                                                       "supplied d/drho1"):
        ExtendedPotential(lambda r1, r2, s1, s2: e(r1, r2, s1, s2) + 1e4, 1.0, off, (0, 0, 0, 0))


def test_values_too_large_to_check_are_rejected():
    # at 1e10 the central difference's round-off (FD_ROUNDOFF eps |f| / h,
    # about 9) exceeds |d/dx| <= 2 pi, so it cannot tell abs's complex step
    # (which differentiates it wrongly, to 0) from the true derivative
    def offset(c, f):
        return ManufacturedFields(**{**SIN.functions, "v1": lambda t, x: c + f(2 * np.pi * x - t)})
    with pytest.raises(ValueError, match="field v1: d/dt cannot be checked"):
        offset(1e10, lambda y: np.abs(np.sin(y)))
    with pytest.raises(ValueError, match="field v1: complex-step and finite-difference "
                                         "d/dt disagree"):
        offset(1e9, lambda y: np.abs(np.sin(y)))
    # a holomorphic field that large cannot be checked either
    with pytest.raises(ValueError, match="field v1: d/dt cannot be checked"):
        offset(1e10, np.sin)
    # a large constant has zero derivative, which the central difference gets exactly
    ManufacturedFields(**{**SIN.functions, "v1": 1e10})


def test_convergence_order_helper():
    assert convergence_order([1.0, 0.25, 0.0625]) == pytest.approx(2.0, abs=1e-12)
    assert convergence_order([1.0, 0.0]) == np.inf
    with pytest.raises(ValueError):
        convergence_order([-1.0, 0.5])
    for bad in ([], [1.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            convergence_order(bad)


def test_bad_potential_partials_detected(monkeypatch):
    pot = ExtendedPotential.quadratic()
    # corrupt one analytic partial and re-validate
    pot._e_grad[0] = lambda *a: np.asarray(a[0]) * 0 + 99.0
    with pytest.raises(PotentialValidationError):
        pot.validate_partials()
