import numpy as np
import pytest

from bifluid import (ClosureParams, GasPairModel, Grid1D, beta_split,
                     dynamical_pressure_from_state,
                     dynamical_pressure_perfect_gas, entropy_production_sigma,
                     entropy_sources, fick_residual, lambda_coefficient,
                     momentum_production, relaxation_length,
                     theta_constitutive)

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
RHO1, RHO2, T1, T2 = 1.0, 2.0, 300.0, 320.0
T_AVG = 2050.0 / 6.5


def test_params_validation():
    with pytest.raises(ValueError):
        ClosureParams(mode="bogus")
    with pytest.raises(ValueError):
        ClosureParams(lam=-1.0)
    with pytest.raises(ValueError):
        ClosureParams(M=-0.1)
    with pytest.raises(ValueError):
        ClosureParams(chi=-0.1)
    with pytest.raises(ValueError):
        ClosureParams(epsilon_T=0.0)


def test_exchange_lambda_dispatch():
    fixed = ClosureParams(mode="fixed-lambda", lam=0.7)
    assert fixed.exchange_lambda(MODEL, RHO1, RHO2) == 0.7
    relax = ClosureParams(mode="relaxation-M", M=1.0)
    assert relax.exchange_lambda(MODEL, RHO1, RHO2) == pytest.approx(0.49, rel=1e-12)


def test_canonical_pi_both_routes():
    pi_state = dynamical_pressure_from_state(MODEL, RHO1, RHO2, T1, T2)
    pi_formula = dynamical_pressure_perfect_gas(MODEL, RHO1, RHO2, T2 - T1)
    # rho1 rho2 (k2 cv1 - k1 cv2) Theta / (rho1 cv1 + rho2 cv2) = -70/6.5
    assert pi_formula == pytest.approx(-70.0 / 6.5, rel=1e-12)
    assert pi_state == pytest.approx(pi_formula, rel=1e-9)


def test_pi_zero_at_equal_temperatures():
    pi = dynamical_pressure_from_state(MODEL, RHO1, RHO2, 310.0, 310.0)
    p_scale = MODEL.k1 * RHO1 * 310.0 + MODEL.k2 * RHO2 * 310.0
    assert abs(pi) < 1e-12 * p_scale


def test_pi_odd_in_theta():
    for theta in (1.0, 5.0, 17.5):
        plus = dynamical_pressure_perfect_gas(MODEL, RHO1, RHO2, theta)
        minus = dynamical_pressure_perfect_gas(MODEL, RHO1, RHO2, -theta)
        assert plus == pytest.approx(-minus, rel=1e-14)


def test_identical_gases_give_zero_pi():
    same = GasPairModel(k1=1.0, k2=1.0, cv1=1.5, cv2=1.5)
    assert dynamical_pressure_perfect_gas(same, RHO1, RHO2, 25.0) == 0.0


def test_relaxation_quantities_canonical():
    # L_T = M (rho1 cv1 / rho2 cv2)(rho1 cv1 + rho2 cv2) = 1 * 0.3 * 6.5
    assert relaxation_length(MODEL, RHO1, RHO2, 1.0) == pytest.approx(1.95, rel=1e-12)
    theta = theta_constitutive(MODEL, RHO1, RHO2, 1.0, 0.5)
    assert theta == pytest.approx(0.455, rel=1e-12)
    lam = lambda_coefficient(MODEL, RHO1, RHO2, 1.0)
    assert lam == pytest.approx(0.49, rel=1e-12)


def test_consistency_triangle():
    # pi(theta_constitutive) must equal -Lambda div v
    divv = 0.5
    theta = theta_constitutive(MODEL, RHO1, RHO2, 1.0, divv)
    lam = lambda_coefficient(MODEL, RHO1, RHO2, 1.0)
    pi = dynamical_pressure_perfect_gas(MODEL, RHO1, RHO2, theta)
    assert pi == pytest.approx(-lam * divv, rel=1e-12)


def test_lambda_nonnegative_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = GasPairModel(*rng.uniform(0.1, 5.0, 4))
        assert lambda_coefficient(m, *rng.uniform(0.1, 5.0, 2), rng.uniform(0.0, 3.0)) >= 0.0


def test_entropy_sources_canonical():
    src = entropy_sources(MODEL, RHO1, RHO2, T1, T2, T_AVG, 0.13, 0.5, 3e-6)
    g = 0.13 * 0.25 * T1 * T2 / (T_AVG * (T2 - T1))
    assert float(src.sdot1) == pytest.approx(g / (RHO1 * T1), rel=1e-12)
    assert float(src.sdot2) == pytest.approx(-g / (RHO2 * T2), rel=1e-12)
    assert float(src.sdot1) == pytest.approx(1.64878e-3, rel=1e-4)
    assert float(src.sdot2) == pytest.approx(-7.72866e-4, rel=1e-4)


def test_entropy_sources_invariants_random():
    rng = np.random.default_rng(23)
    n = 2000
    rho1 = rng.uniform(0.1, 5.0, n)
    rho2 = rng.uniform(0.1, 5.0, n)
    T1r = rng.uniform(50.0, 900.0, n)
    T2r = rng.uniform(50.0, 900.0, n)
    T = (rho1 * MODEL.cv1 * T1r + rho2 * MODEL.cv2 * T2r) / (rho1 * MODEL.cv1 + rho2 * MODEL.cv2)
    lam = rng.uniform(0.0, 2.0, n)
    divv = rng.uniform(-3.0, 3.0, n)
    src = entropy_sources(MODEL, rho1, rho2, T1r, T2r, T, lam, divv, 3e-6)
    # heat exchanges cancel exactly
    assert np.max(np.abs(src.q1 + src.q2)) == 0.0
    # total production (Lambda / T)(div v)^2 >= 0 in exact sign
    assert np.all(src.production >= 0.0)
    expected = lam / T * divv**2
    scale = np.maximum(expected, 1e-300)
    assert np.max(np.abs(src.production - expected) / scale) < 1e-10


def test_entropy_production_computed_on_access():
    rng = np.random.default_rng(5)
    rho1, rho2 = rng.uniform(0.1, 5.0, (2, 64))
    T1r, T2r = rng.uniform(50.0, 900.0, (2, 64))
    T = (rho1 * MODEL.cv1 * T1r + rho2 * MODEL.cv2 * T2r) / (rho1 * MODEL.cv1 + rho2 * MODEL.cv2)
    src = entropy_sources(MODEL, rho1, rho2, T1r, T2r, T, 0.13, rng.uniform(-3.0, 3.0, 64), 3e-6)
    # bitwise the value entropy_sources used to store
    assert np.array_equal(src.production, rho1 * src.sdot1 + rho2 * src.sdot2)
    with pytest.raises(AttributeError):
        src.production = np.zeros(64)


@pytest.mark.parametrize("check", [
    lambda r1, r2: beta_split(MODEL, r1, r2),
    lambda r1, r2: dynamical_pressure_perfect_gas(MODEL, r1, r2, 20.0),
], ids=["beta_split", "dynamical_pressure_perfect_gas"])
def test_density_checks(check):
    bad = [(0.0, 2.0), (1.0, -2.0), (np.array(0.0), 2.0), (1.0, np.array(-1e-300)),
           (np.array([1.0, 0.0]), 2.0), (1.0, np.array([2.0, -1.0, 3.0])),
           (np.array([1.0, np.nan]), np.array([2.0, 0.0]))]
    for rho1, rho2 in bad:
        with pytest.raises(ValueError, match="densities must be positive"):
            check(rho1, rho2)
    # <= is False for NaN, so NaN densities pass the check and propagate
    for rho1, rho2 in ((np.nan, 2.0), (1.0, np.nan), (np.array([1.0, np.nan]), 2.0),
                       (np.array(np.nan), np.array(np.nan))):
        assert np.isnan(check(rho1, rho2)).any()
    assert np.shape(check(np.array([1.0, 2.0]), np.array([[2.0], [3.0]]))) == (2, 2)
    assert type(check(1.0, 2.0)) is float


def test_entropy_sources_regularization():
    # gap below epsilon_T: denominator clipped, sign(0) = +1
    src = entropy_sources(MODEL, RHO1, RHO2, 300.0, 300.0, 300.0, 0.5, 1.0, 1e-4)
    g = 0.5 * 1.0 * 300.0 * 300.0 / (300.0 * 1e-4)
    assert float(src.q1) == pytest.approx(g, rel=1e-12)
    assert bool(src.regularized)
    below = entropy_sources(MODEL, RHO1, RHO2, 300.0, 300.0 - 5e-5, 300.0, 0.5, 1.0, 1e-4)
    assert float(below.q1) == pytest.approx(-g, rel=1e-2)
    # zero Lambda: no sources, not flagged
    quiet = entropy_sources(MODEL, RHO1, RHO2, 300.0, 300.0, 300.0, 0.0, 1.0, 1e-4)
    assert not bool(quiet.regularized)


def test_momentum_production_sign():
    assert momentum_production(2.0, 1.5) == -3.0
    u = np.array([-1.0, 0.0, 2.0])
    m = momentum_production(0.5, u)
    assert np.all(m * u <= 0.0)
    with pytest.raises(ValueError):
        momentum_production(-1.0, 1.0)


def test_sigma_nonpositive_for_constitutive_fluxes():
    rng = np.random.default_rng(31)
    n = 500
    T = rng.uniform(50.0, 900.0, n)
    gradT = rng.uniform(-10.0, 10.0, n)
    divv = rng.uniform(-3.0, 3.0, n)
    u = rng.uniform(-2.0, 2.0, n)
    D1 = rng.uniform(-3.0, 3.0, n)
    D2 = rng.uniform(-3.0, 3.0, n)
    lam = rng.uniform(0.0, 2.0, n)
    kap = rng.uniform(0.0, 2.0, n)
    chi = rng.uniform(0.0, 2.0, n)
    mu_v = rng.uniform(0.0, 2.0, n)
    sigma = entropy_production_sigma(
        gradT=gradT, q=-kap * gradT, m=-chi * u, u=u,
        sigma_d1=mu_v * D1, sigma_d2=mu_v * D2, D1=D1, D2=D2,
        p=-lam * divv, p0=np.zeros(n), divv=divv, T=T)
    assert np.all(sigma <= 1e-14)


def test_fick_residual_second_order():
    chi = 0.8
    errs = []
    for n in (64, 128, 256):
        grid = Grid1D(n, 1.0)
        x = grid.cell_centers()
        rho1 = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        rho2 = 2.0 + 0.3 * np.cos(2 * np.pi * x)
        mu = 0.5 * np.sin(2 * np.pi * x)
        kappa = (rho1 + rho2) * chi / (rho1 * rho2)
        # manufactured u consistent with the Fick law at the continuum level
        u = -(np.pi * np.cos(2 * np.pi * x)) / kappa
        errs.append(fick_residual(mu, u, rho1, rho2, chi, grid))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)
