import numpy as np
import pytest

from bifluid import (AverageTempResult, GasPairModel, average_temperature,
                     average_temperature_field, beta_split,
                     dynamical_pressure_from_state, lambda_coefficient,
                     linearized_constraint_residual)

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)


def test_canonical_average_temperature():
    res = average_temperature(MODEL, 1.0, 2.0, 300.0, 320.0)
    # (1*1.5*300 + 2*2.5*320) / (1*1.5 + 2*2.5) = 2050 / 6.5
    assert res.T == pytest.approx(2050.0 / 6.5, rel=1e-12)
    assert res.theta1 == pytest.approx(300.0 - 2050.0 / 6.5, rel=1e-10)
    assert res.theta2 == pytest.approx(320.0 - 2050.0 / 6.5, rel=1e-10)


def test_implicit_energy_matching():
    rng = np.random.default_rng(5)
    for _ in range(300):
        rho1, rho2 = rng.uniform(0.1, 5.0, 2)
        T1, T2 = rng.uniform(50.0, 900.0, 2)
        res = average_temperature(MODEL, rho1, rho2, T1, T2)
        lhs = rho1 * MODEL.cv1 * res.T + rho2 * MODEL.cv2 * res.T
        rhs = rho1 * MODEL.cv1 * T1 + rho2 * MODEL.cv2 * T2
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
        assert min(T1, T2) <= res.T <= max(T1, T2)

    rho1, rho2 = rng.uniform(0.1, 5.0, (2, 1000))
    T1, T2 = rng.uniform(50.0, 900.0, (2, 1000))
    T = average_temperature_field(MODEL, rho1, rho2, T1, T2)
    lhs = rho1 * MODEL.cv1 * T + rho2 * MODEL.cv2 * T
    rhs = rho1 * MODEL.cv1 * T1 + rho2 * MODEL.cv2 * T2
    assert np.all(np.abs(lhs - rhs) <= 1e-11 * np.abs(rhs))
    assert np.all((np.minimum(T1, T2) <= T) & (T <= np.maximum(T1, T2)))


def test_equal_temperatures_short_circuit():
    res = average_temperature(MODEL, 1.0, 2.0, 310.0, 310.0)
    assert res.T == 310.0
    assert res.iterations == 0
    assert res.residual == 0.0

    T1 = np.array([50.0, 310.0, 899.5])
    T = average_temperature_field(MODEL, np.array([0.1, 1.0, 5.0]),
                                  np.array([5.0, 2.0, 0.1]), T1, T1.copy())
    assert np.array_equal(T, T1)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        average_temperature(MODEL, -1.0, 2.0, 300.0, 320.0)
    with pytest.raises(ValueError):
        average_temperature(MODEL, 1.0, 2.0, 0.0, 320.0)


def test_field_matches_scalar():
    rng = np.random.default_rng(9)
    rho1 = rng.uniform(0.2, 4.0, 64)
    rho2 = rng.uniform(0.2, 4.0, 64)
    T1 = rng.uniform(100.0, 500.0, 64)
    T2 = rng.uniform(100.0, 500.0, 64)
    T = average_temperature_field(MODEL, rho1, rho2, T1, T2)
    scalar = np.array([average_temperature(MODEL, *args).T
                       for args in zip(rho1, rho2, T1, T2)])
    assert np.array_equal(T, scalar)


def test_scalar_and_array_inputs_keep_their_type():
    # The sweep evaluates one point at a time: floats must stay Python floats.
    args = (1.0, 2.0, 300.0, 320.0)
    assert type(average_temperature_field(MODEL, *args)) is float
    assert type(dynamical_pressure_from_state(MODEL, *args)) is float
    assert type(lambda_coefficient(MODEL, 1.0, 2.0, 1.0)) is float
    arrays = [np.full((3, 4), v) for v in args]
    assert average_temperature_field(MODEL, *arrays).shape == (3, 4)
    assert dynamical_pressure_from_state(MODEL, *arrays).shape == (3, 4)
    assert lambda_coefficient(MODEL, arrays[0], arrays[1], 1.0).shape == (3, 4)


@pytest.mark.parametrize("rho1, rho2, T1, T2", [
    (np.array([1.0]), np.array([2.0]), np.array([300.0, 310.0]), np.array([320.0, 330.0])),
    (np.array(1.0), np.array(2.0), np.array([300.0, 310.0]), np.array([320.0, 330.0])),
    (np.array([1.0, 1.5]), np.array([2.0, 0.5]), 300.0, 320.0),
    (1.0, 2.0, 300.0, np.array([320.0, 290.0])),
], ids=["(1,)-densities", "0-d-densities", "scalar-temperatures", "one-array-temperature"])
def test_field_broadcasts_without_writing_its_inputs(rho1, rho2, T1, T2):
    inputs = (rho1, rho2, T1, T2)
    before = [np.array(x, copy=True) for x in inputs]
    c1, c2 = rho1 * MODEL.cv1, rho2 * MODEL.cv2
    expected = T1 + c2 / (c1 + c2) * (T2 - T1)
    T = average_temperature_field(MODEL, *inputs)
    assert np.shape(T) == np.shape(expected) == (2,)
    assert np.array_equal(np.asarray(T).view(np.uint64), np.asarray(expected).view(np.uint64))
    p = MODEL.k1 * rho1 * T1 + MODEL.k2 * rho2 * T2
    pi = dynamical_pressure_from_state(MODEL, *inputs)
    assert np.array_equal(pi, p - (MODEL.k1 * rho1 + MODEL.k2 * rho2) * expected)
    for x, old in zip(inputs, before):
        assert np.array_equal(np.asarray(x), old)


def test_linearized_constraint():
    res = average_temperature(MODEL, 1.0, 2.0, 300.0, 320.0)
    resid = linearized_constraint_residual(MODEL, 1.0, 2.0, res)
    # rho1 cv1 Theta1 + rho2 cv2 Theta2 vanishes for constant specific heats
    assert abs(resid) < 1e-9 * (1.0 * MODEL.cv1 + 2.0 * MODEL.cv2) * 320.0


def test_beta_canonical_and_pi_consistency():
    beta = beta_split(MODEL, 1.0, 2.0)
    assert beta == pytest.approx(-5.0 / 6.5, rel=1e-12)
    # T1 = T + beta Theta, T2 = T + (1 + beta) Theta reconstructs the state
    res = average_temperature(MODEL, 1.0, 2.0, 300.0, 320.0)
    theta = 320.0 - 300.0
    assert res.T + beta * theta == pytest.approx(300.0, rel=1e-12)
    assert res.T + (1 + beta) * theta == pytest.approx(320.0, rel=1e-12)


def test_beta_validation():
    with pytest.raises(ValueError):
        beta_split(MODEL, 0.0, 1.0)
