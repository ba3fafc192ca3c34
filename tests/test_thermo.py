import numpy as np
import pytest

from bifluid import (GasPairModel, entropy_from_temperature, internal_energy_volume,
                     sound_speed, temperature_from_entropy, thermo_eval)
from bifluid.thermo import enthalpy

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)

# canonical state used throughout the closure tests
RHO1, RHO2, T1, T2 = 1.0, 2.0, 300.0, 320.0


def _canonical_entropies():
    s1 = entropy_from_temperature(MODEL, 1, RHO1, T1)
    s2 = entropy_from_temperature(MODEL, 2, RHO2, T2)
    return float(s1), float(s2)


def test_model_validation_and_gammas():
    with pytest.raises(ValueError):
        GasPairModel(k1=0.0, k2=0.5, cv1=1.5, cv2=2.5)
    with pytest.raises(ValueError):
        GasPairModel(k1=1.0, k2=0.5, cv1=-1.5, cv2=2.5)
    assert MODEL.gamma1 == pytest.approx(1 + 1.0 / 1.5)
    assert MODEL.gamma2 == pytest.approx(1.2)
    assert MODEL.k(1) == 1.0 and MODEL.k(2) == 0.5
    assert MODEL.cv(2) == 2.5 and MODEL.gamma(1) == MODEL.gamma1


def test_entropy_temperature_roundtrip():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.2, 5.0, 200)
    T = rng.uniform(50.0, 900.0, 200)
    for alpha in (1, 2):
        s = entropy_from_temperature(MODEL, alpha, rho, T)
        back = temperature_from_entropy(MODEL, alpha, rho, s)
        assert np.allclose(back, T, rtol=1e-13)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        temperature_from_entropy(MODEL, 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        temperature_from_entropy(MODEL, 1, -1.0, 0.0)
    with pytest.raises(ValueError):
        entropy_from_temperature(MODEL, 1, 1.0, -5.0)


@pytest.mark.parametrize("alpha", [0, 3, "1"])
@pytest.mark.parametrize("call", [
    lambda a: temperature_from_entropy(MODEL, a, 1.0, 0.0),
    lambda a: entropy_from_temperature(MODEL, a, 1.0, 300.0),
    lambda a: sound_speed(MODEL, a, 300.0),
    lambda a: enthalpy(MODEL, a, 300.0),
    MODEL.k, MODEL.cv, MODEL.gamma,
], ids=["temperature_from_entropy", "entropy_from_temperature", "sound_speed", "enthalpy",
        "k", "cv", "gamma"])
def test_invalid_component_index_is_value_error(call, alpha):
    with pytest.raises(ValueError, match="component index must be 1, 2 or PAIR"):
        call(alpha)


@pytest.mark.parametrize("rho1, rho2", [(0.0, 2.0), (1.0, -2.0),
                                        (np.array([1.0, 0.0]), np.array([2.0, 2.0])),
                                        (np.array([1.0, 1.0]), np.array([2.0, -1e-300]))])
def test_thermo_eval_rejects_nonpositive_density(rho1, rho2):
    with pytest.raises(ValueError, match="must be positive"):
        thermo_eval(MODEL, rho1, rho2, 0.0, 0.0)


def test_canonical_point_values():
    s1, s2 = _canonical_entropies()
    pt = thermo_eval(MODEL, RHO1, RHO2, s1, s2)
    assert float(pt.T1) == pytest.approx(300.0, rel=1e-12)
    assert float(pt.T2) == pytest.approx(320.0, rel=1e-12)
    assert float(pt.e) == pytest.approx(1.0 * 1.5 * 300 + 2.0 * 2.5 * 320, rel=1e-12)
    assert float(pt.p_partial1) == pytest.approx(300.0, rel=1e-12)
    assert float(pt.p_partial2) == pytest.approx(320.0, rel=1e-12)
    assert float(pt.h1) == pytest.approx(2.5 * 300, rel=1e-12)
    assert float(pt.h2) == pytest.approx(3.0 * 320, rel=1e-12)
    assert float(pt.p) == pytest.approx(620.0, rel=1e-12)
    assert float(pt.mu1) == pytest.approx(float(pt.h1) - 300.0 * s1, rel=1e-12)


def test_stress_and_partial_pressures_sum_identically():
    rng = np.random.default_rng(11)
    rho1 = rng.uniform(0.2, 4.0, 500)
    rho2 = rng.uniform(0.2, 4.0, 500)
    s1 = rng.uniform(-1.0, 2.0, 500)
    s2 = rng.uniform(-1.0, 2.0, 500)
    pt = thermo_eval(MODEL, rho1, rho2, s1, s2)
    total_stress = pt.p_stress1 + pt.p_stress2
    scale = np.abs(pt.p)
    assert np.max(np.abs(total_stress - pt.p) / scale) < 1e-10
    # componentwise the two definitions genuinely differ
    assert np.max(np.abs(pt.p_stress1 - pt.p_partial1)) > 1.0


def test_partial_derivative_consistency_fd():
    # rho d(eps)/d(s_alpha) = rho_alpha T_alpha  and  h_alpha = d(e)/d(rho_alpha)
    rng = np.random.default_rng(3)
    n = 200
    rho1 = rng.uniform(0.3, 3.0, n)
    rho2 = rng.uniform(0.3, 3.0, n)
    s1 = rng.uniform(-0.5, 1.5, n)
    s2 = rng.uniform(-0.5, 1.5, n)
    pt = thermo_eval(MODEL, rho1, rho2, s1, s2)
    h = 1e-6

    def e_of(r1, r2, a, b):
        return thermo_eval(MODEL, r1, r2, a, b).e

    de_ds1 = (e_of(rho1, rho2, s1 + h, s2) - e_of(rho1, rho2, s1 - h, s2)) / (2 * h)
    de_ds2 = (e_of(rho1, rho2, s1, s2 + h) - e_of(rho1, rho2, s1, s2 - h)) / (2 * h)
    assert np.max(np.abs(de_ds1 - rho1 * pt.T1) / (rho1 * pt.T1)) < 1e-6
    assert np.max(np.abs(de_ds2 - rho2 * pt.T2) / (rho2 * pt.T2)) < 1e-6

    hr = 1e-6 * rho1
    de_dr1 = (e_of(rho1 + hr, rho2, s1, s2) - e_of(rho1 - hr, rho2, s1, s2)) / (2 * hr)
    assert np.max(np.abs(de_dr1 - pt.h1) / np.abs(pt.h1)) < 1e-6
    hr = 1e-6 * rho2
    de_dr2 = (e_of(rho1, rho2 + hr, s1, s2) - e_of(rho1, rho2 - hr, s1, s2)) / (2 * hr)
    assert np.max(np.abs(de_dr2 - pt.h2) / np.abs(pt.h2)) < 1e-6


def test_internal_energy_two_routes_agree():
    s1, s2 = _canonical_entropies()
    pt = thermo_eval(MODEL, RHO1, RHO2, s1, s2)
    direct = internal_energy_volume(MODEL, RHO1, RHO2, pt.T1, pt.T2)
    assert float(direct) == pytest.approx(float(pt.e), rel=1e-12)


def test_sound_speed():
    assert float(sound_speed(MODEL, 1, 300.0)) == pytest.approx(
        np.sqrt(MODEL.gamma1 * 1.0 * 300.0), rel=1e-14)
    assert float(sound_speed(MODEL, 2, 100.0)) == pytest.approx(
        np.sqrt(1.2 * 0.5 * 100.0), rel=1e-14)


def test_pair_rows_equal_the_single_component_functions():
    from bifluid.thermo import PAIR, enthalpy
    rng = np.random.default_rng(11)
    rho = np.stack([rng.uniform(0.2, 5.0, 50), rng.uniform(0.2, 5.0, 50)])
    T = rng.uniform(50.0, 900.0, (2, 50))
    s = entropy_from_temperature(MODEL, PAIR, rho, T)
    back = temperature_from_entropy(MODEL, PAIR, rho, s)
    for a in (0, 1):
        assert np.array_equal(s[a], entropy_from_temperature(MODEL, a + 1, rho[a], T[a]))
        assert np.array_equal(back[a], temperature_from_entropy(MODEL, a + 1, rho[a], s[a]))
        assert np.array_equal(enthalpy(MODEL, PAIR, T)[a], enthalpy(MODEL, a + 1, T[a]))
        assert np.array_equal(sound_speed(MODEL, PAIR, T)[a], sound_speed(MODEL, a + 1, T[a]))
    pt = thermo_eval(MODEL, rho[0], rho[1], s[0], s[1])
    assert np.array_equal(enthalpy(MODEL, PAIR, back), np.stack([pt.h1, pt.h2]))
    with pytest.raises(ValueError):
        enthalpy(MODEL, 0, 300.0)
