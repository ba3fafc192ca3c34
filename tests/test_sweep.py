import collections
import itertools

import numpy as np
import pytest

from bifluid import GasPairModel, Range, SweepSpec, run_sweep, sweep_point
from bifluid import closure as cls
from bifluid import sweep as swp
from bifluid.avgtemp import average_temperature_field, beta_split

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
T_CANON = 2050.0 / 6.5


def test_range_validation_and_values():
    with pytest.raises(ValueError):
        Range(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Range(1.0, 0.0, 2)
    assert np.array_equal(Range(2.0, 9.0, 1).values(), [2.0])
    assert np.allclose(Range(0.0, 1.0, 3).values(), [0.0, 0.5, 1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(T_background=-1.0)
    with pytest.raises(ValueError):
        SweepSpec(rho1_range=Range(-1.0, 1.0, 2))


@pytest.mark.parametrize("make", [
    lambda: Range(float("nan"), 1.0, 3),
    lambda: Range(0.0, float("inf"), 3),
    lambda: Range(float("nan"), float("nan"), 1),
    lambda: SweepSpec(T_background=float("inf")),
    lambda: SweepSpec(divv_unit=float("nan")),
], ids=["range-min-nan", "range-max-inf", "range-count1-nan", "T_background-inf",
        "divv_unit-nan"])
def test_nonfinite_sweep_values_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_canonical_single_point():
    spec = SweepSpec(theta_range=Range(20.0, 20.0, 1),
                     rho1_range=Range(1.0, 1.0, 1),
                     rho2_range=Range(2.0, 2.0, 1),
                     T_background=T_CANON)
    rows = run_sweep(spec, {"pair": MODEL})
    assert len(rows) == 1
    row = rows[0]
    assert not row["skipped"]
    assert row["T1"] == pytest.approx(300.0, rel=1e-12)
    assert row["T2"] == pytest.approx(320.0, rel=1e-12)
    assert row["T_avg"] == pytest.approx(T_CANON, rel=1e-9)
    assert row["beta"] == pytest.approx(-5.0 / 6.5, rel=1e-9)
    assert row["pi_state"] == pytest.approx(-70.0 / 6.5, rel=1e-9)
    assert row["lambda_unit_M"] == pytest.approx(0.49, rel=1e-9)


def test_pi_columns_agree_and_lambda_nonnegative():
    spec = SweepSpec(theta_range=Range(-30.0, 30.0, 7),
                     rho1_range=Range(0.5, 2.0, 3),
                     rho2_range=Range(0.5, 2.0, 3))
    rows = [r for r in run_sweep(spec, {"pair": MODEL}) if not r["skipped"]]
    assert rows
    p_scale = MODEL.k1 * 2.0 * 300.0
    for r in rows:
        assert abs(r["pi_state"] - r["pi_formula"]) <= 1e-9 * max(abs(r["pi_state"]), p_scale)
        assert r["lambda_unit_M"] >= 0.0


def test_pi_odd_in_theta():
    spec = SweepSpec(theta_range=Range(-20.0, 20.0, 5),
                     rho1_range=Range(1.0, 1.0, 1),
                     rho2_range=Range(2.0, 2.0, 1))
    rows = run_sweep(spec, {"pair": MODEL})
    pis = [r["pi_formula"] for r in rows]
    assert pis[0] == pytest.approx(-pis[-1], rel=1e-12)
    assert pis[1] == pytest.approx(-pis[-2], rel=1e-12)
    assert pis[2] == 0.0


def test_identical_gases_zero_pi_column():
    same = GasPairModel(k1=1.0, k2=1.0, cv1=1.5, cv2=1.5)
    spec = SweepSpec(theta_range=Range(-20.0, 20.0, 5))
    rows = [r for r in run_sweep(spec, {"same": same}) if not r["skipped"]]
    assert all(r["pi_formula"] == 0.0 for r in rows)


def test_invalid_points_skipped_with_reason(caplog):
    # theta large enough to push a split temperature negative
    spec = SweepSpec(theta_range=Range(5000.0, 5000.0, 1),
                     rho1_range=Range(1.0, 1.0, 1),
                     rho2_range=Range(2.0, 2.0, 1),
                     T_background=300.0)
    with caplog.at_level("WARNING"):
        rows = run_sweep(spec, {"pair": MODEL})
    assert rows[0]["skipped"]
    assert "nonpositive" in rows[0]["reason"]
    assert any("skipping sweep point" in rec.message for rec in caplog.records)


def test_multiple_models_ordering():
    spec = SweepSpec(theta_range=Range(0.0, 10.0, 2),
                     rho1_range=Range(1.0, 1.0, 1),
                     rho2_range=Range(1.0, 1.0, 1))
    other = GasPairModel(k1=2.0, k2=1.0, cv1=3.0, cv2=5.0)
    rows = run_sweep(spec, {"a": MODEL, "b": other})
    assert [r["model"] for r in rows] == ["a", "a", "b", "b"]


# -- the per-line memo of the Theta-independent terms ---------------------

OTHER = GasPairModel(k1=2.0, k2=1.0, cv1=3.0, cv2=5.0)


def _reference_point(model, model_name, rho1, rho2, theta, T_bg, divv_unit):
    """sweep_point as it was before the memo: every term at every Theta."""
    beta = beta_split(model, rho1, rho2)
    T1 = T_bg + beta * theta
    T2 = T_bg + (1.0 + beta) * theta
    skipped = T1 <= 0 or T2 <= 0
    if skipped:
        reason = f"nonpositive split temperature T1={T1:g} T2={T2:g}"
        T_avg = pi_state = pi_formula = lambda_unit_M = theta_unit = None
    else:
        reason = ""
        T_avg = average_temperature_field(model, rho1, rho2, T1, T2)
        pi_state = cls.dynamical_pressure_from_state(model, rho1, rho2, T1, T2)
        pi_formula = cls.dynamical_pressure_perfect_gas(model, rho1, rho2, theta)
        lambda_unit_M = cls.lambda_coefficient(model, rho1, rho2, 1.0)
        theta_unit = cls.theta_constitutive(model, rho1, rho2, 1.0, divv_unit)
    return {"model": model_name, "rho1": rho1, "rho2": rho2, "theta": theta,
            "T_background": T_bg, "T1": T1, "T2": T2, "T_avg": T_avg, "beta": beta,
            "pi_state": pi_state, "pi_formula": pi_formula,
            "lambda_unit_M": lambda_unit_M, "theta_unit": theta_unit,
            "skipped": skipped, "reason": reason}


def _bits(row):
    """Keys in order, with each value's exact repr: tells -0.0 from 0.0, None from 0."""
    return [(k, repr(v)) for k, v in row.items()]


MEMO_SPEC = SweepSpec(theta_range=Range(-900.0, 900.0, 7),
                      rho1_range=Range(0.5, 2.0, 3),
                      rho2_range=Range(0.5, 2.0, 2),
                      divv_unit=-0.7)


def test_run_sweep_rows_match_the_per_point_reference():
    rows = run_sweep(MEMO_SPEC, {"a": MODEL, "b": OTHER})
    ref = [_reference_point(model, name, float(r1), float(r2), float(th),
                            MEMO_SPEC.T_background, MEMO_SPEC.divv_unit)
           for name, model in (("a", MODEL), ("b", OTHER))
           for r1, r2, th in itertools.product(MEMO_SPEC.rho1_range.values(),
                                               MEMO_SPEC.rho2_range.values(),
                                               MEMO_SPEC.theta_range.values())]
    assert 0 < sum(r["skipped"] for r in rows) < len(rows)
    assert [_bits(r) for r in rows] == [_bits(r) for r in ref]


def test_direct_calls_across_lines_models_and_divv_match_the_reference():
    calls = [(MODEL, 1.0, 2.0, 20.0, 1.0), (OTHER, 1.0, 2.0, 20.0, 1.0),
             (MODEL, 1.0, 2.0, 20.0, -0.7), (MODEL, 0.5, 2.0, 20.0, -0.7),
             (MODEL, 1.0, 2.0, -20.0, -0.7), (MODEL, 1.0, 2.0, 5000.0, -0.7),
             (MODEL, 1.0, 2.0, 20.0, 0.0), (MODEL, 1.0, 2.0, 20.0, -0.0),
             (OTHER, 2.0, 1.0, 20.0, -0.0), (OTHER, 2.0, 1.0, 20.0, 0.0),
             (MODEL, 2.0, 1.0, 20.0, 0.0), (MODEL, 1.0, 2.0, 20.0, 1.0)]
    for model, rho1, rho2, theta, divv in calls:
        got = sweep_point(model, "m", rho1, rho2, theta, 300.0, divv)
        assert _bits(got) == _bits(_reference_point(model, "m", rho1, rho2, theta, 300.0, divv))


def test_t_avg_from_the_line_weight_equals_the_kernel_bit_for_bit():
    # T1 + weight (T2 - T1), the weight formed once per line, against
    # average_temperature_field at the point, over densities 1e-3 to 1e3
    rng = np.random.default_rng(29)
    for model in (MODEL, OTHER):
        for rho1, rho2, theta in zip(10 ** rng.uniform(-3, 3, 300), 10 ** rng.uniform(-3, 3, 300),
                                     rng.uniform(-300, 300, 300)):
            row = sweep_point(model, "m", float(rho1), float(rho2), float(theta), 300.0, 1.0)
            if not row["skipped"]:
                want = average_temperature_field(model, float(rho1), float(rho2),
                                                 row["T1"], row["T2"])
                assert repr(row["T_avg"]) == repr(want)


@pytest.mark.parametrize("rho1, rho2", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0)])
def test_nonpositive_density_raises_after_a_valid_call(rho1, rho2):
    sweep_point(MODEL, "pair", 1.0, 2.0, 20.0, 300.0, 1.0)
    for _ in range(2):      # a failed evaluation is not remembered
        with pytest.raises(ValueError, match="densities must be positive"):
            sweep_point(MODEL, "pair", rho1, rho2, 20.0, 300.0, 1.0)
    assert not sweep_point(MODEL, "pair", 1.0, 2.0, 20.0, 300.0, 1.0)["skipped"]


def test_line_terms_are_evaluated_once_per_line(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(swp, "sweep_point", counted("sweep_point", swp.sweep_point))
    monkeypatch.setattr(swp, "beta_split", counted("beta_split", swp.beta_split))
    monkeypatch.setattr(swp, "average_temperature_field",
                        counted("average_temperature_field", swp.average_temperature_field))
    monkeypatch.setattr(cls, "lambda_coefficient",
                        counted("lambda_coefficient", cls.lambda_coefficient))
    swp._line_terms.cache_clear()
    run_sweep(MEMO_SPEC, {"a": MODEL, "b": OTHER})
    lines = 2 * 3 * 2
    assert calls == {"sweep_point": 7 * lines, "beta_split": lines,
                     "average_temperature_field": lines, "lambda_coefficient": lines}
