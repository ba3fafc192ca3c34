import numpy as np
import pytest

from bifluid import GasPairModel, Range, SweepSpec, run_sweep, sweep_point

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
