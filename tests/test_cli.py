import dataclasses
import errno
import math
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from bifluid import ThermoPoint, cli
from bifluid import sweep as swp
from bifluid.cli import (DIAG_HEADER, SNAPSHOT_HEADER, SWEEP_HEADER, ConfigError,
                         main, parse_config)

BASE_CFG = """\
[grid]
n = 32
length = 1.0

[gas1]
k = 1.0
cv = 1.5

[gas2]
k = 0.5
cv = 2.5

[closure]
mode = fixed-lambda
lambda = 0.0

[time]
dt = 1e-4
t_end = 0.002

[init]
rho1_bg = 1.0
rho2_bg = 2.0
v1_bg = 0.0
v2_bg = 0.0
s1_bg = 0.0
s2_bg = 0.0
"""

SWEEP_CFG = BASE_CFG + """
[sweep]
theta_min = 20.0
theta_max = 20.0
theta_count = 1
rho1_min = 1.0
rho1_max = 1.0
rho1_count = 1
rho2_min = 2.0
rho2_max = 2.0
rho2_count = 1
T_background = 315.38461538461536
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(BASE_CFG)
    assert cfg.cfl == 0.4
    assert cfg.stride == 10
    assert cfg.closure.epsilon_T == pytest.approx(1e-8 * 300.0)
    assert cfg.model.T_ref == 300.0
    assert cfg.grid.n == 32


def test_parse_init_mode_zero_kept():
    cfg = parse_config(BASE_CFG + "rho1_mode = 0\nrho1_amp = 0.1\n")
    assert cfg.initial.rho1.mode == 0
    assert cfg.initial.rho1.amp == 0.1


def test_parse_collects_all_violations():
    bad = BASE_CFG.replace("lambda = 0.0", "lambda = 0.0\nM = 1.0\nchi = -1")
    bad = bad.replace("n = 32", "n = -4")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msgs = "\n".join(exc.value.problems)
    assert "mutually exclusive" in msgs
    assert "chi must be nonnegative" in msgs
    assert "n must be positive" in msgs


def test_parse_mode_key_mismatch():
    bad = BASE_CFG.replace("lambda = 0.0", "M = 1.0")
    with pytest.raises(ConfigError, match="takes 'lambda'"):
        parse_config(bad)


def test_parse_missing_init_key():
    bad = BASE_CFG.replace("s2_bg = 0.0\n", "")
    with pytest.raises(ConfigError, match="s2_bg"):
        parse_config(bad)


def test_parse_syntax_error():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("no sections here")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_runs_and_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASE_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("snapshots.csv", "diagnostics.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    snap = (tmp_path / "a" / "snapshots.csv").read_text().splitlines()
    assert snap[0] == SNAPSHOT_HEADER
    diag = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == DIAG_HEADER
    assert (tmp_path / "a" / "run.meta").exists()


def test_simulate_equilibrium_constant_diagnostics(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASE_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "eq")]) == 0
    lines = (tmp_path / "eq" / "diagnostics.csv").read_text().splitlines()[1:]
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    for j in range(1, cols.shape[1] - 1):
        assert np.allclose(cols[:, j], cols[0, j], rtol=1e-12, atol=1e-12)


def test_sweep_end_to_end_canonical(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep2.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "sweep2.csv").read_bytes()
    header, row = out.read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["T_avg"]) == pytest.approx(2050.0 / 6.5, rel=1e-9)
    assert float(vals["beta"]) == pytest.approx(-5.0 / 6.5, rel=1e-9)
    assert float(vals["pi_formula"]) == pytest.approx(-70.0 / 6.5, rel=1e-9)
    assert float(vals["lambda_unit_M"]) == pytest.approx(0.49, rel=1e-9)


def _reference_sweep_csv(rows):
    """The per-cell writer the row formats replaced, kept as the reference."""
    lines = [SWEEP_HEADER]
    for row in rows:
        cells = []
        for key in swp.ROW_FIELDS:
            val = row[key]
            if key in ("model", "reason"):
                cells.append(str(val))
            elif key == "skipped":
                cells.append("1" if val else "0")
            elif val is None:
                cells.append("")
            else:
                cells.append("%.17g" % val)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_sweep_rows_match_per_cell_writer(tmp_path):
    # theta = -700 K pushes T1 below zero at T = 300 K, so some rows are skipped
    text = BASE_CFG + """
[sweep]
theta_min = -700.0
theta_max = 33.3
theta_count = 7
rho1_min = 0.25
rho1_max = 3.0
rho1_count = 3
rho2_min = 0.1
rho2_max = 2.0
rho2_count = 4
T_background = 300.0
divv_unit = -0.7
"""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write(tmp_path, "sweep.cfg", text),
                 "--out", str(out)]) == 0
    cfg = parse_config(text)
    rows = swp.run_sweep(cfg.sweep_spec, {"pair": cfg.model})
    skipped = [r for r in rows if r["skipped"]]
    assert 0 < len(skipped) < len(rows)
    written = out.read_text()
    assert written == _reference_sweep_csv(rows)
    assert ",1,nonpositive split temperature T1=" in written
    assert written.count(",1,nonpositive") == len(skipped)


def test_verify_identity_negative_refine_is_usage_error(capsys):
    for mode in ("fd", "analytic"):
        assert main(["verify-identity", "--suite", "constant", "--mode", mode,
                     "--refine", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --refine must be nonnegative, got -1\n"


def test_verify_identity_analytic_refine_is_usage_error(capsys):
    assert main(["verify-identity", "--suite", "constant", "--mode", "analytic",
                 "--refine", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --refine applies to --mode fd only, got 2\n"


def test_verify_identity_out_writes_report_and_sidecar(tmp_path, capsys):
    out = tmp_path / "identity.txt"
    argv = ["verify-identity", "--suite", "constant", "--mode", "fd", "--refine", "1",
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out
    assert "convergence_order=" in out.read_text()
    assert (tmp_path / "identity.meta").read_text() == (
        "command: " + " ".join(["bifluid"] + argv) + "\n")


def test_verify_identity_constant_analytic(capsys):
    assert main(["verify-identity", "--suite", "constant", "--mode", "analytic"]) == 0
    out = capsys.readouterr().out
    assert "residual_max=0" in out


def test_verify_identity_fd_refine(capsys):
    for refine in ("2", "8"):       # 8 is the largest --refine accepted
        assert main(["verify-identity", "--suite", "sinusoidal", "--mode", "fd",
                     "--refine", refine]) == 0
        out = capsys.readouterr().out
        assert "convergence_order=" in out
        order = float(out.split("convergence_order=")[1].split()[0])
        assert abs(order - 2.0) < 0.2


def test_verify_identity_refine_above_cap_is_usage_error(capsys):
    assert main(["verify-identity", "--suite", "sinusoidal", "--mode", "fd",
                 "--refine", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --refine must be at most 8, got 9\n"


def test_verify_identity_sinusoidal_analytic(capsys):
    assert main(["verify-identity", "--suite", "sinusoidal", "--mode", "analytic"]) == 0
    values = dict(line.strip().split("=") for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  "))
    assert sorted(k for k in values if k.startswith("identity_")) == [
        f"identity_{name}" for name in "abcde"]
    magnitude = float(values["term_magnitude"])
    assert magnitude > 1.0
    assert float(values["residual_max"]) <= 1e-10 * magnitude


def test_thermo_eval_canonical(capsys):
    assert main(["thermo-eval", "--k1", "1", "--k2", "0.5", "--cv1", "1.5",
                 "--cv2", "2.5", "--rho1", "1", "--rho2", "2",
                 "--T1", "300", "--T2", "320"]) == 0
    out = capsys.readouterr().out
    vals = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    # the ThermoPoint fields in declaration order, then the average temperature
    assert list(vals) == ["T1", "T2", "p_partial1", "p_partial2", "p_stress1", "p_stress2",
                          "h1", "h2", "mu1", "mu2", "e", "p",
                          "T_avg", "theta1", "theta2", "iterations", "residual"]
    assert list(vals)[:12] == [f.name for f in dataclasses.fields(ThermoPoint)]
    assert float(vals["e"]) == pytest.approx(2050.0, rel=1e-12)
    assert float(vals["T_avg"]) == pytest.approx(2050.0 / 6.5, rel=1e-9)
    assert float(vals["p"]) == pytest.approx(620.0, rel=1e-12)


THERMO_ARGS = {"k1": "1", "k2": "0.5", "cv1": "1.5", "cv2": "2.5",
               "rho1": "1", "rho2": "2", "T1": "300", "T2": "320"}


def _thermo_argv(**values):
    # --flag=value, so that argparse takes "-inf" as a value, not an option
    return ["thermo-eval"] + [f"--{k}={v}" for k, v in {**THERMO_ARGS, **values}.items()]


@pytest.mark.parametrize("flag, value, need", [
    (flag, value, "finite" if value in ("inf", "-inf", "nan") else "positive")
    for flag in ("k1", "k2", "cv1", "cv2", "rho1", "rho2", "T1", "T2", "T_ref", "rho_ref")
    for value in ("inf", "-inf", "nan", "0", "-1")] + [
    ("s_ref", value, "finite") for value in ("inf", "-inf", "nan")])
def test_thermo_eval_rejects_bad_value_in_one_line(flag, value, need, capsys):
    assert main(_thermo_argv(**{flag: value})) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --{flag} must be {need}, got {float(value)}\n"


def test_thermo_eval_reports_every_bad_value(capsys):
    assert main(_thermo_argv(T1="inf", rho2="-2", s_ref="nan")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --rho2 must be positive, got -2.0", "error: --T1 must be finite, got inf",
        "error: --s_ref must be finite, got nan"]


@pytest.mark.parametrize("argv", [
    _thermo_argv()[:-2] + ["--T2", "-inf"],      # argparse takes -inf for an option
    _thermo_argv(k1="abc"),
    _thermo_argv()[:-1],                          # --T2 missing
    [],
    ["bogus-subcommand"],
], ids=["negative-non-numeral", "not-a-float", "missing-flag", "no-subcommand",
        "bogus-subcommand"])
def test_usage_error_is_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_missing_config_exit_1(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_error_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", BASE_CFG.replace("chi = -1", "").replace(
        "lambda = 0.0", "lambda = -2"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: config:" in capsys.readouterr().err


def test_runtime_failure_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfl.cfg", BASE_CFG.replace("dt = 1e-4", "dt = 0.5"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cfl_above_one_is_one_config_error_line(tmp_path, capsys):
    assert parse_config(BASE_CFG.replace("dt = 1e-4", "dt = 1e-4\ncfl = 1")).cfl == 1.0
    cfg = _write(tmp_path, "cfl.cfg", BASE_CFG.replace("dt = 1e-4", "dt = 1e-4\ncfl = 10"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: config: [time] cfl must be at most 1, got 10.0\n"
    assert not (tmp_path / "o").exists()


# t_end/dt = 0.4 would run no step; 2.5 would stop at t = 2e-4 (round half to
# even); a ratio that overflows to inf has no step count at all
@pytest.mark.parametrize("time, shown", [
    ("dt = 1e-4\nt_end = 4e-5", "t_end=4e-05 is not a whole number of steps of dt=0.0001 "
                                "(t_end/dt = 0.4)"),
    ("dt = 1e-4\nt_end = 2.5e-4", "t_end=0.00025 is not a whole number of steps of "
                                  "dt=0.0001 (t_end/dt = 2.5)"),
    ("dt = 1e-300\nt_end = 1e10", "t_end=1e+10 is not a whole number of steps of "
                                  "dt=1e-300 (t_end/dt = inf)"),
], ids=["0.4-steps", "2.5-steps", "inf-steps"])
def test_t_end_off_the_dt_grid_fails_before_any_step(time, shown, tmp_path, capsys):
    text = BASE_CFG.replace("dt = 1e-4\nt_end = 0.002", time)
    assert text != BASE_CFG
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not (tmp_path / "o").exists()


# s = -1e6 underflows T to 0.0: with both gases cold (and at rest) the wave
# speed is 0, which the CFL limit divides by; with one, the first step fails
@pytest.mark.parametrize("edit", [("s1_bg = 0.0\ns2_bg = 0.0", "s1_bg = -1e6\ns2_bg = -1e6"),
                                  ("s1_bg = 0.0", "s1_bg = -1e6")], ids=["both-cold", "T1-cold"])
def test_nonpositive_initial_temperature_fails_before_any_step(edit, tmp_path, capsys):
    text = BASE_CFG.replace(*edit)
    assert text != BASE_CFG
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: nonpositive temperature: T1 = 0.0 at cell 0\n"
    assert not (tmp_path / "o").exists()


def test_overflowing_initial_temperature_fails_in_one_line(tmp_path, capsys):
    # s1 = 1e6 overflows exp in T1 to inf, which would make the wave speed inf
    text = BASE_CFG.replace("n = 32", "n = 16").replace("s1_bg = 0.0", "s1_bg = 1e6")
    cfg = _write(tmp_path, "run.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: infinite temperature: T1 = inf at cell 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, message", [
    (("lambda = 0.0", "lamda = 0.13"), "[closure] unknown key 'lamda'"),
    (("v1_bg = 0.0", "v1_bg = 0.0\nrho1_ampl = 0.5"), "[init] unknown key 'rho1_ampl'"),
    (("[time]", "[outptu]\nstride = 5\n\n[time]"), "[outptu] unknown key 'stride'"),
    (("lambda = 0.0", "lambda = 0.0\nslaving = yes"), "slaving='yes' is not one of"),
    (("t_end = 0.002", "t_end = inf"), "[time] t_end must be finite, got inf"),
    (("lambda = 0.0", "lambda = nan"), "[closure] lambda must be finite, got nan"),
    (("s1_bg = 0.0", "s1_bg = -inf"), "[init] s1_bg must be finite, got -inf"),
    (("[time]", "[sweep]\ndivv_unit = nan\n\n[time]"),
     "[sweep] divv_unit must be finite, got nan"),
])
def test_parse_rejects_unknown_keys_and_values(edit, message):
    bad = BASE_CFG.replace(*edit)
    assert bad != BASE_CFG
    with pytest.raises(ConfigError) as exc:
        parse_config(bad.replace("n = 32", "n = -4"))
    problems = exc.value.problems
    assert any(message in p for p in problems), problems
    assert any("n must be positive" in p for p in problems), problems


@pytest.mark.parametrize("edit, message", [
    (("n = 32", "n = abc"), "[grid] n='abc' is not a valid int"),
    (("mode = fixed-lambda", "mode = relaxation-M"),
     "[closure] mode relaxation-M takes 'M', not 'lambda'"),
    (("theta_count = 1", "theta_count = 2"),
     "[sweep] theta range: max must exceed min for count > 1"),
    (("rho1_min = 1.0", "rho1_min = 0.0"), "[sweep] density ranges must be positive"),
    (("n = 32", "n = 3"), "grid needs at least 4 cells, got n=3"),
])
def test_parse_reports_bad_value_alone(edit, message):
    bad = SWEEP_CFG.replace(*edit)
    assert bad != SWEEP_CFG
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.problems == [message]


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.grid.n == 128
    assert cfg.sweep_spec.rho1_range.count == 1     # the default is 3


def test_nonfinite_config_value_is_one_error_line(tmp_path, capsys):
    cfg = _write(tmp_path, "inf.cfg", BASE_CFG.replace("t_end = 0.002", "t_end = inf"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: config: [time] t_end must be finite, got inf\n"


def test_parse_slaving_values():
    for value, on in (("on", True), ("true", True), ("1", True),
                      ("off", False), ("false", False), ("0", False)):
        cfg = parse_config(BASE_CFG.replace("lambda = 0.0", f"lambda = 0.0\nslaving = {value}"))
        assert cfg.slaving is on


def test_slaving_under_fixed_lambda_is_one_config_error_line(tmp_path, capsys):
    # fixed-lambda has no M, so slaving sets T1 = T2 in every cell, where the
    # exchange divides lambda (div v)^2 by epsilon_T: the run blew up
    text = BASE_CFG.replace("lambda = 0.0", "lambda = 0.13\nslaving = on")
    assert main(["simulate", "--config", _write(tmp_path, "run.cfg", text),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: config: [closure] slaving = on needs mode "
                                       "relaxation-M, or lambda = 0 under fixed-lambda; "
                                       "got lambda = 0.13\n")
    assert not (tmp_path / "o").exists()
    relaxation = BASE_CFG.replace("mode = fixed-lambda\nlambda = 0.0",
                                  "mode = relaxation-M\nM = 0.01\nslaving = on")
    assert parse_config(relaxation).slaving is True


def test_simulate_writes_integrate_values_as_17g(tmp_path):
    # pins the byte layout: one "%.17g" per value, "," between, "\n" after
    from bifluid import average_temperature_field, thermo_eval
    from bifluid.solver import Scenario, integrate
    text = BASE_CFG.replace("rho1_bg = 1.0", "rho1_bg = 1.0\nrho1_amp = 0.01").replace(
        "lambda = 0.0", "lambda = 0.13").replace("s2_bg = 0.0", "s2_bg = 0.1")
    text += "[output]\nstride = 7\n"
    cfg = parse_config(text)
    rows = integrate(Scenario(cfg.grid, cfg.model, cfg.closure, cfg.initial,
                              dt=cfg.dt, t_end=cfg.t_end, stride=cfg.stride,
                              cfl=cfg.cfl, slaving=cfg.slaving))
    m = cfg.model
    x = cfg.grid.cell_centers()
    snap, diag = [SNAPSHOT_HEADER], [DIAG_HEADER]
    for r in rows:
        st, d = r.state, r.diag
        tp = thermo_eval(m, st.rho1, st.rho2, st.s1, st.s2)
        Tavg = average_temperature_field(m, st.rho1, st.rho2, tp.T1, tp.T2)
        p0 = (m.k1 * st.rho1 + m.k2 * st.rho2) * Tavg
        for i in range(cfg.grid.n):
            snap.append(",".join("%.17g" % v for v in (
                r.t, x[i], st.rho1[i], st.rho2[i], st.v1[i], st.v2[i], st.s1[i],
                st.s2[i], tp.T1[i], tp.T2[i], Tavg[i], tp.p[i], p0[i],
                tp.p[i] - p0[i], d.divv_field[i])))
        diag.append(",".join("%.17g" % v for v in (
            r.t, d.total_mass1, d.total_mass2, d.total_momentum, d.total_energy,
            d.total_entropy, d.min_temperature_gap)))
    assert len(rows) == 4      # t = 0, steps 7, 14 and the last step 20

    path = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "snapshots.csv").read_text() == "\n".join(snap) + "\n"
    assert (tmp_path / "o" / "diagnostics.csv").read_text() == "\n".join(diag) + "\n"


def _reference_simulate_csv(rows, x):
    """snapshots.csv and diagnostics.csv of rows, one "%.17g" per value."""
    snap, diag = [SNAPSHOT_HEADER], [DIAG_HEADER]
    for r in rows:
        st, d = r.state, r.diag
        cols = (np.full_like(x, r.t), x, st.rho1, st.rho2, st.v1, st.v2, st.s1, st.s2,
                d.T1, d.T2, d.T_avg, d.p, d.p0, d.pi_field, d.divv_field)
        snap.extend(",".join("%.17g" % v for v in row) for row in zip(*cols))
        diag.append(",".join("%.17g" % v for v in (
            r.t, d.total_mass1, d.total_mass2, d.total_momentum, d.total_energy,
            d.total_entropy, d.min_temperature_gap)))
    return "\n".join(snap) + "\n", "\n".join(diag) + "\n"


def _assert_file_equals(path, text):
    """path holds text; on a mismatch, report the first differing line only."""
    written = path.read_text()
    if written != text:
        lines = list(zip(written.splitlines(), text.splitlines()))
        first = next((i for i, (w, t) in enumerate(lines) if w != t), len(lines))
        raise AssertionError(f"{path.name} line {first}: "
                             f"{lines[first] if first < len(lines) else 'line count differs'}")


def _scenario(cfg):
    from bifluid.solver import Scenario
    return Scenario(cfg.grid, cfg.model, cfg.closure, cfg.initial, dt=cfg.dt,
                    t_end=cfg.t_end, stride=cfg.stride, cfl=cfg.cfl, slaving=cfg.slaving)


def test_simulate_rows_across_chunks_as_17g(tmp_path):
    # n = 4099 rows per snapshot cross a chunk boundary; t = 0 and s1_bg = 0
    # give exact zeros, the v1 wave negative values
    from bifluid.csvout import CHUNK_ROWS
    from bifluid.solver import integrate
    text = (BASE_CFG.replace("n = 32", "n = 4099").replace("dt = 1e-4", "dt = 2e-6")
            .replace("t_end = 0.002", "t_end = 4e-6")
            .replace("v1_bg = 0.0", "v1_bg = 0.0\nv1_amp = 0.002")
            .replace("lambda = 0.0", "lambda = 0.13")) + "[output]\nstride = 1\n"
    cfg = parse_config(text)
    assert cfg.grid.n > CHUNK_ROWS
    rows = integrate(_scenario(cfg))
    assert len(rows) == 3 and rows[0].t == 0.0
    assert np.any(rows[0].state.s1 == 0.0) and np.any(rows[-1].state.v1 < 0.0)

    assert main(["simulate", "--config", _write(tmp_path, "run.cfg", text),
                 "--out", str(tmp_path / "o")]) == 0
    snap, diag = _reference_simulate_csv(rows, cfg.grid.cell_centers())
    _assert_file_equals(tmp_path / "o" / "snapshots.csv", snap)
    _assert_file_equals(tmp_path / "o" / "diagnostics.csv", diag)


def _writer_paths():
    """Yields "inline", then "overlapped", with simulate writing its snapshots that way.

    The overlapped path is forced on any grid by dropping OVERLAP_MIN_ROWS to
    0 and reporting two CPUs.  After each path, no writer child or thread is
    left.
    """
    for path in ("inline", "overlapped"):
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            if path == "overlapped":
                mp.setattr(cli, "OVERLAP_MIN_ROWS", 0)
                mp.setattr(cli, "_cpu_count", lambda: 2)
            else:
                mp.setattr(cli, "OVERLAP_MIN_ROWS", math.inf)
            yield path
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads, path


def test_simulate_keeps_rows_on_solver_error(tmp_path, capsys):
    # a drag too stiff for the explicit step, chi*(1/rho1 + 1/rho2)*dt = 3,
    # which passes config validation: the instability drives rho1 negative
    # at step 21, after ten strides
    from bifluid.solver import SolverError, integrate
    text = (BASE_CFG.replace("lambda = 0.0", "lambda = 0.0\nchi = 2e4")
            .replace("t_end = 0.002", "t_end = 0.2")
            .replace("rho1_bg = 1.0", "rho1_bg = 1.0\nrho1_amp = 0.01"))
    text += "[output]\nstride = 2\n"
    cfg = parse_config(text)
    with pytest.raises(SolverError) as exc:
        integrate(_scenario(cfg))
    rows = exc.value.trajectory
    assert len(rows) >= 3       # t = 0 and at least two strides

    snap, diag = _reference_simulate_csv(rows, cfg.grid.cell_centers())
    for path in _writer_paths():
        out = tmp_path / path
        code = main(["simulate", "--config", _write(tmp_path, "run.cfg", text),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: aborted at t=") and err.count("\n") == 1
        assert err == f"error: {exc.value}\n"
        _assert_file_equals(out / "snapshots.csv", snap)
        _assert_file_equals(out / "diagnostics.csv", diag)
        assert (out / "run.meta").exists()


def test_simulate_memory_does_not_grow_with_snapshot_count(tmp_path):
    # the same 19 steps at n = 4096, written as 2 and as 20 snapshots: the
    # snapshots stream to the CSV, so the peak stays within one state block,
    # also with a child forked to write each snapshot
    import tracemalloc
    n = 4096
    base = (BASE_CFG.replace("n = 32", f"n = {n}").replace("dt = 1e-4", "dt = 2e-6")
            .replace("t_end = 0.002", "t_end = 3.8e-5")
            .replace("rho1_bg = 1.0", "rho1_bg = 1.0\nrho1_amp = 0.01"))
    block = 6 * 8 * n
    for path in _writer_paths():
        peaks = {}
        for stride in (19, 19, 1):      # the first run loads the writer and its tables
            cfg = _write(tmp_path, "run.cfg", base + f"[output]\nstride = {stride}\n")
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
                peaks[stride] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows = (tmp_path / "o" / "diagnostics.csv").read_text().count("\n") - 1
            assert rows == {19: 2, 1: 20}[stride]
        assert peaks[1] - peaks[19] < block, \
            f"{path}: {(peaks[1] - peaks[19]) / block:.2f} state blocks"


# n = 2000 cells, 12 steps, a snapshot after every step
_STRESS_CFG = (BASE_CFG.replace("n = 32", "n = 2000").replace("dt = 1e-4", "dt = 4e-6")
               .replace("t_end = 0.002", "t_end = 4.8e-5")
               .replace("v1_bg = 0.0", "v1_bg = 0.0\nv1_amp = 0.002")
               .replace("lambda = 0.0", "lambda = 0.13")) + "[output]\nstride = 1\n"


def _record_writes(monkeypatch, log, faults=None):
    """Make every snapshot write append "pid t" to log, from whichever process
    writes it, and raise faults[t] instead of writing the snapshot at t."""
    import bifluid.csvout
    write_rows, faults = bifluid.csvout.write_rows, {} if faults is None else faults

    def recording(fh, columns):
        if isinstance(columns, tuple):      # a snapshot; diagnostics.csv gets a zip
            with open(log, "a") as rec:
                rec.write(f"{os.getpid()} {columns[0]!r}\n")
            if columns[0] in faults:
                raise faults[columns[0]]
        write_rows(fh, columns)
    monkeypatch.setattr(bifluid.csvout, "write_rows", recording)


def _logged_writes(log):
    """(pid, t) of each logged snapshot write, then clears the log."""
    lines = log.read_text().splitlines() if log.exists() else []
    log.unlink(missing_ok=True)
    return [(int(pid), float(t)) for pid, t in (line.split() for line in lines)]


# _STRESS_CFG's snapshot times, k dt as trajectory forms them
_STRESS_TIMES = [k * 4e-6 for k in range(13)]


def test_overlapped_writes_match_inline_from_child_processes(tmp_path, monkeypatch):
    # each overlapped snapshot is written by its own child, which shares the
    # file offset with the parent; the bytes must not change
    log = tmp_path / "writes.log"
    _record_writes(monkeypatch, log)
    cfg = _write(tmp_path, "run.cfg", _STRESS_CFG)
    written = {}
    for path in _writer_paths():
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / path)]) == 0
        written[path] = [(tmp_path / path / name).read_bytes()
                         for name in ("snapshots.csv", "diagnostics.csv")]
        writes = _logged_writes(log)
        assert [t for _, t in writes] == _STRESS_TIMES
        pids = [pid for pid, _ in writes]
        if path == "inline":
            assert set(pids) == {os.getpid()}
        else:
            assert os.getpid() not in pids and len(set(pids)) == len(pids)
    assert written["overlapped"][0].count(b"\n") == 1 + 13 * 2000
    assert written["overlapped"] == written["inline"]


def test_snapshots_are_written_inline_when_no_child_can_be_forked(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    cfg = _write(tmp_path, "run.cfg", _STRESS_CFG)
    written = {}
    for path in _writer_paths():
        with monkeypatch.context() as mp:
            if path == "overlapped":
                mp.setattr(os, "fork", no_fork)
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / path)]) == 0
        written[path] = [(tmp_path / path / name).read_bytes()
                         for name in ("snapshots.csv", "diagnostics.csv")]
    assert written["overlapped"] == written["inline"]


# the second snapshot's write fails while the solver steps on; the last
# (13th) fails after the last step, and is waited for as the run ends.  An
# OSError exits 1, any other error 2, whichever process wrote the snapshot.
@pytest.mark.parametrize("failing_call", [2, 13])
def test_writer_error_is_one_line_and_leaves_no_child(failing_call, tmp_path, capsys,
                                                      monkeypatch):
    cfg = _write(tmp_path, "run.cfg", _STRESS_CFG)
    log, faults = tmp_path / "writes.log", {}
    _record_writes(monkeypatch, log, faults)
    for fault, code, err in ((OSError(errno.ENOSPC, "No space left on device"), 1,
                              "error: [Errno 28] No space left on device\n"),
                             (ValueError("cannot format the snapshot"), 2,
                              "error: cannot format the snapshot\n")):
        faults[_STRESS_TIMES[failing_call - 1]] = fault
        for path in _writer_paths():
            out = tmp_path / f"{path}-{code}"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == code, path
            captured = capsys.readouterr()
            assert captured.err == err, path
            assert not (out / "diagnostics.csv").exists()
            # no snapshot is written after the failed one
            assert [t for _, t in _logged_writes(log)] == _STRESS_TIMES[:failing_call], path


def test_writer_child_that_exits_without_an_exception_is_one_line(tmp_path, capsys,
                                                                  monkeypatch):
    # the child exits with status 3 before writing and sends nothing; inline,
    # the same write_rows runs in this process and writes the snapshot
    import bifluid.csvout
    parent, write_rows = os.getpid(), bifluid.csvout.write_rows

    def exiting(fh, columns):
        if os.getpid() != parent:
            os._exit(3)
        write_rows(fh, columns)
    monkeypatch.setattr(bifluid.csvout, "write_rows", exiting)
    cfg = _write(tmp_path, "run.cfg", _STRESS_CFG)
    for path in _writer_paths():
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / path)])
        err = capsys.readouterr().err
        if path == "inline":
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, "error: snapshot writer exited with status 3\n")


@pytest.mark.parametrize("command", ["simulate-out-under-file", "sweep-out-under-file",
                                     "config-is-directory"])
def test_os_error_is_one_line(command, tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    regular = _write(tmp_path, "regular.txt", "not a directory\n")
    argv = {"simulate-out-under-file": ["simulate", "--config", cfg,
                                        "--out", f"{regular}/out"],
            "sweep-out-under-file": ["sweep", "--config", cfg,
                                     "--out", f"{regular}/sweep.csv"],
            "config-is-directory": ["simulate", "--config", str(tmp_path),
                                    "--out", str(tmp_path / "o")]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: [Errno ")


# numpy raises a MemoryError subclass with this text for an allocation it
# cannot make; a bare MemoryError has none
@pytest.mark.parametrize("exc, shown", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                 "and data type int64"),
     "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type int64"),
    (MemoryError(), "MemoryError"),
], ids=["numpy-message", "bare"])
def test_memory_error_is_one_line(exc, shown, tmp_path, capsys, monkeypatch):
    def no_memory(grid):
        raise exc
    monkeypatch.setattr(cli.Grid1D, "cell_centers", no_memory)
    cfg = _write(tmp_path, "run.cfg", BASE_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {shown}\n"
    assert not (tmp_path / "o").exists()
