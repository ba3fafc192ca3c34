import dataclasses
import errno
import functools
import io
import math
import os
import re
import threading
import time
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


# 50 x 10 x 10 = 5,000 sweep points, a few of them skipped, written inline
MEMORY_SWEEP_CFG = BASE_CFG + """
[sweep]
theta_min = -420.0
theta_max = 420.0
theta_count = 50
rho1_min = 0.5
rho1_max = 2.0
rho1_count = 10
rho2_min = 0.5
rho2_max = 2.0
rho2_count = 10
"""
# the traced peak of sweeping MEMORY_SWEEP_CFG: 2.5 MiB measured while sweep
# keeps only the rows' float columns and skipped lines; holding one dict per
# row, as it once did, peaked at 6.0 MiB
SWEEP_PEAK_BOUND = 4.0 * 2**20


def test_sweep_memory_keeps_no_row_dicts(tmp_path):
    import tracemalloc
    cfg, out = _write(tmp_path, "sweep.cfg", MEMORY_SWEEP_CFG), tmp_path / "sweep.csv"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0      # loads the writer and its tables
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text().count("\n") == 1 + 5000
    assert 0 < out.read_text().count(",1,nonpositive") < 5000
    assert peak < SWEEP_PEAK_BOUND, f"{peak / 2**20:.2f} MiB"


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


def test_verify_identity_validates_its_inputs_once_per_process(capsys, monkeypatch):
    # each construction checks its derivatives; a second call reuses them,
    # and its report is the same as a fresh process's
    from bifluid import identity as ident
    checks, check = [], ident._check_derivatives

    def counted(label, *args, **kwargs):
        checks.append(label)
        return check(label, *args, **kwargs)
    monkeypatch.setattr(ident, "_check_derivatives", counted)
    # uncached: each call builds its own, as a fresh process does
    monkeypatch.setattr(cli, "_identity_inputs", cli._identity_inputs.__wrapped__)
    assert main(["verify-identity", "--suite", "sinusoidal", "--mode", "analytic"]) == 0
    fresh, built = capsys.readouterr().out, len(checks)
    assert built == 8 + 10      # 8 fields; e, b and their 4 partials each
    monkeypatch.setattr(cli, "_identity_inputs", functools.cache(cli._identity_inputs))
    for _ in range(2):
        assert main(["verify-identity", "--suite", "sinusoidal", "--mode", "analytic"]) == 0
        assert capsys.readouterr().out == fresh
    assert len(checks) == 2 * built


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


def _simulate_stderr(tmp_path, capsys, text):
    """Exit code, stderr and the warnings recorded of simulate on config text."""
    cfg = _write(tmp_path, "run.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


# a lambda of 1e12 drives T2 to 0 and T1 to inf, by exp's overflow, within step 1
STIFF_EXCHANGE_CFG = (BASE_CFG.replace("lambda = 0.0", "lambda = 1e12")
                      .replace("t_end = 0.002", "t_end = 1e-4")
                      .replace("rho1_bg = 1.0", "rho1_bg = 1.0\nrho1_amp = 0.01")
                      .replace("v1_bg = 0.0", "v1_bg = 0.0\nv1_amp = 0.5")
                      + "[output]\nstride = 1\n")


def test_overflow_within_a_step_is_one_error_line_and_no_warning(tmp_path, capsys):
    assert _simulate_stderr(tmp_path, capsys, STIFF_EXCHANGE_CFG) == (
        2, "error: aborted at t=0 (step 1): nonpositive temperature in rhs evaluation: "
           "T2 = 0.0 at cell 0\n", [])


def test_grid_too_long_for_the_energy_total_is_one_error_line(tmp_path, capsys):
    # dx = 3e304: the total energy, dx times a sum of order 1e4, overflows
    text = BASE_CFG.replace("length = 1.0", "length = 1e306")
    assert _simulate_stderr(tmp_path, capsys, text) == (
        2, "error: total_energy = inf: its sum over the grid, of length 1e+306, "
           "overflows\n", [])


def test_overflowing_t0_diagnostics_leave_no_output_directory(tmp_path, capsys):
    # simulate takes the t = 0 point, with its diagnostics, from trajectory
    # before it makes its output directory, so the run fails with none made
    text = BASE_CFG.replace("length = 1.0", "length = 1e306")
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: total_energy = inf: its sum over the grid, "
                                       "of length 1e+306, overflows\n")
    assert not (tmp_path / "o").exists()


# found by a seeded random config: step 2 leaves a finite entropy whose T2
# overflows to inf, which the snapshot after it used to write, with warnings
OVERFLOW_AFTER_STEP_CFG = """\
[grid]
n = 25
length = 394947.6370658457
[gas1]
k = 0.25047864557820393
cv = 0.13607797584488115
[gas2]
k = 7.744615158182474
cv = 0.5681892624487367
[closure]
mode = relaxation-M
M = 41244954.339034334
chi = 9722.249043247775
[time]
dt = 0.0009452741179931502
t_end = 0.007562192943945201
[init]
rho1_bg = 3.4052873123965552
rho1_amp = 0.00023917778052342682
rho2_bg = 0.18073610540601012
v1_bg = 0
v1_amp = 6.106654230438353
v2_bg = 0
s1_bg = 0.12761844429001004
s2_bg = 2.7055015384825487
[output]
stride = 1
"""


def test_snapshot_with_an_infinite_temperature_fails_the_step_in_one_line(tmp_path, capsys):
    assert _simulate_stderr(tmp_path, capsys, OVERFLOW_AFTER_STEP_CFG) == (
        2, "error: aborted at t=0.000945274 (step 2): infinite temperature: T2 = inf at cell 0\n",
        [])
    diag = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in diag[1:]] == ["0", "0.00094527411799315015"]


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
        _assert_no_child_left()
        assert threading.active_count() == threads, path


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    """Make every snapshot write append "pid t rows" to log, from whichever
    process writes it, and raise faults[t] instead of writing the rows at t.
    An empty part, which this process writes before a child writes a whole
    snapshot, is neither logged nor failed."""
    import bifluid.csvout
    write_rows, faults = bifluid.csvout.write_rows, {} if faults is None else faults

    def recording(fh, columns):
        # a snapshot's rows; diagnostics.csv gets a zip
        if isinstance(columns, tuple) and len(columns[1]):
            with open(log, "a") as rec:
                rec.write(f"{os.getpid()} {columns[0]!r} {len(columns[1])}\n")
            if columns[0] in faults:
                raise faults[columns[0]]
        write_rows(fh, columns)
    monkeypatch.setattr(bifluid.csvout, "write_rows", recording)


def _logged_writes(log):
    """(pid, t, rows) of each logged snapshot write, then clears the log."""
    lines = log.read_text().splitlines() if log.exists() else []
    log.unlink(missing_ok=True)
    return [(int(pid), float(t), int(rows)) for pid, t, rows in map(str.split, lines)]


# _STRESS_CFG's snapshot times, k dt as trajectory forms them
_STRESS_TIMES = [k * 4e-6 for k in range(13)]


def _written_times(path, count):
    """The t of each logged write of _STRESS_CFG's first count snapshots on
    path: overlapped, the last snapshot's two halves log it twice."""
    halves = path == "overlapped" and count == len(_STRESS_TIMES)
    return _STRESS_TIMES[:count] + _STRESS_TIMES[-1:] * halves


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
        assert [t for _, t, _ in writes] == _written_times(path, 13)
        if path == "inline":
            assert writes == [(os.getpid(), t, 2000) for t in _STRESS_TIMES]
        else:
            # each snapshot by its own child but the last, whose first half
            # this process writes while one more child formats the second;
            # the two halves are logged in either order
            *each, first, second = writes
            if first[0] != os.getpid():
                first, second = second, first
            assert [rows for _, _, rows in each] == [2000] * 12
            assert (first[0], first[2], second[2]) == (os.getpid(), 1000, 1000)
            children = [pid for pid, _, _ in each] + [second[0]]
            assert os.getpid() not in children and len(set(children)) == len(children)
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
# (13th) fails after the last step, in both of its halves when overlapped.  An
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
            assert [t for _, t, _ in _logged_writes(log)] == _written_times(path, failing_call), \
                path


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


# one step at n = OVERLAP_MIN_ROWS - 1, OVERLAP_MIN_ROWS and OVERLAP_MIN_ROWS + 1
# (CFL 0.29): a child writes the t = 0 snapshot from the threshold on, and
# the last snapshot goes in two halves, an odd row count split unevenly
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_last_snapshot_halves_match_inline_at_the_fork_threshold(offset, tmp_path, monkeypatch):
    n = cli.OVERLAP_MIN_ROWS + offset
    text = (BASE_CFG.replace("n = 32", f"n = {n}").replace("dt = 1e-4", "dt = 8e-7")
            .replace("t_end = 0.002", "t_end = 8e-7")
            .replace("v1_bg = 0.0", "v1_bg = 0.0\nv1_amp = 0.002")) + "[output]\nstride = 1\n"
    cfg, log = _write(tmp_path, "run.cfg", text), tmp_path / "writes.log"
    _record_writes(monkeypatch, log)
    written = {}
    for path in ("inline", "two CPUs"):
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_cpu_count", lambda: 1 if path == "inline" else 2)
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / path)]) == 0
        written[path] = (tmp_path / path / "snapshots.csv").read_bytes()
        writes = _logged_writes(log)
        if path == "inline" or offset < 0:
            assert writes == [(os.getpid(), 0.0, n), (os.getpid(), 8e-7, n)]
        else:
            (t0_pid, _, _), first, second = writes
            if first[0] != os.getpid():     # the halves are logged in either order
                first, second = second, first
            assert first == (os.getpid(), 8e-7, n // 2)
            assert second[1:] == (8e-7, n - n // 2)
            assert os.getpid() not in (t0_pid, second[0]) and t0_pid != second[0]
        _assert_no_child_left()
    assert written["two CPUs"].count(b"\n") == 1 + 2 * n
    assert written["two CPUs"] == written["inline"]


def _write_in_halves(write, fh, first, second):
    """cli._write_forked's write of a table in two halves, with its child reaped."""
    cli._wait_for_child(cli._write_forked(write, fh, first, second))
    _assert_no_child_left()


def _snapshot_split(rows, half):
    """A snapshot of rows rows, as its halves at half, and its inline bytes after a header."""
    # a scalar t, exact zeros, negative values and values of either notation
    from bifluid.csvout import write_rows
    x = np.linspace(-3.0, 3.0, rows)
    columns = (2.5e-7, x, x**3 * 1e-5, np.zeros(rows), np.exp(7 * x) - 1.0)
    inline = io.BytesIO(b"header\n")
    inline.seek(0, io.SEEK_END)
    write_rows(inline, columns)
    return ((columns[0], *(c[:half] for c in columns[1:])),
            (columns[0], *(c[half:] for c in columns[1:])), inline.getvalue())


@pytest.mark.parametrize("rows", [1, 2, 3, 257, 4099])
def test_write_in_halves_matches_write_rows(rows, tmp_path):
    # over an odd or even row count; a header still in fh's buffer goes first
    from bifluid.csvout import write_rows
    first, second, inline = _snapshot_split(rows, rows // 2)
    with open(tmp_path / "halves.csv", "wb") as fh:
        fh.write(b"header\n")
        _write_in_halves(write_rows, fh, first, second)
    assert (tmp_path / "halves.csv").read_bytes() == inline


@pytest.mark.parametrize("empty", ["first", "second"])
def test_write_forked_with_an_empty_part_matches_write_rows(empty, tmp_path):
    # an empty first part is simulate's snapshot before the last one: the
    # child writes the whole table
    from bifluid.csvout import CHUNK_ROWS, write_rows
    parent, rows, log = os.getpid(), 2 * CHUNK_ROWS + 3, tmp_path / "writes.log"
    half = 0 if empty == "first" else rows
    first, second, inline = _snapshot_split(rows, half)

    def write(fh, columns):     # logs "child rows" from whichever process writes
        with open(log, "a") as rec:
            rec.write(f"{int(os.getpid() != parent)} {len(columns[1])}\n")
        write_rows(fh, columns)
    with open(tmp_path / "parts.csv", "wb") as fh:
        fh.write(b"header\n")
        _write_in_halves(write, fh, first, second)
    assert (tmp_path / "parts.csv").read_bytes() == inline
    assert sorted(log.read_text().splitlines()) == [f"0 {half}", f"1 {rows - half}"]


def test_write_forked_child_holds_its_bytes_until_the_go_byte(tmp_path):
    # this process writes its part only once the child has formatted all of
    # its own: until then the file must hold nothing of the child's
    parent, path, done = os.getpid(), tmp_path / "t.csv", tmp_path / "child-done"

    def write(fh, part):
        if os.getpid() != parent:
            fh.write(part[:3])
            fh.write(part[3:])
            done.touch()
            return
        for _ in range(10000):      # at most 10 s
            if done.exists():
                break
            time.sleep(0.001)
        assert done.exists() and path.read_bytes() == b"header\n"
        fh.write(part)
    with open(path, "wb") as fh:
        fh.write(b"header\n")
        _write_in_halves(write, fh, b"first\n", b"second\n")
    assert path.read_bytes() == b"header\nfirst\nsecond\n"


def test_held_chunks_go_out_on_the_go_byte_and_later_ones_stream():
    # the go byte comes during the writes, or only at the child's last,
    # blocking write of nothing
    for go_during_writes in (True, False):
        go_read, go_write = os.pipe()
        try:
            fh = io.BytesIO()
            out = cli._HeldUntilGo(fh, go_read)
            chunk = bytearray(b"a")
            out.write(chunk)
            chunk[0] = ord("z")     # the held chunk is a copy
            out.write(b"b")
            assert fh.getvalue() == b""
            os.write(go_write, b"\1")
            if go_during_writes:
                out.write(b"c")
                assert fh.getvalue() == b"abc"
                out.write(b"d")
                assert fh.getvalue() == b"abcd"
            os.set_blocking(go_read, True)
            out.write(b"")
            assert fh.getvalue() == (b"abcd" if go_during_writes else b"ab")
        finally:
            os.close(go_read)
            os.close(go_write)


# theta = -700 and 700 K over 6 (rho1, rho2) lines: 12 rows, of which 8 are
# skipped, so that each half, rows 0-5 and 6-11, starts and ends with a skipped row
HALVES_SWEEP_CFG = BASE_CFG + """
[sweep]
theta_min = -700.0
theta_max = 700.0
theta_count = 2
rho1_min = 0.5
rho1_max = 2.0
rho1_count = 2
rho2_min = 0.25
rho2_max = 2.0
rho2_count = 3
T_background = 300.0
"""


def test_sweep_halves_match_inline_with_skipped_rows_at_the_edges(tmp_path, caplog,
                                                                   monkeypatch):
    cfg = parse_config(HALVES_SWEEP_CFG)
    rows = swp.run_sweep(cfg.sweep_spec, {"pair": cfg.model})
    assert [i for i, row in enumerate(rows) if row["skipped"]] == [0, 1, 3, 5, 6, 8, 9, 11]
    expected = _reference_sweep_csv(rows).encode()
    # each call of the sweep's row writer logs "pid rows"
    write_sweep_rows, log = cli._write_sweep_rows, tmp_path / "writes.log"

    def recording(fh, part):
        with open(log, "a") as rec:
            rec.write(f"{os.getpid()} {len(part[0])}\n")
        write_sweep_rows(fh, part)
    monkeypatch.setattr(cli, "_write_sweep_rows", recording)

    warnings_of = {}
    for path in _writer_paths():
        out = tmp_path / f"{path}.csv"
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(["sweep", "--config", _write(tmp_path, "sweep.cfg", HALVES_SWEEP_CFG),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == expected, path
        warnings_of[path] = [rec.getMessage() for rec in caplog.records]
        writes = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        log.unlink()
        if path == "inline":
            assert writes == [(os.getpid(), 12)]
        else:
            assert [rows for _, rows in writes] == [6, 6] and os.getpid() in dict(writes)
            assert writes[0][0] != writes[1][0]
    assert warnings_of["overlapped"] == warnings_of["inline"]
    assert len(warnings_of["inline"]) == 8

    # every split, the empty halves too
    part = cli._sweep_columns(rows)
    for half in range(len(rows) + 1):
        with open(tmp_path / "split.csv", "wb") as fh:
            fh.write(SWEEP_HEADER.encode() + b"\n")
            _write_in_halves(write_sweep_rows, fh, *cli._split_sweep(part, half))
        assert (tmp_path / "split.csv").read_bytes() == expected, half


def _halves_writer(parent_exc=None, child_exc=None):
    """A write for _write_forked that raises parent_exc in this process's
    half and child_exc in the child's, each where given."""
    parent = os.getpid()

    def write(fh, part):
        exc = parent_exc if os.getpid() == parent else child_exc
        if exc is not None:
            raise exc
        fh.write(part)
    return write


@pytest.mark.parametrize("exc", [ValueError("cannot format the second half"),
                                 OSError(errno.ENOSPC, "No space left on device")],
                         ids=["ValueError", "OSError"])
def test_write_in_halves_raises_the_childs_error_unchanged(exc, tmp_path):
    with open(tmp_path / "t.csv", "wb") as fh:
        child = cli._write_forked(_halves_writer(child_exc=exc), fh, b"first\n", b"second\n")
        with pytest.raises(type(exc)) as raised:
            cli._wait_for_child(child)
    _assert_no_child_left()
    assert raised.value.args == exc.args and raised.value is not exc
    # this process wrote its half; the child wrote nothing
    assert (tmp_path / "t.csv").read_bytes() == b"first\n"


def test_write_in_halves_reaps_the_child_when_its_own_half_fails(tmp_path):
    # this process's error is raised, also when the child's half fails too
    exc = ValueError("cannot format the first half")
    for child_exc in (None, RuntimeError("cannot format the second half")):
        with open(tmp_path / "t.csv", "wb") as fh:
            with pytest.raises(ValueError) as raised:
                cli._write_forked(_halves_writer(exc, child_exc), fh, b"first\n", b"second\n")
        _assert_no_child_left()
        assert raised.value is exc
        # the child read EOF in place of the go byte, or failed, and wrote nothing
        assert (tmp_path / "t.csv").read_bytes() == b""


def test_write_in_halves_writes_inline_when_no_child_can_be_forked(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    parent, pids = os.getpid(), []

    def write(fh, part):
        pids.append(os.getpid())
        fh.write(part)
    with open(tmp_path / "t.csv", "wb") as fh:
        assert cli._write_forked(write, fh, b"first\n", b"second\n") is None
    assert (tmp_path / "t.csv").read_bytes() == b"first\nsecond\n"
    assert pids == [parent, parent]
    _assert_no_child_left()


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
