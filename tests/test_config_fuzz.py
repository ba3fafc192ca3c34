"""Random simulate configs through cli.main: each either runs or fails in error: lines alone.

A fixed seed draws CONFIGS configs of at most 32 cells and 12 steps.  Values
are log-uniform over a plausible range, and with a small chance each is 0,
negative, infinite, nan or of magnitude 1e300 or 1e-300; a few configs drop
a key or add an unknown one.  t_end is a whole number of steps of dt (or,
now and then, off the dt grid), so no draw runs more than 12 steps.  Each
run must end one of two ways, with no warning either way:

- exit 0, with every diagnostics value finite and nothing on stderr; or
- exit 1 or 2, with only ``error:`` lines on stderr.
"""

import math
import warnings

import numpy as np
import pytest

from bifluid.cli import main
from test_cli import BASE_CFG

SEED, CONFIGS = 20261020, 300
SPECIAL = (0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300)


def _value(rng, lo, hi, special=0.015):
    """Log-uniform on [lo, hi]; with probability special, one of SPECIAL."""
    if rng.random() < special:
        return SPECIAL[rng.integers(len(SPECIAL))]
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _signed(rng, lo, hi):
    """_value with a random sign, or 0 a quarter of the time."""
    return 0.0 if rng.random() < 0.25 else _value(rng, lo, hi) * (1.0 - 2.0 * (rng.random() < 0.5))


def _config(rng) -> str:
    sections = {
        "grid": {"n": int(rng.integers(1, 33)) if rng.random() > 0.03
                 else int(rng.integers(-2, 1)),
                 "length": _value(rng, 1e-2, 1e2)},
        "gas1": {"k": _value(rng, 0.1, 10.0), "cv": _value(rng, 0.1, 10.0)},
        "gas2": {"k": _value(rng, 0.1, 10.0), "cv": _value(rng, 0.1, 10.0)},
        "closure": {}, "time": {}, "init": {}, "output": {},
    }
    closure = sections["closure"]
    if rng.random() < 0.5:
        closure["mode"] = "fixed-lambda"
        if rng.random() < 0.7:
            closure["lambda"] = _value(rng, 1e-3, 1e2)
    else:
        closure["mode"] = "relaxation-M"
        if rng.random() < 0.7:
            closure["M"] = _value(rng, 1e-4, 1e2)
    if rng.random() < 0.5:
        closure["chi"] = _value(rng, 1e-2, 1e4)
    if rng.random() < 0.1:
        closure["epsilon_T"] = _value(rng, 1e-8, 1.0)
    if rng.random() < 0.05:
        closure["slaving"] = "on"

    init = sections["init"]
    for name, lo, hi in (("rho1", 0.1, 10.0), ("rho2", 0.1, 10.0), ("v1", 1e-3, 10.0),
                         ("v2", 1e-3, 10.0), ("s1", 1e-2, 3.0), ("s2", 1e-2, 3.0)):
        bg = _value(rng, lo, hi) if name.startswith("rho") else _signed(rng, lo, hi)
        init[f"{name}_bg"] = bg
        if rng.random() < 0.5:
            init[f"{name}_amp"] = _value(rng, 1e-4, 1.0) * (abs(bg) if abs(bg) > 0 else 1.0)
            init[f"{name}_mode"] = int(rng.integers(0, 4))
            init[f"{name}_phase"] = float(rng.uniform(0.0, 2 * math.pi))

    time = sections["time"]
    dt, steps = _value(rng, 1e-6, 1e-2), int(rng.integers(1, 13))
    time["dt"] = dt
    time["t_end"] = (steps + (0.5 if rng.random() < 0.05 else 0.0)) * dt
    if rng.random() < 0.2:
        time["cfl"] = _value(rng, 0.05, 1.5)
    sections["output"]["stride"] = int(rng.integers(1, 7)) if rng.random() > 0.03 else 0

    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}"
                     for key, val in keys.items())
    if rng.random() < 0.03:
        del lines[rng.integers(len(lines))]
    if rng.random() < 0.03:
        lines.append("unknown_key = 1")
    return "\n".join(lines) + "\n"


def _run(tmp_path, name, text):
    """Exit code, stderr lines and warnings of simulate on config text."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])
    return code, [str(w.message) for w in caught]


def _check(tmp_path, capsys, name, text):
    code, caught = _run(tmp_path, name, text)
    err = capsys.readouterr().err.splitlines()
    assert not caught, (text, code, err, caught)
    if code == 0:
        assert not err, (text, err)
        rows = (tmp_path / name / "diagnostics.csv").read_text().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
        assert rows and all(map(math.isfinite, values)), (text, rows)
    else:
        assert code in (1, 2), (text, code, err)
        assert err and all(line.startswith("error: ") for line in err), (text, code, err)
    return code, err


def test_random_configs_run_or_fail_in_error_lines_alone(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    codes = [_check(tmp_path, capsys, f"c{i}", _config(rng))[0] for i in range(CONFIGS)]
    # the draw reaches all three ends
    assert {0, 1, 2} <= set(codes)


@pytest.mark.parametrize("edit, code, shown", [
    # a drag of 1e308 overshoots in the first stage of step 1
    ((("lambda = 0.0", "lambda = 0.0\nchi = 1e308"),
      ("v1_bg = 0.0", "v1_bg = 0.0\nv1_amp = 0.5")), 2,
     "error: aborted at t=0 (step 1): positivity violation during step: nonpositive density: "
     "rho2 = -7.877591125214118e+299 at cell 0"),
    # configparser's message spans three lines
    ((("[grid]", "n = 6\n[grid]"),), 1,
     "error: config: syntax: File contains no section headers. file: '<string>', line: 1 "
     "'n = 6\\n'"),
    # rho v^2 overflows in the t = 0 diagnostics, in every cell; it used to
    # warn in np.square
    ((("length = 1.0", "length = 1e300"), ("v1_bg = 0.0", "v1_bg = 1e300")), 2,
     "error: total_energy = inf: its integrand is not finite: energy density = inf at cell 0"),
    # rho2 cv2 overflows in the weights of T_avg and in the energy density, in
    # every cell; it used to warn in multiply and divide
    ((("cv = 2.5", "cv = 1e300"), ("rho2_bg = 2.0", "rho2_bg = 1e300")), 2,
     "error: total_energy = inf: its integrand is not finite: energy density = inf at cell 0"),
    # dt = 1e6 passes the CFL check on cells of 3e8; the drag's rate 1e303 is
    # finite, but dt times it overflows in the first stage of step 1, and the
    # step's inf - inf makes nan, which the new state's finiteness check names
    ((("length = 1.0", "length = 1e10"), ("dt = 1e-4", "dt = 1e6"),
      ("t_end = 0.002", "t_end = 2e6"), ("lambda = 0.0", "lambda = 0.0\nchi = 1e303"),
      ("v2_bg = 0.0", "v2_bg = 1.0")), 2,
     "error: aborted at t=0 (step 1): positivity violation during step: rho1: field contains "
     "non-finite entries: rho1 = nan at cell 0"),
], ids=["chi-1e308", "syntax-no-section", "kinetic-overflow", "rho-cv-overflow",
        "dt-product-overflow"])
def test_named_config_fails_in_one_line(edit, code, shown, tmp_path, capsys):
    text = BASE_CFG
    for old, new in edit:
        assert old in text
        text = text.replace(old, new)
    assert _check(tmp_path, capsys, "o", text) == (code, [shown])
