"""Random thermo-eval flag sets through cli.main: each prints finite values or fails in error: lines.

A fixed seed draws FLAG_SETS flag sets: the eight state flags, and each of
the three reference flags half of the time.  Values are log-uniform over a
wide range, s_ref with a random sign, and with a small chance each is 0, -1,
infinite, nan or of magnitude 1e300 or 1e-300; every value goes as
``--flag=value``, so a negative one is not taken for an option.  Each run
must end one of two ways, with no warning either way:

- exit 0, with every printed value finite and nothing on stderr; or
- exit 1 or 2, with only ``error:`` lines on stderr.
"""

import math
import warnings

import numpy as np

from bifluid.cli import main

SEED, FLAG_SETS = 20261022, 300
SPECIAL = (0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e-300)
# each flag's log-uniform range
RANGES = {"k1": (1e-3, 1e3), "k2": (1e-3, 1e3), "cv1": (1e-3, 1e3), "cv2": (1e-3, 1e3),
          "rho1": (1e-6, 1e6), "rho2": (1e-6, 1e6), "T1": (1e-3, 1e6), "T2": (1e-3, 1e6)}
REFERENCE = {"T_ref": (1e-3, 1e6), "rho_ref": (1e-6, 1e6), "s_ref": (1e-3, 1e3)}


def _value(rng, lo, hi, special=0.03):
    """Log-uniform on [lo, hi]; with probability special, one of SPECIAL."""
    if rng.random() < special:
        return SPECIAL[rng.integers(len(SPECIAL))]
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _argv(rng) -> list[str]:
    values = {flag: _value(rng, *span) for flag, span in RANGES.items()}
    for flag, span in REFERENCE.items():
        if rng.random() < 0.5:
            sign = -1.0 if flag == "s_ref" and rng.random() < 0.5 else 1.0
            values[flag] = sign * _value(rng, *span)
    return ["thermo-eval"] + [f"--{flag}={val!r}" for flag, val in values.items()]


def test_random_flag_sets_print_finite_values_or_fail_in_error_lines(capsys):
    rng = np.random.default_rng(SEED)
    codes = []
    for _ in range(FLAG_SETS):
        argv = _argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert not caught, (argv, code, err, [str(w.message) for w in caught])
        if code == 0:
            assert not err, (argv, err)
            values = [float(line.split("=", 1)[1]) for line in out.splitlines()]
            assert len(values) == 17 and all(map(math.isfinite, values)), (argv, out)
        else:
            assert code in (1, 2), (argv, code, err)
            assert out == "", (argv, out)
            assert err and all(line.startswith("error: ")
                               for line in err.splitlines()), (argv, code, err)
        codes.append(code)
    # the draw reaches all three ends
    assert {0, 1, 2} <= set(codes)
