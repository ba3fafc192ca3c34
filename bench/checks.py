"""Output checks for each operation.

Every check holds on the seed code and none depends on bit-exact numerics,
so a change that only reorders floating-point work still passes.  Each
function returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import CV1, CV2

ENTROPY_RTOL = 1e-12        # criterion 6: diff(S) >= -1e-12 |S0|
# Criterion 6 allows 1e-13 relative mass drift over 1,000 steps; round-off
# grows with the step count (1.85e-13 after 3,000 steps at n = 128).
MASS_RTOL_PER_1000_STEPS = 1e-13
PI_RTOL = 1e-12             # |pi_state - pi_formula| / (rho1 T1 + rho2 T2)
IDENTITY_RTOL = 1e-10       # analytic residual_max / term_magnitude
FD_ORDER, FD_ORDER_TOL = 2.0, 0.2
THERMO_RTOL = 1e-10         # p_stress1 + p_stress2 = p


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _key_values(path: Path) -> dict[str, float]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, val = line.strip().partition("=")
        if sep:
            try:
                out[key] = float(val)
            except ValueError:
                pass
    return out


def check_simulate(expect: dict, files: list[Path]) -> list[str]:
    snap_path, diag_path = files
    problems = []
    header, snap = _read_table(snap_path)
    n, rows = expect["n"], expect["rows"]
    if snap.shape != (rows * n, len(header)):
        problems.append(f"snapshots: shape {snap.shape}, expected "
                        f"({rows * n}, {len(header)})")
    if not np.all(np.isfinite(snap)):
        problems.append("snapshots: non-finite values")
    for name in ("T1", "T2"):
        if name not in header:
            problems.append(f"snapshots: no {name} column")
        elif not np.all(snap[:, header.index(name)] > 0):
            problems.append(f"snapshots: nonpositive {name}")

    dheader, diag = _read_table(diag_path)
    if diag.shape != (rows, len(dheader)):
        problems.append(f"diagnostics: shape {diag.shape}, expected ({rows}, {len(dheader)})")
        return problems
    if not np.all(np.isfinite(diag)):
        problems.append("diagnostics: non-finite values")
    S = diag[:, dheader.index("entropy")]
    if not np.all(np.diff(S) >= -ENTROPY_RTOL * abs(S[0])):
        problems.append(f"diagnostics: entropy decreases, min diff {np.min(np.diff(S)):.3e}")
    mass_tol = MASS_RTOL_PER_1000_STEPS * max(1.0, expect["steps"] / 1000)
    for name in ("mass1", "mass2"):
        m = diag[:, dheader.index(name)]
        drift = abs(m[-1] - m[0]) / abs(m[0])
        if not drift <= mass_tol:
            problems.append(f"diagnostics: {name} drift {drift:.3e} > {mass_tol:.1e}")
    return problems


def check_sweep(expect: dict, files: list[Path]) -> list[str]:
    with open(files[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expect["sweep_points"]:
        problems.append(f"sweep: {len(rows)} rows, expected {expect['sweep_points']}")
    wrong_skip = bad_pi = 0
    for row in rows:
        rho1, rho2, theta = float(row["rho1"]), float(row["rho2"]), float(row["theta"])
        T_bg = float(row["T_background"])
        beta = -rho2 * CV2 / (rho1 * CV1 + rho2 * CV2)
        T1, T2 = T_bg + beta * theta, T_bg + (1.0 + beta) * theta
        should_skip = T1 <= 0 or T2 <= 0
        if should_skip != (row["skipped"] == "1"):
            wrong_skip += 1
            continue
        if should_skip:
            continue
        pi_state, pi_formula = float(row["pi_state"]), float(row["pi_formula"])
        scale = rho1 * T1 + rho2 * T2
        if not (math.isfinite(pi_state) and abs(pi_state - pi_formula) <= PI_RTOL * scale):
            bad_pi += 1
    if wrong_skip:
        problems.append(f"sweep: {wrong_skip} rows skipped where the split is valid or the reverse")
    if bad_pi:
        problems.append(f"sweep: {bad_pi} rows with pi_state != pi_formula")
    return problems


def check_identity_fd(expect: dict, files: list[Path]) -> list[str]:
    order = _key_values(files[0]).get("convergence_order", math.nan)
    if not abs(order - FD_ORDER) <= FD_ORDER_TOL:
        return [f"identity fd: convergence_order {order}, expected {FD_ORDER} +- {FD_ORDER_TOL}"]
    return []


def check_identity_analytic(expect: dict, files: list[Path]) -> list[str]:
    kv = _key_values(files[0])
    res, mag = kv.get("residual_max", math.nan), kv.get("term_magnitude", math.nan)
    if not res <= IDENTITY_RTOL * mag:
        return [f"identity analytic: residual_max {res} > {IDENTITY_RTOL} * {mag}"]
    return []


def check_thermo(expect: dict, files: list[Path]) -> list[str]:
    kv = _key_values(files[0])
    try:
        total, p = kv["p_stress1"] + kv["p_stress2"], kv["p"]
    except KeyError as exc:
        return [f"thermo-eval: missing {exc}"]
    if not abs(total - p) <= THERMO_RTOL * abs(p):
        return [f"thermo-eval: p_stress1 + p_stress2 = {total} != p = {p}"]
    return []


CHECKS = {
    "simulate": check_simulate,
    "sweep": check_sweep,
    "identity-fd": check_identity_fd,
    "identity-analytic": check_identity_analytic,
    "thermo-eval": check_thermo,
}
