"""Seeded workload generator.

Each workload is a fixed amount of work: the grid size, step count, output
stride and sweep grid counts never depend on the seed.  The seed varies only
the initial-condition amplitudes and phases (within ranges that keep the CFL
number and the densities well inside their limits) and the sweep theta
endpoints by a few percent.  The program under test receives only the
generated config files and command lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The gas pair of acceptance criterion 6.
K1, K2, CV1, CV2 = 1.0, 0.5, 1.5, 2.5
T_REF, RHO_REF = 300.0, 1.0
RHO1_BG, RHO2_BG = 1.0, 2.0
T1_BG, T2_BG = 300.0, 320.0          # T2 - T1 = 20 K
LAMBDA = 0.13

NAMES = ("acoustic-n128", "fielddump-n65536", "closure-algebra")


@dataclass
class Operation:
    """One cli.main call; ``files`` are the data files it must write."""

    kind: str
    argv: list[str]
    files: list[str]
    stdout_file: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    configs: dict[str, str]               # file name -> config text
    ops: list[Operation]
    setup_config: str                     # config parsed during set-up
    expect: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def _entropy(k: float, cv: float, rho: float, T: float) -> float:
    """Perfect-gas specific entropy with s_ref = 0 (the CLI default)."""
    return cv * math.log(T / T_REF) - k * math.log(rho / RHO_REF)


def _common_sections(n: int) -> str:
    return (f"[grid]\nn = {n}\nlength = 1.0\n\n"
            f"[gas1]\nk = {K1!r}\ncv = {CV1!r}\n\n"
            f"[gas2]\nk = {K2!r}\ncv = {CV2!r}\n\n")


def _simulate_config(rng: random.Random, n: int, dt: float, steps: int,
                     stride: int) -> tuple[str, dict]:
    s1 = _entropy(K1, CV1, RHO1_BG, T1_BG)
    s2 = _entropy(K2, CV2, RHO2_BG, T2_BG)
    # Amplitudes stay within +-20% of criterion 6's, so the CFL number moves
    # by under 0.1% and densities stay above 0.98 of their background.
    init = {
        "rho1": (RHO1_BG, 0.01 * rng.uniform(0.8, 1.2)),
        "rho2": (RHO2_BG, 0.02 * rng.uniform(0.8, 1.2)),
        "v1": (0.0, 0.002 * rng.uniform(0.8, 1.2)),
        "v2": (0.0, 0.002 * rng.uniform(0.8, 1.2)),
        "s1": (s1, 0.0),
        "s2": (s2, 0.0),
    }
    lines = [_common_sections(n),
             f"[closure]\nmode = fixed-lambda\nlambda = {LAMBDA!r}\n\n",
             f"[time]\ndt = {dt!r}\nt_end = {steps * dt!r}\n\n",
             "[init]\n"]
    phases = {}
    for name, (bg, amp) in init.items():
        lines.append(f"{name}_bg = {bg!r}\n")
        if amp:
            phases[name] = rng.uniform(0.0, 2.0 * math.pi)
            lines.append(f"{name}_amp = {amp!r}\n{name}_phase = {phases[name]!r}\n")
    lines.append(f"\n[output]\nstride = {stride}\n")
    inputs = {"n": n, "dt": dt, "steps": steps, "stride": stride,
              "lambda": LAMBDA, "T1": T1_BG, "T2": T2_BG,
              "amplitudes": {k: a for k, (_, a) in init.items() if a},
              "phases": phases}
    return "".join(lines), inputs


def _simulate(name: str, seed: int, n: int, dt: float, steps: int,
              stride: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    text, inputs = _simulate_config(rng, n, dt, steps, stride)
    rows = steps // stride + 1 + (1 if steps % stride else 0)
    op = Operation("simulate", ["simulate", "--config", "{dir}/run.cfg",
                                "--out", "{out}/sim"],
                   ["sim/snapshots.csv", "sim/diagnostics.csv"])
    return Workload(name, seed, {"run.cfg": text}, [op], "run.cfg",
                    expect={"n": n, "steps": steps, "rows": rows,
                            "sweep_points": 0},
                    inputs=inputs)


def _closure_algebra(seed: int) -> Workload:
    rng = random.Random(f"closure-algebra:{seed}")
    theta_min = -400.0 * rng.uniform(0.97, 1.03)
    theta_max = 400.0 * rng.uniform(0.97, 1.03)
    counts = {"theta": 41, "rho1": 21, "rho2": 21}
    text = (_common_sections(16)
            + "[time]\ndt = 1e-4\nt_end = 0.01\n\n[init]\n"
            + "".join(f"{f}_bg = {v!r}\n" for f, v in (
                ("rho1", RHO1_BG), ("rho2", RHO2_BG), ("v1", 0.0), ("v2", 0.0),
                ("s1", 0.0), ("s2", 0.0)))
            + f"\n[sweep]\ntheta_min = {theta_min!r}\ntheta_max = {theta_max!r}\n"
            + f"theta_count = {counts['theta']}\n"
            + "rho1_min = 0.5\nrho1_max = 2.0\n"
            + f"rho1_count = {counts['rho1']}\n"
            + "rho2_min = 0.5\nrho2_max = 2.0\n"
            + f"rho2_count = {counts['rho2']}\nT_background = 300.0\n")
    thermo = ["--k1", "1", "--k2", "0.5", "--cv1", "1.5", "--cv2", "2.5",
              "--rho1", "1", "--rho2", "2", "--T1", "300", "--T2", "320"]
    ops = [
        Operation("sweep", ["sweep", "--config", "{dir}/sweep.cfg",
                            "--out", "{out}/sweep.csv"], ["sweep.csv"]),
        Operation("identity-fd", ["verify-identity", "--suite", "sinusoidal",
                                  "--mode", "fd", "--refine", "2",
                                  "--out", "{out}/identity_fd.txt"],
                  ["identity_fd.txt"]),
        Operation("identity-analytic", ["verify-identity", "--suite", "sinusoidal",
                                        "--mode", "analytic",
                                        "--out", "{out}/identity_analytic.txt"],
                  ["identity_analytic.txt"]),
        Operation("thermo-eval", ["thermo-eval"] + thermo, ["thermo.txt"],
                  stdout_file="thermo.txt"),
    ]
    grid = counts["theta"] * counts["rho1"] * counts["rho2"]
    return Workload("closure-algebra", seed, {"sweep.cfg": text}, ops, "sweep.cfg",
                    expect={"n": 0, "steps": 0, "rows": 0, "sweep_points": grid},
                    inputs={"theta_range": [theta_min, theta_max], "counts": counts,
                            "rho_range": [0.5, 2.0], "T_background": 300.0,
                            "thermo_eval": thermo})


def make(name: str, seed: int) -> Workload:
    """Generate the named workload for ``seed``."""
    if name == "acoustic-n128":
        # Criterion 6's setup: CFL = 1e-4 * 22.4 * 128 = 0.29.
        return _simulate(name, seed, n=128, dt=1e-4, steps=500, stride=100)
    if name == "fielddump-n65536":
        # CFL = 2e-7 * 22.4 * 65536 = 0.29; every sixth step is written.
        return _simulate(name, seed, n=65536, dt=2e-7, steps=12, stride=6)
    if name == "closure-algebra":
        return _closure_algebra(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write(workload: Workload, directory: Path) -> None:
    """Write the workload's config files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for fname, text in workload.configs.items():
        (directory / fname).write_text(text)
