#!/usr/bin/env python3
"""Paired benchmark runs of a base revision and a change, written as one JSON record.

Run from the repository root (``--pairs 0`` times only the layer cases):

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 8 --out BENCH_N.json

Each side's ``src/`` and ``bench/`` are unpacked with ``git archive`` (the
change is HEAD).  Pair i runs each side's ``bench/run.py --trace 0`` back
to back with seed ``--first-seed + i``, the base first for even i, for one
workload (``--workload``) or each in turn.  A run's value of an end-to-end
metric of BENCHMARK.json is run.py's median over its processes; the record
gives each side's runs, median and inclusive quartiles, the relative
difference of medians, and the change's wins and losses.

Then the layer cases, one SSP-RK3 ``step``, ``rhs``, ``diagnostics`` and
``write_rows`` of a 15-column snapshot (to the null device) at n = 128 to
65,536, are timed in this interpreter, each tree's ``src/bifluid`` imported
as a package of its own name.  BLOCKS blocks per case alternate the sides
as the pairs do.  In each, a side builds the inputs anew (inputs built once
keep one memory layout, and identical trees then read 2-5 % apart), calls
once untimed, then times at least 3 calls, about BLOCK_S seconds; their
median, which a stray interruption does not move, is the block's value.
The record keeps each side's median and minimum over the blocks.  The trees
share numpy and keep their own module caches; a tree whose import has side
effects outside its package is not supported.

Each pair and block also runs an A/A control after the claim's: the parent
against a second unpack of itself, recorded as ``control``.  Each end-to-end
metric and layer case is marked ``resolved`` "gain" or "loss" only if it
passes ``_resolved``'s three tests, else "unresolved".
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_outputs import _unpack_src  # noqa: E402

# the share of pairs a resolved difference wins (or loses): 9 of 10
RESOLVED_WINS = 0.9
# the layer cases and their sizes; BLOCKS blocks per case, each about BLOCK_S
# seconds of calls per side
LAYER_CASES = ("step", "rhs", "diagnostics", "write_rows")
LAYER_SIZES = (128, 1024, 8192, 65536)
BLOCKS, BLOCK_S = 30, 0.05
# the side pairs that each pair and block runs: the claim's, then the control's
COMPARISONS = {"claim": ("parent", "change"), "control": ("parent", "control")}


def _alternate(count: int, run) -> dict:
    """runs[kind][side]: run(side, i) in block i of count, COMPARISONS' pairs in turn."""
    runs = {kind: {side: [] for side in pair} for kind, pair in COMPARISONS.items()}
    for i in range(count):
        for kind, pair in COMPARISONS.items():
            for side in (pair if i % 2 == 0 else pair[::-1]):
                runs[kind][side].append(run(side, i))
    return runs


def _load(src: Path, name: str):
    """The package src/bifluid, imported as name with submodules of its own."""
    path = src / "bifluid"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def _layer_call(b, case: str, n: int, null):
    """One call of the layer case in the package b at n cells, on inputs built anew;
    the snapshot is simulate's: t, x, the six state rows and 7 diagnostic fields."""
    model = b.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
    init = b.InitialConditions(
        b.FieldInit(1.0, 0.01), b.FieldInit(2.0, 0.02), b.FieldInit(0.0, 0.002),
        b.FieldInit(0.0, 0.002), *(b.FieldInit(float(b.entropy_from_temperature(
            model, gas, rho, T))) for gas, rho, T in ((1, 1.0, 300.0), (2, 2.0, 320.0))))
    sc = b.Scenario(b.Grid1D(n, 1.0), model, b.ClosureParams(lam=0.13, chi=0.5), init,
                    dt=0.0128 / n, t_end=0.128 / n)
    state = sc.initial_state
    if case == "write_rows":
        d = b.diagnostics(state, model)
        return partial(importlib.import_module(f"{b.__name__}.csvout").write_rows, null,
                       (0.0, sc.grid.cell_centers(), *state.packed, d.T1, d.T2, d.T_avg,
                        d.p, d.p0, d.pi_field, d.divv_field))
    return {"step": partial(b.step, state, sc),
            "rhs": partial(b.rhs, state.packed, model, sc.closure, sc.grid, sc._workspace),
            "diagnostics": partial(b.diagnostics, state, model)}[case]


def _layer(packages: dict, case: str, n: int, null) -> dict:
    """The record of one layer case at n cells, from BLOCKS blocks of calls."""
    number = max(3, round(BLOCK_S / min(timeit.repeat(
        _layer_call(packages["parent"], case, n, null), number=1, repeat=2))))

    def block(side, i):
        call = _layer_call(packages[side], case, n, null)
        call()
        return statistics.median(timeit.repeat(call, number=1, repeat=number))
    runs = _alternate(BLOCKS, block)
    claim, control = (_compare(*(runs[kind][side] for side in pair), "lower")
                      for kind, pair in COMPARISONS.items())
    claim["resolved"] = _resolved(claim, control)
    for c in (claim, control):      # each side's median and minimum, not its runs
        c.update({side: {"median": c[side]["median"], "min": min(c[side]["runs"])}
                  for side in ("parent", "change")})
    return {"calls": number, **claim, "control": control}


def _summary(values: list[float]) -> dict:
    return {"runs": values, "median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4, method="inclusive")}


def _compare(base: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    return {"parent": _summary(base), "change": _summary(change),
            "change_over_parent": med_c / med_b - 1.0 if med_b else 0.0,
            "wins": f"{wins}/{len(base)}", "losses": f"{losses}/{len(base)}"}


def _resolved(claim: dict, control: dict) -> str:
    """"gain" or "loss" if the claim's difference is resolved, else "unresolved".

    Resolved: the change wins (or loses) at least RESOLVED_WINS of the pairs,
    its median differs from the parent's by more than the parent's IQR, and its
    relative difference exceeds the A/A control's (identical trees can win 9/10).
    """
    q1, _, q3 = claim["parent"]["quartiles"]
    spread = abs(claim["change"]["median"] - claim["parent"]["median"]) > q3 - q1
    beyond = abs(claim["change_over_parent"]) > abs(control["change_over_parent"])
    for side in ("wins", "losses"):
        count, pairs = map(int, claim[side].split("/"))
        if count >= RESOLVED_WINS * pairs and spread and beyond:
            return "gain" if side == "wins" else "loss"
    return "unresolved"


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: bench/run.py in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} {tree.name}: wall_s "
          f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
    return result


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", help="one workload of bench/workloads.py; all by default")
    ap.add_argument("--seconds", type=float, default=8.0, help="bench/run.py --seconds")
    ap.add_argument("--first-seed", type=int, default=101, help="seed of pair 0")
    ap.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = ap.parse_args(argv)
    if args.pairs < 0:
        ap.error("--pairs must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    names = names if args.pairs else []     # --pairs 0: the layer cases only
    seeds = [args.first_seed + i for i in range(args.pairs)]
    revs = {side: _git("rev-parse", "--short", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.base), ("change", "HEAD"))}
    record = {
        "change": _git("log", "-1", "--format=%s", revs["change"]), "parent": revs["parent"],
        "change_tree": ", ".join(f"{path}/ tree " + _git("rev-parse", "--short",
                                                         f"{revs['change']}:{path}")
                                 for path in ("src", "bench")),
        "method": {
            "command": f"python3 bench/run.py --workload <name> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0",
            "pairs": args.pairs, "seeds": seeds,
            "order": "pair i runs both sides back to back, parent first for even i; one "
                     f"workload series after another, in the order {', '.join(names)}",
            "statistic": "a run's value is run.py's median over its processes; median and "
                         "inclusive quartiles over runs; a win (loss): the change reads better "
                         "(worse)",
            "resolved": f"gain (loss) if the change wins (loses) at least {RESOLVED_WINS:.0%} "
                        "of the pairs, its median differs from the parent's by more than the "
                        "parent's interquartile range, and its relative difference is larger "
                        "than the control's; else unresolved",
            "layers": f"{BLOCKS} blocks per case, ordered as pairs; in each, a side builds "
                      "the inputs, calls once untimed and times 'calls' calls (about "
                      f"{BLOCK_S:g} s); a block's value is their median time, in s",
            "control": "each pair and block also ran the parent against a second archive "
                       "of itself, after the claim's; a control entry's 'change' is that",
        },
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count()},
        "workloads": {},
    }
    unpack = {**revs, "control": revs["parent"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in unpack}
        for side, rev in unpack.items():
            _unpack_src(rev, trees[side], ("src", "bench"))
        for name in names:
            runs = _alternate(args.pairs, lambda side, i: _bench(trees[side], name, seeds[i],
                                                                 args.seconds))
            claim, control = ({"metrics": {m["name"]: {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **_compare(*([r["metrics"][m["name"]]["value"] for r in runs[kind][side]]
                             for side in pair), m["better"])} for m in spec["end_to_end"]},
                "correct": all(r["correct"] for rs in runs[kind].values() for r in rs)}
                for kind, pair in COMPARISONS.items())
            for m, c in claim["metrics"].items():
                c["resolved"] = _resolved(c, control["metrics"][m])
            record["workloads"][name] = {**claim, "control": control}
        packages = {side: _load(tree / "src", f"bifluid_{side}") for side, tree in trees.items()}
        with open(os.devnull, "wb") as null:
            record["layers"] = {f"{case} n={n}": _layer(packages, case, n, null)
                                for n in LAYER_SIZES for case in LAYER_CASES}
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    def line(c, unit, scale):
        return (f"{c['parent']['median'] * scale:.4g} -> {c['change']['median'] * scale:.4g} "
                f"{unit} ({c['change_over_parent']:+.1%}), wins {c['wins']}")
    for name, wl in record["workloads"].items():
        print(f"{name}: correct {wl['correct']}")
        for m, c in wl["metrics"].items():
            print(f"  {m} median {line(c, c['unit'], 1)}: {c['resolved']}")
            print(f"    control: {line(wl['control']['metrics'][m], c['unit'], 1)}")
    for case, c in record["layers"].items():
        print(f"{case}: {line(c, 'us', 1e6)}: {c['resolved']}")
        print(f"  control: {line(c['control'], 'us', 1e6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
