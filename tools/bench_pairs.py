#!/usr/bin/env python3
"""Paired benchmark runs of a base revision and a change, written as one JSON record.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 8 --out BENCH_N.json

``--pairs 0`` skips the workloads and runs only the layer rounds.

Each side's ``src/`` and ``bench/`` are unpacked with ``git archive`` (the
change is HEAD), so each side runs its own ``bench/run.py --trace 0``.  Pair
i runs both sides back to back with seed ``--first-seed + i``, the base
first for even i and the change first for odd i; ``--workload`` picks one
workload, all of them by default, one series after another.  A run's value
of an end-to-end metric is what run.py reports (its median over its
processes); the record gives each side's runs, median and inclusive
quartiles, the change's relative difference of medians, its wins, a pair
where the change reads better, and its losses, ties counting for neither.
The metrics, their direction and bounds come from BENCHMARK.json.

Each pair and round also runs an A/A control after the claim's: the
parent, then a second unpack of it in the change's place, in the claim's
order; the record gives each workload and layer case a ``control`` entry
beside it, in the same form.  A difference that the control shows too,
between identical trees, is no evidence for the change: each end-to-end
metric of a workload is marked ``resolved`` "gain" or "loss" only if it
passes ``_resolved``'s three tests, and "unresolved" otherwise.

Then LAYER_ROUNDS rounds time one SSP-RK3 ``step``, one ``rhs``, one
``diagnostics`` and one ``write_rows`` of a 15-column snapshot (to the null
device) at n = 128, 1,024, 8,192 and 65,536 in each tree, alternating which
side goes first, each a fresh interpreter importing that tree's package: a
case's value in a round is the minimum over REPEAT timeit repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_outputs import _unpack_src  # noqa: E402

LAYER_ROUNDS, REPEAT = 5, 9
# the share of pairs a resolved difference wins (or loses): 9 of 10
RESOLVED_WINS = 0.9

# Times the layer cases at each size in the tree whose src/ is argv[1]; prints
# {case: seconds}, the minimum over argv[2] repeats of a timed loop.  The
# snapshot is simulate's: t, x, the six state rows and seven diagnostic fields.
LAYER_CHILD = r"""
import json, os, sys, timeit
sys.path.insert(0, sys.argv[1])
import bifluid as b
from bifluid import solver
from bifluid.csvout import write_rows
repeat = int(sys.argv[2])
model = b.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
s1 = float(b.entropy_from_temperature(model, 1, 1.0, 300.0))
s2 = float(b.entropy_from_temperature(model, 2, 2.0, 320.0))
init = b.InitialConditions(b.FieldInit(1.0, 0.01), b.FieldInit(2.0, 0.02), b.FieldInit(0.0, 0.002),
                           b.FieldInit(0.0, 0.002), b.FieldInit(s1), b.FieldInit(s2))
times, null = {}, open(os.devnull, "wb")
for n, number in ((128, 100), (1024, 30), (8192, 5), (65536, 2)):
    dt = 1e-4 * 128 / n
    sc = b.Scenario(b.Grid1D(n, 1.0), model, b.ClosureParams(lam=0.13, chi=0.5), init,
                    dt=dt, t_end=10 * dt)
    state = sc.initial_state
    d = solver.diagnostics(state, model)
    snapshot = (0.0, sc.grid.cell_centers(), *state.packed,
                d.T1, d.T2, d.T_avg, d.p, d.p0, d.pi_field, d.divv_field)
    cases = {"step": lambda: solver.step(state, sc),
             "rhs": lambda: solver.rhs(state.packed, model, sc.closure, sc.grid, sc._workspace),
             "diagnostics": lambda: solver.diagnostics(state, model),
             "write_rows": lambda: write_rows(null, snapshot)}
    for name, fn in cases.items():
        fn()
        best = min(timeit.repeat(fn, number=number, repeat=repeat)) / number
        times[f"{name} n={n}"] = best
print(json.dumps(times))
"""


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

    Resolved means the change wins (or loses) at least RESOLVED_WINS of the
    pairs, its median differs from the parent's by more than the parent's
    interquartile range, and its relative difference is larger than the A/A
    control's: identical trees can read as 9 wins in 10 here.
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
    return json.loads(proc.stdout.splitlines()[-1])


def _layers(tree: Path, repeat: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", LAYER_CHILD, str(tree / "src"), str(repeat)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _beside(results: dict) -> dict:
    """The claim's result, with the control's result under "control"."""
    return {**results.pop("claim"), **results}


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
    names = names if args.pairs else []     # --pairs 0: the layer rounds only
    seeds = [args.first_seed + i for i in range(args.pairs)]
    revs = {side: subprocess.run(["git", "rev-parse", "--short", f"{rev}^{{commit}}"],
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in (("parent", args.base), ("change", "HEAD"))}
    record = {
        "change": subprocess.run(["git", "log", "-1", "--format=%s", revs["change"]], cwd=ROOT,
                                 check=True, capture_output=True, text=True).stdout.strip(),
        "parent": revs["parent"],
        "change_tree": ", ".join(f"{path}/ tree " + subprocess.run(
            ["git", "rev-parse", "--short", f"{revs['change']}:{path}"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip() for path in ("src", "bench")),
        "method": {
            "command": f"python3 bench/run.py --workload <name> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0",
            "pairs": args.pairs, "seeds": seeds,
            "order": "pair i runs both sides back to back, parent first for even i and "
                     "change first for odd i; one workload series after another, in the "
                     f"order {', '.join(names)}",
            "trees": "each side ran from its own git archive of src/ and bench/",
            "statistic": "a run's value is bench/run.py's median over its processes; median "
                         "and quartiles (statistics.quantiles, inclusive) over runs; a win is "
                         "a pair where the change reads better, a loss one where it reads "
                         "worse, ties count for neither",
            "resolved": f"gain (loss) if the change wins (loses) at least {RESOLVED_WINS:.0%} "
                        "of the pairs, its median differs from the parent's by more than the "
                        "parent's interquartile range, and its relative difference of medians "
                        "is larger in size than the control's; else unresolved",
            "layers": f"{LAYER_ROUNDS} rounds, alternating which side goes first, each "
                      f"side in a fresh interpreter; a case's value is the minimum of "
                      f"{REPEAT} timeit repeats of a loop of step, rhs, diagnostics or "
                      f"write_rows (one snapshot, to the null device) calls, in seconds",
            "control": "each pair and round also ran the parent against a second git "
                       "archive of itself, after the claim's pair and in its order; "
                       "'change' in a control entry is that second archive",
        },
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count()},
        "workloads": {},
    }
    # the side pairs that each pair and round runs: the claim's, then the control's
    comparisons = {"claim": ("parent", "change"), "control": ("parent", "control")}
    unpack = {**revs, "control": revs["parent"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in unpack}
        for side, rev in unpack.items():
            _unpack_src(rev, trees[side], ("src", "bench"))
        for name in names:
            runs = {kind: {side: [] for side in pair} for kind, pair in comparisons.items()}
            for i, seed in enumerate(seeds):
                for kind, pair in comparisons.items():
                    for side in (pair if i % 2 == 0 else pair[::-1]):
                        runs[kind][side].append(_bench(trees[side], name, seed, args.seconds))
                        print(f"{name} pair {i} {kind} {side}: wall_s "
                              f"{runs[kind][side][-1]['metrics']['wall_s']['value']:.4f}",
                              flush=True)
            results = {}
            for kind, (base, other) in comparisons.items():
                metrics = {}
                for m in spec["end_to_end"]:
                    values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                              for side, rs in runs[kind].items()}
                    metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                          "bound": m["bound"],
                                          **_compare(values[base], values[other], m["better"])}
                results[kind] = {"metrics": metrics, "correct": all(
                    r["correct"] for rs in runs[kind].values() for r in rs)}
            for m, c in results["claim"]["metrics"].items():
                c["resolved"] = _resolved(c, results["control"]["metrics"][m])
            record["workloads"][name] = _beside(results)
        layers = {kind: {side: [] for side in pair} for kind, pair in comparisons.items()}
        for i in range(LAYER_ROUNDS):
            for kind, pair in comparisons.items():
                for side in (pair if i % 2 == 0 else pair[::-1]):
                    layers[kind][side].append(_layers(trees[side], REPEAT))
        record["layers"] = {
            case: _beside({kind: {"unit": "s", "better": "lower",
                                  **_compare([r[case] for r in layers[kind][base]],
                                             [r[case] for r in layers[kind][other]], "lower")}
                           for kind, (base, other) in comparisons.items()})
            for case in layers["claim"]["parent"][0]}
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
        print(f"{case}: {line(c, 'us', 1e6)}")
        print(f"  control: {line(c['control'], 'us', 1e6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
