#!/usr/bin/env python3
"""Time ``bifluid simulate`` on both snapshot-writer paths across grid sizes.

Run from the repository root:

    python3 tools/simulate_scan.py --repeats 5

At each n in N_VALUES the scan simulates the fielddump-n65536 workload's
scenario (bench/workloads.py: 12 SSP-RK3 steps, a snapshot every 6, so 3
snapshots of n rows) with dt scaled by 1/n, which keeps the CFL number at
0.29.  Each run is a fresh interpreter that calls ``cli.main`` once, on one
path: "inline" sets ``cli.OVERLAP_MIN_ROWS`` above n, "forked" sets it to 0
and has ``cli._cpu_count`` report two CPUs, so each snapshot is written by
a forked child even where simulate would write inline for want of a second
CPU.  Which path runs first alternates from one repeat to the next.  The
scan prints, per n and path, the median wall time of the ``cli.main`` call
and the median peak RSS of the process, the forked/inline ratio of the
wall times, the range of the inline wall times, and the median peak RSS of
the largest writer child (``RUSAGE_CHILDREN``; it counts the pages the
child shares with its parent, too).  OVERLAP_MIN_ROWS is meant to sit
where that ratio falls clearly below 1.  The header names the CPUs the scan
may run on; a scan pinned with ``taskset -c 0 python3
tools/simulate_scan.py`` measures what the fork costs on one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_VALUES = (128, 1024, 8192, 16384, 32768, 65536)
PATHS = ("inline", "forked")

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

# One run in a fresh interpreter: argv is SRC CONFIG OUT PATH; prints a JSON
# line with the exit code, the wall time of cli.main, and the peak RSS of the
# process and of its largest child.
CHILD = r"""
import json, resource, sys, time
src, config, out, path = sys.argv[1:5]
sys.path.insert(0, src)
import bifluid.cli as cli
cli.OVERLAP_MIN_ROWS = 0 if path == "forked" else float("inf")
cli._cpu_count = lambda: 2
t = time.perf_counter()
rc = cli.main(["simulate", "--config", config, "--out", out])
wall = time.perf_counter() - t
print(json.dumps({"rc": rc, "wall_s": wall,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "child_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def _run(config: Path, out: Path, path: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), str(config),
                           str(out), path], capture_output=True, text=True, check=True)
    shutil.rmtree(out, ignore_errors=True)      # 58 MB of CSV at n = 65536
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["rc"] != 0:
        raise SystemExit(f"simulate exited {result['rc']} on {config}: {proc.stderr}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=5, help="runs per n and path")
    ap.add_argument("--seed", type=int, default=1, help="seed of the initial amplitudes")
    args = ap.parse_args()

    results = {(n, path): [] for n in N_VALUES for path in PATHS}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = {}
        for n in N_VALUES:
            rng = random.Random(f"simulate-scan:{args.seed}")
            text, _ = workloads._simulate_config(rng, n, dt=2e-7 * 65536 / n, steps=12,
                                                 stride=6)
            configs[n] = tmp / f"n{n}.cfg"
            configs[n].write_text(text)
        _run(configs[N_VALUES[0]], tmp / "out", "inline")      # untimed warm-up
        for rep in range(args.repeats):
            order = PATHS if rep % 2 == 0 else PATHS[::-1]
            for n in N_VALUES:
                for path in order:
                    results[n, path].append(_run(configs[n], tmp / "out", path))

    print(f"{args.repeats} runs per cell, medians; wall_s is the cli.main call; "
          f"CPUs {sorted(os.sched_getaffinity(0))}")
    print(f"{'n':>6} {'inline wall_s':>14} {'forked wall_s':>14} {'ratio':>6} "
          f"{'inline MiB':>11} {'forked MiB':>11} {'child MiB':>10} "
          f"{'inline wall_s range':>20}")
    for n in N_VALUES:
        wall = {p: statistics.median(r["wall_s"] for r in results[n, p]) for p in PATHS}
        rss = {p: statistics.median(r["peak_rss_mib"] for r in results[n, p]) for p in PATHS}
        child_rss = statistics.median(r["child_rss_mib"] for r in results[n, "forked"])
        inline = [r["wall_s"] for r in results[n, "inline"]]
        print(f"{n:>6} {wall['inline']:>14.4f} {wall['forked']:>14.4f} "
              f"{wall['forked'] / wall['inline']:>6.3f} "
              f"{rss['inline']:>11.1f} {rss['forked']:>11.1f} {child_rss:>10.1f} "
              f"{min(inline):>9.4f}-{max(inline):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
