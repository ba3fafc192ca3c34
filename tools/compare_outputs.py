#!/usr/bin/env python3
"""Check that the benchmark workloads write the same bytes at a base revision and here.

Run from the repository root:

    python3 tools/compare_outputs.py --base HEAD~1

The base revision's ``src/`` is unpacked with ``git archive`` into a
temporary directory.  Every operation of every workload in
``bench/workloads.py``, a ``simulate`` in each of the REGIMES below that
no workload runs, a ``simulate`` on the UNEVEN_N grid, whose rhs tiles
share cells (no workload's do), and the FAILING runs below, whose error
text must not change, then runs at seeds 1-3 against each tree's package,
all of one tree's in one fresh interpreter.  For each output file (the data
files an operation writes, and the captured stdout of thermo-eval) the
sha256 of both trees is printed, with the exit code of every operation, the
count and sha256 of the WARNING lines it logs (the sweep's skipped points,
in the format bench/child.py gives them, which the benchmark's traced
self-check counts) and those of the ``error:`` lines it prints on stderr.
The exit status is 1 if anything differs, 0 if every file is identical.
Only bytes are compared; timings are the benchmark's business.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

# Regimes that no benchmark workload runs: acoustic-n128's scenario for 300
# steps, its config edited as (old, new) pairs.  Slaving is paired with
# relaxation-M, since under fixed-lambda it sets Theta = 0 in every cell.
_FIXED = "mode = fixed-lambda\nlambda = 0.13\n"
_RELAXATION = "mode = relaxation-M\nM = 0.01\n"
_S1 = workloads._entropy(workloads.K1, workloads.CV1, workloads.RHO1_BG, workloads.T1_BG)
_S2 = {T: workloads._entropy(workloads.K2, workloads.CV2, workloads.RHO2_BG, T)
       for T in (workloads.T1_BG, workloads.T2_BG)}
REGIMES = {
    "relaxation-M-equal-T": ((_FIXED, _RELAXATION),
                             (f"s2_bg = {_S2[workloads.T2_BG]!r}\n",
                              f"s2_bg = {_S2[workloads.T1_BG]!r}\n")),
    "chi-1e3": ((_FIXED, _FIXED + "chi = 1000.0\n"),),
    "slaving": ((_FIXED, _RELAXATION + "slaving = on\n"),),
}

# Runs that fail, each with one stderr error line whose text must not change:
# the REGIMES scenario edited to slaving under fixed-lambda, a cfl above 1,
# a t_end of 2.5 steps and an s1 whose temperature overflows to inf; and
# _thermo_eval_k1_negative.
FAILING = {
    "slaving-fixed-lambda": ((_FIXED, _FIXED + "slaving = on\n"),),
    "cfl-10": (("[time]\n", "[time]\ncfl = 10\n"),),
    "t_end-2.5-steps": ((f"t_end = {300 * 1e-4!r}\n", "t_end = 2.5e-4\n"),),
    "s1-1e6": ((f"s1_bg = {_S1!r}\n", "s1_bg = 1e6\n"),),
}

# rhs splits n = 3 * 8192 + 37 cells into four tiles of 6,154, the last
# moved back to repeat 3 cells of the one before (the workloads' n = 128 and
# 65,536 split evenly).  It runs acoustic-n128's physics with dt scaled to
# the same CFL number, 12 steps written every sixth.
UNEVEN_N = 3 * 8192 + 37

# Runs in the fresh interpreter: reads the jobs from stdin, runs each
# operation through bifluid.cli.main, hashes its files, then deletes the
# job's output directory (fielddump-n65536 writes 58 MB per seed).
CHILD = r"""
import contextlib, hashlib, io, json, logging, os, shutil, sys
src = sys.argv[1]
sys.path.insert(0, src)
import bifluid.cli
if not os.path.realpath(bifluid.__file__).startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"imported bifluid from {bifluid.__file__}, not {src}")

def digest(lines):
    text = "".join(lines).encode()
    return f"{len(lines)} lines, sha256 {hashlib.sha256(text).hexdigest()}"


class Lines(logging.Handler):
    # keeps each record as the line logging.basicConfig would print

    def __init__(self):
        super().__init__(logging.WARNING)
        self.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
        self.lines = []

    def emit(self, record):
        self.lines.append(self.format(record) + "\n")


warnings = Lines()
logging.getLogger().addHandler(warnings)
digests = {}
for job in json.load(sys.stdin):
    os.makedirs(job["out"], exist_ok=True)
    for op in job["ops"]:
        buf, err = io.StringIO(), io.StringIO()
        warnings.lines.clear()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            digests[f"{job['key']} {op['kind']} exit code"] = str(bifluid.cli.main(op["argv"]))
        digests[f"{job['key']} {op['kind']} WARNING lines"] = digest(warnings.lines)
        digests[f"{job['key']} {op['kind']} error lines"] = digest(
            [ln for ln in err.getvalue().splitlines(keepends=True) if ln.startswith("error:")])
        if op["stdout_file"]:
            with open(os.path.join(job["out"], op["stdout_file"]), "w") as fh:
                fh.write(buf.getvalue())
        for name in op["files"]:
            h = hashlib.sha256()
            try:
                with open(os.path.join(job["out"], name), "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
                digests[f"{job['key']} {name}"] = h.hexdigest()
            except FileNotFoundError:
                digests[f"{job['key']} {name}"] = "missing"
    shutil.rmtree(job["out"], ignore_errors=True)
json.dump(digests, sys.stdout)
"""


def _unpack_src(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def _regime(name: str, edits, seed: int) -> workloads.Workload:
    wl = workloads._simulate(f"regime-{name}", seed, n=128, dt=1e-4, steps=300, stride=100)
    text = wl.configs["run.cfg"]
    for old, new in edits:
        if text.count(old) != 1:
            sys.exit(f"error: regime {name}: {old!r} is not once in the workload config")
        text = text.replace(old, new)
    wl.configs["run.cfg"] = text
    return wl


def _thermo_eval_k1_negative(seed: int) -> workloads.Workload:
    """closure-algebra's thermo-eval with --k1=-1 in place of --k1 1."""
    flags = workloads.make("closure-algebra", seed).inputs["thermo_eval"]
    if flags[:2] != ["--k1", "1"]:
        sys.exit(f"error: closure-algebra's thermo-eval flags do not start --k1 1: {flags}")
    op = workloads.Operation("thermo-eval", ["thermo-eval", "--k1=-1", *flags[2:]],
                             ["thermo.txt"], stdout_file="thermo.txt")
    return workloads.Workload("thermo-eval-k1-negative", seed, {}, [op], "")


def _jobs(work: Path) -> list[dict]:
    """Every workload, regime, uneven-grid and failing run at every seed, its configs under work."""
    jobs = []
    runs = ([workloads.make(name, seed) for name in workloads.NAMES for seed in SEEDS]
            + [_regime(name, edits, seed) for name, edits in (REGIMES | FAILING).items()
               for seed in SEEDS]
            + [workloads._simulate(f"uneven-n{UNEVEN_N}", seed, n=UNEVEN_N,
                                   dt=1e-4 * 128 / UNEVEN_N, steps=12, stride=6)
               for seed in SEEDS]
            + [_thermo_eval_k1_negative(seed) for seed in SEEDS])
    for wl in runs:
        inputs, out = (work / f"{wl.name}-{wl.seed}" / sub for sub in ("inputs", "out"))
        workloads.write(wl, inputs)
        fmt = {"dir": str(inputs), "out": str(out)}
        jobs.append({"key": f"{wl.name} seed={wl.seed}", "out": str(out), "ops": [
            {"kind": op.kind, "argv": [a.format(**fmt) for a in op.argv],
             "files": op.files, "stdout_file": op.stdout_file}
            for op in wl.ops]})
    return jobs


def _run_tree(src: Path, work: Path) -> dict[str, str]:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src)],
                          input=json.dumps(_jobs(work)), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: the run against {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args(argv)
    base_commit = subprocess.run(["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tmp = Path(tmp)
        _unpack_src(base_commit, tmp / "base")
        base = _run_tree(tmp / "base" / "src", tmp / "base-work")
        head = _run_tree(ROOT / "src", tmp / "head-work")
    print(f"base {base_commit}, this tree {ROOT}")
    differ = 0
    for key in sorted(base.keys() | head.keys()):
        a, b = base.get(key, "absent"), head.get(key, "absent")
        differ += a != b
        print(f"{'same' if a == b else 'DIFFERENT'}  {key}\n  base {a}\n  this {b}")
    print(f"{differ} of {len(base.keys() | head.keys())} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
