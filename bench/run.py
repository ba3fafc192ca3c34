#!/usr/bin/env python3
"""bifluid benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload acoustic-n128 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40            # every workload
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1  # per layer

Each measured operation runs in a fresh single-threaded interpreter
(``child.py``) that imports the package from ``src/`` and calls
``bifluid.cli.main``.  A run starts such processes one after another until
``--seconds`` have passed and reports medians across them.  Every output is
checked (``checks.py``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import RESULT_COUNTERS, SPAN_NAMES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIB = 1024 * 1024

MIN_PROCESSES = 3           # per run (twice that traced), whatever --seconds says
RUN_BUDGET_S = 150.0        # no new process starts after this
RUN_DEADLINE_S = 170.0      # a process still running then is killed
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
                    "ok_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_fingerprint() -> str:
    """sha256 over the package sources: identifies the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bifluid").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes or {"unavailable": True}


def environment(workload: workloads.Workload) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    n = workload.expect["n"]
    return {
        "commit": _git_commit(),
        "source_sha256": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "thread_env": THREAD_ENV,
        "working_set": {
            "field_bytes": 8 * n,
            "state_bytes": 6 * 8 * n,
            "note": "each workload's arrays fit in the last-level cache; "
                    "no memory-bandwidth figure is claimed",
        },
    }


class DigestBook:
    """sha256 of every data file, per (source, workload, seed).

    Runs of the same code on the same inputs must write the same bytes, both
    within a run and across runs; no digest is ever pinned in advance.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.book = json.loads(path.read_text())
        except (OSError, ValueError):
            self.book = {}
        self.known = self.book.setdefault(key, {})

    def check(self, name: str, digest: str) -> bool:
        return self.known.setdefault(name, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
        tmp.replace(self.path)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def _warm_up(deadline: float):
    """Import the package once, untimed: compiles bytecode, fills the page cache."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bifluid.cli"
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing bifluid timed out") from exc
    if proc.returncode != 0:
        raise BenchError("cannot import bifluid from src/:\n" + proc.stderr[-2000:])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.workload = workloads.make(name, seed)
        self.seconds, self.trace = seconds, trace
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs, self.out = self.dir / "inputs", self.dir / "out"
        workloads.write(self.workload, self.inputs)
        self.spec_path = self.dir / "spec.json"
        fmt = {"dir": str(self.inputs), "out": str(self.out)}
        self.ops = [{"kind": op.kind,
                     "argv": [a.format(**fmt) for a in op.argv],
                     "files": [str(self.out / f) for f in op.files],
                     "stdout_file": str(self.out / op.stdout_file) if op.stdout_file else None}
                    for op in self.workload.ops]
        self.spec_path.write_text(json.dumps({
            "setup_config": str(self.inputs / self.workload.setup_config),
            "ops": self.ops,
            "spans_file": str(self.dir / "spans.json"),
        }))
        self.digests = DigestBook(OUT / "digests.json",
                                  f"{source_fingerprint()}:{name}:{seed}")
        self.checked = {}           # (kind, digests) -> problems
        self.children = []          # per process: result plus verdicts
        self.problems = []

    # -- one process ----------------------------------------------------

    def _spawn(self, index: int, traced: bool, deadline: float) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        result_path = self.dir / f"result-{index}.json"
        stderr_path = self.dir / f"child-{index}.stderr"
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
               str(self.spec_path), str(result_path), "1" if traced else "0"]
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=_child_env(), cwd=str(self.dir))
            try:
                rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
        stderr = stderr_path.read_text(errors="replace")
        if rc != 0 or not result_path.exists():
            return {"traced": traced, "crashed": f"exit {rc}: {stderr[-1500:]}",
                    "ops": [], "failed_ops": len(self.ops)}
        child = json.loads(result_path.read_text())
        child["traced"] = traced
        child["warning_lines"] = sum(1 for ln in stderr.splitlines()
                                     if ln.startswith("WARNING"))
        # Every file the calls wrote, thermo-eval's saved stdout included.
        child["bytes_written"] = sum(f.stat().st_size for f in self.out.rglob("*")
                                     if f.is_file())
        child["failed_ops"] = sum(not self._verify(op, out)
                                  for op, out in zip(self.ops, child["ops"]))
        if traced:
            bad = self._self_check(child)
            if bad:
                self.problems.extend(bad)
                child["failed_ops"] = len(self.ops)
        return child

    def _verify(self, op: dict, out: dict) -> bool:
        if out["rc"] != 0:
            self.problems.append(f"{op['kind']}: exit code {out['rc']} {out['error'] or ''}")
            return False
        files = [Path(f) for f in op["files"]]
        missing = [str(f) for f in files if not f.is_file()]
        if missing:
            self.problems.append(f"{op['kind']}: missing output {missing}")
            return False
        digests = tuple(_sha256(f) for f in files)
        ok = True
        for f, d in zip(files, digests):
            if not self.digests.check(f.name, d):
                self.problems.append(f"{op['kind']}: {f.name} differs from an "
                                     f"earlier run of the same code and seed")
                ok = False
        key = (op["kind"], digests)
        if key not in self.checked:     # identical bytes, identical verdict
            self.checked[key] = checks.CHECKS[op["kind"]](self.workload.expect, files)
            self.problems.extend(self.checked[key])
        return ok and not self.checked[key]

    def _self_check(self, child: dict) -> list[str]:
        """The tracer must see exactly the calls the workload implies."""
        tr, exp = child["trace"], self.workload.expect
        calls = {name: st["calls"] for name, st in tr["spans"].items()}
        want = {
            "solver.rhs": 3 * exp["steps"],
            "solver.step": exp["steps"],
            "solver.diagnostics": exp["rows"],
            "sweep.sweep_point": exp["sweep_points"],
        }
        bad = [f"trace: {name}.calls = {calls[name]}, expected {n}"
               for name, n in want.items() if calls[name] != n]
        skipped = tr["counters"]["sweep.skipped_rows"]
        if skipped != child["warning_lines"]:
            bad.append(f"trace: sweep.skipped_rows = {skipped}, but stderr has "
                       f"{child['warning_lines']} WARNING lines")
        if tr["missing"]:
            bad.append(f"trace: not found in the package: {tr['missing']}")
        return bad

    # -- the run --------------------------------------------------------

    def execute(self) -> dict:
        start = time.monotonic()
        deadline = start + RUN_DEADLINE_S
        _warm_up(deadline)
        t0 = time.monotonic()
        longest = 0.0
        i = 0
        while True:
            elapsed = time.monotonic() - t0
            if i >= MIN_PROCESSES * (1 + self.trace) and elapsed >= self.seconds:
                break
            if time.monotonic() - start + longest > RUN_BUDGET_S:
                break
            # A traced run alternates untraced and traced processes, so the
            # tracing overhead is measured under the same conditions.
            traced = self.trace and i % 2 == 1
            t = time.monotonic()
            self.children.append(self._spawn(i, traced, deadline))
            longest = max(longest, time.monotonic() - t)
            i += 1
        self.digests.save()
        return self.report()

    def report(self) -> dict:
        plain = [c for c in self.children if not c["traced"] and "crashed" not in c]
        traced = [c for c in self.children if c["traced"] and "crashed" not in c]
        for c in self.children:
            if "crashed" in c:
                self.problems.append(f"process failed: {c['crashed']}")
        attempted = len(self.children) * len(self.ops)
        failed = sum(c["failed_ops"] for c in self.children)
        samples = {
            "setup_s": [c["setup_s"] for c in plain],
            "wall_s": [c["wall_s"] for c in plain],
            "peak_rss_mib": [c["peak_rss_kib"] / 1024 for c in plain],
        }
        if self.trace:
            metrics = per_layer_metrics(self.workload, plain, traced)
        else:
            metrics = {name: {"value": _median(v), "unit": END_TO_END_UNITS[name]}
                       for name, v in samples.items()}
            metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        record = {
            "workload": self.workload.name,
            "seed": self.workload.seed, "inputs": self.workload.inputs,
            "seconds": self.seconds, "trace": self.trace,
            "processes": len(self.children),
            "environment": environment(self.workload),
            "quartiles": {k: _quartiles(v) for k, v in samples.items()},
            "fail_frac": failed / attempted,
            "problems": list(dict.fromkeys(self.problems)),
            "children": [{k: v for k, v in c.items() if k != "trace"}
                         for c in self.children],
            "digests": self.digests.known,
            "metrics": metrics,
        }
        records = OUT / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{self.workload.name}-seed{self.workload.seed}-trace{int(self.trace)}.json"
         ).write_text(json.dumps(record, indent=1))
        return {"correct": failed == 0 and not self.problems, "attempted": attempted,
                "failed": failed, "metrics": metrics, "record": record}


PER_LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def per_layer_metrics(workload, plain: list[dict], traced: list[dict]) -> dict:
    """Medians across the traced processes, in the names BENCHMARK.json lists."""
    def med(fn):
        return _median([fn(c) for c in traced])

    def span(name, key):
        return med(lambda c: c["trace"]["spans"][name][key])

    m = {}
    for name in SPAN_NAMES:
        for key, unit in PER_LAYER_UNITS.items():
            m[f"{name}.{key}"] = (span(name, key), unit)

    step_us = sorted(us for c in traced for us in c["trace"]["step_us"])
    n_steps = len(step_us)
    p50 = statistics.median(step_us) if step_us else 0.0
    # Highest percentile with at least ten samples beyond it.
    tail, tail_pct = (step_us[-11], 100.0 * (n_steps - 10) / n_steps) \
        if n_steps >= 11 else (0.0, 0.0)
    steps = span("solver.step", "calls")
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    cells = workload.expect["n"]
    main_self = span("cli.main", "self_s")
    bytes_written = med(lambda c: c["bytes_written"])
    sweep_calls = span("sweep.sweep_point", "calls")
    wall_plain = _median([c["wall_s"] for c in plain])
    wall_traced = _median([c["wall_s"] for c in traced])
    m.update({
        "solver.step.p50_us": (p50, "us"),
        "solver.step.tail_us": (tail, "us"),
        "solver.step.tail_pct": (tail_pct, "%"),
        "solver.step.samples": (n_steps, "count"),
        "solver.step.ns_per_cell": (p50 * 1e3 / cells if cells else 0.0, "ns"),
        "solver.rhs.per_step": (per_step(span("solver.rhs", "calls")), "count"),
        "fields.MixtureState.per_step": (per_step(span("fields.MixtureState", "calls")), "count"),
        "thermo.thermo_eval.per_step": (per_step(span("thermo.thermo_eval", "calls")), "count"),
        "cli.bytes_written": (bytes_written, "B"),
        "cli.write_mib_per_s": (bytes_written / MIB / main_self if main_self else 0.0, "MiB/s"),
        "sweep.sweep_point.us_per_point":
            (span("sweep.sweep_point", "total_s") * 1e6 / sweep_calls if sweep_calls else 0.0, "us"),
        "setup.import_sympy_s": (med(lambda c: c["import_sympy_s"]), "s"),
        "setup.import_bifluid_s": (med(lambda c: c["import_bifluid_s"]), "s"),
        "identity.build_s": (span("identity.ManufacturedFields", "total_s")
                             + span("identity.ExtendedPotential", "total_s"), "s"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1.0 if wall_plain else 0.0, "ratio"),
    })
    for counter, _ in RESULT_COUNTERS.values():
        m[counter] = (med(lambda c: c["trace"]["counters"][counter]), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _fmt_row(name, metrics, record):
    q = record["quartiles"]
    cells = []
    for metric, unit in END_TO_END_UNITS.items():
        if metric == "ok_frac":
            cells.append(f"fail_frac={record['fail_frac']:.4g} ratio")
        else:
            lo, _, hi = q[metric]
            cells.append(f"{metric}={metrics[metric]['value']:.4g} {unit} "
                         f"[{lo:.4g}, {hi:.4g}]")
    return f"{name:18s} " + "  ".join(cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bifluid" / "cli.py").is_file():
        print(f"error: no bifluid package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        for problem in res["record"]["problems"]:
            print(f"{name}: FAILED CHECK: {problem}")
        if args.trace:
            for metric, mv in res["metrics"].items():
                print(f"{name:18s} {metric:45s} {mv['value']:.6g} {mv['unit']}")
        else:
            print(_fmt_row(name, res["metrics"], res["record"]))
    if args.workload == "all":
        final = {name: {k: v for k, v in res.items() if k != "record"}
                 for name, res in results.items()}
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "record"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
