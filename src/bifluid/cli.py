"""Command-line entry point: simulate, verify-identity, sweep, thermo-eval.

Config files use a minimal sectioned key=value dialect (INI syntax via
configparser).  Data files are deterministic: each value is exactly
``'%.17g' % v``, so reruns are byte-identical.  ``simulate`` and ``sweep``
format their float columns in fixed-size row chunks (``csvout``);
``simulate`` writes each snapshot as the solver yields it, so its memory
grows neither with the grid nor with the number of snapshots.  A table of
at least OVERLAP_MIN_ROWS rows, in a process allowed more than one CPU that
can fork and runs no other thread, is written with one forked child's help
(``_write_forked``): the parent writes the first part of the rows, which
may be empty, then sends a go byte on a pipe; the child sees the table
copy-on-write and formats the rest meanwhile, holds its bytes only until
the go byte, then writes them, and streams what is left, at the file
offset it shares; its exception is re-raised in the parent unchanged.  A
snapshot before the last is all the child's, so it is written while the
solver steps on to the next one; one child is alive at a time, and the
next snapshot, the diagnostics file and the end of the run each wait for
it.  A thread would overlap less: both the solver and the writer hold the
GIL most of the time.  The last snapshot, and a sweep table, which nothing
is left to overlap, are split in halves, one on each CPU; the child then
holds at most its half (about 10 MB of a 65,536-row snapshot) until the
parent's is written.  Smaller tables are written inline, where the fork
costs more than it overlaps.
Run metadata (command line, parameter echo) goes to a separate ``*.meta``
sidecar so the data files carry no timestamps.

Exit codes: 0 success, 1 usage/config error or operating-system error (an
unreadable config, an output path that cannot be made or written, an
allocation that fails with MemoryError), 2 runtime failure.  Failures emit
a single machine-readable ``error: ...`` line on standard error.  A
``simulate`` run that fails mid-way still writes the rows produced before
the failure.
"""

from __future__ import annotations

import argparse
import array
import configparser
import contextlib
import functools
import io
import math
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import closure as cls
from . import solver as slv
from . import sweep as swp
from . import thermo
from .avgtemp import average_temperature
from .fields import PRIMITIVES, Grid1D
from .thermo import GasPairModel

SNAPSHOT_HEADER = ",".join(("t", "x", *PRIMITIVES, "T1", "T2", "Tavg", "p", "p0", "pi", "divv"))
DIAG_HEADER = "t,mass1,mass2,momentum,energy,entropy,min_Tgap"
_DIAG_FIELDS = ("total_mass1", "total_mass2", "total_momentum", "total_energy",
                "total_entropy", "min_temperature_gap")


class UsageError(ValueError):
    """Command-line problems, reported together: main prints each as one ``error:`` line."""

    prefix = ""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConfigError(UsageError):
    """All constraint violations in a config, reported together."""

    prefix = "config: "


@dataclass
class Config:
    grid: Grid1D
    model: GasPairModel
    closure: cls.ClosureParams
    initial: slv.InitialConditions
    dt: float
    t_end: float
    cfl: float
    stride: int
    sweep_spec: swp.SweepSpec
    slaving: bool


def _fmt(x: float) -> str:
    return "%.17g" % x


def parse_config(text: str) -> Config:
    """Parse and validate a config, collecting every violation before raising."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:     # its message can span lines
        raise ConfigError([f"syntax: {' '.join(str(exc).splitlines())}"]) from exc

    problems: list[str] = []
    known: set[tuple[str, str]] = set()

    def get(section, key, kind=float, default=None, positive=False,
            nonnegative=False):
        known.add((section, cp.optionxform(key)))
        if not cp.has_option(section, key):
            if default is None:
                problems.append(f"[{section}] missing key '{key}'")
                return None
            return default
        raw = cp.get(section, key)
        try:
            val = kind(raw)
        except ValueError:
            problems.append(f"[{section}] {key}={raw!r} is not a valid {kind.__name__}")
            return None
        for failed, need in ((kind is float and not math.isfinite(val), "finite"),
                             (positive and not val > 0, "positive"),
                             (nonnegative and val < 0, "nonnegative")):
            if failed:
                problems.append(f"[{section}] {key} must be {need}, got {val}")
                return None
        return val

    n = get("grid", "n", int, positive=True)
    length = get("grid", "length", positive=True)
    k1 = get("gas1", "k", positive=True)
    cv1 = get("gas1", "cv", positive=True)
    k2 = get("gas2", "k", positive=True)
    cv2 = get("gas2", "cv", positive=True)
    T_ref = get("reference", "T_ref", default=300.0, positive=True)
    rho_ref = get("reference", "rho_ref", default=1.0, positive=True)
    s_ref = get("reference", "s_ref", default=0.0)

    mode = get("closure", "mode", str, default="fixed-lambda")
    has_lam = cp.has_option("closure", "lambda")
    has_M = cp.has_option("closure", "M")
    if has_lam and has_M:
        problems.append("[closure] keys 'lambda' and 'M' are mutually exclusive")
    if mode == "fixed-lambda" and has_M:
        problems.append("[closure] mode fixed-lambda takes 'lambda', not 'M'")
    if mode == "relaxation-M" and has_lam:
        problems.append("[closure] mode relaxation-M takes 'M', not 'lambda'")
    lam = get("closure", "lambda", default=0.0, nonnegative=True)
    M = get("closure", "M", default=0.0, nonnegative=True)
    chi = get("closure", "chi", default=0.0, nonnegative=True)
    eps_default = 1e-8 * T_ref if T_ref else 3e-6
    epsilon_T = get("closure", "epsilon_T", default=eps_default, positive=True)
    slaving = get("closure", "slaving", str, default="off")
    if slaving not in ("on", "off", "true", "false", "1", "0"):
        problems.append(f"[closure] slaving={slaving!r} is not one of on/off/true/false/1/0")
    slaving = slaving in ("on", "true", "1")
    if slaving and mode == "fixed-lambda" and lam:
        # fixed-lambda has no M, so slaving sets T1 = T2 in every cell, where
        # the heat exchange divides lambda (div v)^2 by epsilon_T
        problems.append("[closure] slaving = on needs mode relaxation-M, or lambda = 0 "
                        f"under fixed-lambda; got lambda = {lam}")

    dt = get("time", "dt", positive=True)
    t_end = get("time", "t_end", positive=True)
    cfl = get("time", "cfl", default=0.4, positive=True)
    if cfl is not None and cfl > 1:     # SSP-RK3 with LLF fluxes is stable to about 1
        problems.append(f"[time] cfl must be at most 1, got {cfl}")

    inits = {}
    for name in PRIMITIVES:
        bg = get("init", f"{name}_bg")
        amp = get("init", f"{name}_amp", default=0.0)
        fmode = get("init", f"{name}_mode", int, default=1)
        phase = get("init", f"{name}_phase", default=0.0)
        if bg is not None:
            inits[name] = slv.FieldInit(bg, amp, fmode, phase)

    stride = get("output", "stride", int, default=10, positive=True)

    sweep_spec = None
    if cp.has_section("sweep"):
        kw = {}
        for axis in ("theta", "rho1", "rho2"):
            lo = get("sweep", f"{axis}_min")
            hi = get("sweep", f"{axis}_max")
            count = get("sweep", f"{axis}_count", int, positive=True)
            if None not in (lo, hi, count):
                try:
                    kw[f"{axis}_range"] = swp.Range(lo, hi, count)
                except ValueError as exc:
                    problems.append(f"[sweep] {axis} range: {exc}")
        kw["T_background"] = get("sweep", "T_background", default=300.0, positive=True)
        kw["divv_unit"] = get("sweep", "divv_unit", default=1.0)
        if not problems:
            try:
                sweep_spec = swp.SweepSpec(**{k: v for k, v in kw.items() if v is not None})
            except ValueError as exc:
                problems.append(f"[sweep] {exc}")

    problems.extend(f"[{section}] unknown key '{key}'" for section in cp.sections()
                    for key in cp.options(section) if (section, key) not in known)

    if problems:
        raise ConfigError(problems)

    try:
        grid = Grid1D(n, length)
        model = GasPairModel(k1, k2, cv1, cv2, T_ref, rho_ref, s_ref)
        closure = cls.ClosureParams(mode=mode, lam=lam, M=M, chi=chi,
                                    epsilon_T=epsilon_T)
        initial = slv.InitialConditions(**inits)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc

    if sweep_spec is None:
        sweep_spec = swp.SweepSpec()
    return Config(grid=grid, model=model, closure=closure, initial=initial,
                  dt=dt, t_end=t_end, cfl=cfl, stride=stride, sweep_spec=sweep_spec,
                  slaving=slaving)


def _write_sidecar(path: Path, argv, cfg_text: str | None):
    lines = ["command: " + " ".join(argv)]
    if cfg_text is not None:
        lines.append("config:")
        lines.extend("  " + ln for ln in cfg_text.splitlines())
    path.write_text("\n".join(lines) + "\n")


# rows from which a table is written with a forked child's help; below it the
# fork costs more than it overlaps: on a 2-CPU Xeon the forked/inline wall
# times of a snapshot were 1.12 at n = 8192 and 0.80 at n = 16384 (the last
# scan of both paths, in CHANGES.md)
OVERLAP_MIN_ROWS = 16384


def _cpu_count() -> int:
    """CPUs this process may run on.

    On one CPU a writer child has nothing to overlap with, so tables are
    written inline there.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forking(rows: int) -> bool:
    """Whether a table of this many rows is written with a forked child's help."""
    # forking a process that runs other threads can deadlock the child
    return (rows >= OVERLAP_MIN_ROWS and _cpu_count() > 1 and hasattr(os, "fork")
            and threading.active_count() == 1)


class _HeldUntilGo:
    """A writer child's stand-in for fh: it holds each chunk written to it
    until the parent's go byte arrives on the pipe go, which it checks
    without blocking on each write, then writes the held chunks to fh and
    passes the later ones straight on.  EOF in place of the go byte means
    the parent's part failed: the child exits without writing."""

    def __init__(self, fh, go: int):
        self.fh, self.go, self.held = fh, go, []
        os.set_blocking(go, False)

    def write(self, data) -> None:
        self.held.append(bytes(data))
        try:
            byte = os.read(self.go, 1)
        except BlockingIOError:     # no go byte yet
            return
        if not byte:        # EOF: the parent's part failed
            os._exit(0)
        self.fh.writelines(self.held)
        self.held, self.write = None, self.fh.write     # from now on, straight to fh


def _write_forked(write, fh, first, second) -> tuple[int, int] | None:
    """write(fh, first) here, then write(fh, second) in a forked child; returns
    the child's pid and the read end of its pipe, for _wait_for_child.

    This process writes first, which may be empty, and sends the child a go
    byte.  The child sees second copy-on-write and formats it meanwhile
    through a _HeldUntilGo, so it holds its bytes only until the go byte, and
    writes them at fh's offset, which it shares with this process.  This
    process returns without waiting, and must not write to fh until
    _wait_for_child has reaped the child and raised its exception unchanged.
    If first raises, the child reads EOF in place of the go byte and exits
    without writing; it is reaped, and first's error raised.  If no child can
    be forked, both parts are written inline and None returned.
    """
    fh.flush()      # or the child would write this process's buffered bytes again
    go_read, go_write = os.pipe()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:     # out of processes or memory for one
        for fd in (go_read, go_write, read_end, write_end):
            os.close(fd)
        write(fh, first)
        write(fh, second)
        return None
    if pid == 0:
        try:
            os.close(go_write)      # so that the parent's close is this child's EOF
            os.close(read_end)
            out = _HeldUntilGo(fh, go_read)
            write(out, second)
            os.set_blocking(go_read, True)
            out.write(b"")      # waits for the go byte, if it has not come
            fh.flush()
            os._exit(0)
        except Exception as exc:
            _send_exception(write_end, exc)
        finally:
            os._exit(1)     # no cleanup of the parent's state, not even a file's buffer
    os.close(go_read)
    os.close(write_end)
    try:
        write(fh, first)
        fh.flush()
    except BaseException:
        os.close(go_write)
        with contextlib.suppress(Exception):    # this process's own error is raised
            _wait_for_child((pid, read_end))
        raise
    with contextlib.suppress(BrokenPipeError):  # the child failed first; its error is raised later
        os.write(go_write, b"\1")
    os.close(go_write)
    return pid, read_end


def _send_exception(fd: int, exc: Exception) -> None:
    """Pickle exc into the pipe fd; one that does not survive pickling goes as a RuntimeError."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(f"snapshot writer failed: {exc!r}"))
    with open(fd, "wb") as pipe:
        pipe.write(data)


def _wait_for_child(child: tuple[int, int] | None) -> None:
    """Reap a _write_forked child, if any; raise the exception it reported, unchanged."""
    if child is None:
        return
    pid, read_end = child
    with open(read_end, "rb") as pipe:
        data = pipe.read()      # before waitpid: a large pickle fills the pipe
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if data:
        raise pickle.loads(data)
    if status != 0:
        raise RuntimeError(f"snapshot writer exited with status {status}")


def _cmd_simulate(args, argv) -> int:
    cfg_text = Path(args.config).read_text()
    cfg = parse_config(cfg_text)
    scenario = slv.Scenario(grid=cfg.grid, model=cfg.model, closure=cfg.closure,
                            initial=cfg.initial, dt=cfg.dt, t_end=cfg.t_end,
                            stride=cfg.stride, cfl=cfg.cfl, slaving=cfg.slaving)
    points = slv.trajectory(scenario)
    # the t = 0 point, whose diagnostics can overflow, before any output is made
    pt = next(points)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from .csvout import write_rows      # only simulate and sweep load the writer

    x = cfg.grid.cell_centers()
    diag_rows = []      # t and the _DIAG_FIELDS scalars of each snapshot
    failure = None
    fork = _forking(cfg.grid.n)
    writer = None       # (pid, pipe) of the child writing the previous snapshot
    t_last = scenario.n_steps * scenario.dt     # the last point's t, formed as trajectory does
    with open(out / "snapshots.csv", "wb") as fh:
        fh.write(SNAPSHOT_HEADER.encode() + b"\n")
        try:
            while pt is not None:
                d = pt.diag
                columns = (pt.t, x, *pt.state.packed,
                           d.T1, d.T2, d.T_avg, d.p, d.p0, d.pi_field, d.divv_field)
                diag_rows.append([pt.t] + [getattr(d, name) for name in _DIAG_FIELDS])
                done, writer = writer, None     # one child at a time
                _wait_for_child(done)
                if not fork:
                    write_rows(fh, columns)
                else:   # nothing is left to overlap the last snapshot: a half on each CPU
                    half = cfg.grid.n // 2 if pt.t == t_last else 0
                    writer = _write_forked(write_rows, fh,
                                           (pt.t, *(c[:half] for c in columns[1:])),
                                           (pt.t, *(c[half:] for c in columns[1:])))
                del pt, d, columns      # free the snapshot's fields once written
                pt = next(points, None)
        except slv.SolverError as exc:      # keep the rows written, then fail
            failure = exc
        finally:
            _wait_for_child(writer)     # before fh closes; raises its error, if any
    with open(out / "diagnostics.csv", "wb") as fh:
        fh.write(DIAG_HEADER.encode() + b"\n")
        write_rows(fh, zip(*diag_rows))

    _write_sidecar(out / "run.meta", argv, cfg_text)
    if failure is not None:
        raise failure
    return 0


# Past 8 halvings (step 1e-3 / 256) round-off overtakes the second-order
# truncation error and the fitted convergence order falls away from 2.
MAX_REFINE = 8


@functools.cache
def _identity_inputs(suite: str) -> tuple:
    """The suite's manufactured fields and the quadratic potential, built once
    per process: each validates its derivatives, about 4 ms for both."""
    from . import identity as ident
    # constant or sinusoidal
    return getattr(ident.ManufacturedFields, suite)(), ident.ExtendedPotential.quadratic()


def _cmd_verify_identity(args, argv) -> int:
    for failed, problem in ((args.refine < 0, "must be nonnegative"),
                            (args.refine > MAX_REFINE, f"must be at most {MAX_REFINE}"),
                            (args.mode == "analytic" and args.refine > 0,
                             "applies to --mode fd only")):
        if failed:
            raise UsageError([f"--refine {problem}, got {args.refine}"])
    from . import identity as ident     # no other command compiles it

    fields, potential = _identity_inputs(args.suite)
    window = ident.SampleWindow()
    lines, norms = [], []       # analytic mode has refine 0 and ignores h and dt
    for k in range(args.refine + 1):
        step = 0.5**k
        rep = ident.gibbs_residual(fields, potential, window, mode=args.mode,
                                   h=1e-3 * step, dt=1e-3 * step)
        norms.append(rep.residual_max)
        tag = "" if args.mode == "analytic" else f" step_scale={_fmt(step)}"
        lines.append(f"mode={rep.mode}{tag}")
        lines.append(f"  residual_max={_fmt(rep.residual_max)}")
        lines.append(f"  residual_l2={_fmt(rep.residual_l2)}")
        lines.append(f"  term_magnitude={_fmt(rep.term_magnitude)}")
        for name, val in rep.per_identity.items():
            lines.append(f"  identity_{name}={_fmt(val)}")
    if args.mode == "fd" and len(norms) >= 2:
        lines.append(f"convergence_order={_fmt(ident.convergence_order(norms))}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_sidecar(Path(args.out).with_suffix(".meta"), argv, None)
    return 0


SWEEP_HEADER = ",".join(swp.ROW_FIELDS)
# _cmd_sweep keeps a row's 12 float columns; a skipped row's are formatted but not written
_SWEEP_FLOATS = operator.itemgetter(*swp.ROW_FIELDS[1:13])


def _write_sweep_rows(fh, part) -> None:
    """sweep.csv's lines of a _sweep_columns part: its floats formatted in one
    write_rows call, with each skipped row's line in place of its own."""
    from .csvout import write_rows      # only simulate and sweep load the writer
    floats, skipped = part
    text = io.BytesIO()
    text.write(b"pair,")
    write_rows(text, floats.T)
    # each line pair, + floats + ,0, and a "pair," after the last, unused
    lines = memoryview(text.getvalue().replace(b"\n", b",0,\npair,"))
    del text        # before the search's mask, as long as lines
    starts = np.r_[0, np.flatnonzero(np.frombuffer(lines, np.uint8) == ord("\n")) + 1]
    done = 0
    for row, line in (*skipped, (len(floats), b"")):
        fh.write(lines[starts[done]:starts[row]])       # rows done..row-1
        fh.write(line)
        done = row + 1


def _sweep_columns(rows) -> tuple[np.ndarray, list]:
    """rows' float columns as a (rows, 12) array, None as 0, and the (row, line) of
    each skipped row, its line built from its dict; a float that is not finite
    raises ValueError naming its row and column."""
    floats, skipped = array.array("d"), []
    for i, row in enumerate(rows):
        if row["skipped"]:
            line = ",".join("" if v is None else v if isinstance(v, str) else "%.17g" % v
                            for v in row.values())
            skipped.append((i, (line + "\n").encode()))
            floats.extend(0.0 if v is None else v for v in _SWEEP_FLOATS(row))
        else:
            floats.extend(_SWEEP_FLOATS(row))
    floats = np.frombuffer(floats).reshape(-1, 12)
    if not np.isfinite(floats).all():
        i, j = np.argwhere(~np.isfinite(floats))[0]
        rho1, rho2, theta = map(_fmt, floats[i, :3])
        raise ValueError(f"sweep: row {i} (rho1={rho1}, rho2={rho2}, theta={theta}): "
                         f"{swp.ROW_FIELDS[1 + j]} = {_fmt(floats[i, j])} is not finite")
    return floats, skipped


def _split_sweep(part, half: int) -> tuple[tuple, tuple]:
    """A _sweep_columns part as two, of its first half rows and of the rest."""
    floats, skipped = part
    return ((floats[:half], [(row, line) for row, line in skipped if row < half]),
            (floats[half:], [(row - half, line) for row, line in skipped if row >= half]))


def _cmd_sweep(args, argv) -> int:
    """sweep.csv from sweep_rows' rows, of which it keeps only _sweep_columns'."""
    cfg_text = Path(args.config).read_text()
    cfg = parse_config(cfg_text)
    part = _sweep_columns(swp.sweep_rows(cfg.sweep_spec, {"pair": cfg.model}))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh:
        fh.write(SWEEP_HEADER.encode() + b"\n")
        if _forking(len(part[0])):      # nothing else is left to overlap: a half on each CPU
            halves = _split_sweep(part, len(part[0]) // 2)
            _wait_for_child(_write_forked(_write_sweep_rows, fh, *halves))
        else:
            _write_sweep_rows(fh, part)
    _write_sidecar(out.with_suffix(".meta"), argv, cfg_text)
    return 0


# thermo-eval's state flags, all required and positive; of the reference
# flags, T_ref and rho_ref must be positive, s_ref only finite
_THERMO_STATE_FLAGS = ("k1", "k2", "cv1", "cv2", "rho1", "rho2", "T1", "T2")


def _cmd_thermo_eval(args, argv) -> int:
    problems = []
    for name in _THERMO_STATE_FLAGS + ("T_ref", "rho_ref", "s_ref"):
        val = getattr(args, name)
        if not math.isfinite(val):
            problems.append(f"--{name} must be finite, got {val}")
        elif name != "s_ref" and not val > 0:
            problems.append(f"--{name} must be positive, got {val}")
    if problems:
        raise UsageError(problems)
    model = GasPairModel(args.k1, args.k2, args.cv1, args.cv2,
                         args.T_ref, args.rho_ref, args.s_ref)
    with np.errstate(all="ignore"):     # a value that overflows is named below
        s1 = thermo.entropy_from_temperature(model, 1, args.rho1, args.T1)
        s2 = thermo.entropy_from_temperature(model, 2, args.rho2, args.T2)
        pt = thermo.thermo_eval(model, args.rho1, args.rho2, s1, s2)
        avg = average_temperature(model, args.rho1, args.rho2, args.T1, args.T2)
    values = {f.name: float(getattr(pt, f.name)) for f in dc_fields(pt)}
    values.update(T_avg=avg.T, theta1=avg.theta1, theta2=avg.theta2,
                  iterations=avg.iterations, residual=avg.residual)
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"thermo-eval: {name} = {_fmt(val)} is not finite")
    for name, val in values.items():
        print(f"{name}={_fmt(val)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a UsageError, for main to report; subparsers inherit it."""

    def error(self, message):
        raise UsageError([message])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bifluid",
        description="Two-temperature binary mixture: simulation, identity "
                    "verification, closure sweeps, thermodynamic evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write CSV output")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-identity", help="evaluate the Gibbs dynamical identity")
    p.add_argument("--suite", choices=("constant", "sinusoidal"), required=True)
    p.add_argument("--mode", choices=("analytic", "fd"), required=True)
    p.add_argument("--refine", type=int, default=0,
                   help="number of halvings of the FD steps (fd mode only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("sweep", help="run a closure parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("thermo-eval", help="print thermodynamics of one state")
    for flag in _THERMO_STATE_FLAGS:
        p.add_argument(f"--{flag}", type=float, required=True)
    p.add_argument("--T_ref", type=float, default=300.0)
    p.add_argument("--rho_ref", type=float, default=1.0)
    p.add_argument("--s_ref", type=float, default=0.0)
    p.set_defaults(func=_cmd_thermo_eval)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: main parses every call with it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        return args.func(args, ["bifluid"] + argv)
    except SystemExit:      # --help, once printed; every other exit is a UsageError
        return 0
    except UsageError as exc:
        for problem in exc.problems:
            print(f"error: {exc.prefix}{problem}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except (slv.SolverError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
