"""Span tracer that wraps bifluid's public functions from outside the package.

Spans (name, start, end, parent) are kept in memory and summarised at the
end of the run.  A function is replaced in every loaded ``bifluid`` module
that binds it, because ``solver``, ``closure`` and ``cli`` hold their own
references through ``from ... import``; a class is traced through its
``__init__``, which catches every construction however the class is bound.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Layer -> public names traced in it.
LAYERS = {
    "cli": ("main", "parse_config"),
    "solver": ("integrate", "step", "rhs", "diagnostics", "max_wave_speed"),
    "fields": ("grad", "div", "MixtureState"),
    "thermo": ("thermo_eval", "sound_speed"),
    "avgtemp": ("average_temperature", "average_temperature_field"),
    "closure": ("entropy_sources", "dynamical_pressure_from_state",
                "lambda_coefficient"),
    "sweep": ("run_sweep", "sweep_point"),
    "identity": ("ManufacturedFields", "ExtendedPotential", "gibbs_residual",
                 "appendix_term_residual"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _regularized(result):
    return int(np.count_nonzero(result.regularized))


def _skipped(row):
    return 1 if row["skipped"] else 0


# Span name -> (counter, function of the returned value).
RESULT_COUNTERS = {
    "closure.entropy_sources": ("closure.regularized_cells", _regularized),
    "avgtemp.average_temperature": ("avgtemp.newton_iterations",
                                    lambda r: int(r.iterations)),
    "sweep.sweep_point": ("sweep.skipped_rows", _skipped),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters = {counter: 0 for counter, _ in RESULT_COUNTERS.values()}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        counter, count = RESULT_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += count(result)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every traced name; returns the names that were not found."""
        homes = {}
        for layer in LAYERS:
            try:
                homes[layer] = importlib.import_module(f"bifluid.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bifluid" or key.startswith("bifluid."))]
        missing = []
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                obj = getattr(home, fn_name, None)
                if obj is None:
                    missing.append(name)
                elif isinstance(obj, type):
                    obj.__init__ = self._wrap(name, obj.__init__)
                else:
                    wrapped = self._wrap(name, obj)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is obj:
                                setattr(mod, attr, wrapped)
        return missing

    def summary(self) -> dict:
        """calls, total_s and self_s per span name, plus solver.step durations.

        total_s counts only the outermost span of a name, so recursion is not
        counted twice; self_s is a span's duration minus its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        step_us = []
        for i, (name, start, end, parent) in enumerate(spans):
            st = stats[name]
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                st["total_s"] += dur
            if name == "solver.step":
                step_us.append(dur * 1e6)
        return {"spans": stats, "counters": dict(self.counters),
                "step_us": step_us}
