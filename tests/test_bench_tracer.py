"""The benchmark tracer's names and result counters still fit the package.

bench/tracer.py is loaded from its file and only read: Tracer.install()
would patch the package for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from bifluid import GasPairModel

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names
               if not hasattr(importlib.import_module(f"bifluid.{layer}"), name)]
    assert missing == []
    assert set(tracer.RESULT_COUNTERS) <= set(tracer.SPAN_NAMES)


def test_result_counters_read_real_results():
    from bifluid.avgtemp import average_temperature
    from bifluid.closure import entropy_sources
    from bifluid.sweep import sweep_point

    results = {
        "avgtemp.average_temperature": average_temperature(MODEL, 1.0, 2.0, 300.0, 320.0),
        "closure.entropy_sources": entropy_sources(
            MODEL, np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([300.0, 310.0]),
            np.array([300.0, 320.0]), np.array([300.0, 315.0]), 0.13,
            np.array([0.5, 0.5]), 1e-6),
        "sweep.sweep_point": sweep_point(MODEL, "pair", 1.0, 2.0, 500.0, 300.0, 1.0),
    }
    counts = {}
    for span, (counter, count) in _tracer().RESULT_COUNTERS.items():
        counts[counter] = count(results[span])
    assert counts["avgtemp.newton_iterations"] == 0      # T_avg has a closed form
    assert counts["closure.regularized_cells"] == 1      # the T1 = T2 cell
    assert counts["sweep.skipped_rows"] == 1             # T1 = 300 + beta 500 < 0
