"""The benchmark tracer's names and result counters still fit the package.

bench/tracer.py is loaded from its file and only read: Tracer.install()
would patch the package for the rest of the session, so the one test that
installs it does so in a subprocess.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from bifluid import GasPairModel

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


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


# Installs the tracer as bench/child.py does, runs one sweep through the CLI
# and prints the span counts and counters.
TRACED_SWEEP = r"""
import json, logging, sys
src, bench, cfg, out = sys.argv[1:5]
sys.path[:0] = [src, bench]
import bifluid.cli
from tracer import Tracer
logging.basicConfig(level=logging.WARNING)     # one "WARNING:" line per skipped point
tracer = Tracer()
missing = tracer.install()
rc = bifluid.cli.main(["sweep", "--config", cfg, "--out", out])
summary = tracer.summary()
json.dump({"rc": rc, "missing": missing, "counters": summary["counters"],
           "calls": {name: st["calls"] for name, st in summary["spans"].items()}}, sys.stdout)
"""

SWEEP_CONFIG = """\
[grid]
n = 16
length = 1.0
[gas1]
k = 1.0
cv = 1.5
[gas2]
k = 0.5
cv = 2.5
[time]
dt = 1e-4
t_end = 0.01
[init]
rho1_bg = 1.0
rho2_bg = 2.0
v1_bg = 0.0
v2_bg = 0.0
s1_bg = 0.0
s2_bg = 0.0
[sweep]
theta_min = -1000.0
theta_max = 1000.0
theta_count = 5
rho1_min = 0.5
rho1_max = 2.0
rho1_count = 3
rho2_min = 0.5
rho2_max = 2.0
rho2_count = 3
"""


def test_traced_sweep_passes_the_benchmark_self_check(tmp_path):
    # bench/run.py's _self_check of a traced sweep: one sweep_point span per
    # grid point, and sweep.skipped_rows equal to the WARNING lines on stderr
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    proc = subprocess.run([sys.executable, "-c", TRACED_SWEEP, str(ROOT / "src"),
                           str(ROOT / "bench"), str(cfg), str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    warnings = sum(ln.startswith("WARNING") for ln in proc.stderr.splitlines())
    assert res["rc"] == 0 and res["missing"] == []
    assert res["calls"]["sweep.sweep_point"] == 5 * 3 * 3
    assert 0 < warnings < 5 * 3 * 3
    assert res["counters"]["sweep.skipped_rows"] == warnings
    assert res["calls"]["closure.lambda_coefficient"] == 3 * 3      # once per line
