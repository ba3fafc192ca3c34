"""One benchmark process: set-up, then the workload's ``cli.main`` calls.

Usage: python3 child.py SRC_DIR SPEC_JSON RESULT_JSON TRACE

Set-up is timed from before ``import bifluid`` to the end of ``parse_config``
of the workload config, in this fresh interpreter, as a CLI user pays it.
With TRACE=1 sympy is imported first (so its share of the import shows on
its own), then the tracer wraps bifluid's public functions before the calls.
"""

import json
import sys
import time


def main() -> int:
    src, spec_path, result_path, trace = sys.argv[1:5]
    trace = trace == "1"
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    if trace:
        import sympy  # noqa: F401
    t_sympy = time.perf_counter()
    import bifluid
    import bifluid.cli
    t_import = time.perf_counter()
    with open(spec["setup_config"]) as fh:
        bifluid.cli.parse_config(fh.read())
    t_setup = time.perf_counter()

    import contextlib
    import io
    import logging
    import os
    import resource
    import traceback

    if not os.path.realpath(bifluid.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported bifluid from {bifluid.__file__}, not {src}", file=sys.stderr)
        return 3
    # Default format, so each skipped sweep point gives one "WARNING:" line.
    logging.basicConfig(level=logging.WARNING)

    tracer = None
    missing = []
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()

    ops = []
    for op in spec["ops"]:
        buf = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = bifluid.cli.main(op["argv"])
        except Exception:           # a crash is a failed operation, not a stop
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t
        if op["stdout_file"]:
            with open(op["stdout_file"], "w") as fh:
                fh.write(buf.getvalue())
        ops.append({"kind": op["kind"], "rc": rc, "wall_s": wall, "error": error})

    result = {
        "setup_s": t_setup - t0,
        "import_sympy_s": t_sympy - t0,
        "import_bifluid_s": t_import - t_sympy,
        "parse_config_s": t_setup - t_import,
        "wall_s": sum(o["wall_s"] for o in ops),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["missing"] = missing
        with open(spec["spans_file"], "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
