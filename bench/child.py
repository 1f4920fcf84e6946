"""One cold workload run in a fresh interpreter.

Usage: child.py SPAWN_TIME < request.json

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it spawned
this process, so set-up time covers interpreter start and `import polyslice`
(numpy included) plus the CLI module.  The request names the cases, whether
to trace, and where to write spans.  One JSON record goes to stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import polyslice  # noqa: E402
import polyslice.cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed stdlib Fraction loop whose operands stay small, so
    its cost depends on machine speed only."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 4001):
        acc = (acc + Fraction(k % 7 + 1, k % 11 + 2)) % 3
    return time.perf_counter() - start


def main() -> int:
    setup_s = READY - float(sys.argv[1])
    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    calib_before = calibrate()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        outputs = workloads.run_cases(request["cases"])
    else:
        outputs = tracer.root(lambda: workloads.run_cases(request["cases"]))
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    calib_after = calibrate()
    record = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "backend": "gmpy2" if polyslice.numeric.HAVE_GMPY2 else "fractions.Fraction",
        "numpy": sys.modules["numpy"].__version__,
        "traced": tracer is not None,
        "outputs": outputs,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"], request["run_id"])
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
