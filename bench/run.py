"""polyslice benchmark: cold, checked workload runs in fresh processes.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run draws the workload's inputs from the seed, then for S seconds
spawns one fresh Python process after another (bench/child.py), each
importing polyslice and running every case once.  Fresh processes matter:
spaces._BALL_CACHE, spaces._DUAL_CACHE and HPolytope._vcache fill during a
run and would make a second run in the same interpreter enumerate nothing,
while a CLI user pays the cold cost on every invocation.

Every output is checked (workloads.check_case), compared byte for byte
across the run's processes, and compared with reference.json where it holds
the seed.  --trace 0 reports the end-to-end metrics of BENCHMARK.json (see
end_to_end for the statistic of each).  --trace 1 alternates untraced and
traced processes
and reports the per-layer metrics; work counts must repeat exactly between
traced processes.  The last stdout line is the JSON result; a longer record
with the environment and per-process figures goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 120
MIN_UNTRACED = 3
MIN_TRACED = 2


def spawn(request):
    """Run child.py on request; return its record, or raise RuntimeError."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), repr(t0)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("child process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("child process failed (exit %d): %s" % (proc.returncode, err.strip()[-2000:]))
    return json.loads(out.splitlines()[-1])


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def load_reference(workload, seed):
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure(workload, seed, seconds, trace, cases):
    """Spawn processes for the time budget; return their records in order."""
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spawn({"cases": [], "trace": False})  # compiles bytecode, as an install would
    records = []
    start = time.monotonic()
    while True:
        n_traced = sum(r["traced"] for r in records)
        enough = len(records) - n_traced >= MIN_UNTRACED and (not trace or n_traced >= MIN_TRACED)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["elapsed_s"] for r in records) if records else 0.0
        if enough and elapsed + typical > seconds:
            break
        traced = trace and len(records) % 2 == 1
        run_id = "%s-s%d-p%d%s" % (workload, seed, len(records), "-traced" if traced else "")
        request = {"cases": cases, "trace": traced, "run_id": run_id,
                   "spans_path": os.path.join(OUT, "spans", run_id + ".jsonl") if traced else None}
        t = time.monotonic()
        record = spawn(request)
        record["elapsed_s"] = time.monotonic() - t
        record["run_id"] = run_id
        records.append(record)
    return records


def judge(cases, records, reference):
    """Per-case verdicts: (failures list, attempted, failed)."""
    failures = []
    attempted = failed = 0
    first = records[0]["outputs"]
    for rec in records:
        for i, (case, text) in enumerate(zip(cases, rec["outputs"])):
            attempted += 1
            reason = workloads.check_case(case, text)
            if reason is None and text != first[i]:
                reason = "output differs between processes of one run"
            if reason is None and reference is not None and workloads.digest(text) != reference[i]:
                reason = "output differs from reference.json"
            if reason is not None:
                failed += 1
                failures.append("%s case %d: %s" % (rec["run_id"], i, reason))
    return failures, attempted, failed


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(records, attempted, failed, spec):
    """wall_s and cpu_s are the slowest process of the run, the rest medians.

    On the 2-vCPU machine the benchmark was tuned on, speed switches between
    two levels about 1.6x apart in phases of 10-60 s.  A 28 s run's median
    then depends on which phase dominated it (ten-seed spread up to 0.25 of
    the median), while its slowest process lands on the slow level in almost
    every run (spread 0.05-0.08).  The medians are kept in the run record.
    """
    values = {
        "wall_s": max(r["wall_s"] for r in records),
        "cpu_s": max(r["cpu_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_rate": 1.0 - failed / attempted,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(records, spec, failures):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    counts = traced[0]["layers"]["counts"]
    for rec in traced[1:]:
        diff = sorted(k for k in counts if rec["layers"]["counts"][k] != counts[k])
        if diff:
            failures.append("%s: work counts differ from %s: %s"
                            % (rec["run_id"], traced[0]["run_id"], ", ".join(diff)))
    times = {k: statistics.median(r["layers"]["times"][k] for r in traced)
             for k in traced[0]["layers"]["times"]}
    times["trace.overhead_s"] = times["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    values = dict(counts, **times)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}, counts, times


def print_table(records, times, counts):
    plain = [r["wall_s"] for r in records if not r["traced"]]
    print("per-layer self time (median of %d traced processes)" % sum(r["traced"] for r in records))
    print("  %-38s %8s %10s %7s" % ("span", "calls", "self_s", "share"))
    wall = times["trace.wall_s"]
    rows = [(k[:-len(".self_s")], v) for k, v in times.items()
            if k.endswith(".self_s") and not k.startswith("layer.")]
    for name, value in sorted(rows, key=lambda kv: -kv[1]):
        if counts["%s.calls" % name]:
            print("  %-38s %8d %10.4f %6.1f%%" % (name, counts["%s.calls" % name], value, 100 * value / wall))
    print("  %-38s %8s %10s %7s" % ("layer", "", "self_s", "share"))
    layers = {k[len("layer."):-len(".self_s")]: v for k, v in times.items() if k.startswith("layer.")}
    for name, v in list(layers.items()) + [("(sum)", sum(layers.values()))]:
        print("  %-38s %8s %10.4f %6.1f%%" % (name, "", v, 100 * v / wall))
    print("  traced wall_s %.4f, untraced wall_s %.4f (median of %d), trace.overhead_s %.4f"
          % (wall, statistics.median(plain), len(plain), times["trace.overhead_s"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polyslice", "__init__.py")):
        print("bench: polyslice sources not found under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    e2e_spec, layer_spec = load_metrics()
    cases = workloads.make_cases(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    env_before = environment()
    try:
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace), cases)
    except RuntimeError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 3
    failures, attempted, failed = judge(cases, records, reference)
    if args.trace:
        metrics, counts, times = per_layer(records, layer_spec, failures)
        print_table(records, times, counts)
    else:
        metrics = end_to_end(records, attempted, failed, e2e_spec)
    env = dict(env_before, backend=records[0]["backend"], numpy=records[0]["numpy"],
               loadavg_after=list(os.getloadavg()))
    calib = [c for r in records for c in (r["calib_before_s"], r["calib_after_s"])]
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "reference": "checked" if reference is not None else "none for this seed",
        "failures": failures, "result": result,
        "processes": [{k: v for k, v in r.items() if k not in ("outputs", "layers")} for r in records],
    }
    plain = [r for r in records if not r["traced"]]
    detail["summary"] = {k: {"median": statistics.median(r[k] for r in plain),
                             "max": max(r[k] for r in plain), "n": len(plain)}
                         for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for line in failures[:20]:
        print("FAIL %s" % line)
    for k, v in detail["summary"].items():
        print("%-12s median %.4f  max %.4f  (%d untraced processes)" % (k, v["median"], v["max"], v["n"]))
    print("%s seed %d: %d processes, backend %s, python %s, nproc %d, calibration %.4f-%.4f s, reference %s"
          % (args.workload, args.seed, len(records), env["backend"], env["python"], env["nproc"],
             min(calib), max(calib), detail["reference"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
