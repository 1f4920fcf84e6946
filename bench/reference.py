"""Record reference outputs: a short digest of every case's exact output.

Usage (from the repository root):

    python3 bench/reference.py --seeds 0-99 [--workload NAME ...] [--jobs 2]

Runs each named workload (default: all) once per seed in a fresh process,
refuses to record a seed whose outputs fail workloads.check_case, and
updates those entries of bench/reference.json.  Record at a commit whose
outputs are trusted; run.py then fails any case whose bytes differ from them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import workloads
from run import HERE, spawn


def record(workload, seed):
    cases = workloads.make_cases(workload, seed)
    outputs = spawn({"cases": cases, "trace": False})["outputs"]
    for i, (case, text) in enumerate(zip(cases, outputs)):
        reason = workloads.check_case(case, text)
        if reason is not None:
            raise RuntimeError("%s seed %d case %d: %s" % (workload, seed, i, reason))
    return [workloads.digest(text) for text in outputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range LO-HI")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    jobs = [(w, s) for s in range(lo, hi + 1) for w in args.workload or workloads.WORKLOADS]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        digests = list(pool.map(lambda job: record(*job), jobs))
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for (w, s), d in zip(jobs, digests):
        table.setdefault(w, {})[str(s)] = d
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d workload runs for seeds %d-%d" % (len(jobs), lo, hi))
    return 0


if __name__ == "__main__":
    sys.exit(main())
