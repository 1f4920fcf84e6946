"""Compare two saved run records (.bench_out/*.json) metric by metric.

Usage (from the repository root):

    python3 bench/compare.py BASE.json NEW.json

Refuses, with exit status 2, to compare records whose scalar backends
differ (gmpy2 against fractions.Fraction alone moves times about 10x) or
whose workload or trace mode differ.  Otherwise prints, per metric, both
values, NEW/BASE, and for end-to-end metrics whether NEW is worse than BASE
by more than the bound in BENCHMARK.json.  One pair of runs is one sample;
a claim needs the repeated pairs that the choosing-metrics method asks for.
"""

from __future__ import annotations

import json
import sys

from run import load_metrics


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (_load(p) for p in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print("refusing to compare: %s %r vs %r" % (key, base[key], new[key]))
            return 2
    if base["environment"]["backend"] != new["environment"]["backend"]:
        print("refusing to compare: backend %s vs %s"
              % (base["environment"]["backend"], new["environment"]["backend"]))
        return 2
    e2e, _ = load_metrics()
    spec = {m["name"]: m for m in e2e}
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"][name]
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        verdict = ""
        if name in spec:
            m = spec[name]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            verdict = "WORSE than bound %.2f" % m["bound"] if worse > m["bound"] else "within bound"
        print("%-42s %14.6g %14.6g %8.3f %s %s" % (name, b["value"], n["value"], ratio, b["unit"], verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
