"""Check that the tracer sees every call: traced default-grid CLI runs must
make exactly the calls counted at the commit that introduced the benchmark.

Usage (from the repository root; about a minute):

    python3 bench/coverage.py

A count below the expected one means some binding site escaped the
tracer's rebinding.  Exit status 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import spawn

EXPECTED = [
    (["thm1"], {"polytope.vertices.ball.calls": 18, "polytope.vertices.slice.calls": 18,
                "linprog.solve_lp.calls": 180}),
    (["prop2"], {"linprog.solve_lp.calls": 354}),
    (["verify-ext"], {"linprog.solve_lp.calls": 288}),
    (["sandwich"], {"spaces.norm.calls": 18000}),
]


def main() -> int:
    ok = True
    for argv, expected in EXPECTED:
        record = spawn({"cases": [{"cli": argv}], "trace": True})
        if record["outputs"][0].startswith("error:"):
            print("%s: %s" % (argv[0], record["outputs"][0]))
            ok = False
            continue
        counts = record["layers"]["counts"]
        for name, want in expected.items():
            got = counts[name]
            ok &= got == want
            print("%-10s %-32s expected %6d got %6d %s"
                  % (argv[0], name, want, got, "ok" if got == want else "MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
