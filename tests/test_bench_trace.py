"""The benchmark's tracer still sees the experiment layer.

bench/tracer.py wraps each case function by name and rebinds the wrapper
wherever the package binds the original.  A case function that is renamed,
or called through a value stored in a table, escapes that rebinding: the
traced run then fails to install or records no case spans.  This test runs
bench/child.py traced on three small CLI cases, in a fresh interpreter as the
benchmark does, and counts the case spans under each report.  bench/ is only
read.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

CASES = [
    ["thm1", "--n", "1", "--epsilon", "1/5"],
    ["prop3", "--n", "3", "--epsilons", "1/10"],
    ["verify-ext", "--n", "1", "--r", "1/10"],
]


def test_traced_child_records_case_spans_for_every_row(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    request = {"cases": [{"cli": argv} for argv in CASES], "trace": True,
               "spans_path": str(spans_path), "run_id": 0}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), repr(time.monotonic())],
                          input=json.dumps(request), capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["backend"] == "fractions.Fraction"
    assert [out for out in record["outputs"] if out.startswith("error:")] == []

    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    mains = [s["id"] for s in spans if s["name"] == "cli.main"]
    assert len(mains) == len(CASES)

    def report_of(span):
        while span["parent"] >= 0 and span["name"] != "cli.main":
            span = spans[span["parent"]]
        return span["id"]

    per_report = {main: 0 for main in mains}
    for span in spans:
        if span["name"] == "experiments.case":
            per_report[report_of(span)] += 1
    rows = [len(out.splitlines()) - 1 for out in record["outputs"]]
    assert rows == [1, 1, 1]
    for main, n_rows in zip(mains, rows):
        assert per_report[main] >= n_rows
