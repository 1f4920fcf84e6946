"""The benchmark's norm-sandwich outputs, checked against its recorded digests.

bench/reference.json pins the bytes of every benchmark case per seed; this
runs the seed-0 sandwich cases in-process, so a change to norm evaluation that
moves a single byte fails here and not only in a benchmark run.  bench/ is
only read.
"""

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_norm_sandwich_outputs_match_reference_digests(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    outputs = workloads.run_cases(workloads.make_cases("norm-sandwich", 0))
    assert [workloads.digest(text) for text in outputs] == reference["norm-sandwich"]["0"]
