"""The benchmark's outputs, checked against its recorded digests.

bench/reference.json pins the bytes of every benchmark case per seed; these
tests run the seed-0 cases of each workload in-process, so a change to vertex
enumeration, LPs, diameters or norm evaluation that moves a single byte fails
here and not only in a benchmark run.  lp-certify is also run on seeds 1-9:
its certificate point x is a degenerate LP optimum that depends on every
Bland choice, and ten seeds give 60 certificates.  norm-sandwich is also
run on seeds 1-4, which pin the integer sandwich trials' failure counts and
worst ratios on 72 more rows.  bench/ is only read.
"""

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def check_seed(monkeypatch, workload, seed=0):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    cases = workloads.make_cases(workload, seed)
    outputs = workloads.run_cases(cases)
    assert [workloads.check_case(case, text) for case, text in zip(cases, outputs)] == [None] * len(cases)
    assert [workloads.digest(text) for text in outputs] == reference[workload][str(seed)]


def test_norm_sandwich_outputs_match_reference_digests(monkeypatch):
    check_seed(monkeypatch, "norm-sandwich")


@pytest.mark.parametrize("workload", ["family2-slices", "family7-shrink", "lp-certify"])
def test_enumeration_and_lp_outputs_match_reference_digests(monkeypatch, workload):
    check_seed(monkeypatch, workload)


@pytest.mark.parametrize("seed", range(1, 10))
def test_lp_certify_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "lp-certify", seed)


@pytest.mark.parametrize("seed", range(1, 5))
def test_norm_sandwich_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "norm-sandwich", seed)
