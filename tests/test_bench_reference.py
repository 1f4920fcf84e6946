"""The benchmark's outputs, checked against its recorded digests.

bench/reference.json pins the bytes of every benchmark case per seed; these
tests run the seed-0 cases of each workload in-process, so a change to vertex
enumeration, LPs, diameters or norm evaluation that moves a single byte fails
here and not only in a benchmark run.  lp-certify is also run on seeds 1-9:
its certificate point x is a degenerate LP optimum that depends on every
Bland choice, and ten seeds give 60 certificates.  norm-sandwich is also
run on seeds 1-4, which pin the integer sandwich trials' failure counts and
worst ratios on 72 more rows.  family2-slices and family7-shrink are also
run on seeds 1-4, whose epsilons and family VII weights differ from seed
0's, so the vertex keys that diameters and the prop3 estimates read are
pinned on other slices and other balls.  The seed-0 lp-certify cases also
pin their LP count, so a change that brings back LPs the certificates do
not need fails here.  bench/ is only read.
"""

import json
import pathlib
import sys
from collections import Counter

import pytest

from polyslice import linprog, slices, spaces

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def check_seed(monkeypatch, workload, seed=0):
    workloads = bench_workloads(monkeypatch)
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


@pytest.mark.parametrize("seed", range(1, 5))
@pytest.mark.parametrize("workload", ["family2-slices", "family7-shrink"])
def test_enumeration_outputs_match_reference_digests_on_more_seeds(monkeypatch, workload, seed):
    check_seed(monkeypatch, workload, seed)


@pytest.mark.parametrize("seed", range(1, 10))
def test_lp_certify_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "lp-certify", seed)


@pytest.mark.parametrize("seed", range(1, 5))
def test_norm_sandwich_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "norm-sandwich", seed)


def test_lp_certify_seed_0_solves_69_lps_and_no_hull_lp(monkeypatch):
    """69 LPs, by their number of objective columns.  Per case (N = 6, 7, 8
    twice each) the support LP has N + 1 columns.  Each probe is one LP with
    one column per support coordinate, which gives both its value and its
    point, and the empty support needs none: two singletons per depth-3
    slot, and per depth-20 slot N + 1 singletons and 18 - N pairs.  The dual
    vertices are taken cold, and every family II generator passes
    extreme_points' pre-test, so no hull LP runs."""
    workloads = bench_workloads(monkeypatch)
    monkeypatch.setattr(spaces, "_DUAL_CACHE", {})
    widths = []
    hull_lps = []
    extreme_calls = []
    solve, hull_solve, extreme = slices.solve_lp, linprog.solve_lp, spaces.extreme_points
    monkeypatch.setattr(slices, "solve_lp", lambda c, *a, **k: widths.append(len(c)) or solve(c, *a, **k))
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: hull_lps.append(1) or hull_solve(*a, **k))
    monkeypatch.setattr(spaces, "extreme_points", lambda p: extreme_calls.append(1) or extreme(p))
    cases = workloads.make_cases("lp-certify", 0)
    outputs = workloads.run_cases(cases)
    assert [workloads.check_case(case, text) for case, text in zip(cases, outputs)] == [None] * 6
    assert len(widths) == 6 + 3 * 2 + 3 * 19
    assert sorted(Counter(widths).items()) == [(1, 2 * 3 + 7 + 8 + 9), (2, 12 + 11 + 10),
                                               (7, 2), (8, 2), (9, 2)]
    assert (len(hull_lps), len(extreme_calls)) == (0, 3)
