"""The benchmark's outputs, checked against its recorded digests.

bench/reference.json pins the bytes of every benchmark case per seed; these
tests run the seed-0 cases of each workload in-process, so a change to vertex
enumeration, LPs, diameters or norm evaluation that moves a single byte fails
here and not only in a benchmark run.  lp-certify is also run on seeds 1-19:
its certificate point x is a degenerate LP optimum that depends on every
Bland choice and on the shape of every probe tableau, and twenty seeds give
120 certificates.  norm-sandwich is also
run on seeds 1-4, which pin the integer sandwich trials' failure counts and
worst ratios on 72 more rows.  family2-slices and family7-shrink are also
run on seeds 1-4, whose epsilons and family VII weights differ from seed
0's, so the vertex keys that diameters and the prop3 estimates read are
pinned on other slices and other balls.  The seed-0 lp-certify cases also
pin their LP count, so a change that brings back LPs the certificates do
not need fails here, and their membership and norm calls, so one that
brings back the Fraction checks of a certificate fails too.  bench/ is
only read.
"""

import json
import pathlib
import sys

import pytest

from polyslice import experiments, linprog, polytope, slices, spaces

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


@pytest.mark.parametrize("seed", range(1, 20))
def test_lp_certify_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "lp-certify", seed)


@pytest.mark.parametrize("seed", range(1, 5))
def test_norm_sandwich_outputs_match_reference_digests_on_more_seeds(monkeypatch, seed):
    check_seed(monkeypatch, "norm-sandwich", seed)


def test_lp_certify_seed_0_solves_6_lps_and_no_hull_lp(monkeypatch):
    """6 LPs, one probe per case, by their number of objective columns.
    Per case (N = 6, 7, 8 twice each) the support value and the coordinate
    bounds sup |x_j| come from the family II vertex levels, with no LP.  g
    has a zero beta entry, so a probe's bound, sum |g_j| over its support,
    is its value, and the pruned walk solves only the first support that
    reaches s - alpha: a singleton in each depth-3 slot and a pair in each
    depth-20 slot.  The walk over every support took 63 LPs here.  The dual
    vertices are taken cold, once per space, on the space's integer rows
    (polytope._extreme_keys), and every family II generator passes its
    pre-test, so no hull LP runs.  The certificates build no slice
    polytope, only the three balls, one per space, whose rows they read,
    and check x +- (1-r)y in integers, with no polytope.contains or
    spaces.norm call."""
    workloads = bench_workloads(monkeypatch)
    widths = []
    hull_lps = []
    extreme_calls = []
    calls = {"contains": 0, "norm": 0}
    for name, original in (("contains", polytope.contains), ("norm", spaces.norm)):
        def counted(*a, _name=name, _original=original, **k):
            calls[_name] += 1
            return _original(*a, **k)
        for module in (polytope, spaces, slices, experiments):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    built = []
    init = polytope.HPolytope.__init__

    def counting_init(self, halfspaces, dim, _base=None, **kwargs):
        built.append(_base is not None)
        init(self, halfspaces, dim, _base=_base, **kwargs)

    monkeypatch.setattr(polytope.HPolytope, "__init__", counting_init)
    solve, hull_solve, extreme = slices.solve_lp, linprog.solve_lp, spaces._extreme_keys

    def counting(c, *a, **k):
        widths.append(len(c))
        return solve(c, *a, **k)

    monkeypatch.setattr(slices, "solve_lp", counting)
    monkeypatch.setattr(spaces, "solve_lp", counting)
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: hull_lps.append(1) or hull_solve(*a, **k))
    monkeypatch.setattr(spaces, "_extreme_keys", lambda *a: extreme_calls.append(1) or extreme(*a))
    cases = workloads.make_cases("lp-certify", 0)
    outputs = workloads.run_cases(cases)
    assert [workloads.check_case(case, text) for case, text in zip(cases, outputs)] == [None] * 6
    assert widths == [1, 2] * 3
    assert (len(hull_lps), len(extreme_calls)) == (0, 3)
    assert (built, calls) == ([False] * 3, {"contains": 0, "norm": 0})
