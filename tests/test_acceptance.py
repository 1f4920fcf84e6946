"""Acceptance gate: one test per criterion, exact comparisons throughout.

Slice polytopes built for criteria 1-3 are shared with the sampling-oracle
criterion through module-scoped fixtures, so nothing heavy is computed twice.
"""

import random
import time

import pytest

from polyslice.experiments import (
    ExperimentConfig,
    parse_g,
    prop3_case,
    run_experiment,
    thm1_case,
)
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rank, rational
from polyslice.polytope import HalfSpace, HPolytope, contains, extreme_points, lp_feasible, vertices
from polyslice.slices import (
    DimensionTooSmall,
    SliceSpec,
    diameter,
    lower_bound_certificate,
    make_slice,
    sample_diameter_lower_bound,
)
from polyslice.spaces import make_space_II, make_space_VII, norm

ACCEPT_SEED = 20260816
HALF = rational("1/2")

THM1_NS = (1, 2, 3, 4, 5, 6)
THM1_EPSILONS = ("1/2", "1/5", "1/20")
PROP2_RS = ("1/10", "1/4")
PROP2_G_SPECS = ("e1", "e1+e2", "random")
PROP3_NS = (3, 4, 5)
PROP3_EPSILONS = ("1/10", "1/20", "1/40", "1/80")


@pytest.fixture(scope="module")
def thm1_artifacts():
    cases = []
    for N in THM1_NS:
        for eps_str in THM1_EPSILONS:
            eps = rational(eps_str)
            start = time.perf_counter()
            row, art = thm1_case(N, eps)
            elapsed = time.perf_counter() - start
            cases.append((N, eps, row, art, elapsed))
    return cases


@pytest.fixture(scope="module")
def prop2_artifacts():
    rng = random.Random(ACCEPT_SEED)
    cases = []
    for r_str in PROP2_RS:
        r = rational(r_str)
        space = make_space_II(4, r)
        for g_spec in PROP2_G_SPECS:
            g = parse_g(g_spec, 4, rng)
            cert = lower_bound_certificate(space, g, HALF, r)
            slice_poly = make_slice(space, SliceSpec(g, HALF))
            result = diameter(slice_poly, space)
            cases.append((space, g_spec, g, cert, slice_poly, result))
    return cases


@pytest.fixture(scope="module")
def prop3_artifacts():
    cases = []
    for N in PROP3_NS:
        space = make_space_VII(N)
        for eps_str in PROP3_EPSILONS:
            eps = rational(eps_str)
            start = time.perf_counter()
            row, art = prop3_case(space, eps)
            elapsed = time.perf_counter() - start
            cases.append((N, eps, row, art, elapsed))
    return cases


def test_criterion_1_small_slice_bound_exact(thm1_artifacts):
    assert len(thm1_artifacts) == 18
    for N, eps, row, _, elapsed in thm1_artifacts:
        value = rational(row["exact_value"])
        bound = rational(row["bound"])
        assert bound == 4 * eps / 5
        assert value <= bound, (N, eps, value)
        assert value < eps
        assert row["pass"] is True
        assert elapsed < 60.0, (N, eps, elapsed)
    report = run_experiment(ExperimentConfig(experiment="thm1"))
    assert report.all_pass and len(report.rows) == 18


def test_criterion_2_lower_bound_certificates(prop2_artifacts):
    assert len(prop2_artifacts) == 6
    for space, g_spec, g, cert, slice_poly, result in prop2_artifacts:
        r = space.param("r")
        assert cert.checks == (True, True), (g_spec, r)
        assert cert.bound == 2 * (1 - r)
        assert norm(space, cert.y) == ONE
        assert result.value >= cert.bound, (g_spec, r, result.value)
    small = make_space_II(1, rational("1/10"))
    with pytest.raises(DimensionTooSmall):
        lower_bound_certificate(small, Vec.unit(2, 0), HALF, rational("1/10"))
    report = run_experiment(ExperimentConfig(experiment="prop2", N=1, r="1/10"))
    assert report.all_pass
    assert report.rows[0]["outcome"] == "dimension-too-small"
    assert report.summary["dimension_too_small_N"] == [1]


def test_criterion_3_shrinking_slices(prop3_artifacts):
    assert len(prop3_artifacts) == 12
    by_n = {}
    for N, eps, row, art, elapsed in prop3_artifacts:
        value = rational(row["exact_value"])
        assert value <= 6 * eps, (N, eps, value)
        assert rational(row["max_tail"]) <= 3 * eps
        assert row["pass"] is True
        assert elapsed < 120.0, (N, eps, elapsed)
        by_n.setdefault(N, []).append(value)
        slice_poly = art["slice"]
        for vertex in vertices(slice_poly).vertices:
            tail = [abs(c) for c in vertex[1:]]
            assert max(tail) <= 3 * eps
    for N, values in by_n.items():
        assert values == sorted(values, reverse=True), N
        ratios = [v / rational(e) for v, e in zip(values, PROP3_EPSILONS)]
        assert all(q <= 6 for q in ratios), (N, ratios)
    report = run_experiment(ExperimentConfig(experiment="prop3"))
    assert report.all_pass
    assert report.summary["four_epsilon_holds"] is False


def test_criterion_4_extreme_point_identification():
    report = run_experiment(ExperimentConfig(experiment="verify-ext"))
    assert report.all_pass
    assert len(report.rows) == 18
    for row in report.rows:
        assert row["set_equal"] is True
        assert row["extreme_count"] == 4 * row["N"] + 2


def test_criterion_5_norm_sandwich():
    report = run_experiment(ExperimentConfig(experiment="sandwich"))
    assert report.all_pass
    assert len(report.rows) == 18
    for row in report.rows:
        assert row["trials"] == 1000
        assert row["failures"] == 0


def rnd_vec(rng, dim):
    return Vec([Scalar(rng.randint(-60, 60), rng.randint(1, 25)) for _ in range(dim)])


def random_kernel_polytope(rng, dim):
    rows = []
    for i in range(dim):
        for s in (1, -1):
            rows.append(HalfSpace(Vec.unit(dim, i) * Scalar(s), Scalar(2)))
    extra = rng.randint(1, max(1, 12 - len(rows)))
    for _ in range(extra):
        while True:
            normal = [Scalar(rng.randint(-3, 3)) for _ in range(dim)]
            if any(c != 0 for c in normal):
                break
        rows.append(HalfSpace(Vec(normal), Scalar(rng.randint(1, 3))))
    return HPolytope(rows[:12], dim)


def lp_membership(poly, point):
    eqs = [(Vec.unit(poly.dim, i), point[i]) for i in range(poly.dim)]
    ok, _ = lp_feasible(list(poly.halfspaces), eqs)
    return ok


def test_criterion_6_property_suites():
    rng = random.Random(ACCEPT_SEED + 1)
    for space in (make_space_II(3, rational("1/10")), make_space_VII(4)):
        for _ in range(1000):
            x = rnd_vec(rng, space.dim)
            y = rnd_vec(rng, space.dim)
            lam = Scalar(rng.randint(-12, 12), rng.randint(1, 7))
            assert norm(space, x * lam) == abs(lam) * norm(space, x)
            assert norm(space, x + y) <= norm(space, x) + norm(space, y)
            assert (norm(space, x) == ZERO) == x.is_zero()

    rng = random.Random(ACCEPT_SEED + 2)
    for _ in range(200):
        dim = rng.randint(2, 4)
        poly = random_kernel_polytope(rng, dim)
        verts = vertices(poly)
        assert set(extreme_points(verts.vertices).vertices) == set(verts.vertices)
        for v in verts.vertices[:4]:
            tight = [h.a for h in poly.halfspaces if h.a.dot(v) == h.b]
            assert rank(tight) == dim
            assert contains(poly, v) and lp_membership(poly, v)
            inside = v * HALF
            assert contains(poly, inside) and lp_membership(poly, inside)
            outside = v * Scalar(3, 2)
            assert contains(poly, outside) == lp_membership(poly, outside)


def test_criterion_7_sampling_oracle_consistency(thm1_artifacts, prop2_artifacts, prop3_artifacts):
    checked = 0
    for N, eps, _, art, _ in thm1_artifacts:
        exact = art["result"].value
        sampled = sample_diameter_lower_bound(art["slice"], art["space"], 10000, ACCEPT_SEED)
        assert float(sampled) <= float(exact) + 1e-9, (N, eps)
        checked += 1
    for space, g_spec, g, cert, slice_poly, result in prop2_artifacts:
        sampled = sample_diameter_lower_bound(slice_poly, space, 10000, ACCEPT_SEED)
        assert float(sampled) <= float(result.value) + 1e-9, g_spec
        checked += 1
    for N, eps, _, art, _ in prop3_artifacts:
        sampled = sample_diameter_lower_bound(art["slice"], art["space"], 10000, ACCEPT_SEED)
        assert float(sampled) <= float(art["result"].value) + 1e-9, (N, eps)
        checked += 1
    assert checked == 36
