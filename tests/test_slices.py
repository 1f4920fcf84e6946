"""Slice construction, exact diameters, certificates, and the sampling oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from polyslice import slices
from polyslice.linprog import solve_lp
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rational
from polyslice.polytope import contains, vertices
from polyslice.slices import (
    DiameterResult,
    DimensionTooSmall,
    SliceSpec,
    _probe_subsets,
    _probe,
    diameter,
    diameter_profile,
    lower_bound_certificate,
    make_slice,
    sample_diameter_lower_bound,
    support_value,
)
from polyslice.spaces import (
    PolyhedralNormSpace,
    make_space_II,
    make_space_VII,
    norm,
    reference_product_norm,
    unit_ball,
)

R10 = rational("1/10")
HALF = rational("1/2")


def lifted_cut_functional(space):
    r = space.param("r")
    return Vec.unit(space.dim, space.dim - 1) * (1 + r)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(Vec([1, 0]), 0)
    with pytest.raises(ValueError):
        SliceSpec(Vec([1, 0]), "-1/3")
    spec = SliceSpec(Vec([1, 0]), "1/3")
    assert spec.alpha == rational("1/3")


def test_make_slice_rejects_zero_functional():
    sp = make_space_II(2, R10)
    with pytest.raises(ValueError):
        make_slice(sp, SliceSpec(Vec.zero(3), ONE))


def test_support_value_examples():
    sp = make_space_II(2, R10)
    assert support_value(sp, lifted_cut_functional(sp)) == ONE
    assert support_value(sp, Vec.unit(3, 0)) == ONE
    assert support_value(sp, Vec([0, 0, 1])) == rational("10/11")
    sp7 = make_space_VII(3)
    assert support_value(sp7, Vec.unit(3, 0)) == ONE


def test_support_value_agrees_with_vertex_maximum():
    for sp in (make_space_II(2, R10), make_space_VII(3)):
        verts = vertices(unit_ball(sp)).vertices
        for f in (Vec.unit(sp.dim, 0), Vec([ONE] * sp.dim), Vec.unit(sp.dim, sp.dim - 1) * 3):
            assert support_value(sp, f) == max(f.dot(v) for v in verts)


def test_slice_contains_high_value_points_only():
    sp = make_space_II(2, R10)
    sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), ONE))
    assert contains(sl, Vec([0, 0, rational("10/11")]))
    assert not contains(sl, Vec([0, 0, rational("-10/11")]))


def test_vacuous_cut_keeps_whole_ball():
    sp = make_space_II(2, R10)
    sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), Scalar(3)))
    assert set(vertices(sl).vertices) == set(vertices(unit_ball(sp)).vertices)


def test_ball_diameter_is_two_with_valid_witness():
    sp = make_space_II(2, R10)
    res = diameter(unit_ball(sp), sp)
    assert res.value == 2
    u, v = res.witness_pair
    assert norm(sp, u - v) == 2
    ball_verts = set(vertices(unit_ball(sp)).vertices)
    assert u in ball_verts and v in ball_verts
    some_vertex = next(iter(ball_verts))
    assert norm(sp, some_vertex - (-some_vertex)) == 2
    assert res.vertex_count == 12


def test_frozen_lifted_slice_diameters():
    cases = [
        (2, "1/10", "1/40", "5/22"),
        (2, "1/8", "1/20", "14/45"),
        (1, "1/10", "1/40", "5/22"),
        (3, "1/20", "1/50", "2/15"),
    ]
    for n, r, delta, expected in cases:
        sp = make_space_II(n, rational(r))
        sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), rational(delta)))
        res = diameter(sl, sp)
        assert res.value == rational(expected), (n, r, delta, res.value)
        assert res.value <= 2 * rational(r) + 3 * rational(delta)


def test_lifted_slice_diameter_closed_form():
    for n in (1, 2, 3):
        for r, delta in (("1/10", "1/40"), ("1/6", "1/12")):
            r, delta = rational(r), rational(delta)
            sp = make_space_II(n, r)
            sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), delta))
            assert diameter(sl, sp).value == 2 * (r + delta) / (1 + r)


def test_diameter_witness_is_attained_and_inside():
    sp = make_space_II(2, R10)
    sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), rational("1/40")))
    res = diameter(sl, sp)
    u, v = res.witness_pair
    assert norm(sp, u - v) == res.value
    assert contains(sl, u) and contains(sl, v)
    assert u <= v


def test_diameter_equals_quadratic_pair_scan():
    for sp, spec in (
        (make_space_II(2, R10), SliceSpec(Vec([0, 0, rational("11/10")]), rational("1/40"))),
        (make_space_VII(3), SliceSpec(Vec.unit(3, 0), rational("1/10"))),
    ):
        sl = make_slice(sp, spec)
        verts = vertices(sl).vertices
        brute = max(norm(sp, u - v) for u, v in combinations(verts, 2))
        assert diameter(sl, sp).value == brute


def test_weighted_slice_diameter_is_six_epsilon():
    for n in (2, 3, 4):
        sp = make_space_VII(n)
        for eps in (rational("1/10"), rational("1/20")):
            sl = make_slice(sp, SliceSpec(Vec.unit(n, 0), eps))
            assert diameter(sl, sp).value == 6 * eps


def test_weighted_slice_vertex_estimates():
    sp = make_space_VII(3)
    eps = rational("1/10")
    sl = make_slice(sp, SliceSpec(Vec.unit(3, 0), eps))
    for v in vertices(sl).vertices:
        assert v[0] >= 1 - eps
        assert max(abs(c) for c in v[1:]) <= 3 * eps


def test_norm_equivalence_transfer_on_lifted_slices():
    r = R10
    sp = make_space_II(2, r)
    sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), rational("1/40")))
    verts = vertices(sl).vertices
    diam_ref = max(reference_product_norm(u - v, sp.dim - 1) for u, v in combinations(verts, 2))
    value = diameter(sl, sp).value
    assert diam_ref <= value <= (1 + r) * diam_ref


def test_slice_monotonicity_in_alpha():
    sp = make_space_II(2, R10)
    f = lifted_cut_functional(sp)
    small = diameter(make_slice(sp, SliceSpec(f, rational("1/50"))), sp).value
    large = diameter(make_slice(sp, SliceSpec(f, rational("1/8"))), sp).value
    assert small <= large


def test_diameter_profile_shapes_and_monotonicity():
    sp = make_space_VII(3)
    alphas = [rational("1/10"), rational("1/20"), rational("1/40")]
    prof = diameter_profile(sp, Vec.unit(3, 0), alphas)
    assert [a for a, _ in prof] == alphas
    values = [res.value for _, res in prof]
    assert values == sorted(values, reverse=True)
    assert values[0] == rational("3/5")


def test_diameter_profile_whole_ball_alpha():
    sp = make_space_VII(2)
    prof = diameter_profile(sp, Vec.unit(2, 0), [Scalar(2)])
    assert prof[0][1].value == 2


def test_diameter_profile_validation():
    sp = make_space_VII(2)
    with pytest.raises(ValueError):
        diameter_profile(sp, Vec.unit(2, 0), [])
    with pytest.raises(ValueError):
        diameter_profile(sp, Vec.unit(2, 0), [rational("1/10"), rational("1/10")])
    with pytest.raises(ValueError):
        diameter_profile(sp, Vec.unit(2, 0), [rational("1/10"), rational("-1/20")])


def certificate_invariants(space, cert):
    assert norm(space, cert.y) == ONE
    assert cert.g.dot(cert.y) == ZERO
    for phi in cert.active:
        assert phi.dot(cert.y) == ZERO
        assert phi.dot(cert.x) > cert.r
    step = cert.y * (1 - cert.r)
    sl = make_slice(space, SliceSpec(cert.g, cert.alpha))
    assert contains(sl, cert.x + step) and contains(sl, cert.x - step)
    assert norm(space, (cert.x + step) - (cert.x - step)) == cert.bound


def test_certificate_succeeds_at_n4():
    for r in (R10, rational("1/4")):
        sp = make_space_II(4, r)
        for g in (Vec.unit(5, 0), Vec.unit(5, 0) + Vec.unit(5, 1)):
            cert = lower_bound_certificate(sp, g, HALF, r)
            assert cert.valid
            assert cert.bound == 2 * (1 - r)
            certificate_invariants(sp, cert)
            sl = make_slice(sp, SliceSpec(g, HALF))
            assert diameter(sl, sp).value >= cert.bound


def test_certificate_on_random_normalized_functional():
    rng = random.Random(9)
    r = R10
    sp = make_space_II(4, r)
    coords = [Scalar(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
    total = sum(abs(c) for c in coords)
    g = Vec([c / total for c in coords] + [ZERO])
    cert = lower_bound_certificate(sp, g, HALF, r)
    assert cert.valid
    certificate_invariants(sp, cert)


def test_certificate_dimension_too_small_at_n1():
    sp = make_space_II(1, R10)
    with pytest.raises(DimensionTooSmall):
        lower_bound_certificate(sp, Vec.unit(2, 0), HALF, R10)


def test_certificate_parameter_validation():
    sp = make_space_II(2, R10)
    g = Vec.unit(3, 0)
    for bad_r in (ONE, Scalar(2), ZERO, rational("-1/2")):
        with pytest.raises(ValueError):
            lower_bound_certificate(sp, g, HALF, bad_r)
    with pytest.raises(ValueError):
        lower_bound_certificate(sp, Vec.zero(3), HALF, R10)


def test_certificate_serialization_is_reverifiable():
    sp = make_space_II(4, R10)
    cert = lower_bound_certificate(sp, Vec.unit(5, 0), HALF, R10)
    data = cert.to_dict()
    x = Vec(data["x"])
    y = Vec(data["y"])
    r = rational(data["r"])
    g = Vec(data["g"])
    sl = make_slice(sp, SliceSpec(g, rational(data["alpha"])))
    step = y * (1 - r)
    assert contains(sl, x + step) and contains(sl, x - step)
    assert rational(data["bound"]) == 2 * (1 - r)
    assert data["checks"] == [True, True]


def test_sampling_oracle_is_a_lower_bound_and_deterministic():
    sp = make_space_II(2, R10)
    sl = make_slice(sp, SliceSpec(lifted_cut_functional(sp), rational("1/40")))
    exact = diameter(sl, sp).value
    one = sample_diameter_lower_bound(sl, sp, 1, 123)
    many = sample_diameter_lower_bound(sl, sp, 3000, 123)
    again = sample_diameter_lower_bound(sl, sp, 3000, 123)
    assert many == again
    assert one <= many
    assert float(many) <= float(exact) + 1e-9


def test_sampling_oracle_on_cube_like_ball():
    sp = make_space_II(1, R10)
    ball = unit_ball(sp)
    got = sample_diameter_lower_bound(ball, sp, 1000, 5)
    assert float(got) <= 2.0 + 1e-9


def test_sampling_oracle_rejects_bad_trials():
    sp = make_space_II(1, R10)
    with pytest.raises(ValueError):
        sample_diameter_lower_bound(unit_ball(sp), sp, 0, 1)


def rational_diameter(poly, space):
    """The oracle's width loop over every generator on poly's vertices, the
    reference that the integer widths of diameter must reproduce exactly."""
    verts = vertices(poly).vertices
    value, pair = oracles.diam_witness(verts, space.generators)
    return DiameterResult(value=value, witness_pair=pair, vertex_count=len(verts))


def widest_generators(poly, space):
    verts = vertices(poly).vertices
    widths = [max(phi.dot(v) for v in verts) - min(phi.dot(v) for v in verts)
              for phi in space.generators]
    return widths.count(max(widths))


@pytest.mark.parametrize("space,f,alphas", [
    *((make_space_II(N, r), None, ("1/40", "1/7", "3/5")) for N, r in ((1, "1/10"), (2, "3/7"), (3, "1/9"))),
    (make_space_VII(3), Vec([1, 0, 0]), ("1/20", "1/3")),
    (make_space_VII(3, ["7/8", "11/12"]), Vec([1, "1/2", 0]), ("1/9",)),
    (make_space_VII(4), Vec([1, 0, 0, 0]), ("1/10",)),
])
def test_integer_widths_match_rational_loop_on_family_slices(space, f, alphas):
    f = lifted_cut_functional(space) if f is None else f
    for alpha in alphas:
        piece = make_slice(space, SliceSpec(f, alpha))
        assert diameter(piece, space) == rational_diameter(piece, space)
    assert diameter(unit_ball(space), space) == rational_diameter(unit_ball(space), space)


def test_integer_widths_break_ties_like_rational_loop_on_box_slices():
    """Sup-norm cube slices: several generators share the largest width and
    several vertices share each extreme value, so the lex-least pair rule
    decides the witness."""
    for dim in (2, 3):
        gens = [Vec.unit(dim, i) * s for i in range(dim) for s in (1, -1)]
        cube = PolyhedralNormSpace(dim, tuple(sorted(gens)), "custom")
        for f, alpha in ((Vec.unit(dim, 0), "1/3"), (Vec([1] * dim), "1/2"),
                         (Vec(["1/2"] + [1] * (dim - 1)), "2/5")):
            piece = make_slice(cube, SliceSpec(f, alpha))
            assert widest_generators(piece, cube) > 1
            assert diameter(piece, cube) == rational_diameter(piece, cube)


def test_diameter_reads_the_vertex_keys_without_clearing_the_vertices(monkeypatch):
    """The widths come from the integer keys that enumeration cached, so
    diameter clears no rationals; the value and witness are unchanged."""
    space = make_space_VII(3, ("53/54", "47/48"))
    spec = SliceSpec(Vec.unit(3, 0), "1/11")
    expected = rational_diameter(make_slice(space, spec), space)
    monkeypatch.setattr(slices, "clear_denominators", None)
    assert diameter(make_slice(space, spec), space) == expected


def test_diameter_rejects_a_polytope_of_another_dimension():
    with pytest.raises(ValueError):
        diameter(unit_ball(make_space_II(1, R10)), make_space_VII(3))


def _custom_space(dim, gens):
    return PolyhedralNormSpace(dim, tuple(sorted(s * Vec(g) for g in gens for s in (1, -1))), "custom")


HEXAGON = _custom_space(2, ([1, 0], [0, 1], [1, 1]))
SKEW = _custom_space(3, (["2/3", "1/5", 0], [0, "5/4", "-3/7"], ["1/6", 0, "7/9"], [1, 1, 1]))


@pytest.mark.parametrize("space,f,alphas", [
    (make_space_II(1, R10), Vec([0, "11/10"]), ("1/40", "3/5")),
    (make_space_II(2, "3/7"), Vec([0, 0, "10/7"]), ("1/7",)),
    (make_space_II(2, R10), Vec([1, 0, 0]), ("1/2",)),
    (make_space_VII(2), Vec([1, 0]), ("1/10", "1/2")),
    (make_space_VII(3, ["7/8", "11/12"]), Vec([1, "1/2", 0]), ("1/9",)),
    (HEXAGON, Vec([1, 0]), ("1/3", "3/2")),
    (HEXAGON, Vec([1, 1]), ("1/2",)),
    (SKEW, Vec([1, 0, 0]), ("1/4",)),
    (SKEW, Vec([0, 1, "-1/2"]), ("1/3",)),
])
def test_diameter_witness_pair_matches_brute_force_over_every_generator(space, f, alphas):
    """diameter reads one row per +- generator pair; the oracle takes every
    generator over its own subset-enumerated vertices, with the documented
    lex-least tie-break, and must give the same value and witness pair."""
    gens = [tuple(g) for g in space.generators]
    for alpha in alphas:
        rows, _ = oracles.slice_rows(gens, tuple(f), rational(alpha))
        verts = oracles.enum_vertices(rows, space.dim)
        value, pair = oracles.diam_witness(verts, gens)
        res = diameter(make_slice(space, SliceSpec(f, alpha)), space)
        assert (res.value, res.witness_pair, res.vertex_count) == (value, pair, len(verts))


def _dense_g(rng, N):
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)]
    coords[rng.randrange(N)] = Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
    total = sum(abs(c) for c in coords)
    return [c / total for c in coords] + [Fraction(0)]


def _certificate_cases():
    """(space, g, alpha, r): family II at N = 1..8, several r, e1 and a
    dense g; functionals with zero coordinates, whose restricted optima on
    supports holding those coordinates are not unique (e_beta never gets a
    certificate, and the N = 3 case finds one only after such a probe); two
    family VII spaces, with r equal to a dual value at the probe point; and
    two custom spaces."""
    rng = random.Random(11)
    cases = []
    for N in range(1, 9):
        for r in (R10, rational("1/4"), rational("3/7")):
            sp = make_space_II(N, r)
            cases.append((sp, Vec.unit(N + 1, 0), HALF, r))
            cases.append((sp, Vec(_dense_g(rng, N)), HALF, r))
    for N in range(1, 5):
        for r in (R10, rational("3/7")):
            sp = make_space_II(N, r)
            cases.append((sp, Vec.unit(N + 1, N), rational("1/10"), r))
            cases.append((sp, Vec.unit(N + 1, 0) + Vec.unit(N + 1, N) * 2, HALF, r))
    cases.append((make_space_II(3, R10), Vec([0, "1/3", "-1/2", 2]), rational("5/4"), R10))
    # The probe {0} reaches s - alpha = 1/2 exactly.
    cases.append((make_space_II(3, R10), Vec([HALF, "1/4", "1/4", 0]), HALF, R10))
    for sp in (make_space_VII(3), make_space_VII(4, ["7/8", "11/12", "13/14"])):
        cases.append((sp, Vec.unit(sp.dim, 0), HALF, R10))
        cases.append((sp, Vec.unit(sp.dim, 0) + Vec.unit(sp.dim, 1) * HALF, rational("1/3"), rational("1/4")))
        # x = e2 has dual values 1, 1/2 and 1/3: r = 1/3 and 1/2 tie with
        # one of them, which must stay out of the active set.
        for r in (R10, rational("1/3"), HALF):
            cases.append((sp, Vec.unit(sp.dim, 1), HALF, r))
    for sp, g in ((HEXAGON, [1, 0]), (SKEW, [1, 0, 0]), (SKEW, [0, 1, "-1/2"])):
        cases.append((sp, Vec(g), HALF, R10))
    return cases


def test_certificate_matches_the_cold_probe_loop():
    """Value-only probes change which LPs run, not the certificate: its
    dict, or DimensionTooSmall, equals a search that solves every probe as
    the full LP."""
    cases = _certificate_cases()
    too_small = 0
    for sp, g, alpha, r in cases:
        expected = oracles.cold_certificate(sp, g, alpha, r)
        if expected is None:
            too_small += 1
            with pytest.raises(DimensionTooSmall):
                lower_bound_certificate(sp, g, alpha, r)
        else:
            assert lower_bound_certificate(sp, g, alpha, r).to_dict() == expected
    assert 0 < too_small < len(cases)


@pytest.mark.parametrize("space", [make_space_II(N, r) for N in (1, 2, 3, 4) for r in (R10, "3/7")]
                         + [make_space_VII(2), make_space_VII(3), make_space_VII(4), HEXAGON, SKEW])
def test_probe_value_on_the_support_columns_equals_the_cold_lp(space):
    """The support-column LP gives the full LP's value and its Bland point,
    zero off the support (the argument is in _probe's docstring)."""
    d = space.dim
    rows = unit_ball(space)._int_rows
    gs = [Vec.unit(d, 0), Vec.unit(d, d - 1), Vec([Fraction(j % 3 - 1, j + 1) for j in range(d)])]
    for g in gs:
        for support in _probe_subsets(d):
            eqs = [(Vec.unit(d, j), ZERO) for j in range(d) if j not in support]
            cold = solve_lp(g, leq=rows, eq=eqs, maximize=True)
            assert _probe(g, rows, support, d) == (cold.value, Vec(cold.point))
