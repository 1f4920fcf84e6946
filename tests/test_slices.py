"""Slice construction, exact diameters, certificates, and the sampling oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from polyslice import slices, spaces
from polyslice.linprog import ClearedRows, clear_rows, solve_lp
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rational
from polyslice.polytope import contains, extreme_points, vertices
from polyslice.slices import (
    DiameterResult,
    DimensionTooSmall,
    SliceSpec,
    _pair_checks,
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
    _norm_ints,
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


def _level_spaces(rng):
    """Family II at N = 1..4 with r = 1/10, r >= 1 and a random r; family VII
    at N = 2..4 with weight 1, 17/18, a repeated weight and random weights
    in (5/6, 1]."""
    out = []
    for N in range(1, 5):
        for r in ("1/10", "5/2", Scalar(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))):
            out.append(make_space_II(N, r))
    for N in range(2, 5):
        q = rng.choice([12, 18, 72, rng.randint(7, 10 ** 6)])
        drawn = [Scalar(rng.randint(5 * q // 6 + 1, q), q) for _ in range(N - 1)]
        for omega in (["1"] * (N - 1), ["17/18"] * (N - 1), drawn):
            out.append(make_space_VII(N, omega))
    return out


def test_support_value_from_levels_equals_the_lp_oracle():
    """On 300 random functionals, with zero and negative entries and a beta
    entry on family II, the level support value equals the plain Fraction
    tableau (oracles.lp_max) over the ball's rows, and solve_lp on the same
    space built by the constructor, which has no levels."""
    rng = random.Random(9241)
    spaces = _level_spaces(rng)
    for k in range(300):
        sp = spaces[k % len(spaces)]
        f = Vec([Scalar(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.7 else ZERO
                 for _ in range(sp.dim)])
        if f.is_zero():
            f = Vec.unit(sp.dim, rng.randrange(sp.dim)) * -3
        status, _, value = oracles.lp_max(f, oracles.ball_rows(sp.generators))
        assert status == "optimal"
        generic = PolyhedralNormSpace(sp.dim, sp.generators, sp.label, sp.params)
        assert support_value(sp, f) == value == support_value(generic, f)


def _degenerate_space(rng, dim):
    """A custom space of sign-symmetric generator rows with entries in
    {-1, 0, 1, 2}: rows that share facets, parallel rows (g and 2g) and
    rows that are not extreme make the ball and its slices degenerate."""
    while True:
        rows = set()
        for _ in range(rng.randint(dim, dim + 3)):
            g = tuple(rng.choice((-1, 0, 1, 2)) for _ in range(dim))
            if any(g):
                rows.update((g, tuple(-c for c in g)))
        try:
            return PolyhedralNormSpace(dim, tuple(sorted(Vec(g) for g in rows)), "custom")
        except ValueError:
            continue


def _certificate_or_too_small(sp, g, alpha, r):
    """The certificate, or None when DimensionTooSmall is raised."""
    try:
        return lower_bound_certificate(sp, g, alpha, r)
    except DimensionTooSmall:
        return None


def test_dd_and_extreme_points_on_degenerate_custom_spaces():
    """Seeded degenerate-by-construction draws in dimension 2-3, which keep
    the DD and LP paths: the slice's vertices and exact diameter equal the
    subset-walk oracle's, its support value is the oracle's, and
    extreme_points of the generators equals the LP hull filter.  The
    lower-bound certificate on the same slice, when there is one, passes
    oracles.check_certificate exactly when it reports itself valid."""
    rng = random.Random(7723)
    certified = 0
    for _ in range(60):
        sp = _degenerate_space(rng, rng.choice((2, 3)))
        f = Vec([rng.randint(-2, 2) for _ in range(sp.dim)])
        if f.is_zero():
            f = Vec.unit(sp.dim, 0)
        alpha = Scalar(rng.randint(1, 12), rng.randint(1, 6))
        best, verts, s = oracles.slice_diameter(sp.generators, f, alpha)
        cert = _certificate_or_too_small(sp, f, alpha, R10)
        if cert is not None:
            certified += 1
            reason = oracles.check_certificate(sp.generators, cert.to_dict(), s)
            assert (reason is None) == cert.valid, reason
        assert support_value(sp, f) == s
        poly = make_slice(sp, SliceSpec(f, alpha))
        result = diameter(poly, sp)
        assert [tuple(v) for v in vertices(poly).vertices] == verts
        assert result.value == best and result.vertex_count == len(verts)
        assert result == rational_diameter(poly, sp)
        kept = extreme_points(sp.generators).vertices
        assert [tuple(v) for v in kept] == oracles.lp_extreme_filter(sp.generators)
    assert certified > 30


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
    diameter clears no rationals; the value and witness are unchanged.  The
    slice is built first: its support value clears f once."""
    space = make_space_VII(3, ("53/54", "47/48"))
    spec = SliceSpec(Vec.unit(3, 0), "1/11")
    expected = rational_diameter(make_slice(space, spec), space)
    poly = make_slice(space, spec)
    monkeypatch.setattr(slices, "clear_denominators", None)
    assert diameter(poly, space) == expected


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


def test_a_custom_space_certificate_takes_its_support_lp_once_and_its_bounds_once_per_space(monkeypatch):
    """On a space without vertex levels (family II N = 3's generators
    through the constructor) a certificate solves the full-width support LP
    once, for s, which the slice reuses; the first certificate on the space
    also solves one LP per coordinate for the bounds sup |x_j|, which the
    space keeps.  Then one probe: the walk over every support, and s taken
    again for the slice, gave LP widths [4, 4, 1]."""
    family = make_space_II(3, R10)
    sp = PolyhedralNormSpace(family.dim, family.generators, "custom")
    widths = []
    for module in (slices, spaces):
        solve = module.solve_lp
        monkeypatch.setattr(module, "solve_lp",
                            lambda c, *a, _solve=solve, **k: widths.append(len(c)) or _solve(c, *a, **k))
    first = lower_bound_certificate(sp, Vec.unit(4, 0), HALF, R10)
    assert widths == [4] + [4] * 4 + [1]
    assert sp._coordinate_bounds == ((11, 11, 11, 10), 11)
    del widths[:]
    assert lower_bound_certificate(sp, Vec.unit(4, 0), HALF, R10) == first
    assert widths == [4, 1]
    assert first.to_dict() == lower_bound_certificate(family, Vec.unit(4, 0), HALF, R10).to_dict()


@pytest.mark.parametrize("N", [20, 30, 60])
def test_dense_certificates_at_large_n_solve_at_most_two_lps(monkeypatch, N):
    """prop2's random g (seed 0, the first draw) on family II, r = 1/10,
    alpha = 1/2: the walk lists only supports whose bound reaches s - alpha,
    and the first one listed gives the certificate, so at most 2 LPs run
    (the walk over every support took 10,606 at N = 20).  The certificate
    passes oracles.check_certificate with s = sum |g_j|, the closed form
    when g_beta = 0.  LPs are counted, not timed."""
    from polyslice.experiments import parse_g

    g = parse_g("random", N, random.Random(0))
    sp = make_space_II(N, R10)
    lps = []
    for module in (slices, spaces):
        solve = module.solve_lp
        monkeypatch.setattr(module, "solve_lp",
                            lambda *a, _solve=solve, **k: lps.append(1) or _solve(*a, **k))
    cert = lower_bound_certificate(sp, g, HALF, R10)
    assert cert.valid and len(lps) <= 2
    assert g[-1] == 0
    assert oracles.check_certificate(sp.generators, cert.to_dict(), sum(map(abs, g))) is None


def test_the_certificate_checker_rejects_each_broken_claim():
    """oracles.check_certificate accepts a certificate and rejects it once
    any one claim is broken: the support value, the bound, a y that is not
    a unit vector or not in g's kernel, an active phi that is no generator,
    is not hit by x or does not kill y, and an x whose pair leaves the
    slice."""
    sp = make_space_II(4, R10)
    cert = lower_bound_certificate(sp, Vec.unit(5, 0), HALF, R10).to_dict()
    assert cert["active"]
    gens = sp.generators
    assert oracles.check_certificate(gens, cert, ONE) is None
    broken = [
        ({}, rational("9/10")),
        ({"bound": "2"}, ONE),
        ({"y": [str(Fraction(c) * 2) for c in cert["y"]]}, ONE),
        ({"y": ["1/2", "1", 0, 0, 0]}, ONE),
        ({"active": cert["active"] + [["1/2", 0, 0, 0, 0]]}, ONE),
        ({"active": cert["active"] + [["0", 0, 0, "-1", 1]]}, ONE),
        ({"x": ["1", "1/2", 0, 0, 0], "active": [["0", "1", 0, 0, "1"]]}, ONE),
        ({"x": ["2/5", 0, 0, 0, 0]}, ONE),
    ]
    for change, s in broken:
        assert oracles.check_certificate(gens, {**cert, **change}, s) is not None, change


def _walk_over_every_support(weights, target):
    """The probe walk without pruning: every coordinate support, by size and
    then lexicographically, whatever its bound."""
    d = len(weights)
    for size in range(d + 1):
        yield from combinations(range(d), size)


def test_probe_subsets_list_exactly_the_supports_that_reach_the_target():
    """On random integer weights, zeros, ties and negative targets among
    them, the pruned walk lists the supports of the walk over every support
    whose weight sum reaches the target, in the same order."""
    rng = random.Random(4099)
    for _ in range(300):
        weights = [rng.choice((0, 0, 1, 2, 3, rng.randint(0, 40))) for _ in range(rng.randint(0, 8))]
        target = rng.randint(-2, sum(weights) + 2)
        expected = [S for S in _walk_over_every_support(weights, target)
                    if sum(weights[j] for j in S) >= target]
        assert list(_probe_subsets(weights, target)) == expected


def _pruning_cases():
    """(space, g, alpha, r): family II at N = 1..10 with e1, e1 + e2 and a
    dense g at three r; family VII at N = 2..5 with a random g at three
    alpha; degenerate custom spaces (_degenerate_space) with random g,
    alpha and r; and _certificate_cases, among them a probe whose bound
    meets s - alpha exactly."""
    rng = random.Random(2503)
    cases = []
    for N in range(1, 11):
        for r in (R10, rational("1/4"), rational("3/7")):
            sp = make_space_II(N, r)
            e1 = Vec.unit(N + 1, 0)
            for g in (e1, e1 + Vec.unit(N + 1, 1), Vec(_dense_g(rng, N))):
                cases.append((sp, g, HALF, r))
    for N in range(2, 6):
        sp = make_space_VII(N)
        for alpha in (rational("1/10"), rational("1/3"), HALF):
            g = Vec([Scalar(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
            cases.append((sp, Vec.unit(N, 0) if g.is_zero() else g, alpha, R10))
    for _ in range(40):
        sp = _degenerate_space(rng, rng.choice((2, 3)))
        g = Vec([rng.randint(-2, 2) for _ in range(sp.dim)])
        alpha = Scalar(rng.randint(1, 12), rng.randint(1, 6))
        cases.append((sp, Vec.unit(sp.dim, 0) if g.is_zero() else g, alpha,
                      Scalar(rng.randint(1, 5), 6)))
    return cases + _certificate_cases()


def test_pruned_probe_walk_gives_the_certificates_of_the_walk_over_every_support(monkeypatch):
    """The walk pruned by the coordinate bound returns the same certificate
    (== and to_dict), or the same DimensionTooSmall, as the walk over every
    support, in fewer probe LPs; and oracles.check_certificate, against the
    support value of the Fraction tableau, accepts exactly the valid ones."""
    cases = _pruning_cases()
    lps = []
    solve = slices.solve_lp
    monkeypatch.setattr(slices, "solve_lp", lambda *a, **k: lps.append(1) or solve(*a, **k))
    pruned = [_certificate_or_too_small(*case) for case in cases]
    pruned_lps = len(lps)
    monkeypatch.setattr(slices, "_probe_subsets", _walk_over_every_support)
    del lps[:]
    full = [_certificate_or_too_small(*case) for case in cases]
    assert pruned == full
    assert [c and c.to_dict() for c in pruned] == [c and c.to_dict() for c in full]
    assert 0 < sum(c is None for c in pruned) < len(cases)
    assert pruned_lps < len(lps)
    for (sp, g, alpha, r), cert in zip(cases, pruned):
        if cert is not None:
            s = oracles.lp_max(g, oracles.ball_rows(sp.generators))[2]
            reason = oracles.check_certificate(sp.generators, cert.to_dict(), s)
            assert (reason is None) == cert.valid, reason


@pytest.mark.parametrize("space", [make_space_II(N, r) for N in (1, 2, 3, 4) for r in (R10, "3/7")]
                         + [make_space_VII(2), make_space_VII(3), make_space_VII(4), HEXAGON, SKEW])
def test_probe_value_on_the_support_columns_equals_the_cold_lp(space):
    """The support-column LP gives the full-width LP's value and its Bland
    point, zero off the support, where the full LP writes x_j = 0 off the
    support as the two rows x_j <= 0 and -x_j <= 0.  The full LP is solved
    both by solve_lp and by the Fraction tableau of oracles.lp_max, which
    keeps every row."""
    d = space.dim
    ball = unit_ball(space)
    rows = ball._int_rows
    cols = tuple(zip(*rows))
    gs = [Vec.unit(d, 0), Vec.unit(d, d - 1), Vec([Fraction(j % 3 - 1, j + 1) for j in range(d)])]
    for g in gs:
        for support in (c for size in range(d + 1) for c in combinations(range(d), size)):
            zero = [(Vec.unit(d, j) * sign, ZERO) for j in range(d) if j not in support for sign in (1, -1)]
            cold = solve_lp(g, leq=ClearedRows(rows + clear_rows(zero)))
            got = _probe(g, cols, support, d)
            assert got == (cold.value, Vec(cold.point))
            full = [(h.a, h.b) for h in ball.halfspaces] + zero
            assert oracles.lp_max(g, full) == ("optimal", tuple(got[1]), got[0])


def _pair_check_spaces(rng):
    """Family II at N = 1..8, family VII at N = 2..5 and six degenerate
    custom spaces (_degenerate_space) in dimensions 2..4."""
    out = [make_space_II(N, rng.choice((R10, rational("3/7"), rational("5/2")))) for N in range(1, 9)]
    out += [make_space_VII(N) for N in range(2, 6)]
    out += [_degenerate_space(rng, dim) for dim in (2, 3, 4, 2, 3, 4)]
    return out


def test_pair_checks_agree_with_membership_of_the_rational_points():
    """_pair_checks on x = px / qx and y = d den / n equals contains on the
    slice (make_slice, whose cut clear_rows clears) of the Fraction points
    x +- (1-r)y, on random slice points moved off the top face and random
    integer directions, in g's kernel or not.  Both sides come out True
    and False, and the cut alone rejects some points that the ball holds."""
    rng = random.Random(2711)
    seen = set()
    cut_only = 0
    for sp in _pair_check_spaces(rng):
        d = sp.dim
        den = sp._int_rows[1]
        for _ in range(12):
            g = Vec([Scalar(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            if g.is_zero():
                g = Vec.unit(d, 0)
            alpha = Scalar(rng.randint(1, 12), rng.randint(2, 8))
            r = rng.choice((R10, HALF, rational("9/10"), rational("99/100")))
            slice_poly = make_slice(sp, SliceSpec(g, alpha))
            top = _probe(g, sp._ball_columns, tuple(range(d)), d)[1]
            x = top * Scalar(rng.randint(5, 10), 10) + Vec(
                [Scalar(rng.randint(-2, 2), rng.randint(10, 40)) for _ in range(d)])
            px, qx = oracles._ints(x)
            direction = [rng.randint(-3, 3) for _ in range(d)]
            if rng.random() < 0.5:
                kernel = slices._int_nullspace([oracles._ints(g)[0]], d)
                direction = [sum(rng.randint(-2, 2) * v[j] for v in kernel) for j in range(d)]
            if not any(direction):
                direction[0] = 1
            n = _norm_ints(sp, [(c,) for c in direction])[0]
            step = Vec([Scalar(c * den, n) for c in direction]) * (ONE - r)
            expected = (contains(slice_poly, x + step), contains(slice_poly, x - step))
            cut = slice_poly._int_rows[-1]
            assert _pair_checks(sp, cut, px, qx, direction, n, r) == expected
            seen.update(enumerate(expected))
            for z, inside in zip((x + step, x - step), expected):
                cut_only += not inside and contains(unit_ball(sp), z)
    assert seen == {(0, True), (0, False), (1, True), (1, False)}
    assert cut_only > 0


def _rref_kernel(rows, width):
    """The RREF basis of {x : rows.x = 0} in Fractions, by oracles._rref: one
    vector per free column, with a 1 there."""
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = oracles._rref(rows, width)
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for k, col in enumerate(pivots):
            v[col] = -rows[k][free]
        basis.append(Vec(v))
    return basis


def _fraction_path_certificate(sp, g, alpha, r):
    """The certificate search with its checks in Fraction arithmetic: the
    slice polytope of make_slice, the active set as phi.x > r on rational
    dual vertices, y a kernel vector of the RREF divided by its norm, and
    contains on x +- (1-r)y.  The probe walk is the search's own.  Returns
    the certificate, or None for DimensionTooSmall."""
    spec = SliceSpec(g, alpha)
    g, alpha = spec.f, spec.alpha
    s = support_value(sp, g)
    slice_poly = make_slice(sp, spec)
    threshold = s - alpha
    g_row, gq = oracles._ints(g)
    bounds, bq = sp._coordinate_bounds
    weights = [abs(c) * m for c, m in zip(g_row, bounds)]
    fallback = None
    target = -((-threshold * gq * bq) // 1)
    for allowed in _probe_subsets(weights, target):
        value, x = _probe(g, sp._ball_columns, allowed, sp.dim)
        if value < threshold:
            continue
        active = tuple(phi for phi in spaces.dual_ball_vertices(sp).vertices if phi.dot(x) > r)
        for direction in _rref_kernel(active + (g,), sp.dim):
            y = direction * (ONE / norm(sp, direction))
            step = y * (ONE - r)
            cert = slices.LowerBoundCertificate(
                x=x, y=y, r=r, bound=2 * (ONE - r),
                checks=(contains(slice_poly, x + step), contains(slice_poly, x - step)),
                g=g, alpha=alpha, support_value=s, active=active)
            if cert.valid:
                return cert
            if fallback is None:
                fallback = cert
    return fallback


def test_integer_checks_give_the_certificates_of_the_fraction_path():
    """On the cases of the pruning test the certificate built and checked in
    integers equals (== and to_dict) the one the Fraction path gives, or
    both find no kernel direction; and oracles.check_certificate, against
    the support value of the Fraction tableau, accepts exactly the valid
    ones, here all 147 of them (74 cases find no kernel direction)."""
    cases = _pruning_cases()
    valid = 0
    for sp, g, alpha, r in cases:
        cert = _certificate_or_too_small(sp, g, alpha, r)
        expected = _fraction_path_certificate(sp, g, alpha, r)
        assert cert == expected
        if cert is None:
            continue
        assert cert.to_dict() == expected.to_dict()
        s = oracles.lp_max(g, oracles.ball_rows(sp.generators))[2]
        reason = oracles.check_certificate(sp.generators, cert.to_dict(), s)
        assert (reason is None) == cert.valid, reason
        valid += cert.valid
    assert (len(cases), valid) == (221, 147)
