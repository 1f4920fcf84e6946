"""Polytope kernel: vertex enumeration, extreme points, membership, support."""

import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from polyslice import linprog
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rank, rational
from polyslice.polytope import (
    DegenerateError,
    HalfSpace,
    HPolytope,
    UnboundedError,
    VPolytope,
    contains,
    extreme_points,
    lp_feasible,
    support,
    vertices,
)
from polyslice.slices import SliceSpec, make_slice
from polyslice.spaces import make_space_II, make_space_VII, unit_ball

SEED = 733


def box(dim, bound=1):
    rows = []
    for i in range(dim):
        for s in (1, -1):
            rows.append(HalfSpace(Vec.unit(dim, i) * Scalar(s), rational(bound)))
    return HPolytope(rows, dim)


def as_fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        HalfSpace(Vec.zero(2), ONE)


def test_cube_has_eight_vertices():
    got = vertices(box(3))
    expected = {tuple(Scalar(s) for s in signs) for signs in
                [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]}
    assert {tuple(v) for v in got.vertices} == expected


def test_cross_polytope_vertices():
    rows = [HalfSpace(Vec([Scalar(a), Scalar(b)]), ONE) for a in (1, -1) for b in (1, -1)]
    got = vertices(HPolytope(rows, 2))
    expected = {(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)}
    assert {tuple(v) for v in got.vertices} == expected


def test_vertices_are_sorted_and_cached():
    p = box(2)
    first = vertices(p)
    assert first.vertices == tuple(sorted(first.vertices))
    assert vertices(p) is first


def test_halfplane_is_unbounded():
    p = HPolytope([HalfSpace(Vec([1, 0]), ONE), HalfSpace(Vec([0, 1]), ONE)], 2)
    with pytest.raises(UnboundedError):
        vertices(p)


def test_single_point_is_degenerate():
    rows = [HalfSpace(Vec.unit(2, i) * Scalar(s), ZERO) for i in range(2) for s in (1, -1)]
    with pytest.raises(DegenerateError):
        vertices(HPolytope(rows, 2))


def test_empty_polytope_is_degenerate():
    rows = [HalfSpace(Vec([1]), -ONE), HalfSpace(Vec([-1]), ZERO)]
    with pytest.raises(DegenerateError):
        vertices(HPolytope(rows, 1))


def test_contains_cube_examples():
    p = box(3)
    assert contains(p, Vec.zero(3))
    assert contains(p, Vec([1, 1, 1]))
    assert not contains(p, Vec([rational("1001/1000"), 0, 0]))


def test_support_cube():
    value, argmax = support(vertices(box(3)), Vec([1, 1, 1]))
    assert value == 3 and argmax == Vec([1, 1, 1])


def test_support_zero_functional():
    v = vertices(box(2))
    value, argmax = support(v, Vec.zero(2))
    assert value == ZERO
    assert argmax == v.vertices[0]


def test_support_picks_lex_smallest_argmax():
    v = VPolytope((Vec([0, 1]), Vec([1, 0]), Vec([1, 1])), 2)
    value, argmax = support(v, Vec([1, 0]))
    assert value == ONE and argmax == Vec([1, 0])


def test_lp_feasible_examples():
    ok, _ = lp_feasible([HalfSpace(Vec([1]), ONE), HalfSpace(Vec([-1]), -Scalar(2))])
    assert not ok
    ok, witness = lp_feasible([HalfSpace(Vec([1]), ONE)], [(Vec([1]), ONE)])
    assert ok and witness == Vec([1])
    # Unbounded but feasible: {x1 <= 1} in R^2.
    cons = [HalfSpace(Vec([1, 0]), ONE)]
    ok, witness = lp_feasible(cons)
    assert ok and all(h.a.dot(witness) <= h.b for h in cons)
    # Infeasible with a recession direction: x1 <= -1 and -x1 <= 0, x2 free.
    ok, witness = lp_feasible([HalfSpace(Vec([1, 0]), -ONE), HalfSpace(Vec([-1, 0]), ZERO)])
    assert not ok and witness is None
    # Equalities only: x1 + x2 = 3, x1 - x2 = -1/2.
    eqs = [(Vec([1, 1]), Scalar(3)), (Vec([1, -1]), rational("-1/2"))]
    ok, witness = lp_feasible([], eqs)
    assert ok and all(c.dot(witness) == d for c, d in eqs)
    assert witness == Vec([rational("5/4"), rational("7/4")])


def test_lp_feasible_barycentric_system():
    corners = [Vec([0, 0]), Vec([1, 0]), Vec([0, 1])]
    target = Vec([rational("1/4"), rational("1/4")])
    cons = [HalfSpace(-Vec.unit(3, j), ZERO) for j in range(3)]
    eqs = [(Vec([c[i] for c in corners]), target[i]) for i in range(2)]
    eqs.append((Vec([1, 1, 1]), ONE))
    ok, lam = lp_feasible(cons, eqs)
    assert ok
    mixed = Vec.zero(2)
    for weight, corner in zip(lam, corners):
        mixed = mixed + corner * weight
    assert mixed == target


def test_extreme_points_drops_interior_point():
    pts = [Vec([0, 0]), Vec([1, 0]), Vec([0, 1]), Vec([rational("1/4"), rational("1/4")])]
    got = extreme_points(pts)
    assert set(got.vertices) == {Vec([0, 0]), Vec([1, 0]), Vec([0, 1])}


def test_extreme_points_singleton():
    got = extreme_points([Vec([2, 3])])
    assert got.vertices == (Vec([2, 3]),)


def test_extreme_points_dedupes():
    got = extreme_points([Vec([1, 0]), Vec([1, 0]), Vec([-1, 0])])
    assert set(got.vertices) == {Vec([1, 0]), Vec([-1, 0])}


def test_vpolytope_rejects_duplicates_and_mixed_lengths():
    with pytest.raises(ValueError):
        VPolytope((Vec([1, 0]), Vec([1, 0])), 2)
    with pytest.raises(ValueError):
        VPolytope((Vec([1, 0]), Vec([1, 0, 0])), 2)


def random_polytope(rng, dim):
    """Random bounded full-dimensional polytope: a box plus a few cuts with
    the origin strictly inside (every offset is at least 1)."""
    rows = list(box(dim, 2).halfspaces)
    extra = rng.randint(1, max(1, 12 - len(rows)))
    for _ in range(extra):
        while True:
            normal = [Scalar(rng.randint(-3, 3)) for _ in range(dim)]
            if any(c != 0 for c in normal):
                break
        rows.append(HalfSpace(Vec(normal), Scalar(rng.randint(1, 3))))
    return HPolytope(rows[: 12], dim)


def test_vertices_match_independent_subset_oracle():
    rng = random.Random(SEED)
    for _ in range(50):
        dim = rng.randint(2, 4)
        poly = random_polytope(rng, dim)
        got = sorted(tuple(as_fraction(c) for c in v) for v in vertices(poly).vertices)
        rows = [(tuple(as_fraction(c) for c in h.a), as_fraction(h.b)) for h in poly.halfspaces]
        assert got == oracles.enum_vertices(rows, dim)


def test_vertex_invariants_on_random_polytopes():
    rng = random.Random(SEED + 1)
    for _ in range(25):
        dim = rng.randint(2, 4)
        poly = random_polytope(rng, dim)
        verts = vertices(poly)
        for v in verts.vertices:
            assert contains(poly, v)
            tight = [h.a for h in poly.halfspaces if h.a.dot(v) == h.b]
            assert rank(tight) == dim
        assert set(extreme_points(verts.vertices).vertices) == set(verts.vertices)


def test_symmetric_polytopes_have_symmetric_vertices():
    rng = random.Random(SEED + 2)
    for _ in range(10):
        dim = rng.randint(2, 3)
        rows = list(box(dim).halfspaces)
        for _ in range(2):
            while True:
                normal = [Scalar(rng.randint(-2, 2)) for _ in range(dim)]
                if any(c != 0 for c in normal):
                    break
            b = Scalar(rng.randint(1, 3))
            rows.append(HalfSpace(Vec(normal), b))
            rows.append(HalfSpace(-Vec(normal), b))
        verts = vertices(HPolytope(rows, dim))
        have = set(verts.vertices)
        assert all(-v in have for v in have)


def test_base_extension_matches_scratch_enumeration():
    rng = random.Random(SEED + 3)
    for _ in range(12):
        dim = rng.randint(2, 3)
        base = random_polytope(rng, dim)
        vertices(base)
        while True:
            normal = [Scalar(rng.randint(-2, 2)) for _ in range(dim)]
            if any(c != 0 for c in normal):
                break
        cut = HalfSpace(Vec(normal), Scalar(rng.randint(1, 2)))
        extended = HPolytope((cut,), dim, _base=base)
        scratch = HPolytope(tuple(base.halfspaces) + (cut,), dim)
        assert extended.halfspaces == scratch.halfspaces
        try:
            got = vertices(extended).vertices
        except DegenerateError:
            with pytest.raises(DegenerateError):
                vertices(scratch)
            continue
        assert got == vertices(scratch).vertices


def test_a_slice_enumerates_its_ball_without_building_its_vertex_list():
    """Enumerating a slice caches its ball's integer vertex keys and rays but
    builds no VPolytope for the ball.  vertices(ball) builds it later from
    those keys, once, equal to a cold enumeration of the same rows."""
    space = make_space_II(3, "5/13")
    rows = [HalfSpace(g, ONE) for g in space.generators]
    ball = HPolytope(rows, space.dim)
    cut = HalfSpace(-Vec.unit(space.dim, space.dim - 1), rational("-1/2"))
    piece = HPolytope([cut], space.dim, _base=ball)
    got = vertices(piece)
    assert ball._vcache is not None and ball._vpoly is None
    for poly, verts in ((piece, got), (ball, vertices(ball))):
        keys, den = poly._vcache.keys, poly._vcache.den
        assert keys == tuple(sorted(keys)) and len(set(keys)) == len(keys)
        assert verts.vertices == tuple(Vec([Fraction(c, den) for c in p]) for p in keys)
        assert vertices(poly) is verts
    assert vertices(ball) == vertices(HPolytope(rows, space.dim))
    assert len(vertices(ball).vertices) == 3 * 2 ** 3


def test_vertices_build_one_fraction_per_distinct_numerator():
    """vertices() looks each coordinate up in a table of the distinct key
    numerators over den, so equal coordinates are one Fraction object."""
    for space in (make_space_II(3, "5/13"), make_space_VII(3)):
        for poly in (unit_ball(space), make_slice(space, SliceSpec(Vec.unit(space.dim, 0), "1/7"))):
            coords = [c for v in vertices(poly).vertices for c in v]
            assert len({id(c) for c in coords}) == len(set(coords))


def oracle_vertices(poly):
    rows = [(tuple(as_fraction(c) for c in h.a), as_fraction(h.b)) for h in poly.halfspaces]
    return oracles.enum_vertices(rows, poly.dim)


def fraction_vertices(poly):
    """The vertices in the order vertices returns them, which the oracle's
    sorted list pins."""
    return [tuple(as_fraction(c) for c in v) for v in vertices(poly).vertices]


@pytest.mark.parametrize("label,N,param", [
    *(("II", N, r) for N in (1, 2, 3) for r in ("1/10", "3/7")),
    ("VII", 2, None),
    ("VII", 3, None),
    ("VII", 2, ["7/8"]),
    ("VII", 3, ["11/12", "8/9"]),
])
def test_family_balls_and_slices_match_subset_oracle(label, N, param):
    """The family balls have fractional rows (r, 1/3, 1/2, the weights); their
    slices also go through the base-vertex path of the enumerator."""
    space = make_space_II(N, param) if label == "II" else make_space_VII(N, param)
    ball = unit_ball(space)
    assert fraction_vertices(ball) == oracle_vertices(ball)
    if label == "II":
        r = rational(param)
        spec = SliceSpec(Vec.unit(space.dim, space.dim - 1) * (1 + r), r / 4)
    else:
        spec = SliceSpec(Vec.unit(space.dim, 0), "1/20")
    piece = make_slice(space, spec)
    assert piece._base is not None
    assert fraction_vertices(piece) == oracle_vertices(piece)


def pyramid():
    """Four facets through the apex (1/3, -1/4, 2/5), two of them with a
    negative leading coefficient, over the floor z >= -3/4."""
    apex = Vec(["1/3", "-1/4", "2/5"])
    rows = []
    for sx in (1, -1):
        for sy in (1, -1):
            normal = Vec([Scalar(sx, 2), Scalar(sy, 3), Scalar(1, 5)])
            rows.append(HalfSpace(normal, normal.dot(apex)))
    rows.append(HalfSpace(Vec([0, 0, "-2/3"]), rational("1/2")))
    return HPolytope(rows, 3), apex


def test_degenerate_apex_with_negative_pivots_is_found_once():
    poly, apex = pyramid()
    got = vertices(poly).vertices
    assert fraction_vertices(poly) == oracle_vertices(poly)
    assert len(got) == 5 and apex in got
    assert any(c.denominator > 1 for v in got for c in v)
    # A cut through the apex makes it a base vertex that the new subsets
    # reach again; it must still be kept exactly once.
    cut = HalfSpace(Vec([1, 0, 0]), rational("1/3"))
    extended = HPolytope((cut,), 3, _base=poly)
    assert apex in vertices(extended).vertices
    assert fraction_vertices(extended) == oracle_vertices(extended)


def rational_row(rng, dim):
    while True:
        normal = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)]
        if any(normal):
            return Vec(normal)


def mirrored_rows(rng, dim, extra):
    """A rational box plus extra random rows, every row with its mirror
    (-a, b), shuffled until no row sits next to its mirror."""
    pairs = [(Vec.unit(dim, i) * Fraction(rng.randint(1, 4), rng.randint(1, 3)),
              Fraction(rng.randint(1, 5), rng.randint(1, 4))) for i in range(dim)]
    pairs += [(rational_row(rng, dim), Fraction(rng.randint(1, 5), rng.randint(1, 4)))
              for _ in range(extra)]
    pairs.append(pairs[-1])  # one duplicated pair: equal rows are paired in order
    rows = [HalfSpace(s * a, b) for a, b in pairs for s in (1, -1)]
    while True:
        rng.shuffle(rows)
        if all(rows[i].a != -rows[i + 1].a for i in range(len(rows) - 1)):
            return rows


def test_symmetric_walk_with_a_zero_offset_pair():
    """|x/2 + y/3| <= 0 with a rational box: the polytope is a polygon in a
    plane through the origin, still with dim + 1 vertices or more."""
    rows = [HalfSpace(Vec.unit(3, i) * s, rational(b))
            for i, b in enumerate(("3/2", "1", "5/4")) for s in (1, -1)]
    rows.insert(2, HalfSpace(Vec(["1/2", "1/3", 0]), ZERO))
    rows.append(HalfSpace(Vec(["-1/2", "-1/3", 0]), ZERO))
    poly = HPolytope(rows, 3)
    got = fraction_vertices(poly)
    assert got == oracle_vertices(poly)
    assert all(x / 2 + y / 3 == 0 for x, y, _ in got) and len(got) >= 4


def test_rank_deficient_symmetric_slab_is_unbounded_without_lps(monkeypatch):
    rows = [HalfSpace(Vec([1, "1/2", 0]) * s, ONE) for s in (1, -1)]
    rows += [HalfSpace(Vec([0, "2/3", 0]) * s, rational("1/3")) for s in (1, -1)]
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: pytest.fail("LP solved"))
    with pytest.raises(UnboundedError):
        vertices(HPolytope(rows, 3))


def test_symmetric_system_with_negative_offset_is_empty_without_lps(monkeypatch):
    """Empty is reported before unbounded, as the LP cross-check would: the
    second system is also a rank-deficient slab."""
    pair = [HalfSpace(Vec(["1/3", 1]) * s, rational("-1/2")) for s in (1, -1)]
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: pytest.fail("LP solved"))
    for rows in (list(box(2).halfspaces) + pair, pair):
        with pytest.raises(DegenerateError):
            vertices(HPolytope(rows, 2))


def no_lps(monkeypatch):
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: pytest.fail("LP solved"))


def test_rank_deficient_empty_system_is_degenerate_without_lps(monkeypatch):
    """x <= -1 and -x <= 0 in the plane: normals of rank 1, and empty, which
    is reported before the line that a nonempty such system would hold."""
    no_lps(monkeypatch)
    rows = [HalfSpace(Vec([1, 0]), -ONE), HalfSpace(Vec([-1, 0]), ZERO)]
    with pytest.raises(DegenerateError):
        vertices(HPolytope(rows, 2))


def almost_mirrored_rows(rng, dim, extra):
    """mirrored_rows with one more row, which has no mirror."""
    rows = mirrored_rows(rng, dim, extra)
    rows.insert(rng.randrange(len(rows)), HalfSpace(rational_row(rng, dim), Fraction(1, 2)))
    return rows


def pencil_rows(rng, dim, extra):
    """A rational box with extra rows through one of its corners: the corner
    is tight on dim + extra rows, some of which cut the box.  Each row keeps
    the origin strictly inside, so the polytope stays full-dimensional."""
    rows = list(box(dim, "3/2").halfspaces)
    corner = Vec([rational("3/2") * rng.choice((1, -1)) for _ in range(dim)])
    while len(rows) < 2 * dim + extra:
        a = rational_row(rng, dim)
        if a.dot(corner) > 0:
            rows.append(HalfSpace(a, a.dot(corner)))
    rng.shuffle(rows)
    return rows


def duplicated_rows(rng, dim, extra):
    """random_polytope's rows with rational cuts, some of them repeated."""
    rows = list(random_polytope(rng, dim).halfspaces)
    rows += [HalfSpace(rational_row(rng, dim), Fraction(rng.randint(1, 5), rng.randint(1, 4)))
             for _ in range(extra)]
    rows += rng.sample(rows, 3)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("build", [mirrored_rows, almost_mirrored_rows, pencil_rows,
                                   duplicated_rows])
def test_vertices_match_subset_oracle_without_lps(monkeypatch, build):
    """Random degenerate inputs in dimensions 2-5 against the subset oracle.
    The vertices are exactly the homogenized cone's rays (p, t) with t > 0,
    each gcd-reduced, so (p, t) is the canonical key of its point."""
    no_lps(monkeypatch)
    rng = random.Random(SEED + 5)
    for dim in (2, 3, 4, 5, 2, 3, 4, 3):
        poly = HPolytope(build(rng, dim, rng.randint(1, 3) if dim < 4 else 1), dim)
        expected = oracle_vertices(poly)
        if len(expected) < dim + 1:
            with pytest.raises(DegenerateError):
                vertices(poly)
            continue
        assert fraction_vertices(poly) == expected
        rays = poly._vcache.rays
        assert len(rays) == len(expected)
        for ray in rays:
            assert ray[dim] > 0 and gcd(*ray) == 1
        assert sorted(tuple(Fraction(c, ray[dim]) for c in ray[:dim]) for ray in rays) == expected


@pytest.mark.parametrize("N", range(1, 9))
def test_family_II_ball_has_three_times_two_to_the_n_vertices(N):
    """A closed form that does not depend on the enumerator: the family II
    ball {||x||_inf + |beta| <= 1, (1+r)|beta| <= 1} has the 2^N vertices
    x in {+-1}^N with beta = 0 and the 2 * 2^N vertices x in {+-r/(1+r)}^N
    with beta = +-1/(1+r)."""
    assert len(vertices(unit_ball(make_space_II(N, "1/10"))).vertices) == 3 * 2 ** N


def mixed_denominator_points(rng):
    """Random rational points whose coordinates have different denominators
    per coordinate, with a duplicate and the midpoint of two of them."""
    dim = rng.randint(1, 3)
    dens = [rng.choice((1, 2, 3, 5, 7)) for _ in range(dim)]
    pts = [tuple(Fraction(rng.randint(-6, 6), dens[i] * rng.randint(1, 3)) for i in range(dim))
           for _ in range(rng.randint(2, 7))]
    pts.append(rng.choice(pts))
    u, v = rng.sample(pts, 2)
    pts.append(tuple((a + b) / 2 for a, b in zip(u, v)))
    rng.shuffle(pts)
    return pts


def test_extreme_points_match_brute_force_on_mixed_denominators():
    rng = random.Random(SEED + 5)
    dropped = 0
    for _ in range(40):
        pts = mixed_denominator_points(rng)
        kept = extreme_points([Vec(p) for p in pts]).vertices
        got = [tuple(as_fraction(c) for c in v) for v in kept]
        expected = oracles.extreme_filter(pts)
        assert got == expected
        dropped += len(set(pts)) - len(expected)
    assert dropped > 40


def test_extreme_points_drop_a_midpoint_with_mixed_denominators():
    a, b, c = Vec(["1/3", "-2/5"]), Vec(["-7/2", "3/7"]), Vec([1, "9/4"])
    mid = (a + b) * rational("1/2")
    got = extreme_points([mid, a, b, c, a])
    assert got.vertices == tuple(sorted((a, b, c)))


def fraction_contains(poly, x):
    return all(h.a.dot(x) <= h.b for h in poly.halfspaces)


def on_hyperplane(h, x):
    """x moved along h.a onto the hyperplane h.a.y = h.b."""
    return x + h.a * ((h.b - h.a.dot(x)) / h.a.dot(h.a))


def contains_cases(rng):
    """Random polytopes with rational rows, and slices of family balls."""
    for _ in range(8):
        dim = rng.randint(2, 4)
        rows = list(box(dim, 2).halfspaces)
        rows += [HalfSpace(rational_row(rng, dim), Fraction(rng.randint(1, 5), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 5))]
        yield HPolytope(rows, dim)
    for space in (make_space_II(2, "3/7"), make_space_II(3, "1/10"),
                  make_space_VII(3, ["11/12", "8/9"])):
        f = Vec([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(space.dim)])
        if f.is_zero():
            f = Vec.unit(space.dim, 0)
        yield make_slice(space, SliceSpec(f, Fraction(1, rng.randint(2, 9))))


def test_integer_contains_matches_fraction_dots():
    rng = random.Random(SEED + 6)
    outcomes = set()
    tight = 0
    for poly in contains_cases(rng):
        dim = poly.dim
        points = [Vec([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)])
                  for _ in range(20)]
        points += list(vertices(poly).vertices)
        points += [on_hyperplane(h, p) for h in poly.halfspaces for p in points[:2]]
        for x in points:
            got = contains(poly, x)
            assert got == fraction_contains(poly, x)
            outcomes.add(got)
            tight += got and any(h.a.dot(x) == h.b for h in poly.halfspaces)
    assert outcomes == {True, False}
    assert tight > 50


def test_slice_reuses_the_ball_rows_and_clears_only_the_cut():
    space = make_space_VII(3, ["11/12", "8/9"])
    ball = unit_ball(space)
    piece = make_slice(space, SliceSpec(Vec(["1/2", "-1/3", 0]), "1/7"))
    k = len(ball.halfspaces)
    assert piece._int_rows[:k] == ball._int_rows
    assert all(a is b for a, b in zip(piece._int_rows, ball._int_rows))
    assert piece._int_rows == linprog.clear_rows((h.a, h.b) for h in piece.halfspaces)
    assert piece._int_rows is piece._int_rows


@pytest.mark.parametrize("space", [make_space_II(N, r) for N in (1, 2, 5, 8) for r in ("1/10", "3/7")]
                         + [make_space_VII(2), make_space_VII(3, ["11/12", "11/12"])])
def test_extreme_points_of_generator_sets_solve_no_lp(monkeypatch, space):
    """Every generator here strictly maximizes its own functional over the
    set, so the pre-test keeps it without a hull LP."""
    no_lps(monkeypatch)
    assert extreme_points(space.generators).vertices == tuple(sorted(space.generators))


def counting_lps(monkeypatch):
    calls = []
    solve = linprog.solve_lp
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def test_extreme_points_keep_an_extreme_point_that_fails_the_pre_test(monkeypatch):
    """(1, 0) . (2, 1) = 2 > (1, 0) . (1, 0), so only the hull LP keeps it."""
    calls = counting_lps(monkeypatch)
    pts = [Vec([0, 0]), Vec([1, 0]), Vec([2, 1])]
    assert extreme_points(pts).vertices == tuple(pts)
    assert len(calls) == 2  # (0, 0) and (1, 0); (2, 1) passes the pre-test


def test_extreme_points_drop_a_non_extreme_point_by_the_hull_lp(monkeypatch):
    calls = counting_lps(monkeypatch)
    pts = [Vec([0, 0]), Vec([1, "1/2"]), Vec([2, 1]), Vec([2, -1])]
    assert extreme_points(pts).vertices == (Vec([0, 0]), Vec([2, -1]), Vec([2, 1]))
    assert len(calls) == 2  # (0, 0) and (1, 1/2)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_extreme_points_keep_every_family_VII_generator_by_hull_lps(monkeypatch, N):
    """At the default weights the generators (+-1, +-1/3 e_j) fail the
    pre-test from n = 3 on; the set is closed under negation, so each of
    their 2(N - 2) +- pairs gets one hull LP, and every one of the
    10(N - 1) generators is kept."""
    calls = counting_lps(monkeypatch)
    gens = make_space_VII(N).generators
    assert len(gens) == 10 * (N - 1)
    assert extreme_points(gens).vertices == tuple(sorted(gens))
    assert len(calls) == 2 * (N - 2)


def _extreme_point_by_point(points):
    """extreme_points testing every point on its own: the Gram pre-test
    p.p > p.q over every other q, then a hull LP (polytope._in_hull) for
    each point that fails it.  Returns the kept points and the LP count."""
    from polyslice.polytope import _in_hull

    pts = sorted(set(tuple(as_fraction(c) for c in p) for p in points))
    den = 1
    for p in pts:
        for c in p:
            den = den * c.denominator // gcd(den, c.denominator)
    ints = [tuple(int(c * den) for c in p) for p in pts]
    kept, lps = [], 0
    for t, p in enumerate(ints):
        dots = [sum(a * b for a, b in zip(p, q)) for q in ints]
        if dots[t] == max(dots) and dots.count(dots[t]) == 1:
            kept.append(pts[t])
            continue
        lps += 1
        if not _in_hull(ints, t):
            kept.append(pts[t])
    return kept, lps


def _symmetric_point_sets(rng):
    """Family II at N = 1..5 with three r, family VII at N = 2..5 with the
    default weights, 17/18, 1 and random weights, and 30 random point sets
    closed under negation: entries in {-2..2} over 1 or 2, repeats, the
    origin and points inside the hull among them."""
    sets = []
    for N in range(1, 6):
        for r in ("1/10", "5/2", Scalar(rng.randint(1, 999), rng.randint(1, 999))):
            sets.append(make_space_II(N, r).generators)
    for N in range(2, 6):
        drawn = [Scalar(rng.randint(61, 72), 72) for _ in range(N - 1)]
        for omega in (None, ["17/18"] * (N - 1), ["1"] * (N - 1), drawn):
            sets.append(make_space_VII(N, omega).generators)
    for _ in range(30):
        dim = rng.choice((2, 3, 4))
        pts = [Vec([Scalar(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(dim)])
               for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            pts.append(Vec.zero(dim))
        sets.append(pts + [-p for p in pts] + pts[:2])
    return sets


def test_extreme_points_of_sets_closed_under_negation_take_one_lp_per_pair(monkeypatch):
    """A set closed under negation is tested one +- pair at a time: the kept
    points are those of the test of every point on its own, and each hull
    LP serves a pair, so exactly half as many run (the origin, its own
    negation, counts once on both sides)."""
    rng = random.Random(SEED + 5)
    calls = counting_lps(monkeypatch)
    total = 0
    for pts in _symmetric_point_sets(rng):
        expected, lps = _extreme_point_by_point(pts)
        origin = any(not any(p) for p in pts) and len(set(pts)) > 1
        del calls[:]
        assert [tuple(as_fraction(c) for c in v) for v in extreme_points(pts).vertices] == expected
        assert len(calls) == (lps + origin) // 2
        total += lps
    assert total > 0


def test_extreme_points_drop_the_family_VII_generators_inside_the_hull():
    """At weight 1 the four points (+-1, +-1/3, 0) are convex combinations
    of the other generators, and only the hull LP finds it."""
    gens = make_space_VII(3, ["1", "17/18"]).generators
    third = rational("1/3")
    inside = {Vec([a, b * third, 0]) for a in (1, -1) for b in (1, -1)}
    assert inside <= set(gens) and len(gens) == 20
    assert extreme_points(gens).vertices == tuple(sorted(set(gens) - inside))


@pytest.mark.parametrize("args", [(3,), (4,), (3, ["1", "17/18"])], ids=["VII3", "VII4", "VII3-weight1"])
def test_extreme_points_of_family_VII_match_the_lp_hull_oracle(args):
    """oracles.lp_extreme_filter tests each point by one Fraction-tableau LP
    (oracles.lp_max), fast enough past the N = 3 that the Caratheodory walk
    of extreme_filter can reach."""
    gens = make_space_VII(*args).generators
    expected = oracles.lp_extreme_filter(gens)
    assert len(expected) == (16 if len(args) == 2 else len(gens))
    assert [tuple(as_fraction(c) for c in v) for v in extreme_points(gens).vertices] == expected
