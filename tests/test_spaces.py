"""Norm-space builders, evaluators, and face queries."""

import dataclasses
import gc
import json
import math
import random
from collections import Counter

import pytest

import oracles
from polyslice import numeric, polytope, slices, spaces
from polyslice.cli import main as cli_main
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rational
from polyslice.polytope import HPolytope, VPolytope, contains, extreme_points, vertices
from polyslice.spaces import (
    PolyhedralNormSpace,
    _norm_ints,
    attaining_set,
    default_omega,
    dual_ball_vertices,
    load_space,
    make_space_II,
    make_space_VII,
    norm,
    reference_product_norm,
    save_space,
    space_from_dict,
    space_to_dict,
    support_value,
    unit_ball,
)

SEED = 4517
R10 = rational("1/10")


def rnd_vec(rng, dim, span=40, den=15):
    return Vec([Scalar(rng.randint(-span, span), rng.randint(1, den)) for _ in range(dim)])


def test_lifted_space_has_4n_plus_2_generators():
    for n in (1, 2, 3, 5):
        sp = make_space_II(n, R10)
        assert sp.dim == n + 1
        assert len(sp.generators) == 4 * n + 2


def test_lifted_generators_are_the_advertised_family():
    sp = make_space_II(2, R10)
    lift = rational("11/10")
    expected = {(ZERO, ZERO, lift), (ZERO, ZERO, -lift)}
    for n in range(2):
        for xi in (ONE, -ONE):
            for psi in (ONE, -ONE):
                v = [ZERO, ZERO, psi]
                v[n] = xi
                expected.add(tuple(v))
    assert {tuple(g) for g in sp.generators} == expected


def test_lifted_norm_examples():
    sp = make_space_II(2, R10)
    assert norm(sp, Vec([0, 0, rational("10/11")])) == ONE
    assert norm(sp, Vec([1, 0, 0])) == ONE
    assert norm(sp, Vec.zero(3)) == ZERO
    assert norm(sp, Vec([0, 0, 1])) == rational("11/10")


def test_lifted_builder_rejections():
    with pytest.raises(ValueError):
        make_space_II(0, R10)
    with pytest.raises(ValueError):
        make_space_II(2, 0)
    with pytest.raises(ValueError):
        make_space_II(2, "-1/4")


def test_weighted_space_has_10_per_tail_coordinate():
    for n in (2, 3, 4):
        sp = make_space_VII(n)
        assert sp.dim == n
        assert len(sp.generators) == 10 * (n - 1)


def test_default_omega_rule():
    assert default_omega(4) == (rational("11/12"), rational("17/18"), rational("23/24"))
    for w in default_omega(9):
        assert rational("5/6") < w <= ONE


def test_weighted_norm_examples():
    sp = make_space_VII(2)
    assert norm(sp, Vec([0, 1])) == ONE
    assert norm(sp, Vec([1, 1])) == rational("17/12")
    assert norm(sp, Vec([1, 0])) == ONE
    assert norm(sp, Vec.zero(2)) == ZERO


def test_weighted_builder_rejections():
    with pytest.raises(ValueError):
        make_space_VII(1)
    with pytest.raises(ValueError):
        make_space_VII(3, ("5/6", "11/12"))
    with pytest.raises(ValueError):
        make_space_VII(3, ("9/8", "11/12"))
    with pytest.raises(ValueError):
        make_space_VII(3, ("11/12",))


def test_weight_one_is_allowed():
    sp = make_space_VII(2, (ONE,))
    assert norm(sp, Vec([1, 1])) == rational("3/2")


def test_space_validation_catches_bad_generator_sets():
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([-1, 0])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([0, 1])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([-1, 0]), Vec([0, 0])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0, 0]), Vec([-1, 0, 0])), "custom")


def test_reference_product_norm_examples():
    assert reference_product_norm(Vec([1, 0, 0]), 2) == ONE
    assert reference_product_norm(Vec([1, 1, "1/2"]), 2) == rational("3/2")
    assert reference_product_norm(Vec([0, 0, "-7/3"]), 2) == rational("7/3")
    assert reference_product_norm(Vec(["1/2"]), 0) == rational("1/2")
    with pytest.raises(IndexError):
        reference_product_norm(Vec([1, 2]), 2)


def test_norm_axioms_on_random_inputs():
    rng = random.Random(SEED)
    for sp in (make_space_II(2, R10), make_space_VII(3)):
        for _ in range(150):
            x = rnd_vec(rng, sp.dim)
            y = rnd_vec(rng, sp.dim)
            lam = Scalar(rng.randint(-9, 9), rng.randint(1, 5))
            assert norm(sp, x * lam) == abs(lam) * norm(sp, x)
            assert norm(sp, x + y) <= norm(sp, x) + norm(sp, y)
            assert (norm(sp, x) == ZERO) == x.is_zero()


def test_norm_sandwich_small_sample():
    rng = random.Random(SEED + 1)
    sp = make_space_II(2, R10)
    cap = 1 + R10
    for _ in range(100):
        z = rnd_vec(rng, 3)
        lower = reference_product_norm(z, 2)
        val = norm(sp, z)
        assert lower <= val <= cap * lower


def _generator_loop_norm(space, x):
    """The rational reference: max of phi.x over the generators."""
    return max(g.dot(x) for g in space.generators)


def test_integer_norm_matches_the_generator_loop():
    rng = random.Random(SEED + 7)
    custom = PolyhedralNormSpace(3, tuple(sorted(
        s * Vec(g) for g in (["2/3", "1/5", 0], [0, "5/4", "-3/7"], ["1/6", 0, "7/9"], [1, 1, 1])
        for s in (1, -1))), "custom")
    spaces = (
        make_space_II(1, R10),
        make_space_II(4, "3/7"),
        make_space_VII(4),
        make_space_VII(4, [1 - Scalar(k, 72) for k in (0, 5, 11)]),
        custom,
    )
    for sp in spaces:
        points = [rnd_vec(rng, sp.dim) for _ in range(60)]
        points += [rnd_vec(rng, sp.dim, den=1) for _ in range(20)]
        points += [Vec([-Scalar(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(sp.dim)])
                   for _ in range(20)]
        points += [Vec.zero(sp.dim), Vec.unit(sp.dim, sp.dim - 1) * -1]
        for x in points:
            value = norm(sp, x)
            assert value == _generator_loop_norm(sp, x)
            assert type(value) is Scalar


def test_integer_rows_keep_one_row_per_generator_pair():
    """Each +- pair of generators leaves the member that comes first in
    generator order, as one dense integer row over den."""
    custom = PolyhedralNormSpace(2, tuple(Vec(g) for g in (
        ["-1/2", 1], [1, 0], ["1/2", -1], [-1, 0])), "custom")
    for sp in (make_space_II(3, "3/7"), make_space_VII(3, ("71/72", "61/72")), custom):
        rows, den = sp._int_rows
        cleared = [tuple(int(c * den) for c in g) for g in sp.generators]
        firsts = [row for k, row in enumerate(cleared) if tuple(-c for c in row) not in cleared[:k]]
        assert list(rows) == firsts
        assert len(rows) == len(sp.generators) // 2
    assert custom._int_rows == (((-1, 2), (2, 0)), 2)


def test_norm_kernel_on_integer_points_and_the_zero_vector():
    """_norm_ints on a batch of one zero vector, and on the zero vector then
    30 random integer points as one batch, one value per point."""
    rng = random.Random(SEED + 11)
    for sp in (make_space_II(1, R10), make_space_II(5, "7/3"), make_space_VII(4)):
        den = sp._int_rows[1]
        assert _norm_ints(sp, [(0,)] * sp.dim) == [0]
        assert norm(sp, Vec.zero(sp.dim)) == ZERO
        pts = [(0,) * sp.dim] + [tuple(rng.randint(-40, 40) for _ in range(sp.dim))
                                 for _ in range(30)]
        expected = [den * _generator_loop_norm(sp, Vec(p)) for p in pts]
        assert _norm_ints(sp, list(zip(*pts))) == expected


def _plain_norm_ints(space, points):
    """den * |||p||| per point by a plain loop: max |row.p| over the rows."""
    rows = space._int_rows[0]
    return [max(abs(sum(c * x for c, x in zip(row, p))) for row in rows) for p in points]


# Custom spaces whose rows have negative leading entries, mixed gcds and
# coefficients +-1 after the leading one.
DEGENERATE_CUSTOM = [
    [["-1/2", 1], [1, 0]],
    [["2/3", "1/5", 0], [0, "5/4", "-3/7"], ["1/6", 0, "7/9"], [1, 1, 1]],
    [[-3, 6, 0], [2, 0, 4], [0, 0, 1], [5, 5, 5], [0, -7, 0], [1, -1, 0], [-4, 1, -1]],
    [[0, -2, 2, -2], [-6, 0, 3, 9], [1, 0, 0, 0], [0, 0, 0, -5], [3, -3, 0, 1]],
]


def _kernel_spaces():
    out = [make_space_II(N, r) for N in range(1, 9) for r in ("1/20", "7/3", "1")]
    out += [make_space_VII(N) for N in range(2, 7)]
    out += [PolyhedralNormSpace(len(gens[0]), tuple(sorted(s * Vec(g) for g in gens for s in (1, -1))),
                                "custom") for gens in DEGENERATE_CUSTOM]
    return out


def test_norm_groups_are_the_primitive_sign_normalized_rows():
    """Each group's rows, times g, are the space's rows up to sign; each is
    primitive with a positive first entry."""
    kernel_spaces = _kernel_spaces()
    for sp in kernel_spaces:
        rebuilt = []
        for g, rows in sp._norm_groups:
            assert g > 0
            for row in rows:
                dense = [0] * sp.dim
                for j, c in row:
                    dense[j] = c
                assert row[0][1] > 0 and math.gcd(*dense) == 1 and all(c for _, c in row)
                rebuilt.append(tuple(g * c for c in dense))
        assert sorted(rebuilt) == sorted(max(row, tuple(-c for c in row)) for row in sp._int_rows[0])
    assert len(kernel_spaces[-2]._norm_groups) > 2  # DEGENERATE_CUSTOM[2]: mixed gcds


def test_norm_kernel_equals_the_plain_row_loop():
    """_norm_ints against max |row.p| on the family II and VII spaces and the
    degenerate custom spaces, on batches of 0, 1 and 300 points."""
    rng = random.Random(SEED + 13)
    for sp in _kernel_spaces():
        big = [tuple(rng.choice((0, 1, -1, rng.randint(-10**15, 10**15), rng.randint(-60, 60)))
                     for _ in range(sp.dim)) for _ in range(300)]
        for pts in ([], big[:1], big):
            cols = [list(col) for col in zip(*pts)] or [[] for _ in range(sp.dim)]
            assert _norm_ints(sp, cols) == _plain_norm_ints(sp, pts)


def test_builders_span_without_elimination_and_custom_sets_still_eliminate(monkeypatch):
    """The family rows' leading coordinates cover every coordinate, so the
    builders run no elimination; a full-rank custom set whose rows all lead
    on one coordinate is still accepted, by elimination."""
    calls = []

    def counting_rank(rows, width):
        calls.append(width)
        return numeric._int_rank(rows, width)

    monkeypatch.setattr(spaces, "_int_rank", counting_rank)
    for N in range(1, 9):
        make_space_II(N, "1/10")
    for N in range(2, 7):
        make_space_VII(N)
    assert calls == []
    sp = PolyhedralNormSpace(2, tuple(Vec(g) for g in ([1, 1], [1, -1], [-1, 1], [-1, -1])), "custom")
    assert calls == [2]
    assert norm(sp, Vec([3, "-1/2"])) == rational("7/2")


def test_integer_rows_stay_out_of_equality_and_the_ball_cache():
    """Two equal spaces built separately are equal, hash alike and print
    alike, also when only one of them has evaluated a norm and kept its
    unit ball and dual vertices.  Each builds its own ball, on equal rows."""
    for build in (lambda: make_space_II(3, "1/10"), lambda: make_space_VII(3, ("71/72", "61/72"))):
        a, b = build(), build()
        norm(a, Vec.unit(a.dim, 0))
        ball = unit_ball(a)
        dual_ball_vertices(a)
        assert {"_unit_ball", "_dual_vertices"} <= set(vars(a)).difference(vars(b))
        assert a is not b
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert unit_ball(b) is not ball and unit_ball(b)._int_rows == ball._int_rows


def counting_clears(monkeypatch):
    """Record every rational clearing made outside an LP: each
    clear_denominators call that numeric, polytope, spaces or slices makes,
    as (the calling module's name, the values), and each linprog.clear_rows
    call on rows not yet cleared, as ("rows", how many rows).  numeric
    clears only rows, for rank and nullspace_basis.  solve_lp's clearing of
    its own objective is an LP's input, not a row, and is not recorded."""
    import polyslice.linprog
    import polyslice.numeric
    import polyslice.polytope
    import polyslice.slices
    import polyslice.spaces

    calls = []
    clear = polyslice.numeric.clear_denominators
    clear_rows = polyslice.linprog.clear_rows

    def counted_clear(name):
        def counted(values):
            values = tuple(values)
            calls.append((name, values))
            return clear(values)
        return counted

    def counted_rows(pairs):
        rows = clear_rows(pairs)
        if rows is not pairs:
            calls.append(("rows", len(rows)))
        return rows

    for module in (polyslice.numeric, polyslice.polytope, polyslice.spaces, polyslice.slices):
        monkeypatch.setattr(module, "clear_denominators", counted_clear(module.__name__))
    for module in (polyslice.linprog, polyslice.polytope, polyslice.slices):
        monkeypatch.setattr(module, "clear_rows", counted_rows)
    return calls


def test_generators_are_cleared_once_for_the_checks_and_the_rows(monkeypatch):
    """The duplicate, symmetry and rank checks and _int_rows share one
    clearing of the generators.  A builder makes its integer rows directly
    and clears nothing; the constructor clears custom generators once, and
    the rank check clears no row of its own."""
    calls = counting_clears(monkeypatch)
    sp = make_space_VII(4, ("71/72", "61/72", "67/72"))
    assert sp._int_rows[1] == 72 and len(sp._int_rows[0]) == len(sp.generators) // 2
    assert calls == []
    custom = PolyhedralNormSpace(sp.dim, sp.generators, "custom", sp.params)
    assert custom._int_rows == sp._int_rows
    assert calls == [("polyslice.spaces", tuple(c for g in sp.generators for c in g))]


@pytest.mark.parametrize("build", [
    lambda: make_space_II(1, R10), lambda: make_space_II(6, "3/7"), lambda: make_space_II(8, "5/2"),
    lambda: make_space_VII(2), lambda: make_space_VII(4), lambda: make_space_VII(3, ["1", "17/18"]),
], ids=["II1", "II6", "II8", "VII2", "VII4", "VII3-weight1"])
def test_builders_ball_and_dual_vertices_clear_no_rational_row(monkeypatch, build):
    """A family II or VII space, its unit ball and its dual vertices all
    come from the builder's integer rows: no generator, halfspace or dual
    vertex is cleared, also where hull LPs run (VII4) or a generator is
    dropped (VII3-weight1)."""
    calls = counting_clears(monkeypatch)
    sp = build()
    ball = unit_ball(sp)
    dual = dual_ball_vertices(sp)
    assert calls == []
    assert len(ball.halfspaces) == len(sp.generators)
    assert set(dual.vertices) <= set(sp.generators)


@pytest.mark.parametrize("build, g", [
    (lambda: make_space_II(6, R10), [1, 1, 0, 0, 0, 0, 0]),
    (lambda: make_space_II(4, "3/7"), [1, "1/2", "1/3", 0, 0]),
    (lambda: make_space_VII(4), [0, 1, 0, 0]),
], ids=["II6", "II4", "VII4"])
def test_lower_bound_certificate_clears_no_dual_row(monkeypatch, build, g):
    """A certificate reads its dual rows, for the active set and for its
    kernel with g, from dual_ball_vertices' integer keys, so nothing goes
    through nullspace_basis' row clearing, and it clears no row at all: the
    cut g.x >= s - alpha is made an integer row from g's own clearing.  What
    it clears is single points of space.dim values: g, once for the support
    value and once for the search, and each probe point, the last of them
    the certificate's x.  The kernel direction and the checked points
    x +- (1-r)y are integers from the start."""
    from polyslice.slices import lower_bound_certificate

    sp = build()
    g = Vec(g)
    calls = counting_clears(monkeypatch)
    cert = lower_bound_certificate(sp, g, rational("1/2"), R10)
    assert cert.valid and cert.active
    assert calls[:2] == [("polyslice.spaces", tuple(g)), ("polyslice.slices", tuple(g))]
    assert calls[-1] == ("polyslice.slices", tuple(cert.x))
    assert {name for name, _ in calls[2:]} == {"polyslice.slices"}


# Family II at N = 1..8 with random r, r >= 1 and long denominators among
# them; family VII at N = 2..6 with random weights in (5/6, 1], 17/18 and 1
# among them.
def _differential_spaces():
    rng = random.Random(SEED + 21)
    out = []
    for N in range(1, 9):
        for r in ("1/10", "1", "7/2", Scalar(rng.randint(1, 10 ** 15), rng.randint(1, 10 ** 15)),
                  Scalar(rng.randint(1, 99), rng.randint(1, 99))):
            out.append(make_space_II(N, r))
    for N in range(2, 7):
        fixed = [["17/18"] * (N - 1), ["1"] * (N - 1), None]
        drawn = []
        for _ in range(3):
            q = rng.choice([6, 7, 12, 18, 72, rng.randint(7, 10 ** 9)])
            drawn.append([Scalar(rng.randint(5 * q // 6 + 1, q), q) for _ in range(N - 1)])
        out += [make_space_VII(N, omega) for omega in fixed + drawn]
    return out


def test_builders_match_the_generic_constructor():
    """Each builder space equals PolyhedralNormSpace on its own generators,
    field for field, with the same hash and the same integer rows; its unit
    ball's rows are those that clear_rows gives the ball's halfspaces, and
    its dual vertices are extreme_points of its generators."""
    from polyslice.linprog import clear_rows

    spaces = _differential_spaces()
    assert len(spaces) == 8 * 5 + 5 * 6
    for sp in spaces:
        generic = PolyhedralNormSpace(sp.dim, tuple(sp.generators), sp.label, sp.params)
        assert dataclasses.astuple(sp) == dataclasses.astuple(generic)
        assert sp == generic and hash(sp) == hash(generic)
        assert sp._int_rows == generic._int_rows and sp._gen_ints == generic._gen_ints
        ball = unit_ball(sp)
        assert ball._int_rows == clear_rows((h.a, h.b) for h in ball.halfspaces)
        dual = dual_ball_vertices(sp)
        expected = extreme_points(sp.generators)
        assert dual == expected and dual._int_keys == expected._int_keys


def test_ball_levels_expand_to_the_dd_rays_and_masks(monkeypatch):
    """A builder ball's vertex levels, expanded over the sign patterns, give
    what DD gives on the same integer rows: the same vertex keys and den,
    and the same multiset of (ray, zero-set mask), on the 70 differential
    spaces.  On the first space of each family at N <= 3 the vertices are
    also those of the subset oracle."""
    seen = set()
    for sp in _differential_spaces():
        ball = unit_ball(sp)
        assert ball._levels == sp._levels and sp._levels
        got = polytope._enumeration(ball)
        cold = polytope._enumeration(HPolytope(ball._int_rows, sp.dim))
        assert (got.keys, got.den) == (cold.keys, cold.den)
        assert Counter(zip(got.rays, got.masks)) == Counter(zip(cold.rays, cold.masks))
        if sp.param("N") <= 3 and (sp.label, sp.param("N")) not in seen:
            seen.add((sp.label, sp.param("N")))
            expected = oracles.enum_vertices(oracles.ball_rows(sp.generators), sp.dim)
            assert [tuple(v) for v in vertices(ball).vertices] == expected


def test_coordinate_bounds_from_levels_equal_the_support_values():
    """A builder space reads M_j = sup |x_j| off its vertex levels, as
    integers over one den: that is support_value at e_j and at -e_j on the
    70 differential spaces, and, at N <= 3, the bound LPs of the same
    generators through the constructor."""
    for sp in _differential_spaces():
        d = sp.dim
        bounds, den = sp._coordinate_bounds
        got = [Scalar(b, den) for b in bounds]
        assert got == [support_value(sp, Vec.unit(d, j)) for j in range(d)]
        assert got == [support_value(sp, -Vec.unit(d, j)) for j in range(d)]
        if sp.param("N") <= 3:
            generic = PolyhedralNormSpace(d, sp.generators, sp.label, sp.params)
            bounds, den = generic._coordinate_bounds
            assert [Scalar(b, den) for b in bounds] == got


def test_a_custom_space_has_no_levels_and_takes_dd_and_the_lp(monkeypatch):
    """Levels come only from the builders.  A custom space with a family's
    label and params but scaled generators has none, so its ball is
    enumerated by DD and its support value is one LP; both agree with the
    family space's, scaled.  The same generators through the constructor
    also give no levels, and that space builds its own ball on the
    builder's rows."""
    cones, lps = [], []
    cone, solve = polytope._cone, spaces.solve_lp
    monkeypatch.setattr(polytope, "_cone", lambda *a: cones.append(1) or cone(*a))
    monkeypatch.setattr(spaces, "solve_lp", lambda *a, **k: lps.append(1) or solve(*a, **k))
    for family in (make_space_II(3, "2/7"), make_space_VII(3, ["1", "17/18"])):
        f = Vec([Scalar(k - 2, k + 1) for k in range(family.dim)])
        scaled = PolyhedralNormSpace(family.dim, tuple(g * 2 for g in family.generators),
                                     family.label, family.params)
        assert scaled._levels is None and family._levels
        del cones[:], lps[:]
        ball = unit_ball(scaled)
        assert ball._levels is None
        assert vertices(ball).vertices == tuple(v * rational("1/2")
                                                for v in vertices(unit_ball(family)).vertices)
        assert slices.support_value(scaled, f) * 2 == slices.support_value(family, f)
        assert (len(cones), len(lps)) == (1, 1)
        same = PolyhedralNormSpace(family.dim, family.generators, family.label, family.params)
        assert same == family and same._levels is None
        assert unit_ball(same) is not unit_ball(family)
        assert unit_ball(same)._int_rows == unit_ball(family)._int_rows


def test_spaces_with_the_same_rows_build_their_own_equal_balls_and_duals():
    """A ball and its dual vertices belong to their space: equal spaces
    built separately, and a custom space on a builder's generators, build
    distinct balls and dual vertices on equal integer rows, with equal
    vertex keys; a space that differs in a row gets other rows."""
    sp = make_space_II(2, "3/7")
    twin = make_space_II(2, rational("3/7"))
    custom = space_from_dict({"generators": [[str(c) for c in g] for g in sp.generators]})
    ball, dual = unit_ball(sp), dual_ball_vertices(sp)
    for other in (twin, custom):
        assert unit_ball(other) is not ball and dual_ball_vertices(other) is not dual
        assert unit_ball(other)._int_rows == ball._int_rows
        assert polytope._enumeration(unit_ball(other)).keys == polytope._enumeration(ball).keys
        assert dual_ball_vertices(other)._int_keys == dual._int_keys
    assert unit_ball(make_space_II(2, "2/7"))._int_rows != ball._int_rows


def test_builder_generators_are_the_sorted_rational_family():
    """The rational generators a builder looks up from its value table are
    those of the closed form, built as rationals and sorted as rationals."""
    third, half = rational("1/3"), rational("1/2")
    for N, r in ((1, R10), (3, rational("7/2")), (5, rational("123456789/1000000007"))):
        d = N + 1
        expected = [Vec.unit(d, N) * (s * (1 + r)) for s in (1, -1)]
        expected += [Vec.unit(d, n) * xi + Vec.unit(d, N) * psi
                     for n in range(N) for xi in (1, -1) for psi in (1, -1)]
        assert make_space_II(N, r).generators == tuple(sorted(expected))
    for N, omega in ((2, ["1"]), (4, ["17/18", "61/72", "999999/1000000"])):
        ws = [rational(w) for w in omega]
        expected = []
        for j, w in enumerate(ws, 1):
            e1, ej = Vec.unit(N, 0), Vec.unit(N, j)
            expected += [ej, -ej]
            expected += [e1 * s1 + ej * (s2 * c) for a, c in ((ONE, third), (w, half))
                         for s1 in (a, -a) for s2 in (1, -1)]
        assert make_space_VII(N, omega).generators == tuple(sorted(expected))


def test_hash_is_the_field_tuple_hash():
    """The hash is the dataclass hash of (dim, generators, label, params),
    the only fields."""
    sp = make_space_VII(3, ("71/72", "61/72"))
    assert hash(sp) == hash((sp.dim, sp.generators, sp.label, sp.params))
    assert [f.name for f in dataclasses.fields(sp)] == ["dim", "generators", "label", "params"]


def test_unit_ball_is_cached_and_polar():
    sp = make_space_II(2, R10)
    ball = unit_ball(sp)
    assert unit_ball(sp) is ball
    assert unit_ball(make_space_II(2, rational("1/10")))._int_rows == ball._int_rows
    rng = random.Random(SEED + 2)
    for _ in range(100):
        x = rnd_vec(rng, 3, span=8, den=6)
        assert contains(ball, x) == (norm(sp, x) <= ONE)
        assert contains(ball, x) == all(phi.dot(x) <= ONE for phi in dual_ball_vertices(sp).vertices)


def test_a_dropped_space_leaves_no_ball_or_dual_vertices_alive():
    """A space's ball and dual vertices live as long as the space, or a
    slice built on the ball, and no longer: once 20 family II and 20 family
    VII spaces, all distinct, and their balls, slices and dual vertices are
    dropped, none of the polytopes they made is left."""
    def polytopes():
        gc.collect()
        return sum(isinstance(o, (HPolytope, VPolytope)) for o in gc.get_objects())

    before = polytopes()
    for k in range(20):
        omega = (1 - Scalar(k, 200), 1 - Scalar(k + 1, 200))
        for sp in (make_space_II(4, Scalar(1, k + 2)), make_space_VII(3, omega)):
            assert unit_ball(sp)._int_rows
            spec = slices.SliceSpec(Vec.unit(sp.dim, 0), "1/9")
            assert slices.diameter(slices.make_slice(sp, spec), sp).value
            assert dual_ball_vertices(sp).vertices
    del sp
    assert polytopes() == before


def test_gauge_identity_on_ball_vertices():
    for sp in (make_space_II(1, R10), make_space_II(2, R10), make_space_VII(2), make_space_VII(3)):
        for v in vertices(unit_ball(sp)).vertices:
            assert norm(sp, v) == ONE


def test_lifted_ball_vertices_n1():
    sp = make_space_II(1, R10)
    got = {tuple(v) for v in vertices(unit_ball(sp)).vertices}
    q = rational("1/11")
    h = rational("10/11")
    assert got == {(ONE, ZERO), (-ONE, ZERO), (q, h), (q, -h), (-q, h), (-q, -h)}


def test_lifted_ball_vertices_n2():
    sp = make_space_II(2, R10)
    got = {tuple(v) for v in vertices(unit_ball(sp)).vertices}
    q = rational("1/11")
    h = rational("10/11")
    expected = {(Scalar(a), Scalar(b), ZERO) for a in (1, -1) for b in (1, -1)}
    expected |= {(a * q, b * q, c * h) for a in (1, -1) for b in (1, -1) for c in (1, -1)}
    assert got == expected


def test_dual_ball_vertices_equal_generators():
    for sp in (make_space_II(2, R10), make_space_VII(2)):
        assert set(dual_ball_vertices(sp).vertices) == set(sp.generators)
    sp = make_space_II(2, R10)
    assert Vec([0, 0, rational("11/10")]) in dual_ball_vertices(sp).vertices


def test_attaining_set_examples():
    sp7 = make_space_VII(4)
    face = attaining_set(sp7, Vec.unit(4, 0))
    third = rational("1/3")
    expected = set()
    for n in range(1, 4):
        for s in (third, -third):
            v = [ZERO] * 4
            v[0] = ONE
            v[n] = s
            expected.add(tuple(v))
    assert {tuple(phi) for phi in face.attaining} == expected

    sp2 = make_space_II(2, R10)
    face2 = attaining_set(sp2, Vec([0, 0, rational("10/11")]))
    assert {tuple(phi) for phi in face2.attaining} == {(ZERO, ZERO, rational("11/10"))}

    with pytest.raises(ValueError):
        attaining_set(sp2, Vec.zero(3))


def test_attaining_set_at_ball_vertex_has_dim_elements():
    sp = make_space_II(2, R10)
    for v in vertices(unit_ball(sp)).vertices:
        assert len(attaining_set(sp, v).attaining) >= sp.dim


def test_param_access():
    sp = make_space_II(3, R10)
    assert sp.param("N") == 3
    assert sp.param("r") == R10
    assert sp.has_param("r") and not sp.has_param("omega")
    with pytest.raises(KeyError):
        sp.param("delta")


def test_space_json_round_trip(tmp_path):
    for sp in (make_space_II(2, R10), make_space_VII(3), make_space_VII(3, ("8/9", "9/10"))):
        path = tmp_path / "space.json"
        save_space(sp, path)
        assert load_space(path) == sp


def test_space_dict_shapes():
    d2 = space_to_dict(make_space_II(1, R10))
    assert d2["kind"] == "II" and d2["N"] == 1 and d2["r"] == "1/10"
    assert len(d2["generators"]) == 6
    d7 = space_to_dict(make_space_VII(2))
    assert d7["kind"] == "VII" and d7["omega"] == ["11/12"]


def test_custom_space_round_trip():
    gens = tuple(sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1])]))
    sp = PolyhedralNormSpace(2, gens, "custom")
    back = space_from_dict(space_to_dict(sp))
    assert back.generators == gens and back.label == "custom"


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        space_from_dict({"kind": "VIII", "generators": [["1/1"], ["-1/1"]]})


@pytest.mark.parametrize("data", [{"kind": "II"}, {"kind": "II", "N": 2}, {"kind": "VII"}, {}, []])
def test_space_from_dict_rejects_missing_keys_with_value_error(data):
    with pytest.raises(ValueError):
        space_from_dict(data)


@pytest.mark.parametrize("data", [
    {"kind": "II", "N": 1.5, "r": "1/10"},
    {"kind": "II", "N": True, "r": "1/10"},
    {"kind": "II", "N": "2", "r": "1/10"},
    {"kind": "VII", "N": 3.0},
    {"kind": "custom", "N": 1.0, "generators": [["1/1"], ["-1/1"]]},
])
def test_space_from_dict_rejects_non_integer_n(data):
    with pytest.raises(ValueError, match="'N' must be an integer"):
        space_from_dict(data)


def test_extra_point_is_dropped_from_dual_ball():
    sp = make_space_II(2, R10)
    padded = list(sp.generators) + [Vec.zero(3)]
    got = extreme_points(padded)
    assert set(got.vertices) == set(sp.generators)


# (dimension, generators, the one-line message) for each check of
# PolyhedralNormSpace, in the order the checks run.
BAD_GENERATOR_SETS = [
    (2, [[1, 0], [-1, 0], [1, 0, 0]], "generator of length 3 in dimension 2"),
    (2, [[1, 0], [-1, 0], [0, 0]], "zero generator"),
    (2, [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 1]], "duplicate generators"),
    (2, [[1, 0], [-1, 0], ["1/2", "1/3"]],
     "generator set is not symmetric: missing Vec(-1/2, -1/3)"),
    (2, [[1, 0], [-1, 0]], "generators do not span the dual; the gauge is not a norm"),
    (3, [["1/2", 1, 0], ["-1/2", -1, 0], [1, 2, 0], [-1, -2, 0], [0, 0, 1], [0, 0, -1]],
     "generators do not span the dual; the gauge is not a norm"),
    # The first failing check wins.
    (2, [[0, 0], [1, 0, 0]], "zero generator"),
    (2, [[1, 0], [1, 0], [0, 1]], "duplicate generators"),
    (2, [[1, 0]], "generator set is not symmetric: missing Vec(-1, 0)"),
]


@pytest.mark.parametrize("dim, gens, message", BAD_GENERATOR_SETS)
def test_space_validation_messages(dim, gens, message):
    with pytest.raises(ValueError) as info:
        PolyhedralNormSpace(dim, tuple(Vec(g) for g in gens), "custom")
    assert str(info.value) == message


def test_space_validation_rejects_a_nonpositive_dimension():
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        PolyhedralNormSpace(0, (), "custom")


@pytest.mark.parametrize("dim, gens, message", BAD_GENERATOR_SETS)
def test_space_file_validation_messages(tmp_path, capsys, dim, gens, message):
    """The same messages from space_from_dict, which sorts the generators
    and takes the dimension from the first one listed, and from --space,
    where each is one error line and exit 2."""
    data = {"kind": "custom", "generators": [[str(c) for c in g] for g in gens]}
    with pytest.raises(ValueError) as info:
        space_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as info:
        cli_main(["verify-ext", "--space", str(path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == ["polyslice: error: " + message]
