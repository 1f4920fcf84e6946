"""Slices cut one vertex orbit at a time (polytope._orbit_cut).

make_space_II and make_space_VII attach each vertex level's ball
neighbours in closed form, up to the sign flips that fix the level's
canonical vertex; a slice of any other ball is one DD step from the
ball's rays.  These tests hold the closed-form lists against the adjacency test
that DD's _cut applies to the expanded ball, and hold the orbit slices of
the family spaces and of constructor-built copies of them, which carry no
levels, against DD run from scratch on the slice's full rows.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from polyslice import polytope
from polyslice.linprog import clear_rows
from polyslice.numeric import Scalar, Vec, rational
from polyslice.polytope import DegenerateError, HPolytope, _enumeration, _orbit, vertices
from polyslice.slices import SliceSpec, diameter, make_slice, support_value
from polyslice.spaces import PolyhedralNormSpace, make_space_II, make_space_VII, unit_ball


def _adjacent(rays, masks, k, dim):
    """The rays adjacent to rays[k] by _cut's combinatorial test: the zero
    sets share at least dim - 1 rows and no third ray's zero set holds that
    intersection."""
    out = set()
    for q, zq in enumerate(masks):
        common = masks[k] & zq
        if q == k or common.bit_count() < dim - 1:
            continue
        if sum(1 for z in masks if z & common == common) == 2:
            out.add(rays[q])
    return out


def _expanded(near, level, dim):
    """Every listed neighbour in all its signs on the level's zero
    coordinates, the flips that fix the level's canonical vertex."""
    zero = [j for j in range(dim) if not level[j]]
    out = set()
    for q in near:
        for signs in product((1, -1), repeat=len(zero)):
            w = list(q)
            for j, sign in zip(zero, signs):
                w[j] *= sign
            out.add(tuple(w))
    return out


def _assert_lists_are_the_ball_edges(sp):
    """Each level's neighbour list, expanded over its canonical vertex's
    zero coordinates, is exactly the set of ball vertices that _cut's test
    finds adjacent to that vertex, on the masks that _orbit reads off the
    ball's rows; no list holds two entries of one orbit."""
    ball = unit_ball(sp)
    assert ball._edges == sp._edges and len(sp._edges) == len(sp._levels)
    rays, masks = _orbit(sp._levels, ball._int_rows, sp.dim)
    for level, near in zip(sp._levels, sp._edges):
        assert len(_expanded(near, level, sp.dim)) == sum(
            len(_expanded((q,), level, sp.dim)) for q in near)
        assert _expanded(near, level, sp.dim) == _adjacent(rays, masks, rays.index(level), sp.dim)


@pytest.mark.parametrize("r", ["1/10", "3/7", "2"])
def test_closed_form_neighbours_are_the_ball_edges(r):
    """The family II lists are the ball's edges up to the stabilizers at
    N = 1..10: A = (1,..,1, 0) lists its N flips of one x coordinate and
    B with beta > 0, whose flip of beta fixes A; at N = 1 the ball is a
    hexagon and the flip (-1, 0) of A is opposite it.  B lists its N flips
    and A."""
    for N in range(1, 11):
        sp = make_space_II(N, r)
        _assert_lists_are_the_ball_edges(sp)
        assert len(sp._edges[0]) == (N + 1 if N >= 2 else 1)
        assert len(sp._edges[1]) == N + 1


VII_WEIGHTS = ("1", "11/12", "17/18", "7/8", "9/10", "6/7", "35/36")


def _vii_weight_lists(N, rng):
    """The default weights, all 1, all 11/12 and six random draws."""
    yield None
    yield ["1"] * (N - 1)
    yield ["11/12"] * (N - 1)
    for _ in range(6):
        yield [rng.choice(VII_WEIGHTS) for _ in range(N - 1)]


@pytest.mark.parametrize("N", range(2, 9))
def test_closed_form_VII_neighbours_are_the_ball_edges(N):
    """The family VII lists are the ball's edges up to the stabilizers: the
    pole (1, 0,..,0) lists level 1 once, and every other level has degree
    N or N + 1 (its two neighbouring levels, or the x_1 flip for the last,
    and the flips of x_n where another coordinate breaks)."""
    rng = random.Random(31 + N)
    for omega in _vii_weight_lists(N, rng):
        sp = make_space_VII(N, omega)
        _assert_lists_are_the_ball_edges(sp)
        assert sp._edges[0] == (sp._levels[1],)
        assert all(len(near) in (N, N + 1) for near in sp._edges[1:])


_COPIES = {}


def _dd_copy(space):
    """The space through the constructor: the same generators, no levels,
    so its ball is enumerated by DD and each slice is one more DD step."""
    key = (space.label, space.params)
    if key not in _COPIES:
        _COPIES[key] = PolyhedralNormSpace(space.dim, space.generators, space.label, space.params)
    return _COPIES[key]


def _dense_g(rng, N):
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)]
    coords[rng.randrange(N)] = Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
    total = sum(abs(c) for c in coords)
    return Vec([c / total for c in coords] + [0])


def _slice_cases():
    """(N, r, f, alpha): thm1's cuts (1+r) e_beta at depth delta for three
    epsilons at N = 1..8; prop2's e1 and e1 + e2 at N = 1..8 and dense g
    on x, every coordinate nonzero and beta zero, at N = 1..9, each at
    alpha = 1/2 and at alpha = 3/2; explicit functionals with a nonzero
    beta entry; and cuts at depths that pass through ball vertices.  At
    alpha = 3/2 the cut level s - alpha is negative, so the cut crosses the
    edges from A to (a,..,a, -b | a+b), whose beta is negative: beta is a
    flip coordinate there, and the crossing's |.| is taken on it."""
    deep = (rational("1/2"), rational("3/2"))
    cases = []
    for N in range(1, 9):
        for eps in ("1/2", "1/5", "1/20"):
            eps = rational(eps)
            r = eps / 4
            cases.append((N, r, Vec.unit(N + 1, N) * (1 + r), eps / 10))
        for r, alpha in zip(("1/10", "1/4"), deep):
            cases.append((N, rational(r), Vec.unit(N + 1, 0), alpha))
            if N >= 2:
                cases.append((N, rational(r), Vec.unit(N + 1, 0) + Vec.unit(N + 1, 1), alpha))
    rng = random.Random(28)
    for N in range(1, 10):
        for r, alpha in zip(("1/10", "3/7"), deep):
            cases.append((N, rational(r), _dense_g(rng, N), alpha))
    for N, f, alpha in ((3, [0, "1/3", "-1/2", 2], "5/4"), (2, [1, 0, 2], "1/2"),
                        (4, ["1/2", 0, "-1/4", 0, "-3"], "2/3"), (1, [1, 1], "1/3")):
        cases.append((N, rational("1/10"), Vec(f), rational(alpha)))
    # f = e1 at alpha = 1 - r/(1+r) and 1: the cut meets the ball vertices
    # with x_1 = r/(1+r) and x_1 = 0.
    for N in (2, 3):
        r = rational("1/4")
        for alpha in (1 - r / (1 + r), rational(1)):
            cases.append((N, r, Vec.unit(N + 1, 0), alpha))
    return cases


def _assert_orbit_slices_equal_dd(space, f, alpha):
    """The orbit slice of the space and the DD-step slice of its
    constructor copy give the diameter, witness pair and vertex count of DD run on the slice's
    full rows with no base, and their vertices(), expanded from the
    orbits, and their enumerations' keys, den, rays and masks equal DD's.
    Returns the orbit slice."""
    copy = _dd_copy(space)
    spec = SliceSpec(f, alpha)
    piece, custom = make_slice(space, spec), make_slice(copy, spec)
    dd = HPolytope(piece._int_rows, space.dim)
    assert piece._base._levels and not custom._base._levels and dd._base is None
    got = diameter(piece, space)
    assert got == diameter(custom, copy) == diameter(dd, space)
    assert piece._vcache is None and unit_ball(space)._vcache is None
    assert vertices(piece) == vertices(custom) == vertices(dd)
    cold = _enumeration(dd)
    for poly in (piece, custom):
        mine = _enumeration(poly)
        assert (mine.keys, mine.den) == (cold.keys, cold.den)
        assert Counter(zip(mine.rays, mine.masks)) == Counter(zip(cold.rays, cold.masks))
    assert got.vertex_count == len(cold.keys)
    return piece


@pytest.mark.parametrize("N,r,f,alpha", _slice_cases())
def test_orbit_slices_equal_dd_on_a_constructor_copy(N, r, f, alpha):
    """Family II slices, and those of the constructor copy, against DD."""
    _assert_orbit_slices_equal_dd(make_space_II(N, r), f, alpha)


def _vii_slice_cases():
    """(N, omega, f, alpha): family VII balls at N = 2..6, with the default
    weights and with all weights 1, cut by e1, e2, e1 + e2 and a dense f.
    The cut is nonzero on x_2 for all but e1, where the pole is 0, so the
    pole's list is expanded there."""
    rng = random.Random(31)
    cases = []
    for N in range(2, 7):
        dense = Vec([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(N)])
        for omega in (None, ("1",) * (N - 1)):
            for f in (Vec.unit(N, 0), Vec.unit(N, 1), Vec.unit(N, 0) + Vec.unit(N, 1), dense):
                for alpha in ("1/20", "1/2", "3/2"):
                    cases.append((N, omega, f, rational(alpha)))
    return cases


@pytest.mark.parametrize("N,omega,f,alpha", _vii_slice_cases())
def test_orbit_slices_of_VII_balls_equal_dd(N, omega, f, alpha):
    """Family VII slices, and those of the constructor copy, against DD."""
    piece = _assert_orbit_slices_equal_dd(make_space_VII(N, omega), f, alpha)
    assert piece._ocache.flips == tuple(j for j in range(N) if not f[j])


def test_a_custom_ball_takes_one_dd_step_per_slice(monkeypatch):
    """A ball with no levels is enumerated by DD once, and each of its
    slices, at other depths and along other functionals, is one more DD
    step from the ball's rays, every vertex its own orbit, with no orbit
    walk."""
    calls = []
    cut, orbit_cut = polytope._cut, polytope._orbit_cut
    monkeypatch.setattr(polytope, "_cut", lambda *a: calls.append("cut") or cut(*a))
    monkeypatch.setattr(polytope, "_orbit_cut",
                        lambda *a: calls.append("walk") or orbit_cut(*a))
    family = make_space_VII(4, ["11/12", "1", "7/8"])
    space = PolyhedralNormSpace(family.dim, family.generators, family.label, family.params)
    ball = unit_ball(space)
    _enumeration(ball)
    assert calls.count("cut") == len(ball._int_rows) - space.dim
    for f in (Vec.unit(4, 0), Vec([1, "1/2", 0, 0]), Vec([0, 1, -1, "1/3"])):
        for alpha in ("1/10", "1/3", "5/4"):
            want = diameter(make_slice(family, SliceSpec(f, alpha)), family)
            del calls[:]
            piece = make_slice(space, SliceSpec(f, alpha))
            assert diameter(piece, space) == want and calls == ["cut"]
            assert piece._base is ball and piece._ocache.flips == ()
            assert piece._ocache.count == len(piece._ocache.keys)
    assert ball._edges is None


def test_a_polytope_on_a_base_takes_exactly_one_row():
    """HPolytope(rows, dim, _base=ball) is the ball cut by one row; no row
    or two rows is a one-line ValueError."""
    ball = unit_ball(make_space_II(2, "1/4"))
    row = ((-1, 0, 0), 0)
    for rows in ((), (row, row)):
        with pytest.raises(ValueError, match="^a polytope on a base takes exactly one row, not %d$"
                           % len(rows)):
            HPolytope(rows, 3, _base=ball)
    assert len(HPolytope((row,), 3, _base=ball)._int_rows) == len(ball._int_rows) + 1


def _cut_of(space, f, level):
    """The ball cut by f.x >= level, one row after the ball's."""
    return HPolytope(clear_rows([(-Vec(f), -rational(level))]), space.dim, _base=unit_ball(space))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_orbit_cuts_meet_dd_on_faces_and_empty_cuts(N):
    """Cuts that the slices never make: f.x >= s keeps the face where f
    attains s, whose vertices all lie on the cut; f.x >= s + 1 keeps
    nothing.  The orbit cuts of the space and of its constructor copy keep
    the same face vertices as DD on the full rows, and raise
    DegenerateError exactly where DD does."""
    space = make_space_II(N, "1/4")
    copy = _dd_copy(space)
    for f in (Vec.unit(N + 1, N), Vec.unit(N + 1, 0), Vec([1] * N + [0]), Vec([1] * (N + 1))):
        s = support_value(space, f)
        for level in (s, s + 1):
            outcomes = []
            for sp, full in ((space, False), (copy, False), (space, True)):
                poly = _cut_of(sp, f, level)
                if full:
                    poly = HPolytope(poly._int_rows, sp.dim)
                try:
                    outcomes.append((diameter(poly, sp), vertices(poly)))
                except DegenerateError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1] == outcomes[2]
    # The face beta = 1/(1+r) has the 2^N vertices of level B with beta > 0.
    face = _cut_of(space, Vec.unit(N + 1, N), Scalar(4, 5))
    if N >= 2:
        assert len(vertices(face).vertices) == 2 ** N
