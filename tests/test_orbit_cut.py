"""Family II slices cut one vertex orbit at a time (polytope._orbit_cut).

make_space_II attaches each vertex level's ball neighbours in closed form.
These tests hold those lists against the adjacency test that DD's _cut
applies to the expanded ball, and hold the orbit slice, its diameter and
its expanded vertices against DD on a constructor-built copy of the same
space, which carries no levels.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from polyslice import polytope
from polyslice.linprog import clear_rows
from polyslice.numeric import Scalar, Vec, rational
from polyslice.polytope import DegenerateError, HPolytope, _enumeration, _orbit, vertices
from polyslice.slices import SliceSpec, diameter, make_slice, support_value
from polyslice.spaces import PolyhedralNormSpace, make_space_II, unit_ball


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


@pytest.mark.parametrize("r", ["1/10", "3/7", "2"])
def test_closed_form_neighbours_are_the_ball_edges(r):
    """Each level's neighbour list is exactly the set of ball vertices that
    _cut's test finds adjacent to the level's canonical vertex, on the
    masks that _orbit reads off the ball's rows, at N = 1..10.  At N = 1
    the ball is a hexagon: the flip (-1, 0) of A = (1, 0) is opposite it."""
    for N in range(1, 11):
        sp = make_space_II(N, r)
        ball = unit_ball(sp)
        assert ball._edges == sp._edges and len(sp._edges) == len(sp._levels)
        rays, masks = _orbit(sp._levels, ball._int_rows, sp.dim)
        for level, near in zip(sp._levels, sp._edges):
            assert len(set(near)) == len(near)
            assert set(near) == _adjacent(rays, masks, rays.index(level), sp.dim)
        assert len(sp._edges[0]) == (N + 2 if N >= 2 else 2)
        assert len(sp._edges[1]) == N + 1


_COPIES = {}


def _dd_copy(space):
    """The space through the constructor: the same generators, no levels,
    so its ball and every slice of it are enumerated by DD."""
    key = (space.param("N"), space.param("r"))
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


@pytest.mark.parametrize("N,r,f,alpha", _slice_cases())
def test_orbit_slices_equal_dd_on_a_constructor_copy(N, r, f, alpha):
    """The orbit slice gives DD's value, witness pair and vertex count, and
    its vertices(), expanded from the orbits, and its enumeration's keys,
    den, rays and masks equal DD's on the copy."""
    space = make_space_II(N, r)
    copy = _dd_copy(space)
    spec = SliceSpec(f, alpha)
    piece, dd = make_slice(space, spec), make_slice(copy, spec)
    assert polytope._cuts_by_orbits(piece) and not polytope._cuts_by_orbits(dd)
    got = diameter(piece, space)
    assert got == diameter(dd, copy)
    assert piece._vcache is None and unit_ball(space)._vcache is None
    assert vertices(piece) == vertices(dd)
    mine, cold = _enumeration(piece), _enumeration(dd)
    assert (mine.keys, mine.den) == (cold.keys, cold.den)
    assert Counter(zip(mine.rays, mine.masks)) == Counter(zip(cold.rays, cold.masks))
    assert got.vertex_count == len(cold.keys)


def _cut_of(space, f, level):
    """The ball cut by f.x >= level, one row after the ball's."""
    return HPolytope(clear_rows([(-Vec(f), -rational(level))]), space.dim, _base=unit_ball(space))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_orbit_cuts_meet_dd_on_faces_and_empty_cuts(N):
    """Cuts that the slices never make: f.x >= s keeps the face where f
    attains s, whose vertices all lie on the cut; f.x >= s + 1 keeps
    nothing.  The orbit cut keeps the same face vertices as DD's step, and
    raises DegenerateError exactly where DD does."""
    space = make_space_II(N, "1/4")
    copy = _dd_copy(space)
    for f in (Vec.unit(N + 1, N), Vec.unit(N + 1, 0), Vec([1] * N + [0]), Vec([1] * (N + 1))):
        s = support_value(space, f)
        for level in (s, s + 1):
            outcomes = []
            for sp in (space, copy):
                try:
                    outcomes.append((diameter(_cut_of(sp, f, level), sp),
                                     vertices(_cut_of(sp, f, level))))
                except DegenerateError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
    # The face beta = 1/(1+r) has the 2^N vertices of level B with beta > 0.
    face = _cut_of(space, Vec.unit(N + 1, N), Scalar(4, 5))
    if N >= 2:
        assert len(vertices(face).vertices) == 2 ** N
