"""Bounded-polytope machinery in exact rational arithmetic.

H-representation to V-representation conversion is the double-description
(DD) method (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon
1996) run on integers.  Every halfspace a.x <= b is scaled to an integer row
c.x <= b once, by linprog.clear_rows, and kept in the polytope as
_int_rows; the same rows feed the integer membership test and every LP over
the polytope.  The polytope is homogenized to the cone

    {(x, t) : c.x <= b.t for every row, t >= 0}.

DD starts from t >= 0 and the first dim rows independent of it; the columns
of minus that basis's inverse, cleared fraction-free to gcd-reduced integers,
are the extreme rays of their simplicial cone.  The other rows are then cut
in one at a time, in their given order.  A cut keeps the rays on its
feasible side and joins each violating ray p with each feasible ray q that
is adjacent to it into v_p r_q - v_q r_p (v = the row's value on the ray),
divided by its gcd.  Adjacency is decided on zero-set bitmasks (bit 0 for
t >= 0, bit i + 1 for row i): the zero sets of p and q share at least
dim - 1 rows and no third ray's zero set contains that intersection.  The
extreme rays with t > 0 are the vertices, each as the canonical key (p, t),
integer numerators over a denominator t > 0 with gcd(p..., t) = 1.

The enumeration stays in integers.  The polytope caches its vertices as
sorted integer numerators over one common denominator den (the vertex keys),
next to the final rays and zero sets; the duplicate check runs on those
keys.  The VPolytope of rationals is built only when vertices() is called
on that polytope, once.

A family II or VII ball skips DD: its vertices are the sign patterns of a
few levels that spaces.unit_ball hands it, and _orbit expands them and reads
each zero set off the integer rows.

A slice, HPolytope(cut_row, dim, _base=ball), is its ball's rows and one
cut c.x <= b, and is cut from the ball's vertices along the ball's edges
(_orbit_cut, after Bremner, Dutour Sikirić and Schürmann 2009): feasible
vertices are kept and violating ones joined to their feasible neighbours.
A family ball carries each level's neighbours (_edges) in closed form, and
the cut is fixed by the sign flips of the coordinates where c is 0, as the
ball is, so the slice is kept as one vertex per orbit under those flips.
slices.diameter and the prop3 estimates read the orbits; the full vertex
list is expanded from them only when a caller asks for it.  A slice of any
other ball is one DD step (_cut) on the ball's rays, each vertex its own
orbit.

Emptiness and unboundedness are read off the rays exactly, without LPs: no
ray with t > 0 means empty, a ray with t = 0 a recession direction.  When
the normals have rank below dim the cone is not pointed and a nonempty
polytope holds a line; emptiness is then decided by DD on a column basis of
the normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, product
from math import lcm
from operator import not_
from typing import NamedTuple

from . import linprog
from .linprog import ClearedRows, clear_rows
from .numeric import (ONE, ZERO, Scalar, Vec, _echelon, _reduced, _row_values, clear_denominators,
                      rational)

__all__ = [
    "UnboundedError",
    "DegenerateError",
    "HalfSpace",
    "HPolytope",
    "VPolytope",
    "vertices",
    "extreme_points",
    "contains",
    "support",
    "lp_feasible",
]


class UnboundedError(Exception):
    """The halfspace intersection has an unbounded direction."""


class DegenerateError(Exception):
    """The halfspace intersection is empty or has empty interior."""


@dataclass(frozen=True)
class HalfSpace:
    """One constraint a.x <= b."""

    a: Vec
    b: object

    def __post_init__(self):
        object.__setattr__(self, "a", self.a if isinstance(self.a, Vec) else Vec(self.a))
        object.__setattr__(self, "b", rational(self.b))
        if self.a.is_zero():
            raise ValueError("halfspace normal must be nonzero")


class HPolytope:
    """Halfspace-list polytope {x : a.x <= b for every listed halfspace}.

    The polytope keeps only its integer rows (_int_rows, see
    linprog.clear_rows): rational halfspaces are checked and cleared once
    when it is built, and ClearedRows are taken as given.  halfspaces
    rebuilds the rows as HalfSpaces c.x <= b.  The vertex enumeration (an
    _Enumeration: vertex keys and final DD rays) is cached on first use,
    and the VPolytope of rationals when vertices() first asks for it.
    HPolytope(rows, dim, _base=base) is base cut by its one row: its rows
    are base's followed by that row, and its _Orbits (see _orbit_cut) are
    cached as _ocache.  _levels, the vertex levels of a sign-symmetric ball
    (see _orbit), replace DD, and come with _edges, each level's ball
    neighbours.
    """

    __slots__ = ("dim", "_vcache", "_vpoly", "_base", "_int_rows", "_levels", "_edges",
                 "_ocache")

    def __init__(self, halfspaces, dim, _base=None, _levels=None, _edges=None):
        if isinstance(halfspaces, ClearedRows):
            rows = halfspaces
        else:
            checked = [h if isinstance(h, HalfSpace) else HalfSpace(Vec(h[0]), h[1])
                       for h in halfspaces]
            rows = clear_rows((h.a, h.b) for h in checked)
        if dim < 1:
            raise ValueError("dimension must be positive")
        for row in rows:
            if len(row) != dim + 1:
                raise ValueError("normal of length %d in dimension %d" % (len(row) - 1, dim))
        if _base is not None:
            if len(rows) != 1:
                raise ValueError("a polytope on a base takes exactly one row, not %d" % len(rows))
            rows = ClearedRows(_base._int_rows + rows)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_vcache", None)
        object.__setattr__(self, "_vpoly", None)
        object.__setattr__(self, "_base", _base)
        object.__setattr__(self, "_int_rows", rows)
        object.__setattr__(self, "_levels", _levels)
        object.__setattr__(self, "_edges", _edges)
        object.__setattr__(self, "_ocache", None)

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    def __repr__(self):
        return "HPolytope(dim=%d, m=%d)" % (self.dim, len(self._int_rows))

    @property
    def halfspaces(self):
        """The integer rows as HalfSpaces c.x <= b, in row order."""
        return tuple(HalfSpace(row[:-1], row[-1]) for row in self._int_rows)


@dataclass(frozen=True)
class VPolytope:
    """Vertex-list polytope (the convex hull of the listed points).

    extreme_points() also keeps the integer keys: _int_keys = (keys, den),
    vertices[i] being keys[i] / den.  It is not a field.
    """

    vertices: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(
            v if isinstance(v, Vec) else Vec(v) for v in self.vertices
        ))
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex of length %d in dimension %d" % (len(v), self.dim))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")


class _Enumeration(NamedTuple):
    """A polytope's vertices as keys[i] / den, sorted and distinct, with the
    final rays and zero-set masks that a slice's DD step continues."""

    keys: tuple
    den: int
    rays: list
    masks: list


class _Orbits(NamedTuple):
    """A polytope's vertices up to the sign flips of the coordinates in
    flips, which map it onto itself: one vertex per orbit, the member whose
    flips coordinates are all >= 0, as keys[i] / den (sorted and distinct)
    and as the integer rays (p..., t) they came from.  An orbit whose key
    has k nonzero flips coordinates holds 2^k vertices, and count is their
    sum.  With no flips the keys are the vertex keys."""

    keys: tuple
    den: int
    flips: tuple
    count: int
    rays: list


def _homogenized(ints):
    """The integer row c.x <= b, given as ints = (c..., b), as the cone row
    (c..., -b) . (x, t) <= 0."""
    return ints[:-1] + (-ints[-1],)


def _basis(rows, dim):
    """Rows independent of t >= 0 and of each other, taken greedily in order
    until there are dim of them, and the pivot columns of the normals that
    elimination met on the way.  Fewer than dim rows means the normals have
    rank below dim; the pivot columns are then a column basis of them.  The
    elimination is numeric._echelon, the kernel of rank and nullspace, run
    on the homogenized rows with the row of t >= 0 first."""
    homogenized = chain([(0,) * dim + (-1,)], map(_homogenized, rows))
    found = _echelon(homogenized, dim + 1)[1:]
    return [k - 1 for k, _, _ in found], sorted(pc for _, pc, _ in found)


def _start(rows, picked, dim):
    """Rays and zero-set masks of the simplicial cone of t >= 0 and the picked
    rows.  Its rays are the columns of -B^-1 for the basis matrix B: ray k is
    tight on every basis row but row k.  numeric._echelon on [B | I] leaves,
    for each column j of B, a row d_j (e_j | N_j) with N_j = d_j (B^-1)_j, so
    ray k is -N_j[k] / d_j over j, scaled by lcm |d_j| to integers."""
    n = dim + 1
    basis = [(0,) * dim + (-1,)] + [_homogenized(rows[i]) for i in picked]
    bits = [1] + [2 << i for i in picked]
    aug = [row + tuple(int(k == i) for k in range(n)) for i, row in enumerate(basis)]
    inverse = sorted((pc, row[pc], row[n:]) for _, pc, row in _echelon(aug, n))
    scale = lcm(*(d for _, d, _ in inverse))
    rays = [_reduced([-inv[k] * (scale // d) for _, d, inv in inverse]) for k in range(n)]
    done = sum(bits)
    return rays, [done ^ bit for bit in bits]


def _cut(rays, masks, ints, bit, dim):
    """One double-description step: the extreme rays of the cone (rays,
    masks) cut by c.x <= b.t for the integer row ints = (c..., b), whose
    zero sets take bit.  Rays on the feasible side stay; each adjacent
    pair of a violating ray p and a feasible ray q gives the ray
    v_p r_q - v_q r_p on the new hyperplane.  Adjacency is combinatorial:
    the zero sets of p and q share at least dim - 1 rows, and no third ray's
    zero set contains that intersection."""
    rhs = ints[dim]
    sparse = [(j, c) for j, c in enumerate(ints[:dim]) if c]
    vals = []
    for r in rays:
        v = -rhs * r[dim]
        for j, c in sparse:
            v += c * r[j]
        vals.append(v)
    plus = [k for k, v in enumerate(vals) if v > 0]
    minus = [k for k, v in enumerate(vals) if v < 0]
    new_rays = [r for r, v in zip(rays, vals) if v <= 0]
    new_masks = [z | bit if v == 0 else z for z, v in zip(masks, vals) if v <= 0]
    need = dim - 1
    for p in plus:
        zp, rp, vp = masks[p], rays[p], vals[p]
        for q in minus:
            common = zp & masks[q]
            if common.bit_count() < need:
                continue
            holders = 0
            for z in masks:
                if z & common == common:
                    holders += 1
                    if holders > 2:
                        break
            if holders == 2:
                vq = vals[q]
                new_rays.append(_reduced([vp * y - vq * x for x, y in zip(rp, rays[q])]))
                new_masks.append(common | bit)
    return new_rays, new_masks


def _cone(rows, dim):
    """Extreme rays and zero-set masks of {(x, t) : c.x <= b.t, t >= 0} for
    the integer rows (c..., b): DD from a basis, then every other row in
    order.  None when the normals have rank below dim and the cone is not
    pointed."""
    picked, _ = _basis(rows, dim)
    if len(picked) < dim:
        return None
    rays, masks = _start(rows, picked, dim)
    chosen = set(picked)
    for i, row in enumerate(rows):
        if i not in chosen:
            rays, masks = _cut(rays, masks, row, 2 << i, dim)
    return rays, masks


def _signs(ray, coords):
    """The sign patterns of the integer ray (p..., t) on coords: each nonzero
    p_j there takes both signs, and every other entry keeps its one."""
    return product(*[(c, -c) if c and j in coords else (c,) for j, c in enumerate(ray)])


def _orbit(levels, rows, dim, flips=None):
    """Rays and zero-set masks of a bounded polytope whose vertices are the
    sign patterns of its levels on the coordinates flips (every coordinate
    when None): integer rays (p..., t), one per orbit under flipping the
    sign of one of those coordinates, each with p_j >= 0 there.  Bit i + 1
    of a ray's mask is set when row i = (c..., b) is tight there,
    c.p = b.t, as DD's masks would have it; bit 0 (t >= 0) is never set,
    since t > 0."""
    flips = range(dim) if flips is None else set(flips)
    rays = [v for level in levels for v in _signs(level, flips)]
    n = len(rays)
    masks = [0] * n
    for i, vals in enumerate(_row_values(map(_homogenized, rows), zip(*rays), n)):
        bit = 2 << i
        for k in compress(range(n), map(not_, vals)):
            masks[k] |= bit
    return rays, masks


def _orbit_cut(levels, edges, ints, dim):
    """The vertex orbits of a ball cut by c.x <= b.t, for the integer row
    ints = (c..., b), under the flips of the coordinates where c is 0: the
    set of their rays, with |.| on those coordinates, and the flips.

    The ball's vertices are the sign patterns of its levels, and edges[k]
    lists the ball neighbours of levels[k]'s canonical vertex (p >= 0) up
    to the flips that fix it, those of its zero coordinates.  The
    flips fix the ball and the cut, so one vertex per orbit is walked: each
    level's sign patterns off the flips.  A feasible one (c.v <= b.t) is a
    slice vertex.  A violating one p is joined to each feasible neighbour
    q, its pattern applied to the list and expanded over p's zero
    coordinates where c is not 0, by v_p r_q - v_q r_p over its gcd, v
    being c.x - b.t, as _cut joins them; every edge that the cut crosses
    is a flip of one found this way."""
    rhs = ints[dim]
    cut = [(j, c) for j, c in enumerate(ints[:dim]) if c]
    free = {j for j, _ in cut}
    flips = tuple(j for j in range(dim) if not ints[j])
    found = set()
    for level, near in zip(levels, edges):
        zero = [j for j in free if not level[j]]
        near = [w for q in near for w in _signs(q, zero)]
        for v in _signs(level, free):
            vp = sum(c * v[j] for j, c in cut) - rhs * v[dim]
            if vp <= 0:
                found.add(v)
                continue
            flipped = {j for j in free if v[j] != level[j]}
            for q in near:
                w = [-c if j in flipped else c for j, c in enumerate(q)] if flipped else q
                vq = sum(c * w[j] for j, c in cut) - rhs * w[dim]
                if vq < 0:
                    ray = list(_reduced([vp * y - vq * x for x, y in zip(v, w)]))
                    for j in flips:
                        ray[j] = abs(ray[j])
                    found.add(tuple(ray))
    return found, flips


def _keys(rays, dim, count):
    """(keys, den) of the integer rays (p..., t), all with t > 0, that stand
    for count vertices: p / t as keys[i] / den, den the lcm of the t, sorted
    and checked distinct.  Raises DegenerateError when there are none, or
    when count is below dim + 1."""
    if not rays:
        raise DegenerateError("halfspace system is infeasible")
    if count < dim + 1:
        raise DegenerateError("%d vertices in dimension %d: empty interior" % (count, dim))
    # Over the common denominator den the lexicographic order of the points
    # is that of their integer numerators.
    den = lcm(*(r[dim] for r in rays))
    keys = sorted(tuple(c * (den // r[dim]) for c in r[:dim]) for r in rays)
    if any(a == b for a, b in zip(keys, keys[1:])):
        raise ValueError("duplicate vertices")
    return tuple(keys), den


def _vertex_orbits(poly: HPolytope) -> _Orbits:
    """The polytope's vertex orbits, cached on first use for a ball cut by
    one row: _orbit_cut's for a ball with levels, and for any other ball
    the vertices of one DD step on its rays, with no flips.  For any other
    polytope they are its _enumeration's vertices, with no flips.  Raises
    what vertices() documents."""
    base = poly._base
    if base is None:
        enum = _enumeration(poly)
        return _Orbits(enum.keys, enum.den, (), len(enum.keys), enum.rays)
    if poly._ocache is None:
        dim = poly.dim
        row = poly._int_rows[-1]
        if base._levels:
            rays, flips = _orbit_cut(base._levels, base._edges, row, dim)
            rays = list(rays)
        else:
            _, _, rays, masks = _enumeration(base)
            rays = _cut(rays, masks, row, 2 << len(base._int_rows), dim)[0]
            flips = ()
        count = sum(1 << sum(1 for j in flips if r[j]) for r in rays)
        object.__setattr__(poly, "_ocache", _Orbits(*_keys(rays, dim, count), flips, count, rays))
    return poly._ocache


def _enumeration(poly: HPolytope) -> _Enumeration:
    """The polytope's cached _Enumeration, computed on first use: the sign
    patterns of its vertex orbits (_vertex_orbits) for a ball cut by one
    row, its levels' sign patterns (_orbit), or DD on its rows.
    The vertex keys are sorted, and checked distinct, as integer tuples.
    Raises what vertices() documents."""
    if poly._vcache is not None:
        return poly._vcache
    dim = poly.dim
    rows = poly._int_rows
    if poly._base is not None:
        orbits = _vertex_orbits(poly)
        rays, masks = _orbit(orbits.rays, rows, dim, orbits.flips)
    elif poly._levels:
        rays, masks = _orbit(poly._levels, rows, dim)
    else:
        cone = _cone(rows, dim)
        if cone is None:
            # A nonempty system then holds a line.  It is empty exactly when
            # its restriction to a column basis of the normals is, and that
            # system's cone is pointed.
            pivots = _basis(rows, dim)[1]
            sub = [tuple(ints[j] for j in pivots) + (ints[-1],) for ints in rows]
            if any(r[-1] > 0 for r in _cone(sub, len(pivots))[0]):
                raise UnboundedError("normals span less than dimension %d" % dim)
            raise DegenerateError("halfspace system is infeasible")
        rays, masks = cone
    found = [r for r in rays if r[dim] > 0]
    if found and len(found) < len(rays):
        raise UnboundedError("the polytope has a recession direction")
    enum = _Enumeration(*_keys(found, dim, len(found)), rays, masks)
    object.__setattr__(poly, "_vcache", enum)
    return enum


def vertices(poly: HPolytope) -> VPolytope:
    """Enumerate all vertices of a bounded H-polytope.

    The vertices are the rays with t > 0 of the homogenized cone (see the
    module docstring), kept as integer keys over one denominator in the
    polytope's cache; the VPolytope of rationals is built from those keys on
    the first call, one Fraction per distinct numerator, and every later
    call returns that same object.  Output
    is sorted lexicographically.  Errors, in this order: DegenerateError
    when the system is empty; UnboundedError when it has a recession
    direction (a ray with t = 0, or normals of rank below dim);
    DegenerateError when there are fewer than dim+1 vertices (empty
    interior).  No LP is solved.
    """
    vpoly = poly._vpoly
    if vpoly is None:
        keys, den = _enumeration(poly)[:2]
        values = {c: Scalar(c, den) for c in set(chain.from_iterable(keys))}
        vpoly = _distinct_vpolytope(
            tuple(tuple.__new__(Vec, [values[c] for c in p]) for p in keys), poly.dim)
        object.__setattr__(poly, "_vpoly", vpoly)
    return vpoly


def _distinct_vpolytope(verts, dim):
    """VPolytope(verts, dim) for verts already known to be distinct Vecs of
    length dim, as integer keys show them, so its own checks, which hash
    every coordinate, are skipped."""
    vpoly = object.__new__(VPolytope)
    object.__setattr__(vpoly, "vertices", verts)
    object.__setattr__(vpoly, "dim", dim)
    return vpoly


def contains(poly: HPolytope, x) -> bool:
    """Exact closed membership test, in integers: x is cleared to p / q
    with q > 0, and each integer row c.x <= b holds at x exactly when
    c.p <= b.q."""
    x = x if isinstance(x, Vec) else Vec(x)
    if len(x) != poly.dim:
        raise ValueError("point of length %d in dimension %d" % (len(x), poly.dim))
    p, q = clear_denominators(x)
    return all(sum(c * v for c, v in zip(ints, p)) <= ints[-1] * q for ints in poly._int_rows)


def support(vpoly: VPolytope, f) -> tuple:
    """Max of f over the hull, with the lexicographically smallest attaining
    vertex.  Linear functionals attain their maximum at extreme points, so
    scanning the vertex list is exact."""
    f = f if isinstance(f, Vec) else Vec(f)
    if not vpoly.vertices:
        raise ValueError("support of an empty vertex set")
    best = None
    arg = None
    for v in vpoly.vertices:
        val = f.dot(v)
        if best is None or val > best or (val == best and v < arg):
            best, arg = val, v
    return best, arg


def lp_feasible(constraints, equalities=()) -> tuple:
    """Exact feasibility of {a.x <= b} together with {c.x = d}.

    Returns (True, witness Vec) or (False, None).  The system is homogenized
    so that its LP starts feasible at the origin: maximize t over
    a.x - b.t <= 0, c.x - d.t <= 0, -c.x + d.t <= 0 and t <= 1, with x and t
    free.  A point with t > 0 scales to one with t = 1, so the maximum is 1
    exactly when the system is feasible, and x is then a witness; otherwise
    it is 0.
    """
    constraints = [h if isinstance(h, HalfSpace) else HalfSpace(Vec(h[0]), h[1]) for h in constraints]
    eqs = [(Vec(c), rational(d)) for c, d in equalities]
    dims = {len(h.a) for h in constraints} | {len(c) for c, _ in eqs}
    if len(dims) != 1:
        raise ValueError("constraints of mixed dimensions: %s" % sorted(dims))
    dim = dims.pop()
    rows = [(tuple(h.a) + (-h.b,), ZERO) for h in constraints]
    for c, d in eqs:
        rows += [(tuple(c) + (-d,), ZERO), (tuple(-v for v in c) + (d,), ZERO)]
    rows.append(((ZERO,) * dim + (ONE,), ONE))
    res = linprog.solve_lp((ZERO,) * dim + (ONE,), leq=rows)
    if res.value != ONE:
        return False, None
    return True, Vec(res.point[:dim])


def _in_hull(ints, t):
    """Exact membership of point ints[t] in the hull of the other points, all
    given as integer numerators over one denominator, by an LP that starts
    feasible at the origin.  Point t is a convex combination of the others
    exactly when the barycentric system Mw = c, w >= 0 has a solution, M
    holding the others' coordinates as columns over a row of ones and c
    being t's coordinates and a 1.  Each row is signed so that its c_i >= 0
    and divided by the gcd of its entries, which keeps the pivots' integers
    small; then max 1.Mw subject to Mw <= c and w >= 0 equals 1.c exactly
    when some w attains Mw = c."""
    others = ints[:t] + ints[t + 1:]
    if not others:
        return False
    rows = []
    for coeffs, c in chain(zip(zip(*others), ints[t]), [((1,) * len(others), 1)]):
        sign = -1 if c < 0 else 1
        rows.append(_reduced([sign * v for v in coeffs] + [sign * c]))
    objective = [sum(col) for col in zip(*(r[:-1] for r in rows))]
    res = linprog.solve_lp(objective, leq=ClearedRows(rows), nonneg=True)
    return res.value == sum(r[-1] for r in rows)


def extreme_points(points) -> VPolytope:
    """Keep exactly the points that are not convex combinations of the rest.

    The points are cleared once over one denominator, exact duplicates are
    collapsed on those integer keys, and _extreme_keys does the rest.
    """
    pts = [p if isinstance(p, Vec) else Vec(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValueError("points of mixed dimensions: %s" % sorted(dims))
    dim = dims.pop()
    flat, den = clear_denominators([c for p in pts for c in p])
    first = {}
    for k, p in zip(range(0, len(flat), dim), pts):
        first.setdefault(flat[k:k + dim], p)
    return _extreme_keys(first, den, dim)


def _extreme_keys(first, den, dim) -> VPolytope:
    """extreme_points of a set given as first: distinct integer keys over
    den, each mapped to its point.  The result is in key order, the points'
    own order.

    Tests are independent: removing a non-extreme point never changes the
    hull, so no iteration is needed.  The Gram matrix is taken in integers
    by numeric._row_values, one row per key.  A point p with p.p > p.q for
    every other point q is the unique maximizer of x -> p.x over the set,
    so it is kept without an LP.  Every family II generator passes this
    test; a family VII generator (+-1, +-1/3 e_j) fails it once its weight
    reaches 17/18, as the default weights do from n = 3 on.  A point that
    fails it gets the hull LP of _in_hull on the same keys.

    A symmetric set is tested one orbit at a time, since a symmetry of the
    set maps extreme points to extreme points; the orbit's representative
    is tested and the verdict serves the whole orbit.
      - A set closed under every coordinate sign flip, as every family
        generator set is, has 2^k members in each |p| class, k being the
        number of nonzeros of |p|.  The orbits are those classes, with |p|
        as representative.  Over the orbit of |q| the largest p.q is
        |p|.|q|, and within p's own orbit every other member q has
        p.q < p.p (p != 0).  So p passes exactly when |p|.|p| is the
        unique largest entry of |p|'s row in the Gram matrix of the
        representatives.  (A zero representative has an all-zero row,
        whose largest entry is unique only when it is the set's one point,
        and a lone point is kept either way.)
      - A set closed under negation only is tested one +- pair at a time,
        with the larger key of each pair as representative: p passes
        exactly when p.p > |p.q| for every other representative q.
      - Any other set is tested point by point.
    A representative that fails takes one hull LP for its orbit.
    """
    ints = sorted(first)
    orbits = {}
    for p in ints:
        orbits.setdefault(tuple(map(abs, p)), []).append(p)
    symmetric = all(len(members) == 1 << (dim - rep.count(0)) for rep, members in orbits.items())
    if not symmetric:
        neg = {p: tuple(-c for c in p) for p in ints}
        symmetric = all(q in first for q in neg.values())
        orbits = ({p: (p, neg[p]) for p in ints if p >= neg[p]} if symmetric
                  else {p: (p,) for p in ints})
    reps = list(orbits)
    gram = _row_values(reps, zip(*reps), len(reps))
    kept = set()
    for t, (p, dots) in enumerate(zip(reps, gram)):
        # On a flip-closed set the representatives are >= 0, so abs is idle.
        if symmetric:
            dots = list(map(abs, dots))
        own = dots[t]
        if (own == max(dots) and dots.count(own) == 1) or not _in_hull(ints, ints.index(p)):
            kept.update(orbits[p])
    keep = [p for p in ints if p in kept]
    vpoly = _distinct_vpolytope(tuple(first[k] for k in keep), dim)
    object.__setattr__(vpoly, "_int_keys", (tuple(keep), den))
    return vpoly
