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
integer numerators over a denominator t > 0 with gcd(p..., t) = 1, and
rationals are built only for those.

The final rays and zero sets stay in the polytope's cache next to its
vertex list, so a polytope that appends rows to a base polytope (a slice of
a norm ball) costs one more DD step per appended row.  Emptiness and
unboundedness are read off the rays exactly, without LPs: no ray with t > 0
means empty, a ray with t = 0 a recession direction.  When the normals have
rank below dim the cone is not pointed and a nonempty polytope holds a line;
emptiness is then decided by DD on a column basis of the normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import linprog
from .linprog import ClearedRows, clear_rows
from .numeric import ZERO, Scalar, Vec, clear_denominators, rational

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

    The halfspace list and dimension are immutable.  The integer rows and
    the vertex enumeration are cached on first use, the latter with the
    final DD rays and zero sets.  A polytope built by appending rows to a
    base polytope records that base, so it clears only its appended rows
    and enumeration continues from the base's rays.
    """

    __slots__ = ("halfspaces", "dim", "_vcache", "_base", "_rows")

    def __init__(self, halfspaces, dim, _base=None):
        halfspaces = tuple(
            h if isinstance(h, HalfSpace) else HalfSpace(Vec(h[0]), h[1]) for h in halfspaces
        )
        if dim < 1:
            raise ValueError("dimension must be positive")
        for h in halfspaces:
            if len(h.a) != dim:
                raise ValueError("normal of length %d in dimension %d" % (len(h.a), dim))
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_vcache", None)
        object.__setattr__(self, "_rows", None)
        if _base is not None:
            base, k = _base
            if base.halfspaces != halfspaces[:k]:
                raise ValueError("base polytope rows must be a prefix of this polytope's rows")
        object.__setattr__(self, "_base", _base)

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    @property
    def _int_rows(self) -> ClearedRows:
        """The halfspaces as ClearedRows (see linprog.clear_rows), cleared on
        first use; a polytope with a base reuses the base's rows."""
        rows = self._rows
        if rows is None:
            if self._base is None:
                rows = clear_rows((h.a, h.b) for h in self.halfspaces)
            else:
                base, k = self._base
                cut = clear_rows((h.a, h.b) for h in self.halfspaces[k:])
                rows = ClearedRows(base._int_rows + cut)
            object.__setattr__(self, "_rows", rows)
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, HPolytope)
            and self.dim == other.dim
            and self.halfspaces == other.halfspaces
        )

    def __hash__(self):
        return hash((self.dim, self.halfspaces))

    def __repr__(self):
        return "HPolytope(dim=%d, m=%d)" % (self.dim, len(self.halfspaces))


@dataclass(frozen=True)
class VPolytope:
    """Vertex-list polytope (the convex hull of the listed points)."""

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


def _homogenized(ints):
    """The integer row c.x <= b, given as ints = (c..., b), as the cone row
    (c..., -b) . (x, t) <= 0."""
    return ints[:-1] + (-ints[-1],)


def _reduced(values):
    """The integer vector values divided by the gcd of its entries."""
    g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def _basis(rows, dim):
    """Rows independent of t >= 0 and of each other, taken greedily in order
    until there are dim of them, and the pivot columns of the normals that
    elimination met on the way.  Fewer than dim rows means the normals have
    rank below dim; the pivot columns are then a column basis of them."""
    echelon = [(dim, (0,) * dim + (-1,))]
    picked = []
    for i, (ints, _) in enumerate(rows):
        red = _homogenized(ints)
        for pc, row in echelon:
            a = red[pc]
            if a:
                red = tuple(row[pc] * x - a * y for x, y in zip(red, row))
        pc = next((j for j, x in enumerate(red) if x), None)
        if pc is not None:
            echelon.append((pc, _reduced(red)))
            picked.append(i)
            if len(picked) == dim:
                break
    return picked, sorted(pc for pc, _ in echelon[1:])


def _start(rows, picked, dim):
    """Rays and zero-set masks of the simplicial cone of t >= 0 and the picked
    rows.  Its rays are the columns of -B^-1 for the basis matrix B: ray k is
    tight on every basis row but row k.  B^-1 is taken by fraction-free
    Gauss-Jordan on [B | I], which leaves D B^-1 = N with D diagonal, so ray
    k is -N[j][k] / D[j] scaled by lcm |D| to integers."""
    n = dim + 1
    basis = [(0,) * dim + (-1,)] + [_homogenized(rows[i][0]) for i in picked]
    bits = [1] + [2 << i for i in picked]
    aug = [row + tuple(int(k == i) for k in range(n)) for i, row in enumerate(basis)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for i in range(n):
            a = aug[i][col]
            if i != col and a:
                aug[i] = _reduced([p * x - a * y for x, y in zip(aug[i], prow)])
    scale = lcm(*(aug[j][j] for j in range(n)))
    rays = [_reduced([-aug[j][n + k] * (scale // aug[j][j]) for j in range(n)]) for k in range(n)]
    done = sum(bits)
    return rays, [done ^ bit for bit in bits]


def _cut(rays, masks, row, bit, dim):
    """One double-description step: the extreme rays of the cone (rays,
    masks) cut by c.x <= b.t for the integer row (ints, q), ints = (c..., b),
    whose zero sets take bit.  Rays on the feasible side stay; each adjacent
    pair of a violating ray p and a feasible ray q gives the ray
    v_p r_q - v_q r_p on the new hyperplane.  Adjacency is combinatorial:
    the zero sets of p and q share at least dim - 1 rows, and no third ray's
    zero set contains that intersection."""
    ints = row[0]
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
    the integer rows (ints, q), ints = (c..., b): DD from a basis, then every
    other row in order.  None when the normals have rank below dim and the
    cone is not pointed."""
    picked, _ = _basis(rows, dim)
    if len(picked) < dim:
        return None
    rays, masks = _start(rows, picked, dim)
    chosen = set(picked)
    for i, row in enumerate(rows):
        if i not in chosen:
            rays, masks = _cut(rays, masks, row, 2 << i, dim)
    return rays, masks


def vertices(poly: HPolytope) -> VPolytope:
    """Enumerate all vertices of a bounded H-polytope.

    The vertices are the rays with t > 0 of the homogenized cone (see the
    module docstring), each as (p, t) over one denominator.  Output is
    sorted lexicographically.  Errors, in this order: DegenerateError when
    the system is empty; UnboundedError when it has a recession direction
    (a ray with t = 0, or normals of rank below dim); DegenerateError when
    there are fewer than dim+1 vertices (empty interior).  No LP is solved.
    """
    if poly._vcache is not None:
        return poly._vcache[0]
    dim = poly.dim
    rows = poly._int_rows
    if poly._base is not None:
        base, k = poly._base
        vertices(base)
        _, rays, masks = base._vcache
        for i in range(k, len(rows)):
            rays, masks = _cut(rays, masks, rows[i], 2 << i, dim)
    else:
        cone = _cone(rows, dim)
        if cone is None:
            # A nonempty system then holds a line.  It is empty exactly when
            # its restriction to a column basis of the normals is, and that
            # system's cone is pointed.
            pivots = _basis(rows, dim)[1]
            sub = [(tuple(ints[j] for j in pivots) + (ints[-1],), q) for ints, q in rows]
            if any(r[-1] > 0 for r in _cone(sub, len(pivots))[0]):
                raise UnboundedError("normals span less than dimension %d" % dim)
            raise DegenerateError("halfspace system is infeasible")
        rays, masks = cone
    found = [(r[:dim], r[dim]) for r in rays if r[dim] > 0]
    if not found:
        raise DegenerateError("halfspace system is infeasible")
    if len(found) < len(rays):
        raise UnboundedError("the polytope has a recession direction")
    if len(found) < dim + 1:
        raise DegenerateError(
            "%d vertices in dimension %d: empty interior" % (len(found), dim)
        )
    # Over the common denominator den the lexicographic order of the points
    # is that of their integer numerators.
    den = lcm(*(q for _, q in found))
    found.sort(key=lambda key: [c * (den // key[1]) for c in key[0]])
    result = VPolytope(tuple(Vec(Scalar(c, q) for c in p) for p, q in found), dim)
    object.__setattr__(poly, "_vcache", (result, rays, masks))
    return result


def contains(poly: HPolytope, x) -> bool:
    """Exact closed membership test, in integers: x is cleared to p / q
    with q > 0, and each integer row c.x <= b holds at x exactly when
    c.p <= b.q."""
    x = x if isinstance(x, Vec) else Vec(x)
    if len(x) != poly.dim:
        raise ValueError("point of length %d in dimension %d" % (len(x), poly.dim))
    p, q = clear_denominators(x)
    return all(sum(c * v for c, v in zip(ints, p)) <= ints[-1] * q for ints, _ in poly._int_rows)


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

    Returns (True, witness Vec) or (False, None).
    """
    constraints = [h if isinstance(h, HalfSpace) else HalfSpace(Vec(h[0]), h[1]) for h in constraints]
    eqs = [(Vec(c), rational(d)) for c, d in equalities]
    dims = {len(h.a) for h in constraints} | {len(c) for c, _ in eqs}
    if len(dims) != 1:
        raise ValueError("constraints of mixed dimensions: %s" % sorted(dims))
    dim = dims.pop()
    res = linprog.solve_lp(
        [ZERO] * dim,
        leq=[(h.a, h.b) for h in constraints],
        eq=eqs,
    )
    if res.status == linprog.INFEASIBLE:
        return False, None
    return True, Vec(res.point)


def _in_hull(coords, t):
    """Exact membership of point t in the hull of the other points, via an LP
    over barycentric weights (nonnegative, summing to one).  coords[i] is
    coordinate i of every point, cleared once (ints, q); the test takes it
    without column t and with column t's entry as the right-hand side (see
    the linprog module docstring for why that is a cold solve's row)."""
    k = len(coords[0][0]) - 1
    if not k:
        return False
    eqs = [(ints[:t] + ints[t + 1:] + (ints[t],), q) for ints, q in coords]
    eqs.append(((1,) * (k + 1), 1))
    res = linprog.solve_lp([ZERO] * k, eq=ClearedRows(eqs), nonneg=True)
    return res.status != linprog.INFEASIBLE


def extreme_points(points) -> VPolytope:
    """Keep exactly the points that are not convex combinations of the rest.

    Exact duplicates are collapsed first.  Tests are independent: removing a
    non-extreme point never changes the hull, so no iteration is needed.
    """
    pts = [p if isinstance(p, Vec) else Vec(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValueError("points of mixed dimensions: %s" % sorted(dims))
    dim = dims.pop()
    uniq = sorted(set(pts))
    coords = [clear_denominators([p[i] for p in uniq]) for i in range(dim)]
    keep = tuple(p for t, p in enumerate(uniq) if not _in_hull(coords, t))
    return VPolytope(keep, dim)
