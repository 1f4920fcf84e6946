"""Bounded-polytope machinery in exact rational arithmetic.

H-representation to V-representation conversion enumerates dim-subsets of the
halfspaces, solves each nonsingular subset, and keeps solutions satisfying all
constraints.  The whole pipeline runs on integers: every halfspace is scaled
to integer coefficients once, the subset walk eliminates fraction-free and
shares that work along a prefix tree (dropping rows that become dependent,
which prunes the heavily degenerate generator families of the norm
constructions here), and back-substitution yields each candidate point in one
canonical form, integer numerators p over a common denominator q > 0 with
gcd(p..., q) = 1.  Candidates are deduplicated on (p, q), a point is feasible
when c.p <= b.q for every integer row (c, b), and rationals are built only for
the vertices that are kept.

The norm balls built here are centrally symmetric, since a space's generators
are closed under negation.  The walk pairs each integer row (c, b) with its mirror (-c, b); scaling a row to
integers depends only on its denominators, so a mirror is an exact negation.
When every row has a mirror the polytope equals its negative, and a subset S
solves to p exactly when its mirror subset solves to -p.  An independent S
never holds a row and its mirror, so the walk keeps S only when the least row
of S and mirror(S) together lies in S: exactly one subset of each pair.  Each
solved point is offered together with its negative, and one feasibility test
serves both.  The same walk covers every other polytope, for which that
filter keeps every subset.

Boundedness of a mirror-symmetric system {|c.x| <= b} is decided exactly: it
is empty when some b < 0, and otherwise unbounded when its normals have rank
below dim, which is when the walk finds no nonsingular subset.  Any other
polytope is cross-checked with exact LPs in every coordinate direction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from . import linprog
from .numeric import ONE, ZERO, Scalar, Vec, clear_denominators, rational, rational_str

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
    "hpolytope_to_dict",
    "hpolytope_from_dict",
    "vpolytope_to_dict",
    "vpolytope_from_dict",
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

    The halfspace list and dimension are immutable.  Vertex enumeration is
    cached on first use.  A polytope built by appending rows to a base
    polytope records that base so enumeration can reuse the base's vertices.
    """

    __slots__ = ("halfspaces", "dim", "_vcache", "_base")

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
        if _base is not None:
            base, k = _base
            if base.halfspaces != halfspaces[:k]:
                raise ValueError("base polytope rows must be a prefix of this polytope's rows")
        object.__setattr__(self, "_base", _base)

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

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


def _int_rows(halfspaces):
    """Clear denominators row by row: (a, b) becomes integer (a', b') scaled
    by a positive factor, plus the sparse nonzero pattern for fast dots."""
    rows = []
    for h in halfspaces:
        coeffs, _ = clear_denominators(tuple(h.a) + (h.b,))
        sparse = tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)
        rows.append((coeffs[:-1], coeffs[-1], sparse))
    return rows


def _solve_echelon(chosen, dim):
    """Back-substitute an echelon system of dim integer rows fraction-free.

    Each entry of chosen is (pivot_col, row): row holds integer coefficients
    plus the rhs, is zero before pivot_col, and the pivot columns are
    distinct.  Returns the solution as (p, q), integer numerators over one
    common denominator with q > 0 and gcd(p..., q) = 1, so equal points
    always get equal keys.  Each step divides t and d by their gcd before
    scaling, so by induction gcd(p..., q) stays 1 and no final pass is needed.
    """
    p = [0] * dim
    q = 1
    for pc, row in sorted(chosen, reverse=True):
        t = row[dim] * q
        for j in range(pc + 1, dim):
            c = row[j]
            if c:
                t -= c * p[j]
        d = row[pc]
        g = gcd(t, d)
        t //= g
        d //= g
        if d != 1:
            for j in range(pc + 1, dim):
                p[j] *= d
            q *= d
        p[pc] = t
    if q < 0:
        return tuple(-v for v in p), -q
    return tuple(p), q


def _walk(pending, chosen, need, out):
    """Depth-first walk over independent row subsets.

    pending rows are already reduced against every chosen pivot; dependent
    rows were dropped, so any pending row extends the prefix.  Leaves append
    (chosen, index_set) to out.
    """
    if need == 0:
        out.append(list(chosen))
        return
    limit = len(pending) - need + 1
    for t in range(limit):
        idx, row = pending[t]
        pc = 0
        while row[pc] == 0:
            pc += 1
        chosen.append((pc, row))
        if need == 1:
            out.append(list(chosen))
        else:
            child = []
            piv = row[pc]
            for idx2, row2 in pending[t + 1:]:
                a = row2[pc]
                if a:
                    reduced = tuple(piv * x - a * y for x, y in zip(row2, row))
                    for v in reduced[:-1]:
                        if v:
                            break
                    else:
                        continue
                    child.append((idx2, reduced))
                else:
                    child.append((idx2, row2))
            if len(child) >= need - 1:
                _walk(child, chosen, need - 1, out)
        chosen.pop()


def _candidate_points(seed, int_rows, dim):
    """(p, q) keys of the solutions of every nonsingular dim-subset made of
    the seed row and dim - 1 of the rows.  The rows are reduced against the
    seed's pivot, as the walk reduces them below a chosen row."""
    coeffs, rhs, _ = seed
    row = coeffs + (rhs,)
    pc = next(j for j in range(dim) if row[j])  # a halfspace normal is nonzero
    piv = row[pc]
    pending = []
    for i, (coeffs2, rhs2, _) in enumerate(int_rows):
        row2 = coeffs2 + (rhs2,)
        a = row2[pc]
        if a:
            row2 = tuple(piv * x - a * y for x, y in zip(row2, row))
        if any(row2[:-1]):
            pending.append((i, row2))
    leaves = []
    _walk(pending, [(pc, row)], dim - 1, leaves)
    return [_solve_echelon(leaf, dim) for leaf in leaves]


def _feasible(point, int_rows):
    """Integer membership test of the point (p, q): c.p <= b.q on every row."""
    p, q = point
    for _, rhs, sparse in int_rows:
        acc = 0
        for j, c in sparse:
            acc += c * p[j]
        if acc > rhs * q:
            return False
    return True


def _mirrors(int_rows):
    """mirror[i] is the index of a row (-c, b) paired with row i = (c, b), or
    None when some row has no mirror.  Equal rows are paired in index order,
    so the pairing is an involution without fixed points."""
    slots = {}
    for i, (coeffs, rhs, _) in enumerate(int_rows):
        slots.setdefault((coeffs, rhs), []).append(i)
    mirror = [None] * len(int_rows)
    for (coeffs, rhs), idx in slots.items():
        partner = slots.get((tuple(-c for c in coeffs), rhs))
        if partner is None or len(partner) != len(idx):
            return None
        for i, j in zip(idx, partner):
            mirror[i] = j
    return mirror


def _certify_bounded(poly):
    """LP cross-check: every coordinate direction must attain a finite
    optimum.  Raises UnboundedError or DegenerateError accordingly."""
    rows = [(h.a, h.b) for h in poly.halfspaces]
    for i in range(poly.dim):
        for sign in (1, -1):
            obj = [ZERO] * poly.dim
            obj[i] = Scalar(sign)
            res = linprog.solve_lp(obj, leq=rows)
            if res.status == linprog.INFEASIBLE:
                raise DegenerateError("halfspace system is infeasible")
            if res.status == linprog.UNBOUNDED:
                raise UnboundedError(
                    "unbounded in coordinate direction %s%d" % ("+" if sign > 0 else "-", i)
                )


def vertices(poly: HPolytope) -> VPolytope:
    """Enumerate all vertices of a bounded H-polytope.

    Every dim-subset of halfspaces with nonsingular normal matrix contributes
    its solution point when that point satisfies all constraints; for a
    mirror-symmetric polytope half the subsets are solved and each point
    stands for its negative too.  Output is deduplicated and sorted
    lexicographically.  Raises UnboundedError for an unbounded direction and
    DegenerateError when the polytope has fewer than dim+1 vertices (empty
    interior) or is empty.
    """
    if poly._vcache is not None:
        return poly._vcache
    dim = poly.dim
    int_rows = _int_rows(poly.halfspaces)
    seen = set()
    found = []

    def offer(key, rows):
        if key not in seen:
            seen.add(key)
            if _feasible(key, rows):
                found.append(key)

    if poly._base is not None:
        base, k = poly._base
        extra = int_rows[k:]
        for v in vertices(base).vertices:
            offer(clear_denominators(v), extra)
        for first in range(len(extra)):
            for key in _candidate_points(extra[first], int_rows[:k] + extra[first + 1:], dim):
                offer(key, int_rows)
    else:
        m = len(int_rows)
        mirror = _mirrors(int_rows)
        symmetric = mirror is not None
        if not symmetric:
            _certify_bounded(poly)
            mirror = [m] * m  # no mirror below any row: every subset is kept
        elif any(rhs < 0 for _, rhs, _ in int_rows):
            raise DegenerateError("halfspace system is infeasible")
        # A subset is walked from its least row t and kept when t is also
        # below the mirror of each of its rows.
        for t in range(m):
            if mirror[t] < t:
                continue
            rest = [int_rows[j] for j in range(t + 1, m) if mirror[j] > t]
            for p, q in _candidate_points(int_rows[t], rest, dim):
                if (p, q) not in seen:
                    keys = {(p, q), (tuple(-c for c in p), q)} if symmetric else {(p, q)}
                    seen.update(keys)
                    if _feasible((p, q), int_rows):
                        found.extend(keys)
        if symmetric and not seen:
            raise UnboundedError("normals of a symmetric system span less than dimension %d" % dim)
    pts = sorted(tuple(Scalar(c, q) for c in p) for p, q in found)
    if len(pts) < dim + 1:
        raise DegenerateError(
            "%d vertices in dimension %d: empty interior" % (len(pts), dim)
        )
    result = VPolytope(tuple(Vec(p) for p in pts), dim)
    object.__setattr__(poly, "_vcache", result)
    return result


def contains(poly: HPolytope, x) -> bool:
    """Exact closed membership test."""
    x = x if isinstance(x, Vec) else Vec(x)
    if len(x) != poly.dim:
        raise ValueError("point of length %d in dimension %d" % (len(x), poly.dim))
    return all(h.a.dot(x) <= h.b for h in poly.halfspaces)


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


def _in_hull(point, others):
    """Exact membership of point in conv(others) via an LP over barycentric
    weights (nonnegative, summing to one)."""
    if not others:
        return False
    dim = len(point)
    k = len(others)
    eqs = []
    for i in range(dim):
        eqs.append(([q[i] for q in others], point[i]))
    eqs.append(([ONE] * k, ONE))
    res = linprog.solve_lp([ZERO] * k, eq=eqs, nonneg=True)
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
    keep = []
    for p in uniq:
        others = [q for q in uniq if q != p]
        if not _in_hull(p, others):
            keep.append(p)
    return VPolytope(tuple(keep), dim)


def hpolytope_to_dict(poly: HPolytope) -> dict:
    return {
        "dim": poly.dim,
        "halfspaces": [
            {"a": [rational_str(c) for c in h.a], "b": rational_str(h.b)}
            for h in poly.halfspaces
        ],
    }


def hpolytope_from_dict(data: dict) -> HPolytope:
    return HPolytope(
        [HalfSpace(Vec(h["a"]), rational(h["b"])) for h in data["halfspaces"]],
        int(data["dim"]),
    )


def vpolytope_to_dict(vpoly: VPolytope) -> dict:
    return {
        "dim": vpoly.dim,
        "vertices": [[rational_str(c) for c in v] for v in vpoly.vertices],
    }


def vpolytope_from_dict(data: dict) -> VPolytope:
    return VPolytope(tuple(Vec(v) for v in data["vertices"]), int(data["dim"]))


def to_json(obj) -> str:
    if isinstance(obj, HPolytope):
        return json.dumps(hpolytope_to_dict(obj), sort_keys=True, indent=2) + "\n"
    if isinstance(obj, VPolytope):
        return json.dumps(vpolytope_to_dict(obj), sort_keys=True, indent=2) + "\n"
    raise TypeError("expected HPolytope or VPolytope, got %r" % type(obj).__name__)


def from_json(text: str):
    data = json.loads(text)
    if "halfspaces" in data:
        return hpolytope_from_dict(data)
    if "vertices" in data:
        return vpolytope_from_dict(data)
    raise ValueError("neither halfspaces nor vertices present")
