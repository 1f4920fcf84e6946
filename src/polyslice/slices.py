"""Slices of unit balls: exact diameters, lower-bound certificates, sampling.

A slice keeps the part of the ball on which a functional f nearly attains its
supremum s: {x in ball : f.x >= s - alpha}.  The closed inequality is used
throughout; the diameter of a convex set equals that of its closure, so every
reported value matches the open-slice quantity.

All geometry is exact.  Floating point appears only in
sample_diameter_lower_bound, a seeded stochastic oracle whose output is a
certified lower bound up to a fixed 1e-9 slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import mul

import numpy as np

from .linprog import ClearedRows, clear_rows, solve_lp
from .numeric import (ONE, Scalar, Vec, ZERO, _int_nullspace, _row_values, clear_denominators,
                      rational, rational_str)
from .polytope import HPolytope, _enumeration, contains, vertices
from .spaces import PolyhedralNormSpace, dual_ball_vertices, norm, support_value, unit_ball

__all__ = [
    "SliceSpec",
    "DiameterResult",
    "LowerBoundCertificate",
    "DimensionTooSmall",
    "make_slice",
    "support_value",
    "diameter",
    "lower_bound_certificate",
    "diameter_profile",
    "sample_diameter_lower_bound",
]


@dataclass(frozen=True)
class SliceSpec:
    """Slicing functional and depth; the slice keeps f.x >= (sup f) - alpha.
    f must be nonzero and alpha positive."""

    f: Vec
    alpha: Scalar

    def __post_init__(self):
        object.__setattr__(self, "f", self.f if isinstance(self.f, Vec) else Vec(self.f))
        object.__setattr__(self, "alpha", rational(self.alpha))
        if self.f.is_zero():
            raise ValueError("slicing functional must be nonzero")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class DiameterResult:
    """Exact diameter with an attaining vertex pair and the slice vertex count."""

    value: Scalar
    witness_pair: tuple
    vertex_count: int


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Re-verifiable witness that a slice has diameter at least 2(1-r).

    x is a slice point, y a unit vector annihilated by g and by every dual
    vertex phi with phi.x > r.  When both membership checks hold, x +- (1-r)y
    lie in the slice and are 2(1-r) apart.
    """

    x: Vec
    y: Vec
    r: Scalar
    bound: Scalar
    checks: tuple
    g: Vec
    alpha: Scalar
    support_value: Scalar
    active: tuple

    @property
    def valid(self) -> bool:
        return self.checks[0] and self.checks[1]

    def to_dict(self):
        return {
            "x": [rational_str(c) for c in self.x],
            "y": [rational_str(c) for c in self.y],
            "r": rational_str(self.r),
            "bound": rational_str(self.bound),
            "checks": [bool(self.checks[0]), bool(self.checks[1])],
            "g": [rational_str(c) for c in self.g],
            "alpha": rational_str(self.alpha),
            "support_value": rational_str(self.support_value),
            "active": [[rational_str(c) for c in phi] for phi in self.active],
        }


class DimensionTooSmall(Exception):
    """Every probe point's active set, together with g, spans the whole dual.

    The lower-bound construction needs a nonzero vector killed by the active
    set and by g; in low ambient dimension no slice point admits one.
    """


def make_slice(space: PolyhedralNormSpace, spec: SliceSpec) -> HPolytope:
    """Ball cut by f.x >= s - alpha, s = sup f over the ball, sharing the
    ball's rows as a base.  The cut row is cleared once; the shared base
    lets vertex enumeration of the slice continue from the ball's final
    rays with one more step instead of starting from scratch.
    """
    if len(spec.f) != space.dim:
        raise ValueError("functional of length %d in dimension %d" % (len(spec.f), space.dim))
    return _slice(space, spec, support_value(space, spec.f))


def _slice(space, spec, s):
    """make_slice for a support value s = sup spec.f already known."""
    cut = clear_rows([(-spec.f, spec.alpha - s)])
    return HPolytope(cut, space.dim, _base=unit_ball(space))


def diameter(poly: HPolytope, space: PolyhedralNormSpace) -> DiameterResult:
    """Exact diameter of poly in the space's norm, with an attaining pair.

    norm(u - v) is convex in (u, v), so the maximum over the polytope is
    attained at a vertex pair.  Decomposing by generator, the diameter equals
    the largest width max phi.v - min phi.v; for each maximizing generator the
    canonical pair (lex-least argmax, lex-least argmin) attains it, and the
    lexicographically least canonical pair is returned.

    The widths are taken in integers, on the vertex keys that enumeration
    caches (see the polytope module docstring): integer numerators over one
    common denominator Q, in the order of the vertex list.  Each phi.v is
    then an integer dot product of phi's integer row (see
    PolyhedralNormSpace._int_rows) over den * Q; numeric._row_values gives
    a row's products with all the vertices at once, from passes over the
    key columns.  The vertex list is sorted and distinct, so the lex-least
    vertex among ties is the first index, and comparing index pairs compares
    vertex pairs.  One row per +- generator pair suffices: -phi has phi's
    width, and its first argmax and first argmin are phi's swapped, so the
    sorted pair is the same.
    """
    if poly.dim != space.dim:
        raise ValueError("polytope of dimension %d in a space of dimension %d"
                         % (poly.dim, space.dim))
    verts = vertices(poly).vertices
    points, q = _enumeration(poly)[:2]
    rows, den = space._int_rows
    best_width = None
    best_pair = None
    for vals in _row_values(rows, zip(*points), len(points)):
        hi = max(vals)
        lo = min(vals)
        width = hi - lo
        pair = tuple(sorted((vals.index(hi), vals.index(lo))))
        if best_width is None or width > best_width or (width == best_width and pair < best_pair):
            best_width = width
            best_pair = pair
    return DiameterResult(value=Scalar(best_width, den * q),
                          witness_pair=(verts[best_pair[0]], verts[best_pair[1]]),
                          vertex_count=len(verts))


def _probe_subsets(weights, target):
    """The coordinate supports S whose bound sum(weights[j] for j in S)
    reaches the integer target, by size and then lexicographically.

    Each size is a depth-first walk over the indices.  With the prefix
    chosen so far summing to acc and need more indices to pick, index i is
    skipped when acc + weights[i] plus the largest need - 1 weights after i
    falls below target, since no support through that prefix and i can
    reach it.  The table of the largest k weights from each index on is
    built once.  Every branch that is entered reaches at least one support,
    so the 2^d supports are never listed, only those that reach target.
    """
    d = len(weights)
    # best[i][k]: the sum of the k largest weights from index i on.
    best = []
    for i in range(d + 1):
        sums = [0]
        for w in sorted(weights[i:], reverse=True):
            sums.append(sums[-1] + w)
        best.append(sums)

    def walk(start, need, acc, prefix):
        if not need:
            yield prefix
            return
        for i in range(start, d - need + 1):
            if acc + weights[i] + best[i + 1][need - 1] >= target:
                yield from walk(i + 1, need - 1, acc + weights[i], prefix + (i,))

    for size in range(d + 1):
        if best[0][size] >= target:
            yield from walk(0, size, 0, ())


def _probe(g, ball_cols, support, dim):
    """(max g.x, its Bland maximizer) over the ball with x_j = 0 off support,
    by the LP over the support's columns alone.  ball_cols holds the ball's
    integer rows transposed, one tuple per coordinate and the right-hand
    sides last, so the restricted rows are the support's columns zipped with
    the right-hand sides.  A restricted row is a positive multiple of the
    rational row it restricts, which changes no pivot (see the linprog
    module docstring), so the rows are not cleared again; the many zero and
    repeated rows a small support leaves are dropped inside solve_lp.  The
    point is the one the full-width LP with the rows x_j <= 0 and -x_j <= 0
    off support gives, padded with zeros, as
    test_probe_value_on_the_support_columns_equals_the_cold_lp checks on
    every support."""
    point = [ZERO] * dim
    if not support:
        return ZERO, Vec(point)
    rows = ClearedRows(zip(*[ball_cols[j] for j in support], ball_cols[-1]))
    res = solve_lp([g[j] for j in support], leq=rows)
    for j, c in zip(support, res.point):
        point[j] = c
    return res.value, Vec(point)


def lower_bound_certificate(space: PolyhedralNormSpace, g, alpha, r) -> LowerBoundCertificate:
    """Search the slice S = {x in ball : g.x >= s - alpha} for a certificate
    point whose active dual set leaves room for a kernel direction.

    For a slice point x let A = {phi in dual vertices : phi.x > r}.  Any unit
    y with A.y = 0 and g.y = 0 gives x +- (1-r)y in S: generators in A see
    phi.x <= 1 unchanged, generators outside A see at most r + (1-r) = 1, and
    g.y = 0 keeps the cut satisfied.  Slice points are probed in order of
    support size (coordinates allowed to be nonzero), because low-support
    points have small active sets; each probe is the exact LP maximizer of g
    over the ball restricted to the support.  If every probe's A together
    with g spans the whole dual, no certificate exists at this dimension and
    DimensionTooSmall is raised.

    A probe's value over support S is at most sum_{j in S} |g_j| M_j, with
    M_j = sup |x_j| over the ball (the space's _coordinate_bounds).  A
    support whose bound is below s - alpha would fail the value test, so
    _probe_subsets walks only the supports that reach it, in integers: the
    bounds' numerators |g_j| M_j over one denominator, against the ceiling
    of s - alpha over it.  Every probe it skips has a value below the
    threshold, so the certificate, or DimensionTooSmall, is the one the walk
    over every support gives.  On a family II space with g_beta = 0 the
    bound equals the probe's value, so every probe solved reaches the
    threshold.

    Each probe is one LP, over the support's columns alone (_probe), which
    gives both the value and the point x that the full LP with x_j = 0 rows
    off the support would give.  The ball's integer rows are transposed
    once per space (_ball_columns), and each probe restricts them by taking
    the support's columns.  s is computed once and serves the slice as
    well.  A and its kernel with g are found on the dual vertices' integer
    keys, so no dual row is cleared here.
    """
    spec = SliceSpec(g, alpha)
    g, alpha = spec.f, spec.alpha
    r = rational(r)
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")
    s = support_value(space, g)
    slice_poly = _slice(space, spec, s)
    threshold = s - alpha
    g_row, gq = clear_denominators(g)
    bounds, bq = space._coordinate_bounds
    weights = [abs(c) * m for c, m in zip(g_row, bounds)]
    ball_cols = space._ball_columns
    dual = dual_ball_vertices(space)
    duals = dual.vertices
    dual_rows, dden = dual._int_keys
    d = space.dim
    one_minus_r = ONE - r
    fallback = None
    for allowed in _probe_subsets(weights, ceil(threshold * gq * bq)):
        value, x = _probe(g, ball_cols, allowed, d)
        if value < threshold:
            continue
        # phi.x > r for phi = c / dden and x = px / qx, in integers.
        px, qx = clear_denominators(x)
        level = r.numerator * dden * qx
        hit = [k for k, c in enumerate(dual_rows) if r.denominator * sum(map(mul, c, px)) > level]
        active = tuple(duals[k] for k in hit)
        for direction in _int_nullspace([dual_rows[k] for k in hit] + [g_row], d):
            y = direction * (ONE / norm(space, direction))
            step = y * one_minus_r
            checks = (contains(slice_poly, x + step), contains(slice_poly, x - step))
            cert = LowerBoundCertificate(
                x=x,
                y=y,
                r=r,
                bound=2 * one_minus_r,
                checks=checks,
                g=g,
                alpha=alpha,
                support_value=s,
                active=active,
            )
            if cert.valid:
                return cert
            if fallback is None:
                fallback = cert
    if fallback is not None:
        return fallback
    raise DimensionTooSmall(
        "no slice point in dimension %d admits a kernel direction for this functional" % d
    )


def diameter_profile(space: PolyhedralNormSpace, f, alphas) -> list:
    """Exact diameters of nested slices along f, one per alpha.

    alphas must be positive, as each SliceSpec checks before any diameter is
    taken, and strictly decreasing; the returned diameters are nonincreasing
    because the slices shrink.
    """
    specs = [SliceSpec(f, a) for a in alphas]
    if not specs:
        raise ValueError("need at least one alpha")
    for prev, cur in zip(specs, specs[1:]):
        if cur.alpha >= prev.alpha:
            raise ValueError("alphas must be strictly decreasing")
    out = []
    previous = None
    for spec in specs:
        result = diameter(make_slice(space, spec), space)
        if previous is not None and result.value > previous:
            raise RuntimeError("slice diameters failed to shrink with alpha")
        previous = result.value
        out.append((spec.alpha, result))
    return out


def sample_diameter_lower_bound(poly: HPolytope, space: PolyhedralNormSpace, trials: int, seed: int) -> Scalar:
    """Stochastic lower bound: max norm of differences of random point pairs.

    Pairs are convex combinations of the polytope's vertices with seeded
    uniform weights, evaluated in floating point.  The result never exceeds
    the exact diameter by more than 1e-9.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    verts = vertices(poly).vertices
    vmat = np.array([[float(c) for c in v] for v in verts], dtype=np.float64)
    gmat = np.array([[float(c) for c in phi] for phi in space.generators], dtype=np.float64)
    rng = np.random.default_rng(seed)
    weights = rng.random((2, trials, len(verts)))
    weights /= weights.sum(axis=2, keepdims=True)
    diffs = weights[0] @ vmat - weights[1] @ vmat
    norms = (diffs @ gmat.T).max(axis=1)
    return Scalar(Fraction(float(norms.max())))
