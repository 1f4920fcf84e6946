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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .linprog import OPTIMAL, ClearedRows, solve_lp
from .numeric import (ONE, Scalar, Vec, ZERO, clear_denominators, nullspace_basis, rational,
                      rational_str)
from .polytope import HalfSpace, HPolytope, _enumeration, contains, vertices
from .spaces import PolyhedralNormSpace, dual_ball_vertices, norm, unit_ball

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
    """Slicing functional and depth; the slice keeps f.x >= (sup f) - alpha."""

    f: Vec
    alpha: Scalar

    def __post_init__(self):
        object.__setattr__(self, "f", self.f if isinstance(self.f, Vec) else Vec(self.f))
        object.__setattr__(self, "alpha", rational(self.alpha))
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


def support_value(space: PolyhedralNormSpace, f) -> Scalar:
    """sup of f over the unit ball, found by exact linear programming."""
    f = f if isinstance(f, Vec) else Vec(f)
    if len(f) != space.dim:
        raise ValueError("functional of length %d in dimension %d" % (len(f), space.dim))
    res = solve_lp(f, leq=unit_ball(space)._int_rows, maximize=True)
    if res.status != OPTIMAL:
        raise RuntimeError("support LP did not terminate at an optimum: %s" % res.status)
    return res.value


def make_slice(space: PolyhedralNormSpace, spec: SliceSpec, s=None) -> HPolytope:
    """Ball cut by f.x >= s - alpha, sharing the ball's rows as a base.

    s is sup f over the ball; a caller that already has it from
    support_value passes it to skip solving the same LP again.  The shared
    base lets vertex enumeration of the slice continue from the ball's
    final rays with one more step instead of starting from scratch.
    """
    if spec.f.is_zero():
        raise ValueError("slicing functional must be nonzero")
    if len(spec.f) != space.dim:
        raise ValueError("functional of length %d in dimension %d" % (len(spec.f), space.dim))
    ball = unit_ball(space)
    if s is None:
        s = support_value(space, spec.f)
    cut = HalfSpace(-spec.f, spec.alpha - s)
    return HPolytope(tuple(ball.halfspaces) + (cut,), space.dim, _base=(ball, len(ball.halfspaces)))


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
    PolyhedralNormSpace._int_rows) over den * Q.  The vertex list is sorted
    and distinct, so the lex-least vertex among ties is the first index, and
    comparing index pairs compares vertex pairs.  One row per +- generator
    pair suffices: -phi has phi's width, and its first argmax and first
    argmin are phi's swapped, so the sorted pair is the same.
    """
    if poly.dim != space.dim:
        raise ValueError("polytope of dimension %d in a space of dimension %d"
                         % (poly.dim, space.dim))
    verts = vertices(poly).vertices
    points, q = _enumeration(poly)[:2]
    rows, den = space._int_rows
    best_width = None
    best_pair = None
    for row in rows:
        vals = [sum(map(mul, row, p)) for p in points]
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


def _probe_subsets(dim):
    for size in range(dim + 1):
        yield from itertools.combinations(range(dim), size)


def _probe(g, ball_rows, support, dim):
    """(max g.x, its Bland maximizer) over the ball with x_j = 0 off support,
    by the LP over the support's columns alone: the ball's rows restricted to
    them, each with its full row's q.  Every right-hand side is positive, so
    there is no phase one.

    The point is the one the full-width LP (the ball's rows plus the x_j = 0
    equality rows off support) returns, padded with zeros.  In that LP's
    phase one, Bland's rule enters x+_j for the first j off support, and its
    x_j = 0 row, with ratio 0, leaves; the pivot is 1, so it zeroes x+-_j in
    every ball row and leaves the support columns, the slacks and the
    right-hand sides as they were.  So phase one ends on the support LP's
    tableau, with x+_j basic at 0 for each j off support, and x+-_j then
    keep reduced cost 0, so they never enter.  Phase two is Bland's rule on
    the same support-column tableau, with the columns and the slack basis in
    the same relative order, and ends at the same point."""
    point = [ZERO] * dim
    if not support:
        return ZERO, Vec(point)
    rows = ClearedRows((tuple(ints[j] for j in support) + (ints[-1],), q) for ints, q in ball_rows)
    res = solve_lp([g[j] for j in support], leq=rows, maximize=True)
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

    Each probe is one LP, over the support's columns alone (_probe), which
    gives both the value and the point x that the full LP with x_j = 0 rows
    off the support would give.  The ball's rows and the dual vertices are
    cleared once per call, and A is found in integers.
    """
    g = g if isinstance(g, Vec) else Vec(g)
    if g.is_zero():
        raise ValueError("slicing functional must be nonzero")
    r = rational(r)
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")
    alpha = rational(alpha)
    spec = SliceSpec(g, alpha)
    s = support_value(space, g)
    slice_poly = make_slice(space, spec, s)
    threshold = s - alpha
    ball_rows = unit_ball(space)._int_rows
    duals = dual_ball_vertices(space).vertices
    d = space.dim
    dflat, dden = clear_denominators([c for phi in duals for c in phi])
    dual_rows = [dflat[k:k + d] for k in range(0, len(dflat), d)]
    one_minus_r = ONE - r
    fallback = None
    for allowed in _probe_subsets(d):
        value, x = _probe(g, ball_rows, allowed, d)
        if value < threshold:
            continue
        # phi.x > r for phi = c / dden and x = px / qx, in integers.
        px, qx = clear_denominators(x)
        level = r.numerator * dden * qx
        active = tuple(phi for phi, c in zip(duals, dual_rows)
                       if r.denominator * sum(map(mul, c, px)) > level)
        for direction in nullspace_basis(active + (g,)):
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

    alphas must be positive and strictly decreasing; the returned diameters
    are nonincreasing because the slices shrink.
    """
    f = f if isinstance(f, Vec) else Vec(f)
    alphas = [rational(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    for a in alphas:
        if a <= 0:
            raise ValueError("alpha must be positive")
    for prev, cur in zip(alphas, alphas[1:]):
        if cur >= prev:
            raise ValueError("alphas must be strictly decreasing")
    out = []
    previous = None
    for a in alphas:
        result = diameter(make_slice(space, SliceSpec(f, a)), space)
        if previous is not None and result.value > previous:
            raise RuntimeError("slice diameters failed to shrink with alpha")
        previous = result.value
        out.append((a, result))
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
