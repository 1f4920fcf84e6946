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
from itertools import chain
from math import ceil
from operator import mul

import numpy as np

from .linprog import ClearedRows, clear_rows, solve_lp
from .numeric import (ONE, Scalar, Vec, ZERO, _int_nullspace, _row_values, clear_denominators,
                      rational, rational_str)
from .polytope import HPolytope, _vertex_orbits, vertices
from .spaces import PolyhedralNormSpace, _norm_ints, dual_ball_vertices, support_value, unit_ball

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
    ball's rows as a base.  The cut row is cleared once, and the slice's
    vertices are cut from the ball's (polytope._vertex_orbits).
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

    The widths are taken in integers, on the vertex orbits that
    polytope._vertex_orbits gives: integer keys k over one common
    denominator Q, one per orbit under the sign flips of the coordinates
    in G = flips, with k_j >= 0 on G (every vertex is its own orbit when G
    is empty, as it is for a slice of a ball with no levels).  Over k's orbit
    the largest phi.v is M(phi, k) = sum_{j in G} |phi_j| k_j +
    sum_{j not in G} phi_j k_j and the smallest is -M(-phi, k), so each
    row's width is read off two rows of integers, phi with |phi_j| and with
    -|phi_j| on G, over den * Q; numeric._row_values gives a row's products
    with all the keys at once, from passes over the key columns.  One row
    per +- generator pair suffices: -phi has phi's width, and its lex-least
    argmax and argmin are phi's swapped, so the sorted pair is the same.

    Within an orbit the lex-least maximizer of phi takes the sign of phi_j
    where phi_j k_j != 0 and the negative sign where phi_j = 0, and the
    lex-least maximizer over the slice is the least of these over the keys
    that reach the maximum (_witness), taken for the widest rows only.
    Only the two witness vertices are built as Vecs; vertex_count sums
    2^(nonzero G coordinates) over the keys (_Orbits.count).
    """
    if poly.dim != space.dim:
        raise ValueError("polytope of dimension %d in a space of dimension %d"
                         % (poly.dim, space.dim))
    keys, q, flips, count = _vertex_orbits(poly)[:4]
    rows, den = space._int_rows
    n = len(keys)
    cols = list(zip(*keys))
    if flips:
        on = set(flips)
        his = _row_values([tuple(abs(c) if j in on else c for j, c in enumerate(row))
                           for row in rows], cols, n)
        los = _row_values([tuple(-abs(c) if j in on else c for j, c in enumerate(row))
                           for row in rows], cols, n)
    else:
        his = los = _row_values(rows, cols, n)
    ends = [(max(hs), min(ls)) for hs, ls in zip(his, los)]
    best_width = max(hi - lo for hi, lo in ends)
    best_pair = min(tuple(sorted((_witness(keys, hs, hi, row, flips, 1),
                                  _witness(keys, ls, lo, row, flips, -1))))
                    for row, hs, ls, (hi, lo) in zip(rows, his, los, ends) if hi - lo == best_width)
    values = {c: Scalar(c, q) for c in set(chain(*best_pair))}
    return DiameterResult(value=Scalar(best_width, den * q),
                          witness_pair=tuple(tuple.__new__(Vec, [values[c] for c in p])
                                             for p in best_pair),
                          vertex_count=count)


def _witness(keys, vals, target, row, flips, sign):
    """The lex-least vertex v at which sign * row.v is largest, as integer
    numerators, given vals[i], that largest value over the orbit of
    keys[i], and target, the largest of them over the keys.  In an orbit
    the sign of a flips coordinate j is forced to that of sign * row[j]
    where row[j] != 0 (where k_j = 0 either sign is 0) and is free where
    row[j] = 0, where the negative one is lex-least.  With no flips the
    keys are sorted vertices, so the first one that reaches target is it."""
    if not flips:
        return keys[vals.index(target)]
    best = None
    for k, v in zip(keys, vals):
        if v == target:
            p = list(k)
            for j in flips:
                if sign * row[j] <= 0:
                    p[j] = -p[j]
            p = tuple(p)
            if best is None or p < best:
                best = p
    return best


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


def _pair_checks(space, cut, px, qx, d, n, r):
    """Whether x + (1-r)y and x - (1-r)y each lie in the slice of the
    space's unit ball by the integer row cut = (c..., b), c.z <= b: x is
    px / qx and y is d den / n, with px and d integer vectors, qx, n > 0
    and den the space's row denominator.  With r = rn / rd,

        x +- (1-r)y = (n rd px +- (rd - rn) den qx d) / (qx n rd),

    so every row (c..., b), the ball's and the cut, is one integer dot
    product c.Z <= b qx n rd."""
    rn, rd = r.numerator, r.denominator
    xs = n * rd
    ys = (rd - rn) * space._int_rows[1] * qx
    q = qx * xs
    rows = unit_ball(space)._int_rows + (cut,)
    checks = []
    for step in (ys, -ys):
        z = [xs * a + step * b for a, b in zip(px, d)]
        checks.append(all(sum(map(mul, row, z)) <= row[-1] * q for row in rows))
    return tuple(checks)


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
    the support's columns.  s is computed once.

    From the probe on the search runs in integers.  x is taken as its
    numerators px over qx; A is read off the dual vertices' integer keys,
    and its kernel with g comes from numeric._int_nullspace as integer
    vectors d.  With n = den |||d||| from spaces._norm_ints (den being the
    space's row denominator), y = d den / n, and _pair_checks tests
    x +- (1-r)y on integer dot products against the ball's integer rows and
    the cut g.z >= s - alpha, made once per call an integer row of
    -g.z <= alpha - s from g's cleared numerators.  No slice polytope is
    built and no point is cleared but g and x: Fractions are made only for
    the certificate's own fields.
    """
    spec = SliceSpec(g, alpha)
    g, alpha = spec.f, spec.alpha
    r = rational(r)
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")
    s = support_value(space, g)
    threshold = s - alpha
    g_row, gq = clear_denominators(g)
    tp, tq = threshold.numerator, threshold.denominator
    cut = (*(-c * tq for c in g_row), -tp * gq)
    den = space._int_rows[1]
    bounds, bq = space._coordinate_bounds
    weights = [abs(c) * m for c, m in zip(g_row, bounds)]
    ball_cols = space._ball_columns
    dual = dual_ball_vertices(space)
    duals = dual.vertices
    dual_rows, dden = dual._int_keys
    d = space.dim
    bound = 2 * (ONE - r)
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
            n = _norm_ints(space, [(c,) for c in direction])[0]
            cert = LowerBoundCertificate(
                x=x,
                y=tuple.__new__(Vec, [Scalar(c * den, n) for c in direction]),
                r=r,
                bound=bound,
                checks=_pair_checks(space, cut, px, qx, direction, n, r),
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
