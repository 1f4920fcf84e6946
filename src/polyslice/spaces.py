"""Polyhedral norm spaces: builders, evaluators, and face queries.

A space is a finite symmetric generator set Phi spanning the dual, with
|||x||| = max over Phi of phi.x.  Two concrete families are provided:

* kind "II": dimension N+1 with coordinates x(1..N) then a trailing scalar
  beta; the norm is max(sup-norm of x plus |beta|, (1+r)|beta|), realized by
  the 4N+2 generators {(0,..,0,+-(1+r))} and {xi e_n +- e_beta}.
* kind "VII": dimension N with a distinguished first coordinate and, for each
  n >= 2, the ten generators +-e_n, +-e_1 +- (1/3) e_n, +-w_n e_1 +- (1/2) e_n
  with weights w_n in (5/6, 1].

A space holds its generators as integer rows over one common denominator.
The builders make those rows in closed form, as integers; custom generators
are cleared once.  The norm, the unit ball's rows, the dual vertices and the
certificates of slices all reuse these rows.  The norm keeps one row per
+- pair: the set is symmetric, so the max of |phi.x| over half the rows is
the max of phi.x over all of them, a max of integer dot products evaluated
row by row over a batch of integer points (_norm_ints, through
numeric._row_values); norm is a batch of one.

Both families are unconditional: their generator sets, and so their unit
balls, are closed under flipping the sign of any one coordinate.  The
builders attach the ball's vertex levels (_levels), one canonical integer
ray (p..., t) with p >= 0 per orbit of vertices under those flips, in
closed form.  The unit ball expands them into its vertices instead of
running DD, and support_value reads sup f off them instead of solving an
LP.  make_space_II also attaches each level's ball neighbours (_edges), so
its slices are cut one vertex orbit at a time (see polytope._orbit_cut).
A space built by the constructor has no levels, whatever its label, and
takes DD and the LP.

A space builds its unit ball, the ball's columns, the coordinate bounds
sup |x_j| over the ball and the extreme points of its generator set from
those rows once, on first use, and keeps them: they live as long as the
space, or as a slice built on the ball.  No cache outlives its space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .linprog import OPTIMAL, ClearedRows, solve_lp
from .numeric import (ONE, ZERO, Scalar, Vec, _abs_max, _int_rank, _reduced, _row_values,
                      clear_denominators, exact_int, rational, rational_str)
from .polytope import HPolytope, VPolytope, _extreme_keys

__all__ = [
    "MAX_N",
    "PolyhedralNormSpace",
    "FaceSet",
    "norm",
    "make_space_II",
    "make_space_VII",
    "default_omega",
    "check_omega",
    "reference_product_norm",
    "unit_ball",
    "support_value",
    "dual_ball_vertices",
    "attaining_set",
    "space_to_dict",
    "space_from_dict",
    "save_space",
    "load_space",
]

#: The largest N the builders accept.  At N = 500 make_space_II takes about
#: 0.26 s and 22 MB over the interpreter, make_space_VII about 5.2 s and
#: 100 MB (its rank check grows as N^3); a far larger N would not fit an
#: index.
MAX_N = 500


def _check_N(N, least):
    """ValueError unless least <= N <= MAX_N."""
    if N < least:
        raise ValueError("N must be at least %d" % least)
    if N > MAX_N:
        raise ValueError("N must be at most %d" % MAX_N)


@dataclass(frozen=True)
class PolyhedralNormSpace:
    """Immutable space description: dimension, generators, label, parameters.

    Generators must be symmetric (closed under negation) and span the dual,
    so the induced gauge is a genuine norm and the unit ball is bounded.

    _gen_ints[k] / den is generators[k], over one common denominator
    den > 0.  The builders make those integer rows directly (_from_ints);
    this constructor clears its generators once.  The same checks (_check)
    run on the integer rows either way, and give _int_rows: (rows, den), one
    row per +- pair of generators, the member that comes first in generator
    order.  Negating phi changes neither |phi.x| nor a width
    max phi.v - min phi.v, so these rows serve every norm and width.
    _levels holds the ball's vertex levels, which only the builders attach
    (None otherwise), and _edges their ball neighbours, which only
    make_space_II attaches.  _unit_ball, _ball_columns, _coordinate_bounds and
    _dual_vertices are built from the rows on first use and kept on the
    space.  None of these is a field, so equality, hashing and repr ignore
    them.
    """

    dim: int
    generators: tuple
    label: str
    params: tuple = ()
    _levels = None
    _edges = None

    def __post_init__(self):
        gens = tuple(g if isinstance(g, Vec) else Vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        flat, den = clear_denominators([c for g in gens for c in g])
        ints = []
        k = 0
        for g in gens:
            ints.append(flat[k:k + len(g)])
            k += len(g)
        self._check(ints, den)

    @classmethod
    def _from_ints(cls, dim, ints, den, values, label, params, levels, edges=None):
        """The space of the integer rows ints over den, sorted (over one
        den > 0 that is the rationals' order), with the vertex levels
        levels and their neighbour lists edges; values maps each integer
        entry c to the rational c / den."""
        ints = sorted(ints)
        space = object.__new__(cls)
        gens = tuple(tuple.__new__(Vec, [values[c] for c in row]) for row in ints)
        for name, value in (("dim", dim), ("generators", gens), ("label", label),
                            ("params", params), ("_levels", levels), ("_edges", edges)):
            object.__setattr__(space, name, value)
        space._check(ints, den)
        return space

    def _check(self, ints, den):
        """Check the generators on their integer rows ints over den and keep
        _gen_ints and _int_rows.  The first failing check wins: dimension,
        then each generator's length and zeroness, duplicates, symmetry,
        rank."""
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be positive")
        for row in ints:
            if len(row) != d:
                raise ValueError("generator of length %d in dimension %d" % (len(row), d))
            if not any(row):
                raise ValueError("zero generator")
        cleared_set = set(ints)
        if len(cleared_set) != len(ints):
            raise ValueError("duplicate generators")
        rows = []
        kept = set()
        for g, row in zip(self.generators, ints):
            neg = tuple(-c for c in row)
            if neg not in cleared_set:
                raise ValueError("generator set is not symmetric: missing %r" % (-g,))
            if neg not in kept:
                kept.add(row)
                rows.append(row)
        if _int_rank(rows, d) != d:
            raise ValueError("generators do not span the dual; the gauge is not a norm")
        ints = tuple(ints)
        object.__setattr__(self, "_gen_ints", ints)
        object.__setattr__(self, "_int_rows", (tuple(rows), den))

    @cached_property
    def _unit_ball(self):
        """The unit ball, on the integer row (c..., den) over its gcd for
        each phi = c / den, which is what linprog.clear_rows would give."""
        den = self._int_rows[1]
        rows = ClearedRows(_reduced(row + (den,)) for row in self._gen_ints)
        return HPolytope(rows, self.dim, _levels=self._levels, _edges=self._edges)

    @cached_property
    def _ball_columns(self):
        """The unit ball's integer rows transposed: one tuple per coordinate,
        then the right-hand sides."""
        return tuple(zip(*self._unit_ball._int_rows))

    @cached_property
    def _coordinate_bounds(self):
        """(bounds, den): M_j = sup |x_j| over the unit ball is bounds[j] / den
        for each coordinate j, in integers over one den > 0.  The ball is
        symmetric, so M_j = support_value(self, e_j): on the vertex levels
        (p, t) that is the largest p_j / t, taken here over the lcm of the
        t; a space without levels solves one LP per coordinate."""
        d = self.dim
        if self._levels:
            den = lcm(*(level[-1] for level in self._levels))
            return tuple(max(level[j] * (den // level[-1]) for level in self._levels)
                         for j in range(d)), den
        return clear_denominators([support_value(self, Vec.unit(d, j)) for j in range(d)])

    @cached_property
    def _dual_vertices(self):
        return _extreme_keys(dict(zip(self._gen_ints, self.generators)), self._int_rows[1],
                             self.dim)

    def param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def has_param(self, name):
        return any(key == name for key, _ in self.params)


@dataclass(frozen=True)
class FaceSet:
    """A point together with the extreme dual generators attaining its norm."""

    point: Vec
    attaining: tuple


def _norm_ints(space: PolyhedralNormSpace, cols) -> list:
    """den * |||p||| for each integer point p of a batch, den being
    space._int_rows' own.  The points are given column-wise: cols is the
    list of the space.dim sequences of their coordinates (see
    numeric._row_values).  Each value is the max of |row.p| over the rows."""
    n = len(cols[0])
    return _abs_max(_row_values(space._int_rows[0], cols, n), n)


def norm(space: PolyhedralNormSpace, x) -> Scalar:
    """Evaluate |||x||| = max over generators of phi.x (exact).

    x is cleared to integers p over q > 0 once; the norm is then
    _norm_ints of the batch of one point p, over den * q.
    """
    x = x if isinstance(x, Vec) else Vec(x)
    if len(x) != space.dim:
        raise ValueError("point of length %d in dimension %d" % (len(x), space.dim))
    p, q = clear_denominators(x)
    return Scalar(_norm_ints(space, [(c,) for c in p])[0], space._int_rows[1] * q)


def make_space_II(N: int, r) -> PolyhedralNormSpace:
    """Lifted sup-norm space on R^(N+1), beta coordinate last.

    The 4N+2 generators are (0,..,0,+-(1+r)) and xi e_n +- e_beta for
    n <= N, xi in {+-1}; the induced norm is
    max(||x||_inf + |beta|, (1+r)|beta|).  The integer rows are over
    den = r.denominator.

    The unit ball is {||x||_inf <= 1 - |beta|, |beta| <= 1/(1+r)}: its
    vertices are the sign patterns of (1,..,1, 0) and of
    (r,..,r, 1)/(1+r).  With r = a/b the levels are A = (1,..,1, 0 | 1)
    and B = (a,..,a, b | a+b).  Their ball neighbours, the edges' other
    ends, are: for A, its N flips of one x coordinate when N >= 2 (at
    N = 1 the ball is a hexagon and (-1, 0) is opposite A) and
    (a,..,a, +-b | a+b); for B, its N flips of one x coordinate and A.
    """
    _check_N(N, 1)
    r = rational(r)
    if r <= 0:
        raise ValueError("r must be positive")
    d = N + 1
    den = r.denominator
    top = r.numerator + den
    ints = [(0,) * N + (sign * top,) for sign in (1, -1)]
    for n in range(N):
        for xi in (den, -den):
            for psi in (den, -den):
                row = [0] * d
                row[n] = xi
                row[N] = psi
                ints.append(tuple(row))
    values = {0: ZERO, den: ONE, -den: -ONE, top: 1 + r, -top: -1 - r}
    a = r.numerator
    A, B = (1,) * N + (0, 1), (a,) * N + (den, top)

    def flips(level):
        return [level[:n] + (-level[n],) + level[n + 1:] for n in range(N)]

    edges = ((*(flips(A) if N >= 2 else ()), B, (a,) * N + (-den, top)), (*flips(B), A))
    return PolyhedralNormSpace._from_ints(d, ints, den, values, "II", (("N", N), ("r", r)),
                                          (A, B), edges)


def default_omega(N: int) -> tuple:
    """Default weight rule w_n = 1 - 1/(6n) for n = 2..N: rational, strictly
    inside (5/6, 1], increasing to 1."""
    return tuple(Scalar(6 * n - 1) / (6 * n) for n in range(2, N + 1))


def check_omega(N: int, omega=None) -> tuple:
    """The weights w_2..w_N as Scalars (the default rule when omega is None).

    Raises ValueError unless there are N - 1 of them, each in (5/6, 1].
    """
    if omega is None:
        return default_omega(N)
    omega = tuple(rational(w) for w in omega)
    if len(omega) != N - 1:
        raise ValueError("expected %d weights, got %d" % (N - 1, len(omega)))
    five_sixths = Scalar(5) / 6
    for w in omega:
        if not (five_sixths < w <= 1):
            raise ValueError("weight %s outside (5/6, 1]" % (w,))
    return omega


def make_space_VII(N: int, omega=None) -> PolyhedralNormSpace:
    """Weighted three-family space on R^N (first coordinate distinguished).

    omega supplies the weights w_2..w_N; each must lie in (5/6, 1].  The
    default rule is w_n = 1 - 1/(6n).  The generator count is 10(N-1).  The
    integer rows are over the least common denominator of 1/3, 1/2 and the
    weights.

    The unit ball is {|x_1| <= 1, |x_n| <= m_n(|x_1|) for n >= 2} with
    m_n(u) = min(1, 3(1 - u), 2(1 - w_n u)), concave and piecewise linear.
    Its vertices are the sign patterns of (u, m_2(u), .., m_N(u)) for u = 1
    and for each breakpoint u of some m_n: 1/(2 w_n), and 1/(3 - 2 w_n) when
    w_n < 1 (it is 1 when w_n = 1).  With the weights w_n = W_n / den each
    such u is den / Q for Q in {den} | {2 W_n} | {3 den - 2 W_n}, and the
    level is the integer ray (den, m_2, .., m_N | Q) with
    m_n = min(Q, 3(Q - den), 2(Q - W_n)), over its gcd.
    """
    _check_N(N, 2)
    omega = check_omega(N, omega)
    den = lcm(6, *(w.denominator for w in omega))
    values = {0: ZERO}
    for v in (ONE, ONE / 3, ONE / 2) + omega:
        c = v.numerator * (den // v.denominator)
        values[c] = v
        values[-c] = -v
    weights = [w.numerator * (den // w.denominator) for w in omega]
    ints = []
    for j, w in enumerate(weights, 1):
        for s in (den, -den):
            ints.append(tuple(s if k == j else 0 for k in range(N)))
        for a, b in ((den, den // 3), (w, den // 2)):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    row = [0] * N
                    row[0] = s1 * a
                    row[j] = s2 * b
                    ints.append(tuple(row))
    levels = []
    for q in sorted({den, *(2 * w for w in weights), *(3 * den - 2 * w for w in weights)}):
        levels.append(_reduced((den, *(min(q, 3 * (q - den), 2 * (q - w)) for w in weights), q)))
    return PolyhedralNormSpace._from_ints(N, ints, den, values, "VII",
                                          (("N", N), ("omega", omega)), tuple(levels))


def reference_product_norm(x, split: int) -> Scalar:
    """The 1-sum of the sup norm and a scalar part: max_n |x(n)| + |x(split)|,
    the max running over every coordinate except the split one."""
    x = x if isinstance(x, Vec) else Vec(x)
    if not 0 <= split < len(x):
        raise IndexError("split %d outside dimension %d" % (split, len(x)))
    rest = [abs(c) for i, c in enumerate(x) if i != split]
    return (max(rest) if rest else ZERO) + abs(x[split])


def unit_ball(space: PolyhedralNormSpace) -> HPolytope:
    """H-polytope {x : phi.x <= 1 for every generator phi}.

    Its integer rows are the space's own, so nothing is cleared again.  A
    family space's vertex levels go with the rows, so the ball's vertices
    are their sign patterns and no DD runs (see polytope._orbit).  The ball
    is built once per space and every call returns it, so its vertex
    enumeration is shared by every slice of it.
    """
    return space._unit_ball


def support_value(space: PolyhedralNormSpace, f) -> Scalar:
    """sup of f over the unit ball, exact.

    A family II or VII space carries its ball's vertex levels (p, t), p >= 0,
    whose sign patterns are all the vertices (see the module docstring).
    The best sign pattern of a level matches the signs of f, so sup f is
    the max over the levels of sum |f_i| p_i / t, taken in integers on f's
    cleared numerators.  Any other space solves one exact LP over the
    ball's integer rows.
    """
    f = f if isinstance(f, Vec) else Vec(f)
    if len(f) != space.dim:
        raise ValueError("functional of length %d in dimension %d" % (len(f), space.dim))
    if space._levels:
        ints, q = clear_denominators(f)
        ints = [abs(c) for c in ints]
        return max(Scalar(sum(map(mul, ints, level)), q * level[-1]) for level in space._levels)
    res = solve_lp(f, leq=unit_ball(space)._int_rows)
    if res.status != OPTIMAL:
        raise RuntimeError("support LP did not terminate at an optimum: %s" % res.status)
    return res.value


def dual_ball_vertices(space: PolyhedralNormSpace) -> VPolytope:
    """Extreme points of the generator set (the dual unit ball's vertices).

    extreme_points(space.generators), run once per space on its integer rows
    (see polytope._extreme_keys).  Family II keeps every generator, and so
    does family VII unless a weight is 1; the reduction is always performed,
    so the claim is checked rather than assumed.
    """
    return space._dual_vertices


def attaining_set(space: PolyhedralNormSpace, x) -> FaceSet:
    """Extreme dual generators phi with phi.x = |||x||| (x must be nonzero)."""
    x = x if isinstance(x, Vec) else Vec(x)
    if x.is_zero():
        raise ValueError("attaining set of the zero vector is the whole dual ball")
    value = norm(space, x)
    att = tuple(g for g in dual_ball_vertices(space).vertices if g.dot(x) == value)
    return FaceSet(point=x, attaining=att)


def space_to_dict(space: PolyhedralNormSpace) -> dict:
    data = {"kind": space.label if space.label in ("II", "VII") else "custom"}
    if space.has_param("N"):
        data["N"] = space.param("N")
    if space.has_param("r"):
        data["r"] = rational_str(space.param("r"))
    if space.has_param("omega"):
        data["omega"] = [rational_str(w) for w in space.param("omega")]
    data["generators"] = [[rational_str(c) for c in g] for g in space.generators]
    return data


def space_from_dict(data: dict) -> PolyhedralNormSpace:
    """Inverse of space_to_dict; a missing required key or a non-integer N
    raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("space description must be a JSON object")
    kind = data.get("kind", "custom")

    def need(key):
        if key not in data:
            raise ValueError("a %s space description needs %r" % (kind, key))
        return data[key]

    if kind == "II":
        return make_space_II(exact_int(need("N"), "N"), rational(need("r"), "space file r"))
    if kind == "VII":
        omega = data.get("omega")
        if omega is not None:
            omega = [rational(w, "space file omega entry %d" % i) for i, w in enumerate(omega, 1)]
        return make_space_VII(exact_int(need("N"), "N"), omega)
    if kind != "custom":
        raise ValueError("unknown space kind %r" % (kind,))
    gens = [Vec(g) for g in need("generators")]
    if not gens:
        raise ValueError("custom space needs generators")
    params = []
    if "N" in data:
        params.append(("N", exact_int(data["N"], "N")))
    if "r" in data:
        params.append(("r", rational(data["r"], "space file r")))
    return PolyhedralNormSpace(len(gens[0]), tuple(sorted(gens)), "custom", tuple(params))


def save_space(space: PolyhedralNormSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_space(path) -> PolyhedralNormSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("space file %s nests too deeply to parse" % path) from None
        except json.JSONDecodeError as exc:
            raise ValueError("space file %s is not valid JSON: %s" % (path, exc)) from None
    return space_from_dict(data)
