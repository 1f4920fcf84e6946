"""Polyhedral norm spaces: builders, evaluators, and face queries.

A space is a finite symmetric generator set Phi spanning the dual, with
|||x||| = max over Phi of phi.x.  Two concrete families are provided:

* kind "II": dimension N+1 with coordinates x(1..N) then a trailing scalar
  beta; the norm is max(sup-norm of x plus |beta|, (1+r)|beta|), realized by
  the 4N+2 generators {(0,..,0,+-(1+r))} and {xi e_n +- e_beta}.
* kind "VII": dimension N with a distinguished first coordinate and, for each
  n >= 2, the ten generators +-e_n, +-e_1 +- (1/3) e_n, +-w_n e_1 +- (1/2) e_n
  with weights w_n in (5/6, 1].

A space also keeps one dense integer row per +- pair of generators, over one
common denominator.  The set is symmetric, so the max of |phi.x| over half
the rows is the max of phi.x over all of them, and the norm is a max of
integer dot products with no rational built per generator.  The unit ball of
a space and the extreme points of its generator set are cached per space
value, so repeated queries share one vertex enumeration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .numeric import (ONE, ZERO, Scalar, Vec, _int_rank, clear_denominators, exact_int,
                      rational, rational_str)
from .polytope import HalfSpace, HPolytope, VPolytope, extreme_points

__all__ = [
    "PolyhedralNormSpace",
    "FaceSet",
    "norm",
    "make_space_II",
    "make_space_VII",
    "default_omega",
    "check_omega",
    "reference_product_norm",
    "unit_ball",
    "dual_ball_vertices",
    "attaining_set",
    "space_to_dict",
    "space_from_dict",
    "save_space",
    "load_space",
]


@dataclass(frozen=True)
class PolyhedralNormSpace:
    """Immutable space description: dimension, generators, label, parameters.

    Generators must be symmetric (closed under negation) and span the dual,
    so the induced gauge is a genuine norm and the unit ball is bounded.

    The generators are cleared to integers once, over one common denominator
    den.  The duplicate, symmetry and rank checks run on those integer rows,
    and the same clearing gives _int_rows: (rows, den), one dense integer row
    per +- pair of generators, the pair's member that comes first in
    generator order, as rows[k] / den.  Negating phi changes neither |phi.x|
    nor a width max phi.v - min phi.v, so these rows serve every norm and
    width.  _int_rows is not a field, so equality, hashing and repr ignore
    it.
    """

    dim: int
    generators: tuple
    label: str
    params: tuple = ()

    def __post_init__(self):
        gens = tuple(g if isinstance(g, Vec) else Vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be positive")
        for g in gens:
            if len(g) != d:
                raise ValueError("generator of length %d in dimension %d" % (len(g), d))
            if g.is_zero():
                raise ValueError("zero generator")
        flat, den = clear_denominators([c for g in gens for c in g])
        cleared = [flat[k:k + d] for k in range(0, len(flat), d)]
        cleared_set = set(cleared)
        if len(cleared_set) != len(cleared):
            raise ValueError("duplicate generators")
        rows = []
        kept = set()
        for g, row in zip(gens, cleared):
            neg = tuple(-c for c in row)
            if neg not in cleared_set:
                raise ValueError("generator set is not symmetric: missing %r" % (-g,))
            if neg not in kept:
                kept.add(row)
                rows.append(row)
        if _int_rank(rows, d) != d:
            raise ValueError("generators do not span the dual; the gauge is not a norm")
        object.__setattr__(self, "_int_rows", (tuple(rows), den))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The dataclass hash of the field tuple, computed once rather than
        over every generator coordinate on each cache lookup."""
        return hash((self.dim, self.generators, self.label, self.params))

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


def _norm_int(space: PolyhedralNormSpace, p) -> int:
    """den * |||p||| for the integer point p, den being space._int_rows' own."""
    return max(abs(sum(map(mul, row, p))) for row in space._int_rows[0])


def norm(space: PolyhedralNormSpace, x) -> Scalar:
    """Evaluate |||x||| = max over generators of phi.x (exact).

    x is cleared to integers p over q > 0 once; the norm is then
    _norm_int(space, p) over den * q.
    """
    x = x if isinstance(x, Vec) else Vec(x)
    if len(x) != space.dim:
        raise ValueError("point of length %d in dimension %d" % (len(x), space.dim))
    p, q = clear_denominators(x)
    return Scalar(_norm_int(space, p), space._int_rows[1] * q)


def make_space_II(N: int, r) -> PolyhedralNormSpace:
    """Lifted sup-norm space on R^(N+1), beta coordinate last.

    The 4N+2 generators are (0,..,0,+-(1+r)) and xi e_n +- e_beta for
    n <= N, xi in {+-1}; the induced norm is
    max(||x||_inf + |beta|, (1+r)|beta|).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    r = rational(r)
    if r <= 0:
        raise ValueError("r must be positive")
    d = N + 1
    gens = []
    for sign in (1, -1):
        v = [ZERO] * d
        v[N] = sign * (1 + r)
        gens.append(Vec(v))
    for n in range(N):
        for xi in (1, -1):
            for psi in (1, -1):
                v = [ZERO] * d
                v[n] = Scalar(xi)
                v[N] = Scalar(psi)
                gens.append(Vec(v))
    gens.sort()
    return PolyhedralNormSpace(d, tuple(gens), "II", (("N", N), ("r", r)))


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
    default rule is w_n = 1 - 1/(6n).  The generator count is 10(N-1).
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    omega = check_omega(N, omega)
    third = ONE / 3
    half = ONE / 2
    gens = []
    for idx, n in enumerate(range(2, N + 1)):
        w = omega[idx]
        j = n - 1
        for s in (1, -1):
            v = [ZERO] * N
            v[j] = Scalar(s)
            gens.append(Vec(v))
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [ZERO] * N
                v[0] = Scalar(s1)
                v[j] = s2 * third
                gens.append(Vec(v))
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [ZERO] * N
                v[0] = s1 * w
                v[j] = s2 * half
                gens.append(Vec(v))
    gens.sort()
    return PolyhedralNormSpace(N, tuple(gens), "VII", (("N", N), ("omega", omega)))


def reference_product_norm(x, split: int) -> Scalar:
    """The 1-sum of the sup norm and a scalar part: max_n |x(n)| + |x(split)|,
    the max running over every coordinate except the split one."""
    x = x if isinstance(x, Vec) else Vec(x)
    if not 0 <= split < len(x):
        raise IndexError("split %d outside dimension %d" % (split, len(x)))
    rest = [abs(c) for i, c in enumerate(x) if i != split]
    return (max(rest) if rest else ZERO) + abs(x[split])


_BALL_CACHE: dict = {}
_DUAL_CACHE: dict = {}


def unit_ball(space: PolyhedralNormSpace) -> HPolytope:
    """H-polytope {x : phi.x <= 1 for every generator phi}.

    The same object is returned for equal spaces, so downstream vertex
    enumeration is shared.
    """
    cached = _BALL_CACHE.get(space)
    if cached is None:
        cached = HPolytope([HalfSpace(g, ONE) for g in space.generators], space.dim)
        _BALL_CACHE[space] = cached
    return cached


def dual_ball_vertices(space: PolyhedralNormSpace) -> VPolytope:
    """Extreme points of the generator set (the dual unit ball's vertices).

    For the built-in constructions nothing is dropped; the reduction is still
    performed so the claim is checked rather than assumed.
    """
    cached = _DUAL_CACHE.get(space)
    if cached is None:
        cached = extreme_points(space.generators)
        _DUAL_CACHE[space] = cached
    return cached


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
    return space_from_dict(data)
