"""Exact rational scalars, vectors, and dense linear algebra.

All geometry in this package runs on arbitrary-precision rationals; floating
point appears only in the stochastic sampling oracle.  The scalar type is the
standard library's fractions.Fraction; the hot loops (the simplex tableau,
vertex enumeration, norm evaluation) run on Python ints over cleared
denominators and build Fractions only at their boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

#: The exact rational scalar type used everywhere.
Scalar = Fraction

#: Fraction is the only scalar backend.  The flag stays because
#: bench/child.py reads it to record the backend of each run.
HAVE_GMPY2 = False

ZERO = Scalar(0)
ONE = Scalar(1)


class SingularError(ValueError):
    """Square system has no unique solution (zero determinant)."""


def rational(value):
    """Coerce an int, "p/q" string or Fraction to a Scalar.

    Floats are rejected so that inexact values cannot slip in silently, and
    a zero denominator ("p/0") raises ValueError like any other bad value.
    """
    if type(value) is Scalar:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float %r; pass a string or Fraction" % (value,))
    try:
        return Scalar(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None


def exact_int(value, name):
    """value itself when it is a JSON integer; a float, string or bool (which
    Python counts as an int) raises ValueError rather than being truncated."""
    if type(value) is not int:
        raise ValueError("%r must be an integer, got %r" % (name, value))
    return value


def rational_str(value):
    """Serialize a rational exactly, always in "p/q" form."""
    q = Scalar(value)
    return "%s/%s" % (q.numerator, q.denominator)


def clear_denominators(values):
    """Integers n and the least common denominator q > 0 with n_i/q equal to
    values_i.  For a point this is its canonical (p, q) key, since no prime
    can divide q and every n_i at once."""
    dens = [int(c.denominator) for c in values]
    q = lcm(*dens)
    return tuple(int(c.numerator) * (q // d) for c, d in zip(values, dens)), q


class Vec(tuple):
    """Immutable fixed-length vector of exact rationals.

    Supports +, -, unary -, scalar *, and dot().  Mixing lengths is an error.
    Note that + and * shadow tuple concatenation and repetition on purpose.
    """

    def __new__(cls, coords):
        return tuple.__new__(cls, (rational(c) for c in coords))

    @classmethod
    def zero(cls, dim):
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim, index):
        if not 0 <= index < dim:
            raise IndexError("unit index %d outside dimension %d" % (index, dim))
        coords = [ZERO] * dim
        coords[index] = ONE
        return tuple.__new__(cls, coords)

    def _require_same_length(self, other):
        if len(self) != len(other):
            raise ValueError("dimension mismatch: %d vs %d" % (len(self), len(other)))

    def __add__(self, other):
        self._require_same_length(other)
        return tuple.__new__(Vec, (a + b for a, b in zip(self, other)))

    def __sub__(self, other):
        self._require_same_length(other)
        return tuple.__new__(Vec, (a - b for a, b in zip(self, other)))

    def __neg__(self):
        return tuple.__new__(Vec, (-a for a in self))

    def __mul__(self, k):
        k = rational(k)
        return tuple.__new__(Vec, (a * k for a in self))

    __rmul__ = __mul__

    def dot(self, other):
        self._require_same_length(other)
        return sum((a * b for a, b in zip(self, other)), ZERO)

    def is_zero(self):
        return all(c == 0 for c in self)

    def __repr__(self):
        return "Vec(%s)" % (", ".join(str(c) for c in self),)


class Matrix:
    """Immutable rectangular matrix of exact rationals (a tuple of Vec rows)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(r if isinstance(r, Vec) else Vec(r) for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows: %d vs %d" % (len(r), width))
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def _rref(rows, width):
    """Reduced row echelon form in place; returns the pivot column list.

    Pivot choice is the first row with a nonzero entry in the current column,
    scanning columns left to right, so the result is deterministic.
    """
    pivots = []
    rank = 0
    nrows = len(rows)
    for col in range(width):
        piv = None
        for k in range(rank, nrows):
            if rows[k][col] != 0:
                piv = k
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ONE / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        prow = rows[rank]
        for k in range(nrows):
            if k != rank and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], prow)]
        pivots.append(col)
        rank += 1
    return pivots


def rank(a: Matrix) -> int:
    rows = [list(r) for r in a.rows]
    return len(_rref(rows, a.ncols))


def solve_linear_system(a: Matrix, b: Vec) -> Vec:
    """Solve the square system a.x = b exactly.

    Raises SingularError when the matrix is not invertible.
    """
    n = a.nrows
    if n == 0 or a.ncols != n:
        raise ValueError("matrix must be square and nonempty, got %d x %d" % (a.nrows, a.ncols))
    if len(b) != n:
        raise ValueError("rhs length %d does not match dimension %d" % (len(b), n))
    rows = [list(r) + [b[i]] for i, r in enumerate(a.rows)]
    pivots = _rref(rows, n)
    if len(pivots) < n:
        raise SingularError("matrix of rank %d < %d has no unique solution" % (len(pivots), n))
    return Vec(rows[i][n] for i in range(n))


def nullspace_basis(a: Matrix, dim=None) -> list:
    """Exact basis of {x : a.x = 0}, one vector per free column of the RREF.

    Free columns are visited in increasing order, which fixes the basis and
    its order.  Returns an empty list when the matrix has full column rank.
    A rowless matrix carries no width, so dim is required in that case and
    the basis is the standard one.
    """
    if a.nrows == 0:
        if dim is None:
            raise ValueError("a rowless matrix needs an explicit dim")
        return [Vec.unit(dim, i) for i in range(dim)]
    if dim is not None and dim != a.ncols:
        raise ValueError("dim %d does not match matrix width %d" % (dim, a.ncols))
    width = a.ncols
    rows = [list(r) for r in a.rows]
    pivots = _rref(rows, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [ZERO] * width
        v[free] = ONE
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        basis.append(Vec(v))
    return basis
