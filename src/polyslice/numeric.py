"""Exact rational scalars, vectors, and dense linear algebra.

All geometry in this package runs on arbitrary-precision rationals; floating
point appears only in the stochastic sampling oracle.  The scalar type is the
standard library's fractions.Fraction; the hot loops (the simplex tableau,
vertex enumeration, norm evaluation, elimination) run on Python ints over
cleared denominators and build Fractions only at their boundaries.

Rank, nullspace, solve and the start cone of vertex enumeration share one
elimination kernel, _echelon: fraction-free Gauss-Jordan on integer rows.
Norms, diameter widths and the extreme-point Gram matrix evaluate integer
rows against a batch of integer points through one row kernel, _row_values,
which takes the points column by column.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

#: The exact rational scalar type used everywhere.
Scalar = Fraction

#: Fraction is the only scalar backend.  The flag stays because
#: bench/child.py reads it to record the backend of each run.
HAVE_GMPY2 = False

ZERO = Scalar(0)
ONE = Scalar(1)


class SingularError(ValueError):
    """Square system has no unique solution (zero determinant)."""


def rational(value, name=None):
    """Coerce an int, "p/q" string or Fraction to a Scalar.

    Floats are rejected so that inexact values cannot slip in silently, and
    so are booleans, which Fraction would take as 0 and 1.  So are strings
    in exponent notation: Fraction("1e999999999") would compute the power
    of ten before anything could refuse it, and 1e-5000 has a denominator
    too long to print.  A zero denominator ("p/0") raises ValueError like
    any other bad value.  name, when given, says which input the value is
    (say "epsilons entry 2"), and the error message then starts with it.
    """
    if type(value) is Scalar:
        return value
    if isinstance(value, float):
        error = TypeError("refusing to coerce float %r; pass a string or Fraction" % (value,))
    elif isinstance(value, bool):
        error = TypeError("refusing to coerce bool %r; pass an int, string or Fraction" % (value,))
    elif isinstance(value, str) and ("e" in value or "E" in value):
        error = ValueError("%r is not a rational p/q" % (value,))
    else:
        try:
            return Scalar(value)
        except ZeroDivisionError:
            error = ValueError("zero denominator in %r" % (value,))
        except (TypeError, ValueError) as exc:
            error = type(exc)("%r is not a rational p/q" % (value,))
    if name is not None:
        error = type(error)("%s: %s" % (name, error))
    raise error


def exact_int(value, name):
    """value itself when it is a JSON integer; a float, string or bool (which
    Python counts as an int) raises ValueError rather than being truncated."""
    if type(value) is not int:
        raise ValueError("%r must be an integer, got %r" % (name, value))
    return value


def rational_str(value):
    """Serialize a rational exactly, always in "p/q" form.  A Scalar is
    printed from its own numerator and denominator, already in lowest
    terms; any other value is coerced by Scalar(value) first."""
    if type(value) is not Scalar:
        value = Scalar(value)
    return "%d/%d" % (value.numerator, value.denominator)


def clear_denominators(values):
    """Integers n and the least common denominator q > 0 with n_i/q equal to
    values_i.  For a point this is its canonical (p, q) key, since no prime
    can divide q and every n_i at once."""
    dens = [int(c.denominator) for c in values]
    q = lcm(*dens)
    return tuple(int(c.numerator) * (q // d) for c, d in zip(values, dens)), q


def _reduced(values):
    """The integer vector values divided by the gcd of its entries."""
    g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def _row_values(rows, cols, n):
    """For each integer row, the list of its dot products with n integer
    points, the points given column-wise: cols[j] is a sequence holding
    coordinate j of every point, in point order (zip(*points) gives them).

    A row costs one C-level multiply-add map pass over a whole column per
    nonzero coefficient, rather than one interpreter round trip per point.
    Zero coefficients are skipped, so a zero row, or n == 0, gives n zeros."""
    cols = list(cols)
    out = []
    for row in rows:
        acc = None
        for c, col in zip(row, cols):
            if not c:
                continue
            terms = map(mul, col, repeat(c))
            acc = list(terms) if acc is None else list(map(add, acc, terms))
        out.append([0] * n if acc is None else acc)
    return out


def _abs_max(values, n):
    """Per point, the largest |v| over the value lists values (each of
    length n, as _row_values gives them); n zeros when there are none."""
    values = [map(abs, v) for v in values]
    if not values:
        return [0] * n
    return list(map(max, repeat(0, n), *values))


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
        return not any(self)

    def __repr__(self):
        return "Vec(%s)" % (", ".join(str(c) for c in self),)


def _rows(a):
    """The rational rows a as Vecs, and their common width (0 without rows);
    ragged rows raise ValueError."""
    rows = [r if isinstance(r, Vec) else Vec(r) for r in a]
    width = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged rows: %d vs %d" % (len(r), width))
    return rows, width


def _echelon(rows, limit):
    """Fraction-free Gauss-Jordan over integer rows, taken in order (Bareiss
    1968): the list of (k, pc, row) for each row k independent of the rows
    before it, stopping after limit such rows.  Each row is reduced against
    the rows kept so far, and kept, divided by its gcd, when something is
    left of it; pc is its first nonzero column, and that column is then
    eliminated from the rows kept before.  So every kept row is zero on the
    other kept pivot columns, and row / row[pc] is the RREF row of column
    pc: rank, nullspace, solve and the DD start cone all read it."""
    kept = []
    for k, red in enumerate(rows):
        for _, pc, row in kept:
            c = red[pc]
            if c:
                red = tuple(row[pc] * x - c * y for x, y in zip(red, row))
        pc = next((j for j, x in enumerate(red) if x), None)
        if pc is None:
            continue
        red = _reduced(red)
        p = red[pc]
        for i, (ki, pi, row) in enumerate(kept):
            c = row[pc]
            if c:
                kept[i] = (ki, pi, _reduced([p * x - c * y for x, y in zip(row, red)]))
        kept.append((k, pc, red))
        if len(kept) == limit:
            break
    return kept


def _int_rank(rows, width) -> int:
    """Rank of integer rows of the given width, by _echelon."""
    return len(_echelon(rows, width))


def rank(a) -> int:
    """Rank of the rational rows a by fraction-free elimination: each row is
    cleared to integers and the integer rows go through _int_rank."""
    rows, width = _rows(a)
    return _int_rank((clear_denominators(r)[0] for r in rows), width)


def solve_linear_system(a, b: Vec) -> Vec:
    """Solve the square system a.x = b exactly, a given by its rows.

    Raises SingularError when the matrix is not invertible.
    """
    rows, width = _rows(a)
    n = len(rows)
    if n == 0 or width != n:
        raise ValueError("matrix must be square and nonempty, got %d x %d" % (n, width))
    if len(b) != n:
        raise ValueError("rhs length %d does not match dimension %d" % (len(b), n))
    found = _echelon((clear_denominators((*r, rational(c)))[0] for r, c in zip(rows, b)), n)
    pivots = {pc: row for _, pc, row in found if pc < n}
    if len(pivots) < n:
        raise SingularError("matrix of rank %d < %d has no unique solution" % (len(pivots), n))
    return Vec(Scalar(pivots[j][n], pivots[j][j]) for j in range(n))


def nullspace_basis(a) -> list:
    """Exact basis of {x : a.x = 0} for the rational rows a, one vector per
    free column of the RREF, with a 1 in that column.

    Free columns are visited in increasing order, which fixes the basis and
    its order.  Returns an empty list when the rows have full column rank.
    No rows give no width, so rowless input raises ValueError.  Each vector
    is an integer vector of _int_nullspace over its free entry, its last
    nonzero one.
    """
    rows, width = _rows(a)
    if not rows:
        raise ValueError("a rowless matrix has no width")
    basis = []
    for v in _int_nullspace((clear_denominators(r)[0] for r in rows), width):
        lead = next(c for c in reversed(v) if c)
        basis.append(Vec(Scalar(c, lead) for c in v))
    return basis


def _int_nullspace(rows, width) -> list:
    """Integer basis of {x : rows.x = 0} for integer rows: per free column
    of the RREF, in increasing order, the gcd-reduced positive multiple of
    the RREF basis vector with a 1 in that column.  An RREF row is zero
    before its pivot column, so only pivot columns before the free one
    are nonzero besides it, and the free entry, positive, is the vector's
    last nonzero one.  _echelon divides each row by its gcd, so any
    positive scale of the rows gives the same basis."""
    pivots = {pc: row for _, pc, row in _echelon(rows, width)}
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        scale = lcm(*(abs(row[col]) for col, row in pivots.items() if row[free]))
        v = [0] * width
        v[free] = scale
        for col, row in pivots.items():
            v[col] = -row[free] * scale // row[col]
        basis.append(_reduced(v))
    return basis
