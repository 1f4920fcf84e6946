"""The integer row kernel: numeric._row_values and spaces._norm_ints.

Both take a batch of integer points column by column.  Each value must be
the plain per-point dot product, and each norm den times the generator max
of tests/oracles.py, for batches of no point, one point and many.
"""

from fractions import Fraction
from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from polyslice.numeric import Vec, _abs_max, _row_values  # noqa: E402
from polyslice.spaces import (  # noqa: E402
    PolyhedralNormSpace,
    _norm_ints,
    make_space_II,
    make_space_VII,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Mostly small coefficients, so that zeros (which the kernel skips) are
# common; now and then a large one.
coefficients = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))


def batches(dim):
    """0, 1 or up to 40 integer points of length dim."""
    point = st.tuples(*[coefficients] * dim)
    return st.one_of(st.just([]), st.lists(point, min_size=1, max_size=1),
                     st.lists(point, min_size=2, max_size=40))


@st.composite
def rows_and_points(draw):
    dim = draw(st.integers(1, 6))
    row = st.one_of(st.tuples(*[coefficients] * dim), st.just((0,) * dim))
    return draw(st.lists(row, max_size=8)), draw(batches(dim))


@SETTINGS
@given(case=rows_and_points())
def test_row_values_are_the_dot_products_with_every_point(case):
    rows, points = case
    values = _row_values(rows, zip(*points), len(points))
    assert values == [[sum(map(mul, row, p)) for p in points] for row in rows]


@st.composite
def value_lists(draw):
    """n and up to 5 lists of n integers, as _row_values gives them."""
    n = draw(st.integers(0, 12))
    return n, draw(st.lists(st.lists(coefficients, min_size=n, max_size=n), max_size=5))


@SETTINGS
@given(case=value_lists())
@example(case=(3, []))
def test_abs_max_is_the_largest_absolute_value_per_point(case):
    n, values = case
    assert _abs_max(values, n) == [max((abs(v[k]) for v in values), default=0)
                                   for k in range(n)]


FIXED_SPACES = [make_space_II(1, "1/10"), make_space_II(4, "7/3"), make_space_VII(2),
                make_space_VII(4, ["17/18", "1", "9/10"])]


@st.composite
def custom_spaces(draw):
    """A symmetric generator set that spans: +-e_i and +- a few drawn
    rational vectors, some of them coinciding with the e_i."""
    dim = draw(st.integers(1, 4))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    extra = draw(st.lists(st.tuples(*[entry] * dim), max_size=4))
    gens = {tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)}
    gens |= {g for g in extra if any(g)}
    gens |= {tuple(-c for c in g) for g in gens}
    return PolyhedralNormSpace(dim, tuple(sorted(Vec(g) for g in gens)), "custom")


@SETTINGS
@given(data=st.data())
def test_norm_ints_are_den_times_the_generator_norm(data):
    space = data.draw(st.one_of(st.sampled_from(FIXED_SPACES), custom_spaces()))
    points = data.draw(batches(space.dim).filter(bool))
    gens = [tuple(Fraction(c) for c in g) for g in space.generators]
    den = space._int_rows[1]
    expected = [den * oracles.norm_eval(gens, p) for p in points]
    assert _norm_ints(space, list(zip(*points))) == expected
