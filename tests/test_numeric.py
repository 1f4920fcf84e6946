"""Exact scalar, vector, and linear-algebra layer."""

import random
from math import gcd

import pytest

from oracles import _rref
from polyslice.numeric import (
    ONE,
    Scalar,
    SingularError,
    Vec,
    ZERO,
    _int_nullspace,
    clear_denominators,
    nullspace_basis,
    rank,
    rational,
    rational_str,
    solve_linear_system,
)

SEED = 1201


def identity(dim):
    return [Vec.unit(dim, i) for i in range(dim)]


def rnd_scalar(rng, span=30, den=12):
    return Scalar(rng.randint(-span, span), rng.randint(1, den))


def test_rational_parses_strings_ints_and_fractions():
    assert rational("3/4") == Scalar(3, 4)
    assert rational("-7") == Scalar(-7)
    assert rational(5) == Scalar(5)
    assert rational(Scalar(2, 6)) == Scalar(1, 3)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.25)


@pytest.mark.parametrize("value", [True, False])
def test_rational_rejects_booleans(value):
    """Fraction(True) is 1, so a JSON true would otherwise pass as a number."""
    with pytest.raises(TypeError):
        rational(value)
    with pytest.raises(TypeError):
        Vec([1, value])


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_rational_rejects_zero_denominators_as_bad_values(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rational(text)


def test_rational_names_the_input_in_its_message():
    with pytest.raises(ValueError, match="^'x' is not a rational p/q$"):
        rational("x")
    with pytest.raises(ValueError, match="^epsilons entry 2: 'x' is not a rational p/q$"):
        rational("x", "epsilons entry 2")
    with pytest.raises(ValueError, match="^g entry 1: zero denominator in '1/0'$"):
        rational("1/0", "g entry 1")
    with pytest.raises(TypeError, match="^r: refusing to coerce float 0.5"):
        rational(0.5, "r")
    assert rational("3/6", "r") == Scalar(1, 2)


@pytest.mark.parametrize("text", ["1e999999999", "1e-5000", "2E3", "-1/3e2"])
def test_rational_refuses_exponents_before_parsing_them(text):
    """Fraction("1e999999999") would compute the power of ten first; the
    string is refused at once, with the message of any bad rational."""
    with pytest.raises(ValueError, match="^r: %r is not a rational p/q$" % text):
        rational(text, "r")


def test_rational_str_always_carries_denominator():
    assert rational_str(Scalar(2)) == "2/1"
    assert rational_str(Scalar(-3, 7)) == "-3/7"
    assert rational_str(rational("10/4")) == "5/2"


def test_rational_str_of_a_scalar_matches_the_coerced_form():
    """A Scalar is printed from its own fields; ints, floats, strings and
    Fractions go through Scalar(value).  Both give the lowest-terms p/q."""
    rng = random.Random(SEED + 9)
    for _ in range(200):
        q = rnd_scalar(rng, span=10**6, den=10**4)
        assert rational_str(q) == "%d/%d" % (q.numerator, q.denominator)
    assert [rational_str(v) for v in (3, -0.5, "6/4", True, Scalar(-4, 6))] == \
        ["3/1", "-1/2", "3/2", "1/1", "-2/3"]


def test_scalar_is_canonical():
    q = Scalar(6, -8)
    assert q.numerator == -3 and q.denominator == 4


def test_vec_arithmetic_and_length_guard():
    u = Vec([1, 2, 3])
    v = Vec(["1/2", 0, -1])
    assert u + v == Vec([Scalar(3, 2), 2, 2])
    assert u - v == Vec([Scalar(1, 2), 2, 4])
    assert -v == Vec([Scalar(-1, 2), 0, 1])
    assert u * Scalar(1, 3) == Vec([Scalar(1, 3), Scalar(2, 3), 1])
    assert u.dot(v) == Scalar(1, 2) - 3
    with pytest.raises(ValueError):
        u + Vec([1, 2])
    with pytest.raises(ValueError):
        u.dot(Vec([1, 2]))


def test_vec_constructors():
    assert Vec.zero(3) == Vec([0, 0, 0])
    assert Vec.unit(3, 1) == Vec([0, 1, 0])
    assert Vec.zero(2).is_zero()
    assert not Vec.unit(2, 0).is_zero()


def test_ragged_rows_are_refused():
    for call in (rank, nullspace_basis, lambda a: solve_linear_system(a, Vec([1, 1]))):
        with pytest.raises(ValueError, match="ragged rows: 1 vs 2"):
            call([[1, 0], [1]])


def test_solve_identity():
    assert solve_linear_system(identity(3), Vec([1, 2, 3])) == Vec([1, 2, 3])


def test_solve_diagonal():
    got = solve_linear_system([[2, 0], [0, 4]], Vec([1, 1]))
    assert got == Vec([Scalar(1, 2), Scalar(1, 4)])


def test_solve_rank_deficient_raises():
    with pytest.raises(SingularError):
        solve_linear_system([[1, 1], [1, 1]], Vec([1, 0]))


def test_solve_requires_square():
    with pytest.raises(ValueError):
        solve_linear_system([[1, 0, 0], [0, 1, 0]], Vec([1, 2]))


def test_solve_random_systems_reproduce_rhs():
    rng = random.Random(SEED)
    solved = 0
    while solved < 25:
        d = rng.randint(1, 5)
        a = [Vec([rnd_scalar(rng) for _ in range(d)]) for _ in range(d)]
        b = Vec([rnd_scalar(rng) for _ in range(d)])
        try:
            x = solve_linear_system(a, b)
        except SingularError:
            continue
        assert Vec([row.dot(x) for row in a]) == b
        solved += 1


def test_nullspace_coordinate_kernel():
    basis = nullspace_basis([[1, 0, 0]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] == ZERO


def test_nullspace_full_rank_is_empty():
    assert nullspace_basis(identity(4)) == []


def test_nullspace_duplicate_rows():
    basis = nullspace_basis([[1, 1], [2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and not v.is_zero()


def test_nullspace_of_rowless_matrix_raises():
    with pytest.raises(ValueError, match="rowless"):
        nullspace_basis([])


def test_nullspace_vectors_are_kernel_and_independent():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        k = rng.randint(1, 4)
        d = rng.randint(1, 5)
        a = [Vec([rnd_scalar(rng, span=6, den=4) for _ in range(d)]) for _ in range(k)]
        basis = nullspace_basis(a)
        assert len(basis) == d - rank(a)
        for v in basis:
            assert all(row.dot(v) == ZERO for row in a)
        if basis:
            assert rank(basis) == len(basis)


def test_scalar_field_axioms_on_random_triples():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        a, b, c = (rnd_scalar(rng, span=99, den=40) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (ONE / a) == ONE


def test_rank_examples():
    assert rank([[1, 1], [2, 2]]) == 1
    assert rank(identity(5)) == 5
    assert rank([[0, 0], [0, 0]]) == 0


def oracle_nullspace(reduced, pivots, width):
    """The kernel basis read off a Fraction RREF: for each free column f,
    the vector with 1 at f and minus column f of the RREF at the pivots."""
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [ZERO] * width
            v[free] = ONE
            for row, col in zip(reduced, pivots):
                v[col] = -row[free]
            basis.append(Vec(v))
    return basis


def test_rank_matches_rational_elimination_on_random_matrices():
    """The fraction-free kernel against the Fraction RREF of the oracles:
    the rank is its pivot count, the nullspace basis has one vector per
    free column, and a square system's solution is its last column (or
    SingularError), also with dependent rows, all-zero rows, sparse rows
    and no rows."""
    rng = random.Random(SEED + 3)
    rhs_rng = random.Random(SEED + 4)
    deficient = squares = singular = 0
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = [[rnd_scalar(rng) if rng.random() < 0.7 else ZERO for _ in range(ncols)]
                for _ in range(rng.randint(0, 6))]
        if len(rows) >= 2 and rng.random() < 0.5:
            a, b = rnd_scalar(rng), rnd_scalar(rng)
            rows.insert(rng.randint(0, len(rows)), [a * x + b * y for x, y in zip(rows[0], rows[1])])
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [ZERO] * ncols)
        reduced = [list(r) for r in rows]
        pivots = _rref(reduced, ncols)
        expected = len(pivots)
        assert rank(rows) == expected
        deficient += expected < min(len(rows), ncols)
        if rows:
            assert nullspace_basis(rows) == oracle_nullspace(reduced, pivots, ncols)
        if len(rows) == ncols:
            rhs = [rnd_scalar(rhs_rng) for _ in range(ncols)]
            augmented = [list(r) + [c] for r, c in zip(rows, rhs)]
            if len(_rref(augmented, ncols)) < ncols:
                with pytest.raises(SingularError):
                    solve_linear_system(rows, rhs)
                singular += 1
            else:
                assert solve_linear_system(rows, rhs) == Vec(r[ncols] for r in augmented)
            squares += 1
    assert deficient > 50 and singular > 5 and squares - singular > 5
    assert rank([]) == 0
    assert rank([[ZERO] * 4] * 3) == 0


def test_int_nullspace_gives_reduced_positive_multiples_of_the_rref_basis():
    """_int_nullspace on cleared rows: per free column, an integer vector
    whose entries have gcd 1, whose last nonzero entry is its free one and
    positive, and which is a positive multiple of the Fraction RREF basis
    vector; nullspace_basis divides it by that entry."""
    rng = random.Random(SEED + 8)
    kernels = 0
    for _ in range(200):
        ncols = rng.randint(1, 6)
        rows = [[rnd_scalar(rng) if rng.random() < 0.6 else ZERO for _ in range(ncols)]
                for _ in range(rng.randint(1, 5))]
        reduced = [list(r) for r in rows]
        pivots = _rref(reduced, ncols)
        expected = oracle_nullspace(reduced, pivots, ncols)
        got = _int_nullspace([clear_denominators(r)[0] for r in rows], ncols)
        assert len(got) == len(expected) == ncols - len(pivots)
        for v, e in zip(got, expected):
            lead = next(c for c in reversed(v) if c)
            assert all(type(c) is int for c in v) and gcd(*v) == 1 and lead > 0
            assert Vec(Scalar(c, lead) for c in v) == e
        kernels += len(got)
    assert kernels > 100
