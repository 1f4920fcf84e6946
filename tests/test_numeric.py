"""Exact scalar, vector, and linear-algebra layer."""

import random

import pytest

from polyslice.numeric import (
    Matrix,
    ONE,
    Scalar,
    SingularError,
    Vec,
    ZERO,
    nullspace_basis,
    rank,
    rational,
    rational_str,
    solve_linear_system,
)

SEED = 1201


def identity(dim):
    return Matrix(Vec.unit(dim, i) for i in range(dim))


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


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_rational_rejects_zero_denominators_as_bad_values(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rational(text)


def test_rational_str_always_carries_denominator():
    assert rational_str(Scalar(2)) == "2/1"
    assert rational_str(Scalar(-3, 7)) == "-3/7"
    assert rational_str(rational("10/4")) == "5/2"


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


def test_matrix_is_immutable():
    m = Matrix([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        m.rows = ()


def test_solve_identity():
    assert solve_linear_system(identity(3), Vec([1, 2, 3])) == Vec([1, 2, 3])


def test_solve_diagonal():
    got = solve_linear_system(Matrix([[2, 0], [0, 4]]), Vec([1, 1]))
    assert got == Vec([Scalar(1, 2), Scalar(1, 4)])


def test_solve_rank_deficient_raises():
    with pytest.raises(SingularError):
        solve_linear_system(Matrix([[1, 1], [1, 1]]), Vec([1, 0]))


def test_solve_requires_square():
    with pytest.raises(ValueError):
        solve_linear_system(Matrix([[1, 0, 0], [0, 1, 0]]), Vec([1, 2]))


def test_solve_random_systems_reproduce_rhs():
    rng = random.Random(SEED)
    solved = 0
    while solved < 25:
        d = rng.randint(1, 5)
        a = Matrix([[rnd_scalar(rng) for _ in range(d)] for _ in range(d)])
        b = Vec([rnd_scalar(rng) for _ in range(d)])
        try:
            x = solve_linear_system(a, b)
        except SingularError:
            continue
        assert Vec([row.dot(x) for row in a.rows]) == b
        solved += 1


def test_nullspace_coordinate_kernel():
    basis = nullspace_basis(Matrix([[1, 0, 0]]))
    assert len(basis) == 2
    for v in basis:
        assert v[0] == ZERO


def test_nullspace_full_rank_is_empty():
    assert nullspace_basis(identity(4)) == []


def test_nullspace_duplicate_rows():
    basis = nullspace_basis(Matrix([[1, 1], [2, 2]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and not v.is_zero()


def test_nullspace_of_rowless_matrix_needs_dim():
    assert nullspace_basis(Matrix([]), dim=3) == [Vec.unit(3, i) for i in range(3)]
    with pytest.raises(ValueError):
        nullspace_basis(Matrix([]))


def test_nullspace_vectors_are_kernel_and_independent():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        k = rng.randint(1, 4)
        d = rng.randint(1, 5)
        a = Matrix([[rnd_scalar(rng, span=6, den=4) for _ in range(d)] for _ in range(k)])
        basis = nullspace_basis(a)
        assert len(basis) == d - rank(a)
        for v in basis:
            assert all(row.dot(v) == ZERO for row in a.rows)
        if basis:
            assert rank(Matrix(basis)) == len(basis)


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
    assert rank(Matrix([[1, 1], [2, 2]])) == 1
    assert rank(identity(5)) == 5
    assert rank(Matrix([[0, 0], [0, 0]])) == 0
