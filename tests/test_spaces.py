"""Norm-space builders, evaluators, and face queries."""

import dataclasses
import json
import random

import pytest

from polyslice.cli import main as cli_main
from polyslice.numeric import ONE, Scalar, Vec, ZERO, rational
from polyslice.polytope import contains, extreme_points, vertices
from polyslice.spaces import (
    PolyhedralNormSpace,
    _norm_ints,
    attaining_set,
    default_omega,
    dual_ball_vertices,
    load_space,
    make_space_II,
    make_space_VII,
    norm,
    reference_product_norm,
    save_space,
    space_from_dict,
    space_to_dict,
    unit_ball,
)

SEED = 4517
R10 = rational("1/10")


def rnd_vec(rng, dim, span=40, den=15):
    return Vec([Scalar(rng.randint(-span, span), rng.randint(1, den)) for _ in range(dim)])


def test_lifted_space_has_4n_plus_2_generators():
    for n in (1, 2, 3, 5):
        sp = make_space_II(n, R10)
        assert sp.dim == n + 1
        assert len(sp.generators) == 4 * n + 2


def test_lifted_generators_are_the_advertised_family():
    sp = make_space_II(2, R10)
    lift = rational("11/10")
    expected = {(ZERO, ZERO, lift), (ZERO, ZERO, -lift)}
    for n in range(2):
        for xi in (ONE, -ONE):
            for psi in (ONE, -ONE):
                v = [ZERO, ZERO, psi]
                v[n] = xi
                expected.add(tuple(v))
    assert {tuple(g) for g in sp.generators} == expected


def test_lifted_norm_examples():
    sp = make_space_II(2, R10)
    assert norm(sp, Vec([0, 0, rational("10/11")])) == ONE
    assert norm(sp, Vec([1, 0, 0])) == ONE
    assert norm(sp, Vec.zero(3)) == ZERO
    assert norm(sp, Vec([0, 0, 1])) == rational("11/10")


def test_lifted_builder_rejections():
    with pytest.raises(ValueError):
        make_space_II(0, R10)
    with pytest.raises(ValueError):
        make_space_II(2, 0)
    with pytest.raises(ValueError):
        make_space_II(2, "-1/4")


def test_weighted_space_has_10_per_tail_coordinate():
    for n in (2, 3, 4):
        sp = make_space_VII(n)
        assert sp.dim == n
        assert len(sp.generators) == 10 * (n - 1)


def test_default_omega_rule():
    assert default_omega(4) == (rational("11/12"), rational("17/18"), rational("23/24"))
    for w in default_omega(9):
        assert rational("5/6") < w <= ONE


def test_weighted_norm_examples():
    sp = make_space_VII(2)
    assert norm(sp, Vec([0, 1])) == ONE
    assert norm(sp, Vec([1, 1])) == rational("17/12")
    assert norm(sp, Vec([1, 0])) == ONE
    assert norm(sp, Vec.zero(2)) == ZERO


def test_weighted_builder_rejections():
    with pytest.raises(ValueError):
        make_space_VII(1)
    with pytest.raises(ValueError):
        make_space_VII(3, ("5/6", "11/12"))
    with pytest.raises(ValueError):
        make_space_VII(3, ("9/8", "11/12"))
    with pytest.raises(ValueError):
        make_space_VII(3, ("11/12",))


def test_weight_one_is_allowed():
    sp = make_space_VII(2, (ONE,))
    assert norm(sp, Vec([1, 1])) == rational("3/2")


def test_space_validation_catches_bad_generator_sets():
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([-1, 0])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([0, 1])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0]), Vec([-1, 0]), Vec([0, 0])), "custom")
    with pytest.raises(ValueError):
        PolyhedralNormSpace(2, (Vec([1, 0, 0]), Vec([-1, 0, 0])), "custom")


def test_reference_product_norm_examples():
    assert reference_product_norm(Vec([1, 0, 0]), 2) == ONE
    assert reference_product_norm(Vec([1, 1, "1/2"]), 2) == rational("3/2")
    assert reference_product_norm(Vec([0, 0, "-7/3"]), 2) == rational("7/3")
    assert reference_product_norm(Vec(["1/2"]), 0) == rational("1/2")
    with pytest.raises(IndexError):
        reference_product_norm(Vec([1, 2]), 2)


def test_norm_axioms_on_random_inputs():
    rng = random.Random(SEED)
    for sp in (make_space_II(2, R10), make_space_VII(3)):
        for _ in range(150):
            x = rnd_vec(rng, sp.dim)
            y = rnd_vec(rng, sp.dim)
            lam = Scalar(rng.randint(-9, 9), rng.randint(1, 5))
            assert norm(sp, x * lam) == abs(lam) * norm(sp, x)
            assert norm(sp, x + y) <= norm(sp, x) + norm(sp, y)
            assert (norm(sp, x) == ZERO) == x.is_zero()


def test_norm_sandwich_small_sample():
    rng = random.Random(SEED + 1)
    sp = make_space_II(2, R10)
    cap = 1 + R10
    for _ in range(100):
        z = rnd_vec(rng, 3)
        lower = reference_product_norm(z, 2)
        val = norm(sp, z)
        assert lower <= val <= cap * lower


def _generator_loop_norm(space, x):
    """The rational reference: max of phi.x over the generators."""
    return max(g.dot(x) for g in space.generators)


def test_integer_norm_matches_the_generator_loop():
    rng = random.Random(SEED + 7)
    custom = PolyhedralNormSpace(3, tuple(sorted(
        s * Vec(g) for g in (["2/3", "1/5", 0], [0, "5/4", "-3/7"], ["1/6", 0, "7/9"], [1, 1, 1])
        for s in (1, -1))), "custom")
    spaces = (
        make_space_II(1, R10),
        make_space_II(4, "3/7"),
        make_space_VII(4),
        make_space_VII(4, [1 - Scalar(k, 72) for k in (0, 5, 11)]),
        custom,
    )
    for sp in spaces:
        points = [rnd_vec(rng, sp.dim) for _ in range(60)]
        points += [rnd_vec(rng, sp.dim, den=1) for _ in range(20)]
        points += [Vec([-Scalar(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(sp.dim)])
                   for _ in range(20)]
        points += [Vec.zero(sp.dim), Vec.unit(sp.dim, sp.dim - 1) * -1]
        for x in points:
            value = norm(sp, x)
            assert value == _generator_loop_norm(sp, x)
            assert type(value) is Scalar


def test_integer_rows_keep_one_row_per_generator_pair():
    """Each +- pair of generators leaves the member that comes first in
    generator order, as one dense integer row over den."""
    custom = PolyhedralNormSpace(2, tuple(Vec(g) for g in (
        ["-1/2", 1], [1, 0], ["1/2", -1], [-1, 0])), "custom")
    for sp in (make_space_II(3, "3/7"), make_space_VII(3, ("71/72", "61/72")), custom):
        rows, den = sp._int_rows
        cleared = [tuple(int(c * den) for c in g) for g in sp.generators]
        firsts = [row for k, row in enumerate(cleared) if tuple(-c for c in row) not in cleared[:k]]
        assert list(rows) == firsts
        assert len(rows) == len(sp.generators) // 2
    assert custom._int_rows == (((-1, 2), (2, 0)), 2)


def test_norm_kernel_on_integer_points_and_the_zero_vector():
    """_norm_ints on a batch of one zero vector, and on the zero vector then
    30 random integer points as one batch, one value per point."""
    rng = random.Random(SEED + 11)
    for sp in (make_space_II(1, R10), make_space_II(5, "7/3"), make_space_VII(4)):
        den = sp._int_rows[1]
        assert _norm_ints(sp, [(0,)] * sp.dim) == [0]
        assert norm(sp, Vec.zero(sp.dim)) == ZERO
        pts = [(0,) * sp.dim] + [tuple(rng.randint(-40, 40) for _ in range(sp.dim))
                                 for _ in range(30)]
        expected = [den * _generator_loop_norm(sp, Vec(p)) for p in pts]
        assert _norm_ints(sp, list(zip(*pts))) == expected


def test_integer_rows_stay_out_of_equality_and_the_ball_cache():
    """Two equal spaces built separately are equal, hash alike and share a
    unit ball, also when only one of them has evaluated a norm."""
    for build in (lambda: make_space_II(3, "1/10"), lambda: make_space_VII(3, ("71/72", "61/72"))):
        a, b = build(), build()
        norm(a, Vec.unit(a.dim, 0))
        assert a is not b
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert unit_ball(b) is unit_ball(a)


def test_generators_are_cleared_once_for_the_checks_and_the_rows(monkeypatch):
    """The duplicate, symmetry and rank checks and _int_rows share one
    clearing of the generators: the rank check clears no row of its own."""
    import polyslice.numeric
    import polyslice.spaces

    calls = []
    clear = polyslice.numeric.clear_denominators
    for module in (polyslice.numeric, polyslice.spaces):
        monkeypatch.setattr(module, "clear_denominators",
                            lambda values: calls.append(1) or clear(values))
    sp = make_space_VII(4, ("71/72", "61/72", "67/72"))
    assert sp._int_rows[1] == 72 and len(sp._int_rows[0]) == len(sp.generators) // 2
    assert len(calls) == 1


def test_hash_is_the_field_tuple_hash_computed_once():
    """The cached hash equals the dataclass hash of (dim, generators, label,
    params) and is not a field, so fields and repr are unchanged."""
    sp = make_space_VII(3, ("71/72", "61/72"))
    assert hash(sp) == hash((sp.dim, sp.generators, sp.label, sp.params))
    assert [f.name for f in dataclasses.fields(sp)] == ["dim", "generators", "label", "params"]
    assert "_hash" in vars(sp) and "_hash" not in repr(sp)


def test_unit_ball_is_cached_and_polar():
    sp = make_space_II(2, R10)
    ball = unit_ball(sp)
    assert unit_ball(sp) is ball
    assert unit_ball(make_space_II(2, rational("1/10"))) is ball
    rng = random.Random(SEED + 2)
    for _ in range(100):
        x = rnd_vec(rng, 3, span=8, den=6)
        assert contains(ball, x) == (norm(sp, x) <= ONE)
        assert contains(ball, x) == all(phi.dot(x) <= ONE for phi in dual_ball_vertices(sp).vertices)


def test_gauge_identity_on_ball_vertices():
    for sp in (make_space_II(1, R10), make_space_II(2, R10), make_space_VII(2), make_space_VII(3)):
        for v in vertices(unit_ball(sp)).vertices:
            assert norm(sp, v) == ONE


def test_lifted_ball_vertices_n1():
    sp = make_space_II(1, R10)
    got = {tuple(v) for v in vertices(unit_ball(sp)).vertices}
    q = rational("1/11")
    h = rational("10/11")
    assert got == {(ONE, ZERO), (-ONE, ZERO), (q, h), (q, -h), (-q, h), (-q, -h)}


def test_lifted_ball_vertices_n2():
    sp = make_space_II(2, R10)
    got = {tuple(v) for v in vertices(unit_ball(sp)).vertices}
    q = rational("1/11")
    h = rational("10/11")
    expected = {(Scalar(a), Scalar(b), ZERO) for a in (1, -1) for b in (1, -1)}
    expected |= {(a * q, b * q, c * h) for a in (1, -1) for b in (1, -1) for c in (1, -1)}
    assert got == expected


def test_dual_ball_vertices_equal_generators():
    for sp in (make_space_II(2, R10), make_space_VII(2)):
        assert set(dual_ball_vertices(sp).vertices) == set(sp.generators)
    sp = make_space_II(2, R10)
    assert Vec([0, 0, rational("11/10")]) in dual_ball_vertices(sp).vertices


def test_attaining_set_examples():
    sp7 = make_space_VII(4)
    face = attaining_set(sp7, Vec.unit(4, 0))
    third = rational("1/3")
    expected = set()
    for n in range(1, 4):
        for s in (third, -third):
            v = [ZERO] * 4
            v[0] = ONE
            v[n] = s
            expected.add(tuple(v))
    assert {tuple(phi) for phi in face.attaining} == expected

    sp2 = make_space_II(2, R10)
    face2 = attaining_set(sp2, Vec([0, 0, rational("10/11")]))
    assert {tuple(phi) for phi in face2.attaining} == {(ZERO, ZERO, rational("11/10"))}

    with pytest.raises(ValueError):
        attaining_set(sp2, Vec.zero(3))


def test_attaining_set_at_ball_vertex_has_dim_elements():
    sp = make_space_II(2, R10)
    for v in vertices(unit_ball(sp)).vertices:
        assert len(attaining_set(sp, v).attaining) >= sp.dim


def test_param_access():
    sp = make_space_II(3, R10)
    assert sp.param("N") == 3
    assert sp.param("r") == R10
    assert sp.has_param("r") and not sp.has_param("omega")
    with pytest.raises(KeyError):
        sp.param("delta")


def test_space_json_round_trip(tmp_path):
    for sp in (make_space_II(2, R10), make_space_VII(3), make_space_VII(3, ("8/9", "9/10"))):
        path = tmp_path / "space.json"
        save_space(sp, path)
        assert load_space(path) == sp


def test_space_dict_shapes():
    d2 = space_to_dict(make_space_II(1, R10))
    assert d2["kind"] == "II" and d2["N"] == 1 and d2["r"] == "1/10"
    assert len(d2["generators"]) == 6
    d7 = space_to_dict(make_space_VII(2))
    assert d7["kind"] == "VII" and d7["omega"] == ["11/12"]


def test_custom_space_round_trip():
    gens = tuple(sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1])]))
    sp = PolyhedralNormSpace(2, gens, "custom")
    back = space_from_dict(space_to_dict(sp))
    assert back.generators == gens and back.label == "custom"


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        space_from_dict({"kind": "VIII", "generators": [["1/1"], ["-1/1"]]})


@pytest.mark.parametrize("data", [{"kind": "II"}, {"kind": "II", "N": 2}, {"kind": "VII"}, {}, []])
def test_space_from_dict_rejects_missing_keys_with_value_error(data):
    with pytest.raises(ValueError):
        space_from_dict(data)


@pytest.mark.parametrize("data", [
    {"kind": "II", "N": 1.5, "r": "1/10"},
    {"kind": "II", "N": True, "r": "1/10"},
    {"kind": "II", "N": "2", "r": "1/10"},
    {"kind": "VII", "N": 3.0},
    {"kind": "custom", "N": 1.0, "generators": [["1/1"], ["-1/1"]]},
])
def test_space_from_dict_rejects_non_integer_n(data):
    with pytest.raises(ValueError, match="'N' must be an integer"):
        space_from_dict(data)


def test_extra_point_is_dropped_from_dual_ball():
    sp = make_space_II(2, R10)
    padded = list(sp.generators) + [Vec.zero(3)]
    got = extreme_points(padded)
    assert set(got.vertices) == set(sp.generators)


# (dimension, generators, the one-line message) for each check of
# PolyhedralNormSpace, in the order the checks run.
BAD_GENERATOR_SETS = [
    (2, [[1, 0], [-1, 0], [1, 0, 0]], "generator of length 3 in dimension 2"),
    (2, [[1, 0], [-1, 0], [0, 0]], "zero generator"),
    (2, [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 1]], "duplicate generators"),
    (2, [[1, 0], [-1, 0], ["1/2", "1/3"]],
     "generator set is not symmetric: missing Vec(-1/2, -1/3)"),
    (2, [[1, 0], [-1, 0]], "generators do not span the dual; the gauge is not a norm"),
    (3, [["1/2", 1, 0], ["-1/2", -1, 0], [1, 2, 0], [-1, -2, 0], [0, 0, 1], [0, 0, -1]],
     "generators do not span the dual; the gauge is not a norm"),
    # The first failing check wins.
    (2, [[0, 0], [1, 0, 0]], "zero generator"),
    (2, [[1, 0], [1, 0], [0, 1]], "duplicate generators"),
    (2, [[1, 0]], "generator set is not symmetric: missing Vec(-1, 0)"),
]


@pytest.mark.parametrize("dim, gens, message", BAD_GENERATOR_SETS)
def test_space_validation_messages(dim, gens, message):
    with pytest.raises(ValueError) as info:
        PolyhedralNormSpace(dim, tuple(Vec(g) for g in gens), "custom")
    assert str(info.value) == message


def test_space_validation_rejects_a_nonpositive_dimension():
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        PolyhedralNormSpace(0, (), "custom")


@pytest.mark.parametrize("dim, gens, message", BAD_GENERATOR_SETS)
def test_space_file_validation_messages(tmp_path, capsys, dim, gens, message):
    """The same messages from space_from_dict, which sorts the generators
    and takes the dimension from the first one listed, and from --space,
    where each is one error line and exit 2."""
    data = {"kind": "custom", "generators": [[str(c) for c in g] for g in gens]}
    with pytest.raises(ValueError) as info:
        space_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as info:
        cli_main(["verify-ext", "--space", str(path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == ["polyslice: error: " + message]
