"""Exact LP solver: pinned degenerate runs, edge cases, and a floating-point oracle."""

import random

import pytest

from polyslice.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, ClearedRows, clear_rows, solve_lp
from polyslice.numeric import Scalar, rational

SEED = 3301

# (name, objective, leq, eq, options, expected status, point, value).  The
# expected triples were recorded from the earlier Fraction-tableau solver;
# the witness on a degenerate optimum depends on every Bland choice, so a
# change of pivot order shows here.  The minimize_* and bounded_nonneg_min
# cases minimize by maximizing the negated objective.
PINNED = [
    ("ratio_tie", [1, 1], [([1, 0], 1), ([1, 1], 1), ([0, 1], 1)], [], {},
     OPTIMAL, ("1", "0"), "1"),
    ("degenerate_origin_tie", [1, 0], [([1, -1], 0), ([1, 1], 0), ([1, 0], 1)], [], {},
     OPTIMAL, ("0", "0"), "0"),
    ("face_optimum_rational", ["1/2", "1/3"],
     [(["3/2", 1], 2), ([1, "2/3"], "4/3"), ([-1, 0], 0), ([0, -1], 0)], [], {},
     OPTIMAL, ("4/3", "0"), "2/3"),
    ("duplicate_equalities", [1, 2, 0], [([1, 1, 1], 3)],
     [([1, -1, 0], 0), ([2, -2, 0], 0), ([1, -1, 0], 0)], {"nonneg": True},
     OPTIMAL, ("3/2", "3/2", "0"), "9/2"),
    ("redundant_equality", [1, 0, -1], [([1, 0, 0], 2), ([0, 0, -1], 1)],
     [([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 2, 1], 2)], {},
     OPTIMAL, ("0", "1", "0"), "0"),
    ("negative_rhs", [-1, -1], [([-1, -2], -3), ([-3, -1], "-7/2")], [], {"nonneg": True},
     OPTIMAL, ("4/5", "11/10"), "-19/10"),
    ("negative_rhs_free", [1, -1],
     [([-1, 0], "-1/2"), (["1/3", 1], 2), ([1, 0], 3), ([0, -1], 1)], [], {},
     OPTIMAL, ("3", "-1"), "4"),
    ("negative_cleanup_pivot", [2, 0], [], [([-2, -2], -1), ([2, -1], 1), ([2, 0], 1)],
     {"nonneg": True}, OPTIMAL, ("1/2", "0"), "1"),
    ("negative_cleanup_pivot_free", [2], [([-1], 0)], [([-1], 0)], {},
     OPTIMAL, ("0",), "0"),
    ("minimize_free", ["-1/3", "1/2"], [([1, 1], 4), (["-1/2", 1], 1), ([-1, 0], 0)], [],
     {}, OPTIMAL, ("0", "1"), "1/2"),
    ("minimize_nonneg", [-1, -1, 0], [([1, 1, 1], 5)], [([1, 0, -1], -2), ([0, 1, 1], 3)],
     {"nonneg": True}, OPTIMAL, ("0", "1", "2"), "-1"),
    ("nonneg_degenerate", [1, 1, 1],
     [([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 0, 1], 1), ([1, 1, 1], "3/2")], [],
     {"nonneg": True}, OPTIMAL, ("1/2", "1/2", "1/2"), "3/2"),
    ("infeasible", [1, 0], [([1, 1], 1), ([-1, -1], -2)], [], {}, INFEASIBLE, None, None),
    ("infeasible_equalities", [0, 0], [], [([1, 1], 1), ([2, 2], 3)], {"nonneg": True},
     INFEASIBLE, None, None),
    ("unbounded", [1, 1], [([1, -1], 1)], [], {}, UNBOUNDED, None, None),
    ("bounded_nonneg_min", [1, -1], [([1, -1], 0)], [], {"nonneg": True},
     OPTIMAL, ("0", "0"), "0"),
    ("feasibility_only", [0, 0, 0], [([1, 1, 1], 1), (["-1/7", 0, 0], "-1/10")],
     [([0, 1, -1], "1/5")], {}, OPTIMAL, ("7/10", "1/5", "0"), "0"),
]


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_degenerate_runs(case):
    _, objective, leq, eq, options, status, point, value = case
    res = solve_lp(objective, leq=leq, eq=eq, **options)
    assert res.status == status
    if point is None:
        assert res.point is None and res.value is None
    else:
        assert res.point == tuple(rational(c) for c in point)
        assert res.value == rational(value)


@pytest.mark.parametrize("nonneg", [False, True])
def test_no_rows_left(nonneg):
    """No constraint rows at all, or only a row that phase one drops as
    dead: the answer comes from the objective's signs alone."""
    zero = (Scalar(0), Scalar(0))
    assert solve_lp([1, 0], nonneg=nonneg).status == UNBOUNDED
    assert solve_lp([1], eq=[([0], 0)], nonneg=nonneg).status == UNBOUNDED
    res = solve_lp([0, 0], nonneg=nonneg)
    assert (res.status, res.point, res.value) == (OPTIMAL, zero, 0)
    res = solve_lp([-1, 0], nonneg=nonneg)
    assert res.status == (OPTIMAL if nonneg else UNBOUNDED)
    res = solve_lp([-1, 0], eq=[([0, 0], 0)], nonneg=nonneg)
    assert res.status == (OPTIMAL if nonneg else UNBOUNDED)
    if nonneg:
        assert (res.point, res.value) == (zero, 0)
    assert solve_lp([1], eq=[([0], 1)], nonneg=nonneg).status == INFEASIBLE


def test_rejects_mismatched_arity_and_floats():
    with pytest.raises(ValueError):
        solve_lp([1, 1], leq=[([1], 1)])
    with pytest.raises(TypeError):
        solve_lp([0.5], leq=[([1], 1)])


def outcome(res):
    return res.status, res.point, res.value


def rescaled(rows, rng):
    """The rows cleared, then each scaled by a further positive integer, as
    a row cleared over more numbers than its own would be."""
    out = []
    for ints, q in clear_rows(rows):
        k = rng.randint(2, 7)
        out.append((tuple(k * c for c in ints), k * q))
    return ClearedRows(out)


def assert_same_on_cleared_rows(objective, leq, eq, options, rng):
    """Cleared rows, rescaled cleared rows and a mix of cleared and rational
    rows all give the cold solve's status, point and value, and solving
    leaves the cleared rows as they were."""
    cold = outcome(solve_lp(objective, leq=leq, eq=eq, **options))
    cleared_leq, cleared_eq = clear_rows(leq), clear_rows(eq)
    assert (len(cleared_leq), len(cleared_eq)) == (len(leq), len(eq))
    assert clear_rows(cleared_leq) is cleared_leq
    kept = (tuple(cleared_leq), tuple(cleared_eq))
    for rows_leq, rows_eq in ((cleared_leq, cleared_eq), (rescaled(leq, rng), rescaled(eq, rng)),
                              (cleared_leq, eq), (leq, cleared_eq)):
        assert outcome(solve_lp(objective, leq=rows_leq, eq=rows_eq, **options)) == cold
    assert (tuple(cleared_leq), tuple(cleared_eq)) == kept
    return cold


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_runs_are_unchanged_on_cleared_rows(case):
    _, objective, leq, eq, options, status, point, value = case
    got = assert_same_on_cleared_rows(objective, leq, eq, options, random.Random(SEED))
    assert got[0] == status
    if point is not None:
        assert (got[1], got[2]) == (tuple(rational(c) for c in point), rational(value))


def test_phase_one_weights_keep_the_witness_under_row_scaling():
    """Phase one weighs the artificials of the two equality rows, cleared
    with scales 1 and 3, by L / q; the witness on this degenerate optimum
    depends on those weights.  Rows cleared with larger scales must give the
    same witness."""
    leq = [(["-5/7", "-1/2", 3], "1257/98"), (["-1/7", -3, "2/3"], "1061/147"),
           (["1/2", 3, "4/7"], "39/14")]
    eq = [([-1, 1, -1], -4), ([1, -1, "-4/3"], "-16/3")]
    objective = [-2, 2, "4/7"]
    options = {"nonneg": True}
    rng = random.Random(SEED + 2)
    for _ in range(6):
        got = assert_same_on_cleared_rows(objective, leq, eq, options, rng)
        assert got == (OPTIMAL, (0, 0, 4), rational("16/7"))


def test_cleared_rows_are_checked_for_arity():
    with pytest.raises(ValueError, match="arity 1"):
        solve_lp([1, 1], leq=clear_rows([([1], 1)]))


def _random_lp(rng):
    dim = rng.randint(1, 4)

    def q():
        return Scalar(rng.randint(-5, 5), rng.randint(1, 4))

    def vec():
        return [q() for _ in range(dim)]

    x0 = [abs(q()) for _ in range(dim)]
    feasible = rng.random() < 0.8

    def rhs(a, slack):
        return sum(c * x for c, x in zip(a, x0)) + slack if feasible else q()

    leq = []
    for _ in range(rng.randint(0, 6)):
        a = vec()
        leq.append((a, rhs(a, rng.choice([Scalar(0), abs(q())]))))
    eq = []
    for _ in range(rng.randint(0, 2)):
        a = vec()
        eq.append((a, rhs(a, 0)))
    if eq and rng.random() < 0.3:
        a, b = eq[0]
        eq.append(([2 * c for c in a], 2 * b))
    # Half the LPs minimize, by maximizing the negated objective.
    sign = 1 if rng.random() < 0.5 else -1
    options = {"nonneg": rng.random() < 0.4}
    return [sign * c for c in vec()], leq, eq, options


def test_random_lps_are_unchanged_on_cleared_rows():
    """Each random LP free and nonneg, with its objective and the negated
    one, equality rows and negative right-hand sides included."""
    rng = random.Random(SEED + 1)
    seen = set()
    negative_rhs = 0
    for _ in range(120):
        objective, leq, eq, _ = _random_lp(rng)
        negative_rhs += any(b < 0 for _, b in leq + eq)
        for sign in (-1, 1):
            for nonneg in (False, True):
                cost = [sign * c for c in objective]
                options = {"nonneg": nonneg}
                seen.add(assert_same_on_cleared_rows(cost, leq, eq, options, rng)[0])
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert negative_rhs > 10


def test_agrees_with_scipy_on_random_lps():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(SEED)
    seen = set()
    for _ in range(300):
        objective, leq, eq, options = _random_lp(rng)
        res = solve_lp(objective, leq=leq, eq=eq, **options)
        ref = optimize.linprog(
            [-float(c) for c in objective],
            A_ub=[[float(c) for c in a] for a, _ in leq] or None,
            b_ub=[float(b) for _, b in leq] or None,
            A_eq=[[float(c) for c in a] for a, _ in eq] or None,
            b_eq=[float(b) for _, b in eq] or None,
            bounds=(0, None) if options["nonneg"] else (None, None),
            method="highs",
        )
        expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
        assert res.status == expected, (objective, leq, eq, options)
        seen.add(res.status)
        if res.status != OPTIMAL:
            continue
        assert abs(float(res.value) + ref.fun) <= 1e-9
        x = res.point
        assert all(sum(c * v for c, v in zip(a, x)) <= b for a, b in leq)
        assert all(sum(c * v for c, v in zip(a, x)) == b for a, b in eq)
        assert not options["nonneg"] or min(x) >= 0
        assert res.value == sum(c * v for c, v in zip(objective, x))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
